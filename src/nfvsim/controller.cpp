#include "nfvsim/controller.hpp"

#include "common/assert.hpp"

namespace greennfv::nfvsim {

std::string to_string(SchedMode mode) {
  return mode == SchedMode::kPoll ? "poll" : "hybrid";
}

OnvmController::OnvmController(hwmodel::NodeSpec spec, SchedMode mode)
    : spec_(spec), dvfs_(spec), sched_mode_(mode) {
  dvfs_.set_governor(hwmodel::Governor::kUserspace);
}

int OnvmController::add_chain(const std::string& name,
                              const std::vector<std::string>& nf_names) {
  GNFV_REQUIRE(!nf_names.empty(), "add_chain: empty NF list");
  ChainComposition chain{name, nf_names, {}};
  chain.profiles.reserve(nf_names.size());
  for (const auto& nf_name : nf_names)
    chain.profiles.push_back(hwmodel::nf_catalog::by_name(nf_name));
  chain.state_bytes = hwmodel::total_state_bytes(chain.profiles);
  chains_.push_back(std::move(chain));
  knobs_.push_back(baseline_knobs(spec_));
  return static_cast<int>(chains_.size()) - 1;
}

ChainKnobs OnvmController::apply_knobs(std::size_t chain_index,
                                       const ChainKnobs& knobs) {
  GNFV_REQUIRE(chain_index < chains_.size(), "apply_knobs: bad chain index");
  ChainKnobs applied = knobs.clamped(spec_);
  applied.freq_ghz = dvfs_.snap(applied.freq_ghz);
  knobs_[chain_index] = applied;
  return applied;
}

void OnvmController::deployments(
    std::span<const hwmodel::ChainWorkload> workloads,
    std::vector<hwmodel::ChainDeployment>& out) const {
  GNFV_REQUIRE(workloads.size() == chains_.size(),
               "deployments: workload count != chain count");
  out.resize(chains_.size());
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    hwmodel::ChainDeployment& dep = out[i];
    dep.nfs = chains_[i].profiles;
    dep.state_bytes = chains_[i].state_bytes;
    dep.workload = workloads[i];
    dep.cores = knobs_[i].cores;
    dep.freq_ghz = knobs_[i].freq_ghz;
    dep.llc_fraction = knobs_[i].llc_fraction;
    dep.dma_bytes = knobs_[i].dma_bytes;
    dep.batch = knobs_[i].batch;
    dep.poll_mode = sched_mode_ == SchedMode::kPoll;
  }
}

}  // namespace greennfv::nfvsim
