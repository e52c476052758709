/// Energy audit of a consolidated NFV node: what each chain of the
/// resolved scenario costs, how the Linux governors compare, and how the
/// Fan-model calibration the paper performs against its Yokogawa WT210
/// works in this library.
///
///   build/examples/chain_energy_audit [scenario=NAME] [any scenario key]

#include <cstdio>
#include <exception>

#include "common/log.hpp"
#include "common/units.hpp"
#include "hwmodel/calibration.hpp"
#include "hwmodel/node.hpp"
#include "nfvsim/chain.hpp"
#include "scenario/presets.hpp"

using namespace greennfv;
using namespace greennfv::hwmodel;

namespace {

int run(const Config& config) {
  if (scenario::print_help_if_requested(config)) return 0;
  std::vector<std::string> keys = scenario::ScenarioSpec::known_keys();
  keys.emplace_back("help");
  config.check_known(keys, scenario::ScenarioSpec::known_prefixes());
  const scenario::ScenarioSpec scenario_spec = scenario::resolve(config);
  const NodeSpec spec = scenario_spec.node;
  std::printf("NFV node energy audit — scenario %s\n"
              "=====================\n\n",
              scenario_spec.name.c_str());

  // --- 1. calibrate the power model against the (synthetic) wall meter -------
  NodeSpec truth = spec;
  truth.fan_h = 1.37;  // hidden ground truth the meter embodies
  PowerMeter meter(truth, /*noise W=*/2.0, Rng(11));
  const auto fit = fit_fan_h(spec, meter.calibration_sweep(128));
  std::printf("Fan-model calibration: fitted h = %.3f (rmse %.2f W, %d"
              " evals)\n\n", fit.h, fit.rmse_w, fit.evaluations);

  // --- 2. per-chain cost on a consolidated node -------------------------------
  NodeSpec calibrated = spec;
  calibrated.fan_h = fit.h;
  const NodeModel node(calibrated);

  // The scenario's chain compositions (standard rotation unless the
  // scenario names its own).
  std::vector<std::vector<std::string>> compositions;
  for (int c = 0; c < scenario_spec.num_chains; ++c) {
    compositions.push_back(
        scenario_spec.chain_nfs.empty()
            ? nfvsim::standard_chain_nfs(c)
            : scenario_spec.chain_nfs[static_cast<std::size_t>(c)]);
  }
  // Deployments borrow their profiles: fill every chain's list first.
  std::vector<std::vector<NfCostProfile>> profiles;
  for (const auto& nfs : compositions) {
    profiles.emplace_back();
    for (const auto& nf : nfs)
      profiles.back().push_back(nf_catalog::by_name(nf));
  }
  std::vector<ChainDeployment> chains;
  for (const auto& nfs : profiles) {
    ChainDeployment dep;
    dep.set_nfs(nfs);
    dep.workload.offered_pps = 1.0e6;
    dep.workload.pkt_bytes = 512;
    dep.cores = 2.0;
    dep.freq_ghz = 1.8;
    dep.llc_fraction = 1.0 / static_cast<double>(compositions.size());
    dep.dma_bytes = 8ull * units::kMiB;
    dep.batch = 64;
    chains.push_back(std::move(dep));
  }
  const auto eval = node.evaluate(chains, /*use_cat=*/true);
  std::printf("consolidated node @ 1 Mpps per chain (CAT on, hybrid):\n");
  std::printf("  %-28s %8s %9s %10s\n", "chain", "Gbps", "share W",
              "J/Mpkt");
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::string label;
    for (const auto& nf : compositions[c]) {
      if (!label.empty()) label += "+";
      label += nf;
    }
    std::printf("  %-28s %8.2f %9.1f %10.1f\n", label.c_str(),
                eval.chains[c].eval.throughput_gbps,
                eval.chains[c].power_w,
                eval.chains[c].energy_per_mpkt_j);
  }
  std::printf("  node total: %.1f W at %.0f%% utilization\n\n",
              eval.power_w, eval.utilization * 100.0);

  // --- 3. governor comparison on the same workload ---------------------------
  std::printf("governor comparison (same chains, same traffic):\n");
  for (const Governor g : {Governor::kPerformance, Governor::kOndemand,
                           Governor::kConservative, Governor::kPowersave}) {
    DvfsController ladder(calibrated);
    ladder.set_governor(g);
    const double freq = ladder.effective_frequency(/*load=*/0.55,
                                                   /*previous=*/1.6);
    auto tuned = chains;
    for (auto& dep : tuned) dep.freq_ghz = freq;
    const auto run = node.evaluate(tuned, true);
    std::printf("  %-13s -> %.1f GHz, %6.2f Gbps, %6.1f W\n",
                to_string(g).c_str(), freq, run.total_goodput_gbps,
                run.power_w);
  }

  // --- 4. poll vs hybrid at low load: the C-state dividend --------------------
  auto idle = chains;
  for (auto& dep : idle) dep.workload.offered_pps = 5e4;  // near idle
  auto polled = idle;
  for (auto& dep : polled) dep.poll_mode = true;
  const auto hybrid_eval = node.evaluate(idle, true);
  const auto poll_eval = node.evaluate(polled, true);
  std::printf("\nnear-idle node: poll-mode %.1f W vs hybrid %.1f W "
              "(sleep saves %.1f W)\n",
              poll_eval.power_w, hybrid_eval.power_w,
              poll_eval.power_w - hybrid_eval.power_w);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    GNFV_LOG_ERROR("chain_energy_audit") << e.what();
    return 2;
  }
}
