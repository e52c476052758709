#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hwmodel/dvfs.hpp"
#include "hwmodel/nf_cost.hpp"
#include "hwmodel/node.hpp"
#include "nfvsim/knobs.hpp"

/// \file controller.hpp
/// The ONVM-style manager. Holds the node's chain compositions (names plus
/// catalog cost profiles) and each chain's knob configuration, snaps DVFS
/// requests to the ladder, drives CAT partitioning, and translates its
/// state into hwmodel deployments for the analytic engine. GreenNFV's NF
/// controller (core/nf_controller) issues `apply_knobs` calls against this
/// class — the same interface the paper added to the ONVM controller.
///
/// The controller builds no packet datapath: NF objects and rings exist
/// only inside a ThreadedEngine, which builds its own ServiceChains from
/// `compositions()`. Rebuilding an analytic environment therefore costs
/// three catalog lookups per chain.
///
/// Deployments borrow: a ChainDeployment's `nfs` spans its composition's
/// `profiles`, which nothing changes after `add_chain` and which stay valid
/// (later `add_chain` calls move compositions, not profile buffers) until
/// the controller is destroyed.

namespace greennfv::nfvsim {

/// NF scheduling discipline.
enum class SchedMode {
  kPoll,    ///< DPDK default: dedicated spinning, 100% duty
  kHybrid,  ///< paper's "mix of callback and polling": sleep on empty queues
};

[[nodiscard]] std::string to_string(SchedMode mode);

/// One deployed chain as the controller knows it: its NF names in chain
/// order and their catalog cost profiles (what the analytic model reads).
struct ChainComposition {
  std::string name;
  std::vector<std::string> nf_names;
  std::vector<hwmodel::NfCostProfile> profiles;
  /// hwmodel::total_state_bytes(profiles), summed once at add_chain.
  std::uint64_t state_bytes = 0;
};

class OnvmController {
 public:
  explicit OnvmController(hwmodel::NodeSpec spec = hwmodel::NodeSpec{},
                          SchedMode mode = SchedMode::kHybrid);

  /// Deploys a chain of NF catalog names; returns its index. Throws
  /// std::invalid_argument for an unknown NF name (the catalog lookup).
  int add_chain(const std::string& name,
                const std::vector<std::string>& nf_names);

  [[nodiscard]] std::size_t num_chains() const { return chains_.size(); }
  [[nodiscard]] const std::vector<ChainComposition>& compositions() const {
    return chains_;
  }

  /// Applies a knob configuration to one chain: clamps to hardware limits
  /// and snaps the frequency to the DVFS ladder. Returns what was applied.
  ChainKnobs apply_knobs(std::size_t chain_index, const ChainKnobs& knobs);

  [[nodiscard]] const ChainKnobs& knobs(std::size_t chain_index) const {
    return knobs_.at(chain_index);
  }
  /// The applied knobs of every chain, in chain order.
  [[nodiscard]] const std::vector<ChainKnobs>& knobs() const {
    return knobs_;
  }

  /// Enables/disables CAT partitioning (baseline runs without it).
  void set_use_cat(bool use_cat) { use_cat_ = use_cat; }
  [[nodiscard]] bool use_cat() const { return use_cat_; }

  void set_sched_mode(SchedMode mode) { sched_mode_ = mode; }
  [[nodiscard]] SchedMode sched_mode() const { return sched_mode_; }

  [[nodiscard]] const hwmodel::NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const hwmodel::DvfsController& dvfs() const { return dvfs_; }

  /// Fills `out` with one hwmodel deployment per chain for the current
  /// knob state and the given per-chain workloads (one entry per chain),
  /// reusing its storage. The deployments borrow this controller's
  /// profiles (see the file comment).
  void deployments(std::span<const hwmodel::ChainWorkload> workloads,
                   std::vector<hwmodel::ChainDeployment>& out) const;

 private:
  hwmodel::NodeSpec spec_;
  hwmodel::DvfsController dvfs_;
  SchedMode sched_mode_;
  bool use_cat_ = true;
  std::vector<ChainComposition> chains_;
  std::vector<ChainKnobs> knobs_;
};

}  // namespace greennfv::nfvsim
