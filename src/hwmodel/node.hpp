#pragma once

#include <span>
#include <vector>

#include "hwmodel/cat.hpp"
#include "hwmodel/cost_model.hpp"
#include "hwmodel/power_model.hpp"

/// \file node.hpp
/// NodeModel: the full analytic model of one NFV host. Takes the set of
/// chains deployed on the node — each with its NF list, offered load, and
/// resource knobs — and produces steady-state throughput, utilization, and
/// power, with per-chain attribution for the figures that report per-chain
/// energy (Fig. 1c, Fig. 4b).
///
/// A ChainDeployment borrows its cost profiles: `nfs` spans storage the
/// caller owns (OnvmController's compositions, or a named vector), which must
/// outlive each evaluation and not change under it.

namespace greennfv::hwmodel {

/// One chain's deployment on the node, in knob form (LLC as a CAT fraction).
struct ChainDeployment {
  /// The chain's NF cost profiles, borrowed (see the file comment).
  std::span<const NfCostProfile> nfs;
  /// total_state_bytes(nfs): a per-chain constant, summed once.
  std::uint64_t state_bytes = 0;
  ChainWorkload workload;
  /// The five GreenNFV control knobs plus the scheduling mode.
  double cores = 1.0;
  double freq_ghz = 2.1;
  double llc_fraction = 0.25;  ///< share of allocatable (non-DDIO) LLC
  std::uint64_t dma_bytes = 2ull << 20;
  std::uint32_t batch = 32;
  bool poll_mode = false;

  /// Points the deployment at `profiles` and sums their resident state.
  void set_nfs(std::span<const NfCostProfile> profiles) {
    nfs = profiles;
    state_bytes = total_state_bytes(profiles);
  }
};

/// Per-chain results plus attributed power.
struct ChainReport {
  ChainEvaluation eval;
  double power_w = 0.0;        ///< this chain's attributed share incl. idle
  double energy_per_mpkt_j = 0.0;  ///< joules per million delivered packets
  std::uint64_t llc_bytes = 0; ///< resolved CAT allocation
};

/// Whole-node results for one steady-state window.
struct NodeEvaluation {
  std::vector<ChainReport> chains;
  double utilization = 0.0;     ///< busy cores / total cores
  double allocated_cores = 0.0;
  double power_w = 0.0;
  double total_goodput_gbps = 0.0;
  double total_offered_gbps = 0.0;
  double total_goodput_pps = 0.0;
  double total_drop_pps = 0.0;

  /// Energy for a window of `seconds` at this steady state.
  [[nodiscard]] double energy_j(double seconds) const {
    return power_w * seconds;
  }
};

class NodeModel {
 public:
  explicit NodeModel(const NodeSpec& spec = NodeSpec{});

  /// Evaluates the node at steady state into `out`, overwriting every
  /// field and reusing the storage of `out.chains`.
  ///
  /// `use_cat` = true partitions the allocatable LLC by each chain's
  /// llc_fraction (GreenNFV's mode); false leaves the cache unpartitioned
  /// so chains receive contended, demand-proportional shares (the
  /// baseline's mode).
  void evaluate(std::span<const ChainDeployment> chains, bool use_cat,
                NodeEvaluation& out) const;

  /// The same, returning a fresh result.
  [[nodiscard]] NodeEvaluation evaluate(
      const std::vector<ChainDeployment>& chains, bool use_cat = true) const;

  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }

 private:
  NodeSpec spec_;
  CostModel cost_;
  PowerModel power_;
};

}  // namespace greennfv::hwmodel
