#pragma once

#include <cstdint>
#include <span>

#include "hwmodel/cache.hpp"
#include "hwmodel/dma.hpp"
#include "hwmodel/nf_cost.hpp"
#include "hwmodel/node_spec.hpp"

/// \file cost_model.hpp
/// The analytic throughput model: maps (chain NFs, offered load, resource
/// knobs) to cycles/packet, service rate, goodput, and drop behaviour.
///
/// Model structure (each term is individually exercised by the paper's
/// micro-benchmarks):
///
///   cycles/pkt = Σ_nf [ base + cpb·bytes + refs·miss·latency(f) ]
///              + hops·(hop + call/batch)                      (batching, Fig 3)
///              + pkt_lines·(1 - ddio_hit)·latency(f)          (DDIO, Fig 4)
///
///   miss      = capacity curve of WS vs CAT allocation        (LLC, Fig 1)
///   latency(f)= mem_latency_ns · f  — constant in time, so higher
///               frequency pays more *cycles* per miss          (DVFS, Fig 2)
///
///   service   = cores · f / cycles/pkt, capped by the DMA absorption limit
///   goodput   = offered when underloaded; receive-livelock collapse
///               service·(service/offered)^β when overloaded.

namespace greennfv::hwmodel {

/// Offered load presented to one chain.
struct ChainWorkload {
  double offered_pps = 0.0;
  std::uint32_t pkt_bytes = 1024;
};

/// Resolved resource assignment for one chain (LLC already in bytes; the
/// NodeModel translates the CAT fraction knob before calling in here).
struct ChainResources {
  double cores = 1.0;
  double freq_ghz = 2.1;
  std::uint64_t llc_bytes = 1ull << 20;
  std::uint64_t dma_bytes = 2ull << 20;
  std::uint32_t batch = 32;
  /// Pure poll-mode burns full duty on the allocated cores; hybrid
  /// (callback+poll, what GreenNFV implements) lets idle NFs sleep.
  bool poll_mode = false;
  /// LLC not partitioned by CAT (baseline mode): conflict misses apply.
  bool shared_llc = false;
};

/// Everything the model can say about one chain at steady state.
struct ChainEvaluation {
  double cycles_per_pkt = 0.0;
  double service_pps = 0.0;     ///< capacity at these knobs
  double goodput_pps = 0.0;     ///< delivered packets after drops
  double drop_pps = 0.0;
  double throughput_gbps = 0.0; ///< payload bits delivered
  double wire_gbps = 0.0;       ///< incl. Ethernet preamble+IFG
  double miss_ratio = 0.0;
  double misses_per_pkt = 0.0;
  double ddio_hit = 1.0;
  double busy_cores = 0.0;      ///< cores actually burning cycles
  double capacity_utilization = 0.0;  ///< goodput / service
  std::uint64_t working_set_bytes = 0;
  /// Mean packet sojourn time: batch-assembly wait + service + M/M/1-style
  /// queueing delay. The latency face of the batching trade-off — large
  /// batches buy throughput (Fig. 3) but add assembly delay, the constraint
  /// the delay-aware related work (Qu et al., Kar et al.) optimizes.
  double mean_latency_us = 0.0;
};

class CostModel {
 public:
  explicit CostModel(const NodeSpec& spec)
      : spec_(spec), cache_(spec), dma_(spec) {}

  /// Steady-state evaluation of one chain. `state_bytes` is
  /// total_state_bytes(nfs), a per-chain constant the caller sums once.
  [[nodiscard]] ChainEvaluation evaluate_chain(
      std::span<const NfCostProfile> nfs, std::uint64_t state_bytes,
      const ChainWorkload& load, const ChainResources& res) const;

  /// The same for a bare profile list, summing its state here.
  [[nodiscard]] ChainEvaluation evaluate_chain(
      std::span<const NfCostProfile> nfs, const ChainWorkload& load,
      const ChainResources& res) const {
    return evaluate_chain(nfs, total_state_bytes(nfs), load, res);
  }

  /// The cache demand of a chain holding `state_bytes` of resident state
  /// (exposed for NodeModel's contention bookkeeping).
  [[nodiscard]] CacheDemand demand_of(std::uint64_t state_bytes,
                                      const ChainWorkload& load,
                                      const ChainResources& res) const;

  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] const CacheModel& cache() const { return cache_; }
  [[nodiscard]] const DmaModel& dma() const { return dma_; }

 private:
  NodeSpec spec_;
  CacheModel cache_;
  DmaModel dma_;
};

}  // namespace greennfv::hwmodel
