#pragma once

#include <cstdint>

#include "orchestrator/fleet.hpp"
#include "scenario/experiment.hpp"

/// \file layer_replay.hpp
/// Re-runs FleetOrchestrator::run_model for one roster model through the
/// public per-layer calls it is made of, timing each call from outside:
/// membership replay (orchestrator), node partitioning (scenario),
/// scheduler/environment/controller construction, warmup and the
/// per-window advance (core), and series recording (telemetry). The
/// returned ModelReport is compared bit for bit against run_model's; only
/// when they agree does the split describe the same work.

namespace perfbench {

namespace core = greennfv::core;
namespace orchestrator = greennfv::orchestrator;
namespace scenario = greennfv::scenario;

/// Host seconds and call counts per layer, summed over one replay.
struct ReplayTimes {
  double replay_s = 0.0;            ///< MembershipReplay::advance
  double partition_s = 0.0;         ///< scenario::partition_node_env
  double scheduler_make_s = 0.0;    ///< SchedulerFactory::make
  double env_build_s = 0.0;         ///< NfvEnvironment build + teardown
  double controller_build_s = 0.0;  ///< NfController build + teardown
  double warmup_s = 0.0;            ///< settling windows + profile alignment
  double advance_s = 0.0;           ///< NfController::run(1) per node-window
  double record_s = 0.0;            ///< Recorder::record + series copy-out
  std::uint64_t partition_calls = 0;
  std::uint64_t flows_scanned = 0;  ///< partition calls x flow-pool size
  std::uint64_t flows_kept = 0;     ///< flows handed to node environments
  std::uint64_t env_builds = 0;
  std::uint64_t node_windows = 0;
  std::uint64_t record_calls = 0;

  /// Sum of the timed calls above.
  [[nodiscard]] double covered_s() const;
};

/// Replays `entry` over `fleet`'s timeline, adding per-call times into
/// `times`. Emits one trace span per model and one per env rebuild.
scenario::ModelReport replay_run_model(
    const orchestrator::FleetOrchestrator& fleet,
    const scenario::SchedulerFactory& entry, ReplayTimes& times);

/// True when every field of the two results is bit-identical.
[[nodiscard]] bool same_bits(const core::EvalResult& a,
                             const core::EvalResult& b);

}  // namespace perfbench
