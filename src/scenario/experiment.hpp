#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/nf_controller.hpp"
#include "scenario/scenario_spec.hpp"
#include "telemetry/recorder.hpp"

/// \file experiment.hpp
/// The uniform evaluation surface: a roster of scheduler factories run
/// through one ExperimentRunner against one ScenarioSpec, every model
/// measured by the identical NfvEnvironment::run_window loop the paper's
/// Fig. 9 comparison uses. Single-node scenarios evaluate exactly like the
/// pre-existing harness (same seeds -> same numbers); multi-node scenarios
/// place chains over the fleet, partition the traffic per node, and
/// aggregate fleet-level metrics (idle nodes still burn idle power).

namespace greennfv::scenario {

/// Builds one scheduling model for a (possibly per-node) environment
/// shape. `make` receives the evaluation EnvConfig (scenario SLA included)
/// and the scenario's base seed; trained models derive their training SLA
/// and seed offsets internally, mirroring the figure benches' seed
/// discipline.
struct SchedulerFactory {
  std::string name;
  /// Unrecorded settling windows before measurement (Algorithm 1 converges
  /// slowly, so the heuristic gets a long one).
  int warmup = 2;
  std::function<std::unique_ptr<core::Scheduler>(
      const core::EnvConfig& env, std::uint64_t seed)>
      make;
};

/// The full Fig. 9 roster in table order: Baseline, Heuristics, EE-Pstate,
/// Q-Learning, GreenNFV(MinE), GreenNFV(MaxT), GreenNFV(EE) — training
/// budgets, SLA constants, and seed offsets taken from the spec.
[[nodiscard]] std::vector<SchedulerFactory> default_roster(
    const ScenarioSpec& spec);

/// The non-trained subset (Baseline, Heuristics, EE-Pstate): instant to
/// build, useful for smoke runs and reactive-control studies.
[[nodiscard]] std::vector<SchedulerFactory> untrained_roster(
    const ScenarioSpec& spec);

/// Picks roster entries by comma-separated name list (case and punctuation
/// insensitive: "greennfv-maxt" matches "GreenNFV(MaxT)"). Unknown names
/// are a hard error listing what the roster offers.
[[nodiscard]] std::vector<SchedulerFactory> filter_roster(
    const std::vector<SchedulerFactory>& roster, const std::string& csv);

/// The telemetry prefix a model's per-window series are recorded under
/// ("GreenNFV(MaxT)" -> "greennfv_maxt_").
[[nodiscard]] std::string series_prefix(const std::string& model_name);

// --- deployment plumbing shared with orchestrator::FleetOrchestrator -------

/// Fig. 9's evaluation-seed discipline: the seed a node's evaluation
/// environment is built from (base + eval offset + per-node stride, so
/// cluster nodes run independent traffic realizations).
[[nodiscard]] std::uint64_t node_eval_seed(const ScenarioSpec& spec,
                                           std::size_t node);

/// The scenario's resolved flow list: explicit `flows`, or the §5 workload
/// generator over num_flows/total_offered_gbps at the scenario seed (the
/// form the cluster partition consumes).
[[nodiscard]] std::vector<traffic::FlowSpec> resolved_flows(
    const ScenarioSpec& spec);

/// The scenario's resolved per-chain NF compositions (explicit chain_nfs,
/// or the standard heterogeneous rotation).
[[nodiscard]] std::vector<std::vector<std::string>> resolved_chain_nfs(
    const ScenarioSpec& spec);

/// Appends every series of `from` to `to` under `prefix` (no-op when `to`
/// is null): how a node's or model's local recorder joins the caller's.
void copy_series(const telemetry::Recorder& from, telemetry::Recorder* to,
                 const std::string& prefix);

/// Builds the evaluation EnvConfig of one node hosting `local_chains`
/// (indices into `comps`; flows are matched by FlowSpec::chain_index and
/// remapped to node-local chain indices in flow-list order). Throws
/// std::invalid_argument when the node would host chains without traffic.
[[nodiscard]] core::EnvConfig partition_node_env(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& comps,
    const std::vector<traffic::FlowSpec>& flows,
    const std::vector<int>& local_chains, int node);

struct ModelReport {
  core::EvalResult result;
  /// This model's series live at `<series_prefix>throughput_gbps`,
  /// `...energy_j`, `...power_w`, `...efficiency`, `...drop_fraction`,
  /// `...offered_pps` in the report recorder (plus `<prefix>node<i>_...`
  /// per node on clusters).
  std::string prefix;
};

struct EvalReport {
  std::string scenario;
  int nodes = 1;
  std::vector<ModelReport> models;
  telemetry::Recorder series;

  /// The Fig. 9-style comparison table (ratios vs the first row).
  [[nodiscard]] std::string table() const;
};

class ExperimentRunner {
 public:
  /// Validates the spec and, for clusters, places chains and partitions
  /// the traffic (throws std::invalid_argument when a node would host
  /// chains without traffic).
  explicit ExperimentRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// Per-node evaluation environments after placement; size 1 for
  /// single-node scenarios. Bespoke experiments (ablations) build their
  /// environments from these instead of re-deriving them.
  [[nodiscard]] const std::vector<core::EnvConfig>& node_envs() const {
    return node_envs_;
  }

  /// Nodes the placement left without chains (they idle at p_idle_w and
  /// are charged to every model's fleet energy).
  [[nodiscard]] int idle_nodes() const { return idle_nodes_; }

  /// Runs every roster model through the identical evaluation loop.
  EvalReport run(const std::vector<SchedulerFactory>& roster);

  /// Runs one model, recording its per-window series under
  /// series_prefix(entry.name) into `recorder` (ignored when null).
  ModelReport run_model(const SchedulerFactory& entry,
                        telemetry::Recorder* recorder);

 private:
  ScenarioSpec spec_;
  std::vector<core::EnvConfig> node_envs_;
  int idle_nodes_ = 0;
};

}  // namespace greennfv::scenario
