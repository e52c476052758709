#pragma once

#include <limits>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "common/config.hpp"
#include "core/environment.hpp"
#include "core/greennfv.hpp"
#include "topology/topology.hpp"

/// \file scenario_spec.hpp
/// The declarative experiment description every bench, example, and test
/// runs from: one value type naming the hardware, the chain topology, the
/// traffic mix (per-flow specs plus a macroscopic rate profile), the SLA,
/// the window/episode geometry, and the training budgets. A spec is
/// parseable from `Config` key=value arguments, round-trips to/from a
/// plain-text scenario file, and compiles down to the `core::EnvConfig` /
/// `core::TrainerConfig` the evaluation machinery consumes — so "run the
/// flash-crowd workload against every scheduler" is one line, not a new
/// main().

namespace greennfv::scenario {

/// Dynamic-fleet block of a scenario (the `fleet.*` key family): online
/// chain arrivals/departures, the placement/consolidation policy, the
/// migration cost model, and node power gating. Consumed by
/// `orchestrator::FleetOrchestrator`; a spec with `enabled == false` runs
/// the static `ExperimentRunner` path untouched.
struct FleetSpec {
  bool enabled = false;  ///< fleet.enabled
  /// Simulated (measured) windows. 0 -> the scenario's eval_windows.
  int horizon_windows = 0;  ///< fleet.horizon
  /// Mean chain arrivals per window (Poisson, modulated by the scenario's
  /// RateProfile envelope — the fleet-level load shape). 0 freezes the
  /// fleet: no arrivals and no departures, the static degeneration case.
  double arrival_rate = 0.0;  ///< fleet.arrival_rate
  /// Mean chain holding time in windows (exponential, min one window).
  double mean_holding_windows = 20.0;  ///< fleet.mean_holding
  /// Traffic carried by each arriving chain.
  int flows_per_chain = 2;        ///< fleet.flows_per_chain
  double chain_offered_gbps = 4.0;  ///< fleet.chain_gbps
  /// Online placement policy (orchestrator registry name): first-fit,
  /// least-loaded, energy-bestfit, consolidate.
  std::string policy = "least-loaded";  ///< fleet.policy
  /// Master switch for consolidation migrations (the consolidate policy
  /// proposes them; this gate applies them).
  bool migration = true;  ///< fleet.migration
  /// Per migrated chain: downtime charged against its traffic/SLA, and
  /// the state-transfer energy added to the fleet bill.
  double migration_downtime_s = 0.5;  ///< fleet.migration_downtime_s
  double migration_energy_j = 25.0;   ///< fleet.migration_energy_j
  /// Consolidation trigger: drain a node whose core utilization sits
  /// below this fraction (when its chains fit elsewhere).
  double consolidate_below = 0.35;  ///< fleet.consolidate_below
  /// Power gating: an idle node falls asleep after this many consecutive
  /// empty windows (p_sleep_w draw; waking costs node wake_latency_s).
  bool power_gating = true;   ///< fleet.power_gating
  int sleep_after_windows = 2;  ///< fleet.sleep_after

  /// The policy names the orchestrator registry accepts (validated here so
  /// a typo'd fleet.policy fails at expansion, before anything runs).
  [[nodiscard]] static const std::vector<std::string>& policy_names();
};

/// Fault-injection block of a scenario (the `fault.*` key family): a
/// deterministic schedule of node crashes, correlated rack outages, link
/// failures/repairs, and wake-latency storms, expanded once from the
/// scenario seed (like arrivals) so both fleet engines replay the exact
/// same faults. Consumed by `orchestrator::build_fault_schedule`; a spec
/// with `enabled == false` injects nothing and leaves every history
/// byte-identical to a fault-free run.
struct FaultSpec {
  bool enabled = false;  ///< fault.enabled
  /// Mean node crashes per window (Poisson over the currently-up fleet).
  double node_crash_rate = 0.0;  ///< fault.node_crash_rate
  /// Mean link failures per window (Poisson over up links; requires
  /// topology.enabled — there is no fabric to fail otherwise).
  double link_fail_rate = 0.0;  ///< fault.link_fail_rate
  /// Mean correlated rack outages per window: one outage crashes every
  /// up node in a rack of `rack_size` consecutive node ids, and the whole
  /// rack repairs together.
  double rack_outage_rate = 0.0;  ///< fault.rack_outage_rate
  int rack_size = 4;              ///< fault.rack_size
  /// Mean repair delay in windows (exponential, min one window). A repair
  /// drawn past the horizon never lands — the node/link stays down.
  double mean_repair_windows = 4.0;  ///< fault.mean_repair
  /// Per re-placed chain: recovery downtime charged against its traffic
  /// and the state-rebuild energy added to the fleet bill.
  double replace_downtime_s = 1.0;  ///< fault.replace_downtime_s
  double replace_energy_j = 40.0;   ///< fault.replace_energy_j
  /// Wake-latency storms: each window is independently a storm window
  /// with this probability; every wake charge (arrival, consolidation, or
  /// recovery) during a storm costs `wake_storm_factor` times the normal
  /// downtime and energy.
  double wake_storm_prob = 0.0;    ///< fault.wake_storm_prob
  double wake_storm_factor = 4.0;  ///< fault.wake_storm_factor
};

/// The values a numeric scenario key accepts, written in the key table
/// the way an error states it: "> 0", ">= 1", "[0, 1]" or "(0, 1]"
/// (non-negative decimal bounds). Parsed at compile time, so a malformed
/// domain does not build. The default domain bounds nothing; a double
/// must be finite in every domain.
struct KeyDomain {
  const char* text = "finite";
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  constexpr KeyDomain() = default;
  consteval KeyDomain(const char* spec) : text(spec) {  // NOLINT: implicit
    const char* p = spec;
    if (*p == '>') {
      lo_open = *++p != '=';
      lo = bound(lo_open ? p : ++p);
    } else if (*p == '[' || *p == '(') {
      lo_open = *p == '(';
      lo = bound(++p);
      if (*p != ',') throw "KeyDomain: expected ','";
      hi = bound(++p);
      hi_open = *p == ')';
      if (*p != ')' && *p != ']') throw "KeyDomain: expected ']' or ')'";
    } else {
      throw "KeyDomain: expected '>', '[' or '('";
    }
  }

  /// NaN fails both comparisons, so it lies in no domain.
  [[nodiscard]] constexpr bool contains(double x) const {
    return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
  }

 private:
  /// A non-negative decimal ("0", "1", "0.001") after optional spaces.
  static consteval double bound(const char*& p) {
    while (*p == ' ') ++p;
    double digits = 0.0;
    double scale = 1.0;
    bool fraction = false;
    const char* first = p;
    for (; (*p >= '0' && *p <= '9') || (*p == '.' && !fraction); ++p) {
      if (*p == '.') {
        fraction = true;
        continue;
      }
      digits = digits * 10.0 + (*p - '0');
      if (fraction) scale *= 10.0;
    }
    if (p == first) throw "KeyDomain: expected a number";
    return digits / scale;
  }
};

struct ScenarioSpec {
  std::string name = "custom";
  /// Human-readable one-liner (preset listings only; not serialized).
  std::string description;

  // --- deployment ----------------------------------------------------------
  /// Hosting nodes. 1 = the single-node evaluations of Figs 9-10; >1 runs
  /// the cluster path (chains placed via `placement`, traffic partitioned
  /// per node, fleet metrics aggregated).
  int num_nodes = 1;
  cluster::PlacementPolicy placement = cluster::PlacementPolicy::kLeastLoaded;
  hwmodel::NodeSpec node;
  /// Dynamic-fleet simulation (arrivals, migration, power gating). Off by
  /// default — every pre-fleet scenario is bit-identical to before.
  FleetSpec fleet;
  /// Inter-node network fabric (the `topology.*` key family): chains are
  /// routed ingress→host over capacitated links, link energy joins the
  /// fleet bill, and path latency is charged against `latency_sla_us`.
  /// Off by default — the wire stays free, bit-identical to before.
  topology::TopologySpec topology;
  /// End-to-end latency SLA (`sla.latency`, microseconds): a routed
  /// chain whose path latency exceeds this budget is an SLA violation in
  /// the fleet accounting. 0 disables the axis; requires topology.
  double latency_sla_us = 0.0;
  /// Fault injection (crashes, link failures, rack outages, wake storms).
  /// Off by default — every fault-free scenario is bit-identical to
  /// before.
  FaultSpec fault;

  // --- chain topology ------------------------------------------------------
  int num_chains = 3;
  /// Per-chain NF compositions (catalog names). Empty -> the standard
  /// heterogeneous rotation (nfvsim::standard_chain_nfs).
  std::vector<std::vector<std::string>> chain_nfs;

  // --- traffic mix ---------------------------------------------------------
  /// Used when `flows` is empty: the §5 workload generator over this many
  /// flows at this aggregate offered load.
  int num_flows = 5;
  double total_offered_gbps = 12.0;
  /// Explicit per-flow specs; overrides the generator when non-empty.
  std::vector<traffic::FlowSpec> flows;
  /// Macroscopic rate envelope: steady, diurnal, bursty, flash-crowd.
  traffic::RateProfile profile;

  // --- SLA -----------------------------------------------------------------
  core::SlaKind sla_kind = core::SlaKind::kEnergyEfficiency;
  double energy_budget_j = 2000.0;      ///< MaxThroughput constraint
  double throughput_floor_gbps = 7.5;   ///< MinEnergy constraint
  bool shaped_reward = false;

  // --- window/episode geometry --------------------------------------------
  double window_s = 10.0;
  int sub_windows = 5;
  int steps_per_episode = 8;
  int eval_windows = 12;

  // --- training budgets ----------------------------------------------------
  int episodes = 400;
  int q_episodes = 250;
  /// Seeds per GreenNFV variant for model selection.
  int candidates = 2;
  bool prioritized_replay = true;
  double noise_sigma = 0.45;
  double noise_decay = 0.9985;
  std::uint64_t seed = 42;

  /// The SLA object (MinEnergy's reference energy derives from the node's
  /// peak power over one window, as the figure benches compute it).
  [[nodiscard]] core::Sla sla() const;

  /// Same constants under an explicit kind — how a figure or roster entry
  /// derives its training SLA from the scenario's constraint constants.
  [[nodiscard]] core::Sla sla(core::SlaKind kind) const;

  /// Compiles the whole-deployment (single-node view) environment config.
  [[nodiscard]] core::EnvConfig env_config() const;

  /// Trainer config for one GreenNFV variant trained under `sla` on this
  /// scenario's environment.
  [[nodiscard]] core::TrainerConfig trainer_config(const core::Sla& sla)
      const;

  /// Overwrites fields named by `config` keys (see known_keys()). Unknown
  /// keys are NOT rejected here — callers combine scenario keys with their
  /// own and call Config::check_known with the union. Integer keys take
  /// bare non-negative digits that fit their field (seed: full uint64);
  /// double keys take finite numbers only (no nan, no inf).
  void apply(const Config& config);

  /// Serializes to one "key=value" line per key;
  /// apply(Config::from_lines(text)) on a default spec reproduces this
  /// spec exactly (doubles print exactly, seeds in full). from_string
  /// agrees only while no value holds a space or a comma.
  [[nodiscard]] std::string to_text() const;

  /// Scenario-file IO. Files are the to_text() format, read by
  /// Config::from_lines: one key=value per line, '#' starts a comment
  /// that runs to end of line.
  void save(const std::string& path) const;
  [[nodiscard]] static ScenarioSpec load(const std::string& path);

  /// Throws std::invalid_argument naming the offending field: a numeric
  /// key outside the domain its key-table line declares (every double
  /// finite), or a broken cross-key rule (unknown NF names, a flow on a
  /// missing chain, an SLA without its budget...). Allocates nothing on
  /// success.
  void validate() const;

  /// Every scalar key apply() understands, plus the indexed-family
  /// prefixes ("chain", "flow") — the vocabulary for Config::check_known.
  [[nodiscard]] static const std::vector<std::string>& known_keys();
  [[nodiscard]] static const std::vector<std::string>& known_prefixes();
};

/// The scenario vocabulary, each scalar key declared once with the field it
/// sets and, for a numeric key, its domain, in to_text() order; the field's
/// type fixes the key's text form. apply(), to_text(), validate() and
/// known_keys() all walk this table, and so can a caller that needs the
/// valid space (a spec fuzzer, a property test): `visit(name, field,
/// domain)` sees a scalar key, `family(count_key, prefix, count, items,
/// domain)` an indexed family with its count key. Rules that tie keys
/// together or hold only in some modes are written out in validate().
template <class Spec, class Visit, class Family>
void for_each_key(Spec& s, Visit&& visit, Family&& family) {
  const auto key = [&visit](const char* name, auto& field,
                            KeyDomain domain = {}) {
    visit(name, field, domain);
  };
  key("name", s.name);
  key("nodes", s.num_nodes, ">= 1");
  key("placement", s.placement);
  key("node_cores", s.node.total_cores, ">= 1");
  // The DVFS ladder is quantized to 1 MHz: a lower fmin rounds to 0 GHz.
  key("node_fmin_ghz", s.node.fmin_ghz, ">= 0.001");
  // Bounded so the ladder's step count stays small: 100 GHz spans under
  // 1000 steps of the default 0.1 GHz.
  key("node_fmax_ghz", s.node.fmax_ghz, "(0, 100]");
  key("node_line_rate_gbps", s.node.line_rate_gbps, "> 0");
  key("node_p_idle_w", s.node.p_idle_w, ">= 0");
  key("node_p_max_w", s.node.p_max_w, "> 0");
  key("node_p_sleep_w", s.node.p_sleep_w, ">= 0");
  key("node_wake_latency_s", s.node.wake_latency_s, ">= 0");
  key("fleet.enabled", s.fleet.enabled);
  key("fleet.horizon", s.fleet.horizon_windows, ">= 0");
  key("fleet.arrival_rate", s.fleet.arrival_rate, ">= 0");
  key("fleet.mean_holding", s.fleet.mean_holding_windows, "> 0");
  key("fleet.flows_per_chain", s.fleet.flows_per_chain, ">= 1");
  key("fleet.chain_gbps", s.fleet.chain_offered_gbps, "> 0");
  key("fleet.policy", s.fleet.policy);
  key("fleet.migration", s.fleet.migration);
  key("fleet.migration_downtime_s", s.fleet.migration_downtime_s, ">= 0");
  key("fleet.migration_energy_j", s.fleet.migration_energy_j, ">= 0");
  key("fleet.consolidate_below", s.fleet.consolidate_below, "[0, 1]");
  key("fleet.power_gating", s.fleet.power_gating);
  key("fleet.sleep_after", s.fleet.sleep_after_windows, ">= 1");
  key("topology.enabled", s.topology.enabled);
  key("topology.preset", s.topology.preset);
  key("topology.routing", s.topology.routing);
  key("topology.hosts_per_leaf", s.topology.hosts_per_leaf, ">= 1");
  key("topology.spines", s.topology.spines, ">= 1");
  key("topology.fat_k", s.topology.fat_k, ">= 2");
  key("topology.link_gbps", s.topology.link_gbps, "> 0");
  key("topology.link_latency_us", s.topology.link_latency_us, ">= 0");
  key("topology.core_gbps", s.topology.core_gbps, "> 0");
  key("topology.core_latency_us", s.topology.core_latency_us, ">= 0");
  key("topology.link_idle_w", s.topology.link_idle_w, ">= 0");
  key("topology.link_nj_per_bit", s.topology.link_nj_per_bit, ">= 0");
  key("sla.latency", s.latency_sla_us, ">= 0");
  key("fault.enabled", s.fault.enabled);
  key("fault.node_crash_rate", s.fault.node_crash_rate, ">= 0");
  key("fault.link_fail_rate", s.fault.link_fail_rate, ">= 0");
  key("fault.rack_outage_rate", s.fault.rack_outage_rate, ">= 0");
  key("fault.rack_size", s.fault.rack_size, ">= 1");
  key("fault.mean_repair", s.fault.mean_repair_windows, "> 0");
  key("fault.replace_downtime_s", s.fault.replace_downtime_s, ">= 0");
  key("fault.replace_energy_j", s.fault.replace_energy_j, ">= 0");
  key("fault.wake_storm_prob", s.fault.wake_storm_prob, "[0, 1]");
  key("fault.wake_storm_factor", s.fault.wake_storm_factor, ">= 1");
  family("chains", "chain", s.num_chains, s.chain_nfs, ">= 1");
  family("flows", "flow", s.num_flows, s.flows, ">= 1");
  key("offered_gbps", s.total_offered_gbps);
  key("profile", s.profile.kind);
  key("profile_period_s", s.profile.period_s);
  key("profile_amplitude", s.profile.amplitude);
  key("profile_surge_start_s", s.profile.surge_start_s);
  key("profile_surge_duration_s", s.profile.surge_duration_s);
  key("profile_surge_factor", s.profile.surge_factor);
  key("sla", s.sla_kind);
  key("energy_budget", s.energy_budget_j);
  key("throughput_floor", s.throughput_floor_gbps);
  key("shaped_reward", s.shaped_reward);
  key("window_s", s.window_s, "> 0");
  key("sub_windows", s.sub_windows, ">= 1");
  key("steps_per_episode", s.steps_per_episode, ">= 1");
  key("eval_windows", s.eval_windows, ">= 1");
  key("episodes", s.episodes, ">= 1");
  key("q_episodes", s.q_episodes, ">= 1");
  key("candidates", s.candidates, ">= 1");
  key("prioritized", s.prioritized_replay);
  key("noise_sigma", s.noise_sigma, ">= 0");
  key("noise_decay", s.noise_decay, "(0, 1]");
  key("seed", s.seed);
}


/// Serialization helpers for the indexed families (shared with tests).
[[nodiscard]] std::string flow_to_text(const traffic::FlowSpec& flow);
[[nodiscard]] traffic::FlowSpec flow_from_text(const std::string& text,
                                               int id);

[[nodiscard]] std::string to_string(core::SlaKind kind);
[[nodiscard]] core::SlaKind sla_kind_from_string(const std::string& name);
[[nodiscard]] cluster::PlacementPolicy placement_from_string(
    const std::string& name);

}  // namespace greennfv::scenario
