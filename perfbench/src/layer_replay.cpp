#include "layer_replay.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.hpp"
#include "core/environment.hpp"
#include "core/nf_controller.hpp"
#include "orchestrator/timeline_io.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

namespace telemetry = greennfv::telemetry;
using Clock = std::chrono::steady_clock;

/// FleetOrchestrator's per-epoch stride on the node evaluation seed. It is
/// private to the library; if it changes there, the replay diverges and
/// the split is reported unavailable instead of describing other work.
constexpr std::uint64_t kEpochSeedStride = 0x9E3779B97F4A7C15ull;

/// Runs `f` and adds its host time to `acc`.
template <class F>
decltype(auto) timed(double& acc, F&& f) {
  struct Lap {
    double& acc;
    Clock::time_point start = Clock::now();
    ~Lap() {
      acc += std::chrono::duration<double>(Clock::now() - start).count();
    }
  } lap{acc};
  return f();
}

}  // namespace

double ReplayTimes::covered_s() const {
  return replay_s + partition_s + scheduler_make_s + env_build_s +
         controller_build_s + warmup_s + advance_s + record_s;
}

// The body mirrors FleetOrchestrator::run_model statement for statement:
// the same rebuild rule, seeds, warmup, accumulation order and SLA
// formulas. Any drift shows up as a bit mismatch against run_model.
scenario::ModelReport replay_run_model(
    const orchestrator::FleetOrchestrator& fleet,
    const scenario::SchedulerFactory& entry, ReplayTimes& times) {
  using orchestrator::ChainInstance;
  using orchestrator::DowntimeCharge;
  using orchestrator::FleetTimeline;
  const telemetry::trace::Span model_span(
      telemetry::trace::intern("perfbench/replay:" + entry.name));
  const scenario::ScenarioSpec& spec = fleet.spec();
  const FleetTimeline& timeline = fleet.timeline();
  const int horizon = fleet.horizon();

  scenario::ModelReport report;
  report.prefix = scenario::series_prefix(entry.name);
  telemetry::Recorder local;
  const auto record = [&](const std::string& name, double t, double value) {
    timed(times.record_s, [&] { local.record(name, t, value); });
    ++times.record_calls;
  };

  const int num_nodes = spec.num_nodes;
  const double window_s = spec.window_s;
  const core::Sla sla = spec.sla();
  const bool node_series = num_nodes <= 64;

  std::vector<std::vector<std::string>> comps;
  comps.reserve(timeline.chains.size());
  for (const ChainInstance& chain : timeline.chains)
    comps.push_back(chain.nfs);

  const bool static_fleet = spec.fleet.arrival_rate == 0.0;
  const bool degenerate = num_nodes == 1 && static_fleet &&
                          !spec.fault.enabled &&
                          timeline.windows.front().rejected == 0;

  struct NodeRuntime {
    std::unique_ptr<core::NfvEnvironment> env;
    std::unique_ptr<core::NfController> controller;
    std::vector<int> chains;
    int epochs = 0;
  };
  std::vector<NodeRuntime> nodes(static_cast<std::size_t>(num_nodes));
  std::map<std::pair<int, int>, std::unique_ptr<core::Scheduler>> schedulers;

  core::EvalResult& result = report.result;
  result.scheduler = entry.name;
  result.windows = horizon;

  orchestrator::MembershipReplay replay(timeline, num_nodes);

  for (int w = 0; w < horizon; ++w) {
    const FleetTimeline::Window& win =
        timeline.windows[static_cast<std::size_t>(w)];
    const double t = w * window_s;

    const std::vector<int>& dirty =
        timed(times.replay_s, [&]() -> const std::vector<int>& {
          return replay.advance();
        });
    for (const int n : dirty) {
      NodeRuntime& rt = nodes[static_cast<std::size_t>(n)];
      const std::vector<int>& members = replay.members(n);
      const bool unchanged =
          rt.chains == members && (rt.env != nullptr || members.empty());
      if (unchanged) continue;
      const telemetry::trace::Span rebuild_span(
          "perfbench/rebuild", static_cast<std::uint64_t>(n));
      timed(times.controller_build_s, [&] { rt.controller.reset(); });
      timed(times.env_build_s, [&] { rt.env.reset(); });
      rt.chains = members;
      if (members.empty()) continue;

      core::EnvConfig env_config =
          degenerate ? spec.env_config()
                     : timed(times.partition_s, [&] {
                         return scenario::partition_node_env(
                             spec, comps, timeline.flows, members, n);
                       });
      if (!degenerate) {
        ++times.partition_calls;
        times.flows_scanned += timeline.flows.size();
        times.flows_kept += env_config.flows.size();
      }
      const std::uint64_t env_seed =
          scenario::node_eval_seed(spec, static_cast<std::size_t>(n)) +
          kEpochSeedStride * static_cast<std::uint64_t>(rt.epochs);
      ++rt.epochs;

      core::Scheduler& scheduler = timed(
          times.scheduler_make_s, [&]() -> core::Scheduler& {
            const std::pair<int, int> key{n, env_config.num_chains};
            auto it = schedulers.find(key);
            if (it == schedulers.end()) {
              it = schedulers.emplace(key, entry.make(env_config, spec.seed))
                       .first;
            }
            it->second->reset();
            return *it->second;
          });
      timed(times.env_build_s, [&] {
        rt.env = std::make_unique<core::NfvEnvironment>(env_config, env_seed);
      });
      ++times.env_builds;
      timed(times.controller_build_s, [&] {
        rt.controller =
            std::make_unique<core::NfController>(*rt.env, scheduler);
      });
      timed(times.warmup_s, [&] {
        if (w == 0) {
          if (entry.warmup > 0) (void)rt.controller->run(entry.warmup);
          rt.env->align_rate_profile();
        } else {
          rt.env->align_rate_profile(t);
        }
      });
    }

    double gbps = 0.0;
    double energy = win.standby_energy_j + win.link_energy_j;
    double offered_pps = 0.0;
    double drop_weighted = 0.0;
    int active = 0;
    const core::NfvEnvironment::WindowOutcome* solo = nullptr;
    const auto advance_start = Clock::now();
    for (const int n : replay.occupied()) {
      NodeRuntime& rt = nodes[static_cast<std::size_t>(n)];
      (void)rt.controller->run(1);
      const auto& outcome = rt.env->last_outcome();
      ++active;
      solo = &outcome;
      gbps += outcome.throughput_gbps;
      energy += outcome.energy_j;
      offered_pps += outcome.offered_pps;
      drop_weighted += outcome.drop_fraction * outcome.offered_pps;
      if (node_series) {
        // Per-node series exist only on small fleets; their record time is
        // telemetry's, so it comes off the advance total below.
        const auto record_start = Clock::now();
        local.record(greennfv::format("node%d_throughput_gbps", n), t,
                     outcome.throughput_gbps);
        local.record(greennfv::format("node%d_energy_j", n), t,
                     outcome.energy_j);
        const double record_s =
            std::chrono::duration<double>(Clock::now() - record_start)
                .count();
        times.record_s += record_s;
        times.advance_s -= record_s;
        times.record_calls += 2;
      }
    }
    times.advance_s +=
        std::chrono::duration<double>(Clock::now() - advance_start).count();
    times.node_windows += static_cast<std::uint64_t>(active);

    double lost_gbps = 0.0;
    double lost_pps = 0.0;
    double charge_energy_j = 0.0;
    for (const DowntimeCharge& charge : win.charges) {
      const ChainInstance& chain =
          timeline.chains[static_cast<std::size_t>(charge.chain)];
      const double fraction =
          std::min(charge.downtime_s, window_s) / window_s;
      lost_gbps += chain.offered_gbps * fraction;
      lost_pps += chain.offered_pps * fraction;
      charge_energy_j += charge.energy_j;
    }

    double w_gbps;
    double w_energy;
    double w_efficiency;
    double w_drop;
    double w_sla;
    if (active == 1 && win.standby_energy_j == 0.0 && win.charges.empty() &&
        !spec.topology.enabled && !spec.fault.enabled) {
      w_gbps = solo->throughput_gbps;
      w_energy = solo->energy_j;
      w_efficiency = solo->efficiency;
      w_drop = solo->drop_fraction;
      w_sla = solo->sla_satisfied ? 1.0 : 0.0;
    } else {
      w_gbps = std::max(0.0, gbps - lost_gbps);
      w_energy = energy + charge_energy_j;
      w_efficiency = core::Sla::efficiency(w_gbps, w_energy);
      const double dropped_pps = drop_weighted + lost_pps;
      w_drop = offered_pps > 0.0 ? std::min(1.0, dropped_pps / offered_pps)
                                 : 0.0;
      w_sla = sla.satisfied(w_gbps, w_energy) ? 1.0 : 0.0;
    }
    if (spec.topology.enabled && spec.latency_sla_us > 0.0 &&
        win.latency_violations > 0) {
      w_sla = 0.0;
    }

    result.mean_gbps += w_gbps;
    result.mean_energy_j += w_energy;
    result.mean_power_w += w_energy / window_s;
    result.mean_efficiency += w_efficiency;
    result.sla_satisfaction += w_sla;
    result.drop_fraction += w_drop;

    record("throughput_gbps", t, w_gbps);
    record("energy_j", t, w_energy);
    record("power_w", t, w_energy / window_s);
    record("efficiency", t, w_efficiency);
    record("drop_fraction", t, w_drop);
    record("offered_pps", t, offered_pps);
    record("active_nodes", t, win.active_nodes);
    record("asleep_nodes", t, win.asleep_nodes);
    record("live_chains", t, win.live_chains);
    record("arrivals", t, static_cast<double>(win.arrivals.size()));
    record("departures", t, static_cast<double>(win.departures.size()));
    record("migrations", t, static_cast<double>(win.migrations.size()));
    record("rejected", t, win.rejected);
    if (spec.topology.enabled) {
      record("link_energy_j", t, win.link_energy_j);
      record("path_latency_us", t,
             win.routed_chains > 0
                 ? static_cast<double>(win.path_latency_sum_ns) /
                       (1e3 * win.routed_chains)
                 : 0.0);
      record("latency_violations", t, win.latency_violations);
      record("net_rejected", t, win.net_rejected);
    }
    if (spec.fault.enabled) {
      record("down_nodes", t, win.down_nodes);
      record("node_crashes", t, win.node_crashes);
      record("fault_replaced", t,
             static_cast<double>(win.replacements.size()));
      record("fault_dropped", t,
             static_cast<double>(win.fault_dropped.size()));
      record("fault_rerouted", t, win.rerouted);
    }
  }

  // run_model tears its runtimes down on return; time that here too.
  timed(times.controller_build_s, [&] {
    for (NodeRuntime& rt : nodes) rt.controller.reset();
  });
  timed(times.env_build_s, [&] {
    for (NodeRuntime& rt : nodes) rt.env.reset();
  });
  timed(times.scheduler_make_s, [&] { schedulers.clear(); });

  const auto n = static_cast<double>(horizon);
  result.mean_gbps /= n;
  result.mean_energy_j /= n;
  result.mean_power_w /= n;
  result.mean_efficiency /= n;
  result.sla_satisfaction /= n;
  result.drop_fraction /= n;

  // run_model's copy into the report recorder, under the model prefix.
  telemetry::Recorder copied;
  timed(times.record_s, [&] {
    for (const std::string& name : local.series_names()) {
      const greennfv::TimeSeries& s = local.series(name);
      for (std::size_t i = 0; i < s.size(); ++i) {
        copied.record(report.prefix + name, s.times()[i], s.values()[i]);
        ++times.record_calls;
      }
    }
  });
  return report;
}

bool same_bits(const core::EvalResult& a, const core::EvalResult& b) {
  const auto eq = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.scheduler == b.scheduler && a.windows == b.windows &&
         eq(a.mean_gbps, b.mean_gbps) && eq(a.mean_energy_j, b.mean_energy_j) &&
         eq(a.mean_power_w, b.mean_power_w) &&
         eq(a.mean_efficiency, b.mean_efficiency) &&
         eq(a.sla_satisfaction, b.sla_satisfaction) &&
         eq(a.drop_fraction, b.drop_fraction);
}

}  // namespace perfbench
