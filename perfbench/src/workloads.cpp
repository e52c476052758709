#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "campaign/aggregator.hpp"
#include "campaign/artifact_store.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/runner.hpp"
#include "common/config.hpp"
#include "common/string_util.hpp"
#include "layer_replay.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/experiment.hpp"
#include "scenario/presets.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

namespace campaign = greennfv::campaign;
namespace metrics = greennfv::telemetry::metrics;
namespace trace = greennfv::telemetry::trace;
using greennfv::format;
using orchestrator::FleetOrchestrator;
using orchestrator::FleetTimeline;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Start of an operation on both clocks: host CPU time for the end-to-end
/// rate, wall time for the traced attribution.
struct OpClock {
  Clock::time_point wall = Clock::now();
  double cpu = cpu_seconds();
  [[nodiscard]] double host_s() const { return cpu_seconds() - cpu; }
  [[nodiscard]] double wall_s() const { return seconds_since(wall); }
};

/// Both fleet workloads evaluate this roster; the second model is the one
/// whose sim_* outputs are reported.
constexpr const char* kFleetModels = "baseline,ee-pstate";
constexpr const char* kTrainModels = "baseline,greennfv-ee";

scenario::ScenarioSpec resolve(const std::string& preset,
                               const std::string& overrides,
                               std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset(preset);
  spec.apply(greennfv::Config::from_string(overrides));
  spec.seed = seed;
  spec.validate();
  return spec;
}

// --- output checks ----------------------------------------------------------

/// Range and floor checks on one model's means. `energy_floor_j` is the
/// mean per-window standby + link energy no schedule can avoid.
void check_model(const core::EvalResult& r, double energy_floor_j,
                 std::vector<std::string>& violations) {
  const std::string& m = r.scheduler;
  const double values[] = {r.mean_gbps,       r.mean_energy_j,
                           r.mean_power_w,    r.mean_efficiency,
                           r.sla_satisfaction, r.drop_fraction};
  for (const double v : values) {
    if (!std::isfinite(v)) {
      violations.push_back(m + ": non-finite result");
      return;
    }
  }
  if (r.drop_fraction < 0.0 || r.drop_fraction > 1.0)
    violations.push_back(format("%s: drop %.17g outside [0,1]", m.c_str(),
                                r.drop_fraction));
  if (r.sla_satisfaction < 0.0 || r.sla_satisfaction > 1.0)
    violations.push_back(format("%s: sla_met %.17g outside [0,1]", m.c_str(),
                                r.sla_satisfaction));
  // Means of the same windows summed in another order: allow rounding.
  if (r.mean_energy_j < energy_floor_j * (1.0 - 1e-12))
    violations.push_back(format("%s: mean energy %.17g J below the %.17g J"
                                " standby + link floor",
                                m.c_str(), r.mean_energy_j, energy_floor_j));
}

/// Conservation checks on a fleet history.
void check_timeline(const FleetTimeline& t, int nodes,
                    std::vector<std::string>& violations) {
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  for (const FleetTimeline::Window& win : t.windows) {
    arrivals += win.arrivals.size();
    departures += win.departures.size();
  }
  if (arrivals != static_cast<std::size_t>(t.arrivals))
    violations.push_back(format("timeline: windows hold %zu arrivals, total"
                                " says %d", arrivals, t.arrivals));
  if (departures != static_cast<std::size_t>(t.departures))
    violations.push_back(format("timeline: windows hold %zu departures,"
                                " total says %d", departures, t.departures));
  const std::size_t cells =
      static_cast<std::size_t>(nodes) * t.windows.size();
  if (t.occupancy.total() != cells)
    violations.push_back(format("timeline: occupancy covers %zu cells, not"
                                " nodes x windows = %zu",
                                t.occupancy.total(), cells));
}

/// Mean per-window energy floor: standby draw of unoccupied nodes plus
/// link energy.
double energy_floor_j(const FleetTimeline& t) {
  double sum = 0.0;
  for (const FleetTimeline::Window& win : t.windows)
    sum += win.standby_energy_j + win.link_energy_j;
  return t.windows.empty() ? 0.0 : sum / static_cast<double>(t.windows.size());
}

/// Checks one fleet model's recorded per-window series against the
/// reference history: churn sums match the timeline's totals, and no
/// window's energy falls below its standby + link floor.
void check_fleet_series(const greennfv::telemetry::Recorder& series,
                        const std::string& prefix, const FleetTimeline& t,
                        std::vector<std::string>& violations) {
  const auto sum_of = [&](const std::string& name) -> std::optional<double> {
    if (!series.has(prefix + name)) return std::nullopt;
    double sum = 0.0;
    for (const double v : series.series(prefix + name).values()) sum += v;
    return sum;
  };
  const std::optional<double> arrivals = sum_of("arrivals");
  const std::optional<double> departures = sum_of("departures");
  if (!arrivals || *arrivals != t.arrivals)
    violations.push_back(prefix + ": arrivals series does not sum to the"
                                  " timeline total");
  if (!departures || *departures != t.departures)
    violations.push_back(prefix + ": departures series does not sum to the"
                                  " timeline total");
  if (!series.has(prefix + "energy_j")) {
    violations.push_back(prefix + ": no energy series");
    return;
  }
  const std::vector<double>& energy = series.series(prefix + "energy_j").values();
  if (energy.size() != t.windows.size()) {
    violations.push_back(prefix + ": energy series length differs from the"
                                  " horizon");
    return;
  }
  for (std::size_t w = 0; w < energy.size(); ++w) {
    const double floor =
        t.windows[w].standby_energy_j + t.windows[w].link_energy_j;
    if (energy[w] < floor) {
      violations.push_back(format("%s: window %zu energy %.17g J below its"
                                  " %.17g J floor",
                                  prefix.c_str(), w, energy[w], floor));
      return;
    }
  }
}

/// Timeline events, counted as bench_fleet counts them: every placement
/// attempt, holding expiry, migration, wake-up, and per-window tick round.
double events_of(const FleetTimeline& t) {
  return static_cast<double>(t.arrivals) + t.rejected + t.departures +
         t.migrations + t.wakeups + static_cast<double>(t.windows.size());
}

std::string result_line(const core::EvalResult& r) {
  return format("%s gbps=%.17g energy_j=%.17g power_w=%.17g eff=%.17g"
                " sla=%.17g drop=%.17g windows=%d\n",
                r.scheduler.c_str(), r.mean_gbps, r.mean_energy_j,
                r.mean_power_w, r.mean_efficiency, r.sla_satisfaction,
                r.drop_fraction, r.windows);
}

std::map<std::string, Metric> sim_metrics(const core::EvalResult& r) {
  return {{"sim_gbps", {"Gbps", r.mean_gbps}},
          {"sim_efficiency", {"Gbps/kJ", r.mean_efficiency}},
          {"sim_sla_met", {"fraction", r.sla_satisfaction}}};
}

std::string describe_models(const std::vector<scenario::ModelReport>& models) {
  std::string out;
  for (const scenario::ModelReport& m : models) {
    const core::EvalResult& r = m.result;
    out += format("  model %-14s %.4f Gbps  %.4f Gbps/kJ  sla_met %.4f"
                  "  drop %.4f\n",
                  r.scheduler.c_str(), r.mean_gbps, r.mean_efficiency,
                  r.sla_satisfaction, r.drop_fraction);
  }
  return out;
}

// --- layer metrics ------------------------------------------------------------

/// A per-layer metric's name and unit.
struct LayerName {
  const char* name;
  const char* unit;
};

/// Measured by the layer replay on the fleet workloads.
constexpr LayerName kReplayLayers[] = {
    {"orchestrator.replay_s", "s"},      {"scenario.partition_s", "s"},
    {"scenario.partition_calls", "count"}, {"scenario.flows_scanned", "count"},
    {"scenario.flows_kept_ratio", "ratio"}, {"core.env_build_s", "s"},
    {"core.controller_build_s", "s"},    {"core.scheduler_make_s", "s"},
    {"core.warmup_s", "s"},              {"core.env_builds", "count"},
    {"core.rebuilds_per_node_window", "ratio"}, {"core.advance_s", "s"},
    {"core.node_windows", "count"},      {"telemetry.record_s", "s"},
    {"telemetry.record_calls", "count"}};
/// Timed around the campaign calls of the fleet workloads.
constexpr LayerName kCampaignLayers[] = {
    {"orchestrator.run_model_s", "s"}, {"campaign.execute_s", "s"},
    {"campaign.save_run_s", "s"},      {"campaign.aggregate_s", "s"},
    {"campaign.artifact_bytes", "bytes"}};
/// Read from the timeline build's counters.
constexpr LayerName kOrchestratorLayers[] = {
    {"orchestrator.timeline_s", "s"},       {"orchestrator.events", "count"},
    {"orchestrator.arrival_s", "s"},        {"orchestrator.consolidate_s", "s"},
    {"orchestrator.account_s", "s"},        {"orchestrator.unattributed_s", "s"},
    {"orchestrator.scans_per_query", "ratio"},
    {"orchestrator.arena_bytes", "bytes"}};
/// Read from the learner's counters and timed around training and
/// evaluation on train-ee.
constexpr LayerName kTrainLayers[] = {
    {"rl.train_step_s", "s"},   {"rl.targets_s", "s"},
    {"rl.critic_s", "s"},       {"rl.actor_s", "s"},
    {"rl.soft_update_s", "s"},  {"rl.unattributed_s", "s"},
    {"rl.train_steps", "count"}, {"rl.gemm_calls", "count"},
    {"rl.replay_samples", "count"}, {"rl.rollout_s", "s"},
    {"scenario.evaluate_s", "s"}};

/// Reports 0 for every metric of a layer group the workload never calls
/// into: that layer did no work. Measured values put later overwrite it.
template <std::size_t N>
void put_not_called(OpOutcome& op, const LayerName (&group)[N]) {
  for (const LayerName& layer : group) op.layers[layer.name] = {layer.unit, 0.0};
}

// --- counter reads ------------------------------------------------------------

/// Layer metrics read from program counters. A counter that never
/// registered (renamed or removed by a later change) makes the metric
/// absent, never zero.
class LayerSink {
 public:
  explicit LayerSink(OpOutcome& op) : op_(op), snap_(metrics::snapshot()) {}

  [[nodiscard]] std::optional<double> counter(const std::string& name) const {
    for (const auto& entry : snap_.entries) {
      if (entry.name == name) return entry.value;
    }
    return std::nullopt;
  }

  void put(const std::string& metric, const char* unit, double value) {
    op_.layers[metric] = {unit, value};
  }
  /// Puts `value`, or marks `metric` absent naming the missing counters.
  void put(const std::string& metric, const char* unit,
           std::optional<double> value, const std::string& counters) {
    if (value) {
      put(metric, unit, *value);
    } else {
      op_.absent[metric] = "program counter missing: " + counters;
    }
  }
  /// Nanosecond counter `name` as seconds.
  [[nodiscard]] std::optional<double> seconds(const std::string& name) const {
    const std::optional<double> ns = counter(name);
    return ns ? std::optional<double>(*ns / 1e9) : std::nullopt;
  }

 private:
  OpOutcome& op_;
  metrics::Snapshot snap_;
};

/// The timeline-build layer metrics: the build time, its four phase
/// timers, the gap they leave, index scans and arena size.
void put_orchestrator_layers(LayerSink& sink, double events) {
  const std::optional<double> build = sink.seconds("fleet.phase.build_ns");
  sink.put("orchestrator.timeline_s", "s", build, "fleet.phase.build_ns");
  sink.put("orchestrator.events", "count", events);
  std::optional<double> unattributed = build;
  for (const char* phase : {"arrival", "consolidate", "account", "recover"}) {
    const std::string counter = format("fleet.phase.%s_ns", phase);
    const std::optional<double> s = sink.seconds(counter);
    // No workload injects faults, so the recovery phase only enters the
    // gap computation; reported, it would read 0 on every run.
    if (std::string_view(phase) != "recover")
      sink.put(format("orchestrator.%s_s", phase), "s", s, counter);
    unattributed = unattributed && s
                       ? std::optional<double>(*unattributed - *s)
                       : std::nullopt;
  }
  sink.put("orchestrator.unattributed_s", "s", unattributed,
           "fleet.phase.{build,arrival,consolidate,account,recover}_ns");
  const std::optional<double> scanned =
      sink.counter("fleet.placement.candidates_scanned");
  const std::optional<double> queries =
      sink.counter("fleet.placement.queries");
  sink.put("orchestrator.scans_per_query", "ratio",
           scanned && queries && *queries > 0.0
               ? std::optional<double>(*scanned / *queries)
               : std::nullopt,
           "fleet.placement.{candidates_scanned,queries}");
  sink.put("orchestrator.arena_bytes", "bytes",
           sink.counter("fleet.index.arena_bytes"), "fleet.index.arena_bytes");
}

// --- fleet-churn / fleet-steady ---------------------------------------------

/// A full fleet evaluation through the campaign path: timeline build,
/// per-node model replay for each roster model, the run artifact write
/// and aggregation, at jobs=1.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const std::string& name, scenario::ScenarioSpec spec,
                const std::string& out_dir)
      : store_(out_dir + "/" + name, "perfbench-" + name) {
    campaign::CampaignSpec cs;
    cs.name = "perfbench-" + name;
    cs.base = std::move(spec);
    cs.models = kFleetModels;
    run_ = cs.expand().at(0);
    roster_ = [](const scenario::ScenarioSpec& s) {
      return scenario::filter_roster(scenario::default_roster(s),
                                     kFleetModels);
    };
  }

  const char* work_unit() const override {
    return "occupied node-window x model";
  }
  const char* rate_metric() const override { return "us_per_node_window"; }
  const char* rate_unit() const override { return "us"; }

  void prepare_checks() override {
    reference_ = std::make_unique<FleetOrchestrator>(run_.scenario);
    const FleetTimeline& t = reference_->timeline();
    node_windows_ = static_cast<double>(t.occupancy.total() -
                                        t.occupancy.count(0));
    check_timeline(t, run_.scenario.num_nodes, timeline_violations_);
  }

  OpOutcome run(bool traced) override {
    OpOutcome op;
    const OpClock op_start;
    double execute_s = 0.0;
    double save_s = 0.0;
    double aggregate_s = 0.0;
    std::vector<campaign::RunResult> runs;
    campaign::CampaignSummary summary;
    {
      const trace::Span span("perfbench/op");
      auto t = Clock::now();
      runs.push_back(campaign::CampaignRunner::execute(run_, roster_));
      execute_s = seconds_since(t);
      t = Clock::now();
      store_.save_run(runs.front());
      save_s = seconds_since(t);
      t = Clock::now();
      summary = campaign::aggregate(runs);
      aggregate_s = seconds_since(t);
    }
    op.host_s = op_start.host_s();
    const double eval_wall_s = op_start.wall_s();
    const std::size_t models = runs.front().report.models.size();
    op.work_units = node_windows_ * static_cast<double>(models);
    op.rate = op.host_s * 1e6 / op.work_units;

    const campaign::RunResult& result = runs.front();
    const FleetTimeline& t = reference_->timeline();
    op.violations = timeline_violations_;
    if (result.failed) op.violations.push_back("run failed: " + result.error);
    if (models != 2 || summary.cells.size() != models)
      op.violations.push_back(format("expected 2 models and 2 aggregate"
                                     " cells, got %zu and %zu",
                                     models, summary.cells.size()));
    const double floor = energy_floor_j(t);
    for (std::size_t m = 0; m < models; ++m) {
      const scenario::ModelReport& model = result.report.models[m];
      check_model(model.result, floor, op.violations);
      check_fleet_series(result.report.series, model.prefix, t,
                         op.violations);
      if (m < summary.cells.size() &&
          summary.cells[m].gbps.mean != model.result.mean_gbps)
        op.violations.push_back(model.prefix +
                                ": aggregate mean differs from the run");
      op.result_text += result_line(model.result);
    }
    if (models == 2) op.sim = sim_metrics(result.report.models[1].result);
    describe_ = describe_models(result.report.models);

    if (traced) {
      LayerSink sink(op);
      ReplayTimes times;
      bool split_ok = true;
      const auto roster = roster_(run_.scenario);
      const auto replay_start = Clock::now();
      for (std::size_t m = 0; m < roster.size() && m < models; ++m) {
        const scenario::ModelReport replayed =
            replay_run_model(*reference_, roster[m], times);
        split_ok = split_ok && same_bits(replayed.result,
                                         result.report.models[m].result);
      }
      split_ok = split_ok &&
                 static_cast<double>(times.node_windows) ==
                     node_windows_ * static_cast<double>(models);
      // The checks between evaluation and replay are not part of it.
      op.traced_wall_s = eval_wall_s + seconds_since(replay_start);
      put_layers(sink, op, times, split_ok, execute_s, save_s, aggregate_s,
                 events_of(t));
    }
    return op;
  }

  std::string history_text() const override {
    return orchestrator::timeline_to_text(reference_->timeline(),
                                          run_.scenario.num_nodes);
  }

  std::string describe(const OpOutcome&) const override {
    const FleetTimeline& t = reference_->timeline();
    return format("  fleet %d nodes x %d windows: %d arrivals, %d departures,"
                  " %d rejected, %.0f occupied node-windows\n",
                  run_.scenario.num_nodes, static_cast<int>(t.windows.size()),
                  t.arrivals, t.departures, t.rejected, node_windows_) +
           describe_;
  }

 private:
  void put_layers(LayerSink& sink, OpOutcome& op, const ReplayTimes& times,
                  bool split_ok, double execute_s, double save_s,
                  double aggregate_s, double events) const {
    put_orchestrator_layers(sink, events);
    sink.put("orchestrator.run_model_s", "s",
             sink.seconds("fleet.phase.run_model_ns"),
             "fleet.phase.run_model_ns");
    sink.put("campaign.execute_s", "s", execute_s);
    sink.put("campaign.save_run_s", "s", save_s);
    sink.put("campaign.aggregate_s", "s", aggregate_s);
    std::error_code ec;
    const auto bytes =
        std::filesystem::file_size(store_.run_path(run_.run_id), ec);
    if (ec) {
      op.absent["campaign.artifact_bytes"] = "run artifact unreadable: " +
                                             ec.message();
    } else {
      sink.put("campaign.artifact_bytes", "bytes", static_cast<double>(bytes));
    }

    // Layer self times telescope to the top-level calls: execute's own
    // time plus its timeline build and model runs is its duration, and
    // the replay's calls have no children.
    op.covered_s = execute_s + save_s + aggregate_s + times.covered_s();

    put_not_called(op, kTrainLayers);
    if (!split_ok) {
      for (const LayerName& layer : kReplayLayers)
        op.absent[layer.name] = "layer replay diverged from run_model: split"
                                " unavailable";
      return;
    }
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    sink.put("orchestrator.replay_s", "s", times.replay_s);
    sink.put("scenario.partition_s", "s", times.partition_s);
    sink.put("scenario.partition_calls", "count", count(times.partition_calls));
    sink.put("scenario.flows_scanned", "count", count(times.flows_scanned));
    sink.put("scenario.flows_kept_ratio", "ratio",
             times.flows_scanned > 0
                 ? count(times.flows_kept) / count(times.flows_scanned)
                 : 0.0);
    sink.put("core.env_build_s", "s", times.env_build_s);
    sink.put("core.controller_build_s", "s", times.controller_build_s);
    sink.put("core.scheduler_make_s", "s", times.scheduler_make_s);
    sink.put("core.warmup_s", "s", times.warmup_s);
    sink.put("core.env_builds", "count", count(times.env_builds));
    sink.put("core.rebuilds_per_node_window", "ratio",
             count(times.env_builds) / count(times.node_windows));
    sink.put("core.advance_s", "s", times.advance_s);
    sink.put("core.node_windows", "count", count(times.node_windows));
    sink.put("telemetry.record_s", "s", times.record_s);
    sink.put("telemetry.record_calls", "count", count(times.record_calls));
  }

  campaign::ArtifactStore store_;
  campaign::RunSpec run_;
  campaign::CampaignRunner::RosterProvider roster_;
  std::unique_ptr<FleetOrchestrator> reference_;
  std::vector<std::string> timeline_violations_;
  double node_windows_ = 0.0;
  std::string describe_;
};

// --- timeline-mega -----------------------------------------------------------

/// Timeline construction alone, at the full mega-fleet scale.
class TimelineWorkload final : public Workload {
 public:
  explicit TimelineWorkload(scenario::ScenarioSpec spec)
      : spec_(std::move(spec)) {}

  const char* work_unit() const override { return "timeline event"; }
  const char* rate_metric() const override { return "events_per_s"; }
  const char* rate_unit() const override { return "1/s"; }

  OpOutcome run(bool traced) override {
    OpOutcome op;
    last_.reset();  // one history in memory at a time
    const OpClock op_start;
    double build_s = 0.0;
    {
      const trace::Span span("perfbench/op");
      const auto t = Clock::now();
      last_ = std::make_unique<FleetOrchestrator>(spec_);
      build_s = seconds_since(t);
    }
    op.host_s = op_start.host_s();
    const double wall_s = op_start.wall_s();
    const FleetTimeline& t = last_->timeline();
    const double events = events_of(t);
    op.work_units = events;
    op.rate = events / op.host_s;
    check_timeline(t, spec_.num_nodes, op.violations);
    if (events <= static_cast<double>(t.windows.size()))
      op.violations.push_back("timeline: no chain events");
    op.result_text = format(
        "events=%.17g arrivals=%d departures=%d rejected=%d migrations=%d"
        " wakeups=%d standby_j=%.17g\n",
        events, t.arrivals, t.departures, t.rejected, t.migrations,
        t.wakeups, t.standby_energy_j);
    if (traced) {
      op.traced_wall_s = wall_s;
      op.covered_s = build_s;
      put_not_called(op, kReplayLayers);
      put_not_called(op, kCampaignLayers);
      put_not_called(op, kTrainLayers);
      LayerSink sink(op);
      put_orchestrator_layers(sink, events);
    }
    return op;
  }

  std::string history_text() const override {
    return last_ == nullptr ? std::string()
                            : orchestrator::timeline_to_text(
                                  last_->timeline(), spec_.num_nodes);
  }

  std::string describe(const OpOutcome& op) const override {
    return "  " + op.result_text;
  }

 private:
  scenario::ScenarioSpec spec_;
  std::unique_ptr<FleetOrchestrator> last_;
};

// --- train-ee ----------------------------------------------------------------

/// DDPG training through the roster factory, then the single-node
/// evaluation of the trained policy next to Baseline.
class TrainWorkload final : public Workload {
 public:
  explicit TrainWorkload(scenario::ScenarioSpec spec)
      : spec_(std::move(spec)) {
    roster_ = scenario::filter_roster(scenario::default_roster(spec_),
                                      kTrainModels);
    // Time every factory call from outside: for GreenNFV(EE) it is the
    // whole training run.
    for (scenario::SchedulerFactory& entry : roster_) {
      entry.make = [inner = entry.make, this,
                    span_name = trace::intern("perfbench/make:" + entry.name)](
                       const core::EnvConfig& env, std::uint64_t seed) {
        const trace::Span span(span_name);
        const auto t = Clock::now();
        auto scheduler = inner(env, seed);
        make_s_ += seconds_since(t);
        return scheduler;
      };
    }
  }

  const char* work_unit() const override {
    return "training episode (candidates x episodes)";
  }
  const char* rate_metric() const override { return "train_episodes_per_s"; }
  const char* rate_unit() const override { return "1/s"; }

  OpOutcome run(bool traced) override {
    OpOutcome op;
    make_s_ = 0.0;
    const OpClock op_start;
    double runner_s = 0.0;
    scenario::EvalReport report;
    {
      const trace::Span span("perfbench/op");
      const auto t = Clock::now();
      scenario::ExperimentRunner runner(spec_);
      report = runner.run(roster_);
      runner_s = seconds_since(t);
    }
    op.host_s = op_start.host_s();
    const double wall_s = op_start.wall_s();
    op.work_units = static_cast<double>(spec_.candidates) * spec_.episodes;
    op.rate = op.work_units / op.host_s;
    if (report.models.size() != 2)
      op.violations.push_back(format("expected 2 models, got %zu",
                                     report.models.size()));
    for (const scenario::ModelReport& model : report.models) {
      check_model(model.result, 0.0, op.violations);
      op.result_text += result_line(model.result);
    }
    // The trained policy's quality swings with the training seed (3.9 to
    // 9.0 simulated Gbps over seeds 1..5), so train-ee only logs its models'
    // simulated numbers.
    describe_ = describe_models(report.models);

    if (traced) {
      op.traced_wall_s = wall_s;
      op.covered_s = runner_s;
      put_not_called(op, kReplayLayers);
      put_not_called(op, kCampaignLayers);
      put_not_called(op, kOrchestratorLayers);
      LayerSink sink(op);
      const std::optional<double> step =
          sink.seconds("rl.phase.train_step_ns");
      sink.put("rl.train_step_s", "s", step, "rl.phase.train_step_ns");
      std::optional<double> unattributed = step;
      for (const char* phase : {"targets", "critic", "actor", "soft_update"}) {
        const std::string counter = format("rl.phase.%s_ns", phase);
        const std::optional<double> s = sink.seconds(counter);
        sink.put(format("rl.%s_s", phase), "s", s, counter);
        unattributed = unattributed && s
                           ? std::optional<double>(*unattributed - *s)
                           : std::nullopt;
      }
      sink.put("rl.unattributed_s", "s", unattributed,
               "rl.phase.{train_step,targets,critic,actor,soft_update}_ns");
      for (const char* name : {"train_steps", "gemm_calls", "replay_samples"})
        sink.put(format("rl.%s", name), "count",
                 sink.counter(format("rl.%s", name)),
                 format("rl.%s", name));
      sink.put("core.scheduler_make_s", "s", make_s_);
      sink.put("rl.rollout_s", "s",
               step ? std::optional<double>(make_s_ - *step) : std::nullopt,
               "rl.phase.train_step_ns");
      sink.put("scenario.evaluate_s", "s", runner_s - make_s_);
    }
    return op;
  }

  std::string history_text() const override { return {}; }

  std::string describe(const OpOutcome&) const override { return describe_; }

 private:
  scenario::ScenarioSpec spec_;
  std::vector<scenario::SchedulerFactory> roster_;
  double make_s_ = 0.0;
  std::string describe_;
};

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet-churn", "fleet-steady", "timeline-mega", "train-ee"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "fleet-churn") {
    return std::make_unique<FleetWorkload>(
        name,
        resolve("mega-fleet",
                "nodes=500 fleet.horizon=60 fleet.arrival_rate=125", seed),
        out_dir);
  }
  if (name == "fleet-steady") {
    return std::make_unique<FleetWorkload>(
        name,
        resolve("mega-fleet",
                "nodes=1000 chains=3600 flows=3600 offered_gbps=10800"
                " fleet.arrival_rate=0 fleet.horizon=120",
                seed),
        out_dir);
  }
  if (name == "timeline-mega")
    return std::make_unique<TimelineWorkload>(resolve("mega-fleet", "", seed));
  if (name == "train-ee") {
    return std::make_unique<TrainWorkload>(
        resolve("paper-default", "episodes=300 candidates=2", seed));
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
