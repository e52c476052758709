#include "scenario/experiment.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/string_util.hpp"
#include "core/ee_pstate.hpp"
#include "core/greennfv.hpp"
#include "core/heuristic.hpp"
#include "nfvsim/chain.hpp"
#include "traffic/generator.hpp"

namespace greennfv::scenario {

namespace {

/// Lowercased alphanumerics with single '_' separators:
/// "GreenNFV(MaxT)" -> "greennfv_maxt".
std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// Fig. 9's seed discipline, centralized: training seed offsets per
/// GreenNFV variant, Q-learning at +3, evaluation environments at +77
/// (per-node stride keeps cluster nodes on independent realizations).
constexpr std::uint64_t kQlearningSeedOffset = 3;
constexpr std::uint64_t kEvalSeedOffset = 77;
constexpr std::uint64_t kNodeSeedStride = 9973;

SchedulerFactory greennfv_factory(const ScenarioSpec& spec,
                                  const std::string& label,
                                  core::SlaKind sla_kind,
                                  std::uint64_t seed_offset) {
  SchedulerFactory factory;
  factory.name = label;
  factory.warmup = 2;
  factory.make = [spec, label, sla_kind, seed_offset](
                     const core::EnvConfig& env, std::uint64_t seed) {
    core::TrainerConfig trainer;
    trainer.env = env;  // per-node shape; the training SLA replaces eval's
    trainer.env.sla = spec.sla(sla_kind);
    trainer.episodes = spec.episodes;
    trainer.seed = seed + seed_offset;
    trainer.prioritized_replay = spec.prioritized_replay;
    trainer.noise_sigma = spec.noise_sigma;
    trainer.noise_decay = spec.noise_decay;
    std::printf("[train] %s, %d episodes x %d seeds...\n", label.c_str(),
                spec.episodes, spec.candidates);
    return core::train_best_scheduler(trainer, label, spec.candidates);
  };
  return factory;
}

}  // namespace

void copy_series(const telemetry::Recorder& from, telemetry::Recorder* to,
                 const std::string& prefix) {
  if (to == nullptr) return;
  for (const std::string& name : from.series_names()) {
    const TimeSeries& s = from.series(name);
    for (std::size_t i = 0; i < s.size(); ++i)
      to->record(prefix + name, s.times()[i], s.values()[i]);
  }
}

std::string series_prefix(const std::string& model_name) {
  return sanitize(model_name) + "_";
}

std::uint64_t node_eval_seed(const ScenarioSpec& spec, std::size_t node) {
  return spec.seed + kEvalSeedOffset + kNodeSeedStride * node;
}

std::vector<traffic::FlowSpec> resolved_flows(const ScenarioSpec& spec) {
  return spec.flows.empty()
             ? traffic::make_eval_flows(spec.num_flows, spec.num_chains,
                                        spec.total_offered_gbps, spec.seed)
             : spec.flows;
}

std::vector<std::vector<std::string>> resolved_chain_nfs(
    const ScenarioSpec& spec) {
  std::vector<std::vector<std::string>> comps;
  for (int c = 0; c < spec.num_chains; ++c) {
    comps.push_back(spec.chain_nfs.empty()
                        ? nfvsim::standard_chain_nfs(c)
                        : spec.chain_nfs[static_cast<std::size_t>(c)]);
  }
  return comps;
}

core::EnvConfig partition_node_env(
    const ScenarioSpec& spec,
    const std::vector<std::vector<std::string>>& comps,
    const std::vector<traffic::FlowSpec>& flows,
    const std::vector<int>& local_chains, int node) {
  core::EnvConfig env = spec.env_config();
  env.num_chains = static_cast<int>(local_chains.size());
  env.chain_nfs.clear();
  for (const int c : local_chains)
    env.chain_nfs.push_back(comps.at(static_cast<std::size_t>(c)));
  env.flows.clear();
  env.total_offered_gbps = 0.0;
  for (const auto& flow : flows) {
    for (std::size_t local = 0; local < local_chains.size(); ++local) {
      if (flow.chain_index != local_chains[local]) continue;
      traffic::FlowSpec remapped = flow;
      remapped.id = static_cast<int>(env.flows.size());
      remapped.chain_index = static_cast<int>(local);
      env.total_offered_gbps += remapped.mean_rate_gbps();
      env.flows.push_back(std::move(remapped));
    }
  }
  if (env.flows.empty()) {
    throw std::invalid_argument(format(
        "scenario: node %d hosts %d chain(s) but receives no flows", node,
        env.num_chains));
  }
  env.num_flows = static_cast<int>(env.flows.size());
  return env;
}

std::vector<SchedulerFactory> untrained_roster(const ScenarioSpec&) {
  std::vector<SchedulerFactory> roster;
  roster.push_back(
      {"Baseline", 2, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::BaselineScheduler>(env.spec);
       }});
  // Algorithm 1 converges slowly (§5.1): long warmup before measuring.
  roster.push_back(
      {"Heuristics", 40, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::HeuristicScheduler>(
             env.spec, core::HeuristicConfig{});
       }});
  roster.push_back(
      {"EE-Pstate", 6, [](const core::EnvConfig& env, std::uint64_t) {
         return std::make_unique<core::EePstateScheduler>(
             env.spec, core::EePstateConfig{});
       }});
  return roster;
}

std::vector<SchedulerFactory> default_roster(const ScenarioSpec& spec) {
  std::vector<SchedulerFactory> roster = untrained_roster(spec);
  const int q_episodes = spec.q_episodes;
  roster.push_back(
      {"Q-Learning", 2,
       [q_episodes](const core::EnvConfig& env, std::uint64_t seed) {
         std::printf("[train] Q-Learning, %d episodes...\n", q_episodes);
         return core::train_qlearning_scheduler(
             env, q_episodes, seed + kQlearningSeedOffset);
       }});
  roster.push_back(greennfv_factory(spec, "GreenNFV(MinE)",
                                    core::SlaKind::kMinEnergy, 0));
  roster.push_back(greennfv_factory(spec, "GreenNFV(MaxT)",
                                    core::SlaKind::kMaxThroughput, 1));
  roster.push_back(greennfv_factory(spec, "GreenNFV(EE)",
                                    core::SlaKind::kEnergyEfficiency, 2));
  return roster;
}

std::vector<SchedulerFactory> filter_roster(
    const std::vector<SchedulerFactory>& roster, const std::string& csv) {
  std::vector<SchedulerFactory> picked;
  for (const auto& token : split(csv, ',')) {
    const std::string want = sanitize(std::string(trim(token)));
    if (want.empty()) continue;
    bool found = false;
    for (const auto& entry : roster) {
      if (sanitize(entry.name) == want) {
        picked.push_back(entry);
        found = true;
        break;
      }
    }
    if (!found) {
      std::string known;
      for (const auto& entry : roster) {
        if (!known.empty()) known += ", ";
        known += entry.name;
      }
      throw std::invalid_argument("scenario: unknown model '" +
                                  std::string(trim(token)) +
                                  "' (roster: " + known + ")");
    }
  }
  if (picked.empty())
    throw std::invalid_argument("scenario: models= selected nothing");
  return picked;
}

std::string EvalReport::table() const {
  std::vector<std::vector<std::string>> rows;
  const double base_gbps =
      models.empty() ? 1.0 : models.front().result.mean_gbps;
  const double base_energy =
      models.empty() ? 1.0 : models.front().result.mean_energy_j;
  for (const auto& model : models) {
    const core::EvalResult& r = model.result;
    rows.push_back(
        {r.scheduler, format_double(r.mean_gbps, 2),
         format_double(r.mean_energy_j, 0),
         format_double(base_gbps > 0.0 ? r.mean_gbps / base_gbps : 0.0, 2) +
             "x",
         format_double(
             base_energy > 0.0 ? r.mean_energy_j / base_energy * 100.0
                               : 0.0,
             0) +
             "%",
         format_double(r.mean_efficiency, 2),
         format_double(r.sla_satisfaction * 100.0, 0) + "%",
         format_double(r.drop_fraction * 100.0, 1) + "%"});
  }
  return render_table({"model", "Gbps", "Energy(J)", "T vs base",
                       "E vs base", "Efficiency", "SLA met", "drop"},
                      rows);
}

ExperimentRunner::ExperimentRunner(ScenarioSpec spec)
    : spec_(std::move(spec)) {
  spec_.validate();
  if (spec_.fleet.enabled) {
    throw std::invalid_argument(
        "scenario: '" + spec_.name +
        "' enables fleet.* dynamics — run it through"
        " orchestrator::FleetOrchestrator, not ExperimentRunner");
  }
  if (spec_.num_nodes == 1) {
    node_envs_.push_back(spec_.env_config());
    return;
  }

  // --- cluster: place chains, partition the traffic ----------------------
  const std::vector<traffic::FlowSpec> flows = resolved_flows(spec_);
  const std::vector<std::vector<std::string>> comps =
      resolved_chain_nfs(spec_);

  std::vector<cluster::ChainDemand> demands;
  for (int c = 0; c < spec_.num_chains; ++c) {
    cluster::ChainDemand demand;
    demand.name = format("chain%d", c);
    // Algorithm 1 line 1 allocates one core per NF.
    demand.cores = static_cast<double>(
        comps[static_cast<std::size_t>(c)].size());
    for (const auto& flow : flows)
      if (flow.chain_index == c) demand.offered_gbps += flow.mean_rate_gbps();
    demands.push_back(std::move(demand));
  }
  const std::vector<cluster::NodeCapacity> capacities(
      static_cast<std::size_t>(spec_.num_nodes),
      cluster::NodeCapacity{static_cast<double>(spec_.node.total_cores) -
                            spec_.node.controller_cores});
  const cluster::Placement placement =
      cluster::place_chains(demands, capacities, spec_.placement);

  for (int n = 0; n < spec_.num_nodes; ++n) {
    std::vector<int> local_chains;
    for (int c = 0; c < spec_.num_chains; ++c)
      if (placement.node_of(static_cast<std::size_t>(c)) == n)
        local_chains.push_back(c);
    if (local_chains.empty()) {
      ++idle_nodes_;
      continue;
    }
    node_envs_.push_back(
        partition_node_env(spec_, comps, flows, local_chains, n));
  }
}

ModelReport ExperimentRunner::run_model(const SchedulerFactory& entry,
                                        telemetry::Recorder* recorder) {
  ModelReport report;
  report.prefix = series_prefix(entry.name);
  telemetry::Recorder local;

  // One scheduler per environment shape: trained policies are tied to the
  // chain count (state/action dims), so cluster nodes hosting the same
  // number of chains share one trained model — "train once, run many".
  std::map<int, std::unique_ptr<core::Scheduler>> by_shape;
  for (const auto& env : node_envs_) {
    if (by_shape.count(env.num_chains) == 0)
      by_shape[env.num_chains] = entry.make(env, spec_.seed);
  }

  if (node_envs_.size() == 1 && idle_nodes_ == 0) {
    // Single node: exactly the pre-scenario evaluation path (same seeds,
    // same warmup, same loop -> same numbers).
    report.result = core::evaluate_scheduler(
        node_envs_[0], *by_shape[node_envs_[0].num_chains],
        spec_.eval_windows, node_eval_seed(spec_, 0), entry.warmup, &local, "");
    report.result.scheduler = entry.name;
    copy_series(local, recorder, report.prefix);
    return report;
  }

  // Cluster: evaluate every node independently, then aggregate per-window
  // fleet metrics (idle nodes are charged at p_idle_w).
  std::vector<core::EvalResult> node_results;
  for (std::size_t n = 0; n < node_envs_.size(); ++n) {
    const core::EnvConfig& env = node_envs_[n];
    node_results.push_back(core::evaluate_scheduler(
        env, *by_shape[env.num_chains], spec_.eval_windows,
        node_eval_seed(spec_, n), entry.warmup, &local, format("node%zu_", n)));
  }

  const double idle_energy_j =
      idle_nodes_ * spec_.node.p_idle_w * spec_.window_s;
  const core::Sla sla = spec_.sla();
  core::EvalResult& result = report.result;
  result.scheduler = entry.name;
  result.windows = spec_.eval_windows;
  for (int w = 0; w < spec_.eval_windows; ++w) {
    const double t = w * spec_.window_s;
    double gbps = 0.0;
    double energy = idle_energy_j;
    double offered_pps = 0.0;
    double drop_weighted = 0.0;
    for (std::size_t n = 0; n < node_envs_.size(); ++n) {
      const std::string p = format("node%zu_", n);
      const auto wi = static_cast<std::size_t>(w);
      gbps += local.series(p + "throughput_gbps").values()[wi];
      energy += local.series(p + "energy_j").values()[wi];
      const double node_offered =
          local.series(p + "offered_pps").values()[wi];
      offered_pps += node_offered;
      // Drops are a fraction of *offered* load: a node that drops 90% of
      // a big offered stream must dominate the fleet figure, not vanish
      // because it delivered little.
      drop_weighted +=
          local.series(p + "drop_fraction").values()[wi] * node_offered;
    }
    const double efficiency = core::Sla::efficiency(gbps, energy);
    const double drop =
        offered_pps > 0.0 ? drop_weighted / offered_pps : 0.0;
    const bool satisfied = sla.satisfied(gbps, energy);
    result.mean_gbps += gbps;
    result.mean_energy_j += energy;
    result.mean_power_w += energy / spec_.window_s;
    result.mean_efficiency += efficiency;
    result.sla_satisfaction += satisfied ? 1.0 : 0.0;
    result.drop_fraction += drop;
    local.record("throughput_gbps", t, gbps);
    local.record("energy_j", t, energy);
    local.record("power_w", t, energy / spec_.window_s);
    local.record("efficiency", t, efficiency);
    local.record("drop_fraction", t, drop);
    local.record("offered_pps", t, offered_pps);
  }
  const auto n = static_cast<double>(spec_.eval_windows);
  result.mean_gbps /= n;
  result.mean_energy_j /= n;
  result.mean_power_w /= n;
  result.mean_efficiency /= n;
  result.sla_satisfaction /= n;
  result.drop_fraction /= n;

  copy_series(local, recorder, report.prefix);
  return report;
}

EvalReport ExperimentRunner::run(
    const std::vector<SchedulerFactory>& roster) {
  EvalReport report;
  report.scenario = spec_.name;
  report.nodes = spec_.num_nodes;
  for (const auto& entry : roster)
    report.models.push_back(run_model(entry, &report.series));
  return report;
}

}  // namespace greennfv::scenario
