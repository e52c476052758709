#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/string_util.hpp"
#include "hwmodel/nf_cost.hpp"

namespace greennfv::scenario {

namespace {

/// %.10g when that reads back as the same double (every hand-written
/// value with up to 10 significant digits prints as typed), %.17g
/// otherwise — so a computed value such as 0.1+0.2 survives a save/load.
std::string fmt_double(double value) {
  const std::string brief = format("%.10g", value);
  return std::strtod(brief.c_str(), nullptr) == value
             ? brief
             : format("%.17g", value);
}

traffic::ArrivalKind arrival_from_string(const std::string& name) {
  if (name == "cbr") return traffic::ArrivalKind::kCbr;
  if (name == "poisson") return traffic::ArrivalKind::kPoisson;
  if (name == "mmpp") return traffic::ArrivalKind::kMmpp;
  if (name == "onoff") return traffic::ArrivalKind::kOnOff;
  throw std::invalid_argument("scenario: unknown arrival kind '" + name +
                              "' (expected cbr|poisson|mmpp|onoff)");
}

/// Guards the indexed families against silent truncation: a gap in the
/// chainN=/flowN= sequence (chain0, chain1, chain3) must be an error, not
/// a quietly shorter list.
void require_contiguous(const Config& config, const std::string& prefix,
                        std::size_t collected) {
  for (const auto& [key, value] : config.entries()) {
    const auto index = family_index(key, prefix);
    if (index && *index >= collected) {
      throw std::invalid_argument(
          "scenario: " + key + " leaves a gap — " + prefix +
          "N entries must be contiguous from " + prefix + "0");
    }
  }
}

double parse_double(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario: " + what + " is not a number: " +
                                text);
  }
}

/// Integer keys are counts and seeds: bare digits, no sign, at most `max`.
/// A value that does not fit is an error, never a wrapped or clamped one.
std::uint64_t parse_count(const std::string& key, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (end != last || error != std::errc() || value > max) {
    throw std::invalid_argument(format(
        "scenario: %s must be an integer in [0, %llu]: %s", key.c_str(),
        static_cast<unsigned long long>(max), text.c_str()));
  }
  return value;
}

// The text form of each field type: read_key parses a key's value into
// its field, key_text prints the field back.
void read_key(const Config& config, const std::string& key, int& field) {
  if (const auto value = config.get(key))
    field = static_cast<int>(
        parse_count(key, *value, std::numeric_limits<int>::max()));
}
void read_key(const Config& config, const std::string& key,
              std::uint64_t& field) {
  if (const auto value = config.get(key))
    field = parse_count(key, *value,
                        std::numeric_limits<std::uint64_t>::max());
}
void read_key(const Config& config, const std::string& key, double& field) {
  field = config.get_double(key, field);
}
void read_key(const Config& config, const std::string& key, bool& field) {
  field = config.get_bool(key, field);
}
void read_key(const Config& config, const std::string& key,
              std::string& field) {
  field = config.get_string(key, field);
}
void read_key(const Config& config, const std::string& key,
              cluster::PlacementPolicy& field) {
  if (const auto value = config.get(key))
    field = placement_from_string(*value);
}
void read_key(const Config& config, const std::string& key,
              traffic::RateProfile::Kind& field) {
  if (const auto value = config.get(key))
    field = traffic::profile_kind_from_string(*value);
}
void read_key(const Config& config, const std::string& key,
              core::SlaKind& field) {
  if (const auto value = config.get(key))
    field = sla_kind_from_string(*value);
}

std::string key_text(int value) { return std::to_string(value); }
std::string key_text(std::uint64_t value) { return std::to_string(value); }
std::string key_text(double value) { return fmt_double(value); }
std::string key_text(bool value) { return value ? "1" : "0"; }
std::string key_text(const std::string& value) { return value; }
std::string key_text(cluster::PlacementPolicy value) {
  return cluster::to_string(value);
}
std::string key_text(traffic::RateProfile::Kind value) {
  return traffic::to_string(value);
}
std::string key_text(core::SlaKind value) { return scenario::to_string(value); }

/// The scenario vocabulary, each scalar key declared once with the field it
/// sets, in to_text() order; the field's type fixes the key's text form
/// (read_key / key_text). apply(), to_text() and known_keys() all walk this
/// table: `key(name, field)` visits a scalar key, and `families()` runs
/// where the hand-written chains/chainN and flows/flowN keys sit.
template <class Spec, class Key, class Families>
void for_each_key(Spec& s, Key&& key, Families&& families) {
  key("name", s.name);
  key("nodes", s.num_nodes);
  key("placement", s.placement);
  key("node_cores", s.node.total_cores);
  key("node_fmin_ghz", s.node.fmin_ghz);
  key("node_fmax_ghz", s.node.fmax_ghz);
  key("node_line_rate_gbps", s.node.line_rate_gbps);
  key("node_p_idle_w", s.node.p_idle_w);
  key("node_p_max_w", s.node.p_max_w);
  key("node_p_sleep_w", s.node.p_sleep_w);
  key("node_wake_latency_s", s.node.wake_latency_s);
  key("fleet.enabled", s.fleet.enabled);
  key("fleet.horizon", s.fleet.horizon_windows);
  key("fleet.arrival_rate", s.fleet.arrival_rate);
  key("fleet.mean_holding", s.fleet.mean_holding_windows);
  key("fleet.flows_per_chain", s.fleet.flows_per_chain);
  key("fleet.chain_gbps", s.fleet.chain_offered_gbps);
  key("fleet.policy", s.fleet.policy);
  key("fleet.migration", s.fleet.migration);
  key("fleet.migration_downtime_s", s.fleet.migration_downtime_s);
  key("fleet.migration_energy_j", s.fleet.migration_energy_j);
  key("fleet.consolidate_below", s.fleet.consolidate_below);
  key("fleet.power_gating", s.fleet.power_gating);
  key("fleet.sleep_after", s.fleet.sleep_after_windows);
  key("topology.enabled", s.topology.enabled);
  key("topology.preset", s.topology.preset);
  key("topology.routing", s.topology.routing);
  key("topology.hosts_per_leaf", s.topology.hosts_per_leaf);
  key("topology.spines", s.topology.spines);
  key("topology.fat_k", s.topology.fat_k);
  key("topology.link_gbps", s.topology.link_gbps);
  key("topology.link_latency_us", s.topology.link_latency_us);
  key("topology.core_gbps", s.topology.core_gbps);
  key("topology.core_latency_us", s.topology.core_latency_us);
  key("topology.link_idle_w", s.topology.link_idle_w);
  key("topology.link_nj_per_bit", s.topology.link_nj_per_bit);
  key("sla.latency", s.latency_sla_us);
  key("fault.enabled", s.fault.enabled);
  key("fault.node_crash_rate", s.fault.node_crash_rate);
  key("fault.link_fail_rate", s.fault.link_fail_rate);
  key("fault.rack_outage_rate", s.fault.rack_outage_rate);
  key("fault.rack_size", s.fault.rack_size);
  key("fault.mean_repair", s.fault.mean_repair_windows);
  key("fault.replace_downtime_s", s.fault.replace_downtime_s);
  key("fault.replace_energy_j", s.fault.replace_energy_j);
  key("fault.wake_storm_prob", s.fault.wake_storm_prob);
  key("fault.wake_storm_factor", s.fault.wake_storm_factor);
  families();
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
  key("window_s", s.window_s);
  key("sub_windows", s.sub_windows);
  key("steps_per_episode", s.steps_per_episode);
  key("eval_windows", s.eval_windows);
  key("episodes", s.episodes);
  key("q_episodes", s.q_episodes);
  key("candidates", s.candidates);
  key("prioritized", s.prioritized_replay);
  key("noise_sigma", s.noise_sigma);
  key("noise_decay", s.noise_decay);
  key("seed", s.seed);
}

/// An indexed family (chain0=, chain1=, ...) and its count key (chains=).
/// An explicit count without indexed entries reverts the family to its
/// generated/standard form; entries, contiguous from 0, set the count.
template <class T, class Parse>
void apply_family(const Config& config, const std::string& count_key,
                  const std::string& prefix, int& count,
                  std::vector<T>& items, Parse parse) {
  const bool indexed = config.has(prefix + "0");
  if (config.has(count_key)) {
    read_key(config, count_key, count);
    if (!indexed) items.clear();
  }
  if (!indexed) {
    require_contiguous(config, prefix, 0);  // chain1= without chain0=
    return;
  }
  items.clear();
  for (int i = 0;; ++i) {
    const auto entry = config.get(prefix + std::to_string(i));
    if (!entry) break;
    items.push_back(parse(*entry, i));
  }
  require_contiguous(config, prefix, items.size());
  if (config.has(count_key) &&
      static_cast<std::size_t>(count) != items.size()) {
    throw std::invalid_argument("scenario: " + count_key +
                                "= disagrees with the number of " + prefix +
                                "N= entries");
  }
  count = static_cast<int>(items.size());
}

template <class T, class Print>
void write_family(std::ostream& out, const char* count_key,
                  const char* prefix, int count, const std::vector<T>& items,
                  Print print) {
  out << count_key << "=" << count << "\n";
  for (std::size_t i = 0; i < items.size(); ++i)
    out << prefix << i << "=" << print(items[i]) << "\n";
}

std::vector<std::string> chain_from_text(const std::string& text, int) {
  std::vector<std::string> nfs;
  for (const auto& nf : split(text, '+'))
    if (!nf.empty()) nfs.push_back(nf);
  return nfs;
}

std::string chain_to_text(const std::vector<std::string>& nfs) {
  std::string text;
  for (std::size_t i = 0; i < nfs.size(); ++i)
    text += (i ? "+" : "") + nfs[i];
  return text;
}

}  // namespace

std::string to_string(core::SlaKind kind) {
  switch (kind) {
    case core::SlaKind::kMaxThroughput: return "maxt";
    case core::SlaKind::kMinEnergy: return "mine";
    case core::SlaKind::kEnergyEfficiency: return "ee";
  }
  return "ee";
}

core::SlaKind sla_kind_from_string(const std::string& name) {
  if (name == "maxt") return core::SlaKind::kMaxThroughput;
  if (name == "mine") return core::SlaKind::kMinEnergy;
  if (name == "ee") return core::SlaKind::kEnergyEfficiency;
  throw std::invalid_argument("scenario: unknown sla '" + name +
                              "' (expected maxt|mine|ee)");
}

cluster::PlacementPolicy placement_from_string(const std::string& name) {
  if (name == "least-loaded" || name == "balanced")
    return cluster::PlacementPolicy::kLeastLoaded;
  if (name == "first-fit-decreasing" || name == "ffd")
    return cluster::PlacementPolicy::kFirstFitDecreasing;
  if (name == "energy-bestfit" || name == "bestfit")
    return cluster::PlacementPolicy::kEnergyBestFit;
  throw std::invalid_argument(
      "scenario: unknown placement '" + name +
      "' (expected least-loaded|first-fit-decreasing|energy-bestfit)");
}

std::string flow_to_text(const traffic::FlowSpec& flow) {
  return traffic::to_string(flow.proto) + ":" +
         traffic::to_string(flow.arrival) + ":" +
         format("%u", flow.pkt_bytes) + ":" + fmt_double(flow.mean_rate_pps) +
         ":" + format("%d", flow.chain_index) + ":" +
         fmt_double(flow.peak_to_mean) + ":" + fmt_double(flow.dwell_s);
}

traffic::FlowSpec flow_from_text(const std::string& text, int id) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.size() < 5 || fields.size() > 7) {
    throw std::invalid_argument(
        "scenario: flow '" + text +
        "' must be proto:arrival:pkt_bytes:rate_pps:chain"
        "[:peak_to_mean[:dwell_s]]");
  }
  traffic::FlowSpec flow;
  flow.id = id;
  if (fields[0] == "udp") {
    flow.proto = traffic::Protocol::kUdp;
  } else if (fields[0] == "tcp") {
    flow.proto = traffic::Protocol::kTcp;
  } else {
    throw std::invalid_argument("scenario: flow protocol '" + fields[0] +
                                "' (expected udp|tcp)");
  }
  flow.arrival = arrival_from_string(fields[1]);
  flow.pkt_bytes = static_cast<std::uint32_t>(
      parse_double(fields[2], "flow pkt_bytes"));
  flow.mean_rate_pps = parse_double(fields[3], "flow rate_pps");
  flow.chain_index =
      static_cast<int>(parse_double(fields[4], "flow chain index"));
  if (fields.size() > 5)
    flow.peak_to_mean = parse_double(fields[5], "flow peak_to_mean");
  if (fields.size() > 6)
    flow.dwell_s = parse_double(fields[6], "flow dwell_s");
  return flow;
}

const std::vector<std::string>& FleetSpec::policy_names() {
  static const std::vector<std::string> names = {
      "first-fit", "least-loaded", "energy-bestfit", "consolidate",
      "topology-aware-bestfit"};
  return names;
}

core::Sla ScenarioSpec::sla() const { return sla(sla_kind); }

core::Sla ScenarioSpec::sla(core::SlaKind kind) const {
  switch (kind) {
    case core::SlaKind::kMaxThroughput:
      return core::Sla::max_throughput(energy_budget_j);
    case core::SlaKind::kMinEnergy:
      return core::Sla::min_energy(throughput_floor_gbps,
                                   node.p_max_w * window_s);
    case core::SlaKind::kEnergyEfficiency:
      return core::Sla::energy_efficiency();
  }
  return core::Sla::energy_efficiency();
}

core::EnvConfig ScenarioSpec::env_config() const {
  core::EnvConfig env;
  env.spec = node;
  env.num_chains = num_chains;
  env.num_flows = num_flows;
  env.total_offered_gbps = total_offered_gbps;
  env.window_s = window_s;
  env.sub_windows = sub_windows;
  env.steps_per_episode = steps_per_episode;
  env.sla = sla();
  env.shaped_reward = shaped_reward;
  env.flows = flows;
  env.chain_nfs = chain_nfs;
  env.rate_profile = profile;
  return env;
}

core::TrainerConfig ScenarioSpec::trainer_config(const core::Sla& sla)
    const {
  core::TrainerConfig trainer;
  trainer.env = env_config();
  trainer.env.sla = sla;
  trainer.episodes = episodes;
  trainer.seed = seed;
  trainer.prioritized_replay = prioritized_replay;
  trainer.noise_sigma = noise_sigma;
  trainer.noise_decay = noise_decay;
  return trainer;
}

void ScenarioSpec::apply(const Config& config) {
  for_each_key(
      *this,
      [&config](const std::string& key, auto& field) {
        read_key(config, key, field);
      },
      [&] {
        apply_family(config, "chains", "chain", num_chains, chain_nfs,
                     chain_from_text);
        apply_family(config, "flows", "flow", num_flows, flows,
                     flow_from_text);
      });
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  for_each_key(
      *this,
      [&out](const char* key, const auto& field) {
        out << key << "=" << key_text(field) << "\n";
      },
      [&] {
        write_family(out, "chains", "chain", num_chains, chain_nfs,
                     chain_to_text);
        write_family(out, "flows", "flow", num_flows, flows, flow_to_text);
      });
  return out.str();
}

void ScenarioSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("scenario: cannot write " + path);
  out << "# GreenNFV scenario file (key=value; '#' to end of line is a"
         " comment)\n";
  out << to_text();
  if (!out)
    throw std::runtime_error("scenario: failed writing " + path);
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("scenario: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const Config config = Config::from_lines(text.str());
  config.check_known(known_keys(), known_prefixes());
  ScenarioSpec spec;
  spec.apply(config);
  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  if (num_nodes < 1)
    throw std::invalid_argument("scenario: need at least one node");
  if (num_chains < 1)
    throw std::invalid_argument(
        "scenario: need at least one chain (zero-chain topology)");
  if (flows.empty()) {
    if (num_flows < 1)
      throw std::invalid_argument("scenario: empty traffic mix (no flows)");
    if (total_offered_gbps <= 0.0)
      throw std::invalid_argument(
          "scenario: offered_gbps must be positive");
  } else {
    for (const auto& flow : flows) {
      traffic::validate(flow);
      if (flow.mean_rate_pps <= 0.0)
        throw std::invalid_argument(
            "scenario: flow rates must be positive");
      if (flow.chain_index >= num_chains)
        throw std::invalid_argument(
            format("scenario: flow %d targets chain %d but only %d chains"
                   " exist",
                   flow.id, flow.chain_index, num_chains));
    }
  }
  if (!chain_nfs.empty()) {
    if (chain_nfs.size() != static_cast<std::size_t>(num_chains))
      throw std::invalid_argument(
          "scenario: chainN entries must cover every chain");
    for (const auto& nfs : chain_nfs) {
      if (nfs.empty())
        throw std::invalid_argument("scenario: chain with no NFs");
      for (const auto& nf : nfs)
        (void)hwmodel::nf_catalog::by_name(nf);  // throws on unknown names
    }
  }
  profile.validate();
  if (window_s <= 0.0)
    throw std::invalid_argument("scenario: window_s must be positive");
  if (sub_windows < 1)
    throw std::invalid_argument("scenario: sub_windows must be >= 1");
  if (steps_per_episode < 1)
    throw std::invalid_argument(
        "scenario: steps_per_episode must be >= 1");
  if (eval_windows < 1)
    throw std::invalid_argument("scenario: eval_windows must be >= 1");
  if (episodes < 1 || q_episodes < 1)
    throw std::invalid_argument("scenario: training episodes must be >= 1");
  if (candidates < 1)
    throw std::invalid_argument("scenario: candidates must be >= 1");
  if (noise_sigma < 0.0)
    throw std::invalid_argument("scenario: noise_sigma must be >= 0");
  if (noise_decay <= 0.0 || noise_decay > 1.0)
    throw std::invalid_argument("scenario: noise_decay must be in (0, 1]");
  if (sla_kind == core::SlaKind::kMaxThroughput && energy_budget_j <= 0.0)
    throw std::invalid_argument(
        "scenario: energy_budget must be positive for the maxt SLA");
  if (sla_kind == core::SlaKind::kMinEnergy &&
      throughput_floor_gbps <= 0.0)
    throw std::invalid_argument(
        "scenario: throughput_floor must be positive for the mine SLA");
  if (num_nodes > 1 && num_chains < num_nodes && !fleet.enabled)
    throw std::invalid_argument(
        "scenario: cluster runs need at least one chain per node");

  // --- fleet block ---------------------------------------------------------
  if (node.p_sleep_w < 0.0)
    throw std::invalid_argument("scenario: node_p_sleep_w must be >= 0");
  // Sleep draw above idle draw only matters (and only makes gating
  // nonsensical) when the orchestrator actually gates nodes — a plain
  // scenario with a tiny node_p_idle_w must stay valid as before.
  if (fleet.enabled && node.p_sleep_w > node.p_idle_w)
    throw std::invalid_argument(
        "scenario: node_p_sleep_w must be <= node_p_idle_w for fleet runs");
  if (node.wake_latency_s < 0.0)
    throw std::invalid_argument(
        "scenario: node_wake_latency_s must be >= 0");
  const auto& policies = FleetSpec::policy_names();
  if (std::find(policies.begin(), policies.end(), fleet.policy) ==
      policies.end()) {
    std::string known;
    for (const auto& name : policies) {
      if (!known.empty()) known += "|";
      known += name;
    }
    throw std::invalid_argument("scenario: unknown fleet.policy '" +
                                fleet.policy + "' (expected " + known + ")");
  }
  if (fleet.horizon_windows < 0)
    throw std::invalid_argument("scenario: fleet.horizon must be >= 0");
  if (fleet.arrival_rate < 0.0)
    throw std::invalid_argument(
        "scenario: fleet.arrival_rate must be >= 0");
  if (fleet.mean_holding_windows <= 0.0)
    throw std::invalid_argument(
        "scenario: fleet.mean_holding must be positive");
  if (fleet.flows_per_chain < 1)
    throw std::invalid_argument(
        "scenario: fleet.flows_per_chain must be >= 1");
  if (fleet.chain_offered_gbps <= 0.0)
    throw std::invalid_argument(
        "scenario: fleet.chain_gbps must be positive");
  if (fleet.migration_downtime_s < 0.0 || fleet.migration_energy_j < 0.0)
    throw std::invalid_argument(
        "scenario: fleet migration costs must be >= 0");
  if (fleet.consolidate_below < 0.0 || fleet.consolidate_below > 1.0)
    throw std::invalid_argument(
        "scenario: fleet.consolidate_below must be in [0, 1]");
  if (fleet.sleep_after_windows < 1)
    throw std::invalid_argument(
        "scenario: fleet.sleep_after must be >= 1");

  // --- topology block ------------------------------------------------------
  // Name/numeric checks always run (campaign expansion rejects a typo'd
  // topology.preset on disabled cells too); host-capacity fit binds only
  // when the fabric is actually built.
  topology::validate_spec(topology, num_nodes);
  if (latency_sla_us < 0.0)
    throw std::invalid_argument("scenario: sla.latency must be >= 0");
  if (topology.enabled && !fleet.enabled)
    throw std::invalid_argument(
        "scenario: topology.enabled=1 requires fleet.enabled=1 (the fabric"
        " is routed by the fleet orchestrator)");
  if (latency_sla_us > 0.0 && !topology.enabled)
    throw std::invalid_argument(
        "scenario: sla.latency needs topology.enabled=1 (path latency comes"
        " from the fabric)");

  // --- fault block ---------------------------------------------------------
  // Numeric checks always run (campaign expansion rejects a bad fault.*
  // value on disabled cells too); the cross-requirements bind only when
  // injection is actually on.
  if (fault.node_crash_rate < 0.0 || fault.link_fail_rate < 0.0 ||
      fault.rack_outage_rate < 0.0)
    throw std::invalid_argument("scenario: fault rates must be >= 0");
  if (fault.rack_size < 1)
    throw std::invalid_argument("scenario: fault.rack_size must be >= 1");
  if (fault.mean_repair_windows <= 0.0)
    throw std::invalid_argument(
        "scenario: fault.mean_repair must be positive");
  if (fault.replace_downtime_s < 0.0 || fault.replace_energy_j < 0.0)
    throw std::invalid_argument(
        "scenario: fault replacement costs must be >= 0");
  if (fault.wake_storm_prob < 0.0 || fault.wake_storm_prob > 1.0)
    throw std::invalid_argument(
        "scenario: fault.wake_storm_prob must be in [0, 1]");
  if (fault.wake_storm_factor < 1.0)
    throw std::invalid_argument(
        "scenario: fault.wake_storm_factor must be >= 1");
  if (fault.enabled && !fleet.enabled)
    throw std::invalid_argument(
        "scenario: fault.enabled=1 requires fleet.enabled=1 (faults are"
        " injected by the fleet orchestrator)");
  if (fault.enabled && fault.link_fail_rate > 0.0 && !topology.enabled)
    throw std::invalid_argument(
        "scenario: fault.link_fail_rate needs topology.enabled=1 (there is"
        " no fabric to fail)");
}

const std::vector<std::string>& ScenarioSpec::known_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> names = {"scenario", "scenario_file"};
    ScenarioSpec spec;
    for_each_key(
        spec,
        [&names](const char* key, const auto&) { names.emplace_back(key); },
        [&names] { names.insert(names.end(), {"chains", "flows"}); });
    return names;
  }();
  return keys;
}

const std::vector<std::string>& ScenarioSpec::known_prefixes() {
  static const std::vector<std::string> prefixes = {"chain", "flow"};
  return prefixes;
}

}  // namespace greennfv::scenario
