#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/string_util.hpp"
#include "hwmodel/nf_cost.hpp"

namespace greennfv::scenario {

namespace {

/// %.10g when that reads back as the same double (every hand-written
/// value with up to 10 significant digits prints as typed), %.17g
/// otherwise — so a computed value such as 0.1+0.2 survives a save/load.
std::string fmt_double(double value) {
  const std::string brief = format("%.10g", value);
  return parse_finite(brief) == value ? brief : format("%.17g", value);
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

/// Doubles must be finite and ints inside their domain; seeds, flags,
/// names and enums have no domain beyond their text form.
template <class Field>
void check_domain(const char* key, const Field& value,
                  const KeyDomain& domain) {
  if constexpr (std::is_same_v<Field, double> || std::is_same_v<Field, int>) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument(format(
          "scenario: %s must be a finite number, got %s", key,
          fmt_double(value).c_str()));
    }
    if (!domain.contains(value)) {
      throw std::invalid_argument(format("scenario: %s must be %s, got %s",
                                         key, domain.text,
                                         fmt_double(value).c_str()));
    }
  }
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

// The text form of each indexed-family entry (chainN= / flowN=).
void read_item(const std::string& text, int, std::vector<std::string>& nfs) {
  for (const auto& nf : split(text, '+'))
    if (!nf.empty()) nfs.push_back(nf);
}
void read_item(const std::string& text, int id, traffic::FlowSpec& flow) {
  flow = flow_from_text(text, id);
}

std::string item_text(const std::vector<std::string>& nfs) {
  std::string text;
  for (std::size_t i = 0; i < nfs.size(); ++i)
    text += (i ? "+" : "") + nfs[i];
  return text;
}
std::string item_text(const traffic::FlowSpec& flow) {
  return flow_to_text(flow);
}

/// An indexed family (chain0=, chain1=, ...) and its count key (chains=).
/// An explicit count without indexed entries reverts the family to its
/// generated/standard form; entries, contiguous from 0, set the count.
template <class T>
void apply_family(const Config& config, const std::string& count_key,
                  const std::string& prefix, int& count,
                  std::vector<T>& items) {
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
    read_item(*entry, i, items.emplace_back());
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

template <class T>
void write_family(std::ostream& out, const char* count_key,
                  const char* prefix, int count,
                  const std::vector<T>& items) {
  out << count_key << "=" << count << "\n";
  for (std::size_t i = 0; i < items.size(); ++i)
    out << prefix << i << "=" << item_text(items[i]) << "\n";
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
  const auto field = [id](const char* name) {
    return format("flow%d %s", id, name);
  };
  flow.pkt_bytes = static_cast<std::uint32_t>(
      parse_count(field("pkt_bytes"), fields[2],
                  std::numeric_limits<std::uint32_t>::max()));
  flow.mean_rate_pps = parse_double(field("rate_pps"), fields[3]);
  flow.chain_index = static_cast<int>(parse_count(
      field("chain"), fields[4], std::numeric_limits<int>::max()));
  if (fields.size() > 5)
    flow.peak_to_mean = parse_double(field("peak_to_mean"), fields[5]);
  if (fields.size() > 6)
    flow.dwell_s = parse_double(field("dwell_s"), fields[6]);
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
      [&config](const std::string& key, auto& field, const KeyDomain&) {
        read_key(config, key, field);
      },
      [&config](const std::string& count_key, const std::string& prefix,
                int& count, auto& items, const KeyDomain&) {
        apply_family(config, count_key, prefix, count, items);
      });
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  for_each_key(
      *this,
      [&out](const char* key, const auto& field, const KeyDomain&) {
        out << key << "=" << key_text(field) << "\n";
      },
      [&out](const char* count_key, const char* prefix, int count,
             const auto& items, const KeyDomain&) {
        write_family(out, count_key, prefix, count, items);
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
  // Every numeric key against the domain its table line declares.
  for_each_key(
      *this,
      [](const char* key, const auto& field, const KeyDomain& domain) {
        check_domain(key, field, domain);
      },
      [](const char* count_key, const char*, int count, const auto&,
         const KeyDomain& domain) { check_domain(count_key, count, domain); });

  // --- node ----------------------------------------------------------------
  // A DVFS ladder of at least two steps, peak power at or above idle, and
  // a core left to schedule past the ONVM manager's.
  if (!(node.fmax_ghz >= node.fmin_ghz + node.fstep_ghz))
    throw std::invalid_argument(format(
        "scenario: node_fmax_ghz must be at least one %g GHz step above"
        " node_fmin_ghz",
        node.fstep_ghz));
  if (!(node.p_max_w >= node.p_idle_w))
    throw std::invalid_argument(
        "scenario: node_p_max_w must be >= node_p_idle_w");
  if (!(node.total_cores > node.controller_cores))
    throw std::invalid_argument(format(
        "scenario: node_cores must exceed the %g cores of the ONVM manager",
        node.controller_cores));

  // --- traffic and chains --------------------------------------------------
  if (flows.empty()) {
    if (!(total_offered_gbps > 0.0))
      throw std::invalid_argument(
          "scenario: offered_gbps must be positive");
  } else {
    for (const auto& flow : flows) {
      traffic::validate(flow);
      if (!(flow.mean_rate_pps > 0.0))
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
  if (sla_kind == core::SlaKind::kMaxThroughput && !(energy_budget_j > 0.0))
    throw std::invalid_argument(
        "scenario: energy_budget must be positive for the maxt SLA");
  if (sla_kind == core::SlaKind::kMinEnergy &&
      !(throughput_floor_gbps > 0.0))
    throw std::invalid_argument(
        "scenario: throughput_floor must be positive for the mine SLA");
  if (num_nodes > 1 && num_chains < num_nodes && !fleet.enabled)
    throw std::invalid_argument(
        "scenario: cluster runs need at least one chain per node");

  // --- fleet block ---------------------------------------------------------
  // Sleep draw above idle draw only matters (and only makes gating
  // nonsensical) when the orchestrator actually gates nodes — a plain
  // scenario with a tiny node_p_idle_w must stay valid as before.
  if (fleet.enabled && !(node.p_sleep_w <= node.p_idle_w))
    throw std::invalid_argument(
        "scenario: node_p_sleep_w must be <= node_p_idle_w for fleet runs");
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

  // --- topology block ------------------------------------------------------
  // Name checks always run (campaign expansion rejects a typo'd
  // topology.preset on disabled cells too); host-capacity fit binds only
  // when the fabric is actually built.
  topology::validate_spec(topology, num_nodes);
  if (topology.enabled && !fleet.enabled)
    throw std::invalid_argument(
        "scenario: topology.enabled=1 requires fleet.enabled=1 (the fabric"
        " is routed by the fleet orchestrator)");
  if (latency_sla_us > 0.0 && !topology.enabled)
    throw std::invalid_argument(
        "scenario: sla.latency needs topology.enabled=1 (path latency comes"
        " from the fabric)");

  // --- fault block ---------------------------------------------------------
  // The cross-requirements bind only when injection is actually on.
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
        [&names](const char* key, const auto&, const KeyDomain&) {
          names.emplace_back(key);
        },
        [&names](const char* count_key, const char*, int, const auto&,
                 const KeyDomain&) { names.emplace_back(count_key); });
    return names;
  }();
  return keys;
}

const std::vector<std::string>& ScenarioSpec::known_prefixes() {
  static const std::vector<std::string> prefixes = {"chain", "flow"};
  return prefixes;
}

}  // namespace greennfv::scenario
