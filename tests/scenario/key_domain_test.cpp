#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/environment.hpp"
#include "scenario/scenario_spec.hpp"

/// Property suite over the key table's domain column (for_each_key in
/// scenario_spec.hpp), walked through known_keys(): every numeric key
/// rejects nan, inf and the first value past each finite bound, naming
/// itself; every node_* key at the edge validate() still accepts builds an
/// environment that runs without a contract failure.

namespace greennfv::scenario {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// "%.17g": reparses to the same double, and integral values print as
/// bare digits.
std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// apply(key=value) then validate(); the error text when either throws.
std::string rejection(const std::string& key, const std::string& value) {
  ScenarioSpec spec;
  Config config;
  config.set(key, value);
  try {
    spec.apply(config);
    spec.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

void expect_rejected_naming_key(const std::string& key,
                                const std::string& value) {
  const std::string what = rejection(key, value);
  EXPECT_FALSE(what.empty()) << key << "=" << value << " was accepted";
  EXPECT_NE(what.find(key), std::string::npos)
      << key << "=" << value << " rejected without naming the key: " << what;
}

/// A numeric key with its declared domain; integer keys take bare digits.
struct NumericKey {
  std::string name;
  KeyDomain domain;
  bool integer = false;
};

/// Every numeric key of the table: scalars and the chains=/flows= counts.
const std::vector<NumericKey>& numeric_keys() {
  static const std::vector<NumericKey> keys = [] {
    std::vector<NumericKey> numeric;
    ScenarioSpec spec;
    for_each_key(
        spec,
        [&numeric](const char* key, const auto& field,
                   const KeyDomain& domain) {
          using Field = std::decay_t<decltype(field)>;
          if constexpr (std::is_arithmetic_v<Field> &&
                        !std::is_same_v<Field, bool>)
            numeric.push_back({key, domain, std::is_integral_v<Field>});
        },
        [&numeric](const char* count_key, const char*, int, const auto&,
                   const KeyDomain& domain) {
          numeric.push_back({count_key, domain, true});
        });
    return numeric;
  }();
  return keys;
}

/// The values just past the domain's finite bounds (the bound itself when
/// it is open).
std::vector<double> just_outside(const NumericKey& numeric) {
  const KeyDomain& d = numeric.domain;
  const double step = numeric.integer ? 1.0 : 0.0;
  std::vector<double> values;
  if (std::isfinite(d.lo)) {
    values.push_back(d.lo_open ? d.lo
                     : step > 0 ? d.lo - step
                                : std::nextafter(d.lo, -kInf));
  }
  if (std::isfinite(d.hi)) {
    values.push_back(d.hi_open ? d.hi
                     : step > 0 ? d.hi + step
                                : std::nextafter(d.hi, kInf));
  }
  return values;
}

const NumericKey* find_numeric(const std::string& key) {
  for (const NumericKey& numeric : numeric_keys())
    if (numeric.name == key) return &numeric;
  return nullptr;
}

TEST(KeyDomain, EveryNumericKeyIsAKnownKeyAndDefaultsValidate) {
  const auto& known = ScenarioSpec::known_keys();
  ASSERT_FALSE(numeric_keys().empty());
  for (const NumericKey& numeric : numeric_keys()) {
    EXPECT_NE(std::find(known.begin(), known.end(), numeric.name),
              known.end())
        << numeric.name;
  }
  // The defaults sit inside every domain.
  EXPECT_NO_THROW(ScenarioSpec{}.validate());
}

TEST(KeyDomain, EveryNumericKeyRejectsNanInfAndValuesJustOutside) {
  int walked = 0;
  for (const std::string& key : ScenarioSpec::known_keys()) {
    const NumericKey* numeric = find_numeric(key);
    if (numeric == nullptr) continue;
    ++walked;
    for (const char* value : {"nan", "inf", "-inf", "NaN", "1e999"})
      expect_rejected_naming_key(key, value);
    for (const double value : just_outside(*numeric))
      expect_rejected_naming_key(key, exact(value));
  }
  EXPECT_EQ(walked,
            static_cast<int>(numeric_keys().size()));
}

TEST(KeyDomain, ValidateRejectsNonFiniteFieldsSetInCode) {
  // apply() never produces a non-finite double; validate() must still
  // catch one written straight into the struct.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_names = [](const ScenarioSpec& spec, const char* key) {
    try {
      spec.validate();
      ADD_FAILURE() << key << " accepted a non-finite value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  ScenarioSpec spec;
  spec.window_s = nan;
  expect_names(spec, "window_s");
  spec = ScenarioSpec{};
  spec.noise_sigma = nan;
  expect_names(spec, "noise_sigma");
  spec = ScenarioSpec{};
  spec.node.fmin_ghz = nan;
  expect_names(spec, "node_fmin_ghz");
  spec = ScenarioSpec{};
  spec.fleet.arrival_rate = kInf;
  expect_names(spec, "fleet.arrival_rate");
  spec = ScenarioSpec{};
  spec.topology.link_gbps = nan;
  expect_names(spec, "topology.link_gbps");
  spec = ScenarioSpec{};
  spec.fault.wake_storm_prob = nan;
  expect_names(spec, "fault.wake_storm_prob");
  spec = ScenarioSpec{};
  spec.profile.period_s = kInf;  // steady profile: unbounded, still finite
  expect_names(spec, "profile_period_s");
  spec = ScenarioSpec{};
  spec.energy_budget_j = nan;  // ee SLA: the budget is unused, still finite
  expect_names(spec, "energy_budget");
}

/// The accepted value of `key` nearest `rejected`, bisecting from
/// `accepted` (integers stay integral).
double accepted_edge(const NumericKey& numeric, double rejected,
                     double accepted) {
  while (true) {
    double mid = rejected + (accepted - rejected) / 2.0;
    if (numeric.integer) mid = std::round(mid);
    if (mid == rejected || mid == accepted) return accepted;
    (rejection(numeric.name, exact(mid)).empty() ? accepted : rejected) =
        mid;
  }
}

/// The smallest value of `key` validate() accepts, the others at their
/// defaults: the domain's lower edge, or past it where a cross-key rule
/// binds first (node_cores above the manager's cores, fmax a DVFS step
/// above fmin, p_max at least p_idle).
double lower_edge(const NumericKey& numeric, double fallback) {
  const KeyDomain& d = numeric.domain;
  double edge = d.lo;
  if (d.lo_open)
    edge = numeric.integer ? d.lo + 1.0 : std::nextafter(d.lo, kInf);
  if (rejection(numeric.name, exact(edge)).empty()) return edge;
  return accepted_edge(numeric, edge, fallback);
}

/// Builds the spec's environment and runs a window at each end of the
/// action space; every observed quantity must stay finite.
void run_windows(const ScenarioSpec& spec, const std::string& label) {
  SCOPED_TRACE(label);
  core::NfvEnvironment env(spec.env_config(), spec.seed);
  (void)env.reset(spec.seed);
  for (const double action : {-1.0, 1.0}) {
    const auto step =
        env.step(std::vector<double>(env.action_dim(), action));
    EXPECT_TRUE(std::isfinite(step.reward));
    EXPECT_TRUE(std::isfinite(env.last_outcome().throughput_gbps));
    EXPECT_TRUE(std::isfinite(env.last_outcome().energy_j));
    for (const double s : step.next_state) EXPECT_TRUE(std::isfinite(s));
  }
}

ScenarioSpec with_value(const std::string& key, double value) {
  ScenarioSpec spec;
  Config config;
  config.set(key, exact(value));
  spec.apply(config);
  spec.validate();
  return spec;
}

double default_value(const std::string& key) {
  const std::string text = ScenarioSpec{}.to_text();
  const std::size_t at = text.find("\n" + key + "=");
  EXPECT_NE(at, std::string::npos) << key;
  return std::stod(text.substr(at + key.size() + 2));
}

TEST(KeyDomain, NodeKeysAtTheirAcceptedLowerEdgeRunAWindow) {
  int node_keys = 0;
  for (const std::string& key : ScenarioSpec::known_keys()) {
    if (key.rfind("node_", 0) != 0) continue;
    const NumericKey* numeric = find_numeric(key);
    ASSERT_NE(numeric, nullptr) << key << " has no domain";
    ++node_keys;
    const double edge = lower_edge(*numeric, default_value(key));
    run_windows(with_value(key, edge), key + "=" + exact(edge));
  }
  EXPECT_EQ(node_keys, 8);
}

TEST(KeyDomain, NodeCrossKeyUpperEdgesRunAWindow) {
  // fmin may climb to one DVFS step below fmax; p_idle up to p_max.
  const ScenarioSpec base;
  const double fmin = accepted_edge(*find_numeric("node_fmin_ghz"),
                                    base.node.fmax_ghz, base.node.fmin_ghz);
  EXPECT_NEAR(fmin, base.node.fmax_ghz - base.node.fstep_ghz, 1e-9);
  run_windows(with_value("node_fmin_ghz", fmin), "fmin upper edge");
  const double p_idle = accepted_edge(*find_numeric("node_p_idle_w"),
                                      base.node.p_max_w + 1.0,
                                      base.node.p_idle_w);
  EXPECT_EQ(p_idle, base.node.p_max_w);
  run_windows(with_value("node_p_idle_w", p_idle), "p_idle upper edge");
}

TEST(KeyDomain, NodeKeysThatOnceAbortedAreRejectedByValidate) {
  // Each of these used to pass validate() and abort deep in hwmodel.
  for (const char* overrides :
       {"node_cores=0", "node_cores=2", "node_fmin_ghz=5 node_fmax_ghz=1",
        "node_fmax_ghz=1.24", "node_fmin_ghz=0.0001", "node_p_max_w=0",
        "node_p_idle_w=0 node_p_max_w=0"}) {
    ScenarioSpec spec;
    spec.apply(Config::from_string(overrides));
    EXPECT_THROW(spec.validate(), std::invalid_argument) << overrides;
  }
}

TEST(KeyDomain, NodeFmaxIsBoundedAboveAndTheLadderRefusesHugeSpans) {
  // node_fmax_ghz=1e9 once passed validate() and aborted after an
  // overflowing float-to-int cast in the DVFS ladder.
  expect_rejected_naming_key("node_fmax_ghz", "1e9");
  const KeyDomain& domain = find_numeric("node_fmax_ghz")->domain;
  ASSERT_TRUE(std::isfinite(domain.hi));
  run_windows(with_value("node_fmax_ghz", domain.hi), "fmax upper edge");

  // The ladder refuses the step count itself, before the cast.
  hwmodel::NodeSpec spec;
  spec.fmax_ghz = 1e9;
  EXPECT_DEATH((void)spec.frequency_ladder_ghz(), "step count out of range");
  spec.fmax_ghz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH((void)spec.frequency_ladder_ghz(), "step count out of range");
  spec.fmax_ghz = spec.fmin_ghz - 1.0;
  EXPECT_DEATH((void)spec.frequency_ladder_ghz(), "step count out of range");
}

TEST(KeyDomain, FlowFieldsParseAsIntegersAndFiniteDoubles) {
  const auto expect_names = [](const std::string& text, const char* field) {
    try {
      (void)flow_from_text(text, 0);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_names("udp:cbr:512:1e6:0.9", "chain");     // was chain 0
  expect_names("udp:cbr:512:1e6:2147483648", "chain");
  expect_names("udp:cbr:1e12:1e6:0", "pkt_bytes");  // was a UB cast
  expect_names("udp:cbr:4294967296:1e6:0", "pkt_bytes");
  expect_names("udp:cbr:512.5:1e6:0", "pkt_bytes");
  expect_names("udp:cbr:512:nan:0", "rate_pps");
  expect_names("udp:cbr:512:1e6:0:inf", "peak_to_mean");
  expect_names("udp:cbr:512:1e6:0:2:nan", "dwell_s");
  const traffic::FlowSpec flow = flow_from_text("tcp:mmpp:1518:2.5e5:2", 3);
  EXPECT_EQ(flow.pkt_bytes, 1518u);
  EXPECT_EQ(flow.chain_index, 2);
  EXPECT_EQ(flow.mean_rate_pps, 2.5e5);
}

}  // namespace
}  // namespace greennfv::scenario
