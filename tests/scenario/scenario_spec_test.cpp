#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "scenario/presets.hpp"
#include "scenario/scenario_spec.hpp"

/// ScenarioSpec contract: Config/file round-trips are lossless, the preset
/// registry resolves by name (unknown names are a hard error), and invalid
/// scenarios are rejected with named fields.

namespace greennfv::scenario {
namespace {

TEST(ScenarioSpec, ConfigTextRoundTripsEveryPreset) {
  for (const std::string& name : preset_names()) {
    const ScenarioSpec original = preset(name);
    const std::string text = original.to_text();
    ScenarioSpec reparsed;
    reparsed.apply(Config::from_string(text));
    EXPECT_EQ(reparsed.to_text(), text) << "preset " << name;
  }
}

TEST(ScenarioSpec, ToTextOnlyEmitsKnownKeys) {
  // The serialized form must be accepted by the same vocabulary the
  // benches use for check_known — otherwise saved files would be rejected.
  const Config config =
      Config::from_string(preset("heterogeneous-cluster").to_text());
  EXPECT_NO_THROW(config.check_known(ScenarioSpec::known_keys(),
                                     ScenarioSpec::known_prefixes()));
}

TEST(ScenarioSpec, FileRoundTripPreservesSpecAndTolerateComments) {
  const std::string path = "/tmp/gnfv_scenario_roundtrip.scenario";
  const ScenarioSpec original = preset("tcp-heavy");  // explicit flows
  original.save(path);
  const ScenarioSpec loaded = ScenarioSpec::load(path);
  EXPECT_EQ(loaded.to_text(), original.to_text());
  EXPECT_EQ(loaded.flows.size(), original.flows.size());
  EXPECT_EQ(loaded.flows[1].proto, traffic::Protocol::kTcp);
  EXPECT_EQ(loaded.flows[1].arrival, traffic::ArrivalKind::kMmpp);

  // Comments and blank lines are workload documentation, not errors.
  std::ofstream out(path, std::ios::app);
  out << "\n# trailing comment\nseed=7 # inline comment\n";
  out.close();
  const ScenarioSpec commented = ScenarioSpec::load(path);
  EXPECT_EQ(commented.seed, 7u);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, LoadRejectsMistypedKeys) {
  const std::string path = "/tmp/gnfv_scenario_typo.scenario";
  std::ofstream out(path);
  out << "epizodes=100\n";
  out.close();
  EXPECT_THROW((void)ScenarioSpec::load(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, FileRoundTripKeepsSpacesInValues) {
  // A file line holds one key=value, so a spaced name survives save/load.
  const std::string path = "/tmp/gnfv_scenario_spaced.scenario";
  ScenarioSpec original = preset("ci-smoke");
  original.name = "my run";
  original.save(path);
  const ScenarioSpec loaded = ScenarioSpec::load(path);
  EXPECT_EQ(loaded.name, "my run");
  EXPECT_EQ(loaded.to_text(), original.to_text());
  std::remove(path.c_str());
}

TEST(ScenarioSpec, TextRoundTripKeepsEveryDoubleExact) {
  // With %.10g alone, 0.1+0.2 printed as 0.3 and 1-1e-12 as 1: two
  // different specs shared one text, the campaign resume coordinate.
  ScenarioSpec spec;
  spec.fleet.chain_offered_gbps = 0.1 + 0.2;
  spec.noise_decay = 1.0 - 1e-12;
  spec.flows = {flow_from_text("udp:cbr:512:1e6:0", 0)};
  spec.flows[0].mean_rate_pps = 1e6 / 3.0;
  spec.num_flows = 1;
  ScenarioSpec reparsed;
  reparsed.apply(Config::from_lines(spec.to_text()));
  EXPECT_EQ(reparsed.fleet.chain_offered_gbps, 0.1 + 0.2);
  EXPECT_EQ(reparsed.noise_decay, 1.0 - 1e-12);
  EXPECT_EQ(reparsed.flows[0].mean_rate_pps, 1e6 / 3.0);
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
  // A value typed with up to 10 significant digits still prints as typed.
  EXPECT_NE(ScenarioSpec{}.to_text().find("\nnoise_decay=0.9985\n"),
            std::string::npos);
}

TEST(ScenarioSpecApply, SeedsKeepTheFullUnsignedRange) {
  // Campaign auto_seeds draws full 64-bit seeds.
  ScenarioSpec spec;
  spec.apply(Config::from_string("seed=17293822569102704641"));
  EXPECT_EQ(spec.seed, 17293822569102704641ull);
  ScenarioSpec reparsed;
  reparsed.apply(Config::from_lines(spec.to_text()));
  EXPECT_EQ(reparsed.seed, 17293822569102704641ull);
  spec.apply(Config::from_string("seed=18446744073709551615"));
  EXPECT_EQ(spec.seed, 18446744073709551615ull);
  EXPECT_THROW(spec.apply(Config::from_string("seed=18446744073709551616")),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(Config::from_string("seed=-5")),
               std::invalid_argument);
}

TEST(ScenarioSpecApply, IntegerKeysRejectNegativeAndOutOfRangeValues) {
  // Narrowing once turned nodes=4294967297 chains=4294967299 into a valid
  // nodes=1 chains=3 scenario. The error names the key.
  for (const std::string bad :
       {"nodes=4294967297", "chains=4294967299", "flows=2147483648",
        "fleet.horizon=-1", "episodes=-3", "fault.rack_size=-1"}) {
    ScenarioSpec spec;
    try {
      spec.apply(Config::from_string(bad));
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad.substr(0, bad.find('='))),
                std::string::npos)
          << e.what();
    }
  }
  ScenarioSpec spec;
  spec.apply(Config::from_string("nodes=2147483647 chains=0"));
  EXPECT_EQ(spec.num_nodes, 2147483647);
  EXPECT_EQ(spec.num_chains, 0);
}

TEST(ScenarioSpecApply, FamilyIndexPastSizeTIsAGap) {
  // Not a stray std::out_of_range from the index parse.
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply(Config::from_string(
                   "chain0=firewall chain99999999999999999999=nat")),
               std::invalid_argument);
}

TEST(Presets, RegistryResolvesEveryNameAndValidates) {
  const auto names = preset_names();
  ASSERT_GE(names.size(), 5u);
  for (const auto& name : names) {
    const ScenarioSpec spec = preset(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate()) << name;
  }
}

TEST(Presets, UnknownNameIsAHardError) {
  try {
    (void)preset("paper-defalt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the typo and lists what exists.
    const std::string what = e.what();
    EXPECT_NE(what.find("paper-defalt"), std::string::npos);
    EXPECT_NE(what.find("paper-default"), std::string::npos);
  }
}

TEST(Presets, ResolveAppliesOverridesOnTopOfThePreset) {
  const Config config = Config::from_string(
      "scenario=paper-default chains=4 profile=diurnal seed=9");
  const ScenarioSpec spec = resolve(config);
  EXPECT_EQ(spec.num_chains, 4);
  EXPECT_EQ(spec.profile.kind, traffic::RateProfile::Kind::kDiurnal);
  EXPECT_EQ(spec.seed, 9u);
  // Untouched fields keep the preset's values.
  EXPECT_EQ(spec.num_flows, 5);
}

TEST(Presets, ResolveRejectsScenarioPlusScenarioFile) {
  const Config config =
      Config::from_string("scenario=paper-default scenario_file=x");
  EXPECT_THROW((void)resolve(config), std::invalid_argument);
}

TEST(ScenarioSpec, SlaConstructionUsesScenarioConstants) {
  ScenarioSpec spec;
  spec.sla_kind = core::SlaKind::kMaxThroughput;
  spec.energy_budget_j = 1234.0;
  EXPECT_EQ(spec.sla().kind(), core::SlaKind::kMaxThroughput);
  EXPECT_DOUBLE_EQ(spec.sla().energy_budget_j(), 1234.0);

  spec.sla_kind = core::SlaKind::kMinEnergy;
  spec.throughput_floor_gbps = 6.5;
  EXPECT_DOUBLE_EQ(spec.sla().throughput_floor_gbps(), 6.5);
}

TEST(ScenarioSpecValidation, RejectsZeroChains) {
  ScenarioSpec spec;
  spec.num_chains = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsEmptyTrafficMix) {
  ScenarioSpec spec;
  spec.num_flows = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsNonPositiveRates) {
  ScenarioSpec spec;
  spec.total_offered_gbps = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  ScenarioSpec explicit_spec;
  explicit_spec.flows = {flow_from_text("udp:cbr:512:0:0", 0)};
  explicit_spec.num_flows = 1;
  EXPECT_THROW(explicit_spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsFlowTargetingMissingChain) {
  ScenarioSpec spec;
  spec.flows = {flow_from_text("udp:cbr:512:1e6:7", 0)};
  spec.num_flows = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsUnknownNfNames) {
  ScenarioSpec spec;
  spec.num_chains = 1;
  spec.chain_nfs = {{"firewall", "warp_drive"}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsBadProfileParameters) {
  ScenarioSpec spec;
  spec.profile.kind = traffic::RateProfile::Kind::kDiurnal;
  spec.profile.amplitude = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecValidation, RejectsClusterWithFewerChainsThanNodes) {
  ScenarioSpec spec;
  spec.num_nodes = 4;
  spec.num_chains = 3;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpecApply, RejectsConflictingCountsAndUnknownEnums) {
  ScenarioSpec spec;
  EXPECT_THROW(
      spec.apply(Config::from_string("chains=3 chain0=firewall")),
      std::invalid_argument);
  EXPECT_THROW(spec.apply(Config::from_string("sla=fastest")),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(Config::from_string("profile=lunar")),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(Config::from_string("flow0=udp:cbr:512")),
               std::invalid_argument);
}

TEST(ScenarioSpecApply, RejectsIndexGapsInChainAndFlowFamilies) {
  // A gap must not silently truncate the list.
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply(Config::from_string(
                   "chain0=firewall chain1=nat chain3=ids")),
               std::invalid_argument);
  EXPECT_THROW(spec.apply(Config::from_string(
                   "flow0=udp:cbr:512:1e6:0 flow2=udp:cbr:512:1e6:0")),
               std::invalid_argument);
  // ...including a family that never starts at 0.
  EXPECT_THROW(spec.apply(Config::from_string("chain1=firewall")),
               std::invalid_argument);
  EXPECT_THROW(
      spec.apply(Config::from_string("flow1=udp:cbr:512:1e6:0")),
      std::invalid_argument);
}

// --- the fleet.* key family --------------------------------------------------

TEST(FleetSpec, KeysApplySerializeAndRoundTrip) {
  ScenarioSpec spec;
  spec.apply(Config::from_string(
      "fleet.enabled=1 fleet.horizon=24 fleet.arrival_rate=0.8"
      " fleet.mean_holding=12 fleet.flows_per_chain=3 fleet.chain_gbps=5"
      " fleet.policy=consolidate fleet.migration=0"
      " fleet.migration_downtime_s=0.25 fleet.migration_energy_j=40"
      " fleet.consolidate_below=0.5 fleet.power_gating=0"
      " fleet.sleep_after=4 node_p_sleep_w=5 node_wake_latency_s=2"));
  EXPECT_TRUE(spec.fleet.enabled);
  EXPECT_EQ(spec.fleet.horizon_windows, 24);
  EXPECT_DOUBLE_EQ(spec.fleet.arrival_rate, 0.8);
  EXPECT_DOUBLE_EQ(spec.fleet.mean_holding_windows, 12.0);
  EXPECT_EQ(spec.fleet.flows_per_chain, 3);
  EXPECT_DOUBLE_EQ(spec.fleet.chain_offered_gbps, 5.0);
  EXPECT_EQ(spec.fleet.policy, "consolidate");
  EXPECT_FALSE(spec.fleet.migration);
  EXPECT_DOUBLE_EQ(spec.fleet.migration_downtime_s, 0.25);
  EXPECT_DOUBLE_EQ(spec.fleet.migration_energy_j, 40.0);
  EXPECT_DOUBLE_EQ(spec.fleet.consolidate_below, 0.5);
  EXPECT_FALSE(spec.fleet.power_gating);
  EXPECT_EQ(spec.fleet.sleep_after_windows, 4);
  EXPECT_DOUBLE_EQ(spec.node.p_sleep_w, 5.0);
  EXPECT_DOUBLE_EQ(spec.node.wake_latency_s, 2.0);
  EXPECT_NO_THROW(spec.validate());

  // Lossless round trip through the serialized form.
  ScenarioSpec reparsed;
  reparsed.apply(Config::from_string(spec.to_text()));
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
}

TEST(FleetSpec, ValidationNamesTheOffendingField) {
  const auto rejects = [](const std::string& overrides) {
    ScenarioSpec spec;
    spec.apply(Config::from_string(overrides));
    EXPECT_THROW(spec.validate(), std::invalid_argument) << overrides;
  };
  rejects("fleet.policy=round-robin");
  // A negative count never reaches validate(): apply() rejects it.
  EXPECT_THROW(ScenarioSpec{}.apply(Config::from_string("fleet.horizon=-1")),
               std::invalid_argument);
  rejects("fleet.arrival_rate=-0.5");
  rejects("fleet.mean_holding=0");
  rejects("fleet.flows_per_chain=0");
  rejects("fleet.chain_gbps=0");
  rejects("fleet.migration_downtime_s=-1");
  rejects("fleet.consolidate_below=1.5");
  rejects("fleet.sleep_after=0");
  rejects("node_p_sleep_w=-1");
  rejects("fleet.enabled=1 node_p_sleep_w=100");  // above p_idle_w
  rejects("node_wake_latency_s=-1");
}

TEST(FleetSpec, SleepAboveIdleOnlyBindsFleetRuns) {
  // A pre-fleet scenario with a tiny idle draw (below the new 8 W sleep
  // default it never asked for) must stay valid — the cross-field check
  // binds only when the orchestrator actually gates nodes.
  ScenarioSpec spec;
  spec.apply(Config::from_string("node_p_idle_w=5"));
  EXPECT_NO_THROW(spec.validate());
  spec.fleet.enabled = true;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FleetSpec, MistypedFleetKeysAreAHardError) {
  // The fleet.* vocabulary is enumerated in known_keys, so check_known
  // (the machinery every scenario-driven CLI runs) rejects typos.
  const Config config = Config::from_string("fleet.polcy=consolidate");
  EXPECT_THROW(config.check_known(ScenarioSpec::known_keys(),
                                  ScenarioSpec::known_prefixes()),
               std::invalid_argument);
  const std::string path = "/tmp/gnfv_fleet_typo.scenario";
  std::ofstream out(path);
  out << "fleet.arival_rate=1\n";
  out.close();
  EXPECT_THROW((void)ScenarioSpec::load(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(TopologySpec, KeysApplySerializeAndRoundTrip) {
  ScenarioSpec spec;
  spec.apply(Config::from_string(
      "fleet.enabled=1 topology.enabled=1 topology.preset=fat-tree"
      " topology.routing=widest topology.hosts_per_leaf=6 topology.spines=3"
      " topology.fat_k=6 topology.link_gbps=25 topology.link_latency_us=2.5"
      " topology.core_gbps=50 topology.core_latency_us=8"
      " topology.link_idle_w=1.5 topology.link_nj_per_bit=0.25"
      " sla.latency=40"));
  EXPECT_TRUE(spec.topology.enabled);
  EXPECT_EQ(spec.topology.preset, "fat-tree");
  EXPECT_EQ(spec.topology.routing, "widest");
  EXPECT_EQ(spec.topology.hosts_per_leaf, 6);
  EXPECT_EQ(spec.topology.spines, 3);
  EXPECT_EQ(spec.topology.fat_k, 6);
  EXPECT_DOUBLE_EQ(spec.topology.link_gbps, 25.0);
  EXPECT_DOUBLE_EQ(spec.topology.link_latency_us, 2.5);
  EXPECT_DOUBLE_EQ(spec.topology.core_gbps, 50.0);
  EXPECT_DOUBLE_EQ(spec.topology.core_latency_us, 8.0);
  EXPECT_DOUBLE_EQ(spec.topology.link_idle_w, 1.5);
  EXPECT_DOUBLE_EQ(spec.topology.link_nj_per_bit, 0.25);
  EXPECT_DOUBLE_EQ(spec.latency_sla_us, 40.0);
  EXPECT_NO_THROW(spec.validate());

  ScenarioSpec reparsed;
  reparsed.apply(Config::from_string(spec.to_text()));
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
}

TEST(TopologySpec, ValidationNamesTheOffendingField) {
  const auto rejects = [](const std::string& overrides) {
    ScenarioSpec spec;
    spec.apply(Config::from_string(overrides));
    EXPECT_THROW(spec.validate(), std::invalid_argument) << overrides;
  };
  rejects("topology.preset=torus");
  rejects("topology.routing=ecmp");
  rejects("fleet.enabled=1 topology.enabled=1 topology.link_gbps=0");
  rejects("fleet.enabled=1 topology.enabled=1 topology.hosts_per_leaf=0");
  rejects("fleet.enabled=1 topology.enabled=1 topology.fat_k=3");
  rejects("fleet.enabled=1 topology.enabled=1 topology.link_idle_w=-1");
  rejects("fleet.enabled=1 topology.enabled=1 topology.link_latency_us=-1");
  // The fabric needs the dynamic fleet; a latency SLA needs the fabric.
  rejects("topology.enabled=1");
  rejects("fleet.enabled=1 sla.latency=40");
  rejects("fleet.enabled=1 topology.enabled=1 sla.latency=-5");
}

TEST(TopologySpec, MistypedTopologyKeysAreAHardError) {
  for (const char* typo :
       {"topology.enbled=1", "topology.presets=leaf-spine",
        "topology.link_gb=40", "sla.latancy=40"}) {
    const Config config = Config::from_string(typo);
    EXPECT_THROW(config.check_known(ScenarioSpec::known_keys(),
                                    ScenarioSpec::known_prefixes()),
                 std::invalid_argument)
        << typo;
  }
}

TEST(FleetSpec, ClusterChainFloorIsRelaxedForDynamicFleets) {
  // Static cluster runs need a chain per node; a dynamic fleet may start
  // smaller and fill up through arrivals.
  ScenarioSpec spec;
  spec.num_nodes = 4;
  spec.num_chains = 2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.fleet.enabled = true;
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace greennfv::scenario
