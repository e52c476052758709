#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "nfvsim/chain.hpp"

namespace greennfv::cluster {
namespace {

// --- placement ---------------------------------------------------------------

std::vector<ChainDemand> demands() {
  return {{"a", 3.0, 4.0}, {"b", 2.0, 3.0}, {"c", 2.0, 3.0},
          {"d", 1.0, 1.0}};
}

TEST(Placement, FirstFitPacksTight) {
  const std::vector<NodeCapacity> nodes = {{4.0}, {4.0}, {4.0}};
  const Placement p = place_chains(demands(), nodes,
                                   PlacementPolicy::kFirstFitDecreasing);
  // FFD: 3 -> node0; 2 -> node1; 2 -> node1 (fits 4); 1 -> node0.
  EXPECT_EQ(p.node_of(0), 0);
  EXPECT_EQ(p.node_of(1), 1);
  EXPECT_EQ(p.node_of(2), 1);
  EXPECT_EQ(p.node_of(3), 0);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 4.0);
  EXPECT_DOUBLE_EQ(p.node_cores[1], 4.0);
  EXPECT_DOUBLE_EQ(p.node_cores[2], 0.0);
}

TEST(Placement, LeastLoadedSpreads) {
  const std::vector<NodeCapacity> nodes = {{8.0}, {8.0}, {8.0}};
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kLeastLoaded);
  // Every node receives work.
  for (const double cores : p.node_cores) EXPECT_GT(cores, 0.0);
  EXPECT_LT(imbalance(p), 1.5);
}

TEST(Placement, BalanceBeatsPackingOnImbalance) {
  const std::vector<NodeCapacity> nodes = {{16.0}, {16.0}, {16.0}};
  const Placement packed = place_chains(
      demands(), nodes, PlacementPolicy::kFirstFitDecreasing);
  const Placement spread =
      place_chains(demands(), nodes, PlacementPolicy::kLeastLoaded);
  EXPECT_LE(imbalance(spread), imbalance(packed) + 1e-9);
}

TEST(Placement, ThrowsWhenNothingFits) {
  const std::vector<NodeCapacity> nodes = {{2.0}};
  EXPECT_THROW(place_chains(demands(), nodes,
                            PlacementPolicy::kFirstFitDecreasing),
               std::invalid_argument);
}

TEST(Placement, EnergyBestFitConcentratesLoad) {
  const std::vector<NodeCapacity> nodes = {{8.0}, {8.0}, {8.0}};
  // 3+2+2+1 = 8 cores: best-fit packs everything onto one node and the
  // other two stay empty (free to idle or sleep).
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kEnergyBestFit);
  int used = 0;
  for (const double cores : p.node_cores)
    if (cores > 0.0) ++used;
  EXPECT_EQ(used, 1);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 8.0);
}

TEST(Placement, EnergyBestFitPrefersTheTightestSlot) {
  // Heaviest-first: a(3) -> node1 (slack 2 beats 3 and 5), b(2) fills
  // node1 exactly (slack 0), c(2) and d(1) land on node0 — node2, the
  // roomiest, never hosts anything.
  const std::vector<NodeCapacity> nodes = {{6.0}, {5.0}, {8.0}};
  const Placement p =
      place_chains(demands(), nodes, PlacementPolicy::kEnergyBestFit);
  EXPECT_EQ(p.node_of(0), 1);
  EXPECT_EQ(p.node_of(1), 1);
  EXPECT_DOUBLE_EQ(p.node_cores[1], 5.0);
  EXPECT_DOUBLE_EQ(p.node_cores[0], 3.0);
  EXPECT_DOUBLE_EQ(p.node_cores[2], 0.0);
}

// --- the place_chains edge-case contract ------------------------------------

TEST(Placement, ChainLargerThanEveryNodeIsAClearError) {
  const std::vector<ChainDemand> big = {{"giant", 20.0, 5.0}};
  const std::vector<NodeCapacity> nodes = {{14.0}, {14.0}, {14.0}};
  for (const auto policy :
       {PlacementPolicy::kFirstFitDecreasing, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kEnergyBestFit}) {
    SCOPED_TRACE(to_string(policy));
    try {
      (void)place_chains(big, nodes, policy);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("giant"), std::string::npos);
    }
  }
}

TEST(Placement, ZeroCapacityNodeInRosterIsAClearError) {
  // A zero-capacity roster entry used to feed 0/0 into the load ratio —
  // now it is rejected up front, naming the node.
  const std::vector<NodeCapacity> nodes = {{8.0}, {0.0}, {8.0}};
  for (const auto policy :
       {PlacementPolicy::kFirstFitDecreasing, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kEnergyBestFit}) {
    SCOPED_TRACE(to_string(policy));
    try {
      (void)place_chains(demands(), nodes, policy);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    }
  }
  const std::vector<NodeCapacity> negative = {{8.0}, {-2.0}};
  EXPECT_THROW(
      place_chains(demands(), negative, PlacementPolicy::kLeastLoaded),
      std::invalid_argument);
}

TEST(Placement, EmptyFleetIsAClearError) {
  try {
    (void)place_chains(demands(), {}, PlacementPolicy::kLeastLoaded);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty fleet"), std::string::npos);
  }
}

TEST(Placement, ValidatesInputs) {
  EXPECT_THROW(place_chains({}, {{4.0}},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
  EXPECT_THROW(place_chains(demands(), {},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
  std::vector<ChainDemand> bad = {{"x", 0.0, 1.0}};
  EXPECT_THROW(place_chains(bad, {{4.0}},
                            PlacementPolicy::kLeastLoaded),
               std::invalid_argument);
}

TEST(Placement, PolicyNames) {
  EXPECT_EQ(to_string(PlacementPolicy::kFirstFitDecreasing),
            "first-fit-decreasing");
  EXPECT_EQ(to_string(PlacementPolicy::kLeastLoaded), "least-loaded");
  EXPECT_EQ(to_string(PlacementPolicy::kEnergyBestFit), "energy-bestfit");
}

// --- cluster ------------------------------------------------------------------

traffic::FlowSpec flow_for_chain(int chain, double mpps) {
  traffic::FlowSpec flow;
  flow.pkt_bytes = 512;
  flow.mean_rate_pps = mpps * 1e6;
  flow.chain_index = chain;
  return flow;
}

TEST(Cluster, ThreeNodeDeploymentAggregates) {
  // The paper's shape: three hosting nodes, one 3-NF chain each.
  Cluster cluster(3, hwmodel::NodeSpec{});
  for (int n = 0; n < 3; ++n) {
    const auto deployed = cluster.deploy_chain(
        "chain" + std::to_string(n), nfvsim::standard_chain_nfs(n), n);
    EXPECT_EQ(deployed.node, n);
    EXPECT_EQ(deployed.chain, 0);
  }
  cluster.attach_traffic({{flow_for_chain(0, 0.5)},
                          {flow_for_chain(0, 0.5)},
                          {flow_for_chain(0, 0.5)}},
                         7);
  nfvsim::ChainKnobs knobs;
  knobs.cores = 2.0;
  knobs.batch = 64;
  knobs.dma_bytes = 8ull << 20;
  cluster.apply_knobs_everywhere(knobs);

  const ClusterMetrics metrics = cluster.run(4, 1.0);
  EXPECT_EQ(metrics.node_gbps.size(), 3u);
  // Fleet totals are the sum of per-node numbers.
  double gbps = 0.0;
  double watts = 0.0;
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_GT(metrics.node_gbps[n], 0.0);
    gbps += metrics.node_gbps[n];
    watts += metrics.node_power_w[n];
  }
  EXPECT_NEAR(metrics.total_gbps, gbps, 1e-9);
  EXPECT_NEAR(metrics.total_power_w, watts, 1e-9);
  // Energy = sum over nodes of power * time.
  EXPECT_NEAR(metrics.total_energy_j, metrics.total_power_w * 4.0,
              metrics.total_power_w * 4.0 * 0.2);
  // Fleet floor: at least 3x idle power.
  EXPECT_GT(metrics.total_power_w, 3 * hwmodel::NodeSpec{}.p_idle_w);
}

TEST(Cluster, IdenticalNodesBehaveIdentically) {
  Cluster cluster(2, hwmodel::NodeSpec{});
  for (int n = 0; n < 2; ++n)
    (void)cluster.deploy_chain("c", {"firewall", "router"}, n);
  cluster.attach_traffic(
      {{flow_for_chain(0, 0.3)}, {flow_for_chain(0, 0.3)}}, 9);
  // Same seed-derived phases differ, but CBR flows are deterministic:
  const ClusterMetrics metrics = cluster.run(3, 1.0);
  EXPECT_NEAR(metrics.node_gbps[0], metrics.node_gbps[1], 1e-9);
}

TEST(Cluster, GuardsAgainstMisuse) {
  Cluster cluster(1, hwmodel::NodeSpec{});
  EXPECT_DEATH((void)cluster.step(1.0), "attach_traffic first");
  (void)cluster.deploy_chain("c", {"firewall"}, 0);
  EXPECT_DEATH(cluster.attach_traffic({}, 1), "one flow set per node");
}

}  // namespace
}  // namespace greennfv::cluster
