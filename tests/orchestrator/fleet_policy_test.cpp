#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "orchestrator/fleet_index.hpp"
#include "orchestrator/policy.hpp"
#include "scenario/scenario_spec.hpp"

/// Placement-policy registry contract: each policy's choice on hand-built
/// fleet states, the consolidating policy's drain-or-nothing migration
/// plans, and registry name resolution against the scenario layer's
/// policy list (the one campaign expansion validates fleet.policy with).

namespace greennfv::orchestrator {
namespace {

/// A fleet of equal-capacity nodes; `loads[n]` lists the cores of each
/// chain node n hosts (chain ids count up from 0, node by node), and the
/// nodes in `asleep` (which must host nothing) are power-gated.
std::unique_ptr<FleetIndex> fleet(
    double capacity, const std::vector<std::vector<double>>& loads,
    const std::vector<int>& asleep = {}) {
  auto index =
      std::make_unique<FleetIndex>(static_cast<int>(loads.size()), capacity);
  int id = 0;
  for (std::size_t n = 0; n < loads.size(); ++n)
    for (const double cores : loads[n])
      index->place_chain(id++, static_cast<int>(n), cores);
  for (const int n : asleep) index->sleep(n);
  return index;
}

TEST(FleetPolicy, FirstFitPicksLowestIndexWithRoom) {
  const auto index = fleet(4.0, {{3.0}, {}, {}});
  const auto policy = make_fleet_policy("first-fit");
  EXPECT_EQ(policy->choose(*index, 3.0), 1);  // node 0 is full for 3 cores
  EXPECT_EQ(policy->choose(*index, 1.0), 0);  // but still takes 1 core
  EXPECT_EQ(policy->choose(*index, 5.0), -1);  // nothing fits 5 cores
}

TEST(FleetPolicy, LeastLoadedSpreadsByUtilization) {
  const auto policy = make_fleet_policy("least-loaded");
  EXPECT_EQ(policy->choose(*fleet(8.0, {{4.0}, {2.0}, {6.0}}), 2.0), 1);
  // Nodes without room are excluded even when emptiest-looking.
  EXPECT_EQ(policy->choose(*fleet(8.0, {{4.0}, {7.0}, {6.0}}), 2.0), 0);
}

TEST(FleetPolicy, EnergyBestFitPacksTightAndAvoidsWaking) {
  const auto index = fleet(8.0, {{2.0}, {5.0}, {}}, {2});
  const auto policy = make_fleet_policy("energy-bestfit");
  // Tightest fit: node 1 has 3 free vs node 0's 6 free.
  EXPECT_EQ(policy->choose(*index, 3.0), 1);
  // The sleeping empty node is never preferred while an awake node fits.
  EXPECT_EQ(policy->choose(*index, 6.0), 0);
  // ...but is woken when nothing awake has room.
  EXPECT_EQ(policy->choose(*index, 7.0), 2);
  index->wake(2);
  EXPECT_EQ(policy->choose(*index, 7.0), 2);
}

TEST(FleetPolicy, ConsolidateDrainsTheUnderutilizedNode) {
  const auto index = fleet(10.0, {{5.0, 3.0}, {2.0}, {}});
  const auto policy = make_fleet_policy("consolidate");
  // Node 1 sits at 20% < 35%; its single chain fits on node 0.
  const auto plan = policy->consolidate(*index, 0.35);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].chain, 2);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[0].to, 0);
}

TEST(FleetPolicy, ConsolidateIsDrainOrNothing) {
  const auto policy = make_fleet_policy("consolidate");
  // Node 1 is underutilized but only one of its two chains would fit on
  // node 0 — a partial move saves nothing, so nothing moves.
  EXPECT_TRUE(
      policy->consolidate(*fleet(10.0, {{9.0}, {2.0, 1.0}}), 0.35).empty());
  // Make room and the whole node drains.
  const auto plan =
      policy->consolidate(*fleet(10.0, {{6.0}, {2.0, 1.0}}), 0.35);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].from, 1);
  EXPECT_EQ(plan[1].from, 1);
}

TEST(FleetPolicy, ConsolidateNeverWakesOrTargetsEmptyNodes) {
  const auto index = fleet(10.0, {{1.0}, {}, {}}, {2});
  const auto policy = make_fleet_policy("consolidate");
  // The only donor's chain has nowhere occupied to go: no plan — in
  // particular not onto the idle node 1 or the sleeping node 2.
  EXPECT_TRUE(policy->consolidate(*index, 0.5).empty());
}

TEST(FleetPolicy, NonConsolidatingPoliciesNeverMigrate) {
  const auto index = fleet(10.0, {{8.0}, {1.0}});
  for (const char* name : {"first-fit", "least-loaded", "energy-bestfit"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(make_fleet_policy(name)->consolidate(*index, 0.9).empty());
  }
}

TEST(FleetPolicy, RegistryResolvesEveryNameAndRejectsTypos) {
  for (const std::string& name : scenario::FleetSpec::policy_names()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(make_fleet_policy(name)->name(), name);
  }
  EXPECT_THROW((void)make_fleet_policy("best-fit"), std::invalid_argument);
  EXPECT_THROW((void)make_fleet_policy(""), std::invalid_argument);
}

}  // namespace
}  // namespace greennfv::orchestrator
