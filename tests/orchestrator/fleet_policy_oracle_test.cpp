#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "orchestrator/fleet_index.hpp"
#include "orchestrator/policy.hpp"
#include "scenario/scenario_spec.hpp"
#include "tests/orchestrator/oracle/reference_policy.hpp"
#include "tests/orchestrator/oracle/scan_adapter.hpp"
#include "topology/path_table.hpp"
#include "topology/topology.hpp"

/// Property suite: every indexed registry policy makes exactly the
/// decision its linear-scan oracle twin makes, on random fleet states.
/// Each state comes from a random walk of the engine's own FleetIndex
/// mutations — placements onto mixed core levels, departures,
/// migrations (leaving hosted lists unsorted), power gating and wakes,
/// crashes and repairs — and every policy is then asked for arrivals of
/// every width, for consolidation plans at several thresholds, and for
/// routed arrivals with and without a live PathTable. A flipped
/// tie-break (min id vs max id in the bestfit bucket query, in the
/// routed argmin, or among consolidation's overlaid receivers) shows up
/// as a disagreement.

namespace greennfv::orchestrator {
namespace {

using Rng = std::mt19937_64;

int uniform(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Fits test of the engine's policies (one-core granularity, 1e-9 slack).
bool fits(const FleetIndex& index, int node, double cores) {
  return index.committed_cores(node) + cores <=
         index.capacity_cores() + 1e-9;
}

/// Builds a random fleet state by replaying `steps` random engine
/// mutations; `live` receives the ids of the chains still placed.
std::unique_ptr<FleetIndex> random_fleet(Rng& rng, int steps,
                                         std::vector<int>& live) {
  static constexpr double kCapacities[] = {3.0, 4.0, 6.0, 7.5, 10.0};
  const int num_nodes = uniform(rng, 1, 14);
  const double capacity = kCapacities[uniform(rng, 0, 4)];
  auto index = std::make_unique<FleetIndex>(num_nodes, capacity);
  live.clear();
  int next_id = 0;
  const auto evict = [&](int chain) {
    index->remove_chain(chain);
    live.erase(std::find(live.begin(), live.end(), chain));
  };
  for (int step = 0; step < steps; ++step) {
    const int node = uniform(rng, 0, num_nodes - 1);
    switch (uniform(rng, 0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // arrival (waking the node first, as the engine does)
        const double cores = uniform(rng, 1, 3);
        if (index->down(node) || !fits(*index, node, cores)) break;
        if (index->asleep(node)) index->wake(node);
        index->place_chain(next_id, node, cores);
        live.push_back(next_id++);
        break;
      }
      case 4:
      case 5: {  // departure
        if (live.empty()) break;
        evict(live[static_cast<std::size_t>(
            uniform(rng, 0, static_cast<int>(live.size()) - 1))]);
        break;
      }
      case 6: {  // migration onto an awake node
        if (live.empty()) break;
        const int chain = live[static_cast<std::size_t>(
            uniform(rng, 0, static_cast<int>(live.size()) - 1))];
        if (index->chain_node(chain) == node || index->down(node) ||
            index->asleep(node) ||
            !fits(*index, node, index->chain_cores(chain)))
          break;
        index->move_chain(chain, node);
        if (uniform(rng, 0, 1) == 0) index->sort_hosted(node);
        break;
      }
      case 7: {  // power gating of an idle node
        if (!index->down(node) && !index->asleep(node) &&
            index->hosted(node).empty())
          index->sleep(node);
        break;
      }
      case 8: {  // crash: evict everything, then take the node down
        if (index->down(node)) break;
        const std::vector<int> victims = index->hosted(node);
        for (const int chain : victims) evict(chain);
        index->crash(node);
        break;
      }
      case 9: {  // repair
        if (index->down(node)) index->repair(node);
        break;
      }
    }
  }
  return index;
}

/// A leaf-spine fabric over the fleet's hosts with thin links, loaded by
/// committing a random subset of the live chains (and sometimes failing
/// a link) so paths differ in hops, headroom and feasibility.
struct Fabric {
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<topology::PathTable> net;
};

Fabric random_fabric(Rng& rng, const FleetIndex& index,
                     const std::vector<int>& live) {
  topology::TopologySpec spec;
  spec.enabled = true;
  spec.preset = "leaf-spine";
  spec.hosts_per_leaf = uniform(rng, 1, 4);
  spec.link_gbps = 10.0;
  spec.core_gbps = 16.0;
  Fabric fabric;
  fabric.topo = std::make_unique<topology::Topology>(
      topology::Topology::build(spec, index.num_nodes()));
  fabric.net = std::make_unique<topology::PathTable>(
      *fabric.topo,
      uniform(rng, 0, 1) == 0 ? topology::Routing::kShortest
                              : topology::Routing::kWidest,
      0);
  for (const int chain : live) {
    if (uniform(rng, 0, 2) == 0) continue;
    (void)fabric.net->commit_chain(chain, index.chain_node(chain),
                                   0.5 * uniform(rng, 1, 12));
  }
  if (uniform(rng, 0, 3) == 0)
    (void)fabric.net->fail_link(
        uniform(rng, 0, fabric.topo->num_links() - 1));
  return fabric;
}

std::string plan_text(const std::vector<Migration>& plan) {
  std::ostringstream out;
  for (const Migration& m : plan)
    out << m.chain << ':' << m.from << "->" << m.to << ' ';
  return out.str();
}

/// Tallies of what the random states exercised, so the suite cannot pass
/// vacuously.
struct Coverage {
  int states_with_asleep = 0;
  int states_with_down = 0;
  int asleep_choices = 0;
  int nonempty_plans = 0;
  int routed_choices = 0;
  int routed_rejections = 0;
};

/// First decision on which `name`'s indexed policy and its scan oracle
/// disagree on this state, or "" when they agree on all of them.
std::string first_disagreement(const std::string& name,
                               const FleetIndex& index,
                               const topology::PathTable* net,
                               Coverage& coverage) {
  const auto indexed = make_fleet_policy(name);
  const auto scan = oracle::make_reference_policy(name);
  const oracle::FleetView view = oracle::view_of(index);
  std::ostringstream why;
  const int max_cores = static_cast<int>(index.capacity_cores()) + 1;
  for (int cores = 1; cores <= max_cores; ++cores) {
    const int got = indexed->choose(index, cores);
    const int want = scan->choose(view, cores);
    if (got != want) {
      why << "choose(" << cores << "): indexed " << got << ", scan " << want;
      return why.str();
    }
    if (got >= 0 && index.asleep(got)) ++coverage.asleep_choices;
  }
  for (const double below : {0.25, 0.5, 0.75, 1.01}) {
    const std::string got = plan_text(indexed->consolidate(index, below));
    const std::string want = plan_text(scan->consolidate(view, below));
    if (got != want) {
      why << "consolidate(" << below << "): indexed [" << got << "], scan ["
          << want << "]";
      return why.str();
    }
    if (!got.empty()) ++coverage.nonempty_plans;
  }
  for (int cores = 1; cores <= max_cores; ++cores) {
    for (const double gbps : {0.5, 3.0, 9.5}) {
      const ArrivalRequest request{static_cast<double>(cores), gbps};
      const topology::PathTable* const tables[] = {net, nullptr};
      for (const topology::PathTable* table : tables) {
        const int got = indexed->choose_arrival(index, request, table);
        const int want = scan->choose_arrival(view, request, table);
        if (got != want) {
          why << "choose_arrival(" << cores << " cores, " << gbps
              << " Gbps, " << (table != nullptr ? "routed" : "no network")
              << "): indexed " << got << ", scan " << want;
          return why.str();
        }
        if (table != nullptr)
          ++(got >= 0 ? coverage.routed_choices : coverage.routed_rejections);
      }
    }
  }
  return "";
}

TEST(FleetPolicyOracle, IndexedPoliciesAgreeWithTheirScansOnRandomFleets) {
  Coverage coverage;
  for (std::uint64_t trial = 0; trial < 4000; ++trial) {
    Rng rng(0xF1EE7ull * 1000 + trial);
    std::vector<int> live;
    const auto index = random_fleet(rng, uniform(rng, 0, 80), live);
    const Fabric fabric = random_fabric(rng, *index, live);
    bool any_asleep = false;
    bool any_down = false;
    for (int n = 0; n < index->num_nodes(); ++n) {
      any_asleep = any_asleep || index->asleep(n);
      any_down = any_down || index->down(n);
    }
    coverage.states_with_asleep += any_asleep ? 1 : 0;
    coverage.states_with_down += any_down ? 1 : 0;
    for (const std::string& name : scenario::FleetSpec::policy_names()) {
      EXPECT_EQ(first_disagreement(name, *index, fabric.net.get(), coverage),
                "")
          << "policy " << name << ", trial " << trial << " ("
          << index->num_nodes() << " nodes at capacity "
          << index->capacity_cores() << ")";
    }
  }
  // The walk must reach the states the tie-breaks and masks are about.
  // (4000 trials reach each of these well over a thousand times.)
  EXPECT_GT(coverage.states_with_asleep, 400);
  EXPECT_GT(coverage.states_with_down, 400);
  EXPECT_GT(coverage.asleep_choices, 400);
  EXPECT_GT(coverage.nonempty_plans, 400);
  EXPECT_GT(coverage.routed_choices, 400);
  EXPECT_GT(coverage.routed_rejections, 400);
}

}  // namespace
}  // namespace greennfv::orchestrator
