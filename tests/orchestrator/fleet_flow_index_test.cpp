#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet.hpp"
#include "orchestrator/timeline_io.hpp"
#include "scenario/presets.hpp"

/// Property suite for ChainFlowIndex, the flow gather behind every
/// FleetOrchestrator::run_model rebuild: for any node membership,
/// scenario::partition_node_env over the gathered subset must equal
/// partition_node_env over the whole flow pool — flows, ids, local chain
/// indices and total_offered_gbps, to the bit.

namespace greennfv::orchestrator {
namespace {

/// Canonical text of a node EnvConfig; every double as %.17g plus bits.
std::string env_text(const core::EnvConfig& env) {
  std::string out = format("chains=%d flows=%d total_gbps=%s\n",
                           env.num_chains, env.num_flows,
                           double_bits(env.total_offered_gbps).c_str());
  for (const auto& nfs : env.chain_nfs) {
    for (const std::string& nf : nfs) out += nf + " ";
    out += "\n";
  }
  for (const traffic::FlowSpec& f : env.flows) {
    out += format("id=%d chain=%d proto=%d arrival=%d pps=%s bytes=%u"
                  " peak=%s dwell=%s\n",
                  f.id, f.chain_index, static_cast<int>(f.proto),
                  static_cast<int>(f.arrival),
                  double_bits(f.mean_rate_pps).c_str(), f.pkt_bytes,
                  double_bits(f.peak_to_mean).c_str(),
                  double_bits(f.dwell_s).c_str());
  }
  return out;
}

class FlowIndexHarness {
 public:
  explicit FlowIndexHarness(const scenario::ScenarioSpec& spec)
      : fleet_(spec), index_(fleet_.timeline()) {
    const FleetTimeline& timeline = fleet_.timeline();
    for (const ChainInstance& chain : timeline.chains)
      comps_.push_back(chain.nfs);
    std::vector<bool> pooled(timeline.chains.size(), false);
    for (const traffic::FlowSpec& flow : timeline.flows)
      pooled[static_cast<std::size_t>(flow.chain_index)] = true;
    for (std::size_t c = 0; c < pooled.size(); ++c)
      if (pooled[c]) pooled_chains_.push_back(static_cast<int>(c));
  }

  /// Partitions `members` both ways and returns {full-scan, gathered}.
  std::pair<std::string, std::string> both(const std::vector<int>& members,
                                           int node) {
    const scenario::ScenarioSpec& spec = fleet_.spec();
    const FleetTimeline& timeline = fleet_.timeline();
    index_.gather(timeline, members, gathered_);
    return {env_text(scenario::partition_node_env(spec, comps_,
                                                  timeline.flows, members,
                                                  node)),
            env_text(scenario::partition_node_env(spec, comps_, gathered_,
                                                  members, node))};
  }

  /// `k` distinct chains with pooled flows, sorted like a membership.
  std::vector<int> random_members(Rng& rng, std::size_t k) {
    std::vector<int> members;
    k = std::min(k, pooled_chains_.size());
    while (members.size() < k) {
      const int c = pooled_chains_[rng.uniform_u64(pooled_chains_.size())];
      if (std::find(members.begin(), members.end(), c) == members.end())
        members.push_back(c);
    }
    std::sort(members.begin(), members.end());
    return members;
  }

  /// Every non-empty membership a run_model replay rebuilds for; returns
  /// how many were checked.
  int check_replayed_memberships() {
    const FleetTimeline& timeline = fleet_.timeline();
    MembershipReplay replay(timeline, timeline.num_nodes);
    int checked = 0;
    for (std::size_t w = 0; w < timeline.windows.size(); ++w) {
      for (const int n : replay.advance()) {
        const std::vector<int>& members = replay.members(n);
        if (members.empty()) continue;
        const auto [full, gathered] = both(members, n);
        EXPECT_EQ(full, gathered) << "window " << w << " node " << n;
        ++checked;
      }
    }
    return checked;
  }

  [[nodiscard]] const FleetTimeline& timeline() const {
    return fleet_.timeline();
  }

 private:
  FleetOrchestrator fleet_;
  ChainFlowIndex index_;
  std::vector<std::vector<std::string>> comps_;
  std::vector<int> pooled_chains_;
  std::vector<traffic::FlowSpec> gathered_;
};

scenario::ScenarioSpec churning_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = 17;
  spec.num_nodes = 40;
  spec.num_chains = 12;
  spec.num_flows = 30;
  spec.total_offered_gbps = 24.0;
  spec.fleet.arrival_rate = 12.0;
  spec.fleet.horizon_windows = 25;
  spec.fleet.mean_holding_windows = 6.0;
  return spec;
}

scenario::ScenarioSpec static_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fleet-smoke");
  spec.seed = 23;
  spec.num_nodes = 4;
  spec.num_chains = 9;
  spec.num_flows = 27;
  spec.total_offered_gbps = 18.0;
  spec.fleet.arrival_rate = 0.0;
  spec.fleet.horizon_windows = 4;
  return spec;
}

/// True when some chain's pool positions are not contiguous — the shape
/// in which per-chain concatenation differs from pool order.
bool pool_interleaves(const FleetTimeline& timeline) {
  std::vector<int> seen;
  int previous = -1;
  for (const traffic::FlowSpec& flow : timeline.flows) {
    if (flow.chain_index == previous) continue;
    if (std::find(seen.begin(), seen.end(), flow.chain_index) != seen.end())
      return true;
    seen.push_back(flow.chain_index);
    previous = flow.chain_index;
  }
  return false;
}

TEST(FleetFlowIndex, RandomMembershipsOfAChurningFleetPartitionIdentically) {
  FlowIndexHarness harness(churning_spec());
  ASSERT_GT(harness.timeline().arrivals, 100);
  ASSERT_GT(harness.timeline().flows.size(), 300u);
  // The initial chain set comes from the interleaved static generator, so
  // this suite covers the gather's sort too.
  ASSERT_TRUE(pool_interleaves(harness.timeline()));
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<int> members =
        harness.random_members(rng, 1 + rng.uniform_u64(8));
    const auto [full, gathered] = harness.both(members, trial % 40);
    ASSERT_EQ(full, gathered) << "trial " << trial;
  }
}

TEST(FleetFlowIndex, ReplayedMembershipsOfAChurningFleetPartitionIdentically) {
  FlowIndexHarness harness(churning_spec());
  EXPECT_GT(harness.check_replayed_memberships(), 100);
}

TEST(FleetFlowIndex, StaticStartWithInterleavedFlowsPartitionsIdentically) {
  FlowIndexHarness harness(static_spec());
  // The initial chains' flows alternate in the pool (flow i serves chain
  // i % num_chains), so only a pool-ordered gather reproduces the scan.
  ASSERT_TRUE(pool_interleaves(harness.timeline()));
  EXPECT_GT(harness.check_replayed_memberships(), 0);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<int> members =
        harness.random_members(rng, 2 + rng.uniform_u64(5));
    const auto [full, gathered] = harness.both(members, trial % 4);
    ASSERT_EQ(full, gathered) << "trial " << trial;
  }
}

TEST(FleetFlowIndex, GatherOfNoChainsClearsTheOutput) {
  FlowIndexHarness harness(static_spec());
  ChainFlowIndex index(harness.timeline());
  std::vector<traffic::FlowSpec> out(3);
  index.gather(harness.timeline(), {}, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace greennfv::orchestrator
