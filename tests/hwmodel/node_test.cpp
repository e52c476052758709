#include "hwmodel/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"

namespace greennfv::hwmodel {
namespace {

ChainDeployment chain(double mpps, std::uint32_t pkt, double cores = 2.0,
                      double llc = 0.5) {
  static const std::vector<NfCostProfile> nfs = {
      nf_catalog::firewall(), nf_catalog::nat(), nf_catalog::router()};
  ChainDeployment dep;
  dep.set_nfs(nfs);
  dep.workload.offered_pps = mpps * 1e6;
  dep.workload.pkt_bytes = pkt;
  dep.cores = cores;
  dep.llc_fraction = llc;
  dep.batch = 64;
  dep.dma_bytes = 2 * units::kMiB;
  return dep;
}

/// Cache-hungry variant (7 MiB of NF state): the Fig.-1-style chain whose
/// behaviour actually depends on its LLC slice.
ChainDeployment heavy_chain(double mpps, std::uint32_t pkt, double cores,
                            double llc) {
  static const std::vector<NfCostProfile> nfs = {
      nf_catalog::ids(), nf_catalog::epc(), nf_catalog::router()};
  ChainDeployment dep = chain(mpps, pkt, cores, llc);
  dep.set_nfs(nfs);
  dep.dma_bytes = 16 * units::kMiB;
  return dep;
}

TEST(NodeModel, SingleChainBasics) {
  const NodeModel node;
  const auto eval = node.evaluate({chain(0.5, 512)});
  ASSERT_EQ(eval.chains.size(), 1u);
  EXPECT_GT(eval.total_goodput_gbps, 0.0);
  EXPECT_GT(eval.power_w, node.spec().p_idle_w);
  EXPECT_LE(eval.power_w, node.spec().p_max_w + 1e-9);
  EXPECT_GE(eval.utilization, 0.0);
  EXPECT_LE(eval.utilization, 1.0);
}

TEST(NodeModel, AggregateLineRateCapHolds) {
  const NodeModel node;
  // Three chains each offered ~6 Gbps of large frames: 18 Gbps offered
  // against a 10 Gbps NIC.
  const auto eval = node.evaluate({chain(0.5, 1518, 4.0, 0.33),
                                   chain(0.5, 1518, 4.0, 0.33),
                                   chain(0.5, 1518, 4.0, 0.33)});
  double wire = 0.0;
  for (const auto& c : eval.chains) wire += c.eval.wire_gbps;
  EXPECT_LE(wire, node.spec().line_rate_gbps + 1e-6);
  EXPECT_GT(eval.total_drop_pps, 0.0);
}

TEST(NodeModel, CatBeatsContentionWhenStarved) {
  const NodeModel node;
  // A hot cache-hungry chain plus two neighbours; CPU-bound regime.
  std::vector<ChainDeployment> chains = {
      heavy_chain(2.0, 256, 4.0, 0.8),
      chain(0.2, 1024, 1.0, 0.1),
      chain(0.2, 1024, 1.0, 0.1),
  };
  const auto with_cat = node.evaluate(chains, /*use_cat=*/true);
  const auto without = node.evaluate(chains, /*use_cat=*/false);
  EXPECT_LT(with_cat.chains[0].eval.miss_ratio,
            without.chains[0].eval.miss_ratio);
  EXPECT_LT(with_cat.chains[0].eval.cycles_per_pkt,
            without.chains[0].eval.cycles_per_pkt);
  EXPECT_GE(with_cat.chains[0].eval.service_pps,
            without.chains[0].eval.service_pps);
}

TEST(NodeModel, EnergyAttributionSumsToNodePower) {
  const NodeModel node;
  const auto eval = node.evaluate({chain(0.5, 512), chain(0.1, 1024)});
  double attributed = 0.0;
  for (const auto& c : eval.chains) attributed += c.power_w;
  // Per-chain power carries each chain's idle-core share (the manager's
  // share stays unattributed), so the sum is positive but below the node
  // total.
  EXPECT_LE(attributed, eval.power_w + 1e-6);
  EXPECT_GT(attributed, 0.0);
  // Both chains delivered packets, so both attributions are meaningful.
  for (const auto& c : eval.chains) EXPECT_GT(c.power_w, 0.0);
}

TEST(NodeModel, EnergyPerMpktFiniteWhenDelivering) {
  const NodeModel node;
  const auto eval = node.evaluate({chain(1.0, 512)});
  EXPECT_GT(eval.chains[0].energy_per_mpkt_j, 0.0);
  EXPECT_LT(eval.chains[0].energy_per_mpkt_j, 1e5);
}

TEST(NodeModel, PollModeCostsMoreThanHybridAtLowLoad) {
  const NodeModel node;
  auto idle_chain = chain(0.01, 512, 3.0);
  idle_chain.poll_mode = true;
  const auto poll = node.evaluate({idle_chain});
  idle_chain.poll_mode = false;
  const auto hybrid = node.evaluate({idle_chain});
  EXPECT_GT(poll.power_w, hybrid.power_w + 10.0);
  // Throughput identical: same knobs, same load.
  EXPECT_NEAR(poll.total_goodput_gbps, hybrid.total_goodput_gbps, 1e-9);
}

TEST(NodeModel, FrequencyLowersPowerAtFixedWork) {
  const NodeModel node;
  auto fast = chain(0.2, 512, 2.0);
  fast.freq_ghz = 2.1;
  fast.poll_mode = true;
  auto slow = fast;
  slow.freq_ghz = 1.2;
  const auto p_fast = node.evaluate({fast});
  const auto p_slow = node.evaluate({slow});
  EXPECT_LT(p_slow.power_w, p_fast.power_w);
}

TEST(NodeModel, EnergyForWindowScalesLinearly) {
  const NodeModel node;
  const auto eval = node.evaluate({chain(0.5, 512)});
  EXPECT_NEAR(eval.energy_j(10.0), eval.power_w * 10.0, 1e-9);
  EXPECT_NEAR(eval.energy_j(0.0), 0.0, 1e-12);
}

TEST(NodeModel, ManagerCoresAlwaysAccounted) {
  const NodeModel node;
  const auto eval = node.evaluate({chain(0.01, 512, 0.5)});
  // Allocated = chain cores + controller cores.
  EXPECT_NEAR(eval.allocated_cores, 0.5 + node.spec().controller_cores,
              1e-9);
}

TEST(NodeModel, RequiresAtLeastOneChain) {
  const NodeModel node;
  EXPECT_DEATH((void)node.evaluate({}), "no chains");
}

/// Bit-for-bit equality of two doubles (EXPECT_EQ would also pass -0 == 0).
void expect_same_bits(double a, double b, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << field << ": " << a << " vs " << b;
}

void expect_same_evaluation(const NodeEvaluation& a, const NodeEvaluation& b) {
  expect_same_bits(a.utilization, b.utilization, "utilization");
  expect_same_bits(a.allocated_cores, b.allocated_cores, "allocated_cores");
  expect_same_bits(a.power_w, b.power_w, "power_w");
  expect_same_bits(a.total_goodput_gbps, b.total_goodput_gbps, "goodput");
  expect_same_bits(a.total_offered_gbps, b.total_offered_gbps, "offered");
  expect_same_bits(a.total_goodput_pps, b.total_goodput_pps, "goodput_pps");
  expect_same_bits(a.total_drop_pps, b.total_drop_pps, "drop_pps");
  ASSERT_EQ(a.chains.size(), b.chains.size());
  for (std::size_t i = 0; i < a.chains.size(); ++i) {
    SCOPED_TRACE(i);
    const ChainReport& x = a.chains[i];
    const ChainReport& y = b.chains[i];
    EXPECT_EQ(x.llc_bytes, y.llc_bytes);
    expect_same_bits(x.power_w, y.power_w, "chain power_w");
    expect_same_bits(x.energy_per_mpkt_j, y.energy_per_mpkt_j, "J/Mpkt");
    const ChainEvaluation& e = x.eval;
    const ChainEvaluation& f = y.eval;
    expect_same_bits(e.cycles_per_pkt, f.cycles_per_pkt, "cycles_per_pkt");
    expect_same_bits(e.service_pps, f.service_pps, "service_pps");
    expect_same_bits(e.goodput_pps, f.goodput_pps, "goodput_pps");
    expect_same_bits(e.drop_pps, f.drop_pps, "drop_pps");
    expect_same_bits(e.throughput_gbps, f.throughput_gbps, "throughput");
    expect_same_bits(e.wire_gbps, f.wire_gbps, "wire_gbps");
    expect_same_bits(e.miss_ratio, f.miss_ratio, "miss_ratio");
    expect_same_bits(e.misses_per_pkt, f.misses_per_pkt, "misses_per_pkt");
    expect_same_bits(e.ddio_hit, f.ddio_hit, "ddio_hit");
    expect_same_bits(e.busy_cores, f.busy_cores, "busy_cores");
    expect_same_bits(e.capacity_utilization, f.capacity_utilization,
                     "capacity_utilization");
    EXPECT_EQ(e.working_set_bytes, f.working_set_bytes);
    expect_same_bits(e.mean_latency_us, f.mean_latency_us, "latency");
  }
}

TEST(NodeModel, EvaluateIntoAReusedResultMatchesAFreshOne) {
  const NodeModel node;
  // Four chains over the line rate (the NIC cap scales them) and two
  // light ones: every total and report of the first set must be gone.
  const std::vector<ChainDeployment> four = {
      heavy_chain(2.0, 256, 4.0, 0.5), chain(0.6, 1518, 3.0, 0.2),
      chain(0.6, 1518, 2.0, 0.2), heavy_chain(0.5, 64, 1.0, 0.1)};
  std::vector<ChainDeployment> two = {chain(0.05, 512, 1.0, 0.3),
                                      chain(0.1, 128, 0.5, 0.0)};
  two[1].poll_mode = true;
  for (const bool first_cat : {true, false}) {
    for (const bool second_cat : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "cat " << first_cat << " then "
                                        << second_cat);
      NodeEvaluation reused;
      node.evaluate(four, first_cat, reused);
      expect_same_evaluation(reused, node.evaluate(four, first_cat));
      node.evaluate(two, second_cat, reused);  // shrinks 4 -> 2
      expect_same_evaluation(reused, node.evaluate(two, second_cat));
      node.evaluate(four, second_cat, reused);  // grows back
      expect_same_evaluation(reused, node.evaluate(four, second_cat));
    }
  }
}

TEST(NodeModel, CatAllocationMatchesThePartitionedAllocator) {
  const NodeModel node;
  CatAllocator cat(node.spec());
  for (int n = 1; n <= cat.allocatable_ways(); ++n) {
    SCOPED_TRACE(n);
    std::vector<ChainDeployment> chains;
    std::vector<double> fractions;
    for (int i = 0; i < n; ++i) {
      // Descending, with one below the model's 1e-3 floor.
      const double llc = i == n - 1 && n > 1 ? 0.0 : 1.0 / (i + 1.0);
      chains.push_back(chain(0.01, 512, 0.5, llc));
      fractions.push_back(std::max(llc, 1e-3));
    }
    const auto eval = node.evaluate(chains, /*use_cat=*/true);
    (void)cat.partition(fractions);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(eval.chains[static_cast<std::size_t>(i)].llc_bytes,
                cat.bytes(i));
  }
  // More classes than ways is refused the same way, past the stack
  // scratch's width too.
  for (const int n : {cat.allocatable_ways() + 1, CatAllocator::kMaxWays + 1}) {
    const std::vector<ChainDeployment> crowd(static_cast<std::size_t>(n),
                                             chain(0.01, 512, 0.5));
    EXPECT_THROW((void)node.evaluate(crowd, true), std::invalid_argument);
    EXPECT_NO_THROW((void)node.evaluate(crowd, false));
  }
}

class LlcPartitionSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LlcPartitionSweep, HotChainPrefersBiggerSlice) {
  const NodeModel node;
  const auto [hot_fraction, cold_fraction] = GetParam();
  // C1-style hot cache-hungry chain and C2-style cold chain (Fig. 1).
  std::vector<ChainDeployment> chains = {
      heavy_chain(5.0, 64, 6.0, hot_fraction),
      chain(1.0, 128, 1.0, cold_fraction),
  };
  const auto eval = node.evaluate(chains);
  // Against the paper's Fig. 1: the (90,10) split should dominate the
  // (20,80) split for the hot chain.
  if (hot_fraction >= 0.9) {
    const auto starved = node.evaluate(
        {heavy_chain(5.0, 64, 6.0, 0.2), chain(1.0, 128, 1.0, 0.8)});
    EXPECT_GT(eval.chains[0].eval.goodput_pps,
              starved.chains[0].eval.goodput_pps);
    EXPECT_LT(eval.chains[0].eval.miss_ratio,
              starved.chains[0].eval.miss_ratio);
  }
  EXPECT_GT(eval.total_goodput_gbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFig1, LlcPartitionSweep,
    ::testing::Values(std::make_pair(0.9, 0.1), std::make_pair(0.7, 0.3),
                      std::make_pair(0.4, 0.6), std::make_pair(0.2, 0.8)));

}  // namespace
}  // namespace greennfv::hwmodel
