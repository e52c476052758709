#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hwmodel/energy_meter.hpp"
#include "hwmodel/node.hpp"

/// Property sweeps over the hardware model: invariants that must hold for
/// *every* knob combination, not just the calibration points. These guard
/// the RL environment — a model that violates them would teach the agent
/// physics that do not exist.

namespace greennfv::hwmodel {
namespace {

ChainDeployment deployment(double cores, double freq, double llc,
                           double dma_mib, std::uint32_t batch,
                           double mpps = 1.0, std::uint32_t pkt = 512) {
  static const std::vector<NfCostProfile> nfs = {
      nf_catalog::firewall(), nf_catalog::router(), nf_catalog::ids()};
  ChainDeployment dep;
  dep.set_nfs(nfs);
  dep.workload.offered_pps = mpps * 1e6;
  dep.workload.pkt_bytes = pkt;
  dep.cores = cores;
  dep.freq_ghz = freq;
  dep.llc_fraction = llc;
  dep.dma_bytes = units::mib_to_bytes(dma_mib);
  dep.batch = batch;
  return dep;
}

using KnobPoint = std::tuple<double, double, std::uint32_t>;

class KnobGrid : public ::testing::TestWithParam<KnobPoint> {};

TEST_P(KnobGrid, UniversalInvariants) {
  const auto [cores, freq, batch] = GetParam();
  const NodeModel node;
  for (const double llc : {0.1, 0.5, 1.0}) {
    for (const double dma : {0.5, 4.0, 32.0}) {
      const auto eval =
          node.evaluate({deployment(cores, freq, llc, dma, batch)});
      const auto& chain = eval.chains[0].eval;
      // Goodput never exceeds offered load or service capacity.
      EXPECT_LE(chain.goodput_pps, 1e6 + 1e-6);
      EXPECT_LE(chain.goodput_pps, chain.service_pps + 1e-6);
      // Conservation: offered = goodput + drops.
      EXPECT_NEAR(chain.goodput_pps + chain.drop_pps, 1e6, 1.0);
      // Physical ranges.
      EXPECT_GE(chain.miss_ratio, 0.0);
      EXPECT_LE(chain.miss_ratio, 0.85 + 1e-9);
      EXPECT_GE(chain.ddio_hit, 0.0);
      EXPECT_LE(chain.ddio_hit, 1.0);
      EXPECT_GE(eval.power_w, node.spec().p_idle_w - 1e-9);
      EXPECT_LE(eval.power_w, node.spec().p_max_w + 1e-9);
      EXPECT_GE(eval.utilization, 0.0);
      EXPECT_LE(eval.utilization, 1.0);
      // Busy cores cannot exceed allocation.
      EXPECT_LE(chain.busy_cores, cores + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnobGrid,
    ::testing::Combine(::testing::Values(0.25, 1.0, 4.0),
                       ::testing::Values(1.2, 1.7, 2.1),
                       ::testing::Values(2u, 32u, 256u)));

class FrequencyMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(FrequencyMonotonicity, ServiceNeverDropsWithFrequency) {
  // At fixed knobs, raising frequency must never reduce service capacity
  // (more cycles per miss, but strictly more cycles per second).
  const double cores = GetParam();
  const NodeModel node;
  double prev = 0.0;
  for (double f = 1.2; f <= 2.1 + 1e-9; f += 0.1) {
    const auto eval =
        node.evaluate({deployment(cores, f, 0.5, 8.0, 64, 5.0)});
    EXPECT_GE(eval.chains[0].eval.service_pps + 1e-6, prev)
        << "f=" << f << " cores=" << cores;
    prev = eval.chains[0].eval.service_pps;
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, FrequencyMonotonicity,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

TEST(ModelProperties, PowerMonotoneInFrequencyAtFixedDuty) {
  const NodeModel node;
  double prev = 0.0;
  for (double f = 1.2; f <= 2.1 + 1e-9; f += 0.1) {
    auto dep = deployment(2.0, f, 0.5, 8.0, 64, 10.0);  // saturated
    dep.poll_mode = true;
    const auto eval = node.evaluate({dep});
    EXPECT_GE(eval.power_w + 1e-9, prev);
    prev = eval.power_w;
  }
}

TEST(ModelProperties, MoreOfferedNeverMeansMoreGoodputPerCycleBudget) {
  // Fixing capacity, goodput(offered) must be concave-ish: it never
  // *decreases* as offered load grows below saturation and never exceeds
  // service above it.
  const NodeModel node;
  double prev_goodput = 0.0;
  for (double mpps = 0.1; mpps <= 6.0; mpps += 0.25) {
    const auto eval = node.evaluate(
        {deployment(1.0, 2.1, 0.5, 8.0, 64, mpps, 256)});
    const auto& chain = eval.chains[0].eval;
    if (mpps * 1e6 <= chain.service_pps) {
      EXPECT_GE(chain.goodput_pps + 1e-3, prev_goodput);
    }
    EXPECT_LE(chain.goodput_pps, chain.service_pps + 1e-6);
    prev_goodput = chain.goodput_pps;
  }
}

TEST(ModelProperties, AggregateCapBindsExactlyAtLineRate) {
  const NodeModel node;
  std::vector<ChainDeployment> chains;
  for (int c = 0; c < 4; ++c)
    chains.push_back(deployment(4.0, 2.1, 0.25, 32.0, 128, 1.2, 1518));
  const auto eval = node.evaluate(chains);
  double wire = 0.0;
  for (const auto& chain : eval.chains) wire += chain.eval.wire_gbps;
  EXPECT_NEAR(wire, node.spec().line_rate_gbps, 1e-6);
  // The cap scales all chains by the same factor: equal chains stay equal.
  for (std::size_t c = 1; c < eval.chains.size(); ++c) {
    EXPECT_NEAR(eval.chains[c].eval.goodput_pps,
                eval.chains[0].eval.goodput_pps, 1.0);
  }
}

TEST(ModelProperties, EnergyMeterAgreesWithPowerIntegral) {
  const NodeModel node;
  const auto eval = node.evaluate({deployment(2.0, 1.8, 0.5, 8.0, 64)});
  EnergyMeter meter;
  for (int i = 0; i < 7; ++i) meter.accumulate(eval.power_w, 1.5);
  EXPECT_NEAR(meter.total_joules(), eval.power_w * 10.5, 1e-9);
  EXPECT_NEAR(meter.mean_power_w(), eval.power_w, 1e-9);
}

TEST(ModelProperties, CatPartitionInsensitiveToFractionScale) {
  // CAT fractions are relative: (0.2, 0.2) must equal (0.8, 0.8).
  const NodeModel node;
  std::vector<ChainDeployment> small = {
      deployment(1.0, 2.1, 0.2, 8.0, 64),
      deployment(1.0, 2.1, 0.2, 8.0, 64)};
  std::vector<ChainDeployment> large = {
      deployment(1.0, 2.1, 0.8, 8.0, 64),
      deployment(1.0, 2.1, 0.8, 8.0, 64)};
  const auto a = node.evaluate(small);
  const auto b = node.evaluate(large);
  EXPECT_DOUBLE_EQ(a.chains[0].eval.miss_ratio,
                   b.chains[0].eval.miss_ratio);
}

TEST(ModelProperties, DeterministicEvaluation) {
  const NodeModel node;
  const auto dep = deployment(1.5, 1.9, 0.4, 12.0, 96, 2.5);
  const auto a = node.evaluate({dep});
  const auto b = node.evaluate({dep});
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.total_goodput_gbps, b.total_goodput_gbps);
}

}  // namespace
}  // namespace greennfv::hwmodel
