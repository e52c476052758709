#include "nfvsim/engine_threaded.hpp"

#include <gtest/gtest.h>

#include "traffic/generator.hpp"

namespace greennfv::nfvsim {
namespace {

std::vector<traffic::FlowSpec> clean_flows(int chains) {
  // Flows whose packets pass the default firewall/router rules.
  std::vector<traffic::FlowSpec> flows;
  for (int c = 0; c < chains; ++c) {
    traffic::FlowSpec f;
    f.id = c;
    f.pkt_bytes = 256;
    f.mean_rate_pps = 1e5;
    f.chain_index = c;
    flows.push_back(f);
  }
  return flows;
}

TEST(ThreadedEngine, ConservationSingleChain) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall", "router"});
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 5);
  EXPECT_EQ(report.generated, 20000u);
  EXPECT_TRUE(report.conserved())
      << "generated=" << report.generated
      << " delivered=" << report.delivered << " nf=" << report.nf_drops
      << " rx=" << report.rx_ring_drops;
  EXPECT_GT(report.delivered, 0u);
  EXPECT_GT(report.delivered_pps, 0.0);
}

TEST(ThreadedEngine, ConservationTwoChains) {
  OnvmController controller;
  controller.add_chain("c0", standard_chain_nfs(0));
  controller.add_chain("c1", standard_chain_nfs(1));
  ThreadedEngine::Options options;
  options.total_packets = 30000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(2), 7);
  EXPECT_TRUE(report.conserved());
  ASSERT_EQ(report.per_chain_delivered.size(), 2u);
  EXPECT_GT(report.per_chain_delivered[0], 0u);
  EXPECT_GT(report.per_chain_delivered[1], 0u);
}

class BatchKnob : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchKnob, RunsAndConservesAtEveryBatchSize) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall", "router"});
  ChainKnobs knobs = baseline_knobs(controller.spec());
  knobs.batch = GetParam();
  controller.apply_knobs(0, knobs);
  ThreadedEngine::Options options;
  options.total_packets = 10000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 11);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.delivered, 5000u);  // drops possible, collapse not
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchKnob,
                         ::testing::Values(1, 2, 8, 32, 128, 256));

TEST(ThreadedEngine, PollModeAlsoCompletes) {
  OnvmController controller(hwmodel::NodeSpec{}, SchedMode::kPoll);
  controller.add_chain("c0", {"firewall"});
  ThreadedEngine::Options options;
  options.total_packets = 10000;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 13);
  EXPECT_TRUE(report.conserved());
}

TEST(ThreadedEngine, TinyPoolCreatesBackpressureDrops) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall", "router", "ids"});
  ThreadedEngine::Options options;
  options.total_packets = 50000;
  options.pool_capacity = 64;  // tiny: generator outruns the worker
  options.gen_burst = 64;
  ThreadedEngine engine(controller, options);
  const auto report = engine.run(clean_flows(1), 17);
  EXPECT_TRUE(report.conserved());
  // With a 64-packet pool, some allocation failures are essentially
  // guaranteed; conservation must still hold (checked above).
  EXPECT_GT(report.delivered, 0u);
}

TEST(ThreadedEngine, FirewallDropsShowAsNfDrops) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall"});
  // All packets to the denied port range.
  ThreadedEngine::Options options;
  options.total_packets = 5000;
  ThreadedEngine engine(controller, options);
  // dst ports are random in [0,9000); the 6000-6063 deny band catches some.
  const auto report = engine.run(clean_flows(1), 19);
  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.nf_drops, 0u);
}

TEST(ThreadedEngine, EachEngineBuildsFreshChainsFromTheController) {
  // The engine owns the datapath: two engines over one controller each
  // start from zeroed NF stats, and each run's NF counters account for
  // exactly that run's packets.
  OnvmController controller;
  controller.add_chain("c0", standard_chain_nfs(0));
  controller.add_chain("c1", standard_chain_nfs(1));
  ThreadedEngine::Options options;
  options.total_packets = 20000;
  for (const std::uint64_t seed : {21ull, 22ull}) {
    ThreadedEngine engine(controller, options);
    for (std::size_t c = 0; c < controller.num_chains(); ++c) {
      const ServiceChain& chain = engine.chain(c);
      EXPECT_EQ(chain.name(), controller.compositions()[c].name);
      ASSERT_EQ(chain.num_nfs(), controller.compositions()[c].nf_names.size());
      for (std::size_t i = 0; i < chain.num_nfs(); ++i) {
        EXPECT_EQ(chain.nf(i).processed(), 0u);
        EXPECT_EQ(chain.nf(i).dropped(), 0u);
      }
    }
    const auto report = engine.run(clean_flows(2), seed);
    EXPECT_TRUE(report.conserved());
    // Every packet a chain consumed entered its first NF.
    std::uint64_t entered = 0;
    for (std::size_t c = 0; c < controller.num_chains(); ++c)
      entered += engine.chain(c).nf(0).processed();
    EXPECT_EQ(entered, report.delivered + report.nf_drops);
  }
}

TEST(ThreadedEngine, RejectsChainsAddedAfterConstruction) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall"});
  ThreadedEngine::Options options;
  options.total_packets = 1000;
  ThreadedEngine engine(controller, options);
  controller.add_chain("c1", {"router"});
  EXPECT_DEATH((void)engine.run(clean_flows(1), 23), "chains changed");
}

}  // namespace
}  // namespace greennfv::nfvsim
