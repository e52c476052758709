#include "nfvsim/controller.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace greennfv::nfvsim {
namespace {

TEST(Controller, AddChainAndDefaults) {
  OnvmController controller;
  const int idx = controller.add_chain("c0", {"firewall", "router", "ids"});
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(controller.num_chains(), 1u);
  // Defaults are the baseline knobs.
  EXPECT_EQ(controller.knobs(0).batch, 2u);
  EXPECT_NEAR(controller.knobs(0).freq_ghz, 2.1, 1e-9);
}

TEST(Controller, ApplyKnobsClampsAndSnaps) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall"});
  ChainKnobs wild;
  wild.cores = 99.0;
  wild.freq_ghz = 1.77;         // not on the ladder
  wild.llc_fraction = 3.0;
  wild.dma_bytes = 1;           // below minimum
  wild.batch = 100000;
  const ChainKnobs applied = controller.apply_knobs(0, wild);
  EXPECT_NEAR(applied.cores, ChainKnobs::kMaxCores, 1e-9);
  EXPECT_NEAR(applied.freq_ghz, 1.8, 1e-9);  // snapped to ladder
  EXPECT_NEAR(applied.llc_fraction, 1.0, 1e-9);
  EXPECT_EQ(applied.dma_bytes, ChainKnobs::kMinDmaBytes);
  EXPECT_EQ(applied.batch, ChainKnobs::kMaxBatch);
  EXPECT_EQ(controller.knobs(0).batch, ChainKnobs::kMaxBatch);
}

TEST(Controller, DeploymentsMirrorKnobs) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall", "nat"});
  controller.add_chain("c1", {"router"});
  ChainKnobs knobs;
  knobs.cores = 2.5;
  knobs.freq_ghz = 1.5;
  knobs.llc_fraction = 0.4;
  knobs.batch = 16;
  controller.apply_knobs(1, knobs);

  std::vector<hwmodel::ChainWorkload> loads(2);
  loads[0].offered_pps = 1e6;
  loads[0].pkt_bytes = 512;
  loads[1].offered_pps = 2e6;
  loads[1].pkt_bytes = 128;
  std::vector<hwmodel::ChainDeployment> deployments;
  controller.deployments(loads, deployments);
  ASSERT_EQ(deployments.size(), 2u);
  EXPECT_EQ(deployments[0].nfs.size(), 2u);
  EXPECT_EQ(deployments[1].nfs.size(), 1u);
  EXPECT_NEAR(deployments[1].cores, 2.5, 1e-9);
  EXPECT_NEAR(deployments[1].freq_ghz, 1.5, 1e-9);
  EXPECT_EQ(deployments[1].batch, 16u);
  EXPECT_NEAR(deployments[1].workload.offered_pps, 2e6, 1e-6);
  // Hybrid mode -> not poll.
  EXPECT_FALSE(deployments[0].poll_mode);
}

TEST(Controller, PollModePropagates) {
  OnvmController controller(hwmodel::NodeSpec{}, SchedMode::kPoll);
  controller.add_chain("c0", {"firewall"});
  std::vector<hwmodel::ChainWorkload> loads(1);
  loads[0].offered_pps = 1e5;
  std::vector<hwmodel::ChainDeployment> deployments;
  controller.deployments(loads, deployments);
  EXPECT_TRUE(deployments[0].poll_mode);
  controller.set_sched_mode(SchedMode::kHybrid);
  controller.deployments(loads, deployments);
  EXPECT_FALSE(deployments[0].poll_mode);
}

TEST(Controller, CatToggle) {
  OnvmController controller;
  EXPECT_TRUE(controller.use_cat());
  controller.set_use_cat(false);
  EXPECT_FALSE(controller.use_cat());
}

TEST(Controller, DeploymentsRejectWrongWorkloadCount) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall"});
  std::vector<hwmodel::ChainDeployment> deployments;
  EXPECT_DEATH(controller.deployments({}, deployments), "workload count");
}

TEST(Controller, UnknownNfNameThrowsFromTheCatalogLookup) {
  OnvmController controller;
  EXPECT_THROW(controller.add_chain("c0", {"firewall", "nope"}),
               std::invalid_argument);
  EXPECT_EQ(controller.num_chains(), 0u);  // nothing half-deployed
}

TEST(Controller, CompositionsCarryCatalogProfilesInChainOrder) {
  OnvmController controller;
  controller.add_chain("c0", {"nat", "epc"});
  ASSERT_EQ(controller.compositions().size(), 1u);
  const ChainComposition& comp = controller.compositions()[0];
  EXPECT_EQ(comp.name, "c0");
  EXPECT_EQ(comp.nf_names, (std::vector<std::string>{"nat", "epc"}));
  ASSERT_EQ(comp.profiles.size(), 2u);
  EXPECT_EQ(comp.profiles[0].name, "nat");
  EXPECT_EQ(comp.profiles[1].name, "epc");
  EXPECT_EQ(comp.profiles[1].base_cycles,
            hwmodel::nf_catalog::epc().base_cycles);
  EXPECT_EQ(comp.state_bytes, hwmodel::total_state_bytes(comp.profiles));
  std::vector<hwmodel::ChainWorkload> loads(1);
  std::vector<hwmodel::ChainDeployment> deployments;
  controller.deployments(loads, deployments);
  ASSERT_EQ(deployments[0].nfs.size(), 2u);
  EXPECT_EQ(deployments[0].nfs[1].state_bytes, comp.profiles[1].state_bytes);
  EXPECT_EQ(deployments[0].state_bytes, comp.state_bytes);
}

TEST(Controller, DeploymentsBorrowProfilesThatOutliveLaterChains) {
  OnvmController controller;
  controller.add_chain("c0", {"firewall", "router", "ids"});
  const hwmodel::NfCostProfile* first =
      controller.compositions()[0].profiles.data();
  // Growing the composition list moves compositions, not profile buffers.
  for (int c = 1; c < 9; ++c) controller.add_chain("cN", {"nat"});
  EXPECT_EQ(controller.compositions()[0].profiles.data(), first);

  std::vector<hwmodel::ChainWorkload> loads(controller.num_chains());
  std::vector<hwmodel::ChainDeployment> deployments;
  controller.deployments(loads, deployments);
  ASSERT_EQ(deployments.size(), 9u);
  EXPECT_EQ(deployments[0].nfs.data(), first);
  EXPECT_EQ(deployments[0].nfs.size(), 3u);

  // Refilling for a smaller controller shrinks the reused vector.
  OnvmController single;
  single.add_chain("s0", {"epc"});
  const std::vector<hwmodel::ChainWorkload> one(1);
  single.deployments(one, deployments);
  ASSERT_EQ(deployments.size(), 1u);
  EXPECT_EQ(deployments[0].nfs.data(),
            single.compositions()[0].profiles.data());
  EXPECT_EQ(deployments[0].state_bytes,
            hwmodel::nf_catalog::epc().state_bytes);
}

TEST(Controller, SchedModeNames) {
  EXPECT_EQ(to_string(SchedMode::kPoll), "poll");
  EXPECT_EQ(to_string(SchedMode::kHybrid), "hybrid");
}

TEST(Knobs, BaselineMatchesAlgorithm1Defaults) {
  const ChainKnobs knobs = baseline_knobs(hwmodel::NodeSpec{});
  EXPECT_EQ(knobs.batch, 2u);                 // Algorithm 1 line 4
  EXPECT_NEAR(knobs.freq_ghz, 2.1, 1e-9);     // performance governor
}

TEST(Knobs, ToStringMentionsEveryKnob) {
  const ChainKnobs knobs = baseline_knobs(hwmodel::NodeSpec{});
  const std::string text = knobs.to_string();
  EXPECT_NE(text.find("cores"), std::string::npos);
  EXPECT_NE(text.find("freq"), std::string::npos);
  EXPECT_NE(text.find("llc"), std::string::npos);
  EXPECT_NE(text.find("dma"), std::string::npos);
  EXPECT_NE(text.find("batch"), std::string::npos);
}

}  // namespace
}  // namespace greennfv::nfvsim
