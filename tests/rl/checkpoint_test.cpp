#include "rl/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "rl/ddpg.hpp"

namespace greennfv::rl {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs each case as its own process, in
  // parallel, and a shared path lets one case delete another's file.
  std::string path_ =
      std::string("/tmp/gnfv_checkpoint_test.") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";
};

TEST_F(CheckpointTest, RoundTripPreservesEverything) {
  Checkpoint original;
  original.tag = "test-policy";
  original.input_dim = 3;
  original.output_dim = 2;
  original.parameters = {1.0, -2.5, 3.14159265358979, 1e-17, -1e300};
  save_checkpoint(path_, original);
  const Checkpoint loaded = load_checkpoint(path_);
  EXPECT_EQ(loaded.tag, "test-policy");
  EXPECT_EQ(loaded.input_dim, 3u);
  EXPECT_EQ(loaded.output_dim, 2u);
  ASSERT_EQ(loaded.parameters.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(loaded.parameters[i], original.parameters[i]);
}

TEST_F(CheckpointTest, RejectsBadMagic) {
  std::ofstream(path_) << "not-a-checkpoint\nx\n1 1 0\n";
  EXPECT_THROW((void)load_checkpoint(path_), std::runtime_error);
}

TEST_F(CheckpointTest, RejectsTruncatedParameters) {
  Checkpoint checkpoint;
  checkpoint.tag = "t";
  checkpoint.input_dim = 1;
  checkpoint.output_dim = 1;
  checkpoint.parameters = {1.0, 2.0, 3.0};
  save_checkpoint(path_, checkpoint);
  // Chop the file.
  std::ifstream in(path_);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path_) << text.substr(0, text.size() - 8);
  EXPECT_THROW((void)load_checkpoint(path_), std::runtime_error);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW((void)load_checkpoint("/nonexistent/nope.ckpt"),
               std::runtime_error);
}

DdpgConfig agent_config() {
  DdpgConfig config;
  config.state_dim = 4;
  config.action_dim = 3;
  config.actor_hidden = {16, 16};
  config.critic_hidden = {16, 16};
  return config;
}

TEST_F(CheckpointTest, AgentActorRoundTrip) {
  DdpgAgent trained(agent_config(), 7);
  trained.save_actor(path_);
  DdpgAgent fresh(agent_config(), 99);  // different init
  const std::vector<double> state = {0.1, -0.2, 0.3, -0.4};
  const auto before = fresh.act(state);
  fresh.load_actor(path_);
  const auto after = fresh.act(state);
  const auto reference = trained.act(state);
  // Restored policy is bit-identical to the trained one.
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_DOUBLE_EQ(after[i], reference[i]);
  // ...and different from the fresh initialization.
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i)
    changed = changed || before[i] != after[i];
  EXPECT_TRUE(changed);
}

TEST_F(CheckpointTest, AgentRejectsWrongDims) {
  DdpgAgent trained(agent_config(), 7);
  trained.save_actor(path_);
  DdpgConfig other = agent_config();
  other.action_dim = 5;
  DdpgAgent mismatched(other, 1);
  EXPECT_DEATH(mismatched.load_actor(path_), "dims do not match");
}

}  // namespace
}  // namespace greennfv::rl
