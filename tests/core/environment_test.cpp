#include "core/environment.hpp"

#include <gtest/gtest.h>

namespace greennfv::core {
namespace {

EnvConfig small_config() {
  EnvConfig config;
  config.num_chains = 2;
  config.num_flows = 4;
  config.total_offered_gbps = 8.0;
  config.window_s = 2.0;
  config.sub_windows = 2;
  config.steps_per_episode = 4;
  config.sla = Sla::energy_efficiency();
  return config;
}

TEST(Environment, DimensionsFollowChains) {
  NfvEnvironment env(small_config(), 1);
  EXPECT_EQ(env.state_dim(), 8u);   // 4 signals x 2 chains
  EXPECT_EQ(env.action_dim(), 10u); // 5 knobs x 2 chains
}

TEST(Environment, ResetReturnsLiveState) {
  NfvEnvironment env(small_config(), 2);
  const auto state = env.reset(3);
  ASSERT_EQ(state.size(), 8u);
  for (const double s : state) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
  // Settling window measured something.
  EXPECT_GT(env.last_outcome().throughput_gbps, 0.0);
  EXPECT_GT(env.last_outcome().energy_j, 0.0);
}

TEST(Environment, StepRewardsMatchSla) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(/*budget=*/1e9);  // never violated
  NfvEnvironment env(config, 4);
  (void)env.reset(5);
  const auto result = env.step(std::vector<double>(10, 0.5));
  EXPECT_NEAR(result.reward,
              env.last_outcome().throughput_gbps / 10.0, 1e-9);
  EXPECT_TRUE(env.last_outcome().sla_satisfied);
}

TEST(Environment, ViolationYieldsZeroGatedReward) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(/*budget=*/1.0);  // impossible budget
  NfvEnvironment env(config, 6);
  (void)env.reset(7);
  const auto result = env.step(std::vector<double>(10, 1.0));
  EXPECT_DOUBLE_EQ(result.reward, 0.0);
  EXPECT_FALSE(env.last_outcome().sla_satisfied);
}

TEST(Environment, ShapedRewardGoesNegativeOnViolation) {
  EnvConfig config = small_config();
  config.sla = Sla::max_throughput(1.0);
  config.shaped_reward = true;
  NfvEnvironment env(config, 8);
  (void)env.reset(9);
  const auto result = env.step(std::vector<double>(10, 1.0));
  EXPECT_LT(result.reward, 0.0);
}

TEST(Environment, EpisodeTerminatesAfterConfiguredSteps) {
  NfvEnvironment env(small_config(), 10);
  (void)env.reset(11);
  int steps = 0;
  bool done = false;
  while (!done) {
    done = env.step(std::vector<double>(10, 0.0)).done;
    ++steps;
    ASSERT_LE(steps, 10);
  }
  EXPECT_EQ(steps, 4);
  // Reset starts a fresh episode.
  (void)env.reset(12);
  EXPECT_FALSE(env.step(std::vector<double>(10, 0.0)).done);
}

TEST(Environment, DeterministicForSameSeed) {
  NfvEnvironment env_a(small_config(), 13);
  NfvEnvironment env_b(small_config(), 13);
  (void)env_a.reset(14);
  (void)env_b.reset(14);
  const auto ra = env_a.step(std::vector<double>(10, 0.3));
  const auto rb = env_b.step(std::vector<double>(10, 0.3));
  EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
  for (std::size_t i = 0; i < ra.next_state.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.next_state[i], rb.next_state[i]);
}

TEST(Environment, StrongerKnobsRaiseThroughput) {
  NfvEnvironment env(small_config(), 15);
  (void)env.reset(16);
  (void)env.step(std::vector<double>(10, -1.0));  // weakest config
  const double weak_gbps = env.last_outcome().throughput_gbps;
  (void)env.reset(16);
  std::vector<double> strong(10, 1.0);
  // Keep LLC fractions reasonable across 2 chains (indices 2 and 7).
  strong[2] = 0.0;
  strong[7] = 0.0;
  (void)env.step(strong);
  EXPECT_GT(env.last_outcome().throughput_gbps, weak_gbps);
}

TEST(Environment, RunWindowAppliesKnobs) {
  NfvEnvironment env(small_config(), 17);
  (void)env.reset(18);
  std::vector<nfvsim::ChainKnobs> knobs(
      2, nfvsim::baseline_knobs(hwmodel::NodeSpec{}));
  knobs[0].batch = 111;
  const auto outcome = env.run_window(knobs);
  EXPECT_EQ(env.last_knobs()[0].batch, 111u);
  EXPECT_EQ(outcome.observations.size(), 2u);
  EXPECT_GT(outcome.energy_j, 0.0);
}

TEST(Environment, MeanKnobsAverages) {
  NfvEnvironment env(small_config(), 19);
  (void)env.reset(20);
  std::vector<nfvsim::ChainKnobs> knobs(
      2, nfvsim::baseline_knobs(hwmodel::NodeSpec{}));
  knobs[0].cores = 1.0;
  knobs[1].cores = 3.0;
  (void)env.run_window(knobs);
  EXPECT_NEAR(env.mean_knobs().cores, 2.0, 1e-9);
}

TEST(Environment, ResetKeepsEveryChainsKnobs) {
  EnvConfig config = small_config();
  config.num_chains = 3;
  NfvEnvironment env(config, 21);
  (void)env.step(std::vector<double>(env.action_dim(), 0.5));
  const std::vector<nfvsim::ChainKnobs> before = env.last_knobs();
  ASSERT_EQ(before.size(), 3u);
  (void)env.reset(5);
  // The settle window re-applies nothing: the applied knobs survive it.
  ASSERT_EQ(env.last_knobs().size(), 3u);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(env.last_knobs()[c].cores, before[c].cores);
    EXPECT_EQ(env.last_knobs()[c].batch, before[c].batch);
  }
  EXPECT_GT(env.mean_knobs().cores, 0.0);
}

}  // namespace
}  // namespace greennfv::core
