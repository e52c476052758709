#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/ee_pstate.hpp"
#include "core/environment.hpp"
#include "core/nf_controller.hpp"
#include "traffic/generator.hpp"

/// Allocation budget of the per-window advance. This binary replaces the
/// global operator new/delete with malloc/free wrappers that count calls
/// while a measurement is open; once the first window has sized every
/// buffer, an analytic step and an environment window must allocate
/// nothing, and one NfController window at most the two vectors its loop
/// still builds (the copied observations and the scheduler's decision).

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace greennfv::core {
namespace {

/// Heap allocations made while `f` runs.
template <class F>
long allocations_in(F&& f) {
  g_allocations.store(0);
  g_counting.store(true);
  f();
  g_counting.store(false);
  return g_allocations.load();
}

constexpr int kChains = 4;
constexpr int kWindows = 5;

EnvConfig four_chain_config() {
  EnvConfig config;
  config.num_chains = kChains;
  config.num_flows = 7;  // uneven spread, TCP flows included
  config.window_s = 2.0;
  config.sub_windows = 2;
  return config;
}

TEST(StepAllocations, CounterSeesAllocations) {
  std::vector<int>* escaped = nullptr;
  EXPECT_EQ(allocations_in([&] { escaped = new std::vector<int>(8); }), 2);
  delete escaped;
}

TEST(StepAllocations, AnalyticStepAllocatesNothingOnceWarm) {
  for (const bool use_cat : {true, false}) {
    SCOPED_TRACE(use_cat ? "CAT" : "shared LLC");
    const hwmodel::NodeSpec spec;
    auto controller = make_eval_controller(spec, kChains);
    controller->set_use_cat(use_cat);
    nfvsim::AnalyticEngine engine(
        *controller,
        traffic::TrafficGenerator(
            traffic::make_eval_flows(7, kChains, 12.0, 11), 11));
    nfvsim::WindowMetrics metrics;
    engine.step(0.5, metrics);
    EXPECT_EQ(allocations_in([&] {
                for (int w = 0; w < kWindows; ++w) engine.step(0.5, metrics);
              }),
              0);
    EXPECT_EQ(metrics.node.chains.size(), static_cast<std::size_t>(kChains));

    nfvsim::AnalyticEngine::RunSummary summary;
    engine.run(2, 0.5, summary);
    EXPECT_EQ(allocations_in([&] {
                for (int w = 0; w < kWindows; ++w)
                  engine.run(2, 0.5, summary);
              }),
              0);
  }
}

TEST(StepAllocations, RunWindowAllocatesNothingOnceWarm) {
  for (const bool use_cat : {true, false}) {
    SCOPED_TRACE(use_cat ? "CAT" : "shared LLC");
    NfvEnvironment env(four_chain_config(), 5);
    env.controller().set_use_cat(use_cat);
    const std::vector<nfvsim::ChainKnobs> knobs = env.last_knobs();
    (void)env.run_window(knobs);
    EXPECT_EQ(allocations_in([&] {
                for (int w = 0; w < kWindows; ++w) (void)env.run_window(knobs);
              }),
              0);
    EXPECT_EQ(env.last_outcome().observations.size(),
              static_cast<std::size_t>(kChains));
  }
}

TEST(StepAllocations, ControllerWindowAllocatesAtMostTwo) {
  const hwmodel::NodeSpec spec;
  BaselineScheduler baseline(spec);
  EePstateScheduler ee_pstate(spec, EePstateConfig{});
  for (Scheduler* scheduler :
       std::initializer_list<Scheduler*>{&baseline, &ee_pstate}) {
    SCOPED_TRACE(scheduler->name());
    NfvEnvironment env(four_chain_config(), 9);
    NfController controller(env, *scheduler);
    (void)controller.run(1);
    for (int w = 0; w < kWindows; ++w) {
      EXPECT_LE(allocations_in([&] { (void)controller.run(1); }), 2);
    }
  }
}

}  // namespace
}  // namespace greennfv::core
