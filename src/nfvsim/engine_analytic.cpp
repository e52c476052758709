#include "nfvsim/engine_analytic.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace greennfv::nfvsim {

AnalyticEngine::AnalyticEngine(OnvmController& controller,
                               traffic::TrafficGenerator generator)
    : controller_(controller),
      generator_(std::move(generator)),
      node_model_(controller.spec()) {
  GNFV_REQUIRE(controller_.num_chains() > 0,
               "AnalyticEngine: controller has no chains");
  for (const auto& flow : generator_.flows()) {
    GNFV_REQUIRE(
        flow.chain_index >= 0 &&
            static_cast<std::size_t>(flow.chain_index) <
                controller_.num_chains(),
        "AnalyticEngine: flow references a chain the controller lacks");
  }
}

namespace {

/// The step's scratch, one per thread (see the header).
struct StepWorkspace {
  traffic::WindowLoad load;
  std::vector<hwmodel::ChainWorkload> workloads;
  std::vector<double> byte_weight;
  std::vector<hwmodel::ChainDeployment> deployments;
  WindowMetrics metrics;  ///< run()'s per-step result
};

thread_local StepWorkspace t_workspace;

/// Folds the per-flow loads into per-chain workloads (offered pps plus
/// pps-weighted mean frame size).
void chain_workloads(const std::vector<traffic::FlowSpec>& flows,
                     std::size_t n_chains, StepWorkspace& ws) {
  ws.workloads.assign(n_chains, hwmodel::ChainWorkload{});
  ws.byte_weight.assign(n_chains, 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto chain = static_cast<std::size_t>(flows[i].chain_index);
    ws.workloads[chain].offered_pps += ws.load.per_flow_pps[i];
    ws.byte_weight[chain] += ws.load.per_flow_pps[i] * flows[i].pkt_bytes;
  }
  for (std::size_t c = 0; c < n_chains; ++c) {
    const double pps = ws.workloads[c].offered_pps;
    ws.workloads[c].pkt_bytes =
        pps > 0.0 ? static_cast<std::uint32_t>(
                        std::clamp(ws.byte_weight[c] / pps, 64.0, 1518.0))
                  : 1024;
  }
}

}  // namespace

void AnalyticEngine::step(double dt, WindowMetrics& out) {
  GNFV_REQUIRE(dt > 0.0, "AnalyticEngine::step: dt must be positive");

  StepWorkspace& ws = t_workspace;
  generator_.next_window(dt, ws.load);
  chain_workloads(generator_.flows(), controller_.num_chains(), ws);
  controller_.deployments(ws.workloads, ws.deployments);
  out.t_start_s = time_s_;
  out.dt_s = dt;
  out.offered_pps = ws.load.total_pps;
  node_model_.evaluate(ws.deployments, controller_.use_cat(), out.node);
  out.energy_j = out.node.power_w * dt;
  meter_.accumulate(out.node.power_w, dt);
  time_s_ += dt;

  // Close the TCP loop: attribute each chain's goodput/drops to its flows
  // proportionally to their share of the chain's offered load.
  const auto& flows = generator_.flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto chain = static_cast<std::size_t>(flows[i].chain_index);
    const double chain_offered = ws.workloads[chain].offered_pps;
    if (chain_offered <= 0.0) continue;
    const double share = ws.load.per_flow_pps[i] / chain_offered;
    const auto& eval = out.node.chains[chain].eval;
    generator_.report_feedback(i, eval.goodput_pps * share,
                               eval.drop_pps * share);
  }
}

WindowMetrics AnalyticEngine::step(double dt) {
  WindowMetrics out;
  step(dt, out);
  return out;
}

void AnalyticEngine::run(int windows, double dt, RunSummary& summary) {
  GNFV_REQUIRE(windows > 0, "AnalyticEngine::run: windows must be positive");
  const std::size_t n_chains = controller_.num_chains();
  summary.duration_s = summary.mean_gbps = summary.mean_power_w =
      summary.energy_j = summary.mean_utilization = 0.0;
  summary.chain_gbps.assign(n_chains, 0.0);
  summary.chain_arrival_pps.assign(n_chains, 0.0);
  summary.chain_energy_j.assign(n_chains, 0.0);
  summary.chain_busy_cores.assign(n_chains, 0.0);

  WindowMetrics& m = t_workspace.metrics;
  double goodput_pps_sum = 0.0;
  double offered_pps_sum = 0.0;
  for (int w = 0; w < windows; ++w) {
    step(dt, m);
    summary.duration_s += dt;
    summary.mean_gbps += m.total_gbps();
    summary.mean_power_w += m.power_w();
    summary.energy_j += m.energy_j;
    summary.mean_utilization += m.utilization();
    offered_pps_sum += m.offered_pps;
    goodput_pps_sum += m.node.total_goodput_pps;
    for (std::size_t c = 0; c < n_chains; ++c) {
      summary.chain_gbps[c] += m.node.chains[c].eval.throughput_gbps;
      summary.chain_arrival_pps[c] +=
          m.node.chains[c].eval.goodput_pps + m.node.chains[c].eval.drop_pps;
      summary.chain_energy_j[c] += m.node.chains[c].power_w * dt;
      summary.chain_busy_cores[c] += m.node.chains[c].eval.busy_cores;
    }
  }
  const auto n = static_cast<double>(windows);
  summary.mean_gbps /= n;
  summary.mean_power_w /= n;
  summary.mean_utilization /= n;
  summary.mean_offered_pps = offered_pps_sum / n;
  summary.mean_goodput_pps = goodput_pps_sum / n;
  summary.drop_fraction =
      offered_pps_sum > 0.0
          ? std::max(0.0, 1.0 - goodput_pps_sum / offered_pps_sum)
          : 0.0;
  for (std::size_t c = 0; c < n_chains; ++c) {
    summary.chain_gbps[c] /= n;
    summary.chain_arrival_pps[c] /= n;
    summary.chain_busy_cores[c] /= n;
  }
}

AnalyticEngine::RunSummary AnalyticEngine::run(int windows, double dt) {
  RunSummary summary;
  run(windows, dt, summary);
  return summary;
}

void AnalyticEngine::reset(std::uint64_t seed) {
  generator_.reset(seed);
  meter_ = hwmodel::EnergyMeter{};
  time_s_ = 0.0;
}

}  // namespace greennfv::nfvsim
