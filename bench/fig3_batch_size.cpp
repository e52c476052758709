/// Reproduces Figure 3: "Micro-benchmarking of batching size: effect of
/// batch size on NF throughput and energy efficiency."
///
/// A chain under a tight LLC slice is swept across batch sizes. Small
/// batches pay the per-wakeup (IPC + call) cost on every few packets;
/// large batches amortize it but blow the slice out of cache. Both the
/// throughput/energy pair (Fig. 3a) and the LLC miss count (Fig. 3b) are
/// reported. Energy is for a fixed amount of work (10M packets), matching
/// the paper's falling-then-rising KJ axis.
///
/// Expected shape (paper): throughput rises to an interior optimum
/// (~150-200 packets) then falls; misses fall then climb; energy mirrors
/// throughput inversely.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/units.hpp"
#include "hwmodel/node.hpp"
#include "traffic/generator.hpp"

using namespace greennfv;
using namespace greennfv::hwmodel;

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(config, {"cores", "work_mpkts"})) return 0;
  bench::banner("Figure 3", "packet batch size sweep", config);
  const double cores = config.get_double("cores", 0.4);
  const double work_mpkts = config.get_double("work_mpkts", 10.0);

  const NodeModel node;
  const traffic::FlowSpec flow = traffic::line_rate_flow(1518);

  std::vector<std::vector<std::string>> rows;
  telemetry::Recorder recorder;
  const std::vector<NfCostProfile> light_nfs = {
      nf_catalog::firewall(), nf_catalog::nat(), nf_catalog::flow_monitor()};
  const std::vector<NfCostProfile> heavy_nfs = {
      nf_catalog::ids(), nf_catalog::epc(), nf_catalog::router()};
  for (std::uint32_t batch = 10; batch <= 300; batch += 10) {
    // Chain under test: light NFs, tight 10% LLC slice.
    ChainDeployment dep;
    dep.set_nfs(light_nfs);
    dep.workload.offered_pps = flow.mean_rate_pps;
    dep.workload.pkt_bytes = 1518;
    dep.cores = cores;
    dep.freq_ghz = 2.1;
    dep.llc_fraction = 0.10;
    dep.dma_bytes = 8ull << 20;  // ring is not the limiter in this sweep
    dep.batch = batch;
    dep.poll_mode = true;
    // A cache-hungry neighbour owns the rest of the LLC, as on a real
    // consolidated node.
    ChainDeployment neighbour;
    neighbour.set_nfs(heavy_nfs);
    neighbour.workload.offered_pps = 0.5e6;
    neighbour.workload.pkt_bytes = 512;
    neighbour.cores = 2.0;
    neighbour.llc_fraction = 0.90;
    neighbour.batch = 64;
    neighbour.poll_mode = true;

    const auto eval = node.evaluate({dep, neighbour}, true);
    const auto& chain = eval.chains[0];
    const double gbps = chain.eval.throughput_gbps;
    // Fixed-work energy: watts attributed to the chain over the time to
    // push `work_mpkts` million packets through it.
    const double seconds =
        chain.eval.goodput_pps > 0.0
            ? work_mpkts * 1e6 / chain.eval.goodput_pps
            : 0.0;
    const double energy_kj = chain.power_w * seconds / 1000.0;
    // Fig. 3b's "Cache Miss (x10^4)": misses across the same fixed work.
    const double misses_x1e4 =
        chain.eval.misses_per_pkt * work_mpkts * 1e6 / 1e4;

    rows.push_back({format("%u", batch), format_double(gbps, 2),
                    format_double(energy_kj, 2),
                    format_double(misses_x1e4, 0)});
    recorder.record("throughput_gbps", batch, gbps);
    recorder.record("energy_kj", batch, energy_kj);
    recorder.record("miss_x1e4", batch, misses_x1e4);
  }

  bench::print_table({"batch", "Gbps", "Energy(KJ)", "Miss(x1e4)"}, rows);
  std::printf(
      "\nshape check: throughput peaks at an interior batch size and falls\n"
      "beyond it; misses and fixed-work energy dip then climb.\n");
  bench::dump_csv(recorder, "fig3_batch_size");
  return 0;
}
