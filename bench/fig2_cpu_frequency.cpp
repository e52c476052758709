/// Reproduces Figure 2: "Micro-benchmarking of CPU frequencies: effect of
/// CPU frequencies on NF throughput and energy efficiency."
///
/// One 3-NF chain (firewall -> router -> IDS) is fed line-rate traffic of
/// 1518-byte frames ("The line rate traffic with a large packet size (1518
/// Bytes) is fed into the function chain"). The DVFS ladder is swept from
/// 1.2 to 2.1 GHz; throughput and the energy of a fixed 10-second window
/// are reported.
///
/// Expected shape (paper): both throughput and energy grow with frequency,
/// non-linearly — throughput saturates toward line rate (memory latency is
/// constant in time, so each additional GHz buys fewer packets), energy
/// climbs superlinearly with the f*V^2 term.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "hwmodel/dvfs.hpp"
#include "hwmodel/node.hpp"
#include "traffic/generator.hpp"

using namespace greennfv;
using namespace greennfv::hwmodel;

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(config, {"window_s", "cores"})) return 0;
  bench::banner("Figure 2", "CPU frequency sweep on a 3-NF chain", config);
  const double window_s = config.get_double("window_s", 10.0);
  const double cores = config.get_double("cores", 2.0);

  const NodeSpec spec;
  const NodeModel node(spec);
  const DvfsController dvfs(spec);
  const traffic::FlowSpec flow = traffic::line_rate_flow(1518);

  std::vector<std::vector<std::string>> rows;
  telemetry::Recorder recorder;
  const std::vector<NfCostProfile> nfs = {
      nf_catalog::firewall(), nf_catalog::router(), nf_catalog::ids()};
  for (int p = 0; p < dvfs.num_pstates(); ++p) {
    const double freq = dvfs.frequency_ghz(p);
    ChainDeployment dep;
    dep.set_nfs(nfs);
    dep.workload.offered_pps = flow.mean_rate_pps;
    dep.workload.pkt_bytes = 1518;
    dep.cores = cores;
    dep.freq_ghz = freq;
    dep.llc_fraction = 1.0;
    dep.dma_bytes = 16ull << 20;  // ample ring so DVFS is the only limiter
    dep.batch = 64;
    dep.poll_mode = true;  // DPDK poll-mode micro-benchmark
    const auto eval = node.evaluate({dep}, true);
    const double energy = eval.energy_j(window_s);
    rows.push_back({format_double(freq, 1),
                    format_double(eval.total_goodput_gbps, 2),
                    format_double(energy, 0),
                    format_double(eval.power_w, 1)});
    recorder.record("throughput_gbps", freq, eval.total_goodput_gbps);
    recorder.record("energy_j", freq, energy);
  }

  bench::print_table({"GHz", "Gbps", "Energy(J)", "Power(W)"}, rows);
  std::printf(
      "\nshape check: throughput and energy both rise with frequency;\n"
      "throughput saturates toward 10 Gbps while energy keeps climbing.\n");
  bench::dump_csv(recorder, "fig2_cpu_frequency");
  return 0;
}
