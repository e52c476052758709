/// Reproduces Figure 1: "Micro-benchmarking of LLC size: effect of LLC on
/// NF throughput and energy consumption."
///
/// Two chains share one node. C1 carries 13 Mpps of small frames through a
/// cache-hungry chain; C2 carries 1 Mpps. Four CAT splits — (90,10),
/// (70,30), (40,60), (20,80) — are evaluated; for each we report the LLC
/// miss behaviour, achieved throughput (wire Gbps, as MoonGen counts line
/// rate), and energy per million delivered packets.
///
/// Expected shape (paper): C1 is healthy at (90,10) and collapses as its
/// slice shrinks — miss rate and energy/MP rise sharply — while the
/// low-rate C2 is insensitive.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/units.hpp"
#include "hwmodel/node.hpp"

using namespace greennfv;
using namespace greennfv::hwmodel;

namespace {

ChainDeployment make_c1(double llc_fraction) {
  // NAT -> router -> content cache: ~9.5 MiB of resident state, light
  // per-packet cycles — throughput depends on keeping that state cached,
  // which is exactly what Fig. 1 measures. The cache NF is a bench-local
  // profile (table-heavy, cheap per packet).
  static const std::vector<NfCostProfile> nfs = [] {
    NfCostProfile cdn_cache;
    cdn_cache.name = "cdn_cache";
    cdn_cache.base_cycles = 300.0;
    cdn_cache.cycles_per_byte = 0.0;
    cdn_cache.mem_refs_per_pkt = 12.0;
    cdn_cache.state_bytes = 8ull * units::kMiB;
    return std::vector<NfCostProfile>{nf_catalog::nat(), nf_catalog::router(),
                                      cdn_cache};
  }();
  ChainDeployment dep;
  dep.set_nfs(nfs);
  dep.workload.offered_pps = 13e6;  // paper: "input flows ... are 13 Mpps"
  dep.workload.pkt_bytes = 64;
  dep.cores = 12.0;
  dep.freq_ghz = 2.1;
  dep.llc_fraction = llc_fraction;
  dep.dma_bytes = 24ull << 20;  // enough ring slots for 13 Mpps of 64 B
  dep.batch = 64;
  dep.poll_mode = true;
  return dep;
}

ChainDeployment make_c2(double llc_fraction) {
  static const std::vector<NfCostProfile> nfs = {
      nf_catalog::firewall(), nf_catalog::nat(), nf_catalog::flow_monitor()};
  ChainDeployment dep;
  dep.set_nfs(nfs);
  dep.workload.offered_pps = 1e6;  // "and 1 Mpps, respectively"
  dep.workload.pkt_bytes = 128;
  dep.cores = 2.0;
  dep.freq_ghz = 2.1;
  dep.llc_fraction = llc_fraction;
  dep.dma_bytes = 1ull << 20;
  dep.batch = 64;
  dep.poll_mode = true;
  return dep;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Config::from_args(argc, argv);
  if (bench::handle_cli(config, {})) return 0;
  bench::banner("Figure 1", "LLC partitioning between two chains", config);

  const NodeModel node;
  // The paper's four allocations (x% to C1, y% to C2).
  const std::pair<double, double> splits[] = {
      {0.9, 0.1}, {0.7, 0.3}, {0.4, 0.6}, {0.2, 0.8}};

  std::vector<std::vector<std::string>> rows;
  telemetry::Recorder recorder;
  int idx = 0;
  for (const auto& [c1_frac, c2_frac] : splits) {
    const auto eval =
        node.evaluate({make_c1(c1_frac), make_c2(c2_frac)}, true);
    const auto& c1 = eval.chains[0];
    const auto& c2 = eval.chains[1];
    // "LLC Miss rate" reported as misses per 10k packet references.
    const double c1_miss = c1.eval.miss_ratio * 1e4;
    const double c2_miss = c2.eval.miss_ratio * 1e4;
    rows.push_back({format("(%.0f%%,%.0f%%)", c1_frac * 100, c2_frac * 100),
                    format_double(c1_miss, 0), format_double(c2_miss, 0),
                    format_double(c1.eval.wire_gbps, 2),
                    format_double(c2.eval.wire_gbps, 2),
                    format_double(c1.energy_per_mpkt_j, 1),
                    format_double(c2.energy_per_mpkt_j, 1)});
    recorder.record("c1_wire_gbps", idx, c1.eval.wire_gbps);
    recorder.record("c2_wire_gbps", idx, c2.eval.wire_gbps);
    recorder.record("c1_miss_per10k", idx, c1_miss);
    recorder.record("c2_miss_per10k", idx, c2_miss);
    recorder.record("c1_energy_per_mpkt", idx, c1.energy_per_mpkt_j);
    recorder.record("c2_energy_per_mpkt", idx, c2.energy_per_mpkt_j);
    ++idx;
  }

  bench::print_table({"alloc(C1,C2)", "miss/10k C1", "miss/10k C2",
                      "Gbps C1", "Gbps C2", "J/Mpkt C1", "J/Mpkt C2"},
                     rows);

  std::printf(
      "\nshape check: C1 throughput should fall and its miss rate and\n"
      "energy/Mpkt rise as its slice shrinks from 90%% to 20%%; C2 stays"
      " flat.\n");
  bench::dump_csv(recorder, "fig1_llc_allocation");
  return 0;
}
