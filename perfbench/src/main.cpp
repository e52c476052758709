/// GreenNFV end-to-end benchmark program.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// Builds the workload's inputs and the checks' reference data from the
/// seed several times, and again after every operation (the median is
/// `setup_s`). Runs one warm-up operation, then operations back to back for
/// `--seconds`, checking every operation's outputs. With `--trace 0` it
/// reports the end-to-end metrics (`setup_s`, `peak_rss_mb`, `us_per_unit`)
/// and logs each workload's own rate and sim_* outputs. With `--trace 1` it
/// runs untraced and traced operations (metrics registry and span tracer
/// on) in alternating pairs, reports the per-layer metrics, the tracing
/// overhead and the attribution coverage, and writes the Perfetto trace of
/// the last traced operation.
/// The last stdout line is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common/fs_util.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::OpOutcome;
using Clock = std::chrono::steady_clock;
namespace metrics = greennfv::telemetry::metrics;
namespace trace = greennfv::telemetry::trace;

/// Set-up repetitions at the start of a run and again after every
/// operation; `setup_s` is the median over all of them. Spreading them over
/// the run samples the host in the same states the operations meet.
constexpr int kSetupReps = 9;
/// The traced run's attribution gate: layer self times must cover this
/// share of the traced wall.
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have[0] = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have[1] = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        have[2] = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have[3] = true;
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Runs one operation, turning a thrown library error into a violation.
OpOutcome attempt(perfbench::Workload& workload, bool traced) {
  try {
    return workload.run(traced);
  } catch (const std::exception& e) {
    OpOutcome op;
    op.violations.push_back(std::string("threw: ") + e.what());
    return op;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    usage("unknown workload '" + args.workload + "'");
  greennfv::ensure_dir(args.out_dir);

  // --- set-up ----------------------------------------------------------------
  std::vector<double> setup_times;
  const auto time_setup = [&] {
    std::unique_ptr<perfbench::Workload> built;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      built.reset();
      const double start = perfbench::cpu_seconds();
      built = perfbench::make_workload(args.workload, args.seed, args.out_dir);
      built->prepare_checks();
      setup_times.push_back(perfbench::cpu_seconds() - start);
    }
    return built;
  };
  const std::unique_ptr<perfbench::Workload> workload = time_setup();

  // --- operations --------------------------------------------------------------
  int attempted = 0;
  int failed = 0;
  bool have_first = false;
  std::string first_results;
  std::map<std::string, Metric> sim;
  const auto record = [&](OpOutcome& op, const char* label) {
    ++attempted;
    if (op.violations.empty() && !have_first) {
      have_first = true;
      first_results = op.result_text;
      sim = op.sim;
      std::fputs(workload->describe(op).c_str(), stdout);
    } else if (op.violations.empty() && op.result_text != first_results) {
      op.violations.push_back("results differ from the first operation");
    }
    std::printf("op %d (%s): %.6f s host  %s %.6g%s\n", attempted, label,
                op.host_s, workload->rate_metric(), op.rate,
                op.violations.empty() ? "" : "  FAILED");
    for (const std::string& v : op.violations)
      std::printf("  check failed: %s\n", v.c_str());
    if (!op.violations.empty()) ++failed;
    (void)time_setup();
  };

  // The first operation fills the allocator's pools and the caches; it is
  // checked but not timed.
  {
    OpOutcome warmup = attempt(*workload, false);
    record(warmup, "warm-up");
  }
  std::vector<double> per_unit;
  std::vector<double> rates;
  std::vector<double> untraced_host;
  std::vector<OpOutcome> traced_ops;
  const auto run_untraced = [&] {
    OpOutcome op = attempt(*workload, false);
    record(op, "untraced");
    if (op.violations.empty()) {
      per_unit.push_back(op.host_s * 1e6 / op.work_units);
      rates.push_back(op.rate);
      untraced_host.push_back(op.host_s);
    }
  };
  const auto run_traced = [&] {
    metrics::set_enabled(true);
    trace::set_enabled(true);
    metrics::reset();
    trace::reset();
    OpOutcome op = attempt(*workload, true);
    trace::set_enabled(false);
    metrics::set_enabled(false);
    record(op, "traced");
    if (op.violations.empty()) traced_ops.push_back(std::move(op));
  };
  const auto measure_start = Clock::now();
  for (int pair = 0;
       pair == 0 || seconds_since(measure_start) < args.seconds; ++pair) {
    if (!args.trace) {
      run_untraced();
      continue;
    }
    // Traced and untraced operations run in pairs, alternating which goes
    // first, so the overhead compares neighbours under the same machine
    // conditions and neither side always inherits the other's heap.
    if (pair % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
  }
  const double peak_rss = peak_rss_mib();

  // --- digest --------------------------------------------------------------------
  const std::string history_text = workload->history_text();
  char history[32] = "-";  // train-ee has no fleet history
  if (!history_text.empty()) {
    std::snprintf(history, sizeof history, "%016llx",
                  static_cast<unsigned long long>(fnv1a(history_text)));
  }
  std::printf("digest %s seed=%llu history=%s results=%016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), history,
              static_cast<unsigned long long>(fnv1a(first_results)));

  // --- metrics ---------------------------------------------------------------------
  std::map<std::string, Metric> out;
  bool correct = failed == 0;
  if (!args.trace) {
    out["setup_s"] = {"s", median(setup_times)};
    out["peak_rss_mb"] = {"MiB", peak_rss};
    if (!per_unit.empty()) {
      out["us_per_unit"] = {"us", median(per_unit)};
      // Context only: the workload's own rate and the simulated outputs.
      std::printf("unit: one %s\n", workload->work_unit());
      std::printf("context %-26s %-10s %.6g\n", workload->rate_metric(),
                  workload->rate_unit(), median(rates));
    }
    for (const auto& [name, metric] : sim)
      std::printf("context %-26s %-10s %.6g (simulated, unvalidated)\n",
                  name.c_str(), metric.unit.c_str(), metric.value);
  } else if (!traced_ops.empty()) {
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::string> units;
    std::vector<double> traced_host;
    std::vector<double> coverage;
    for (const OpOutcome& op : traced_ops) {
      for (const auto& [name, metric] : op.layers) {
        samples[name].push_back(metric.value);
        units[name] = metric.unit;
      }
      traced_host.push_back(op.host_s);
      coverage.push_back(op.covered_s / op.traced_wall_s);
    }
    for (const auto& [name, values] : samples)
      out[name] = {units[name], median(values)};
    if (!untraced_host.empty()) {
      out["trace.overhead"] = {"ratio",
                               median(traced_host) / median(untraced_host) -
                                   1.0};
    }
    out["trace.coverage"] = {"ratio", median(coverage)};
    for (const auto& [name, why] : traced_ops.back().absent)
      std::printf("absent %s: %s\n", name.c_str(), why.c_str());
    if (out["trace.coverage"].value < kMinCoverage) {
      std::printf("trace.coverage %.4f below the %.2f attribution gate\n",
                  out["trace.coverage"].value, kMinCoverage);
      correct = false;
    }
    const std::string trace_path =
        args.out_dir + "/" + args.workload + ".trace.json";
    trace::write_json(trace_path);
    std::printf("[trace] wrote %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), trace::recorded(),
                static_cast<unsigned long long>(trace::dropped()));
  }
  for (auto it = out.begin(); it != out.end();) {
    if (std::isfinite(it->second.value)) {
      ++it;
      continue;
    }
    std::printf("metric %s is not finite\n", it->first.c_str());
    correct = false;
    it = out.erase(it);
  }
  if (out.empty()) correct = false;

  std::printf("%-34s %-10s %s\n", "metric", "unit", "value");
  for (const auto& [name, metric] : out)
    std::printf("%-34s %-10s %.6g\n", name.c_str(), metric.unit.c_str(),
                metric.value);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(metric.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
