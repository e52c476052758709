#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file workloads.hpp
/// The benchmark's four workloads. Each one is built from a seed (the
/// timed set-up), runs one operation at a time, checks the operation's
/// outputs, and reports the host time the operation spent per unit of its
/// work. A traced operation also returns every per-layer metric: measured
/// around the calls it makes into each library layer, or 0 for a layer the
/// workload does not call.

namespace perfbench {

/// One end-to-end or per-layer metric value.
struct Metric {
  std::string unit;
  double value = 0.0;
};

/// What one operation measured and whether its outputs held up.
struct OpOutcome {
  /// Host CPU seconds (user + system) of the work an untraced operation
  /// does. The benchmark is single-threaded, so this is its wall time minus
  /// the time the host took the CPU away, which is the noisier part on a
  /// shared machine. In a traced operation it excludes the layer replay,
  /// so it compares with the untraced operation to give the overhead.
  double host_s = 0.0;
  /// Units of work the operation did (see Workload::work_unit); the
  /// end-to-end `us_per_unit` is host_s in microseconds over this.
  double work_units = 0.0;
  /// The workload's own headline rate (see Workload::rate_metric), from
  /// host_s. Logged for context, next to the sim_* outputs.
  double rate = 0.0;
  /// sim_* outputs of the evaluated model (empty for timeline-only work and
  /// for train-ee). Logged for context.
  std::map<std::string, Metric> sim;
  /// Failed output checks; non-empty makes the operation a failure.
  std::vector<std::string> violations;
  /// Every model's EvalResult (or the history totals) at %.17g: repeated
  /// operations must reproduce it exactly.
  std::string result_text;

  // --- traced operations only ----------------------------------------------
  /// Wall seconds of the whole traced operation, layer replay included.
  double traced_wall_s = 0.0;
  /// Sum of layer self times inside traced_wall_s.
  double covered_s = 0.0;
  std::map<std::string, Metric> layers;
  /// Layer metrics that could not be read (a program counter missing, or
  /// the replay split unavailable), with the reason.
  std::map<std::string, std::string> absent;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // Workloads hand callbacks that point back at themselves to the library.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// What one unit of work is, for the log.
  [[nodiscard]] virtual const char* work_unit() const = 0;
  /// Name and unit of the workload's headline rate, for the log.
  [[nodiscard]] virtual const char* rate_metric() const = 0;
  [[nodiscard]] virtual const char* rate_unit() const = 0;

  /// Builds the reference data the output checks compare against. Part
  /// of the timed set-up.
  virtual void prepare_checks() {}

  /// Runs, times and checks one operation. Throws on a library error.
  virtual OpOutcome run(bool traced) = 0;

  /// The simulated history as canonical text (timeline_to_text), for the
  /// digest; empty when the workload has no fleet history.
  [[nodiscard]] virtual std::string history_text() const = 0;

  /// Context lines (every model's headline numbers) for the log.
  [[nodiscard]] virtual std::string describe(const OpOutcome& op) const = 0;
};

/// Process CPU seconds (user + system). The benchmark is single-threaded,
/// so a difference of two readings is its wall time without the time the
/// host gave the CPU away.
[[nodiscard]] double cpu_seconds();

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the named workload's inputs from `seed` — the benchmark's set-up.
/// Artifacts go under `out_dir`. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const std::string& out_dir);

}  // namespace perfbench
