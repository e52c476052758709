#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/fs_util.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "scenario/presets.hpp"
#include "telemetry/recorder.hpp"

/// \file bench_util.hpp
/// Shared plumbing for the figure-reproduction binaries: banner printing
/// (with the resolved scenario name), `help=1` key listings, table
/// emission, and CSV dumps (routed under out/). Timing lives in
/// perfbench/, not here.

namespace greennfv::bench {

/// Prints the figure banner (id, description, resolved scenario,
/// parameter echo).
inline void banner(const std::string& figure, const std::string& title,
                   const Config& config,
                   const std::string& scenario_name = "") {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  if (!scenario_name.empty())
    std::printf("scenario: %s\n", scenario_name.c_str());
  if (!config.entries().empty()) {
    std::printf("overrides:");
    for (const auto& [key, value] : config.entries())
      std::printf(" %s=%s", key.c_str(), value.c_str());
    std::printf("\n");
  }
  std::printf("=============================================================\n");
}

/// Appends binary-specific keys to a base vocabulary (typically
/// ScenarioSpec::known_keys() plus "help").
inline std::vector<std::string> keys_plus(
    std::vector<std::string> base,
    std::initializer_list<const char*> extra) {
  for (const char* key : extra) base.emplace_back(key);
  return base;
}

/// When `help=1` was passed: lists every key the binary understands (and
/// the scenario presets when the binary is scenario-driven) and returns
/// true so main can exit.
inline bool help_requested(const Config& config,
                           std::vector<std::string> keys) {
  if (!config.get_bool("help", false)) return false;
  const bool scenario_driven =
      std::find(keys.begin(), keys.end(), "scenario") != keys.end();
  scenario::print_cli_help(std::move(keys), scenario_driven);
  return true;
}

/// help_requested + Config::check_known in one call: returns true when
/// main should exit (help printed); exits with status 2 on mistyped keys.
inline bool handle_cli(const Config& config,
                       const std::vector<std::string>& keys,
                       const std::vector<std::string>& prefixes = {}) {
  if (help_requested(config, keys)) return true;
  std::vector<std::string> known = keys;
  known.emplace_back("help");
  try {
    config.check_known(known, prefixes);
  } catch (const std::exception& e) {
    GNFV_LOG_ERROR("bench") << e.what();
    std::exit(2);
  }
  return false;
}

/// Emits a table to stdout.
inline void print_table(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::fputs(render_table(header, rows).c_str(), stdout);
}

/// Dumps a recorder to out/bench_<name>.csv (best effort: prints a warning
/// instead of failing the bench when the directory is not writable).
inline void dump_csv(const telemetry::Recorder& recorder,
                     const std::string& name) {
  if (recorder.num_series() == 0) return;
  try {
    const std::string path = out_path("bench_" + name + ".csv");
    recorder.to_csv(path);
    std::printf("[csv] wrote %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::printf("[csv] skipped (%s)\n", e.what());
  }
}

/// Probes whether out/ artifacts can be written. Figure benches are
/// best-effort about their outputs (an unwritable directory must cost a
/// warning, not the evaluation): when this returns false they run their
/// campaigns without an artifact store.
inline bool out_writable() {
  try {
    const std::string probe = out_path(".writable_probe");
    write_file_atomic(probe, "");
    std::remove(probe.c_str());
    return true;
  } catch (const std::exception& e) {
    std::printf("[artifacts] disabled (%s)\n", e.what());
    return false;
  }
}

/// Downsamples a series to `points` rows of (x, value) cells.
inline std::vector<std::vector<std::string>> series_rows(
    const TimeSeries& series, std::size_t points, int decimals = 3) {
  const TimeSeries d = series.downsample(points);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    rows.push_back({format_double(d.times()[i], 0),
                    format_double(d.values()[i], decimals)});
  }
  return rows;
}

}  // namespace greennfv::bench
