#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "scenario/scenario_spec.hpp"

/// \file campaign_spec.hpp
/// A campaign declares a *sweep* over the Scenario/Experiment API: a base
/// scenario (or a list of named presets), per-key override grids
/// ("sweep.offered_gbps=5,10,20,40"), a roster filter, and a seed set.
/// Every figure in the paper is really such a sweep — Fig. 9 sweeps
/// schedulers, Fig. 11 sweeps traffic rates, the ablation sweeps knob
/// subsets — and expand() turns the declaration into a deterministic run
/// matrix the campaign runner executes in parallel.

namespace greennfv::campaign {

/// One override grid: a scenario key and the values it sweeps over.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One fully-resolved cell×seed of the matrix. `index` is the position in
/// deterministic matrix order (scenario axis outermost, then each sweep
/// axis in key order, seeds innermost) — the order aggregation and
/// artifact listings use regardless of execution interleaving.
struct RunSpec {
  std::size_t index = 0;
  /// Filesystem-safe unique id: "<scenario>[__<key>-<value>...]__s<seed>".
  std::string run_id;
  /// run_id minus the seed suffix — the aggregation cell this run's seed
  /// belongs to.
  std::string cell_id;
  std::string scenario_name;
  /// The axis assignments this cell received (echoed into artifacts).
  std::vector<std::pair<std::string, std::string>> assignments;
  std::uint64_t seed = 0;
  /// The scenario the run executes, overrides and seed applied.
  scenario::ScenarioSpec scenario;
};

struct CampaignSpec {
  std::string name = "custom";
  /// Preset listings only; not serialized.
  std::string description;

  /// Scenario axis: named presets, evaluated in order. Ignored when
  /// `base` is set.
  std::vector<std::string> scenarios = {"paper-default"};
  /// Explicit base spec (programmatic use: a bench hands its resolved
  /// scenario straight to the campaign). Not serialized.
  std::optional<scenario::ScenarioSpec> base;

  /// Scenario-key overrides applied to every run before the axes.
  Config overrides;
  /// Override grids, kept sorted by key (deterministic matrix order).
  std::vector<SweepAxis> axes;

  /// Roster filter (comma-separated model names for
  /// scenario::filter_roster); empty runs the full default roster.
  std::string models;

  /// Seed axis. Explicit seeds win; otherwise `auto_seeds` values are
  /// derived per cell from the cell's base seed: the first is the base
  /// seed itself (a 1-seed campaign reproduces the single-run numbers bit
  /// for bit), the rest come from an Rng stream over it.
  std::vector<std::uint64_t> seeds;
  int auto_seeds = 1;

  /// Expands to the deterministic run matrix. Resolves every cell's
  /// scenario (preset/base + overrides + axis assignment + seed) and
  /// validates it — a bad cell fails here, before anything runs.
  [[nodiscard]] std::vector<RunSpec> expand() const;

  /// The per-cell seed list (before the seed axis is crossed in).
  [[nodiscard]] std::vector<std::uint64_t> seeds_for(
      std::uint64_t base_seed) const;

  /// Overwrites fields from `config`: campaign keys (scenarios=, models=,
  /// seeds=, auto_seeds=, name=), "sweep.<scenario-key>=v1,v2,..." axes,
  /// and plain scenario keys as base overrides. Unknown keys throw.
  void apply(const Config& config);

  /// Serializes to "key=value" lines; apply() on a default spec
  /// reproduces this spec (base excepted — it is programmatic only).
  [[nodiscard]] std::string to_text() const;

  /// Campaign-file IO: the to_text() format, one key=value per line, '#'
  /// comments, read by Config::from_lines (values may contain commas).
  void save(const std::string& path) const;
  [[nodiscard]] static CampaignSpec load(const std::string& path);

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  /// Campaign-level keys apply() understands (the scenario vocabulary and
  /// "sweep." axes come on top).
  [[nodiscard]] static const std::vector<std::string>& known_keys();
};

/// Lowercased filesystem-safe token: alnum kept, '.' and '-' kept,
/// everything else collapsed to '_'.
[[nodiscard]] std::string sanitize_token(const std::string& text);

}  // namespace greennfv::campaign
