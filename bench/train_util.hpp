#pragma once

#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "core/greennfv.hpp"
#include "scenario/presets.hpp"

/// \file train_util.hpp
/// Shared harness for the training-progress figures (Figs 6-8): resolves
/// the evaluation scenario (paper-default unless overridden), trains the
/// DDPG policy under the figure's SLA while recording every per-episode
/// panel, and prints the panels as one downsampled table.

namespace greennfv::bench {

/// Resolves the scenario for a training figure. Training figures default
/// to 800 episodes (the paper trains its curves long past convergence);
/// every other knob comes from the scenario machinery.
inline scenario::ScenarioSpec training_scenario(const Config& config) {
  Config defaults = config;
  if (!defaults.has("episodes")) defaults.set("episodes", "800");
  return scenario::resolve(defaults);
}

/// Trains and prints the Fig 6/7/8-style panel table. Returns the result.
inline core::TrainResult run_training_figure(const std::string& figure,
                                             const std::string& title,
                                             core::SlaKind sla_kind,
                                             const Config& config,
                                             bool show_efficiency,
                                             const std::string& csv_name) {
  const scenario::ScenarioSpec spec = training_scenario(config);
  banner(figure, title, config, spec.name);
  const core::TrainerConfig trainer_config =
      spec.trainer_config(spec.sla(sla_kind));

  telemetry::Recorder curves;
  core::GreenNfvTrainer trainer(trainer_config);
  const core::TrainResult result = trainer.train(&curves);

  const std::size_t points =
      static_cast<std::size_t>(config.get_int("table_rows", 20));
  const auto col = [&](const std::string& name) {
    return curves.series(name).downsample(points);
  };
  const TimeSeries t = col("throughput_gbps");
  const TimeSeries e = col("energy_j");
  const TimeSeries eff = col("efficiency");
  const TimeSeries cpu = col("cpu_usage_pct");
  const TimeSeries freq = col("core_freq_ghz");
  const TimeSeries llc = col("llc_alloc_pct");
  const TimeSeries dma = col("dma_mib");
  const TimeSeries batch = col("batch");

  std::vector<std::string> header = {"episode", "Gbps", "Energy(J)"};
  if (show_efficiency) header.push_back("Efficiency");
  header.insert(header.end(),
                {"CPU(%)", "Freq(GHz)", "LLC(%)", "DMA(MiB)", "Batch"});
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::vector<std::string> row = {format_double(t.times()[i], 0),
                                    format_double(t.values()[i], 2),
                                    format_double(e.values()[i], 0)};
    if (show_efficiency)
      row.push_back(format_double(eff.values()[i], 2));
    row.insert(row.end(), {format_double(cpu.values()[i], 0),
                           format_double(freq.values()[i], 2),
                           format_double(llc.values()[i], 0),
                           format_double(dma.values()[i], 1),
                           format_double(batch.values()[i], 0)});
    rows.push_back(std::move(row));
  }
  print_table(header, rows);

  std::printf(
      "\nconverged tail (last 10%% of %d episodes): %.2f Gbps, %.0f J, "
      "efficiency %.2f, reward %.3f  (%lld learner steps)\n",
      result.episodes, result.tail_gbps, result.tail_energy_j,
      result.tail_efficiency, result.tail_reward,
      static_cast<long long>(result.train_steps));
  dump_csv(curves, csv_name);
  return result;
}

}  // namespace greennfv::bench
