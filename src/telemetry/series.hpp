#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"

/// \file series.hpp
/// Columnar per-window time-series table — the longitudinal half of the
/// flight recorder. Where trace.hpp answers "how long" and metrics.hpp
/// "how many", a SeriesTable answers "how did the run evolve": one row
/// per accounting window over a fixed column schema, stored row-major in
/// one flat buffer so steady-state sampling allocates nothing.
///
/// Like the tracer and the counter registry, sampling is behind a global
/// switch (off by default) and may never perturb simulation output:
/// fleet timelines and campaign artifacts are byte-identical with
/// sampling on or off (pinned by tests/telemetry). Export is exact —
/// CSV cells and JSON numbers are "%.17g", so every finite double
/// round-trips bit for bit through to_csv() -> from_csv() and
/// to_json() -> from_json().

namespace greennfv::telemetry {

namespace series {

/// Global sampling switch, mirroring metrics::set_enabled. Off by
/// default; flipped by `series=1` CLI knobs and the observability tests.
/// Deliberately NOT a scenario key: ScenarioSpec::to_text() is the
/// campaign artifact's resume coordinate, so an observability toggle
/// must stay out of it.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

}  // namespace series

/// A fixed-schema table of doubles. Columns are named at construction
/// and never change; rows append one at a time. reserve_rows() sizes the
/// storage up front, after which append_row is allocation-free until the
/// reservation is exceeded.
class SeriesTable {
 public:
  explicit SeriesTable(std::vector<std::string> columns);

  /// Pre-allocates storage for `rows` rows.
  void reserve_rows(std::size_t rows);

  /// Appends one row; `n` must equal num_columns() (throws otherwise).
  void append_row(const double* values, std::size_t n);
  void append_row(const std::vector<double>& values);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  /// Index of `name`; throws std::invalid_argument when absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;
  [[nodiscard]] bool has_column(const std::string& name) const;
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// Header row plus one "%.17g" CSV line per row — exact text, suitable
  /// for golden pinning.
  [[nodiscard]] std::string to_csv() const;
  void write_csv(const std::string& path) const;

  /// {"schema": "greennfv.series.v1", "rows": N, "columns": [...],
  ///  "data": [[column 0 values], [column 1 values], ...]}.
  [[nodiscard]] Json to_json() const;
  void write_json(const std::string& path) const;

  /// Inverses of the exports. Throw std::invalid_argument on shape
  /// mismatches (wrong schema marker, ragged columns, unparseable cell).
  [[nodiscard]] static SeriesTable from_json(const Json& json);
  [[nodiscard]] static SeriesTable from_csv(const std::string& text);

 private:
  std::vector<std::string> columns_;
  std::vector<double> data_;  ///< row-major, rows_ * num_columns()
  std::size_t rows_ = 0;
};

}  // namespace greennfv::telemetry
