#pragma once

#include <string>
#include <vector>

#include "scenario/runner.h"
#include "sweep/expand.h"
#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "util/sketch.h"

/// Per-cell results of a sweep campaign: one cell's seed batch plus its
/// telemetry and probe attribution, its statistics, and the cell-file
/// path and resume-cache rules.  The campaign executor that produces and
/// consumes them is campaign/coordinator.h.
namespace mcs {

/// One executed (or resumed) cell: the cell plus its seed batch.
struct CellResult {
  SweepCell cell;
  /// The cell file's stored scenarioToKeyValues fingerprint (set by
  /// loadCellResult); resume only trusts a file whose fingerprint matches
  /// the freshly expanded cell exactly.
  std::string specFingerprint;
  ScenarioBatchResult batch;
  /// Telemetry delta attributed to this cell (counter totals plus
  /// per-phase timer seconds/counts, "tm."-prefixed), captured around the
  /// cell's seed batch when telemetry is enabled; empty otherwise — and
  /// empty means the cell JSON/CSV layout is byte-identical to the
  /// pre-telemetry engine.
  MetricMap telemetry;
  /// Probe aggregate attributed to this cell (margin/interference sketches
  /// plus the SlotSeries, telemetry/probes.h), captured by a
  /// resetProbes/snapshotProbes pair around the cell's seed batch when
  /// probes are armed; empty otherwise — and empty keeps the cell JSON
  /// byte-identical to the pre-probes layout.
  telemetry::ProbeState probes;

  /// The summary table the reports emit: slots, decode_rate,
  /// structure_slots, wall_sec, then every named protocol metric.
  /// Derived from cellStats(), so reports, RESULT frames, and store rows
  /// all read the same accumulators.
  [[nodiscard]] std::vector<std::pair<std::string, Summary>> summaries() const;
};

/// Per-metric streaming accumulators for one cell, in display order:
/// slots / decode_rate / structure_slots over non-failed seeds, wall_sec
/// over all seeds, then every named protocol metric over the non-failed
/// seeds that carry it.  The single per-cell statistics path — summaries()
/// renders it, the coordinator reduces it, the store writes it.
[[nodiscard]] NamedStats cellStats(const CellResult& cell);

/// The per-cell JSON path: where cells are written, resumed and reported from.
[[nodiscard]] std::string cellFilePath(const std::string& outDir, const std::string& campaign,
                                       int cellIndex);

/// Whether a loaded per-cell JSON is trustworthy as a cache of `cell`:
/// same label, same complete spec fingerprint (any base/fixed-key/axis
/// edit changes it), complete seed batch.  The coordinator's resume pass
/// trusts a cell file only when this holds.
[[nodiscard]] bool cellCacheMatches(const CellResult& cached, const SweepCell& cell);

/// Flattens a telemetry snapshot delta into `out` under a "tm." prefix
/// (counters as totals, timers as ".sec"/".count" pairs) — the per-cell
/// telemetry attribution campaign::runCell records.
void recordCellTelemetry(const telemetry::MetricsSnapshot& delta, MetricMap& out);

}  // namespace mcs
