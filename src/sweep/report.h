#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sweep/runner.h"
#include "util/json.h"

/// Per-cell serialization: the cell JSON every campaign writes (the resume
/// substrate, and the bytes the campaign report splices in), its loader,
/// and the per-cell CSV rows.  The campaign-level report and CSV writers
/// (campaign/report.h) are built from these; their layout is locked by a
/// golden-file test, and sweep_check consumes the report, so layout
/// changes need a baseline refresh.
namespace mcs {

/// One cell as JSON: identity (index/label/assignments/scenario), batch
/// counters, the per-metric summary table, and the per-seed rows.
[[nodiscard]] Json cellToJson(const CellResult& cell);

/// A Summary as the JSON object the cell "summaries" block uses
/// (count/mean/stddev/ci95/min/p50/p95/max).  Shared with the store query
/// output, which prints group summaries in exactly this layout.
[[nodiscard]] Json summaryToJson(const Summary& s);

/// Zeroes every wall-clock field of a cell or campaign JSON tree in
/// place (per-seed "wall_sec" values, the "wall_sec" summary block, and
/// campaign meta wall time).  Wall time is the single nondeterministic
/// field in an otherwise bit-reproducible report, so the byte-identity
/// tests and tooling compare dumps after this canonicalization.
void stripWallTimes(Json& j);

/// Writes one per-cell JSON (parent directory must exist).  The write is
/// atomic — bytes land in `<path>.tmp` and rename() into place — so a
/// killed worker can leave a stale temp file but never a truncated
/// `cell_<i>.json` for --resume to misread.
bool writeCellFile(const CellResult& cell, const std::string& path, std::string& err);

/// Parses a per-cell JSON back into a CellResult (batch fully populated,
/// summaries recomputable).  The inverse of writeCellFile.
bool loadCellResult(const std::string& path, CellResult& out, std::string& err);

/// The axis-key union over `assignments` lists in first-appearance order
/// (the CSV's leading columns), taken from the coordinator's cell records
/// so the header is known before any cell file is read.
[[nodiscard]] std::vector<std::string> campaignAxisKeys(
    const std::vector<std::vector<std::pair<std::string, std::string>>>& assignments);

/// Appends one cell's CSV rows to an open stream under the given axis-key
/// header: per-seed rows, then the per-cell mean/ci95 summary rows, then
/// telemetry rows.
void appendCellCsvRows(std::ostream& f, const CellResult& cell,
                       const std::vector<std::string>& axisKeys);

}  // namespace mcs
