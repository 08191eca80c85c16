#pragma once

#include <string>

#include "campaign/coordinator.h"

/// Campaign report writers.  The coordinator never holds per-seed rows,
/// so these writers stream the authoritative per-cell JSONs back from
/// disk: the campaign report splices each cell file's bytes verbatim into
/// the "cells" array (memory O(one cell)), and the CSV loads one cell at a
/// time through loadCellResult.  Cell files are byte-identical across
/// lanes and worker counts (wall times aside), so one sweep_check baseline
/// gates every execution mode; the layout is locked by tests/golden/.
namespace mcs::campaign {

/// Writes `BENCH_sweep_<name>.json` into `dir` by splicing the per-cell
/// JSONs under `cellDir` (the campaign's outDir); reports the path in
/// `pathOut`.  Fails if any cell file is missing or unreadable — a
/// completed cell guarantees its file, so a hole means the run did not
/// complete.
bool writeWorkQueueCampaignReport(const WorkQueueCampaign& campaign,
                                  const std::string& cellDir, const std::string& dir,
                                  std::string& pathOut, std::string& err);

/// Streams the long-form campaign CSV — one row per (cell, seed, metric)
/// with the campaign's axis keys as leading columns,
/// `cell,label,<axis...>,seed,metric,value` — from the per-cell JSONs,
/// one cell in memory at a time.  Metric names and labels pass through
/// csvEscape.
bool writeWorkQueueCampaignCsv(const WorkQueueCampaign& campaign, const std::string& cellDir,
                               const std::string& path, std::string& err);

}  // namespace mcs::campaign
