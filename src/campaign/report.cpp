#include "campaign/report.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "sweep/report.h"
#include "sweep/runner.h"
#include "telemetry/telemetry.h"
#include "util/csv.h"
#include "util/json.h"

namespace mcs::campaign {

namespace {

/// Reads one cell file's JSON bytes, trimmed of trailing whitespace so
/// they splice cleanly into an enclosing array.
bool readCellBytes(const std::string& path, std::string& bytes, std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot open cell file \"" + path + "\"";
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  bytes = buf.str();
  while (!bytes.empty() && (bytes.back() == '\n' || bytes.back() == '\r' ||
                            bytes.back() == ' ' || bytes.back() == '\t')) {
    bytes.pop_back();
  }
  if (bytes.empty()) {
    err = "cell file \"" + path + "\" is empty";
    return false;
  }
  return true;
}

}  // namespace

bool writeWorkQueueCampaignReport(const WorkQueueCampaign& campaign,
                                  const std::string& cellDir, const std::string& dir,
                                  std::string& pathOut, std::string& err) {
  pathOut = dir + "/BENCH_sweep_" + campaign.name + ".json";
  std::ofstream f(pathOut);
  if (!f) {
    err = "cannot write campaign report \"" + pathOut + "\"";
    return false;
  }

  // The envelope follows Json::dump's `"key": value, ` formatting, with
  // the cells array spliced from the per-cell files instead of
  // re-serialized: the cell file already holds cellToJson's canonical
  // bytes, whichever lane or process wrote it.
  Json meta = Json::object();
  meta.set("sweep", campaign.name);
  meta.set("base", campaign.baseName);
  meta.set("description", campaign.description);
  meta.set("total_cells", campaign.totalCells);
  meta.set("shard_index", campaign.shardIndex);
  meta.set("shard_count", campaign.shardCount);
  meta.set("cells_in_shard", static_cast<int>(campaign.cells.size()));
  meta.set("cells_cached", campaign.cachedCells());
  meta.set("failures", campaign.failures());
  meta.set("wall_sec", campaign.wallSec);

  f << "{\"name\": " << Json("sweep_" + campaign.name).dump() << ", \"kind\": \"sweep\""
    << ", \"meta\": " << meta.dump() << ", \"cells\": [";
  bool first = true;
  for (const CellRecord& rec : campaign.cells) {
    std::string bytes;
    if (!readCellBytes(cellFilePath(cellDir, campaign.name, rec.cell.index), bytes, err)) {
      return false;
    }
    if (!first) f << ", ";
    first = false;
    f << bytes;
  }
  f << ']';
  // Campaign-wide probe aggregate, between "cells" and "telemetry", present
  // only when some cell captured probes: the tree-reduced root of the
  // per-cell states (probe folds commute, so completion order cannot
  // matter).
  if (!campaign.probes.empty()) {
    f << ", \"probes\": " << telemetry::probesToJson(campaign.probes).dump();
  }
  // Campaign-wide counter/timer totals, present only when telemetry is
  // enabled — the default report layout stays byte-identical.
  if (telemetry::enabled()) {
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    if (!snap.empty()) f << ", \"telemetry\": " << snap.toJson().dump();
  }
  f << "}\n";
  f.flush();
  if (!f.good()) {
    err = "cannot write campaign report \"" + pathOut + "\"";
    return false;
  }
  return true;
}

bool writeWorkQueueCampaignCsv(const WorkQueueCampaign& campaign, const std::string& cellDir,
                               const std::string& path, std::string& err) {
  std::ofstream f(path);
  if (!f) {
    err = "cannot write campaign CSV \"" + path + "\"";
    return false;
  }
  // Axis keys come from the expansion the coordinator retained, so the
  // header is available before any cell file is touched.
  std::vector<std::vector<std::pair<std::string, std::string>>> assignments;
  assignments.reserve(campaign.cells.size());
  for (const CellRecord& rec : campaign.cells) assignments.push_back(rec.cell.assignments);
  const std::vector<std::string> axisKeys = campaignAxisKeys(assignments);

  std::vector<std::string> header = {"cell", "label"};
  for (const std::string& key : axisKeys) header.push_back(key);
  header.insert(header.end(), {"seed", "metric", "value"});
  f << csvJoin(header) << '\n';

  for (const CellRecord& rec : campaign.cells) {
    CellResult cell;
    std::string loadErr;
    if (!loadCellResult(cellFilePath(cellDir, campaign.name, rec.cell.index), cell, loadErr)) {
      err = loadErr;
      return false;
    }
    appendCellCsvRows(f, cell, axisKeys);
  }
  f.flush();
  if (!f.good()) {
    err = "cannot write campaign CSV \"" + path + "\"";
    return false;
  }
  return true;
}

}  // namespace mcs::campaign
