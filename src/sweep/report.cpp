#include "sweep/report.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <system_error>

#include "telemetry/probes.h"
#include "util/csv.h"
#include "util/stats.h"

namespace mcs {

Json summaryToJson(const Summary& s) {
  Json j = Json::object();
  j.set("count", s.count);
  j.set("mean", s.mean);
  j.set("stddev", s.stddev);
  j.set("ci95", s.ci95);
  j.set("min", s.min);
  j.set("p50", s.median);
  j.set("p95", s.p95);
  j.set("max", s.max);
  return j;
}

void stripWallTimes(Json& j) {
  if (j.isObject()) {
    for (auto& [key, value] : j.members()) {
      if (key == "wall_sec") {
        if (value.isNumber()) {
          value = Json(0.0);
          continue;
        }
        if (value.isObject()) {
          // The wall_sec summary block: keep the (deterministic) sample
          // count, zero the derived statistics.
          for (auto& [stat, v] : value.members()) {
            if (stat != "count" && v.isNumber()) v = Json(0.0);
          }
          continue;
        }
      }
      stripWallTimes(value);
    }
  } else if (j.isArray()) {
    for (Json& item : j.items()) stripWallTimes(item);
  }
}

namespace {

Json seedToJson(const SeedResult& r) {
  Json j = Json::object();
  j.set("seed", static_cast<double>(r.seed));
  j.set("deployed_n", r.deployedN);
  j.set("slots", static_cast<double>(r.slots));
  j.set("transmissions", static_cast<double>(r.transmissions));
  j.set("listens", static_cast<double>(r.listens));
  j.set("decodes", static_cast<double>(r.decodes));
  j.set("decode_rate", r.decodeRate);
  j.set("structure_slots", static_cast<double>(r.structureSlots));
  j.set("delivered", r.delivered);
  j.set("valid", toString(r.validity));
  j.set("wall_sec", r.wallSec);
  j.set("error", r.error);
  Json metrics = Json::object();
  for (const auto& [name, value] : r.metrics.entries()) metrics.set(name, value);
  j.set("metrics", std::move(metrics));
  return j;
}

bool seedFromJson(const Json& j, SeedResult& r, std::string& err) {
  if (!j.isObject()) {
    err = "per-seed entry is not an object";
    return false;
  }
  if (!j.intAt("seed", r.seed, err) || !j.intAt("deployed_n", r.deployedN, err) ||
      !j.intAt("slots", r.slots, err) || !j.intAt("transmissions", r.transmissions, err) ||
      !j.intAt("listens", r.listens, err) || !j.intAt("decodes", r.decodes, err) ||
      !j.intAt("structure_slots", r.structureSlots, err)) {
    return false;
  }
  r.decodeRate = j.numberAt("decode_rate");
  const Json* delivered = j.find("delivered");
  r.delivered = delivered != nullptr && delivered->asBool();
  const std::string validity = j.stringAt("valid", "unchecked");
  r.validity = validity == "valid"     ? OutcomeValidity::Valid
               : validity == "INVALID" ? OutcomeValidity::Invalid
                                       : OutcomeValidity::NotChecked;
  r.wallSec = j.numberAt("wall_sec");
  r.error = j.stringAt("error");
  if (const Json* metrics = j.find("metrics"); metrics != nullptr && metrics->isObject()) {
    for (const auto& [name, value] : metrics->members()) {
      r.metrics.set(name, value.asDouble());
    }
  }
  return true;
}

}  // namespace

Json cellToJson(const CellResult& cell) {
  Json j = Json::object();
  j.set("index", cell.cell.index);
  j.set("label", cell.cell.label);
  Json assigns = Json::object();
  for (const auto& [key, value] : cell.cell.assignments) assigns.set(key, value);
  j.set("assignments", std::move(assigns));
  j.set("scenario", describeScenario(cell.cell.spec));
  j.set("spec", scenarioToKeyValues(cell.cell.spec));
  j.set("seeds", cell.cell.spec.seeds);
  j.set("seed0", static_cast<double>(cell.cell.spec.seed0));
  j.set("failures", cell.batch.failures());
  j.set("delivered", cell.batch.deliveredCount());
  j.set("valid", cell.batch.validCount());
  j.set("invalid", cell.batch.invalidCount());
  Json summaries = Json::object();
  for (const auto& [name, summary] : cell.summaries()) {
    summaries.set(name, summaryToJson(summary));
  }
  j.set("summaries", std::move(summaries));
  Json perSeed = Json::array();
  for (const SeedResult& r : cell.batch.perSeed) perSeed.push_back(seedToJson(r));
  j.set("per_seed", std::move(perSeed));
  // Telemetry block only when the runner captured one (telemetry enabled):
  // default runs keep the historical cell layout byte-for-byte.
  if (!cell.telemetry.entries().empty()) {
    Json tm = Json::object();
    for (const auto& [name, value] : cell.telemetry.entries()) tm.set(name, value);
    j.set("telemetry", std::move(tm));
  }
  // Probe block only when probes were armed for this cell (same layout
  // guarantee): sketches + series round-trip losslessly, so a resumed cell
  // reproduces the freshly run probe bytes exactly.
  if (!cell.probes.empty()) j.set("probes", telemetry::probesToJson(cell.probes));
  return j;
}

bool writeCellFile(const CellResult& cell, const std::string& path, std::string& err) {
  // tmp + rename: a worker killed mid-write leaves `<path>.tmp` behind,
  // never a truncated cell_<i>.json that --resume would choke on.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    f << cellToJson(cell).dump() << '\n';
    f.flush();
    if (!f.good()) {
      err = "cannot write cell file \"" + tmp + "\"";
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    err = "cannot rename \"" + tmp + "\" to \"" + path + "\": " + ec.message();
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

bool loadCellResult(const std::string& path, CellResult& out, std::string& err) {
  Json j;
  if (!Json::parseFile(path, j, err)) return false;
  if (!j.isObject()) {
    err = path + ": not a JSON object";
    return false;
  }
  out = CellResult();
  if (!j.intAt("index", out.cell.index, err, -1) ||
      !j.intAt("seeds", out.batch.spec.seeds, err) ||
      !j.intAt("seed0", out.batch.spec.seed0, err)) {
    err = path + ": " + err;
    return false;
  }
  out.cell.label = j.stringAt("label");
  if (const Json* assigns = j.find("assignments"); assigns != nullptr && assigns->isObject()) {
    for (const auto& [key, value] : assigns->members()) {
      out.cell.assignments.emplace_back(key, value.asString());
    }
  }
  out.specFingerprint = j.stringAt("spec");
  const Json* perSeed = j.find("per_seed");
  if (perSeed == nullptr || !perSeed->isArray()) {
    err = path + ": missing per_seed array";
    return false;
  }
  for (const Json& entry : perSeed->items()) {
    SeedResult r;
    if (!seedFromJson(entry, r, err)) {
      err = path + ": " + err;
      return false;
    }
    out.batch.perSeed.push_back(std::move(r));
  }
  if (const Json* tm = j.find("telemetry"); tm != nullptr && tm->isObject()) {
    for (const auto& [name, value] : tm->members()) {
      out.telemetry.set(name, value.asDouble());
    }
  }
  if (const Json* probes = j.find("probes"); probes != nullptr) {
    if (!telemetry::probesFromJson(*probes, out.probes, err)) {
      err = path + ": probes: " + err;
      return false;
    }
  }
  return true;
}

std::vector<std::string> campaignAxisKeys(
    const std::vector<std::vector<std::pair<std::string, std::string>>>& assignments) {
  // Axis columns: union over cells in first-appearance order (cells of
  // one campaign share the same axis keys).
  std::vector<std::string> axisKeys;
  for (const auto& cellAssignments : assignments) {
    for (const auto& [key, value] : cellAssignments) {
      bool seen = false;
      for (const std::string& have : axisKeys) {
        if (have == key) {
          seen = true;
          break;
        }
      }
      if (!seen) axisKeys.push_back(key);
    }
  }
  return axisKeys;
}

void appendCellCsvRows(std::ostream& f, const CellResult& cell,
                       const std::vector<std::string>& axisKeys) {
  std::vector<std::string> prefix = {std::to_string(cell.cell.index), cell.cell.label};
  for (const std::string& key : axisKeys) {
    std::string value;
    for (const auto& [k, v] : cell.cell.assignments) {
      if (k == key) {
        value = v;
        break;
      }
    }
    prefix.push_back(value);
  }
  for (const SeedResult& r : cell.batch.perSeed) {
    const auto emit = [&](const std::string& metric, double value) {
      std::vector<std::string> cols = prefix;
      cols.push_back(std::to_string(r.seed));
      cols.push_back(metric);
      cols.push_back(formatDouble(value, 9));
      f << csvJoin(cols) << '\n';
    };
    emit("slots", static_cast<double>(r.slots));
    emit("decode_rate", r.decodeRate);
    emit("structure_slots", static_cast<double>(r.structureSlots));
    emit("delivered", r.delivered ? 1.0 : 0.0);
    emit("wall_sec", r.wallSec);
    for (const auto& [name, value] : r.metrics.entries()) emit(name, value);
  }
  // Per-cell summary rows: the batch mean and its 95% CI half-width,
  // one pair per summarized metric, with the literal words "mean" /
  // "ci95" in the seed column (long-form consumers filter on it).
  for (const auto& [metric, summary] : cell.summaries()) {
    const auto emitSummary = [&](const char* stat, double value) {
      std::vector<std::string> cols = prefix;
      cols.emplace_back(stat);
      cols.push_back(metric);
      cols.push_back(formatDouble(value, 9));
      f << csvJoin(cols) << '\n';
    };
    emitSummary("mean", summary.mean);
    emitSummary("ci95", summary.ci95);
  }
  // Per-cell telemetry rows (engine counters / phase timings attributed
  // to this cell), with the literal word "telemetry" in the seed column.
  // Absent unless the campaign ran with --metrics, so default CSVs are
  // unchanged.
  for (const auto& [name, value] : cell.telemetry.entries()) {
    std::vector<std::string> cols = prefix;
    cols.emplace_back("telemetry");
    cols.push_back(name);
    cols.push_back(formatDouble(value, 9));
    f << csvJoin(cols) << '\n';
  }
}

}  // namespace mcs
