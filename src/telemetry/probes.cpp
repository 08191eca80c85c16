#include "telemetry/probes.h"

#include <mutex>
#include <utility>
#include <vector>

namespace mcs::telemetry {

namespace {

struct ProbeRegistry {
  std::mutex mu;
  ProbeState state;
};

ProbeRegistry& probeReg() {
  // Leaked like the counter registry: probe sites may fire during static
  // destruction of late-exiting threads.
  static ProbeRegistry* r = new ProbeRegistry();
  return *r;
}

Json sketchToJson(const QuantileSketch& s) {
  Json out = Json::object();
  sketchBucketsToJson(s, out);
  return out;
}

/// A missing sketch member reads as an empty sketch (older blobs).
bool sketchFromJson(const Json* j, QuantileSketch& out, std::string& err) {
  if (j == nullptr || !j->isObject()) {
    out = QuantileSketch{};
    return true;
  }
  return sketchFromBucketsJson(*j, QuantileSketch::kDefaultAlpha, out, err);
}

}  // namespace

void probeSlot(std::uint64_t slot, const SlotProbeSample& sample) {
  ProbeRegistry& r = probeReg();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.state.marginDb.merge(sample.marginDb);
  r.state.nearDb.merge(sample.nearDb);
  r.state.farDb.merge(sample.farDb);
  r.state.series.recordSlot(slot, sample.listens, sample.decodes, sample.txIntents,
                            sample.marginDb);
}

void probeProgress(std::uint64_t slot, std::uint64_t num, std::uint64_t den) {
  ProbeRegistry& r = probeReg();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.state.series.recordProgress(slot, num, den);
}

ProbeState snapshotProbes() {
  ProbeRegistry& r = probeReg();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.state;
}

void resetProbes() {
  ProbeRegistry& r = probeReg();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.state = ProbeState();
}

Json probesToJson(const ProbeState& p) {
  Json out = Json::object();
  out.set("margin_db", sketchToJson(p.marginDb));
  out.set("near_db", sketchToJson(p.nearDb));
  out.set("far_db", sketchToJson(p.farDb));
  Json series = Json::object();
  series.set("span", static_cast<std::size_t>(p.series.span()));
  Json windows = Json::array();
  const std::size_t used = p.series.windowsUsed();
  for (std::size_t i = 0; i < used; ++i) {
    const SlotSeries::Window& w = p.series.windows()[i];
    Json jw = Json::object();
    jw.set("slots", static_cast<std::size_t>(w.slots));
    jw.set("listens", static_cast<std::size_t>(w.listens));
    jw.set("decodes", static_cast<std::size_t>(w.decodes));
    jw.set("tx", static_cast<std::size_t>(w.txIntents));
    jw.set("pnum", static_cast<std::size_t>(w.progressNum));
    jw.set("pden", static_cast<std::size_t>(w.progressDen));
    jw.set("margin", sketchToJson(w.margin));
    windows.push_back(std::move(jw));
  }
  series.set("windows", std::move(windows));
  out.set("series", std::move(series));
  return out;
}

bool probesFromJson(const Json& j, ProbeState& out, std::string& err) {
  out = ProbeState();
  if (!j.isObject()) return true;
  if (!sketchFromJson(j.find("margin_db"), out.marginDb, err) ||
      !sketchFromJson(j.find("near_db"), out.nearDb, err) ||
      !sketchFromJson(j.find("far_db"), out.farDb, err)) {
    return false;
  }
  const Json* series = j.find("series");
  if (series == nullptr || !series->isObject()) return true;
  std::vector<SlotSeries::Window> leading;
  if (const Json* windows = series->find("windows"); windows != nullptr && windows->isArray()) {
    leading.reserve(windows->size());
    for (const Json& jw : windows->items()) {
      SlotSeries::Window w;
      if (!jw.intAt("slots", w.slots, err) || !jw.intAt("listens", w.listens, err) ||
          !jw.intAt("decodes", w.decodes, err) || !jw.intAt("tx", w.txIntents, err) ||
          !jw.intAt("pnum", w.progressNum, err) || !jw.intAt("pden", w.progressDen, err) ||
          !sketchFromJson(jw.find("margin"), w.margin, err)) {
        err = "series window: " + err;
        return false;
      }
      leading.push_back(std::move(w));
    }
  }
  std::uint64_t span = 1;
  if (!series->intAt("span", span, err, std::uint64_t{1})) {
    err = "series: " + err;
    return false;
  }
  out.series = SlotSeries::fromState(span, std::move(leading));
  return true;
}

}  // namespace mcs::telemetry
