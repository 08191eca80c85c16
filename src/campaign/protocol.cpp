#include "campaign/protocol.h"

#include <cstddef>

namespace mcs::campaign {

const char* toString(FrameType t) noexcept {
  switch (t) {
    case FrameType::Lease: return "lease";
    case FrameType::Heartbeat: return "heartbeat";
    case FrameType::Result: return "result";
    case FrameType::Done: return "done";
  }
  return "done";
}

Frame makeFrame(FrameType t) {
  Frame f;
  f.type = t;
  f.body.set("type", toString(t));
  return f;
}

std::string encodeFrame(const Frame& f) { return f.body.dump(); }

bool decodeFrame(const std::string& bytes, Frame& out, std::string& err) {
  if (!Json::parse(bytes, out.body, err)) return false;
  if (!out.body.isObject()) {
    err = "frame is not a JSON object";
    return false;
  }
  const std::string type = out.body.stringAt("type");
  if (type == "lease") {
    out.type = FrameType::Lease;
  } else if (type == "heartbeat") {
    out.type = FrameType::Heartbeat;
  } else if (type == "result") {
    out.type = FrameType::Result;
  } else if (type == "done") {
    out.type = FrameType::Done;
  } else {
    err = "unknown frame type \"" + type + "\"";
    return false;
  }
  return true;
}

namespace {

Json quantileStateToJson(const StreamingQuantiles& q) {
  Json out = Json::object();
  if (!q.sketchMode()) {
    out.set("k", "exact");
    Json values = Json::array();
    for (double v : q.sortedExactValues()) values.push_back(v);
    out.set("v", std::move(values));
    return out;
  }
  const QuantileSketch& s = q.sketch();
  out.set("k", "sketch");
  out.set("a", s.alpha());
  sketchBucketsToJson(s, out);
  return out;
}

bool quantileStateFromJson(const Json* j, StreamingQuantiles& out, std::string& err) {
  if (j == nullptr || !j->isObject()) {
    out = StreamingQuantiles{};
    return true;
  }
  if (j->stringAt("k") == "exact") {
    std::vector<double> values;
    if (const Json* v = j->find("v"); v != nullptr && v->isArray()) {
      values.reserve(v->size());
      for (const Json& x : v->items()) values.push_back(x.asDouble());
    }
    out = StreamingQuantiles::fromExact(QuantileSketch::kDefaultAlpha,
                                        StreamingQuantiles::kDefaultExactThreshold,
                                        std::move(values));
    return true;
  }
  QuantileSketch sketch;
  if (!sketchFromBucketsJson(*j, j->numberAt("a", QuantileSketch::kDefaultAlpha), sketch, err)) {
    return false;
  }
  out = StreamingQuantiles::fromSketch(StreamingQuantiles::kDefaultExactThreshold,
                                       std::move(sketch));
  return true;
}

}  // namespace

Json momentsToJson(const MetricStats& stats) {
  Json j = Json::object();
  for (const auto& [name, s] : stats) {
    Json m = Json::object();
    m.set("n", s.moments.count());
    m.set("mean", s.moments.mean());
    m.set("m2", s.moments.m2());
    m.set("min", s.moments.min());
    m.set("max", s.moments.max());
    m.set("sum", s.moments.sum());
    m.set("q", quantileStateToJson(s.quantiles));
    j.set(name, std::move(m));
  }
  return j;
}

bool momentsFromJson(const Json& j, MetricStats& out, std::string& err) {
  out.clear();
  if (!j.isObject()) return true;
  out.reserve(j.size());
  for (const auto& [name, m] : j.members()) {
    StreamingStats s;
    std::size_t count = 0;
    if (!m.intAt("n", count, err) || !quantileStateFromJson(m.find("q"), s.quantiles, err)) {
      err = "metric \"" + name + "\": " + err;
      return false;
    }
    s.moments = OnlineStats::fromMoments(count, m.numberAt("mean"), m.numberAt("m2"),
                                         m.numberAt("min"), m.numberAt("max"),
                                         m.numberAt("sum"));
    out.emplace_back(name, std::move(s));
  }
  return true;
}

Frame resultFrame(int cell, const CellOutcome& outcome) {
  Frame f = makeFrame(FrameType::Result);
  f.body.set("cell", cell);
  f.body.set("failures", outcome.failures);
  f.body.set("delivered", outcome.delivered);
  f.body.set("valid", outcome.valid);
  f.body.set("invalid", outcome.invalid);
  f.body.set("wall_sec", outcome.wallSec);
  f.body.set("moments", momentsToJson(outcome.stats));
  if (!outcome.telemetry.entries().empty()) {
    Json tm = Json::object();
    for (const auto& [name, value] : outcome.telemetry.entries()) tm.set(name, value);
    f.body.set("telemetry", std::move(tm));
  }
  // Probe state round-trips losslessly through JSON, so the store rows
  // and the reduction match the in-process lane's bytes.
  if (!outcome.probes.empty()) f.body.set("probes", telemetry::probesToJson(outcome.probes));
  return f;
}

bool outcomeFromFrame(const Frame& frame, CellOutcome& out, std::string& err) {
  const Json& b = frame.body;
  out = CellOutcome();
  if (!b.intAt("failures", out.failures, err) || !b.intAt("delivered", out.delivered, err) ||
      !b.intAt("valid", out.valid, err) || !b.intAt("invalid", out.invalid, err)) {
    return false;
  }
  out.wallSec = b.numberAt("wall_sec");
  if (const Json* moments = b.find("moments")) {
    if (!momentsFromJson(*moments, out.stats, err)) return false;
  }
  if (const Json* tm = b.find("telemetry"); tm != nullptr && tm->isObject()) {
    for (const auto& [name, value] : tm->members()) out.telemetry.set(name, value.asDouble());
  }
  if (const Json* probes = b.find("probes")) {
    if (!telemetry::probesFromJson(*probes, out.probes, err)) {
      err = "probes: " + err;
      return false;
    }
  }
  return true;
}

}  // namespace mcs::campaign
