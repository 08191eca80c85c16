#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "mcs.h"

/// Shared helpers for the experiment binaries (bench/exp_*).
///
/// Each binary regenerates one table/figure from DESIGN.md §4, prints a
/// self-describing table to stdout, AND records the same numbers through a
/// BenchReport, which writes machine-readable BENCH_<name>.json so future
/// changes can diff perf and results across commits.  All runs are seeded
/// and reproducible; pass --seed / --reps / size flags to vary.
namespace mcs::bench {

/// Monotonic wall-clock seconds (for throughput measurements).
/// Kept as the bench-local name; the one steady-clock read lives in
/// util/clock.h.
inline double now() { return nowSec(); }

/// Arms engine metrics (--metrics), decode-attribution/time-series probes
/// (--probes — implies --metrics, since the cause counters ride the
/// counter registry), and the slot-level trace recorder
/// (--trace-out=<path>) from the shared CLI flags.  Call before the run;
/// pair with finishTelemetryCli() after it.
inline void armTelemetryCli(const Args& args) {
  if (args.getBool("metrics")) telemetry::setEnabled(true);
  if (args.getBool("probes")) telemetry::setProbesEnabled(true);
  if (!args.get("trace-out").empty()) telemetry::setTraceEnabled(true);
}

/// After a run: prints the merged counter/timer table (timer totals with
/// their share of `wallSec` — shares can exceed 100% when several lanes
/// time the same phase concurrently) when metrics are armed, and writes
/// the Chrome trace file when --trace-out was given.  Returns false when
/// the trace write fails, so binaries can propagate it to the exit code.
/// Pass writeTrace=false when something else already wrote the trace file
/// (the campaign executor, which merges worker rings) — the counter/timer
/// table still prints.
inline bool finishTelemetryCli(const Args& args, double wallSec, bool writeTrace = true) {
  if (telemetry::enabled()) {
    const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
    std::printf("\ntelemetry counters:\n");
    for (const telemetry::CounterSample& c : snap.counters) {
      if (c.value != 0) {
        std::printf("  %-34s %llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      }
    }
    std::printf("telemetry timers (wall %.3fs):\n", wallSec);
    for (const telemetry::TimerSample& t : snap.timers) {
      if (t.count == 0) continue;
      const double pct = wallSec > 0.0 ? t.totalSec / wallSec * 100.0 : 0.0;
      std::printf("  %-34s count=%-10llu total=%8.3fs (%5.1f%% of wall) mean=%9.1fus "
                  "max=%9.1fus\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count), t.totalSec, pct,
                  t.count ? t.totalSec * 1e6 / static_cast<double>(t.count) : 0.0,
                  t.maxSec * 1e6);
    }
    std::fflush(stdout);
  }
  const std::string tracePath = args.get("trace-out");
  if (!tracePath.empty() && writeTrace) {
    std::string terr;
    if (!telemetry::writeTraceFile(tracePath, terr)) {
      std::fprintf(stderr, "%s\n", terr.c_str());
      return false;
    }
    std::printf("wrote %s (%zu trace events)\n", tracePath.c_str(),
                telemetry::traceEventCount());
    std::fflush(stdout);
  }
  return true;
}

/// Accumulates experiment output as ordered key -> (number | string) rows
/// plus run-level metadata, and serializes to BENCH_<name>.json:
///
///   {"name": "...", "meta": {...}, "rows": [{...}, ...]}
///
/// Numbers use shortest round-trip formatting; NaN/inf serialize as null.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  BenchReport& meta(const std::string& key, double v) { return put(meta_, key, v); }
  BenchReport& meta(const std::string& key, const std::string& v) { return put(meta_, key, v); }

  /// Starts a new row; follow with col() calls.
  BenchReport& row() {
    rows_.emplace_back();
    return *this;
  }
  BenchReport& col(const std::string& key, double v) { return put(currentRow(), key, v); }
  BenchReport& col(const std::string& key, const std::string& v) {
    return put(currentRow(), key, v);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::string json() const {
    std::string out = "{\"name\": ";
    appendString(out, name_);
    out += ", \"meta\": ";
    appendObject(out, meta_);
    out += ", \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ", ";
      appendObject(out, rows_[i]);
    }
    out += ']';
    // Every BENCH_*.json grows a "telemetry" block when metrics are armed
    // (--metrics); disabled runs keep the historical two-key layout.
    if (telemetry::enabled()) {
      const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
      if (!snap.empty()) {
        out += ", \"telemetry\": ";
        out += snap.toJson().dump();
      }
    }
    out += "}\n";
    return out;
  }

  /// Writes BENCH_<name>.json into `dir` and reports the path on stdout.
  /// Returns false (after reporting on stderr) when the write failed, so
  /// binaries can propagate the failure to their exit code.
  [[nodiscard]] bool write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream f(path);
    f << json();
    f.flush();
    if (!f.good()) {
      std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    std::fflush(stdout);
    return true;
  }

 private:
  struct Value {
    bool isNumber = false;
    double number = 0.0;
    std::string text;
  };
  using Object = std::vector<std::pair<std::string, Value>>;

  /// col() before any row() starts one implicitly rather than hitting
  /// undefined behavior on an empty vector.
  Object& currentRow() {
    if (rows_.empty()) rows_.emplace_back();
    return rows_.back();
  }

  BenchReport& put(Object& obj, const std::string& key, double v) {
    obj.push_back({key, Value{true, v, {}}});
    return *this;
  }
  BenchReport& put(Object& obj, const std::string& key, const std::string& v) {
    obj.push_back({key, Value{false, 0.0, v}});
    return *this;
  }

  static void appendString(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  static void appendNumber(std::string& out, double v) {
    if (!std::isfinite(v)) {
      out += "null";
      return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
  }

  static void appendObject(std::string& out, const Object& obj) {
    out += '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i > 0) out += ", ";
      appendString(out, obj[i].first);
      out += ": ";
      if (obj[i].second.isNumber) {
        appendNumber(out, obj[i].second.number);
      } else {
        appendString(out, obj[i].second.text);
      }
    }
    out += '}';
  }

  std::string name_;
  Object meta_;
  std::vector<Object> rows_;
};

/// Uniform deployment at a fixed node density (nodes per unit area),
/// so that Delta stays roughly constant across n (E2/E3 sweeps).
inline Network uniformAtDensity(int n, double density, std::uint64_t seed, Tuning tuning = {}) {
  Rng rng(seed);
  const double side = std::sqrt(static_cast<double>(n) / density);
  auto pts = deployUniformSquare(n, side, rng);
  return Network(std::move(pts), SinrParams{}, tuning);
}

/// Dense square deployment (cluster sizes >> log n: the Delta/F regime).
inline Network densePatch(int n, double side, std::uint64_t seed, Tuning tuning = {}) {
  Rng rng(seed);
  auto pts = deployUniformSquare(n, side, rng);
  return Network(std::move(pts), SinrParams{}, tuning);
}

inline std::vector<double> randomValues(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n));
  for (double& x : values) x = rng.uniform();
  return values;
}

/// printf-style row helper keeping tables readable in a terminal.
template <class... Ts>
void row(const char* fmt, Ts... args) {
  std::printf(fmt, args...);
  std::printf("\n");
  std::fflush(stdout);
}

inline void header(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
  std::fflush(stdout);
}

}  // namespace mcs::bench
