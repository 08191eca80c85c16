#pragma once

#include <string>

#include "campaign/reduce.h"
#include "scenario/driver.h"
#include "telemetry/probes.h"
#include "util/json.h"

/// The coordinator <-> worker wire protocol: length-prefixed JSON frames
/// (util/framing.h) carrying one of four message kinds.
///
///   LEASE     coordinator -> worker   {"type": "lease", "cell": i}
///   HEARTBEAT worker -> coordinator   {"type": "heartbeat", "cell": i,
///                                      "queue_depth" echoed back in the
///                                      coordinator's progress line}
///   RESULT    worker -> coordinator   {"type": "result", "cell": i,
///                                      counters, "moments": {...}}
///   DONE      coordinator -> worker   {"type": "done"}  (drain + exit 0)
///
/// A LEASE names a cell by its sweep expansion index only — workers fork
/// from the coordinator *after* expansion, so both sides already hold the
/// identical cell vector and the frame stays tiny.  The HEARTBEAT is the
/// lease acknowledgement (sent before the batch runs; it feeds the
/// campaign.lease_rtt timer).  The RESULT carries the cell's per-metric
/// moment sums (count/mean/m2/min/max/sum per metric) so the coordinator
/// can fold the cell into the streaming tree reduction without reparsing
/// the cell file; the authoritative per-seed rows live in the atomically
/// written cell_<i>.json, which the worker flushes *before* sending
/// RESULT (a RESULT therefore guarantees a complete cell file on disk).
namespace mcs::campaign {

enum class FrameType { Lease, Heartbeat, Result, Done };

[[nodiscard]] const char* toString(FrameType t) noexcept;

struct Frame {
  FrameType type = FrameType::Done;
  /// The whole frame object ("type" plus payload fields).
  Json body = Json::object();
};

/// Builds a frame with "type" set; callers add payload fields to `body`.
[[nodiscard]] Frame makeFrame(FrameType t);

/// Serializes to the JSON bytes that go inside one wire frame.
[[nodiscard]] std::string encodeFrame(const Frame& f);

/// Parses frame bytes; false (with diagnostic) on malformed JSON or an
/// unknown "type".
[[nodiscard]] bool decodeFrame(const std::string& bytes, Frame& out, std::string& err);

/// Per-metric accumulator serialization for RESULT frames: each metric
/// as {"n", "mean", "m2", "min", "max", "sum"} — the full OnlineStats
/// state — plus "q", the streaming quantile state (exact sorted values
/// below the spill threshold, sketch buckets above).  JSON numbers use
/// shortest-round-trip formatting, so the coordinator-side merge is
/// bit-identical to merging the original accumulators in process.
/// Metric order is preserved (display order, NOT sorted): the store
/// writer binds its column schema to this order, so both lanes must hand
/// the coordinator the same sequence.
[[nodiscard]] Json momentsToJson(const MetricStats& stats);
/// The inverse; false with `err` when a count or sketch bucket is not an
/// integer in range.
[[nodiscard]] bool momentsFromJson(const Json& j, MetricStats& out, std::string& err);

/// One executed cell as the coordinator consumes it: batch counters,
/// the cell's wall time, its per-metric accumulators (cellStats order),
/// and the telemetry/probe attribution captured around its seed batch.
/// The forked lane ships it in a RESULT frame; the in-process lane hands
/// it over directly.  Per-seed rows are not here — they live in the cell
/// file, which is written before the outcome is handed over.
struct CellOutcome {
  int failures = 0;
  int delivered = 0;
  int valid = 0;
  int invalid = 0;
  double wallSec = 0.0;
  MetricStats stats;
  MetricMap telemetry;
  telemetry::ProbeState probes;
};

/// The RESULT frame for `cell`, and its inverse.  Both sides of the wire
/// encoding live here so the worker and the coordinator cannot disagree
/// on field names; a field missing from the frame decodes to its empty
/// default, and a count that is not an integer in range fails the decode
/// with `err`.
[[nodiscard]] Frame resultFrame(int cell, const CellOutcome& outcome);
[[nodiscard]] bool outcomeFromFrame(const Frame& frame, CellOutcome& out, std::string& err);

}  // namespace mcs::campaign
