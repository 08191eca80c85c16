#pragma once

#include <string>
#include <vector>

#include "campaign/protocol.h"
#include "sweep/expand.h"
#include "sweep/runner.h"

/// Cell execution for the campaign executor (campaign/coordinator.h).
/// runCell is the one cell body both lanes share: the zero-worker lane
/// calls it in the coordinator's own process, and the forked lane's
/// worker loop calls it once per lease.  Forked workers start after
/// sweep expansion, so they already hold the full cell vector; the loop
/// reads LEASE, acks with HEARTBEAT, runs the cell, streams the RESULT
/// back, and ends on DONE (or EOF, meaning the coordinator died).
///
/// Because both lanes run the same body, a cell file is byte-identical
/// whichever lane or process wrote it (wall times aside), which is what
/// makes leases idempotent and crash re-leasing safe.
namespace mcs::campaign {

struct WorkerConfig {
  /// Campaign (sweep) name — names the cell-file directory.
  std::string campaign;
  std::string outDir = ".";
  /// ThreadPool lanes per cell batch (<= 1: sequential seeds).
  int threads = 1;
  /// Zero-based worker ordinal; tags trace events with pid = workerId + 1
  /// so merged traces keep one viewer lane per worker process.
  int workerId = 0;
  /// When non-empty (tracing armed), the worker dumps its trace ring to
  /// this file on DONE/EOF; the coordinator merges the per-worker files
  /// into the single --trace-out trace and deletes them.
  std::string tracePath;
};

/// The outcome of an executed or cache-loaded cell: its batch counters,
/// cellStats, telemetry and probes (moved out of `cell`).  wallSec is left
/// 0 — only a run that just happened has a cell wall time.
[[nodiscard]] CellOutcome cellOutcome(CellResult&& cell);

/// Runs one cell: its seed batch, the telemetry delta and probe snapshot
/// bracketing it, and the atomic cell-file write under cfg.outDir — the
/// file lands before `out` is filled, so a handed-over outcome always has
/// a complete cell file behind it.  Cells must run one at a time per
/// process (the probe reset/snapshot pair brackets exactly one cell).
/// False only when the cell file cannot be written.
bool runCell(const SweepCell& cell, const WorkerConfig& cfg, CellOutcome& out,
             std::string& err);

/// Runs the worker protocol loop over `fd` until DONE or EOF.  Returns
/// the child exit code: 0 on a clean DONE/EOF, nonzero on protocol or
/// I/O errors (the coordinator sees any nonzero exit as a worker death
/// and requeues the in-flight lease).
int campaignWorkerMain(int fd, const std::vector<SweepCell>& cells, const WorkerConfig& cfg);

}  // namespace mcs::campaign
