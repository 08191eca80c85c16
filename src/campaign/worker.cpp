#include "campaign/worker.h"

#include <filesystem>
#include <system_error>

#include "sweep/report.h"
#include "sweep/runner.h"
#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/clock.h"
#include "util/framing.h"
#include "util/proc.h"

namespace mcs::campaign {

CellOutcome cellOutcome(CellResult&& cell) {
  CellOutcome out;
  out.failures = cell.batch.failures();
  out.delivered = cell.batch.deliveredCount();
  out.valid = cell.batch.validCount();
  out.invalid = cell.batch.invalidCount();
  out.stats = cellStats(cell);
  out.telemetry = std::move(cell.telemetry);
  out.probes = std::move(cell.probes);
  return out;
}

bool runCell(const SweepCell& cell, const WorkerConfig& cfg, CellOutcome& out,
             std::string& err) {
  static const telemetry::TimerId kCellTimer = telemetry::timerId("sweep.cell");
  CellResult res;
  res.cell = cell;
  // Seed batches join before returning and cells run one at a time, so a
  // snapshot delta around the batch attributes engine counters to this
  // cell exactly (when telemetry is enabled; free otherwise).
  const bool withTelemetry = telemetry::enabled();
  telemetry::MetricsSnapshot before;
  if (withTelemetry) before = telemetry::snapshotMetrics();
  // Probes have no snapshot-delta idiom (sketches don't subtract), so
  // per-cell attribution is a reset/snapshot pair; only the seeds within
  // a cell are concurrent, and probe folds commute.
  const bool withProbes = telemetry::probesEnabled();
  if (withProbes) telemetry::resetProbes();
  const double t0 = nowSec();
  {
    const telemetry::PhaseTimer cellTimer(kCellTimer);
    res.batch = runScenarioBatch(cell.spec, cfg.threads);
  }
  const double wallSec = nowSec() - t0;
  if (withTelemetry) {
    recordCellTelemetry(telemetry::snapshotMetrics().diff(before), res.telemetry);
  }
  if (withProbes) res.probes = telemetry::snapshotProbes();

  const std::string path = cellFilePath(cfg.outDir, cfg.campaign, cell.index);
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  if (!writeCellFile(res, path, err)) return false;
  out = cellOutcome(std::move(res));
  out.wallSec = wallSec;
  return true;
}

int campaignWorkerMain(int fd, const std::vector<SweepCell>& cells, const WorkerConfig& cfg) {
  const SigPipeGuard sigpipe;  // a dying coordinator must surface as EPIPE
  // Trace dump on every exit path (DONE, EOF, protocol error): the
  // coordinator merges whatever per-worker files exist, so a worker that
  // died mid-campaign still contributes the events it recorded.
  const auto dumpTrace = [&cfg] {
    if (cfg.tracePath.empty() || !telemetry::traceEnabled()) return;
    std::string traceErr;
    (void)telemetry::writeTraceFile(cfg.tracePath, traceErr, cfg.workerId + 1,
                                    "worker " + std::to_string(cfg.workerId));
  };
  FrameDecoder dec;
  std::string payload, err;
  for (;;) {
    if (!readFrameBlocking(fd, dec, payload, err)) {
      dumpTrace();
      return err == "eof" ? 0 : 2;  // coordinator gone: quiet exit
    }
    Frame frame;
    if (!decodeFrame(payload, frame, err)) return 2;
    if (frame.type == FrameType::Done) {
      dumpTrace();
      return 0;
    }
    if (frame.type != FrameType::Lease) continue;  // ignore unexpected kinds

    // Expansion assigns index = position in the cell vector.
    int index = -1;
    if (!frame.body.intAt("cell", index, err, -1) || index < 0 ||
        index >= static_cast<int>(cells.size())) {
      return 3;
    }

    // Lease acknowledgement — the coordinator's liveness signal and the
    // campaign.lease_rtt sample.
    Frame ack = makeFrame(FrameType::Heartbeat);
    ack.body.set("cell", index);
    if (!writeFrame(fd, encodeFrame(ack), err)) return 0;

    CellOutcome outcome;
    if (!runCell(cells[static_cast<std::size_t>(index)], cfg, outcome, err)) return 4;
    if (!writeFrame(fd, encodeFrame(resultFrame(index, outcome)), err)) return 0;
  }
}

}  // namespace mcs::campaign
