#include "sinr/medium.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>
#include <type_traits>

#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "util/log.h"

namespace mcs {

namespace {

/// Registered once; the ids are stable for the process.  Counter totals
/// are deterministic per seed and thread-count invariant (the engine's
/// reproducibility contracts make the underlying work deterministic);
/// timers measure wall time and are not.
struct MediumTelemetry {
  telemetry::TimerId resolve = telemetry::timerId("medium.resolve_slot");
  telemetry::TimerId populate = telemetry::timerId("medium.populate");
  telemetry::TimerId buildFields = telemetry::timerId("medium.build_fields");
  telemetry::TimerId sweep = telemetry::timerId("medium.sweep");
  telemetry::TimerId hierTraverse = telemetry::timerId("geom.hier_traverse");
  telemetry::CounterId slots = telemetry::counterId("medium.slots");
  telemetry::CounterId txIntents = telemetry::counterId("medium.tx_intents");
  telemetry::CounterId listenIntents = telemetry::counterId("medium.listen_intents");
  telemetry::CounterId decodes = telemetry::counterId("medium.decodes");
  telemetry::CounterId candidates = telemetry::counterId("medium.decode_candidates");
  telemetry::CounterId exactPairs = telemetry::counterId("medium.exact_pairs");
  telemetry::CounterId nearPairs = telemetry::counterId("medium.near_pairs_exact");
  telemetry::CounterId farCells = telemetry::counterId("medium.far_cells_batched");
  // Decode-attribution causes (probes-armed runs only).  Exclusive per
  // failed listen, so their sum equals listen_intents - decodes exactly —
  // the partition invariant CI checks on every smoke.
  telemetry::CounterId causeNoTransmitter = telemetry::counterId("cause.no_transmitter");
  telemetry::CounterId causeDeadListener = telemetry::counterId("cause.dead_listener");
  telemetry::CounterId causeNoiseLimited = telemetry::counterId("cause.noise_limited");
  telemetry::CounterId causeInterferenceLimited =
      telemetry::counterId("cause.interference_limited");
  telemetry::CounterId causeNearfarTruncated =
      telemetry::counterId("cause.nearfar_truncated");
  telemetry::CounterId causeLostTie = telemetry::counterId("cause.lost_tie");
};

const MediumTelemetry& mediumTm() {
  static const MediumTelemetry ids;
  return ids;
}

/// Hier admissions are reported per pyramid level; ids are registered
/// lazily the first time a level is seen.
telemetry::CounterId hierLevelCounter(int level) {
  return telemetry::counterId("medium.hier_far_cells.L" + std::to_string(level));
}

/// Matches HierGrid's private kMaxLevels bound (64 halvings cover any
/// long-indexable grid); sized for the per-slot admission tally below.
constexpr int kHierLevelSlots = 64;

/// Telemetry-armed slot tallies: lanes accumulate locally (an add per
/// batched cell or near pair, noise next to the kernel work) and publish
/// once per range.  Built only when telemetry is on, so a disarmed slot
/// zeroes none of these atomics.
struct CounterTally {
  std::atomic<std::uint64_t> candidates{0};
  std::atomic<std::uint64_t> exactPairs{0};
  std::atomic<std::uint64_t> nearPairs{0};
  std::atomic<std::uint64_t> farCells{0};
  std::array<std::atomic<std::uint64_t>, kHierLevelSlots> hierLevels{};
};

/// Probes-armed cause tallies; built only when probes are armed.
struct ProbeTally {
  std::atomic<std::uint64_t> noTx{0};
  std::atomic<std::uint64_t> dead{0};
  std::atomic<std::uint64_t> noise{0};
  std::atomic<std::uint64_t> interf{0};
  std::atomic<std::uint64_t> trunc{0};
  std::atomic<std::uint64_t> tie{0};
};

}  // namespace

Medium::Medium(SinrParams params, int numChannels, int numThreads)
    : params_(params),
      kernel_(params.kernel()),
      fading_(params.fading, FadingField::kDefaultKey),
      numChannels_(numChannels),
      // NearFar decode correctness requires nearRadius_ >= R_T (every
      // decodable transmitter must be summed exactly); clamp rather than
      // trust the assert below, which is compiled out in Release.
      nearRadius_(std::max(params.nearField, 1.0) * params.transmissionRange()) {
  assert(params_.valid());
  assert(numChannels_ >= 1);
  assert(numThreads >= 1);
  if (numThreads > 1) pool_ = std::make_unique<ThreadPool>(numThreads);
}

void Medium::buildFields(bool buildHier) {
  fields_.resize(static_cast<std::size_t>(numChannels_));
  // Half the near radius balances batching (fewer kernel calls per far
  // cell) against centroid accuracy (smaller spread within a cell).
  const double cellSize = nearRadius_ * 0.5;
  for (int c = 0; c < numChannels_; ++c) {
    ChannelField& f = fields_[static_cast<std::size_t>(c)];
    f.lo = ws_.bucketBegin(static_cast<ChannelId>(c));
    const std::int32_t hi = ws_.bucketEnd(static_cast<ChannelId>(c));
    f.cells.clear();
    if (buildHier) f.hier.clear();
    if (f.lo == hi) continue;  // no transmitters: cells stay empty
    fieldPts_.clear();
    for (std::int32_t i = f.lo; i < hi; ++i) {
      fieldPts_.push_back({ws_.txX[static_cast<std::size_t>(i)],
                           ws_.txY[static_cast<std::size_t>(i)]});
    }
    f.grid.rebuild(fieldPts_, cellSize);
    hierBase_.clear();
    f.grid.forEachCell([&](long cx, long cy, std::span<const NodeId> ids) {
      Vec2 sum{};
      for (const NodeId id : ids) sum = sum + f.grid.point(id);
      f.cells.push_back({sum * (1.0 / static_cast<double>(ids.size())), cx, cy, ids});
      if (buildHier) {
        hierBase_.push_back({cx, cy, sum.x, sum.y, static_cast<std::int64_t>(ids.size()),
                             static_cast<std::int32_t>(f.cells.size()) - 1});
      }
    });
    if (buildHier) {
      f.hier.build(f.grid.minX(), f.grid.minY(), cellSize, f.grid.nxCells(), f.grid.nyCells(),
                   hierBase_);
    }
  }
}

void Medium::buildFieldsDynamic(std::span<const Vec2> positions, bool buildHier) {
  // One persistent grid over every node position, advanced incrementally:
  // bounded per-slot displacement moves points between cells inside
  // GridIndex::update; leaving the box falls back to a rebuild there.
  allGrid_.ensure(positions, nearRadius_ * 0.5);

  fields_.resize(static_cast<std::size_t>(numChannels_));
  for (int c = 0; c < numChannels_; ++c) {
    ChannelField& f = fields_[static_cast<std::size_t>(c)];
    f.lo = ws_.bucketBegin(static_cast<ChannelId>(c));
    const std::int32_t hi = ws_.bucketEnd(static_cast<ChannelId>(c));
    f.cells.clear();
    f.sortedLocals.clear();
    if (buildHier) f.hier.clear();
    if (f.lo == hi) continue;

    // Group this channel's transmitters by their shared-grid cell.
    cellLocal_.clear();
    for (std::int32_t i = f.lo; i < hi; ++i) {
      const NodeId w = ws_.txIds[static_cast<std::size_t>(i)];
      cellLocal_.emplace_back(allGrid_.cellOfId(w), static_cast<NodeId>(i - f.lo));
    }
    std::sort(cellLocal_.begin(), cellLocal_.end());
    f.sortedLocals.reserve(cellLocal_.size());
    for (const auto& [cell, local] : cellLocal_) f.sortedLocals.push_back(local);

    hierBase_.clear();
    std::size_t i = 0;
    while (i < cellLocal_.size()) {
      const long cell = cellLocal_[i].first;
      std::size_t j = i;
      Vec2 sum{};
      while (j < cellLocal_.size() && cellLocal_[j].first == cell) {
        const NodeId w = ws_.txIds[static_cast<std::size_t>(f.lo) +
                                   static_cast<std::size_t>(cellLocal_[j].second)];
        sum = sum + positions[static_cast<std::size_t>(w)];
        ++j;
      }
      const auto [cx, cy] = allGrid_.cellCoords(cell);
      f.cells.push_back({sum * (1.0 / static_cast<double>(j - i)), cx, cy,
                         std::span<const NodeId>(f.sortedLocals.data() + i, j - i)});
      if (buildHier) {
        hierBase_.push_back({cx, cy, sum.x, sum.y, static_cast<std::int64_t>(j - i),
                             static_cast<std::int32_t>(f.cells.size()) - 1});
      }
      i = j;
    }
    if (buildHier) {
      f.hier.build(allGrid_.minX(), allGrid_.minY(), allGrid_.cellSize(), allGrid_.nxCells(),
                   allGrid_.nyCells(), hierBase_);
    }
  }
}

void Medium::resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                         std::span<const NodeId> active, std::vector<Reception>& out) {
  if (resolveSlotUnlessSilent(positions, intents, active, out)) return;
  for (const NodeId v : active) {
    if (intents[static_cast<std::size_t>(v)].action == Action::Listen) {
      out[static_cast<std::size_t>(v)] = Reception{};
    }
  }
}

bool Medium::resolveSlotUnlessSilent(std::span<const Vec2> positions,
                                     std::span<const Intent> intents,
                                     std::span<const NodeId> active,
                                     std::vector<Reception>& out) {
  const std::size_t n = positions.size();
  assert(intents.size() == n);
  const telemetry::PhaseTimer resolveTimer(mediumTm().resolve);
  if (out.size() != n) out.assign(n, Reception{});
  ++stats_.slots;

  // Stage the slot in the SoA workspace: channel-bucketed transmitter
  // ids/coordinates (counting sort) plus the listener list.  populate
  // also validates the active order and every intent's channel with
  // Release-armed checks.  A silent slot needs its listener list only
  // for the probes' dead-listener tally.
  const bool probesArmed = telemetry::probesEnabled();
  std::size_t txTotal;
  {
    const telemetry::PhaseTimer t(mediumTm().populate);
    txTotal = ws_.populate(positions, intents, active, numChannels_, probesArmed);
  }
  const std::size_t listenerCount = ws_.listenerCount;
  stats_.transmissions += txTotal;
  stats_.listens += listenerCount;
  if (telemetry::enabled()) {
    telemetry::counterAdd(mediumTm().slots);
    telemetry::counterAdd(mediumTm().txIntents, txTotal);
    telemetry::counterAdd(mediumTm().listenIntents, listenerCount);
  }
  if (listenerCount == 0) {
    if (probesArmed) {
      // Listener-free slots still tick the series so the active-transmitter
      // trace covers every resolved slot, not just contended ones.
      probeSample_.clear();
      probeSample_.txIntents = txTotal;
      telemetry::probeSlot(stats_.slots - 1, probeSample_);
    }
    return true;
  }

  const MediumMode mode = params_.mediumMode;
  if (mode == MediumMode::Hierarchical && n < kHierSmallNCrossover) {
    logWarnOnce("medium.hier_small_n",
                "medium_mode=hier with n=" + std::to_string(n) + " (< " +
                    std::to_string(kHierSmallNCrossover) +
                    "): the per-slot pyramid build usually outweighs its savings at this "
                    "scale (BENCH_medium.json: 0.96x the exact kernel at n=500/8ch); "
                    "prefer medium_mode=nearfar below the crossover");
  }
  if (txTotal == 0) {
    // Silent slot: every listener's channel is silent, so each would get
    // Reception{} and fail with no transmitter (or as a dead listener).
    // The fading ordinal still advances, as in a swept slot, so later
    // slots draw the same gains either way.
    ++fadingSlot_;
    if (probesArmed) {
      std::uint64_t dead = 0;
      for (const NodeId v : ws_.listeners) {
        const auto vi = static_cast<std::size_t>(v);
        if (vi < aliveMask_.size() && aliveMask_[vi] == 0) ++dead;
      }
      telemetry::counterAdd(mediumTm().causeNoTransmitter, listenerCount - dead);
      telemetry::counterAdd(mediumTm().causeDeadListener, dead);
      probeSample_.clear();
      probeSample_.listens = listenerCount;
      telemetry::probeSlot(stats_.slots - 1, probeSample_);
    }
    return false;
  }
  const bool gridded = mode != MediumMode::Exact;
  if (gridded) {
    const telemetry::PhaseTimer t(mediumTm().buildFields);
    const bool buildHier = mode == MediumMode::Hierarchical;
    if (dynamicPositions_) {
      buildFieldsDynamic(positions, buildHier);
    } else {
      buildFields(buildHier);
    }
  }

  const PowerKernel kern = kernel_;
  const double beta = params_.beta;
  const double noise = params_.noise;
  const double nearR = nearRadius_;
  const double nearR2 = nearR * nearR;
  const double theta = params_.hierTheta;
  constexpr double kMinD2 = SinrParams::kMinDistance * SinrParams::kMinDistance;
  const FadingField fad = fading_;
  const bool hasFading = fad.enabled();
  // Keyed on the slot ordinal so gains redraw every slot (block fading).
  const std::uint64_t slotIdx = ++fadingSlot_;

  std::atomic<std::uint64_t> decodes{0};
  std::optional<CounterTally> tm;
  if (telemetry::enabled()) tm.emplace();

  // Decode attribution (telemetry/probes.h): armed runs classify every
  // failed listen into exactly one cause and sketch SINR margins, through
  // a separate compile-time instantiation of the sweep below — the
  // disarmed hot path keeps its exact instruction stream.
  const std::uint8_t* aliveMask = aliveMask_.empty() ? nullptr : aliveMask_.data();
  const std::size_t aliveMaskSize = aliveMask_.size();
  std::optional<ProbeTally> probes;
  if (probesArmed) {
    probes.emplace();
    if (probeDb_.size() < ws_.listeners.size()) probeDb_.resize(ws_.listeners.size());
  }

  // Exact per-pair re-check of the far field for one failed listener:
  // the strongest far transmitter's *exact* faded power.  Only reachable
  // with fading in a gridded mode — without fading, far implies
  // d > nearR >= R_T, hence rx < beta*noise, so no far transmitter could
  // have decoded under Exact semantics and the scan is skipped entirely.
  const auto farBestExact = [&](ChannelId c, Vec2 pv, NodeId v) {
    const ChannelField& f = fields_[static_cast<std::size_t>(c)];
    const GridIndex& geom = dynamicPositions_ ? allGrid_ : f.grid;
    double farBest = -1.0;
    for (const FarCell& cell : f.cells) {
      if (geom.cellDist2(cell.cx, cell.cy, pv) <= nearR2) continue;
      for (const NodeId local : cell.ids) {
        const NodeId w =
            ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
        const Vec2 pw = dynamicPositions_ ? positions[static_cast<std::size_t>(w)]
                                          : f.grid.point(local);
        const double d2raw = dist2(pw, pv);
        double rx = kern(d2raw > 0.0 ? d2raw : kMinD2);
        rx *= fad.gain(slotIdx, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(v));
        if (rx > farBest) farBest = rx;
      }
    }
    return farBest;
  };

  const auto processRangeImpl = [&](auto probesTag, std::size_t rangeBegin,
                                    std::size_t rangeEnd) {
    constexpr bool kProbes = decltype(probesTag)::value;
    // Exact-mode sweep tile: distances and kernel values for up to kTile
    // transmitters are staged in flat buffers so the distance and
    // PowerKernel::batch phases auto-vectorize, while the reduction that
    // follows stays scalar and in bucket order — bit-identical totals.
    constexpr std::size_t kTile = 2048;
    double d2Tile[kTile];
    double rxTile[kTile];
    const double* xs = ws_.txX.data();
    const double* ys = ws_.txY.data();
    const NodeId* ids = ws_.txIds.data();

    std::uint64_t localDecodes = 0;
    std::uint64_t localCandidates = 0;
    std::uint64_t localExactPairs = 0;
    std::uint64_t localNearPairs = 0;
    std::uint64_t localFarCells = 0;
    std::array<std::uint64_t, kHierLevelSlots> localHierLevels{};
    // Attribution lane-locals (dead in the disarmed instantiation).
    [[maybe_unused]] std::uint64_t localCauseNoTx = 0, localCauseDead = 0,
                                   localCauseNoise = 0, localCauseInterf = 0,
                                   localCauseTrunc = 0, localCauseTie = 0;
    // Hier traversal is timed per worker range, not per listener: a clock
    // read per listener costs more than the traversal it would measure
    // (the per-level admission counters carry the fine-grained breakdown).
    const bool timeHier = mode == MediumMode::Hierarchical && telemetry::enabled();
    const std::uint64_t hierT0 = timeHier ? nowNanos() : 0;
    for (std::size_t li = rangeBegin; li < rangeEnd; ++li) {
      const NodeId v = ws_.listeners[li];
      const ChannelId c = intents[static_cast<std::size_t>(v)].channel;
      Reception& r = out[static_cast<std::size_t>(v)];
      r = Reception{};
      const std::int32_t lo = ws_.bucketBegin(c);
      const std::int32_t hi = ws_.bucketEnd(c);
      // Liveness is an attribution concern only (see setAliveMask); a dead
      // listener's Reception is computed exactly like everyone else's.
      [[maybe_unused]] bool deadListener = false;
      if constexpr (kProbes) {
        deadListener = aliveMask != nullptr && static_cast<std::size_t>(v) < aliveMaskSize &&
                       aliveMask[static_cast<std::size_t>(v)] == 0;
        probeDb_[li].has = 0;
      }
      if (lo == hi) {  // silent channel
        if constexpr (kProbes) {
          if (deadListener) {
            ++localCauseDead;
          } else {
            ++localCauseNoTx;
          }
        }
        continue;
      }
      ++localCandidates;

      double total = 0.0;
      double best = -1.0;
      NodeId bestTx = kNoNode;
      // Tie tracking (armed only): how many transmitters share the final
      // bit-equal `best` — equality compares never perturb best/bestTx, so
      // receptions stay identical to the disarmed sweep.
      [[maybe_unused]] std::uint64_t tieCount = 0;
      [[maybe_unused]] double farTotal = 0.0;
      const Vec2 pv = positions[static_cast<std::size_t>(v)];

      // Exact accumulation of one transmitter; shared by the NearFar and
      // Hierarchical near paths.  Distinct positions are a model
      // requirement; exactly co-located pairs are clamped to kMinDistance
      // so power and ranging stay finite (any positive distance passes
      // through untouched).
      const auto accumulatePair = [&](NodeId w, Vec2 pw) {
        ++localNearPairs;
        const double d2raw = dist2(pw, pv);
        double rx = kern(d2raw > 0.0 ? d2raw : kMinD2);
        if (hasFading) {
          rx *= fad.gain(slotIdx, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(v));
        }
        total += rx;
        if constexpr (kProbes) {
          if (rx > best) {
            best = rx;
            bestTx = w;
            tieCount = 1;
          } else if (rx == best && bestTx != kNoNode) {
            ++tieCount;
          }
        } else {
          if (rx > best) {
            best = rx;
            bestTx = w;
          }
        }
      };

      if (mode == MediumMode::Exact) {
        for (std::int32_t i0 = lo; i0 < hi; i0 += static_cast<std::int32_t>(kTile)) {
          const std::size_t base = static_cast<std::size_t>(i0);
          const std::size_t m = std::min(kTile, static_cast<std::size_t>(hi) - base);
          localExactPairs += m;
          for (std::size_t j = 0; j < m; ++j) {
            // Same operand order as dist2(pw, pv) in the scalar path.
            const double dx = xs[base + j] - pv.x;
            const double dy = ys[base + j] - pv.y;
            const double d2raw = dx * dx + dy * dy;
            d2Tile[j] = d2raw > 0.0 ? d2raw : kMinD2;
          }
          kern.batch(d2Tile, rxTile, m);
          if (hasFading) {
            for (std::size_t j = 0; j < m; ++j) {
              rxTile[j] *= fad.gain(slotIdx, static_cast<std::uint64_t>(ids[base + j]),
                                    static_cast<std::uint64_t>(v));
            }
          }
          for (std::size_t j = 0; j < m; ++j) {
            const double rx = rxTile[j];
            total += rx;
            if constexpr (kProbes) {
              if (rx > best) {
                best = rx;
                bestTx = ids[base + j];
                tieCount = 1;
              } else if (rx == best && bestTx != kNoNode) {
                ++tieCount;
              }
            } else {
              if (rx > best) {
                best = rx;
                bestTx = ids[base + j];
              }
            }
          }
        }
      } else if (mode == MediumMode::NearFar) {
        const ChannelField& f = fields_[static_cast<std::size_t>(c)];
        // Static path: the per-channel grid built this slot.  Dynamic
        // path: cells/coords come from the shared incremental allGrid_,
        // member positions from the caller's drifting span.
        const GridIndex& geom = dynamicPositions_ ? allGrid_ : f.grid;
        // Single pass over non-empty cells: cells entirely beyond the near
        // radius contribute count * P/d(centroid)^alpha in one kernel call;
        // cells touching the near ball have every member summed exactly.
        // Any transmitter that could decode is within R_T <= nearR, hence
        // inside a touching cell, hence an exact `best` candidate.
        for (const FarCell& cell : f.cells) {
          if (geom.cellDist2(cell.cx, cell.cy, pv) > nearR2) {
            ++localFarCells;
            const double d2c = dist2(cell.centroid, pv);
            double cellRx = static_cast<double>(cell.ids.size()) * kern(d2c > 0.0 ? d2c : kMinD2);
            if (hasFading) {
              // One shared draw per (slot, cell, listener): far cells are
              // already a batched approximation, and a shared gain keeps
              // the per-slot cost O(cells), not O(transmitters).
              const std::uint64_t cellId =
                  mix64((static_cast<std::uint64_t>(c) << 48) ^
                        (static_cast<std::uint64_t>(static_cast<std::int64_t>(cell.cx)) << 24) ^
                        static_cast<std::uint64_t>(static_cast<std::int64_t>(cell.cy)));
              cellRx *= fad.gain(slotIdx, cellId, static_cast<std::uint64_t>(v));
            }
            total += cellRx;
            if constexpr (kProbes) farTotal += cellRx;
            continue;
          }
          for (const NodeId local : cell.ids) {
            const NodeId w =
                ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
            const Vec2 pw = dynamicPositions_ ? positions[static_cast<std::size_t>(w)]
                                              : f.grid.point(local);
            accumulatePair(w, pw);
          }
        }
      } else {
        const ChannelField& f = fields_[static_cast<std::size_t>(c)];
        // Coarse-to-fine pyramid walk: admissible regions contribute one
        // centroid kernel call at the coarsest level; base cells near the
        // listener resolve through the same exact member summation as
        // NearFar (so every decodable transmitter is a `best` candidate).
        f.hier.forEachField(
            pv, nearR, theta,
            [&](std::int64_t count, Vec2 centroid, int level, long cx, long cy) {
              ++localFarCells;
              ++localHierLevels[static_cast<std::size_t>(level)];
              const double d2c = dist2(centroid, pv);
              double cellRx = static_cast<double>(count) * kern(d2c > 0.0 ? d2c : kMinD2);
              if (hasFading) {
                // Shared draw per (slot, level, cell, listener); the
                // level tag keeps draws distinct across pyramid levels.
                const std::uint64_t cellId = mix64(
                    (static_cast<std::uint64_t>(c) << 52) ^
                    (static_cast<std::uint64_t>(static_cast<unsigned>(level + 1)) << 46) ^
                    (static_cast<std::uint64_t>(static_cast<std::int64_t>(cx)) << 23) ^
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(cy)));
                cellRx *= fad.gain(slotIdx, cellId, static_cast<std::uint64_t>(v));
              }
              total += cellRx;
              if constexpr (kProbes) farTotal += cellRx;
            },
            [&](std::int32_t ref) {
              const FarCell& cell = f.cells[static_cast<std::size_t>(ref)];
              for (const NodeId local : cell.ids) {
                const NodeId w =
                    ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
                const Vec2 pw = dynamicPositions_ ? positions[static_cast<std::size_t>(w)]
                                                  : f.grid.point(local);
                accumulatePair(w, pw);
              }
            });
      }

      r.totalPower = total;
      // SINR condition (1) for the strongest transmitter.  With beta >= 1 no
      // weaker transmitter can satisfy it, so checking the strongest suffices.
      const bool decoded = bestTx != kNoNode && best >= beta * (noise + (total - best));
      if (decoded) {
        r.received = true;
        r.msg = intents[static_cast<std::size_t>(bestTx)].msg;
        r.sinr = best / (noise + (total - best));
        r.signalPower = best;
        r.senderDistance = params_.distanceFromPower(best);
        ++localDecodes;
      }

      if constexpr (kProbes) {
        // SINR margin in dB for every decode candidate (positive decoded,
        // negative failed), plus the near/far split of this listener's
        // interference power.
        ListenerDb& db = probeDb_[li];
        if (bestTx != kNoNode) {
          const double denom = beta * (noise + (total - best));
          if (best > 0.0 && denom > 0.0) {
            db.margin = 10.0 * std::log10(best / denom);
            db.has |= 1;
          }
          const double nearInterf = total - farTotal - best;
          if (nearInterf > 0.0) {
            db.near = 10.0 * std::log10(nearInterf);
            db.has |= 2;
          }
        }
        if (farTotal > 0.0) {
          db.far = 10.0 * std::log10(farTotal);
          db.has |= 4;
        }

        if (!decoded) {
          // Exclusive causes, checked in precedence order so every failed
          // listen lands in exactly one bucket (the partition invariant:
          // sum(cause.*) == listen_intents - decodes).
          if (deadListener) {
            ++localCauseDead;
          } else {
            // Would the strongest *far* transmitter have decoded under
            // Exact per-pair semantics?  Only possible with fading in a
            // gridded mode (see farBestExact above).
            const double farBest =
                (gridded && hasFading) ? farBestExact(c, pv, v) : -1.0;
            const double eff = best > farBest ? best : farBest;
            if (eff < beta * noise) {
              // Even with zero interference the strongest signal is
              // under beta: the link itself is too weak.
              ++localCauseNoise;
            } else if (best < beta * noise) {
              // A far transmitter cleared beta*noise but the near-field
              // best did not: the grid approximation truncated a decode
              // that Exact semantics would have allowed.
              ++localCauseTrunc;
            } else if (tieCount >= 2) {
              ++localCauseTie;
            } else {
              ++localCauseInterf;
            }
          }
        }
      }
    }
    decodes.fetch_add(localDecodes, std::memory_order_relaxed);
    if (timeHier) telemetry::timerRecordSlow(mediumTm().hierTraverse, nowNanos() - hierT0);
    if (tm) {
      tm->candidates.fetch_add(localCandidates, std::memory_order_relaxed);
      tm->exactPairs.fetch_add(localExactPairs, std::memory_order_relaxed);
      tm->nearPairs.fetch_add(localNearPairs, std::memory_order_relaxed);
      tm->farCells.fetch_add(localFarCells, std::memory_order_relaxed);
      for (int k = 0; k < kHierLevelSlots; ++k) {
        if (localHierLevels[static_cast<std::size_t>(k)] > 0) {
          tm->hierLevels[static_cast<std::size_t>(k)].fetch_add(
              localHierLevels[static_cast<std::size_t>(k)], std::memory_order_relaxed);
        }
      }
    }
    if constexpr (kProbes) {
      probes->noTx.fetch_add(localCauseNoTx, std::memory_order_relaxed);
      probes->dead.fetch_add(localCauseDead, std::memory_order_relaxed);
      probes->noise.fetch_add(localCauseNoise, std::memory_order_relaxed);
      probes->interf.fetch_add(localCauseInterf, std::memory_order_relaxed);
      probes->trunc.fetch_add(localCauseTrunc, std::memory_order_relaxed);
      probes->tie.fetch_add(localCauseTie, std::memory_order_relaxed);
    }
  };
  // One compile-time instantiation per arming state: the disarmed sweep
  // keeps its exact instruction stream, the armed one adds only reads and
  // compares — receptions are bit-identical either way.
  const auto processRange = [&](std::size_t rangeBegin, std::size_t rangeEnd) {
    if (probesArmed) {
      processRangeImpl(std::true_type{}, rangeBegin, rangeEnd);
    } else {
      processRangeImpl(std::false_type{}, rangeBegin, rangeEnd);
    }
  };

  {
    const telemetry::PhaseTimer t(mediumTm().sweep);
    if (pool_) {
      pool_->parallelFor(ws_.listeners.size(), processRange);
    } else {
      processRange(0, ws_.listeners.size());
    }
  }
  stats_.decodes += decodes.load(std::memory_order_relaxed);

  if (probes) {
    telemetry::counterAdd(mediumTm().causeNoTransmitter,
                          probes->noTx.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeDeadListener,
                          probes->dead.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeNoiseLimited,
                          probes->noise.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeInterferenceLimited,
                          probes->interf.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeNearfarTruncated,
                          probes->trunc.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().causeLostTie,
                          probes->tie.load(std::memory_order_relaxed));
    // Serial fold in listener order: a sketch's state is a function of
    // the value multiset, so thread count cannot change the result.
    probeSample_.clear();
    for (std::size_t li = 0; li < ws_.listeners.size(); ++li) {
      const ListenerDb& db = probeDb_[li];
      if (db.has & 1) probeSample_.marginDb.add(db.margin);
      if (db.has & 2) probeSample_.nearDb.add(db.near);
      if (db.has & 4) probeSample_.farDb.add(db.far);
    }
    probeSample_.listens = ws_.listeners.size();
    probeSample_.decodes = decodes.load(std::memory_order_relaxed);
    probeSample_.txIntents = txTotal;
    telemetry::probeSlot(stats_.slots - 1, probeSample_);
  }

  if (tm) {
    telemetry::counterAdd(mediumTm().decodes, decodes.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().candidates, tm->candidates.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().exactPairs, tm->exactPairs.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().nearPairs, tm->nearPairs.load(std::memory_order_relaxed));
    telemetry::counterAdd(mediumTm().farCells, tm->farCells.load(std::memory_order_relaxed));
    for (int k = 0; k < kHierLevelSlots; ++k) {
      const std::uint64_t adm =
          tm->hierLevels[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
      if (adm > 0) telemetry::counterAdd(hierLevelCounter(k), adm);
    }
  }
  return true;
}

}  // namespace mcs
