#include "sinr/medium.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <mutex>
#include <optional>
#include <string>

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

constexpr double kMinD2 = SinrParams::kMinDistance * SinrParams::kMinDistance;

/// Key of a batched far region's shared fading draw.  NearFar keys its
/// base cell; Hierarchical also tags the pyramid level, so draws stay
/// distinct across levels.
std::uint64_t farRegionKey(bool hier, ChannelId c, int level, long cx, long cy) {
  const auto x = static_cast<std::uint64_t>(static_cast<std::int64_t>(cx));
  const auto y = static_cast<std::uint64_t>(static_cast<std::int64_t>(cy));
  if (!hier) return mix64((static_cast<std::uint64_t>(c) << 48) ^ (x << 24) ^ y);
  return mix64((static_cast<std::uint64_t>(c) << 52) ^
               (static_cast<std::uint64_t>(static_cast<unsigned>(level + 1)) << 46) ^
               (x << 23) ^ y);
}

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
  // The one field builder of both gridded modes: per channel, a grid over
  // this slot's transmitters only, so its cost is O(active) and drifting
  // positions need nothing extra.
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

void Medium::resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                         std::span<const NodeId> active, std::vector<Reception>& out) {
  if (resolveSlotUnlessSilent(positions, intents, active, out)) return;
  for (const NodeId v : active) {
    if (intents[static_cast<std::size_t>(v)].action == Action::Listen) {
      out[static_cast<std::size_t>(v)] = Reception{};
    }
  }
}

/// Per-slot constants of the sweep, copied once per slot so the hot loops
/// read locals rather than members.
struct Medium::SlotView {
  std::span<const Vec2> positions;
  std::span<const Intent> intents;
  Reception* out;
  MediumMode mode;
  PowerKernel kern;
  FadingField fad;
  bool hasFading;
  std::uint64_t fadingSlot;  // keys this slot's gains, so they redraw every slot
  double nearR2;

  /// Exact received power of transmitter w (at pw) at listener v (at pv).
  /// Distinct positions are a model requirement; exactly co-located pairs
  /// are clamped to kMinDistance so power and ranging stay finite (any
  /// positive distance passes through untouched).
  [[nodiscard]] double pairPower(Vec2 pw, Vec2 pv, NodeId w, NodeId v) const noexcept {
    const double d2raw = dist2(pw, pv);
    double rx = kern(d2raw > 0.0 ? d2raw : kMinD2);
    if (hasFading) {
      rx *= fad.gain(fadingSlot, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(v));
    }
    return rx;
  }
};

/// One listener's interference sum, as a kernel returns it: the total
/// received power and the strongest transmitter, plus (armed sweep only)
/// how many transmitters share the final bit-equal `best` and the
/// batched far-field part of the total.
struct Medium::ListenerSum {
  double total = 0.0;
  double best = -1.0;
  NodeId bestTx = kNoNode;
  std::uint64_t ties = 0;
  double farTotal = 0.0;

  /// Adds one transmitter's power.  Equality compares (armed only) never
  /// move best/bestTx, so receptions stay identical to the disarmed sweep.
  template <bool kProbes>
  void add(double rx, NodeId w) noexcept {
    total += rx;
    if (rx > best) {
      best = rx;
      bestTx = w;
      if constexpr (kProbes) ties = 1;
    } else if constexpr (kProbes) {
      if (rx == best && bestTx != kNoNode) ++ties;
    }
  }
};

/// Work and cause tallies of a slot's sweep, or of one lane's range of it.
struct Medium::Tally {
  std::uint64_t decodes = 0, candidates = 0, exactPairs = 0, nearPairs = 0, farCells = 0;
  std::array<std::uint64_t, kHierLevelSlots> hierLevels{};
  // Decode-attribution causes (probes-armed sweep only).
  std::uint64_t noTx = 0, dead = 0, noise = 0, interf = 0, trunc = 0, tie = 0;

  void merge(const Tally& o) noexcept {
    decodes += o.decodes;
    candidates += o.candidates;
    exactPairs += o.exactPairs;
    nearPairs += o.nearPairs;
    farCells += o.farCells;
    for (std::size_t k = 0; k < hierLevels.size(); ++k) hierLevels[k] += o.hierLevels[k];
    noTx += o.noTx;
    dead += o.dead;
    noise += o.noise;
    interf += o.interf;
    trunc += o.trunc;
    tie += o.tie;
  }
};

bool Medium::deadListener(NodeId v) const noexcept {
  const auto vi = static_cast<std::size_t>(v);
  return vi < aliveMask_.size() && aliveMask_[vi] == 0;
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

  const bool probesArmed = telemetry::probesEnabled();
  std::size_t txTotal = 0;
  if (const std::optional<bool> settled =
          prologue(positions, intents, active, probesArmed, txTotal)) {
    return *settled;
  }
  const MediumMode mode = params_.mediumMode;
  if (mode != MediumMode::Exact) {
    const telemetry::PhaseTimer t(mediumTm().buildFields);
    buildFields(mode == MediumMode::Hierarchical);
  }
  const SlotView s{positions, intents, out.data(), mode, kernel_, fading_,
                   fading_.enabled(), ++fadingSlot_, nearRadius_ * nearRadius_};
  if (probesArmed && probeDb_.size() < ws_.listeners.size()) {
    probeDb_.resize(ws_.listeners.size());
  }

  // One compile-time instantiation per arming state: the disarmed sweep
  // keeps its exact instruction stream, the armed one adds only reads and
  // compares — receptions are bit-identical either way.
  const auto sweep = [&](std::size_t begin, std::size_t end, Tally& t) {
    if (probesArmed) {
      sweepRange<true>(s, begin, end, t);
    } else {
      sweepRange<false>(s, begin, end, t);
    }
  };
  Tally slot;
  {
    const telemetry::PhaseTimer t(mediumTm().sweep);
    if (pool_) {
      // Lanes tally locally and merge once per range.
      std::mutex slotMu;  // guards `slot`
      pool_->parallelFor(ws_.listeners.size(), [&](std::size_t begin, std::size_t end) {
        Tally lane;
        sweep(begin, end, lane);
        const std::lock_guard<std::mutex> lock(slotMu);
        slot.merge(lane);
      });
    } else {
      sweep(0, ws_.listeners.size(), slot);
    }
  }
  publish(slot, probesArmed, txTotal);
  return true;
}

std::optional<bool> Medium::prologue(std::span<const Vec2> positions,
                                     std::span<const Intent> intents,
                                     std::span<const NodeId> active, bool probesArmed,
                                     std::size_t& txTotal) {
  // Stage the slot in the SoA workspace: channel-bucketed transmitter
  // ids/coordinates (counting sort) plus the listener list.  populate
  // also validates the active order and every intent's channel with
  // Release-armed checks.  A silent slot needs its listener list only
  // for the probes' dead-listener tally.
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

  const std::size_t n = positions.size();
  if (params_.mediumMode == MediumMode::Hierarchical && n < kHierSmallNCrossover) {
    logWarnOnce("medium.hier_small_n",
                "medium_mode=hier with n=" + std::to_string(n) + " (< " +
                    std::to_string(kHierSmallNCrossover) +
                    "): the per-slot pyramid build usually outweighs its savings at this "
                    "scale (BENCH_medium.json: 0.96x the exact kernel at n=500/8ch); "
                    "prefer medium_mode=nearfar below the crossover");
  }
  if (txTotal > 0) return std::nullopt;

  // Silent slot: every listener's channel is silent, so each would get
  // Reception{} and fail with no transmitter (or as a dead listener).
  // The fading ordinal still advances, as in a swept slot, so later
  // slots draw the same gains either way.
  ++fadingSlot_;
  if (probesArmed) {
    std::uint64_t dead = 0;
    for (const NodeId v : ws_.listeners) dead += deadListener(v) ? 1 : 0;
    telemetry::counterAdd(mediumTm().causeNoTransmitter, listenerCount - dead);
    telemetry::counterAdd(mediumTm().causeDeadListener, dead);
    probeSample_.clear();
    probeSample_.listens = listenerCount;
    telemetry::probeSlot(stats_.slots - 1, probeSample_);
  }
  return false;
}

template <bool kProbes>
void Medium::sweepRange(const SlotView& s, std::size_t begin, std::size_t end, Tally& t) {
  // Hier traversal is timed per worker range, not per listener: a clock
  // read per listener costs more than the traversal it would measure
  // (the per-level admission counters carry the fine-grained breakdown).
  const bool timeHier = s.mode == MediumMode::Hierarchical && telemetry::enabled();
  const std::uint64_t hierT0 = timeHier ? nowNanos() : 0;
  for (std::size_t li = begin; li < end; ++li) {
    const NodeId v = ws_.listeners[li];
    const ChannelId c = s.intents[static_cast<std::size_t>(v)].channel;
    s.out[static_cast<std::size_t>(v)] = Reception{};
    if constexpr (kProbes) probeDb_[li].has = 0;
    if (ws_.bucketBegin(c) == ws_.bucketEnd(c)) {  // silent channel
      // Liveness is an attribution concern only (see setAliveMask); a
      // dead listener's Reception is computed exactly like everyone else's.
      if constexpr (kProbes) ++(deadListener(v) ? t.dead : t.noTx);
      continue;
    }
    ++t.candidates;
    const Vec2 pv = s.positions[static_cast<std::size_t>(v)];
    const ListenerSum sum = s.mode == MediumMode::Exact ? exactSum<kProbes>(s, c, pv, v, t)
                            : s.mode == MediumMode::NearFar
                                ? griddedSum<kProbes, false>(s, c, pv, v, t)
                                : griddedSum<kProbes, true>(s, c, pv, v, t);
    decode<kProbes>(s, li, c, pv, sum, t);
  }
  if (timeHier) telemetry::timerRecordSlow(mediumTm().hierTraverse, nowNanos() - hierT0);
}

template <bool kProbes>
Medium::ListenerSum Medium::exactSum(const SlotView& s, ChannelId c, Vec2 pv, NodeId v,
                                     Tally& t) const {
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
  const std::int32_t lo = ws_.bucketBegin(c);
  const std::int32_t hi = ws_.bucketEnd(c);
  // Accumulated in a local and copied out: in the return slot the
  // reduction would store to memory once per transmitter.
  ListenerSum acc;
  for (std::int32_t i0 = lo; i0 < hi; i0 += static_cast<std::int32_t>(kTile)) {
    const std::size_t base = static_cast<std::size_t>(i0);
    const std::size_t m = std::min(kTile, static_cast<std::size_t>(hi) - base);
    t.exactPairs += m;
    for (std::size_t j = 0; j < m; ++j) {
      // Same operand order as dist2(pw, pv) in SlotView::pairPower.
      const double dx = xs[base + j] - pv.x;
      const double dy = ys[base + j] - pv.y;
      const double d2raw = dx * dx + dy * dy;
      d2Tile[j] = d2raw > 0.0 ? d2raw : kMinD2;
    }
    s.kern.batch(d2Tile, rxTile, m);
    if (s.hasFading) {
      for (std::size_t j = 0; j < m; ++j) {
        rxTile[j] *= s.fad.gain(s.fadingSlot, static_cast<std::uint64_t>(ids[base + j]),
                                static_cast<std::uint64_t>(v));
      }
    }
    for (std::size_t j = 0; j < m; ++j) acc.add<kProbes>(rxTile[j], ids[base + j]);
  }
  return ListenerSum(acc);
}

template <bool kProbes, bool kHier>
Medium::ListenerSum Medium::griddedSum(const SlotView& s, ChannelId c, Vec2 pv, NodeId v,
                                       Tally& t) const {
  const ChannelField& f = fields_[static_cast<std::size_t>(c)];
  // Sums and counts accumulate in locals, as in exactSum.
  ListenerSum acc;
  std::uint64_t farCells = 0;
  std::uint64_t nearPairs = 0;
  // A batched region contributes count * P/d(centroid)^alpha in one kernel
  // call, counting toward interference only.  With fading it shares one
  // draw per (slot, region, listener): far regions are already a batched
  // approximation, and a shared gain keeps the cost O(regions).
  const auto far = [&](std::int64_t count, Vec2 centroid, int level, long cx, long cy) {
    ++farCells;
    if constexpr (kHier) ++t.hierLevels[static_cast<std::size_t>(level)];
    const double d2c = dist2(centroid, pv);
    double cellRx = static_cast<double>(count) * s.kern(d2c > 0.0 ? d2c : kMinD2);
    if (s.hasFading) {
      cellRx *= s.fad.gain(s.fadingSlot, farRegionKey(kHier, c, level, cx, cy),
                           static_cast<std::uint64_t>(v));
    }
    acc.total += cellRx;
    if constexpr (kProbes) acc.farTotal += cellRx;
  };
  // A base cell near the listener has every member summed exactly.  Any
  // transmitter that could decode is within R_T <= nearR of the listener,
  // hence in such a cell, hence an exact `best` candidate.
  const auto near = [&](std::int32_t ref) {
    for (const NodeId local : f.cells[static_cast<std::size_t>(ref)].ids) {
      ++nearPairs;
      const NodeId w = ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
      acc.add<kProbes>(s.pairPower(f.grid.point(local), pv, w, v), w);
    }
  };
  if constexpr (kHier) {
    // Coarse-to-fine pyramid walk: admissible regions are batched at the
    // coarsest level; inadmissible base cells resolve through near().
    f.hier.forEachField(pv, nearRadius_, params_.hierTheta, far, near);
  } else {
    // NearFar: one flat pass over the base cells in row-major order; a
    // cell entirely beyond the near radius is batched.
    for (std::size_t i = 0; i < f.cells.size(); ++i) {
      const FarCell& cell = f.cells[i];
      if (f.grid.cellDist2(cell.cx, cell.cy, pv) > s.nearR2) {
        far(static_cast<std::int64_t>(cell.ids.size()), cell.centroid, 0, cell.cx, cell.cy);
      } else {
        near(static_cast<std::int32_t>(i));
      }
    }
  }
  t.farCells += farCells;
  t.nearPairs += nearPairs;
  return ListenerSum(acc);
}

template <bool kProbes>
void Medium::decode(const SlotView& s, std::size_t li, ChannelId c, Vec2 pv,
                    const ListenerSum& sum, Tally& t) {
  const NodeId v = ws_.listeners[li];
  Reception& r = s.out[static_cast<std::size_t>(v)];
  const double beta = params_.beta;
  const double noise = params_.noise;
  const double best = sum.best;
  r.totalPower = sum.total;
  // SINR condition (1) for the strongest transmitter.  With beta >= 1 no
  // weaker transmitter can satisfy it, so checking the strongest suffices.
  const bool decoded = sum.bestTx != kNoNode && best >= beta * (noise + (sum.total - best));
  if (decoded) {
    r.received = true;
    r.msg = s.intents[static_cast<std::size_t>(sum.bestTx)].msg;
    r.sinr = best / (noise + (sum.total - best));
    r.signalPower = best;
    r.senderDistance = params_.distanceFromPower(best);
    ++t.decodes;
  }
  if constexpr (kProbes) {
    // SINR margin in dB for every decode candidate (positive decoded,
    // negative failed), plus the near/far split of this listener's
    // interference power.
    ListenerDb& db = probeDb_[li];
    if (sum.bestTx != kNoNode) {
      const double denom = beta * (noise + (sum.total - best));
      if (best > 0.0 && denom > 0.0) {
        db.margin = 10.0 * std::log10(best / denom);
        db.has |= 1;
      }
      const double nearInterf = sum.total - sum.farTotal - best;
      if (nearInterf > 0.0) {
        db.near = 10.0 * std::log10(nearInterf);
        db.has |= 2;
      }
    }
    if (sum.farTotal > 0.0) {
      db.far = 10.0 * std::log10(sum.farTotal);
      db.has |= 4;
    }
    if (decoded) return;
    // Exclusive causes, checked in precedence order so every failed
    // listen lands in exactly one bucket (the partition invariant:
    // sum(cause.*) == listen_intents - decodes).
    if (deadListener(v)) {
      ++t.dead;
      return;
    }
    // Would the strongest *far* transmitter have decoded under Exact
    // per-pair semantics?  Only possible with fading in a gridded mode
    // (see farBestExact).
    const double farBest =
        (s.mode != MediumMode::Exact && s.hasFading) ? farBestExact(s, c, pv, v) : -1.0;
    const double eff = best > farBest ? best : farBest;
    if (eff < beta * noise) {
      // Even with zero interference the strongest signal is under beta:
      // the link itself is too weak.
      ++t.noise;
    } else if (best < beta * noise) {
      // A far transmitter cleared beta*noise but the near-field best did
      // not: the grid approximation truncated a decode that Exact
      // semantics would have allowed.
      ++t.trunc;
    } else if (sum.ties >= 2) {
      ++t.tie;
    } else {
      ++t.interf;
    }
  }
}

double Medium::farBestExact(const SlotView& s, ChannelId c, Vec2 pv, NodeId v) const {
  // Exact per-pair re-check of the far field for one failed listener: the
  // strongest far transmitter's *exact* faded power.  Without fading, far
  // implies d > nearR >= R_T, hence rx < beta*noise, so no far transmitter
  // could have decoded under Exact semantics and the scan is skipped.
  const ChannelField& f = fields_[static_cast<std::size_t>(c)];
  double farBest = -1.0;
  for (const FarCell& cell : f.cells) {
    if (f.grid.cellDist2(cell.cx, cell.cy, pv) <= s.nearR2) continue;
    for (const NodeId local : cell.ids) {
      const NodeId w = ws_.txIds[static_cast<std::size_t>(f.lo) + static_cast<std::size_t>(local)];
      farBest = std::max(farBest, s.pairPower(f.grid.point(local), pv, w, v));
    }
  }
  return farBest;
}

void Medium::publish(const Tally& t, bool probesArmed, std::size_t txTotal) {
  stats_.decodes += t.decodes;
  if (probesArmed) {
    telemetry::counterAdd(mediumTm().causeNoTransmitter, t.noTx);
    telemetry::counterAdd(mediumTm().causeDeadListener, t.dead);
    telemetry::counterAdd(mediumTm().causeNoiseLimited, t.noise);
    telemetry::counterAdd(mediumTm().causeInterferenceLimited, t.interf);
    telemetry::counterAdd(mediumTm().causeNearfarTruncated, t.trunc);
    telemetry::counterAdd(mediumTm().causeLostTie, t.tie);
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
    probeSample_.decodes = t.decodes;
    probeSample_.txIntents = txTotal;
    telemetry::probeSlot(stats_.slots - 1, probeSample_);
  }
  if (telemetry::enabled()) {
    telemetry::counterAdd(mediumTm().decodes, t.decodes);
    telemetry::counterAdd(mediumTm().candidates, t.candidates);
    telemetry::counterAdd(mediumTm().exactPairs, t.exactPairs);
    telemetry::counterAdd(mediumTm().nearPairs, t.nearPairs);
    telemetry::counterAdd(mediumTm().farCells, t.farCells);
    for (int k = 0; k < kHierLevelSlots; ++k) {
      const std::uint64_t adm = t.hierLevels[static_cast<std::size_t>(k)];
      if (adm > 0) telemetry::counterAdd(hierLevelCounter(k), adm);
    }
  }
}
}  // namespace mcs
