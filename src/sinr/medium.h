#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geom/grid_index.h"
#include "geom/hier_grid.h"
#include "geom/vec2.h"
#include "sim/message.h"
#include "sinr/fading.h"
#include "sinr/params.h"
#include "sinr/workspace.h"
#include "telemetry/probes.h"
#include "util/ids.h"
#include "util/thread_pool.h"

/// The shared wireless medium: resolves one slot of simultaneous
/// transmissions across F non-overlapping channels under the SINR rule.
namespace mcs {

/// Aggregate counters maintained by the medium (for metrics/benches).
struct MediumStats {
  std::uint64_t slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t listens = 0;
  std::uint64_t decodes = 0;

  [[nodiscard]] double decodeRate() const noexcept {
    return listens ? static_cast<double>(decodes) / static_cast<double>(listens) : 0.0;
  }
};

/// Resolves slots under one of three interference-summation modes,
/// selected by SinrParams::mediumMode:
///
///  - MediumMode::Exact (default): every same-channel transmitter
///    contributes P/d^alpha to every listener individually.  Results are
///    reproducible bit-for-bit for a given parameter set, independent of
///    the thread count (each listener is resolved independently and the
///    per-listener summation order is fixed).  The slot's transmitters
///    are staged in MediumWorkspace's structure-of-arrays buffers, so
///    the sweep is a unit-stride pass over flat double arrays evaluated
///    through PowerKernel::batch — auto-vectorizable distance/kernel
///    phases followed by a fixed-order scalar reduction, which is how
///    the speedup coexists with the bit-reproducibility contract.
///
///  - MediumMode::NearFar: per channel, transmitters are indexed in a
///    uniform grid.  Transmitters within `nearField * R_T` of a listener
///    are summed exactly (this includes every transmitter that could
///    possibly decode, since nearField >= 1); farther transmitters are
///    batched per grid cell, contributing `count * P/d(centroid)^alpha`.
///    Because the centroid is the mean of the cell's members, the
///    first-order error term vanishes; what remains is a second-order
///    far-field approximation of the interference sum.  Decode decisions
///    can differ from Exact only for listeners whose SINR is within that
///    approximation error of beta.  Per-listener cost is O(occupied
///    cells).
///
///  - MediumMode::Hierarchical: NearFar's near ball (identical exact
///    member summation within `nearField * R_T`), with the far field
///    batched through a HierGrid pyramid over the same base cells:
///    distant regions contribute one centroid kernel call at the
///    coarsest level whose cell passes the SinrParams::hierTheta
///    admissibility rule (cell side <= theta * distance), taking the
///    per-listener far-field cost from O(occupied cells) toward
///    O(log n).  The admissibility rule bounds each batched
///    contribution's centroid displacement by sqrt(2) * theta relative
///    to its distance — the same style of bound the NearFar cell size
///    provides, now holding uniformly at every level.  At the default
///    theta = 0.5, level-0 admissibility coincides exactly with
///    NearFar's near-ball test, so Hierarchical refines NearFar by
///    re-batching only regions NearFar already approximated.
///
/// The two gridded modes share one path.  Each slot, one field builder
/// indexes every channel's transmitters of that slot in a grid of cells
/// of side nearField * R_T / 2 (plus the pyramid in Hierarchical mode),
/// reading positions fresh, so static and drifting (mobile) runs are
/// resolved alike at O(active) cost.  One gridded walk then sums each
/// listener: near cells member by member, far regions as one centroid
/// kernel call each.  NearFar enumerates the base cells flat in row-major
/// order; Hierarchical walks the pyramid.  All modes share one decode
/// rule and one attribution epilogue.
///
/// All modes evaluate path loss through PowerKernel, which specializes
/// integer/half-integer alpha to multiply/sqrt sequences (no std::pow on
/// the hot path).  Co-located node pairs are clamped to
/// SinrParams::kMinDistance so received power and RSSI ranging stay
/// finite even on degenerate inputs.
///
/// When SinrParams::fading selects a FadingModel, every per-pair received
/// power is additionally multiplied by FadingField::gain(slot, tx, rx) —
/// a pure function of the triple and the fading key, so results stay
/// bit-reproducible per seed and independent of thread count (see
/// sinr/fading.h).  In NearFar mode, near-field transmitters get their
/// per-pair gain; a far cell's batched contribution shares one gain drawn
/// per (slot, cell, listener) and counts toward interference only.  That
/// truncates the fading *decode* range at nearField * R_T: a far
/// transmitter whose lucky gain would have decoded under Exact cannot
/// decode under NearFar (with lognormal sigma = 6 dB and nearField = 2,
/// a few percent of pairs beyond the near radius draw such gains).
/// Raise nearField to push that truncation out, or use Exact when
/// fading-tail decodes matter.  Note that fading also perturbs RSSI-based
/// senderDistance estimates — by design, that is the impairment.

/// Node count below which Hierarchical mode is a regression, not an
/// optimization: BENCH_medium.json has hier at 0.96x the *exact* kernel
/// at n=500/8ch and behind NearFar at every measured n through 8000 —
/// the pyramid build is per-slot overhead that only pays for itself when
/// far-field listener work dwarfs it (≫10^4 nodes).  resolveSlot warns
/// once when hier runs below this (see README "Choosing a medium mode").
inline constexpr std::size_t kHierSmallNCrossover = 4000;

class Medium {
 public:
  /// `numThreads` > 1 spreads the per-listener loop over a persistent
  /// std::thread pool; results are identical to the single-threaded run.
  Medium(SinrParams params, int numChannels, int numThreads = 1);

  /// Resolves one slot at O(active) cost.  `intents[v]` is node v's
  /// declared behavior, indexed by node id; `active` lists the nodes
  /// whose intent is not Idle, strictly ascending (checked; see
  /// MediumWorkspace::populate), and only those entries are read.  `out`
  /// is sized to n on first use and then only each listener's entry is
  /// reset and written; entries of non-listeners keep whatever they held.
  /// Transmitters observe nothing (half-duplex, §2).
  ///
  /// Semantics per listener on channel c:
  ///  - totalPower = sum of P/d(w,v)^alpha over all transmitters w on c;
  ///  - the strongest transmitter u decodes iff
  ///      P/d(u,v)^alpha >= beta * (N + totalPower - P/d(u,v)^alpha);
  ///  - at most one message decodes per slot (beta >= 1 makes the
  ///    strongest the only candidate).
  void resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                   std::span<const NodeId> active, std::vector<Reception>& out);

  /// resolveSlot without the O(listeners) writes of a silent slot: when
  /// the slot has listeners but nothing transmits, returns false and
  /// leaves `out` unwritten; every listener then hears Reception{}, and
  /// the caller delivers that instead.  Every other effect of the slot
  /// (stats, telemetry and probe tallies, the fading slot ordinal) is
  /// resolveSlot's.  Returns true when `out` holds every listener's
  /// reception.
  [[nodiscard]] bool resolveSlotUnlessSilent(std::span<const Vec2> positions,
                                             std::span<const Intent> intents,
                                             std::span<const NodeId> active,
                                             std::vector<Reception>& out);

  [[nodiscard]] const SinrParams& params() const noexcept { return params_; }
  [[nodiscard]] int numChannels() const noexcept { return numChannels_; }
  [[nodiscard]] int numThreads() const noexcept { return pool_ ? pool_->threads() : 1; }
  [[nodiscard]] const MediumStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = {}; }

  /// Re-keys the fading draws (no-op for FadingModel::None).  The
  /// Simulator calls this with a dedicated fork of its root Rng (stream
  /// 0) so fading is reproducible per simulation seed; standalone Medium
  /// use falls back to FadingField::kDefaultKey.
  void seedFading(std::uint64_t key) noexcept {
    fading_ = FadingField(params_.fading, key);
  }
  [[nodiscard]] const FadingField& fading() const noexcept { return fading_; }

  /// Attribution hook (decode-attribution probes, telemetry/probes.h):
  /// marks nodes as dead so a probes-armed resolveSlot classifies their
  /// failed listens as `cause.dead_listener` instead of a physical cause.
  /// Engine runs never exercise this — Simulator forces churned-out nodes
  /// to Idle before the medium sees them, so the counter is structurally
  /// zero there; hand-wired callers (tests) set the mask and pass Listen
  /// intents for dead nodes directly.  Empty = everyone alive.  The mask
  /// is only consulted for cause classification; receptions are computed
  /// identically with or without it.
  void setAliveMask(std::vector<std::uint8_t> alive) { aliveMask_ = std::move(alive); }

 private:
  /// One occupied base cell of a channel's grid: the member centroid,
  /// the member ids (channel-local), and the cell coordinates.
  struct FarCell {
    Vec2 centroid;
    long cx = 0, cy = 0;
    std::span<const NodeId> ids;  // into the channel grid's CSR storage
  };

  /// Per-channel spatial structure rebuilt each gridded slot from that
  /// slot's transmitters only, so its cost is O(active), and positions are
  /// read fresh every slot (static and drifting runs take the same path).
  struct ChannelField {
    GridIndex grid;       // over this channel's transmitter positions
    std::int32_t lo = 0;  // slice start in the workspace's txIds
    std::vector<FarCell> cells;  // row-major, the NearFar walk order
    /// Hierarchical mode: the coarse-to-fine pyramid over this channel's
    /// occupied base cells (near() refs index into `cells`).
    HierGrid hier;
  };

  // resolveSlot's parts, defined in medium.cpp: a prologue that settles
  // slots needing no sweep, one interference kernel per mode family
  // (Exact tile sweep, gridded NearFar/Hierarchical walk), and one shared
  // decode and attribution epilogue.  Each `kProbes` instantiation is the
  // probes-armed or disarmed sweep; `kHier` picks the gridded walk's cell
  // enumeration (pyramid or flat base cells).
  struct SlotView;
  struct ListenerSum;
  struct Tally;

  [[nodiscard]] std::optional<bool> prologue(std::span<const Vec2> positions,
                                             std::span<const Intent> intents,
                                             std::span<const NodeId> active, bool probesArmed,
                                             std::size_t& txTotal);
  void buildFields(bool buildHier);
  template <bool kProbes>
  void sweepRange(const SlotView& s, std::size_t begin, std::size_t end, Tally& t);
  template <bool kProbes>
  ListenerSum exactSum(const SlotView& s, ChannelId c, Vec2 pv, NodeId v, Tally& t) const;
  template <bool kProbes, bool kHier>
  ListenerSum griddedSum(const SlotView& s, ChannelId c, Vec2 pv, NodeId v, Tally& t) const;
  template <bool kProbes>
  void decode(const SlotView& s, std::size_t li, ChannelId c, Vec2 pv, const ListenerSum& sum,
              Tally& t);
  [[nodiscard]] double farBestExact(const SlotView& s, ChannelId c, Vec2 pv, NodeId v) const;
  void publish(const Tally& t, bool probesArmed, std::size_t txTotal);
  [[nodiscard]] bool deadListener(NodeId v) const noexcept;

  SinrParams params_;
  PowerKernel kernel_;
  FadingField fading_;
  /// Slot ordinal for fading draws.  Deliberately separate from
  /// stats_.slots: resetStats() must not rewind the fading sequence (a
  /// warmup/measure split would otherwise replay the same gains).
  std::uint64_t fadingSlot_ = 0;
  int numChannels_;
  double nearRadius_ = 0.0;  // nearField * R_T, cached
  MediumStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // present iff numThreads > 1

  // Per-slot SoA staging (channel buckets, flat tx coordinates,
  // listeners); buffers reused across slots to avoid allocation.
  MediumWorkspace ws_;
  std::vector<ChannelField> fields_;
  std::vector<Vec2> fieldPts_;
  std::vector<HierBaseCell> hierBase_;  // pyramid-build scratch

  /// Attribution-only liveness mask (see setAliveMask); empty = alive.
  std::vector<std::uint8_t> aliveMask_;

  /// Probes-armed scratch kept across slots, so an armed slot allocates
  /// nothing once warm: each listener's margin / near / far dB values
  /// (indexed like ws_.listeners; `has` bits 1/2/4 mark which exist),
  /// folded into probeSample_ after the sweep.
  struct ListenerDb {
    double margin = 0.0, near = 0.0, far = 0.0;
    std::uint8_t has = 0;
  };
  std::vector<ListenerDb> probeDb_;
  telemetry::SlotProbeSample probeSample_;
};

}  // namespace mcs
