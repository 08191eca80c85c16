#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mobility/mobility.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sinr/medium.h"
#include "telemetry/probes.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/rng.h"

/// Slot-synchronous execution engine.
///
/// A protocol advances the simulation one slot at a time: it names the
/// slot's candidates (the nodes that may act, ascending) and supplies an
/// intent for each of them; every other node is Idle.  The Medium resolves
/// all channels under SINR, and the protocol observes each listener's
/// Reception.  A slot therefore costs O(candidates), not O(n): under the
/// cluster TDMA only one color class is a candidate per round.  All
/// protocol randomness must come from `rng(v)` so runs are reproducible.
/// The Medium's fading layer (when enabled via SinrParams::fading) is
/// keyed by a dedicated fork of the root Rng (stream 0), so impaired runs
/// are just as reproducible per seed.
///
/// Topology dynamics: attachDynamics() arms a per-slot hook that advances
/// a mobility model and a churn process (mobility/mobility.h) before the
/// intents of each slot are collected.  Dynamic runs resolve against the
/// Simulator's own drifting position buffer; nodes whose churn state is
/// "departed" are forced to Idle and their protocol callbacks are
/// skipped, so protocol state freezes until they re-arrive.  Without
/// dynamics nothing changes: intents, positions, and every RNG stream
/// are bit-identical to the pre-mobility engine.
namespace mcs {

class Simulator {
 public:
  /// `numChannels` is F; `seed` determines every random choice.
  /// `numThreads` > 1 parallelizes the Medium's per-listener loop over a
  /// persistent thread pool; slot results are identical either way.
  Simulator(const Network& net, int numChannels, std::uint64_t seed, int numThreads = 1);

  /// Arms per-slot topology dynamics (no-op topology params are rejected
  /// by the caller: check TopologyParams::dynamic() first).  Keys both
  /// processes off dedicated root-Rng forks, so attaching never perturbs
  /// the per-node or fading streams.
  void attachDynamics(const TopologyParams& params);

  /// Runs one slot.  `intentOf(NodeId) -> Intent` is called for every
  /// live candidate, in order; all other nodes are Idle this slot.
  /// `onReception(NodeId, const Reception&)` is called for every listener,
  /// in ascending id.  Candidates must be strictly ascending ids in
  /// [0, n): Exact-mode summation order (and with it bit-identity)
  /// follows it, so a violation aborts in every build type.  Any superset
  /// of the nodes whose intent is not Idle gives the same slot, provided
  /// intentOf has no side effects for the nodes it idles.
  template <class IntentFn, class RecvFn>
  void step(std::span<const NodeId> candidates, IntentFn&& intentOf, RecvFn&& onReception) {
    // One "slot" span per step (arg = slot ordinal) when tracing is on;
    // a disarmed TraceScope costs one relaxed load.
    static const telemetry::TraceNameId kSlotSpan = telemetry::traceName("slot");
    const telemetry::TraceScope slotSpan(kSlotSpan, static_cast<std::int64_t>(slots_));
    const SimTelemetry& tm = simTm();
    if (dyn_) dyn_->advance(slots_, positions_);
    {
      const telemetry::PhaseTimer t(tm.collectIntents);
      active_.clear();
      const NodeId n = net_->size();
      NodeId prev = -1;
      for (const NodeId v : candidates) {
        if (v <= prev || v >= n) candidateOrderFailure(prev, v, n);
        prev = v;
        if (dyn_ && !dyn_->alive(v)) continue;
        Intent& it = intents_[static_cast<std::size_t>(v)];
        it = intentOf(v);
        if (it.action != Action::Idle) active_.push_back(v);
      }
      telemetry::counterAdd(tm.intentsEvaluated, candidates.size());
    }
    // A slot nobody transmits in writes no per-listener Reception: every
    // listener hears the same silence.
    const bool swept = medium_.resolveSlotUnlessSilent(positions(), intents_, active_, receptions_);
    {
      const telemetry::PhaseTimer t(tm.deliver);
      for (const NodeId v : active_) {
        if (intents_[static_cast<std::size_t>(v)].action == Action::Listen) {
          onReception(v, swept ? receptions_[static_cast<std::size_t>(v)] : kSilence);
        }
      }
    }
    // Optional protocol progress probe (telemetry/probes.h): sampled after
    // the reception callbacks so the protocol's state reflects this slot.
    // Write-only — the probe observes, it never feeds back into the run.
    if (progressProbe_ && telemetry::probesEnabled()) {
      std::uint64_t num = 0, den = 0;
      if (progressProbe_(num, den)) telemetry::probeProgress(slots_, num, den);
    }
    ++slots_;
    if (slots_ > static_cast<std::uint64_t>(net_->tuning().safetyCapSlots)) {
      throw std::runtime_error("Simulator: safety slot cap exceeded (protocol stuck?)");
    }
  }

  /// Every node id, ascending: the candidate list of a slot in which any
  /// node may act.
  [[nodiscard]] std::span<const NodeId> allNodes() const noexcept { return allNodes_; }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  [[nodiscard]] int numChannels() const noexcept { return medium_.numChannels(); }
  [[nodiscard]] std::uint64_t slots() const noexcept { return slots_; }
  [[nodiscard]] const MediumStats& mediumStats() const noexcept { return medium_.stats(); }

  /// True when topology dynamics are attached.
  [[nodiscard]] bool dynamic() const noexcept { return dyn_ != nullptr; }
  /// The attached dynamics (nullptr when static).
  [[nodiscard]] const TopologyDynamics* dynamics() const noexcept { return dyn_.get(); }
  /// Current node positions: the drifting buffer when dynamic, the
  /// Network's immutable ground truth otherwise.
  [[nodiscard]] std::span<const Vec2> positions() const noexcept {
    return dyn_ ? std::span<const Vec2>(positions_) : net_->positions();
  }
  /// Churn state (always alive when static).
  [[nodiscard]] bool alive(NodeId v) const noexcept { return !dyn_ || dyn_->alive(v); }
  [[nodiscard]] int aliveCount() const noexcept {
    return dyn_ ? dyn_->aliveCount() : net_->size();
  }
  /// Takes the dynamics' final drift sample (no-op when static); call
  /// once after the workload finishes, before reading dynamics()->stats().
  void finalizeDynamics();

  /// Installs (or clears, with an empty function) the protocol progress
  /// probe: called once per slot when probes are armed, after the
  /// reception callbacks.  The callback fills num/den (e.g. nodes colored
  /// / nodes total) and returns whether the sample is meaningful; samples
  /// land in the SlotSeries as a per-window progress fraction.  Workload
  /// runners install this around their run and clear it before returning.
  void setProgressProbe(std::function<bool(std::uint64_t&, std::uint64_t&)> probe) {
    progressProbe_ = std::move(probe);
  }

  /// Per-node deterministic random stream.
  [[nodiscard]] Rng& rng(NodeId v) noexcept { return rngs_[static_cast<std::size_t>(v)]; }
  /// Simulation-wide stream (harness-level choices, e.g. channel hashes).
  [[nodiscard]] Rng& rootRng() noexcept { return root_; }

 private:
  const Network* net_;
  Medium medium_;
  Rng root_;
  std::vector<Rng> rngs_;
  /// Registered once; ids are stable for the process.  Write-only, like
  /// every telemetry instrument.
  struct SimTelemetry {
    telemetry::TimerId collectIntents = telemetry::timerId("sim.collect_intents");
    telemetry::TimerId deliver = telemetry::timerId("sim.deliver");
    telemetry::CounterId intentsEvaluated = telemetry::counterId("sim.intents_evaluated");
  };
  static const SimTelemetry& simTm() {
    static const SimTelemetry ids;
    return ids;
  }
  [[noreturn]] static void candidateOrderFailure(NodeId prev, NodeId v, NodeId n);
  /// What every listener of a slot without transmitters hears.
  static inline const Reception kSilence{};

  std::vector<NodeId> allNodes_;
  /// Node-indexed intents.  Only the entries of active_ are this slot's;
  /// the rest may be stale, and neither the Medium nor delivery reads them.
  std::vector<Intent> intents_;
  /// This slot's non-Idle nodes, ascending (what the Medium populates from).
  std::vector<NodeId> active_;
  /// Node-indexed; only listener entries are written, and only in slots
  /// with a transmitter.
  std::vector<Reception> receptions_;
  std::unique_ptr<TopologyDynamics> dyn_;
  std::vector<Vec2> positions_;  ///< Mutable copy, populated iff dynamic.
  std::function<bool(std::uint64_t&, std::uint64_t&)> progressProbe_;
  std::uint64_t slots_ = 0;
};

}  // namespace mcs
