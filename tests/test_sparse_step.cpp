// The candidate-list slot engine against the dense engine it replaced.
//
// DenseReference below is the pre-sparse Simulator::step kept as a test
// oracle: intentOf for all n, every Reception reset, delivery in id
// order.  A stateful synthetic protocol (per-node rng draws, reply state
// fed by receptions) runs on both, the sparse side with random candidate
// supersets of the truly active nodes; receptions, the callback sequence,
// MediumStats and the protocol's own state must all match exactly, over
// every medium mode, thread count, fading and dynamics setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <type_traits>

#include "test_support.h"

namespace mcs {
namespace {

class DenseReference {
 public:
  DenseReference(const Network& net, int numChannels, std::uint64_t seed, int threads,
                 const TopologyParams* topo)
      : net_(&net), medium_(net.sinr(), numChannels, threads), root_(seed) {
    const auto n = static_cast<std::size_t>(net.size());
    for (std::size_t v = 0; v < n; ++v) rngs_.push_back(root_.fork(v + 1));
    medium_.seedFading(root_.fork(0)());
    if (topo != nullptr) {
      positions_.assign(net.positions().begin(), net.positions().end());
      Rng mobilityRng = root_.fork(kMobilityStream);
      Rng churnRng = root_.fork(kChurnStream);
      dyn_ = std::make_unique<TopologyDynamics>(*topo, net.positions(), net.rEps(),
                                                mobilityRng(), churnRng());
    }
  }

  template <class IntentFn, class RecvFn>
  void step(IntentFn&& intentOf, RecvFn&& onReception) {
    const int n = net_->size();
    if (dyn_) dyn_->advance(slots_, positions_);
    std::vector<Intent> intents(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      intents[static_cast<std::size_t>(v)] =
          (dyn_ && !dyn_->alive(v)) ? Intent::idle() : intentOf(v);
    }
    std::vector<Reception> out(static_cast<std::size_t>(n));  // full reset
    medium_.resolveSlot(positions(), intents, activeNodes(intents), out);
    for (NodeId v = 0; v < n; ++v) {
      if (intents[static_cast<std::size_t>(v)].action == Action::Listen) {
        onReception(v, out[static_cast<std::size_t>(v)]);
      }
    }
    ++slots_;
  }

  [[nodiscard]] Rng& rng(NodeId v) { return rngs_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] const MediumStats& mediumStats() const { return medium_.stats(); }
  [[nodiscard]] std::span<const Vec2> positions() const {
    return dyn_ ? std::span<const Vec2>(positions_) : net_->positions();
  }

 private:
  const Network* net_;
  Medium medium_;
  Rng root_;
  std::vector<Rng> rngs_;
  std::unique_ptr<TopologyDynamics> dyn_;
  std::vector<Vec2> positions_;
  std::uint64_t slots_ = 0;
};

/// One delivered callback, with every Reception field.
struct Callback {
  std::uint64_t slot;
  NodeId v;
  bool received;
  NodeId src;
  double x, sinr, signalPower, totalPower, senderDistance;
  bool operator==(const Callback&) const = default;
};

/// Stateful synthetic protocol.  A node acts when a per-(slot, node) hash
/// says so or when it owes a reply to something it decoded; acting draws
/// from the node's own rng (tx vs listen, channel).  Idle nodes touch no
/// state, so any candidate superset must reproduce the dense run.  In
/// silent() slots nobody transmits; with fading on, the slots after them
/// match only if the fading slot ordinal advanced through them.
struct Protocol {
  explicit Protocol(int n, int channels)
      : channels(channels),
        owesReply(static_cast<std::size_t>(n), 0),
        acted(static_cast<std::size_t>(n), 0),
        heard(static_cast<std::size_t>(n), 0.0) {}

  [[nodiscard]] bool activeIn(std::uint64_t slot, NodeId v) const {
    return owesReply[static_cast<std::size_t>(v)] != 0 ||
           mix64(slot * 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(v)) % 100 < 7;
  }

  /// Every fifth slot every actor listens: a slot with listeners and no
  /// transmitter, followed by slots that transmit again.
  [[nodiscard]] static bool silent(std::uint64_t slot) { return slot % 5 == 3; }

  template <class Sim>
  void runSlot(Sim& sim, std::uint64_t slot, std::vector<Callback>& log,
               std::span<const NodeId>* candidates) {
    const auto intentOf = [&](NodeId v) -> Intent {
      const auto vi = static_cast<std::size_t>(v);
      if (!activeIn(slot, v)) return Intent::idle();
      owesReply[vi] = 0;
      ++acted[vi];
      const auto c = static_cast<ChannelId>(sim.rng(v).below(static_cast<std::uint64_t>(channels)));
      if (sim.rng(v).bernoulli(0.3) && !silent(slot)) {
        Message m;
        m.type = MsgType::Data;
        m.src = v;
        m.x = heard[vi];
        return Intent::transmit(c, m);
      }
      return Intent::listen(c);
    };
    const auto onReception = [&](NodeId v, const Reception& r) {
      log.push_back({slot, v, r.received, r.received ? r.msg.src : kNoNode, r.msg.x, r.sinr,
                     r.signalPower, r.totalPower, r.senderDistance});
      if (r.received) {
        heard[static_cast<std::size_t>(v)] += r.msg.x + 1.0;
        owesReply[static_cast<std::size_t>(v)] = 1;
      }
    };
    if constexpr (std::is_same_v<Sim, Simulator>) {
      sim.step(*candidates, intentOf, onReception);
    } else {
      sim.step(intentOf, onReception);
    }
  }

  int channels;
  std::vector<char> owesReply;
  std::vector<int> acted;
  std::vector<double> heard;
};

using Config = std::tuple<MediumMode, int /*threads*/, bool /*fading*/, bool /*dynamics*/>;

class SparseStepEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(SparseStepEquivalence, CandidateStepMatchesDenseReference) {
  const auto [mode, threads, fading, dynamics] = GetParam();
  constexpr int kN = 300;
  constexpr int kChannels = 3;
  constexpr int kSlots = 60;
  constexpr std::uint64_t kSeed = 41;

  SinrParams params;
  params.mediumMode = mode;
  if (fading) params.fading.model = FadingModel::RayleighLognormal;
  Rng deployRng(7);
  const Network net(deployUniformSquare(kN, 1.5, deployRng), params);

  TopologyParams topo;
  topo.mobility.kind = MobilityKind::RandomWalk;
  topo.mobility.speed = 3e-3;
  topo.churn.departureRate = 5e-3;
  topo.churn.arrivalRate = 5e-2;

  Simulator sim(net, kChannels, kSeed, threads);
  if (dynamics) sim.attachDynamics(topo);
  DenseReference ref(net, kChannels, kSeed, threads, dynamics ? &topo : nullptr);

  Protocol sparseProto(kN, kChannels);
  Protocol denseProto(kN, kChannels);
  std::vector<Callback> sparseLog;
  std::vector<Callback> denseLog;
  Rng pick(99);  // chooses the superset padding; independent of both runs
  std::uint64_t candidatesVisited = 0;
  for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
    // Truly active nodes plus ~15% random extras (which must stay idle
    // and side-effect free), ascending.
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < kN; ++v) {
      if (sparseProto.activeIn(slot, v) || pick.bernoulli(0.15)) candidates.push_back(v);
    }
    candidatesVisited += candidates.size();
    std::span<const NodeId> span(candidates);
    sparseProto.runSlot(sim, slot, sparseLog, &span);
    denseProto.runSlot(ref, slot, denseLog, nullptr);
  }

  ASSERT_EQ(sparseLog.size(), denseLog.size());
  for (std::size_t i = 0; i < denseLog.size(); ++i) {
    ASSERT_EQ(sparseLog[i], denseLog[i]) << "callback " << i << " slot " << denseLog[i].slot
                                         << " node " << denseLog[i].v;
  }
  EXPECT_GT(denseLog.size(), 0u);
  // Silent slots were resolved, and their listeners heard nothing.
  std::uint64_t silentCallbacks = 0;
  for (const Callback& cb : sparseLog) {
    if (!Protocol::silent(cb.slot)) continue;
    ++silentCallbacks;
    EXPECT_FALSE(cb.received);
    EXPECT_EQ(cb.totalPower, 0.0);
  }
  EXPECT_GT(silentCallbacks, 0u);
  EXPECT_EQ(sim.mediumStats().slots, ref.mediumStats().slots);
  EXPECT_EQ(sim.mediumStats().transmissions, ref.mediumStats().transmissions);
  EXPECT_EQ(sim.mediumStats().listens, ref.mediumStats().listens);
  EXPECT_EQ(sim.mediumStats().decodes, ref.mediumStats().decodes);
  EXPECT_GT(sim.mediumStats().decodes, 0u);
  EXPECT_EQ(sparseProto.acted, denseProto.acted);
  EXPECT_EQ(sparseProto.heard, denseProto.heard);
  EXPECT_EQ(sparseProto.owesReply, denseProto.owesReply);
  for (NodeId v = 0; v < kN; ++v) EXPECT_EQ(sim.rng(v)(), ref.rng(v)()) << "rng of node " << v;
  ASSERT_EQ(sim.positions().size(), ref.positions().size());
  EXPECT_TRUE(std::equal(sim.positions().begin(), sim.positions().end(),
                         ref.positions().begin(),
                         [](Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }));
  // The point of the engine: far fewer intents than the dense n per slot.
  EXPECT_LT(candidatesVisited, static_cast<std::uint64_t>(kN) * kSlots / 2);
}

INSTANTIATE_TEST_SUITE_P(
    ModesThreadsFadingDynamics, SparseStepEquivalence,
    ::testing::Combine(::testing::Values(MediumMode::Exact, MediumMode::NearFar,
                                         MediumMode::Hierarchical),
                       ::testing::Values(1, 4), ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return toString(std::get<0>(info.param)) + "_t" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_fading" : "") +
             (std::get<3>(info.param) ? "_dynamic" : "_static");
    });

// A Medium reused across slots writes only listener entries: a node that
// decoded last slot and listens again sees this slot's result, never the
// stale one.
TEST(SparseResolveSlot, ListenerEntriesAreResetEachSlot) {
  Medium medium(SinrParams{}, 1);
  const std::vector<Vec2> pos{{0.0, 0.0}, {0.5, 0.0}};
  std::vector<Intent> intents{Intent::transmit(0, {}), Intent::listen(0)};
  std::vector<Reception> rx;
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_TRUE(rx[1].received);
  intents[0] = Intent::idle();  // silent channel now
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_FALSE(rx[1].received);
  EXPECT_EQ(rx[1].totalPower, 0.0);
  EXPECT_EQ(medium.stats().listens, 2u);
}

// Candidate order is what keeps Exact-mode bucket order (and bit-identity)
// fixed, and a duplicate would run a node's intent twice: both abort in
// every build type.
TEST(SparseStepDeathTest, UnsortedCandidatesAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Network net({{0, 0}, {0.5, 0}, {0.2, 0.2}}, SinrParams{});
  Simulator sim(net, 1, 1);
  // Idle intents: only the Simulator's own check can catch this (the
  // Medium never sees an idle node).
  const std::vector<NodeId> unsorted{0, 2, 1};
  EXPECT_DEATH(sim.step(unsorted, [](NodeId) { return Intent::idle(); },
                        [](NodeId, const Reception&) {}),
               "step candidate 1 after 2");
}

TEST(SparseStepDeathTest, DuplicateCandidatesAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Network net({{0, 0}, {0.5, 0}, {0.2, 0.2}}, SinrParams{});
  Simulator sim(net, 1, 1);
  const std::vector<NodeId> duplicate{0, 1, 1};
  EXPECT_DEATH(sim.step(duplicate, [](NodeId) { return Intent::idle(); },
                        [](NodeId, const Reception&) {}),
               "step candidate 1 after 1");
}

TEST(SparseStepDeathTest, OutOfRangeCandidateAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Network net({{0, 0}, {0.5, 0}}, SinrParams{});
  Simulator sim(net, 1, 1);
  const std::vector<NodeId> outOfRange{1, 2};
  EXPECT_DEATH(sim.step(outOfRange, [](NodeId) { return Intent::idle(); },
                        [](NodeId, const Reception&) {}),
               "step candidate 2 after 1");
}

TEST(SparseStepDeathTest, UnsortedActiveListAbortsInTheMedium) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Medium medium(SinrParams{}, 1);
  const std::vector<Vec2> pos{{0.0, 0.0}, {0.5, 0.0}};
  const std::vector<Intent> intents{Intent::transmit(0, {}), Intent::listen(0)};
  const std::vector<NodeId> active{1, 0};
  std::vector<Reception> rx;
  EXPECT_DEATH(medium.resolveSlot(pos, intents, active, rx), "active node 0 after 1");
}

// TDMA color classes are exactly the nodes active() admits, ascending.
TEST(TdmaClasses, MembersMatchActive) {
  Clustering cl;
  const int n = 40;
  cl.dominatorOf.resize(n);
  cl.colorOfCluster.assign(n, -1);
  for (NodeId v = 0; v < n; ++v) cl.dominatorOf[static_cast<std::size_t>(v)] = v % 5;
  for (NodeId d = 0; d < 5; ++d) cl.colorOfCluster[static_cast<std::size_t>(d)] = d % 3;
  cl.numColors = 3;
  const TdmaSchedule tdma = TdmaSchedule::from(cl);
  std::vector<NodeId> odd;
  for (NodeId v = 1; v < n; v += 2) odd.push_back(v);
  const ColorClasses oddClasses = tdma.restrictedTo(odd);
  for (long round = 0; round < 7; ++round) {
    std::vector<NodeId> all, oddActive;
    for (NodeId v = 0; v < n; ++v) {
      if (tdma.active(v, round)) {
        all.push_back(v);
        if (v % 2 == 1) oddActive.push_back(v);
      }
    }
    const std::span<const NodeId> got = tdma.members(round);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), all) << round;
    const std::span<const NodeId> gotOdd = oddClasses.members(round);
    EXPECT_EQ(std::vector<NodeId>(gotOdd.begin(), gotOdd.end()), oddActive) << round;
  }
  // A single-color schedule admits everyone.
  const TdmaSchedule flat;
  const ColorClasses flatOdd = flat.restrictedTo(odd);
  EXPECT_EQ(flatOdd.members(5).size(), odd.size());
}

}  // namespace
}  // namespace mcs
