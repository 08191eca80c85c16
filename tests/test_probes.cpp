#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "store/format.h"
#include "test_support.h"

/// Decode-attribution and time-series probes (telemetry/probes.h,
/// telemetry/series.h): the series' coalescing and merge algebra, the
/// cause partition invariant (sum(cause.*) == listen_intents - decodes),
/// determinism across thread counts and medium modes, the never-feeds-back
/// contract for armed runs, and the JSON / store-blob round trips.
namespace mcs {
namespace {

using telemetry::ProbeState;
using telemetry::SlotSeries;

/// Arms probes (which also arms metrics) around a test and restores the
/// process-global dark default every other test expects.
struct ProbesGuard {
  explicit ProbesGuard(bool armed = true) {
    telemetry::resetMetrics();
    telemetry::resetProbes();
    telemetry::setProbesEnabled(armed);
  }
  ~ProbesGuard() {
    telemetry::setProbesEnabled(false);
    telemetry::setEnabled(false);
    telemetry::resetProbes();
    telemetry::resetMetrics();
  }
};

/// A small mixed-intent workload for direct Medium runs.  `silentChannel`
/// reserves one channel nobody transmits on, so listeners parked there
/// exercise the no_transmitter cause.
struct ProbeWorkload {
  std::vector<Vec2> pts;
  std::vector<Intent> intents;

  ProbeWorkload(int n, int channels, std::uint64_t seed, bool silentChannel = false) {
    Rng rng(seed);
    pts = deployUniformSquare(n, 1.2, rng);
    intents.resize(static_cast<std::size_t>(n));
    const int txChannels = silentChannel ? channels - 1 : channels;
    for (int v = 0; v < n; ++v) {
      const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
      const bool canTx = static_cast<int>(c) < txChannels;
      intents[static_cast<std::size_t>(v)] = (canTx && rng.bernoulli(0.15))
                                                 ? Intent::transmit(c, {})
                                                 : Intent::listen(c);
    }
  }
};

QuantileSketch sketchOf(std::initializer_list<double> xs) {
  QuantileSketch s;
  for (const double x : xs) s.add(x);
  return s;
}

// ------------------------------------------------------------ slot series

/// Recording the same slots in any order yields the same series: a slot
/// recorded before the span grew coarse coalesces to exactly where direct
/// binning at the final span would have put it (windows align at slot 0,
/// so floor(floor(t/s)/2) == floor(t/2s)).
TEST(SlotSeries, RecordOrderInvariantAcrossCoalescing) {
  const std::uint64_t maxSlot = 1000;  // forces span 1 -> 16
  SlotSeries forward, reverse;
  for (std::uint64_t t = 0; t <= maxSlot; ++t) {
    forward.recordSlot(t, t % 7, t % 3, t % 5, sketchOf({static_cast<double>(t % 11)}));
  }
  for (std::uint64_t t = maxSlot + 1; t-- > 0;) {
    reverse.recordSlot(t, t % 7, t % 3, t % 5, sketchOf({static_cast<double>(t % 11)}));
  }
  // Reverse records slot 1000 first, jumping straight to the final span;
  // forward coalesces through spans 1, 2, 4, 8.  Same bits either way.
  EXPECT_EQ(forward.span(), 16u);
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.windowsUsed(), (maxSlot / forward.span()) + 1);
}

TEST(SlotSeries, MergeOrderAndTreeShapeInvariant) {
  // Partition one stream of slot records across three series with very
  // different spans (a is fine, c is coarse), then fold every way.
  SlotSeries whole, a, b, c;
  for (std::uint64_t t = 0; t < 5000; ++t) {
    const std::uint64_t listens = 2 + t % 4;
    const std::uint64_t decodes = t % 2;
    const QuantileSketch m = sketchOf({static_cast<double>(t % 13) - 6.0});
    whole.recordSlot(t, listens, decodes, 1, m);
    if (t < 40) {
      a.recordSlot(t, listens, decodes, 1, m);
    } else if (t < 900) {
      b.recordSlot(t, listens, decodes, 1, m);
    } else {
      c.recordSlot(t, listens, decodes, 1, m);
    }
    if (t % 10 == 0) {
      whole.recordProgress(t, t, 5000);
      c.recordProgress(t, t, 5000);  // progress lands in one shard only
    }
  }
  SlotSeries whole2;
  for (std::uint64_t t = 0; t < 5000; ++t) {
    if (t % 10 == 0) whole2.recordProgress(t, t, 5000);
  }
  for (std::uint64_t t = 0; t < 5000; ++t) {
    whole2.recordSlot(t, 2 + t % 4, t % 2, 1,
                      sketchOf({static_cast<double>(t % 13) - 6.0}));
  }
  EXPECT_EQ(whole, whole2);  // interleaving of record kinds is irrelevant

  const auto fold = [](std::vector<const SlotSeries*> parts) {
    SlotSeries out;
    for (const SlotSeries* p : parts) out.merge(*p);
    return out;
  };
  const SlotSeries leftToRight = fold({&a, &b, &c});
  const SlotSeries rightToLeft = fold({&c, &b, &a});
  SlotSeries tree = a;  // (a + c) + b: coarse joins first
  tree.merge(c);
  tree.merge(b);
  EXPECT_EQ(leftToRight, whole);
  EXPECT_EQ(rightToLeft, whole);
  EXPECT_EQ(tree, whole);
}

TEST(SlotSeries, MergeIntoEmptyAndWithEmpty) {
  SlotSeries s;
  s.recordSlot(3, 10, 4, 2, sketchOf({1.0, -2.0}));
  SlotSeries empty, onto;
  onto.merge(s);
  EXPECT_EQ(onto, s);
  s.merge(empty);  // no-op: an empty series must not coarsen the target
  EXPECT_EQ(onto, s);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(s.empty());
}

// ---------------------------------------------------------- serialization

TEST(ProbeSerialization, JsonRoundTripIsLossless) {
  ProbeState p;
  p.marginDb = sketchOf({-3.5, 0.0, 12.25, 12.25, 40.0});
  p.nearDb = sketchOf({7.0, 8.5});
  p.farDb = sketchOf({-60.0});
  for (std::uint64_t t = 0; t < 300; ++t) {
    p.series.recordSlot(t, 5, t % 2, 3, sketchOf({static_cast<double>(t % 9)}));
    if (t % 25 == 0) p.series.recordProgress(t, t, 300);
  }
  ProbeState back;
  std::string err;
  ASSERT_TRUE(telemetry::probesFromJson(telemetry::probesToJson(p), back, err)) << err;
  EXPECT_EQ(back, p);

  ProbeState emptyBack;
  ASSERT_TRUE(telemetry::probesFromJson(telemetry::probesToJson(ProbeState()), emptyBack, err))
      << err;
  EXPECT_TRUE(emptyBack.empty());
}

TEST(ProbeSerialization, StoreBlobRoundTripIsLossless) {
  ProbeState p;
  p.marginDb = sketchOf({-1.0, 2.0, 2.0, 33.0});
  p.farDb = sketchOf({-12.5});
  for (std::uint64_t t = 0; t < 150; ++t) {
    p.series.recordSlot(t, 4, 1, 2, sketchOf({static_cast<double>(t) / 10.0}));
  }
  std::string blob, err;
  store::appendProbeBlob(p, blob);
  ProbeState back;
  ASSERT_TRUE(store::parseProbeBlob(blob.data(), blob.size(), back, err)) << err;
  EXPECT_EQ(back, p);

  // The canonical empty blob is a single byte, and parses back empty.
  std::string emptyBlob;
  store::appendProbeBlob(ProbeState(), emptyBlob);
  EXPECT_EQ(emptyBlob.size(), 1u);
  ProbeState emptyBack;
  emptyBack.marginDb.add(99.0);  // parse must reset stale state
  ASSERT_TRUE(store::parseProbeBlob(emptyBlob.data(), emptyBlob.size(), emptyBack, err))
      << err;
  EXPECT_TRUE(emptyBack.empty());

  // Truncated full blobs fail loudly rather than misparse.
  const std::string cut = blob.substr(0, blob.size() / 2);
  ProbeState cutBack;
  EXPECT_FALSE(store::parseProbeBlob(cut.data(), cut.size(), cutBack, err));
}

// --------------------------------------------------------- cause partition

/// Every failed listen lands in exactly one cause bucket: the partition
/// invariant CI checks on every smoke, here with the dead-listener and
/// no-transmitter buckets forced non-empty.
TEST(CausePartition, CausesSumToFailedListens) {
  // Channel 2 is silent (listeners there hit no_transmitter); a slice of
  // nodes is marked dead via the attribution mask.
  const ProbeWorkload w(500, 3, 17, /*silentChannel=*/true);
  const ProbesGuard guard;
  SinrParams params;
  params.mediumMode = MediumMode::NearFar;
  Medium medium(params, 3, 2);
  std::vector<std::uint8_t> alive(w.pts.size(), 1);
  for (std::size_t v = 0; v < alive.size(); v += 10) alive[v] = 0;
  medium.setAliveMask(alive);
  std::vector<Reception> rx;
  for (int slot = 0; slot < 6; ++slot) {
    medium.resolveSlot(w.pts, w.intents, activeNodes(w.intents), rx);
  }

  const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
  const std::uint64_t listens = snap.counterOr("medium.listen_intents");
  const std::uint64_t decodes = snap.counterOr("medium.decodes");
  const std::uint64_t causeSum =
      snap.counterOr("cause.no_transmitter") + snap.counterOr("cause.dead_listener") +
      snap.counterOr("cause.noise_limited") + snap.counterOr("cause.interference_limited") +
      snap.counterOr("cause.nearfar_truncated") + snap.counterOr("cause.lost_tie");
  ASSERT_GT(listens, 0u);
  EXPECT_GT(decodes, 0u);
  EXPECT_EQ(causeSum, listens - decodes);
  EXPECT_GT(snap.counterOr("cause.no_transmitter"), 0u);
  EXPECT_GT(snap.counterOr("cause.dead_listener"), 0u);

  // The slot series saw the same totals the counters did.
  const ProbeState probes = telemetry::snapshotProbes();
  std::uint64_t seriesListens = 0, seriesDecodes = 0, seriesSlots = 0;
  for (const SlotSeries::Window& win : probes.series.windows()) {
    seriesListens += win.listens;
    seriesDecodes += win.decodes;
    seriesSlots += win.slots;
  }
  EXPECT_EQ(seriesListens, listens);
  EXPECT_EQ(seriesDecodes, decodes);
  EXPECT_EQ(seriesSlots, 6u);
  EXPECT_GT(probes.marginDb.count(), 0u);
}

/// A dead listener outranks every physical cause, including the silent
/// channel (dead + no transmitter classifies as dead).
TEST(CausePartition, DeadListenerTakesPrecedence) {
  const ProbesGuard guard;
  SinrParams params;
  Medium medium(params, 2, 1);
  std::vector<Vec2> pts = {{0.0, 0.0}, {0.5, 0.0}};
  // Both listen on channel 1 where nobody transmits; node 0 is dead.
  std::vector<Intent> intents = {Intent::listen(ChannelId{1}), Intent::listen(ChannelId{1})};
  medium.setAliveMask({0, 1});
  std::vector<Reception> rx;
  medium.resolveSlot(pts, intents, activeNodes(intents), rx);
  const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
  EXPECT_EQ(snap.counterOr("cause.dead_listener"), 1u);
  EXPECT_EQ(snap.counterOr("cause.no_transmitter"), 1u);
}

/// A slot with listeners but no transmitter writes no per-listener
/// Reception, yet every listen still lands in exactly one cause: dead
/// listeners as dead_listener, the rest as no_transmitter.  The series
/// and the Simulator's delivery see the same slots.
TEST(CausePartition, SilentSlotsStillPartitionEveryListen) {
  const ProbesGuard guard;
  Rng rng(19);
  const std::vector<Vec2> pts = deployUniformSquare(300, 1.2, rng);
  std::vector<Intent> intents(pts.size());
  for (std::size_t v = 0; v < pts.size(); ++v) {
    intents[v] = v % 4 == 3 ? Intent::idle() : Intent::listen(static_cast<ChannelId>(v % 2));
  }
  std::vector<std::uint8_t> alive(pts.size(), 1);
  std::uint64_t deadListeners = 0;
  for (std::size_t v = 0; v < pts.size(); v += 7) {
    alive[v] = 0;
    deadListeners += intents[v].action == Action::Listen;
  }
  Medium medium(SinrParams{}, 2, 2);
  medium.setAliveMask(alive);
  std::vector<Reception> rx(pts.size());
  for (Reception& r : rx) r.totalPower = 1.0;  // resolveSlot must reset these
  for (int slot = 0; slot < 3; ++slot) {
    medium.resolveSlot(pts, intents, activeNodes(intents), rx);
  }
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (intents[v].action != Action::Listen) continue;
    EXPECT_FALSE(rx[v].received);
    EXPECT_EQ(rx[v].totalPower, 0.0) << v;
  }

  const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
  const std::uint64_t listens = snap.counterOr("medium.listen_intents");
  ASSERT_EQ(listens, 3u * 225u);
  EXPECT_EQ(snap.counterOr("medium.decodes"), 0u);
  EXPECT_EQ(snap.counterOr("cause.no_transmitter") + snap.counterOr("cause.dead_listener"),
            listens);
  EXPECT_EQ(snap.counterOr("cause.dead_listener"), 3u * deadListeners);
  const ProbeState probes = telemetry::snapshotProbes();
  std::uint64_t seriesListens = 0, seriesSlots = 0;
  for (const SlotSeries::Window& win : probes.series.windows()) {
    seriesListens += win.listens;
    seriesSlots += win.slots;
  }
  EXPECT_EQ(seriesListens, listens);
  EXPECT_EQ(seriesSlots, 3u);

  // Through the Simulator: every listener is called back with Reception{}.
  telemetry::resetMetrics();
  const Network net(pts, SinrParams{});
  Simulator sim(net, 2, 5);
  std::uint64_t callbacks = 0;
  sim.step(
      sim.allNodes(), [&](NodeId v) { return intents[static_cast<std::size_t>(v)]; },
      [&](NodeId, const Reception& r) {
        ++callbacks;
        EXPECT_FALSE(r.received);
        EXPECT_EQ(r.totalPower, 0.0);
      });
  EXPECT_EQ(callbacks, 225u);
  const telemetry::MetricsSnapshot simSnap = telemetry::snapshotMetrics();
  EXPECT_EQ(simSnap.counterOr("cause.no_transmitter"), 225u);
  EXPECT_EQ(simSnap.counterOr("medium.listen_intents"), 225u);
}

// ------------------------------------------------------------ determinism

std::vector<telemetry::CounterSample> causeCounters(const telemetry::MetricsSnapshot& snap) {
  std::vector<telemetry::CounterSample> out;
  for (const telemetry::CounterSample& c : snap.counters) {
    if (c.name.rfind("cause.", 0) == 0) out.push_back(c);
  }
  return out;
}

telemetry::MetricsSnapshot runArmed(const ProbeWorkload& w, const SinrParams& params,
                                    int channels, int threads, ProbeState* probesOut = nullptr) {
  const ProbesGuard guard;
  Medium medium(params, channels, threads);
  medium.seedFading(41);
  std::vector<Reception> rx;
  for (int slot = 0; slot < 5; ++slot) {
    medium.resolveSlot(w.pts, w.intents, activeNodes(w.intents), rx);
  }
  if (probesOut != nullptr) *probesOut = telemetry::snapshotProbes();
  return telemetry::snapshotMetrics();
}

/// Cause counters and the whole probe aggregate are invariant to the
/// batch lane count — same contract as the counter registry.
TEST(CauseDeterminism, ThreadCountInvariant) {
  const ProbeWorkload w(600, 2, 23);
  SinrParams params;
  params.mediumMode = MediumMode::NearFar;
  params.fading.model = FadingModel::RayleighLognormal;
  ProbeState probes1, probes4;
  const telemetry::MetricsSnapshot one = runArmed(w, params, 2, 1, &probes1);
  const telemetry::MetricsSnapshot four = runArmed(w, params, 2, 4, &probes4);
  const auto a = causeCounters(one);
  const auto b = causeCounters(four);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
  }
  EXPECT_EQ(probes1, probes4);  // sketches and series, bit-for-bit
}

/// Without fading, NearFar classifies causes identically to Exact: every
/// transmitter that could clear beta*noise is inside the near radius, so
/// `best` (and the tie count above the decode bar) agree between modes.
TEST(CauseDeterminism, ExactMatchesNearFarWithoutFading) {
  const ProbeWorkload w(500, 2, 31, /*silentChannel=*/true);
  SinrParams exact;
  exact.mediumMode = MediumMode::Exact;
  SinrParams nearfar = exact;
  nearfar.mediumMode = MediumMode::NearFar;
  const telemetry::MetricsSnapshot a = runArmed(w, exact, 2, 2);
  const telemetry::MetricsSnapshot b = runArmed(w, nearfar, 2, 2);
  const auto ca = causeCounters(a);
  const auto cb = causeCounters(b);
  ASSERT_FALSE(ca.empty());
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].name, cb[i].name);
    EXPECT_EQ(ca[i].value, cb[i].value) << ca[i].name;
  }
  EXPECT_EQ(a.counterOr("cause.nearfar_truncated"), 0u);
}

// ------------------------------------------- the never-feeds-back contract

/// Arming probes must not change a Reception: the armed sweep adds only
/// reads and compares.  Fading + NearFar exercises the counter-keyed draw
/// path and the gridded farBestExact attribution probe.
TEST(ProbesNeverFeedBack, ArmedRunBitIdenticalToDisarmed) {
  const ProbeWorkload w(400, 2, 29);
  SinrParams params;
  params = params.withRange(1.0);
  params.fading.model = FadingModel::RayleighLognormal;
  params.mediumMode = MediumMode::NearFar;

  const auto receptions = [&](bool armed) {
    const ProbesGuard guard(armed);
    Medium medium(params, 2, 2);
    medium.seedFading(77);
    std::vector<Reception> rx;
    std::vector<Reception> all;
    for (int slot = 0; slot < 4; ++slot) {
      medium.resolveSlot(w.pts, w.intents, activeNodes(w.intents), rx);
      all.insert(all.end(), rx.begin(), rx.end());
    }
    return all;
  };
  const std::vector<Reception> off = receptions(false);
  const std::vector<Reception> on = receptions(true);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].received, on[i].received) << i;
    EXPECT_EQ(off[i].sinr, on[i].sinr) << i;  // bitwise: no tolerance
    EXPECT_EQ(off[i].signalPower, on[i].signalPower) << i;
    EXPECT_EQ(off[i].totalPower, on[i].totalPower) << i;
  }
}

}  // namespace
}  // namespace mcs
