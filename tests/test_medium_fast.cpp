// Coverage for the fast SINR medium kernel: PowerKernel equivalence with
// std::pow, the co-located-transmitter clamp, resolveSlot edge cases, and
// the NearFar / threaded execution paths against the exact reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "geom/deployment.h"
#include "sinr/medium.h"
#include "sinr/params.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mcs {
namespace {

// ---------------------------------------------------------------------------
// PowerKernel
// ---------------------------------------------------------------------------

TEST(PowerKernel, FastPathCoversIntegerAndHalfIntegerAlpha) {
  for (const double alpha : {2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.5, 8.0, 16.0}) {
    EXPECT_TRUE(PowerKernel(1.0, alpha).fastPath()) << "alpha=" << alpha;
  }
  for (const double alpha : {2.1, 3.14159, 2.7182818, 33.0}) {
    EXPECT_FALSE(PowerKernel(1.0, alpha).fastPath()) << "alpha=" << alpha;
  }
}

TEST(PowerKernel, MatchesStdPowOnRandomInputs) {
  Rng rng(42);
  for (const double alpha : {2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.5, 8.0, 3.14159}) {
    for (const double power : {1.0, 0.25, 7.5}) {
      const PowerKernel kern(power, alpha);
      for (int i = 0; i < 2000; ++i) {
        // Log-uniform squared distances spanning micro to macro scale.
        const double d2 = std::exp(rng.uniform(std::log(1e-8), std::log(1e4)));
        const double want = power / std::pow(d2, alpha / 2.0);
        const double got = kern(d2);
        EXPECT_NEAR(got, want, 1e-12 * want)
            << "alpha=" << alpha << " power=" << power << " d2=" << d2;
      }
    }
  }
}

TEST(PowerKernel, MatchesRxPowerThroughSquaredDistance) {
  const SinrParams p;
  const PowerKernel kern = p.kernel();
  for (const double d : {0.05, 0.3, 0.9, 1.7, 10.0}) {
    EXPECT_NEAR(kern(d * d), p.rxPower(d), 1e-12 * p.rxPower(d));
  }
}

// ---------------------------------------------------------------------------
// Co-located transmitter clamp (regression: rx = 1e300 used to flow into
// distanceFromPower and r.sinr, producing garbage senderDistance).
// ---------------------------------------------------------------------------

TEST(MediumColocated, DuplicatePositionDecodesWithFiniteRanging) {
  const SinrParams p;
  std::vector<Vec2> pos{{0.4, 0.4}, {0.4, 0.4}};  // transmitter on top of listener
  Message m;
  m.type = MsgType::Hello;
  std::vector<Intent> intents{Intent::transmit(0, m), Intent::listen(0)};
  std::vector<Reception> rx;
  Medium medium(p, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);

  const Reception& r = rx[1];
  ASSERT_TRUE(r.received);
  EXPECT_TRUE(std::isfinite(r.signalPower));
  EXPECT_TRUE(std::isfinite(r.totalPower));
  EXPECT_TRUE(std::isfinite(r.sinr));
  EXPECT_TRUE(std::isfinite(r.senderDistance));
  EXPECT_GT(r.senderDistance, 0.0);
  // The clamp maps exact co-location to exactly kMinDistance apart.
  EXPECT_NEAR(r.senderDistance, SinrParams::kMinDistance, 1e-15);
  EXPECT_NEAR(r.signalPower, p.rxPower(SinrParams::kMinDistance),
              1e-12 * p.rxPower(SinrParams::kMinDistance));
}

TEST(MediumColocated, DuplicateTransmittersCollideFinitely) {
  const SinrParams p;
  // Two transmitters at the same spot: equal (huge) powers, SINR ~ 1 < beta.
  std::vector<Vec2> pos{{0.2, 0.0}, {0.2, 0.0}, {0.0, 0.0}, {0.2, 0.0}};
  std::vector<Intent> intents{Intent::transmit(0, {}), Intent::transmit(0, {}),
                              Intent::listen(0), Intent::listen(0)};
  std::vector<Reception> rx;
  Medium medium(p, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_TRUE(std::isfinite(rx[2].totalPower));
  EXPECT_FALSE(rx[3].received);  // co-located listener: two equal giants collide
  EXPECT_TRUE(std::isfinite(rx[3].totalPower));
}

TEST(MediumColocated, TinyButPositiveDistancesAreNotClamped) {
  // Distances far below kMinDistance must keep their exact physics
  // (the exponential-chain lower-bound instance depends on this).
  const SinrParams p;
  const double d = 1e-15;
  std::vector<Vec2> pos{{0.0, 0.0}, {d, 0.0}};
  std::vector<Intent> intents{Intent::transmit(0, {}), Intent::listen(0)};
  std::vector<Reception> rx;
  Medium medium(p, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  ASSERT_TRUE(rx[1].received);
  EXPECT_NEAR(rx[1].signalPower, p.rxPower(d), 1e-12 * p.rxPower(d));
}

// ---------------------------------------------------------------------------
// resolveSlot edge cases
// ---------------------------------------------------------------------------

TEST(MediumEdge, AllIdleSlot) {
  const SinrParams p;
  std::vector<Vec2> pos{{0, 0}, {0.5, 0}, {1, 0}};
  std::vector<Intent> intents(3, Intent::idle());
  std::vector<Reception> rx;
  Medium medium(p, 2);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  for (const Reception& r : rx) {
    EXPECT_FALSE(r.received);
    EXPECT_EQ(r.totalPower, 0.0);
  }
  EXPECT_EQ(medium.stats().slots, 1u);
  EXPECT_EQ(medium.stats().transmissions, 0u);
  EXPECT_EQ(medium.stats().listens, 0u);
  EXPECT_EQ(medium.stats().decodes, 0u);
}

TEST(MediumEdge, ListenersOnSilentChannelObserveNothing) {
  const SinrParams p;
  std::vector<Vec2> pos{{0, 0}, {0.3, 0}, {0.6, 0}};
  // Transmitter on channel 0; both listeners tuned to silent channel 1.
  std::vector<Intent> intents{Intent::transmit(0, {}), Intent::listen(1), Intent::listen(1)};
  std::vector<Reception> rx;
  Medium medium(p, 2);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_FALSE(rx[1].received);
  EXPECT_EQ(rx[1].totalPower, 0.0);
  EXPECT_FALSE(rx[2].received);
  EXPECT_EQ(rx[2].totalPower, 0.0);
  EXPECT_EQ(medium.stats().listens, 2u);
  EXPECT_EQ(medium.stats().decodes, 0u);
}

TEST(MediumEdge, SingleTransmitterAtExactTransmissionRange) {
  const SinrParams p;
  ASSERT_NEAR(p.transmissionRange(), 1.0, 1e-12);
  // SINR condition (1) uses >=, so a lone transmitter at exactly R_T decodes.
  std::vector<Vec2> pos{{0, 0}, {1.0, 0}};
  std::vector<Intent> intents{Intent::transmit(0, {}), Intent::listen(0)};
  std::vector<Reception> rx;
  Medium medium(p, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  ASSERT_TRUE(rx[1].received);
  EXPECT_NEAR(rx[1].senderDistance, 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// NearFar mode vs exact reference
// ---------------------------------------------------------------------------

TEST(MediumNearFar, CoincidentFarClusterMatchesExactExactly) {
  SinrParams exact;
  SinrParams approx = exact;
  approx.mediumMode = MediumMode::NearFar;

  // One decodable near transmitter plus a tight far cluster at distance 10:
  // the far cell's centroid coincides with its members, so the batched
  // contribution equals the exact sum.
  std::vector<Vec2> pos{{0, 0}, {0.5, 0}, {10, 0}, {10, 0}, {10, 0}};
  Message m;
  m.src = 1;
  std::vector<Intent> intents{Intent::listen(0), Intent::transmit(0, m),
                              Intent::transmit(0, {}), Intent::transmit(0, {}),
                              Intent::transmit(0, {})};
  std::vector<Reception> a, b;
  Medium mediumExact(exact, 1);
  Medium mediumApprox(approx, 1);
  mediumExact.resolveSlot(pos, intents, activeNodes(intents), a);
  mediumApprox.resolveSlot(pos, intents, activeNodes(intents), b);

  ASSERT_TRUE(a[0].received);
  ASSERT_TRUE(b[0].received);
  EXPECT_EQ(b[0].msg.src, 1);
  EXPECT_DOUBLE_EQ(a[0].totalPower, b[0].totalPower);
  EXPECT_DOUBLE_EQ(a[0].signalPower, b[0].signalPower);
}

TEST(MediumNearFar, RandomInstanceAgreesWithExact) {
  SinrParams exact;
  SinrParams approx = exact;
  approx.mediumMode = MediumMode::NearFar;

  const int n = 1500;
  Rng rng(7);
  auto pos = deployUniformSquare(n, 8.0, rng);  // extent >> nearField * R_T
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(2));
    intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.1) ? Intent::transmit(c, {}) : Intent::listen(c);
  }
  std::vector<Reception> a, b;
  Medium mediumExact(exact, 2);
  Medium mediumApprox(approx, 2);
  mediumExact.resolveSlot(pos, intents, activeNodes(intents), a);
  mediumApprox.resolveSlot(pos, intents, activeNodes(intents), b);

  int listeners = 0;
  int decodeDisagreements = 0;
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (intents[vi].action != Action::Listen) continue;
    ++listeners;
    if (a[vi].received != b[vi].received) {
      ++decodeDisagreements;
    } else if (a[vi].received) {
      EXPECT_EQ(a[vi].msg.src, b[vi].msg.src);
      // The decoded signal itself is summed exactly in both modes.
      EXPECT_DOUBLE_EQ(a[vi].signalPower, b[vi].signalPower);
    }
    // The batched far field is a second-order approximation of the
    // interference sum; the carrier-sense total must stay close.
    if (a[vi].totalPower > 0.0) {
      EXPECT_NEAR(b[vi].totalPower, a[vi].totalPower, 0.05 * a[vi].totalPower);
    }
  }
  ASSERT_GT(listeners, 0);
  // Decode decisions may differ only for SINR values inside the far-field
  // error band around beta: a rare event on a random instance.
  EXPECT_LE(decodeDisagreements, listeners / 100);
}

// ---------------------------------------------------------------------------
// Hierarchical far-field summation vs the exact reference
// ---------------------------------------------------------------------------

TEST(MediumHier, CoincidentFarClusterMatchesExactExactly) {
  SinrParams exact;
  SinrParams approx = exact;
  approx.mediumMode = MediumMode::Hierarchical;

  // One decodable near transmitter plus a tight far cluster at distance 10:
  // all cluster members share one position, so every pyramid level's
  // centroid coincides with them and the batched contribution equals the
  // exact sum no matter which level the admissibility rule picks.
  std::vector<Vec2> pos{{0, 0}, {0.5, 0}, {10, 0}, {10, 0}, {10, 0}};
  Message m;
  m.src = 1;
  std::vector<Intent> intents{Intent::listen(0), Intent::transmit(0, m),
                              Intent::transmit(0, {}), Intent::transmit(0, {}),
                              Intent::transmit(0, {})};
  std::vector<Reception> a, b;
  Medium mediumExact(exact, 1);
  Medium mediumApprox(approx, 1);
  mediumExact.resolveSlot(pos, intents, activeNodes(intents), a);
  mediumApprox.resolveSlot(pos, intents, activeNodes(intents), b);

  ASSERT_TRUE(a[0].received);
  ASSERT_TRUE(b[0].received);
  EXPECT_EQ(b[0].msg.src, 1);
  EXPECT_DOUBLE_EQ(a[0].totalPower, b[0].totalPower);
  EXPECT_DOUBLE_EQ(a[0].signalPower, b[0].signalPower);
}

/// Shared harness for the hierarchical error-bound tests: resolves one
/// random slot in Exact and Hierarchical modes and reports the worst
/// relative totalPower error plus the decode disagreement count.
struct HierVsExact {
  double maxRelErr = 0.0;
  int listeners = 0;
  int decodeDisagreements = 0;
};

HierVsExact compareHierToExact(double theta, int n, double side, std::uint64_t seed) {
  SinrParams exact;
  SinrParams approx = exact;
  approx.mediumMode = MediumMode::Hierarchical;
  approx.hierTheta = theta;

  Rng rng(seed);
  auto pos = deployUniformSquare(n, side, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(2));
    intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.1) ? Intent::transmit(c, {}) : Intent::listen(c);
  }
  std::vector<Reception> a, b;
  Medium mediumExact(exact, 2);
  Medium mediumApprox(approx, 2);
  mediumExact.resolveSlot(pos, intents, activeNodes(intents), a);
  mediumApprox.resolveSlot(pos, intents, activeNodes(intents), b);

  HierVsExact r;
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (intents[vi].action != Action::Listen) continue;
    ++r.listeners;
    if (a[vi].received != b[vi].received) {
      ++r.decodeDisagreements;
    } else if (a[vi].received) {
      EXPECT_EQ(a[vi].msg.src, b[vi].msg.src);
      // Near-field members are summed exactly in both modes, so the
      // decoded signal itself is bit-equal.
      EXPECT_DOUBLE_EQ(a[vi].signalPower, b[vi].signalPower);
    }
    if (a[vi].totalPower > 0.0) {
      r.maxRelErr = std::max(
          r.maxRelErr, std::abs(b[vi].totalPower - a[vi].totalPower) / a[vi].totalPower);
    }
  }
  return r;
}

TEST(MediumHier, RandomInstanceAgreesWithExact) {
  // Extent 12 >> nearRadius 2 forces multi-level batching (a 5-level
  // pyramid over the 1-unit base cells).
  const HierVsExact r = compareHierToExact(0.5, 2000, 12.0, 7);
  ASSERT_GT(r.listeners, 0);
  // The admissibility rule bounds each batched contribution's centroid
  // displacement by sqrt(2) * theta relative to its distance; with the
  // centroid cancelling the first-order term, the aggregate interference
  // error stays far inside 5% (the NearFar test's bound).
  EXPECT_LT(r.maxRelErr, 0.05);
  EXPECT_LE(r.decodeDisagreements, r.listeners / 100);
}

TEST(MediumHier, ThetaKnobTightensTheErrorBound) {
  // Smaller theta opens more cells: the far field is resolved finer and
  // the worst-case relative error must not grow.  theta = 1 is the
  // documented loose end of the knob; even there the error stays within
  // a usable envelope.
  const HierVsExact loose = compareHierToExact(1.0, 2000, 12.0, 7);
  const HierVsExact mid = compareHierToExact(0.5, 2000, 12.0, 7);
  const HierVsExact tight = compareHierToExact(0.2, 2000, 12.0, 7);
  ASSERT_GT(loose.listeners, 0);
  EXPECT_LE(tight.maxRelErr, mid.maxRelErr * 1.01 + 1e-12);
  EXPECT_LE(mid.maxRelErr, loose.maxRelErr * 1.01 + 1e-12);
  EXPECT_LT(loose.maxRelErr, 0.15);
  EXPECT_LT(tight.maxRelErr, 0.02);
}

/// Every Reception field, bit for bit (NaN-free by construction).
void expectSameReceptions(const std::vector<Reception>& a, const std::vector<Reception>& b,
                          int slot) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].received, b[i].received) << "slot " << slot << " node " << i;
    ASSERT_EQ(a[i].msg.src, b[i].msg.src) << "slot " << slot << " node " << i;
    ASSERT_EQ(a[i].totalPower, b[i].totalPower) << "slot " << slot << " node " << i;
    ASSERT_EQ(a[i].signalPower, b[i].signalPower) << "slot " << slot << " node " << i;
    ASSERT_EQ(a[i].sinr, b[i].sinr) << "slot " << slot << " node " << i;
    ASSERT_EQ(a[i].senderDistance, b[i].senderDistance) << "slot " << slot << " node " << i;
  }
}

TEST(MediumGridded, DriftingPositionsStayWithinBoundsAndForgetHistory) {
  // Gridded fields are rebuilt every slot from that slot's transmitter
  // positions, so a drifting run is a sequence of independent slots: slot
  // k equals a fresh Medium resolving only slot k (advanced by k silent
  // slots first, so its fading ordinal matches).  The drift is large
  // enough to move transmitters between cells from slot to slot.  Without
  // fading, both gridded modes must also stay within their error bounds
  // against Exact on every drifted slot.
  const int n = 1200;
  const int channels = 2;
  Rng rng(19);
  const auto start = deployUniformSquare(n, 10.0, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(2));
    Message msg;
    msg.src = v;
    intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.1) ? Intent::transmit(c, msg) : Intent::listen(c);
  }
  const std::vector<Intent> listenOnly(static_cast<std::size_t>(n), Intent::listen(0));
  for (const MediumMode mode : {MediumMode::NearFar, MediumMode::Hierarchical}) {
    for (const FadingModel fading : {FadingModel::None, FadingModel::Rayleigh}) {
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode) << " fading "
                                      << static_cast<int>(fading));
      SinrParams exact;
      exact.fading.model = fading;
      SinrParams approx = exact;
      approx.mediumMode = mode;
      Medium mediumExact(exact, channels);
      Medium drifting(approx, channels, 2);
      drifting.seedFading(77);
      std::vector<Vec2> pos = start;
      Rng drift(5);
      std::vector<Reception> a, b, fresh;
      for (int slot = 0; slot < 4; ++slot) {
        for (Vec2& p : pos) {
          p.x += 0.3 * (2.0 * drift.uniform() - 1.0);
          p.y += 0.3 * (2.0 * drift.uniform() - 1.0);
        }
        drifting.resolveSlot(pos, intents, activeNodes(intents), b);

        Medium once(approx, channels);
        once.seedFading(77);
        for (int k = 0; k < slot; ++k) {
          once.resolveSlot(pos, listenOnly, activeNodes(listenOnly), fresh);
        }
        once.resolveSlot(pos, intents, activeNodes(intents), fresh);
        expectSameReceptions(fresh, b, slot);

        if (fading != FadingModel::None) continue;
        mediumExact.resolveSlot(pos, intents, activeNodes(intents), a);
        int decodeDisagreements = 0;
        int listeners = 0;
        for (int v = 0; v < n; ++v) {
          const auto vi = static_cast<std::size_t>(v);
          if (intents[vi].action != Action::Listen) continue;
          ++listeners;
          decodeDisagreements += a[vi].received != b[vi].received;
          if (a[vi].totalPower > 0.0) {
            EXPECT_NEAR(b[vi].totalPower, a[vi].totalPower, 0.05 * a[vi].totalPower);
          }
        }
        ASSERT_GT(listeners, 0);
        EXPECT_LE(decodeDisagreements, listeners / 100);
      }
    }
  }
}

TEST(MediumHier, FadingRunsAreDeterministicPerKey) {
  // Far-cell fading gains are shared per (slot, level, cell, listener)
  // draw; two media with the same key must produce identical slots.
  SinrParams p;
  p.mediumMode = MediumMode::Hierarchical;
  p.fading.model = FadingModel::Rayleigh;
  const int n = 600;
  Rng rng(23);
  auto pos = deployUniformSquare(n, 6.0, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.1) ? Intent::transmit(0, {}) : Intent::listen(0);
  }
  Medium m1(p, 1);
  Medium m2(p, 1);
  m1.seedFading(42);
  m2.seedFading(42);
  std::vector<Reception> a, b;
  for (int slot = 0; slot < 2; ++slot) {
    m1.resolveSlot(pos, intents, activeNodes(intents), a);
    m2.resolveSlot(pos, intents, activeNodes(intents), b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].received, b[i].received);
      EXPECT_EQ(a[i].totalPower, b[i].totalPower);
    }
  }
  EXPECT_GT(m1.stats().decodes, 0u);
}

// ---------------------------------------------------------------------------
// Threaded execution vs single-threaded reference
// ---------------------------------------------------------------------------

TEST(MediumThreads, ResultsBitIdenticalToSingleThread) {
  for (const MediumMode mode :
       {MediumMode::Exact, MediumMode::NearFar, MediumMode::Hierarchical}) {
    SinrParams p;
    p.mediumMode = mode;
    const int n = 800;
    Rng rng(11);
    auto pos = deployUniformSquare(n, 3.0, rng);
    std::vector<Intent> intents(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      const auto c = static_cast<ChannelId>(rng.below(4));
      intents[static_cast<std::size_t>(v)] =
          rng.bernoulli(0.08) ? Intent::transmit(c, {}) : Intent::listen(c);
    }
    Medium serial(p, 4, 1);
    Medium threaded(p, 4, 4);
    EXPECT_EQ(threaded.numThreads(), 4);
    std::vector<Reception> a, b;
    for (int slot = 0; slot < 3; ++slot) {
      serial.resolveSlot(pos, intents, activeNodes(intents), a);
      threaded.resolveSlot(pos, intents, activeNodes(intents), b);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].received, b[i].received);
        EXPECT_EQ(a[i].totalPower, b[i].totalPower);
        EXPECT_EQ(a[i].signalPower, b[i].signalPower);
        EXPECT_EQ(a[i].sinr, b[i].sinr);
        EXPECT_EQ(a[i].senderDistance, b[i].senderDistance);
      }
    }
    EXPECT_EQ(serial.stats().decodes, threaded.stats().decodes);
    EXPECT_EQ(serial.stats().listens, threaded.stats().listens);
  }
}

TEST(ThreadPool, ChunksPartitionExactly) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (const int lanes : {1, 2, 3, 8}) {
      std::size_t covered = 0;
      std::size_t prevEnd = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        const auto [begin, end] = ThreadPool::chunk(n, lanes, lane);
        EXPECT_EQ(begin, prevEnd);
        EXPECT_LE(begin, end);
        covered += end - begin;
        prevEnd = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prevEnd, n);
    }
  }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallelFor(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable for subsequent jobs.
  std::atomic<std::size_t> total{0};
  pool.parallelFor(100, [&](std::size_t b, std::size_t e) { total += e - b; });
  EXPECT_EQ(total.load(), 100u);
}

}  // namespace
}  // namespace mcs
