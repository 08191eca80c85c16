#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sinr/fading.h"
#include "sinr/medium.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "test_support.h"

/// The stochastic channel-impairment layer: statistical sanity of the
/// gain draws and — the load-bearing contract — bit-reproducibility of
/// impaired runs per seed, independent of thread count.
namespace mcs {
namespace {

FadingParams rayleigh() {
  FadingParams p;
  p.model = FadingModel::Rayleigh;
  return p;
}

FadingParams lognormal(double sigmaDb) {
  FadingParams p;
  p.model = FadingModel::Lognormal;
  p.shadowSigmaDb = sigmaDb;
  return p;
}

TEST(FadingField, PureFunctionOfKeyAndTriple) {
  const FadingField a(rayleigh(), 42);
  const FadingField b(rayleigh(), 42);
  const FadingField c(rayleigh(), 43);
  int differs = 0;
  for (std::uint64_t slot = 0; slot < 20; ++slot) {
    for (std::uint64_t tx = 0; tx < 5; ++tx) {
      const double g = a.gain(slot, tx, tx + 1);
      EXPECT_EQ(g, b.gain(slot, tx, tx + 1));  // bitwise: same key, same triple
      EXPECT_GT(g, 0.0);
      differs += g != c.gain(slot, tx, tx + 1);
    }
  }
  EXPECT_GT(differs, 90);  // a different key re-draws essentially everything
}

TEST(FadingField, TripleComponentsAllMatter) {
  const FadingField f(rayleigh(), 7);
  const double base = f.gain(3, 5, 9);
  EXPECT_NE(base, f.gain(4, 5, 9));
  EXPECT_NE(base, f.gain(3, 6, 9));
  EXPECT_NE(base, f.gain(3, 5, 10));
  // Asymmetric in (tx, rx): the w->v and v->w channels fade independently.
  EXPECT_NE(f.gain(3, 5, 9), f.gain(3, 9, 5));
}

TEST(FadingField, RayleighGainIsUnitMeanExponential) {
  const FadingField f(rayleigh(), 1234);
  double sum = 0.0;
  double belowOne = 0;
  const int samples = 40000;
  for (int i = 0; i < samples; ++i) {
    const double g = f.gain(static_cast<std::uint64_t>(i), 1, 2);
    ASSERT_GT(g, 0.0);
    sum += g;
    belowOne += g < 1.0;
  }
  EXPECT_NEAR(sum / samples, 1.0, 0.02);                        // E[Exp(1)] = 1
  EXPECT_NEAR(belowOne / samples, 1.0 - std::exp(-1.0), 0.01);  // P[g < 1] = 1 - e^-1
}

TEST(FadingField, LognormalGainHasUnitMedianAndDbSymmetry) {
  const double sigmaDb = 6.0;
  const FadingField f(lognormal(sigmaDb), 99);
  std::vector<double> db;
  const int samples = 40000;
  double belowOne = 0;
  for (int i = 0; i < samples; ++i) {
    const double g = f.gain(static_cast<std::uint64_t>(i), 3, 4);
    ASSERT_GT(g, 0.0);
    db.push_back(10.0 * std::log10(g));
    belowOne += g < 1.0;
  }
  // ln(gain) ~ N(0, sigma): median gain 1, dB values symmetric around 0
  // with standard deviation sigmaDb.
  EXPECT_NEAR(belowOne / samples, 0.5, 0.01);
  double mean = 0.0;
  for (const double x : db) mean += x;
  mean /= samples;
  double var = 0.0;
  for (const double x : db) var += (x - mean) * (x - mean);
  var /= samples - 1;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), sigmaDb, 0.1);
}

/// Runs `slots` random slots on a fresh Medium and returns the decode
/// trace: for every (slot, listener), whether it decoded and at what
/// signal power (bitwise-comparable doubles).
struct Trace {
  std::vector<char> received;
  std::vector<double> signal;
  std::vector<double> total;

  bool operator==(const Trace&) const = default;
};

Trace runTrace(const SinrParams& params, std::uint64_t fadingKey, int numThreads, int slots,
               std::uint64_t seed) {
  Rng rng(seed);
  const auto pts = deployUniformSquare(150, 1.0, rng);
  Medium medium(params, 4, numThreads);
  medium.seedFading(fadingKey);
  std::vector<Intent> intents(pts.size());
  std::vector<Reception> rx;
  Trace t;
  Rng intentRng(seed ^ 0x1234);
  for (int s = 0; s < slots; ++s) {
    for (std::size_t v = 0; v < pts.size(); ++v) {
      const auto c = static_cast<ChannelId>(intentRng.below(4));
      intents[v] = intentRng.bernoulli(0.2) ? Intent::transmit(c, {}) : Intent::listen(c);
    }
    medium.resolveSlot(pts, intents, activeNodes(intents), rx);
    for (const Reception& r : rx) {
      t.received.push_back(r.received ? 1 : 0);
      t.signal.push_back(r.signalPower);
      t.total.push_back(r.totalPower);
    }
  }
  return t;
}

TEST(FadingMedium, SameSeedSameDecodeTrace) {
  SinrParams params;
  params.fading.model = FadingModel::RayleighLognormal;
  params.fading.shadowSigmaDb = 4.0;
  const Trace a = runTrace(params, 555, 1, 12, 77);
  const Trace b = runTrace(params, 555, 1, 12, 77);
  EXPECT_TRUE(a == b);
}

TEST(FadingMedium, DifferentFadingKeyChangesTrace) {
  SinrParams params;
  params.fading.model = FadingModel::Rayleigh;
  const Trace a = runTrace(params, 555, 1, 12, 77);
  const Trace b = runTrace(params, 556, 1, 12, 77);
  EXPECT_FALSE(a == b);
}

TEST(FadingMedium, TraceIndependentOfThreadCount) {
  SinrParams params;
  params.fading.model = FadingModel::RayleighLognormal;
  params.fading.shadowSigmaDb = 5.0;
  const Trace a = runTrace(params, 321, 1, 12, 99);
  const Trace b = runTrace(params, 321, 4, 12, 99);
  EXPECT_TRUE(a == b);
}

TEST(FadingMedium, NearFarWithFadingStaysDeterministic) {
  SinrParams params;
  params.mediumMode = MediumMode::NearFar;
  params.fading.model = FadingModel::Rayleigh;
  const Trace a = runTrace(params, 888, 1, 10, 13);
  const Trace b = runTrace(params, 888, 3, 10, 13);
  EXPECT_TRUE(a == b);
}

TEST(FadingMedium, DisabledFadingMatchesBaselineBitwise) {
  // FadingModel::None must leave the medium untouched regardless of key.
  SinrParams params;
  const Trace a = runTrace(params, FadingField::kDefaultKey, 1, 8, 3);
  const Trace b = runTrace(params, 4242, 1, 8, 3);
  EXPECT_TRUE(a == b);
}

// Fading gains are keyed by the slot ordinal, which a slot with listeners
// but no transmitter must advance exactly as a swept slot does: after two
// silent slots, a transmitting slot draws what it draws after two swept
// ones, and not what it draws as the first slot.
TEST(FadingMedium, SilentSlotsAdvanceTheFadingOrdinal) {
  SinrParams params;
  params.fading.model = FadingModel::Rayleigh;
  const std::vector<Vec2> pts{{0.0, 0.0}, {0.4, 0.0}, {5.0, 5.0}, {5.3, 5.0}};
  // Node 0 transmits to node 1 on channel 0; nodes 2 and 3 are elsewhere.
  const std::vector<Intent> hit{Intent::transmit(0, {}), Intent::listen(0), Intent::idle(),
                                Intent::idle()};
  const std::vector<Intent> silent{Intent::idle(), Intent::listen(0), Intent::listen(1),
                                   Intent::idle()};
  const std::vector<Intent> swept{Intent::idle(), Intent::idle(), Intent::transmit(1, {}),
                                  Intent::listen(1)};
  const auto lastReception = [&](const std::vector<const std::vector<Intent>*>& slots) {
    Medium medium(params, 2);
    medium.seedFading(4242);
    std::vector<Reception> rx;
    for (const std::vector<Intent>* intents : slots) {
      medium.resolveSlot(pts, *intents, activeNodes(*intents), rx);
    }
    return rx[1];
  };
  const Reception afterSilent = lastReception({&silent, &silent, &hit});
  const Reception afterSwept = lastReception({&swept, &swept, &hit});
  const Reception first = lastReception({&hit});
  ASSERT_TRUE(afterSwept.received);
  EXPECT_EQ(afterSilent.received, afterSwept.received);
  EXPECT_EQ(afterSilent.signalPower, afterSwept.signalPower);
  EXPECT_EQ(afterSilent.totalPower, afterSwept.totalPower);
  EXPECT_NE(first.signalPower, afterSwept.signalPower);
}

TEST(FadingMedium, ResetStatsDoesNotRewindTheFadingSequence) {
  // A warmup/measure split (resetStats between phases) must keep drawing
  // fresh gains, not replay the consumed prefix.
  SinrParams params;
  params.fading.model = FadingModel::Rayleigh;
  Rng rng(5);
  const auto pts = deployUniformSquare(80, 1.0, rng);
  std::vector<Intent> intents(pts.size());
  for (std::size_t v = 0; v < pts.size(); ++v) {
    intents[v] = v % 4 == 0 ? Intent::transmit(0, {}) : Intent::listen(0);
  }
  Medium medium(params, 1);
  medium.seedFading(777);
  std::vector<Reception> first, second;
  medium.resolveSlot(pts, intents, activeNodes(intents), first);
  medium.resetStats();
  medium.resolveSlot(pts, intents, activeNodes(intents), second);
  EXPECT_EQ(medium.stats().slots, 1u);  // stats did reset...
  bool anyDiffers = false;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (first[v].totalPower != second[v].totalPower) anyDiffers = true;
  }
  EXPECT_TRUE(anyDiffers);  // ...but the fading draws moved on
}

TEST(FadingSimulator, SeedReproducesImpairedRun) {
  // End-to-end: two Simulators over the same impaired network, same seed
  // -> identical medium statistics after identical protocol slots.
  SinrParams params;
  params.fading.model = FadingModel::Rayleigh;
  Rng rng(42);
  auto pts = deployUniformSquare(120, 1.0, rng);
  Network net(std::move(pts), params);

  const auto run = [&net](std::uint64_t seed) {
    Simulator sim(net, 4, seed);
    for (int s = 0; s < 40; ++s) {
      sim.step(sim.allNodes(), [&sim, s](NodeId v) {
            const auto c = static_cast<ChannelId>(sim.rng(v).below(4));
            return (s + v) % 3 == 0 ? Intent::transmit(c, {}) : Intent::listen(c);
          },
          [](NodeId, const Reception&) {});
    }
    return sim.mediumStats();
  };

  const MediumStats a = run(7);
  const MediumStats b = run(7);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.listens, b.listens);
  EXPECT_EQ(a.transmissions, b.transmissions);
  const MediumStats c = run(8);
  EXPECT_NE(a.decodes, c.decodes);  // different seed, different fading + intents
}

}  // namespace
}  // namespace mcs
