// Medium bit-reproducibility locks.
//
// The Exact golden hashes below were captured from the pre-SoA-refactor
// Medium (the seed implementation with the scalar per-pair loop) and must
// never change: they pin the contract that MediumMode::Exact results are
// bit-identical across refactors, optimization levels, and thread counts.
// If a change legitimately needs to break them (e.g. an intentional model
// change), that is a documented compatibility break, not a refresh.
//
// The gridded hashes (NearFar and Hierarchical) were captured from the
// medium with two field builders (per-channel transmitter grid for static
// positions, persistent all-node grid for drifting ones) on its static
// path, and hold the same contract for the gridded far field: cell
// partition, centroid batching, pyramid admission and the shared far-cell
// fading draws.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "geom/deployment.h"
#include "sinr/medium.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace mcs {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Hashes every Reception bit pattern over `slots` Exact-mode slots of a
/// fixed workload: n=600 uniform nodes, 8% transmitters, 2% idlers.  The
/// recipe (deployment, intent draws, fading key) must stay frozen — it
/// is what the golden constants were captured against.
std::uint64_t hashExactSlots(double alpha, int channels, FadingModel fading, int slots,
                             int threads) {
  SinrParams p;
  p.alpha = alpha;
  p = p.withRange(1.0);
  p.fading.model = fading;
  Rng rng(12345);
  const int n = 600;
  const auto pos = deployUniformSquare(n, 2.0, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
    if (rng.bernoulli(0.08)) {
      Message msg;
      msg.type = MsgType::Data;
      msg.src = v;
      intents[static_cast<std::size_t>(v)] = Intent::transmit(c, msg);
    } else if (rng.bernoulli(0.1)) {
      intents[static_cast<std::size_t>(v)] = Intent::idle();
    } else {
      intents[static_cast<std::size_t>(v)] = Intent::listen(c);
    }
  }
  Medium medium(p, channels, threads);
  medium.seedFading(987654321ull);
  std::vector<Reception> rx;
  std::uint64_t h = 1469598103934665603ull;
  for (int s = 0; s < slots; ++s) {
    medium.resolveSlot(pos, intents, activeNodes(intents), rx);
    for (const Reception& r : rx) {
      h = fnv1a(h, r.received ? 1 : 0);
      h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.msg.src)));
      h = fnv1a(h, bits(r.totalPower));
      h = fnv1a(h, bits(r.signalPower));
      h = fnv1a(h, bits(r.sinr));
      h = fnv1a(h, bits(r.senderDistance));
    }
  }
  return h;
}

TEST(MediumGolden, ExactAlpha3FourChannels) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::None, 3, 1), 0x67ab07fc693655a4ull);
}

TEST(MediumGolden, ExactHalfIntegerAlpha) {
  EXPECT_EQ(hashExactSlots(2.5, 2, FadingModel::None, 3, 1), 0xfba84415461a7a81ull);
}

TEST(MediumGolden, ExactIrrationalAlphaPowFallback) {
  EXPECT_EQ(hashExactSlots(3.14159, 1, FadingModel::None, 3, 1), 0x7a614bc18a0d8433ull);
}

TEST(MediumGolden, ExactRayleighFading) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::Rayleigh, 3, 1), 0x85d2bd60cae7e745ull);
}

TEST(MediumGolden, ExactCompositeFadingAlpha4) {
  EXPECT_EQ(hashExactSlots(4.0, 8, FadingModel::RayleighLognormal, 3, 1),
            0x26cb6c57222b3dd4ull);
}

TEST(MediumGolden, ExactThreadedMatchesSerialGolden) {
  EXPECT_EQ(hashExactSlots(3.0, 4, FadingModel::None, 3, 4), 0x67ab07fc693655a4ull);
}

/// Gridded-mode recipe, frozen like the Exact one: n=1500 uniform nodes
/// on a 12 x 12 field with R_T = 1 (near radius 2, base cells of side 1),
/// so far cells and several pyramid levels are admitted.  4 channels, 8%
/// transmitters, 10% idlers.  Telemetry is armed for the run (it never
/// feeds back into receptions) so the caller can check that the far field
/// was really exercised.
struct GriddedRun {
  std::uint64_t hash = 0;
  std::uint64_t farCells = 0;
  int hierLevelsAdmitted = 0;
};

GriddedRun hashGriddedSlots(MediumMode mode, double theta, FadingModel fading, int threads) {
  SinrParams p;
  p.alpha = 3.0;
  p = p.withRange(1.0);
  p.mediumMode = mode;
  p.hierTheta = theta;
  p.fading.model = fading;
  Rng rng(24680);
  const int n = 1500;
  const int channels = 4;
  const auto pos = deployUniformSquare(n, 12.0, rng);
  std::vector<Intent> intents(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
    if (rng.bernoulli(0.08)) {
      Message msg;
      msg.type = MsgType::Data;
      msg.src = v;
      intents[static_cast<std::size_t>(v)] = Intent::transmit(c, msg);
    } else if (rng.bernoulli(0.1)) {
      intents[static_cast<std::size_t>(v)] = Intent::idle();
    } else {
      intents[static_cast<std::size_t>(v)] = Intent::listen(c);
    }
  }
  telemetry::resetMetrics();
  telemetry::setEnabled(true);
  Medium medium(p, channels, threads);
  medium.seedFading(987654321ull);
  std::vector<Reception> rx;
  GriddedRun run;
  std::uint64_t h = 1469598103934665603ull;
  for (int s = 0; s < 3; ++s) {
    medium.resolveSlot(pos, intents, activeNodes(intents), rx);
    for (const Reception& r : rx) {
      h = fnv1a(h, r.received ? 1 : 0);
      h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(r.msg.src)));
      h = fnv1a(h, bits(r.totalPower));
      h = fnv1a(h, bits(r.signalPower));
      h = fnv1a(h, bits(r.sinr));
      h = fnv1a(h, bits(r.senderDistance));
    }
  }
  const telemetry::MetricsSnapshot snap = telemetry::snapshotMetrics();
  telemetry::setEnabled(false);
  telemetry::resetMetrics();
  run.hash = h;
  run.farCells = snap.counterOr("medium.far_cells_batched");
  for (int level = 0; level < 8; ++level) {
    if (snap.counterOr("medium.hier_far_cells.L" + std::to_string(level)) > 0) {
      ++run.hierLevelsAdmitted;
    }
  }
  return run;
}

/// One gridded golden: the serial and the 4-thread run hash to `golden`,
/// and the far field (and, for Hierarchical, more than one pyramid level)
/// took part.
void expectGriddedGolden(MediumMode mode, double theta, FadingModel fading,
                         std::uint64_t golden) {
  for (const int threads : {1, 4}) {
    const GriddedRun run = hashGriddedSlots(mode, theta, fading, threads);
    EXPECT_EQ(run.hash, golden) << "threads=" << threads;
    EXPECT_GT(run.farCells, 0u) << "threads=" << threads;
    if (mode == MediumMode::Hierarchical) {
      EXPECT_GE(run.hierLevelsAdmitted, 2) << "threads=" << threads;
    }
  }
}

TEST(MediumGoldenGridded, NearFar) {
  expectGriddedGolden(MediumMode::NearFar, 0.5, FadingModel::None, 0xd5aad6de406572c0ull);
}

TEST(MediumGoldenGridded, NearFarRayleighFading) {
  expectGriddedGolden(MediumMode::NearFar, 0.5, FadingModel::Rayleigh, 0x540fd393247080abull);
}

TEST(MediumGoldenGridded, HierTheta05) {
  expectGriddedGolden(MediumMode::Hierarchical, 0.5, FadingModel::None, 0x8eca7c5e2dbcc47eull);
}

TEST(MediumGoldenGridded, HierTheta05RayleighFading) {
  expectGriddedGolden(MediumMode::Hierarchical, 0.5, FadingModel::Rayleigh, 0x63f5ed5129393f3aull);
}

TEST(MediumGoldenGridded, HierTheta03) {
  expectGriddedGolden(MediumMode::Hierarchical, 0.3, FadingModel::None, 0x4e4c77882d5ce323ull);
}

TEST(MediumGoldenGridded, HierTheta03RayleighFading) {
  expectGriddedGolden(MediumMode::Hierarchical, 0.3, FadingModel::Rayleigh, 0x3f4fd77bc5c69ee3ull);
}

// The SoA sweep evaluates path loss through PowerKernel::batch; the
// contract is per-element bit-identity with the scalar operator() for
// every exponent class (whole, half-integer, quarter, and the std::pow
// fallback).
TEST(MediumGolden, KernelBatchBitIdenticalToScalar) {
  Rng rng(777);
  std::vector<double> d2(1537);  // odd length: exercises the tail
  for (double& v : d2) v = 1e-6 + 100.0 * rng.uniform();
  std::vector<double> out(d2.size());
  for (const double alpha : {0.5, 1.0, 2.5, 3.0, 3.5, 4.0, 5.25, 6.0, 9.5, 12.0, 17.0,
                             3.14159, 2.000001}) {
    const PowerKernel kern(1.7, alpha);
    kern.batch(d2.data(), out.data(), d2.size());
    for (std::size_t i = 0; i < d2.size(); ++i) {
      ASSERT_EQ(bits(out[i]), bits(kern(d2[i])))
          << "alpha=" << alpha << " i=" << i << " d2=" << d2[i];
    }
  }
}

// The channel-range check must survive Release builds (plain asserts
// compile out, which would leave out-of-bounds indexing in -DNDEBUG).
TEST(MediumGoldenDeathTest, OutOfRangeChannelAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinrParams p;
  Medium medium(p, 2);
  const std::vector<Vec2> pos{{0.0, 0.0}, {1.0, 0.0}};
  std::vector<Intent> intents{Intent::listen(0), Intent::listen(0)};
  intents[1].channel = 7;  // out of [0, 2)
  std::vector<Reception> rx;
  EXPECT_DEATH(medium.resolveSlot(pos, intents, activeNodes(intents), rx), "channel 7");
}

}  // namespace
}  // namespace mcs
