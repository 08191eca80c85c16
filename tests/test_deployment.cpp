#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "geom/deployment.h"

/// Deployment-generator contracts: determinism under a fixed seed, points
/// inside the declared region, and duplicate elimination.
namespace mcs {
namespace {

void expectIdentical(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "point " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "point " << i;
  }
}

TEST(Deployment, DeterministicUnderFixedSeed) {
  // Every generator, same seed twice -> bitwise-identical point sets.
  for (int pass = 0; pass < 1; ++pass) {
    Rng r1(77), r2(77);
    expectIdentical(deployUniformSquare(200, 1.5, r1), deployUniformSquare(200, 1.5, r2));
    expectIdentical(deployUniformDisk(200, 0.8, r1), deployUniformDisk(200, 0.8, r2));
    expectIdentical(deployPerturbedGrid(200, 1.5, 0.4, r1),
                    deployPerturbedGrid(200, 1.5, 0.4, r2));
    expectIdentical(deployClustered(200, 5, 1.5, 0.1, r1),
                    deployClustered(200, 5, 1.5, 0.1, r2));
    expectIdentical(deployCorridor(200, 3.0, 0.3, r1), deployCorridor(200, 3.0, 0.3, r2));
    expectIdentical(deployPoissonDisk(150, 1.5, 0.05, r1),
                    deployPoissonDisk(150, 1.5, 0.05, r2));
    expectIdentical(deployDenseSparseMixture(200, 2.0, 0.6, 0.15, r1),
                    deployDenseSparseMixture(200, 2.0, 0.6, 0.15, r2));
  }
  // ExponentialChain takes no Rng at all.
  expectIdentical(deployExponentialChain(32, 1.3, 0.5), deployExponentialChain(32, 1.3, 0.5));
}

TEST(Deployment, DifferentSeedsDiffer) {
  Rng r1(1), r2(2);
  const auto a = deployUniformSquare(50, 1.0, r1);
  const auto b = deployUniformSquare(50, 1.0, r2);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  EXPECT_EQ(same, 0);
}

TEST(Deployment, UniformSquareBounds) {
  Rng rng(5);
  const double side = 2.5;
  for (const Vec2& p : deployUniformSquare(500, side, rng)) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, side);
  }
}

TEST(Deployment, UniformDiskBounds) {
  Rng rng(6);
  const double radius = 1.25;
  for (const Vec2& p : deployUniformDisk(500, radius, rng)) {
    EXPECT_LE(p.norm(), radius);
  }
}

TEST(Deployment, PerturbedGridBoundsAndCount) {
  Rng rng(7);
  const double side = 1.8;
  const auto pts = deployPerturbedGrid(300, side, 0.4, rng);
  EXPECT_EQ(pts.size(), 300u);
  // Jitter is a fraction (< 0.5) of the grid pitch around cell centers,
  // so every point stays inside the declared square.
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, side);
  }
}

TEST(Deployment, CorridorBounds) {
  Rng rng(8);
  for (const Vec2& p : deployCorridor(400, 4.0, 0.25, rng)) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 4.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 0.25);
  }
}

TEST(Deployment, ExponentialChainShape) {
  const int n = 24;
  const double maxGap = 0.5;
  const auto pts = deployExponentialChain(n, 1.4, maxGap);
  ASSERT_EQ(pts.size(), static_cast<std::size_t>(n));
  double largest = 0.0;
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(pts[static_cast<std::size_t>(i)].x, 0.0);
    EXPECT_EQ(pts[static_cast<std::size_t>(i)].y, 0.0);
    if (i > 0) {
      const double gap =
          pts[static_cast<std::size_t>(i)].x - pts[static_cast<std::size_t>(i - 1)].x;
      EXPECT_GT(gap, 0.0);  // strictly increasing positions
      largest = std::max(largest, gap);
    }
  }
  EXPECT_NEAR(largest, maxGap, 1e-12);
}

TEST(Deployment, PoissonDiskSeparationAndBounds) {
  Rng rng(9);
  const double side = 1.6;
  const double minDist = 0.05;
  const auto pts = deployPoissonDisk(300, side, minDist, rng);
  // Far below the packing limit (~870 for these knobs): all points placed.
  EXPECT_EQ(pts.size(), 300u);
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, side);
  }
  const double minD2 = minDist * minDist;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(dist2(pts[i], pts[j]), minD2) << "pair " << i << "," << j;
    }
  }
}

TEST(Deployment, PoissonDiskSaturatesGracefully) {
  Rng rng(10);
  // minDist so large the square cannot hold 100 points: must stop early
  // (budget-bounded), never hang, and still respect the separation.
  const auto pts = deployPoissonDisk(100, 1.0, 0.4, rng);
  EXPECT_LT(pts.size(), 100u);
  EXPECT_GE(pts.size(), 3u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(dist(pts[i], pts[j]), 0.4);
    }
  }
}

TEST(Deployment, MixtureSplitsDenseAndSparse) {
  Rng rng(11);
  const double side = 2.0;
  const double patchFrac = 0.2;
  const auto pts = deployDenseSparseMixture(500, side, 0.6, patchFrac, rng);
  ASSERT_EQ(pts.size(), 500u);
  const double patch = side * patchFrac;
  const double lo = (side - patch) * 0.5;
  const double hi = lo + patch;
  int inPatch = 0;
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, side);
    if (p.x >= lo && p.x <= hi && p.y >= lo && p.y <= hi) ++inPatch;
  }
  // The 300 dense points are in the patch by construction; of the 200
  // sparse ones only ~patchFrac^2 = 4% land there by chance.
  EXPECT_GE(inPatch, 300);
  EXPECT_LE(inPatch, 330);
}

TEST(Deployment, DedupeEliminatesDuplicatesAtTinyEpsilon) {
  // A run of four identical points plus scattered singles.
  std::vector<Vec2> pts{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5},
                        {0.1, 0.9}, {0.9, 0.1}, {0.1, 0.9}};
  Rng rng(13);
  const double eps = 1e-12;
  const auto out = dedupePositions(pts, eps, rng);
  ASSERT_EQ(out.size(), pts.size());
  // Every pair distinct afterwards...
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_GT(dist2(out[i], out[j]), 0.0) << "pair " << i << "," << j;
    }
  }
  // ...and nothing moved farther than the documented perturbation radius
  // (eps * 1.5), so the geometry is preserved.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LE(dist(out[i], pts[i]), 1.5 * eps) << "point " << i;
  }
}

TEST(Deployment, DedupeLeavesDistinctPointsUntouched) {
  std::vector<Vec2> pts{{0.0, 0.0}, {0.25, 0.75}, {1.0, 1.0}};
  Rng rng(14);
  const auto out = dedupePositions(pts, 1e-9, rng);
  expectIdentical(out, pts);
}

/// dedupePositions before its O(n) duplicate pre-check: the index sort on
/// every input.  The fast path must reproduce it bit for bit, draws included.
std::vector<Vec2> sortOnlyDedupe(std::vector<Vec2> points, double epsilon, Rng& rng) {
  const std::vector<Vec2> original = points;
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (original[a].x != original[b].x) return original[a].x < original[b].x;
    return original[a].y < original[b].y;
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (original[order[i]] == original[order[i - 1]]) {
      const double theta = rng.uniform(0.0, 2.0 * M_PI);
      const double r = epsilon * (1.0 + 0.5 * rng.uniform());
      points[order[i]].x += r * std::cos(theta);
      points[order[i]].y += r * std::sin(theta);
    }
  }
  return points;
}

void expectDedupeMatchesSortOnly(const std::vector<Vec2>& pts, std::uint64_t seed) {
  Rng fastRng(seed);
  Rng refRng(seed);
  const std::vector<Vec2> got = dedupePositions(pts, 1e-7, fastRng);
  const std::vector<Vec2> want = sortOnlyDedupe(pts, 1e-7, refRng);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].x), std::bit_cast<std::uint64_t>(want[i].x))
        << "point " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].y), std::bit_cast<std::uint64_t>(want[i].y))
        << "point " << i;
  }
  // Same number of draws: the streams continue identically.
  for (int k = 0; k < 4; ++k) EXPECT_EQ(fastRng(), refRng());
}

TEST(Deployment, DedupeMatchesSortOnlyWithoutDuplicates) {
  Rng rng(31);
  expectDedupeMatchesSortOnly(deployUniformSquare(5000, 3.0, rng), 32);
  expectDedupeMatchesSortOnly(deployPerturbedGrid(400, 2.0, 0.0, rng), 33);
  expectDedupeMatchesSortOnly({}, 34);
}

TEST(Deployment, DedupeMatchesSortOnlyWithDuplicateRuns) {
  Rng rng(35);
  std::vector<Vec2> pts = deployUniformSquare(3000, 3.0, rng);
  // Runs of 2..5 copies scattered through the vector.
  for (std::size_t i = 0; i < 200; ++i) {
    const Vec2 p = pts[rng.below(pts.size())];
    const std::size_t copies = 1 + i % 4;
    for (std::size_t c = 0; c < copies; ++c) pts[rng.below(pts.size())] = p;
  }
  expectDedupeMatchesSortOnly(pts, 36);
}

// -0.0 == +0.0 under Vec2's ==, so these are duplicates to the sort; the
// pre-check must agree, in either coordinate.
TEST(Deployment, DedupeMatchesSortOnlyOnSignedZeros) {
  expectDedupeMatchesSortOnly({{0.0, 1.0}, {0.5, 0.5}, {-0.0, 1.0}}, 37);
  expectDedupeMatchesSortOnly({{2.0, -0.0}, {2.0, 0.0}, {1.0, 1.0}}, 38);
  expectDedupeMatchesSortOnly({{-0.0, -0.0}, {0.0, 0.0}, {0.0, -0.0}, {1.0, 0.0}}, 39);
  Rng probe(37);
  Rng untouched(37);
  const auto out = dedupePositions({{0.0, 1.0}, {-0.0, 1.0}}, 1e-7, probe);
  EXPECT_NE(out[0], out[1]);
  EXPECT_NE(probe(), untouched());  // the duplicate drew
}

}  // namespace
}  // namespace mcs
