#include "geom/deployment.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace mcs {

std::vector<Vec2> deployUniformSquare(int n, double side, Rng& rng) {
  assert(n >= 0 && side > 0.0);
  std::vector<Vec2> pts(static_cast<std::size_t>(n));
  for (Vec2& p : pts) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return pts;
}

std::vector<Vec2> deployUniformDisk(int n, double radius, Rng& rng) {
  assert(n >= 0 && radius > 0.0);
  std::vector<Vec2> pts(static_cast<std::size_t>(n));
  for (Vec2& p : pts) {
    const double r = radius * std::sqrt(rng.uniform());
    const double theta = rng.uniform(0.0, 2.0 * M_PI);
    p = {r * std::cos(theta), r * std::sin(theta)};
  }
  return pts;
}

std::vector<Vec2> deployPerturbedGrid(int n, double side, double jitter, Rng& rng) {
  assert(n >= 0 && side > 0.0);
  const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  const double pitch = side / cols;
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cx = i % cols;
    const int cy = i / cols;
    const double jx = rng.uniform(-jitter, jitter) * pitch;
    const double jy = rng.uniform(-jitter, jitter) * pitch;
    pts.push_back({(cx + 0.5) * pitch + jx, (cy + 0.5) * pitch + jy});
  }
  return pts;
}

std::vector<Vec2> deployClustered(int n, int k, double side, double spread, Rng& rng) {
  assert(n >= 0 && k > 0 && side > 0.0 && spread > 0.0);
  std::vector<Vec2> centers = deployUniformSquare(k, side, rng);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Vec2 c = centers[static_cast<std::size_t>(i % k)];
    // Box-Muller for a 2-D Gaussian offset.
    const double u1 = std::max(rng.uniform(), 1e-300);
    const double u2 = rng.uniform();
    const double mag = spread * std::sqrt(-2.0 * std::log(u1));
    pts.push_back({c.x + mag * std::cos(2.0 * M_PI * u2), c.y + mag * std::sin(2.0 * M_PI * u2)});
  }
  return pts;
}

std::vector<Vec2> deployCorridor(int n, double length, double width, Rng& rng) {
  assert(n >= 0 && length > 0.0 && width > 0.0);
  std::vector<Vec2> pts(static_cast<std::size_t>(n));
  for (Vec2& p : pts) p = {rng.uniform(0.0, length), rng.uniform(0.0, width)};
  return pts;
}

std::vector<Vec2> deployExponentialChain(int n, double base, double maxGap) {
  assert(n >= 1 && base > 1.0 && maxGap > 0.0);
  std::vector<Vec2> pts(static_cast<std::size_t>(n));
  // Raw positions base^i; the largest gap is base^n - base^(n-1).
  const double largestGap = std::pow(base, n) - std::pow(base, n - 1);
  const double scale = maxGap / largestGap;
  for (int i = 0; i < n; ++i) {
    pts[static_cast<std::size_t>(i)] = {scale * std::pow(base, i + 1), 0.0};
  }
  return pts;
}

std::vector<Vec2> deployPoissonDisk(int n, double side, double minDist, Rng& rng) {
  assert(n >= 0 && side > 0.0 && minDist > 0.0);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  // Uniform grid with cell = minDist: every cell spans <= minDist per
  // axis (the clamped last row/column is narrower), so two points closer
  // than minDist differ by at most 1 in each cell index — the 3x3
  // neighborhood suffices for conflict checks.
  const int cols = std::max(1, static_cast<int>(std::ceil(side / minDist)));
  std::vector<std::vector<std::int32_t>> cellOf(static_cast<std::size_t>(cols) *
                                                static_cast<std::size_t>(cols));
  const auto cellIndex = [&](const Vec2& p) {
    const int cx = std::min(cols - 1, static_cast<int>(p.x / minDist));
    const int cy = std::min(cols - 1, static_cast<int>(p.y / minDist));
    return std::pair<int, int>{cx, cy};
  };
  const double minD2 = minDist * minDist;
  // Dart throwing with a generous attempt budget; saturation densities
  // beyond random sequential packing terminate via the budget.
  const long maxAttempts = 60L * std::max(1, n);
  for (long attempt = 0; attempt < maxAttempts && static_cast<int>(pts.size()) < n; ++attempt) {
    const Vec2 cand{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    const auto [cx, cy] = cellIndex(cand);
    bool ok = true;
    for (int dx = -1; dx <= 1 && ok; ++dx) {
      for (int dy = -1; dy <= 1 && ok; ++dy) {
        const int nx = cx + dx;
        const int ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= cols || ny >= cols) continue;
        for (const std::int32_t i :
             cellOf[static_cast<std::size_t>(ny) * static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(nx)]) {
          if (dist2(pts[static_cast<std::size_t>(i)], cand) < minD2) {
            ok = false;
            break;
          }
        }
      }
    }
    if (!ok) continue;
    cellOf[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(cx)]
        .push_back(static_cast<std::int32_t>(pts.size()));
    pts.push_back(cand);
  }
  return pts;
}

std::vector<Vec2> deployDenseSparseMixture(int n, double side, double denseFrac,
                                           double patchFrac, Rng& rng) {
  assert(n >= 0 && side > 0.0);
  assert(denseFrac >= 0.0 && denseFrac <= 1.0);
  assert(patchFrac > 0.0 && patchFrac <= 1.0);
  const int nDense = static_cast<int>(std::lround(static_cast<double>(n) * denseFrac));
  const double patch = side * patchFrac;
  const double lo = (side - patch) * 0.5;
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < nDense; ++i) {
    pts.push_back({lo + rng.uniform(0.0, patch), lo + rng.uniform(0.0, patch)});
  }
  for (int i = nDense; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return pts;
}

namespace {

// Bits of a coordinate with -0.0 folded into +0.0 (x + 0.0 does that under
// round-to-nearest), so bit equality is Vec2's == for every non-NaN value.
std::uint64_t coordBits(double x) noexcept { return std::bit_cast<std::uint64_t>(x + 0.0); }

// False only when no two points compare equal: an open-addressing set of
// coordinate bit pairs, O(n).  Bit-identical NaNs also report true, which
// just sends the caller down the exact sort path.
bool mayHaveDuplicates(const std::vector<Vec2>& points) {
  std::size_t cap = 16;
  while (cap < 2 * points.size()) cap <<= 1;
  constexpr std::uint32_t kEmpty = 0xffffffffu;
  std::vector<std::uint32_t> slots(cap, kEmpty);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t bx = coordBits(points[i].x);
    const std::uint64_t by = coordBits(points[i].y);
    // murmur3's 64-bit finalizer over both coordinates.
    std::uint64_t h = bx ^ (by * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    for (std::size_t s = h & (cap - 1);; s = (s + 1) & (cap - 1)) {
      if (slots[s] == kEmpty) {
        slots[s] = static_cast<std::uint32_t>(i);
        break;
      }
      const Vec2 q = points[slots[s]];
      if (coordBits(q.x) == bx && coordBits(q.y) == by) return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Vec2> dedupePositions(std::vector<Vec2> points, double epsilon, Rng& rng) {
  assert(epsilon > 0.0);
  // Deployments almost never repeat a point: then the sort below would
  // find no run and draw nothing, so the points are returned as they are.
  if (!mayHaveDuplicates(points)) return points;
  // Sort indices by the ORIGINAL coordinates so whole runs of duplicates
  // are detected even as earlier members of the run get perturbed.
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
      // Distinct radii guarantee distinctness within the run as well.
      const double r = epsilon * (1.0 + 0.5 * rng.uniform());
      points[order[i]].x += r * std::cos(theta);
      points[order[i]].y += r * std::sin(theta);
    }
  }
  return points;
}

}  // namespace mcs
