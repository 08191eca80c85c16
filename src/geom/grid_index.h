#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "util/ids.h"

/// Uniform-grid spatial index over a fixed point set.
///
/// Used to build the communication graph and to answer "all points within
/// radius r of p" queries in O(points in the neighborhood) time.  The cell
/// size is chosen at build time (typically the query radius).
namespace mcs {

class GridIndex {
 public:
  GridIndex() = default;

  /// Builds an index over `points` with cells of side `cellSize` (> 0).
  GridIndex(std::span<const Vec2> points, double cellSize);

  /// Re-indexes this instance over a new point set, reusing the internal
  /// buffers' capacity (for callers that rebuild every slot).
  void rebuild(std::span<const Vec2> points, double cellSize);

  /// Incremental re-index over a same-size point set with bounded drift
  /// (the mobility hot path): grid geometry (origin, extents, cell size)
  /// is retained and only points whose cell assignment changed are moved
  /// between cells — when nothing moved cells, the update is a position
  /// copy.  Falls back to a full rebuild (returning false) when the point
  /// count changed, the index is empty, or any point left the original
  /// bounding box.  Either way the index is valid afterwards and query
  /// results are identical to a fresh rebuild over `points` (cell
  /// partitions may differ after a fallback re-anchors the box; ball
  /// queries never do).
  bool update(std::span<const Vec2> points);

  /// Persistent-index maintenance in one call: rebuild() when the point
  /// count or cell size changed, update() otherwise.  The drift-metric
  /// sampler calls it at each skin-band rebuild.
  void ensure(std::span<const Vec2> points, double cellSize);

  /// Appends the ids of all points within distance `radius` of `center`
  /// (inclusive) to `out`.  `out` is cleared first.
  void queryBall(Vec2 center, double radius, std::vector<NodeId>& out) const;

  /// Convenience wrapper returning a fresh vector.
  [[nodiscard]] std::vector<NodeId> ball(Vec2 center, double radius) const;

  /// Calls `fn(id)` for every point within `radius` of `center`.
  template <class Fn>
  void forEachInBall(Vec2 center, double radius, Fn&& fn) const {
    if (cells_ == 0) return;
    const double r2 = radius * radius;
    const auto [cxLo, cyLo] = cellOf({center.x - radius, center.y - radius});
    const auto [cxHi, cyHi] = cellOf({center.x + radius, center.y + radius});
    for (long cy = cyLo; cy <= cyHi; ++cy) {
      for (long cx = cxLo; cx <= cxHi; ++cx) {
        const long cell = cellIndex(cx, cy);
        if (cell < 0) continue;
        for (std::size_t i = start_[static_cast<std::size_t>(cell)];
             i < start_[static_cast<std::size_t>(cell) + 1]; ++i) {
          const NodeId id = ids_[i];
          if (dist2(points_[static_cast<std::size_t>(id)], center) <= r2) fn(id);
        }
      }
    }
  }

  /// Calls `fn(a, b, d2)` once for every unordered pair of distinct points
  /// a, b with d2 = dist2(a, b) <= radius², visiting each pair of nearby
  /// cells once: half the distance tests of one forEachInBall per point.
  /// Pair order, and the order of a and b, are unspecified.
  template <class Fn>
  void forEachPairWithin(double radius, Fn&& fn) const {
    if (cells_ == 0) return;
    const double r2 = radius * radius;
    // Points k cells apart are at least k - 1 cell sides apart.
    const long reach =
        static_cast<long>(std::min(radius / cellSize_, static_cast<double>(nx_ + ny_))) + 1;
    const auto pairsBetween = [&](std::size_t a, std::size_t b) {
      for (std::size_t i = start_[a]; i < start_[a + 1]; ++i) {
        const Vec2 p = points_[static_cast<std::size_t>(ids_[i])];
        for (std::size_t j = a == b ? i + 1 : start_[b]; j < start_[b + 1]; ++j) {
          const double d2 = dist2(points_[static_cast<std::size_t>(ids_[j])], p);
          if (d2 <= r2) fn(ids_[i], ids_[j], d2);
        }
      }
    };
    for (long cy = 0; cy < ny_; ++cy) {
      for (long cx = 0; cx < nx_; ++cx) {
        const auto a = static_cast<std::size_t>(cy * nx_ + cx);
        if (start_[a] == start_[a + 1]) continue;
        // The cell itself, then the half of its neighbourhood that comes
        // later in row-major order.
        for (long dy = 0; dy <= reach && cy + dy < ny_; ++dy) {
          for (long dx = dy == 0 ? 0 : -reach; dx <= reach; ++dx) {
            if (cx + dx < 0 || cx + dx >= nx_) continue;
            pairsBetween(a, static_cast<std::size_t>((cy + dy) * nx_ + cx + dx));
          }
        }
      }
    }
  }

  /// Calls `fn(cx, cy, ids)` once per non-empty cell, where `ids` is the
  /// span of point ids stored in cell (cx, cy).  Cells are visited in
  /// row-major order, ids within a cell in insertion (id) order.
  template <class Fn>
  void forEachCell(Fn&& fn) const {
    for (long cy = 0; cy < ny_; ++cy) {
      for (long cx = 0; cx < nx_; ++cx) {
        const auto cell = static_cast<std::size_t>(cy * nx_ + cx);
        const std::size_t lo = start_[cell];
        const std::size_t hi = start_[cell + 1];
        if (lo == hi) continue;
        fn(cx, cy, std::span<const NodeId>(ids_.data() + lo, hi - lo));
      }
    }
  }

  /// Squared distance from `p` to the closed box of cell (cx, cy);
  /// zero when `p` lies inside the cell.
  [[nodiscard]] double cellDist2(long cx, long cy, Vec2 p) const noexcept {
    const double x0 = minX_ + static_cast<double>(cx) * cellSize_;
    const double y0 = minY_ + static_cast<double>(cy) * cellSize_;
    const double dx = p.x < x0 ? x0 - p.x : (p.x > x0 + cellSize_ ? p.x - (x0 + cellSize_) : 0.0);
    const double dy = p.y < y0 ? y0 - p.y : (p.y > y0 + cellSize_ ? p.y - (y0 + cellSize_) : 0.0);
    return dx * dx + dy * dy;
  }

  /// Position of an indexed point by id.
  [[nodiscard]] Vec2 point(NodeId id) const noexcept {
    return points_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] double cellSize() const noexcept { return cellSize_; }

  /// Grid geometry: box origin and cell extents.  HierGrid builds its
  /// coarse pyramid levels on top of these base-level coordinates.
  [[nodiscard]] double minX() const noexcept { return minX_; }
  [[nodiscard]] double minY() const noexcept { return minY_; }
  [[nodiscard]] long nxCells() const noexcept { return nx_; }
  [[nodiscard]] long nyCells() const noexcept { return ny_; }

 private:
  void fillCells();
  [[nodiscard]] std::pair<long, long> cellOf(Vec2 p) const noexcept;
  /// Flat cell index, or -1 when outside the indexed bounding box.
  [[nodiscard]] long cellIndex(long cx, long cy) const noexcept;

  std::vector<Vec2> points_;
  std::vector<NodeId> ids_;         // point ids sorted by cell
  std::vector<std::size_t> start_;  // CSR offsets per cell, size cells_+1
  std::vector<long> cellOfPoint_;    // cell of each point (maintained by update)
  std::vector<long> newCellOf_;      // update scratch
  std::vector<std::size_t> cursor_;  // rebuild scratch
  double cellSize_ = 0.0;
  double minX_ = 0.0, minY_ = 0.0;
  long nx_ = 0, ny_ = 0;
  std::size_t cells_ = 0;
};

}  // namespace mcs
