#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"

/// Multi-level grid pyramid for Barnes-Hut-style far-field batching.
///
/// Built once per slot from the occupied base cells of a uniform grid
/// (GridIndex geometry + per-cell position sums), it answers "sum a field
/// over all points, batching distant regions coarsely" queries: each query
/// walks the pyramid coarse-to-fine and emits every region at the
/// coarsest level that passes the theta admissibility rule, so the
/// per-query cost drops from O(occupied base cells) toward
/// O(levels + cells near the admissibility boundary) = O(log n) for
/// bounded-density deployments.
namespace mcs {

/// One occupied base-level cell: its grid coordinates, the sum of its
/// members' positions (centroid * count), the member count, and an opaque
/// caller reference handed back verbatim when the cell must be resolved
/// exactly (Medium stores the index of its FarCell here).
struct HierBaseCell {
  long cx = 0;
  long cy = 0;
  double sumX = 0.0;
  double sumY = 0.0;
  std::int64_t count = 0;
  std::int32_t ref = -1;
};

class HierGrid {
 public:
  /// Rebuilds the pyramid over `base` cells laid out on a grid anchored at
  /// (minX, minY) with `nx` x `ny` cells of side `cellSize`.  Level 0 is
  /// the base grid; each coarser level halves the resolution (parent cell
  /// (cx, cy) covers children (2cx..2cx+1, 2cy..2cy+1)) and aggregates
  /// counts and position sums, up to a single root cell.  Internal storage
  /// is reused across rebuilds (per-slot callers allocate nothing in
  /// steady state).
  void build(double minX, double minY, double cellSize, long nx, long ny,
             std::span<const HierBaseCell> base);

  /// Empties the pyramid (queries visit nothing); storage is retained.
  void clear() noexcept { numLevels_ = 0; }

  [[nodiscard]] bool empty() const noexcept { return numLevels_ == 0; }
  [[nodiscard]] int levels() const noexcept { return numLevels_; }
  /// Total point count aggregated at the root (0 when empty).
  [[nodiscard]] std::int64_t totalCount() const noexcept;

  /// Coarse-to-fine field traversal for a query point `p`.
  ///
  /// Every occupied region of the pyramid is reported exactly once, at
  /// the coarsest admissible level: a cell at level k is *admissible* when
  /// its box distance to `p` exceeds max(nearRadius, cellSize_k / theta).
  /// Admissible cells invoke
  ///     far(count, centroid, level, cx, cy)
  /// and their subtree is pruned; inadmissible cells are opened, and at
  /// level 0 invoke near(ref) for the caller to resolve the members
  /// exactly.  Because cellSize_k / theta >= nearRadius never admits a
  /// cell whose box touches the near ball, every point within nearRadius
  /// of `p` is guaranteed to surface through near() — the same exactness
  /// guarantee NearFar's single-level near-ball test provides.  For an
  /// admissible cell at box distance d, every member lies within
  /// cellSize_k * sqrt(2) <= theta * sqrt(2) * d of the centroid, which
  /// bounds the relative displacement (and hence the batched kernel
  /// error) uniformly at every level.
  ///
  /// Traversal order is a pure function of the pyramid and `p` (fixed
  /// child order, no data-dependent tie-breaks), so per-listener results
  /// are reproducible and thread-count independent.  Always inlined: the
  /// callbacks accumulate into the caller's locals, which stay in
  /// registers only when the walk is part of the caller.
  template <class FarFn, class NearFn>
  [[gnu::always_inline]] void forEachField(Vec2 p, double nearRadius, double theta, FarFn&& far, NearFn&& near) const {
    if (numLevels_ == 0) return;
    const int top = numLevels_ - 1;
    // Per-level admissibility threshold (squared box distance).
    double thr2[kMaxLevels];
    for (int k = 0; k <= top; ++k) {
      const double t = std::max(nearRadius, levels_[static_cast<std::size_t>(k)].cellSize / theta);
      thr2[k] = t * t;
    }
    // Explicit DFS; each opened cell pushes at most 4 children, so the
    // stack is bounded by 3 * levels + 1 entries.
    struct Frame {
      int level;
      long cx, cy;
    };
    Frame stack[3 * kMaxLevels + 4];
    int sp = 0;
    stack[sp++] = {top, 0, 0};
    while (sp > 0) {
      const Frame fr = stack[--sp];
      const Level& L = levels_[static_cast<std::size_t>(fr.level)];
      const std::size_t idx = static_cast<std::size_t>(fr.cy * L.nx + fr.cx);
      const std::int64_t cnt = L.count[idx];
      if (cnt == 0) continue;
      if (boxDist2(p, fr.cx, fr.cy, L.cellSize) > thr2[fr.level]) {
        const double inv = 1.0 / static_cast<double>(cnt);
        far(cnt, Vec2{L.sumX[idx] * inv, L.sumY[idx] * inv}, fr.level, fr.cx, fr.cy);
        continue;
      }
      if (fr.level == 0) {
        near(ref_[idx]);
        continue;
      }
      const Level& C = levels_[static_cast<std::size_t>(fr.level - 1)];
      // Fixed (dy, dx) child order keeps the traversal deterministic.
      for (long dy = 1; dy >= 0; --dy) {
        for (long dx = 1; dx >= 0; --dx) {
          const long ccx = fr.cx * 2 + dx;
          const long ccy = fr.cy * 2 + dy;
          if (ccx >= C.nx || ccy >= C.ny) continue;
          stack[sp++] = {fr.level - 1, ccx, ccy};
        }
      }
    }
  }

 private:
  // Enough for any long-indexable base grid (nx halves per level).
  static constexpr int kMaxLevels = 64;

  struct Level {
    long nx = 0, ny = 0;
    double cellSize = 0.0;
    std::vector<std::int64_t> count;
    std::vector<double> sumX, sumY;
  };

  /// Squared distance from `p` to the closed box of cell (cx, cy) at a
  /// given cell size (all levels share the (minX_, minY_) anchor).
  [[nodiscard]] double boxDist2(Vec2 p, long cx, long cy, double cellSize) const noexcept {
    const double x0 = minX_ + static_cast<double>(cx) * cellSize;
    const double y0 = minY_ + static_cast<double>(cy) * cellSize;
    const double dx = p.x < x0 ? x0 - p.x : (p.x > x0 + cellSize ? p.x - (x0 + cellSize) : 0.0);
    const double dy = p.y < y0 ? y0 - p.y : (p.y > y0 + cellSize ? p.y - (y0 + cellSize) : 0.0);
    return dx * dx + dy * dy;
  }

  std::vector<Level> levels_;       // levels_[0] is the base grid; the
                                    // first numLevels_ entries are live,
                                    // extras retain capacity for reuse
  std::vector<std::int32_t> ref_;   // base-level caller refs (dense)
  int numLevels_ = 0;
  double minX_ = 0.0, minY_ = 0.0;
};

}  // namespace mcs
