#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

/// Mergeable streaming quantiles — the campaign store's replacement for
/// buffered percentiles.
///
/// A sweep cell holds a handful of seeds, but a campaign-wide quantile
/// over 10^6 cells cannot buffer every sample.  QuantileSketch is a
/// DDSketch-style log-binned histogram: a value lands in bucket
/// i = ceil(log_gamma |x|) with gamma = (1+alpha)/(1-alpha), and the
/// bucket's midpoint estimate 2*gamma^i/(gamma+1) is within relative
/// error alpha of every value the bucket can hold.  Bucket counts are
/// integers, so merging sketches is pure count addition — associative,
/// commutative, and therefore bit-identical under any merge order or
/// tree shape (locked by tests/test_sketch.cpp).  That is the same
/// determinism contract the campaign tree reducer gives moments, which
/// is what lets RESULT frames carry sketch state and the coordinator
/// fold it in arrival order without wobbling the aggregate.
///
/// StreamingQuantiles is the hybrid the report pipeline actually uses:
/// below an exact-buffer threshold it keeps raw values and reproduces
/// quantileSorted() bit-for-bit (existing p50/p95 goldens stay
/// byte-identical); past the threshold it spills into the sketch.  The
/// mode is a function of the total count only, and the spilled bucket
/// counts are a function of the value multiset only, so the canonical
/// state stays merge-order invariant in both modes and across the
/// spill boundary.
namespace mcs {

class QuantileSketch {
 public:
  /// 1% relative error; index range at this alpha spans roughly +-34500
  /// over the full double range, comfortably inside int32.
  static constexpr double kDefaultAlpha = 0.01;
  /// Magnitudes below this collapse into the zero bucket (estimate 0.0),
  /// keeping log() away from the denormal range.
  static constexpr double kMinAbs = 1e-300;

  struct Bucket {
    std::int32_t index = 0;
    std::uint64_t count = 0;

    friend bool operator==(const Bucket& a, const Bucket& b) noexcept {
      return a.index == b.index && a.count == b.count;
    }
  };

  explicit QuantileSketch(double alpha = kDefaultAlpha);

  void add(double x, std::uint64_t weight = 1);

  /// Back to empty, keeping the bucket storage for reuse.
  void clear() noexcept {
    zero_ = 0;
    count_ = 0;
    neg_.clear();
    pos_.clear();
  }

  /// Adds `other`'s bucket counts in.  Both sketches must share alpha
  /// (they always do in this codebase: alpha is campaign-global); a
  /// mismatch is a programming error and aborts loudly.
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// The q-quantile estimate (q in [0,1]): the midpoint estimate of the
  /// bucket holding the order statistic of rank
  /// floor(q*(count-1) + 0.5).  Guaranteed within relative error alpha
  /// of that order statistic; 0 on an empty sketch.  A pure function of
  /// the canonical state, so bit-identical across merge orders.
  [[nodiscard]] double quantile(double q) const;

  /// Canonical state: zero-bucket count plus the signed bucket lists,
  /// each sorted by index ascending.  This is what the wire and store
  /// serializations write, and what fromState() rebuilds.
  [[nodiscard]] std::uint64_t zeroCount() const noexcept { return zero_; }
  [[nodiscard]] const std::vector<Bucket>& negativeBuckets() const noexcept { return neg_; }
  [[nodiscard]] const std::vector<Bucket>& positiveBuckets() const noexcept { return pos_; }

  [[nodiscard]] static QuantileSketch fromState(double alpha, std::uint64_t zero,
                                                std::vector<Bucket> neg,
                                                std::vector<Bucket> pos);

  friend bool operator==(const QuantileSketch& a, const QuantileSketch& b) noexcept {
    return a.alpha_ == b.alpha_ && a.zero_ == b.zero_ && a.neg_ == b.neg_ && a.pos_ == b.pos_;
  }

 private:
  [[nodiscard]] std::int32_t bucketIndex(double absValue) const;
  [[nodiscard]] double bucketEstimate(std::int32_t index) const;
  static void bump(std::vector<Bucket>& side, std::int32_t index, std::uint64_t weight);
  static void mergeSide(std::vector<Bucket>& into, const std::vector<Bucket>& from);

  double alpha_;
  double gamma_;
  double invLogGamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  std::vector<Bucket> neg_;  // indices of |x|, ascending; larger index = more negative x
  std::vector<Bucket> pos_;  // indices ascending
};

class StreamingQuantiles {
 public:
  /// Exact-buffer size bound: a cell's seed batch (tens of samples) and
  /// the committed smoke campaigns stay exact, so existing p50/p95
  /// goldens keep their bytes; million-cell aggregates spill.
  static constexpr std::size_t kDefaultExactThreshold = 4096;

  explicit StreamingQuantiles(double alpha = QuantileSketch::kDefaultAlpha,
                              std::size_t exactThreshold = kDefaultExactThreshold);

  void add(double x);
  void merge(const StreamingQuantiles& other);

  [[nodiscard]] std::uint64_t count() const noexcept {
    return sketchMode_ ? sketch_.count() : static_cast<std::uint64_t>(exact_.size());
  }
  [[nodiscard]] bool sketchMode() const noexcept { return sketchMode_; }
  [[nodiscard]] double alpha() const noexcept { return sketch_.alpha(); }
  [[nodiscard]] std::size_t exactThreshold() const noexcept { return threshold_; }

  /// Exact-mode: quantileSorted() over the buffered values, bit-identical
  /// to summarize()'s median/p95.  Sketch-mode: QuantileSketch::quantile.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double percentile(double p) const { return quantile(p / 100.0); }

  /// Canonical exact-mode state (sorted copy of the buffer) — what the
  /// serializers write, so the bytes do not depend on insertion order.
  [[nodiscard]] std::vector<double> sortedExactValues() const;
  [[nodiscard]] const QuantileSketch& sketch() const noexcept { return sketch_; }

  [[nodiscard]] static StreamingQuantiles fromExact(double alpha, std::size_t exactThreshold,
                                                    std::vector<double> values);
  [[nodiscard]] static StreamingQuantiles fromSketch(std::size_t exactThreshold,
                                                     QuantileSketch sketch);

 private:
  void spill();

  std::size_t threshold_;
  bool sketchMode_ = false;
  std::vector<double> exact_;
  QuantileSketch sketch_;
};

/// The unified per-metric accumulator the campaign pipeline carries:
/// moments for mean/stddev/min/max, a streaming quantile state for
/// p50/p95.  Both halves are mergeable with the fixed-shape determinism
/// contract, so a StreamingStats can be a reduction-tree node, a RESULT
/// frame payload, or a store row.
struct StreamingStats {
  OnlineStats moments;
  StreamingQuantiles quantiles;

  StreamingStats() = default;
  explicit StreamingStats(double alpha,
                          std::size_t exactThreshold = StreamingQuantiles::kDefaultExactThreshold)
      : quantiles(alpha, exactThreshold) {}

  void add(double x) {
    moments.add(x);
    quantiles.add(x);
  }
  void merge(const StreamingStats& other) {
    moments.merge(other.moments);
    quantiles.merge(other.quantiles);
  }

  /// The report-facing Summary.  In exact mode this reproduces
  /// summarize() bit-for-bit for the same sample sequence (same Welford
  /// adds, same quantileSorted), which is what keeps the golden JSON/CSV
  /// layouts byte-identical through the StreamingStats migration.
  [[nodiscard]] Summary summary() const;
};

/// Named per-metric stats in display order (slots, decode_rate,
/// structure_slots, wall_sec, then protocol metrics) — the row shape the
/// store writes and the wire ships.
using NamedStats = std::vector<std::pair<std::string, StreamingStats>>;

class Json;

/// The bucket-state JSON shared by probe blobs and RESULT frames: sets
/// "z" (zero count), "neg" and "pos" ([[index, count], ...]) on the
/// object `out`, in that order.
void sketchBucketsToJson(const QuantileSketch& s, Json& out);

/// Reads that state back as a sketch with `alpha`.  Missing members read
/// as empty and malformed pairs are skipped, but a zero count or bucket
/// number that its integer field cannot hold (NaN, fractional, out of
/// range) fails with `err` set — never a cast of an untrusted double —
/// and so does an alpha outside (0, 1), which the constructor rejects.
[[nodiscard]] bool sketchFromBucketsJson(const Json& j, double alpha, QuantileSketch& out,
                                         std::string& err);

}  // namespace mcs
