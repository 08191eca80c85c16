#include "util/sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/json.h"

namespace mcs {

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    std::fprintf(stderr, "FATAL: QuantileSketch alpha %g outside (0,1)\n", alpha);
    std::abort();
  }
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  invLogGamma_ = 1.0 / std::log(gamma_);
}

std::int32_t QuantileSketch::bucketIndex(double absValue) const {
  return static_cast<std::int32_t>(std::ceil(std::log(absValue) * invLogGamma_));
}

double QuantileSketch::bucketEstimate(std::int32_t index) const {
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::bump(std::vector<Bucket>& side, std::int32_t index,
                          std::uint64_t weight) {
  const auto it = std::lower_bound(
      side.begin(), side.end(), index,
      [](const Bucket& b, std::int32_t idx) { return b.index < idx; });
  if (it != side.end() && it->index == index) {
    it->count += weight;
    return;
  }
  side.insert(it, Bucket{index, weight});
}

void QuantileSketch::add(double x, std::uint64_t weight) {
  if (weight == 0) return;
  count_ += weight;
  const double ax = std::abs(x);
  if (!(ax >= kMinAbs)) {  // zero, denormal-tiny, or NaN
    zero_ += weight;
    return;
  }
  bump(x < 0.0 ? neg_ : pos_, bucketIndex(ax), weight);
}

void QuantileSketch::mergeSide(std::vector<Bucket>& into, const std::vector<Bucket>& from) {
  // A few buckets into a large side (one slot's margins into a run-wide
  // sketch, every slot when probes are armed) bump in place: no
  // allocation and no full copy.  Either way the result is the same
  // sorted, count-summed bucket list.
  if (from.size() * 8 <= into.size()) {
    for (const Bucket& b : from) bump(into, b.index, b.count);
    return;
  }
  std::vector<Bucket> out;
  out.reserve(into.size() + from.size());
  std::size_t i = 0, j = 0;
  while (i < into.size() || j < from.size()) {
    if (j >= from.size() || (i < into.size() && into[i].index < from[j].index)) {
      out.push_back(into[i++]);
    } else if (i >= into.size() || from[j].index < into[i].index) {
      out.push_back(from[j++]);
    } else {
      out.push_back(Bucket{into[i].index, into[i].count + from[j].count});
      ++i;
      ++j;
    }
  }
  into = std::move(out);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (alpha_ != other.alpha_) {
    std::fprintf(stderr, "FATAL: merging QuantileSketch alpha %g into alpha %g\n",
                 other.alpha_, alpha_);
    std::abort();
  }
  count_ += other.count_;
  zero_ += other.zero_;
  mergeSide(neg_, other.neg_);
  mergeSide(pos_, other.pos_);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank convention shared with the error-bound tests: the order
  // statistic nearest the interpolated position q*(n-1).
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  // Ascending value order: most-negative first (descending |x| index).
  for (auto it = neg_.rbegin(); it != neg_.rend(); ++it) {
    seen += it->count;
    if (seen > rank) return -bucketEstimate(it->index);
  }
  seen += zero_;
  if (seen > rank) return 0.0;
  for (const Bucket& b : pos_) {
    seen += b.count;
    if (seen > rank) return bucketEstimate(b.index);
  }
  // Unreachable when counts are consistent; be defensive about the tail.
  return pos_.empty() ? 0.0 : bucketEstimate(pos_.back().index);
}

QuantileSketch QuantileSketch::fromState(double alpha, std::uint64_t zero,
                                         std::vector<Bucket> neg, std::vector<Bucket> pos) {
  QuantileSketch s(alpha);
  s.zero_ = zero;
  s.neg_ = std::move(neg);
  s.pos_ = std::move(pos);
  s.count_ = zero;
  for (const Bucket& b : s.neg_) s.count_ += b.count;
  for (const Bucket& b : s.pos_) s.count_ += b.count;
  return s;
}

StreamingQuantiles::StreamingQuantiles(double alpha, std::size_t exactThreshold)
    : threshold_(exactThreshold), sketch_(alpha) {}

void StreamingQuantiles::spill() {
  for (double v : exact_) sketch_.add(v);
  exact_.clear();
  exact_.shrink_to_fit();
  sketchMode_ = true;
}

void StreamingQuantiles::add(double x) {
  if (sketchMode_) {
    sketch_.add(x);
    return;
  }
  exact_.push_back(x);
  if (exact_.size() > threshold_) spill();
}

void StreamingQuantiles::merge(const StreamingQuantiles& other) {
  if (other.count() == 0) return;
  if (!sketchMode_ && !other.sketchMode_) {
    exact_.insert(exact_.end(), other.exact_.begin(), other.exact_.end());
    if (exact_.size() > threshold_) spill();
    return;
  }
  if (!sketchMode_) spill();
  if (other.sketchMode_) {
    sketch_.merge(other.sketch_);
  } else {
    for (double v : other.exact_) sketch_.add(v);
  }
}

double StreamingQuantiles::quantile(double q) const {
  if (sketchMode_) return sketch_.quantile(q);
  if (exact_.empty()) return 0.0;
  std::vector<double> sorted = exact_;
  std::sort(sorted.begin(), sorted.end());
  return quantileSorted(sorted, q);
}

std::vector<double> StreamingQuantiles::sortedExactValues() const {
  std::vector<double> sorted = exact_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

StreamingQuantiles StreamingQuantiles::fromExact(double alpha, std::size_t exactThreshold,
                                                 std::vector<double> values) {
  StreamingQuantiles q(alpha, exactThreshold);
  q.exact_ = std::move(values);
  if (q.exact_.size() > q.threshold_) q.spill();
  return q;
}

StreamingQuantiles StreamingQuantiles::fromSketch(std::size_t exactThreshold,
                                                  QuantileSketch sketch) {
  StreamingQuantiles q(sketch.alpha(), exactThreshold);
  q.sketch_ = std::move(sketch);
  q.sketchMode_ = true;
  return q;
}

Summary StreamingStats::summary() const {
  Summary s;
  s.count = moments.count();
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  if (s.count >= 2) {
    s.ci95 = 1.959963984540054 * s.stddev / std::sqrt(static_cast<double>(s.count));
  }
  s.min = moments.min();
  s.max = moments.max();
  if (quantiles.count() > 0) {
    s.median = quantiles.quantile(0.5);
    s.p95 = quantiles.quantile(0.95);
  }
  return s;
}

void sketchBucketsToJson(const QuantileSketch& s, Json& out) {
  out.set("z", static_cast<std::size_t>(s.zeroCount()));
  const auto sideToJson = [](const std::vector<QuantileSketch::Bucket>& side) {
    Json arr = Json::array();
    for (const QuantileSketch::Bucket& b : side) {
      Json pair = Json::array();
      pair.push_back(b.index);
      pair.push_back(static_cast<std::size_t>(b.count));
      arr.push_back(std::move(pair));
    }
    return arr;
  };
  out.set("neg", sideToJson(s.negativeBuckets()));
  out.set("pos", sideToJson(s.positiveBuckets()));
}

bool sketchFromBucketsJson(const Json& j, double alpha, QuantileSketch& out, std::string& err) {
  if (!(alpha > 0.0 && alpha < 1.0)) {  // the constructor would abort
    err = "sketch alpha is outside (0, 1)";
    return false;
  }
  const auto sideFromJson = [&err](const Json* arr, std::vector<QuantileSketch::Bucket>& side) {
    if (arr == nullptr || !arr->isArray()) return true;
    side.reserve(arr->size());
    for (const Json& pair : arr->items()) {
      if (!pair.isArray() || pair.size() != 2) continue;
      QuantileSketch::Bucket b{};
      if (!checkedInteger(pair.items()[0].asDouble(), b.index) ||
          !checkedInteger(pair.items()[1].asDouble(), b.count)) {
        err = "sketch bucket is not an integer pair in range";
        return false;
      }
      side.push_back(b);
    }
    return true;
  };
  std::uint64_t zeros = 0;
  std::vector<QuantileSketch::Bucket> neg, pos;
  if (!j.intAt("z", zeros, err) || !sideFromJson(j.find("neg"), neg) ||
      !sideFromJson(j.find("pos"), pos)) {
    return false;
  }
  out = QuantileSketch::fromState(alpha, zeros, std::move(neg), std::move(pos));
  return true;
}

}  // namespace mcs
