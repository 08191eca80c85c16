#include "mobility/mobility.h"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace mcs {

namespace {

struct DynamicsTelemetry {
  telemetry::TimerId advance = telemetry::timerId("mobility.advance");
  telemetry::TimerId sample = telemetry::timerId("dynamics.sample_graph");
  telemetry::CounterId bandRebuilds = telemetry::counterId("dynamics.band_rebuilds");
  telemetry::CounterId bandPairs = telemetry::counterId("dynamics.band_pairs");
  telemetry::CounterId departures = telemetry::counterId("churn.departures");
  telemetry::CounterId arrivals = telemetry::counterId("churn.arrivals");
  telemetry::TraceNameId depart = telemetry::traceName("churn.depart");
  telemetry::TraceNameId arrive = telemetry::traceName("churn.arrive");
};

const DynamicsTelemetry& dynTm() {
  static const DynamicsTelemetry ids;
  return ids;
}

/// Salts separating the independent draw families (same key, disjoint
/// streams).  Arbitrary odd constants.
constexpr std::uint64_t kArrivalSalt = 0x9e6d63735f617272ULL;   // "..mcs_arr"
constexpr std::uint64_t kWaypointSalt = 0x6d63735f77617970ULL;  // "mcs_wayp"
constexpr std::uint64_t kGroupSalt = 0x6d63735f67727570ULL;     // "mcs_grup"
constexpr std::uint64_t kMemberSalt = 0x6d63735f6d656d62ULL;    // "mcs_memb"

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Reflects x into [lo, hi] (degenerate intervals clamp to lo).
double reflect(double x, double lo, double hi) noexcept {
  if (hi <= lo) return lo;
  const double span = hi - lo;
  // Inside the box fmod(t, 2 * span) == t exactly, so skipping it changes
  // no bit of the result.
  const double inside = x - lo;
  if (inside >= 0.0 && inside <= span) return lo + inside;
  double t = std::fmod(inside, 2.0 * span);
  if (t < 0.0) t += 2.0 * span;
  return lo + (t <= span ? t : 2.0 * span - t);
}

}  // namespace

std::vector<MobilityModelInfo> mobilityModelList() {
  return {
      {"static", "no motion; scenarios stay bit-identical to pre-mobility runs"},
      {"random_walk",
       "each node steps `mobility_speed` in a fresh uniform direction per slot "
       "(reflected at the deployment box)"},
      {"random_waypoint",
       "walk toward a uniform waypoint at `mobility_speed`, dwell `mobility_pause` "
       "slots, repeat"},
      {"group",
       "`mobility_groups` reference points random-walk; members drift around them "
       "within `mobility_group_radius`"},
  };
}

TopologyDynamics::TopologyDynamics(const TopologyParams& params, std::span<const Vec2> initial,
                                   double graphRadius, std::uint64_t mobilityKey,
                                   std::uint64_t churnKey)
    : params_(params),
      graphRadius_(graphRadius),
      mobilityKey_(mobilityKey),
      churnKey_(churnKey),
      initial_(initial.begin(), initial.end()),
      alive_(initial.size(), 1),
      aliveCount_(static_cast<int>(initial.size())) {
  if (initial_.empty()) return;
  loX_ = hiX_ = initial_[0].x;
  loY_ = hiY_ = initial_[0].y;
  for (const Vec2& p : initial_) {
    loX_ = std::min(loX_, p.x);
    loY_ = std::min(loY_, p.y);
    hiX_ = std::max(hiX_, p.x);
    hiY_ = std::max(hiY_, p.y);
  }

  if (params_.mobility.kind == MobilityKind::RandomWaypoint) {
    const auto n = initial_.size();
    target_.resize(n);
    pauseLeft_.assign(n, 0);
    waypointIndex_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      target_[v] = {loX_ + (hiX_ - loX_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 0),
                    loY_ + (hiY_ - loY_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 1)};
    }
  }
  if (params_.mobility.kind == MobilityKind::GroupReference) {
    const int groups = std::max(1, params_.mobility.groups);
    groupRef_.assign(static_cast<std::size_t>(groups), Vec2{});
    std::vector<int> members(static_cast<std::size_t>(groups), 0);
    for (std::size_t v = 0; v < initial_.size(); ++v) {
      const auto g = static_cast<std::size_t>(v % static_cast<std::size_t>(groups));
      groupRef_[g] = groupRef_[g] + initial_[v];
      ++members[g];
    }
    for (std::size_t g = 0; g < groupRef_.size(); ++g) {
      if (members[g] > 0) groupRef_[g] = groupRef_[g] * (1.0 / members[g]);
    }
  }

  // Slot-zero graph sample: the baseline the drift metrics diff against.
  sampleGraph(initial_, /*final=*/false);
}

void TopologyDynamics::advance(std::uint64_t slot, std::vector<Vec2>& positions) {
  const telemetry::PhaseTimer timer(dynTm().advance);
  if (params_.churn.enabled()) advanceChurn(slot);
  if (params_.mobility.moving()) advanceMotion(slot, positions);
  const auto every = static_cast<std::uint64_t>(std::max(1, params_.sampleEvery));
  if ((slot + 1) % every == 0) sampleGraph(positions, /*final=*/false);
}

void TopologyDynamics::advanceChurn(std::uint64_t slot) {
  const double dep = params_.churn.departureRate;
  const double arr = params_.churn.arrivalRate;
  for (std::size_t v = 0; v < alive_.size(); ++v) {
    if (alive_[v] != 0) {
      if (dep > 0.0 && unitDraw(churnKey_, slot, v) < dep) {
        alive_[v] = 0;
        --aliveCount_;
        ++stats_.departures;
        telemetry::counterAdd(dynTm().departures);
        telemetry::traceInstant(dynTm().depart, static_cast<std::int64_t>(v));
      }
    } else if (arr > 0.0 && unitDraw(churnKey_, slot, v ^ kArrivalSalt) < arr) {
      alive_[v] = 1;
      ++aliveCount_;
      ++stats_.arrivals;
      telemetry::counterAdd(dynTm().arrivals);
      telemetry::traceInstant(dynTm().arrive, static_cast<std::int64_t>(v));
    }
  }
}

void TopologyDynamics::advanceMotion(std::uint64_t slot, std::vector<Vec2>& positions) {
  const MobilityParams& m = params_.mobility;
  const double speed = m.speed;

  switch (m.kind) {
    case MobilityKind::Static:
      return;

    case MobilityKind::RandomWalk:
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;  // departed nodes do not move
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, v);
        Vec2& p = positions[v];
        p.x = reflect(p.x + speed * std::cos(theta), loX_, hiX_);
        p.y = reflect(p.y + speed * std::sin(theta), loY_, hiY_);
      }
      return;

    case MobilityKind::RandomWaypoint:
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;
        if (pauseLeft_[v] > 0) {
          --pauseLeft_[v];
          continue;
        }
        Vec2& p = positions[v];
        const Vec2 d = target_[v] - p;
        const double len = d.norm();
        if (len <= speed) {
          p = target_[v];
          pauseLeft_[v] = m.pause;
          const std::uint64_t idx = ++waypointIndex_[v];
          target_[v] = {
              loX_ + (hiX_ - loX_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 2 * idx),
              loY_ + (hiY_ - loY_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 2 * idx + 1)};
        } else {
          p = p + d * (speed / len);
        }
      }
      return;

    case MobilityKind::GroupReference: {
      for (std::size_t g = 0; g < groupRef_.size(); ++g) {
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, g ^ kGroupSalt);
        Vec2& r = groupRef_[g];
        r.x = reflect(r.x + speed * std::cos(theta), loX_, hiX_);
        r.y = reflect(r.y + speed * std::sin(theta), loY_, hiY_);
      }
      const std::size_t groups = groupRef_.size();
      const double memberStep = speed * 0.5;
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;
        const Vec2 ref = groupRef_[v % groups];
        Vec2 offset = positions[v] - ref;
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, v ^ kMemberSalt);
        offset.x += memberStep * std::cos(theta);
        offset.y += memberStep * std::sin(theta);
        const double len = offset.norm();
        if (len > m.groupRadius) {
          // Soft tether: pull toward the boundary at the member step
          // rate.  A hard projection would teleport members whose
          // initial offset exceeds the tether (e.g. a uniform deployment
          // with near-coincident group references): the results would
          // stay exact, but the incremental GridIndex update and the
          // drift sampler's skin band are cheap only while steps are
          // short.
          const double pull = std::min(memberStep, len - m.groupRadius);
          offset = offset * ((len - pull) / len);
        }
        positions[v] = ref + offset;
      }
      return;
    }
  }
}

// Drift sampling.  The graph at a sample is E = {(u, v) : dist2(p_u, p_v)
// <= R² ∧ alive(u) ∧ alive(v)}, and a sample adds |E \ E_prev| and
// |E_prev \ E| to the churn counts.  Instead of enumerating and diffing
// all of E every time, the sampler keeps a Verlet-style skin band: built
// at positions P_b with skin h, it stores only the pairs with
// R - h < d_b <= R + h and their edge bits.  While every node is within
// kBandSlack * h of P_b, no pair distance has moved by h, so a core pair
// (d_b <= R - h) is still within R and a far pair (d_b > R + h) still
// beyond it.  That check runs on measured displacement, not on a speed
// bound, so the argument holds for any motion: steps longer than R and
// positions changed from outside between samples included.  Then a
// sample's churn is the band pairs whose edge bit flipped plus the core
// pairs with an endpoint whose alive bit flipped.  When the check fails,
// rebuildBand() diffs the pairs near R directly against the previous
// sample (kept as its positions and alive mask) and builds a new band.

namespace {

/// Fraction of the skin a node may move before the band is rebuilt.  Two
/// endpoints then move a pair distance by at most 0.98 h; the 0.02 h
/// left over absorbs floating-point rounding of the distances.
constexpr double kBandSlack = 0.49;
/// The skin of a band without history, in multiples of the largest step
/// since the previous sample.
constexpr double kFirstSkinSteps = 4.0;
/// Later skins aim for this many band-pair tests over a band's lifetime
/// per pair the rebuild enumerated (a band test is a few times cheaper
/// than an enumerated pair).
constexpr double kScansPerRebuildPair = 6.0;

}  // namespace

void TopologyDynamics::sampleGraph(std::span<const Vec2> positions, bool final) {
  if (graphRadius_ <= 0.0 || positions.empty()) return;
  const telemetry::PhaseTimer timer(dynTm().sample);
  const double r2 = graphRadius_ * graphRadius_;

  ++stats_.graphSamples;
  if (stats_.graphSamples == 1) {
    // The baseline sample: every edge, kept for the survival count.  The
    // first band is built lazily at the next sample, off the set-up path.
    grid_.ensure(positions, graphRadius_);
    grid_.forEachPairWithin(graphRadius_, [&](NodeId a, NodeId b, double) {
      const auto v = static_cast<std::size_t>(std::min(a, b));
      const auto u = static_cast<std::size_t>(std::max(a, b));
      if (alive_[v] != 0 && alive_[u] != 0) initialEdges_.push_back((v << 32) | u);
    });
    stats_.initialEdges = initialEdges_.size();
    sampleEdges_ = initialEdges_.size();
  } else {
    bool holds = skin_ > 0.0;
    const double slack2 = (kBandSlack * skin_) * (kBandSlack * skin_);
    for (std::size_t v = 0; holds && v < positions.size(); ++v) {
      holds = dist2(positions[v], grid_.point(static_cast<NodeId>(v))) <= slack2;
    }
    if (holds) {
      scanBand(positions);
    } else {
      rebuildBand(positions);
    }
  }
  samplePos_.assign(positions.begin(), positions.end());
  sampleAlive_ = alive_;

  if (final) {
    stats_.finalEdges = sampleEdges_;
    std::size_t surviving = 0;
    for (const std::uint64_t e : initialEdges_) {
      const std::size_t v = e >> 32;
      const std::size_t u = e & 0xffffffffu;
      surviving += static_cast<std::size_t>(dist2(positions[u], positions[v]) <= r2 &&
                                            alive_[u] != 0 && alive_[v] != 0);
    }
    stats_.survivingInitialEdges = surviving;
  }
}

void TopologyDynamics::scanBand(std::span<const Vec2> positions) {
  const double r2 = graphRadius_ * graphRadius_;
  std::uint64_t added = 0, removed = 0;
  // Raw pointers: the edge-bit stores are char stores, which may alias
  // anything, and would otherwise reload every vector's data pointer.
  const Vec2* pos = positions.data();
  const char* alive = alive_.data();
  const BandPair* pairs = band_.data();
  char* edge = bandEdge_.data();
  for (std::size_t i = 0, m = band_.size(); i < m; ++i) {
    const std::uint32_t u = pairs[i].u, v = pairs[i].v;
    const bool now = (dist2(pos[u], pos[v]) <= r2) & (alive[u] != 0) & (alive[v] != 0);
    const bool was = edge[i] != 0;
    added += static_cast<std::uint64_t>(now & !was);
    removed += static_cast<std::uint64_t>(was & !now);
    edge[i] = static_cast<char>(now);
  }
  // Core pairs are edges exactly when both endpoints are alive: only a
  // flipped alive bit changes one.  The grid still holds the band's
  // build positions, so a node's core partners are found around its
  // build position, by the same dist2 the rebuild classified with.
  const double inner = graphRadius_ - skin_;
  const double inner2 = inner * inner;
  for (std::size_t v = 0; inner > 0.0 && v < positions.size(); ++v) {
    if (alive_[v] == sampleAlive_[v]) continue;
    const Vec2 at = grid_.point(static_cast<NodeId>(v));
    grid_.forEachInBall(at, inner + skin_, [&](NodeId wId) {
      const auto w = static_cast<std::size_t>(wId);
      const bool wFlipped = alive_[w] != sampleAlive_[w];
      if (w == v || (wFlipped && w < v)) return;  // a doubly flipped pair counts once
      if (dist2(grid_.point(wId), at) > inner2) return;  // a band pair, scanned above
      const bool was = sampleAlive_[v] != 0 && sampleAlive_[w] != 0;
      const bool now = alive_[v] != 0 && alive_[w] != 0;
      added += static_cast<std::uint64_t>(now && !was);
      removed += static_cast<std::uint64_t>(was && !now);
    });
  }
  ++bandScans_;
  telemetry::counterAdd(dynTm().bandPairs, band_.size());
  stats_.edgesAdded += added;
  stats_.edgesRemoved += removed;
  sampleEdges_ = sampleEdges_ + added - removed;
}

void TopologyDynamics::rebuildBand(std::span<const Vec2> positions) {
  telemetry::counterAdd(dynTm().bandRebuilds);
  const double R = graphRadius_;
  const double r2 = R * R;

  // The largest step since the previous sample: the previous edges are
  // within R + 2 * step of each other now.
  double step2 = 0.0;
  for (std::size_t v = 0; v < positions.size(); ++v) {
    step2 = std::max(step2, dist2(positions[v], samplePos_[v]));
  }
  const double step = std::sqrt(step2);
  if (skin_ == 0.0 || bandScans_ == 0) {
    // No band yet, or the last one did not outlive a sample: size the
    // skin from this step.
    skin_ = kFirstSkinSteps * step;
  } else {
    const double work = static_cast<double>(band_.size()) * static_cast<double>(bandScans_);
    const double target = kScansPerRebuildPair * static_cast<double>(rebuildPairs_);
    skin_ *= std::clamp(std::sqrt(target / std::max(work, 1.0)), 0.5, 2.0);
  }
  // No band can outlive steps this long: keep it minimal.  At least
  // 1e-6 R keeps the 0.02 h rounding margin far above the distances'
  // ulps; beyond R the core is empty anyway.
  if (step >= kBandSlack * R) skin_ = 0.0;
  skin_ = std::clamp(skin_, 1e-6 * R, R);
  const double inner = R - skin_;
  const double inner2 = inner > 0.0 ? inner * inner : -1.0;
  const double outer2 = (R + skin_) * (R + skin_);
  // When the band's reach covers every previous edge, one enumeration
  // counts the churn both ways; otherwise the removed edges come from an
  // enumeration at the previous positions.
  const bool oneSweep = 2.0 * step <= skin_;

  grid_.ensure(positions, R);
  band_.clear();
  bandEdge_.clear();
  std::uint64_t added = 0, removed = 0, pairs = 0;
  grid_.forEachPairWithin(R + 1.01 * skin_, [&](NodeId a, NodeId b, double d2) {
    const auto u = static_cast<std::size_t>(a);
    const auto v = static_cast<std::size_t>(b);
    ++pairs;
    const bool now = (d2 <= r2) & (alive_[u] != 0) & (alive_[v] != 0);
    const bool was = (dist2(samplePos_[u], samplePos_[v]) <= r2) & (sampleAlive_[u] != 0) &
                     (sampleAlive_[v] != 0);
    added += static_cast<std::uint64_t>(now & !was);
    removed += static_cast<std::uint64_t>(oneSweep & was & !now);
    if (d2 > inner2 && d2 <= outer2) {
      band_.push_back({static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v)});
      bandEdge_.push_back(static_cast<char>(now));
    }
  });
  if (!oneSweep) {
    prevGrid_.ensure(samplePos_, R);
    prevGrid_.forEachPairWithin(R, [&](NodeId a, NodeId b, double) {
      const auto u = static_cast<std::size_t>(a);
      const auto v = static_cast<std::size_t>(b);
      const bool was = (sampleAlive_[u] != 0) & (sampleAlive_[v] != 0);
      const bool now = (dist2(positions[u], positions[v]) <= r2) & (alive_[u] != 0) &
                       (alive_[v] != 0);
      removed += static_cast<std::uint64_t>(was & !now);
    });
  }
  rebuildPairs_ = pairs;
  bandScans_ = 0;
  stats_.edgesAdded += added;
  stats_.edgesRemoved += removed;
  sampleEdges_ = sampleEdges_ + added - removed;
}

void TopologyDynamics::finalize(std::span<const Vec2> current) {
  sampleGraph(current, /*final=*/true);
  double total = 0.0;
  for (std::size_t v = 0; v < initial_.size() && v < current.size(); ++v) {
    total += dist(initial_[v], current[v]);
  }
  stats_.meanDisplacement = initial_.empty() ? 0.0 : total / static_cast<double>(initial_.size());
}

}  // namespace mcs
