#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/grid_index.h"
#include "geom/vec2.h"
#include "sinr/fading.h"
#include "util/ids.h"

/// Mobility & churn: deterministic per-slot topology dynamics.
///
/// A TopologyDynamics instance advances node positions (a mobility model)
/// and an alive mask (a churn process) once per simulation slot, between
/// intent collection of consecutive slots.  The Simulator owns one when a
/// scenario declares motion or churn; static runs attach nothing and are
/// bit-identical to the pre-mobility engine.
///
/// Reproducibility contract (mirrors sinr/fading.h): every random choice
/// is a pure function of (key, slot, node[, counter]) through the
/// splitmix64 finalizer — no shared mutable RNG — and the advance step
/// runs single-threaded before the Medium resolves the slot.  The two
/// 64-bit keys are drawn from dedicated forks of the Simulator root Rng
/// (streams kMobilityStream / kChurnStream), so a run is bit-identical
/// per seed and independent of the Medium's thread count, exactly like
/// fading.  Forking does not consume root draws, so attaching dynamics
/// never perturbs the per-node protocol streams.
namespace mcs {

/// Which mobility model advances positions each slot.
enum class MobilityKind : std::uint8_t {
  /// No motion (the default; scenarios stay bit-identical to pre-mobility
  /// runs because no dynamics are attached at all).
  Static = 0,
  /// Every node steps `speed` in an i.i.d. uniform direction per slot,
  /// reflected into the deployment bounding box.
  RandomWalk,
  /// Every node walks toward a uniform waypoint at `speed` per slot,
  /// pauses `pause` slots on arrival, then draws the next waypoint.
  RandomWaypoint,
  /// Reference-point group mobility: nodes split into `groups` groups;
  /// each group's reference point random-walks at `speed`, members drift
  /// around it with steps of `speed / 2`, softly tethered to
  /// `groupRadius` (members beyond the tether are pulled toward it at
  /// the member step rate, so per-slot displacement stays bounded by
  /// ~2 * speed and no member teleports; the drift sampler is exact
  /// either way).  References start at their group's member centroid, so
  /// the model fits deployments whose index order matches the grouping
  /// (v % groups — e.g. `clustered`); on spatially unsorted deployments
  /// the groups slowly contract toward near-coincident references.
  GroupReference,
};

/// Geometry knobs of the mobility model (units of R_T, per slot).
struct MobilityParams {
  MobilityKind kind = MobilityKind::Static;
  /// Displacement per slot.  Typical: 1e-4 .. 1e-2 (protocol phases span
  /// hundreds of slots, so 1e-3 already drifts nodes by whole cluster
  /// radii over one structure construction).
  double speed = 0.0;
  /// RandomWaypoint: slots to dwell at a reached waypoint.
  int pause = 0;
  /// GroupReference: number of groups (node v belongs to group v % groups).
  int groups = 4;
  /// GroupReference: maximum member distance from the reference point.
  double groupRadius = 0.25;

  [[nodiscard]] bool moving() const noexcept {
    return kind != MobilityKind::Static && speed > 0.0;
  }
};

/// Discretized Poisson churn: per-slot hazard rates.  An alive node
/// departs in a slot with probability `departureRate` (geometric
/// lifetime, the discrete analogue of a Poisson departure process); a
/// departed node re-arrives with probability `arrivalRate`, resuming at
/// its last position.  Dead nodes neither transmit nor listen (the
/// Simulator forces their intent to Idle and skips their protocol
/// callbacks), and they do not move.
struct ChurnParams {
  double departureRate = 0.0;
  double arrivalRate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return departureRate > 0.0 || arrivalRate > 0.0;
  }
};

/// Everything a scenario declares about topology dynamics.
struct TopologyParams {
  MobilityParams mobility;
  ChurnParams churn;
  /// Drift-metric sampling period: every `sampleEvery` slots the dynamics
  /// diff the communication graph against the previous sample and
  /// accumulate edge churn.  The diff is exact for any motion and costs
  /// O(n + pairs near distance R_eps) per sample (a skin band, see
  /// mobility.cpp), so the period trades resolution for time, never the
  /// exactness of the counts.  Purely observational — never affects the
  /// run.
  int sampleEvery = 32;

  /// True when a Simulator needs a TopologyDynamics at all.
  [[nodiscard]] bool dynamic() const noexcept {
    return mobility.moving() || churn.enabled();
  }
};

/// Root-fork stream ids for the two dynamics keys.  Far above the
/// per-node streams (1..n) and the fading stream (0), below the scenario
/// value stream (1 << 63); see scenario/runner.h for the full layout.
inline constexpr std::uint64_t kMobilityStream = (1ULL << 62) + 1;
inline constexpr std::uint64_t kChurnStream = (1ULL << 62) + 2;

/// Aggregate observation counters (drift metrics).
struct TopologyStats {
  std::uint64_t departures = 0;  ///< Alive -> dead transitions.
  std::uint64_t arrivals = 0;    ///< Dead -> alive transitions.
  std::uint64_t graphSamples = 0;
  /// Edge-set symmetric difference accumulated across samples.
  std::uint64_t edgesAdded = 0;
  std::uint64_t edgesRemoved = 0;
  std::size_t initialEdges = 0;
  std::size_t finalEdges = 0;
  /// Initial edges still present at finalize() ("structure survival").
  std::size_t survivingInitialEdges = 0;
  /// Mean over nodes of |final - initial| position (finalize()).
  double meanDisplacement = 0.0;

  [[nodiscard]] double edgeChurnPerSlot(std::uint64_t slots) const noexcept {
    return slots ? static_cast<double>(edgesAdded + edgesRemoved) /
                       static_cast<double>(slots)
                 : 0.0;
  }
  [[nodiscard]] double edgeSurvival() const noexcept {
    return initialEdges ? static_cast<double>(survivingInitialEdges) /
                              static_cast<double>(initialEdges)
                        : 1.0;
  }
};

/// One mobility model name + one-line description (CLI listings, README).
struct MobilityModelInfo {
  const char* name;
  const char* description;
};

/// All MobilityKind values with their `mobility =` key names, in enum
/// order (scenario_runner --list prints them).
[[nodiscard]] std::vector<MobilityModelInfo> mobilityModelList();

/// The per-simulation dynamics engine.  Owned by the Simulator; advance()
/// is called once at the top of every slot with the Simulator's mutable
/// position buffer.
class TopologyDynamics {
 public:
  /// `initial` seeds the position history and the reflective bounding
  /// box; `graphRadius` is the communication radius R_eps the drift
  /// metrics sample at; the keys come from root-Rng forks (see above).
  TopologyDynamics(const TopologyParams& params, std::span<const Vec2> initial,
                   double graphRadius, std::uint64_t mobilityKey, std::uint64_t churnKey);

  /// Advances churn, then motion, for slot ordinal `slot` (0-based), and
  /// samples the communication graph every `sampleEvery` slots.
  void advance(std::uint64_t slot, std::vector<Vec2>& positions);

  [[nodiscard]] bool alive(NodeId v) const noexcept {
    return alive_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] const std::vector<char>& aliveMask() const noexcept { return alive_; }
  [[nodiscard]] int aliveCount() const noexcept { return aliveCount_; }

  /// Takes the final graph sample, computes survival against the initial
  /// edge set and the mean displacement.  Idempotent per position state.
  void finalize(std::span<const Vec2> current);

  [[nodiscard]] const TopologyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TopologyParams& params() const noexcept { return params_; }

 private:
  void advanceChurn(std::uint64_t slot);
  void advanceMotion(std::uint64_t slot, std::vector<Vec2>& positions);
  /// One drift sample: diffs the graph against the previous sample and
  /// adds the churn to stats_.  Exact for any motion; O(n + band pairs)
  /// while the skin band holds (see mobility.cpp).
  void sampleGraph(std::span<const Vec2> positions, bool final);
  void scanBand(std::span<const Vec2> positions);
  void rebuildBand(std::span<const Vec2> positions);

  /// Uniform in [0, 1), pure in (key, a, b): the fading-layer recipe.
  [[nodiscard]] static double unitDraw(std::uint64_t key, std::uint64_t a,
                                       std::uint64_t b) noexcept {
    std::uint64_t h = mix64(key ^ (a + 0x9e3779b97f4a7c15ULL));
    h = mix64(h ^ b);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  TopologyParams params_;
  double graphRadius_;
  std::uint64_t mobilityKey_;
  std::uint64_t churnKey_;

  std::vector<Vec2> initial_;
  std::vector<char> alive_;
  int aliveCount_ = 0;
  // Reflective bounding box (from the initial deployment).
  double loX_ = 0.0, loY_ = 0.0, hiX_ = 0.0, hiY_ = 0.0;

  // RandomWaypoint state.
  std::vector<Vec2> target_;
  std::vector<int> pauseLeft_;
  std::vector<std::uint32_t> waypointIndex_;

  // GroupReference state.
  std::vector<Vec2> groupRef_;

  // Drift-metric sampling state.  The previous sample is kept as its
  // positions and alive mask (edge(u, v) = dist2 <= R² ∧ both alive), the
  // skin band as its pairs and their edge bits; grid_ indexes all nodes
  // at the band's build positions.
  struct BandPair {
    std::uint32_t u, v;
  };
  GridIndex grid_;
  GridIndex prevGrid_;  // previous-sample positions, for rebuilds after long steps
  std::vector<std::uint64_t> initialEdges_;  // (v << 32 | u), v < u
  std::vector<Vec2> samplePos_;
  std::vector<char> sampleAlive_;
  std::size_t sampleEdges_ = 0;
  double skin_ = 0.0;  // band half-width h; 0 until the first band is built
  std::vector<BandPair> band_;
  std::vector<char> bandEdge_;
  std::uint64_t bandScans_ = 0;     // samples answered by the current band
  std::uint64_t rebuildPairs_ = 0;  // pairs the last rebuild enumerated

  TopologyStats stats_;
};

}  // namespace mcs
