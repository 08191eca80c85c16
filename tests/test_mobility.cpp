#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "geom/grid_index.h"
#include "mobility/mobility.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "test_support.h"
#include "util/rng.h"

/// The mobility & churn subsystem: spec plumbing, per-seed determinism,
/// thread-count invariance, model kinematics, churn edge cases, and the
/// drift metrics.
namespace mcs {
namespace {

// ---------------------------------------------------------------- plumbing

TEST(MobilitySpec, KeysParseValidateAndRoundTrip) {
  ScenarioSpec spec;
  std::string err;
  EXPECT_FALSE(spec.topology.dynamic());  // static default attaches nothing

  ASSERT_TRUE(applyScenarioKey(spec, "mobility", "random_waypoint", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_speed", "0.002", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_pause", "25", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "churn_departure_rate", "0.001", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "churn_arrival_rate", "0.01", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_sample_every", "16", err)) << err;
  EXPECT_EQ(spec.topology.mobility.kind, MobilityKind::RandomWaypoint);
  EXPECT_DOUBLE_EQ(spec.topology.mobility.speed, 0.002);
  EXPECT_EQ(spec.topology.mobility.pause, 25);
  EXPECT_TRUE(spec.topology.dynamic());
  EXPECT_EQ(validateScenario(spec), "");

  // Round trip through the canonical serialization.
  ScenarioSpec loaded;
  std::string kv = scenarioToKeyValues(spec);
  std::size_t pos = 0;
  while (pos < kv.size()) {
    const std::size_t eol = kv.find('\n', pos);
    const std::string line = kv.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos);
    const std::string key = line.substr(0, eq - 1);
    const std::string value = line.substr(eq + 2);
    ASSERT_TRUE(applyScenarioKey(loaded, key, value, err)) << line << ": " << err;
  }
  EXPECT_EQ(scenarioToKeyValues(loaded), kv);

  // Rejections.
  EXPECT_FALSE(applyScenarioKey(spec, "mobility", "teleport", err));
  spec.topology.mobility.speed = -1.0;
  EXPECT_NE(validateScenario(spec), "");
  spec.topology.mobility.speed = 0.0;  // moving model without speed
  EXPECT_NE(validateScenario(spec), "");
  spec.topology.mobility.speed = 0.002;
  spec.topology.churn.departureRate = 1.5;  // not a probability
  EXPECT_NE(validateScenario(spec), "");
}

TEST(MobilitySpec, ModelListCoversEveryKind) {
  const auto models = mobilityModelList();
  ASSERT_EQ(models.size(), 4u);
  ScenarioSpec spec;
  std::string err;
  for (const MobilityModelInfo& info : models) {
    EXPECT_TRUE(applyScenarioKey(spec, "mobility", info.name, err)) << info.name;
    EXPECT_FALSE(std::string(info.description).empty());
  }
}

// ----------------------------------------------------------- determinism

ScenarioSpec mobileSpec(MobilityKind kind, double speed = 2e-3) {
  ScenarioSpec spec;
  spec.name = "test_mobile";
  spec.deployment.n = 150;
  spec.deployment.side = 1.0;
  spec.channels = 4;
  spec.protocol = ProtocolKind::AggregateMax;
  spec.seeds = 1;
  spec.topology.mobility.kind = kind;
  spec.topology.mobility.speed = speed;
  spec.topology.sampleEvery = 16;
  return spec;
}

TEST(MobilityDeterminism, PerSeedBitIdenticalTrajectories) {
  for (const MobilityKind kind :
       {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint, MobilityKind::GroupReference}) {
    ScenarioSpec spec = mobileSpec(kind);
    spec.topology.churn.departureRate = 5e-4;
    spec.topology.churn.arrivalRate = 5e-3;
    const SeedResult a = runScenarioSeed(spec, 11);
    const SeedResult b = runScenarioSeed(spec, 11);
    ASSERT_TRUE(a.error.empty()) << toString(kind) << ": " << a.error;
    EXPECT_EQ(a.slots, b.slots) << toString(kind);
    EXPECT_EQ(a.decodes, b.decodes) << toString(kind);
    EXPECT_EQ(a.metrics, b.metrics) << toString(kind);

    const SeedResult c = runScenarioSeed(spec, 12);
    EXPECT_FALSE(a.slots == c.slots && a.decodes == c.decodes) << toString(kind);
  }
}

TEST(MobilityDeterminism, MediumThreadCountInvariance) {
  // The same mobile run on a 1-thread and a 4-thread Medium must produce
  // the identical decode trace and identical trajectories (the dynamics
  // advance is counter-based, outside the threaded listener loop).
  const auto run = [](int threads) {
    Network net = test::makeUniformNetwork(120, 1.0, 17);
    Simulator sim(net, 2, 99, threads);
    TopologyParams topo;
    topo.mobility.kind = MobilityKind::RandomWalk;
    topo.mobility.speed = 2e-3;
    topo.churn.departureRate = 1e-3;
    topo.churn.arrivalRate = 1e-2;
    sim.attachDynamics(topo);
    std::uint64_t decodes = 0;
    for (int t = 0; t < 120; ++t) {
      sim.step(sim.allNodes(), [&](NodeId v) {
            return sim.rng(v).bernoulli(0.2)
                       ? Intent::transmit(static_cast<ChannelId>(v % 2), {})
                       : Intent::listen(static_cast<ChannelId>(v % 2));
          },
          [&](NodeId, const Reception& r) { decodes += r.received; });
    }
    std::vector<Vec2> pos(sim.positions().begin(), sim.positions().end());
    return std::pair(decodes, pos);
  };
  const auto [d1, p1] = run(1);
  const auto [d4, p4] = run(4);
  EXPECT_EQ(d1, d4);
  EXPECT_EQ(p1, p4);
}

TEST(MobilityDeterminism, DynamicNearFarIsSeedAndThreadDeterministic) {
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk);
  spec.deployment.n = 250;
  spec.deployment.side = 0.8;
  spec.sinr.mediumMode = MediumMode::NearFar;
  const SeedResult a = runScenarioSeed(spec, 21);
  const SeedResult b = runScenarioSeed(spec, 21);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.delivered);
}

TEST(MobilityDeterminism, DynamicHierIsSeedAndThreadDeterministic) {
  // The hierarchical far-field shares the dynamic grid maintenance path
  // with NearFar; its pyramid rebuild and fixed-order traversal must keep
  // mobile runs reproducible run-to-run just like the flat modes.
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk);
  spec.deployment.n = 250;
  spec.deployment.side = 0.8;
  spec.sinr.mediumMode = MediumMode::Hierarchical;
  const SeedResult a = runScenarioSeed(spec, 21);
  const SeedResult b = runScenarioSeed(spec, 21);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.delivered);
}

TEST(MobilityDeterminism, AttachingDynamicsLeavesProtocolStreamsUntouched) {
  // The dynamics keys are root forks, not draws: a node's protocol RNG
  // sequence must be identical with and without dynamics attached.
  Network net = test::makeUniformNetwork(30, 1.0, 5);
  Simulator plain(net, 2, 7);
  Simulator mobile(net, 2, 7);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::RandomWalk;
  topo.mobility.speed = 1e-3;
  mobile.attachDynamics(topo);
  for (NodeId v = 0; v < net.size(); ++v) {
    EXPECT_EQ(plain.rng(v)(), mobile.rng(v)());
  }
}

// ------------------------------------------------------------- kinematics

TEST(MobilityKinematics, WalkAndWaypointRespectSpeedAndBox) {
  for (const MobilityKind kind : {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint}) {
    Network net = test::makeUniformNetwork(80, 1.0, 23);
    double loX = 1e30, loY = 1e30, hiX = -1e30, hiY = -1e30;
    for (const Vec2& p : net.positions()) {
      loX = std::min(loX, p.x);
      loY = std::min(loY, p.y);
      hiX = std::max(hiX, p.x);
      hiY = std::max(hiY, p.y);
    }
    Simulator sim(net, 1, 3);
    TopologyParams topo;
    topo.mobility.kind = kind;
    topo.mobility.speed = 5e-3;
    sim.attachDynamics(topo);
    std::vector<Vec2> prev(net.positions().begin(), net.positions().end());
    for (int t = 0; t < 200; ++t) {
      sim.step(sim.allNodes(), [](NodeId) { return Intent::idle(); },
               [](NodeId, const Reception&) {});
      const std::span<const Vec2> cur = sim.positions();
      for (std::size_t v = 0; v < prev.size(); ++v) {
        // Per-slot displacement is bounded by the speed (reflection can
        // only shorten the straight-line distance).
        EXPECT_LE(dist(prev[v], cur[v]), topo.mobility.speed + 1e-12);
        EXPECT_GE(cur[v].x, loX - 1e-12);
        EXPECT_LE(cur[v].x, hiX + 1e-12);
        EXPECT_GE(cur[v].y, loY - 1e-12);
        EXPECT_LE(cur[v].y, hiY + 1e-12);
      }
      prev.assign(cur.begin(), cur.end());
    }
    // And the network actually moved.
    double moved = 0.0;
    for (std::size_t v = 0; v < prev.size(); ++v) moved += dist(prev[v], net.position(static_cast<NodeId>(v)));
    EXPECT_GT(moved, 0.0);
  }
}

TEST(MobilityKinematics, GroupMembersStayTethered) {
  Network net = test::makeUniformNetwork(90, 1.0, 31);
  Simulator sim(net, 1, 3);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::GroupReference;
  topo.mobility.speed = 4e-3;
  topo.mobility.groups = 5;
  topo.mobility.groupRadius = 0.2;
  sim.attachDynamics(topo);
  // The tether is soft (bounded pull rate), so initially-far members take
  // ~|offset| / (speed/2) slots to reel in; 700 covers the whole box.
  // Along the way no member may teleport: reference motion + member step
  // + tether pull bound per-slot displacement by 2 * speed.
  std::vector<Vec2> prev(net.positions().begin(), net.positions().end());
  for (int t = 0; t < 700; ++t) {
    sim.step(sim.allNodes(), [](NodeId) { return Intent::idle(); },
             [](NodeId, const Reception&) {});
    const std::span<const Vec2> now = sim.positions();
    for (std::size_t v = 0; v < prev.size(); ++v) {
      ASSERT_LE(dist(prev[v], now[v]), 2.0 * topo.mobility.speed + 1e-12)
          << "slot " << t << " node " << v;
    }
    prev.assign(now.begin(), now.end());
  }
  // After enough slots every member has been pulled to within the tether
  // of its group's reference point; group spread is therefore bounded.
  const std::span<const Vec2> cur = sim.positions();
  for (int g = 0; g < topo.mobility.groups; ++g) {
    Vec2 centroid{};
    int members = 0;
    for (int v = g; v < net.size(); v += topo.mobility.groups) {
      centroid = centroid + cur[static_cast<std::size_t>(v)];
      ++members;
    }
    centroid = centroid * (1.0 / members);
    for (int v = g; v < net.size(); v += topo.mobility.groups) {
      // Steady state: within the tether plus one member step of slack
      // (the soft pull catches an overshoot on the next slot).
      EXPECT_LE(dist(cur[static_cast<std::size_t>(v)], centroid),
                2.0 * topo.mobility.groupRadius + topo.mobility.speed)
          << "group " << g << " node " << v;
    }
  }
}

// ------------------------------------------------------------------ churn

TEST(Churn, AllNodesDeadIsSafeAndRevivable) {
  Network net = test::makeUniformNetwork(40, 1.0, 13);
  Simulator sim(net, 1, 3);
  TopologyParams topo;
  topo.churn.departureRate = 1.0;  // everyone departs in slot 0
  sim.attachDynamics(topo);
  int intentCalls = 0;
  sim.step(sim.allNodes(), [&](NodeId) { ++intentCalls; return Intent::listen(0); },
           [](NodeId, const Reception&) {});
  EXPECT_EQ(intentCalls, 0);  // dead nodes get no protocol callbacks
  EXPECT_EQ(sim.aliveCount(), 0);
  EXPECT_EQ(sim.mediumStats().listens, 0u);
  EXPECT_FALSE(sim.alive(0));  // the sink departs too — and nothing throws

  // Certain arrival revives the whole network on the next slot.
  Simulator sim2(net, 1, 3);
  TopologyParams revive;
  revive.churn.departureRate = 1.0;
  revive.churn.arrivalRate = 1.0;
  sim2.attachDynamics(revive);
  sim2.step(sim2.allNodes(), [](NodeId) { return Intent::listen(0); },
            [](NodeId, const Reception&) {});
  EXPECT_EQ(sim2.aliveCount(), 0);
  sim2.step(sim2.allNodes(), [](NodeId) { return Intent::listen(0); },
            [](NodeId, const Reception&) {});
  EXPECT_EQ(sim2.aliveCount(), net.size());
  ASSERT_NE(sim2.dynamics(), nullptr);
  EXPECT_EQ(sim2.dynamics()->stats().departures, static_cast<std::uint64_t>(net.size()));
  EXPECT_EQ(sim2.dynamics()->stats().arrivals, static_cast<std::uint64_t>(net.size()));
}

TEST(Churn, SinkDepartureFailsSoftlyThroughTheRunner) {
  // A dead-on-arrival network (certain departure, no arrivals — the sink
  // included) must come back as a normal SeedResult, never a crash or a
  // hang.  Frozen protocol state may still self-elect dominators, so
  // `delivered` is not asserted; zero radio activity and zero survivors
  // are.
  ScenarioSpec spec;
  spec.deployment.n = 60;
  spec.deployment.side = 1.0;
  spec.channels = 2;
  spec.protocol = ProtocolKind::Structure;
  spec.topology.churn.departureRate = 1.0;
  const SeedResult r = runScenarioSeed(spec, 3);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.metricOr("alive_final", -1.0), 0.0);
  EXPECT_EQ(r.listens, 0u);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Churn, ChainSamplerIsChurnGated) {
  // Dynamic chain runs sample through the scenario Simulator, so churn
  // actually gates the senders: the sampled slots advance the dynamics
  // and the drift metrics are real (static chain runs keep sampling on a
  // private Simulator, slots = 0, bit-identical to the pre-mobility
  // driver).
  ScenarioSpec spec;
  ASSERT_TRUE(ScenarioRegistry::find("mobile_chain", spec));
  spec.seeds = 1;
  const SeedResult r = runScenarioSeed(spec, spec.seed0);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.slots, static_cast<std::uint64_t>(spec.chainTrials));
  EXPECT_GT(r.metricOr("churn_departures") + r.metricOr("churn_arrivals"), 0.0);

  ScenarioSpec still = spec;
  still.topology = TopologyParams{};
  const SeedResult s = runScenarioSeed(still, spec.seed0);
  ASSERT_TRUE(s.error.empty()) << s.error;
  EXPECT_EQ(s.slots, 0u);
}

// ----------------------------------------------------------- drift metrics

TEST(DriftMetrics, ReportedAndSane) {
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk, 4e-3);
  const SeedResult r = runScenarioSeed(spec, 9);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_GT(r.metricOr("mean_displacement"), 0.0);
  EXPECT_GT(r.metricOr("edge_churn_per_slot"), 0.0);
  const double survival = r.metricOr("edge_survival", -1.0);
  EXPECT_GE(survival, 0.0);
  EXPECT_LT(survival, 1.0);  // at this speed some initial edges must die
  EXPECT_EQ(r.metricOr("alive_final"), spec.deployment.n);  // no churn configured
  EXPECT_NE(r.metrics.find("redelivered"), nullptr);  // aggregation adds re-delivery

  // Static runs carry none of this.
  ScenarioSpec still = mobileSpec(MobilityKind::Static, 0.0);
  still.topology.mobility.speed = 0.0;
  const SeedResult s = runScenarioSeed(still, 9);
  EXPECT_EQ(s.metrics.find("edge_survival"), nullptr);
  EXPECT_EQ(s.metrics.find("redelivered"), nullptr);
}

// -------------------------------------------------- drift sampler oracle

/// The drift sampler before the skin band, kept as the brute-force
/// reference: every sample enumerates all edges, sorts them and merges
/// them against the previous sample.
class ReferenceSampler {
 public:
  explicit ReferenceSampler(double radius) : radius_(radius) {}

  void sample(std::span<const Vec2> positions, const std::vector<char>& alive, bool final) {
    grid_.ensure(positions, radius_);
    edges_.clear();
    const auto n = static_cast<NodeId>(positions.size());
    for (NodeId v = 0; v < n; ++v) {
      if (alive[static_cast<std::size_t>(v)] == 0) continue;
      grid_.forEachInBall(positions[static_cast<std::size_t>(v)], radius_, [&](NodeId u) {
        if (u > v && alive[static_cast<std::size_t>(u)] != 0) {
          edges_.push_back((static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint32_t>(u));
        }
      });
    }
    std::sort(edges_.begin(), edges_.end());
    ++stats.graphSamples;
    if (stats.graphSamples == 1) {
      initial_ = edges_;
      stats.initialEdges = initial_.size();
    } else {
      std::vector<std::uint64_t> diff;
      std::set_difference(edges_.begin(), edges_.end(), prev_.begin(), prev_.end(),
                          std::back_inserter(diff));
      stats.edgesAdded += diff.size();
      diff.clear();
      std::set_difference(prev_.begin(), prev_.end(), edges_.begin(), edges_.end(),
                          std::back_inserter(diff));
      stats.edgesRemoved += diff.size();
    }
    prev_ = edges_;
    if (final) {
      stats.finalEdges = edges_.size();
      std::vector<std::uint64_t> kept;
      std::set_intersection(initial_.begin(), initial_.end(), edges_.begin(), edges_.end(),
                            std::back_inserter(kept));
      stats.survivingInitialEdges = kept.size();
    }
  }

  TopologyStats stats;

 private:
  double radius_;
  GridIndex grid_;
  std::vector<std::uint64_t> edges_, prev_, initial_;
};

void expectSameStats(const TopologyStats& got, const TopologyStats& want, const std::string& what) {
  EXPECT_EQ(got.departures, want.departures) << what;
  EXPECT_EQ(got.arrivals, want.arrivals) << what;
  EXPECT_EQ(got.graphSamples, want.graphSamples) << what;
  EXPECT_EQ(got.edgesAdded, want.edgesAdded) << what;
  EXPECT_EQ(got.edgesRemoved, want.edgesRemoved) << what;
  EXPECT_EQ(got.initialEdges, want.initialEdges) << what;
  EXPECT_EQ(got.finalEdges, want.finalEdges) << what;
  EXPECT_EQ(got.survivingInitialEdges, want.survivingInitialEdges) << what;
  EXPECT_EQ(got.meanDisplacement, want.meanDisplacement) << what;
}

struct OracleRun {
  MobilityKind kind = MobilityKind::RandomWalk;
  double speed = 2e-3;
  bool churn = false;
  int sampleEvery = 32;
  int slots = 320;
  /// Every `jumpEvery` slots (0: never) a third of the nodes are moved
  /// from outside, between two advance() calls, by up to ±3 box sides.
  int jumpEvery = 0;
};

/// Runs TopologyDynamics and the reference side by side on the same
/// positions and alive masks and expects identical statistics after each
/// of two finalize() calls.
void expectMatchesReference(const OracleRun& run, const std::string& what) {
  constexpr std::size_t kNodes = 200;
  constexpr double kRadius = 0.25;
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(run.sampleEvery));
  std::vector<Vec2> pos(kNodes);
  for (Vec2& p : pos) p = {rng.uniform(), rng.uniform()};
  const std::vector<Vec2> initial = pos;

  TopologyParams params;
  params.mobility.kind = run.kind;
  params.mobility.speed = run.speed;
  params.mobility.pause = 3;
  params.mobility.groups = 5;
  if (run.churn) {
    params.churn.departureRate = 4e-3;
    params.churn.arrivalRate = 2e-2;
  }
  params.sampleEvery = run.sampleEvery;
  TopologyDynamics dyn(params, initial, kRadius, 0x1234u, 0x5678u);
  ReferenceSampler ref(kRadius);
  ref.sample(initial, std::vector<char>(kNodes, 1), false);

  std::vector<char> alive(kNodes, 1);
  for (int slot = 0; slot < run.slots; ++slot) {
    if (run.jumpEvery > 0 && slot % run.jumpEvery == run.jumpEvery - 1) {
      for (std::size_t v = 0; v < kNodes; v += 3) {
        pos[v].x += rng.uniform(-3.0, 3.0);
        pos[v].y += rng.uniform(-3.0, 3.0);
      }
    }
    dyn.advance(static_cast<std::uint64_t>(slot), pos);
    for (std::size_t v = 0; v < kNodes; ++v) {
      ref.stats.departures += static_cast<std::uint64_t>(alive[v] != 0 && dyn.aliveMask()[v] == 0);
      ref.stats.arrivals += static_cast<std::uint64_t>(alive[v] == 0 && dyn.aliveMask()[v] != 0);
    }
    alive = dyn.aliveMask();
    if ((slot + 1) % run.sampleEvery == 0) ref.sample(pos, alive, false);
  }
  double total = 0.0;
  for (std::size_t v = 0; v < kNodes; ++v) total += dist(initial[v], pos[v]);
  ref.stats.meanDisplacement = total / static_cast<double>(kNodes);
  for (int round = 0; round < 2; ++round) {  // finalize() twice: idempotent
    dyn.finalize(pos);
    ref.sample(pos, alive, true);
    expectSameStats(dyn.stats(), ref.stats, what + " finalize #" + std::to_string(round + 1));
  }
  if (run.churn) {
    EXPECT_GT(dyn.stats().departures, 0u) << what;
  }
  EXPECT_GT(dyn.stats().edgesAdded + dyn.stats().edgesRemoved, 0u) << what;
}

TEST(DriftSampler, MatchesTheBruteForceReference) {
  for (const MobilityKind kind :
       {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint, MobilityKind::GroupReference}) {
    for (const bool churn : {false, true}) {
      for (const int every : {1, 7, 32}) {
        OracleRun run;
        run.kind = kind;
        run.churn = churn;
        run.sampleEvery = every;
        expectMatchesReference(run, toString(kind) + (churn ? " churn" : "") + " every " +
                                        std::to_string(every));
      }
    }
  }
}

TEST(DriftSampler, MatchesTheReferenceWhenASampleStepExceedsTheRadius) {
  for (const MobilityKind kind : {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint}) {
    for (const bool churn : {false, true}) {
      OracleRun run;
      run.kind = kind;
      run.churn = churn;
      run.speed = 0.2;  // 7 slots move a node up to 1.4 = 5.6 R per sample
      run.sampleEvery = 7;
      run.slots = 140;
      expectMatchesReference(run, toString(kind) + (churn ? " churn" : "") + " fast");
    }
  }
}

TEST(DriftSampler, MatchesTheReferenceAcrossExternalPositionJumps) {
  for (const int every : {1, 7, 32}) {
    OracleRun run;
    run.churn = true;
    run.sampleEvery = every;
    run.jumpEvery = 45;
    expectMatchesReference(run, "random_walk jumps every " + std::to_string(every));
  }
}

// ---------------------------------------------------------------- presets

TEST(MobilePresets, EveryProtocolKindHasOneAndItRuns) {
  bool covered[kNumProtocolKinds] = {};
  for (const std::string& name : ScenarioRegistry::names()) {
    if (name.rfind("mobile_", 0) != 0) continue;
    ScenarioSpec spec;
    ASSERT_TRUE(ScenarioRegistry::find(name, spec));
    EXPECT_TRUE(spec.topology.dynamic()) << name;
    covered[static_cast<int>(spec.protocol)] = true;
    spec.seeds = 1;
    const SeedResult a = runScenarioSeed(spec, spec.seed0);
    EXPECT_TRUE(a.error.empty()) << name << ": " << a.error;
    EXPECT_TRUE(a.delivered) << name;
    const SeedResult b = runScenarioSeed(spec, spec.seed0);
    EXPECT_EQ(a.slots, b.slots) << name;
    EXPECT_EQ(a.metrics, b.metrics) << name;
  }
  for (int k = 0; k < kNumProtocolKinds; ++k) {
    EXPECT_TRUE(covered[k]) << "no mobile preset for ProtocolKind "
                            << toString(static_cast<ProtocolKind>(k));
  }
}

}  // namespace
}  // namespace mcs
