#include <gtest/gtest.h>

#include "test_support.h"

namespace mcs {
namespace {

RulingSetConfig defaultConfig(int n, double radius) {
  RulingSetConfig cfg;
  cfg.radius = radius;
  cfg.capProb = 0.125;
  cfg.initialProb = std::min(0.125, 0.5 / std::max(2, n));
  cfg.epochRounds = 3;
  cfg.cycleProb = true;
  cfg.totalRounds = 40 + 4 * static_cast<int>(std::log(std::max(2, n)));
  return cfg;
}

class RulingSetSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RulingSetSeeds, DominationAndIndependence) {
  const std::uint64_t seed = GetParam();
  Network net = test::makeUniformNetwork(300, 1.2, seed);
  Simulator sim(net, 4, seed * 3 + 1);
  const double r = net.rc();
  std::vector<char> everyone(static_cast<std::size_t>(net.size()), 1);
  const RulingSetResult rs = runRulingSet(sim, everyone, defaultConfig(net.size(), r));

  int members = 0;
  for (NodeId v = 0; v < net.size(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (rs.inSet[vi]) {
      ++members;
      continue;
    }
    // Every non-member is bound to a member within r (the binding may have
    // been forwarded once after a conflict demotion: allow 2r).
    const NodeId d = rs.dominator[vi];
    ASSERT_NE(d, kNoNode) << "node " << v << " unbound";
    EXPECT_LE(net.distance(v, d), 2 * r + 1e-12);
  }
  EXPECT_GT(members, 0);
  EXPECT_LT(members, net.size());

  // Independence: members pairwise > r apart, with a tiny tolerance for
  // same-round joins the conflict resolution did not catch.
  int violations = 0;
  std::vector<NodeId> mem;
  for (NodeId v = 0; v < net.size(); ++v) {
    if (rs.inSet[static_cast<std::size_t>(v)]) mem.push_back(v);
  }
  for (std::size_t i = 0; i < mem.size(); ++i) {
    for (std::size_t j = i + 1; j < mem.size(); ++j) {
      if (net.distance(mem[i], mem[j]) <= r) ++violations;
    }
  }
  // The bare engine (one channel, global contention, practical round
  // counts) resolves most but not all simultaneous joins; the §5 pipeline
  // layers re-association and verification on top (see those tests for
  // the tighter bounds).
  EXPECT_LE(violations, std::max(2, members / 10))
      << members << " members, " << violations << " close pairs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulingSetSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(RulingSet, SingletonSelfElects) {
  Network net({{0, 0}}, SinrParams{});
  Simulator sim(net, 1, 1);
  std::vector<char> everyone{1};
  auto cfg = defaultConfig(1, 0.12);
  const RulingSetResult rs = runRulingSet(sim, everyone, cfg);
  EXPECT_TRUE(rs.inSet[0]);
}

TEST(RulingSet, IsolatedNodesAllJoin) {
  // Nodes far apart: everyone is isolated and must self-elect.
  std::vector<Vec2> pts;
  for (int i = 0; i < 5; ++i) pts.push_back({3.0 * i, 0.0});
  Network net(std::move(pts), SinrParams{});
  Simulator sim(net, 1, 2);
  std::vector<char> everyone(5, 1);
  const RulingSetResult rs = runRulingSet(sim, everyone, defaultConfig(5, 0.12));
  for (int v = 0; v < 5; ++v) EXPECT_TRUE(rs.inSet[static_cast<std::size_t>(v)]);
}

TEST(RulingSet, NonParticipantsUntouched) {
  Network net = test::makeUniformNetwork(100, 1.0, 5);
  Simulator sim(net, 1, 6);
  std::vector<char> participants(100, 0);
  for (int v = 0; v < 50; ++v) participants[static_cast<std::size_t>(v)] = 1;
  const RulingSetResult rs = runRulingSet(sim, participants, defaultConfig(100, net.rc()));
  for (int v = 50; v < 100; ++v) {
    EXPECT_FALSE(rs.inSet[static_cast<std::size_t>(v)]);
    EXPECT_EQ(rs.dominator[static_cast<std::size_t>(v)], kNoNode);
  }
  // Participants are all resolved.
  for (int v = 0; v < 50; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    EXPECT_TRUE(rs.inSet[vi] || rs.dominator[vi] != kNoNode);
  }
}

TEST(RulingSet, GroupsAreScoped) {
  // Two interleaved groups in the same small area: members of one group
  // must never be dominated by the other group's members.
  Network net = test::makeUniformNetwork(120, 0.5, 8);
  Simulator sim(net, 1, 9);
  std::vector<char> everyone(120, 1);
  auto cfg = defaultConfig(120, 0.4);
  cfg.groupOf.assign(120, 0);
  for (NodeId v = 0; v < 120; ++v) cfg.groupOf[static_cast<std::size_t>(v)] = v % 2;
  const RulingSetResult rs = runRulingSet(sim, everyone, cfg);
  for (NodeId v = 0; v < 120; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (rs.dominator[vi] != kNoNode) {
      EXPECT_EQ(v % 2, rs.dominator[vi] % 2) << "cross-group binding";
    }
  }
}

TEST(RulingSet, ChannelPartitionIndependentElections) {
  // All nodes in one tight ball, split over 4 channels: one member per
  // channel expected.
  Rng rng(11);
  auto pts = deployUniformDisk(40, 0.05, rng);
  Network net(std::move(pts), SinrParams{});
  Simulator sim(net, 4, 12);
  std::vector<char> everyone(40, 1);
  auto cfg = defaultConfig(40, 0.2);
  cfg.channelOf.assign(40, 0);
  for (NodeId v = 0; v < 40; ++v) {
    cfg.channelOf[static_cast<std::size_t>(v)] = static_cast<ChannelId>(v % 4);
  }
  const RulingSetResult rs = runRulingSet(sim, everyone, cfg);
  std::vector<int> perChannel(4, 0);
  for (NodeId v = 0; v < 40; ++v) {
    if (rs.inSet[static_cast<std::size_t>(v)]) ++perChannel[static_cast<std::size_t>(v % 4)];
  }
  for (int c = 0; c < 4; ++c) EXPECT_EQ(perChannel[static_cast<std::size_t>(c)], 1);
}

TEST(RulingSet, Determinism) {
  const auto run = [] {
    Network net = test::makeUniformNetwork(150, 1.0, 4);
    Simulator sim(net, 2, 77);
    std::vector<char> everyone(150, 1);
    const RulingSetResult rs = runRulingSet(sim, everyone, defaultConfig(150, net.rc()));
    return rs.inSet;
  };
  EXPECT_EQ(run(), run());
}

TEST(RulingSet, SlotsMatchThreePerRound) {
  Network net = test::makeUniformNetwork(60, 1.0, 6);
  Simulator sim(net, 1, 7);
  std::vector<char> everyone(60, 1);
  const std::uint64_t before = sim.slots();
  const RulingSetResult rs = runRulingSet(sim, everyone, defaultConfig(60, net.rc()));
  EXPECT_EQ(sim.slots() - before, rs.slotsUsed);
  EXPECT_GT(rs.slotsUsed, 0u);
}

// ------------------------------------------------------------------ audit

/// The O(m^2) audit auditRulingSet replaced: every member against every
/// member with the literal distance predicate.
RulingSetAudit bruteForceAudit(const Network& net, const std::vector<char>& participants,
                               const RulingSetResult& rs, double radius) {
  RulingSetAudit audit;
  std::vector<NodeId> members;
  for (NodeId v = 0; v < net.size(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!participants[vi]) continue;
    if (rs.inSet[vi]) {
      members.push_back(v);
    } else if (rs.dominator[vi] == kNoNode ||
               net.distance(v, rs.dominator[vi]) > 2.0 * radius) {
      ++audit.unbound;
    }
  }
  audit.members = static_cast<int>(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    int inBall = 0;
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (net.distance(members[i], members[j]) <= radius) {
        ++inBall;
        if (j > i) ++audit.independenceViolations;
      }
    }
    audit.maxDensity = std::max(audit.maxDensity, inBall);
  }
  return audit;
}

/// Every third node sits out; of the participants, about 70% are members
/// and the rest are bound to a random member (near or far, so `unbound`
/// counts both kinds) or to nobody.
void expectAuditMatchesBruteForce(std::vector<Vec2> pts, double radius, std::uint64_t seed) {
  const Network net(std::move(pts), SinrParams{});
  const auto n = static_cast<std::size_t>(net.size());
  Rng rng(seed);
  std::vector<char> participants(n, 0);
  RulingSetResult rs;
  rs.inSet.assign(n, 0);
  rs.dominator.assign(n, kNoNode);
  std::vector<NodeId> members;
  for (std::size_t v = 0; v < n; ++v) {
    participants[v] = v % 3 != 2;
    if (participants[v] && rng.bernoulli(0.7)) {
      rs.inSet[v] = 1;
      members.push_back(static_cast<NodeId>(v));
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!participants[v] || rs.inSet[v] || members.empty() || rng.bernoulli(0.1)) continue;
    rs.dominator[v] = members[rng.below(members.size())];
  }
  const RulingSetAudit want = bruteForceAudit(net, participants, rs, radius);
  const RulingSetAudit got = auditRulingSet(net, participants, rs, radius);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.independenceViolations, want.independenceViolations);
  EXPECT_EQ(got.unbound, want.unbound);
  EXPECT_EQ(got.maxDensity, want.maxDensity);
  // Each set must exercise the counts it is here for.
  EXPECT_GT(want.members, 0);
  EXPECT_GT(want.independenceViolations, 0);
  EXPECT_GT(want.maxDensity, 1);
}

// A few hundred members over a 1000 x 1000 field: the member grid's cells
// are sized by the member count (~50 wide), not by the 0.5 radius.  Every
// tenth point gets a partner within the radius so there are pairs to find.
TEST(RulingSetAudit, SparseWideFieldMatchesBruteForce) {
  Rng rng(21);
  std::vector<Vec2> pts = deployUniformSquare(600, 1000.0, rng);
  for (std::size_t i = 0; i < 600; i += 10) {
    pts.push_back({pts[i].x + rng.uniform(-0.3, 0.3), pts[i].y + rng.uniform(-0.3, 0.3)});
  }
  expectAuditMatchesBruteForce(std::move(pts), 0.5, 22);
}

// Many members per radius-ball: high density and many violating pairs.
TEST(RulingSetAudit, DensePatchMatchesBruteForce) {
  Rng rng(23);
  expectAuditMatchesBruteForce(deployUniformSquare(700, 1.0, rng), 0.1, 24);
}

// Integer lattice at radius 1: side neighbours are exactly `radius` apart
// (inside the ball), diagonals sqrt(2) (outside); some lattice points
// repeat, so co-located members count at distance 0.
TEST(RulingSetAudit, BoundaryAndColocatedMembersMatchBruteForce) {
  std::vector<Vec2> pts;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  }
  for (int k = 0; k < 30; ++k) pts.push_back(pts[static_cast<std::size_t>(k * 7 % 144)]);
  // Just below the lattice point (0, 0): squared distances round to
  // 1 + 2^-52 > radius^2 while the distances themselves round to exactly
  // the radius, so these pairs count only if candidate gathering allows
  // for the rounding.
  pts.push_back({-5e-05, -0.9999999987500001});
  pts.push_back({0.0001, -0.9999999950000001});
  pts.push_back({-0.00015, -0.9999999887500001});
  expectAuditMatchesBruteForce(std::move(pts), 1.0, 25);
}

}  // namespace
}  // namespace mcs
