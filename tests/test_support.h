#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mcs.h"
#include "util/framing.h"

/// Shared helpers for the mcsinr test suite.
namespace mcs::test {

/// The bytes writeFrame puts on a socket for `payload`: the real wire
/// encoding, read back through a socketpair.
inline std::string frameWireBytes(std::string_view payload) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string err;
  EXPECT_TRUE(writeFrame(fds[0], payload, err)) << err;
  std::string wire(payload.size() + 4, '\0');
  std::size_t got = 0;
  while (got < wire.size()) {
    const ssize_t n = read(fds[1], wire.data() + got, wire.size() - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(got, wire.size());
  close(fds[0]);
  close(fds[1]);
  return wire;
}

/// A connected-ish uniform deployment in a `side` x `side` square.
inline Network makeUniformNetwork(int n, double side, std::uint64_t seed, Tuning tuning = {}) {
  Rng rng(seed);
  auto pts = deployUniformSquare(n, side, rng);
  return Network(std::move(pts), SinrParams{}, tuning);
}

/// Builds the full aggregation structure on a fresh simulator.
struct BuiltStructure {
  Network net;
  Simulator sim;
  AggregationStructure s;

  BuiltStructure(int n, double side, int channels, std::uint64_t seed, Tuning tuning = {},
                 StructureOptions opts = {})
      : net(makeUniformNetwork(n, side, seed, tuning)), sim(net, channels, seed ^ 0xabcdef), s() {
    s = buildStructure(sim, opts);
  }
};

/// Ground truth: number of dominatees per dominator id.
inline std::vector<int> trueClusterSizes(const Network& net, const Clustering& cl) {
  std::vector<int> size(static_cast<std::size_t>(net.size()), 0);
  for (NodeId v = 0; v < net.size(); ++v) {
    const NodeId d = cl.dominatorOf[static_cast<std::size_t>(v)];
    if (d != kNoNode && d != v) ++size[static_cast<std::size_t>(d)];
  }
  return size;
}

/// Number of dominator pairs within distance r (independence violations).
inline int independenceViolations(const Network& net, const Clustering& cl, double r) {
  int violations = 0;
  for (std::size_t i = 0; i < cl.dominators.size(); ++i) {
    for (std::size_t j = i + 1; j < cl.dominators.size(); ++j) {
      if (net.distance(cl.dominators[i], cl.dominators[j]) <= r) ++violations;
    }
  }
  return violations;
}

/// Number of same-color dominator pairs within R_{eps/2}.
inline int colorSeparationViolations(const Network& net, const Clustering& cl) {
  int violations = 0;
  for (std::size_t i = 0; i < cl.dominators.size(); ++i) {
    for (std::size_t j = i + 1; j < cl.dominators.size(); ++j) {
      const NodeId a = cl.dominators[i];
      const NodeId b = cl.dominators[j];
      if (cl.colorOfCluster[static_cast<std::size_t>(a)] ==
              cl.colorOfCluster[static_cast<std::size_t>(b)] &&
          net.distance(a, b) <= net.rEpsHalf()) {
        ++violations;
      }
    }
  }
  return violations;
}

/// Reporter census per (cluster, channel < fv): returns {channels with
/// exactly one reporter, channels with members but wrong reporter count}.
inline std::pair<int, int> reporterCensus(const Network& net, const AggregationStructure& s) {
  int good = 0;
  int bad = 0;
  for (const NodeId d : s.clustering.dominators) {
    const int fv = s.fvOfNode[static_cast<std::size_t>(d)];
    std::vector<int> reporters(static_cast<std::size_t>(fv), 0);
    std::vector<int> members(static_cast<std::size_t>(fv), 0);
    for (NodeId v = 0; v < net.size(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (s.clustering.dominatorOf[vi] != d || v == d) continue;
      if (s.reporterChannel[vi] < fv) {
        ++members[static_cast<std::size_t>(s.reporterChannel[vi])];
        if (s.isReporter[vi]) ++reporters[static_cast<std::size_t>(s.reporterChannel[vi])];
      }
    }
    for (int c = 0; c < fv; ++c) {
      if (members[static_cast<std::size_t>(c)] == 0) continue;  // empty channel: vacuous
      if (reporters[static_cast<std::size_t>(c)] == 1) {
        ++good;
      } else {
        ++bad;
      }
    }
  }
  return {good, bad};
}

}  // namespace mcs::test
