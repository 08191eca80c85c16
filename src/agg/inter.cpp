#include "agg/inter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sim/comm_graph.h"

namespace mcs {
namespace {

/// All dominators hold the combine of every dominator's `cur`?
bool allReached(const Clustering& cl, const std::vector<double>& cur, double target) {
  for (const NodeId d : cl.dominators) {
    if (cur[static_cast<std::size_t>(d)] != target) return false;
  }
  return true;
}

}  // namespace

int backboneDiameter(const Network& net, const Clustering& cl) {
  std::vector<Vec2> pts;
  pts.reserve(cl.dominators.size());
  for (const NodeId d : cl.dominators) pts.push_back(net.position(d));
  const CommGraph bb(pts, net.rEpsHalf());
  return bb.diameterExact();
}

InterResult gossipAggregate(Simulator& sim, const Clustering& cl, const TdmaSchedule& tdma,
                            const std::vector<double>& initial, AggKind kind) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();

  InterResult out;
  out.valueAtDominator.assign(static_cast<std::size_t>(n), aggIdentity(kind));
  double target = aggIdentity(kind);
  for (const NodeId d : cl.dominators) {
    out.valueAtDominator[static_cast<std::size_t>(d)] = initial[static_cast<std::size_t>(d)];
    target = aggCombine(kind, target, initial[static_cast<std::size_t>(d)]);
  }
  if (cl.dominators.size() <= 1) return out;

  const int dbb = backboneDiameter(net, cl);
  const long cap = static_cast<long>(
      tun.interSlack * static_cast<double>(tdma.period) *
      static_cast<double>(dbb + tun.lnRounds(tun.gammaInter, n)) * (1.0 / tun.interTxProb));

  std::vector<double>& cur = out.valueAtDominator;
  long round = 0;
  while (!allReached(cl, cur, target) && round < cap) {
    sim.step(
        cl.dominators,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (tdma.active(v, round) && sim.rng(v).bernoulli(tun.interTxProb)) {
            Message m;
            m.type = MsgType::Beacon;
            m.src = v;
            m.x = cur[vi];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          if (!r.received || r.msg.type != MsgType::Beacon) return;
          const auto vi = static_cast<std::size_t>(v);
          cur[vi] = aggCombine(kind, cur[vi], r.msg.x);
        });
    ++round;
    ++out.slots;
  }
  out.converged = allReached(cl, cur, target);
  return out;
}

InterResult treeAggregate(Simulator& sim, const Clustering& cl, const TdmaSchedule& tdma,
                          const std::vector<double>& initial, AggKind kind) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const SinrBounds& kb = net.bounds();
  const int n = net.size();

  InterResult out;
  out.valueAtDominator.assign(static_cast<std::size_t>(n), aggIdentity(kind));
  if (cl.dominators.empty()) return out;
  if (cl.dominators.size() == 1) {
    const NodeId d = cl.dominators.front();
    out.valueAtDominator[static_cast<std::size_t>(d)] = initial[static_cast<std::size_t>(d)];
    return out;
  }

  const int dbb = backboneDiameter(net, cl);
  const NodeId root = cl.dominators.front();

  std::vector<int> level(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  level[static_cast<std::size_t>(root)] = 0;

  // ---- Stage 1: beacon flood builds the BFS tree -------------------------
  const long floodCap = static_cast<long>(
      tun.interSlack * static_cast<double>(tdma.period) *
      static_cast<double>(dbb + tun.lnRounds(tun.gammaInter, n)) * (1.0 / tun.interTxProb));
  const auto allLeveled = [&]() {
    for (const NodeId d : cl.dominators) {
      if (level[static_cast<std::size_t>(d)] < 0) return false;
    }
    return true;
  };
  long round = 0;
  while (!allLeveled() && round < floodCap) {
    sim.step(
        cl.dominators,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (level[vi] >= 0 && tdma.active(v, round) &&
              sim.rng(v).bernoulli(tun.interTxProb)) {
            Message m;
            m.type = MsgType::Beacon;
            m.src = v;
            m.a = level[vi];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::Beacon || level[vi] >= 0) return;
          // Only adopt backbone-length edges (<= R_{eps/2}).
          if (kb.distanceUpper(r.signalPower) <= net.rEpsHalf()) {
            level[vi] = static_cast<int>(r.msg.a) + 1;
            parent[vi] = r.msg.src;
          }
        });
    ++round;
    ++out.slots;
  }
  if (!allLeveled()) {
    out.converged = false;
    return out;
  }

  // ---- Stage 2: level-windowed convergecast ------------------------------
  int maxLevel = 0;
  for (const NodeId d : cl.dominators) {
    maxLevel = std::max(maxLevel, level[static_cast<std::size_t>(d)]);
  }
  // Latest value per child (replace semantics: exact for Sum under
  // retransmissions).
  std::vector<std::unordered_map<NodeId, double>> childVal(static_cast<std::size_t>(n));
  const auto subtotal = [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    double acc = initial[vi];
    for (const auto& [child, x] : childVal[vi]) acc = aggCombine(kind, acc, x);
    return acc;
  };

  for (int lv = maxLevel; lv >= 1; --lv) {
    // Floor of 24 active rounds: at tiny n the log-window would leave a
    // node a ~20% chance of never transmitting within its level.
    const long activeRounds = std::max<long>(
        24, static_cast<long>(tun.interLevelWindow * tun.lnFactor *
                              std::log(std::max(2.0, static_cast<double>(n))) /
                              tun.interTxProb));
    const long window = activeRounds * tdma.period + tdma.period;
    for (long w = 0; w < window; ++w, ++round) {
      sim.step(
          cl.dominators,
          [&](NodeId v) -> Intent {
            const auto vi = static_cast<std::size_t>(v);
            if (level[vi] == lv && tdma.active(v, round) &&
                sim.rng(v).bernoulli(tun.interTxProb)) {
              Message m;
              m.type = MsgType::InterUp;
              m.src = v;
              m.dst = parent[vi];
              m.x = subtotal(v);
              return Intent::transmit(0, m);
            }
            return Intent::listen(0);
          },
          [&](NodeId v, const Reception& r) {
            if (!r.received || r.msg.type != MsgType::InterUp || r.msg.dst != v) return;
            childVal[static_cast<std::size_t>(v)][r.msg.src] = r.msg.x;
          });
      ++out.slots;
    }
  }

  const double total = subtotal(root);

  // ---- Stage 3: flooded downcast of the result ----------------------------
  std::vector<double>& have = out.valueAtDominator;
  std::vector<char> gotResult(static_cast<std::size_t>(n), 0);
  gotResult[static_cast<std::size_t>(root)] = 1;
  have[static_cast<std::size_t>(root)] = total;
  const auto allHave = [&]() {
    for (const NodeId d : cl.dominators) {
      if (!gotResult[static_cast<std::size_t>(d)]) return false;
    }
    return true;
  };
  long downRound = 0;
  while (!allHave() && downRound < floodCap) {
    sim.step(
        cl.dominators,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (gotResult[vi] && tdma.active(v, downRound) &&
              sim.rng(v).bernoulli(tun.interTxProb)) {
            Message m;
            m.type = MsgType::InterDown;
            m.src = v;
            m.x = have[vi];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::InterDown || gotResult[vi]) return;
          have[vi] = r.msg.x;
          gotResult[vi] = 1;
        });
    ++downRound;
    ++out.slots;
  }
  out.converged = allHave();

  // The convergecast is only exact if every dominator's subtotal reached
  // its parent; validate against the ground truth.
  if (out.converged) {
    double expect = aggIdentity(kind);
    for (const NodeId d : cl.dominators) {
      expect = aggCombine(kind, expect, initial[static_cast<std::size_t>(d)]);
    }
    // Tolerant: the convergecast accumulates in tree order, which rounds
    // differently from this sequential reference.
    if (std::abs(total - expect) > 1e-9 * std::max(1.0, std::abs(expect))) {
      out.converged = false;
    }
  }
  return out;
}

std::uint64_t broadcastToClusters(Simulator& sim, const Clustering& cl, const TdmaSchedule& tdma,
                                  std::vector<double>& values, int repeats) {
  std::uint64_t slots = 0;
  for (long round = 0; round < static_cast<long>(repeats) * tdma.period; ++round) {
    sim.step(
        tdma.members(round),
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          // 0.85: a rare same-color neighbor pair (coloring failure) would
          // otherwise collide identically in every repeat.
          if (cl.isDominator[vi] && sim.rng(v).bernoulli(0.85)) {
            Message m;
            m.type = MsgType::InterDown;
            m.src = v;
            m.x = values[vi];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          if (r.received && r.msg.type == MsgType::InterDown &&
              r.msg.src == cl.dominatorOf[static_cast<std::size_t>(v)]) {
            values[static_cast<std::size_t>(v)] = r.msg.x;
          }
        });
    ++slots;
  }
  return slots;
}

}  // namespace mcs
