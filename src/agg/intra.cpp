#include "agg/intra.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "proto/heap_tree.h"

namespace mcs {

double aggIdentity(AggKind kind) noexcept {
  switch (kind) {
    case AggKind::Max: return -std::numeric_limits<double>::infinity();
    case AggKind::Min: return std::numeric_limits<double>::infinity();
    case AggKind::Sum: return 0.0;
  }
  return 0.0;
}

double aggCombine(AggKind kind, double a, double b) noexcept {
  switch (kind) {
    case AggKind::Max: return a > b ? a : b;
    case AggKind::Min: return a < b ? a : b;
    case AggKind::Sum: return a + b;
  }
  return a;
}

UplinkMetrics runFollowerUplink(Simulator& sim, const AggregationStructure& s,
                                const std::function<Message(NodeId)>& makeMsg,
                                const std::function<void(NodeId, const Message&)>& onDeliver,
                                std::vector<ChannelId>* reporterChannelOfFollower) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();
  const Clustering& cl = s.clustering;
  const TdmaSchedule& tdma = s.tdma;

  const int gamma2 = tun.lnRounds(tun.aggGamma2, n, 4);  // Gamma: data rounds per phase
  const int phaseLen = gamma2 + 1;                       // + notify round
  const int omega2 = std::max(2, tun.lnRounds(tun.aggOmega2, n));

  UplinkMetrics met;

  std::vector<char> isFollower(static_cast<std::size_t>(n), 0);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<double> prob(static_cast<std::size_t>(n), 0.0);
  int undone = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s.isFollower(v)) {
      isFollower[vi] = 1;
      // p_u = lambda f_v / |C_v| (§6(i)), from the node's own CSA view.
      prob[vi] = std::min(0.5, tun.aggLambda * static_cast<double>(s.fvOfNode[vi]) /
                                   std::max(1.0, s.sizeEstimate[vi]));
      ++undone;
    }
  }

  // Per-round scratch.
  // deliveredTo[f]: the unique reporter that owns follower f's message.
  // Only that reporter acks f, so retransmissions after a lost ack cannot
  // migrate f to another reporter (lists and ack channels stay coherent).
  std::vector<NodeId> deliveredTo(static_cast<std::size_t>(n), kNoNode);
  std::vector<int> activeRounds(static_cast<std::size_t>(n), 0);
  std::vector<int> domCount(static_cast<std::size_t>(n), 0);  // dominator phase counter
  std::vector<ChannelId> sentOn(static_cast<std::size_t>(n), kNoChannel);
  std::vector<NodeId> pendingAck(static_cast<std::size_t>(n), kNoNode);
  std::vector<char> gotBackoff(static_cast<std::size_t>(n), 0);

  // Ground-truth contention metric (Lemma 19), recomputed at phase ends.
  const auto recordContention = [&]() {
    std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (isFollower[vi] && !done[vi]) {
        sum[static_cast<std::size_t>(cl.dominatorOf[vi])] += prob[vi];
      }
    }
    for (const NodeId d : cl.dominators) {
      const double ratio =
          sum[static_cast<std::size_t>(d)] /
          static_cast<double>(std::max(1, s.fvOfNode[static_cast<std::size_t>(d)]));
      met.maxContentionRatio = std::max(met.maxContentionRatio, ratio);
    }
  };
  recordContention();

  const long maxRounds =
      static_cast<long>(tun.aggMaxPhases) * phaseLen * std::max(1, tdma.period);
  long round = 0;
  while (undone > 0 && round < maxRounds) {
    // ---- Slot 1: data (or, on notify rounds, the backoff broadcast) ------
    // Only this round's members act, so only their scratch needs clearing.
    const std::span<const NodeId> members = tdma.members(round);
    for (const NodeId v : members) {
      sentOn[static_cast<std::size_t>(v)] = kNoChannel;
      pendingAck[static_cast<std::size_t>(v)] = kNoNode;
    }
    sim.step(
        members,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          const int pos = activeRounds[vi] % phaseLen;
          if (pos == gamma2) {  // notify round
            if (cl.isDominator[vi]) {
              const bool backoff = domCount[vi] >= omega2;
              domCount[vi] = 0;
              if (backoff) {
                ++met.unchangingPhases;
                Message m;
                m.type = MsgType::Backoff;
                m.src = v;
                return Intent::transmit(0, m);
              }
              ++met.increasingPhases;
              return Intent::idle();
            }
            if (isFollower[vi]) return Intent::listen(0);
            return Intent::idle();
          }
          // Data round.
          if (isFollower[vi] && !done[vi]) {
            const int fv = std::max(1, s.fvOfNode[vi]);
            if (sim.rng(v).bernoulli(prob[vi])) {
              const auto c =
                  static_cast<ChannelId>(sim.rng(v).below(static_cast<std::uint64_t>(fv)));
              sentOn[vi] = c;
              Message m = makeMsg(v);
              m.type = MsgType::Data;
              m.src = v;
              m.a = cl.dominatorOf[vi];
              return Intent::transmit(c, m);
            }
            return Intent::idle();
          }
          if (s.isReporter[vi]) return Intent::listen(s.reporterChannel[vi]);
          if (cl.isDominator[vi]) return Intent::listen(0);
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received) return;
          const int pos = activeRounds[vi] % phaseLen;
          if (pos == gamma2) {
            if (r.msg.type == MsgType::Backoff && isFollower[vi] &&
                r.msg.src == cl.dominatorOf[vi]) {
              gotBackoff[vi] = 1;
            }
            return;
          }
          if (r.msg.type != MsgType::Data) return;
          if (s.isReporter[vi] && r.msg.a == cl.dominatorOf[vi]) {
            // Exactly-once delivery: retransmissions after a lost ack are
            // re-acked by the owning reporter only (Lemma 9 treats
            // in-cluster acks as reliable; see DESIGN.md).
            const auto src = static_cast<std::size_t>(r.msg.src);
            if (deliveredTo[src] == kNoNode) {
              deliveredTo[src] = v;
              onDeliver(v, r.msg);
            }
            if (deliveredTo[src] == v) pendingAck[vi] = r.msg.src;
          } else if (cl.isDominator[vi] && r.msg.a == v) {
            ++domCount[vi];
          }
        });
    ++met.slots;

    // ---- Slot 2: acks (idle on notify rounds) -----------------------------
    sim.step(
        members,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (activeRounds[vi] % phaseLen == gamma2) return Intent::idle();
          // 0.85: if a faulty election left duplicate reporters on one
          // channel, deterministic simultaneous acks would collide forever.
          if (pendingAck[vi] != kNoNode && sim.rng(v).bernoulli(0.85)) {
            Message m;
            m.type = MsgType::DataAck;
            m.src = v;
            m.dst = pendingAck[vi];
            m.a = s.reporterChannel[vi];  // tells the follower its reporter's channel
            return Intent::transmit(s.reporterChannel[vi], m);
          }
          if (sentOn[vi] != kNoChannel) return Intent::listen(sentOn[vi]);
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::DataAck || r.msg.dst != v) return;
          if (!done[vi]) {
            done[vi] = 1;
            --undone;
            if (reporterChannelOfFollower != nullptr) {
              (*reporterChannelOfFollower)[vi] = static_cast<ChannelId>(r.msg.a);
            }
          }
        });
    ++met.slots;

    // ---- Phase bookkeeping ------------------------------------------------
    bool phaseBoundary = false;
    for (const NodeId v : members) {
      const auto vi = static_cast<std::size_t>(v);
      if (activeRounds[vi] % phaseLen == gamma2 && isFollower[vi]) {
        if (gotBackoff[vi]) {
          gotBackoff[vi] = 0;
        } else {
          prob[vi] = std::min(0.5, prob[vi] * 2.0);
        }
        phaseBoundary = true;
      }
      ++activeRounds[vi];
    }
    if (phaseBoundary) recordContention();
    ++round;
  }

  int maxPhases = 0;
  for (const NodeId d : cl.dominators) {
    maxPhases = std::max(maxPhases, activeRounds[static_cast<std::size_t>(d)] / phaseLen);
  }
  met.maxPhasesAnyCluster = maxPhases;
  met.allDelivered = undone == 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (isFollower[vi] && !done[vi]) met.undelivered.push_back(v);
  }
  return met;
}

IntraResult aggregateIntra(Simulator& sim, const AggregationStructure& s,
                           std::span<const double> values, AggKind kind) {
  const Network& net = sim.network();
  const int n = net.size();
  const Clustering& cl = s.clustering;
  const TdmaSchedule& tdma = s.tdma;
  assert(static_cast<int>(values.size()) == n);

  IntraResult out;
  out.clusterValue.assign(static_cast<std::size_t>(n), aggIdentity(kind));

  // base[v]: the node's own value combined with its delivered followers.
  std::vector<double> base(static_cast<std::size_t>(n), aggIdentity(kind));
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s.isReporter[vi] || cl.isDominator[vi]) base[vi] = values[vi];
  }

  out.uplink = runFollowerUplink(
      sim, s,
      [&](NodeId v) {
        Message m;
        m.x = values[static_cast<std::size_t>(v)];
        return m;
      },
      [&](NodeId reporter, const Message& m) {
        const auto ri = static_cast<std::size_t>(reporter);
        base[ri] = aggCombine(kind, base[ri], m.x);
      });

  // ---- Reporter-tree convergecast (Lemma 16) -----------------------------
  // Deterministic heap schedule; two passes make rare cross-cluster decode
  // failures harmless.  Parents keep the latest value per child slot, so a
  // retransmission *replaces* the child's contribution (exact for Sum).
  const int F = sim.numChannels();
  const int maxLevel = heapMaxLevel(F);
  std::vector<std::vector<double>> childVal(static_cast<std::size_t>(n));
  std::vector<std::vector<char>> childSeen(static_cast<std::size_t>(n));
  const auto heapOf = [&](NodeId v) -> int {
    const auto vi = static_cast<std::size_t>(v);
    if (cl.isDominator[vi]) return 0;
    if (s.isReporter[vi]) return static_cast<int>(s.reporterChannel[vi]) + 1;
    return -1;
  };
  std::vector<NodeId> roleOwners;  // ascending; only they act in the tree
  for (NodeId v = 0; v < n; ++v) {
    if (heapOf(v) >= 0) {
      childVal[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(F) + 2, 0.0);
      childSeen[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(F) + 2, 0);
      roleOwners.push_back(v);
    }
  }
  const ColorClasses roleClasses = tdma.restrictedTo(roleOwners);
  const auto valueOf = [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    double acc = base[vi];
    for (std::size_t k = 0; k < childVal[vi].size(); ++k) {
      if (childSeen[vi][k]) acc = aggCombine(kind, acc, childVal[vi][k]);
    }
    return acc;
  };

  std::vector<NodeId> ackTo(static_cast<std::size_t>(n), kNoNode);
  std::vector<char> delivered(static_cast<std::size_t>(n), 0);
  const int passes = 3;
  long round = 0;
  for (int pass = 0; pass < passes; ++pass) {
    std::fill(delivered.begin(), delivered.end(), 0);
    for (int level = maxLevel; level >= 0; --level) {
      for (long cycle = 0; cycle < tdma.period; ++cycle, ++round) {
        const std::span<const NodeId> members = roleClasses.members(round);
        for (const int parity : {0, 1}) {
          for (const NodeId v : members) ackTo[static_cast<std::size_t>(v)] = kNoNode;
          sim.step(
              members,
              [&](NodeId v) -> Intent {
                const auto vi = static_cast<std::size_t>(v);
                const int k = heapOf(v);
                // 0.9: a same-color cluster's tree would otherwise collide
                // deterministically in every pass.  Parents replace child
                // values, so retransmissions stay exact for Sum.
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi] &&
                    sim.rng(v).bernoulli(0.9)) {
                  Message m;
                  m.type = MsgType::TreeUp;
                  m.src = v;
                  m.a = k;
                  m.b = cl.dominatorOf[vi];
                  m.x = valueOf(v);
                  return Intent::transmit(heapUplinkChannel(k), m);
                }
                // Parents of this level's children listen on their channel.
                if (heapLevel(std::max(1, k * 2)) == level) {
                  return Intent::listen(heapChannel(k));
                }
                return Intent::idle();
              },
              [&](NodeId v, const Reception& r) {
                const auto vi = static_cast<std::size_t>(v);
                if (!r.received || r.msg.type != MsgType::TreeUp) return;
                if (r.msg.b != cl.dominatorOf[vi]) return;  // other cluster
                const int childK = static_cast<int>(r.msg.a);
                if (heapParent(childK) != heapOf(v)) return;
                childVal[vi][static_cast<std::size_t>(childK)] = r.msg.x;
                childSeen[vi][static_cast<std::size_t>(childK)] = 1;
                ackTo[vi] = r.msg.src;
              });
          ++out.treeSlots;

          sim.step(
              members,
              [&](NodeId v) -> Intent {
                const auto vi = static_cast<std::size_t>(v);
                const int k = heapOf(v);
                if (ackTo[vi] != kNoNode) {
                  Message m;
                  m.type = MsgType::TreeUpAck;
                  m.src = v;
                  m.dst = ackTo[vi];
                  return Intent::transmit(heapChannel(k), m);
                }
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi]) {
                  return Intent::listen(heapUplinkChannel(k));
                }
                return Intent::idle();
              },
              [&](NodeId v, const Reception& r) {
                const auto vi = static_cast<std::size_t>(v);
                if (r.received && r.msg.type == MsgType::TreeUpAck && r.msg.dst == v) {
                  delivered[vi] = 1;
                }
              });
          ++out.treeSlots;
        }
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (s.isReporter[vi] && !delivered[vi]) out.treeComplete = false;
  }

  // Fallback for idempotent aggregates: a reporter whose heap parent is
  // missing (its channel elected nobody — probability e^{-c1 ln n} per
  // channel, negligible at the paper's c1 but possible at practical
  // tunings) delivers its subtotal directly to the dominator on channel 0.
  // Safe for Max/Min because double-merging is harmless; Sum relies on c1
  // keeping channels nonempty (see DESIGN.md).
  if (!out.treeComplete && kind != AggKind::Sum) {
    const int rounds = net.tuning().lnRounds(2.0, n, 8) * std::max(1, tdma.period);
    for (int t = 0; t < rounds; ++t, ++round) {
      sim.step(
          tdma.members(round),
          [&](NodeId v) -> Intent {
            const auto vi = static_cast<std::size_t>(v);
            if (s.isReporter[vi] && !delivered[vi] && sim.rng(v).bernoulli(0.4)) {
              Message m;
              m.type = MsgType::TreeUp;
              m.src = v;
              m.a = 0;  // direct delivery
              m.b = cl.dominatorOf[vi];
              m.x = valueOf(v);
              return Intent::transmit(0, m);
            }
            if (cl.isDominator[vi]) return Intent::listen(0);
            return Intent::idle();
          },
          [&](NodeId v, const Reception& r) {
            const auto vi = static_cast<std::size_t>(v);
            if (!r.received || r.msg.type != MsgType::TreeUp || !cl.isDominator[vi]) return;
            if (r.msg.b != v) return;
            base[vi] = aggCombine(kind, base[vi], r.msg.x);
          });
      ++out.treeSlots;
    }
  }

  for (const NodeId d : cl.dominators) {
    out.clusterValue[static_cast<std::size_t>(d)] = valueOf(d);
  }
  return out;
}

}  // namespace mcs
