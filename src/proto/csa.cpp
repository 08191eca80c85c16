#include "proto/csa.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "proto/heap_tree.h"
#include "proto/ruling_set.h"

namespace mcs {
namespace {

/// Final dissemination: dominators broadcast their estimate on channel 0
/// under the TDMA; every dominatee adopts its dominator's value.
std::uint64_t broadcastEstimates(Simulator& sim, const Clustering& cl, const TdmaSchedule& tdma,
                                 std::vector<double>& est, int repeats) {
  std::uint64_t slots = 0;
  for (long round = 0; round < static_cast<long>(repeats) * tdma.period; ++round) {
    sim.step(
        tdma.members(round),
        [&](NodeId v) -> Intent {
          if (cl.isDominator[static_cast<std::size_t>(v)] && sim.rng(v).bernoulli(0.85)) {
            Message m;
            m.type = MsgType::CsaEstimate;
            m.src = v;
            m.x = est[static_cast<std::size_t>(v)];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          if (r.received && r.msg.type == MsgType::CsaEstimate &&
              r.msg.src == cl.dominatorOf[static_cast<std::size_t>(v)]) {
            est[static_cast<std::size_t>(v)] = r.msg.x;
          }
        });
    ++slots;
  }
  return slots;
}

struct PhaseLoopOut {
  std::vector<double> est;  // per node: sink's estimate / member's received copy
  std::uint64_t slots = 0;
  int phasesMax = 0;
  bool allTerminated = true;
};

/// The doubling-probability estimation loop shared by both CSA variants
/// (§5.2.1.1).  Each participant probes its sink with probability
/// lambda 2^j / deltaHatLocal in phase j; a sink that hears >= Omega_1
/// messages within a phase terminates its group and announces the
/// inverted estimate.
PhaseLoopOut csaPhaseLoop(Simulator& sim, const TdmaSchedule& tdma,
                          const std::vector<NodeId>& sinkOf, const std::vector<ChannelId>& chanOf,
                          const std::vector<char>& isSink, int deltaHatLocal) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();

  const int gamma1 = tun.lnRounds(tun.csaGamma1, n, 4);
  const int phaseLen = gamma1 + 1;
  const int omega1 = std::max(2, tun.lnRounds(tun.csaOmega1, n));
  const double lambda = tun.csaLambda;
  const int maxPhases =
      static_cast<int>(std::ceil(std::log2(std::max(2.0, static_cast<double>(deltaHatLocal))))) +
      2;

  const auto probOfPhase = [&](int j) {
    return std::min(lambda, lambda * std::pow(2.0, j) / static_cast<double>(deltaHatLocal));
  };
  // Inverting the threshold crossing: ~ |group| * p_j * kappa * gamma1
  // messages arrive in the terminating phase (Lemma 11).
  const auto estimateAtPhase = [&](int j) {
    return static_cast<double>(omega1) /
           (probOfPhase(j) * tun.csaKappaHat * static_cast<double>(gamma1));
  };

  PhaseLoopOut out;
  out.est.assign(static_cast<std::size_t>(n), 0.0);

  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<int> activeRounds(static_cast<std::size_t>(n), 0);
  std::vector<int> phaseCount(static_cast<std::size_t>(n), 0);

  int undone = 0;
  std::vector<NodeId> group;  // sinks and participants, ascending
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (isSink[vi] || sinkOf[vi] != kNoNode) {
      ++undone;
      group.push_back(v);
    } else {
      done[vi] = 1;  // bystander
    }
  }
  const ColorClasses groupClasses = tdma.restrictedTo(group);

  const long hardCap =
      static_cast<long>(maxPhases + 1) * phaseLen * std::max(1, tdma.period) + 16;
  long round = 0;
  while (undone > 0 && round < hardCap) {
    const std::span<const NodeId> members = groupClasses.members(round);
    sim.step(
        members,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          const int pos = activeRounds[vi] % phaseLen;
          const int j = activeRounds[vi] / phaseLen;
          if (isSink[vi]) {
            if (pos < gamma1) {
              return done[vi] ? Intent::idle() : Intent::listen(chanOf[vi]);
            }
            // Notify round: announce termination (first time or repeat so
            // stragglers catch up).
            if (!done[vi] && phaseCount[vi] >= omega1) {
              out.est[vi] = estimateAtPhase(j);
              done[vi] = 1;
              --undone;
            } else if (!done[vi] && j + 1 >= maxPhases) {
              // Exhausted the schedule: the group is (near-)empty.
              out.est[vi] = 0.0;
              done[vi] = 1;
              out.allTerminated = false;
              --undone;
            } else if (!done[vi]) {
              phaseCount[vi] = 0;  // per-phase counting
            }
            if (done[vi]) {
              Message m;
              m.type = MsgType::CsaTerminate;
              m.src = v;
              m.x = out.est[vi];
              return Intent::transmit(chanOf[vi], m);
            }
            return Intent::idle();
          }
          // Participant (probing member).
          if (pos < gamma1) {
            if (!done[vi] && sim.rng(v).bernoulli(probOfPhase(j))) {
              Message m;
              m.type = MsgType::CsaProbe;
              m.src = v;
              m.dst = sinkOf[vi];
              return Intent::transmit(chanOf[vi], m);
            }
            return Intent::idle();
          }
          // Notify round: listen for termination (even when already done;
          // harmless and keeps estimates fresh).
          if (!done[vi] || activeRounds[vi] / phaseLen < maxPhases) {
            return Intent::listen(chanOf[vi]);
          }
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received) return;
          if (isSink[vi]) {
            if (r.msg.type == MsgType::CsaProbe && r.msg.dst == v && !done[vi]) {
              ++phaseCount[vi];
            }
            return;
          }
          if (r.msg.type == MsgType::CsaTerminate && r.msg.src == sinkOf[vi]) {
            out.est[vi] = r.msg.x;
            if (!done[vi]) {
              done[vi] = 1;
              --undone;
            }
          }
        });
    // Advance per-node phase clocks, and estimate bookkeeping.
    int newPhasesMax = out.phasesMax;
    for (const NodeId v : members) {
      const auto vi = static_cast<std::size_t>(v);
      ++activeRounds[vi];
      newPhasesMax = std::max(newPhasesMax, activeRounds[vi] / phaseLen);
    }
    out.phasesMax = newPhasesMax;
    ++round;
    ++out.slots;
  }
  if (undone > 0) out.allTerminated = false;
  return out;
}

}  // namespace

CsaResult runCsaLarge(Simulator& sim, const Clustering& cl, int deltaHat) {
  const int n = sim.network().size();
  if (deltaHat <= 0) deltaHat = std::max(2, n);
  const TdmaSchedule tdma = TdmaSchedule::from(cl);

  // Dominatees probe their dominator on channel 0.
  std::vector<NodeId> sinkOf(static_cast<std::size_t>(n), kNoNode);
  std::vector<ChannelId> chanOf(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!cl.isDominator[vi]) sinkOf[vi] = cl.dominatorOf[vi];
  }
  PhaseLoopOut loop = csaPhaseLoop(sim, tdma, sinkOf, chanOf, cl.isDominator, deltaHat);

  CsaResult out;
  out.estimateOfNode = std::move(loop.est);
  out.slotsUsed = loop.slots;
  out.phasesMax = loop.phasesMax;
  out.allTerminated = loop.allTerminated;
  out.slotsUsed += broadcastEstimates(sim, cl, tdma, out.estimateOfNode, 3);
  return out;
}

CsaResult runCsaSmall(Simulator& sim, const Clustering& cl, int deltaHat) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();
  const int F = sim.numChannels();
  if (deltaHat <= 0) deltaHat = std::max(2, n);
  const TdmaSchedule tdma = TdmaSchedule::from(cl);

  CsaResult out;
  out.estimateOfNode.assign(static_cast<std::size_t>(n), 0.0);

  // ---- Procedure 1: random channels + per-channel leader election -------
  std::vector<ChannelId> chOf(static_cast<std::size_t>(n), 0);
  std::vector<char> dominatees(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!cl.isDominator[vi] && cl.dominatorOf[vi] != kNoNode) {
      dominatees[vi] = 1;
      chOf[vi] = static_cast<ChannelId>(sim.rng(v).below(static_cast<std::uint64_t>(F)));
    }
  }

  RulingSetConfig rcfg;
  rcfg.radius = std::min(4.0 * net.rc(), 0.8 * net.rT());  // cluster spread can reach 4 r_c
  rcfg.capProb = 0.25;
  const double expectedPerChannel =
      std::max(2.0, static_cast<double>(deltaHat) / static_cast<double>(F));
  rcfg.initialProb = std::min(rcfg.capProb, 0.5 / expectedPerChannel);
  rcfg.epochRounds = tun.domEpochRounds;
  const int doublings =
      rcfg.initialProb >= rcfg.capProb
          ? 0
          : static_cast<int>(std::ceil(std::log2(rcfg.capProb / rcfg.initialProb)));
  rcfg.totalRounds = doublings * tun.domEpochRounds + tun.lnRounds(tun.gammaRuling, n);
  rcfg.channelOf = chOf;
  rcfg.groupOf = cl.dominatorOf;  // per-(cluster, channel) elections
  rcfg.tdma = tdma;
  RulingSetResult rs = runRulingSet(sim, dominatees, rcfg);
  out.slotsUsed += rs.slotsUsed;

  std::vector<NodeId> leaderOf(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!dominatees[vi]) continue;
    if (rs.inSet[vi]) continue;  // leaders are the sinks
    NodeId l = rs.dominator[vi];
    // Follow demotion forwarding so the binding targets a live leader.
    int hops = 0;
    while (l != kNoNode && !rs.inSet[static_cast<std::size_t>(l)] && hops < 4) {
      l = rs.dominator[static_cast<std::size_t>(l)];
      ++hops;
    }
    leaderOf[vi] = (l != kNoNode && rs.inSet[static_cast<std::size_t>(l)]) ? l : kNoNode;
  }

  // ---- Procedure 2: per-channel CSA with the leader as sink -------------
  const int deltaHatChannel =
      std::max(4, static_cast<int>(std::ceil(4.0 * deltaHat / static_cast<double>(F))));
  PhaseLoopOut loop = csaPhaseLoop(sim, tdma, leaderOf, chOf, rs.inSet, deltaHatChannel);
  out.slotsUsed += loop.slots;
  out.phasesMax = loop.phasesMax;
  out.allTerminated = loop.allTerminated;

  // ---- Procedure 3: aggregate per-channel counts over the binary tree ----
  // Roles: heap index k >= 1 is the leader of channel k-1 (value: channel
  // members + 1 for the leader itself); k = 0 is the dominator.  Empty
  // channels have no owner; the ack-fallback lets a child adopt its
  // missing parent (Appendix A's auxiliary nodes).
  std::vector<std::vector<std::pair<int, double>>> roles(static_cast<std::size_t>(n));
  std::vector<NodeId> roleOwners;  // ascending; only they ever act in the tree
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (dominatees[vi] && rs.inSet[vi]) {
      roles[vi].push_back({static_cast<int>(chOf[vi]) + 1, loop.est[vi] + 1.0});
    } else if (cl.isDominator[vi]) {
      roles[vi].push_back({0, 0.0});
    }
    if (!roles[vi].empty()) roleOwners.push_back(v);
  }
  const ColorClasses roleClasses = tdma.restrictedTo(roleOwners);
  const auto roleIndex = [&](NodeId v, int k) -> int {
    const auto& rv = roles[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < rv.size(); ++i) {
      if (rv[i].first == k) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<char> delivered(static_cast<std::size_t>(n), 0);  // per level pass
  std::vector<int> pendingAck(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> pendingAckNode(static_cast<std::size_t>(n), kNoNode);
  // First-wins dedupe per (parent node, child heap index): a retried
  // child transmission after a lost ack must not be double-counted.
  std::vector<std::vector<char>> childSeen(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (!roles[static_cast<std::size_t>(v)].empty()) {
      childSeen[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(F) + 2, 0);
    }
  }

  const int maxLevel = heapMaxLevel(F);
  long round = 0;
  for (int level = maxLevel; level >= 0; --level) {
    // Local merges: a node owning both k and its parent skips the radio.
    for (NodeId v = 0; v < n; ++v) {
      auto& rv = roles[static_cast<std::size_t>(v)];
      for (std::size_t i = 0; i < rv.size(); ++i) {
        const int k = rv[i].first;
        if (k >= 1 && heapLevel(k) == level) {
          const int pi = roleIndex(v, heapParent(k));
          if (pi >= 0) {
            rv[static_cast<std::size_t>(pi)].second += rv[i].second;
            rv[i].first = -1;  // retired
          }
        }
      }
    }
    std::fill(delivered.begin(), delivered.end(), 0);
    // Two attempts per level: the second retries transmissions lost to
    // cross-cluster interference; adoption of a missing parent only
    // happens once the second attempt also went unacknowledged.
    for (int attempt = 0; attempt < 2; ++attempt) {
    for (long cycle = 0; cycle < tdma.period; ++cycle, ++round) {
      for (const int parity : {0, 1}) {
        // ---- Up slot: children of parity `parity` transmit -------------
        // Only this round's members listen, so only they can hold an ack.
        const std::span<const NodeId> members = roleClasses.members(round);
        for (const NodeId v : members) pendingAck[static_cast<std::size_t>(v)] = -1;
        sim.step(
            members,
            [&](NodeId v) -> Intent {
              const auto vi = static_cast<std::size_t>(v);
              for (const auto& [k, val] : roles[vi]) {
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi]) {
                  Message m;
                  m.type = MsgType::TreeUp;
                  m.src = v;
                  m.a = k;
                  m.b = cl.dominatorOf[vi];  // cluster-scoped
                  m.x = val;
                  return Intent::transmit(heapUplinkChannel(k), m);
                }
              }
              // Parent-role owners listen on their role channel.
              for (const auto& [k, val] : roles[vi]) {
                if (k >= 0 && heapLevel(std::max(1, k * 2)) == level) {
                  return Intent::listen(heapChannel(k));
                }
              }
              return Intent::idle();
            },
            [&](NodeId v, const Reception& r) {
              const auto vi = static_cast<std::size_t>(v);
              if (!r.received || r.msg.type != MsgType::TreeUp) return;
              if (r.msg.b != cl.dominatorOf[vi]) return;  // another cluster's tree
              const int k = static_cast<int>(r.msg.a);
              const int pi = roleIndex(v, heapParent(k));
              if (pi < 0) return;
              if (!childSeen[vi][static_cast<std::size_t>(k)]) {
                childSeen[vi][static_cast<std::size_t>(k)] = 1;
                roles[vi][static_cast<std::size_t>(pi)].second += r.msg.x;
              }
              pendingAck[vi] = k;  // (re-)ack either way
              pendingAckNode[vi] = r.msg.src;
            });
        ++out.slotsUsed;

        // ---- Ack slot ---------------------------------------------------
        sim.step(
            members,
            [&](NodeId v) -> Intent {
              const auto vi = static_cast<std::size_t>(v);
              if (pendingAck[vi] >= 0) {
                Message m;
                m.type = MsgType::TreeUpAck;
                m.src = v;
                m.dst = pendingAckNode[vi];  // addressed: cluster-safe
                m.a = pendingAck[vi];
                return Intent::transmit(heapUplinkChannel(pendingAck[vi]), m);
              }
              // Children that just transmitted listen for their ack.
              for (const auto& [k, val] : roles[vi]) {
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi]) {
                  return Intent::listen(heapUplinkChannel(k));
                }
              }
              return Intent::idle();
            },
            [&](NodeId v, const Reception& r) {
              const auto vi = static_cast<std::size_t>(v);
              if (!r.received || r.msg.type != MsgType::TreeUpAck || r.msg.dst != v) return;
              for (const auto& [k, val] : roles[vi]) {
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity &&
                    static_cast<int>(r.msg.a) == k) {
                  delivered[vi] = 1;
                }
              }
            });
        ++out.slotsUsed;

        // Adoption happens BETWEEN the parity sub-slots of the LAST
        // attempt: a left child (even k) whose up went unacknowledged
        // takes over the missing parent role immediately, so it already
        // listens as the parent when the right sibling transmits.  Only
        // one child adopts; the sibling gets acknowledged by the adopter.
        if (attempt == 1) {
          for (const NodeId v : members) {
            const auto vi = static_cast<std::size_t>(v);
            if (delivered[vi]) continue;
            auto& rv = roles[vi];
            const std::size_t existing = rv.size();
            for (std::size_t i = 0; i < existing; ++i) {
              const int k = rv[i].first;
              if (k >= 1 && heapLevel(k) == level && (k & 1) == parity) {
                rv.push_back({heapParent(k), rv[i].second});
                rv[i].first = -1;
                delivered[vi] = 1;  // role carried upward by adoption
                break;
              }
            }
          }
        }
      }
    }
    }
  }

  if (const char* dbg = std::getenv("MCS_CSA_DEBUG")) {
    const NodeId target = static_cast<NodeId>(std::atoi(dbg));
    for (NodeId v = 0; v < n; ++v) {
      if (cl.dominatorOf[static_cast<std::size_t>(v)] != target) continue;
      std::fprintf(stderr, "node %d dom=%d isLeader=%d ch=%d est=%.2f roles:", v,
                   cl.dominatorOf[static_cast<std::size_t>(v)],
                   (int)rs.inSet[static_cast<std::size_t>(v)],
                   (int)chOf[static_cast<std::size_t>(v)], loop.est[static_cast<std::size_t>(v)]);
      for (auto& [k, val] : roles[static_cast<std::size_t>(v)]) {
        std::fprintf(stderr, " (%d,%.2f)", k, val);
      }
      std::fprintf(stderr, "\n");
    }
  }

  // Dominators now hold the cluster total in role 0.
  for (const NodeId d : cl.dominators) {
    const int ri = roleIndex(d, 0);
    out.estimateOfNode[static_cast<std::size_t>(d)] =
        ri >= 0 ? roles[static_cast<std::size_t>(d)][static_cast<std::size_t>(ri)].second : 0.0;
  }

  // ---- Procedure 4: broadcast the estimate to the cluster ----------------
  out.slotsUsed += broadcastEstimates(sim, cl, tdma, out.estimateOfNode, 3);
  return out;
}

CsaResult runCsa(Simulator& sim, const Clustering& cl, int deltaHat) {
  const int n = sim.network().size();
  if (deltaHat <= 0) deltaHat = std::max(2, n);
  const double lnn = std::log(std::max(2.0, static_cast<double>(n)));
  const double threshold = static_cast<double>(sim.numChannels()) * lnn * lnn;
  if (static_cast<double>(deltaHat) <= threshold) return runCsaSmall(sim, cl, deltaHat);
  return runCsaLarge(sim, cl, deltaHat);
}

double csaWorstRatio(const Clustering& cl, const std::vector<double>& estimateOfNode) {
  const std::vector<int> size = clusterSizes(cl);
  double worst = 1.0;
  for (const NodeId d : cl.dominators) {
    const auto di = static_cast<std::size_t>(d);
    const double got = estimateOfNode[di] + 1.0;
    const double want = static_cast<double>(size[di]) + 1.0;
    worst = std::max(worst, std::max(got / want, want / got));
  }
  return worst;
}

}  // namespace mcs
