#include "baseline/aloha_agg.h"

#include <algorithm>
#include <cmath>

namespace mcs {

AlohaUplinkResult alohaClusterUplink(Simulator& sim, const Clustering& cl,
                                     const TdmaSchedule& tdma,
                                     std::span<const double> values,
                                     std::span<const double> sizeEstimate, AggKind kind) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();

  AlohaUplinkResult out;
  out.clusterValue.assign(static_cast<std::size_t>(n), aggIdentity(kind));
  for (const NodeId d : cl.dominators) {
    out.clusterValue[static_cast<std::size_t>(d)] = values[static_cast<std::size_t>(d)];
  }

  std::vector<char> pending(static_cast<std::size_t>(n), 0);
  std::vector<char> deliveredOnce(static_cast<std::size_t>(n), 0);
  std::vector<double> prob(static_cast<std::size_t>(n), 0.0);
  int undone = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!cl.isDominator[vi] && cl.dominatorOf[vi] != kNoNode) {
      pending[vi] = 1;
      prob[vi] = std::min(0.5, tun.aggLambda / std::max(1.0, sizeEstimate[vi]));
      ++undone;
    }
  }

  // Doubling schedule without the dominator feedback channel: probability
  // doubles every Gamma rounds unless the dominator signals backoff, same
  // notify-round pattern as the main algorithm but on a single channel.
  const int gamma2 = tun.lnRounds(tun.aggGamma2, n, 4);
  const int phaseLen = gamma2 + 1;
  const int omega2 = std::max(2, tun.lnRounds(tun.aggOmega2, n));

  std::vector<int> activeRounds(static_cast<std::size_t>(n), 0);
  std::vector<int> domCount(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> pendingAck(static_cast<std::size_t>(n), kNoNode);
  std::vector<char> sent(static_cast<std::size_t>(n), 0);
  std::vector<char> gotBackoff(static_cast<std::size_t>(n), 0);

  const long maxRounds =
      static_cast<long>(tun.aggMaxPhases) * phaseLen * std::max(1, tdma.period);
  long round = 0;
  while (undone > 0 && round < maxRounds) {
    // Only this round's members act, so only their scratch needs clearing.
    const std::span<const NodeId> members = tdma.members(round);
    for (const NodeId v : members) {
      pendingAck[static_cast<std::size_t>(v)] = kNoNode;
      sent[static_cast<std::size_t>(v)] = 0;
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
                Message m;
                m.type = MsgType::Backoff;
                m.src = v;
                return Intent::transmit(0, m);
              }
              return Intent::idle();
            }
            return pending[vi] ? Intent::listen(0) : Intent::idle();
          }
          if (pending[vi] && sim.rng(v).bernoulli(prob[vi])) {
            sent[vi] = 1;
            Message m;
            m.type = MsgType::Data;
            m.src = v;
            m.a = cl.dominatorOf[vi];
            m.x = values[static_cast<std::size_t>(v)];
            return Intent::transmit(0, m);
          }
          if (cl.isDominator[vi]) return Intent::listen(0);
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received) return;
          const int pos = activeRounds[vi] % phaseLen;
          if (pos == gamma2) {
            if (r.msg.type == MsgType::Backoff && r.msg.src == cl.dominatorOf[vi]) {
              gotBackoff[vi] = 1;
            }
            return;
          }
          if (r.msg.type == MsgType::Data && cl.isDominator[vi] && r.msg.a == v) {
            const auto src = static_cast<std::size_t>(r.msg.src);
            if (!deliveredOnce[src]) {
              deliveredOnce[src] = 1;
              out.clusterValue[vi] = aggCombine(kind, out.clusterValue[vi], r.msg.x);
            }
            pendingAck[vi] = r.msg.src;
            ++domCount[vi];
          }
        });
    ++out.slots;

    // Ack slot.
    sim.step(
        members,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (activeRounds[vi] % phaseLen == gamma2) return Intent::idle();
          if (pendingAck[vi] != kNoNode) {
            Message m;
            m.type = MsgType::DataAck;
            m.src = v;
            m.dst = pendingAck[vi];
            return Intent::transmit(0, m);
          }
          if (sent[vi]) return Intent::listen(0);
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (r.received && r.msg.type == MsgType::DataAck && r.msg.dst == v && pending[vi]) {
            pending[vi] = 0;
            --undone;
          }
        });
    ++out.slots;

    for (const NodeId v : members) {
      const auto vi = static_cast<std::size_t>(v);
      if (activeRounds[vi] % phaseLen == gamma2 && pending[vi]) {
        if (gotBackoff[vi]) {
          gotBackoff[vi] = 0;
        } else {
          prob[vi] = std::min(0.5, prob[vi] * 2.0);
        }
      }
      ++activeRounds[vi];
    }
    ++round;
  }
  out.allDelivered = undone == 0;
  return out;
}

AggregateRun runAlohaAggregation(Simulator& sim, const AggregationStructure& s,
                                 std::span<const double> values, AggKind kind) {
  AggregateRun run;
  AlohaUplinkResult up =
      alohaClusterUplink(sim, s.clustering, s.tdma, values, s.sizeEstimate, kind);
  run.costs.uplink = up.slots;
  run.delivered = up.allDelivered;

  InterResult inter = kind == AggKind::Sum
                          ? treeAggregate(sim, s.clustering, s.tdma, up.clusterValue, kind)
                          : gossipAggregate(sim, s.clustering, s.tdma, up.clusterValue, kind);
  run.costs.inter = inter.slots;
  run.delivered = run.delivered && inter.converged;

  run.valueAtNode = inter.valueAtDominator;
  run.costs.broadcast = broadcastToClusters(sim, s.clustering, s.tdma, run.valueAtNode, 6);

  const double truth = aggregateGroundTruth(values, kind);
  for (const double x : run.valueAtNode) {
    if (std::abs(x - truth) > 1e-9 * std::max(1.0, std::abs(truth))) {
      run.delivered = false;
      break;
    }
  }
  return run;
}

}  // namespace mcs
