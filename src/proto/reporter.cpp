#include "proto/reporter.h"

#include <algorithm>
#include <cmath>

#include "proto/ruling_set.h"

namespace mcs {

int channelsForCluster(double estimate, int n, int numChannels, const Tuning& tun) {
  const double lnn = std::log(std::max(2.0, static_cast<double>(n)));
  const double denom = std::max(1.0, tun.c1 * tun.lnFactor * lnn);
  const int fv = static_cast<int>(std::ceil(std::max(1.0, estimate + 1.0) / denom));
  return std::clamp(fv, 1, numChannels);
}

ReporterSetup electReporters(Simulator& sim, const Clustering& cl,
                             const std::vector<double>& estimateOfNode) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();
  const int F = sim.numChannels();
  const TdmaSchedule tdma = TdmaSchedule::from(cl);

  ReporterSetup out;
  out.fvOfNode.assign(static_cast<std::size_t>(n), 1);
  out.channelOfNode.assign(static_cast<std::size_t>(n), 0);

  std::vector<char> dominatees(static_cast<std::size_t>(n), 0);
  double maxPerChannel = 2.0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    out.fvOfNode[vi] = channelsForCluster(estimateOfNode[vi], n, F, tun);
    if (!cl.isDominator[vi] && cl.dominatorOf[vi] != kNoNode) {
      dominatees[vi] = 1;
      out.channelOfNode[vi] =
          static_cast<ChannelId>(sim.rng(v).below(static_cast<std::uint64_t>(out.fvOfNode[vi])));
      maxPerChannel = std::max(
          maxPerChannel, (estimateOfNode[vi] + 1.0) / static_cast<double>(out.fvOfNode[vi]));
    }
  }

  RulingSetConfig cfg;
  cfg.radius = std::min(4.0 * net.rc(), 0.8 * net.rT());  // cluster spread can reach 4 r_c
  cfg.capProb = 0.25;
  cfg.initialProb = std::min(cfg.capProb, 0.5 / maxPerChannel);
  cfg.epochRounds = tun.domEpochRounds;
  const int doublings =
      cfg.initialProb >= cfg.capProb
          ? 0
          : static_cast<int>(std::ceil(std::log2(cfg.capProb / cfg.initialProb)));
  cfg.totalRounds = doublings * tun.domEpochRounds + tun.lnRounds(tun.gammaRuling, n);
  cfg.channelOf = out.channelOfNode;
  cfg.groupOf = cl.dominatorOf;  // elections are cluster-scoped
  cfg.tdma = tdma;
  cfg.selfElectSurvivors = true;

  RulingSetResult rs = runRulingSet(sim, dominatees, cfg);
  out.isReporter = std::move(rs.inSet);
  out.slotsUsed = rs.slotsUsed;

  // Post-election verification: if a (cluster, channel) ended with two
  // reporters (both elected in the same round, or self-elected under
  // persistent interference), the higher id yields and rejoins as a
  // follower.  Duplicate reporters would otherwise collide in the
  // deterministic reporter-tree schedule and corrupt Sum/coloring ranges.
  const int verifyRounds = tun.lnRounds(2.0 * tun.gammaRuling, n, 24) * tdma.period;
  std::vector<char> demote(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> reporters;
  for (NodeId v = 0; v < n; ++v) {
    if (out.isReporter[static_cast<std::size_t>(v)]) reporters.push_back(v);
  }
  const ColorClasses reporterClasses = tdma.restrictedTo(reporters);
  for (int t = 0; t < verifyRounds; ++t) {
    sim.step(
        reporterClasses.members(t),
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (demote[vi]) return Intent::idle();
          if (sim.rng(v).bernoulli(0.3)) {
            Message m;
            m.type = MsgType::In;
            m.src = v;
            m.a = cl.dominatorOf[vi];
            return Intent::transmit(out.channelOfNode[vi], m);
          }
          return Intent::listen(out.channelOfNode[vi]);
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::In) return;
          if (r.msg.a != cl.dominatorOf[vi]) return;
          if (r.msg.src < v) demote[vi] = 1;
        });
    ++out.slotsUsed;
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (demote[vi]) out.isReporter[vi] = 0;
  }
  return out;
}

}  // namespace mcs
