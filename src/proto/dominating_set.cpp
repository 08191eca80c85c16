#include "proto/dominating_set.h"

#include <algorithm>
#include <cmath>

#include "proto/ruling_set.h"

namespace mcs {

DominatingSetResult buildDominatingSet(Simulator& sim) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();

  RulingSetConfig cfg;
  cfg.radius = net.rc();
  cfg.capProb = 1.0 / (2.0 * tun.muDensity);
  cfg.initialProb = std::min(cfg.capProb, 0.5 / static_cast<double>(n < 1 ? 1 : n));
  cfg.epochRounds = tun.domEpochRounds;
  cfg.cycleProb = true;
  // Each decay cycle sweeps the probability from 1/(2n) to the cap; run
  // Theta(log n) cycles so every density regime is visited often enough.
  const int doublings =
      cfg.initialProb >= cfg.capProb
          ? 0
          : static_cast<int>(std::ceil(std::log2(cfg.capProb / cfg.initialProb)));
  const int cycleLen = std::max(1, doublings * tun.domEpochRounds);
  cfg.totalRounds = cycleLen + tun.lnRounds(tun.gammaDomTail, n) * std::max(1, cycleLen / 4);
  cfg.selfElectSurvivors = true;

  std::vector<char> everyone(static_cast<std::size_t>(n), 1);
  RulingSetResult rs = runRulingSet(sim, everyone, cfg);

  DominatingSetResult out;
  out.slotsUsed = rs.slotsUsed;
  out.roundsRun = rs.roundsRun;
  Clustering& cl = out.clustering;
  cl.isDominator = rs.inSet;
  cl.dominatorOf.assign(static_cast<std::size_t>(n), kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (cl.isDominator[vi]) {
      cl.dominatorOf[vi] = v;
      cl.dominators.push_back(v);
    } else {
      // Every halted node decoded an IN from within r_c; survivors
      // self-elected, so a binding always exists.
      cl.dominatorOf[vi] = rs.dominator[vi];
    }
  }
  // A binding can dangle when its target later yielded a member conflict
  // and the node heard no other member within r_c.  Re-associate: the
  // dominators announce themselves for Theta(log n) rounds and dangling
  // nodes rebind to any announcer within r_c.  Bindings stay within r_c —
  // the radius the Theorem-24 geometry (2 r_c + R_eps <= R_{eps/2})
  // depends on.
  std::vector<char> dangling(static_cast<std::size_t>(n), 0);
  int danglingCount = 0;
  const auto refreshDangling = [&] {
    danglingCount = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const NodeId d = cl.dominatorOf[vi];
      dangling[vi] = (d == kNoNode || !cl.isDominator[static_cast<std::size_t>(d)]) ? 1 : 0;
      danglingCount += dangling[vi];
    }
  };
  refreshDangling();
  if (danglingCount > 0) {
    const SinrBounds& kb = net.bounds();
    const int assocRounds = tun.lnRounds(tun.gammaAssoc, n, 8);
    // Dominators announce and dangling nodes listen; nobody else acts
    // (rebinding only ever clears `dangling`).
    std::vector<NodeId> actors;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (cl.isDominator[vi] || dangling[vi]) actors.push_back(v);
    }
    for (int t = 0; t < assocRounds; ++t) {
      sim.step(
          actors,
          [&](NodeId v) -> Intent {
            const auto vi = static_cast<std::size_t>(v);
            if (cl.isDominator[vi]) {
              if (sim.rng(v).bernoulli(cfg.capProb)) {
                Message m;
                m.type = MsgType::Announce;
                m.src = v;
                return Intent::transmit(0, m);
              }
              return Intent::idle();
            }
            return dangling[vi] ? Intent::listen(0) : Intent::idle();
          },
          [&](NodeId v, const Reception& r) {
            const auto vi = static_cast<std::size_t>(v);
            if (!dangling[vi] || !r.received || r.msg.type != MsgType::Announce) return;
            if (kb.distanceUpper(r.signalPower) <= net.rc()) {
              cl.dominatorOf[vi] = r.msg.src;
              dangling[vi] = 0;
            }
          });
      ++out.slotsUsed;
    }
  }
  // Still-dangling nodes self-promote (the maximality rule).
  refreshDangling();
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (dangling[vi]) {
      cl.isDominator[vi] = 1;
      cl.dominatorOf[vi] = v;
      cl.dominators.push_back(v);
    }
  }
  std::sort(cl.dominators.begin(), cl.dominators.end());
  cl.dominators.erase(std::unique(cl.dominators.begin(), cl.dominators.end()),
                      cl.dominators.end());
  return out;
}

}  // namespace mcs
