#include "proto/cluster_coloring.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "proto/ruling_set.h"

namespace mcs {
namespace {

/// One verification sweep (see colorClusters): colored dominators announce
/// their color; a dominator hearing its own color from a smaller-id
/// R_{eps/2}-neighbor demotes itself back to uncolored.  Returns the
/// number of demotions.
///
/// When colorPeriod > 0, rounds are sliced by color: in a color-c round
/// only color-c dominators participate.  Since a correct coloring keeps
/// same-color dominators >= R_{eps/2} apart, contention inside one slice
/// is negligible and a violating pair detects itself almost surely.
int verifySweep(Simulator& sim, Clustering& cl, std::vector<char>& uncolored, int rounds,
                double announceProb, std::uint64_t& slots, int colorPeriod = 0) {
  const Network& net = sim.network();
  const int n = net.size();
  std::vector<char> demote(static_cast<std::size_t>(n), 0);
  const int totalRounds = colorPeriod > 0 ? rounds * colorPeriod : rounds;
  for (int t = 0; t < totalRounds; ++t) {
    sim.step(
        cl.dominators,
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (cl.colorOfCluster[vi] < 0) return Intent::idle();
          if (colorPeriod > 0 && cl.colorOfCluster[vi] % colorPeriod != t % colorPeriod) {
            return Intent::idle();
          }
          if (sim.rng(v).bernoulli(announceProb)) {
            Message m;
            m.type = MsgType::Announce;
            m.src = v;
            m.a = cl.colorOfCluster[vi];
            return Intent::transmit(0, m);
          }
          return Intent::listen(0);
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::Announce) return;
          if (cl.colorOfCluster[vi] < 0) return;
          if (r.msg.a == cl.colorOfCluster[vi] && r.msg.src < v &&
              sim.network().bounds().distanceUpper(r.signalPower) <= net.rEpsHalf()) {
            demote[vi] = 1;
          }
        });
    ++slots;
  }
  int demotions = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (demote[vi]) {
      cl.colorOfCluster[vi] = -1;
      uncolored[vi] = 1;
      ++demotions;
    }
  }
  return demotions;
}

}  // namespace

ClusterColoringResult colorClusters(Simulator& sim, Clustering& cl) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();

  cl.colorOfCluster.assign(static_cast<std::size_t>(n), -1);

  // Geometric bound phi on the number of dominators in an R_{eps/2}-ball
  // (the paper's 4 mu (R_{eps/2} + r_c/2)^2 / r_c^2, via packingBound).
  const int phiBound = packingBound(net.rEpsHalf(), net.rc());
  const int maxPhases = std::max(8, tun.coloringPhaseSlack * phiBound);

  std::vector<char> uncolored = cl.isDominator;
  int remaining = static_cast<int>(cl.dominators.size());

  ClusterColoringResult out;
  while (remaining > 0) {
    if (out.phases >= maxPhases) {
      throw std::runtime_error("colorClusters: phase cap exceeded");
    }
    RulingSetConfig cfg;
    cfg.radius = net.rEpsHalf();
    cfg.capProb = 1.0 / (2.0 * tun.muDensity);
    // Contention within an R_{eps/2}-ball can initially be ~phiBound
    // dominators, so start low and double (DESIGN.md §3.1).
    cfg.initialProb = std::min(cfg.capProb, 0.5 / std::max(2, std::min(phiBound, remaining)));
    cfg.epochRounds = tun.domEpochRounds;
    cfg.cycleProb = true;
    const int doublings =
        cfg.initialProb >= cfg.capProb
            ? 0
            : static_cast<int>(std::ceil(std::log2(cfg.capProb / cfg.initialProb)));
    cfg.totalRounds = doublings * tun.domEpochRounds + tun.lnRounds(tun.gammaRuling, n);
    // Survivors self-elect (as in §4): an isolated dominator has no
    // R_{eps/2}-neighbor to acknowledge it and must take the color
    // unilaterally.  Two *adjacent* survivors sharing a color is the rare
    // failure Lemma 6 bounds; the verification sweeps below repair it.
    cfg.selfElectSurvivors = true;

    RulingSetResult rs = runRulingSet(sim, uncolored, cfg);
    out.slotsUsed += rs.slotsUsed;

    int colored = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (uncolored[vi] && rs.inSet[vi]) {
        cl.colorOfCluster[vi] = out.phases;
        uncolored[vi] = 0;
        ++colored;
      }
    }
    remaining -= colored;
    ++out.phases;

    // Cheap per-phase conflict sweep: without Def-4 clear receptions two
    // nearby dominators can join the same phase's ruling set in the same
    // round (the failure Lemma 5 excludes).
    remaining += verifySweep(sim, cl, uncolored, tun.lnRounds(tun.gammaRuling / 2.0, n, 8),
                             1.0 / (2.0 * tun.muDensity), out.slotsUsed);

    // A phase that colors nothing can only happen if every uncolored
    // dominator was dominated-without-joining; the next phase retries, but
    // guard against a livelock under adversarial interference.
    if (colored == 0 && out.phases > maxPhases / 2) {
      throw std::runtime_error("colorClusters: no progress");
    }

    // Strong final verification once everyone is colored: color-sliced
    // sweeps (near-certain detection) until two consecutive clean passes.
    if (remaining == 0) {
      int cleanPasses = 0;
      for (int sweep = 0; sweep < 8 && remaining == 0 && cleanPasses < 2; ++sweep) {
        const int demoted =
            verifySweep(sim, cl, uncolored, tun.lnRounds(tun.gammaRuling / 2.0, n, 10), 0.4,
                        out.slotsUsed, std::max(1, out.phases));
        if (demoted == 0) {
          ++cleanPasses;
        } else {
          remaining += demoted;  // re-enter the phase loop
        }
      }
    }
  }
  cl.numColors = std::max(1, out.phases);
  return out;
}

}  // namespace mcs
