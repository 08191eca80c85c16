#include "baseline/chain.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/simulator.h"

namespace mcs {

double chainBetaThreshold(double alpha) noexcept { return std::pow(2.0, 1.0 / alpha); }

ChainSlotStats chainConcurrency(const Network& net, int numChannels, int trials,
                                std::uint64_t seed) {
  Simulator sim(net, numChannels, seed);
  return chainConcurrency(sim, trials);
}

ChainSlotStats chainConcurrency(Simulator& sim, int trials) {
  ChainSlotStats stats;
  stats.trials = trials;
  const int numChannels = sim.numChannels();

  long totalSuccesses = 0;
  long totalDescending = 0;
  std::set<NodeId> descendingSenders;
  for (int t = 0; t < trials; ++t) {
    int successes = 0;
    sim.step(
        sim.allNodes(),
        [&](NodeId v) -> Intent {
          const auto c = static_cast<ChannelId>(v % numChannels);
          if (sim.rng(v).bernoulli(0.5)) {
            Message m;
            m.type = MsgType::Data;
            m.src = v;
            return Intent::transmit(c, m);
          }
          return Intent::listen(c);
        },
        [&](NodeId v, const Reception& r) {
          if (!r.received) return;
          ++successes;
          // Current positions: under mobility the descending direction is
          // judged where the nodes are, not where they started.
          const std::span<const Vec2> pos = sim.positions();
          if (pos[static_cast<std::size_t>(v)].x < pos[static_cast<std::size_t>(r.msg.src)].x) {
            descendingSenders.insert(r.msg.src);
          }
        });
    const int descending = static_cast<int>(descendingSenders.size());
    descendingSenders.clear();
    totalSuccesses += successes;
    totalDescending += descending;
    stats.maxConcurrentSuccesses = std::max(stats.maxConcurrentSuccesses, successes);
    stats.maxDescendingSuccesses = std::max(stats.maxDescendingSuccesses, descending);
  }
  if (trials > 0) {
    stats.meanSuccesses = static_cast<double>(totalSuccesses) / trials;
    stats.meanDescendingSuccesses = static_cast<double>(totalDescending) / trials;
  }
  return stats;
}

}  // namespace mcs
