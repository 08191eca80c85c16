#include "sim/simulator.h"

#include <cstdio>
#include <cstdlib>

namespace mcs {

Simulator::Simulator(const Network& net, int numChannels, std::uint64_t seed, int numThreads)
    : net_(&net), medium_(net.sinr(), numChannels, numThreads), root_(seed) {
  const auto n = static_cast<std::size_t>(net.size());
  rngs_.reserve(n);
  // Stream layout of the root fork space: 0 is the fading layer, 1..n are
  // the per-node streams, 2^62+1 / 2^62+2 the mobility/churn keys
  // (mobility/mobility.h), and scenario-level value streams use 2^63
  // (scenario/runner.h).
  for (std::size_t v = 0; v < n; ++v) rngs_.push_back(root_.fork(v + 1));
  medium_.seedFading(root_.fork(0)());
  allNodes_.resize(n);
  for (std::size_t v = 0; v < n; ++v) allNodes_[v] = static_cast<NodeId>(v);
  intents_.resize(n);
  active_.reserve(n);
  receptions_.resize(n);
}

// Unsorted or duplicate candidates would reorder the Medium's transmitter
// buckets (breaking Exact-mode bit-identity) or run a node's intent twice;
// like the Medium's channel check, this fires in every build type.
void Simulator::candidateOrderFailure(NodeId prev, NodeId v, NodeId n) {
  std::fprintf(stderr,
               "mcs: fatal: step candidate %d after %d: candidates must be strictly "
               "ascending node ids in [0, %d)\n",
               v, prev, n);
  std::abort();
}

void Simulator::attachDynamics(const TopologyParams& params) {
  const std::span<const Vec2> initial = net_->positions();
  positions_.assign(initial.begin(), initial.end());
  // fork() is const on the root stream, so keying the dynamics consumes
  // no root draws: the per-node and fading streams are untouched.
  Rng mobilityRng = root_.fork(kMobilityStream);
  Rng churnRng = root_.fork(kChurnStream);
  dyn_ = std::make_unique<TopologyDynamics>(params, initial, net_->rEps(), mobilityRng(),
                                            churnRng());
}

void Simulator::finalizeDynamics() {
  if (dyn_) dyn_->finalize(positions_);
}

}  // namespace mcs
