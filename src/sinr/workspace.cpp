#include "sinr/workspace.h"

#include <cstdio>
#include <cstdlib>

namespace mcs {
namespace {

// Out-of-range channels corrupt the CSR buckets (and, pre-refactor, the
// txByChannelStart_ indexing) silently in -DNDEBUG builds where asserts
// compile out.  This fires in every build type.
[[noreturn]] void channelRangeFailure(std::size_t node, int channel, int numChannels) {
  std::fprintf(stderr,
               "mcs: fatal: node %zu declared intent on channel %d, outside [0, %d)\n",
               node, channel, numChannels);
  std::abort();
}

[[noreturn]] void activeOrderFailure(NodeId prev, NodeId v, std::size_t n) {
  std::fprintf(stderr,
               "mcs: fatal: active node %d after %d: the active list must be strictly "
               "ascending node ids in [0, %zu)\n",
               v, prev, n);
  std::abort();
}

}  // namespace

std::size_t MediumWorkspace::populate(std::span<const Vec2> positions,
                                      std::span<const Intent> intents,
                                      std::span<const NodeId> active, int numChannels,
                                      bool listenersIfSilent) {
  const std::size_t n = positions.size();
  chanStart.assign(static_cast<std::size_t>(numChannels) + 1, 0);
  listeners.clear();
  listenerCount = 0;
  std::size_t txTotal = 0;
  NodeId prev = -1;
  for (const NodeId v : active) {
    if (v <= prev || static_cast<std::size_t>(v) >= n) activeOrderFailure(prev, v, n);
    prev = v;
    const Intent& it = intents[static_cast<std::size_t>(v)];
    if (it.action == Action::Idle) continue;
    if (it.channel < 0 || it.channel >= numChannels) {
      channelRangeFailure(static_cast<std::size_t>(v), it.channel, numChannels);
    }
    if (it.action == Action::Transmit) {
      ++chanStart[static_cast<std::size_t>(it.channel) + 1];
      ++txTotal;
    } else {
      ++listenerCount;
    }
  }
  for (int c = 0; c < numChannels; ++c) {
    chanStart[static_cast<std::size_t>(c) + 1] += chanStart[static_cast<std::size_t>(c)];
  }

  txIds.resize(txTotal);
  txX.resize(txTotal);
  txY.resize(txTotal);
  if (txTotal == 0 && !listenersIfSilent) return 0;
  cursor_.assign(chanStart.begin(), chanStart.end() - 1);
  for (const NodeId v : active) {
    const Intent& it = intents[static_cast<std::size_t>(v)];
    if (it.action == Action::Listen) {
      listeners.push_back(v);
    } else if (it.action == Action::Transmit) {
      const auto slot =
          static_cast<std::size_t>(cursor_[static_cast<std::size_t>(it.channel)]++);
      txIds[slot] = v;
      txX[slot] = positions[static_cast<std::size_t>(v)].x;
      txY[slot] = positions[static_cast<std::size_t>(v)].y;
    }
  }
  return txTotal;
}

}  // namespace mcs
