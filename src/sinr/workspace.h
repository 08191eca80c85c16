#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "sim/message.h"
#include "util/ids.h"

/// Per-slot structure-of-arrays staging area for Medium::resolveSlot.
namespace mcs {

/// Flat, channel-bucketed views of one slot's transmitters and listeners,
/// populated once per slot from the caller's AoS spans.  Transmitter
/// positions are split into contiguous x[] / y[] arrays in channel-bucket
/// order, so the Exact-mode interference sweep is a unit-stride pass over
/// doubles that Release builds auto-vectorize (see PowerKernel::batch);
/// NearFar/Hierarchical grid construction reads the same buckets.  All
/// buffers are reused across slots (no steady-state allocation).
struct MediumWorkspace {
  /// CSR channel buckets: channel c's transmitters occupy indices
  /// [chanStart[c], chanStart[c+1]) of txIds/txX/txY.  Within a bucket,
  /// transmitters appear in ascending node id — the fixed summation
  /// order the Exact-mode bit-reproducibility contract relies on.
  std::vector<std::int32_t> chanStart;
  std::vector<NodeId> txIds;
  std::vector<double> txX;
  std::vector<double> txY;
  std::vector<NodeId> listeners;
  /// This slot's listener count; equals listeners.size() whenever the
  /// list was built.
  std::size_t listenerCount = 0;

  /// Rebuilds every buffer from this slot's active nodes (counting sort
  /// by channel): one count pass and one fill pass over `active`, never
  /// over all n.  `active` must list strictly ascending node ids in [0, n)
  /// (Idle entries are skipped); `intents` is indexed by node id.  Both
  /// that order and every non-idle intent's channel in [0, numChannels)
  /// are checked with aborts that stay armed in Release builds: an
  /// out-of-range channel would otherwise index out of bounds with
  /// asserts compiled out, and an unsorted list would silently reorder
  /// the Exact-mode summation.  A slot in which nothing transmits stops
  /// after the count pass unless `listenersIfSilent`: its `listeners`
  /// list is then left empty and only listenerCount holds.  Returns the
  /// transmitter count.
  std::size_t populate(std::span<const Vec2> positions, std::span<const Intent> intents,
                       std::span<const NodeId> active, int numChannels,
                       bool listenersIfSilent);

  [[nodiscard]] std::int32_t bucketBegin(ChannelId c) const noexcept {
    return chanStart[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int32_t bucketEnd(ChannelId c) const noexcept {
    return chanStart[static_cast<std::size_t>(c) + 1];
  }

 private:
  std::vector<std::int32_t> cursor_;  // counting-sort scratch
};

}  // namespace mcs
