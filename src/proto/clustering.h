#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "util/ids.h"

/// Shared clustering state produced by §5.1 and consumed by everything
/// downstream (CSA, reporters, aggregation, coloring).
namespace mcs {

/// The backbone clustering: a constant-density set of dominators, a
/// binding of every node to a dominator within r_c, and a coloring of
/// clusters such that dominators within R_{eps/2} get different colors.
struct Clustering {
  /// isDominator[v] != 0 iff v heads a cluster.
  std::vector<char> isDominator;
  /// dominatorOf[v]: the dominator v is bound to (v itself for dominators).
  std::vector<NodeId> dominatorOf;
  /// All dominator ids, ascending.
  std::vector<NodeId> dominators;
  /// colorOfCluster[d]: TDMA color of the cluster headed by dominator d
  /// (-1 for non-dominators).  Empty until cluster coloring runs.
  std::vector<int> colorOfCluster;
  /// Number of TDMA colors phi (0 until cluster coloring runs).
  int numColors = 0;

  [[nodiscard]] int clusterColorOf(NodeId v) const {
    return colorOfCluster[static_cast<std::size_t>(dominatorOf[static_cast<std::size_t>(v)])];
  }
};

/// Node ids grouped by TDMA color class: the candidate lists drivers hand
/// Simulator::step, so a slot visits only the nodes the schedule lets act.
/// Ids stay ascending within each class (the order step requires).
class ColorClasses {
 public:
  ColorClasses() = default;
  /// Buckets `nodes` (ascending) by `colorOf[v]`.  With period <= 1 every
  /// node is in the one class; otherwise colors outside [0, period) are
  /// never scheduled and are dropped.
  ColorClasses(std::span<const NodeId> nodes, std::span<const int> colorOf, int period)
      : classes_(static_cast<std::size_t>(std::max(1, period))) {
    if (period <= 1) {
      classes_[0].assign(nodes.begin(), nodes.end());
      return;
    }
    for (const NodeId v : nodes) {
      const int c = colorOf[static_cast<std::size_t>(v)];
      if (c >= 0 && c < period) classes_[static_cast<std::size_t>(c)].push_back(v);
    }
  }

  /// The class scheduled in global round `round` (round mod period).
  [[nodiscard]] std::span<const NodeId> members(long round) const noexcept {
    if (classes_.empty()) return {};
    const long c = round % static_cast<long>(classes_.size());
    return c < 0 ? std::span<const NodeId>() : classes_[static_cast<std::size_t>(c)];
  }

 private:
  std::vector<std::vector<NodeId>> classes_;
};

/// The cluster-TDMA scheme of §5.1.2: in global round r, exactly the
/// clusters with color (r mod phi) are allowed to transmit.
struct TdmaSchedule {
  int period = 1;
  /// Per-node color (the color of the node's cluster).
  std::vector<int> colorOfNode;
  /// Every node, by color.  Built in from(); a default-constructed
  /// schedule has none, so use restrictedTo() there.
  ColorClasses classes;

  [[nodiscard]] static TdmaSchedule from(const Clustering& cl) {
    TdmaSchedule t;
    t.period = cl.numColors > 0 ? cl.numColors : 1;
    t.colorOfNode.resize(cl.dominatorOf.size());
    std::vector<NodeId> all(cl.dominatorOf.size());
    for (std::size_t v = 0; v < cl.dominatorOf.size(); ++v) {
      const NodeId d = cl.dominatorOf[v];
      t.colorOfNode[v] = d == kNoNode ? 0 : cl.colorOfCluster[static_cast<std::size_t>(d)];
      all[v] = static_cast<NodeId>(v);
    }
    t.classes = t.restrictedTo(all);
    return t;
  }

  /// May node v transmit in global round `round`?
  [[nodiscard]] bool active(NodeId v, long round) const noexcept {
    if (period <= 1) return true;
    return colorOfNode[static_cast<std::size_t>(v)] ==
           static_cast<int>(round % static_cast<long>(period));
  }

  /// The nodes active in `round`, ascending: {v : active(v, round)}.
  [[nodiscard]] std::span<const NodeId> members(long round) const noexcept {
    return classes.members(round);
  }

  /// The schedule's color classes over a subset of the nodes (ascending):
  /// members(round) of the result is {v in nodes : active(v, round)}.
  [[nodiscard]] ColorClasses restrictedTo(std::span<const NodeId> nodes) const {
    return ColorClasses(nodes, colorOfNode, period);
  }
};

/// Per-dominator dominatee counts, indexed by node id (0 elsewhere; a
/// dominator does not count itself).
[[nodiscard]] inline std::vector<int> clusterSizes(const Clustering& cl) {
  std::vector<int> size(cl.dominatorOf.size(), 0);
  for (std::size_t v = 0; v < cl.dominatorOf.size(); ++v) {
    const NodeId d = cl.dominatorOf[v];
    if (d != kNoNode && d != static_cast<NodeId>(v)) ++size[static_cast<std::size_t>(d)];
  }
  return size;
}

/// Largest dominatee count over all clusters.
[[nodiscard]] inline int largestClusterSize(const Clustering& cl) {
  int best = 0;
  for (const int s : clusterSizes(cl)) {
    if (s > best) best = s;
  }
  return best;
}

/// Conservative bound on the number of pairwise r-independent points that
/// fit in a ball of radius R (area packing argument).
[[nodiscard]] inline int packingBound(double R, double r) noexcept {
  if (r <= 0.0) return 1;
  const double ratio = 2.0 * R / r + 1.0;
  return static_cast<int>(ratio * ratio) + 1;
}

}  // namespace mcs
