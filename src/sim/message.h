#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.h"

/// Messages and per-slot intents exchanged through the simulated medium.
namespace mcs {

/// All message kinds used by the protocols in this library.  A real radio
/// would carry a few header bytes; here the enum + three payload words
/// model a single O(log n)-bit packet, as the paper assumes.
enum class MsgType : std::uint8_t {
  None = 0,
  // Ruling set (§4).
  Hello,
  Ack,
  In,
  // Dominating set association (§5.1.1).
  Announce,
  // Cluster-size approximation (§5.2.1).
  CsaProbe,
  CsaTerminate,
  CsaEstimate,
  // Intra-cluster aggregation (§6).
  Data,
  DataAck,
  Backoff,
  TreeUp,
  TreeUpAck,
  // Inter-cluster aggregation on the backbone (§6, [2] substitute).
  Beacon,
  InterUp,
  InterUpAck,
  InterDown,
  // Coloring (§7).
  IdReport,
  IdReportAck,
  SubtreeCount,
  ColorRange,
  AssignColor,
};

/// A fixed-size packet.  `a`, `b` are generic integer payload words and
/// `x` a value payload (the aggregate).  Interpretation is per MsgType.
struct Message {
  MsgType type = MsgType::None;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;  // kNoNode = broadcast within decoding range
  std::int64_t a = 0;
  std::int64_t b = 0;
  double x = 0.0;
};

/// What a node does in one slot.
enum class Action : std::uint8_t { Idle = 0, Listen, Transmit };

/// A node's declared behavior for one slot: channel + action (+ message
/// when transmitting).  Nodes with Action::Idle touch no channel.
struct Intent {
  Action action = Action::Idle;
  ChannelId channel = kNoChannel;
  Message msg{};

  [[nodiscard]] static Intent idle() noexcept { return {}; }
  [[nodiscard]] static Intent listen(ChannelId c) noexcept {
    return {Action::Listen, c, {}};
  }
  [[nodiscard]] static Intent transmit(ChannelId c, const Message& m) noexcept {
    return {Action::Transmit, c, m};
  }
};

/// What a listening node observes in one slot.
struct Reception {
  /// True iff a message was decoded (SINR condition (1) held for the
  /// strongest same-channel transmitter).
  bool received = false;
  Message msg{};
  /// SINR of the decoded message (valid iff received).
  double sinr = 0.0;
  /// Received signal strength of the decoded message (valid iff received).
  double signalPower = 0.0;
  /// Total received power from ALL same-channel transmitters (carrier
  /// sense; available to every listener, decode or not).  Excludes noise.
  double totalPower = 0.0;
  /// Distance estimate for the decoded sender via RSSI inversion
  /// (valid iff received).
  double senderDistance = 0.0;

  /// Sensed interference as used by Definition 4: everything on the
  /// channel except the decoded signal.
  [[nodiscard]] double interference() const noexcept {
    return received ? totalPower - signalPower : totalPower;
  }
};

/// The non-Idle node ids of a node-indexed intent vector, ascending: the
/// `active` list Medium::resolveSlot takes, for callers that build a whole
/// slot's intents by hand (tests, benches).  The Simulator never scans n;
/// it collects its active list from the step's candidates.
[[nodiscard]] inline std::vector<NodeId> activeNodes(std::span<const Intent> intents) {
  std::vector<NodeId> active;
  for (std::size_t v = 0; v < intents.size(); ++v) {
    if (intents[v].action != Action::Idle) active.push_back(static_cast<NodeId>(v));
  }
  return active;
}

}  // namespace mcs
