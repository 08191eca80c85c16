#include "proto/ruling_set.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "geom/grid_index.h"

namespace mcs {
namespace {

enum class State : char { Out = 0, Active, InSet, Dominated };

}  // namespace

RulingSetResult runRulingSet(Simulator& sim, const std::vector<char>& participants,
                             const RulingSetConfig& cfg) {
  const int n = sim.network().size();
  assert(static_cast<int>(participants.size()) == n);
  assert(cfg.capProb > 0.0 && cfg.capProb <= 1.0);
  assert(cfg.totalRounds >= 1);

  const SinrBounds& kb = sim.network().bounds();
  // Conservative clear-reception threshold (Def. 4) under parameter
  // uncertainty: use the smallest T_s any in-range parameters give.  The
  // radius-scaled term P/(4r)^alpha is what actually certifies "no other
  // 4r-neighbor transmitted"; the paper's N-based form assumes r ~ R_T.
  double ts = kb.clearThresholdLower();
  if (cfg.requireClear) {
    for (const double a : {kb.alphaMin, kb.alphaMax}) {
      ts = std::max(ts, 0.5 * kb.power / std::pow(4.0 * cfg.radius, a));
    }
  }

  RulingSetResult res;
  res.inSet.assign(static_cast<std::size_t>(n), 0);
  res.dominator.assign(static_cast<std::size_t>(n), kNoNode);

  std::vector<State> state(static_cast<std::size_t>(n), State::Out);
  std::vector<double> prob(static_cast<std::size_t>(n), cfg.initialProb);
  std::vector<int> activeRounds(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> parts;  // ascending, as Simulator::step requires
  parts.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (participants[static_cast<std::size_t>(v)]) {
      state[static_cast<std::size_t>(v)] = State::Active;
      parts.push_back(v);
    }
  }
  int numActive = static_cast<int>(parts.size());
  // Each round runs the participants the TDMA admits; of them, only the
  // still-Active ones (the gated list) act in slots 1 and 2.
  const ColorClasses partClasses = cfg.tdma.restrictedTo(parts);
  std::vector<NodeId> gated;
  gated.reserve(parts.size());

  const auto channel = [&](NodeId v) -> ChannelId {
    return cfg.channelOf.empty() ? ChannelId{0} : cfg.channelOf[static_cast<std::size_t>(v)];
  };
  const auto group = [&](NodeId v) -> NodeId {
    return cfg.groupOf.empty() ? kNoNode : cfg.groupOf[static_cast<std::size_t>(v)];
  };

  // Per-round scratch, all clear between rounds.
  std::vector<char> sentHello(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> clearHelloFrom(static_cast<std::size_t>(n), kNoNode);
  std::vector<char> gotAck(static_cast<std::size_t>(n), 0);

  long round = cfg.roundOffset;

  // ---- Slot 3 (IN) behavior, also reused by the resolution tail ---------
  // Joiners announce; members re-announce (and otherwise listen, so two
  // members elected in the same round resolve by id: the larger demotes).
  // Dominated nodes keep listening and rebind to the smallest-id member
  // they hear, tracking demotions.
  const auto inSlotIntent = [&](NodeId v) -> Intent {
    const auto vi = static_cast<std::size_t>(v);
    Message m;
    m.type = MsgType::In;
    m.src = v;
    m.a = group(v);
    if (state[vi] == State::InSet && sim.rng(v).bernoulli(cfg.reannounceProb)) {
      return Intent::transmit(channel(v), m);
    }
    // Only this round's gated nodes can hold both flags.
    if (sentHello[vi] && gotAck[vi]) return Intent::transmit(channel(v), m);
    return Intent::listen(channel(v));
  };
  const auto inSlotReceive = [&](NodeId v, const Reception& r) {
    const auto vi = static_cast<std::size_t>(v);
    if (!r.received || r.msg.type != MsgType::In) return;
    if (r.msg.a != group(v) || !participants[vi]) return;
    if (kb.distanceUpper(r.signalPower) > cfg.radius) return;
    switch (state[vi]) {
      case State::Active:
        state[vi] = State::Dominated;
        res.dominator[vi] = r.msg.src;
        --numActive;
        break;
      case State::InSet:
        if (r.msg.src < v) {  // conflict: yield to the smaller id
          state[vi] = State::Dominated;
          res.inSet[vi] = 0;
          res.dominator[vi] = r.msg.src;
        }
        break;
      case State::Dominated:
        if (res.dominator[vi] == kNoNode || r.msg.src < res.dominator[vi]) {
          res.dominator[vi] = r.msg.src;
        }
        break;
      default: break;
    }
  };

  int maxActiveRounds = 0;
  while (numActive > 0 && maxActiveRounds < cfg.totalRounds) {
    const std::span<const NodeId> members = partClasses.members(round);
    gated.clear();
    for (const NodeId v : members) {
      if (state[static_cast<std::size_t>(v)] == State::Active) gated.push_back(v);
    }

    // ---- Slot 1: HELLO --------------------------------------------------
    sim.step(
        gated,
        [&](NodeId v) -> Intent {
          if (sim.rng(v).bernoulli(prob[static_cast<std::size_t>(v)])) {
            sentHello[static_cast<std::size_t>(v)] = 1;
            Message m;
            m.type = MsgType::Hello;
            m.src = v;
            m.a = group(v);
            return Intent::transmit(channel(v), m);
          }
          return Intent::listen(channel(v));
        },
        [&](NodeId v, const Reception& r) {
          if (!r.received || r.msg.type != MsgType::Hello) return;
          if (r.msg.a != group(v)) return;  // another group's election
          // r-neighbor check, plus Def. 4's interference bound if enabled.
          if (kb.distanceUpper(r.signalPower) > cfg.radius) return;
          if (cfg.requireClear && r.interference() > ts) return;
          clearHelloFrom[static_cast<std::size_t>(v)] = r.msg.src;
        });

    // ---- Slot 2: ACK ----------------------------------------------------
    sim.step(
        gated,
        [&](NodeId v) -> Intent {
          const NodeId target = clearHelloFrom[static_cast<std::size_t>(v)];
          if (target != kNoNode && sim.rng(v).bernoulli(cfg.ackProb)) {
            Message m;
            m.type = MsgType::Ack;
            m.src = v;
            m.dst = target;
            return Intent::transmit(channel(v), m);
          }
          return Intent::listen(channel(v));
        },
        [&](NodeId v, const Reception& r) {
          if (!sentHello[static_cast<std::size_t>(v)]) return;
          if (!r.received || r.msg.type != MsgType::Ack || r.msg.dst != v) return;
          if (kb.distanceUpper(r.signalPower) <= cfg.radius) {
            gotAck[static_cast<std::size_t>(v)] = 1;
          }
        });

    // ---- Slot 3: IN -------------------------------------------------------
    sim.step(members, inSlotIntent, inSlotReceive);

    // Joiners enter S and halt.
    for (const NodeId v : gated) {
      const auto vi = static_cast<std::size_t>(v);
      if (sentHello[vi] && gotAck[vi] && state[vi] == State::Active) {
        state[vi] = State::InSet;
        res.inSet[vi] = 1;
        --numActive;
      }
    }

    // Advance per-node active-round counters and the doubling schedule,
    // and clear the slot scratch (only gated nodes ever set it).
    for (const NodeId v : gated) {
      const auto vi = static_cast<std::size_t>(v);
      sentHello[vi] = 0;
      clearHelloFrom[vi] = kNoNode;
      gotAck[vi] = 0;
      ++activeRounds[vi];
      maxActiveRounds = std::max(maxActiveRounds, activeRounds[vi]);
      if (cfg.epochRounds > 0 && activeRounds[vi] % cfg.epochRounds == 0) {
        if (cfg.cycleProb && prob[vi] >= cfg.capProb) {
          prob[vi] = cfg.initialProb;  // decay cycle restart
        } else {
          prob[vi] = std::min(prob[vi] * 2.0, cfg.capProb);
        }
      }
    }
    ++round;
    res.slotsUsed += 3;
  }
  res.roundsRun = maxActiveRounds;

  // ---- Resolution tail: settle member conflicts and give stragglers a
  // last chance to hear a member before survivors self-elect --------------
  const int tailRounds =
      std::max(12, cfg.totalRounds / 4) * std::max(1, cfg.tdma.period);
  for (int t = 0; t < tailRounds; ++t) {
    sim.step(partClasses.members(round), inSlotIntent, inSlotReceive);
    ++round;
    ++res.slotsUsed;
  }

  if (cfg.selfElectSurvivors) {
    for (NodeId v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] == State::Active) {
        res.inSet[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return res;
}

RulingSetAudit auditRulingSet(const Network& net, const std::vector<char>& participants,
                              const RulingSetResult& rs, double radius) {
  RulingSetAudit audit;
  std::vector<NodeId> members;
  std::vector<Vec2> memberPos;
  for (NodeId v = 0; v < net.size(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!participants[vi]) continue;
    if (rs.inSet[vi]) {
      members.push_back(v);
      memberPos.push_back(net.positions()[vi]);
    } else if (rs.dominator[vi] == kNoNode ||
               net.distance(v, rs.dominator[vi]) > 2.0 * radius) {
      ++audit.unbound;
    }
  }
  audit.members = static_cast<int>(members.size());
  if (members.empty()) return audit;

  // Grid-accelerated pair counting: the former all-pairs scan was
  // O(members^2), which a self-elected million-node set turns into 10^12
  // distance evaluations.  Cells are at least `radius` wide, and wide
  // enough that the grid has O(members) cells however sparse the set is
  // in its bounding box (cells of side `radius` over a 1000 x 1000 field
  // would be 69M cells for 10^6 members).  Each pair within the gather
  // radius is visited once; the decision predicate stays the literal
  // net.distance(u, v) <= radius of the all-pairs version (the slightly
  // inflated gather radius only protects candidate gathering from the
  // squared-distance rounding at the boundary), so every count is
  // identical.
  double minX = memberPos[0].x, maxX = minX, minY = memberPos[0].y, maxY = minY;
  for (const Vec2& p : memberPos) {
    minX = std::min(minX, p.x);
    maxX = std::max(maxX, p.x);
    minY = std::min(minY, p.y);
    maxY = std::max(maxY, p.y);
  }
  // (w/c + 1)(h/c + 1) = wh/c^2 + (w + h)/c + 1 cells: each of the first
  // two terms is at most m once c >= sqrt(wh/m) and c >= (w + h)/m.
  const double m = static_cast<double>(members.size());
  const double w = maxX - minX, h = maxY - minY;
  const double cell = std::max({radius, 1e-12, std::sqrt(w * h / m), (w + h) / m});
  const GridIndex memberGrid(memberPos, cell);
  // Every member is in its own ball (d = 0); the pairs add one to each side.
  std::vector<int> inBall(members.size(), 0.0 <= radius ? 1 : 0);
  memberGrid.forEachPairWithin(radius * (1.0 + 1e-12), [&](NodeId a, NodeId b, double) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (net.distance(members[ai], members[bi]) <= radius) {
      ++inBall[ai];
      ++inBall[bi];
      ++audit.independenceViolations;
    }
  });
  audit.maxDensity = *std::max_element(inBall.begin(), inBall.end());
  return audit;
}

}  // namespace mcs
