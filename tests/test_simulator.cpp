#include <gtest/gtest.h>

#include "test_support.h"

namespace mcs {
namespace {

TEST(Simulator, SlotCounting) {
  Network net({{0, 0}, {0.5, 0}}, SinrParams{});
  Simulator sim(net, 2, 1);
  EXPECT_EQ(sim.slots(), 0u);
  for (int i = 0; i < 5; ++i) {
    sim.step(sim.allNodes(), [](NodeId) { return Intent::idle(); },
             [](NodeId, const Reception&) {});
  }
  EXPECT_EQ(sim.slots(), 5u);
}

TEST(Simulator, ListenersGetCallbacks) {
  Network net({{0, 0}, {0.5, 0}}, SinrParams{});
  Simulator sim(net, 1, 1);
  int callbacks = 0;
  sim.step(sim.allNodes(), [](NodeId v) {
        return v == 0 ? Intent::transmit(0, {}) : Intent::listen(0);
      },
      [&](NodeId v, const Reception& r) {
        EXPECT_EQ(v, 1);
        EXPECT_TRUE(r.received);
        ++callbacks;
      });
  EXPECT_EQ(callbacks, 1);
}

TEST(Simulator, PerNodeRngsDiffer) {
  Network net({{0, 0}, {0.5, 0}, {0.2, 0.2}}, SinrParams{});
  Simulator sim(net, 1, 9);
  const auto a = sim.rng(0)();
  const auto b = sim.rng(1)();
  const auto c = sim.rng(2)();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Simulator, SeedDeterminism) {
  const auto run = [](std::uint64_t seed) {
    Network net = test::makeUniformNetwork(50, 1.0, 3);
    Simulator sim(net, 2, seed);
    std::uint64_t decodes = 0;
    for (int t = 0; t < 50; ++t) {
      sim.step(sim.allNodes(), [&](NodeId v) {
            return sim.rng(v).bernoulli(0.2)
                       ? Intent::transmit(static_cast<ChannelId>(v % 2), {})
                       : Intent::listen(static_cast<ChannelId>(v % 2));
          },
          [&](NodeId, const Reception& r) { decodes += r.received; });
    }
    return decodes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // overwhelmingly likely
}

TEST(Simulator, SafetyCapThrows) {
  Tuning tun;
  tun.safetyCapSlots = 10;
  Network net({{0, 0}, {0.5, 0}}, SinrParams{}, tun);
  Simulator sim(net, 1, 1);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          sim.step(sim.allNodes(), [](NodeId) { return Intent::idle(); },
                   [](NodeId, const Reception&) {});
        }
      },
      std::runtime_error);
}

TEST(Simulator, MediumStatsExposed) {
  Network net({{0, 0}, {0.5, 0}}, SinrParams{});
  Simulator sim(net, 1, 1);
  sim.step(sim.allNodes(),
           [](NodeId v) { return v == 0 ? Intent::transmit(0, {}) : Intent::listen(0); },
           [](NodeId, const Reception&) {});
  EXPECT_EQ(sim.mediumStats().transmissions, 1u);
  EXPECT_EQ(sim.mediumStats().decodes, 1u);
}

}  // namespace
}  // namespace mcs
