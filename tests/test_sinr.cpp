#include <gtest/gtest.h>

#include <cmath>

#include "sinr/medium.h"
#include "sinr/params.h"

namespace mcs {
namespace {

TEST(SinrParams, DefaultIsNormalized) {
  const SinrParams p;
  EXPECT_TRUE(p.valid());
  EXPECT_NEAR(p.transmissionRange(), 1.0, 1e-12);
}

TEST(SinrParams, WithRangeRescales) {
  const SinrParams p = SinrParams{}.withRange(2.5);
  EXPECT_NEAR(p.transmissionRange(), 2.5, 1e-12);
}

TEST(SinrParams, RxPowerInverseSquareCube) {
  const SinrParams p;  // alpha = 3
  EXPECT_NEAR(p.rxPower(2.0), p.power / 8.0, 1e-12);
  EXPECT_NEAR(p.rxPower(0.5), p.power * 8.0, 1e-12);
}

TEST(SinrParams, DistanceFromPowerRoundTrip) {
  const SinrParams p;
  for (const double d : {0.05, 0.3, 0.9, 1.7}) {
    EXPECT_NEAR(p.distanceFromPower(p.rxPower(d)), d, 1e-9);
  }
}

TEST(SinrParams, ClearThresholdFormula) {
  SinrParams p;
  p.alpha = 3.0;
  p.beta = 1.5;
  p.noise = 2.0;
  // T_s = N * min{(2^a - 1)/2^a, beta/2^a} = 2 * min{7/8, 1.5/8}.
  EXPECT_NEAR(p.clearThreshold(), 2.0 * 1.5 / 8.0, 1e-12);
}

TEST(SinrParams, Lemma2FactorPositiveAndSmall) {
  const SinrParams p;
  const double t = p.lemma2Factor();
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
}

TEST(SinrParams, ValidityChecks) {
  SinrParams p;
  p.alpha = 2.0;
  EXPECT_FALSE(p.valid());
  p = SinrParams{};
  p.beta = 0.5;
  EXPECT_FALSE(p.valid());
  p = SinrParams{};
  p.noise = 0.0;
  EXPECT_FALSE(p.valid());
}

TEST(SinrBounds, ExactHasTrueValues) {
  const SinrParams p;
  const SinrBounds b = SinrBounds::exact(p);
  EXPECT_EQ(b.alphaMin, p.alpha);
  EXPECT_EQ(b.alphaMax, p.alpha);
  EXPECT_NEAR(b.rangeLower(), p.transmissionRange(), 1e-12);
  EXPECT_NEAR(b.clearThresholdLower(), p.clearThreshold(), 1e-12);
}

TEST(SinrBounds, AroundIsConservative) {
  const SinrParams p;
  const SinrBounds b = SinrBounds::around(p, 0.2);
  EXPECT_LE(b.alphaMin, p.alpha);
  EXPECT_GE(b.alphaMax, p.alpha);
  // Conservative range never exceeds the true one under worse params.
  EXPECT_LE(b.rangeLower(), p.transmissionRange() + 1e-12);
  // Conservative clear threshold never exceeds the exact one.
  EXPECT_LE(b.clearThresholdLower(), p.clearThreshold() + 1e-12);
  // Distance upper bound >= true distance.
  for (const double d : {0.1, 0.5, 0.9}) {
    EXPECT_GE(b.distanceUpper(p.rxPower(d)) + 1e-12, d);
  }
}

// ---------------------------------------------------------------------------
// Medium
// ---------------------------------------------------------------------------

struct MediumFixture : ::testing::Test {
  SinrParams params{};
  std::vector<Vec2> pos;
  std::vector<Intent> intents;
  std::vector<Reception> rx;

  Reception run(int channels = 1) {
    Medium medium(params, channels);
    medium.resolveSlot(pos, intents, activeNodes(intents), rx);
    for (std::size_t i = 0; i < intents.size(); ++i) {
      if (intents[i].action == Action::Listen) return rx[i];
    }
    return {};
  }
};

TEST_F(MediumFixture, SingleTransmitterInRangeDecodes) {
  pos = {{0, 0}, {0.5, 0}};
  Message m;
  m.type = MsgType::Hello;
  m.src = 0;
  intents = {Intent::transmit(0, m), Intent::listen(0)};
  const Reception r = run();
  ASSERT_TRUE(r.received);
  EXPECT_EQ(r.msg.type, MsgType::Hello);
  EXPECT_EQ(r.msg.src, 0);
  EXPECT_GE(r.sinr, params.beta);
  EXPECT_NEAR(r.senderDistance, 0.5, 1e-9);
  EXPECT_NEAR(r.signalPower, params.rxPower(0.5), 1e-12);
}

TEST_F(MediumFixture, OutOfRangeFails) {
  pos = {{0, 0}, {1.01, 0}};  // just beyond R_T = 1
  intents = {Intent::transmit(0, {}), Intent::listen(0)};
  EXPECT_FALSE(run().received);
}

TEST_F(MediumFixture, AtExactRangeDecodes) {
  pos = {{0, 0}, {0.999, 0}};
  intents = {Intent::transmit(0, {}), Intent::listen(0)};
  EXPECT_TRUE(run().received);
}

TEST_F(MediumFixture, EqualDistanceCollision) {
  // Two equidistant transmitters: SINR ~ 1 < beta for both.
  pos = {{-0.3, 0}, {0.3, 0}, {0, 0}};
  intents = {Intent::transmit(0, {}), Intent::transmit(0, {}), Intent::listen(0)};
  const Reception r = run();
  EXPECT_FALSE(r.received);
  EXPECT_NEAR(r.totalPower, 2.0 * params.rxPower(0.3), 1e-12);
}

TEST_F(MediumFixture, CaptureEffect) {
  // Near transmitter dominates a far one.
  pos = {{0.05, 0}, {0.9, 0}, {0, 0}};
  Message nearMsg;
  nearMsg.src = 0;
  intents = {Intent::transmit(0, nearMsg), Intent::transmit(0, {}), Intent::listen(0)};
  const Reception r = run();
  ASSERT_TRUE(r.received);
  EXPECT_EQ(r.msg.src, 0);
  EXPECT_GT(r.interference(), 0.0);
}

TEST_F(MediumFixture, ChannelsAreIsolated) {
  // Interferer on another channel does not affect decoding.
  pos = {{0.9, 0}, {0.01, 0.01}, {0, 0}};
  Message m;
  m.src = 0;
  intents = {Intent::transmit(0, m), Intent::transmit(1, {}), Intent::listen(0)};
  const Reception r = run(2);
  ASSERT_TRUE(r.received);
  EXPECT_EQ(r.msg.src, 0);
  EXPECT_NEAR(r.totalPower, params.rxPower(0.9), 1e-12);
}

TEST_F(MediumFixture, TransmittersObserveNothing) {
  pos = {{0, 0}, {0.1, 0}};
  intents = {Intent::transmit(0, {}), Intent::transmit(0, {})};
  Medium medium(params, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_FALSE(rx[0].received);
  EXPECT_FALSE(rx[1].received);
  EXPECT_EQ(rx[0].totalPower, 0.0);
}

TEST_F(MediumFixture, SilentChannelYieldsNothing) {
  pos = {{0, 0}, {0.1, 0}};
  intents = {Intent::listen(0), Intent::listen(0)};
  const Reception r = run();
  EXPECT_FALSE(r.received);
  EXPECT_EQ(r.totalPower, 0.0);
}

TEST_F(MediumFixture, CarrierSenseSumsAllTransmitters) {
  pos = {{0.4, 0}, {0, 0.4}, {-0.4, 0}, {0, 0}};
  intents = {Intent::transmit(0, {}), Intent::transmit(0, {}), Intent::transmit(0, {}),
             Intent::listen(0)};
  Medium medium(params, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_NEAR(rx[3].totalPower, 3.0 * params.rxPower(0.4), 1e-12);
}

TEST_F(MediumFixture, StatsAccumulate) {
  pos = {{0, 0}, {0.5, 0}};
  intents = {Intent::transmit(0, {}), Intent::listen(0)};
  Medium medium(params, 1);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  medium.resolveSlot(pos, intents, activeNodes(intents), rx);
  EXPECT_EQ(medium.stats().slots, 2u);
  EXPECT_EQ(medium.stats().transmissions, 2u);
  EXPECT_EQ(medium.stats().listens, 2u);
  EXPECT_EQ(medium.stats().decodes, 2u);
  EXPECT_DOUBLE_EQ(medium.stats().decodeRate(), 1.0);
  medium.resetStats();
  EXPECT_EQ(medium.stats().slots, 0u);
}

/// Decode iff SINR condition (1) holds, across a parameter sweep.
class MediumSinrSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MediumSinrSweep, DecodeMatchesFormula) {
  const auto [alpha, beta] = GetParam();
  SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  p = p.withRange(1.0);
  Medium medium(p, 1);
  // Listener at origin; signal from d1, interferer at d2.
  for (const double d1 : {0.2, 0.5, 0.8}) {
    for (const double d2 : {0.3, 0.7, 1.5}) {
      std::vector<Vec2> pos{{d1, 0}, {0, d2}, {0, 0}};
      std::vector<Intent> intents{Intent::transmit(0, {}), Intent::transmit(0, {}),
                                  Intent::listen(0)};
      std::vector<Reception> rx;
      medium.resolveSlot(pos, intents, activeNodes(intents), rx);
      const double s1 = p.rxPower(d1), s2 = p.rxPower(d2);
      const double best = std::max(s1, s2);
      const double other = std::min(s1, s2);
      const bool shouldDecode = best >= p.beta * (p.noise + other);
      EXPECT_EQ(rx[2].received, shouldDecode)
          << "alpha=" << alpha << " beta=" << beta << " d1=" << d1 << " d2=" << d2;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MediumSinrSweep,
                         ::testing::Combine(::testing::Values(2.5, 3.0, 4.0),
                                            ::testing::Values(1.0, 1.5, 3.0)));

}  // namespace
}  // namespace mcs
