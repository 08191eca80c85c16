#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "test_support.h"

/// The telemetry subsystem: counter/timer determinism across thread
/// counts, the never-feeds-back contract (enabled vs disabled runs are
/// bit-identical), the bounded trace ring and its Chrome-JSON round trip,
/// and the thread-safe log helpers.
namespace mcs {
namespace {

/// Arms metrics around a test and restores the global disabled default
/// (the registry is process-wide; every other test expects it dark).
struct TelemetryGuard {
  explicit TelemetryGuard(bool metrics = true) {
    telemetry::resetMetrics();
    telemetry::setEnabled(metrics);
  }
  ~TelemetryGuard() {
    telemetry::setEnabled(false);
    telemetry::setTraceEnabled(false);
    telemetry::resetMetrics();
  }
};

/// A small mixed-intent workload for direct Medium runs.
struct MediumWorkload {
  std::vector<Vec2> pts;
  std::vector<Intent> intents;

  MediumWorkload(int n, int channels, std::uint64_t seed) {
    Rng rng(seed);
    pts = deployUniformSquare(n, 1.2, rng);
    intents.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
      intents[static_cast<std::size_t>(v)] =
          rng.bernoulli(0.1) ? Intent::transmit(c, {}) : Intent::listen(c);
    }
  }
};

// -------------------------------------------------------------- registry

TEST(TelemetryRegistry, IdsAreIdempotentAndDistinct) {
  const telemetry::CounterId a = telemetry::counterId("test.registry.a");
  const telemetry::CounterId b = telemetry::counterId("test.registry.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, telemetry::counterId("test.registry.a"));
  EXPECT_EQ(b, telemetry::counterId("test.registry.b"));
  // Counter and timer namespaces are independent.
  const telemetry::TimerId t = telemetry::timerId("test.registry.a");
  EXPECT_EQ(t, telemetry::timerId("test.registry.a"));
}

TEST(TelemetryRegistry, DisabledRecordsNothing) {
  telemetry::setEnabled(false);
  const telemetry::CounterId c = telemetry::counterId("test.disabled.counter");
  const telemetry::TimerId t = telemetry::timerId("test.disabled.timer");
  const telemetry::MetricsSnapshot before = telemetry::snapshotMetrics();
  telemetry::counterAdd(c, 7);
  { const telemetry::PhaseTimer timer(t); }
  const telemetry::MetricsSnapshot delta = telemetry::snapshotMetrics().diff(before);
  EXPECT_EQ(delta.counterOr("test.disabled.counter"), 0u);
  const telemetry::TimerSample* ts = delta.findTimer("test.disabled.timer");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 0u);
}

TEST(TelemetryRegistry, CountersTimersAndDiff) {
  const TelemetryGuard guard;
  const telemetry::CounterId c = telemetry::counterId("test.basic.counter");
  const telemetry::TimerId t = telemetry::timerId("test.basic.timer");

  telemetry::counterAdd(c, 5);
  for (int i = 0; i < 3; ++i) {
    const telemetry::PhaseTimer timer(t);
  }
  const telemetry::MetricsSnapshot mid = telemetry::snapshotMetrics();
  EXPECT_EQ(mid.counterOr("test.basic.counter"), 5u);
  const telemetry::TimerSample* ts = mid.findTimer("test.basic.timer");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->count, 3u);
  EXPECT_GE(ts->totalSec, 0.0);
  EXPECT_GE(ts->maxSec, 0.0);

  telemetry::counterAdd(c, 2);
  { const telemetry::PhaseTimer timer(t); }
  const telemetry::MetricsSnapshot delta = telemetry::snapshotMetrics().diff(mid);
  EXPECT_EQ(delta.counterOr("test.basic.counter"), 2u);
  const telemetry::TimerSample* dts = delta.findTimer("test.basic.timer");
  ASSERT_NE(dts, nullptr);
  EXPECT_EQ(dts->count, 1u);

  // Snapshots are name-sorted (the determinism substrate).
  for (std::size_t i = 1; i < mid.counters.size(); ++i) {
    EXPECT_LT(mid.counters[i - 1].name, mid.counters[i].name);
  }
  for (std::size_t i = 1; i < mid.timers.size(); ++i) {
    EXPECT_LT(mid.timers[i - 1].name, mid.timers[i].name);
  }
}

TEST(TelemetryRegistry, SnapshotJsonShape) {
  const TelemetryGuard guard;
  telemetry::counterAdd(telemetry::counterId("test.json.counter"), 3);
  { const telemetry::PhaseTimer t(telemetry::timerId("test.json.timer")); }
  const Json j = telemetry::snapshotMetrics().toJson();
  // Round-trip through the parser: the export is real JSON.
  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::parse(j.dump(), parsed, err)) << err;
  const Json* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->numberAt("test.json.counter"), 3.0);
  const Json* timers = parsed.find("timers");
  ASSERT_NE(timers, nullptr);
  const Json* timer = timers->find("test.json.timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_DOUBLE_EQ(timer->numberAt("count"), 1.0);
  EXPECT_GE(timer->numberAt("total_sec"), 0.0);
}

// ---------------------------------------------- determinism across threads

/// Engine counters are sums of per-listener work: how the listener loop is
/// partitioned across lanes must not change the totals.
TEST(TelemetryDeterminism, MediumCountersThreadCountInvariant) {
  const MediumWorkload w(600, 2, 11);
  SinrParams params;
  params = params.withRange(1.0);

  const auto countersWithThreads = [&](int threads) {
    const TelemetryGuard guard;
    Medium medium(params, 2, threads);
    std::vector<Reception> rx;
    for (int slot = 0; slot < 5; ++slot) {
      medium.resolveSlot(w.pts, w.intents, activeNodes(w.intents), rx);
    }
    return telemetry::snapshotMetrics();
  };
  const telemetry::MetricsSnapshot one = countersWithThreads(1);
  const telemetry::MetricsSnapshot four = countersWithThreads(4);

  ASSERT_EQ(one.counters.size(), four.counters.size());
  for (std::size_t i = 0; i < one.counters.size(); ++i) {
    EXPECT_EQ(one.counters[i].name, four.counters[i].name);
    EXPECT_EQ(one.counters[i].value, four.counters[i].value)
        << "counter " << one.counters[i].name << " depends on thread count";
  }
  EXPECT_EQ(one.counterOr("medium.slots"), 5u);
  EXPECT_GT(one.counterOr("medium.tx_intents"), 0u);
  EXPECT_GT(one.counterOr("medium.decode_candidates"), 0u);
}

TEST(TelemetryDeterminism, ScenarioBatchCountersThreadCountInvariant) {
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioKey(spec, "n", "150", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "channels", "2", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "protocol", "agg_max", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "seeds", "3", err)) << err;
  ASSERT_EQ(validateScenario(spec), "");

  const auto countersWithThreads = [&](int threads) {
    const TelemetryGuard guard;
    const ScenarioBatchResult batch = runScenarioBatch(spec, threads);
    EXPECT_EQ(batch.failures(), 0);
    return telemetry::snapshotMetrics();
  };
  const telemetry::MetricsSnapshot one = countersWithThreads(1);
  const telemetry::MetricsSnapshot three = countersWithThreads(3);

  ASSERT_EQ(one.counters.size(), three.counters.size());
  for (std::size_t i = 0; i < one.counters.size(); ++i) {
    EXPECT_EQ(one.counters[i].name, three.counters[i].name);
    EXPECT_EQ(one.counters[i].value, three.counters[i].value)
        << "counter " << one.counters[i].name << " depends on batch lanes";
  }
  // Timer *counts* are deterministic too (durations of course are not).
  for (const telemetry::TimerSample& t : one.timers) {
    const telemetry::TimerSample* other = three.findTimer(t.name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(t.count, other->count) << "timer " << t.name;
  }
}

// ----------------------------------------- the never-feeds-back contract

/// Telemetry must be write-only: arming it cannot change a Reception.
/// Fading exercises the counter-keyed draw path where an accidental RNG
/// perturbation would show up immediately.
TEST(TelemetryDeterminism, EnabledRunBitIdenticalToDisabled) {
  const MediumWorkload w(400, 2, 29);
  SinrParams params;
  params = params.withRange(1.0);
  params.fading.model = FadingModel::RayleighLognormal;
  params.mediumMode = MediumMode::NearFar;

  const auto receptions = [&](bool withTelemetry) {
    const TelemetryGuard guard(withTelemetry);
    if (withTelemetry) telemetry::setTraceEnabled(true, 1024);
    Medium medium(params, 2);
    medium.seedFading(77);
    std::vector<Reception> rx;
    std::vector<Reception> all;
    for (int slot = 0; slot < 4; ++slot) {
      medium.resolveSlot(w.pts, w.intents, activeNodes(w.intents), rx);
      all.insert(all.end(), rx.begin(), rx.end());
    }
    return all;
  };
  const std::vector<Reception> off = receptions(false);
  const std::vector<Reception> on = receptions(true);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].received, on[i].received) << i;
    EXPECT_EQ(off[i].sinr, on[i].sinr) << i;              // bitwise: no tolerance
    EXPECT_EQ(off[i].signalPower, on[i].signalPower) << i;
    EXPECT_EQ(off[i].totalPower, on[i].totalPower) << i;
  }
}

/// The dynamics step's timers and counters observe the drift sampler
/// without steering it: an armed mobile run with churn reports the same
/// metrics, drift statistics included, as a disarmed one.
TEST(TelemetryDeterminism, ArmedDynamicsRunMatchesDisarmed) {
  ScenarioSpec spec;
  std::string err;
  for (const auto& [key, value] :
       {std::pair{"n", "150"}, std::pair{"channels", "2"}, std::pair{"protocol", "agg_max"},
        std::pair{"mobility", "random_walk"}, std::pair{"mobility_speed", "2e-3"},
        std::pair{"mobility_sample_every", "8"}, std::pair{"churn_departure_rate", "1e-3"},
        std::pair{"churn_arrival_rate", "1e-2"}}) {
    ASSERT_TRUE(applyScenarioKey(spec, key, value, err)) << err;
  }
  ASSERT_EQ(validateScenario(spec), "");
  const SeedResult off = [&] {
    const TelemetryGuard guard(false);
    return runScenarioSeed(spec, 5);
  }();
  const TelemetryGuard guard;
  const SeedResult on = runScenarioSeed(spec, 5);
  ASSERT_TRUE(off.error.empty()) << off.error;
  EXPECT_EQ(off.slots, on.slots);
  EXPECT_EQ(off.metrics, on.metrics);
  ASSERT_NE(on.metrics.find("edge_churn_per_slot"), nullptr);

  const telemetry::MetricsSnapshot s = telemetry::snapshotMetrics();
  EXPECT_GT(s.counterOr("dynamics.band_rebuilds"), 0u);
  EXPECT_GT(s.counterOr("dynamics.band_pairs"), 0u);
  const telemetry::TimerSample* advance = s.findTimer("mobility.advance");
  const telemetry::TimerSample* sample = s.findTimer("dynamics.sample_graph");
  ASSERT_NE(advance, nullptr);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(advance->count, on.slots);
  EXPECT_EQ(sample->count, on.slots / 8 + 2);  // set-up, every 8th slot, final
  const telemetry::TimerSample* collect = s.findTimer("sim.collect_intents");
  ASSERT_NE(collect, nullptr);
  EXPECT_EQ(collect->count, on.slots);
}

/// The Simulator's own phases are write-only too, and its work counter
/// shows the candidate lists at work: a TDMA-scheduled static run visits
/// far fewer intents than n per slot.
TEST(TelemetryDeterminism, ArmedSimulatorPhasesMatchDisarmed) {
  ScenarioSpec spec;
  std::string err;
  for (const auto& [key, value] :
       {std::pair{"n", "300"}, std::pair{"channels", "4"}, std::pair{"protocol", "agg_max"}}) {
    ASSERT_TRUE(applyScenarioKey(spec, key, value, err)) << err;
  }
  ASSERT_EQ(validateScenario(spec), "");
  const SeedResult off = [&] {
    const TelemetryGuard guard(false);
    return runScenarioSeed(spec, 3);
  }();
  const TelemetryGuard guard;
  const SeedResult on = runScenarioSeed(spec, 3);
  ASSERT_TRUE(off.error.empty()) << off.error;
  EXPECT_EQ(off.slots, on.slots);
  EXPECT_EQ(off.decodes, on.decodes);
  EXPECT_EQ(off.metrics, on.metrics);

  const telemetry::MetricsSnapshot s = telemetry::snapshotMetrics();
  const telemetry::TimerSample* collect = s.findTimer("sim.collect_intents");
  const telemetry::TimerSample* deliver = s.findTimer("sim.deliver");
  ASSERT_NE(collect, nullptr);
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(collect->count, on.slots);
  EXPECT_EQ(deliver->count, on.slots);
  const std::uint64_t evaluated = s.counterOr("sim.intents_evaluated");
  EXPECT_GT(evaluated, 0u);
  EXPECT_LT(evaluated, on.slots * 300 / 2);
}

// ------------------------------------------------------------------ trace

TEST(TelemetryTrace, RingBoundsAndChromeJsonRoundTrip) {
  const TelemetryGuard guard;
  telemetry::setTraceEnabled(true, 8);
  const telemetry::TraceNameId name = telemetry::traceName("test.trace.instant");
  const telemetry::TraceNameId span = telemetry::traceName("test.trace.span");
  for (int i = 0; i < 20; ++i) telemetry::traceInstant(name, i);
  { const telemetry::TraceScope scope(span, 42); }
  // 21 events through a ring of 8: only the last 8 survive.
  EXPECT_EQ(telemetry::traceEventCount(), 8u);

  const Json j = telemetry::traceToJson();
  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::parse(j.dump(), parsed, err)) << err;
  const Json* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->items().size(), 8u);
  bool sawSpan = false;
  double prevTs = 0.0;
  for (const Json& e : events->items()) {
    ASSERT_TRUE(e.isObject());
    EXPECT_FALSE(e.stringAt("name").empty());
    const std::string ph = e.stringAt("ph");
    EXPECT_TRUE(ph == "X" || ph == "i");
    const Json* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_TRUE(ts->isNumber());
    EXPECT_GE(ts->asDouble(), prevTs);  // sorted by start time
    prevTs = ts->asDouble();
    if (ph == "X") {
      sawSpan = true;
      EXPECT_NE(e.find("dur"), nullptr);
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->numberAt("v"), 42.0);
    }
  }
  EXPECT_TRUE(sawSpan);
  // The first surviving event is rebased to ts = 0.
  EXPECT_DOUBLE_EQ(events->items().front().numberAt("ts"), 0.0);

  // File round trip (what --trace-out writes and trace_check reads).
  const std::string path = testing::TempDir() + "mcs_trace_roundtrip.json";
  ASSERT_TRUE(telemetry::writeTraceFile(path, err)) << err;
  Json fromFile;
  ASSERT_TRUE(Json::parseFile(path, fromFile, err)) << err;
  ASSERT_NE(fromFile.find("traceEvents"), nullptr);
  EXPECT_EQ(fromFile.find("traceEvents")->items().size(), 8u);
  std::remove(path.c_str());
}

TEST(TelemetryTrace, SimulatorEmitsSlotSpans) {
  const TelemetryGuard guard;
  telemetry::setTraceEnabled(true, 4096);
  Network net = test::makeUniformNetwork(60, 1.0, 5);
  Simulator sim(net, 2, 5);
  for (int i = 0; i < 3; ++i) {
    sim.step(sim.allNodes(), [](NodeId) { return Intent::listen(0); },
             [](NodeId, const Reception&) {});
  }
  const Json j = telemetry::traceToJson();
  const Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int slotSpans = 0;
  for (const Json& e : events->items()) {
    if (e.stringAt("name") == "slot" && e.stringAt("ph") == "X") ++slotSpans;
  }
  EXPECT_EQ(slotSpans, 3);
}

// -------------------------------------------------------------------- log

TEST(TelemetryLog, WarnOnceDeduplicatesByKey) {
  EXPECT_TRUE(logWarnOnce("test.warn_once.key_a", "first time: logged"));
  EXPECT_FALSE(logWarnOnce("test.warn_once.key_a", "second time: suppressed"));
  EXPECT_FALSE(logWarnOnce("test.warn_once.key_a", "still suppressed"));
  EXPECT_TRUE(logWarnOnce("test.warn_once.key_b", "different key: logged"));
}

}  // namespace
}  // namespace mcs
