#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "agg/aggregate.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/network.h"
#include "sim/simulator.h"

/// The scenario engine: spec parsing, the preset registry, and the
/// per-seed execution contract (bit-identical to directly-wired runs).
namespace mcs {
namespace {

// ---------------------------------------------------------------- parsing

TEST(ScenarioSpec, AppliesKeys) {
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioKey(spec, "deployment", "corridor", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "n", "123", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "length", "2.5", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "channels", "4", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "protocol", "agg_sum", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "fading", "lognormal", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "shadow_sigma_db", "3.5", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "medium_mode", "nearfar", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "seeds", "5", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "seed0", "100", err)) << err;
  EXPECT_EQ(spec.deployment.kind, DeploymentKind::Corridor);
  EXPECT_EQ(spec.deployment.n, 123);
  EXPECT_DOUBLE_EQ(spec.deployment.length, 2.5);
  EXPECT_EQ(spec.channels, 4);
  EXPECT_EQ(spec.protocol, ProtocolKind::AggregateSum);
  EXPECT_EQ(spec.sinr.fading.model, FadingModel::Lognormal);
  EXPECT_DOUBLE_EQ(spec.sinr.fading.shadowSigmaDb, 3.5);
  EXPECT_EQ(spec.sinr.mediumMode, MediumMode::NearFar);
  EXPECT_EQ(spec.seeds, 5);
  EXPECT_EQ(spec.seed0, 100u);
  EXPECT_EQ(validateScenario(spec), "");
}

TEST(ScenarioSpec, RangeKeyRescalesNoise) {
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioKey(spec, "range", "2", err)) << err;
  EXPECT_NEAR(spec.sinr.transmissionRange(), 2.0, 1e-12);
}

TEST(ScenarioSpec, RejectsUnknownKey) {
  ScenarioSpec spec;
  std::string err;
  EXPECT_FALSE(applyScenarioKey(spec, "definitely_not_a_key", "1", err));
  EXPECT_NE(err.find("definitely_not_a_key"), std::string::npos);
}

TEST(ScenarioSpec, RejectsMalformedValues) {
  ScenarioSpec spec;
  std::string err;
  EXPECT_FALSE(applyScenarioKey(spec, "n", "12x", err));
  EXPECT_NE(err.find("malformed"), std::string::npos);
  EXPECT_FALSE(applyScenarioKey(spec, "alpha", "three", err));
  EXPECT_FALSE(applyScenarioKey(spec, "deployment", "donut", err));
  EXPECT_FALSE(applyScenarioKey(spec, "protocol", "magic", err));
  EXPECT_FALSE(applyScenarioKey(spec, "fading", "sunny", err));
  // Integers an int field cannot hold are refused, not wrapped.
  EXPECT_FALSE(applyScenarioKey(spec, "n", "4294967297", err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_FALSE(applyScenarioKey(spec, "channels", "-2147483649", err));
  // Nothing was modified by the failed assignments.
  EXPECT_EQ(spec.deployment.n, ScenarioSpec{}.deployment.n);
}

TEST(ScenarioSpec, ValidateCatchesCrossFieldErrors) {
  ScenarioSpec spec;
  spec.deployment.n = 0;
  EXPECT_NE(validateScenario(spec), "");
  spec = ScenarioSpec{};
  spec.protocol = ProtocolKind::Aloha;  // channels defaults to 8
  EXPECT_NE(validateScenario(spec), "");
  spec.channels = 1;
  EXPECT_EQ(validateScenario(spec), "");
  spec = ScenarioSpec{};
  spec.sinr.fading.shadowSigmaDb = -1.0;
  EXPECT_NE(validateScenario(spec), "");
}

TEST(ScenarioSpec, HierModeAndThetaRoundTrip) {
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioKey(spec, "medium_mode", "hier", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "hier_theta", "0.25", err)) << err;
  EXPECT_EQ(spec.sinr.mediumMode, MediumMode::Hierarchical);
  EXPECT_DOUBLE_EQ(spec.sinr.hierTheta, 0.25);
  EXPECT_EQ(validateScenario(spec), "");

  // Serialize -> reparse preserves the mode and the knob.
  const std::string kv = scenarioToKeyValues(spec);
  EXPECT_NE(kv.find("medium_mode = hier"), std::string::npos) << kv;
  EXPECT_NE(kv.find("hier_theta = 0.25"), std::string::npos) << kv;

  // theta must lie in (0, 1]: 0 and >1 are cross-field validation errors.
  spec.sinr.hierTheta = 0.0;
  EXPECT_NE(validateScenario(spec), "");
  spec.sinr.hierTheta = 1.5;
  EXPECT_NE(validateScenario(spec), "");
  spec.sinr.hierTheta = 1.0;
  EXPECT_EQ(validateScenario(spec), "");
}

TEST(ScenarioSpec, LoadsScenarioFile) {
  const std::string path = ::testing::TempDir() + "scenario_test_spec.txt";
  {
    std::ofstream f(path);
    f << "# sensor mesh, impaired\n"
      << "name = mesh_test\n"
      << "deployment = poisson_disk   # inline comment\n"
      << "n = 64\n"
      << "side = 1.2\n"
      << "min_dist = 0.03\n"
      << "\n"
      << "fading = rayleigh\n"
      << "channels = 2\n";
  }
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(loadScenarioFile(spec, path, err)) << err;
  EXPECT_EQ(spec.name, "mesh_test");
  EXPECT_EQ(spec.deployment.kind, DeploymentKind::PoissonDisk);
  EXPECT_EQ(spec.deployment.n, 64);
  EXPECT_DOUBLE_EQ(spec.deployment.minDist, 0.03);
  EXPECT_EQ(spec.sinr.fading.model, FadingModel::Rayleigh);
  EXPECT_EQ(spec.channels, 2);
  std::remove(path.c_str());
}

TEST(ScenarioSpec, ScenarioFileErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "scenario_bad_spec.txt";
  {
    std::ofstream f(path);
    f << "n = 10\n"
      << "not a key value line\n";
  }
  ScenarioSpec spec;
  std::string err;
  EXPECT_FALSE(loadScenarioFile(spec, path, err));
  EXPECT_NE(err.find(":2:"), std::string::npos) << err;
  std::remove(path.c_str());

  EXPECT_FALSE(loadScenarioFile(spec, "/nonexistent/file.scenario", err));
}

TEST(ScenarioSpec, ArgsOverridesRespectReservedAndRejectUnknown) {
  const char* argv[] = {"prog", "--scenario=uniform_square", "--n=42", "--fading=rayleigh"};
  const Args args(4, argv);
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioArgs(spec, args, {"scenario"}, err)) << err;
  EXPECT_EQ(spec.deployment.n, 42);
  EXPECT_EQ(spec.sinr.fading.model, FadingModel::Rayleigh);

  // Without the reservation, "scenario" is an unknown spec key: loud.
  ScenarioSpec fresh;
  EXPECT_FALSE(applyScenarioArgs(fresh, args, {}, err));
}

// --------------------------------------------------------------- registry

TEST(ScenarioRegistry, EveryPresetIsFindableAndValid) {
  const auto names = ScenarioRegistry::names();
  ASSERT_GE(names.size(), 10u);
  for (const std::string& name : names) {
    ScenarioSpec spec;
    ASSERT_TRUE(ScenarioRegistry::find(name, spec)) << name;
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(validateScenario(spec), "") << name << ": " << validateScenario(spec);
    EXPECT_FALSE(describeScenario(spec).empty());
  }
  ScenarioSpec spec;
  EXPECT_FALSE(ScenarioRegistry::find("no_such_preset", spec));
}

TEST(ScenarioRegistry, CoversEveryDeploymentKind) {
  bool seen[8] = {};
  for (const std::string& name : ScenarioRegistry::names()) {
    ScenarioSpec spec;
    ASSERT_TRUE(ScenarioRegistry::find(name, spec));
    seen[static_cast<std::size_t>(spec.deployment.kind)] = true;
  }
  for (int k = 0; k < 8; ++k) EXPECT_TRUE(seen[k]) << "DeploymentKind " << k << " uncovered";
}

// ---------------------------------------------------------------- engine

/// Small, fast spec used by the execution tests.
ScenarioSpec smallAggSpec() {
  ScenarioSpec spec;
  spec.name = "test_small";
  spec.deployment.kind = DeploymentKind::UniformSquare;
  spec.deployment.n = 150;
  spec.deployment.side = 1.0;
  spec.channels = 4;
  spec.protocol = ProtocolKind::AggregateMax;
  spec.seeds = 2;
  spec.seed0 = 5;
  return spec;
}

TEST(ScenarioRunner, MatchesDirectlyWiredSimulatorBitwise) {
  const ScenarioSpec spec = smallAggSpec();
  const std::uint64_t seed = 5;
  const SeedResult engine = runScenarioSeed(spec, seed);
  ASSERT_TRUE(engine.error.empty()) << engine.error;

  // The documented per-seed contract, wired by hand.
  Rng deployRng(seed);
  auto pts = materializeDeployment(spec.deployment, deployRng);
  Network net(std::move(pts), spec.sinr);
  Simulator sim(net, spec.channels, seed);
  Rng vr = Rng(seed).fork(kValueStream);
  std::vector<double> values(static_cast<std::size_t>(net.size()));
  for (double& x : values) x = vr.uniform();
  const AggregationStructure s = buildStructure(sim);
  const AggregateRun run = runAggregation(sim, s, values, AggKind::Max);

  EXPECT_EQ(engine.deployedN, net.size());
  EXPECT_EQ(engine.slots, sim.mediumStats().slots);
  EXPECT_EQ(engine.decodes, sim.mediumStats().decodes);
  EXPECT_EQ(engine.listens, sim.mediumStats().listens);
  EXPECT_EQ(engine.transmissions, sim.mediumStats().transmissions);
  EXPECT_EQ(engine.structureSlots, s.costs.structureTotal());
  EXPECT_EQ(engine.metricOr("uplink_slots"), static_cast<double>(run.costs.uplink));
  EXPECT_EQ(engine.delivered, run.delivered);
  EXPECT_EQ(engine.metricOr("agg_value"), run.valueAtNode[0]);  // bitwise
  EXPECT_EQ(engine.metricOr("truth_value"), aggregateGroundTruth(values, AggKind::Max));
}

TEST(ScenarioRunner, BatchIsOrderedAndLaneCountInvariant) {
  ScenarioSpec spec = smallAggSpec();
  spec.seeds = 3;
  const ScenarioBatchResult seq = runScenarioBatch(spec, 1);
  const ScenarioBatchResult par = runScenarioBatch(spec, 3);
  ASSERT_EQ(seq.perSeed.size(), 3u);
  ASSERT_EQ(par.perSeed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seq.perSeed[i].seed, spec.seed0 + i);
    EXPECT_EQ(seq.perSeed[i].slots, par.perSeed[i].slots);
    EXPECT_EQ(seq.perSeed[i].decodes, par.perSeed[i].decodes);
    EXPECT_TRUE(seq.perSeed[i].metrics == par.perSeed[i].metrics);
    EXPECT_TRUE(seq.perSeed[i].delivered);
  }
  EXPECT_EQ(seq.failures(), 0);
  EXPECT_EQ(seq.deliveredCount(), 3);
}

TEST(ScenarioRunner, FadingRunsAreSeedDeterministic) {
  ScenarioSpec spec = smallAggSpec();
  spec.sinr.fading.model = FadingModel::RayleighLognormal;
  spec.sinr.fading.shadowSigmaDb = 3.0;
  const SeedResult a = runScenarioSeed(spec, 11);
  const SeedResult b = runScenarioSeed(spec, 11);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decodes, b.decodes);  // same seed => same decode trace
  EXPECT_EQ(a.metricOr("agg_value"), b.metricOr("agg_value"));
  EXPECT_EQ(a.delivered, b.delivered);

  const SeedResult c = runScenarioSeed(spec, 12);
  EXPECT_FALSE(a.slots == c.slots && a.decodes == c.decodes);  // new seed, new trace
}

TEST(ScenarioRunner, ExactAndNearFarAgreeUnderTheEngine) {
  // Dense instance where the far-field batching actually engages.  The
  // modes may differ in borderline decodes (documented contract), but
  // both must deliver the correct aggregate.
  ScenarioSpec spec = smallAggSpec();
  spec.deployment.n = 250;
  spec.deployment.side = 0.8;
  const SeedResult exact = runScenarioSeed(spec, 21);
  spec.sinr.mediumMode = MediumMode::NearFar;
  const SeedResult nearfar = runScenarioSeed(spec, 21);
  ASSERT_TRUE(exact.error.empty()) << exact.error;
  ASSERT_TRUE(nearfar.error.empty()) << nearfar.error;
  EXPECT_TRUE(exact.delivered);
  EXPECT_TRUE(nearfar.delivered);
  EXPECT_EQ(exact.metricOr("agg_value"), exact.metricOr("truth_value"));
  EXPECT_EQ(nearfar.metricOr("agg_value"), nearfar.metricOr("truth_value"));
  // Same seed, same values either way.
  EXPECT_EQ(exact.metricOr("truth_value"), nearfar.metricOr("truth_value"));
  EXPECT_NEAR(nearfar.decodeRate, exact.decodeRate, 0.25 * exact.decodeRate);
}

TEST(ScenarioRunner, StructureProtocolReportsCosts) {
  ScenarioSpec spec = smallAggSpec();
  spec.protocol = ProtocolKind::Structure;
  const SeedResult r = runScenarioSeed(spec, 31);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.delivered);
  EXPECT_GT(r.structureSlots, 0u);
  EXPECT_GT(r.slots, 0u);
  // Structure-only runs report clustering metrics, not aggregation ones.
  EXPECT_GE(r.metricOr("clusters"), 1.0);
  EXPECT_EQ(r.metrics.find("agg_value"), nullptr);
  EXPECT_EQ(r.validity, OutcomeValidity::Valid);
}

TEST(ScenarioRunner, FailuresAreCapturedNotThrown) {
  // runScenarioSeed is the unit the batch parallelizes, so it must trap
  // rather than propagate: an empty deployment (n = 0 bypasses the CLI's
  // validateScenario on purpose) becomes a SeedResult::error.
  ScenarioSpec spec = smallAggSpec();
  spec.deployment.n = 0;
  const SeedResult r = runScenarioSeed(spec, 41);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.delivered);

  // And a batch containing only failures reports them instead of dying.
  spec.seeds = 2;
  const ScenarioBatchResult batch = runScenarioBatch(spec, 2);
  EXPECT_EQ(batch.failures(), 2);
  EXPECT_EQ(batch.deliveredCount(), 0);
}

}  // namespace
}  // namespace mcs
