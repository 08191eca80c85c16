// perfbench_driver: the measuring half of the repository benchmark.
//
//   perfbench_driver --workload=<agg_static|agg_mobile|ruling_huge|campaign>
//                    --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// Runs one workload against the simulator library and prints one JSON
// object of raw samples on stdout (run.py turns them into metrics and
// tables).  Every layer is timed from outside: the per-seed loop below is
// the documented runScenarioSeed contract (scenario/runner.h) with a clock
// read between its steps, and everything else comes from public calls or
// from the counters and timers the library already keeps.
//
// --trace=0 measures for --seconds with telemetry off.  --trace=1 runs the
// workload's fixed seeds twice (telemetry off, then on with the trace ring
// armed), checks that both runs simulated exactly the same thing, and
// reports per-layer numbers from the armed run.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/coordinator.h"
#include "campaign/reduce.h"
#include "campaign/report.h"
#include "mobility/mobility.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/query.h"
#include "store/reader.h"
#include "sweep/spec.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/args.h"
#include "util/clock.h"
#include "util/json.h"

namespace {

using namespace mcs;

// Seeds of one benchmark seed never overlap those of the next one.
constexpr std::uint64_t kSeedStride = 1000;
// Trace ring per seed: holds every slot span of the longest workload seed.
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
// Campaign lanes.  2 workers plus the mostly idle coordinator leave half
// of a 4-CPU box free: with 3, a busy neighbour on the shared host cost
// the campaign twice the throughput it cost 2 (10% against 5%).
constexpr int kCampaignWorkers = 2;
// Open + group-by samples per campaign run; >= 100 keeps 10 beyond p90.
constexpr int kQueriesPerCampaign = 100;
constexpr int kMinQuerySamples = 200;
// Set-up is sampled at least this often per run (extra set-up-only seeds
// make up the difference on workloads with few, long seeds).
constexpr std::size_t kMinSetupSamples = 5;

struct Workload {
  std::string name;
  // Seeds that every run executes, whatever --seconds is: they fix
  // sim_slots_mean and the digest, and are the seeds the traced run uses.
  int fixedSeeds = 1;
  ScenarioSpec spec;  // scenario workloads
  std::string sweep;  // campaign workload (sweep-file text without seed0)
};

bool applyKeys(ScenarioSpec& spec, const std::vector<std::pair<std::string, std::string>>& kv,
               std::string& err) {
  for (const auto& [k, v] : kv) {
    if (!applyScenarioKey(spec, k, v, err)) return false;
  }
  err = validateScenario(spec);
  return err.empty();
}

bool makeWorkload(const std::string& name, Workload& w, std::string& err) {
  w.name = name;
  if (name == "agg_static") {
    // uniform_square at n = 3600 on side 4.2 keeps the preset's density.
    w.fixedSeeds = 4;
    if (!ScenarioRegistry::find("uniform_square", w.spec)) return err = "no preset", false;
    return applyKeys(w.spec, {{"n", "3600"}, {"side", "4.2"}}, err);
  }
  if (name == "agg_mobile") {
    // mobile_nearfar as registered.  One fixed seed: a seed costs 5-20 s,
    // and the traced run replays its mobility twice on top.
    w.fixedSeeds = 1;
    if (!ScenarioRegistry::find("mobile_nearfar", w.spec)) return err = "no preset", false;
    return applyKeys(w.spec, {}, err);
  }
  if (name == "ruling_huge") {
    // The CI smoke's reduced ruling-round budget: 18 slots per seed.
    w.fixedSeeds = 4;
    if (!ScenarioRegistry::find("huge_hier", w.spec)) return err = "no preset", false;
    return applyKeys(w.spec, {{"ruling_rounds", "2"}}, err);
  }
  if (name == "campaign") {
    // E1-shaped: aggregation slots over channels x n, 60 cells of the
    // preset's 8 seeds each.
    w.fixedSeeds = 1;
    w.sweep =
        "name = perfbench_campaign\n"
        "base = uniform_square\n"
        "side = 1.0\n"
        "sweep.channels = 1,2,4,8\n"
        "sweep.n = 60:200:10\n";
    return true;
  }
  err = "unknown workload \"" + name + "\" (agg_static, agg_mobile, ruling_huge, campaign)";
  return false;
}

// Peak resident set of this process image.  Read from VmHWM, not
// getrusage: ru_maxrss survives execve, so it would report the launcher's
// peak whenever that was larger.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Largest peak resident set among the reaped campaign workers (forked, not
// exec'd, so their ru_maxrss is their own).
double workerPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- digests

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

// ------------------------------------------------------- scenario seeds

struct SeedRun {
  std::uint64_t seed = 0;
  int n = 0;
  std::uint64_t slots = 0, tx = 0, listens = 0, decodes = 0, structureSlots = 0;
  bool delivered = false;
  OutcomeValidity validity = OutcomeValidity::NotChecked;
  MetricMap metrics;
  std::string error;
  // Host seconds of each step of the seed, measured from outside.
  double deployS = 0, networkS = 0, simulatorS = 0, driverS = 0, finalizeS = 0, teardownS = 0;
  // Kept for the mobility replay.
  std::vector<Vec2> initial;
  double rEps = 0.0;

  [[nodiscard]] double setupS() const { return deployS + networkS + simulatorS; }
  [[nodiscard]] double wallS() const { return setupS() + driverS + finalizeS + teardownS; }
  // A seed whose randomized protocol ran out of its round budget before
  // every node held the aggregate is a simulated outcome, audited Invalid
  // by the driver and counted as undelivered.  A delivered seed that does
  // not audit Valid is a wrong output.
  [[nodiscard]] bool ok() const {
    return error.empty() && (!delivered || validity == OutcomeValidity::Valid);
  }
  [[nodiscard]] bool undelivered() const { return error.empty() && !delivered; }
  [[nodiscard]] std::string problem() const {
    if (!error.empty()) return "seed " + std::to_string(seed) + " threw: " + error;
    return "seed " + std::to_string(seed) + " delivered, audited " + toString(validity);
  }
  void digest(Digest& d) const {
    d.add(seed);
    d.add(static_cast<std::uint64_t>(n));
    d.add(slots);
    d.add(tx);
    d.add(listens);
    d.add(decodes);
    d.add(structureSlots);
    d.add(static_cast<std::uint64_t>(delivered));
    d.add(static_cast<std::uint64_t>(validity));
    for (const auto& [k, v] : metrics.entries()) {
      d.add(k);
      d.add(v);
    }
    d.add(error);
  }
};

// The runScenarioSeed contract, step by step, with the clock read between
// the steps.  setupOnly stops after the Simulator is built.
SeedRun runSeed(const ScenarioSpec& spec, std::uint64_t seed, bool setupOnly, bool keepInitial) {
  SeedRun r;
  r.seed = seed;
  double t = nowSec();
  const auto lap = [&t]() {
    const double now = nowSec();
    const double d = now - t;
    t = now;
    return d;
  };
  try {
    {
      Rng deployRng(seed);
      std::vector<Vec2> pts = materializeDeployment(spec.deployment, deployRng);
      r.deployS = lap();
      r.n = static_cast<int>(pts.size());
      if (pts.empty()) throw std::runtime_error("deployment produced no nodes");
      if (keepInitial) r.initial = pts;
      const SinrBounds bounds = spec.boundsWidth > 0.0
                                    ? SinrBounds::around(spec.sinr, spec.boundsWidth)
                                    : SinrBounds::exact(spec.sinr);
      Network net(std::move(pts), spec.sinr, Tuning{}, &bounds);
      r.rEps = net.rEps();
      r.networkS = lap();
      Simulator sim(net, spec.channels, seed);
      if (spec.topology.dynamic()) sim.attachDynamics(spec.topology);
      r.simulatorS = lap();
      if (!setupOnly) {
        Rng valueRng = Rng(seed).fork(kValueStream);
        ProtocolOutcome out = protocolDriver(spec.protocol).run(sim, spec, valueRng);
        r.driverS = lap();
        r.structureSlots = out.structureSlots;
        r.delivered = out.delivered;
        r.validity = out.validity;
        r.metrics = std::move(out.metrics);
        const MediumStats& ms = sim.mediumStats();
        r.slots = ms.slots;
        r.tx = ms.transmissions;
        r.listens = ms.listens;
        r.decodes = ms.decodes;
        if (sim.dynamic()) {
          sim.finalizeDynamics();
          const TopologyStats& ts = sim.dynamics()->stats();
          r.metrics.set("alive_final", sim.aliveCount());
          r.metrics.set("churn_departures", static_cast<double>(ts.departures));
          r.metrics.set("churn_arrivals", static_cast<double>(ts.arrivals));
          r.metrics.set("mean_displacement", ts.meanDisplacement);
          r.metrics.set("edge_churn_per_slot", ts.edgeChurnPerSlot(ms.slots));
          r.metrics.set("edge_survival", ts.edgeSurvival());
        }
        r.finalizeS = lap();
      }
    }
    r.teardownS = lap();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

Json seedJson(const SeedRun& r) {
  Json j = Json::object();
  j.set("seed", static_cast<double>(r.seed));
  j.set("slots", static_cast<double>(r.slots));
  j.set("driver_s", r.driverS);
  j.set("wall_s", r.wallS());
  return j;
}

// Mobility replayed outside the Simulator: same params, initial positions,
// keys and slot count, so the timed work is the work the run did.
struct Replay {
  double seconds = 0.0;
  TopologyStats stats;
};

Replay replayMobility(const TopologyParams& params, const SeedRun& r) {
  const Rng root(r.seed);
  TopologyDynamics dyn(params, r.initial, r.rEps, root.fork(kMobilityStream)(),
                       root.fork(kChurnStream)());
  std::vector<Vec2> pos = r.initial;
  const double t0 = nowSec();
  for (std::uint64_t s = 0; s < r.slots; ++s) dyn.advance(s, pos);
  dyn.finalize(pos);
  return {nowSec() - t0, dyn.stats()};
}

double timerSec(const telemetry::MetricsSnapshot& s, const char* name) {
  const telemetry::TimerSample* t = s.findTimer(name);
  return t ? t->totalSec : 0.0;
}

std::uint64_t hierFarCells(const telemetry::MetricsSnapshot& s) {
  std::uint64_t sum = 0;
  for (const telemetry::CounterSample& c : s.counters) {
    if (c.name.starts_with("medium.hier_far_cells.L")) sum += c.value;
  }
  return sum;
}

// Per-layer sums over the traced seeds (or one traced campaign).
using Layers = std::map<std::string, double>;

Json toJson(const Layers& layers) {
  Json j = Json::object();
  for (const auto& [k, x] : layers) j.set(k, x);
  return j;
}

void addMediumLayers(Layers& L, const telemetry::MetricsSnapshot& s) {
  L["medium.resolve_slot_s"] += timerSec(s, "medium.resolve_slot");
  L["medium.populate_s"] += timerSec(s, "medium.populate");
  L["medium.sweep_s"] += timerSec(s, "medium.sweep");
  L["medium.build_fields_s"] += timerSec(s, "medium.build_fields");
  for (const char* c : {"medium.slots", "medium.tx_intents", "medium.listen_intents",
                        "medium.exact_pairs", "medium.near_pairs_exact",
                        "medium.far_cells_batched", "medium.decode_candidates",
                        "medium.decodes", "geom.grid_updates", "geom.grid_rebuild_fallbacks"}) {
    L[c] += static_cast<double>(s.counterOr(c));
  }
  L["geom.grid_update_s"] += timerSec(s, "geom.grid_update");
  L["geom.hier_traverse_s"] += timerSec(s, "geom.hier_traverse");
  L["medium.hier_far_cells"] += static_cast<double>(hierFarCells(s));
}

struct Output {
  Json root = Json::object();
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  // Seeds that ran correctly but did not deliver (reported, not failed).
  Json undelivered = Json::array();
  void miss(const std::string& what) {
    ++failed;
    problems.push_back(what);
  }
  // `where` names the campaign cell the seed belongs to, if any.
  void check(const SeedRun& r, const std::string& where = "") {
    const std::string prefix = where.empty() ? "" : where + " ";
    if (!r.ok()) miss(prefix + r.problem());
    if (r.undelivered()) undelivered.push_back(prefix + "seed " + std::to_string(r.seed));
  }
};

void runScenario(const Workload& w, std::uint64_t base, double seconds, bool trace,
                 Output& out) {
  const ScenarioSpec& spec = w.spec;
  const bool dynamic = spec.topology.dynamic();
  Json seeds = Json::array();
  Json setups = Json::array();
  Digest digest;
  double slotSum = 0.0;

  if (!trace) {
    const double t0 = nowSec();
    std::size_t setupSamples = 0;
    std::uint64_t seed = base;
    for (int i = 0; i < w.fixedSeeds || nowSec() - t0 < seconds; ++i, ++seed) {
      const SeedRun r = runSeed(spec, seed, false, false);
      ++out.attempted;
      out.check(r);
      if (i < w.fixedSeeds) {
        r.digest(digest);
        slotSum += static_cast<double>(r.slots);
      }
      seeds.push_back(seedJson(r));
      setups.push_back(r.setupS());
      ++setupSamples;
    }
    for (; setupSamples < kMinSetupSamples; ++setupSamples, ++seed) {
      setups.push_back(runSeed(spec, seed, true, false).setupS());
    }
  } else {
    Layers L;
    double plainWall = 0.0, tracedWall = 0.0;
    for (int i = 0; i < w.fixedSeeds; ++i) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
      const SeedRun plain = runSeed(spec, seed, false, dynamic);
      telemetry::resetMetrics();
      telemetry::setEnabled(true);
      telemetry::setTraceEnabled(true, kTraceRing);
      const SeedRun traced = runSeed(spec, seed, false, false);
      telemetry::setEnabled(false);
      telemetry::setTraceEnabled(false);
      const telemetry::MetricsSnapshot s = telemetry::snapshotMetrics();
      L["trace.events"] += static_cast<double>(telemetry::traceEventCount());
      telemetry::clearTrace();

      out.attempted += 2;
      out.check(plain);
      if (!traced.ok()) out.miss("traced " + traced.problem());
      Digest a, b;
      plain.digest(a);
      traced.digest(b);
      if (a.h != b.h) out.miss("seed " + std::to_string(seed) + ": traced run simulated "
                               "different statistics than the untraced run");
      if (s.counterOr("medium.slots") != traced.slots) {
        out.miss("seed " + std::to_string(seed) + ": telemetry counted " +
                 std::to_string(s.counterOr("medium.slots")) + " slots of " +
                 std::to_string(traced.slots));
      }
      plain.digest(digest);
      slotSum += static_cast<double>(plain.slots);
      seeds.push_back(seedJson(traced));
      plainWall += plain.wallS();
      tracedWall += traced.wallS();

      L["seed_wall_s"] += traced.wallS();
      L["scenario.deploy_s"] += traced.deployS;
      L["sim.network_s"] += traced.networkS;
      L["sim.simulator_s"] += traced.simulatorS;
      L["scenario.driver_run_s"] += traced.driverS;
      L["scenario.finalize_s"] += traced.finalizeS + traced.teardownS;
      L["sim.node_slots"] += static_cast<double>(traced.n) * static_cast<double>(traced.slots);
      addMediumLayers(L, s);

      double advance = 0.0;
      if (dynamic) {
        // As configured, then with drift sampling pushed past the last
        // slot: the difference is what sampling costs.
        const Replay full = replayMobility(spec.topology, plain);
        TopologyParams motionOnly = spec.topology;
        motionOnly.sampleEvery = static_cast<int>(plain.slots) + 1;
        const Replay motion = replayMobility(motionOnly, plain);
        ++out.attempted;
        const double churn = full.stats.edgeChurnPerSlot(plain.slots);
        const double survival = full.stats.edgeSurvival();
        if (std::bit_cast<std::uint64_t>(churn) !=
                std::bit_cast<std::uint64_t>(plain.metrics.getOr("edge_churn_per_slot")) ||
            std::bit_cast<std::uint64_t>(survival) !=
                std::bit_cast<std::uint64_t>(plain.metrics.getOr("edge_survival"))) {
          out.miss("seed " + std::to_string(seed) + ": mobility replay drifted from the run");
        }
        advance = full.seconds;
        L["mobility.advance_s"] += full.seconds;
        L["mobility.motion_s"] += motion.seconds;
        L["mobility.sample_s"] += full.seconds - motion.seconds;
        L["mobility.graph_samples"] += static_cast<double>(full.stats.graphSamples);
        L["mobility.edge_changes"] +=
            static_cast<double>(full.stats.edgesAdded + full.stats.edgesRemoved);
      }
      L["sim.driver_self_s"] += traced.driverS - timerSec(s, "medium.resolve_slot") - advance;
    }
    L["telemetry.plain_wall_s"] += plainWall;
    L["telemetry.traced_wall_s"] += tracedWall;
    out.root.set("layers", toJson(L));
  }
  out.root.set("seeds", std::move(seeds));
  out.root.set("setup_samples", std::move(setups));
  out.root.set("sim_slots_mean", slotSum / w.fixedSeeds);
  out.root.set("digest", digest.hex());
  out.root.set("peak_rss_mb", peakRssMb());
}

// ---------------------------------------------------------------- campaign

struct CampaignRun {
  campaign::WorkQueueCampaign c;
  double wallS = 0.0;  // campaign plus its JSON and CSV reports
  double firstLeaseS = 0.0;  // coordinator start to the first lease
  std::string storePath;
};

bool runCampaignOnce(const SweepSpec& spec, const std::string& dir, bool trace, CampaignRun& run,
                     std::string& err) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  campaign::WorkQueueOptions opts;
  opts.workers = kCampaignWorkers;
  opts.outDir = dir;
  opts.storePath = dir + "/campaign.store";
  if (trace) opts.traceOut = dir + "/trace.json";
  run.storePath = opts.storePath;
  const double t0 = nowSec();
  opts.onCell = [&run, t0](const SweepCell&, bool) {
    if (run.firstLeaseS == 0.0) run.firstLeaseS = nowSec() - t0;
  };
  if (!campaign::runCampaignWorkQueue(spec, opts, run.c, err)) return false;
  std::string jsonPath;
  if (!campaign::writeWorkQueueCampaignReport(run.c, dir, dir, jsonPath, err)) return false;
  if (!campaign::writeWorkQueueCampaignCsv(run.c, dir, dir + "/campaign.csv", err)) return false;
  run.wallS = nowSec() - t0;
  return true;
}

// Equal up to merge order: the store merges in slot order, the reducer in
// a fixed tree, so only the last bits of the float moments may differ.
bool sameMoments(const OnlineStats& a, const OnlineStats& b) {
  const auto close = [](double x, double y) {
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  };
  return a.count() == b.count() && a.min() == b.min() && a.max() == b.max() &&
         close(a.mean(), b.mean()) && close(a.sum(), b.sum()) && close(a.m2(), b.m2());
}

// Deterministic content of a finished campaign: per-cell counters and the
// tree-reduced statistics of every simulated (non-wall-clock) metric.
Digest campaignDigest(const campaign::WorkQueueCampaign& c) {
  Digest d;
  for (const campaign::CellRecord& r : c.cells) {
    d.add(r.cell.label);
    d.add(static_cast<std::uint64_t>(r.failures));
    d.add(static_cast<std::uint64_t>(r.delivered));
    d.add(static_cast<std::uint64_t>(r.valid));
    d.add(static_cast<std::uint64_t>(r.invalid));
    d.add(r.slotsMean);
    d.add(r.decodeRateMean);
  }
  for (const auto& [name, st] : c.reduction) {
    if (name.starts_with("wall") || name.starts_with("tm.")) continue;
    d.add(name);
    d.add(static_cast<std::uint64_t>(st.moments.count()));
    d.add(st.moments.mean());
    d.add(st.moments.m2());
    d.add(st.moments.min());
    d.add(st.moments.max());
    d.add(st.moments.sum());
  }
  return d;
}

// One cell's seeds run in this process, seed after seed: the reference
// the work queue's cell record must reproduce.
struct CellReference {
  int delivered = 0, valid = 0, invalid = 0;
  double slots = 0.0;
};

// Output checks on one finished campaign: every cell ran without error
// and reproduces its in-process reference (delivery, audit and simulated
// slots), and the store's group-by re-merges to the campaign's own tree
// reduction.
void checkCampaign(const CampaignRun& run, const std::map<std::string, CellReference>& ref,
                   Output& out) {
  const campaign::WorkQueueCampaign& c = run.c;
  if (c.cells.size() != ref.size()) {
    out.miss("campaign ran " + std::to_string(c.cells.size()) + " cells, expected " +
             std::to_string(ref.size()));
  }
  for (const campaign::CellRecord& r : c.cells) {
    ++out.attempted;
    const auto it = ref.find(r.cell.label);
    if (it == ref.end()) {
      out.miss("cell " + r.cell.label + " is not in the sweep");
      continue;
    }
    const CellReference& x = it->second;
    const double slots = r.slotsMean * r.cell.spec.seeds;
    if (r.failures != 0 || r.delivered != x.delivered || r.valid != x.valid ||
        r.invalid != x.invalid || std::fabs(slots - x.slots) > 1e-9 * x.slots) {
      out.miss("cell " + r.cell.label + ": " + std::to_string(r.failures) + " failed, " +
               std::to_string(r.delivered) + " delivered, " + std::to_string(r.valid) +
               " valid, " + std::to_string(slots) + " slots; in-process " +
               std::to_string(x.delivered) + ", " + std::to_string(x.valid) + ", " +
               std::to_string(x.slots));
    }
  }
  ++out.attempted;
  store::StoreReader reader;
  std::string err;
  std::vector<store::QueryGroup> groups;
  if (!reader.open(run.storePath, err) ||
      !store::runStoreQuery(reader, {{}, {}, "channels"}, groups, err)) {
    out.miss("store query failed: " + err);
    return;
  }
  campaign::MetricStats merged;
  for (store::QueryGroup& g : groups) {
    campaign::sortMetricStats(g.stats);
    merged = campaign::mergeMetricStats(merged, g.stats);
  }
  bool same = merged.size() == c.reduction.size();
  for (std::size_t i = 0; same && i < merged.size(); ++i) {
    same = merged[i].first == c.reduction[i].first &&
           sameMoments(merged[i].second.moments, c.reduction[i].second.moments);
  }
  if (!same) out.miss("store group-by does not re-merge to the campaign reduction");
}

// One open + group-by over the finished store, split into its two halves.
bool timeQuery(const std::string& path, double& openS, double& queryS, std::string& err) {
  const double t0 = nowSec();
  store::StoreReader reader;
  if (!reader.open(path, err)) return false;
  const double t1 = nowSec();
  std::vector<store::QueryGroup> groups;
  if (!store::runStoreQuery(reader, {{}, {}, "channels"}, groups, err)) return false;
  openS = t1 - t0;
  queryS = nowSec() - t1;
  return true;
}

// Events in a Chrome trace file: one "ph" key per event.
std::size_t countTraceEvents(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line, ',')) n += line.find("\"ph\"") != std::string::npos;
  return n;
}

double totalSlots(const campaign::WorkQueueCampaign& c) {
  double s = 0.0;
  for (const campaign::CellRecord& r : c.cells) s += r.slotsMean * r.cell.spec.seeds;
  return s;
}

void runCampaignWorkload(const Workload& w, std::uint64_t base, double seconds, bool trace,
                         const std::string& workDir, Output& out) {
  SweepSpec spec;
  std::string err;
  const std::string text = w.sweep + "seed0 = " + std::to_string(base) + "\n";
  std::vector<SweepCell> cells;
  if (!parseSweepText(spec, text, "perfbench", "", err) || !expandSweep(spec, cells, err)) {
    out.miss("sweep: " + err);
    return;
  }

  // Every seed of every cell run once in this process: the reference for
  // the output checks.
  std::map<std::string, CellReference> ref;
  for (const SweepCell& cell : cells) {
    CellReference& x = ref[cell.label];
    for (int i = 0; i < cell.spec.seeds; ++i) {
      const SeedRun r = runSeed(cell.spec, cell.spec.seed0 + i, false, false);
      ++out.attempted;
      out.check(r, "cell " + cell.label);
      x.delivered += r.delivered;
      x.valid += r.validity == OutcomeValidity::Valid;
      x.invalid += r.validity == OutcomeValidity::Invalid;
      x.slots += static_cast<double>(r.slots);
    }
  }
  // Per-seed set-up of every cell, replayed on its own (the workers' own
  // set-up is not visible from outside; interleaved with the reference
  // runs above, these microsecond samples spread twice as wide).
  Json setups = Json::array();
  for (const SweepCell& cell : cells) {
    for (int i = 0; i < cell.spec.seeds; ++i) {
      const SeedRun r = runSeed(cell.spec, cell.spec.seed0 + i, true, false);
      if (!r.error.empty()) out.miss("cell " + cell.label + " set-up: " + r.error);
      setups.push_back(r.setupS());
    }
  }
  out.root.set("setup_samples", std::move(setups));

  Json runs = Json::array();
  Json queries = Json::array();
  Digest digest;
  double slotsMean = 0.0;
  const std::string dir = workDir + "/campaign";
  const double t0 = nowSec();
  int reps = 0;
  for (; reps < 1 || (!trace && nowSec() - t0 < seconds); ++reps) {
    CampaignRun run;
    if (!runCampaignOnce(spec, dir, false, run, err)) {
      out.miss("campaign: " + err);
      return;
    }
    checkCampaign(run, ref, out);
    const Digest d = campaignDigest(run.c);
    if (reps == 0) {
      digest = d;
      double seeds = 0.0;
      for (const campaign::CellRecord& r : run.c.cells) seeds += r.cell.spec.seeds;
      slotsMean = totalSlots(run.c) / seeds;
    } else if (d.h != digest.h) {
      out.miss("campaign repetition simulated different statistics");
    }
    Json j = Json::object();
    j.set("wall_s", run.wallS);
    j.set("cells", run.c.cells.size());
    j.set("slots", totalSlots(run.c));
    Json cellWalls = Json::array();
    for (const campaign::CellRecord& r : run.c.cells) cellWalls.push_back(r.wallMeanSec);
    j.set("seed_wall_s", std::move(cellWalls));
    runs.push_back(std::move(j));
    if (!trace) {
      for (int q = 0; q < kQueriesPerCampaign; ++q) {
        double openS = 0.0, queryS = 0.0;
        if (!timeQuery(run.storePath, openS, queryS, err)) {
          out.miss("query: " + err);
          break;
        }
        queries.push_back(openS + queryS);
      }
    }
  }
  if (!trace) {
    while (queries.size() < static_cast<std::size_t>(kMinQuerySamples)) {
      double openS = 0.0, queryS = 0.0;
      if (!timeQuery(dir + "/campaign.store", openS, queryS, err)) {
        out.miss("query: " + err);
        break;
      }
      queries.push_back(openS + queryS);
    }
  } else {
    // The untraced campaign above is the baseline; now the armed one.
    // Workers fork with telemetry armed, so per-cell counters land in the
    // store's telemetry blobs.
    Layers L;
    const double plainWall = runs.items().front().numberAt("wall_s");
    telemetry::resetMetrics();
    telemetry::setEnabled(true);
    telemetry::setTraceEnabled(true);
    CampaignRun run;
    const bool ok = runCampaignOnce(spec, dir, true, run, err);
    telemetry::setEnabled(false);
    telemetry::setTraceEnabled(false);
    const telemetry::MetricsSnapshot s = telemetry::snapshotMetrics();
    ++out.attempted;
    if (!ok) {
      out.miss("traced campaign: " + err);
      return;
    }
    checkCampaign(run, ref, out);
    if (campaignDigest(run.c).h != digest.h) {
      out.miss("traced campaign simulated different statistics than the untraced one");
    }
    const campaign::WorkQueueCampaign& c = run.c;
    double compute = 0.0, nodeSlots = 0.0;
    for (const campaign::CellRecord& r : c.cells) {
      compute += r.wallSec;
      nodeSlots += r.slotsMean * r.cell.spec.seeds * r.cell.spec.deployment.n;
    }
    L["campaign.wall_s"] = c.wallSec;
    L["campaign.report_s"] = run.wallS - c.wallSec;
    L["campaign.first_lease_s"] = run.firstLeaseS;
    L["campaign.cell_compute_s"] = compute;
    L["campaign.lane_idle_share"] = 1.0 - compute / (kCampaignWorkers * c.wallSec);
    L["campaign.leases"] = static_cast<double>(c.leases);
    L["campaign.requeues"] = static_cast<double>(c.requeues);
    L["campaign.lease_rtt_s"] = timerSec(s, "campaign.lease_rtt");
    L["campaign.reduce_s"] = timerSec(s, "campaign.reduce");
    L["store.write_cell_s"] = timerSec(s, "store.write_cell");
    L["store.bytes_written"] = static_cast<double>(s.counterOr("store.bytes_written"));
    L["store.cells_written"] = static_cast<double>(s.counterOr("store.cells_written"));
    // The workers' rings, merged by the coordinator into one trace file.
    L["trace.events"] = static_cast<double>(countTraceEvents(dir + "/trace.json"));
    L["sim.node_slots"] = nodeSlots;

    // Worker-side layers, summed over the cells' telemetry blobs.
    store::StoreReader reader;
    if (!reader.open(run.storePath, err)) {
      out.miss("store open: " + err);
      return;
    }
    std::map<std::string, double> sums;  // "tm." prefix dropped
    for (std::size_t row = 0; row < reader.cells(); ++row) {
      std::vector<std::pair<std::string, double>> tm;
      if (!reader.telemetryAt(row, tm, err)) {
        out.miss("store telemetry: " + err);
        return;
      }
      for (const auto& [name, value] : tm) sums[name.substr(3)] += value;
    }
    // Back into snapshot form: "<timer>.sec" totals and plain counters.
    telemetry::MetricsSnapshot cellSum;
    for (const auto& [key, value] : sums) {
      if (key.ends_with(".sec")) {
        cellSum.timers.push_back({key.substr(0, key.size() - 4), 0, value, 0.0});
      } else if (!key.ends_with(".count")) {
        cellSum.counters.push_back({key, static_cast<std::uint64_t>(value)});
      }
    }
    if (std::fabs(static_cast<double>(cellSum.counterOr("medium.slots")) - totalSlots(c)) > 0.5) {
      out.miss("cell telemetry in the store counts " +
               std::to_string(cellSum.counterOr("medium.slots")) + " slots, the cells " +
               std::to_string(totalSlots(c)));
    }
    addMediumLayers(L, cellSum);
    L["scenario.deploy_s"] = timerSec(cellSum, "scenario.deploy");
    L["scenario.driver_run_s"] = timerSec(cellSum, "driver.run");
    L["sim.driver_self_s"] =
        timerSec(cellSum, "driver.run") - timerSec(cellSum, "medium.resolve_slot");

    std::vector<double> opens, scans;
    for (int q = 0; q < kQueriesPerCampaign; ++q) {
      double openS = 0.0, queryS = 0.0;
      if (!timeQuery(run.storePath, openS, queryS, err)) {
        out.miss("query: " + err);
        break;
      }
      opens.push_back(openS);
      scans.push_back(queryS);
    }
    const auto median = [](std::vector<double> xs) {
      if (xs.empty()) return 0.0;
      std::sort(xs.begin(), xs.end());
      return xs[xs.size() / 2];
    };
    L["store.open_s"] = median(opens);
    L["store.query_s"] = median(scans);
    L["telemetry.plain_wall_s"] = plainWall;
    L["telemetry.traced_wall_s"] = run.wallS;
    out.root.set("layers", toJson(L));
  }
  std::filesystem::remove_all(dir);
  out.root.set("runs", std::move(runs));
  out.root.set("query_samples", std::move(queries));
  out.root.set("workers", kCampaignWorkers);
  out.root.set("sim_slots_mean", slotsMean);
  out.root.set("digest", digest.hex());
  out.root.set("peak_rss_mb", peakRssMb());
  out.root.set("worker_peak_rss_mb", workerPeakRssMb());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  Workload w;
  std::string err;
  if (!makeWorkload(args.get("workload"), w, err)) {
    std::fprintf(stderr, "perfbench_driver: %s\n", err.c_str());
    return 2;
  }
  const long seedArg = args.getInt("seed", 1);
  const double seconds = args.getDouble("seconds", 10.0);
  const bool trace = args.getInt("trace", 0) != 0;
  const std::string workDir = args.get("work-dir", ".");
  if (seedArg < 0 || seconds <= 0.0) {
    std::fprintf(stderr, "perfbench_driver: --seed must be >= 0 and --seconds > 0\n");
    return 2;
  }
  const std::uint64_t base = 1 + static_cast<std::uint64_t>(seedArg) * kSeedStride;

  Output out;
  out.root.set("workload", w.name);
  out.root.set("fixed_seeds", w.fixedSeeds);
  if (w.sweep.empty()) {
    runScenario(w, base, seconds, trace, out);
  } else {
    runCampaignWorkload(w, base, seconds, trace, workDir, out);
  }
  out.root.set("attempted", out.attempted);
  out.root.set("failed", out.failed);
  out.root.set("undelivered", std::move(out.undelivered));
  Json problems = Json::array();
  for (const std::string& p : out.problems) problems.push_back(p);
  out.root.set("problems", std::move(problems));
  std::printf("%s\n", out.root.dump().c_str());
  return 0;
}
