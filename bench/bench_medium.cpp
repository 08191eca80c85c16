// M2: SINR medium regression bench.  Measures slot-resolution throughput
// (slots/sec, decodes/sec) across n and channel counts for:
//   - pow:     the original per-pair std::pow kernel (reference replica)
//   - fast:    the alpha-specialized PowerKernel, exact SoA summation
//              (default; auto-vectorized distance/kernel sweep)
//   - nearfar: grid-batched far-field approximation (MediumMode::NearFar)
//   - hier:    pyramid-batched far field (MediumMode::Hierarchical)
//   - threads: exact summation with the per-listener loop parallelized
// Plus the mobility-era case:
//   - grid_rebuild / grid_update: GridIndex full re-sort vs the
//     incremental update() path over a drifting point set (the drift
//     sampler's persistent index)
// Plus sparse rows: a fixed 8-transmitter + 32-listener slot at n = 400
// ... 400k, whose µs/slot must stay flat (O(active) resolution).
// Writes BENCH_medium.json so future changes can diff the perf trajectory.

#include <algorithm>
#include <thread>

#include "bench_common.h"

namespace mcs {
namespace {

/// Replica of the seed Medium::resolveSlot inner loop: per-pair
/// std::pow(d2, alpha/2) with the 1e300 co-location sentinel.  Kept here
/// as the fixed baseline the fast kernels are measured against.
struct PowReference {
  SinrParams params;
  int numChannels;
  std::uint64_t decodes = 0;
  std::vector<std::int32_t> start;
  std::vector<NodeId> tx;
  std::vector<NodeId> listeners;

  void resolveSlot(std::span<const Vec2> positions, std::span<const Intent> intents,
                   std::vector<Reception>& out) {
    const std::size_t n = positions.size();
    out.assign(n, Reception{});
    start.assign(static_cast<std::size_t>(numChannels) + 1, 0);
    listeners.clear();
    std::size_t txTotal = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const Intent& it = intents[v];
      if (it.action == Action::Idle) continue;
      if (it.action == Action::Transmit) {
        ++start[static_cast<std::size_t>(it.channel) + 1];
        ++txTotal;
      } else {
        listeners.push_back(static_cast<NodeId>(v));
      }
    }
    if (listeners.empty()) return;
    for (int c = 0; c < numChannels; ++c) {
      start[static_cast<std::size_t>(c) + 1] += start[static_cast<std::size_t>(c)];
    }
    tx.resize(txTotal);
    std::vector<std::int32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      if (intents[v].action != Action::Transmit) continue;
      tx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(intents[v].channel)]++)] =
          static_cast<NodeId>(v);
    }
    const double alpha = params.alpha;
    const double beta = params.beta;
    const double noise = params.noise;
    const double power = params.power;
    for (const NodeId v : listeners) {
      const ChannelId c = intents[static_cast<std::size_t>(v)].channel;
      const std::int32_t lo = start[static_cast<std::size_t>(c)];
      const std::int32_t hi = start[static_cast<std::size_t>(c) + 1];
      if (lo == hi) continue;
      double total = 0.0;
      double best = -1.0;
      NodeId bestTx = kNoNode;
      const Vec2 pv = positions[static_cast<std::size_t>(v)];
      for (std::int32_t i = lo; i < hi; ++i) {
        const NodeId w = tx[static_cast<std::size_t>(i)];
        const double d2 = dist2(positions[static_cast<std::size_t>(w)], pv);
        const double rx = d2 > 0.0 ? power / std::pow(d2, alpha / 2.0) : 1e300;
        total += rx;
        if (rx > best) {
          best = rx;
          bestTx = w;
        }
      }
      Reception& r = out[static_cast<std::size_t>(v)];
      r.totalPower = total;
      if (bestTx != kNoNode && best >= beta * (noise + (total - best))) {
        r.received = true;
        r.msg = intents[static_cast<std::size_t>(bestTx)].msg;
        r.sinr = best / (noise + (total - best));
        r.signalPower = best;
        r.senderDistance = params.distanceFromPower(best);
        ++decodes;
      }
    }
  }
};

struct Workload {
  std::vector<Vec2> pts;
  std::vector<Intent> intents;
  std::vector<NodeId> active;  // the non-idle nodes, ascending
};

Workload makeWorkload(int n, int channels, double density, std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  w.pts = deployUniformSquare(n, std::sqrt(static_cast<double>(n) / density), rng);
  w.intents.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto c = static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(channels)));
    w.intents[static_cast<std::size_t>(v)] =
        rng.bernoulli(0.05) ? Intent::transmit(c, {}) : Intent::listen(c);
  }
  w.active = activeNodes(w.intents);
  return w;
}

/// The regime protocols produce: a fixed small active set (`tx`
/// transmitters + `listeners` listeners, spread over the channels) among
/// n mostly idle nodes.  The active nodes are drawn from a disk of fixed
/// radius at the deployment's centre, so every n sees the same local
/// geometry (and decode work); only the idle population grows.
Workload makeSparseWorkload(int n, int channels, int tx, int listeners, double density,
                            std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  const double side = std::sqrt(static_cast<double>(n) / density);
  w.pts = deployUniformSquare(n, side, rng);
  const Vec2 centre{side / 2.0, side / 2.0};
  std::vector<NodeId> pool;
  for (int v = 0; v < n; ++v) {
    if (dist(w.pts[static_cast<std::size_t>(v)], centre) <= 0.3) pool.push_back(v);
  }
  w.intents.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < tx + listeners && i < static_cast<int>(pool.size()); ++i) {
    // Partial Fisher-Yates: pool[i] becomes a fresh random pick.
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.below(pool.size() - static_cast<std::size_t>(i)));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    const auto c = static_cast<ChannelId>(i % channels);
    w.intents[static_cast<std::size_t>(pool[static_cast<std::size_t>(i)])] =
        i < tx ? Intent::transmit(c, {}) : Intent::listen(c);
  }
  w.active = activeNodes(w.intents);
  return w;
}

struct Measured {
  double slotsPerSec = 0.0;
  double decodesPerSec = 0.0;
  std::uint64_t decodesPerSlot = 0;
};

/// Bounding box of a point set — the drift clamp target.  Clamping to
/// the *initial sample's* box (not the deployment's [0, side]^2) matches
/// production mobility, where reflect() confines nodes to the deployed
/// box: GridIndex::update never re-anchors, so the timed region measures
/// the pure incremental path.
struct DriftBox {
  double loX, loY, hiX, hiY;
  explicit DriftBox(const std::vector<Vec2>& pts)
      : loX(pts[0].x), loY(pts[0].y), hiX(pts[0].x), hiY(pts[0].y) {
    for (const Vec2& p : pts) {
      loX = std::min(loX, p.x);
      loY = std::min(loY, p.y);
      hiX = std::max(hiX, p.x);
      hiY = std::max(hiY, p.y);
    }
  }
};

/// One bounded random-walk step per point (the mobility drift shape).
void driftPoints(std::vector<Vec2>& pts, const DriftBox& box, double step, Rng& rng) {
  for (Vec2& p : pts) {
    p.x = std::clamp(p.x + step * (2.0 * rng.uniform() - 1.0), box.loX, box.hiX);
    p.y = std::clamp(p.y + step * (2.0 * rng.uniform() - 1.0), box.loY, box.hiY);
  }
}

/// Index maintenance throughput (indexings/sec) over a drifting point
/// set: `incremental` uses GridIndex::update (points move between cells
/// in place), otherwise a full rebuild every step.  The drift itself is
/// excluded from the timed region.
double measureIndexing(bool incremental, int n, double side, double cellSize, double step,
                       std::uint64_t seed, double budget) {
  Rng rng(seed);
  std::vector<Vec2> pts = deployUniformSquare(n, side, rng);
  const DriftBox box(pts);
  GridIndex index(pts, cellSize);
  double elapsed = 0.0;
  std::uint64_t steps = 0;
  while (elapsed < budget) {
    driftPoints(pts, box, step, rng);
    const double t0 = bench::now();
    if (incremental) {
      index.update(pts);
    } else {
      index.rebuild(pts, cellSize);
    }
    elapsed += bench::now() - t0;
    ++steps;
  }
  return static_cast<double>(steps) / elapsed;
}

/// Runs `resolve()` repeatedly for at least `budget` seconds (after one
/// warm-up slot) and returns throughput.  `decodesBefore`/`decodesAfter`
/// read the cumulative decode counter around the timed region.
template <class Resolve, class DecodeCount>
Measured measure(Resolve&& resolve, DecodeCount&& decodeCount, double budget) {
  resolve();  // warm-up: scratch allocation, page faults
  const std::uint64_t d0 = decodeCount();
  const double t0 = bench::now();
  std::uint64_t slots = 0;
  double elapsed = 0.0;
  do {
    resolve();
    ++slots;
    elapsed = bench::now() - t0;
  } while (elapsed < budget);
  Measured m;
  m.slotsPerSec = static_cast<double>(slots) / elapsed;
  const std::uint64_t d = decodeCount() - d0;
  m.decodesPerSec = static_cast<double>(d) / elapsed;
  m.decodesPerSlot = d / slots;
  return m;
}

}  // namespace
}  // namespace mcs

int main(int argc, char** argv) {
  using namespace mcs;
  using namespace mcs::bench;

  const Args args(argc, argv);
  const double alpha = args.getDouble("alpha", 3.0);
  const double density = args.getDouble("density", 900.0);
  const double budget = args.getDouble("budget", 0.3);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const int hw = static_cast<int>(args.getInt(
      "threads", static_cast<long>(std::max(2u, std::thread::hardware_concurrency()))));
  // --metrics / --trace-out: engine telemetry for the measured slots (the
  // telemetry-overhead smoke diffs a --metrics run against a plain one).
  armTelemetryCli(args);
  const double benchT0 = now();

  SinrParams params;
  params.alpha = alpha;
  params = params.withRange(1.0);
  SinrParams nearFarParams = params;
  nearFarParams.mediumMode = MediumMode::NearFar;
  SinrParams hierParams = params;
  hierParams.mediumMode = MediumMode::Hierarchical;

  header("M2: SINR medium throughput (slots/sec)",
         "fast alpha-specialized kernel >= 3x the std::pow reference at the "
         "default alpha=3, n=2000 config");

  BenchReport report("medium");
  report.meta("alpha", alpha).meta("density", density).meta("budget_sec", budget);
  report.meta("seed", static_cast<double>(seed)).meta("threads", hw);

  row("%-6s %4s %10s %12s %12s %12s %10s", "n", "F", "variant", "slots/s", "decodes/s",
      "dec/slot", "vs pow");
  std::vector<std::pair<int, int>> configs{{500, 1}, {500, 8}, {2000, 1},
                                           {2000, 8}, {8000, 1}, {8000, 8}};
  // NearFar's winning regime needs extent >> nearField*R_T AND many
  // transmitters per grid cell; that only happens at larger n.
  if (args.getBool("big")) configs.push_back({32000, 1});
  for (const auto& [n, channels] : configs) {
    {
      const Workload w = makeWorkload(n, channels, density, seed);
      std::vector<Reception> rx;

      PowReference ref{params, channels, 0, {}, {}, {}};
      const Measured pow =
          measure([&] { ref.resolveSlot(w.pts, w.intents, rx); },
                  [&] { return ref.decodes; }, budget);

      Medium fast(params, channels);
      const Measured fastM =
          measure([&] { fast.resolveSlot(w.pts, w.intents, w.active, rx); },
                  [&] { return fast.stats().decodes; }, budget);

      Medium nearFar(nearFarParams, channels);
      const Measured nearFarM =
          measure([&] { nearFar.resolveSlot(w.pts, w.intents, w.active, rx); },
                  [&] { return nearFar.stats().decodes; }, budget);

      Medium hier(hierParams, channels);
      const Measured hierM =
          measure([&] { hier.resolveSlot(w.pts, w.intents, w.active, rx); },
                  [&] { return hier.stats().decodes; }, budget);

      Medium threaded(params, channels, hw);
      const Measured threadedM =
          measure([&] { threaded.resolveSlot(w.pts, w.intents, w.active, rx); },
                  [&] { return threaded.stats().decodes; }, budget);

      const struct {
        const char* name;
        const Measured& m;
      } variants[] = {{"pow", pow},
                      {"fast", fastM},
                      {"nearfar", nearFarM},
                      {"hier", hierM},
                      {"threads", threadedM}};
      for (const auto& [name, m] : variants) {
        const double speedup = m.slotsPerSec / pow.slotsPerSec;
        row("%-6d %4d %10s %12.1f %12.1f %12llu %9.2fx", n, channels, name, m.slotsPerSec,
            m.decodesPerSec, static_cast<unsigned long long>(m.decodesPerSlot), speedup);
        report.row()
            .col("n", n)
            .col("channels", channels)
            .col("variant", name)
            .col("slots_per_sec", m.slotsPerSec)
            .col("decodes_per_sec", m.decodesPerSec)
            .col("decodes_per_slot", static_cast<double>(m.decodesPerSlot))
            .col("speedup_vs_pow", speedup);
      }
    }
  }

  // --- Sparse slots: the regime protocols actually run in -----------------
  // A TDMA round or heap level keeps ~98% of nodes idle, so a slot must
  // cost O(active), not O(n).  Fixed 8 transmitters + 32 listeners (F=8,
  // Exact) at growing n: µs/slot should stay flat.  The meta ratio
  // sparse_scaling (n=400k over n=400) is what ci/verify.sh gates.
  {
    const int channels = 8;
    header("Sparse slots: 8 tx + 32 listeners, F=8 (Exact)",
           "per-slot cost O(active): flat in n");
    row("%-8s %12s %12s", "n", "us/slot", "dec/slot");
    double usAt400 = 0.0;
    double usAt400k = 0.0;
    for (const int n : {400, 4'000, 40'000, 400'000}) {
      const Workload w = makeSparseWorkload(n, channels, 8, 32, density, seed);
      std::vector<Reception> rx;
      Medium sparse(params, channels);
      const Measured m =
          measure([&] { sparse.resolveSlot(w.pts, w.intents, w.active, rx); },
                  [&] { return sparse.stats().decodes; }, budget);
      const double us = 1e6 / m.slotsPerSec;
      if (n == 400) usAt400 = us;
      if (n == 400'000) usAt400k = us;
      row("%-8d %12.3f %12llu", n, us, static_cast<unsigned long long>(m.decodesPerSlot));
      report.row()
          .col("n", n)
          .col("channels", channels)
          .col("variant", "sparse_8tx_32rx")
          .col("us_per_slot", us)
          .col("slots_per_sec", m.slotsPerSec)
          .col("decodes_per_slot", static_cast<double>(m.decodesPerSlot));
    }
    const double scaling = usAt400k / usAt400;
    row("sparse_scaling (us/slot at n=400k over n=400): %.2fx", scaling);
    report.meta("sparse_scaling", scaling);
  }

  // --- Huge tier: the ROADMAP's million-node target ------------------------
  // Exact mode is omitted (O(n * tx) is ~6e9 kernel calls per slot at this
  // size); the point of the tier is that the hierarchical pyramid resolves
  // million-node slots at a pace NearFar's O(occupied cells) per listener
  // cannot match.  Slot counts are tiny (warm-up + budget), so this stays
  // CI-runnable.
  if (args.getBool("huge")) {
    const int n = 1'000'000;
    const int channels = 8;
    // A sparser field than the small-n configs (side ~50 vs ~33): the
    // hierarchical advantage is asymptotic in the occupied-cell count,
    // which the denser default would cap at ~1.1k cells.
    const double hugeDensity = args.getDouble("huge-density", 400.0);
    header("Huge tier: n=1,000,000 F=8 (slots/sec)",
           "hierarchical far-field vs NearFar at the million-node scale");
    const Workload w = makeWorkload(n, channels, hugeDensity, seed);
    std::vector<Reception> rx;

    Medium nearFar(nearFarParams, channels);
    const Measured nearFarM =
        measure([&] { nearFar.resolveSlot(w.pts, w.intents, w.active, rx); },
                [&] { return nearFar.stats().decodes; }, budget);

    Medium hier(hierParams, channels);
    const Measured hierM =
        measure([&] { hier.resolveSlot(w.pts, w.intents, w.active, rx); },
                [&] { return hier.stats().decodes; }, budget);

    const double ratio = hierM.slotsPerSec / nearFarM.slotsPerSec;
    row("%-8s %4s %14s %12s %12s %10s", "n", "F", "variant", "slots/s", "dec/slot",
        "vs nearfar");
    row("%-8d %4d %14s %12.3f %12llu %10s", n, channels, "nearfar_huge",
        nearFarM.slotsPerSec, static_cast<unsigned long long>(nearFarM.decodesPerSlot), "");
    row("%-8d %4d %14s %12.3f %12llu %9.2fx", n, channels, "grid_hier", hierM.slotsPerSec,
        static_cast<unsigned long long>(hierM.decodesPerSlot), ratio);
    report.row()
        .col("n", n)
        .col("channels", channels)
        .col("variant", "nearfar_huge")
        .col("slots_per_sec", nearFarM.slotsPerSec)
        .col("decodes_per_slot", static_cast<double>(nearFarM.decodesPerSlot));
    report.row()
        .col("n", n)
        .col("channels", channels)
        .col("variant", "grid_hier")
        .col("slots_per_sec", hierM.slotsPerSec)
        .col("decodes_per_slot", static_cast<double>(hierM.decodesPerSlot))
        .col("hier_vs_nearfar", ratio);
    report.meta("hier_vs_nearfar_huge", ratio);
  }

  // --- Mobility cases ------------------------------------------------------
  const double mobilityStep = args.getDouble("mobility-step", 0.002);

  // GridIndex maintenance over a drifting point set: the incremental
  // update() (points move between cells, geometry retained) vs a full
  // rebuild every step.
  header("GridIndex over drifting points (indexings/sec)",
         "incremental update() vs full rebuild; drift excluded from timing");
  row("%-6s %12s %12s %10s", "n", "rebuild/s", "update/s", "ratio");
  for (const int n : {8000, 32000}) {
    const double side = std::sqrt(static_cast<double>(n) / density);
    const double cellSize = 1.0;  // the NearFar medium's cell (nearField * R_T / 2)
    const double rebuildPerSec =
        measureIndexing(false, n, side, cellSize, mobilityStep, seed, budget);
    const double updatePerSec =
        measureIndexing(true, n, side, cellSize, mobilityStep, seed, budget);
    const double ratio = updatePerSec / rebuildPerSec;
    row("%-6d %12.1f %12.1f %9.2fx", n, rebuildPerSec, updatePerSec, ratio);
    report.row()
        .col("n", n)
        .col("variant", "grid_rebuild")
        .col("indexings_per_sec", rebuildPerSec);
    report.row()
        .col("n", n)
        .col("variant", "grid_update")
        .col("indexings_per_sec", updatePerSec)
        .col("update_vs_rebuild", ratio);
  }

  if (!finishTelemetryCli(args, now() - benchT0)) return 1;
  return report.write() ? 0 : 1;
}
