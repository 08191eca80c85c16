// sweep_runner: execute a declarative parameter-sweep campaign.
//
//   sweep_runner --list
//   sweep_runner --sweep=sweeps/e2_scaling.sweep [--shard=0/2] [overrides]
//   sweep_runner --preset=e4_coloring [--cells] [overrides]
//
// Spec resolution: preset (--preset) -> sweep file (--sweep) -> any other
// --key=value flag as a sweep override (fixed scenario key, or a
// sweep./zip. axis; overrides replace same-key assignments, so
// `--preset=e2_scaling --seeds=1` shrinks the campaign).  Runner-owned
// flags: --list, --cells (print the expansion and shard membership
// without running), --dry-run (like --cells plus each cell's fully
// resolved `key = value` scenario — debug a sweep file without running
// it), --shard=i/k (deterministic cell partition for CI matrices),
// --workers=N (run cells in N forked worker processes; without it they run
// in this process), --threads (batch lanes per cell), --out-dir (report +
// cell JSON root), --csv (long-form CSV path), --resume (skip cells whose
// cell JSON already exists).
//
// Output: BENCH_sweep_<name>.json (per-cell summary statistics over every
// named metric and wall time, plus per-seed rows) and a long-form CSV —
// one row per (cell, seed, metric).  Compare campaigns across commits
// with sweep_check.  Exit: 0 success, 1 seed failures or unwritable
// reports, 2 usage/spec errors.

#include "sweep_cli.h"

#include "sweep/presets.h"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);

  if (args.getBool("list")) {
    for (const SweepPresetInfo& info : SweepRegistry::list()) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  SweepSpec spec;
  std::string err;
  const std::string preset = args.get("preset");
  const std::string file = args.get("sweep");
  if (preset.empty() && file.empty()) {
    std::fprintf(stderr,
                 "usage: sweep_runner --list | --preset=<name> | --sweep=<file> "
                 "[--workers=N] [--shard=i/k] [--threads=N] [--out-dir=DIR] [--csv=PATH] "
                 "[--resume] [--cells] [--dry-run] [overrides]\n");
    return 2;
  }
  if (!preset.empty() && !SweepRegistry::find(preset, spec, err)) {
    std::fprintf(stderr, "%s; --list shows the registry\n", err.c_str());
    return 2;
  }
  if (!file.empty() && !loadSweepFile(spec, file, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (!applySweepFlagOverrides(spec, args, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  return runSweepCampaignCli(spec, args);
}
