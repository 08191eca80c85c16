#!/usr/bin/env python3
"""Repository benchmark for the multi-channel SINR simulator.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload agg_static --seed 3 --seconds 20
    python3 perfbench/run.py --workload campaign --trace 1   # per-layer table

Run from the root of a checkout.  Builds perfbench_driver (driver.cpp
linked against the simulator library in ../src) into .bench_build, or
into $CARGO_TARGET_DIR when that is set, then runs the workload and checks
its outputs.  Prints a human-readable table, then as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 when an output
check failed and 2 when the benchmark could not run at all.  See README.md
in this directory for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["agg_static", "agg_mobile", "ruling_huge", "campaign"]
DRIVER_TIMEOUT_S = 170

# (name, unit, gated): the nine end-to-end metrics, in print order.  The
# gated ones form the last-line JSON and are defined on every workload.
END_TO_END = [
    ("slots_per_s", "slots/s", True),
    # Ungated: an agg_mobile seed simulates 43k..166k slots, so per-seed
    # time and slot count spread far beyond any bound across seeds.  The
    # digest printed beside sim_slots_mean shows any simulation change.
    ("seed_s_p50", "s", False),
    ("setup_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("sim_slots_mean", "slots", False),
    # 0 when healthy; the last line carries it as "failed" / "attempted".
    ("failed_share", "ratio", False),
    # Campaign only.
    ("cells_per_s", "cells/s", False),
    ("query_ms_p50", "ms", False),
    ("query_ms_p90", "ms", False),
]
GATED = [(name, unit) for name, unit, gated in END_TO_END if gated]

# (name, unit): every per-layer metric.  Metrics of a layer the workload
# does not exercise read 0.
PER_LAYER = [
    ("scenario.deploy_s", "s"),
    ("sim.network_s", "s"),
    ("sim.simulator_s", "s"),
    ("scenario.driver_run_s", "s"),
    ("medium.resolve_slot_s", "s"),
    ("medium.populate_s", "s"),
    ("medium.sweep_s", "s"),
    ("medium.build_fields_s", "s"),
    ("geom.hier_traverse_s", "s"),
    ("mobility.advance_s", "s"),
    ("mobility.motion_s", "s"),
    ("mobility.sample_s", "s"),
    ("sim.driver_self_s", "s"),
    ("scenario.finalize_s", "s"),
    ("sim.unattributed_share", "ratio"),
    ("sim.node_slots", "count"),
    ("medium.us_per_slot", "us"),
    ("medium.slots", "count"),
    ("medium.tx_intents", "count"),
    ("medium.listen_intents", "count"),
    ("medium.exact_pairs", "count"),
    ("medium.near_pairs_exact", "count"),
    ("medium.far_cells_batched", "count"),
    ("medium.hier_far_cells", "count"),
    ("medium.decode_candidates", "count"),
    ("medium.decodes", "count"),
    ("medium.active_fraction", "ratio"),
    ("medium.decode_rate", "ratio"),
    ("geom.grid_update_s", "s"),
    ("geom.grid_updates", "count"),
    ("geom.grid_rebuild_fallbacks", "count"),
    ("mobility.graph_samples", "count"),
    ("mobility.edge_changes", "count"),
    ("campaign.wall_s", "s"),
    ("campaign.first_lease_s", "s"),
    ("campaign.cell_compute_s", "s"),
    ("campaign.lane_idle_share", "ratio"),
    ("campaign.leases", "count"),
    ("campaign.requeues", "count"),
    ("campaign.lease_rtt_s", "s"),
    ("campaign.reduce_s", "s"),
    ("campaign.report_s", "s"),
    ("store.write_cell_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_cell", "bytes"),
    ("store.open_s", "s"),
    ("store.query_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.events", "count"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_driver; returns (build dir, binary)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no simulator sources next to perfbench/ "
                           "(run from the root of a full checkout)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_driver"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench_driver")


def run_driver(binary, work_dir, workload, seed, seconds, trace):
    """Runs one workload in its own process group; returns its JSON."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace, "--work-dir=" + work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("%s did not finish within %d s" % (workload, DRIVER_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray campaign workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("perfbench_driver exited with %d on %s" % (proc.returncode, workload))
    return json.loads(out.strip().splitlines()[-1])


def quantile(xs, q):
    """Nearest-rank quantile."""
    return sorted(xs)[max(1, math.ceil(q * len(xs))) - 1]


def end_to_end(d):
    """Every gated and reported end-to-end metric of an untraced run."""
    m = {"setup_s": statistics.median(d["setup_samples"]),
         "sim_slots_mean": d["sim_slots_mean"],
         "failed_share": d["failed"] / d["attempted"]}
    samples = {}
    if d["workload"] == "campaign":
        runs = d["runs"]
        m["slots_per_s"] = statistics.median(r["slots"] / r["wall_s"] for r in runs)
        m["cells_per_s"] = statistics.median(r["cells"] / r["wall_s"] for r in runs)
        seed_walls = [w for r in runs for w in r["seed_wall_s"]]
        m["seed_s_p50"] = statistics.median(seed_walls)
        m["peak_rss_mb"] = max(d["peak_rss_mb"], d["worker_peak_rss_mb"])
        q = d["query_samples"]
        m["query_ms_p50"] = 1e3 * quantile(q, 0.5)
        m["query_ms_p90"] = 1e3 * quantile(q, 0.9)
        samples = {"slots_per_s": len(runs), "cells_per_s": len(runs),
                   "seed_s_p50": len(seed_walls), "query_ms_p50": len(q), "query_ms_p90": len(q)}
    else:
        seeds = d["seeds"]
        m["slots_per_s"] = statistics.median(s["slots"] / s["driver_s"] for s in seeds)
        m["seed_s_p50"] = statistics.median(s["wall_s"] for s in seeds)
        m["peak_rss_mb"] = d["peak_rss_mb"]
        samples = {"slots_per_s": len(seeds), "seed_s_p50": len(seeds)}
    samples["setup_s"] = len(d["setup_samples"])
    return m, samples


def per_layer(d):
    """Every per-layer metric of a traced run (0 where the layer is idle)."""
    L = dict(d["layers"])
    get = lambda k: L.get(k, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    L["sim.unattributed_share"] = ratio(get("sim.driver_self_s"), get("scenario.driver_run_s"))
    L["medium.us_per_slot"] = 1e6 * ratio(get("medium.resolve_slot_s"), get("medium.slots"))
    L["medium.active_fraction"] = ratio(get("medium.tx_intents") + get("medium.listen_intents"),
                                        get("sim.node_slots"))
    L["medium.decode_rate"] = ratio(get("medium.decodes"), get("medium.listen_intents"))
    L["store.bytes_per_cell"] = ratio(get("store.bytes_written"), get("store.cells_written"))
    L["telemetry.overhead_ratio"] = ratio(get("telemetry.traced_wall_s"),
                                          get("telemetry.plain_wall_s"))
    return {name: float(get(name)) for name, _ in PER_LAYER}, L


def print_end_to_end(d, m, samples):
    print("== %s: end-to-end (tracing off, %d attempted, %d failed) =="
          % (d["workload"], d["attempted"], d["failed"]))
    for name, unit, gated in END_TO_END:
        if name in m:
            n = samples.get(name)
            extra = "  (n=%d)" % n if n else ""
            print("  %-16s %14.6g %-8s%s%s" % (name, m[name], unit, "" if gated else " ungated",
                                              extra))
    if d["workload"] == "campaign":
        print("  %-16s %14.6g %-8s  (coordinator %.1f)" % (
            "worker_peak_rss", d["worker_peak_rss_mb"], "MB", d["peak_rss_mb"]))
    over = ("the first campaign" if d["workload"] == "campaign"
            else "the %d fixed seeds" % d["fixed_seeds"])
    print("  %-16s %s  (over %s; changes iff the simulation does)"
          % ("digest", d["digest"], over))
    print_undelivered(d)


def print_undelivered(d):
    """Seeds whose protocol ran out of rounds: an outcome, not a failure."""
    u = d["undelivered"]
    if u:
        print("  %-16s %d seed(s), audited Invalid as simulated: %s"
              % ("undelivered", len(u), "; ".join(u[:8]) + (" ..." if len(u) > 8 else "")))


def print_attribution(d, L):
    """Each layer's time and its share of the wall it is part of."""
    print("== %s: per-layer (traced run, digest %s, trace overhead x%.3f) =="
          % (d["workload"], d["digest"], L["telemetry.overhead_ratio"]))
    get = lambda k: L.get(k, 0.0)
    if d["workload"] == "campaign":
        base = {"campaign wall": get("campaign.wall_s"),
                "cell compute": get("campaign.cell_compute_s")}
        rows = [("campaign", "campaign.wall_s", get("campaign.wall_s"), "campaign wall"),
                ("campaign", "campaign.first_lease_s", get("campaign.first_lease_s"),
                 "campaign wall"),
                ("campaign", "campaign.cell_compute_s / workers",
                 get("campaign.cell_compute_s") / d["workers"], "campaign wall"),
                ("campaign", "campaign.lease_rtt_s", get("campaign.lease_rtt_s"), "campaign wall"),
                ("campaign", "campaign.reduce_s", get("campaign.reduce_s"), "campaign wall"),
                ("store", "store.write_cell_s", get("store.write_cell_s"), "campaign wall"),
                ("campaign", "campaign.report_s (after wall)", get("campaign.report_s"),
                 "campaign wall"),
                ("scenario", "scenario.driver_run_s (workers)", get("scenario.driver_run_s"),
                 "cell compute"),
                ("sinr", "  medium.resolve_slot_s", get("medium.resolve_slot_s"), "cell compute"),
                ("sim", "  sim.driver_self_s", get("sim.driver_self_s"), "cell compute")]
        print("  %-9s %-36s %11s  %s" % ("layer", "row", "seconds", "share"))
        for layer, row, sec, of in rows:
            print("  %-9s %-36s %11.6f  %5.1f%% of %s" % (
                layer, row, sec, 100 * sec / base[of] if base[of] else 0.0, of))
    else:
        wall = get("seed_wall_s")
        # Exclusive rows sum to the seed wall; indented rows are inside
        # the row above them.
        rows = [("scenario", "scenario.deploy_s", True),
                ("sim", "sim.network_s", True),
                ("sim", "sim.simulator_s", True),
                ("scenario", "scenario.driver_run_s", False),
                ("sinr", "  medium.resolve_slot_s", True),
                ("sinr", "    medium.populate_s", False),
                ("sinr", "    medium.sweep_s", False),
                ("sinr", "    medium.build_fields_s", False),
                ("geom", "    geom.hier_traverse_s", False),
                ("mobility", "  mobility.advance_s", True),
                ("mobility", "    mobility.motion_s", False),
                ("mobility", "    mobility.sample_s", False),
                ("sim", "  sim.driver_self_s", True),
                ("scenario", "scenario.finalize_s", True),
                ("geom", "geom.grid_update_s (in sinr+mobility)", False)]
        total = 0.0
        print("  %-9s %-38s %11s  %s" % ("layer", "row", "seconds", "share of seed wall"))
        for layer, row, exclusive in rows:
            sec = get(row.strip().split(" ")[0])
            total += sec if exclusive else 0.0
            print("  %-9s %-38s %11.6f  %5.1f%%" % (layer, row, sec,
                                                    100 * sec / wall if wall else 0.0))
        print("  %-9s %-38s %11.6f  %5.1f%%  (exclusive rows)" % (
            "", "sum", total, 100 * total / wall if wall else 0.0))
        print("  %-9s %-38s %11.6f  over %d fixed seeds" % ("", "seed wall", wall,
                                                              d["fixed_seeds"]))
    print_undelivered(d)
    print("  work: " + ", ".join("%s=%.6g" % (k, get(k)) for k, u in PER_LAYER
                                 if u in ("count", "ratio", "us", "bytes") and get(k)))


def run_one(binary, work_dir, workload, seed, seconds, trace):
    d = run_driver(binary, work_dir, workload, seed, seconds, trace)
    for p in d["problems"]:
        log("CHECK FAILED (%s): %s" % (workload, p))
    if trace:
        metrics, L = per_layer(d)
        print_attribution(d, L)
        units = dict(PER_LAYER)
    else:
        m, samples = end_to_end(d)
        print_end_to_end(d, m, samples)
        metrics = {name: m[name] for name, _ in GATED}
        units = dict(GATED)
        d["all_metrics"] = m
    result = {"correct": d["failed"] == 0, "attempted": d["attempted"], "failed": d["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return d, result


def print_summary(results):
    """The all-workload grid: every end-to-end metric by name and unit."""
    print("== summary (tracing off) ==")
    print("  %-16s %-8s" % ("metric", "unit") + "".join("%14s" % w for w in WORKLOADS))
    for name, unit, _ in END_TO_END:
        cells = []
        for w in WORKLOADS:
            v = results[w]["all_metrics"].get(name) if w in results else None
            cells.append("%14s" % ("-" if v is None else "%.6g" % v))
        print("  %-16s %-8s" % (name, unit) + "".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        t0 = time.time()
        build_dir, binary = build()
        log("perfbench: build ready in %.1f s" % (time.time() - t0))
        work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
        os.makedirs(work_dir, exist_ok=True)
        try:
            workloads = [args.workload] if args.workload else WORKLOADS
            results, final = {}, []
            for w in workloads:
                results[w], result = run_one(binary, work_dir, w, args.seed, args.seconds,
                                             args.trace)
                final.append(result)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: " + str(e))
        return 2

    if len(final) == 1:
        result = final[0]
    else:
        if not args.trace:
            print_summary(results)
        result = {"correct": all(r["correct"] for r in final),
                  "attempted": sum(r["attempted"] for r in final),
                  "failed": sum(r["failed"] for r in final),
                  "metrics": {w + "." + k: v for w, r in zip(workloads, final)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
