"""Benchmark of the tensq CLI on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client drives the CLI in a closed loop: each unit of work is one
fresh python3 child process running the tensq CLI (or, for verify-all, one per
panel tuple, run back to back), started only after the previous one
has exited.  A unit starts only if it is expected to end within
--seconds of the first one; the first always runs.  Every output is
checked (see workloads.py) and every deterministic counter must repeat
exactly, within the run and across runs of the same source, or the run
is reported incorrect.

Untraced children run through refclock.py, which samples the host's
speed during the command, so times are reported in reference seconds,
which repeat on a host whose speed drifts.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 the run adds
one traced unit (tracer.py) and reports the per-layer metrics,
including the tracing overhead.  Spans, unit results and run context go to .perfbench_out/ in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import refclock
import workloads as wl

WORKLOADS = ("closed-form-sweep", "closed-form-cached", "oracle-crosscheck", "verify-all")
# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S has
# been spent, so cheap set-ups get enough samples for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
TRACER = os.path.join(wl.HERE, "tracer.py")
REFCLOCK = os.path.join(wl.HERE, "refclock.py")

# Counters that must repeat exactly for the same source and seed.
DETERMINISTIC = (
    "rows_ok",
    "cli.cache_files",
    "abgrp.pivots",
    "abgrp.unit_pivots",
    "abgrp.core_dim",
    "abgrp.max_coeff_bits",
    "abgrp.insert_calls",
    "abgrp.contains_calls",
    "abgrp.quotient_structure_calls",
    "oracle.raw_rows",
    "oracle.distinct_rows",
    "oracle.suite_instances",
    "oracle.suite_failed",
    "fpgrp.cosets_used",
    "fpgrp.nu_order",
    "fpgrp.coincidences",
    "fpgrp.merge_calls",
    "cli.cache_hits",
    "trace.spans",
)


def declared_units(root):
    """Metric name -> unit for the end-to-end and the per-layer metrics,
    as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def run_child(argv, env, out_path, err_path):
    """Run `python3 ARGV` to completion; (exit code, wall s, peak RSS MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)

    def kill(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


class Workload:
    """Inputs of one workload for one seed, and how to run and check a unit."""

    def __init__(self, name, seed, root, work, pinned):
        self.name = name
        self.work = work
        self.pinned = pinned
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("TENSQ_CACHE_DIR", None)
        rng = random.Random(seed)
        if name in ("closed-form-sweep", "closed-form-cached"):
            self.tuples, self.groups = wl.sweep_manifest(rng, wl.population(), pinned)
        else:
            panel = list(wl.ORACLE_PANEL if name == "oracle-crosscheck" else wl.VERIFY_PANEL)
            rng.shuffle(panel)
            self.tuples = panel
            self.groups = {f"oracle:{wl.key(t)}": [wl.key(t)] for t in panel}
        self.cache = None
        if name == "verify-all":
            self.invocations = [
                ["verify", "--m", str(m), "--n", str(n), "--r", str(r), "--s", str(s), "--suite", "all"]
                for m, n, r, s in self.tuples
            ]
        else:
            manifest = os.path.join(work, "manifest.json")
            with open(manifest, "w", encoding="utf-8") as fh:
                json.dump({"tuples": [list(t) for t in self.tuples]}, fh)
            argv = ["batch", "--manifest", manifest, "--out", os.path.join(work, "rows.jsonl")]
            if name == "oracle-crosscheck":
                argv.insert(1, "--oracle")
            self.invocations = [argv]
        if name == "closed-form-cached":
            self.cache = os.path.join(work, "cache")
            self.env["TENSQ_CACHE_DIR"] = self.cache

    def run_unit(self, trace_dir=None):
        """Run every invocation once and check the outputs."""
        unit = {"wall_s": 0.0, "ref_s": 0.0, "rss_mb": 0.0, "tuples": len(self.tuples), "failed": 0,
                "exit_codes": [], "out_bytes": 0, "traces": [], "load_before": os.getloadavg()}
        counters = defaultdict(int)
        for i, argv in enumerate(self.invocations):
            stdout = os.path.join(self.work, f"stdout{i}.txt")
            clock_path = os.path.join(self.work, "clock.json")
            if trace_dir is None:
                child_argv = [REFCLOCK, clock_path, *argv]
                if os.path.exists(clock_path):
                    os.remove(clock_path)
            else:
                trace_path = os.path.join(trace_dir, f"trace{i}.json")
                child_argv = [TRACER, trace_path, *argv]
            if self.name != "verify-all" and os.path.exists(argv[-1]):
                os.remove(argv[-1])  # never check a previous unit's rows
            code, wall, rss = run_child(child_argv, self.env, stdout, os.path.join(self.work, "stderr.txt"))
            unit["wall_s"] += wall
            if trace_dir is None:
                # Reference seconds; a child that wrote no clock (it
                # crashed, and fails the gate) counts its wall time.
                try:
                    with open(clock_path, encoding="utf-8") as fh:
                        loop_s = json.load(fh)["loop_s"]
                except (OSError, ValueError, KeyError):
                    loop_s = refclock.REFERENCE_S
                unit["ref_s"] += wall * refclock.REFERENCE_S / loop_s
            unit["rss_mb"] = max(unit["rss_mb"], rss)
            unit["exit_codes"].append(code)
            if trace_dir is not None and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    unit["traces"].append(json.load(fh))
            if self.name == "verify-all":
                unit["out_bytes"] += os.path.getsize(stdout)
                with open(stdout, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
                t = self.tuples[i]
                digest, ok, found = wl.verify_semantics(t, code, text)
                if not ok or digest != wl.expected_digest(self.pinned, f"verify:{wl.key(t)}"):
                    unit["failed"] += 1
                for k, v in found.items():
                    counters[k] += v
                counters["rows_ok"] += ok
            else:
                failed = self._check_batch(code, counters)
                unit["failed"] += failed
                unit["out_bytes"] += os.path.getsize(argv[-1]) if os.path.exists(argv[-1]) else 0
        if self.cache is not None:
            names = os.listdir(self.cache) if os.path.isdir(self.cache) else []
            counters["cli.cache_files"] = len(names)
            unit["cache_bytes"] = sum(os.path.getsize(os.path.join(self.cache, n)) for n in names)
        unit["load_after"] = os.getloadavg()
        unit["counters"] = dict(counters)
        return unit

    def _check_batch(self, code, counters) -> int:
        """Failed tuples of the batch just run: non-ok rows, a non-zero
        exit, missing rows, and every tuple of a group whose digest
        differs from the pinned one."""
        out = self.invocations[0][-1]
        digests, bad = {}, set()
        try:
            with open(out, encoding="utf-8") as fh:
                for line in fh:
                    k, digest, ok, record = wl.batch_row_semantics(json.loads(line))
                    digests[k] = digest
                    if not ok:
                        bad.add(k)
                        continue
                    counters["rows_ok"] += 1
                    if record.get("oracle"):
                        counters["oracle.raw_rows"] += record["oracle"]["raw_rows"]
                        counters["oracle.distinct_rows"] += record["oracle"]["distinct_rows"]
        except (OSError, ValueError, KeyError, TypeError):
            return len(self.tuples)
        if code != 0:
            return len(self.tuples)
        for group, keys in self.groups.items():
            if wl.group_digest(digests, keys) != wl.expected_digest(self.pinned, group):
                bad.update(keys)
        bad.update(k for k in map(wl.key, self.tuples) if k not in digests)
        return len(bad)


def setup(name, seed, root, work, pinned):
    """Generate the inputs and start the CLI once; for closed-form-cached
    also run the cold pass that fills a fresh record cache."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    load = Workload(name, seed, root, work, pinned)
    code, _, _ = run_child(["-m", "tensq.cli", "--version"], load.env,
                           os.path.join(work, "version.txt"), os.path.join(work, "stderr.txt"))
    cold = load.run_unit() if load.cache is not None else None
    return load, code, cold


def layer_metrics(traces):
    """Per-layer totals, self times and counters from the traced unit."""
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    counters = defaultdict(int)
    rowgen = 0.0
    nspans = 0
    for tr in traces:
        spans = tr["spans"]
        nspans += len(spans)
        covered = [0.0] * len(spans)
        insert_under = defaultdict(float)
        quotient_under = defaultdict(float)
        for parent, name, count, seconds in tr["agg"]:
            total[name] += seconds
            calls[name] += count
            layer_self[name.split(".")[0]] += seconds
            if parent >= 0:
                covered[parent] += seconds
            if name == "abgrp.insert":
                insert_under[parent] += seconds
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
            if name == "abgrp.quotient_from_lattice":
                quotient_under[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            layer_self[name.split(".")[0]] += end - start - covered[i]
            if name == "oracle.build_tensor_oracle":
                rowgen += end - start - insert_under[i] - quotient_under[i]
        for k, v in tr["counters"].items():
            counters[k] = max(counters[k], v) if k == "abgrp.max_coeff_bits" else counters[k] + v

    def mean_us(name):
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    cosets = counters["fpgrp.cosets_used"]
    raw = counters["oracle.raw_rows"]
    out = {
        "numth.mult_order_s": total["numth.mult_order"],
        "numth.geom_sum_s": total["numth.geom_sum"],
        "metagrp.validate_us": mean_us("metagrp.validate"),
        "metagrp.derived_invariants_us": mean_us("metagrp.derived_invariants"),
        "presentations.exterior_and_schur_us": mean_us("presentations.exterior_and_schur"),
        "presentations.nu_presentation_s": total["presentations.nu_presentation"],
        "abgrp.quotient_structure_calls": calls["abgrp.quotient_structure"],
        "abgrp.quotient_structure_s": total["abgrp.quotient_structure"],
        "abgrp.insert_calls": calls["abgrp.insert"],
        "abgrp.insert_s": total["abgrp.insert"],
        "abgrp.quotient_from_lattice_s": total["abgrp.quotient_from_lattice"],
        "abgrp.snf_s": total["abgrp.smith_normal_form"],
        "abgrp.contains_calls": calls["abgrp.contains"],
        "abgrp.contains_s": total["abgrp.contains"],
        "abgrp.element_order_s": total["abgrp.element_order"],
        "oracle.build_s": total["oracle.build_tensor_oracle"],
        "oracle.rowgen_self_s": rowgen,
        "oracle.exterior_s": total["oracle.exterior_oracle"],
        "oracle.distinct_ratio": counters["oracle.distinct_rows"] / raw if raw else 0.0,
        "oracle.identities_s": total["oracle.verify_identities"],
        "oracle.bounds_s": total["oracle.verify_bounds"],
        "fpgrp.todd_coxeter_s": total["fpgrp.todd_coxeter"],
        "fpgrp.coset_yield": counters["fpgrp.nu_order"] / cosets if cosets else 0.0,
        "fpgrp.merge_calls": calls["fpgrp.merge"],
        "cli.build_run_record_s": total["cli.build_run_record"],
        "trace.spans": nspans,
    }
    for name in ("abgrp.pivots", "abgrp.unit_pivots", "abgrp.core_dim", "abgrp.max_coeff_bits",
                 "oracle.raw_rows", "oracle.distinct_rows", "oracle.suite_instances",
                 "oracle.suite_failed", "fpgrp.cosets_used", "fpgrp.nu_order", "fpgrp.coincidences"):
        out[name] = counters[name]
    for layer in ("numth", "metagrp", "presentations", "abgrp", "oracle", "fpgrp", "cli"):
        out[f"{layer}.self_s"] = layer_self[layer]
    return out, calls


def per_tuple_table(traces):
    """Oracle build time and lattice counters for each traced tuple."""
    rows = {}
    for tr in traces:
        for tid, counters in tr["per_tuple"].items():
            rows.setdefault(tid, {}).update(counters)
        for name, start, end, _, tid in tr["spans"]:
            if name in ("oracle.build_tensor_oracle", "fpgrp.todd_coxeter"):
                row = rows.setdefault(tid, {})
                row[name + "_s"] = row.get(name + "_s", 0.0) + end - start
    return rows


def source_digest(root) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root) -> str:
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def check_counters(store_path, store_key, counters) -> list[str]:
    """Compare with the counters stored for the same source, workload and
    seed; store the union.  Returns one message per drifting counter."""
    try:
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(store_key, {})
    drift = [
        f"nondeterministic counter {k}: earlier run {seen[k]}, this run {v}"
        for k, v in counters.items()
        if k in seen and seen[k] != v
    ]
    if not drift:
        seen.update(counters)
        tmp = store_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, store_path)
    return drift


def run_workload(name, seed, seconds, trace, root):
    pinned = wl.load_pinned()
    end_to_end_units, per_layer_units = declared_units(root)
    out_dir = os.path.join(root, OUT_DIR)
    work = os.path.join(root, WORK_DIR)
    os.makedirs(out_dir, exist_ok=True)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "source": source_digest(root),
        "load_before": os.getloadavg(),
    }
    problems = []
    attempted = failed = 0

    setup_walls, setup_times = [], []
    while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_MIN_S:
        # Set-up is timed in reference seconds too: the cold pass by its
        # own children's clocks, the rest from reference-loop bursts just
        # before and just after the set-up.
        loop_times = refclock.burst()
        start = perf_counter()
        load, code, cold = setup(name, seed, root, work, pinned)
        setup_walls.append(perf_counter() - start)
        loop_times += refclock.burst()
        cold_wall, cold_ref = (cold["wall_s"], cold["ref_s"]) if cold else (0.0, 0.0)
        scale = refclock.REFERENCE_S / refclock.trimmed_mean(loop_times)
        setup_times.append((setup_walls[-1] - cold_wall) * scale + cold_ref)
        if code != 0:
            problems.append(f"tensq --version exited {code}")
        if cold is not None:
            attempted += cold["tuples"]
            failed += cold["failed"]

    units = []
    start = perf_counter()
    while not units or perf_counter() - start + statistics.mean(u["wall_s"] for u in units) <= seconds:
        units.append(load.run_unit())
    traced = None
    if trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        traced = load.run_unit(trace_dir)
    for unit in units + ([traced] if traced else []):
        attempted += unit["tuples"]
        failed += unit["failed"]
        if any(unit["exit_codes"]):
            problems.append(f"non-zero exit codes {unit['exit_codes']}")

    counters = dict(units[0]["counters"])
    for unit in units[1:]:
        for k, v in unit["counters"].items():
            if counters.get(k) != v:
                problems.append(f"nondeterministic counter {k}: {counters.get(k)} then {v} within the run")
    per_tuple = {}
    if traced:
        walls = [u["wall_s"] for u in units]
        layers, calls = layer_metrics(traced["traces"])
        lookups = len(load.tuples) if load.cache is not None else 0
        hits = lookups - calls["cli.build_run_record"] if lookups else 0
        layers.update({
            "cli.cache_hits": hits,
            "cli.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "cli.out_bytes": traced["out_bytes"],
            "cli.cache_bytes": traced.get("cache_bytes", 0),
            "trace.traced_wall_s": traced["wall_s"],
            "trace.untraced_median_s": statistics.median(walls),
            "trace.overhead_s": traced["wall_s"] - statistics.median(walls),
        })
        traced_counters = dict(traced["counters"])
        traced_counters.update({k: v for k, v in layers.items() if k in DETERMINISTIC})
        for k, v in traced_counters.items():
            if k in counters and counters[k] != v:
                problems.append(f"counter {k}: untraced {counters[k]}, traced {v}")
        counters.update(traced_counters)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units.items()}
        per_tuple = per_tuple_table(traced["traces"])
    else:
        values = {
            "tuples_per_ref_s": statistics.median((u["tuples"] - u["failed"]) / u["ref_s"] for u in units),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(u["rss_mb"] for u in units),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end_units.items()}
    counters = {k: v for k, v in counters.items() if k in DETERMINISTIC}
    problems += check_counters(
        os.path.join(out_dir, "counters.json"), f"{context['source']}/{name}/seed{seed}", counters
    )
    context["load_after"] = os.getloadavg()

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if traced:
        with open(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(traced.pop("traces"), fh, separators=(",", ":"))
    record = {
        "context": context,
        "result": result,
        "problems": problems,
        "setup_s": setup_times,
        "setup_wall_s": setup_walls,
        "units": units,
        "traced_unit": traced,
        "counters": counters,
        "per_tuple": per_tuple,
    }
    tag = f"{name}-seed{seed}-trace{trace}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    report(record)
    return result


def report(record):
    ctx, result = record["context"], record["result"]
    units = record["units"]
    print(
        f"workload {ctx['workload']}  seed {ctx['seed']}  trace {ctx['trace']}: "
        f"{len(units)} units of {units[0]['tuples']} tuples, "
        f"{result['attempted']} tuples attempted, {result['failed']} failed"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    wall_rate = statistics.median((u["tuples"] - u["failed"]) / u["wall_s"] for u in units)
    speed = statistics.median(u["ref_s"] / u["wall_s"] for u in units)
    print(f"  {'tuples_per_s (wall time)':38s} {wall_rate:.6g} 1/s, host speed {speed:.3g} of reference")
    print(f"  {'failed_frac':38s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for tid, row in sorted(record["per_tuple"].items()):
        if tid:
            print(f"  tuple ({tid}): " + ", ".join(f"{k} {v:.6g}" for k, v in sorted(row.items())))
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        f"  context: python {ctx['python']}, nproc {ctx['nproc']}, load "
        f"{ctx['load_before'][0]:.2f} -> {ctx['load_after'][0]:.2f}, commit {ctx['commit']}, "
        f"source {ctx['source']}, seed {ctx['seed']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tensq", "cli.py")):
        print("error: run from the tensq repository root; src/tensq/cli.py not found", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, root) for name in names}
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
