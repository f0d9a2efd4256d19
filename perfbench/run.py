"""The affrig benchmark: one command, one workload, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed in a separate process,
starts ``SETUPS`` fresh workers one after another to time set-up, each
right after a set-up reference process, and lets the last of them run the ops in a closed loop with one client for the given
seconds. Every answer is checked. It prints a run record (machine,
environment, per-kind latencies, and with ``--trace 1`` per-layer spans),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide", "register", "embed")
SETUPS = 7
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
SETUP_TIMEOUT = 120
# About the reference kernel's time (worker.reference) on the machine this
# benchmark was defined on (2-vCPU Intel Xeon VM). Op times are reported in
# seconds at that speed: wall seconds times REFERENCE_S over the reference
# time measured around the op.
REFERENCE_S = 0.058
# Set-up is process start and imports, whose speed on a shared host swings
# between phases that the compute kernel above does not follow. Each set-up
# is scaled by the time, taken just before it, of a fresh interpreter that
# imports numpy (setup_reference); SETUP_REFERENCE_S is about that time on
# the machine this benchmark was defined on.
SETUP_REFERENCE_S = 0.2
# Each timed kind's reference_speed_s at the commit this benchmark was
# defined against: medians over ten seeds on that machine. worst_kind_ratio
# is the largest ratio of a kind's figure to its baseline, so a slowdown of
# one command shows undiluted by the workload's other kinds. A kind that
# becomes timed needs an entry here.
BASELINE_S = {
    "decide": {"test_generic": 0.4366, "test_generic_flexible": 0.5319,
               "test_framework": 1.5815, "test_neighborhood": 0.9543,
               "connectivity": 0.7241},
    "register": {"register_euclidean": 2.6231, "register_affine": 1.315,
                 "zz": 1.4793},
    "embed": {"connectivity": 1.0339, "embed": 3.7617},
}

# Spans that must fire on the workload whose end-to-end metrics they move.
REQUIRED_SPANS = {
    "decide": [
        "cli.main", "formats.load_document", "hypergraph.is_k_vertex_connected",
        "numkernel.prime_field_rank", "numkernel.prime_field_nullspace",
        "numkernel.PrimeFieldMatrix.from_integers", "rigidity.field_affinity_corank",
        "rigidity.generic_affine_rigidity_test", "rigidity.strong_affinity_matrix",
        "rigidity.nonsymmetric_stress", "rigidity.stress_corank",
    ],
    "register": [
        "cli.main", "formats.load_document", "formats.write_document",
        "formats.scan_set_from_document", "linalg.svd", "numkernel.numerical_kernel",
        "hypergraph.zha_zhang_condition", "registration.best_fit_affine",
        "registration.best_fit_euclidean", "registration.remove_affine",
    ],
    "embed": [
        "cli.main", "hypergraph.is_k_vertex_connected", "optimize.linprog",
        "rigidity.rubber_band_embedding", "rigidity.nonsymmetric_stress",
        "rigidity.stress_corank", "rigidity.conic_at_infinity_test", "linalg.svd",
        "numkernel.numerical_kernel",
    ],
}

# Per-layer metrics: sums over the traced rounds divided by their number,
# except the three ratios, which are ratios of those sums.
RATIOS = {
    "linalg.svd.full_u_share": ("linalg.svd", "full_u_bytes", "computed_bytes"),
    "rigidity.generic.trials_per_test": (
        "rigidity.generic_affine_rigidity_test",
        "within.rigidity.field_affinity_corank", "calls"),
    "rigidity.rubber_band.lp_per_interior_vertex": (
        "rigidity.rubber_band_embedding", "within.optimize.linprog", "interior"),
}
UNITS = {"self_s": "s/round", "calls": "count/round", "bytes": "B/round",
         "computed_bytes": "B/round", "cells": "count/round", "rows": "count/round",
         "tall_calls": "count/round"}
PER_LAYER = [
    "cli.main.self_s",
    "formats.load_document.self_s", "formats.load_document.bytes",
    "formats.write_document.self_s", "formats.write_document.bytes",
    "formats.structure_from_document.self_s", "formats.scan_set_from_document.self_s",
    "formats.coordinates_from_document.self_s",
    "hypergraph.is_k_vertex_connected.calls", "hypergraph.is_k_vertex_connected.self_s",
    "hypergraph.zha_zhang_condition.calls", "hypergraph.zha_zhang_condition.self_s",
    "hypergraph.neighborhood_hypergraph.self_s", "hypergraph.squared_graph.self_s",
    "hypergraph.body_graph.self_s", "hypergraph.Graph.from_edges.self_s",
    "hypergraph.Hypergraph.from_hyperedges.self_s",
    "numkernel.numerical_kernel.calls", "numkernel.numerical_kernel.self_s",
    "numkernel.numerical_kernel.cells", "numkernel.numerical_kernel.tall_calls",
    "numkernel.numerical_rank.calls",
    "numkernel.prime_field_rank.calls", "numkernel.prime_field_rank.self_s",
    "numkernel.prime_field_rank.cells",
    "numkernel.prime_field_nullspace.calls", "numkernel.prime_field_nullspace.self_s",
    "numkernel.PrimeFieldMatrix.from_integers.self_s",
    "numkernel.least_squares.self_s", "numkernel.psd_cholesky.self_s",
    "linalg.svd.calls", "linalg.svd.self_s", "linalg.svd.computed_bytes",
    "linalg.svd.full_u_share",
    "optimize.linprog.calls", "optimize.linprog.self_s",
    "rigidity.strong_affinity_matrix.calls", "rigidity.strong_affinity_matrix.self_s",
    "rigidity.strong_affinity_matrix.rows",
    "rigidity.affinity_corank.self_s",
    "rigidity.field_affinity_corank.calls", "rigidity.field_affinity_corank.self_s",
    "rigidity.generic.trials_per_test",
    "rigidity.affine_rigidity_test.self_s",
    "rigidity.generic_affine_rigidity_test.self_s",
    "rigidity.neighborhood_affine_rigidity_test.self_s",
    "rigidity.nonsymmetric_stress.calls", "rigidity.nonsymmetric_stress.self_s",
    "rigidity.stress_corank.self_s", "rigidity.positive_stress.self_s",
    "rigidity.rubber_band_embedding.self_s",
    "rigidity.rubber_band.lp_per_interior_vertex",
    "rigidity.conic_at_infinity_test.calls", "rigidity.conic_at_infinity_test.self_s",
    "rigidity.universal_rigidity_certificate.self_s",
    "rigidity.affinity_residuals.self_s",
    "registration.affine_register.self_s", "registration.euclidean_register.self_s",
    "registration.remove_affine.self_s",
    "registration.best_fit_affine.calls", "registration.best_fit_affine.self_s",
    "registration.best_fit_euclidean.calls", "registration.best_fit_euclidean.self_s",
]


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def layer_metric(name: str, totals: dict, rounds: int) -> dict:
    if name in RATIOS:
        span, top, bottom = RATIOS[name]
        entry = totals.get(span, {})
        below = entry.get(bottom, 0)
        return {"value": entry.get(top, 0) / below if below else 0.0,
                "unit": "ratio"}
    span, field = name.rsplit(".", 1)
    return {"value": totals.get(span, {}).get(field, 0) / rounds,
            "unit": UNITS[field]}


# -- machine and environment ---------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


# -- statistics ------------------------------------------------------------------

def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest value once there are five or more."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 5 else ordered)


def finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def latency(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            high = {"p": p, "s": ordered[max(0, math.ceil(p / 100 * n) - 1)]}
    median = statistics.median(ordered)
    return {"median_s": finite(median), "unbounded": not math.isfinite(median),
            "high": high, "n": n, "trimmed_mean_s": finite(trimmed_mean(ordered))}


def failure(sample: dict) -> str | None:
    """The exception an op raised or why its answer was wrong; None if it passed."""
    return sample["error"] or sample["wrong"]


def summarize(samples: list[dict], manifest: dict) -> dict:
    """Per-kind latency; failed ops count as infinite latency."""
    kinds = {}
    for kind, spec in manifest["ops"].items():
        if kind == "graphs":
            continue
        mine = [s for s in samples if s["kind"] == kind]
        scaled = [math.inf if failure(s) else s["seconds"] / s["reference"] for s in mine]
        kinds[kind] = {
            **latency([math.inf if failure(s) else s["seconds"] for s in mine]),
            "reference_speed_s": finite(REFERENCE_S * trimmed_mean(scaled)),
            "timed": spec.get("timed", True),
            "failed": sum(1 for s in mine if failure(s)),
            "failures": sorted({failure(s) for s in mine if failure(s)}),
        }
    return kinds


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(workload: str, kinds: dict, setups: dict,
               result: dict) -> tuple[dict, dict]:
    """The metrics, and the wall-clock values beside the scaled times.

    A shared host's speed swings by tens of percent within a minute, and op
    times come in fast and slow modes, so the median of a few samples jumps
    between modes. The answer times therefore take trimmed means of op times
    scaled to the reference speed by the reference runs around each op, and
    set-up is scaled by the set-up reference run just before it.
    """
    timed = {k: v for k, v in kinds.items() if v["timed"]}
    failing = [k for k, v in timed.items() if v["failed"]]
    if failing:
        raise BenchmarkError(f"timed ops failed: {failing}")
    baseline = BASELINE_S[workload]
    missing = sorted(set(timed) - set(baseline))
    if missing:
        raise BenchmarkError(f"timed kinds without a baseline: {missing}")
    for kind, entry in timed.items():
        entry["vs_baseline"] = entry["reference_speed_s"] / baseline[kind]
    scaled_setups = [SETUP_REFERENCE_S * wall / reference
                     for wall, reference in zip(setups["wall_s"], setups["reference_s"])]
    wall = {
        "answer_geomean_s": geomean(v["trimmed_mean_s"] for v in timed.values()),
        "reference_s": trimmed_mean(result["references"]),
        "setup_s": statistics.median(setups["wall_s"]),
        "setup_reference_s": statistics.median(setups["reference_s"]),
    }
    metrics = {
        "answer_geomean_s": {
            "value": geomean(v["reference_speed_s"] for v in timed.values()),
            "unit": "s"},
        "worst_kind_ratio": {
            "value": max(v["vs_baseline"] for v in timed.values()), "unit": "ratio"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
    }
    return metrics, wall


def per_layer(workload: str, result: dict, kinds: dict) -> tuple[dict, dict]:
    spans = result["spans"]
    traced_rounds = len({s["round"] for s in result["samples"] if s["traced"]})
    totals: dict[str, dict[str, float]] = {}
    for per_kind in spans.values():
        for name, entry in per_kind.items():
            into = totals.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    silent = [name for name in REQUIRED_SPANS[workload] if not totals.get(name)]
    if silent:
        raise BenchmarkError(f"spans never fired on {workload}: {silent}")
    metrics = {name: layer_metric(name, totals, traced_rounds) for name in PER_LAYER}
    per_op = {}
    for kind, per_kind in spans.items():
        ops = sum(1 for s in result["samples"] if s["traced"] and s["kind"] == kind)
        per_op[kind] = {
            name: {key: round(value / ops, 9) for key, value in entry.items()}
            for name, entry in sorted(per_kind.items())
        }
        per_op[kind].update(
            {name: layer_metric(name, per_kind, ops)["value"] for name in RATIOS})
    overhead = {}
    for kind in kinds:
        passed = [s for s in result["samples"] if s["kind"] == kind and not failure(s)]
        traced = [s["seconds"] for s in passed if s["traced"]]
        plain = [s["seconds"] for s in passed if not s["traced"]]
        if traced and plain:
            t, p = statistics.median(traced), statistics.median(plain)
            overhead[kind] = {"traced_s": t, "untraced_s": p, "overhead_s": t - p,
                              "overhead_share": (t - p) / p}
    trace = {"traced_rounds": traced_rounds, "per_op": per_op,
             "overhead": overhead,
             "waiting": "none: ops run one at a time in one process, so no "
                        "layer waits on another"}
    return metrics, trace


# -- processes -------------------------------------------------------------------

def worker_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def start_worker(work: str, env: dict) -> tuple[subprocess.Popen, float]:
    """A fresh worker and the seconds it took to become ready."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), work],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    ready = perf_counter() - start
    if not line or not json.loads(line).get("ready"):
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker did not become ready")
    return proc, ready


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_reference(env: dict) -> float:
    """Seconds for a fresh interpreter to import numpy; it never imports affrig.

    The wait blocks, with a watchdog, because a wait with a timeout polls in
    steps of up to 50 ms, too coarse for a time this short.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"], env=env)
    watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise BenchmarkError(f"set-up reference exited with code {code}")
    return elapsed


def measure(root: str, work: str, seconds: int, trace: int) -> tuple[dict, dict]:
    env = worker_env(root, len(os.sched_getaffinity(0)))
    setups = {"wall_s": [], "reference_s": []}
    proc = None
    try:
        for attempt in range(SETUPS):
            setups["reference_s"].append(setup_reference(env))
            proc, ready = start_worker(work, env)
            setups["wall_s"].append(ready)
            if attempt < SETUPS - 1:
                proc.communicate('{"run": false}\n', timeout=SETUP_TIMEOUT)
        command = {"run": True, "seconds": seconds, "trace": trace}
        out, _ = proc.communicate(json.dumps(command) + "\n",
                                  timeout=seconds + SETUP_TIMEOUT)
    finally:
        if proc is not None:
            stop(proc)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def main() -> int:
    # Let finally blocks stop the worker and remove the inputs on SIGTERM.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description="affrig benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "affrig", "__init__.py")):
        print("perfbench: run from the root of an affrig checkout "
              "(src/affrig is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import checks

    misses = checks.self_test()
    if misses:
        print(f"perfbench: answer checks accept wrong answers: {misses}",
              file=sys.stderr)
        return 1

    work = os.path.join(root, ".perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    record = None
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "generate.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--out", work],
            env=worker_env(root, 1), check=True, timeout=SETUP_TIMEOUT,
        )
        with open(os.path.join(work, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        result, setups = measure(root, work, args.seconds, args.trace)
        samples = result["samples"]
        kinds = summarize(samples, manifest)
        failed = sum(1 for s in samples if failure(s))
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": result["rounds"],
            "load": "closed loop, one client, one op at a time in one worker",
            "machine": machine(), "environment": result["environment"],
            "git_commit": git_commit(root), "setup": setups,
            "failed_ratio": failed / len(samples), "kinds": kinds,
            "references_s": result["references"],
            "samples": [[s["round"], s["kind"], s["seconds"], s["traced"],
                         failure(s)] for s in samples],
        }
        # An untimed kind that stops failing has had its defect fixed: it
        # should become timed, with a baseline, in the change after the fix.
        fixed = [k for k, v in kinds.items() if not v["timed"] and not v["failed"]]
        if fixed:
            record["untimed_without_failures"] = fixed
            print(f"perfbench: untimed kinds no longer fail, make them timed: "
                  f"{fixed}", file=sys.stderr)
        if args.trace:
            metrics, record["trace"] = per_layer(args.workload, result, kinds)
        else:
            metrics, record["wall"] = end_to_end(args.workload, kinds, setups, result)
    except (BenchmarkError, subprocess.SubprocessError, OSError, ValueError) as error:
        if record is not None:
            print(json.dumps({"record": record}, indent=1))
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))
    print(json.dumps({"record": record}, indent=1))
    print(json.dumps({
        "correct": not any(s["wrong"] for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
