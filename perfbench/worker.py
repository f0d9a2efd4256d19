"""One benchmark worker: set up, warm up, then run ops in a closed loop.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread cap in its
environment, so the cap holds before numpy is first imported. Usage:

    python3 perfbench/worker.py DIR

DIR holds the generated inputs and ``manifest.json``. The worker imports
affrig, runs the warm-up op of every kind once, untimed, and prints
``{"ready": true}``. It then reads one JSON command from stdin:
``{"run": false}`` ends it; ``{"run": true, "seconds": S, "trace": T}`` runs
whole rounds (one op of every kind, in manifest order) for about S seconds,
with a run of a fixed reference kernel before every op and after the last,
and prints one JSON result line. With T = 1 the even rounds run
with the layer spans installed, so traced and untraced op times come from
the same process.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
from time import perf_counter

import numpy as np

import affrig
from affrig import cli, formats, rigidity

import checks

MAX_ROUNDS = 1000
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((300, 300))
_SVD = np.linalg.svd  # bound before any span wraps numpy.linalg.svd


def reference() -> float:
    """Seconds for a fixed mix of Python integer work and one LAPACK SVD.

    It never calls affrig, so its time follows only the machine's speed.
    One runs before every op and one after the last, and run.py divides
    each op's time by the mean of the two around it.
    """
    gc.collect()
    start = perf_counter()
    q = 2**61 - 1
    x = 1
    values = []
    for i in range(60000):
        x = (x * 6364136223846793005 + i) % q
        values.append(x)
    buckets = {}
    for i, value in enumerate(values):
        buckets[value & 1023] = i
    _SVD(_REFERENCE_MATRIX)
    return perf_counter() - start


def _absolute(directory: str, argv: list[str], graph: str | None) -> list[str]:
    """Make the manifest's relative paths absolute; fill in the op's graph."""
    out = []
    for arg in argv:
        if arg == "{graph}":
            arg = graph
        if arg.endswith(".json"):
            arg = os.path.join(directory, arg)
        out.append(arg)
    return out


class Op:
    """One op kind: how to run it and how to check its answer."""

    def __init__(self, kind: str, spec: dict, directory: str):
        self.kind = kind
        self.spec = spec
        self.directory = directory
        self.report = os.path.join(directory, f"{kind}.report.json")
        truth = spec.get("expect", {}).get("truth")
        self.truth = (
            checks.read_coordinates(os.path.join(directory, truth)) if truth else None
        )

    def run(self, seed: int, graph: str | None) -> tuple[float, str | None, str | None]:
        """Seconds taken, the exception it raised, and why its answer is wrong."""
        if "argv" in self.spec:
            return self._cli(seed, graph)
        return self._embed(seed, os.path.join(self.directory, graph))

    def _cli(self, seed: int, graph: str | None) -> tuple[float, str | None, str | None]:
        argv = _absolute(self.directory, self.spec["argv"], graph)
        argv += ["--seed", str(seed), "--quiet", "--report", self.report]
        outputs = [self.report]
        if "-o" in argv:
            outputs.append(argv[argv.index("-o") + 1])
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as error:  # the op failed; the loop must go on
            return perf_counter() - start, type(error).__name__, None
        elapsed = perf_counter() - start
        if code != self.spec["exit"]:
            return elapsed, None, f"exit {code}, expected {self.spec['exit']}"
        expect = self.spec["expect"]
        reason = checks.fields(checks.read_json(self.report), expect)
        if reason is None and self.truth is not None:
            found = checks.read_coordinates(outputs[1])
            reason = checks.configuration(found, self.truth, expect["gauge"])
        return elapsed, None, reason

    def _embed(self, seed: int, graph: str) -> tuple[float, str | None, str | None]:
        """Rubber band, positive stress, neighborhood test, PSD certificate."""
        d = self.spec["dim"]
        gc.collect()
        start = perf_counter()
        try:
            gamma = formats.structure_from_document(formats.load_document(graph))
            pinned = rigidity.choose_exceptional(gamma, d)
            framework = affrig.rubber_band_embedding(
                gamma, d, exceptional=pinned, seed=seed
            )
            stress = affrig.positive_stress(framework, pinned)
            verdict = affrig.neighborhood_affine_rigidity_test(framework, seed=seed)
            certificate = affrig.universal_rigidity_certificate(
                framework, via="psd-stress", seed=seed
            )
        except Exception as error:  # the op failed; the loop must go on
            return perf_counter() - start, type(error).__name__, None
        elapsed = perf_counter() - start
        expect = self.spec["expect"]
        answer = {"verdict": verdict.verdict, "corank": verdict.corank}
        reason = checks.fields(answer, expect)
        if reason is None and certificate.certified != expect["certified"]:
            reason = f"certified {certificate.certified}, expected {expect['certified']}"
        if reason is None:
            reason = checks.positive_stress(
                stress.matrix, framework.coordinates, gamma.edges, pinned
            )
        return elapsed, None, reason


def load_ops(directory: str, section: dict) -> tuple[list[Op], list[str]]:
    graphs = section.get("graphs", [None])
    kinds = [k for k in section if k != "graphs"]
    return [Op(kind, section[kind], directory) for kind in kinds], graphs


def run(directory: str, manifest: dict, seconds: float, trace: bool) -> dict:
    ops, graphs = load_ops(directory, manifest["ops"])
    rng = random.Random(manifest["op_seed"])
    tracer = None
    if trace:
        import scipy.optimize  # noqa: F401  (bound before its wrapper goes in)

        from tracing import Tracer

        tracer = Tracer()
    if graphs == [None]:
        graphs = [None] * MAX_ROUNDS
    rounds = min(MAX_ROUNDS, len(graphs))
    samples = []
    references = [reference()]
    deadline = perf_counter() + seconds
    index = 0
    last = 0.0
    # A round starts only if it should end within half a round of the deadline.
    while index < rounds and perf_counter() + last / 2 < deadline:
        started = perf_counter()
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
        try:
            for op in ops:
                if tracer is not None:
                    tracer.kind = op.kind
                elapsed, error, wrong = op.run(rng.randrange(2**32), graphs[index])
                before = references[-1]
                references.append(reference())
                samples.append(
                    {"round": index, "kind": op.kind, "seconds": elapsed,
                     "reference": (before + references[-1]) / 2,
                     "traced": traced, "error": error, "wrong": wrong}
                )
        finally:
            if traced:
                tracer.uninstall()
        last = perf_counter() - started
        index += 1
    return {
        "samples": samples,
        "references": references,
        "rounds": index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.stats if tracer is not None else None,
        "environment": environment(),
    }


def environment() -> dict:
    import scipy

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "affrig": affrig.__version__,
    }


def main() -> None:
    directory = sys.argv[1]
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    warmup, graphs = load_ops(directory, manifest["warmup"])
    for op in warmup:
        op.run(0, graphs[0])
    print(json.dumps({"ready": True}), flush=True)
    command = json.loads(sys.stdin.readline() or '{"run": false}')
    if not command["run"]:
        return
    result = run(directory, manifest, command["seconds"], bool(command["trace"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
