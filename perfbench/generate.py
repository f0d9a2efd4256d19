"""Write the input documents of one workload, derived from its seed.

Runs in its own process before the worker starts, so generation counts
neither in the timings nor in the worker's memory. Usage:

    PYTHONPATH=src python3 perfbench/generate.py --workload decide --seed 1 --out DIR

Writes the documents into DIR plus ``manifest.json``, which lists the ops of
each kind: the argv of a CLI op (paths relative to DIR) or the dimension of
the library pipeline, the known answer the worker checks against, and on
``embed`` the fresh graph of every round. Each kind has one instance family
and size; the ``warmup`` entries hold a small instance of the same family,
run once, untimed, while the worker sets up.
"""

from __future__ import annotations

import argparse
import json
import os
import random

import numpy as np

from affrig import families, formats
from affrig.hypergraph import Hypergraph, neighborhood_hypergraph
from affrig.registration import synthetic_scan_set

DIM = 2

# Inputs for the embed workload are fresh per op; rounds stop when they run out.
EMBED_GRAPHS = 96
EMBED_VERTICES = 300


class Writer:
    def __init__(self, out: str):
        self.out = out

    def doc(self, name: str, doc: dict) -> str:
        formats.write_document(doc, os.path.join(self.out, name))
        return name

    def structure(self, name: str, structure) -> str:
        return self.doc(name, formats.document_from_structure(structure))

    def coords(self, name: str, coords: np.ndarray) -> str:
        return self.doc(name, formats.document_from_coordinates(coords))


def glued_tori(m: int) -> Hypergraph:
    """Two copies of N(H(m,m)) sharing only vertices 0 and 1: corank d+2."""
    first = neighborhood_hypergraph(families.hexagonal_torus(m, m))
    v = first.vertex_count

    def relabel(u: int) -> int:
        return u if u < 2 else v + u - 2

    second = [[relabel(u) for u in h] for h in first.sorted_hyperedges()]
    return Hypergraph.from_hyperedges(
        2 * v - 2, first.sorted_hyperedges() + second
    )


def test_op(path: str, mode: str, verdict: str, corank: int, framework=None):
    argv = ["test", path, "--dim", str(DIM), "--mode", mode]
    if framework is not None:
        argv += ["--framework", framework]
    exit_code = 0 if verdict == "rigid" else 3
    return {"argv": argv, "exit": exit_code,
            "expect": {"verdict": verdict, "corank": corank}}


def decide(w: Writer, rng: np.random.Generator, tag: str, m: dict) -> dict:
    torus = families.hexagonal_torus(m["generic"], m["generic"])
    nbh = neighborhood_hypergraph(torus)
    frame_torus = families.hexagonal_torus(m["framework"], m["framework"])
    frame_nbh = neighborhood_hypergraph(frame_torus)
    coords = rng.standard_normal((frame_nbh.vertex_count, DIM))
    conn = families.hexagonal_torus(m["connectivity"], m["connectivity"])
    return {
        "test_generic": test_op(
            w.structure(f"{tag}generic.json", nbh), "generic", "rigid", DIM + 1),
        "test_generic_flexible": test_op(
            w.structure(f"{tag}glued.json", glued_tori(m["glued"])),
            "generic", "flexible", DIM + 2),
        "test_framework": test_op(
            w.structure(f"{tag}framework.json", frame_nbh), "framework",
            "rigid", DIM + 1, w.coords(f"{tag}framework-coords.json", coords)),
        "test_neighborhood": test_op(
            w.structure(f"{tag}neighborhood.json", frame_torus), "neighborhood",
            "rigid", DIM + 1),
        "connectivity": {
            "argv": ["connectivity", w.structure(f"{tag}torus.json", conn),
                     "--k", "3"],
            "exit": 0, "expect": {"verdict": "connected"}},
        # Crashes with RecursionError at the parent of this benchmark: its ops
        # count as failed, and it stays out of the time aggregates, where a
        # fix (a multi-second answer replacing a millisecond crash) would
        # otherwise read as a regression. Once the fix lands (run.py warns
        # when this kind stops failing), the next change drops "timed":
        # False and adds the kind's figure to run.BASELINE_S, so later
        # slowdowns of long-cycle connectivity are bounded.
        "connectivity_cycle": {
            "timed": False,
            "argv": ["connectivity",
                     w.structure(f"{tag}cycle.json",
                                 families.cycle_graph(m["cycle"])),
                     "--k", "2"],
            "exit": 0, "expect": {"verdict": "connected"}},
    }


def register(w: Writer, rng: np.random.Generator, tag: str, m: dict) -> dict:
    chart_seed = int(rng.integers(2**32))
    nbh = neighborhood_hypergraph(families.hexagonal_torus(m["torus"], m["torus"]))
    euclid = families.generic_framework(nbh, DIM, seed=int(rng.integers(2**32)))
    kk = families.complete_k_hypergraph(m["complete"], 4)
    affine = families.generic_framework(kk, DIM, seed=int(rng.integers(2**32)))
    ops = {}
    for kind, framework, trust in (
        ("register_euclidean", euclid, "euclidean"),
        ("register_affine", affine, "affine"),
    ):
        scans = synthetic_scan_set(framework, trust=trust, seed=chart_seed)
        path = w.doc(f"{tag}{trust}-scans.json",
                     formats.document_from_scan_set(scans))
        ops[kind] = {
            "argv": ["register", path, "--mode", trust, "-o",
                     f"{tag}{trust}-out.json"],
            "exit": 0,
            "expect": {"verdict": "registered", "gauge": trust,
                       "truth": w.coords(f"{tag}{trust}-truth.json",
                                         framework.coordinates)},
        }
    ops["zz"] = {
        "argv": ["zz", w.structure(f"{tag}complete.json", kk), "--dim", str(DIM)],
        "exit": 0, "expect": {"verdict": "holds"}}
    return ops


def embed(w: Writer, rng: np.random.Generator, tag: str, m: dict) -> dict:
    graphs = [
        w.structure(f"{tag}trilateration-{i:03d}.json",
                    families.trilateration_graph(m["vertices"], DIM,
                                                 seed=int(rng.integers(2**32))))
        for i in range(m["count"])
    ]
    return {
        "connectivity": {
            "argv": ["connectivity", "{graph}", "--k", str(DIM + 1)],
            "exit": 0, "expect": {"verdict": "connected"}},
        "embed": {"dim": DIM,
                  "expect": {"verdict": "rigid", "corank": DIM + 1,
                             "certified": True}},
        "graphs": graphs,
    }


WORKLOADS = {
    "decide": (decide,
               {"generic": 10, "glued": 6, "framework": 24, "connectivity": 12,
                "cycle": 800},
               {"generic": 3, "glued": 3, "framework": 4, "connectivity": 4,
                "cycle": 20}),
    "register": (register, {"torus": 24, "complete": 20},
                 {"torus": 3, "complete": 6}),
    "embed": (embed, {"count": EMBED_GRAPHS, "vertices": EMBED_VERTICES},
              {"count": 1, "vertices": 20}),
}


def generate(workload: str, seed: int, out: str) -> dict:
    build, sizes, warmup_sizes = WORKLOADS[workload]
    writer = Writer(out)
    rng = np.random.default_rng(seed)
    manifest = {
        "workload": workload,
        "seed": seed,
        "op_seed": random.Random(seed).randrange(2**32),
        "ops": build(writer, rng, "", sizes),
        "warmup": build(writer, np.random.default_rng(seed + 1), "warmup-",
                        warmup_sizes),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
