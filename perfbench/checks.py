"""Answer checks written against the known answers, independent of affrig.

Every check returns ``None`` when the answer is right and a one-line reason
when it is wrong. ``self_test`` feeds the checks wrong answers and fails
unless each is rejected.
"""

from __future__ import annotations

import json

import numpy as np

# Registered configurations must match the truth to this share of its diameter.
CONFIG_TOL = 1e-8
# An equilibrium stress row must vanish on [1, p] to this share of its scale.
STRESS_TOL = 1e-8
# Bound before a traced run wraps numpy.linalg.svd, so the checks' SVDs stay
# out of the program's span counters.
_SVD = np.linalg.svd


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_coordinates(path: str) -> np.ndarray:
    return np.array(read_json(path)["coordinates"], dtype=float)


def fields(report: dict, expect: dict) -> str | None:
    """The report's verdict and corank (and gauge) must equal the expected ones."""
    for key in ("verdict", "corank", "gauge"):
        if key in expect and report.get(key) != expect[key]:
            return f"{key} {report.get(key)!r}, expected {expect[key]!r}"
    return None


def diameter(points: np.ndarray) -> float:
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def affine_misfit(found: np.ndarray, truth: np.ndarray) -> float:
    """Largest pointwise error of the best affine map found -> truth."""
    design = np.hstack([found, np.ones((found.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, truth, rcond=None)
    return float(np.linalg.norm(design @ solution - truth, axis=1).max())


def rigid_misfit(found: np.ndarray, truth: np.ndarray) -> float:
    """Largest pointwise error of the best orthogonal map plus shift."""
    a = found - found.mean(axis=0)
    b = truth - truth.mean(axis=0)
    u, _, vt = _SVD(b.T @ a)
    return float(np.linalg.norm(a @ (u @ vt).T - b, axis=1).max())


def configuration(found: np.ndarray, truth: np.ndarray, gauge: str) -> str | None:
    """A registration must equal the truth up to the gauge's transforms."""
    if found.shape != truth.shape:
        return f"shape {found.shape}, expected {truth.shape}"
    misfit = rigid_misfit if gauge == "euclidean" else affine_misfit
    error = misfit(found, truth) / diameter(truth)
    if not error <= CONFIG_TOL:
        return f"{gauge} misfit {error:.3g} of the diameter exceeds {CONFIG_TOL:g}"
    return None


def positive_stress(
    omega: np.ndarray, coords: np.ndarray, edges, pinned
) -> str | None:
    """Free rows: -1 on the diagonal, positive on neighbours only, Ω[1 p] = 0."""
    v = coords.shape[0]
    allowed = np.eye(v, dtype=bool)
    for u, w in edges:
        allowed[u, w] = allowed[w, u] = True
    free = np.setdiff1d(np.arange(v), list(pinned))
    rows = omega[free]
    if np.any(rows[~allowed[free]] != 0):
        return "stress has weight off the graph's edges"
    off = rows.copy()
    off[np.arange(free.size), free] = 0.0
    if not np.allclose(rows[np.arange(free.size), free], -1.0):
        return "stress diagonal is not -1 on free vertices"
    if np.any(off < 0):
        return "stress has a negative weight on a free vertex"
    lifted = np.hstack([np.ones((v, 1)), coords])
    scale = np.abs(rows).sum(axis=1, keepdims=True) * np.abs(lifted).max()
    if not np.all(np.abs(rows @ lifted) <= STRESS_TOL * scale):
        return "stress rows are not in equilibrium"
    return None


def self_test() -> list[str]:
    """Feed the checks wrong answers; return the ones they failed to reject."""
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((40, 2))
    linear = np.array([[1.3, 0.4], [-0.2, 0.9]])
    affine_image = truth @ linear.T + [3.0, -1.0]
    angle = 0.7
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rigid_image = truth @ turn.T + [1.0, 2.0]
    perturbed = affine_image.copy()
    perturbed[7] += 1e-6 * diameter(truth)
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
    stress = np.zeros((4, 4))
    stress[3] = [0.5, 0.25, 0.25, -1.0]
    bad_stress = stress.copy()
    bad_stress[3, 0] += 1e-3
    flipped = {"verdict": "flexible", "corank": 3}
    misses = []
    expectations = [
        ("affine image accepted", configuration(affine_image, truth, "affine"), False),
        ("rigid image accepted", configuration(rigid_image, truth, "euclidean"), False),
        ("rigid stress accepted", positive_stress(stress, square, edges, [0, 1, 2]),
         False),
        ("perturbed config rejected (affine)",
         configuration(perturbed, truth, "affine"), True),
        ("affine image rejected under euclidean gauge",
         configuration(affine_image, truth, "euclidean"), True),
        ("flipped verdict rejected",
         fields(flipped, {"verdict": "rigid", "corank": 3}), True),
        ("wrong corank rejected",
         fields({"verdict": "rigid", "corank": 4}, {"verdict": "rigid", "corank": 3}),
         True),
        ("unbalanced stress rejected",
         positive_stress(bad_stress, square, edges, [0, 1, 2]), True),
    ]
    for name, reason, should_reject in expectations:
        if (reason is not None) != should_reject:
            misses.append(name)
    return misses
