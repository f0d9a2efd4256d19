"""Property tests: fast routes against the slow routes kept as their oracles."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affrig import rigidity  # noqa: E402
from test_rigidity import in_hull_lp  # noqa: E402

PROPERTY_SETTINGS = settings(
    database=None, derandomize=True, deadline=None, max_examples=40
)


@st.composite
def hull_row(draw, d):
    """A point and k <= 6 neighbors on a small integer grid.

    The neighbors may be collinear. The point is a combination of them with
    integer weights in [0, 3] (zeros put it on the boundary), optionally
    moved by an integer offset that can take it outside the hull or off the
    neighbors' affine span.
    """
    k = draw(st.integers(0, 6))
    grid = st.integers(-3, 3)
    if draw(st.booleans()):
        base = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        step = np.array(draw(st.lists(grid, min_size=d, max_size=d)), float)
        hull = base + np.array(draw(st.lists(grid, min_size=k, max_size=k)),
                               float)[:, None] * step
    else:
        cells = draw(st.lists(grid, min_size=k * d, max_size=k * d))
        hull = np.array(cells, float).reshape(k, d)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
                       float)
    point = weights @ hull / weights.sum() if weights.sum() > 0 else np.zeros(d)
    if draw(st.booleans()):
        point = point + np.array(
            draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), float)
    return point, hull.reshape(k, d)


@st.composite
def hull_rows(draw):
    """Several rows in one coordinate array, as the rubber band batches them."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(hull_row(d), min_size=1, max_size=4))
    coords, vertices, neighbor_lists = [], [], []
    for point, hull in rows:
        vertices.append(len(coords))
        coords.append(point)
        neighbor_lists.append(list(range(len(coords), len(coords) + len(hull))))
        coords.extend(hull)
    return np.array(coords).reshape(-1, d), vertices, neighbor_lists


class TestBarycentricRowsAgainstLP:
    @PROPERTY_SETTINGS
    @given(hull_rows(), st.sampled_from([0.0, 1e-9]))
    def test_certified_rows_and_decisions(self, rows, floor):
        coords, vertices, neighbor_lists = rows
        # With the LP stubbed out, only the rows the correction certified
        # come back with weights.
        with mock.patch.object(
            rigidity, "_barycentric_margin", return_value=(np.nan, None)
        ):
            fast_margins, fast_weights = rigidity._barycentric_rows(
                coords, vertices, neighbor_lists, floor
            )
        margins, _ = rigidity._barycentric_rows(coords, vertices, neighbor_lists, floor)
        for i, (u, nbrs) in enumerate(zip(vertices, neighbor_lists)):
            point, hull = coords[u], coords[nbrs]
            lp_margin, _ = rigidity._barycentric_margin(point, hull)
            assert (margins[i] > floor) == (lp_margin > floor)
            weights = fast_weights[i]
            if weights is None:
                continue
            scale = np.abs(weights).sum() * max(1.0, np.abs(hull).max())
            assert np.abs(weights @ hull - point).max() <= 1e-10 * scale
            assert abs(weights.sum() - 1.0) <= 1e-10 * scale
            assert fast_margins[i] == weights.min() > floor
            assert in_hull_lp(point, hull, margin=weights.min() / 2)
