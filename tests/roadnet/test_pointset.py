"""The pure-Python point draws and triangulation against numpy and scipy.

:mod:`repro.roadnet.pointset` replaces ``numpy.random.default_rng`` and
``scipy.spatial.Delaunay`` in the Delaunay map generator, so both libraries
serve here as oracles: the draws must equal numpy's bit for bit, and the
edge set must equal the one qhull's simplices give.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from repro.errors import RoadNetworkError
from repro.roadnet import ATLANTA_JUNCTIONS, atlanta_like
from repro.roadnet.pointset import delaunay_edges, uniform_points

# (seed, n, extent): the sizes the generators use, down to the smallest
# triangulation, plus seeds spanning several 32-bit entropy words.
SWEEP = [
    (seed, n, extent)
    for seed in (0, 1, 7, 2017, 2**32 + 5, 123456789012345678901234567890)
    for n, extent in (
        (3, 10.0), (4, 100.0), (50, 1500.0), (300, 2000.0), (1000, 20_000.0)
    )
] + [
    (2017, ATLANTA_JUNCTIONS, 20_000.0),
    (9, ATLANTA_JUNCTIONS, 20_000.0),
]

#: ``atlanta_like(scale=...)`` values, as the (n, extent) it triangulates.
SCALES = (0.01, 0.05, 0.1, 0.25, 0.5)


def _atlanta_case(scale: float):
    return (
        max(3, int(round(ATLANTA_JUNCTIONS * scale))),
        20_000.0 * math.sqrt(scale),
    )


def _numpy_points(seed: int, n: int, extent: float):
    return np.random.default_rng(seed).uniform(0.0, extent, size=(n, 2))


def _qhull_edges(points) -> set:
    edges = set()
    for a, b, c in Delaunay(np.asarray(points)).simplices.tolist():
        for u, v in ((a, b), (b, c), (a, c)):
            edges.add((u, v) if u < v else (v, u))
    return edges


def _check(seed: int, n: int, extent: float) -> None:
    points = uniform_points(seed, n, extent)
    expected = _numpy_points(seed, n, extent)
    assert [list(point) for point in points] == expected.tolist()
    edges = delaunay_edges(points)
    assert len(edges) == len(set(edges))
    assert set(edges) == _qhull_edges(expected)


@pytest.mark.parametrize("seed,n,extent", SWEEP)
def test_matches_numpy_draws_and_qhull_edges(seed, n, extent):
    _check(seed, n, extent)


@pytest.mark.parametrize("scale", SCALES)
def test_atlanta_scales_match_oracles(scale):
    n, extent = _atlanta_case(scale)
    _check(2017, n, extent)
    network = atlanta_like(scale=scale)
    drawn = _numpy_points(2017, n, extent).tolist()
    assert [
        [network.junction(j).location.x, network.junction(j).location.y]
        for j in network.junction_ids()
    ] == drawn


def test_negative_seed_is_rejected():
    with pytest.raises(RoadNetworkError):
        uniform_points(-1, 5, 10.0)


class TestNoSilentDrops:
    def test_duplicate_point_raises(self):
        points = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)]
        with pytest.raises(RoadNetworkError, match="duplicates"):
            delaunay_edges(points)

    def test_duplicate_of_interior_point_raises(self):
        points = [(0.0, 0.0), (100.0, 3.0), (40.0, 90.0), (45.0, 30.0), (45.0, 30.0)]
        with pytest.raises(RoadNetworkError):
            delaunay_edges(points)

    def test_all_coincident_raises(self):
        with pytest.raises(RoadNetworkError, match="coincide"):
            delaunay_edges([(5.0, 5.0)] * 4)

    @pytest.mark.parametrize(
        "points",
        [
            [(float(i), 0.0) for i in range(5)],
            [(0.0, float(i)) for i in range(4)],
            [(float(i), 2.0 * i + 1.0) for i in range(6)],
        ],
        ids=["horizontal", "vertical", "diagonal"],
    )
    def test_all_collinear_raises(self, points):
        with pytest.raises(RoadNetworkError, match="collinear"):
            delaunay_edges(points)

    def test_too_few_points_raises(self):
        with pytest.raises(RoadNetworkError):
            delaunay_edges([(0.0, 0.0), (1.0, 1.0)])

    def test_partly_collinear_points_are_all_placed(self):
        line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.5, 2.0)]
        assert sorted(delaunay_edges(line)) == [
            (0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)
        ]
        grid = [(float(x), float(y)) for x in range(5) for y in range(5)]
        edges = delaunay_edges(grid)
        assert len(edges) == 40 + 16  # unit edges plus one diagonal per cell
        assert {vertex for edge in edges for vertex in edge} == set(range(25))

    def test_every_point_is_a_vertex(self):
        points = uniform_points(3, 500, 1000.0)
        used = {vertex for edge in delaunay_edges(points) for vertex in edge}
        assert used == set(range(500))
