import math

import numpy as np
import pytest

from gokart.geometry import _ELEMENTS_PER_PASS, Polyline, polyline_distance
from gokart.sim import TrackSampler
from helpers import (oval_track, oval_xy, polyline_distance_oracle,
                     straight_track)


def cases(rng):
    """Random walks with points anywhere near them, then points on, near
    and off the oval's vertices and segments, across its seam included."""
    for _ in range(200):
        n = int(rng.integers(2, 40))
        xy = np.cumsum(rng.normal(size=(n, 2)) * rng.uniform(0.1, 5.0), axis=0)
        near = xy[int(rng.integers(n))]
        yield xy, near + rng.normal(size=2) * rng.uniform(0.1, 10.0)
    xy = oval_xy()
    for _ in range(100):
        i = int(rng.integers(len(xy)))
        j = (i + 1) % len(xy)
        yield xy, (xy[i] + rng.uniform(0.0, 1.0) * (xy[j] - xy[i])
                   + rng.normal(size=2) * rng.choice([0.0, 0.3, 3.0]))


def assert_matches_oracle(ref, xy, pts):
    """polyline_distance on the points at once against the brute-force
    oracle on each; returns the nearest vertices."""
    dist, near = polyline_distance(ref, pts)
    assert dist.shape == near.shape == (len(pts),)
    for p, d, i in zip(pts, dist.tolist(), near.tolist()):
        want_dist, want_near = polyline_distance_oracle(xy, p, ref.closed)
        assert d == pytest.approx(want_dist, rel=1e-9, abs=1e-12)
        assert i == want_near
    return near


@pytest.mark.parametrize("closed", [False, True])
def test_polyline_distance_matches_brute_force(closed):
    for xy, p in cases(np.random.default_rng(31 + closed)):
        assert_matches_oracle(Polyline(xy, closed), xy, [p])


def test_many_passes_match_each_point_alone():
    # 0.1 m samples of the oval: about 2,000 vertices, so 100 points take
    # several passes, the last one short
    ref = Polyline(TrackSampler(oval_track()).points, closed=True)
    rows = _ELEMENTS_PER_PASS // len(ref.x)
    rng = np.random.default_rng(3)
    pts = (np.column_stack([ref.x, ref.y])[rng.integers(len(ref.x), size=100)]
           + rng.normal(size=(100, 2)) * rng.choice([0.01, 1.0, 30.0],
                                                    size=(100, 1)))
    assert 2 * rows < len(pts) and len(pts) % rows
    dist, near = polyline_distance(ref, pts)
    for k, p in enumerate(pts):
        alone = polyline_distance(ref, p[None])
        assert dist[k].hex() == alone[0][0].hex()
        assert near[k] == alone[1][0] == ref.nearest_vertex(*p.tolist())


def test_wraps_across_index_zero():
    xy = oval_xy()
    ref = Polyline(xy, closed=True)
    n = len(xy)
    rng = np.random.default_rng(23)
    pts = []
    for _ in range(400):
        u = rng.uniform(-2.0, 2.0)  # from two segments before 0 to two after
        i = int(np.floor(u)) % n
        pts.append(xy[i] + (u - np.floor(u)) * (xy[(i + 1) % n] - xy[i])
                   + rng.normal(size=2) * 0.3)
    near = assert_matches_oracle(ref, xy, pts)
    assert {n - 1, 0} <= set(near.tolist())


def test_open_ends_clip():
    xy = straight_track(n=12, spacing=2.0).xy
    ref = Polyline(xy, closed=False)
    last = len(xy) - 1
    rng = np.random.default_rng(29)
    pts = []
    for _ in range(200):
        pts.append([rng.uniform(-1.5, 1.0), rng.normal() * 0.5])
        pts.append(xy[last] + [rng.uniform(-1.0, 1.5), rng.normal() * 0.5])
    assert_matches_oracle(ref, xy, pts)
    # beyond an end the distance is to the end vertex
    dist, near = polyline_distance(ref, [(-1.0, 0.0), (23.5, 0.0)])
    assert dist.tolist() == [1.0, 1.5]
    assert near.tolist() == [0, last]


def mirrored_polygon(n=80, radius=10.0):
    """Closed polygon symmetric about the y axis: vertex k mirrors vertex
    n - 1 - k, so vertices 0 and n - 1 straddle the axis at the bottom
    and n/2 - 1 and n/2 at the top."""
    half = []
    for k in range(n // 2):
        a = -0.5 * math.pi + (k + 0.5) * 2.0 * math.pi / n
        half.append((radius * math.cos(a), radius * math.sin(a)))
    mirrored = [(-x, y) for x, y in reversed(half)]
    return np.array(half + mirrored)


@pytest.mark.parametrize("height", [-10.3, -9.95, -9.8, 9.8, 9.95, 10.3])
def test_equidistant_vertices_go_to_the_lowest_index(height):
    xy = mirrored_polygon()
    n = len(xy)
    ref = Polyline(xy, closed=True)
    tied = (n - 1, 0) if height < 0.0 else (n // 2 - 1, n // 2)
    want = min(tied)
    assert polyline_distance(ref, [(0.0, height)])[1].tolist() == [want]
    assert ref.nearest_vertex(0.0, height) == want
