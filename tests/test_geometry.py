import math

import numpy as np
import pytest

import gokart.geometry
from gokart.geometry import _ELEMENTS_PER_PASS, Polyline, polyline_distance
from gokart.sim import TrackSampler
from helpers import (oval_track, oval_xy, polyline_distance_all_pairs,
                     polyline_distance_oracle, straight_track)


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


def far_away(rng, count):
    """Points 1e11-1e13 m from the origin in any direction: the rounding
    allowance of polyline_distance there exceeds a track's size, so every
    vertex is a candidate."""
    angle = rng.uniform(-math.pi, math.pi, count)
    return np.column_stack([np.cos(angle), np.sin(angle)]) \
        * 10.0 ** rng.uniform(11.0, 13.0, (count, 1))


def candidate_widths(monkeypatch):
    """The candidates per point of each non-empty pass of
    polyline_distance, recorded from here on."""
    widths = []
    nearest = gokart.geometry._nearest

    def record(ref, pts, cand):
        if len(pts):
            widths.append(cand.shape)
        return nearest(ref, pts, cand)

    monkeypatch.setattr(gokart.geometry, "_nearest", record)
    return widths


def test_many_passes_match_each_point_alone(monkeypatch):
    # 0.1 m samples of the oval: about 2,000 vertices. Points on and near
    # the track take a few candidates; the 23 far ones take every vertex,
    # _ELEMENTS_PER_PASS // (3 n) points a pass, so several passes with
    # the last one short
    ref = Polyline(TrackSampler(oval_track()).points, closed=True)
    n = len(ref.x)
    rows = _ELEMENTS_PER_PASS // (3 * n)
    rng = np.random.default_rng(3)
    pts = (np.column_stack([ref.x, ref.y])[rng.integers(len(ref.x), size=100)]
           + rng.normal(size=(100, 2)) * rng.choice([0.01, 1.0, 30.0],
                                                    size=(100, 1)))
    pts = np.concatenate([pts, far_away(rng, 23)])
    passes = candidate_widths(monkeypatch)
    dist, near = polyline_distance(ref, pts)
    monkeypatch.undo()
    full = [size for size, k in passes if k == n]
    assert len(full) > 2 and max(full) == rows and full[-1] < rows
    assert sum(size for size, _ in passes) == len(pts)
    for k, p in enumerate(pts):
        alone = polyline_distance(ref, p[None])
        assert dist[k].hex() == alone[0][0].hex()
        assert near[k] == alone[1][0] == ref.nearest_vertex(*p.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected(bad):
    ref = Polyline(oval_xy(), closed=True)
    with pytest.raises(ValueError, match="finite"):
        polyline_distance(ref, [(0.0, 0.0), (bad, 1.0)])


def assert_bitwise_all_pairs(xy, closed, pts):
    """polyline_distance against the search over every pair, bit for
    bit."""
    ref = Polyline(xy, closed)
    dist, near = polyline_distance(ref, pts)
    want_dist, want_near = polyline_distance_all_pairs(ref, pts)
    assert dist.tobytes() == want_dist.tobytes()
    assert near.tolist() == want_near.tolist()


def on_and_around(xy, closed, rng, count=60):
    """Points on every vertex, on segment interiors, on the perpendicular
    bisector of every segment (equidistant from its two vertices), and
    scattered at 0.01-10 times the polyline's size around it."""
    xy = np.asarray(xy, dtype=float)
    nxt = np.roll(xy, -1, axis=0) if closed else xy[1:]
    a = xy[:len(nxt)]
    ab = nxt - a
    normal = np.column_stack([-ab[:, 1], ab[:, 0]])
    mid = 0.5 * (a + nxt)
    size = 1.0 + float(np.ptp(xy, axis=0).max())
    return np.concatenate([
        xy,
        a + rng.uniform(0.0, 1.0, (len(a), 1)) * ab,
        mid + normal * rng.choice([0.0, 0.3, -2.0], (len(a), 1)),
        xy[rng.integers(len(xy), size=count)]
        + rng.normal(size=(count, 2)) * size
        * rng.choice([0.01, 0.1, 1.0, 10.0], (count, 1))])


@pytest.mark.parametrize("closed", [False, True])
def test_random_walks_match_all_pairs_bitwise(closed):
    rng = np.random.default_rng(41 + closed)
    for _ in range(150):
        n = int(rng.integers(2, 60))
        xy = np.cumsum(rng.normal(size=(n, 2)) * rng.uniform(0.1, 5.0), axis=0)
        assert_bitwise_all_pairs(xy, closed, on_and_around(xy, closed, rng))


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("xy", [
    [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 1.0), (0.5, 2.0)],
    [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.0, 0.0)],
    [(3.0, -1.0), (3.0, -1.0), (3.0, -1.0)],
], ids=["repeated vertex", "closed on itself", "all one point"])
def test_zero_length_segments_match_all_pairs_bitwise(closed, xy):
    rng = np.random.default_rng(47)
    assert_bitwise_all_pairs(xy, closed, on_and_around(xy, closed, rng))


@pytest.mark.parametrize("closed", [False, True])
def test_two_vertices_match_all_pairs_bitwise(closed):
    rng = np.random.default_rng(53)
    for xy in ([(0.0, 0.0), (4.0, 3.0)], [(-2.0, 5.0), (-2.0, 5.0)]):
        assert_bitwise_all_pairs(xy, closed, on_and_around(xy, closed, rng))


@pytest.mark.parametrize("closed", [False, True])
def test_long_segment_between_short_ones_matches_all_pairs_bitwise(closed):
    # points beside the middle of the 60 m segment lie 30 m from every
    # vertex but a few cm from the segment
    short = np.column_stack([np.arange(10) * 0.1, np.zeros(10)])
    xy = np.concatenate([short, short + (60.9, 0.2)])
    rng = np.random.default_rng(59)
    beside = np.column_stack([rng.uniform(1.0, 60.0, 300),
                              rng.normal(size=300) * 0.05])
    pts = np.concatenate([beside, on_and_around(xy, closed, rng)])
    assert_bitwise_all_pairs(xy, closed, pts)


@pytest.mark.parametrize("closed", [False, True])
def test_far_points_match_all_pairs_bitwise(closed, monkeypatch):
    # far enough that every vertex of the oval's samples is a candidate,
    # and the centre of a polygon inscribed in a circle, equidistant from
    # every vertex
    xy = TrackSampler(oval_track()).points
    widths = candidate_widths(monkeypatch)
    assert_bitwise_all_pairs(xy, closed, far_away(np.random.default_rng(61),
                                                  40))
    assert {k for _, k in widths} == {len(xy)}
    widths.clear()
    polygon = mirrored_polygon()
    assert_bitwise_all_pairs(polygon, closed, [(0.0, 0.0)])
    assert widths[-1] == (1, len(polygon))


@pytest.mark.parametrize("closed", [False, True])
def test_offset_by_a_thousand_km_matches_all_pairs_bitwise(closed):
    xy = oval_xy() + 1e6
    rng = np.random.default_rng(67)
    assert_bitwise_all_pairs(xy, closed, on_and_around(xy, closed, rng, 400))


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


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("xy", [oval_xy(), TrackSampler(oval_track()).points,
                                mirrored_polygon()],
                         ids=["oval", "oval samples", "mirrored polygon"])
def test_tracks_match_all_pairs_bitwise(closed, xy):
    rng = np.random.default_rng(43)
    assert_bitwise_all_pairs(xy, closed, on_and_around(xy, closed, rng, 400))
