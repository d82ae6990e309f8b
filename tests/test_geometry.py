import math

import numpy as np
import pytest

from gokart.geometry import Polyline, polyline_distance
from gokart.sim import TrackSampler
from helpers import (oval_track, oval_xy, polyline_distance_oracle,
                     straight_track, wiggly_track)


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


@pytest.mark.parametrize("closed", [False, True])
def test_polyline_distance_matches_brute_force(closed):
    for xy, p in cases(np.random.default_rng(31 + closed)):
        dist, near = polyline_distance(Polyline(xy, closed), p)
        want_dist, want_near = polyline_distance_oracle(xy, p, closed=closed)
        assert dist == pytest.approx(want_dist, rel=1e-9, abs=1e-12)
        assert near == want_near


# --- the hinted search against the full search ------------------------------

def assert_same(ref, p, hint):
    """The hinted answer equals the full search bit for bit; returns
    whether the window's answer was certified."""
    got = polyline_distance(ref, p, hint=hint)
    want = polyline_distance(ref, p)
    assert got == want
    assert type(got[0]) is float and type(got[1]) is int
    return ref._window_search(float(p[0]), float(p[1]), hint) is not None


def walk(ref, rng, steps_per_vertex=12, offset=0.3, laps=1.0):
    """Points creeping along the polyline with a wandering lateral offset,
    each hinted with the previous answer's vertex."""
    xy = np.column_stack([ref.x, ref.y])
    n = len(xy)
    stop = int(laps * (n if ref.closed else n - 1) * steps_per_vertex)
    hint, certified = None, []
    for k in range(stop):
        i = (k // steps_per_vertex) % n
        j = (i + 1) % n
        if j == 0 and not ref.closed:
            break
        u = (k % steps_per_vertex) / steps_per_vertex
        tangent = xy[j] - xy[i]
        normal = np.array([-tangent[1], tangent[0]]) / np.hypot(*tangent)
        p = (xy[i] + u * tangent
             + normal * offset * math.sin(0.05 * k) + rng.normal(size=2) * 0.01)
        if hint is not None:
            certified.append(assert_same(ref, p, hint))
        hint = polyline_distance(ref, p)[1]
    return certified


SMALL_STEP_REFERENCES = {
    "oval": lambda: Polyline(oval_xy(), closed=True),
    "wiggly": lambda: Polyline(wiggly_track().xy, closed=True),
    "sampled oval": lambda: Polyline(TrackSampler(oval_track()).points,
                                     closed=True),
    "open straight": lambda: Polyline(straight_track(n=30).xy, closed=False),
}


@pytest.mark.parametrize("name", sorted(SMALL_STEP_REFERENCES))
def test_small_steps_are_certified_and_exact(name):
    ref = SMALL_STEP_REFERENCES[name]()
    if name == "sampled oval":  # 0.1 m samples: a kart's step per tick
        certified = walk(ref, np.random.default_rng(5), steps_per_vertex=1,
                         offset=0.03, laps=0.5)
    else:
        certified = walk(ref, np.random.default_rng(5), offset=0.3)
    assert len(certified) > 100
    # the window answers most small steps on its own
    assert sum(certified) >= 0.8 * len(certified)


@pytest.mark.parametrize("closed", [False, True])
def test_jumps_and_far_points_fall_back(closed):
    rng = np.random.default_rng(17)
    xy = wiggly_track().xy
    ref = Polyline(xy, closed=closed)
    n = len(xy)
    for _ in range(300):
        target = int(rng.integers(n))
        hint = (target + int(rng.integers(n // 4, n // 2))) % n
        p = xy[target] + rng.normal(size=2) * 0.2
        assert not assert_same(ref, p, hint)
    for p in [(500.0, -20.0), (0.0, 0.0), (1e9, 1e9), (-3e5, 2.0)]:
        for hint in (0, n // 3, n - 1):
            assert not assert_same(ref, np.array(p), hint)


def test_wraps_across_index_zero():
    xy = oval_xy()
    ref = Polyline(xy, closed=True)
    n = len(xy)
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(400):
        u = rng.uniform(-2.0, 2.0)  # from two segments before 0 to two after
        i = int(np.floor(u)) % n
        p = (xy[i] + (u - np.floor(u)) * (xy[(i + 1) % n] - xy[i])
             + rng.normal(size=2) * 0.3)
        for hint in (n - 2, n - 1, 0, 1):
            if assert_same(ref, p, hint):
                seen.add(polyline_distance(ref, p)[1])
    assert {n - 1, 0} <= seen


def test_open_ends_clip():
    xy = straight_track(n=12, spacing=2.0).xy
    ref = Polyline(xy, closed=False)
    last = len(xy) - 1
    rng = np.random.default_rng(29)
    certified = []
    for _ in range(200):
        before = np.array([rng.uniform(-1.5, 1.0), rng.normal() * 0.5])
        beyond = xy[last] + np.array([rng.uniform(-1.0, 1.5), rng.normal() * 0.5])
        for p, hints in ((before, (0, 1)), (beyond, (last - 1, last))):
            for hint in hints:
                certified.append(assert_same(ref, p, hint))
    assert sum(certified) > len(certified) // 2
    # beyond an end the distance is to the end vertex
    assert polyline_distance(ref, (-1.0, 0.0), hint=0) == (1.0, 0)
    assert polyline_distance(ref, (23.5, 0.0), hint=last) == (1.5, last)


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
    p = (0.0, height)
    for hint in tied:
        assert assert_same(ref, p, hint)
        assert polyline_distance(ref, p, hint=hint)[1] == want
    for hint in range(want - 4, want + 6):
        assert_same(ref, p, hint % n)


def random_walk(rng, n):
    """Segments of very different lengths, so the clearance's half-segment
    term and the window's edges matter."""
    steps = rng.normal(size=(n, 2)) * rng.choice([0.05, 0.3, 1.0, 4.0],
                                                   size=(n, 1))
    return np.cumsum(steps, axis=0)


@pytest.mark.parametrize("closed", [False, True])
def test_any_hint_matches_the_full_search(closed):
    rng = np.random.default_rng(41 + closed)
    certified = 0
    for _ in range(150):
        xy = random_walk(rng, int(rng.integers(3, 60)))
        ref = Polyline(xy, closed=closed)
        n = len(xy)
        for _ in range(40):
            i = int(rng.integers(n))
            p = xy[i] + rng.normal(size=2) * rng.choice([0.01, 0.3, 2.0])
            hint = (i + int(rng.integers(-3, 4))) % n
            certified += assert_same(ref, p, hint)
    assert certified > 250
