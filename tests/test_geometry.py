import numpy as np
import pytest

from gokart.geometry import polyline_distance
from helpers import oval_xy, polyline_distance_oracle


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
        dist, near = polyline_distance(xy, p, closed=closed)
        want_dist, want_near = polyline_distance_oracle(xy, p, closed=closed)
        assert dist == pytest.approx(want_dist, rel=1e-9, abs=1e-12)
        assert near == want_near
