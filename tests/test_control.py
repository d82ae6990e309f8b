import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.control import (EndOfRaceline, PursuitParams, PursuitState,
                            VehicleState, find_lookahead_point,
                            lookahead_distance, pd_steering, pursuit_curvature,
                            pursuit_step)
from gokart.geometry import polyline_distance
from gokart.track import Raceline, VehicleLimits, build_raceline, \
    optimize_min_curvature
from helpers import (circle_track, oval_track, polyline_distance_oracle,
                     straight_track, wiggly_track, world_to_body_oracle)


def straight_raceline(n=60, spacing=1.0, v=4.0):
    x = np.arange(n, dtype=float) * spacing
    return Raceline(xy=np.column_stack([x, np.zeros(n)]),
                    kappa=np.zeros(n), v=np.full(n, v),
                    s=x.copy(), closed=False, length=float(x[-1]))


def circle_raceline(radius=20.0, spacing=1.0, v=4.0):
    count = int(round(2.0 * math.pi * radius / spacing))
    th = np.arange(count) * 2.0 * math.pi / count
    s = radius * th
    xy = np.column_stack([radius * np.cos(th), radius * np.sin(th)])
    kappa = np.full(count, 1.0 / radius)
    return Raceline(xy=xy, kappa=kappa, v=np.full(count, v), s=s,
                    closed=True, length=2.0 * math.pi * radius)


def open_arc_raceline(radius=20.0, spacing=1.0, v=4.0):
    """The first half of circle_raceline as an open raceline."""
    full = circle_raceline(radius, spacing, v)
    half = len(full) // 2
    return Raceline(xy=full.xy[:half], kappa=full.kappa[:half],
                    v=full.v[:half], s=full.s[:half], closed=False,
                    length=float(full.s[half - 1]))


class TestLookaheadDistance:
    def test_default_endpoints(self):
        params = PursuitParams()
        assert lookahead_distance(0.0, params) == 2.0
        assert lookahead_distance(5.0, params) == 5.0

    def test_midpoint(self):
        assert lookahead_distance(2.5, PursuitParams()) == 3.5

    def test_clamped_above_v_max(self):
        params = PursuitParams()
        for v in np.linspace(0.0, 100.0, 300):
            l = lookahead_distance(v, params)
            assert params.l_min <= l <= params.l_max

    def test_monotone_in_speed(self):
        params = PursuitParams()
        grid = np.linspace(0.0, 100.0, 500)
        values = [lookahead_distance(v, params) for v in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestFindLookahead:
    def test_on_straight_line_no_lateral_offset(self):
        rl = straight_raceline()
        pose = VehicleState(x=5.0, y=0.0, psi=0.0, v=3.0)
        idx, lateral, nearest = find_lookahead_point(rl, pose, 4.0)
        assert nearest == 5
        assert rl.s[idx] - rl.s[nearest] >= 4.0
        assert lateral == pytest.approx(0.0, abs=1e-12)

    def test_offset_right_gives_positive_lateral(self):
        rl = straight_raceline()
        pose = VehicleState(x=5.0, y=-1.0, psi=0.0, v=3.0)
        _, lateral, _ = find_lookahead_point(rl, pose, 4.0)
        assert lateral == pytest.approx(1.0, abs=1e-9)

    def test_wraps_across_seam(self):
        rl = circle_raceline()
        # near the end of the loop
        pose = VehicleState(x=float(rl.xy[-2, 0]), y=float(rl.xy[-2, 1]),
                            psi=0.0, v=3.0)
        idx, _, nearest = find_lookahead_point(rl, pose, 5.0)
        assert nearest == len(rl) - 2
        assert idx < nearest  # wrapped past index 0

    def test_open_raceline_exhausted(self):
        rl = straight_raceline(n=10)
        pose = VehicleState(x=8.0, y=0.0, psi=0.0, v=3.0)
        with pytest.raises(EndOfRaceline):
            find_lookahead_point(rl, pose, 5.0)


@functools.cache
def centerline_raceline(name: str) -> Raceline:
    track = {"oval": oval_track, "wiggly": wiggly_track,
             "open straight": lambda: straight_track(n=30)}[name]()
    return build_raceline(track, np.zeros(len(track)), VehicleLimits())


class TestLateralOffset:
    """The lateral offset on Python floats is the numpy body-frame
    transform's, bit for bit."""

    @settings(max_examples=600, deadline=None)
    @given(name=st.sampled_from(["oval", "wiggly", "open straight"]),
           anchor=st.floats(0.0, 1.0),
           # on and near the line, and far from it
           offset=st.tuples(*2 * [st.one_of(st.floats(-3.0, 3.0),
                                            st.floats(-1e3, 1e3))]),
           psi=st.one_of(st.sampled_from([math.pi, -math.pi]),
                         st.floats(-10.0, 10.0)),
           lookahead=st.floats(0.5, 8.0))
    def test_matches_the_numpy_transform(self, name, anchor, offset, psi,
                                         lookahead):
        rl = centerline_raceline(name)
        x, y = (rl.xy[int(anchor * (len(rl) - 1))] + offset).tolist()
        pose = VehicleState(x=x, y=y, psi=psi, v=3.0)
        try:
            target, lateral, _ = find_lookahead_point(rl, pose, lookahead)
        except EndOfRaceline:
            return
        want = world_to_body_oracle(pose.x, pose.y, pose.psi,
                                    rl.xy[target])[1]
        assert type(lateral) is float
        assert lateral.hex() == float(want).hex()


class TestNearestWaypoint:
    """The nearest waypoint is the raceline's global nearest vertex, the
    lowest index on a tie, wherever the previous query (the "hint" an
    earlier controller carried) was made: the search keeps no memory."""

    @staticmethod
    def query_at_waypoint(rl, k):
        """One controller query standing on waypoint k."""
        x, y = rl.xy[k]
        pose = VehicleState(x=float(x), y=float(y), psi=0.0, v=3.0)
        with contextlib.suppress(EndOfRaceline):
            find_lookahead_point(rl, pose, 1.0)

    @pytest.mark.parametrize("make", [circle_raceline, open_arc_raceline],
                             ids=["closed", "open"])
    @pytest.mark.parametrize("offset", [-30, -4, -1, 0, 1, 4, 30])
    def test_any_hint_gives_the_global_nearest(self, make, offset):
        # a previous query ahead of the nearest waypoint is where a
        # forward-only walk from it would stop at once
        rl = make()
        n = len(rl)
        rng = np.random.default_rng(21)
        for _ in range(40):
            i = int(rng.integers(0, n - 8))
            x, y = rl.xy[i] + rng.normal(0.0, 0.8, 2)
            want = polyline_distance_oracle(rl.xy, (x, y), rl.closed)[1]
            assert polyline_distance(rl.polyline, [(x, y)])[1][0] == want
            hint = want + offset
            hint = hint % n if rl.closed else min(max(hint, 0), n - 1)
            self.query_at_waypoint(rl, hint)
            pose = VehicleState(x=float(x), y=float(y), psi=0.0, v=3.0)
            assert find_lookahead_point(rl, pose, 1.0)[2] == want

    @pytest.mark.parametrize("hint", [None, 4, 5, 6, 7])
    def test_tie_takes_the_lowest_index(self, hint):
        # exactly halfway between waypoints 5 and 6
        rl = straight_raceline()
        if hint is not None:
            self.query_at_waypoint(rl, hint)
        pose = VehicleState(x=5.5, y=0.25, psi=0.0, v=3.0)
        assert find_lookahead_point(rl, pose, 1.0)[2] == 5

    def test_raceline_polyline_is_built_once(self):
        rl = circle_raceline()
        polyline = rl.polyline
        pursuit_step(rl, VehicleState(x=20.0, y=0.5, psi=1.6, v=3.0),
                     PursuitState(), PursuitParams(), 0.05)
        assert rl.polyline is polyline
        assert polyline.closed
        np.testing.assert_array_equal(polyline.x, rl.xy[:, 0])
        np.testing.assert_array_equal(polyline.y, rl.xy[:, 1])


class TestPursuitCurvature:
    def test_zero_offset(self):
        assert pursuit_curvature(0.0, 3.0) == 0.0

    def test_arc_curvature_value(self):
        assert pursuit_curvature(1.0, 2.0) == pytest.approx(0.5)

    def test_sign_convention(self):
        assert pursuit_curvature(-1.0, 2.0) == pytest.approx(-0.5)

    def test_odd_in_y(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.uniform(-5, 5)
            l = rng.uniform(0.5, 6)
            assert pursuit_curvature(-y, l) == -pursuit_curvature(y, l)


class TestPdSteering:
    def test_proportional_only(self):
        # constant gamma 0.1 with Kp = 2.0 -> 0.2 rad
        assert pd_steering(0.1, 0.1, 0.05, PursuitParams()) == \
            pytest.approx(0.2)

    def test_zero_input(self):
        assert pd_steering(0.0, 0.0, 0.05, PursuitParams()) == 0.0

    def test_clamped_at_delta_max(self):
        # 2*1 + 1*(1-0)/0.1 = 12 pre-clamp
        assert pd_steering(1.0, 0.0, 0.1, PursuitParams()) == 1.0

    def test_never_exceeds_clamp(self):
        params = PursuitParams()
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = pd_steering(rng.uniform(-10, 10), rng.uniform(-10, 10),
                            rng.uniform(0.001, 0.5), params)
            assert abs(d) <= params.delta_max


class TestPursuitStep:
    def test_on_straight_raceline(self):
        rl = straight_raceline(v=4.0)
        state = PursuitState()
        pose = VehicleState(x=5.0, y=0.0, psi=0.0, v=3.0)
        cmd = pursuit_step(rl, pose, state, PursuitParams(), 0.05)
        assert cmd.steering == pytest.approx(0.0, abs=1e-12)
        assert cmd.target_speed == 4.0

    def test_first_call_has_zero_derivative(self):
        rl = straight_raceline()
        state = PursuitState()
        pose = VehicleState(x=5.0, y=-1.0, psi=0.0, v=0.0)
        cmd = pursuit_step(rl, pose, state, PursuitParams(), 0.05)
        # lookahead 2.0 at v=0; gamma = 2*1/4 = 0.5; Kp only -> 1.0 clamped
        expected = min(2.0 * pursuit_curvature(1.0, 2.0), 1.0)
        assert cmd.steering == pytest.approx(expected)
        assert state.gamma_prev is not None

    def test_steady_circle_command_magnitude(self):
        # vehicle riding the raceline circle: commanded curvature ~ 1/R
        rl = circle_raceline(radius=20.0, v=3.0)
        params = PursuitParams()
        state = PursuitState()
        gammas = []
        count = len(rl)
        for k in range(count):
            th = 2.0 * math.pi * k / count
            pose = VehicleState(x=20.0 * math.cos(th), y=20.0 * math.sin(th),
                                psi=th + math.pi / 2, v=3.0)
            cmd = pursuit_step(rl, pose, state, params, 0.05)
            gammas.append(state.gamma_prev)
        mean_gamma = np.mean(np.abs(gammas[5:]))
        assert mean_gamma == pytest.approx(1.0 / 20.0, rel=0.2)

    def test_mirror_symmetry(self):
        # reflecting the raceline and pose across the x axis negates steering
        tr = circle_track(clockwise=False, radius=15.0, width=3.0)
        rl = build_raceline(tr, optimize_min_curvature(tr), VehicleLimits(),
                            spacing=1.0)
        mirrored = Raceline(xy=rl.xy * np.array([1.0, -1.0]),
                            kappa=-rl.kappa, v=rl.v.copy(), s=rl.s.copy(),
                            closed=True, length=rl.length)
        params = PursuitParams()
        rng = np.random.default_rng(9)
        for _ in range(40):
            th = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(14.0, 16.0)
            x, y = r * math.cos(th), r * math.sin(th)
            psi = th + math.pi / 2 + rng.normal(0, 0.3)
            v = rng.uniform(0, 5)
            a = pursuit_step(rl, VehicleState(x, y, psi, v), PursuitState(),
                             params, 0.05)
            b = pursuit_step(mirrored, VehicleState(x, -y, -psi, v),
                             PursuitState(), params, 0.05)
            assert b.steering == pytest.approx(-a.steering, abs=1e-12)
