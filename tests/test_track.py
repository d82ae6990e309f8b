import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.track import (OptimizationError, Raceline, Track,
                          TrackFormatError, VehicleLimits, alpha_bounds,
                          build_raceline, centerline_curvature_cost,
                          curvature_at, estimated_lap_time, fit_spline,
                          minimize, normals, offset_curvature_cost,
                          optimize_min_curvature, read_raceline_csv,
                          read_track_csv, resample_raceline,
                          velocity_profile, write_raceline_csv)
from helpers import (circle_track, min_curvature_objective_oracle,
                     optimize_min_curvature_lbfgsb_oracle, oval_track,
                     straight_track, velocity_profile_oracle, wiggly_track,
                     write_track_csv)


class TestSpline:
    def test_collinear_points_have_zero_curvature(self):
        x = np.arange(8.0)
        sp = fit_spline(np.column_stack([x, 2.0 * x + 1.0]), closed=False)
        t = np.linspace(0.0, sp.t_max, 200)
        assert np.max(np.abs(curvature_at(sp, t))) < 1e-9

    def test_circle_curvature_within_one_percent(self):
        th = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        xy = np.column_stack([10.0 * np.cos(th), 10.0 * np.sin(th)])
        sp = fit_spline(xy, closed=True)
        mids = 0.5 * (sp.t_knots + np.append(sp.t_knots[1:], sp.t_max))
        k = curvature_at(sp, mids)
        np.testing.assert_allclose(k, 0.1, rtol=0.01)

    def test_knots_reproduce_points(self):
        rng = np.random.default_rng(0)
        xy = np.cumsum(rng.uniform(0.5, 1.5, size=(12, 2)), axis=0)
        sp = fit_spline(xy, closed=False)
        np.testing.assert_allclose(sp.point(sp.t_knots), xy, atol=1e-12)

    def test_periodic_seam_continuity(self):
        tr = wiggly_track()
        sp = fit_spline(tr.xy, closed=True)
        d1a = sp.derivative(0.0, 1)
        d1b = sp.derivative(sp.t_max, 1)
        d2a = sp.derivative(0.0, 2)
        d2b = sp.derivative(sp.t_max, 2)
        np.testing.assert_allclose(d1a, d1b, atol=1e-9)
        np.testing.assert_allclose(d2a, d2b, atol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_spline(np.zeros((3, 2)), closed=False)

    def test_curvature_sign_convention(self):
        th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        ccw = np.column_stack([5.0 * np.cos(th), 5.0 * np.sin(th)])
        cw = ccw[::-1]
        k_ccw = curvature_at(fit_spline(ccw, True),
                             fit_spline(ccw, True).t_knots)
        k_cw = curvature_at(fit_spline(cw, True), fit_spline(cw, True).t_knots)
        assert np.all(k_ccw > 0.0)
        assert np.all(k_cw < 0.0)
        np.testing.assert_allclose(k_ccw, 0.2, rtol=0.01)
        np.testing.assert_allclose(k_cw, -0.2, rtol=0.01)


class TestNormals:
    def test_heading_plus_x_gives_left_normal(self):
        tr = straight_track()
        n = normals(tr)
        np.testing.assert_allclose(n, np.tile([0.0, 1.0], (len(tr), 1)),
                                   atol=1e-9)

    def test_ccw_circle_normals_point_inward(self):
        tr = circle_track(clockwise=False)
        n = normals(tr)
        # left of CCW travel is toward the center: n ~ -position/|position|
        expected = -tr.xy / np.linalg.norm(tr.xy, axis=1)[:, None]
        np.testing.assert_allclose(n, expected, atol=1e-3)

    def test_unit_norm(self):
        for tr in (circle_track(), oval_track(), wiggly_track()):
            n = normals(tr)
            np.testing.assert_allclose(np.hypot(n[:, 0], n[:, 1]), 1.0,
                                       atol=1e-9)


class TestTrackModel:
    def test_minimum_points(self):
        xy = np.column_stack([np.arange(7.0), np.zeros(7)])
        with pytest.raises(ValueError):
            Track.from_arrays(xy, 1.0, 1.0, closed=False)

    def test_coincident_points_rejected(self):
        xy = np.zeros((8, 2))
        xy[:, 0] = [0, 1, 2, 3, 3.0000001, 4, 5, 6]
        with pytest.raises(ValueError):
            Track.from_arrays(xy, 1.0, 1.0, closed=False)

    def test_closed_seam_must_be_distinct(self):
        th = np.linspace(0.0, 2.0 * math.pi, 9)  # endpoint repeats the start
        xy = np.column_stack([np.cos(th), np.sin(th)])
        with pytest.raises(ValueError):
            Track.from_arrays(xy, 1.0, 1.0, closed=True)

    def test_vehicle_must_fit_inside_the_track(self):
        # 1.9 m each side: the kart's half-width must stay below 1.9 m
        circle_track(width=1.9, vhw=1.8999)
        for vhw in (1.9, 2.5, -0.1):
            with pytest.raises(ValueError, match="track.vehicle_half_width"):
                circle_track(width=1.9, vhw=vhw)
        # lopsided widths: the box [0.2, 2.6] m lies left of the centerline
        tr = Track.from_arrays(circle_track().xy, 3.0, 0.2, closed=True,
                               vehicle_half_width=0.4)
        lo, hi = alpha_bounds(tr)
        np.testing.assert_allclose(lo, 0.2)
        np.testing.assert_allclose(hi, 2.6)

    def test_alpha_bounds(self):
        tr = circle_track(width=1.9, vhw=0.4)
        lo, hi = alpha_bounds(tr)
        np.testing.assert_allclose(hi, 1.5)
        np.testing.assert_allclose(lo, -1.5)


class TestOptimizer:
    def test_straight_track_stays_centered(self):
        alpha = optimize_min_curvature(straight_track())
        np.testing.assert_allclose(alpha, 0.0, atol=1e-6)

    def test_circle_rides_outer_boundary(self):
        # clockwise circle: left of travel is outward, so alpha -> +1.5 and
        # the raceline radius grows to 21.5 m
        tr = circle_track(radius=20.0, width=1.9, vhw=0.4, clockwise=True)
        alpha = optimize_min_curvature(tr)
        np.testing.assert_allclose(alpha, 1.5, atol=0.02)
        pts = tr.xy + alpha[:, None] * normals(tr)
        sp = fit_spline(pts, closed=True)
        k = np.abs(curvature_at(sp, sp.t_knots))
        np.testing.assert_allclose(k, 1.0 / 21.5, rtol=0.02)

    def test_improvement_on_fixtures(self):
        for tr in (circle_track(), oval_track(), wiggly_track()):
            alpha = optimize_min_curvature(tr)
            assert offset_curvature_cost(tr, alpha) <= \
                centerline_curvature_cost(tr) + 1e-9

    def test_alpha_within_bounds_exactly(self):
        for tr in (circle_track(), oval_track(), wiggly_track()):
            alpha = optimize_min_curvature(tr)
            lo, hi = alpha_bounds(tr)
            assert np.all(alpha >= lo)
            assert np.all(alpha <= hi)

    def test_objective_not_worse_than_centerline_start(self):
        tr = wiggly_track(seed=9)
        alpha = optimize_min_curvature(tr)
        assert offset_curvature_cost(tr, alpha) <= \
            offset_curvature_cost(tr, np.zeros(len(tr))) + 1e-9

    # test_04's fixtures
    SOLVER_FIXTURES = (circle_track, oval_track, wiggly_track,
                       lambda: wiggly_track(seed=11), straight_track)

    @pytest.mark.parametrize("fixture", SOLVER_FIXTURES)
    def test_objective_no_higher_than_lbfgsb_oracle(self, fixture):
        tr = fixture()
        objective = min_curvature_objective_oracle(tr, 1e-6)
        got, _ = objective(optimize_min_curvature(tr, reg=1e-6))
        want, _ = objective(optimize_min_curvature_lbfgsb_oracle(tr, reg=1e-6))
        assert got <= want + 1e-12  # ties may differ in rounding

    @pytest.mark.parametrize("fixture", SOLVER_FIXTURES)
    def test_projected_gradient_vanishes(self, fixture):
        # first-order optimality on the box: a projected gradient step from
        # the solution goes nowhere
        tr = fixture()
        alpha = optimize_min_curvature(tr, reg=1e-6)
        _, grad = min_curvature_objective_oracle(tr, 1e-6)(alpha)
        lo, hi = alpha_bounds(tr)
        assert np.max(np.abs(alpha - np.clip(alpha - grad, lo, hi))) < 1e-5

    @pytest.mark.parametrize("reg", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("fixture", [
        circle_track, oval_track, wiggly_track, straight_track,
        # turned, a straight's curvatures are rounding noise: no step lowers
        # the objective, and at reg = 0 the normal matrix is singular
        lambda: straight_track(heading=0.4),
        lambda: straight_track(n=30, heading=0.4)])
    def test_any_reg_solves_inside_the_box(self, fixture, reg):
        tr = fixture()
        alpha = optimize_min_curvature(tr, reg=reg)
        lo, hi = alpha_bounds(tr)
        assert np.all(np.isfinite(alpha))
        assert np.all(alpha >= lo) and np.all(alpha <= hi)

    def test_solver_fails_where_no_step_lowers_the_objective(self):
        # a Jacobian of the wrong sign makes every step go uphill: the
        # backtracking ends, and the start comes back as a failure
        start = np.array([0.5, -0.25])
        result = minimize(lambda x: x, start, lambda x: -np.eye(2),
                          -np.ones(2), np.ones(2))
        assert not result.success and result.nit == 1
        assert "no decrease" in result.message
        np.testing.assert_array_equal(result.x, start)

    def test_spent_budget_raises_with_best_iterate(self):
        tr = wiggly_track()
        with pytest.raises(OptimizationError, match="did not converge") as exc:
            optimize_min_curvature(tr, max_iters=1)
        alpha = exc.value.alpha
        lo, hi = alpha_bounds(tr)
        assert np.all(alpha >= lo) and np.all(alpha <= hi)
        assert offset_curvature_cost(tr, alpha) <= \
            offset_curvature_cost(tr, np.zeros(len(tr)))


class TestVelocityProfile:
    def test_straight_gives_v_max(self):
        from gokart.track import velocity_profile
        limits = VehicleLimits()
        v = velocity_profile(np.zeros(50), np.arange(50.0), limits)
        np.testing.assert_allclose(v, limits.v_max)

    def test_constant_curvature_speed(self):
        from gokart.track import velocity_profile
        limits = VehicleLimits(a_lat_max=3.2, a_lon_max=2.0, v_max=10.0)
        v = velocity_profile(np.full(60, 0.2), np.arange(60.0) * 0.5, limits,
                             total_length=30.0)
        np.testing.assert_allclose(v, 4.0)  # sqrt(3.2 / 0.2)

    def test_profile_feasibility(self):
        limits = VehicleLimits()
        for tr in (circle_track(), oval_track(), wiggly_track()):
            alpha = optimize_min_curvature(tr)
            rl = build_raceline(tr, alpha, limits, spacing=1.0)
            vsq = rl.v ** 2
            ds = np.append(np.diff(rl.s), rl.length - rl.s[-1] + rl.s[0])
            dv2 = np.abs(np.roll(vsq, -1) - vsq)
            assert np.all(dv2 <= 2.0 * limits.a_lon_max * ds + 1e-9)
            assert np.all(vsq * np.abs(rl.kappa) <= limits.a_lat_max + 1e-9)

    # curvature 0 (a straight, no lateral cap) or either sign, per waypoint
    # with the spacing to the next one
    waypoints = st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(1e-4, 2.0),
                            st.floats(-2.0, -1e-4)),
                  st.floats(0.05, 5.0)),
        min_size=2, max_size=80)

    @settings(max_examples=400, deadline=None)
    @given(waypoints, st.floats(0.0, 100.0), st.floats(0.1, 10.0),
           st.floats(0.1, 10.0), st.floats(0.5, 30.0), st.booleans())
    def test_matches_sweep_oracle_bitwise(self, points, s0, a_lat, a_lon,
                                          v_max, closed):
        kappa = np.array([k for k, _ in points])
        gaps = np.array([d for _, d in points])
        s = s0 + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        total = float(s[-1] - s[0] + gaps[-1]) if closed else None
        limits = VehicleLimits(a_lat_max=a_lat, a_lon_max=a_lon, v_max=v_max)
        got = velocity_profile(kappa, s, limits, total_length=total)
        want = velocity_profile_oracle(kappa, s, limits, closed=closed,
                                       total_length=total)
        assert got.tobytes() == want.tobytes()

    def test_open_profile_feasibility(self):
        limits = VehicleLimits()
        tr = straight_track(n=20)
        rl = build_raceline(tr, np.zeros(len(tr)), limits, spacing=1.0)
        vsq = rl.v ** 2
        ds = np.diff(rl.s)
        assert np.all(np.abs(np.diff(vsq)) <= 2.0 * limits.a_lon_max * ds + 1e-9)


class TestResampling:
    def test_circle_waypoint_count(self):
        # circumference 2 pi 10 = 62.83 m at 1 m spacing
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        sp = fit_spline(np.column_stack([10.0 * np.cos(th),
                                         10.0 * np.sin(th)]), closed=True)
        rl = resample_raceline(sp, VehicleLimits(), spacing=1.0)
        assert len(rl) in (62, 63)

    def test_spacing_within_five_percent(self):
        tr = wiggly_track()
        rl = build_raceline(tr, np.zeros(len(tr)), VehicleLimits(), spacing=1.0)
        gaps = np.diff(rl.s)
        np.testing.assert_allclose(gaps, 1.0, rtol=0.05)

    def test_arclength_strictly_increasing(self):
        tr = oval_track()
        rl = build_raceline(tr, np.zeros(len(tr)), VehicleLimits(), spacing=1.0)
        assert np.all(np.diff(rl.s) > 0.0)

    def test_estimated_lap_time_positive(self):
        tr = circle_track()
        rl = build_raceline(tr, np.zeros(len(tr)), VehicleLimits(), spacing=1.0)
        t = estimated_lap_time(rl)
        # 2 pi 20 / 5 m/s ~ 25 s
        assert t == pytest.approx(2.0 * math.pi * 20.0 / 5.0, rel=0.05)


class TestCsv:
    def test_track_roundtrip(self, tmp_path):
        tr = oval_track()
        path = tmp_path / "track.csv"
        write_track_csv(path, tr)
        back = read_track_csv(path, closed=True, vehicle_half_width=0.4)
        np.testing.assert_array_equal(back.xy, tr.xy)
        np.testing.assert_array_equal(back.w_left, tr.w_left)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_m,y_m,w_left_m\n0,0,1\n")
        with pytest.raises(TrackFormatError, match="w_right_m"):
            read_track_csv(path, closed=False)

    def test_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_m,y_m,w_left_m,w_right_m\n0,0,1,1\n0,oops,1,1\n")
        with pytest.raises(TrackFormatError, match="line 3"):
            read_track_csv(path, closed=False)

    def test_raceline_roundtrip(self, tmp_path):
        tr = circle_track()
        rl = build_raceline(tr, optimize_min_curvature(tr), VehicleLimits(),
                            spacing=1.0)
        path = tmp_path / "raceline.csv"
        write_raceline_csv(path, rl)
        back = read_raceline_csv(path, closed=True)
        np.testing.assert_array_equal(back.xy, rl.xy)
        np.testing.assert_array_equal(back.v, rl.v)
        np.testing.assert_array_equal(back.s, rl.s)
        assert back.length == pytest.approx(rl.length, rel=1e-9)

    def test_raceline_invariants(self):
        with pytest.raises(ValueError):
            Raceline(xy=np.zeros((3, 2)), kappa=np.zeros(3),
                     v=np.array([1.0, 0.0, 1.0]), s=np.array([0.0, 1.0, 2.0]),
                     closed=False, length=2.0)
        with pytest.raises(ValueError):
            Raceline(xy=np.zeros((3, 2)), kappa=np.zeros(3),
                     v=np.ones(3), s=np.array([0.0, 2.0, 1.0]),
                     closed=False, length=2.0)
