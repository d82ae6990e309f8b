import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from gokart.track import (OptimizationError, Raceline, Spline2D, Track,
                          TrackFormatError, VehicleLimits,
                          _curvature_residual, alpha_bounds,
                          build_raceline, centerline_curvature_cost,
                          curvature_at, estimated_lap_time,
                          minimize, normals, offset_curvature_cost,
                          optimize_min_curvature, read_raceline_csv,
                          read_track_csv, resample_raceline,
                          velocity_profile, write_raceline_csv)
from helpers import (DenseJacobian, circle_track, dense_curvature_residual,
                     hairpin_track, min_curvature_objective_oracle,
                     minimize_dense_oracle, minimize_full_scaling_oracle,
                     optimize_min_curvature_lbfgsb_oracle, oval_track,
                     straight_track, velocity_profile_oracle, wiggly_track,
                     write_track_csv)


class TestSpline:
    def test_collinear_points_have_zero_curvature(self):
        x = np.arange(8.0)
        sp = Spline2D(np.column_stack([x, 2.0 * x + 1.0]), closed=False)
        t = np.linspace(0.0, sp.t_max, 200)
        assert np.max(np.abs(curvature_at(sp, t))) < 1e-9

    def test_circle_curvature_within_one_percent(self):
        th = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        xy = np.column_stack([10.0 * np.cos(th), 10.0 * np.sin(th)])
        sp = Spline2D(xy, closed=True)
        mids = 0.5 * (sp.t_knots + np.append(sp.t_knots[1:], sp.t_max))
        k = curvature_at(sp, mids)
        np.testing.assert_allclose(k, 0.1, rtol=0.01)

    def test_knots_reproduce_points(self):
        rng = np.random.default_rng(0)
        xy = np.cumsum(rng.uniform(0.5, 1.5, size=(12, 2)), axis=0)
        sp = Spline2D(xy, closed=False)
        np.testing.assert_allclose(sp.point(sp.t_knots), xy, atol=1e-12)

    def test_periodic_seam_continuity(self):
        tr = wiggly_track()
        sp = Spline2D(tr.xy, closed=True)
        d1a = sp.derivative(0.0, 1)
        d1b = sp.derivative(sp.t_max, 1)
        d2a = sp.derivative(0.0, 2)
        d2b = sp.derivative(sp.t_max, 2)
        np.testing.assert_allclose(d1a, d1b, atol=1e-9)
        np.testing.assert_allclose(d2a, d2b, atol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Spline2D(np.zeros((3, 2)), closed=False)

    def test_curvature_sign_convention(self):
        th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        ccw = np.column_stack([5.0 * np.cos(th), 5.0 * np.sin(th)])
        cw = ccw[::-1]
        k_ccw = curvature_at(Spline2D(ccw, True),
                             Spline2D(ccw, True).t_knots)
        k_cw = curvature_at(Spline2D(cw, True), Spline2D(cw, True).t_knots)
        assert np.all(k_ccw > 0.0)
        assert np.all(k_cw < 0.0)
        np.testing.assert_allclose(k_ccw, 0.2, rtol=0.01)
        np.testing.assert_allclose(k_cw, -0.2, rtol=0.01)


def per_axis_spline(xy, closed):
    """The x and y splines of a curve fitted one axis at a time, on the
    chord lengths, as Spline2D did before it fitted both in one spline."""
    data = np.vstack([xy, xy[:1]]) if closed else xy
    t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(data, axis=0),
                                                        axis=1))])
    bc = "periodic" if closed else "natural"
    return (CubicSpline(t, data[:, 0], bc_type=bc),
            CubicSpline(t, data[:, 1], bc_type=bc))


class TestSplineAgainstPerAxisFits:
    """One vector-valued spline equals two per-axis splines bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 2000), closed=st.booleans(),
           seed=st.integers(0, 2**32 - 1), scalar=st.floats(-0.2, 1.2))
    def test_point_and_derivatives(self, n, closed, seed, scalar):
        # a random walk with steps of 0.01-5 m, so no two neighbours coincide
        rng = np.random.default_rng(seed)
        step = rng.uniform(0.01, 5.0, n)[:, None]
        heading = rng.uniform(-math.pi, math.pi, n)
        xy = np.cumsum(step * np.column_stack([np.cos(heading),
                                               np.sin(heading)]), axis=0)
        sp = Spline2D(xy, closed)
        sx, sy = per_axis_spline(xy, closed)
        assert sp.t_max == sx.x[-1]
        # knots, both ends, random points and points beyond either end
        t = np.concatenate([sx.x, rng.uniform(-0.2, 1.2, 64) * sp.t_max])
        for arg in (t, scalar * sp.t_max):
            np.testing.assert_array_equal(
                sp.point(arg), np.stack([sx(arg), sy(arg)], axis=-1))
            for order in (1, 2):
                got = sp.derivative(arg, order)
                np.testing.assert_array_equal(
                    got, np.stack([sx(arg, order), sy(arg, order)], axis=-1))
                assert got.shape == np.shape(arg) + (2,)


def scipy_spline(xy, closed):
    """scipy's vector-valued spline through the points on their chord
    lengths: the oracle that Spline2D repeats bit for bit."""
    data = np.vstack([xy, xy[:1]]) if closed else xy
    t = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(data, axis=0),
                                                        axis=1))])
    return CubicSpline(t, data, bc_type="periodic" if closed else "natural")


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # -0.0 and NaN payloads too


class TestSplineAgainstScipy:
    """Spline2D's fit and evaluation return CubicSpline's bits."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 400), closed=st.booleans(),
           seed=st.integers(0, 2**32 - 1), scalar=st.floats(-0.5, 1.5),
           kind=st.sampled_from(["spread", "grid"]))
    def test_fit_and_evaluation(self, n, closed, seed, scalar, kind):
        rng = np.random.default_rng(seed)
        if kind == "spread":
            # spacings from 1e-4 to 1 m: a short step before a long one
            # makes dgtsv interchange rows
            step = 10.0 ** rng.uniform(-4.0, 0.0, n)[:, None]
            heading = rng.uniform(-math.pi, math.pi, n)
            xy = np.cumsum(step * np.column_stack([np.cos(heading),
                                                   np.sin(heading)]), axis=0)
        else:
            # whole-metre runs along the axes: collinear points, exact data
            # and many zero coefficients of either sign
            axis = np.repeat(rng.integers(0, 4, n), rng.integers(1, 8, n))[:n]
            unit = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
            xy = np.cumsum(rng.integers(1, 4, n)[:, None] * unit[axis], axis=0)
            if closed and np.array_equal(xy[-1], xy[0]):  # a closing seam
                xy[-1] += 1.0
        ref = scipy_spline(xy, closed)
        sp = Spline2D(xy, closed)
        assert sp.t_max == ref.x[-1]
        assert_same_bits(sp.t_knots, ref.x[:-1] if closed else ref.x)
        t_max = sp.t_max
        # knots, random points, both ends, points beyond either end and the
        # values a closed curve maps to NaN or to 0
        args = np.concatenate([ref.x, rng.uniform(-0.5, 1.5, 64) * t_max,
                               [-0.0, np.nextafter(t_max, np.inf), -1e-300,
                                3.5 * t_max, -2.25 * t_max, np.nan, np.inf]])
        for arg in (args, scalar * t_max, np.float64(t_max), 0, [-0.0, t_max]):
            with np.errstate(invalid="ignore"):
                assert_same_bits(sp.point(arg), ref(arg))
                for order in (1, 2):
                    assert_same_bits(sp.derivative(arg, order),
                                     ref(arg, order))

    def test_short_step_before_a_long_one(self):
        # the first row of the natural system has 2e-4 on the diagonal and
        # 1 below it, so dgtsv swaps rows 0 and 1
        x = np.cumsum([0.0, 1e-4, 1.0, 2.0, 1e-4, 3.0, 0.5, 1e-3])
        xy = np.column_stack([x, np.sin(x)])
        for closed in (False, True):
            ref = scipy_spline(xy, closed)
            arg = np.linspace(-1.0, ref.x[-1] + 1.0, 257)
            for order in (0, 1, 2):
                assert_same_bits(Spline2D(xy, closed).derivative(arg, order),
                                 ref(arg, order))

    @pytest.mark.parametrize("closed", [False, True])
    def test_overflowing_chord_raises_at_fit(self, closed):
        # each chord is finite in x and y but overflows as a length
        xy = 1e155 * np.column_stack([np.cos(np.arange(8.0)),
                                      np.sin(np.arange(8.0))])
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            scipy_spline(xy, closed)
        with pytest.raises(ValueError, match="finite length"), \
                np.errstate(over="ignore"):
            Spline2D(xy, closed)

    def test_overflowing_chord_rejected_at_load(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x_m,y_m,w_left_m,w_right_m\n" + "".join(
            f"{1e155 * math.cos(k)!r},{1e155 * math.sin(k)!r},2,2\n"
            for k in range(8)))
        with pytest.raises(TrackFormatError, match="huge.csv: .*finite"), \
                np.errstate(over="ignore"):
            read_track_csv(path, closed=True)


class TestSolverResult:
    def test_six_attributes_and_their_types(self):
        result = minimize(lambda x: x - 0.25, np.array([0.5, -0.25]),
                          lambda x: DenseJacobian(np.eye(2)),
                          -np.ones(2), np.ones(2))
        assert sorted(vars(result)) == \
            ["fun", "message", "nfev", "nit", "success", "x"]
        assert type(result.x) is np.ndarray and result.x.shape == (2,)
        assert type(result.fun) is float and type(result.success) is bool
        assert type(result.nit) is int and type(result.nfev) is int
        assert type(result.message) is str
        assert result.success and (result.nit, result.nfev) == (2, 2)
        np.testing.assert_array_equal(result.x, [0.25, 0.25])


def test_package_imports_neither_scipy_interpolate_nor_optimize():
    code = ("import sys, gokart.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.interpolate', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


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


def circuit_1920():
    """A 1.9 km closed circuit at 1 m spacing."""
    return wiggly_track(seed=5, n=1920, radius=300.0, amp=40.0)


def open_road_2000():
    """A 2 km open road at 1 m spacing."""
    return wiggly_track(seed=6, n=2000, radius=320.0, amp=40.0, closed=False)


def wiggly_seed_11():
    return wiggly_track(seed=11)


def open_hairpin():
    return hairpin_track(closed=False)


def assert_close(got, want, rel=1e-9):
    """Equal to `rel` of the largest entry of `want`."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestBandedLinearization:
    """The banded curvature residual and Jacobian against the dense
    operators, at offsets that reach both bounds."""

    FIXTURES = (circle_track, oval_track, wiggly_track, wiggly_seed_11,
                straight_track, open_hairpin)

    @staticmethod
    def linearized(fixture):
        tr = fixture()
        lo, hi = alpha_bounds(tr)
        alpha = np.random.default_rng(len(tr)).uniform(lo, hi)
        alpha[::5] = lo[::5]
        alpha[2::7] = hi[2::7]
        kappa, linearize = _curvature_residual(tr)
        dense_kappa, jacobian = dense_curvature_residual(tr)
        active = (alpha == lo) | (alpha == hi)
        return (kappa(alpha), linearize(alpha), dense_kappa(alpha),
                DenseJacobian(jacobian(alpha)), active)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_kappa_gradient_and_active_columns(self, fixture):
        kappa, banded, dense_kappa, dense, active = self.linearized(fixture)
        assert active.any() and not active.all()
        assert_close(kappa, dense_kappa)
        assert_close(banded.rmatvec(kappa), dense.rmatvec(dense_kappa))
        assert_close(banded.column_norms2(active), dense.column_norms2(active))

    @pytest.mark.parametrize("reg", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_free_step(self, fixture, reg):
        _, banded, _, dense, active = self.linearized(fixture)
        free = ~active
        b = np.random.default_rng(7).normal(size=np.count_nonzero(free))
        assert_close(banded.solve(free, b, reg), dense.solve(free, b, reg))


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
        sp = Spline2D(pts, closed=True)
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
    SCALE_FIXTURES = (circuit_1920, open_road_2000)

    @pytest.mark.parametrize("fixture", SOLVER_FIXTURES)
    def test_objective_no_higher_than_lbfgsb_oracle(self, fixture):
        tr = fixture()
        objective = min_curvature_objective_oracle(tr, 1e-6)
        got, _ = objective(optimize_min_curvature(tr, reg=1e-6))
        want, _ = objective(optimize_min_curvature_lbfgsb_oracle(tr, reg=1e-6))
        assert got <= want + 1e-12  # ties may differ in rounding

    @pytest.mark.parametrize("fixture", SOLVER_FIXTURES)
    def test_objective_no_higher_than_dense_oracle(self, fixture):
        # the same solver on the dense n x n linearization it replaced
        tr = fixture()
        objective = min_curvature_objective_oracle(tr, 1e-6)
        got, _ = objective(optimize_min_curvature(tr, reg=1e-6))
        want, _ = objective(minimize_dense_oracle(tr, reg=1e-6).x)
        assert got <= want * (1.0 + 1e-9)

    @pytest.mark.parametrize("fixture", SOLVER_FIXTURES + SCALE_FIXTURES)
    def test_projected_gradient_vanishes(self, fixture):
        # first-order optimality on the box: a projected gradient step from
        # the solution goes nowhere
        tr = fixture()
        alpha = optimize_min_curvature(tr, reg=1e-6)
        _, grad = min_curvature_objective_oracle(tr, 1e-6)(alpha)
        lo, hi = alpha_bounds(tr)
        assert np.all(alpha >= lo) and np.all(alpha <= hi)
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
        result = minimize(lambda x: x, start, lambda x: DenseJacobian(-np.eye(2)),
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

    def test_singular_step_system_fails_with_the_last_iterate(self):
        # no damping regularizes the third step's system: the second
        # iterate comes back as a failure, bit for bit
        tr = wiggly_track()
        kappa, linearize = _curvature_residual(tr)
        lo, hi = alpha_bounds(tr)
        solves = []

        def jac(x):
            op = linearize(x)

            def solve(free, b, reg):
                solves.append(len(solves))
                if len(solves) == 3:
                    raise np.linalg.LinAlgError("no damping makes the "
                                                "step's system regular")
                return op.solve(free, b, reg)

            return SimpleNamespace(rmatvec=op.rmatvec, solve=solve,
                                   column_norms2=op.column_norms2)

        x0 = np.zeros(len(tr))
        got = minimize(kappa, x0, jac, lo, hi, reg=1e-6)
        want = minimize(kappa, x0, linearize, lo, hi, reg=1e-6, max_iters=2)
        assert not got.success and got.nit == 3
        assert got.message == "no damping makes the step's system regular"
        assert got.x.tobytes() == want.x.tobytes() and got.fun == want.fun
        assert got.nfev == want.nfev

    def test_reg_no_damping_regularizes_raises_with_the_start(self):
        # reg = 1e100 on the offsets' diagonal dwarfs the KKT system's
        # other pivots, whatever damping is added to the offsets
        tr = oval_track()
        with pytest.raises(OptimizationError, match="regular") as exc:
            optimize_min_curvature(tr, reg=1e100)
        np.testing.assert_array_equal(exc.value.alpha, np.zeros(len(tr)))


def both_bounds_start():
    """The wiggly track from offsets a third on each bound, a third at 0."""
    tr = wiggly_track()
    lo, hi = alpha_bounds(tr)
    x0 = np.zeros(len(tr))
    x0[::3], x0[1::3] = lo[::3], hi[1::3]
    return tr, x0


class TestPinnedOffsets:
    """Offsets on a bound whose gradient points out of the box take -g as
    their step, without a column norm: the projection puts them back on the
    bound at any scale, so every iterate is the one the full scaling gave."""

    STARTS = {
        "oval": lambda: (oval_track(), None),
        "wiggly_3": lambda: (wiggly_track(), None),
        "wiggly_11": lambda: (wiggly_seed_11(), None),
        "open_hairpin": lambda: (open_hairpin(), None),
        "open_straight": lambda: (straight_track(), None),
        "both_bounds": both_bounds_start,
    }

    @staticmethod
    def assert_same_result(got, want):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun == want.fun
        assert (got.nit, got.nfev, got.message) == \
            (want.nit, want.nfev, want.message)

    @pytest.mark.parametrize("name", STARTS)
    def test_bitwise_equal_to_full_scaling(self, name):
        tr, x0 = self.STARTS[name]()
        x0 = np.zeros(len(tr)) if x0 is None else x0
        kappa, linearize = _curvature_residual(tr)
        lo, hi = alpha_bounds(tr)
        got = minimize(kappa, x0, linearize, lo, hi, reg=1e-6)
        want = minimize_full_scaling_oracle(kappa, x0, linearize, lo, hi,
                                            reg=1e-6)
        assert got.success
        self.assert_same_result(got, want)

    @pytest.mark.parametrize("start", [[0.5, -0.25], [1.0, -0.25]])
    def test_no_decrease_bitwise_equal_to_full_scaling(self, start):
        # the wrong-sign Jacobian of test_solver_fails_where_no_step_lowers_
        # the_objective; from [1, -0.25] the first offset is pinned on hi
        args = (lambda x: x, np.array(start),
                lambda x: DenseJacobian(-np.eye(2)), -np.ones(2), np.ones(2))
        got = minimize(*args)
        assert not got.success and "no decrease" in got.message
        self.assert_same_result(got, minimize_full_scaling_oracle(*args))

    @staticmethod
    def counted(linearize, lo, hi, reg, calls):
        """`linearize` with each column_norms2 call logged in `calls` as
        (mask, pinned) from the gradient the step read."""
        def jac(x):
            op = linearize(x)
            seen = {}

            def rmatvec(r):
                g = op.rmatvec(r)
                full = g + reg * x
                seen["pinned"] = (((x == lo) & (full > 0.0))
                                  | ((x == hi) & (full < 0.0)))
                return g

            def column_norms2(mask):
                calls.append((mask.copy(), seen["pinned"]))
                return op.column_norms2(mask)

            return SimpleNamespace(rmatvec=rmatvec, solve=op.solve,
                                   column_norms2=column_norms2)
        return jac

    @pytest.mark.parametrize("fixture", [
        oval_track, lambda: wiggly_track(n=480, width=1.0)])
    def test_stepping_asks_no_pinned_column_norm(self, fixture):
        tr = fixture()
        kappa, linearize = _curvature_residual(tr)
        lo, hi = alpha_bounds(tr)
        calls = []
        result = minimize(kappa, np.zeros(len(tr)),
                          self.counted(linearize, lo, hi, 1e-6, calls),
                          lo, hi, reg=1e-6)
        assert result.success and "no decrease" not in result.message
        assert len(calls) == result.nit
        assert not any(np.any(mask & pinned) for mask, pinned in calls)
        assert sum(np.count_nonzero(pinned) for _, pinned in calls) > 100

    def test_no_decrease_stop_reads_the_pinned_diagonal(self):
        calls = []
        lo, hi = -np.ones(2), np.ones(2)
        minimize(lambda x: x, np.array([1.0, -0.25]),
                 self.counted(lambda x: DenseJacobian(-np.eye(2)), lo, hi,
                              0.0, calls), lo, hi)
        (stepping, _), (stop, pinned) = calls
        assert not stepping.any()
        np.testing.assert_array_equal(stop, pinned)
        np.testing.assert_array_equal(pinned, [True, False])


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
        sp = Spline2D(np.column_stack([10.0 * np.cos(th),
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

    def test_centerline_without_a_tangent_rejected(self, tmp_path):
        # closed out and back: the tangent vanishes at both turning points
        path = tmp_path / "back.csv"
        path.write_text("x_m,y_m,w_left_m,w_right_m\n" + "".join(
            f"{x},0,2,2\n" for x in (0, 1, 2, 3, 4, 3, 2, 1)))
        with pytest.raises(TrackFormatError,
                           match="back.csv: degenerate tangent"):
            read_track_csv(path, closed=True)

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
