import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.perception import DepthScan, SCAN_SIZE, scan_angles
from gokart.planning import (FtgParams, Gap, NoGapError, find_gaps,
                             ftg_speed, ftg_step, gap_steering,
                             select_largest_gap)
from helpers import batch_brute_force_gaps, brute_force_gap


def make_scan(distances, max_range=20.0):
    return DepthScan(distances=np.asarray(distances, dtype=float),
                     angles=scan_angles(), max_range=max_range)


class TestFindGaps:
    def test_whole_scan_qualifies(self):
        gaps = find_gaps(make_scan(np.full(SCAN_SIZE, 10.0)), 2.5)
        assert gaps == [Gap(0, 360)]

    def test_nothing_qualifies(self):
        assert find_gaps(make_scan(np.full(SCAN_SIZE, 1.0)), 2.5) == []

    def test_toy_scan_brute_force(self):
        # 6-ray toy pattern embedded at the scan start, rest blocked
        d = np.ones(SCAN_SIZE)
        d[:6] = [3, 3, 1, 3, 3, 3]
        gaps = find_gaps(make_scan(d), 2.5)
        assert gaps == [Gap(0, 1), Gap(3, 5)]

    def test_gaps_are_maximal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.uniform(0.01, 6.0, SCAN_SIZE)
            gaps = find_gaps(make_scan(d), 2.5)
            for g in gaps:
                assert np.all(d[g.i:g.j + 1] >= 2.5)
                if g.i > 0:
                    assert d[g.i - 1] < 2.5
                if g.j < SCAN_SIZE - 1:
                    assert d[g.j + 1] < 2.5

    def test_threshold_boundary_inclusive(self):
        d = np.full(SCAN_SIZE, 1.0)
        d[100] = 2.5  # exactly epsilon qualifies
        assert find_gaps(make_scan(d), 2.5) == [Gap(100, 100)]


class TestSelectLargestGap:
    def test_widths(self):
        assert select_largest_gap([Gap(0, 1), Gap(3, 5)]) == Gap(3, 5)

    def test_single_gap(self):
        assert select_largest_gap([Gap(7, 9)]) == Gap(7, 9)

    def test_tie_breaks_toward_center(self):
        near = Gap(150, 160)   # midpoint 155
        far = Gap(10, 20)      # midpoint 15
        assert select_largest_gap([far, near]) == near

    def test_empty_raises(self):
        with pytest.raises(NoGapError):
            select_largest_gap([])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = rng.uniform(0.01, 5.0, SCAN_SIZE)
            expected = brute_force_gap(d, 2.5)
            gaps = find_gaps(make_scan(d), 2.5)
            if expected is None:
                assert gaps == []
                continue
            best = select_largest_gap(gaps)
            assert (best.i, best.j, best.midpoint) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=5.0,
                              allow_nan=False), min_size=1, max_size=30),
           st.floats(min_value=0.5, max_value=4.5, allow_nan=False))
    def test_matches_brute_force_small_scans(self, values, epsilon):
        # embed a short pattern into a blocked scan so indices stay exact
        d = np.full(SCAN_SIZE, 0.01)
        d[:len(values)] = np.maximum(values, 0.01)
        expected = brute_force_gap(d, epsilon)
        gaps = find_gaps(make_scan(d), epsilon)
        if expected is None:
            assert gaps == []
        else:
            best = select_largest_gap(gaps)
            assert (best.i, best.j, best.midpoint) == expected


class TestGapSteering:
    def test_midpoint_floor(self):
        assert Gap(3, 5).midpoint == 4
        assert Gap(0, 3).midpoint == 1  # floor(1.5)

    def test_full_scan_steers_straight(self):
        scan = make_scan(np.full(SCAN_SIZE, 10.0))
        gap = select_largest_gap(find_gaps(scan, 2.5))
        assert gap.midpoint == 180
        assert gap_steering(gap, scan) == 0.0

    def test_clamped_to_delta_max(self):
        scan = make_scan(np.full(SCAN_SIZE, 10.0))
        gap = Gap(0, 10)  # midpoint angle ~ -pi/2 < -1 rad
        assert gap_steering(gap, scan, delta_max=1.0) == -1.0


class TestFtgSpeed:
    def test_corrected_straight_is_fast(self):
        assert ftg_speed(0.0, FtgParams()) == 5.0

    def test_corrected_full_lock_is_slow(self):
        assert ftg_speed(1.0, FtgParams()) == 2.0
        assert ftg_speed(-1.0, FtgParams()) == 2.0

    def test_as_written_matches_printed_formula(self):
        # literal law: v = v_min + (delta/delta_max)(v_max - v_min)
        assert ftg_speed(1.0, FtgParams(law="as_written")) == 5.0
        assert ftg_speed(0.0, FtgParams(law="as_written")) == 2.0
        # signed delta drives below v_min; clamp holds the floor
        assert ftg_speed(-1.0, FtgParams(law="as_written")) == 2.0

    def test_corrected_monotone_nonincreasing(self):
        params = FtgParams()
        grid = np.linspace(0.0, 1.0, 101)
        vals = [ftg_speed(d, params) for d in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert min(vals) == params.v_min and max(vals) == params.v_max


class TestFtgStep:
    def test_open_corridor(self):
        cmd = ftg_step(make_scan(np.full(SCAN_SIZE, 10.0)), FtgParams())
        assert cmd.steering == 0.0
        assert cmd.speed == 5.0
        assert not cmd.safety_stop

    def test_wall_on_left_steers_right(self):
        d = np.full(SCAN_SIZE, 10.0)
        d[181:] = 1.0  # positive angles (left half) blocked
        cmd = ftg_step(make_scan(d), FtgParams())
        assert cmd.chosen_gap.j <= 180
        assert cmd.steering < 0.0

    def test_no_gap_safety_stop(self):
        cmd = ftg_step(make_scan(np.full(SCAN_SIZE, 0.5)), FtgParams())
        assert cmd.safety_stop
        assert cmd.speed == 0.0 and cmd.steering == 0.0
        assert cmd.chosen_gap is None

    def test_mirror_symmetry_on_even_midpoints(self):
        # floor midpoints are exactly mirror-symmetric when i+j is even
        rng = np.random.default_rng(3)
        params = FtgParams()
        checked = 0
        while checked < 50:
            d = rng.uniform(0.01, 6.0, SCAN_SIZE)
            d[0] = d[-1] = 0.01  # keep runs interior so reversal is clean
            gaps = find_gaps(make_scan(d), params.epsilon)
            if not gaps:
                continue
            best = select_largest_gap(gaps)
            if (best.i + best.j) % 2 != 0:
                continue
            fwd = ftg_step(make_scan(d), params)
            rev = ftg_step(make_scan(d[::-1].copy()), params)
            assert rev.steering == pytest.approx(-fwd.steering, abs=1e-12)
            checked += 1

    def test_mirror_symmetry_within_half_resolution(self):
        # with floor rounding the reversal can differ by at most one ray
        rng = np.random.default_rng(4)
        params = FtgParams()
        one_ray = np.pi / 360.0
        for _ in range(200):
            d = rng.uniform(0.01, 6.0, SCAN_SIZE)
            fwd = ftg_step(make_scan(d), params)
            rev = ftg_step(make_scan(d[::-1].copy()), params)
            if fwd.safety_stop:
                assert rev.safety_stop
                continue
            assert abs(rev.steering + fwd.steering) <= one_ray + 1e-12


class TestBatchOracle:
    def test_batch_oracle_agrees_with_scalar_oracle(self):
        rng = np.random.default_rng(5)
        scans = rng.uniform(0.01, 5.0, size=(40, SCAN_SIZE))
        found, gi, gj, gm = batch_brute_force_gaps(scans, 2.5)
        for row in range(len(scans)):
            expected = brute_force_gap(scans[row], 2.5)
            if expected is None:
                assert not found[row]
            else:
                assert found[row]
                assert (gi[row], gj[row], gm[row]) == expected
