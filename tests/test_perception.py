import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import gokart
from gokart.fileio import read_netpbm, write_netpbm
from gokart.perception import _ray_index
from gokart.perception import (BevConfig, DepthScan, GRASS_RGB,
                               ImageFormatError, PerceptionConfig, SCAN_SIZE,
                               TRACK_RGB, apply_homography, detect_boundaries,
                               gaussian_blur, grass_mask,
                               homography_from_points, mask_to_depth,
                               morph_open_close, scan_angles, warp_to_bev,
                               write_scan_csv)
from gokart.sim import default_camera_homography
from helpers import (alternating, detect_boundaries_oracle,
                     gaussian_blur_oracle, mask_to_depth_oracle,
                     morph_open_close_oracle, read_scan_csv,
                     warp_to_bev_oracle)


def random_mask(rng, shape, dense=None):
    p = rng.uniform(0.05, 0.9) if dense is None else dense
    return (rng.random(shape) < p).astype(np.uint8)


def thread_counts(code: str) -> list[int]:
    """Run `code` in a fresh interpreter that imports the same gokart
    package as this one, with `count()` printing
    `threading.active_count()`; the printed counts."""
    src = str(Path(gokart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import threading\n"
         "def count():\n    print(threading.active_count())\n" + code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return [int(line) for line in proc.stdout.split()]


def blur_in_child(img, sigma, expected):
    """A forked child's work: raises, so exits 1, unless the blur matches."""
    np.testing.assert_array_equal(gaussian_blur(img, sigma), expected)


class TestGaussianBlur:
    def test_uniform_image_is_fixed_point(self):
        img = np.full((24, 32, 3), 77, dtype=np.uint8)
        np.testing.assert_array_equal(gaussian_blur(img, 2.0), img)

    def test_single_pixel_kernel_center_weight(self):
        sigma = 1.0
        img = np.zeros((21, 21, 3), dtype=np.uint8)
        img[10, 10] = 255
        out = gaussian_blur(img, sigma)
        # independent kernel evaluation: normalized sampled Gaussian
        radius = math.ceil(3.0 * sigma)
        x = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 * (x / sigma) ** 2)
        kernel /= kernel.sum()
        expected = round(255.0 * kernel[radius] ** 2)
        assert int(out[10, 10, 0]) == expected

    def test_mass_preserved_in_interior(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        out = gaussian_blur(img, 1.5)
        inner = (slice(8, 32), slice(8, 32))
        for c in range(3):
            a = float(img[inner + (c,)].sum())
            b = float(out[inner + (c,)].sum())
            assert b == pytest.approx(a, rel=0.01)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.5, 2.0, 3.7])
    def test_matches_float_oracle_bit_for_bit(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        shapes = [(37, 45), (37, 45, 1), (37, 45, 2), (37, 45, 3),
                  (1, 1), (1, 1, 3), (1, 29), (29, 1, 2), (3, 4, 3), (12, 2)]
        for shape in shapes:
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            out = gaussian_blur(img, sigma)
            assert out.dtype == np.uint8 and out.shape == img.shape
            np.testing.assert_array_equal(out, gaussian_blur_oracle(img, sigma))

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.5, 2.0, 3.7])
    def test_strided_views_match_float_oracle(self, sigma):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(41, 53, 3), dtype=np.uint8)
        for view in (img[..., 1:], img[..., 2], img[::2, ::3],
                     img[5:9, ::-1, :2], img[:, :, ::-1]):
            np.testing.assert_array_equal(gaussian_blur(view, sigma),
                                          gaussian_blur_oracle(view, sigma))


class TestBlurThread:
    """gaussian_blur hands every plane after the first to one worker
    thread."""

    def test_import_starts_no_thread(self):
        before, after = thread_counts("count()\nimport gokart.perception\n"
                                      "count()\n")
        assert after == before

    def test_one_plane_blurs_start_no_thread(self):
        counts = thread_counts(
            "import numpy as np\n"
            "from gokart.perception import gaussian_blur\n"
            "img = np.arange(600, dtype=np.uint8).reshape(20, 30)\n"
            "count()\n"
            "gaussian_blur(img, 2.0)\n"
            "gaussian_blur(img[..., None], 2.0)\n"
            "gaussian_blur(np.dstack([img, img])[..., 1:], 2.0)\n"
            "count()\n"
            "gaussian_blur(np.dstack([img, img]), 2.0)\n"
            "count()\n")
        # the last count shows that the test sees the worker when it runs
        assert counts == [counts[0]] * 2 + [counts[0] + 1]

    def test_concurrent_callers_match_the_oracle(self):
        # more callers than cores, switching often, all sharing one worker:
        # a plane written into another caller's output would show
        rng = np.random.default_rng(24)
        sigmas = (0.7, 1.5, 2.0, 3.7)
        images = [rng.integers(0, 256, size=(37 + k, 45, 2 + k % 2),
                               dtype=np.uint8) for k in range(len(sigmas))]
        expected = [gaussian_blur_oracle(img, sigma)
                    for img, sigma in zip(images, sigmas)]
        results = [[] for _ in images]
        start = threading.Barrier(len(images))

        def caller(k):
            start.wait(timeout=60)
            for _ in range(25):
                results[k].append(gaussian_blur(images[k], sigmas[k]))

        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(len(images))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, outs in enumerate(results):
            assert len(outs) == 25
            for out in outs:
                np.testing.assert_array_equal(out, expected[k])

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_child_forked_after_a_blur_blurs(self):
        # the child inherits the parent's pool but not its thread; without
        # its own pool its first multi-plane blur would wait forever
        rng = np.random.default_rng(25)
        img = rng.integers(0, 256, size=(30, 40, 3), dtype=np.uint8)
        expected = gaussian_blur_oracle(img, 2.0)
        np.testing.assert_array_equal(gaussian_blur(img, 2.0), expected)
        child = multiprocessing.get_context("fork").Process(
            target=blur_in_child, args=(img, 2.0, expected))
        child.start()
        try:
            child.join(timeout=60)
            assert not child.is_alive(), "the forked child hung"
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert child.exitcode == 0


class TestGrassMask:
    def test_green_pixel_passes(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[..., 1] = 200
        assert grass_mask(img, 20.0).all()  # 0.6*200 = 120 >= 20

    def test_blue_pixel_fails(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[..., 2] = 200
        assert not grass_mask(img, 0.0).any()

    def test_boundary_is_inclusive(self):
        # score == tau exactly must yield 1
        img = np.zeros((1, 1, 3), dtype=np.uint8)
        img[0, 0] = (0, 200, 100)
        tau = 0.6 * 200.0 - 100.0
        assert grass_mask(img, tau)[0, 0] == 1

    def test_matches_the_float_formula(self):
        rng = np.random.default_rng(24)
        img = rng.integers(0, 256, size=(33, 47, 3), dtype=np.uint8)
        g = img[:, :, 1].astype(float)
        b = img[:, :, 2].astype(float)
        for tau in [-255.0, -0.5, 0.0, 20.0, 33.3, 153.0]:
            out = grass_mask(img, tau)
            assert out.dtype == np.uint8
            np.testing.assert_array_equal(
                out, (0.6 * g - b >= tau).astype(np.uint8))

    def test_green_and_blue_planes_alone(self):
        # detect_boundaries thresholds the blur's (H, W, 2) green and blue
        # planes: the mask must be the RGB image's, bit for bit, on strided
        # views too and on scores exactly at tau
        rng = np.random.default_rng(31)
        img = rng.integers(0, 256, size=(40, 60, 3), dtype=np.uint8)
        img[::7, ::5, 1:] = (200, 100)
        at_tau = 0.6 * 200.0 - 100.0
        for view in (img, img[::2, ::3], img[:, ::-1], img.transpose(1, 0, 2)):
            for tau in (-255.0, 0.0, at_tau, 33.3, 153.0):
                full = grass_mask(view, tau)
                np.testing.assert_array_equal(grass_mask(view[..., 1:], tau),
                                              full)
                np.testing.assert_array_equal(
                    grass_mask(np.ascontiguousarray(view[..., 1:]), tau), full)
        assert grass_mask(img[..., 1:], at_tau)[::7, ::5].all()
        assert not grass_mask(img[..., 1:], np.nextafter(at_tau, 255.0))[
            ::7, ::5].any()

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        taus = sorted(rng.uniform(-100, 150, 8))
        prev = grass_mask(img, taus[0])
        for tau in taus[1:]:
            cur = grass_mask(img, tau)
            assert np.all(cur <= prev)  # raising tau never turns 0 into 1
            prev = cur


class TestMorphology:
    def test_isolated_pixel_removed(self):
        mask = np.zeros((15, 15), dtype=np.uint8)
        mask[7, 7] = 1
        assert not morph_open_close(mask, 1).any()

    def test_interior_hole_filled(self):
        mask = np.zeros((30, 30), dtype=np.uint8)
        mask[5:25, 5:25] = 1
        mask[14, 14] = 0
        out = morph_open_close(mask, 1)
        assert out[14, 14] == 1
        np.testing.assert_array_equal(out, np.where(mask | (out == 1), out, 0))

    def test_all_ones_fixed_point(self):
        mask = np.ones((20, 20), dtype=np.uint8)
        np.testing.assert_array_equal(morph_open_close(mask, 2), mask)

    def test_oracle_row_and_column_elements_equal_the_square(self):
        # the oracle's row-then-column passes against the 2-D element with
        # the same zero border, on frames small enough for the latter
        rng = np.random.default_rng(15)
        for _ in range(60):
            radius = int(rng.integers(1, 6))
            shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
            mask = random_mask(rng, shape, dense=rng.uniform(0.3, 0.97))
            pad = 2 * radius
            se = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
            work = np.pad(mask.astype(bool), pad)
            work = ndimage.binary_dilation(ndimage.binary_erosion(work, se), se)
            work = ndimage.binary_erosion(ndimage.binary_dilation(work, se), se)
            np.testing.assert_array_equal(
                morph_open_close_oracle(mask, radius),
                work[pad:-pad, pad:-pad].astype(np.uint8))

    def test_matches_full_square_oracle(self):
        # the package's sliced sweeps against the oracle's ndimage passes
        rng = np.random.default_rng(12)
        for _ in range(120):
            radius = int(rng.integers(1, 7))
            shape = tuple(int(v) for v in rng.integers(8, 48, size=2))
            mask = random_mask(rng, shape)
            out = morph_open_close(mask, radius)
            assert out.dtype == np.uint8
            np.testing.assert_array_equal(
                out, morph_open_close_oracle(mask, radius))

    def test_camera_sized_mask_matches_oracle(self):
        rng = np.random.default_rng(13)
        mask = random_mask(rng, (240, 320), dense=0.5)
        for radius in (1, 2, 3):
            np.testing.assert_array_equal(
                morph_open_close(mask, radius),
                morph_open_close_oracle(mask, radius))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (3, 1),
                                       (1, 3), (5, 5), (9, 14), (31, 26)])
    def test_thin_tiny_and_uniform_masks_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        for radius in range(1, 7):
            for mask in (np.zeros(shape, np.uint8), np.ones(shape, np.uint8),
                         random_mask(rng, shape)):
                out = morph_open_close(mask, radius)
                assert out.dtype == np.uint8 and out.shape == mask.shape
                np.testing.assert_array_equal(
                    out, morph_open_close_oracle(mask, radius))

    def test_radius_past_the_frame_gives_zeros(self):
        # a window wider than a side always reaches the zero padding, so
        # the opening empties the frame; no padded frame is built
        mask = np.ones((240, 320), dtype=np.uint8)
        out = morph_open_close(mask, 10**6)
        assert out.dtype == np.uint8 and out.shape == mask.shape
        assert not out.any()

    @pytest.mark.parametrize("shape", [(40, 52), (21, 14), (15, 22), (14, 15),
                                       (240, 320)])
    def test_radius_near_half_the_frame_matches_oracle(self, shape):
        rng = np.random.default_rng(14)
        half = min(shape) // 2
        for radius in (half - 1, half, half + 1):
            for mask in (np.ones(shape, np.uint8),
                         random_mask(rng, shape, dense=0.97)):
                np.testing.assert_array_equal(
                    morph_open_close(mask, radius),
                    morph_open_close_oracle(mask, radius))

    def test_idempotent_on_random_masks(self):
        rng = np.random.default_rng(5)
        for radius in (1, 2, 3):
            for _ in range(100):
                mask = (rng.random((24, 24)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
                once = morph_open_close(mask, radius)
                twice = morph_open_close(once, radius)
                np.testing.assert_array_equal(once, twice)


class TestHomography:
    UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_identity(self):
        h = homography_from_points(self.UNIT_SQUARE, self.UNIT_SQUARE)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-9)

    def test_pure_translation(self):
        dst = [(x + 5.0, y) for x, y in self.UNIT_SQUARE]
        h = homography_from_points(self.UNIT_SQUARE, dst)
        expected = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(h, expected, atol=1e-9)

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            src = np.array(self.UNIT_SQUARE) * 100.0
            dst = src + rng.uniform(-20.0, 20.0, size=(4, 2))
            try:
                h = homography_from_points(src, dst)
            except ValueError:
                continue  # rare degenerate draw
            pts = rng.uniform(0.0, 100.0, size=(50, 2))
            back = apply_homography(np.linalg.inv(h), apply_homography(h, pts))
            np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_degenerate_rejected(self):
        src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)]  # collinear
        with pytest.raises(ValueError):
            homography_from_points(src, self.UNIT_SQUARE)


class TestWarp:
    def test_identity_homography(self):
        rng = np.random.default_rng(2)
        mask = (rng.random((40, 50)) < 0.5).astype(np.uint8)
        bev = BevConfig(width=50, height=40, meters_per_px=0.1)
        np.testing.assert_array_equal(warp_to_bev(mask, np.eye(3), bev), mask)

    def test_round_trip_through_front_view(self):
        # known top-down mask -> synthetic front view via H^-1 -> warp back
        rng = np.random.default_rng(7)
        bev = BevConfig(width=60, height=80, meters_per_px=0.1)
        mask = np.zeros((80, 60), dtype=np.uint8)
        mask[:30, :] = 1
        mask[40:50, 10:50] = 1
        h = homography_from_points(
            [(0.0, 119.0), (99.0, 119.0), (75.0, 0.0), (25.0, 0.0)],
            [(0.0, 79.0), (59.0, 79.0), (59.0, 0.0), (0.0, 0.0)])
        hinv = np.linalg.inv(h)
        front = np.zeros((120, 100), dtype=np.uint8)
        cols, rows = np.meshgrid(np.arange(100), np.arange(120))
        src = apply_homography(h, np.stack([cols, rows], axis=-1).astype(float))
        sc = np.rint(src[..., 0]).astype(int)
        sr = np.rint(src[..., 1]).astype(int)
        ok = (sc >= 0) & (sc < 60) & (sr >= 0) & (sr < 80)
        front[ok] = mask[sr[ok], sc[ok]]
        recovered = warp_to_bev(front, h, bev)
        agreement = float(np.mean(recovered == mask))
        assert agreement >= 0.98

    def test_zero_mask_stays_zero(self):
        bev = BevConfig(width=30, height=30)
        out = warp_to_bev(np.zeros((30, 30), dtype=np.uint8), np.eye(3), bev)
        assert not out.any()

    def test_matches_oracle_alternating_inputs(self):
        # each variant changes one input of the pixel map (homography, mask
        # shape, BEV size); interleaving them with the base shows the map is
        # keyed on every one
        rng = np.random.default_rng(14)
        bev = BevConfig()
        small = BevConfig(width=120, height=90, meters_per_px=0.15)
        camera = default_camera_homography(bev)
        cases = [(camera, (240, 320), bev),
                 (np.eye(3), (240, 320), bev),
                 (camera, (200, 300), bev),
                 (camera, (240, 320), small),
                 (np.eye(3), (60, 80), small)]
        for h, shape, cfg in alternating(cases):
            mask = random_mask(rng, shape)
            out = warp_to_bev(mask, h, cfg)
            assert out.dtype == np.uint8
            np.testing.assert_array_equal(out, warp_to_bev_oracle(mask, h, cfg))

    def test_result_is_a_fresh_array(self):
        bev = BevConfig(width=30, height=30)
        mask = np.ones((30, 30), dtype=np.uint8)
        first = warp_to_bev(mask, np.eye(3), bev)
        first[...] = 7
        np.testing.assert_array_equal(warp_to_bev(mask, np.eye(3), bev), mask)


class TestDepthScan:
    def test_empty_mask_gives_max_range(self):
        bev = BevConfig(width=100, height=120, meters_per_px=0.1, max_range=8.0)
        scan = mask_to_depth(np.zeros((120, 100), dtype=np.uint8), bev)
        np.testing.assert_array_equal(scan.distances, 8.0)

    def test_band_ahead_distance(self):
        bev = BevConfig(width=200, height=200, meters_per_px=0.05,
                        max_range=9.0)
        mask = np.zeros((200, 200), dtype=np.uint8)
        # 5 m ahead of the bottom-center vehicle: row = 199 - 5/0.05 = 99
        mask[:100, :] = 1
        scan = mask_to_depth(mask, bev)
        center = scan.distances[180]
        assert center == pytest.approx(5.0, abs=bev.meters_per_px)

    def test_geometry_of_angles(self):
        a = scan_angles()
        assert len(a) == SCAN_SIZE == 361
        assert a[0] == -math.pi / 2
        assert a[180] == 0.0
        assert a[360] == math.pi / 2
        steps = np.diff(a)
        np.testing.assert_allclose(steps, math.pi / 360.0, atol=1e-15)
        # exactly linear in index
        recon = (np.arange(361) - 180) / 360.0 * math.pi
        np.testing.assert_array_equal(a, recon)

    def test_distances_positive_and_capped(self):
        rng = np.random.default_rng(11)
        bev = BevConfig(width=80, height=90, meters_per_px=0.1, max_range=6.0)
        mask = (rng.random((90, 80)) < 0.02).astype(np.uint8)
        scan = mask_to_depth(mask, bev)
        assert np.all(scan.distances > 0.0)
        assert np.all(scan.distances <= 6.0)

    def test_vehicle_pixel_must_be_inside(self):
        # outside a mask smaller than the configured frame: rejected per call
        bev = BevConfig(width=10, height=10)
        with pytest.raises(ValueError):
            mask_to_depth(np.zeros((5, 5), dtype=np.uint8), bev)

    def test_matches_oracle_alternating_configs(self):
        # variants change the mask shape, the vehicle pixel, the range and
        # the scale; interleaved with the base so a map keyed on too little
        # would be reused where it does not apply. The vehicle pixel is the
        # config frame's bottom centre, so a mask of another shape puts it
        # off centre, here at (40, 150), or in a corner, at (119, 0).
        rng = np.random.default_rng(15)
        base = BevConfig()
        cases = [((200, 160), base),
                 ((220, 170), base),
                 ((200, 160), BevConfig(width=80, height=151)),
                 ((200, 160), BevConfig(max_range=9.0)),
                 ((200, 160), BevConfig(meters_per_px=0.07)),
                 ((90, 120), BevConfig(width=238, height=1))]
        for shape, bev in alternating(cases):
            mask = random_mask(rng, shape, dense=rng.uniform(0.0, 0.05))
            scan = mask_to_depth(mask, bev)
            expected = mask_to_depth_oracle(mask, bev)
            np.testing.assert_array_equal(scan.distances, expected.distances)
            np.testing.assert_array_equal(scan.angles, expected.angles)
            assert scan.max_range == expected.max_range

    def test_range_beyond_the_frame_matches_oracle(self):
        # at 100 m the range reaches 1,000 px, far past the default frame;
        # sparse masks and lone corner pixels put hits at the frame's edge
        rng = np.random.default_rng(21)
        bev = BevConfig(max_range=100.0)
        masks = [np.zeros((200, 160), dtype=np.uint8)]
        for row, col in ((0, 0), (0, 159), (199, 0), (199, 159)):
            corner = np.zeros((200, 160), dtype=np.uint8)
            corner[row, col] = 1
            masks.append(corner)
        masks += [random_mask(rng, (200, 160), dense=rng.uniform(0.0, 0.002))
                  for _ in range(12)]
        for mask in masks:
            scan = mask_to_depth(mask, bev)
            expected = mask_to_depth_oracle(mask, bev)
            np.testing.assert_array_equal(scan.distances, expected.distances)
        # the farthest pixel edge from the vehicle pixel (80, 199) bounds the
        # march, not the 2,000 steps of the range
        reach_steps = math.hypot(80.5, 199.5) / 0.5
        assert _ray_index((200, 160), bev).shape[1] <= reach_steps + 1

    def test_scan_size_enforced(self):
        with pytest.raises(ValueError):
            DepthScan(distances=np.ones(10), angles=np.zeros(10), max_range=5.0)


class TestPipeline:
    def test_synthetic_scene_stages(self):
        # grass band across the top of a front view; identity camera
        bev = BevConfig(width=64, height=64, meters_per_px=0.1, max_range=5.0)
        img = np.empty((64, 64, 3), dtype=np.uint8)
        img[...] = TRACK_RGB
        img[:20, :] = GRASS_RGB
        scan, mask, bev_mask = detect_boundaries(img, np.eye(3),
                                                 PerceptionConfig(), bev)
        assert mask[:15, :].all()
        assert not mask[30:, :].any()
        assert bev_mask[:15, :].all()
        assert scan.distances[180] < 5.0

    @pytest.mark.parametrize("cfg", [PerceptionConfig(),
                                     PerceptionConfig(tau=-10.0, blur_sigma=0.7,
                                                      morph_radius=1),
                                     PerceptionConfig(tau=45.0, blur_sigma=3.1,
                                                      morph_radius=3)])
    def test_matches_oracle_pipeline(self, cfg):
        # red is never blurred any more; every stage output is unchanged
        rng = np.random.default_rng(16)
        bev = BevConfig()
        h = default_camera_homography(bev)
        for _ in range(3):
            img = rng.integers(0, 256, size=(240, 320, 3), dtype=np.uint8)
            img[rng.random((240, 320)) < 0.5] = GRASS_RGB
            scan, mask, bev_mask = detect_boundaries(img, h, cfg, bev)
            e_scan, e_mask, e_bev = detect_boundaries_oracle(img, h, cfg, bev)
            np.testing.assert_array_equal(mask, e_mask)
            np.testing.assert_array_equal(bev_mask, e_bev)
            np.testing.assert_array_equal(scan.distances, e_scan.distances)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs, key", [
        ({"blur_sigma": 0.0}, "perception.blur_sigma"),
        ({"blur_sigma": -1.0}, "perception.blur_sigma"),
        ({"blur_sigma": math.nan}, "perception.blur_sigma"),
        ({"morph_radius": 0}, "perception.morph_radius"),
        ({"tau": math.inf}, "perception.tau"),
        ({"tau": math.nan}, "perception.tau"),
    ])
    def test_perception_rejects(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            PerceptionConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, key", [
        ({"width": 1}, "bev.width"),
        ({"height": 0}, "bev.height"),
        ({"meters_per_px": 0.0}, "bev.meters_per_px"),
        ({"meters_per_px": math.inf}, "bev.meters_per_px"),
        ({"max_range": -2.0}, "bev.max_range"),
        ({"max_range": math.nan}, "bev.max_range"),
    ])
    def test_bev_rejects(self, kwargs, key):
        with pytest.raises(ValueError, match=key):
            BevConfig(**kwargs)

    def test_smallest_frames_accepted(self):
        bev = BevConfig(width=2, height=1)
        assert bev.origin_px() == (1.0, 0.0)


class TestImageFiles:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_netpbm(path, img)
        np.testing.assert_array_equal(
            read_netpbm(path, b"P6", ImageFormatError), img)

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        write_netpbm(path, gray)
        np.testing.assert_array_equal(
            read_netpbm(path, b"P5", ImageFormatError), gray)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1 # size\n255\n\x07\xff")
        np.testing.assert_array_equal(
            read_netpbm(path, b"P5", ImageFormatError), [[7, 255]])

    def test_malformed_ppm(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n10 10\n255\nshort")
        with pytest.raises(ImageFormatError):
            read_netpbm(path, b"P6", ImageFormatError)
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError):
            read_netpbm(path, b"P6", ImageFormatError)

    @pytest.mark.parametrize("magic", [b"P5", b"P6"])
    @pytest.mark.parametrize("size", [b"0 0", b"0 5", b"5 0"])
    def test_empty_image_rejected(self, tmp_path, magic, size):
        path = tmp_path / "empty.pnm"
        path.write_bytes(magic + b"\n" + size + b"\n255\n")
        with pytest.raises(ImageFormatError, match="empty.pnm"):
            read_netpbm(path, magic, ImageFormatError)

    def test_scan_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        scan = DepthScan(distances=rng.uniform(0.5, 9.0, SCAN_SIZE),
                         angles=scan_angles(), max_range=10.0)
        path = tmp_path / "scan.csv"
        write_scan_csv(path, scan)
        back = read_scan_csv(path, max_range=10.0)
        np.testing.assert_array_equal(back.distances, scan.distances)
        np.testing.assert_array_equal(back.angles, scan.angles)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_scan_csv_non_finite_cell_has_line_number(self, tmp_path, cell):
        scan = DepthScan(distances=np.full(SCAN_SIZE, 5.0),
                         angles=scan_angles(), max_range=10.0)
        path = tmp_path / "scan.csv"
        write_scan_csv(path, scan)
        lines = path.read_text().splitlines()
        lines[9] = lines[9].split(",")[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ImageFormatError, match="line 10"):
            read_scan_csv(path)

    def test_scan_csv_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_rad,distance_m\n0.0,1.0\n0.1,far\n")
        with pytest.raises(ImageFormatError, match="line 3"):
            read_scan_csv(path)
