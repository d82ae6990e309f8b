"""Grass-boundary perception.

Pipeline: Gaussian blur, green-over-blue channel thresholding into a grass
mask, open/close morphology, bird's-eye-view homography warp, and conversion
to a 361-ray polar depth scan over [-pi/2, pi/2] (0.5 degree resolution, zero
angle at the vehicle heading, counter-clockwise positive).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fileio import read_table, write_table

SCAN_SIZE = 361
# Ray-march step of mask_to_depth, in BEV pixels.
RAY_STEP_PX = 0.5

# Grass rendered by the scene generator and the track surface; separable by
# the channel threshold for any tau < 120.
GRASS_RGB = (0, 200, 0)
TRACK_RGB = (120, 120, 120)
SKY_RGB = (90, 140, 235)


class ImageFormatError(ValueError):
    """An image (PPM/PGM) or depth-scan file could not be parsed."""


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Reject a config value, naming it by its scenario key."""
    if not ok:
        raise ValueError(f"{key} must {rule}, got {value!r}")


@dataclass(frozen=True)
class PerceptionConfig:
    """Tunables for the mask pipeline; tau depends on lighting and is a knob."""

    tau: float = 20.0
    blur_sigma: float = 2.0
    morph_radius: int = 2

    def __post_init__(self):
        _require(math.isfinite(self.tau), "perception.tau", "be finite",
                 self.tau)
        _require(self.blur_sigma > 0.0, "perception.blur_sigma", "be > 0",
                 self.blur_sigma)
        _require(self.morph_radius >= 1, "perception.morph_radius", "be >= 1",
                 self.morph_radius)


@dataclass(frozen=True)
class BevConfig:
    """Geometry of the bird's-eye-view frame.

    `vehicle_px` is the (col, row) pixel the rays originate from; it defaults
    to bottom-center.
    """

    width: int = 160
    height: int = 200
    meters_per_px: float = 0.1
    max_range: float = 20.0
    vehicle_px: tuple[float, float] | None = None

    def __post_init__(self):
        _require(self.width >= 2, "bev.width", "be >= 2", self.width)
        _require(self.height >= 1, "bev.height", "be >= 1", self.height)
        for key in ("meters_per_px", "max_range"):
            value = getattr(self, key)
            _require(math.isfinite(value) and value > 0.0, f"bev.{key}",
                     "be finite and > 0", value)
        vx, vy = self.origin_px()
        _require(0 <= vx <= self.width - 1 and 0 <= vy <= self.height - 1,
                 "bev.vehicle_px", "lie inside the frame", self.vehicle_px)

    def origin_px(self) -> tuple[float, float]:
        if self.vehicle_px is not None:
            return self.vehicle_px
        return (self.width / 2.0, self.height - 1.0)


def scan_angles() -> np.ndarray:
    """The 361 ray angles; exactly linear in index with a_180 = 0."""
    return (np.arange(SCAN_SIZE) - 180) / 360.0 * math.pi


@dataclass
class DepthScan:
    """Polar free-distance scan: distances[i] along angles[i], both length 361."""

    distances: np.ndarray
    angles: np.ndarray
    max_range: float

    def __post_init__(self):
        self.distances = np.asarray(self.distances, dtype=float)
        self.angles = np.asarray(self.angles, dtype=float)
        if self.distances.shape != (SCAN_SIZE,) or self.angles.shape != (SCAN_SIZE,):
            raise ValueError(f"scans carry exactly {SCAN_SIZE} rays")
        if np.any(self.distances <= 0.0) or np.any(self.distances > self.max_range):
            raise ValueError("distances must lie in (0, max_range]")


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel radius ceil(3 sigma), edges clamped."""
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    radius = math.ceil(3.0 * sigma)
    out = img.astype(float)
    for axis in (0, 1):
        out = ndimage.gaussian_filter1d(out, sigma, axis=axis, mode="nearest",
                                        radius=radius)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def grass_mask(img: np.ndarray, tau: float) -> np.ndarray:
    """Per-pixel grass test: 1 where 0.6 g - b >= tau."""
    g = img[:, :, 1].astype(float)
    b = img[:, :, 2].astype(float)
    return (0.6 * g - b >= tau).astype(np.uint8)


def morph_open_close(mask: np.ndarray, radius: int) -> np.ndarray:
    """Opening then closing with a square structuring element of side
    2 radius + 1.

    The mask is zero-padded by 2 radius before the operations so the result
    matches the infinite-plane morphology restricted to the frame (no border
    artifacts, and the combined filter stays idempotent). The square element
    is separable: each erosion (dilation) is a row then a column minimum
    (maximum) filter, with zeros beyond the padded frame.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    pad = 2 * radius
    size = 2 * radius + 1

    def sweep(work, line_filter):
        for axis in (0, 1):
            work = line_filter(work, size, axis=axis, mode="constant", cval=0)
        return work

    work = np.pad(mask.astype(bool), pad, mode="constant")
    work = sweep(sweep(work, ndimage.minimum_filter1d), ndimage.maximum_filter1d)
    work = sweep(sweep(work, ndimage.maximum_filter1d), ndimage.minimum_filter1d)
    return work[pad:-pad, pad:-pad].astype(np.uint8)


def homography_from_points(src, dst) -> np.ndarray:
    """Exact 8-DOF projective map taking the four src points to dst.

    Raises ValueError for degenerate (collinear) configurations.
    """
    src = np.asarray(src, dtype=float).reshape(4, 2)
    dst = np.asarray(dst, dtype=float).reshape(4, 2)
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
        a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ValueError("degenerate point configuration for homography") from None
    mat = np.array([[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]])
    if abs(np.linalg.det(mat)) < 1e-12:
        raise ValueError("homography is not invertible")
    mapped = apply_homography(mat, src)
    if np.max(np.abs(mapped - dst)) > 1e-6:
        raise ValueError("homography solve failed to reproduce the points")
    return mat


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a projective map to (..., 2) points."""
    pts = np.asarray(points, dtype=float)
    ones = np.ones(pts.shape[:-1] + (1,))
    hom = np.concatenate([pts, ones], axis=-1) @ h.T
    return hom[..., :2] / hom[..., 2:3]


def _with_zero(values: np.ndarray, dtype) -> np.ndarray:
    """`values` flattened to `dtype`, plus one trailing 0: the slot that the
    flat pixel maps send out-of-frame samples to."""
    out = np.zeros(values.size + 1, dtype=dtype)
    out[:-1] = values.reshape(-1)
    return out


@functools.lru_cache(maxsize=8)
def pixel_map(h_bytes: bytes, out_shape: tuple[int, int],
              src_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor sampling map of a projective warp, built once per
    argument set.

    For each pixel of an `out_shape` (rows, cols) frame, the row-major flat
    index of the `src_shape` pixel nearest to its image under the 3x3
    float64 homography `h_bytes` (out px -> src px), or the source size where
    that image falls outside the source. The result is shared and read-only.
    """
    h = np.frombuffer(h_bytes).reshape(3, 3)
    cols, rows = np.meshgrid(np.arange(out_shape[1]), np.arange(out_shape[0]))
    src = apply_homography(h, np.stack([cols, rows], axis=-1).astype(float))
    sc = np.rint(src[..., 0]).astype(int)
    sr = np.rint(src[..., 1]).astype(int)
    height, width = src_shape
    valid = (sc >= 0) & (sc < width) & (sr >= 0) & (sr < height)
    index = np.where(valid, sr * width + sc, height * width)
    index.flags.writeable = False
    return index


def warp_to_bev(mask: np.ndarray, h: np.ndarray, bev: BevConfig) -> np.ndarray:
    """Inverse-mapping warp of a front-view mask into the BEV frame.

    `h` maps front-view pixels to BEV pixels. Nearest-neighbor sampling (the
    payload is binary); pixels that fall outside the source become 0.
    """
    hinv = np.asarray(np.linalg.inv(h), dtype=float)
    index = pixel_map(hinv.tobytes(), (bev.height, bev.width), mask.shape)
    return _with_zero(mask, np.uint8)[index]


@functools.lru_cache(maxsize=4)
def _ray_index(shape: tuple[int, int], bev: BevConfig):
    """Flat pixel index of every ray step, (361, n_steps), with the frame
    size where a step leaves the frame."""
    vx, vy = bev.origin_px()
    height, width = shape
    if not (0 <= vx <= width - 1 and 0 <= vy <= height - 1):
        raise ValueError("vehicle pixel outside the BEV frame")
    angles = scan_angles()
    max_px = bev.max_range / bev.meters_per_px
    n_steps = int(math.ceil(max_px / RAY_STEP_PX))
    t = (np.arange(1, n_steps + 1) * RAY_STEP_PX)[None, :]
    # Heading up: angle a advances (-sin a, -cos a) in (col, row).
    dc = -np.sin(angles)[:, None]
    dr = -np.cos(angles)[:, None]
    cols = np.rint(vx + dc * t).astype(int)
    rows = np.rint(vy + dr * t).astype(int)
    inside = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    index = np.where(inside, rows * width + cols, height * width)
    index.flags.writeable = False
    return index


def mask_to_depth(bev_mask: np.ndarray, bev: BevConfig) -> DepthScan:
    """Ray-march the BEV grass mask into a polar depth scan.

    Rays start at the vehicle pixel and advance in 0.5 px steps until the
    first grass pixel; rays that exit the frame or exceed the range report
    max_range. Heading is up in the BEV image and positive angles sweep
    counter-clockwise (to the image left).
    """
    hits = _with_zero(bev_mask > 0, bool)[_ray_index(bev_mask.shape, bev)]
    first = np.argmax(hits, axis=1)
    any_hit = hits.any(axis=1)
    max_px = bev.max_range / bev.meters_per_px
    dist_px = np.where(any_hit, (first + 1) * RAY_STEP_PX, max_px)
    distances = np.minimum(dist_px * bev.meters_per_px, bev.max_range)
    return DepthScan(distances=distances, angles=scan_angles(),
                     max_range=bev.max_range)


def detect_boundaries(img: np.ndarray, h: np.ndarray, cfg: PerceptionConfig,
                      bev: BevConfig) -> tuple[DepthScan, np.ndarray, np.ndarray]:
    """Full pipeline: blur, threshold, morphology, BEV warp, depth scan.

    Returns (scan, grass mask, BEV mask); the masks are the Fig-style debug
    stages.
    """
    # grass_mask reads only green and blue, so red is left unblurred
    blurred = img.copy()
    blurred[..., 1:] = gaussian_blur(img[..., 1:], cfg.blur_sigma)
    mask = grass_mask(blurred, cfg.tau)
    mask = morph_open_close(mask, cfg.morph_radius)
    bev_mask = warp_to_bev(mask, h, bev)
    return mask_to_depth(bev_mask, bev), mask, bev_mask


# --- file interfaces ---------------------------------------------------------

SCAN_COLUMNS = ["angle_rad", "distance_m"]


def write_scan_csv(path, scan: DepthScan) -> None:
    write_table(path, SCAN_COLUMNS, zip(scan.angles, scan.distances))


def read_scan_csv(path, max_range: float | None = None) -> DepthScan:
    """Read a depth-scan CSV; max_range defaults to the largest distance."""
    arr, _ = read_table(path, SCAN_COLUMNS, ImageFormatError)
    if len(arr) != SCAN_SIZE:
        raise ImageFormatError(f"{path}: expected {SCAN_SIZE} rays, got {len(arr)}")
    if max_range is None:
        max_range = float(arr[:, 1].max())
    try:
        return DepthScan(distances=arr[:, 1], angles=arr[:, 0],
                         max_range=max_range)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None
