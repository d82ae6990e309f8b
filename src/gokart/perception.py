"""Grass-boundary perception.

Pipeline: Gaussian blur, green-over-blue channel thresholding into a grass
mask, open/close morphology, bird's-eye-view homography warp, and conversion
to a 361-ray polar depth scan over [-pi/2, pi/2] (0.5 degree resolution, zero
angle at the vehicle heading, counter-clockwise positive).
"""

from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fileio import require, write_table

SCAN_SIZE = 361
# Ray-march step of mask_to_depth, in BEV pixels.
RAY_STEP_PX = 0.5

# Grass rendered by the scene generator and the track surface; separable by
# the channel threshold for any tau < 120.
GRASS_RGB = (0, 200, 0)
TRACK_RGB = (120, 120, 120)
SKY_RGB = (90, 140, 235)


def _min_blur_sigma() -> float:
    """The smallest sigma whose Gaussian exponent -0.5 / sigma^2, as
    scipy's kernel computes it, is finite; every larger sigma's is too."""
    sigma = math.sqrt(0.5 / sys.float_info.max)
    while not math.isfinite(-0.5 / (sigma * sigma)):
        sigma = math.nextafter(sigma, 1.0)
    return sigma


# below it the blur kernel is NaN, or its sigma^2 is 0
MIN_BLUR_SIGMA = _min_blur_sigma()


class ImageFormatError(ValueError):
    """An image (PPM/PGM) or depth-scan file could not be parsed."""


@dataclass(frozen=True)
class PerceptionConfig:
    """Tunables for the mask pipeline; tau depends on lighting and is a knob."""

    tau: float = 20.0
    blur_sigma: float = 2.0
    morph_radius: int = 2

    def __post_init__(self):
        require(math.isfinite(self.tau), "perception.tau", "be finite",
                self.tau)
        require(self.blur_sigma >= MIN_BLUR_SIGMA, "perception.blur_sigma",
                f"be >= {MIN_BLUR_SIGMA!r}, where the kernel's exponent "
                "-0.5 / sigma^2 is finite", self.blur_sigma)
        require(self.morph_radius >= 1, "perception.morph_radius", "be >= 1",
                self.morph_radius)

    def require_fits(self, width: int, height: int, frame: str) -> None:
        """Reject, naming its key, a parameter the frame cannot hold:
        a morphology window 2 radius + 1 wider or taller than the frame,
        whose opening would empty every mask (see morph_open_close), and a
        blur kernel radius ceil(3 sigma) longer than the frame's longer side,
        whose kernel would not fit in memory for a huge sigma."""
        require(2 * self.morph_radius + 1 <= min(width, height),
                "perception.morph_radius",
                f"keep its window 2 r + 1 within {frame}", self.morph_radius)
        # ceil(3 sigma) <= n exactly when 3 sigma <= n, for an integer n
        require(3.0 * self.blur_sigma <= max(width, height),
                "perception.blur_sigma",
                f"keep its kernel radius ceil(3 sigma) within the longer side "
                f"of {frame}", self.blur_sigma)


@dataclass(frozen=True)
class BevConfig:
    """Geometry of the bird's-eye-view frame; the vehicle sits at its
    bottom-centre pixel (origin_px), where the rays start."""

    width: int = 160
    height: int = 200
    meters_per_px: float = 0.1
    max_range: float = 20.0

    def __post_init__(self):
        require(self.width >= 2, "bev.width", "be >= 2", self.width)
        require(self.height >= 1, "bev.height", "be >= 1", self.height)
        for key in ("meters_per_px", "max_range"):
            value = getattr(self, key)
            require(math.isfinite(value) and value > 0.0, f"bev.{key}",
                    "be finite and > 0", value)

    def origin_px(self) -> tuple[float, float]:
        """The (col, row) pixel of the vehicle."""
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


@functools.cache
def _plane_pool() -> ThreadPoolExecutor:
    """The one worker thread that gaussian_blur hands its planes after the
    first to, started on the first blur of a multi-plane image."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="gokart-blur")


# A forked child inherits the pool but not its thread: it builds its own.
os.register_at_fork(after_in_child=_plane_pool.cache_clear)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel radius ceil(3 sigma), edges clamped.

    Each channel plane is filtered down the columns straight from uint8
    (ndimage widens every line to float64 in its own buffer, so the sums are
    those of filtering `img.astype(float)`), then along the rows, then
    rounded and clipped back to uint8. Takes (H, W) or (H, W, C) images,
    strided views included.

    Plane 0 is filtered on the calling thread while one worker thread
    (shared by every caller) filters the others; both only run numpy and
    ndimage, which release the interpreter lock, each in its own float
    buffers. Every plane's arithmetic is the same on either thread.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    radius = math.ceil(3.0 * sigma)
    planes = img[..., None] if img.ndim == 2 else img
    out = np.empty(planes.shape, dtype=np.uint8)
    # a (cols, rows) pair of float buffers for each thread; the worker's
    # pages are never touched for a 1-plane image. The column pass writes
    # column-major, so each filtered column line lands contiguous; the
    # row pass writes row-major
    height, width = planes.shape[:2]
    cols = np.empty((2, width, height)).transpose(0, 2, 1)
    rows = np.empty((2, height, width))
    mine, theirs = zip(cols, rows)

    def blur(channels, cols, rows):
        for c in channels:
            ndimage.gaussian_filter1d(planes[..., c], sigma, axis=0,
                                      output=cols, mode="nearest",
                                      radius=radius)
            ndimage.gaussian_filter1d(cols, sigma, axis=1, output=rows,
                                      mode="nearest", radius=radius)
            np.clip(np.rint(rows, out=rows), 0, 255, out=rows)
            out[..., c] = rows

    channels = range(planes.shape[2])
    rest = (_plane_pool().submit(blur, channels[1:], *theirs)
            if len(channels) > 1 else None)
    try:
        blur(channels[:1], *mine)
    finally:
        if rest is not None:
            rest.result()
    return out.reshape(img.shape)


def grass_mask(img: np.ndarray, tau: float) -> np.ndarray:
    """Per-pixel grass test: 1 where 0.6 g - b >= tau, green and blue being
    the last two channels (of an RGB image, or of its green and blue
    planes alone)."""
    score = img[..., -2] * 0.6
    score -= img[..., -1]
    return (score >= tau).view(np.uint8)


def _runs(work: np.ndarray, size: int, axis: int, op) -> np.ndarray:
    """`op` (logical and/or) over every `size` consecutive lines along
    `axis`: out[i] = op(work[i], ..., work[i + size - 1]), n - size + 1 lines.

    Runs of 1, 2, 4, ... lines are built by doubling, and the last run is two
    overlapping power-of-two runs, so this takes O(log size) array passes.
    """
    work = work.swapaxes(0, axis)
    width = 1
    while 2 * width <= size:
        work = op(work[:-width], work[width:])
        width *= 2
    if width < size:
        work = op(work[:width - size], work[size - width:])
    return work.swapaxes(0, axis)


def morph_open_close(mask: np.ndarray, radius: int) -> np.ndarray:
    """Opening then closing with a square structuring element of side
    2 radius + 1.

    The result is the infinite-plane morphology of the mask (zero beyond the
    frame) restricted to the frame, so there are no border artifacts and the
    combined filter stays idempotent. The square element is separable, and
    each pass keeps only the lines whose window lies inside its array:
    the erosion leaves the frame's interior core; the opening's and the
    closing's dilations compose into one dilation of side 4 radius + 1, run
    on the core placed in zeros; the last erosion brings that back to the
    frame. When 2 radius + 1 exceeds a side of the frame, the erosion
    empties the frame and the result is all zeros.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    size = 2 * radius + 1
    if size > min(mask.shape):
        return np.zeros(mask.shape, dtype=np.uint8)
    # erosion: the (H - 2r, W - 2r) core
    work = mask.astype(bool)
    for axis in (0, 1):
        work = _runs(work, size, axis, np.logical_and)
    # dilation by 4r + 1, out to r beyond the frame: each axis reads the
    # core with 4r zeros on either side
    margin = 4 * radius
    for axis in (0, 1):
        shape = list(work.shape)
        shape[axis] += 2 * margin
        padded = np.empty(shape, dtype=bool)
        lines = padded.swapaxes(0, axis)
        lines[:margin] = lines[-margin:] = False
        lines[margin:-margin] = work.swapaxes(0, axis)
        work = _runs(padded, 2 * size - 1, axis, np.logical_or)
    # erosion back to the (H, W) frame
    for axis in (0, 1):
        work = _runs(work, size, axis, np.logical_and)
    return work.view(np.uint8)


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
    # a step past the frame's farthest pixel edge from the vehicle cannot
    # round into the frame, so the march ends there when the range is longer
    reach_px = math.hypot(max(vx + 0.5, width - 0.5 - vx),
                          max(vy + 0.5, height - 0.5 - vy))
    n_steps = min(int(math.ceil(max_px / RAY_STEP_PX)),
                  int(reach_px / RAY_STEP_PX) + 1)
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
    # grass_mask reads only green and blue, the last two channels of both
    # the image and its blurred green and blue planes
    mask = grass_mask(gaussian_blur(img[..., 1:], cfg.blur_sigma), cfg.tau)
    mask = morph_open_close(mask, cfg.morph_radius)
    bev_mask = warp_to_bev(mask, h, bev)
    return mask_to_depth(bev_mask, bev), mask, bev_mask


# --- file interfaces ---------------------------------------------------------

SCAN_COLUMNS = ["angle_rad", "distance_m"]


def write_scan_csv(path, scan: DepthScan) -> None:
    write_table(path, SCAN_COLUMNS, zip(scan.angles, scan.distances))
