"""Grass-boundary perception.

Pipeline: Gaussian blur, green-over-blue channel thresholding into a grass
mask, open/close morphology, bird's-eye-view homography warp, and conversion
to a 361-ray polar depth scan over [-pi/2, pi/2] (0.5 degree resolution, zero
angle at the vehicle heading, counter-clockwise positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .fileio import read_table, write_table

SCAN_SIZE = 361

# Grass rendered by the scene generator and the track surface; separable by
# the channel threshold for any tau < 120.
GRASS_RGB = (0, 200, 0)
TRACK_RGB = (120, 120, 120)
SKY_RGB = (90, 140, 235)


class ImageFormatError(ValueError):
    """An image (PPM/PGM) or depth-scan file could not be parsed."""


@dataclass(frozen=True)
class PerceptionConfig:
    """Tunables for the mask pipeline; tau depends on lighting and is a knob."""

    tau: float = 20.0
    blur_sigma: float = 2.0
    morph_radius: int = 2


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
    artifacts, and the combined filter stays idempotent).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    pad = 2 * radius
    se = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    work = np.pad(mask.astype(bool), pad, mode="constant")
    work = ndimage.binary_dilation(ndimage.binary_erosion(work, se), se)
    work = ndimage.binary_erosion(ndimage.binary_dilation(work, se), se)
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


def warp_to_bev(mask: np.ndarray, h: np.ndarray, bev: BevConfig) -> np.ndarray:
    """Inverse-mapping warp of a front-view mask into the BEV frame.

    `h` maps front-view pixels to BEV pixels. Nearest-neighbor sampling (the
    payload is binary); pixels that fall outside the source become 0.
    """
    hinv = np.linalg.inv(h)
    cols, rows = np.meshgrid(np.arange(bev.width), np.arange(bev.height))
    dst = np.stack([cols, rows], axis=-1).astype(float)
    src = apply_homography(hinv, dst)
    sc = np.rint(src[..., 0]).astype(int)
    sr = np.rint(src[..., 1]).astype(int)
    valid = (sc >= 0) & (sc < mask.shape[1]) & (sr >= 0) & (sr < mask.shape[0])
    out = np.zeros((bev.height, bev.width), dtype=np.uint8)
    out[valid] = mask[sr[valid], sc[valid]]
    return out


def mask_to_depth(bev_mask: np.ndarray, bev: BevConfig) -> DepthScan:
    """Ray-march the BEV grass mask into a polar depth scan.

    Rays start at the vehicle pixel and advance in 0.5 px steps until the
    first grass pixel; rays that exit the frame or exceed the range report
    max_range. Heading is up in the BEV image and positive angles sweep
    counter-clockwise (to the image left).
    """
    vx, vy = bev.origin_px()
    if not (0 <= vx <= bev_mask.shape[1] - 1 and 0 <= vy <= bev_mask.shape[0] - 1):
        raise ValueError("vehicle pixel outside the BEV frame")
    angles = scan_angles()
    step_px = 0.5
    max_px = bev.max_range / bev.meters_per_px
    n_steps = int(math.ceil(max_px / step_px))
    t = (np.arange(1, n_steps + 1) * step_px)[None, :]
    # Heading up: angle a advances (-sin a, -cos a) in (col, row).
    dc = -np.sin(angles)[:, None]
    dr = -np.cos(angles)[:, None]
    cols = np.rint(vx + dc * t).astype(int)
    rows = np.rint(vy + dr * t).astype(int)
    inside = (cols >= 0) & (cols < bev_mask.shape[1]) & \
             (rows >= 0) & (rows < bev_mask.shape[0])
    hits = np.zeros_like(inside)
    hits[inside] = bev_mask[rows[inside], cols[inside]] > 0
    first = np.argmax(hits, axis=1)
    any_hit = hits.any(axis=1)
    dist_px = np.where(any_hit, (first + 1) * step_px, max_px)
    distances = np.minimum(dist_px * bev.meters_per_px, bev.max_range)
    return DepthScan(distances=distances, angles=angles, max_range=bev.max_range)


def detect_boundaries(img: np.ndarray, h: np.ndarray, cfg: PerceptionConfig,
                      bev: BevConfig) -> tuple[DepthScan, np.ndarray, np.ndarray]:
    """Full pipeline: blur, threshold, morphology, BEV warp, depth scan.

    Returns (scan, grass mask, BEV mask); the masks are the Fig-style debug
    stages.
    """
    blurred = gaussian_blur(img, cfg.blur_sigma)
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
