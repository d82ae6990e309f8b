"""Small planar-geometry helpers shared across the stack."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]; in-range values pass through bit-exact."""
    if -math.pi < angle <= math.pi:
        return angle
    r = math.fmod(angle + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


def world_to_body(x: float, y: float, psi: float, points: np.ndarray) -> np.ndarray:
    """Express world points in the body frame at (x, y, psi).

    Body x points along the heading, body y to the left. `points` is (..., 2).
    """
    pts = np.asarray(points, dtype=float)
    dx = pts[..., 0] - x
    dy = pts[..., 1] - y
    c, s = math.cos(psi), math.sin(psi)
    bx = c * dx + s * dy
    by = -s * dx + c * dy
    return np.stack([bx, by], axis=-1)


def body_to_world(x: float, y: float, psi: float, points: np.ndarray) -> np.ndarray:
    """Inverse of world_to_body."""
    pts = np.asarray(points, dtype=float)
    c, s = math.cos(psi), math.sin(psi)
    wx = x + c * pts[..., 0] - s * pts[..., 1]
    wy = y + s * pts[..., 0] + c * pts[..., 1]
    return np.stack([wx, wy], axis=-1)


def polyline_distance(xy: np.ndarray, p, closed: bool = False) -> tuple[float, int]:
    """Shortest distance from point `p` to the polyline `xy` ((N, 2)), and
    the index of the vertex nearest to `p`."""
    xy = np.asarray(xy, dtype=float)
    p = np.asarray(p, dtype=float)
    offsets = p[None, :] - xy
    if closed:
        a, b, ap = xy, np.roll(xy, -1, axis=0), offsets
    else:
        a, b, ap = xy[:-1], xy[1:], offsets[:-1]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom > 0.0, denom, 1.0)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1])
    near = int(np.argmin(np.hypot(offsets[:, 0], offsets[:, 1])))
    return float(d.min()), near
