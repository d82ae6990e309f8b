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


def body_to_world(x: float, y: float, psi: float, points: np.ndarray) -> np.ndarray:
    """Express body-frame points (..., 2) at the pose (x, y, psi) in the
    world frame: body x points along the heading, body y to the left."""
    pts = np.asarray(points, dtype=float)
    c, s = math.cos(psi), math.sin(psi)
    wx = x + c * pts[..., 0] - s * pts[..., 1]
    wy = y + s * pts[..., 0] + c * pts[..., 1]
    return np.stack([wx, wy], axis=-1)


class Polyline:
    """A polyline ((N, 2) vertices, optionally closed) set up once for
    repeated nearest-point queries: the vertices, the segment vectors and
    their squared lengths."""

    def __init__(self, xy, closed: bool = False):
        xy = np.asarray(xy, dtype=float)
        m = len(xy) if closed else len(xy) - 1
        ab = (np.roll(xy, -1, axis=0) if closed else xy[1:]) - xy[:m]
        sq = np.einsum("ij,ij->i", ab, ab)
        self.closed = closed
        self.x = np.ascontiguousarray(xy[:, 0])
        self.y = np.ascontiguousarray(xy[:, 1])
        self.ux = np.ascontiguousarray(ab[:, 0])
        self.uy = np.ascontiguousarray(ab[:, 1])
        self.denom = np.where(sq > 0.0, sq, 1.0)

    def nearest_vertex(self, x: float, y: float) -> int:
        """Index of the vertex nearest to (x, y), the lowest one on a tie."""
        return int(np.argmin(np.hypot(x - self.x, y - self.y)))


# point-by-vertex elements per vectorized pass of polyline_distance,
# bounding its temporaries
_ELEMENTS_PER_PASS = 2 ** 15


def polyline_distance(ref: Polyline, pts) -> tuple[np.ndarray, np.ndarray]:
    """For each point of an (N, 2) array, the shortest distance to the
    polyline and the index of the vertex nearest to it (the lowest one on a
    tie), searched over every segment and vertex."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y, ux, uy, denom = ref.x, ref.y, ref.ux, ref.uy, ref.denom
    m = len(ux)
    dist = np.empty(len(pts))
    near = np.empty(len(pts), dtype=np.intp)
    rows = max(1, _ELEMENTS_PER_PASS // len(x))
    for a in range(0, len(pts), rows):
        px, py = pts[a:a + rows, :1], pts[a:a + rows, 1:]
        ox, oy = px - x, py - y
        t = np.clip((ox[:, :m] * ux + oy[:, :m] * uy) / denom, 0.0, 1.0)
        d = np.hypot(px - (x[:m] + t * ux), py - (y[:m] + t * uy))
        dist[a:a + rows] = d.min(axis=1)
        near[a:a + rows] = np.argmin(np.hypot(ox, oy), axis=1)
    return dist, near
