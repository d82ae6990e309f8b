"""Small planar-geometry helpers shared across the stack."""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial import cKDTree

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
    repeated nearest-point queries: the vertices, the segment vectors, their
    squared lengths, half the longest one and the largest coordinate."""

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
        self.reach = 0.5 * math.sqrt(float(sq.max(initial=0.0)))
        self.extent = float(np.abs(xy).max(initial=0.0))

    @functools.cached_property
    def tree(self) -> cKDTree:
        """A k-d tree over the vertices, built on first use."""
        return cKDTree(np.column_stack([self.x, self.y]))

    def nearest_vertex(self, x: float, y: float) -> int:
        """Index of the vertex nearest to (x, y), the lowest one on a tie."""
        return int(np.argmin(np.hypot(x - self.x, y - self.y)))


# point-by-candidate elements per vectorized pass of polyline_distance,
# bounding its temporaries
_ELEMENTS_PER_PASS = 2 ** 15
# nearest vertices first fetched per point by polyline_distance
_FIRST_CANDIDATES = 4


def polyline_distance(ref: Polyline, pts) -> tuple[np.ndarray, np.ndarray]:
    """For each point of an (N, 2) array, the shortest distance to the
    polyline and the index of the vertex nearest to it (the lowest one on a
    tie).

    Bitwise the values of a search over every segment and vertex. The
    vertex tree gives each point p its nearest vertex at distance dv. The
    nearest segment is no farther than that vertex, and every point of a
    segment lies within half its length of an endpoint, so the nearest
    segment has an endpoint within dv + ref.reach of p; the eps covers the
    rounding of both searches. The k nearest vertices hold every vertex
    that close once the k-th lies beyond it; points where it does not are
    fetched again with 4k, up to all of them. A non-finite point raises
    ValueError (from the tree)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    n = len(ref.x)
    dist = np.empty(len(pts))
    near = np.empty(len(pts), dtype=np.intp)
    eps = 1e-9 * (1.0 + ref.extent + float(np.abs(pts).max(initial=0.0)))
    rows, k = np.arange(len(pts)), min(n, _FIRST_CANDIDATES)
    while len(rows):
        short = []
        step = max(1, _ELEMENTS_PER_PASS // (3 * k))
        for a in range(0, len(rows), step):
            r = rows[a:a + step]
            if k < n:
                dv, cand = ref.tree.query(pts[r], k)
                held = dv[:, -1] > dv[:, 0] + (ref.reach + eps)
                short.append(r[~held])
                r, cand = r[held], cand[held]
            else:
                cand = np.broadcast_to(np.arange(n), (len(r), n))
            dist[r], near[r] = _nearest(ref, pts[r], cand)
        rows = np.concatenate(short) if short else rows[:0]
        k = min(n, 4 * k)
    return dist, near


def _nearest(ref: Polyline, pts: np.ndarray,
             cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """polyline_distance of each point of an (N, 2) array over the vertices
    of its row of cand (N, k) and the segments that touch them."""
    x, y, ux, uy, denom = ref.x, ref.y, ref.ux, ref.uy, ref.denom
    n, m = len(x), len(ux)
    px, py = pts[:, :1], pts[:, 1:]
    vd = np.hypot(px - x[cand], py - y[cand])
    near = np.where(vd == vd.min(axis=1, keepdims=True), cand, n).min(axis=1)
    # the segments starting and ending at each candidate; an open end's
    # missing one is replaced by its other, a repeat
    if ref.closed:
        seg = np.concatenate([cand, (cand - 1) % n], axis=1)
    else:
        seg = np.concatenate([np.minimum(cand, m - 1),
                              np.maximum(cand - 1, 0)], axis=1)
    xs, ys, uxs, uys = x[seg], y[seg], ux[seg], uy[seg]
    t = np.clip(((px - xs) * uxs + (py - ys) * uys) / denom[seg], 0.0, 1.0)
    d = np.hypot(px - (xs + t * uxs), py - (ys + t * uys))
    return d.min(axis=1), near
