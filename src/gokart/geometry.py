"""Small planar-geometry helpers shared across the stack."""

from __future__ import annotations

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


class Polyline:
    """A polyline ((N, 2) vertices, optionally closed) set up once for
    repeated nearest-point queries.

    Holds the segment starts, the segment vectors and their squared lengths
    every query needs, and per vertex `h` a `clearance`: a lower bound on
    the distance from vertex `h` to every vertex and every segment outside
    the window of `window` vertices on each side of `h` (`h - window` to
    `h + window`; wrapped on a closed polyline, clipped on an open one).
    """

    def __init__(self, xy, closed: bool = False):
        xy = np.asarray(xy, dtype=float)
        n = len(xy)
        m = n if closed else n - 1
        ab = (np.roll(xy, -1, axis=0) if closed else xy[1:]) - xy[:m]
        sq = np.einsum("ij,ij->i", ab, ab)
        self.closed = closed
        self.x = np.ascontiguousarray(xy[:, 0])
        self.y = np.ascontiguousarray(xy[:, 1])
        self.ux = np.ascontiguousarray(ab[:, 0])
        self.uy = np.ascontiguousarray(ab[:, 1])
        self.denom = np.where(sq > 0.0, sq, 1.0)
        self.max_segment = float(np.sqrt(sq.max())) if m else 0.0
        self.window, self.clearance = self._fit_window(xy)
        # the hinted search reads single values as Python floats
        self._views = tuple(memoryview(a) for a in (
            self.x, self.y, self.ux, self.uy, self.denom, self.clearance))

    def _fit_window(self, xy) -> tuple[int, np.ndarray]:
        """The narrowest window in which at least half the vertices have a
        clearance of the longest segment or more: there any point within
        half a segment of its hint is certified. A few pinched vertices
        (a crossing, ends that meet) only fall back to the full search.
        Windows stop at about sqrt(N) vertices a side, where the Python
        loop costs about what the vectorized full search does, and at the
        whole polyline; a closed polyline needs three vertices."""
        n = len(xy)
        widest = min((n - 1) // 2 if self.closed else n - 1,
                     math.isqrt(n) + 1)
        if widest < 1:
            return 0, np.full(n, -np.inf)
        tree = cKDTree(xy)
        for w in range(1, widest + 1):
            clearance = self._clearance(tree, xy, w)
            if np.median(clearance) >= self.max_segment:
                break
        return w, clearance

    def _clearance(self, tree, xy, w: int) -> np.ndarray:
        """Per vertex, the nearest vertex at least `w` steps away, less half
        the longest segment, less a margin for rounding: every segment
        outside the window has both endpoints at least `w` steps away, and
        each of its points lies within half its length of one of them."""
        n = len(xy)
        # fewer than 2w vertices lie closer than w steps to any vertex
        k = min(2 * w, n)
        dist, idx = tree.query(xy, k=k)
        dist, idx = dist.reshape(n, k), idx.reshape(n, k)
        steps = np.abs(idx - np.arange(n)[:, None])
        if self.closed:
            steps = np.minimum(steps, n - steps)
        nearest_out = np.where(steps >= w, dist, np.inf).min(axis=1)
        rounding = 1e-9 * (1.0 + float(np.abs(xy).max()))
        return nearest_out - 0.5 * self.max_segment - rounding

    def _full_search(self, px, py) -> tuple[float, int]:
        """Every segment and vertex, vectorized."""
        ox, oy = px - self.x, py - self.y
        m = len(self.ux)
        t = np.clip((ox[:m] * self.ux + oy[:m] * self.uy) / self.denom,
                    0.0, 1.0)
        d = np.hypot(px - (self.x[:m] + t * self.ux),
                     py - (self.y[:m] + t * self.uy))
        return float(d.min()), int(np.argmin(np.hypot(ox, oy)))

    def _window_search(self, px, py, h: int):
        """The window's answer if the clearance certifies it, else None.

        Python floats, the same operations as `_full_search`;
        abs(complex(dx, dy)) is the C library's hypot, as np.hypot is.
        """
        x, y, ux, uy, denom, clearance = self._views
        # anything outside the window is at least clearance[h] - |p - a_h|
        # away (triangle inequality)
        bound = clearance[h] - abs(complex(px - x[h], py - y[h]))
        if not bound > 0.0:
            return None
        n, w = len(x), self.window
        if self.closed:
            lo, hi = h - w, h + w
        else:
            lo, hi = max(h - w, 0), min(h + w, n - 1)
        best = best_vertex = math.inf
        near = n
        for j in range(lo, hi + 1):
            i = j % n
            ox, oy = px - x[i], py - y[i]
            d = abs(complex(ox, oy))
            if d < best_vertex or (d == best_vertex and i < near):
                best_vertex, near = d, i
            if j < hi:  # segment i runs from vertex i to the next one
                t = (ox * ux[i] + oy * uy[i]) / denom[i]
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                d = abs(complex(px - (x[i] + t * ux[i]),
                                py - (y[i] + t * uy[i])))
                if d < best:
                    best = d
        if best < bound and best_vertex < bound:
            return best, near
        return None


def polyline_distance(ref: Polyline, p, hint: int | None = None
                      ) -> tuple[float, int]:
    """Shortest distance from point `p` (x, y) to the polyline, and the
    index of the vertex nearest to `p` (the lowest one on a tie).

    With a `hint`, say the previous query's vertex, only the window around
    it is searched, and its answer is kept if the clearance proves nothing
    outside the window is as near; otherwise, and without a hint, every
    segment is searched. Both give the same floats.
    """
    px, py = p
    if hint is not None and 0 <= hint < len(ref.x):
        found = ref._window_search(px, py, hint)
        if found is not None:
            return found
    return ref._full_search(px, py)
