"""Seeded inputs for the benchmark workloads.

The program under test receives the files these functions write and nothing
else. The oval and the track CSV writer are the test suite's
(`tests/helpers.py`); generation runs before any timed process starts.

- ``pursuit_oval`` / ``ftg_oval``: the README scenario on the 45 s oval
  (40 m straights, 20 m radius, 2 m spacing, 3.5 m half-width) at the
  README's scenario seed 7, whatever the run's seed: the scenario seed drives
  the GNSS and IMU noise, and on some scenario seeds (13, 15, 16 of 0-19)
  pursuit leaves test_06's 0.5 m cross-track tolerance, so a seed-drawn
  scenario would make the failure count a property of the seed.
  ``scenario_seed`` picks another scenario for a held-out check.
- ``raceline``: a fixed batch of kart-scale closed tracks, two per
  (size, spacing) cell. The seed sets the order in which the batch is
  solved; it does not move the tracks, because the solver's iteration count
  is chaotic in the input (a rigid rotation of one track moves it 5x), so
  seed-varying tracks would make the batch time a property of the seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("pursuit_oval", "ftg_oval", "raceline")

SCENARIO_SEED = 7

# Parts of the reference loop (reference.py) each workload's operation time
# is divided by. pursuit_oval is ~85% a per-tick Python path, which the tick
# loop matches (over 45 pursuit operations on a noisy host, operation / tick
# loop spread by 0.07 and operation / all three parts by 0.11); the other two
# mix Python with image and dense array work, so they use all three.
REFERENCE_PARTS = {"pursuit_oval": ("ticks",),
                   "ftg_oval": ("ticks", "image", "dense"),
                   "raceline": ("ticks", "image", "dense")}

CLOSED_LOOP_DURATION_S = {"pursuit_oval": 45.0, "ftg_oval": 10.0}

# (points, spacing in m); two tracks per cell, generator streams 0 and 1.
RACELINE_CELLS = ((60, 2.0), (120, 1.0), (120, 2.0), (240, 1.0), (240, 2.0),
                  (480, 2.0))
TRACKS_PER_CELL = 2
RACELINE_SIZES = tuple(sorted({n for n, _ in RACELINE_CELLS}))


def closed_loop_scenario(mode: str, seed: int, duration_s: float) -> str:
    return (f"mode = {mode}\n"
            "track = oval.csv\n"
            "track.closed = true\n"
            f"duration_s = {duration_s!r}\n"
            f"seed = {seed}\n"
            "sensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")


# --- kart-scale tracks -------------------------------------------------------

def kart_track(rng, n: int, spacing: float, r_min=10.0, r_max=40.0):
    """Closed track of n points, ~spacing apart: straights joined by circular
    arcs of radius r_min..r_max (capped at a tenth of the length so short
    tracks still close), with some right-hand corners.

    Draws are rejected until the loop closes with positive straights and no
    two distant parts come within 12 m of each other. Returns (xy, w_left,
    w_right) with smooth per-point widths in [2, 4] m.
    """
    length = n * spacing
    r_max = min(r_max, length / 10.0)
    corners = max(4, int(round(length / 80.0)))
    for _ in range(10000):
        turn = rng.uniform(0.4, 1.6, corners)
        right = rng.random(corners) < 0.3
        right[0] = False
        turn = np.where(right, -turn, turn)
        if turn.sum() <= 0.5:
            continue
        turn *= 2.0 * math.pi / turn.sum()
        if np.abs(turn).max() > 2.6:
            continue
        radius = rng.uniform(r_min, r_max, corners)
        straight_total = length - np.sum(radius * np.abs(turn))
        if straight_total < 0.15 * length:
            continue
        heading = np.concatenate([[0.0], np.cumsum(turn)[:-1]])
        u = np.column_stack([np.cos(heading), np.sin(heading)])
        sgn = np.sign(turn)
        h1 = heading + turn
        arc_d = np.column_stack([radius * sgn * (np.sin(h1) - np.sin(heading)),
                                 -radius * sgn * (np.cos(h1) - np.cos(heading))])
        w = rng.uniform(0.5, 1.5, corners)
        ell = straight_total * w / w.sum()
        # least-norm correction of the straights that closes the loop
        gap = ell @ u + arc_d.sum(axis=0)
        ell = ell - u @ np.linalg.solve(u.T @ u, gap)
        if ell.min() < 3.0:
            continue
        xy = _sample_path(ell, heading, turn, radius, n)
        if _passes_near_itself(xy, 12.0):
            continue
        return (xy, *_widths(rng, n))
    raise RuntimeError(f"no closed track for n={n}, spacing={spacing}")


def _sample_path(ell, heading, turn, radius, n):
    """n points at equal arc length along straight/arc pairs."""
    seg = np.ravel(np.column_stack([ell, radius * np.abs(turn)]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    starts = []
    p = np.zeros(2)
    for i in range(len(ell)):
        h, t, r = heading[i], turn[i], radius[i]
        starts.append(p)
        p = p + ell[i] * np.array([math.cos(h), math.sin(h)])
        starts.append(p)
        sg = math.copysign(1.0, t)
        p = p + r * np.array([sg * (math.sin(h + t) - math.sin(h)),
                              -sg * (math.cos(h + t) - math.cos(h))])
    out = np.empty((n, 2))
    for k, s in enumerate(np.arange(n) * (cum[-1] / n)):
        j = int(np.searchsorted(cum, s, side="right") - 1)
        loc = s - cum[j]
        h = heading[j // 2]
        if j % 2 == 0:
            out[k] = starts[j] + loc * np.array([math.cos(h), math.sin(h)])
        else:
            t, r = turn[j // 2], radius[j // 2]
            sg = math.copysign(1.0, t)
            h2 = h + sg * loc / r
            out[k] = starts[j] + r * np.array([sg * (math.sin(h2) - math.sin(h)),
                                               -sg * (math.cos(h2) - math.cos(h))])
    return out


def _passes_near_itself(xy, clearance) -> bool:
    seg = np.linalg.norm(np.roll(xy, -1, axis=0) - xy, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)[:-1]])
    total = float(seg.sum())
    d = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
    ds = np.abs(s[:, None] - s[None, :])
    ds = np.minimum(ds, total - ds)
    return bool(np.any((d < clearance) & (ds > 3.0 * clearance)))


def _widths(rng, n, lo=2.0, hi=4.0):
    th = np.arange(n) * 2.0 * math.pi / n
    out = []
    for _ in range(2):
        amp = rng.normal(size=3)
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        f = sum(amp[k] * np.sin((k + 1) * th + phase[k]) for k in range(3))
        f = (f - f.min()) / (f.max() - f.min())
        out.append(lo + (hi - lo) * f)
    return out


def raceline_batch():
    """The fixed batch: (name, n, spacing, xy, w_left, w_right) per track."""
    for n, spacing in RACELINE_CELLS:
        for k in range(TRACKS_PER_CELL):
            rng = np.random.default_rng([k, n, int(round(spacing * 10))])
            xy, wl, wr = kart_track(rng, n, spacing)
            yield f"n{n}_h{spacing:g}_{k}", n, spacing, xy, wl, wr


# --- input files -------------------------------------------------------------

def generate(workload: str, seed: int, out_dir: Path,
             scenario_seed: int = SCENARIO_SEED) -> None:
    """Write the workload's inputs and a manifest.json describing them."""
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from gokart.track import Track
    from helpers import oval_track, write_track_csv

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed}
    if workload in CLOSED_LOOP_DURATION_S:
        write_track_csv(out_dir / "oval.csv", oval_track())
        mode = "pursuit" if workload == "pursuit_oval" else "ftg"
        duration = CLOSED_LOOP_DURATION_S[workload]
        (out_dir / "scenario.txt").write_text(
            closed_loop_scenario(mode, scenario_seed, duration))
        manifest.update(kind="closed_loop", scenario="scenario.txt",
                        scenario_seed=scenario_seed, duration_s=duration)
    elif workload == "raceline":
        tracks = []
        for name, n, spacing, xy, wl, wr in raceline_batch():
            write_track_csv(out_dir / f"{name}.csv",
                            Track.from_arrays(xy, wl, wr, closed=True))
            tracks.append({"file": f"{name}.csv", "n": n, "spacing_m": spacing})
        order = np.random.default_rng(seed).permutation(len(tracks))
        manifest.update(kind="raceline",
                        tracks=[tracks[int(i)] for i in order])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
