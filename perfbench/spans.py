"""Outside-in span tracing for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs over the public
functions each layer exposes: the names `gokart.sim`, `gokart.perception`
and `gokart.track` import or define, plus the class methods the closed loop
calls. Nothing in the package changes; `installed()` restores every name on
exit. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import contextlib
import gzip
import time

import gokart.perception as perception
import gokart.sim as sim
import gokart.track as track
from gokart.drivebus import CanBus, ModeArbiter, ThrottleEcu

LOOP = "sim.run_closed_loop"

# (owner, attribute, span name). Owners are modules or classes; a function
# imported into several modules is wrapped where the caller looks it up.
TARGETS = (
    (sim, "fuse_step", "localization.fuse_step"),
    (sim, "polyline_distance", "geometry.polyline_distance"),
    (sim.TrackSampler, "lateral_margin", "sim.lateral_margin"),
    (sim, "bicycle_step", "sim.bicycle_step"),
    (sim.GnssSimulator, "sample", "sim.sensors"),
    (sim.ImuSimulator, "sample", "sim.sensors"),
    (sim, "encode_command", "drivebus.codec"),
    (sim, "decode_command", "drivebus.codec"),
    (sim, "encode_feedback", "drivebus.codec"),
    (sim, "apply_feedback", "drivebus.codec"),
    (sim, "format_trace_row", "drivebus.codec"),
    (ThrottleEcu, "step", "drivebus.ecu"),
    (sim, "sbws_step", "drivebus.ecu"),
    (sim, "ebs_step", "drivebus.ecu"),
    (ModeArbiter, "step", "drivebus.arbiter"),
    (CanBus, "send", "drivebus.arbiter"),
    (CanBus, "deliver", "drivebus.arbiter"),
    (sim, "pursuit_step", "control.pursuit_step"),
    (sim, "ftg_step", "planning.ftg_step"),
    (sim, "read_track_csv", "sim.setup"),
    (sim.TrackSampler, "__init__", "sim.setup"),
    (sim, "prepare_raceline", "sim.setup"),
    (sim, "render_scene", "sim.render_scene"),
    (sim, "bev_grass_mask", "sim.bev_grass_mask"),
    (sim, "detect_boundaries", "perception.detect_boundaries"),
    (perception, "gaussian_blur", "perception.gaussian_blur"),
    (perception, "grass_mask", "perception.grass_mask"),
    (perception, "morph_open_close", "perception.morph_open_close"),
    (perception, "warp_to_bev", "perception.warp_to_bev"),
    (perception, "mask_to_depth", "perception.mask_to_depth"),
    (sim, "optimize_min_curvature", "track.optimize_min_curvature"),
    (track, "optimize_min_curvature", "track.optimize_min_curvature"),
    (track, "minimize", "track.solver"),
    (sim, "build_raceline", "track.build_raceline"),
    (track, "build_raceline", "track.build_raceline"),
    (track, "velocity_profile", "track.velocity_profile"),
)

SPANS = tuple(dict.fromkeys([LOOP] + [name for _, _, name in TARGETS]))

# Spans recorded only when their parent is the loop itself: the boundary
# margin test also runs ~32k points per frame inside bev_grass_mask, where it
# belongs to that span's self time.
LOOP_CHILD_ONLY = {"sim.lateral_margin"}


class Tracer:
    """In-memory span recorder.

    A span is (name, start_ns, end_ns, parent index or -1, run id, attrs).
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = 0

    def new_run(self) -> None:
        self.run_id += 1

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if name in LOOP_CHILD_ONLY and (
                parent < 0 or self.spans[parent][0] != LOOP):
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.run_id, None])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
        if name == "track.solver":
            self.spans[idx][5] = {"n": len(args[1]), "nit": int(result.nit),
                                  "nfev": int(result.nfev)}
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def write(self, path) -> None:
        """Gzipped CSV, one span per row; parent is a row index or -1."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,run,attrs\n")
            for name, start, end, parent, run, attrs in self.spans:
                extra = ";".join(f"{k}={v}" for k, v in (attrs or {}).items())
                fh.write(f"{name},{start},{end},{parent},{run},{extra}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to a tracing wrapper; restore them on exit."""
    saved = []
    try:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]
