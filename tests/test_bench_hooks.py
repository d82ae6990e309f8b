"""The benchmark's traced runs rebind names in the package (see
perfbench/spans.py) and its measured runs rebind `gokart.sim.bicycle_step`.
These tests keep a refactor from silently breaking either: every rebound
name must exist where the benchmark looks for it, a traced FTG run must
record calls on every frame-path span, and a traced pursuit run exactly one
plant step per tick, one reference search and one boundary margin per run,
and exactly the filter, codec and controller calls that its tick schedule
implies."""

import types
from collections import Counter
from pathlib import Path

import pytest

import gokart.sim
import gokart.track
from gokart.sim import load_scenario, run_closed_loop
from helpers import oval_track, write_track_csv

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, compiled from its text so that
    nothing is written next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PY)
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_target_is_defined_on_its_owner():
    spans = load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert not missing


def test_loop_looks_up_bicycle_step_through_the_module():
    assert callable(gokart.sim.__dict__["bicycle_step"])
    assert "bicycle_step" in gokart.sim.run_closed_loop.__code__.co_names


def test_loop_looks_up_fuse_step_through_the_module():
    # the loop hands its Localizer the module's name, which the traced runs
    # rebind; a Localizer built on its default would escape the trace
    assert callable(gokart.sim.__dict__["fuse_step"])
    assert "fuse_step" in gokart.sim.run_closed_loop.__code__.co_names


def test_traced_ftg_run_records_every_frame_span(tmp_path):
    spans = load_spans()
    write_track_csv(tmp_path / "oval.csv", oval_track())
    (tmp_path / "s.txt").write_text(
        "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
        "duration_s = 0.3\nseed = 7\n")
    scenario = load_scenario(tmp_path / "s.txt")
    plain = run_closed_loop(scenario)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run_closed_loop(scenario)
    assert traced.logs == plain.logs
    called = {span[0] for span in tracer.spans}
    frame_spans = {name for _, _, name in spans.TARGETS
                   if name.startswith(("perception.", "sim.render_scene",
                                       "sim.bev_grass_mask",
                                       "planning.ftg_step"))}
    assert len(frame_spans) == 9
    assert frame_spans <= called
    # one blur span per frame, under that frame's span: the blur's worker
    # thread calls no traced name, or the tracer's one stack would nest it
    # elsewhere
    frames = [i for i, span in enumerate(tracer.spans)
              if span[0] == "perception.detect_boundaries"]
    blur_parents = [span[3] for span in tracer.spans
                    if span[0] == "perception.gaussian_blur"]
    assert frames and blur_parents == frames


def test_traced_raceline_solve_records_one_solver_span():
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        alpha = gokart.track.optimize_min_curvature(oval_track())
    solves = [span for span in tracer.spans if span[0] == "track.solver"]
    assert len(solves) == 1
    _, _, _, parent, _, attrs = solves[0]
    assert tracer.spans[parent][0] == "track.optimize_min_curvature"
    assert attrs["n"] == len(alpha) == len(oval_track())
    assert type(attrs["nit"]) is int and type(attrs["nfev"]) is int
    assert 1 <= attrs["nit"] < attrs["nfev"]


@pytest.fixture(scope="module")
def traced_pursuit(tmp_path_factory):
    """A traced 1 s pursuit run on the oval: its report and span counts."""
    spans = load_spans()
    tmp_path = tmp_path_factory.mktemp("pursuit")
    write_track_csv(tmp_path / "oval.csv", oval_track())
    (tmp_path / "s.txt").write_text(
        "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
        "duration_s = 1\nseed = 7\n")
    scenario = load_scenario(tmp_path / "s.txt")
    plain = run_closed_loop(scenario)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = tracer.call(spans.LOOP, run_closed_loop, (scenario,), {})
    assert traced.logs == plain.logs
    return traced, Counter(span[0] for span in tracer.spans)


def test_traced_pursuit_run_records_one_plant_step_per_tick_and_one_score(
        traced_pursuit):
    # the run is scored once, from its whole trajectory, after the ticks
    traced, calls = traced_pursuit
    assert calls["sim.bicycle_step"] == traced.ticks == 100
    assert calls["geometry.polyline_distance"] == 1
    assert calls["sim.lateral_margin"] == 1


def test_traced_pursuit_run_records_one_controller_step_per_period(
        traced_pursuit):
    # the controller runs every 5th tick (20 Hz at dt = 0.01) from the first
    # fix at t = 0; its nearest-waypoint search is Polyline.nearest_vertex,
    # not the rebound gokart.sim name, so it adds no reference-query spans
    traced, calls = traced_pursuit
    assert calls["control.pursuit_step"] == traced.ticks // 5 == 20
    assert calls["geometry.polyline_distance"] == 1


def test_traced_pursuit_run_records_every_filter_and_codec_call(
        traced_pursuit):
    # A codec or filter call made around its rebound name would leave the
    # span count short and show up as a fake per-layer speedup.
    traced, calls = traced_pursuit
    ticks = traced.ticks  # 100 at dt = 0.01
    # the IMU runs every tick; the first tick anchors the filter on its GNSS
    # fix, every later tick runs one predict-update cycle
    assert traced.first_fix_s == 0.0
    assert calls["localization.fuse_step"] == ticks - 1 == 99
    # per tick: three feedback frames encoded and traced; every second tick
    # (50 Hz commands): a command encoded, traced and decoded, and the six
    # feedback frames of the two ticks before it folded, none on the first
    commands = ticks // 2
    feedback = 3 * ticks
    folded = 6 * (commands - 1)
    assert calls["drivebus.codec"] == 2 * feedback + 3 * commands + folded
    assert calls["drivebus.codec"] == 1044
