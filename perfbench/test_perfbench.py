"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_simulator()

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: a plain call, then a traced one, on one session."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        session = run.Session(wl, SEED, tmp_path_factory.mktemp(name))
        plain = session.call(session.parse())
        start = time.perf_counter_ns()
        tracer, result = run.traced_call(session)
        wall_ns = time.perf_counter_ns() - start
        out[name] = (session, plain, tracer, result, wall_ns)
    return out


def _all_targets():
    return [(owner, attr) for owner, attr, _ in spans.TARGETS] + [spans.FRAME_MARKER]


def test_wrappers_restore_the_originals():
    before = {(id(o), a): spans.lookup(o, a) for o, a in _all_targets()}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner, attr in _all_targets():
                assert spans.lookup(owner, attr) is not before[(id(owner), attr)], attr
            raise RuntimeError("leave the block by an exception")
    for owner, attr in _all_targets():
        assert spans.lookup(owner, attr) is before[(id(owner), attr)], attr


def test_timers_restore_the_originals(tmp_path):
    for wl in workloads.WORKLOADS.values():
        points = {wl.first_step: spans.lookup(*wl.first_step),
                  wl.progress: spans.lookup(*wl.progress)}
        session = run.Session(wl, SEED, tmp_path)
        assert session.setup() is not None
        with refclock.ScaledTimer().timing(wl.progress):
            pass
        for (owner, attr), original in points.items():
            assert spans.lookup(owner, attr) is original


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_calls_give_identical_digests(traced, name):
    session, plain, _, result, _ = traced[name]
    assert plain is not None and result is not None
    assert session.problems == [] and session.attempted == 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_are_non_negative_and_within_wall_time(traced, name):
    _, _, tracer, _, wall_ns = traced[name]
    own = tracer.self_times()
    assert own and min(own) >= 0
    assert sum(own) <= wall_ns
    roots = [s for s in tracer.spans if s[3] == -1]
    assert sum(end - start for _, start, end, _, _ in roots) == sum(own)


def test_legacy_flood_never_enters_e2_ric_or_xapps(traced):
    _, _, tracer, result, _ = traced["legacy_flood"]
    m = spans.layer_metrics(tracer, result)
    assert m["ran.step_frame.calls"] == 3000
    for name in (
        "e2.encode.calls", "e2.decode.calls", "ran.handle_frame.calls",
        "ric.ingest.calls", "ric.route.calls", "ric.sdl.puts", "ric.sdl.gets",
        "auth.handle.calls", "intrusion.handle.calls", "slicing.handle.calls",
        "intrusion.assess.calls", "core.validate_slice_table.calls",
    ):
        assert m[name] == 0, name


def test_fpr_sweep_never_enters_ran_e2_or_ric(traced):
    _, _, tracer, result, _ = traced["fpr_sweep"]
    m = spans.layer_metrics(tracer, result)
    assert m["intrusion.assess.calls"] == workloads.FPR_TRIALS * len(workloads.FPR_WINDOWS)
    for name in ("ran.step_frame.calls", "e2.encode.calls", "ric.route.calls"):
        assert m[name] == 0, name


def test_layer_metrics_cover_the_declared_list(traced):
    _, _, tracer, result, _ = traced["ue_crowd"]
    m = spans.layer_metrics(tracer, result)
    assert set(m) | {"trace.overhead"} == set(spans.LAYER_METRICS)
    assert m["core.validate_per_table"] == 3.0
    assert m["intrusion.sdl_gets_per_report"] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_scaled_timer_scales_each_segment():
    timer = refclock.ScaledTimer()
    timer.segments_ns = [10, 30]
    timer.kernels_ns = [refclock.NOMINAL_NS, refclock.NOMINAL_NS, 3 * refclock.NOMINAL_NS]
    assert timer.raw_s == 40 / 1e9
    assert timer.scaled_s == pytest.approx((10 + 30 / 2**refclock.SENSITIVITY) / 1e9)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ue_crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
