"""The four benchmark workloads, generated inline from a seed.

Each workload is scenario text built from the seed and handed to
`parse_scenario`, a call into the public runner API, the list of output files
whose bytes must repeat, and the claim the run must satisfy. The seed sets
`scenario.seed` (every RNG stream of the run) and small per-UE jitter; the
shape and size of each workload do not depend on it, so the work per run
stays the same from seed to seed.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from ztcell import parse_scenario, runner
from ztcell.ric import XappRegistry
from ztcell.xapps import intrusion

RUN_OUTPUTS = ("frames.csv", "audit.jsonl", "slice_changes.csv", "summary.json", "sdl_snapshot.json")
FPR_OUTPUTS = ("fpr.csv",)
FPR_WINDOWS = (1, 2, 5, 10)
FPR_TRIALS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what one unit of work is: a simulated frame or an FPR trial
    text: Callable[[int], str]  # seed -> scenario text
    execute: Callable[[object, Path], object]  # (scenario, out_dir) -> result
    units: Callable[[object], int]  # scenario -> units of work per run
    check: Callable[[object, object], list[str]]  # (scenario, result) -> claim failures
    outputs: tuple[str, ...]
    first_step: tuple[object, str]  # (owner, attribute) entered when set-up ends
    progress: tuple[object, str]  # (owner, attribute) entered once per frame or trial
    call: str  # the runner function the workload drives


def _lines(pairs: dict[str, object]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in pairs.items()) + "\n"


# ---- flood_isolated ----------------------------------------------------------


def _flood_text(seed: int) -> str:
    return _lines(
        {
            "scenario.duration_frames": 1000,
            "scenario.seed": seed,
            "scenario.zero_trust": "on",
            "ue.1.traffic": "flood",
            "ue.1.rate_mbps": 40,
            "ue.1.onset_frame": 0,
            "ue.2.traffic": "uniform_rate",
            "ue.2.rate_lo_mbps": 10,
            "ue.2.rate_hi_mbps": 20,
            "ue.3.traffic": "uniform_rate",
            "ue.3.rate_lo_mbps": 10,
            "ue.3.rate_hi_mbps": 20,
            "ue.4.traffic": "uniform_rate",
            "ue.4.rate_lo_mbps": 10,
            "ue.4.rate_hi_mbps": 20,
            "ue.4.credentials": "invalid",
        }
    )


def _check_flood(sc, result) -> list[str]:
    problems = []
    s = result.summary
    flags = {e["ue"] for e in result.audit.scan("intrusion_flag")}
    isolated = {e["ue"] for e in result.audit.scan("isolate")}
    if flags != {1} or isolated != {1}:
        problems.append(f"flagged {sorted(flags)} and isolated {sorted(isolated)}, expected UE 1 only")
    # UE 4 may use its least-privilege verification slice while its request
    # is checked; once denied it must never be served again.
    verify_cap = sc.auth.verification_budget_prbs * sc.cell.prb_bits_per_frame
    states = {r.per_ue[4].auth_state for r in result.frames if 4 in r.per_ue}
    if "granted" in states or "denied" not in states:
        problems.append(f"UE 4 went through states {sorted(states)}, expected a denial")
    for r in result.frames:
        stats = r.per_ue.get(4)
        if stats is None or not stats.served_bits:
            continue
        if stats.auth_state != "verifying" or stats.served_bits > verify_cap:
            problems.append(
                f"UE 4 served {stats.served_bits} bits in frame {r.frame_index} "
                f"while {stats.auth_state}"
            )
            break
    for ue in (2, 3):
        stats = s.per_ue.get(ue, {})
        pre, post = stats.get("pre_detection_mbps"), stats.get("post_isolation_mbps")
        if pre is None or post is None or post <= pre:
            problems.append(f"honest UE {ue} did not gain after isolation: {pre} -> {post} Mbps")
    return problems


# ---- legacy_flood --------------------------------------------------------------

LEGACY_ONSET = 1500
LEGACY_MIN_EXCEEDANCE = 0.8  # share of post-onset frames above the latency threshold


def _legacy_text(seed: int) -> str:
    return _lines(
        {
            "scenario.duration_frames": 3000,
            "scenario.seed": seed,
            "scenario.zero_trust": "on",
            "ue.1.traffic": "uniform_rate",
            "ue.1.rate_lo_mbps": 4,
            "ue.1.rate_hi_mbps": 8,
            "ue.2.traffic": "uniform_rate",
            "ue.2.rate_lo_mbps": 4,
            "ue.2.rate_hi_mbps": 8,
            "ue.3.traffic": "flood",
            "ue.3.rate_mbps": 40,
            "ue.3.onset_frame": LEGACY_ONSET,
        }
    )


def legacy_exceedance(sc, result) -> float:
    """Share of frames from the flood onset on where a legitimate UE's mean
    packet latency exceeds the scenario's latency threshold."""
    legit = {u.ue for u in sc.ues if u.legitimate}
    after = [r for r in result.frames if r.frame_index >= LEGACY_ONSET]
    hit = 0
    for report in after:
        if any(
            stats.mean_latency_ms is not None and stats.mean_latency_ms > sc.latency_threshold_ms
            for ue, stats in report.per_ue.items()
            if ue in legit
        ):
            hit += 1
    return hit / len(after)


def _check_legacy(sc, result) -> list[str]:
    if result.zero_trust:
        return ["legacy run came back in zero-trust mode"]
    share = legacy_exceedance(sc, result)
    if share < LEGACY_MIN_EXCEEDANCE:
        return [f"latency above threshold in {share:.3f} of post-onset frames, "
                f"expected >= {LEGACY_MIN_EXCEEDANCE}"]
    return []


# ---- ue_crowd --------------------------------------------------------------------

CROWD_UES = 48


def _crowd_text(seed: int) -> str:
    rng = Random(f"ue_crowd/{seed}")
    pairs: dict[str, object] = {
        "scenario.duration_frames": 1000,
        "scenario.seed": seed,
        "scenario.zero_trust": "on",
        # Re-authentication at 300 frames after each grant falls inside the run.
        "auth.reauth_period_frames": 300,
        # Decide only on windows of three or more reports, so a single benign
        # radio excursion on a UE's first report does not isolate it.
        "detection.min_reports": 3,
    }
    for ue in range(1, CROWD_UES + 1):
        pairs[f"ue.{ue}.traffic"] = "uniform_rate"
        pairs[f"ue.{ue}.rate_lo_mbps"] = round(rng.uniform(0.1, 0.25), 3)
        pairs[f"ue.{ue}.rate_hi_mbps"] = round(rng.uniform(0.25, 0.4), 3)
        pairs[f"ue.{ue}.attach_frame"] = 4 * (ue - 1) + rng.randrange(4)
    return _lines(pairs)


def _check_crowd(sc, result) -> list[str]:
    granted = {
        e["ue"] for e in result.audit.scan("auth") if e.get("outcome") == "granted"
    }
    missing = sorted(u.ue for u in sc.ues if u.credentials == "valid" and u.ue not in granted)
    return [f"valid UEs never granted: {missing}"] if missing else []


# ---- fpr_sweep --------------------------------------------------------------------


def _fpr_text(seed: int) -> str:
    return _lines(
        {
            "scenario.duration_frames": 1,
            "scenario.seed": seed,
            "detection.rate_lo_mbps": 10,
            "detection.rate_hi_mbps": 20,
            "fpr.benign_rate_lo_mbps": 8,
            "fpr.benign_rate_hi_mbps": 22,
            "ue.1.traffic": "uniform_rate",
            "ue.1.rate_lo_mbps": 10,
            "ue.1.rate_hi_mbps": 20,
        }
    )


def _check_fpr(sc, estimates) -> list[str]:
    by_window = {e.window_n: e.fpr for e in estimates}
    if by_window.get(10, 1.0) >= by_window.get(1, 0.0):
        return [f"FPR at window 10 ({by_window.get(10)}) not below window 1 ({by_window.get(1)})"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flood_isolated",
            why="zero-trust; a 40 Mbps flooder isolated early leaves a backlog of tens of MB, so "
            "the ran queue is nearly all the work. ran.queue_bits and ran.step_frame move "
            "units_per_s and peak_rss_mb",
            unit="frames",
            text=_flood_text,
            execute=lambda sc, out: runner.run(sc, out_dir=out),
            units=lambda sc: sc.duration_frames,
            check=_check_flood,
            outputs=RUN_OUTPUTS,
            first_step=(XappRegistry, "frame_boundary"),
            progress=(XappRegistry, "frame_boundary"),
            call="runner.run",
        ),
        Workload(
            name="legacy_flood",
            why="legacy mode: one shared FIFO with a head scan over all UEs per packet, and zero "
            "calls into e2, ric or xapps. ran moves units_per_s and peak_rss_mb; a RIC-side "
            "change must leave it unmoved",
            unit="frames",
            text=_legacy_text,
            execute=lambda sc, out: runner.run(sc, out_dir=out, legacy=True),
            units=lambda sc: sc.duration_frames,
            check=_check_legacy,
            outputs=RUN_OUTPUTS,
            first_step=(XappRegistry, "frame_boundary"),
            progress=(XappRegistry, "frame_boundary"),
            call="runner.run",
        ),
        Workload(
            name="ue_crowd",
            why="zero-trust, 48 light UEs, staggered attach, re-auth in the run. e2, core, ric "
            "route and SDL, the xApp handlers and runner move units_per_s; intrusion.warmup_s "
            "moves setup_s",
            unit="frames",
            text=_crowd_text,
            execute=lambda sc, out: runner.run(sc, out_dir=out),
            units=lambda sc: sc.duration_frames,
            check=_check_crowd,
            outputs=RUN_OUTPUTS,
            first_step=(XappRegistry, "frame_boundary"),
            progress=(XappRegistry, "frame_boundary"),
            call="runner.run",
        ),
        Workload(
            name="fpr_sweep",
            why="the fpr_leaky Monte Carlo sweep, windows 1, 2, 5, 10; never enters ran, e2 or "
            "ric. intrusion.report_gen and assess move units_per_s. No reference data: the "
            "model is unvalidated",
            unit="trials",
            text=_fpr_text,
            execute=lambda sc, out: runner.fpr_sweep(
                sc, list(FPR_WINDOWS), FPR_TRIALS, out_csv=out / "fpr.csv"
            ),
            units=lambda sc: FPR_TRIALS * len(FPR_WINDOWS),
            check=_check_fpr,
            outputs=FPR_OUTPUTS,
            first_step=(runner, "estimate_fpr"),
            progress=(intrusion, "assess"),
            call="runner.fpr_sweep",
        ),
    )
}


def parse(workload: Workload, text: str):
    return parse_scenario(text, name=workload.name)


def digest(workload: Workload, out_dir: Path) -> str:
    """SHA-256 over the deterministic output files, in a fixed order."""
    h = hashlib.sha256()
    for name in workload.outputs:
        path = out_dir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()
