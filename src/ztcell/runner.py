"""Experiment orchestration: the frame loop, metric logs, and run summaries.

A run wires one RAN cell to the RIC over the binary E2 codec and advances
in `core.FRAME_MS` (10 ms) frames. At each frame boundary the message
queues are drained to quiescence, so an indication emitted at the end of
frame f can trigger a verdict, an isolation, and a slice-control message
that all take effect at the start of frame f+1 and never mid-frame. E2
traffic crosses only on the first frame, at report boundaries, and on
attach, re-auth and verification frames. On any other boundary both
outboxes are empty and `pump` returns at once, so a quiet frame costs the
RIC only the registry's frame stamp and the auth xApp's boundary hook.
Everything is driven by named RNG streams derived from the scenario seed,
making outputs byte-identical across runs; legacy runs reuse the same
traffic streams so arrivals match the zero-trust run frame for frame.

The run keeps one copy of its per-frame data, `RunResult.frames`, whose
per-UE stats the cell interns, so equal stats are one object. The summary
walks the frames once, keeping running per-UE totals that it copies at
detection and at isolation, so each window is a difference of totals;
`summarize_dir` groups the rows of `frames.csv` back into frames for it.
`frames.csv` is written from the frames directly: each stats object is
formatted into its row tail once, and each frame's rows are joined behind
its index and written in one call.

A run applies its seed and legacy overrides to the scenario once, and
`run.log` echoes that scenario as run, effective seed and mode included. It is
the one statement of a run's configuration: `summarize_dir` parses it back.
The cell and each xApp are built from that same scenario: an xApp's
constructor takes the `Scenario` and reads the sections it needs.
"""
from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

from . import e2
from .core import FRAME_MS
from .ran import FrameReport, InvariantError, RanCell, UeFrameStats
from .ric import AuditLog, Router, Sdl, XappContext, XappRegistry
from .scenario import Scenario, UeSpec, parse_scenario, resolved_lines
from .xapps.auth import AuthXapp
from .xapps.intrusion import (
    FprEstimate,
    IntrusionXapp,
    build_profile,
    estimate_fpr,
    warmup_history,
    write_fpr_csv,
)
from .xapps.slicing import SlicingXapp

FRAMES_CSV_HEADER = "frame_index,ue,served_bits,queue_bytes,latency_ms,auth_state,slice_id"

# RAN <-> RIC exchange rounds allowed per frame boundary. The shipped
# scenarios need at most 2; more means a message storm, which must fail
# closed rather than hang the run.
PUMP_ROUND_LIMIT = 16

# The fewest Monte Carlo trials per window an FPR sweep accepts.
FPR_MIN_TRIALS = 10_000


@dataclass
class RunSummary:
    latency_threshold_ms: int
    latency_exceedance: float
    peak_latency_ms: float
    detection_frame: int | None
    isolation_frame: int | None
    per_ue: dict[int, dict]
    fpr_curve: str | None = None

    def to_dict(self) -> dict:
        return {
            "latency_threshold_ms": self.latency_threshold_ms,
            "latency_exceedance": self.latency_exceedance,
            "peak_latency_ms": self.peak_latency_ms,
            "detection_frame": self.detection_frame,
            "isolation_frame": self.isolation_frame,
            "per_ue": {str(k): v for k, v in self.per_ue.items()},
            "fpr_curve": self.fpr_curve,
        }


@dataclass
class RunResult:
    scenario: Scenario  # as run: the seed and legacy overrides applied
    zero_trust: bool
    frames: list[FrameReport]
    audit: AuditLog
    summary: RunSummary
    cell: RanCell
    out_dir: Path | None = None
    slicing: SlicingXapp | None = None
    auth: AuthXapp | None = None
    intrusion: IntrusionXapp | None = None
    sdl: Sdl | None = None


def run(
    sc: Scenario,
    out_dir: str | Path | None = None,
    legacy: bool = False,
    seed: int | None = None,
) -> RunResult:
    sc = replace(
        sc, zero_trust=sc.zero_trust and not legacy, seed=sc.seed if seed is None else seed
    )
    audit = AuditLog()
    cell = RanCell(
        sc.cell, sc.secret(), zero_trust=sc.zero_trust,
        reauth_period_frames=sc.auth.reauth_period_frames,
    )

    router = Router(audit)
    sdl = Sdl()
    registry = XappRegistry()
    ric_outbox: list[bytes] = []

    def send_e2(kind: e2.MsgKind, body) -> None:
        ric_outbox.append(e2.encode(cell.conn.make("ric", kind, body)))

    auth_x = intr_x = slic_x = None
    if sc.zero_trust:
        ctx = XappContext(router=router, sdl=sdl, audit=audit, send_e2=send_e2)
        auth_x, intr_x, slic_x = AuthXapp(sc), IntrusionXapp(sc), SlicingXapp(sc)
        registry.register(auth_x, ctx)
        registry.register(intr_x, ctx)
        registry.register(slic_x, ctx)
        cell.connect(sc.ran_credential())

    def pump(frame: int) -> None:
        if not (cell.outbox or ric_outbox):
            return  # a quiet boundary: nothing to exchange
        for _ in range(PUMP_ROUND_LIMIT):
            to_ric = cell.outbox
            cell.outbox = []
            for data in to_ric:
                router.ingest_frame(data)
            to_ran = ric_outbox[:]
            ric_outbox.clear()
            for data in to_ran:
                cell.handle_frame(data)
            if not (cell.outbox or ric_outbox):
                return
        raise InvariantError(
            frame, f"E2 traffic still pending after {PUMP_ROUND_LIMIT} exchange rounds"
        )

    attaching: dict[int, list[UeSpec]] = {}  # frame -> the UEs that attach in it
    for spec in sc.ues:  # in id order, as the parser sorts them
        attaching.setdefault(spec.attach_frame, []).append(spec)

    frames: list[FrameReport] = []
    for f in range(sc.duration_frames):
        router.frame = f
        registry.frame_boundary(f)
        for spec in attaching.get(f, ()):
            token = auth_x.issue_token(spec.ue) if sc.zero_trust else None
            cell.attach(
                spec.ue,
                traffic=spec.traffic,
                radio=spec.radio,
                rng_traffic=Random(f"{sc.seed}/ue{spec.ue}/traffic"),
                rng_radio=Random(f"{sc.seed}/ue{spec.ue}/radio"),
                credential_chain=(spec.credential,),
                token=token,
                cred_mode=spec.credentials,
            )
        cell.maybe_reauth(f)
        pump(f)
        frames.append(cell.step_frame())
        cell.emit_kpm_if_due()
    router.frame = sc.duration_frames
    registry.frame_boundary(sc.duration_frames)
    pump(sc.duration_frames)

    summary = summarize_rows(frames, audit.entries, sc, sc.latency_threshold_ms)

    result = RunResult(
        scenario=sc,
        zero_trust=sc.zero_trust,
        frames=frames,
        audit=audit,
        summary=summary,
        cell=cell,
        slicing=slic_x,
        auth=auth_x,
        intrusion=intr_x,
        sdl=sdl,
    )
    if out_dir is not None:
        result.out_dir = Path(out_dir)
        _write_outputs(result)
    return result


def frames_to_rows(frames: list[FrameReport], ue_order: list[int]) -> Iterator[tuple]:
    """Yield one `frames.csv` row per UE per frame, in `ue_order` within a frame:
    (frame, ue, served_bits, queue_bytes, latency_ms, auth_state, slice_id).

    The run itself never calls it; it is the row-by-row view that the
    summary and `frames.csv` tests compare against."""
    for report in frames:
        f = report.frame_index
        per_ue = report.per_ue
        for ue in ue_order:
            stats = per_ue.get(ue)
            if stats is not None:
                yield (f, ue, *stats)


def summarize_rows(
    frames: list[FrameReport], audit_entries: list[dict], sc: Scenario, latency_threshold_ms: int
) -> RunSummary:
    """The run summary of `frames`, walked once.

    Each UE keeps running totals of its served bits and of the frames it was
    attached in. They are copied on entering the first frame at or after
    detection and after isolation, so the pre-detection window [0, detection)
    is the first copy and the post-isolation window [isolation, duration) is
    the final totals less the second.
    """
    duration = sc.duration_frames
    legit = {u.ue for u in sc.ues if u.legitimate}

    detection_frame = None
    isolation_frame = None
    for entry in audit_entries:
        if entry["action"] == "intrusion_flag" and detection_frame is None:
            detection_frame = entry["frame"]
        if entry["action"] == "isolate" and isolation_frame is None:
            isolation_frame = entry["frame"]

    pre_end = detection_frame if detection_frame is not None else duration
    post_start = isolation_frame if isolation_frame is not None else duration
    exceed_frames: set[int] = set()
    peak = 0.0
    bits: dict[int, int] = {}  # ue -> served bits so far
    rows: dict[int, int] = {}  # ue -> frames attached so far
    pre = post = None  # (bits, rows) as they stood at pre_end and at post_start
    for report in frames:
        f = report.frame_index
        if pre is None and f >= pre_end:
            pre = (dict(bits), dict(rows))
        if post is None and f >= post_start:
            post = (dict(bits), dict(rows))
        for ue, stats in report.per_ue.items():
            latency_ms = stats[2]
            if latency_ms is not None and ue in legit:
                # As frames.csv stores it (round() gives the same float as f"{x:.3f}"),
                # so summarizing a run directory gives back the in-memory summary.
                latency_ms = round(latency_ms, 3)
                if latency_ms > peak:
                    peak = latency_ms
                if latency_ms > latency_threshold_ms:
                    exceed_frames.add(f)
            if ue in rows:
                bits[ue] += stats[0]
                rows[ue] += 1
            else:
                bits[ue] = stats[0]
                rows[ue] = 1
    if pre is None:
        pre = (bits, rows)
    if post is None:
        post = (bits, rows)

    def mean_mbps(ue_bits: int, ue_rows: int) -> float | None:
        # bits per frame -> Mbps
        return ue_bits / ue_rows / (FRAME_MS * 1000) if ue_rows else None

    per_ue: dict[int, dict] = {}
    for ue in sorted(rows):
        per_ue[ue] = {
            "legitimate": ue in legit,
            "pre_detection_mbps": mean_mbps(pre[0].get(ue, 0), pre[1].get(ue, 0)),
            "post_isolation_mbps": mean_mbps(
                bits[ue] - post[0].get(ue, 0), rows[ue] - post[1].get(ue, 0)
            ),
            "mean_mbps": mean_mbps(bits[ue], rows[ue]),
        }

    return RunSummary(
        latency_threshold_ms=latency_threshold_ms,
        latency_exceedance=len(exceed_frames) / duration if duration else 0.0,
        peak_latency_ms=peak,
        detection_frame=detection_frame,
        isolation_frame=isolation_frame,
        per_ue=per_ue,
    )


def _row_tail(stats: UeFrameStats) -> str:
    """`served_bits,queue_bytes,latency_ms,auth_state,slice_id` and the newline."""
    bits, queue_bytes, lat, state, sid = stats
    return (
        f"{bits},{queue_bytes},{'' if lat is None else f'{lat:.3f}'},"
        f"{state},{'' if sid is None else sid}\n"
    )


def _write_outputs(result: RunResult) -> None:
    out = result.out_dir
    out.mkdir(parents=True, exist_ok=True)
    columns = [(u.ue, f"{u.ue},") for u in result.scenario.ues]
    # The cell interns its stats and `result.frames` keeps every one alive,
    # so an id names one stats value for the whole write.
    tails: dict[int, str] = {}
    with open(out / "frames.csv", "w", newline="") as fh:
        write = fh.write
        write(FRAMES_CSV_HEADER + "\n")
        for report in result.frames:
            per_ue = report.per_ue
            cells = []
            for ue, head in columns:
                stats = per_ue.get(ue)
                if stats is not None:
                    tail = tails.get(id(stats))
                    if tail is None:
                        tail = tails[id(stats)] = _row_tail(stats)
                    cells.append(head + tail)
            if cells:
                prefix = f"{report.frame_index},"
                write(prefix + prefix.join(cells))
    result.audit.dump(str(out / "audit.jsonl"))
    if result.slicing is not None:
        result.slicing.write_changes_csv(str(out / "slice_changes.csv"))
    else:
        (out / "slice_changes.csv").write_text("frame,ue,old_slice,new_slice,cause\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary.to_dict(), fh, indent=2, sort_keys=True)
    lines = [f"# run: {result.scenario.name}", *resolved_lines(result.scenario)]
    (out / "run.log").write_text("\n".join(lines) + "\n")
    if result.sdl is not None:
        with open(out / "sdl_snapshot.json", "w") as fh:
            json.dump(result.sdl.snapshot(), fh, indent=2, sort_keys=True)


def summarize_dir(metrics_dir: str | Path, latency_threshold_ms: int | None = None) -> RunSummary:
    """Recompute summary.json from a run directory: the scenario as run from
    run.log (its first line names it), rows from frames.csv, verdicts from
    audit.jsonl."""
    out = Path(metrics_dir)
    log = (out / "run.log").read_text()
    sc = parse_scenario(log, name=log.partition("\n")[0].removeprefix("# run: "))
    frames: list[FrameReport] = []
    with open(out / "frames.csv", newline="") as fh:
        records = csv.reader(fh)
        next(records, None)  # the header
        for f, ue, bits, queue_bytes, lat, state, sid in records:
            f = int(f)
            if not frames or frames[-1].frame_index != f:
                frames.append(FrameReport(f, {}))
            frames[-1].per_ue[int(ue)] = UeFrameStats(
                int(bits), int(queue_bytes), float(lat) if lat else None,
                state, int(sid) if sid else None,
            )
    audit_entries = []
    audit_path = out / "audit.jsonl"
    if audit_path.exists():
        with open(audit_path) as fh:
            audit_entries = [json.loads(line) for line in fh if line.strip()]
    threshold = sc.latency_threshold_ms if latency_threshold_ms is None else latency_threshold_ms
    summary = summarize_rows(frames, audit_entries, sc, threshold)
    fpr_csvs = sorted(out.glob("fpr*.csv"))
    if fpr_csvs:
        summary.fpr_curve = fpr_csvs[0].name
    with open(out / "summary.json", "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
    return summary


def fpr_sweep(
    sc: Scenario,
    windows: list[int],
    trials: int,
    seed: int | None = None,
    out_csv: str | Path | None = None,
) -> list[FprEstimate]:
    """Estimate the false-positive rate per report-window size and emit CSV."""
    if trials < FPR_MIN_TRIALS:
        raise ValueError(f"fpr sweep needs trials >= {FPR_MIN_TRIALS}")
    seed = sc.seed if seed is None else seed
    spec = next((u for u in sc.ues if u.legitimate), sc.ues[0])
    rng = Random(f"{seed}/ue{spec.ue}/warmup")
    history = warmup_history(spec, sc.report_period_ms, sc.detection, rng)
    profile = build_profile(spec.ue, history, sc.detection)
    estimates = [
        estimate_fpr(
            profile,
            window_n=w,
            trials=trials,
            seed=seed,
            config=sc.detection,
            throughput_range=sc.fpr_benign_range,
        )
        for w in windows
    ]
    if out_csv is not None:
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
        write_fpr_csv(estimates, str(out_csv))
    return estimates
