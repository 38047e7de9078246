"""Experiment orchestration: the frame loop, metric logs, and run summaries.

A run wires one RAN cell to the RIC over the binary E2 codec and advances
in `core.FRAME_MS` (10 ms) frames. At each frame boundary the message
queues are drained to quiescence, so an indication emitted at the end of
frame f can trigger a verdict, an isolation, and a slice-control message
that all take effect at the start of frame f+1 and never mid-frame.
Everything is driven by named RNG streams derived from the scenario seed,
making outputs byte-identical across runs; legacy runs reuse the same
traffic streams so arrivals match the zero-trust run frame for frame.

The run keeps one copy of its per-frame data, `RunResult.frames`, whose
per-UE stats the cell interns, so equal stats are one object. The summary
walks it through `frames_to_rows`, a generator, so no list of every row is
built. `frames.csv` is written from the frames directly: each distinct stats
value is formatted into its row tail once, and each row is the frame index
and UE id put before that tail.

A run applies its seed and legacy overrides to the scenario once, and
`run.log` echoes that scenario as run, effective seed and mode included. It is
the one statement of a run's configuration: `summarize_dir` parses it back.
"""
from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

from . import e2
from .core import FRAME_MS
from .ran import FrameReport, InvariantError, RanCell, UeFrameStats
from .ric import AuditLog, Router, Sdl, XappContext, XappRegistry
from .scenario import Scenario, parse_scenario, resolved_lines
from .xapps.auth import AuthConfig, AuthXapp
from .xapps.intrusion import (
    FprEstimate,
    IntrusionConfig,
    IntrusionXapp,
    ProfileModel,
    build_profile,
    estimate_fpr,
    warmup_history,
    write_fpr_csv,
)
from .xapps.slicing import SlicingConfig, SlicingXapp

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


def _profile_model(spec, report_period_ms: int) -> ProfileModel:
    return ProfileModel(
        ue=spec.ue,
        gauss_fields={
            "snr_db": (spec.radio.snr_mean_db, spec.radio.snr_std_db),
            "cqi": (spec.radio.cqi_mean, spec.radio.cqi_std),
            "tx_power_dbm": (spec.radio.tx_power_mean_dbm, spec.radio.tx_power_std_dbm),
        },
        rate_lo_mbps=spec.profile_rate_lo_mbps,
        rate_hi_mbps=spec.profile_rate_hi_mbps,
        packet_size_bytes=spec.traffic.packet_size_bytes,
        report_period_ms=report_period_ms,
    )


def run(
    sc: Scenario,
    out_dir: str | Path | None = None,
    legacy: bool = False,
    seed: int | None = None,
) -> RunResult:
    sc = replace(
        sc, zero_trust=sc.zero_trust and not legacy, seed=sc.seed if seed is None else seed
    )
    secret = sc.secret()

    audit = AuditLog()
    cell = RanCell(sc.cell, secret, zero_trust=sc.zero_trust)
    cell.reauth_period_frames = sc.auth.reauth_period_frames if sc.zero_trust else 0

    router = Router(audit)
    sdl = Sdl()
    registry = XappRegistry()
    ric_outbox: list[bytes] = []

    def send_e2(kind: e2.MsgKind, body) -> None:
        ric_outbox.append(e2.encode(cell.conn.make("ric", kind, body)))

    auth_x = intr_x = slic_x = None
    if sc.zero_trust:
        ctx = XappContext(router=router, sdl=sdl, audit=audit, send_e2=send_e2)
        auth_x = AuthXapp(
            AuthConfig(
                secret=secret,
                credentials={u.ue: (u.credential,) for u in sc.ues},
                ran_credential=sc.ran_credential(),
                cell_id=sc.cell.cell_id,
                e2_id=sc.cell.e2_id,
                rng_tokens=Random(f"{sc.seed}/auth/tokens"),
                verification_budget_prbs=sc.auth.verification_budget_prbs,
                verify_frames=sc.auth.verify_frames,
                reauth_period_frames=sc.auth.reauth_period_frames,
                token_expiry_frames=sc.auth.token_expiry_frames,
                usage_tolerance=sc.auth.usage_tolerance,
                per_prb_rate_mbps=sc.cell.per_prb_rate_mbps,
                report_period_frames=sc.report_period_ms // FRAME_MS,
            )
        )
        intr_x = IntrusionXapp(
            IntrusionConfig(
                detection=sc.detection,
                models={u.ue: _profile_model(u, sc.report_period_ms) for u in sc.ues},
                report_period_ms=sc.report_period_ms,
                seed=sc.seed,
            )
        )
        slic_x = SlicingXapp(
            SlicingConfig(
                total_prbs=sc.cell.total_prbs,
                restricted=sc.restricted,
                verification_budget_prbs=sc.auth.verification_budget_prbs,
                ue_policies=sc.ue_policies(),
            )
        )
        registry.register(auth_x, ctx)
        registry.register(intr_x, ctx)
        registry.register(slic_x, ctx)
        cell.connect(sc.ran_credential())

    def pump(frame: int) -> None:
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

    frames: list[FrameReport] = []
    for f in range(sc.duration_frames):
        router.frame = f
        registry.frame_boundary(f)
        for spec in sc.ues:
            if spec.attach_frame == f:
                token = auth_x.provision(spec.ue) if sc.zero_trust else None
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

    ue_order = [u.ue for u in sc.ues]
    summary = summarize_rows(
        frames_to_rows(frames, ue_order), audit.entries, sc, sc.latency_threshold_ms
    )

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
    (frame, ue, served_bits, queue_bytes, latency_ms, auth_state, slice_id)."""
    for report in frames:
        f = report.frame_index
        per_ue = report.per_ue
        for ue in ue_order:
            stats = per_ue.get(ue)
            if stats is not None:
                yield (f, ue, *stats)


def summarize_rows(
    rows: Iterable[tuple], audit_entries: list[dict], sc: Scenario, latency_threshold_ms: int
) -> RunSummary:
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
    # ue -> [bits, frames] per window, each a contiguous frame range: pre-detection
    # [0, pre_end), post-isolation [post_start, duration) and the whole run
    windows: dict[int, list[list[int]]] = {}
    for f, ue, served_bits, _, latency_ms, _, _ in rows:
        if ue in legit and latency_ms is not None:
            # As frames.csv stores it (round() gives the same float as f"{x:.3f}"),
            # so summarizing a run directory gives back the in-memory summary.
            latency_ms = round(latency_ms, 3)
            peak = max(peak, latency_ms)
            if latency_ms > latency_threshold_ms:
                exceed_frames.add(f)
        if ue not in windows:
            windows[ue] = [[0, 0], [0, 0], [0, 0]]
        pre, post, whole = windows[ue]
        if f < pre_end:
            pre[0] += served_bits
            pre[1] += 1
        if f >= post_start:
            post[0] += served_bits
            post[1] += 1
        whole[0] += served_bits
        whole[1] += 1

    def mean_mbps(acc: list[int]) -> float | None:
        bits, frames = acc
        return bits / frames / (FRAME_MS * 1000) if frames else None  # bits per frame -> Mbps

    per_ue: dict[int, dict] = {}
    for ue in sorted(windows):
        pre, post, whole = windows[ue]
        per_ue[ue] = {
            "legitimate": ue in legit,
            "pre_detection_mbps": mean_mbps(pre),
            "post_isolation_mbps": mean_mbps(post),
            "mean_mbps": mean_mbps(whole),
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
    ue_order = [u.ue for u in result.scenario.ues]
    tails: dict[UeFrameStats, str] = {}  # each distinct stats value, formatted once
    with open(out / "frames.csv", "w", newline="") as fh:
        write = fh.write
        write(FRAMES_CSV_HEADER + "\n")
        for report in result.frames:
            f = report.frame_index
            per_ue = report.per_ue
            for ue in ue_order:
                stats = per_ue.get(ue)
                if stats is not None:
                    tail = tails.get(stats)
                    if tail is None:
                        tail = tails[stats] = _row_tail(stats)
                    write(f"{f},{ue},{tail}")
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
    rows = []
    with open(out / "frames.csv", newline="") as fh:
        records = csv.reader(fh)
        next(records, None)  # the header
        for f, ue, bits, queue_bytes, lat, state, sid in records:
            rows.append(
                (int(f), int(ue), int(bits), int(queue_bytes), float(lat) if lat else None,
                 state, int(sid) if sid else None)
            )
    audit_entries = []
    audit_path = out / "audit.jsonl"
    if audit_path.exists():
        with open(audit_path) as fh:
            audit_entries = [json.loads(line) for line in fh if line.strip()]
    threshold = sc.latency_threshold_ms if latency_threshold_ms is None else latency_threshold_ms
    summary = summarize_rows(rows, audit_entries, sc, threshold)
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
    model = _profile_model(spec, sc.report_period_ms)
    rng = Random(f"{seed}/ue{spec.ue}/warmup")
    profile = build_profile(spec.ue, warmup_history(model, sc.detection, rng), sc.detection)
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
