"""Behavior profiling and windowed anomaly detection over KPM reports.

Profiles are built offline from benign warm-up traces and loaded when the
xApp starts; the accepted range per field is mean +/- z_sigma * std, with
the throughput range pinned by scenario policy instead. The decision
statistic is the mean of each field over the last up-to-window_n reports:
larger windows smooth benign excursions, which is what drives the false
positive rate down as more reports accumulate.

Traffic-volume fields (tx_packets, throughput_mbps) only flag when the
window mean exceeds the upper bound: the slicer itself pushes served volume
down for verification and restricted slices, so a low value is the network's
own doing, never evidence of intrusion. Radio-quality fields flag on
deviation to either side.

Every report is assessed, but a verdict is routed at its onset: the xApp
writes one `intrusion_flag` record and sends the slicer one verdict when a
UE's verdict turns from not flagged to flagged. An unflagged verdict clears
the UE, so a later onset is routed again.

The xApp holds each UE's window in memory and writes it through to the SDL
as a JSON list on every report. A report's text is one format over its
fields, each written by `ric.json_text`, and equals
`json.dumps(report._asdict())`. The xApp decodes the stored window again
only when the SDL holds bytes the xApp did not write (`ric.SdlWindow`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from random import Random

from .. import e2
from ..core import FRAME_MS, KPM_FIELDS, BehaviorProfile, FieldStats, KPMReport, UeId, ordered_sum
from ..e2 import MsgKind
from ..ric import InternalMessage, SdlWindow, Xapp, XappContext, json_text

NS_PROFILES = "profiles"

KIND_VERDICT = "intrusion.verdict"

TRAFFIC_FIELDS = ("tx_packets", "throughput_mbps")


class InsufficientDataError(ValueError):
    """Profile building needs at least two reports."""


class NoVerdictError(ValueError):
    """Assessment needs at least one report."""


@dataclass(frozen=True)
class DetectionConfig:
    window_n: int = 10
    rate_lo_mbps: float = 10.0
    rate_hi_mbps: float = 20.0
    z_sigma: float = 3.0
    min_reports_before_decision: int = 1
    warmup_reports: int = 100

    def __post_init__(self) -> None:
        if self.window_n < 1:
            raise ValueError("window_n must be >= 1")
        if self.rate_lo_mbps >= self.rate_hi_mbps:
            raise ValueError("rate range needs lo < hi")
        if self.z_sigma <= 0:
            raise ValueError("z_sigma must be > 0")


@dataclass(frozen=True)
class Verdict:
    ue: UeId
    flagged: bool
    offending: tuple[tuple[str, float, tuple[float, float]], ...]
    window_used: int

    def __post_init__(self) -> None:
        if self.flagged != bool(self.offending):
            raise ValueError("flagged iff offending fields nonempty")


class OpsCounter:
    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


def _sample_stats(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = ordered_sum(values) / n
    var = ordered_sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def build_profile(ue: UeId, history: list[KPMReport], config: DetectionConfig) -> BehaviorProfile:
    """Per-field sample mean/std over benign history, banded at z_sigma."""
    if len(history) < 2:
        raise InsufficientDataError(f"need >= 2 reports to profile, got {len(history)}")
    fields: dict[str, FieldStats] = {}
    for name in KPM_FIELDS:
        values = [float(getattr(r, name)) for r in history]
        mean, std = _sample_stats(values)
        if name == "throughput_mbps":
            lo, hi = config.rate_lo_mbps, config.rate_hi_mbps
        else:
            lo, hi = mean - config.z_sigma * std, mean + config.z_sigma * std
        fields[name] = FieldStats(
            mean=mean, std=std, lo=lo, hi=hi, flag_low=name not in TRAFFIC_FIELDS
        )
    return BehaviorProfile(ue=ue, fields=fields)


_FIELD_INDEX = {name: i for i, name in enumerate(KPMReport._fields)}


def assess(
    profile: BehaviorProfile,
    reports: list[KPMReport],
    config: DetectionConfig,
    ops: OpsCounter | None = None,
) -> Verdict:
    """Flag iff any field's window mean falls strictly outside its range.

    Each mean adds the window's values left to right from 0.0, reading the
    report tuples by field index.
    """
    if not reports:
        raise NoVerdictError("no reports to assess")
    window = reports[-config.window_n :]
    offending = []
    for name, stats in profile.fields.items():
        i = _FIELD_INDEX[name]
        total = 0.0
        for r in window:
            total += r[i]  # float + int rounds the int as float() does
        mean = total / len(window)
        if mean > stats.hi or (stats.flag_low and mean < stats.lo):
            offending.append((name, mean, (stats.lo, stats.hi)))
    if ops is not None:
        ops.add(len(profile.fields) * (len(window) + 1))  # one per value read, one per mean
    return Verdict(
        ue=profile.ue,
        flagged=bool(offending),
        offending=tuple(offending),
        window_used=len(window),
    )


# ---- benign generative model -----------------------------------------------


@dataclass(frozen=True)
class ProfileModel:
    """Generator for benign warm-up traces: radio Gaussians plus a rate band."""

    ue: UeId
    gauss_fields: dict[str, tuple[float, float]]  # snr_db/cqi/tx_power_dbm -> (mean, std)
    rate_lo_mbps: float
    rate_hi_mbps: float
    packet_size_bytes: int = 1500
    report_period_ms: int = 100


def synth_benign_report(
    model: ProfileModel, seq: int, rng: Random, throughput_range: tuple[float, float]
) -> KPMReport:
    snr_mean, snr_std = model.gauss_fields["snr_db"]
    cqi_mean, cqi_std = model.gauss_fields["cqi"]
    pow_mean, pow_std = model.gauss_fields["tx_power_dbm"]
    frames = model.report_period_ms // FRAME_MS
    bits_per_mbps = FRAME_MS * 1000  # bits one frame carries at 1 Mbps
    total_bits = ordered_sum(
        rng.uniform(model.rate_lo_mbps, model.rate_hi_mbps) * bits_per_mbps for _ in range(frames)
    )
    pkt_bits = model.packet_size_bytes * 8
    return KPMReport(  # positional, in field order, which is also the draw order
        model.ue, 0, seq,
        rng.gauss(snr_mean, snr_std),
        min(15, max(0, round(rng.gauss(cqi_mean, cqi_std)))),
        max(0, round(total_bits / pkt_bits)),
        rng.gauss(pow_mean, pow_std),
        rng.uniform(*throughput_range),
    )


def warmup_history(model: ProfileModel, config: DetectionConfig, rng: Random) -> list[KPMReport]:
    span = (model.rate_lo_mbps, model.rate_hi_mbps)
    return [
        synth_benign_report(model, seq, rng, span) for seq in range(1, config.warmup_reports + 1)
    ]


def profile_generated_report(
    profile: BehaviorProfile, seq: int, rng: Random, throughput_range: tuple[float, float]
) -> KPMReport:
    """Draw one benign report from the profile's own generative model."""
    f = profile.fields
    return KPMReport(  # positional, in field order, which is also the draw order
        profile.ue, 0, seq,
        rng.gauss(f["snr_db"].mean, f["snr_db"].std),
        min(15, max(0, round(rng.gauss(f["cqi"].mean, f["cqi"].std)))),
        max(0, round(rng.gauss(f["tx_packets"].mean, f["tx_packets"].std))),
        rng.gauss(f["tx_power_dbm"].mean, f["tx_power_dbm"].std),
        rng.uniform(*throughput_range),
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class FprEstimate:
    window_n: int
    trials: int
    fpr: float
    ci_low: float
    ci_high: float


def estimate_fpr(
    profile: BehaviorProfile,
    window_n: int,
    trials: int,
    seed: int | str,
    config: DetectionConfig | None = None,
    throughput_range: tuple[float, float] | None = None,
) -> FprEstimate:
    """Monte Carlo false-positive rate of assess() on benign windows.

    Draws `trials` windows of window_n reports from the profile's generative
    model (Gaussian per field, throughput uniform on the given range) and
    returns the flagged fraction with a 95% Wilson interval. Deterministic
    for a given seed.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    cfg = replace(config or DetectionConfig(), window_n=window_n)
    span = throughput_range or (
        profile.fields["throughput_mbps"].lo,
        profile.fields["throughput_mbps"].hi,
    )
    rng = Random(f"fpr/{seed}/{window_n}")
    flagged = 0
    for _ in range(trials):
        window = [
            profile_generated_report(profile, seq, rng, span) for seq in range(1, window_n + 1)
        ]
        if assess(profile, window, cfg).flagged:
            flagged += 1
    lo, hi = wilson_interval(flagged, trials)
    return FprEstimate(window_n=window_n, trials=trials, fpr=flagged / trials, ci_low=lo, ci_high=hi)


def write_fpr_csv(estimates: list[FprEstimate], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("window_n,trials,fpr_estimate,ci_low,ci_high\n")
        for est in estimates:
            fh.write(
                f"{est.window_n},{est.trials},{est.fpr:.6f},{est.ci_low:.6f},{est.ci_high:.6f}\n"
            )


# ---- the xApp ----------------------------------------------------------------

# A report's JSON object: its fields in order, each value's text left open.
_REPORT_JSON = "{" + ", ".join(f'"{name}": %s' for name in KPMReport._fields) + "}"


def report_json_text(report: KPMReport) -> str:
    """`json.dumps(report._asdict())`, byte for byte, as one format over `json_text`s."""
    return _REPORT_JSON % tuple(map(json_text, report))


@dataclass
class IntrusionConfig:
    detection: DetectionConfig
    models: dict[UeId, ProfileModel]
    report_period_ms: int = 100
    seed: int | str = 0


class IntrusionXapp(Xapp):
    name = "intrusion"

    def __init__(self, config: IntrusionConfig) -> None:
        super().__init__()
        self.cfg = config
        self.profiles: dict[UeId, BehaviorProfile] = {}
        self.ops = OpsCounter()
        self.flagged: set[UeId] = set()  # UEs whose latest verdict flagged
        self._windows: SdlWindow | None = None

    def on_init(self, ctx: XappContext) -> None:
        super().on_init(ctx)
        self._windows = SdlWindow(
            ctx.sdl, NS_PROFILES, self.cfg.detection.window_n,
            load=lambda d: KPMReport(**d), dump=report_json_text,
        )
        ctx.router.subscribe(
            self.name, [MsgKind.KPM_INDICATION, MsgKind.SUBSCRIPTION_ACK], self.handle
        )
        for ue in sorted(self.cfg.models):
            model = self.cfg.models[ue]
            rng = Random(f"{self.cfg.seed}/ue{ue}/warmup")
            profile = build_profile(ue, warmup_history(model, self.cfg.detection, rng), self.cfg.detection)
            self.profiles[ue] = profile
            ctx.sdl.put(
                NS_PROFILES,
                f"profile:{ue}",
                json.dumps(
                    {
                        name: {"mean": s.mean, "std": s.std, "lo": s.lo, "hi": s.hi}
                        for name, s in profile.fields.items()
                    }
                ).encode(),
            )
        ctx.send_e2(MsgKind.SUBSCRIPTION_REQUEST, e2.SubscriptionRequestBody(self.cfg.report_period_ms))

    def handle(self, msg: e2.E2Message) -> None:
        body = msg.body
        if not isinstance(body, e2.KpmIndicationBody):
            return
        report = body.report
        profile = self.profiles.get(report.ue)
        if profile is None:
            return
        window = self._windows.append(f"window:{report.ue}", report)
        if len(window) < self.cfg.detection.min_reports_before_decision:
            return
        verdict = assess(profile, window, self.cfg.detection, self.ops)
        if not verdict.flagged:
            self.flagged.discard(report.ue)
        elif report.ue not in self.flagged:
            self.flagged.add(report.ue)
            worst = ", ".join(
                f"{name} mean {mean:.2f} outside [{lo:.2f}, {hi:.2f}]"
                for name, mean, (lo, hi) in verdict.offending
            )
            self.record("intrusion_flag", f"ue {report.ue}: {worst}", ue=report.ue)
            self.ctx.router.route(InternalMessage(KIND_VERDICT, verdict))
