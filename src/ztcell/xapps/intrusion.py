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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from random import Random

from .. import e2
from ..core import KPM_FIELDS, BehaviorProfile, FieldStats, KPMReport, UeId
from ..e2 import MsgKind
from ..ric import InternalMessage, Xapp, XappContext

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
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
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


def assess(
    profile: BehaviorProfile,
    reports: list[KPMReport],
    config: DetectionConfig,
    ops: OpsCounter | None = None,
) -> Verdict:
    """Flag iff any field's window mean falls strictly outside its range."""
    if not reports:
        raise NoVerdictError("no reports to assess")
    window = reports[-config.window_n :]
    offending = []
    for name, stats in profile.fields.items():
        total = 0.0
        for r in window:
            total += float(getattr(r, name))
            if ops:
                ops.add()
        mean = total / len(window)
        if ops:
            ops.add()
        if mean > stats.hi or (stats.flag_low and mean < stats.lo):
            offending.append((name, mean, (stats.lo, stats.hi)))
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
    frames = model.report_period_ms // 10
    total_bits = sum(
        rng.uniform(model.rate_lo_mbps, model.rate_hi_mbps) * 10_000 for _ in range(frames)
    )
    pkt_bits = model.packet_size_bytes * 8
    return KPMReport(
        ue=model.ue,
        cell=0,
        seq=seq,
        snr_db=rng.gauss(snr_mean, snr_std),
        cqi=min(15, max(0, round(rng.gauss(cqi_mean, cqi_std)))),
        tx_packets=max(0, round(total_bits / pkt_bits)),
        tx_power_dbm=rng.gauss(pow_mean, pow_std),
        throughput_mbps=rng.uniform(*throughput_range),
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
    return KPMReport(
        ue=profile.ue,
        cell=0,
        seq=seq,
        snr_db=rng.gauss(f["snr_db"].mean, f["snr_db"].std),
        cqi=min(15, max(0, round(rng.gauss(f["cqi"].mean, f["cqi"].std)))),
        tx_packets=max(0, round(rng.gauss(f["tx_packets"].mean, f["tx_packets"].std))),
        tx_power_dbm=rng.gauss(f["tx_power_dbm"].mean, f["tx_power_dbm"].std),
        throughput_mbps=rng.uniform(*throughput_range),
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
        self.verdicts: list[Verdict] = []

    def on_init(self, ctx: XappContext) -> None:
        super().on_init(ctx)
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
        ctx.send_e2(
            MsgKind.SUBSCRIPTION_REQUEST,
            e2.SubscriptionRequestBody(self.cfg.report_period_ms, None),
        )

    def _window_key(self, ue: UeId) -> str:
        return f"window:{ue}"

    def _load_window(self, ue: UeId) -> list[KPMReport]:
        entry = self.ctx.sdl.get(NS_PROFILES, self._window_key(ue))
        if entry is None:
            return []
        return [KPMReport(**d) for d in json.loads(entry[0])]

    def _store_window(self, ue: UeId, window: list[KPMReport]) -> None:
        payload = [
            {
                "ue": r.ue,
                "cell": r.cell,
                "seq": r.seq,
                "snr_db": r.snr_db,
                "cqi": r.cqi,
                "tx_packets": r.tx_packets,
                "tx_power_dbm": r.tx_power_dbm,
                "throughput_mbps": r.throughput_mbps,
            }
            for r in window
        ]
        self.ctx.sdl.put(NS_PROFILES, self._window_key(ue), json.dumps(payload).encode())

    def handle(self, msg: e2.E2Message) -> None:
        body = msg.body
        if not isinstance(body, e2.KpmIndicationBody):
            return
        report = body.report
        profile = self.profiles.get(report.ue)
        if profile is None:
            return
        window = self._load_window(report.ue)
        window.append(report)
        window = window[-self.cfg.detection.window_n :]
        self._store_window(report.ue, window)
        if len(window) < self.cfg.detection.min_reports_before_decision:
            return
        verdict = assess(profile, window, self.cfg.detection, self.ops)
        if verdict.flagged:
            self.verdicts.append(verdict)
            worst = ", ".join(
                f"{name} mean {mean:.2f} outside [{lo:.2f}, {hi:.2f}]"
                for name, mean, (lo, hi) in verdict.offending
            )
            self.ctx.audit.record(
                self.frame * 10, self.name, "intrusion_flag",
                f"ue {report.ue}: {worst}", frame=self.frame, ue=report.ue,
            )
            self.ctx.router.route(InternalMessage(KIND_VERDICT, self.name, verdict))
