"""Behavior profiling and windowed anomaly detection over KPM reports.

Profiles are built offline from benign warm-up traces and loaded when the
xApp starts, one per UE of the scenario, each drawn from that UE's radio,
profile rate band and packet size. The accepted range per field is
mean +/- z_sigma * std, with the throughput range pinned by scenario policy
instead. The decision statistic is the mean of each field over the last
up-to-window_n reports: larger windows smooth benign excursions, which is
what drives the false positive rate down as more reports accumulate.

`assess` reads a list of at most window_n reports in place and slices only
a longer one. Each field's mean adds the window's values left to right from
0.0, one `r[i]` read per report, never `sum()`, which compensates from
Python 3.12. A `Verdict` holds its offending fields once: `flagged` is a
property, true iff some field offends, so no verdict can contradict itself.

`warmup_history` draws each warm-up report straight from `rng.random()`
with the arithmetic of `Random.uniform` and `Random.gauss`, in this order:
one rate uniform per frame of the report period, the snr_db, cqi and
tx_power_dbm normals, then the throughput uniform. Three normals a report
split every other Box-Muller pair across two reports, so the loop takes
`gauss`'s cached normal from `rng.gauss_next` and writes it back. Its
reference, one `rng.uniform`/`rng.gauss` call per draw, lives in the tests.

`estimate_fpr` measures the false-positive rate on benign windows drawn
from a profile. Each report takes five `random()` values in order: one
Box-Muller pair for snr_db and cqi, a second for tx_packets and
tx_power_dbm, and a uniform for the throughput. It equals
`profile_generated_report` draw for draw.

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
as a JSON list on every report. A report's text is one format, `%d` and
`%r` over its fields, when they are plain ints and finite floats, and
`json.dumps(report._asdict())`, which the format equals, otherwise. The
xApp decodes the stored window again only when the SDL holds bytes the
xApp did not write (`ric.SdlWindow`).
"""
from __future__ import annotations

import json
import math
from math import isfinite
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple

from .. import e2
from ..core import FRAME_MS, KPM_FIELDS, BehaviorProfile, FieldStats, KPMReport, UeId, ordered_sum
from ..e2 import MsgKind
from ..ric import InternalMessage, SdlWindow, Xapp, XappContext
from ..scenario import DetectionConfig, Scenario, UeSpec

NS_PROFILES = "profiles"

KIND_VERDICT = "intrusion.verdict"

TRAFFIC_FIELDS = ("tx_packets", "throughput_mbps")


class InsufficientDataError(ValueError):
    """Profile building needs at least two reports."""


class NoVerdictError(ValueError):
    """Assessment needs at least one report."""


class Verdict(NamedTuple):
    ue: UeId
    offending: tuple[tuple[str, float, tuple[float, float]], ...]  # (field, mean, (lo, hi))
    window_used: int

    @property
    def flagged(self) -> bool:
        return bool(self.offending)


def _sample_stats(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = ordered_sum(values) / n
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / (n - 1))


def build_profile(ue: UeId, history: list[KPMReport], config: DetectionConfig) -> BehaviorProfile:
    """Per-field sample mean/std over benign history, banded at z_sigma.

    Each field's column is summed as it stands: float + int rounds an int
    as float() does.
    """
    if len(history) < 2:
        raise InsufficientDataError(f"need >= 2 reports to profile, got {len(history)}")
    columns = dict(zip(KPMReport._fields, zip(*history)))
    fields: dict[str, FieldStats] = {}
    for name in KPM_FIELDS:
        mean, std = _sample_stats(columns[name])
        if name == "throughput_mbps":
            lo, hi = config.rate_lo_mbps, config.rate_hi_mbps
        else:
            lo, hi = mean - config.z_sigma * std, mean + config.z_sigma * std
        fields[name] = FieldStats(
            mean=mean, std=std, lo=lo, hi=hi, flag_low=name not in TRAFFIC_FIELDS
        )
    return BehaviorProfile(ue=ue, fields=fields)


_FIELD_INDEX = {name: i for i, name in enumerate(KPMReport._fields)}


def assess(profile: BehaviorProfile, reports: list[KPMReport], config: DetectionConfig) -> Verdict:
    """Flag iff any field's window mean falls strictly outside its range.

    The window is the last `config.window_n` reports; a shorter list is read
    in place, not copied. Each mean adds the window's values left to right
    from 0.0, reading the report tuples by field index.
    """
    n = len(reports)
    if not n:
        raise NoVerdictError("no reports to assess")
    window = reports
    if n > config.window_n:
        n = config.window_n
        window = reports[-n:]
    offending = ()
    for name, stats in profile.fields.items():
        i = _FIELD_INDEX[name]
        total = 0.0
        for r in window:
            total += r[i]  # float + int rounds the int as float() does
        mean = total / n
        if mean > stats.hi or (stats.flag_low and mean < stats.lo):
            offending += ((name, mean, (stats.lo, stats.hi)),)
    return Verdict(profile.ue, offending, n)


# ---- benign generative model -----------------------------------------------


def warmup_history(
    spec: UeSpec, report_period_ms: int, config: DetectionConfig, rng: Random
) -> list[KPMReport]:
    """`config.warmup_reports` benign reports, seqs 1, 2, ..., for the UE of
    `spec`: its radio Gaussians, its profile rate band, and its packet size.

    Leaves every report and `rng`'s state as one `rng.uniform`/`rng.gauss`
    call per draw would; the draw order is in the module docstring.
    """
    radio = spec.radio
    snr_mean, snr_std = radio.snr_mean_db, radio.snr_std_db
    cqi_mean, cqi_std = radio.cqi_mean, radio.cqi_std
    pow_mean, pow_std = radio.tx_power_mean_dbm, radio.tx_power_std_dbm
    ue = spec.ue
    rate_lo = spec.profile_rate_lo_mbps
    rate_span = spec.profile_rate_hi_mbps - rate_lo
    bits_per_mbps = FRAME_MS * 1000  # bits one frame carries at 1 Mbps
    frames = range(report_period_ms // FRAME_MS)
    pkt_bits = spec.traffic.packet_size_bytes * 8
    random, tau, sqrt, log, cos, sin = rng.random, math.tau, math.sqrt, math.log, math.cos, math.sin
    carried = rng.gauss_next
    history = []
    for seq in range(1, config.warmup_reports + 1):
        total_bits = 0.0
        for _ in frames:
            total_bits += (rate_lo + rate_span * random()) * bits_per_mbps
        if carried is None:  # snr and cqi share a pair; tx_power opens the next
            x = random() * tau
            g = sqrt(-2.0 * log(1.0 - random()))
            snr_z, cqi_z = cos(x) * g, sin(x) * g
            x = random() * tau
            g = sqrt(-2.0 * log(1.0 - random()))
            pow_z, carried = cos(x) * g, sin(x) * g
        else:  # snr takes the carried normal; cqi and tx_power share a pair
            x = random() * tau
            g = sqrt(-2.0 * log(1.0 - random()))
            snr_z, cqi_z, pow_z, carried = carried, cos(x) * g, sin(x) * g, None
        cqi = round(cqi_mean + cqi_z * cqi_std)
        if cqi < 0:
            cqi = 0
        elif cqi > 15:
            cqi = 15
        pkts = round(total_bits / pkt_bits)
        if pkts < 0:
            pkts = 0
        history.append(KPMReport(  # positional, in field order
            ue, 0, seq, snr_mean + snr_z * snr_std, cqi, pkts, pow_mean + pow_z * pow_std,
            rate_lo + rate_span * random(),
        ))
    rng.gauss_next = carried
    return history


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


def _benign_windows(
    profile: BehaviorProfile, window_n: int, rng: Random, throughput_range: tuple[float, float]
) -> Iterator[list[tuple]]:
    """Endless benign windows of window_n reports, as plain tuples in KPMReport field order.

    Each report is `profile_generated_report(profile, seq, rng, throughput_range)`
    draw for draw, with `Random.gauss`'s own arithmetic inlined. A report's
    four normals are two whole Box-Muller pairs, (snr_db, cqi) then
    (tx_packets, tx_power_dbm), so `gauss` would never carry a cached normal
    from one report into the next; the fifth `random()` gives the throughput.
    """
    f = profile.fields
    ue = profile.ue
    snr_mean, snr_std = f["snr_db"].mean, f["snr_db"].std
    cqi_mean, cqi_std = f["cqi"].mean, f["cqi"].std
    pkt_mean, pkt_std = f["tx_packets"].mean, f["tx_packets"].std
    pow_mean, pow_std = f["tx_power_dbm"].mean, f["tx_power_dbm"].std
    rate_lo, rate_hi = throughput_range
    rate_span = rate_hi - rate_lo
    random, tau, sqrt, log, cos, sin = rng.random, math.tau, math.sqrt, math.log, math.cos, math.sin
    seqs = range(1, window_n + 1)
    while True:
        window = []
        for seq in seqs:
            x = random() * tau
            g = sqrt(-2.0 * log(1.0 - random()))
            snr = snr_mean + cos(x) * g * snr_std
            cqi = round(cqi_mean + sin(x) * g * cqi_std)
            if cqi < 0:
                cqi = 0
            elif cqi > 15:
                cqi = 15
            x = random() * tau
            g = sqrt(-2.0 * log(1.0 - random()))
            pkts = round(pkt_mean + cos(x) * g * pkt_std)
            if pkts < 0:
                pkts = 0
            power = pow_mean + sin(x) * g * pow_std
            window.append((ue, 0, seq, snr, cqi, pkts, power, rate_lo + rate_span * random()))
        yield window


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
    config: DetectionConfig,
    throughput_range: tuple[float, float],
) -> FprEstimate:
    """Monte Carlo false-positive rate of assess() on benign windows.

    Draws `trials` windows of window_n reports from the profile's generative
    model (Gaussian per field, throughput uniform on the given range) and
    returns the flagged fraction with a 95% Wilson interval. Deterministic
    for a given seed: each window size draws from its own
    `Random(f"fpr/{seed}/{window_n}")`, five `random()` values per report
    (snr_db and cqi, tx_packets and tx_power_dbm, throughput), and every
    report equals `profile_generated_report`'s draw for draw.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    # Every trial assesses a full window, so no min_reports gate applies.
    cfg = replace(config, window_n=window_n, min_reports_before_decision=1)
    windows = _benign_windows(profile, window_n, Random(f"fpr/{seed}/{window_n}"), throughput_range)
    flagged = 0
    for _ in range(trials):
        if assess(profile, next(windows), cfg).flagged:
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
# The same object for a report whose fields have exactly the types below: an
# int's JSON text is `%d` and a finite float's is its repr, `%r`.
_REPORT_TYPES = (int, int, int, float, int, int, float, float)
_PLAIN_REPORT_JSON = _REPORT_JSON % ("%d", "%d", "%d", "%r", "%d", "%d", "%r", "%r")


def report_json_text(report: KPMReport) -> str:
    """`json.dumps(report._asdict())`, byte for byte, as one format.

    A report of plain ints and finite floats takes one typed format; any
    other, such as one holding NaN or a bool, is `json.dumps` itself.
    """
    # The floats sum to a finite value only if each is finite; an overflow
    # takes the general path, which is exact too.
    if tuple(map(type, report)) == _REPORT_TYPES and isfinite(report[3] + report[6] + report[7]):
        return _PLAIN_REPORT_JSON % report
    return json.dumps(report._asdict())


class IntrusionXapp(Xapp):
    name = "intrusion"

    def __init__(self, sc: Scenario, ctx: XappContext) -> None:
        super().__init__(ctx)
        self.sc = sc
        self.profiles: dict[UeId, BehaviorProfile] = {}
        self.flagged: set[UeId] = set()  # UEs whose latest verdict flagged
        self._windows = SdlWindow(
            ctx.sdl, NS_PROFILES, sc.detection.window_n,
            load=lambda d: KPMReport(**d), dump=report_json_text,
        )
        ctx.router.subscribe(
            self.name, [MsgKind.KPM_INDICATION, MsgKind.SUBSCRIPTION_ACK], self.handle
        )
        for spec in sc.ues:  # in id order, as the parser sorts them
            ue = spec.ue
            rng = Random(f"{sc.seed}/ue{ue}/warmup")
            history = warmup_history(spec, sc.report_period_ms, sc.detection, rng)
            profile = build_profile(ue, history, sc.detection)
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
        ctx.send_e2(MsgKind.SUBSCRIPTION_REQUEST, e2.SubscriptionRequestBody(sc.report_period_ms))

    def handle(self, msg: e2.E2Message) -> None:
        body = msg.body
        if not isinstance(body, e2.KpmIndicationBody):
            return
        report = body.report
        profile = self.profiles.get(report.ue)
        if profile is None:
            return
        window = self._windows.append(f"window:{report.ue}", report)
        detection = self.sc.detection
        if len(window) < detection.min_reports_before_decision:
            return
        verdict = assess(profile, window, detection)
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
