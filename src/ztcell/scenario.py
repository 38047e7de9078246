"""Scenario configuration: a flat `section.key = value` text format, and the
frozen records it builds.

This module is the one home of every setting and its default: `Scenario`
and its sections `CellConfig`, `DetectionConfig` and `AuthParams`, and
`UeSpec` with its `TrafficModel` and `RadioProfile`. The parser is the one
gate for settings. The records check nothing themselves: one built in code
is trusted like any other internal value. The module imports nothing of the
package but `core`, so the cell and the xApps import the records from here.

Two ordered tables, `_TOP_KEYS` and `_UE_KEYS` (`ue.<id>.*`), state each key
once: the section of `Scenario` or `UeSpec` it sets, its field, its type and
its domain (a least value, a most value, or strictly positive). Parsing,
defaults and the run-log echo all read them:

- A value outside its key's domain is rejected. A rule that joins keys is
  stated in `_build` or `_build_ue`. Every such error reads
  `<key>: must be ..., got <value>`.
- An omitted key gets its record field's default. Three are derived instead:
  the secret seed from the seed, the fpr and profile rate bands from the
  detection band, and each UE's credential from the secret seed.
- `resolved_lines` echoes every effective value in table order, which is
  `run.log` order.
- A new key is one table entry, beside the record field it sets.

Unknown keys, values of the wrong type and floats that are not finite are
rejected with their line number. See scenarios/example_annotated.scn for
every key and its range.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .core import FRAME_MS, CellId, E2Id, SlicePriority, UeId


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class CellConfig:
    total_prbs: int = 100
    per_prb_rate_mbps: float = 0.24
    cell_id: CellId = 1
    e2_id: E2Id = 1

    @property
    def prb_bits_per_frame(self) -> int:
        # 1 Mbps over one 10 ms frame is 10_000 bits.
        return round(self.per_prb_rate_mbps * FRAME_MS * 1000)

    @property
    def cell_bits_per_frame(self) -> int:
        return self.total_prbs * self.prb_bits_per_frame


@dataclass(frozen=True)
class DetectionConfig:
    window_n: int = 10
    rate_lo_mbps: float = 10.0
    rate_hi_mbps: float = 20.0
    z_sigma: float = 4.0
    min_reports_before_decision: int = 1
    warmup_reports: int = 100


@dataclass(frozen=True)
class AuthParams:
    verification_budget_prbs: int = 2
    verify_frames: int = 2
    reauth_period_frames: int = 500
    token_expiry_frames: int = 1000
    usage_tolerance: float = 0.10
    secret_seed: str = ""  # "": derived from the scenario seed


@dataclass(frozen=True)
class TrafficModel:
    kind: str  # cbr | uniform_rate | flood | idle
    rate_mbps: float = 0.0
    lo_mbps: float = 0.0
    hi_mbps: float = 0.0
    onset_frame: int = 0  # flood only: silent before this frame
    packet_size_bytes: int = 1500


@dataclass(frozen=True)
class RadioProfile:
    snr_mean_db: float = 25.0
    snr_std_db: float = 2.0
    cqi_mean: float = 12.0
    cqi_std: float = 1.5
    tx_power_mean_dbm: float = 20.0
    tx_power_std_dbm: float = 1.0


@dataclass(frozen=True)
class UeSpec:
    ue: UeId
    traffic: TrafficModel
    radio: RadioProfile = field(default_factory=RadioProfile)
    credentials: str = "valid"  # valid | wrong_token | wrong_credential
    credential: bytes = b""  # b"": derived from the secret seed
    attach_frame: int = 0
    priority: SlicePriority = SlicePriority.COMMERCIAL
    reserved_prbs: int = 0
    profile_rate_lo_mbps: float | None = None  # None: the detection band
    profile_rate_hi_mbps: float | None = None

    @property
    def legitimate(self) -> bool:
        return self.credentials == "valid" and self.traffic.kind != "flood"


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_frames: int
    cell: CellConfig
    detection: DetectionConfig
    auth: AuthParams
    ues: tuple[UeSpec, ...]
    seed: int = 1
    zero_trust: bool = True
    latency_threshold_ms: int = 100
    report_period_ms: int = 100
    restricted_budget_prbs: int = 1  # the highest-index PRBs isolated UEs share
    fpr_benign_rate_lo_mbps: float | None = None  # None: the detection band
    fpr_benign_rate_hi_mbps: float | None = None

    @property
    def fpr_benign_range(self) -> tuple[float, float]:
        return (self.fpr_benign_rate_lo_mbps, self.fpr_benign_rate_hi_mbps)

    def secret(self) -> bytes:
        return hashlib.sha256(f"secret/{self.auth.secret_seed}".encode()).digest()

    def ran_credential(self) -> bytes:
        return hashlib.sha256(f"rancred/{self.auth.secret_seed}".encode()).digest()[:16]


def _derive_credential(ue: UeId, secret_seed: str) -> bytes:
    return hashlib.sha256(f"cred/{ue}/{secret_seed}".encode()).digest()[:16]


# Per traffic kind, the rate keys it needs and the rate keys it does not read,
# in table order. Setting an unread key is rejected, so `resolved_lines`,
# which leaves them out, echoes every rate key a scenario set.
_KIND_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "cbr": (("rate_mbps",), ("rate_lo_mbps", "rate_hi_mbps", "onset_frame")),
    "uniform_rate": (("rate_lo_mbps", "rate_hi_mbps"), ("rate_mbps", "onset_frame")),
    "flood": (("rate_mbps",), ("rate_lo_mbps", "rate_hi_mbps")),
    "idle": ((), ("rate_mbps", "rate_lo_mbps", "rate_hi_mbps", "onset_frame")),
}
# A word-valued key's type is (noun, word -> value). The echo names a value by
# its first word, so an alias comes last: the shipped invalid-credential UE
# presents a bad token.
_TRAFFIC_KINDS = ("traffic kind", {kind: kind for kind in _KIND_KEYS})
_CREDENTIALS = ("mode", {"valid": "valid", "wrong_token": "wrong_token",
                         "wrong_credential": "wrong_credential", "invalid": "wrong_token"})
_PRIORITIES = ("priority", {"commercial": SlicePriority.COMMERCIAL,
                            "mission_critical": SlicePriority.MISSION_CRITICAL})
_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}
_PARSERS = {bool: lambda raw: _BOOL_WORDS[raw.lower()], int: int, float: float,
            bytes: bytes.fromhex, str: str}


class _Key(NamedTuple):
    """One key: the section whose field it sets (None: a field of the record
    itself), the field, the value type, and the domain of a given value."""

    section: str | None
    name: str
    type: object
    least: int | None = None
    most: int | None = None
    positive: bool = False  # > 0


_U32_MAX = 2**32 - 1  # cell ids travel as u32s on E2

# key -> its `_Key`, in run.log order.
_TOP_KEYS: dict[str, _Key] = {
    "scenario.duration_frames": _Key(None, "duration_frames", int, least=1),
    "scenario.seed": _Key(None, "seed", int),
    "scenario.zero_trust": _Key(None, "zero_trust", bool),
    "scenario.latency_threshold_ms": _Key(None, "latency_threshold_ms", int, least=0),
    "cell.total_prbs": _Key("cell", "total_prbs", int, least=1),
    "cell.per_prb_rate_mbps": _Key("cell", "per_prb_rate_mbps", float, positive=True),
    "cell.id": _Key("cell", "cell_id", int, 0, _U32_MAX),
    "cell.e2_id": _Key("cell", "e2_id", int, 0, _U32_MAX),
    "report.period_ms": _Key(None, "report_period_ms", int),
    "detection.window_n": _Key("detection", "window_n", int, least=1),
    "detection.rate_lo_mbps": _Key("detection", "rate_lo_mbps", float, least=0),
    "detection.rate_hi_mbps": _Key("detection", "rate_hi_mbps", float),
    "detection.z_sigma": _Key("detection", "z_sigma", float, positive=True),
    "detection.min_reports": _Key("detection", "min_reports_before_decision", int, least=1),
    "detection.warmup_reports": _Key("detection", "warmup_reports", int, least=2),
    "restricted.budget_prbs": _Key(None, "restricted_budget_prbs", int, 1, 5),
    "auth.verification_budget_prbs": _Key("auth", "verification_budget_prbs", int, least=1),
    "auth.verify_frames": _Key("auth", "verify_frames", int, least=0),
    "auth.reauth_period_frames": _Key("auth", "reauth_period_frames", int, least=0),
    # The token packs its lifetime into 64 bits.
    "auth.token_expiry_frames": _Key("auth", "token_expiry_frames", int, most=2**64 - 1),
    "auth.usage_tolerance": _Key("auth", "usage_tolerance", float, least=0),
    "auth.secret_seed": _Key("auth", "secret_seed", str),
    "fpr.benign_rate_lo_mbps": _Key(None, "fpr_benign_rate_lo_mbps", float, least=0),
    "fpr.benign_rate_hi_mbps": _Key(None, "fpr_benign_rate_hi_mbps", float),
}

# The same for `ue.<id>.<key>`.
_UE_KEYS: dict[str, _Key] = {
    "traffic": _Key("traffic", "kind", _TRAFFIC_KINDS),
    "rate_mbps": _Key("traffic", "rate_mbps", float, positive=True),
    "rate_lo_mbps": _Key("traffic", "lo_mbps", float, positive=True),
    "rate_hi_mbps": _Key("traffic", "hi_mbps", float),
    "onset_frame": _Key("traffic", "onset_frame", int, least=0),
    "packet_size_bytes": _Key("traffic", "packet_size_bytes", int, least=1),
    "credentials": _Key(None, "credentials", _CREDENTIALS),
    "credential": _Key(None, "credential", bytes),  # hex
    "attach_frame": _Key(None, "attach_frame", int, least=0),
    "priority": _Key(None, "priority", _PRIORITIES),
    "reserved_prbs": _Key(None, "reserved_prbs", int),
    "snr_mean_db": _Key("radio", "snr_mean_db", float),
    "snr_std_db": _Key("radio", "snr_std_db", float, least=0),
    "cqi_mean": _Key("radio", "cqi_mean", float),
    "cqi_std": _Key("radio", "cqi_std", float, least=0),
    "tx_power_mean_dbm": _Key("radio", "tx_power_mean_dbm", float),
    "tx_power_std_dbm": _Key("radio", "tx_power_std_dbm", float, least=0),
    "profile_rate_lo_mbps": _Key(None, "profile_rate_lo_mbps", float, least=0),
    "profile_rate_hi_mbps": _Key(None, "profile_rate_hi_mbps", float),
}

# section -> the record it builds; None is the object itself
_TOP_SECTIONS = {None: Scenario, "cell": CellConfig, "detection": DetectionConfig, "auth": AuthParams}
_UE_SECTIONS = {None: UeSpec, "traffic": TrafficModel, "radio": RadioProfile}


# The keys whose field has no default: a field with a default is a class attribute.
_TOP_REQUIRED, _UE_REQUIRED = (
    tuple(key for key, spec in table.items() if not hasattr(sections[spec.section], spec.name))
    for table, sections in ((_TOP_KEYS, _TOP_SECTIONS), (_UE_KEYS, _UE_SECTIONS))
)

# Every float key must stay finite once a rate in Mbps becomes bits per frame.
# That bounds each float key at about 1.8e304, far beyond any sane value.
_BITS_PER_MBPS = FRAME_MS * 1000


def _convert(raw: str, typ: object, key: str, line_no: int):
    if type(typ) is tuple:
        noun, words = typ
        if raw not in words:
            raise ScenarioError(f"{key}: unknown {noun} {raw!r}")
        return words[raw]
    try:
        value = _PARSERS[typ](raw)
    except (ValueError, KeyError):
        raise ScenarioError(f"line {line_no}: expected {typ.__name__} for {key}, got {raw!r}")
    if typ is float and not math.isfinite(value * _BITS_PER_MBPS):
        raise ScenarioError(f"line {line_no}: expected a finite float for {key}, got {raw!r}")
    return value


def parse_scenario(text: str, name: str = "<inline>") -> Scenario:
    values: dict[str, object] = {}
    ue_values: dict[int, dict[str, object]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {line_no}: expected `key = value`, got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ScenarioError(f"line {line_no}: empty value for {key}")
        parts = key.split(".")
        if parts[0] == "ue":
            if len(parts) != 3 or not parts[1].isdecimal():
                raise ScenarioError(f"line {line_no}: unknown key {key}")
            bucket, entry, table = ue_values.setdefault(int(parts[1]), {}), parts[2], _UE_KEYS
        else:
            bucket, entry, table = values, key, _TOP_KEYS
        if entry not in table:
            raise ScenarioError(f"line {line_no}: unknown key {key}")
        if entry in bucket:
            raise ScenarioError(f"line {line_no}: duplicate key {key}")
        bucket[entry] = _convert(raw, table[entry].type, key, line_no)
    return _build(values, ue_values, name)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(), name=path.stem)


def _need(holds: bool, key: str, must: str, got) -> None:
    """The one form of a domain error: `<key>: must be <must>, got <got>`."""
    if not holds:
        raise ScenarioError(f"{key}: must be {must}, got {got}")


def _need_band(lo: float, hi: float, lo_key: str, hi_key: str, lo_from: str | None) -> None:
    """`lo <= hi`, named by the key the scenario set: `lo_key`, or `hi_key`
    when the lo was inherited from the key `lo_from`."""
    if lo_from is None:
        _need(lo <= hi, lo_key, f"<= {hi_key} ({hi})", lo)
    else:
        _need(lo <= hi, hi_key, f">= {lo_key} ({lo}, from {lo_from})", hi)


def _sections(values: dict, table: dict, sections: dict, required: tuple, prefix: str):
    """The keyword arguments of the object itself, and each section's record,
    from the given values, each checked against its key's domain."""
    for key in required:
        if key not in values:
            raise ScenarioError(f"{prefix}{key}: required key missing")
    kwargs = {section: {} for section in sections}
    for key, value in values.items():
        spec = table[key]
        if spec.positive:
            _need(value > 0, prefix + key, "> 0", value)
        if spec.least is not None:
            _need(value >= spec.least, prefix + key, f">= {spec.least}", value)
        if spec.most is not None:
            _need(value <= spec.most, prefix + key, f"<= {spec.most}", value)
        kwargs[spec.section][spec.name] = value
    own = kwargs.pop(None)
    return own, {section: sections[section](**kw) for section, kw in kwargs.items()}


def _build(values: dict, ue_values: dict[int, dict], name: str) -> Scenario:
    values.setdefault("auth.secret_seed", str(values.get("scenario.seed", Scenario.seed)))
    own, configs = _sections(values, _TOP_KEYS, _TOP_SECTIONS, _TOP_REQUIRED, "")
    auth, cell, detection = configs["auth"], configs["cell"], configs["detection"]
    duration = own["duration_frames"]
    period = own.get("report_period_ms", Scenario.report_period_ms)
    _need(period >= FRAME_MS and not period % FRAME_MS, "report.period_ms",
          f"a positive multiple of {FRAME_MS}", period)
    _need(auth.verification_budget_prbs <= cell.total_prbs, "auth.verification_budget_prbs",
          f"<= cell.total_prbs ({cell.total_prbs})", auth.verification_budget_prbs)
    # A token that expires before its verification completes denies every UE.
    _need(auth.token_expiry_frames > auth.verify_frames, "auth.token_expiry_frames",
          f"> auth.verify_frames ({auth.verify_frames})", auth.token_expiry_frames)
    _need(detection.rate_lo_mbps < detection.rate_hi_mbps, "detection.rate_lo_mbps",
          f"< detection.rate_hi_mbps ({detection.rate_hi_mbps})", detection.rate_lo_mbps)
    # A window never holds more than window_n reports, so a larger
    # min_reports would never let a verdict be made.
    _need(detection.min_reports_before_decision <= detection.window_n, "detection.min_reports",
          f"<= detection.window_n ({detection.window_n})", detection.min_reports_before_decision)
    lo_from = None if "fpr_benign_rate_lo_mbps" in own else "detection.rate_lo_mbps"
    lo = own.setdefault("fpr_benign_rate_lo_mbps", detection.rate_lo_mbps)  # the detection band
    hi = own.setdefault("fpr_benign_rate_hi_mbps", detection.rate_hi_mbps)
    _need_band(lo, hi, "fpr.benign_rate_lo_mbps", "fpr.benign_rate_hi_mbps", lo_from)

    if not ue_values:
        raise ScenarioError("ue.*: at least one UE is required")
    ues = []
    free = cell.total_prbs  # the PRBs no reservation holds
    for ue_id in sorted(ue_values):
        if ue_id < 1:
            raise ScenarioError(f"ue.{ue_id}: UE ids start at 1 (0 is reserved)")
        ue = _build_ue(ue_id, ue_values[ue_id], duration, period, detection, auth.secret_seed)
        _need(ue.reserved_prbs <= free, f"ue.{ue_id}.reserved_prbs",
              f"<= {free}, what earlier reservations leave of cell.total_prbs ({cell.total_prbs})",
              ue.reserved_prbs)
        free -= ue.reserved_prbs
        ues.append(ue)
    return Scenario(name=name, ues=tuple(ues), **own, **configs)


def _build_ue(
    ue_id: int, vals: dict, duration: int, period: int, detection: DetectionConfig,
    secret_seed: str,
) -> UeSpec:
    prefix = f"ue.{ue_id}."
    # The key that set the profile band's hi: the UE's own, or the detection band's.
    hi_key = (prefix + "profile_rate_hi_mbps" if "profile_rate_hi_mbps" in vals
              else "detection.rate_hi_mbps")
    lo_from = None if "profile_rate_lo_mbps" in vals else "detection.rate_lo_mbps"
    vals.setdefault("profile_rate_lo_mbps", detection.rate_lo_mbps)  # the detection band
    vals.setdefault("profile_rate_hi_mbps", detection.rate_hi_mbps)
    vals.setdefault("credential", _derive_credential(ue_id, secret_seed))
    own, configs = _sections(vals, _UE_KEYS, _UE_SECTIONS, _UE_REQUIRED, prefix)
    ue = UeSpec(ue=ue_id, **own, **configs)
    traffic = ue.traffic
    needed, unread = _KIND_KEYS[traffic.kind]
    for key in needed:
        if key not in vals:
            raise ScenarioError(f"{prefix}{key}: required key missing for traffic {traffic.kind}")
    for key in unread:
        if key in vals:
            raise ScenarioError(f"{prefix}{key}: traffic {traffic.kind} does not use this key")
    # A rate the kind does not read is 0.
    _need(traffic.lo_mbps <= traffic.hi_mbps, prefix + "rate_lo_mbps",
          f"<= {prefix}rate_hi_mbps ({traffic.hi_mbps})", traffic.lo_mbps)
    _need(ue.attach_frame < duration, prefix + "attach_frame",
          f"< scenario.duration_frames ({duration})", ue.attach_frame)
    if ue.priority is SlicePriority.MISSION_CRITICAL:
        _need(ue.reserved_prbs >= 1, prefix + "reserved_prbs", ">= 1 for a mission_critical UE",
              ue.reserved_prbs)
    else:
        _need(not ue.reserved_prbs, prefix + "reserved_prbs", "0 for a commercial UE",
              ue.reserved_prbs)
    lo, hi = ue.profile_rate_lo_mbps, ue.profile_rate_hi_mbps
    _need_band(lo, hi, prefix + "profile_rate_lo_mbps", prefix + "profile_rate_hi_mbps", lo_from)
    # A KPM report packs its packet count in a u32. At a UE's peak rate, the
    # packets one report period carries, rounded up, plus one that a carried
    # fraction of a packet can add, must fit it: at most 2**32 - 2 packets of
    # rate * period * 1000 bits, compared in integers, exactly and without
    # overflow.
    size = traffic.packet_size_bytes
    cap, scale = (2**32 - 2) * 8 * size, period * 1000
    for key, rate in ((prefix + "rate_mbps", traffic.rate_mbps),
                      (prefix + "rate_hi_mbps", traffic.hi_mbps), (hi_key, hi)):
        num, den = rate.as_integer_ratio()
        _need(num * scale <= cap * den, key,
              f"<= {cap / scale} Mbps, so that a report.period_ms ({period}) of {size}-byte "
              f"packets counts below 2**32", rate)
    return ue


def _fmt(value, typ) -> str:
    if typ is bool:
        return "on" if value else "off"
    if typ is bytes:
        return value.hex()
    if type(typ) is tuple:
        return next(word for word, named in typ[1].items() if named == value)
    return str(value)  # a float's str is its repr, which parses back exactly


def resolved_lines(sc: Scenario) -> list[str]:
    """Every effective key = value, defaults included, for the run log."""
    lines = [
        f"{key} = {_fmt(getattr(sc if section is None else getattr(sc, section), name), typ)}"
        for key, (section, name, typ, *_) in _TOP_KEYS.items()
    ]
    for ue in sc.ues:
        unread = _KIND_KEYS[ue.traffic.kind][1]
        derived = _derive_credential(ue.ue, sc.auth.secret_seed)
        for key, (section, name, typ, *_) in _UE_KEYS.items():
            value = getattr(ue if section is None else getattr(ue, section), name)
            # Left out: rate keys the kind does not read, a derived
            # credential, and no reservation.
            if key in unread or (key == "credential" and value == derived) or (
                key == "reserved_prbs" and not value
            ):
                continue
            lines.append(f"ue.{ue.ue}.{key} = {_fmt(value, typ)}")
    return lines
