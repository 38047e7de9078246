"""Scenario configuration: a flat `section.key = value` text format.

Two ordered tables, `_TOP_KEYS` and `_UE_KEYS` (`ue.<id>.*`), state each key
once: the section of `Scenario` or `UeSpec` it sets, its field, its type and
its least value. Parsing, defaults and the run-log echo all read them:

- An omitted key gets its config field's default. Three are derived instead:
  the secret seed from the seed, the fpr and profile rate bands from the
  detection band, and each UE's credential from the secret seed.
- `resolved_lines` echoes every effective value in table order, which is
  `run.log` order.
- A new key is one table entry, beside the config field it sets.

Unknown keys, values of the wrong type and floats that are not finite are
rejected with their line number. See scenarios/example_annotated.scn for
every key and its range.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import FRAME_MS, SlicePriority, UeId
from .ran import CellConfig, RadioProfile, TrafficModel
from .xapps.intrusion import DetectionConfig
from .xapps.slicing import RestrictedPolicy, UePolicy


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class AuthParams:
    verification_budget_prbs: int = 2
    verify_frames: int = 2
    reauth_period_frames: int = 500
    token_expiry_frames: int = 1000
    usage_tolerance: float = 0.10
    secret_seed: str = ""  # "": derived from the scenario seed


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
    restricted: RestrictedPolicy
    auth: AuthParams
    ues: tuple[UeSpec, ...]
    seed: int = 1
    zero_trust: bool = True
    latency_threshold_ms: int = 100
    report_period_ms: int = 100
    fpr_benign_rate_lo_mbps: float | None = None  # None: the detection band
    fpr_benign_rate_hi_mbps: float | None = None

    @property
    def fpr_benign_range(self) -> tuple[float, float]:
        return (self.fpr_benign_rate_lo_mbps, self.fpr_benign_rate_hi_mbps)

    def secret(self) -> bytes:
        return hashlib.sha256(f"secret/{self.auth.secret_seed}".encode()).digest()

    def ran_credential(self) -> bytes:
        return hashlib.sha256(f"rancred/{self.auth.secret_seed}".encode()).digest()[:16]

    def ue_policies(self) -> dict[UeId, UePolicy]:
        return {
            u.ue: UePolicy(priority=u.priority, reserved_prbs=u.reserved_prbs) for u in self.ues
        }


def _derive_credential(ue: UeId, secret_seed: str) -> bytes:
    return hashlib.sha256(f"cred/{ue}/{secret_seed}".encode()).digest()[:16]


# The rate keys each traffic kind does not read, in table order. Setting one
# is rejected, so `resolved_lines`, which leaves them out, echoes every rate
# key a scenario set.
_UNREAD: dict[str, tuple[str, ...]] = {
    "cbr": ("rate_lo_mbps", "rate_hi_mbps", "onset_frame"),
    "uniform_rate": ("rate_mbps", "onset_frame"),
    "flood": ("rate_lo_mbps", "rate_hi_mbps"),
    "idle": ("rate_mbps", "rate_lo_mbps", "rate_hi_mbps", "onset_frame"),
}
# A word-valued key's type is (noun, word -> value). The echo names a value by
# its first word, so an alias comes last: the shipped invalid-credential UE
# presents a bad token.
_TRAFFIC_KINDS = ("traffic kind", {kind: kind for kind in _UNREAD})
_CREDENTIALS = ("mode", {"valid": "valid", "wrong_token": "wrong_token",
                         "wrong_credential": "wrong_credential", "invalid": "wrong_token"})
_PRIORITIES = ("priority", {"commercial": SlicePriority.COMMERCIAL,
                            "mission_critical": SlicePriority.MISSION_CRITICAL})
_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}
_PARSERS = {bool: lambda raw: _BOOL_WORDS[raw.lower()], int: int, float: float,
            bytes: bytes.fromhex, str: str}

# key -> (section, field, type, least value or None), in run.log order. The
# section is the `Scenario` attribute whose field the key sets, or None for a
# field of `Scenario` itself. Domains a least value cannot state are rules in
# `_build`, or checks in the config class (reported under its section's name).
_TOP_KEYS: dict[str, tuple[str | None, str, object, int | None]] = {
    "scenario.duration_frames": (None, "duration_frames", int, None),
    "scenario.seed": (None, "seed", int, None),
    "scenario.zero_trust": (None, "zero_trust", bool, None),
    "scenario.latency_threshold_ms": (None, "latency_threshold_ms", int, 0),
    "cell.total_prbs": ("cell", "total_prbs", int, None),
    "cell.per_prb_rate_mbps": ("cell", "per_prb_rate_mbps", float, None),
    "cell.id": ("cell", "cell_id", int, None),
    "cell.e2_id": ("cell", "e2_id", int, None),
    "report.period_ms": (None, "report_period_ms", int, None),
    "detection.window_n": ("detection", "window_n", int, None),
    "detection.rate_lo_mbps": ("detection", "rate_lo_mbps", float, None),
    "detection.rate_hi_mbps": ("detection", "rate_hi_mbps", float, None),
    "detection.z_sigma": ("detection", "z_sigma", float, None),
    "detection.min_reports": ("detection", "min_reports_before_decision", int, None),
    "detection.warmup_reports": ("detection", "warmup_reports", int, None),
    "restricted.budget_prbs": ("restricted", "budget_prbs", int, None),
    "auth.verification_budget_prbs": ("auth", "verification_budget_prbs", int, 1),
    "auth.verify_frames": ("auth", "verify_frames", int, 0),
    "auth.reauth_period_frames": ("auth", "reauth_period_frames", int, 0),
    "auth.token_expiry_frames": ("auth", "token_expiry_frames", int, None),
    "auth.usage_tolerance": ("auth", "usage_tolerance", float, 0),
    "auth.secret_seed": ("auth", "secret_seed", str, None),
    "fpr.benign_rate_lo_mbps": (None, "fpr_benign_rate_lo_mbps", float, None),
    "fpr.benign_rate_hi_mbps": (None, "fpr_benign_rate_hi_mbps", float, None),
}

# The same for `ue.<id>.<key>`; None is a field of `UeSpec` itself.
_UE_KEYS: dict[str, tuple[str | None, str, object, int | None]] = {
    "traffic": ("traffic", "kind", _TRAFFIC_KINDS, None),
    "rate_mbps": ("traffic", "rate_mbps", float, None),
    "rate_lo_mbps": ("traffic", "lo_mbps", float, None),
    "rate_hi_mbps": ("traffic", "hi_mbps", float, None),
    "onset_frame": ("traffic", "onset_frame", int, 0),
    "packet_size_bytes": ("traffic", "packet_size_bytes", int, None),
    "credentials": (None, "credentials", _CREDENTIALS, None),
    "credential": (None, "credential", bytes, None),  # hex
    "attach_frame": (None, "attach_frame", int, 0),
    "priority": (None, "priority", _PRIORITIES, None),
    "reserved_prbs": (None, "reserved_prbs", int, None),
    "snr_mean_db": ("radio", "snr_mean_db", float, None),
    "snr_std_db": ("radio", "snr_std_db", float, 0),
    "cqi_mean": ("radio", "cqi_mean", float, None),
    "cqi_std": ("radio", "cqi_std", float, 0),
    "tx_power_mean_dbm": ("radio", "tx_power_mean_dbm", float, None),
    "tx_power_std_dbm": ("radio", "tx_power_std_dbm", float, 0),
    "profile_rate_lo_mbps": (None, "profile_rate_lo_mbps", float, None),
    "profile_rate_hi_mbps": (None, "profile_rate_hi_mbps", float, None),
}

# section -> (its class, the name its ValueError is reported under); None is
# the object itself, which raises none
_TOP_SECTIONS: dict[str | None, tuple[type, str | None]] = {
    None: (Scenario, None),
    "cell": (CellConfig, "cell.*"),
    "detection": (DetectionConfig, "detection.*"),
    "restricted": (RestrictedPolicy, "restricted.budget_prbs"),
    "auth": (AuthParams, "auth.*"),
}
_UE_SECTIONS: dict[str | None, tuple[type, str | None]] = {
    None: (UeSpec, None),
    "traffic": (TrafficModel, "traffic"),
    "radio": (RadioProfile, "radio.*"),
}


# The keys whose field has no default: a field with a default is a class attribute.
_TOP_REQUIRED, _UE_REQUIRED = (
    tuple(key for key, (section, name, _, _) in table.items()
          if not hasattr(sections[section][0], name))
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
        bucket[entry] = _convert(raw, table[entry][2], key, line_no)
    return _build(values, ue_values, name)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(), name=path.stem)


def _sections(values: dict, table: dict, sections: dict, required: tuple, prefix: str):
    """The keyword arguments of the object itself, and each section's config
    object, from the given values, each checked against its least value."""
    for key in required:
        if key not in values:
            raise ScenarioError(f"{prefix}{key}: required key missing")
    kwargs = {section: {} for section in sections}
    for key, value in values.items():
        section, name, _, least = table[key]
        if least is not None and value < least:
            raise ScenarioError(f"{prefix}{key}: must be >= {least}")
        kwargs[section][name] = value
    configs = {}
    for section, (cls, label) in sections.items():
        if section is not None:
            try:
                configs[section] = cls(**kwargs[section])
            except ValueError as err:
                raise ScenarioError(f"{prefix}{label}: {err}")
    return kwargs[None], configs


def _build(values: dict, ue_values: dict[int, dict], name: str) -> Scenario:
    values.setdefault("auth.secret_seed", str(values.get("scenario.seed", Scenario.seed)))
    own, configs = _sections(values, _TOP_KEYS, _TOP_SECTIONS, _TOP_REQUIRED, "")
    duration = own["duration_frames"]
    if duration < 1:
        raise ScenarioError(f"scenario.duration_frames: must be >= 1, got {duration}")
    period = own.get("report_period_ms", Scenario.report_period_ms)
    if period < FRAME_MS or period % FRAME_MS:
        raise ScenarioError(
            f"report.period_ms: must be a positive multiple of {FRAME_MS}, got {period}"
        )
    auth = configs["auth"]
    # A token that expires before its verification completes denies every UE,
    # and the token packs its lifetime into 64 bits.
    if not auth.verify_frames < auth.token_expiry_frames < 2**64:
        raise ScenarioError(
            f"auth.token_expiry_frames: must be > auth.verify_frames "
            f"({auth.verify_frames}) and < 2**64, got {auth.token_expiry_frames}"
        )
    detection = configs["detection"]
    own.setdefault("fpr_benign_rate_lo_mbps", detection.rate_lo_mbps)  # the detection band
    own.setdefault("fpr_benign_rate_hi_mbps", detection.rate_hi_mbps)
    if own["fpr_benign_rate_lo_mbps"] > own["fpr_benign_rate_hi_mbps"]:
        raise ScenarioError("fpr.benign_rate_lo_mbps: benign range needs lo <= hi")

    if not ue_values:
        raise ScenarioError("ue.*: at least one UE is required")
    ues = []
    for ue_id in sorted(ue_values):
        if ue_id < 1:
            raise ScenarioError(f"ue.{ue_id}: UE ids start at 1 (0 is reserved)")
        ues.append(_build_ue(ue_id, ue_values[ue_id], duration, detection, auth.secret_seed))
    return Scenario(name=name, ues=tuple(ues), **own, **configs)


def _build_ue(
    ue_id: int, vals: dict, duration: int, detection: DetectionConfig, secret_seed: str
) -> UeSpec:
    prefix = f"ue.{ue_id}."
    kind = vals.get("traffic")
    for key in _UNREAD.get(kind, ()):
        if key in vals:
            raise ScenarioError(f"{prefix}{key}: traffic {kind} does not use this key")
    vals.setdefault("profile_rate_lo_mbps", detection.rate_lo_mbps)  # the detection band
    vals.setdefault("profile_rate_hi_mbps", detection.rate_hi_mbps)
    vals.setdefault("credential", _derive_credential(ue_id, secret_seed))
    own, configs = _sections(vals, _UE_KEYS, _UE_SECTIONS, _UE_REQUIRED, prefix)
    ue = UeSpec(ue=ue_id, **own, **configs)

    if ue.attach_frame >= duration:
        raise ScenarioError(
            f"{prefix}attach_frame: must be < scenario.duration_frames ({duration}), "
            f"got {ue.attach_frame}"
        )
    if ue.priority is SlicePriority.MISSION_CRITICAL and ue.reserved_prbs < 1:
        raise ScenarioError(f"{prefix}reserved_prbs: mission_critical UEs need >= 1 PRB")
    lo, hi = ue.profile_rate_lo_mbps, ue.profile_rate_hi_mbps
    if not 0 <= lo <= hi:
        key = "profile_rate_lo_mbps" if not 0 <= lo else "profile_rate_hi_mbps"
        raise ScenarioError(f"{prefix}{key}: profile rate band needs 0 <= lo <= hi, got {lo}, {hi}")
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
        for key, (section, name, typ, _) in _TOP_KEYS.items()
    ]
    for ue in sc.ues:
        unread = _UNREAD[ue.traffic.kind]
        derived = _derive_credential(ue.ue, sc.auth.secret_seed)
        for key, (section, name, typ, _) in _UE_KEYS.items():
            value = getattr(ue if section is None else getattr(ue, section), name)
            # Left out: rate keys the kind does not read, a derived
            # credential, and no reservation.
            if key in unread or (key == "credential" and value == derived) or (
                key == "reserved_prbs" and not value
            ):
                continue
            lines.append(f"ue.{ue.ue}.{key} = {_fmt(value, typ)}")
    return lines
