"""Scenario configuration: a flat `section.key = value` text format.

Unknown keys are rejected with their line number; omitted optional keys get
documented defaults and the fully resolved configuration is echoed to the
run log. See scenarios/example_annotated.scn for every key.
"""
from __future__ import annotations

import hashlib
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
    secret_seed: str = ""


@dataclass(frozen=True)
class UeSpec:
    ue: UeId
    traffic: TrafficModel
    radio: RadioProfile = field(default_factory=RadioProfile)
    credentials: str = "valid"  # valid | wrong_token | wrong_credential
    credential: bytes = b""
    attach_frame: int = 0
    priority: SlicePriority = SlicePriority.COMMERCIAL
    reserved_prbs: int = 0
    profile_rate_lo_mbps: float = 10.0
    profile_rate_hi_mbps: float = 20.0

    @property
    def legitimate(self) -> bool:
        return self.credentials == "valid" and self.traffic.kind != "flood"


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_frames: int
    seed: int
    zero_trust: bool
    latency_threshold_ms: int
    cell: CellConfig
    report_period_ms: int
    detection: DetectionConfig
    restricted: RestrictedPolicy
    auth: AuthParams
    fpr_benign_range: tuple[float, float]
    ues: tuple[UeSpec, ...]

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


# key -> (type, default); None default means required or derived elsewhere
_TOP_KEYS: dict[str, tuple[type, object]] = {
    "scenario.duration_frames": (int, None),
    "scenario.seed": (int, 1),
    "scenario.zero_trust": (bool, True),
    "scenario.latency_threshold_ms": (int, 100),
    "cell.total_prbs": (int, 100),
    "cell.per_prb_rate_mbps": (float, 0.24),
    "cell.id": (int, 1),
    "cell.e2_id": (int, 1),
    "report.period_ms": (int, 100),
    "detection.window_n": (int, 10),
    "detection.rate_lo_mbps": (float, 10.0),
    "detection.rate_hi_mbps": (float, 20.0),
    "detection.z_sigma": (float, 3.0),
    "detection.min_reports": (int, 1),
    "detection.warmup_reports": (int, 100),
    "restricted.budget_prbs": (int, 1),
    "auth.verification_budget_prbs": (int, 2),
    "auth.verify_frames": (int, 2),
    "auth.reauth_period_frames": (int, 500),
    "auth.token_expiry_frames": (int, 1000),
    "auth.usage_tolerance": (float, 0.10),
    "auth.secret_seed": (str, ""),
    "fpr.benign_rate_lo_mbps": (float, None),
    "fpr.benign_rate_hi_mbps": (float, None),
}

_UE_KEYS: dict[str, type] = {
    "traffic": str,
    "rate_mbps": float,
    "rate_lo_mbps": float,
    "rate_hi_mbps": float,
    "onset_frame": int,
    "packet_size_bytes": int,
    "credentials": str,
    "credential": bytes,  # hex
    "attach_frame": int,
    "priority": str,
    "reserved_prbs": int,
    "snr_mean_db": float,
    "snr_std_db": float,
    "cqi_mean": float,
    "cqi_std": float,
    "tx_power_mean_dbm": float,
    "tx_power_std_dbm": float,
    "profile_rate_lo_mbps": float,
    "profile_rate_hi_mbps": float,
}

# The traffic keys each kind reads, in echo order. A kind is given no other,
# so `resolved_lines` echoes every traffic key a scenario set.
_KIND_KEYS: dict[str, tuple[str, ...]] = {
    "cbr": ("rate_mbps",),
    "uniform_rate": ("rate_lo_mbps", "rate_hi_mbps"),
    "flood": ("rate_mbps", "onset_frame"),
    "idle": (),
}

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}


def _convert(raw: str, typ: type, key: str, line_no: int):
    try:
        if typ is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[raw.lower()]
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is bytes:
            return bytes.fromhex(raw)
        return raw
    except ValueError:
        raise ScenarioError(f"line {line_no}: expected {typ.__name__} for {key}, got {raw!r}")


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
            if len(parts) != 3 or not parts[1].isdigit():
                raise ScenarioError(f"line {line_no}: unknown key {key}")
            ue_id, ue_field = int(parts[1]), parts[2]
            if ue_field not in _UE_KEYS:
                raise ScenarioError(f"line {line_no}: unknown key {key}")
            bucket = ue_values.setdefault(ue_id, {})
            if ue_field in bucket:
                raise ScenarioError(f"line {line_no}: duplicate key {key}")
            bucket[ue_field] = _convert(raw, _UE_KEYS[ue_field], key, line_no)
        else:
            if key not in _TOP_KEYS:
                raise ScenarioError(f"line {line_no}: unknown key {key}")
            if key in values:
                raise ScenarioError(f"line {line_no}: duplicate key {key}")
            values[key] = _convert(raw, _TOP_KEYS[key][0], key, line_no)
    return _build(values, ue_values, name)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    return parse_scenario(path.read_text(), name=path.stem)


def _get(values: dict, key: str):
    typ, default = _TOP_KEYS[key]
    if key in values:
        return values[key]
    if default is None and key.startswith("scenario."):
        raise ScenarioError(f"{key}: required key missing")
    return default


def _build(values: dict, ue_values: dict[int, dict], name: str) -> Scenario:
    duration = _get(values, "scenario.duration_frames")
    if duration is None:
        raise ScenarioError("scenario.duration_frames: required key missing")
    if duration < 1:
        raise ScenarioError(f"scenario.duration_frames: must be >= 1, got {duration}")
    seed = _get(values, "scenario.seed")
    secret_seed = _get(values, "auth.secret_seed") or str(seed)

    try:
        cell = CellConfig(
            total_prbs=_get(values, "cell.total_prbs"),
            per_prb_rate_mbps=_get(values, "cell.per_prb_rate_mbps"),
            cell_id=_get(values, "cell.id"),
            e2_id=_get(values, "cell.e2_id"),
        )
    except ValueError as err:
        raise ScenarioError(f"cell.*: {err}")

    period = _get(values, "report.period_ms")
    if period < FRAME_MS or period % FRAME_MS:
        raise ScenarioError(
            f"report.period_ms: must be a positive multiple of {FRAME_MS}, got {period}"
        )

    try:
        detection = DetectionConfig(
            window_n=_get(values, "detection.window_n"),
            rate_lo_mbps=_get(values, "detection.rate_lo_mbps"),
            rate_hi_mbps=_get(values, "detection.rate_hi_mbps"),
            z_sigma=_get(values, "detection.z_sigma"),
            min_reports_before_decision=_get(values, "detection.min_reports"),
            warmup_reports=_get(values, "detection.warmup_reports"),
        )
    except ValueError as err:
        raise ScenarioError(f"detection.*: {err}")

    try:
        restricted = RestrictedPolicy(budget_prbs=_get(values, "restricted.budget_prbs"))
    except ValueError as err:
        raise ScenarioError(f"restricted.budget_prbs: {err}")

    auth = AuthParams(
        verification_budget_prbs=_get(values, "auth.verification_budget_prbs"),
        verify_frames=_get(values, "auth.verify_frames"),
        reauth_period_frames=_get(values, "auth.reauth_period_frames"),
        token_expiry_frames=_get(values, "auth.token_expiry_frames"),
        usage_tolerance=_get(values, "auth.usage_tolerance"),
        secret_seed=secret_seed,
    )
    if auth.verification_budget_prbs < 1:
        raise ScenarioError("auth.verification_budget_prbs: must be >= 1")
    if auth.verify_frames < 0:
        raise ScenarioError("auth.verify_frames: must be >= 0")
    # A token that expires before its verification completes denies every UE,
    # and the token packs its lifetime into 64 bits.
    if not auth.verify_frames < auth.token_expiry_frames < 2**64:
        raise ScenarioError(
            f"auth.token_expiry_frames: must be > auth.verify_frames "
            f"({auth.verify_frames}) and < 2**64, got {auth.token_expiry_frames}"
        )

    fpr_lo = values.get("fpr.benign_rate_lo_mbps", detection.rate_lo_mbps)
    fpr_hi = values.get("fpr.benign_rate_hi_mbps", detection.rate_hi_mbps)
    if fpr_lo > fpr_hi:
        raise ScenarioError("fpr.benign_rate_lo_mbps: benign range needs lo <= hi")

    if not ue_values:
        raise ScenarioError("ue.*: at least one UE is required")
    ues = []
    for ue_id in sorted(ue_values):
        if ue_id < 1:
            raise ScenarioError(f"ue.{ue_id}: UE ids start at 1 (0 is reserved)")
        ues.append(_build_ue(ue_id, ue_values[ue_id], detection, secret_seed))

    return Scenario(
        name=name,
        duration_frames=duration,
        seed=seed,
        zero_trust=_get(values, "scenario.zero_trust"),
        latency_threshold_ms=_get(values, "scenario.latency_threshold_ms"),
        cell=cell,
        report_period_ms=period,
        detection=detection,
        restricted=restricted,
        auth=auth,
        fpr_benign_range=(fpr_lo, fpr_hi),
        ues=tuple(ues),
    )


def _build_ue(ue_id: int, vals: dict, detection: DetectionConfig, secret_seed: str) -> UeSpec:
    prefix = f"ue.{ue_id}"
    if "traffic" not in vals:
        raise ScenarioError(f"{prefix}.traffic: required key missing")
    kind = vals["traffic"]
    if kind in _KIND_KEYS:  # an unknown kind fails in TrafficModel below
        for key in ("rate_mbps", "rate_lo_mbps", "rate_hi_mbps", "onset_frame"):
            if key in vals and key not in _KIND_KEYS[kind]:
                raise ScenarioError(f"{prefix}.{key}: traffic {kind} does not use this key")
    try:
        traffic = TrafficModel(
            kind=kind,
            rate_mbps=vals.get("rate_mbps", 0.0),
            lo_mbps=vals.get("rate_lo_mbps", 0.0),
            hi_mbps=vals.get("rate_hi_mbps", 0.0),
            onset_frame=vals.get("onset_frame", 0),
            packet_size_bytes=vals.get("packet_size_bytes", 1500),
        )
    except ValueError as err:
        raise ScenarioError(f"{prefix}.traffic: {err}")

    credentials = vals.get("credentials", "valid")
    if credentials == "invalid":
        credentials = "wrong_token"  # the shipped invalid-credential UE presents a bad token
    if credentials not in ("valid", "wrong_token", "wrong_credential"):
        raise ScenarioError(f"{prefix}.credentials: unknown mode {credentials!r}")

    priority_word = vals.get("priority", "commercial")
    if priority_word not in ("commercial", "mission_critical"):
        raise ScenarioError(f"{prefix}.priority: unknown priority {priority_word!r}")
    priority = (
        SlicePriority.MISSION_CRITICAL
        if priority_word == "mission_critical"
        else SlicePriority.COMMERCIAL
    )
    reserved = vals.get("reserved_prbs", 0)
    if priority is SlicePriority.MISSION_CRITICAL and reserved < 1:
        raise ScenarioError(f"{prefix}.reserved_prbs: mission_critical UEs need >= 1 PRB")

    radio = RadioProfile(
        snr_mean_db=vals.get("snr_mean_db", 25.0),
        snr_std_db=vals.get("snr_std_db", 2.0),
        cqi_mean=vals.get("cqi_mean", 12.0),
        cqi_std=vals.get("cqi_std", 1.5),
        tx_power_mean_dbm=vals.get("tx_power_mean_dbm", 20.0),
        tx_power_std_dbm=vals.get("tx_power_std_dbm", 1.0),
    )
    lo = vals.get("profile_rate_lo_mbps", detection.rate_lo_mbps)
    hi = vals.get("profile_rate_hi_mbps", detection.rate_hi_mbps)
    if not 0 <= lo <= hi:
        key = "profile_rate_lo_mbps" if not 0 <= lo else "profile_rate_hi_mbps"
        raise ScenarioError(f"{prefix}.{key}: profile rate band needs 0 <= lo <= hi, got {lo}, {hi}")
    return UeSpec(
        ue=ue_id,
        traffic=traffic,
        radio=radio,
        credentials=credentials,
        credential=vals.get("credential") or _derive_credential(ue_id, secret_seed),
        attach_frame=vals.get("attach_frame", 0),
        priority=priority,
        reserved_prbs=reserved,
        profile_rate_lo_mbps=lo,
        profile_rate_hi_mbps=hi,
    )


def resolved_lines(sc: Scenario) -> list[str]:
    """Every effective key = value, defaults included, for the run log."""

    def fmt(v) -> str:
        if isinstance(v, bool):
            return "on" if v else "off"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = {
        "scenario.duration_frames": sc.duration_frames,
        "scenario.seed": sc.seed,
        "scenario.zero_trust": sc.zero_trust,
        "scenario.latency_threshold_ms": sc.latency_threshold_ms,
        "cell.total_prbs": sc.cell.total_prbs,
        "cell.per_prb_rate_mbps": sc.cell.per_prb_rate_mbps,
        "cell.id": sc.cell.cell_id,
        "cell.e2_id": sc.cell.e2_id,
        "report.period_ms": sc.report_period_ms,
        "detection.window_n": sc.detection.window_n,
        "detection.rate_lo_mbps": sc.detection.rate_lo_mbps,
        "detection.rate_hi_mbps": sc.detection.rate_hi_mbps,
        "detection.z_sigma": sc.detection.z_sigma,
        "detection.min_reports": sc.detection.min_reports_before_decision,
        "detection.warmup_reports": sc.detection.warmup_reports,
        "restricted.budget_prbs": sc.restricted.budget_prbs,
        "auth.verification_budget_prbs": sc.auth.verification_budget_prbs,
        "auth.verify_frames": sc.auth.verify_frames,
        "auth.reauth_period_frames": sc.auth.reauth_period_frames,
        "auth.token_expiry_frames": sc.auth.token_expiry_frames,
        "auth.usage_tolerance": sc.auth.usage_tolerance,
        "auth.secret_seed": sc.auth.secret_seed,
        "fpr.benign_rate_lo_mbps": sc.fpr_benign_range[0],
        "fpr.benign_rate_hi_mbps": sc.fpr_benign_range[1],
    }
    for ue in sc.ues:
        p = f"ue.{ue.ue}"
        t = ue.traffic
        lines[f"{p}.traffic"] = t.kind
        values = {"rate_mbps": t.rate_mbps, "rate_lo_mbps": t.lo_mbps, "rate_hi_mbps": t.hi_mbps,
                  "onset_frame": t.onset_frame}
        for key in _KIND_KEYS[t.kind]:
            lines[f"{p}.{key}"] = values[key]
        lines[f"{p}.packet_size_bytes"] = t.packet_size_bytes
        lines[f"{p}.credentials"] = ue.credentials
        if ue.credential != _derive_credential(ue.ue, sc.auth.secret_seed):
            lines[f"{p}.credential"] = ue.credential.hex()
        lines[f"{p}.attach_frame"] = ue.attach_frame
        lines[f"{p}.priority"] = (
            "mission_critical" if ue.priority is SlicePriority.MISSION_CRITICAL else "commercial"
        )
        if ue.reserved_prbs:
            lines[f"{p}.reserved_prbs"] = ue.reserved_prbs
        lines[f"{p}.snr_mean_db"] = ue.radio.snr_mean_db
        lines[f"{p}.snr_std_db"] = ue.radio.snr_std_db
        lines[f"{p}.cqi_mean"] = ue.radio.cqi_mean
        lines[f"{p}.cqi_std"] = ue.radio.cqi_std
        lines[f"{p}.tx_power_mean_dbm"] = ue.radio.tx_power_mean_dbm
        lines[f"{p}.tx_power_std_dbm"] = ue.radio.tx_power_std_dbm
        lines[f"{p}.profile_rate_lo_mbps"] = ue.profile_rate_lo_mbps
        lines[f"{p}.profile_rate_hi_mbps"] = ue.profile_rate_hi_mbps
    return [f"{k} = {fmt(v)}" for k, v in lines.items()]
