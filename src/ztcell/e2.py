"""Typed message set and bit-exact framing for all RAN-RIC traffic.

Frame layout (all integers big-endian):

    u32  total frame length, including these four bytes
    u8   kind tag (MsgKind value)
    u32  cell id
    u32  e2 connection id
    u64  per-connection sequence number
    ...  kind-specific body, fields in declaration order

Bodies:

    AUTH_REQUEST          blob: 66 raw bytes (see xapps.auth for the layout)
    AUTH_RESPONSE         ue u64, outcome u8, reason u8, token 16 bytes
    KPM_INDICATION        ue u64, cell u32, seq u64, snr f64, cqi u8,
                          tx_packets u32, tx_power f64, throughput f64
    SLICE_CONTROL         bindings: u16 count, count * (ue u64, slice u16);
                          slices: u16 count, count * (id u16, mask, prio u8,
                          kind u8) where mask = u16 PRB count + padded bits
    SUBSCRIPTION_REQUEST  period_ms u32 (every attached UE that is not
                          denied reports once per period)
    SUBSCRIPTION_ACK      period_ms u32

Identical messages always encode to identical bytes; decode is the exact
inverse on the image of encode and rejects anything else with the byte
offset of the failure. Each field is checked once per direction: encode
checks every field before packing it, and decode checks only what the
fixed-width layouts leave open (enum tags, KPM values, mask padding, and the
slice-table and report-period rules, which encode applies too). Golden
frames live in tests/data/golden_frames.txt.

Both directions take the fixed-width parts whole. Encode packs a
KPM_INDICATION frame, header and report, in one pack. Decode reads the
header with one unpack, a SLICE_CONTROL's bindings with one bounds check and
one `iter_unpack`, and each slice with bounds checks on the frame itself.
Every malformed frame still fails at the offset, and with the text, of a
decoder that reads one field group at a time: a frame shorter than the
header is read that way.
"""
from __future__ import annotations

from math import isfinite
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import starmap
from typing import NamedTuple

from .core import (
    FRAME_MS,
    CellId,
    E2Id,
    KPMReport,
    PRBMask,
    SliceId,
    SliceKind,
    SlicePriority,
    SliceSpec,
    UeId,
    validate_slice_table,
)

AUTH_BLOB_LEN = 66
TOKEN_LEN = 16

# One precompiled layout per fixed-width field group. Encode packs the header
# whole, and a KPM_INDICATION frame in one pack; decode reads the header whole
# too, but a frame shorter than it as length, tag and ids, so the truncation
# names the group it fell in.
_HEADER = struct.Struct(">IBIIQ")
_LENGTH = struct.Struct(">I")
_TAG = struct.Struct(">B")
_IDS = struct.Struct(">IIQ")
_AUTH_RESPONSE = struct.Struct(">QBB")
_KPM = struct.Struct(">QIQdBIdd")
_COUNT = struct.Struct(">H")
_BINDING = struct.Struct(">QH")
_SLICE_HEAD = struct.Struct(">HH")
_SLICE_ATTRS = struct.Struct(">BB")
_PERIOD = struct.Struct(">I")
_KPM_FRAME = struct.Struct(_HEADER.format + _KPM.format[1:])  # a whole KPM_INDICATION frame

HEADER_LEN = _HEADER.size


class MsgKind(IntEnum):
    AUTH_REQUEST = 0
    AUTH_RESPONSE = 1
    KPM_INDICATION = 2
    SLICE_CONTROL = 3
    SUBSCRIPTION_REQUEST = 4
    SUBSCRIPTION_ACK = 5


class AuthOutcome(IntEnum):
    GRANTED = 0
    DENIED = 1
    REVOKED = 2


class AuthReason(IntEnum):
    OK = 0
    BAD_TAG = 1
    UNKNOWN_TOKEN = 2
    RAN_UNVERIFIED = 3
    EXPIRED = 4
    SLICE_MISMATCH = 5


# Members tested on every frame, as module constants: a global read is
# cheaper than a class attribute read.
_AUTH_REQUEST_KIND = MsgKind.AUTH_REQUEST
_AUTH_RESPONSE_KIND = MsgKind.AUTH_RESPONSE
_KPM_INDICATION_KIND = MsgKind.KPM_INDICATION
_SLICE_CONTROL_KIND = MsgKind.SLICE_CONTROL
_SUBSCRIPTION_REQUEST_KIND = MsgKind.SUBSCRIPTION_REQUEST

# Wire tag -> member: the membership test and the conversion in one lookup.
_KINDS = {m.value: m for m in MsgKind}
_OUTCOMES = {m.value: m for m in AuthOutcome}
_REASONS = {m.value: m for m in AuthReason}
_PRIORITIES = {m.value: m for m in SlicePriority}
_SLICE_KINDS = {m.value: m for m in SliceKind}


class EncodeError(ValueError):
    """A payload invariant violation surfaced at encode time."""


class DecodeError(ValueError):
    def __init__(self, offset: int, detail: str) -> None:
        super().__init__(f"decode error at byte {offset}: {detail}")
        self.offset = offset
        self.detail = detail


@dataclass(frozen=True)
class AuthRequestBody:
    blob: bytes


@dataclass(frozen=True)
class AuthResponseBody:
    ue: UeId
    outcome: AuthOutcome
    reason: AuthReason
    token: bytes = b"\x00" * TOKEN_LEN  # fresh transaction token on grant


@dataclass(frozen=True)
class KpmIndicationBody:
    report: KPMReport


@dataclass(frozen=True)
class SliceControlBody:
    bindings: tuple[tuple[UeId, SliceId], ...]
    slices: tuple[SliceSpec, ...]


@dataclass(frozen=True)
class SubscriptionRequestBody:
    report_period_ms: int


@dataclass(frozen=True)
class SubscriptionAckBody:
    report_period_ms: int


Body = (
    AuthRequestBody
    | AuthResponseBody
    | KpmIndicationBody
    | SliceControlBody
    | SubscriptionRequestBody
    | SubscriptionAckBody
)

_BODY_TYPES = {
    MsgKind.AUTH_REQUEST: AuthRequestBody,
    MsgKind.AUTH_RESPONSE: AuthResponseBody,
    MsgKind.KPM_INDICATION: KpmIndicationBody,
    MsgKind.SLICE_CONTROL: SliceControlBody,
    MsgKind.SUBSCRIPTION_REQUEST: SubscriptionRequestBody,
    MsgKind.SUBSCRIPTION_ACK: SubscriptionAckBody,
}

class E2Message(NamedTuple):
    kind: MsgKind
    cell: CellId
    e2: E2Id
    seq: int
    body: Body


def _check_uint(value: int, bits: int, name: str) -> None:
    if not 0 <= value < 1 << bits:
        raise EncodeError(f"{name} {value} outside u{bits}")


# ---- rules the wire layout cannot express; both directions apply them --------


def _period_error(period_ms: int) -> str | None:
    if period_ms == 0 or period_ms % FRAME_MS:
        return f"report period {period_ms} ms is not a whole number of {FRAME_MS} ms frames"
    return None


def _slice_table_error(body: SliceControlBody) -> str | None:
    sizes = {s.mask.size for s in body.slices}
    if len(sizes) > 1:
        return "slice masks disagree on cell PRB count"
    total = sizes.pop() if sizes else 0
    violations = validate_slice_table(list(body.slices), total) if body.slices else []
    if violations:
        return "; ".join(v.detail for v in violations)
    declared = {s.id for s in body.slices}
    for _, sl in body.bindings:
        if sl not in declared:
            return f"binding references undeclared slice {sl}"
    return None


def _check_report(r: KPMReport) -> None:
    """Check every field of a KPM report once.

    The ranges and the finiteness are one chained test each; only a report
    that fails one runs the per-field checks, which name the first bad field.
    """
    try:
        r.validate()
    except ValueError as e:
        raise EncodeError(str(e)) from e
    ue, cell, seq, snr, _, pkts, power, tput = r
    if not (
        0 <= ue < 1 << 64 and 0 <= cell < 1 << 32 and 0 <= seq < 1 << 64 and 0 <= pkts < 1 << 32
    ):
        _check_uint(ue, 64, "ue id")
        _check_uint(cell, 32, "cell id")
        _check_uint(seq, 64, "report seq")
        _check_uint(pkts, 32, "tx_packets")
    if not (isfinite(snr) and isfinite(power) and isfinite(tput)):
        for name in ("snr_db", "tx_power_dbm", "throughput_mbps"):
            value = getattr(r, name)
            if not isfinite(value):
                raise EncodeError(f"{name} must be finite, got {value}")


def _pack_body(body: Body) -> bytes:
    """Check every field of a body other than a KPM report's once, then pack it."""
    if isinstance(body, AuthRequestBody):
        if len(body.blob) != AUTH_BLOB_LEN:
            raise EncodeError(f"auth blob must be {AUTH_BLOB_LEN} bytes, got {len(body.blob)}")
        return body.blob
    if isinstance(body, AuthResponseBody):
        _check_uint(body.ue, 64, "ue id")
        if body.outcome not in _OUTCOMES or body.reason not in _REASONS:
            raise EncodeError("invalid auth outcome/reason")
        if len(body.token) != TOKEN_LEN:
            raise EncodeError(f"token must be {TOKEN_LEN} bytes")
        return _AUTH_RESPONSE.pack(body.ue, body.outcome, body.reason) + body.token
    if isinstance(body, SliceControlBody):
        if len(body.slices) > 0xFFFF or len(body.bindings) > 0xFFFF:
            raise EncodeError("slice control lists exceed u16 count")
        for ue, sl in body.bindings:
            if not (0 <= ue < 1 << 64 and 0 <= sl < 1 << 16):
                _check_uint(ue, 64, "ue id")
                _check_uint(sl, 16, "slice id")
        error = _slice_table_error(body)
        if error:
            raise EncodeError(error)
        out = [_COUNT.pack(len(body.bindings))]
        out.extend(starmap(_BINDING.pack, body.bindings))
        out.append(_COUNT.pack(len(body.slices)))
        for sid, mask, priority, kind in body.slices:
            out += (
                _SLICE_HEAD.pack(sid, mask.size), mask.to_bytes(), _SLICE_ATTRS.pack(priority, kind)
            )
        return b"".join(out)
    _check_uint(body.report_period_ms, 32, "report period")
    if isinstance(body, SubscriptionRequestBody):
        error = _period_error(body.report_period_ms)
        if error:
            raise EncodeError(error)
    return _PERIOD.pack(body.report_period_ms)


def encode(msg: E2Message) -> bytes:
    kind, cell, e2, seq, body = msg
    if not isinstance(body, _BODY_TYPES[kind]):
        raise EncodeError(f"{kind.name} carries {type(body).__name__}")
    if not (0 <= cell < 1 << 32 and 0 <= e2 < 1 << 32 and 0 <= seq < 1 << 64):
        _check_uint(cell, 32, "cell id")
        _check_uint(e2, 32, "e2 id")
        _check_uint(seq, 64, "seq")
    if kind is _KPM_INDICATION_KIND:
        _check_report(body.report)
        return _KPM_FRAME.pack(_KPM_FRAME.size, kind, cell, e2, seq, *body.report)
    payload = _pack_body(body)
    return _HEADER.pack(HEADER_LEN + len(payload), kind, cell, e2, seq) + payload


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise DecodeError(self.offset, f"truncated while reading {what}")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        at = self.offset
        if at + layout.size > len(self.data):
            raise DecodeError(at, f"truncated while reading {what}")
        self.offset = at + layout.size
        return layout.unpack_from(self.data, at)


def _read_body(kind: MsgKind, rd: _Reader) -> Body:
    """Parse one body; the struct widths bound every integer, so check only the rest."""
    if kind is _KPM_INDICATION_KIND:
        ue, cell, seq, snr, cqi, pkts, power, tput = rd.unpack(_KPM, "kpm report")
        report = KPMReport(ue, cell, seq, snr, cqi, pkts, power, tput)
        try:
            report.validate()
        except ValueError as e:
            raise DecodeError(rd.offset, str(e)) from e
        if not (isfinite(snr) and isfinite(power) and isfinite(tput)):
            for name in ("snr_db", "tx_power_dbm", "throughput_mbps"):
                if not isfinite(getattr(report, name)):
                    raise DecodeError(rd.offset, f"non-finite {name}")
        return KpmIndicationBody(report)
    if kind is _AUTH_REQUEST_KIND:
        return AuthRequestBody(blob=rd.take(AUTH_BLOB_LEN, "auth blob"))
    if kind is _AUTH_RESPONSE_KIND:
        ue, outcome, reason = rd.unpack(_AUTH_RESPONSE, "auth response")
        token = rd.take(TOKEN_LEN, "token")
        if outcome not in _OUTCOMES:
            raise DecodeError(rd.offset - TOKEN_LEN - 2, f"unknown outcome {outcome}")
        if reason not in _REASONS:
            raise DecodeError(rd.offset - TOKEN_LEN - 1, f"unknown reason {reason}")
        return AuthResponseBody(ue, _OUTCOMES[outcome], _REASONS[reason], token)
    if kind is _SLICE_CONTROL_KIND:
        return _read_slice_control(rd)
    if kind is _SUBSCRIPTION_REQUEST_KIND:
        return SubscriptionRequestBody(*rd.unpack(_PERIOD, "subscription"))
    return SubscriptionAckBody(*rd.unpack(_PERIOD, "subscription ack"))


def _read_slice_control(rd: _Reader) -> SliceControlBody:
    """Parse a SLICE_CONTROL body, failing at the offsets and with the texts of
    one `_Reader` call per field group.

    The bindings take one bounds check and one `iter_unpack`; each slice
    checks its bounds on the frame itself, so the loop makes no `_Reader` call.
    """
    data = rd.data
    end = len(data)
    (n_bind,) = rd.unpack(_COUNT, "binding count")
    at = rd.offset
    stop = at + n_bind * _BINDING.size
    if stop > end:  # fails at the first binding that does not fit
        raise DecodeError(
            at + (end - at) // _BINDING.size * _BINDING.size, "truncated while reading binding"
        )
    bindings = tuple(_BINDING.iter_unpack(data[at:stop]))
    rd.offset = stop
    (n_slices,) = rd.unpack(_COUNT, "slice count")
    at = rd.offset
    slices = []
    for _ in range(n_slices):
        if at + _SLICE_HEAD.size > end:
            raise DecodeError(at, "truncated while reading slice header")
        sid, size = _SLICE_HEAD.unpack_from(data, at)
        mask_at = at + _SLICE_HEAD.size
        if size == 0:
            raise DecodeError(mask_at, "slice mask sized for 0 PRBs")
        at = mask_at + (size + 7) // 8
        if at > end:
            raise DecodeError(mask_at, "truncated while reading slice mask")
        try:
            mask = PRBMask.from_bytes(data[mask_at:at], size)
        except ValueError as e:
            raise DecodeError(mask_at, str(e)) from e
        if at + 2 > end:
            raise DecodeError(at, "truncated while reading slice attrs")
        prio = _PRIORITIES.get(data[at])
        if prio is None:
            raise DecodeError(at, f"unknown priority {data[at]}")
        skind = _SLICE_KINDS.get(data[at + 1])
        if skind is None:
            raise DecodeError(at + 1, f"unknown slice kind {data[at + 1]}")
        at += 2
        try:
            slices.append(SliceSpec(sid, mask, prio, skind))
        except ValueError as e:
            raise DecodeError(mask_at, str(e)) from e
    rd.offset = at
    return SliceControlBody(bindings=bindings, slices=tuple(slices))


def decode(data: bytes) -> E2Message:
    """Parse one exact frame; inverse of encode on its image.

    Rejects truncation, unknown kind tags, and length mismatches, naming the
    byte offset. Per-connection seq monotonicity is the router's concern, not
    checked here.
    """
    rd = _Reader(data)
    if len(data) >= HEADER_LEN:
        total, tag, cell, e2, seq = _HEADER.unpack_from(data)
        rd.offset = HEADER_LEN
    else:  # read piecewise, so the truncation names the field group it fell in
        (total,) = rd.unpack(_LENGTH, "length prefix")
    if total != len(data):
        raise DecodeError(0, f"length prefix {total} but frame has {len(data)} bytes")
    if rd.offset < HEADER_LEN:
        (tag,) = rd.unpack(_TAG, "kind tag")
    kind = _KINDS.get(tag)
    if kind is None:
        raise DecodeError(4, f"unknown kind tag {tag}")
    if rd.offset < HEADER_LEN:
        rd.unpack(_IDS, "header")  # raises: the frame ends inside the header
    body = _read_body(kind, rd)
    if rd.offset != len(data):
        raise DecodeError(rd.offset, f"{len(data) - rd.offset} trailing bytes")
    error = None
    if kind is _SLICE_CONTROL_KIND:
        error = _slice_table_error(body)
    elif kind is _SUBSCRIPTION_REQUEST_KIND:
        error = _period_error(body.report_period_ms)
    if error:
        raise DecodeError(HEADER_LEN, error)
    return E2Message(kind, cell, e2, seq, body)


class Connection:
    """One end of a RAN-RIC link; stamps a strictly increasing seq on its sends."""

    def __init__(self, cell: CellId, e2: E2Id) -> None:
        self.cell = cell
        self.e2 = e2
        self.seq = 0  # the seq of the last message made

    def make(self, kind: MsgKind, body: Body) -> E2Message:
        self.seq += 1
        return E2Message(kind, self.cell, self.e2, self.seq, body)
