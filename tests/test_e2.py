"""E2 codec: golden frames, round-trip properties, and rejection paths."""
import math
import struct
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztcell import e2
from ztcell.core import (
    KPMReport,
    PRBMask,
    SliceKind,
    SlicePriority,
    SliceSpec,
    equal_split,
    validate_slice_table,
)
from ztcell.e2 import (
    AuthOutcome,
    AuthReason,
    AuthRequestBody,
    AuthResponseBody,
    DecodeError,
    E2Message,
    EncodeError,
    KpmIndicationBody,
    MsgKind,
    SliceControlBody,
    SubscriptionAckBody,
    SubscriptionRequestBody,
    decode,
    encode,
)

GOLDEN = {}
for line in (Path(__file__).parent / "data" / "golden_frames.txt").read_text().splitlines():
    line = line.strip()
    if line and not line.startswith("#"):
        name, hexstr = line.split()
        GOLDEN[name] = bytes.fromhex(hexstr)


def golden_messages() -> dict[str, E2Message]:
    mask = PRBMask.from_range(0, 25, 100)
    return {
        "subscription_request_all": E2Message(
            MsgKind.SUBSCRIPTION_REQUEST, 7, 9, 1, SubscriptionRequestBody(100)
        ),
        "subscription_ack": E2Message(
            MsgKind.SUBSCRIPTION_ACK, 7, 9, 3, SubscriptionAckBody(200)
        ),
        "auth_request": E2Message(MsgKind.AUTH_REQUEST, 1, 1, 4, AuthRequestBody(b"\x11" * 66)),
        "auth_response_granted": E2Message(
            MsgKind.AUTH_RESPONSE, 1, 1, 2,
            AuthResponseBody(5, AuthOutcome.GRANTED, AuthReason.OK, bytes(range(16))),
        ),
        "auth_response_denied": E2Message(
            MsgKind.AUTH_RESPONSE, 1, 1, 5,
            AuthResponseBody(4, AuthOutcome.DENIED, AuthReason.UNKNOWN_TOKEN, bytes(16)),
        ),
        "slice_control": E2Message(
            MsgKind.SLICE_CONTROL, 1, 1, 3,
            SliceControlBody(bindings=((5, 1),), slices=(SliceSpec(1, mask),)),
        ),
        "kpm_indication": E2Message(
            MsgKind.KPM_INDICATION, 1, 1, 4,
            KpmIndicationBody(KPMReport(2, 1, 1, 25.0, 12, 125, 20.0, 15.0)),
        ),
    }


class TestGoldenFrames:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encode_matches_golden(self, name):
        assert encode(golden_messages()[name]) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_decode_matches_message(self, name):
        assert decode(GOLDEN[name]) == golden_messages()[name]

    def test_subscription_kind_tag_and_fields(self):
        raw = GOLDEN["subscription_request_all"]
        assert raw[4] == 0x04
        assert raw[-4:] == bytes.fromhex("00000064")  # period 100 ms, the whole body
        assert len(raw) == e2.HEADER_LEN + 4

    def test_length_prefix_equals_emitted_byte_count(self):
        for name, raw in GOLDEN.items():
            assert int.from_bytes(raw[:4], "big") == len(raw), name


# ---- hypothesis strategies ------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
uint = lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)


@st.composite
def slice_control_bodies(draw):
    total = draw(st.integers(min_value=4, max_value=120))
    n = draw(st.integers(min_value=1, max_value=min(4, total)))
    budgets = equal_split(total, n)
    masks = [
        PRBMask.from_range(start, b, total)
        for start, b in zip(accumulate(budgets, initial=0), budgets)
    ]
    ids = draw(
        st.lists(uint(16).filter(lambda v: v > 0), min_size=n, max_size=n, unique=True)
    )
    kinds = draw(st.lists(st.sampled_from(list(SliceKind)), min_size=n, max_size=n))
    prios = draw(st.lists(st.sampled_from(list(SlicePriority)), min_size=n, max_size=n))
    slices = tuple(
        SliceSpec(i, m, priority=p, kind=k) for i, m, p, k in zip(ids, masks, prios, kinds)
    )
    n_bind = draw(st.integers(min_value=0, max_value=3))
    bindings = tuple(
        (draw(uint(64)), draw(st.sampled_from(ids))) for _ in range(n_bind)
    )
    return SliceControlBody(bindings=bindings, slices=slices)


@st.composite
def kpm_bodies(draw):
    report = KPMReport(
        ue=draw(uint(64)),
        cell=draw(uint(32)),
        seq=draw(uint(64)),
        snr_db=draw(finite),
        cqi=draw(st.integers(min_value=0, max_value=15)),
        tx_packets=draw(uint(32)),
        tx_power_dbm=draw(finite),
        throughput_mbps=draw(finite.filter(lambda v: v >= 0)),
    )
    return KpmIndicationBody(report)


@st.composite
def messages(draw) -> E2Message:
    kind = draw(st.sampled_from(list(MsgKind)))
    if kind == MsgKind.AUTH_REQUEST:
        body = AuthRequestBody(draw(st.binary(min_size=66, max_size=66)))
    elif kind == MsgKind.AUTH_RESPONSE:
        body = AuthResponseBody(
            draw(uint(64)),
            draw(st.sampled_from(list(AuthOutcome))),
            draw(st.sampled_from(list(AuthReason))),
            draw(st.binary(min_size=16, max_size=16)),
        )
    elif kind == MsgKind.KPM_INDICATION:
        body = draw(kpm_bodies())
    elif kind == MsgKind.SLICE_CONTROL:
        body = draw(slice_control_bodies())
    elif kind == MsgKind.SUBSCRIPTION_REQUEST:
        body = SubscriptionRequestBody(draw(st.integers(1, 1000)) * 10)
    else:
        body = SubscriptionAckBody(draw(uint(32)))
    return E2Message(kind, draw(uint(32)), draw(uint(32)), draw(uint(64)), body)


class TestRoundTrip:
    @given(messages())
    @settings(max_examples=300)
    def test_decode_inverts_encode(self, msg):
        assert decode(encode(msg)) == msg

    @given(st.binary(min_size=64, max_size=64))
    @settings(max_examples=300)
    def test_random_frames_error_or_reencode_identically(self, data):
        try:
            msg = decode(data)
        except DecodeError:
            return
        assert encode(msg) == data  # no silent corruption

    @given(messages(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=100)
    def test_truncation_rejected(self, msg, cut):
        raw = encode(msg)
        cut = min(cut, len(raw))
        with pytest.raises(DecodeError):
            decode(raw[:-cut])


class TestErrors:
    def test_empty_input_truncation_at_offset_zero(self):
        with pytest.raises(DecodeError) as err:
            decode(b"")
        assert err.value.offset == 0

    def test_dropped_last_byte(self):
        raw = GOLDEN["kpm_indication"]
        with pytest.raises(DecodeError):
            decode(raw[:-1])

    def test_unknown_kind_tag(self):
        raw = bytearray(GOLDEN["subscription_ack"])
        raw[4] = 0x7F
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 4

    def test_length_mismatch_named_at_offset_zero(self):
        raw = bytearray(GOLDEN["subscription_ack"])
        raw[3] += 1
        with pytest.raises(DecodeError) as err:
            decode(bytes(raw))
        assert err.value.offset == 0

    def test_binding_to_undeclared_slice_is_encode_error(self):
        mask = PRBMask.from_range(0, 10, 100)
        body = SliceControlBody(bindings=((5, 99),), slices=(SliceSpec(1, mask),))
        with pytest.raises(EncodeError, match="undeclared"):
            encode(E2Message(MsgKind.SLICE_CONTROL, 1, 1, 1, body))

    def test_overlapping_slices_rejected_at_encode(self):
        a = SliceSpec(1, PRBMask.from_range(0, 10, 100))
        b = SliceSpec(2, PRBMask.from_range(5, 10, 100))
        body = SliceControlBody(bindings=(), slices=(a, b))
        with pytest.raises(EncodeError):
            encode(E2Message(MsgKind.SLICE_CONTROL, 1, 1, 1, body))

    def test_period_must_be_whole_frames(self):
        body = SubscriptionRequestBody(105)
        with pytest.raises(EncodeError):
            encode(E2Message(MsgKind.SUBSCRIPTION_REQUEST, 1, 1, 1, body))

    def test_wrong_blob_length_rejected(self):
        with pytest.raises(EncodeError):
            encode(E2Message(MsgKind.AUTH_REQUEST, 1, 1, 1, AuthRequestBody(b"short")))

    def test_mismatched_body_kind_rejected(self):
        with pytest.raises(EncodeError):
            encode(E2Message(MsgKind.AUTH_REQUEST, 1, 1, 1, SubscriptionAckBody(100)))


class TestMaskPaddingOnWire:
    def test_slice_control_with_set_padding_bit_rejected(self):
        raw = bytearray(GOLDEN["slice_control"])
        # The 13-byte mask starts right after bindings(12) + counts(2+2) + id/size(4)
        # within the payload; locate it from the end: prio+kind are the last 2 bytes.
        raw[-3] |= 0x01  # last mask byte, a pad bit beyond PRB 99
        with pytest.raises(DecodeError, match="padding"):
            decode(bytes(raw))


# ---- reference model: the decoder before each field was checked once -------------
#
# `reference_decode` is the codec's earlier decode, kept verbatim but for
# names: it unpacks with format strings, converts enum tags through tuples,
# decodes masks by reversing a bit string, and re-runs the whole encode-side
# validation on every decoded message. The current decode must agree with it
# on every input: the same message, or a DecodeError with the same offset and
# the same detail.


def _ref_check_uint(value: int, bits: int, name: str) -> None:
    if not 0 <= value < 1 << bits:
        raise EncodeError(f"{name} {value} outside u{bits}")


def _ref_check_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise EncodeError(f"{name} must be finite, got {value}")


_REF_BODY_TYPES = {
    MsgKind.AUTH_REQUEST: AuthRequestBody,
    MsgKind.AUTH_RESPONSE: AuthResponseBody,
    MsgKind.KPM_INDICATION: KpmIndicationBody,
    MsgKind.SLICE_CONTROL: SliceControlBody,
    MsgKind.SUBSCRIPTION_REQUEST: SubscriptionRequestBody,
    MsgKind.SUBSCRIPTION_ACK: SubscriptionAckBody,
}


def _ref_validate(msg: E2Message) -> None:
    expected = _REF_BODY_TYPES[msg.kind]
    if not isinstance(msg.body, expected):
        raise EncodeError(f"{msg.kind.name} carries {type(msg.body).__name__}")
    _ref_check_uint(msg.cell, 32, "cell id")
    _ref_check_uint(msg.e2, 32, "e2 id")
    _ref_check_uint(msg.seq, 64, "seq")
    body = msg.body
    if isinstance(body, AuthRequestBody):
        if len(body.blob) != 66:
            raise EncodeError(f"auth blob must be 66 bytes, got {len(body.blob)}")
    elif isinstance(body, AuthResponseBody):
        _ref_check_uint(body.ue, 64, "ue id")
        if body.outcome not in tuple(AuthOutcome) or body.reason not in tuple(AuthReason):
            raise EncodeError("invalid auth outcome/reason")
        if len(body.token) != 16:
            raise EncodeError("token must be 16 bytes")
    elif isinstance(body, KpmIndicationBody):
        r = body.report
        try:
            r.validate()
        except ValueError as e:
            raise EncodeError(str(e)) from e
        _ref_check_uint(r.ue, 64, "ue id")
        _ref_check_uint(r.cell, 32, "cell id")
        _ref_check_uint(r.seq, 64, "report seq")
        _ref_check_uint(r.tx_packets, 32, "tx_packets")
        for name in ("snr_db", "tx_power_dbm", "throughput_mbps"):
            _ref_check_finite(getattr(r, name), name)
    elif isinstance(body, SliceControlBody):
        if len(body.slices) > 0xFFFF or len(body.bindings) > 0xFFFF:
            raise EncodeError("slice control lists exceed u16 count")
        sizes = {s.mask.size for s in body.slices}
        if len(sizes) > 1:
            raise EncodeError("slice masks disagree on cell PRB count")
        total = sizes.pop() if sizes else 0
        violations = validate_slice_table(list(body.slices), total) if body.slices else []
        if violations:
            raise EncodeError("; ".join(v.detail for v in violations))
        declared = {s.id for s in body.slices}
        for ue, sl in body.bindings:
            _ref_check_uint(ue, 64, "ue id")
            _ref_check_uint(sl, 16, "slice id")
            if sl not in declared:
                raise EncodeError(f"binding references undeclared slice {sl}")
    elif isinstance(body, SubscriptionRequestBody):
        _ref_check_uint(body.report_period_ms, 32, "report period")
        if body.report_period_ms == 0 or body.report_period_ms % 10:
            raise EncodeError(
                f"report period {body.report_period_ms} ms is not a whole number of "
                f"10 ms frames"
            )
    elif isinstance(body, SubscriptionAckBody):
        _ref_check_uint(body.report_period_ms, 32, "report period")


def _ref_mask_from_bytes(data: bytes, size: int) -> PRBMask:
    nbytes = (size + 7) // 8
    if len(data) != nbytes:
        raise ValueError(f"expected {nbytes} mask bytes for {size} PRBs, got {len(data)}")
    acc = int.from_bytes(data, "big")
    pad_bits = nbytes * 8 - size
    if pad_bits and acc & ((1 << pad_bits) - 1):
        raise ValueError("padding bits beyond the last PRB must be zero")
    width = nbytes * 8
    return PRBMask(size=size, bits=int(format(acc, f"0{width}b")[::-1], 2))


class _RefReader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise DecodeError(self.offset, f"truncated while reading {what}")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _ref_decode_body(kind: MsgKind, rd: _RefReader):
    if kind == MsgKind.AUTH_REQUEST:
        return AuthRequestBody(blob=rd.take(66, "auth blob"))
    if kind == MsgKind.AUTH_RESPONSE:
        ue, outcome, reason = rd.unpack(">QBB", "auth response")
        token = rd.take(16, "token")
        if outcome not in tuple(AuthOutcome):
            raise DecodeError(rd.offset - 16 - 2, f"unknown outcome {outcome}")
        if reason not in tuple(AuthReason):
            raise DecodeError(rd.offset - 16 - 1, f"unknown reason {reason}")
        return AuthResponseBody(ue, AuthOutcome(outcome), AuthReason(reason), token)
    if kind == MsgKind.KPM_INDICATION:
        ue, cell, seq, snr, cqi, pkts, power, tput = rd.unpack(">QIQdBIdd", "kpm report")
        report = KPMReport(ue, cell, seq, snr, cqi, pkts, power, tput)
        try:
            report.validate()
        except ValueError as e:
            raise DecodeError(rd.offset, str(e)) from e
        for name in ("snr_db", "tx_power_dbm", "throughput_mbps"):
            if not math.isfinite(getattr(report, name)):
                raise DecodeError(rd.offset, f"non-finite {name}")
        return KpmIndicationBody(report)
    if kind == MsgKind.SLICE_CONTROL:
        (n_bind,) = rd.unpack(">H", "binding count")
        bindings = tuple(rd.unpack(">QH", "binding") for _ in range(n_bind))
        (n_slices,) = rd.unpack(">H", "slice count")
        slices = []
        for _ in range(n_slices):
            sid, size = rd.unpack(">HH", "slice header")
            at = rd.offset
            if size == 0:
                raise DecodeError(at, "slice mask sized for 0 PRBs")
            raw = rd.take((size + 7) // 8, "slice mask")
            try:
                mask = _ref_mask_from_bytes(raw, size)
            except ValueError as e:
                raise DecodeError(at, str(e)) from e
            prio, skind = rd.unpack(">BB", "slice attrs")
            if prio not in tuple(SlicePriority):
                raise DecodeError(rd.offset - 2, f"unknown priority {prio}")
            if skind not in tuple(SliceKind):
                raise DecodeError(rd.offset - 1, f"unknown slice kind {skind}")
            try:
                slices.append(SliceSpec(sid, mask, SlicePriority(prio), SliceKind(skind)))
            except ValueError as e:
                raise DecodeError(at, str(e)) from e
        return SliceControlBody(bindings=bindings, slices=tuple(slices))
    if kind == MsgKind.SUBSCRIPTION_REQUEST:
        (period,) = rd.unpack(">I", "subscription")
        return SubscriptionRequestBody(period)
    if kind == MsgKind.SUBSCRIPTION_ACK:
        (period,) = rd.unpack(">I", "subscription ack")
        return SubscriptionAckBody(period)
    raise DecodeError(4, f"unknown kind tag {kind}")


def reference_decode(data: bytes) -> E2Message:
    rd = _RefReader(data)
    (total,) = rd.unpack(">I", "length prefix")
    if total != len(data):
        raise DecodeError(0, f"length prefix {total} but frame has {len(data)} bytes")
    (tag,) = rd.unpack(">B", "kind tag")
    if tag not in tuple(MsgKind):
        raise DecodeError(4, f"unknown kind tag {tag}")
    kind = MsgKind(tag)
    cell, e2_id, seq = rd.unpack(">IIQ", "header")
    body = _ref_decode_body(kind, rd)
    if rd.offset != len(data):
        raise DecodeError(rd.offset, f"{len(data) - rd.offset} trailing bytes")
    msg = E2Message(kind=kind, cell=cell, e2=e2_id, seq=seq, body=body)
    try:
        _ref_validate(msg)
    except EncodeError as e:
        raise DecodeError(21, str(e)) from e
    return msg


def decode_outcome(fn, data: bytes):
    """What `fn` makes of `data`: the message, or the error it raised."""
    try:
        return ("message", fn(data))
    except DecodeError as err:
        return ("decode_error", err.offset, err.detail, str(err))
    except Exception as err:  # any other exception must match too
        return ("raised", type(err).__name__, str(err))


def with_length(raw: bytes) -> bytes:
    """`raw` with its length prefix rewritten to match, so the body is parsed."""
    return len(raw).to_bytes(4, "big") + raw[4:] if len(raw) >= 4 else raw


@st.composite
def mutated_frames(draw) -> bytes:
    """A golden or generated frame, truncated, extended, overwritten or bit-flipped."""
    raw = draw(
        st.one_of(st.sampled_from(sorted(GOLDEN.values())), messages().map(encode))
    )
    how = draw(st.sampled_from(["truncate", "extend", "overwrite", "flip", "flip_body"]))
    if how == "truncate":
        raw = raw[: draw(st.integers(min_value=0, max_value=len(raw) - 1))]
    elif how == "extend":
        raw = raw + draw(st.binary(min_size=1, max_size=8))
    elif how == "overwrite":  # one byte set to a value, which favours 0, 1, 2 and 255
        at = draw(st.integers(min_value=4, max_value=len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1 :]
    else:
        lo = e2.HEADER_LEN if how == "flip_body" and len(raw) > e2.HEADER_LEN else 0
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            bit = draw(st.integers(min_value=lo * 8, max_value=len(raw) * 8 - 1))
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            raw = bytes(flipped)
    return with_length(raw) if draw(st.booleans()) else raw


class TestDecodeMatchesReference:
    @given(messages())
    @settings(max_examples=300)
    def test_valid_messages_round_trip_in_both(self, msg):
        raw = encode(msg)
        assert decode(raw) == msg
        assert reference_decode(raw) == msg

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_frames_decode_alike(self, name):
        assert decode_outcome(decode, GOLDEN[name]) == decode_outcome(reference_decode, GOLDEN[name])

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_golden_byte_overwritten_or_flipped_alike(self, name):
        raw = GOLDEN[name]
        for at in range(len(raw)):
            values = {0, 1, 2, 3, 15, 16, 127, 128, 254, 255}
            values |= {raw[at] ^ (1 << bit) for bit in range(8)}
            for value in values:
                data = raw[:at] + bytes([value]) + raw[at + 1 :]
                assert decode_outcome(decode, data) == decode_outcome(reference_decode, data)

    @given(mutated_frames())
    @settings(max_examples=1000, deadline=None)
    def test_mutated_frames_fail_or_pass_alike(self, raw):
        assert decode_outcome(decode, raw) == decode_outcome(reference_decode, raw)

    @given(st.binary(max_size=80))
    @settings(max_examples=300)
    def test_random_bytes_fail_or_pass_alike(self, raw):
        for data in (raw, with_length(raw)):
            assert decode_outcome(decode, data) == decode_outcome(reference_decode, data)
