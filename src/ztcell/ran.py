"""Discrete-event cell model advancing in `core.FRAME_MS` (10 ms) radio frames.

Per frame: new traffic is enqueued per each UE's traffic model, then the MAC
scheduler drains queues. With zero-trust slicing active each UE is visited
once per frame: it enqueues, drains up to its own slice capacity in FIFO
order and reports its stats. Every UE has its own RNG stream and its own
slice, so the visiting order is unobservable. In legacy mode one shared FIFO
across all UEs' packets is served from the whole PRB pool, ordered by arrival.
The auth and binding invariants are checked at the start of a frame only
when `attach`, an AUTH_RESPONSE or a SLICE_CONTROL changed state since the
last check, so a quiet frame scans nothing. At each report boundary every
attached UE sends one KPM indication, except a denied one: DENIED is
terminal, so the RIC has nothing left to decide about it.

A UE's queue holds one `Batch` per frame that had arrivals: all packets a UE
enqueues in one frame share their size and arrival frame, so a batch is the
run-length form `(arrival_frame, n, left, head_bits_left, seq0)`. Each UE
also keeps a running count of its queued bits, so per-frame work does not
grow with the backlog: a zero-trust drain completes the whole packets of a
batch in O(1), and the legacy FIFO scans the UEs' head batches once per
packet served.

Packet latency is quantized to whole frames: a packet enqueued in frame a and
fully served in frame f took (f - a + 1) frames. Latency is accumulated as an
integer sum and a packet count per UE per frame, so the reported mean is the
same float as the mean of the per-packet list. Arrival order within a frame
is tracked at sub-frame resolution purely as the legacy FIFO interleaving
key: packet j of n arriving in frame a sits at a + (2j + 1) / 2n frames.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import NamedTuple

from . import e2
from .core import FRAME_MS, CellId, E2Id, KPMReport, PRBMask, SliceId, SliceKind, UeId
from .xapps.auth import blob_key, build_blob, corrupt_chain, ran_identity_blob


class AttachError(ValueError):
    pass


class InvariantError(RuntimeError):
    """A frame-stamped breach of a scheduler or state invariant."""

    def __init__(self, frame: int, detail: str) -> None:
        super().__init__(f"frame {frame}: {detail}")
        self.frame = frame


class AuthState(Enum):
    UNAUTHENTICATED = "unauthenticated"
    VERIFYING = "verifying"
    GRANTED = "granted"
    DENIED = "denied"
    ISOLATED = "isolated"


@dataclass(frozen=True)
class CellConfig:
    total_prbs: int = 100
    per_prb_rate_mbps: float = 0.24
    cell_id: CellId = 1
    e2_id: E2Id = 1

    def __post_init__(self) -> None:
        if self.total_prbs < 1:
            raise ValueError("total_prbs must be >= 1")
        if self.per_prb_rate_mbps <= 0:
            raise ValueError("per_prb_rate_mbps must be > 0")

    @property
    def prb_bits_per_frame(self) -> int:
        # 1 Mbps over one 10 ms frame is 10_000 bits.
        return round(self.per_prb_rate_mbps * FRAME_MS * 1000)

    @property
    def cell_bits_per_frame(self) -> int:
        return self.total_prbs * self.prb_bits_per_frame


@dataclass(frozen=True)
class TrafficModel:
    kind: str  # cbr | uniform_rate | flood | idle
    rate_mbps: float = 0.0
    lo_mbps: float = 0.0
    hi_mbps: float = 0.0
    onset_frame: int = 0  # flood only: silent before this frame
    packet_size_bytes: int = 1500

    def __post_init__(self) -> None:
        if self.kind not in ("cbr", "uniform_rate", "flood", "idle"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.kind in ("cbr", "flood") and self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be > 0")
        if self.kind == "uniform_rate":
            if self.lo_mbps <= 0 or self.lo_mbps > self.hi_mbps:
                raise ValueError("uniform_rate needs 0 < lo <= hi")
        if self.packet_size_bytes < 1:
            raise ValueError("packet_size_bytes must be >= 1")

    def bits_in_frame(self, frame: int, rng: Random) -> float:
        if self.kind == "idle":
            return 0.0
        if self.kind == "cbr":
            rate = self.rate_mbps
        elif self.kind == "uniform_rate":
            rate = rng.uniform(self.lo_mbps, self.hi_mbps)
        else:  # flood
            rate = self.rate_mbps if frame >= self.onset_frame else 0.0
        return rate * FRAME_MS * 1000.0


@dataclass(frozen=True)
class RadioProfile:
    snr_mean_db: float = 25.0
    snr_std_db: float = 2.0
    cqi_mean: float = 12.0
    cqi_std: float = 1.5
    tx_power_mean_dbm: float = 20.0
    tx_power_std_dbm: float = 1.0


class Batch:
    """The `n` equal-sized packets one UE enqueued in one frame.

    `left` packets are not yet fully served; the first of them (the head,
    sequence number `seq0 + n - left`) still needs `head_bits_left` bits and
    every later one a whole packet.
    """

    __slots__ = ("arrival_frame", "n", "left", "head_bits_left", "seq0")

    def __init__(self, arrival_frame: int, n: int, pkt_bits: int, seq0: int) -> None:
        self.arrival_frame = arrival_frame
        self.n = n
        self.left = n
        self.head_bits_left = pkt_bits
        self.seq0 = seq0


@dataclass
class UeState:
    id: UeId
    traffic: TrafficModel
    radio: RadioProfile
    rng_traffic: Random
    rng_radio: Random
    auth_state: AuthState = AuthState.UNAUTHENTICATED
    slice_id: SliceId | None = None
    token: bytes | None = None
    credential_chain: tuple[bytes, ...] = ()
    cred_mode: str = "valid"  # valid | wrong_token | wrong_credential, kept at re-auth
    granted_frame: int | None = None
    queue: deque[Batch] = field(default_factory=deque)
    queued_bits: int = 0
    bits_accum: float = 0.0
    pkt_seq: int = 0
    kpm_seq: int = 0
    window_arrived_pkts: int = 0
    window_served_bits: int = 0

    def queue_bits(self) -> int:
        return self.queued_bits


class UeFrameStats(NamedTuple):
    served_bits: int
    queue_bytes: int
    mean_latency_ms: float | None
    auth_state: str
    slice_id: SliceId | None


@dataclass(frozen=True)
class FrameReport:
    frame_index: int
    per_ue: dict[UeId, UeFrameStats]


class RanCell:
    """One cell plus its E2 connection; the runner drains `outbox` between frames."""

    def __init__(self, config: CellConfig, secret: bytes, zero_trust: bool = True) -> None:
        self.cfg = config
        self.secret = secret
        self.zero_trust = zero_trust
        self.conn = e2.Connection(config.cell_id, config.e2_id)
        self.outbox: list[bytes] = []
        self.frame_index = 0
        self.ues: dict[UeId, UeState] = {}
        self.ue_order: list[UeId] = []
        self.slice_masks: dict[SliceId, PRBMask] = {}
        self.slice_kinds: dict[SliceId, SliceKind] = {}
        self.slice_bits: dict[SliceId, int] = {}  # capacity per frame, per table
        self.report_period_frames: int | None = None
        self.reauth_period_frames: int = 0  # 0 disables RAN-driven re-auth
        self.state_changed = True  # UE auth or binding state moved since the last check

    # ---- E2 egress -------------------------------------------------------

    def _send(self, kind: e2.MsgKind, body) -> None:
        self.outbox.append(e2.encode(self.conn.make("ran", kind, body)))

    def connect(self, ran_credential: bytes) -> None:
        """Present the RAN's own identity blob so the RIC can verify this node."""
        blob = ran_identity_blob(self.secret, self.cfg.cell_id, self.cfg.e2_id, ran_credential)
        self._send(e2.MsgKind.AUTH_REQUEST, e2.AuthRequestBody(blob))

    # ---- attach / auth ----------------------------------------------------

    def attach(
        self,
        ue: UeId,
        traffic: TrafficModel,
        radio: RadioProfile,
        rng_traffic: Random,
        rng_radio: Random,
        credential_chain: tuple[bytes, ...] = (),
        token: bytes | None = None,
        cred_mode: str = "valid",
    ) -> None:
        if ue in self.ues:
            raise AttachError(f"UE {ue} already attached")
        state = UeState(
            id=ue,
            traffic=traffic,
            radio=radio,
            rng_traffic=rng_traffic,
            rng_radio=rng_radio,
            credential_chain=credential_chain,
            token=token,
            cred_mode=cred_mode,
        )
        self.ues[ue] = state
        self.ue_order.append(ue)
        self.state_changed = True
        if not self.zero_trust:
            return  # legacy cell: no authentication traffic, shared scheduling
        self._send_auth_request(state, slice_id=0, cred_mode=cred_mode)
        state.auth_state = AuthState.VERIFYING

    def _send_auth_request(self, ue: UeState, slice_id: int, cred_mode: str) -> None:
        token = ue.token if ue.token is not None else bytes(e2.TOKEN_LEN)
        chain = ue.credential_chain
        if cred_mode == "wrong_token":
            bad = Random(f"badtoken/{ue.id}")
            token = bad.randbytes(e2.TOKEN_LEN)
        elif cred_mode == "wrong_credential":
            chain = corrupt_chain(chain)
        key = blob_key(self.secret, chain)
        blob = build_blob(token, ue.id, self.cfg.cell_id, self.cfg.e2_id, slice_id, key)
        self._send(e2.MsgKind.AUTH_REQUEST, e2.AuthRequestBody(blob))

    def maybe_reauth(self, frame: int) -> None:
        """Re-present credentials for granted UEs on the configured period."""
        if not self.zero_trust or self.reauth_period_frames <= 0:
            return
        for ue_id in self.ue_order:
            ue = self.ues[ue_id]
            if ue.auth_state is not AuthState.GRANTED or ue.granted_frame is None:
                continue
            age = frame - ue.granted_frame
            if age > 0 and age % self.reauth_period_frames == 0:
                self._send_auth_request(ue, slice_id=ue.slice_id or 0, cred_mode=ue.cred_mode)

    # ---- E2 ingress -------------------------------------------------------

    def handle_frame(self, data: bytes) -> None:
        msg = e2.decode(data)
        body = msg.body
        if isinstance(body, e2.AuthResponseBody):
            self._on_auth_response(body)
        elif isinstance(body, e2.SliceControlBody):
            self.apply_slice_control(body)
        elif isinstance(body, e2.SubscriptionRequestBody):
            self.report_period_frames = body.report_period_ms // FRAME_MS
            self._send(e2.MsgKind.SUBSCRIPTION_ACK, e2.SubscriptionAckBody(body.report_period_ms))

    def _on_auth_response(self, body: e2.AuthResponseBody) -> None:
        ue = self.ues.get(body.ue)
        if ue is None:
            return
        if ue.auth_state is AuthState.DENIED:
            return  # terminal: a UE is attached once, so nothing can re-admit it
        self.state_changed = True
        if body.outcome is e2.AuthOutcome.GRANTED:
            if ue.auth_state is not AuthState.ISOLATED:
                ue.auth_state = AuthState.GRANTED
            ue.token = body.token
            if ue.granted_frame is None:
                ue.granted_frame = self.frame_index
        else:  # denied or revoked: service stops for good
            ue.auth_state = AuthState.DENIED
            ue.slice_id = None
            ue.granted_frame = None
            ue.token = None

    def apply_slice_control(self, body: e2.SliceControlBody) -> None:
        """Install a new slice table; callers only invoke this on frame boundaries."""
        self.state_changed = True  # first, so a table that fails half-way is still checked
        self.slice_masks = {s.id: s.mask for s in body.slices}
        self.slice_kinds = {s.id: s.kind for s in body.slices}
        self.slice_bits = {s.id: s.budget() * self.cfg.prb_bits_per_frame for s in body.slices}
        bound = dict(body.bindings)
        for ue_id, ue in self.ues.items():
            new = bound.get(ue_id)
            ue.slice_id = new
            restricted = new is not None and self.slice_kinds[new] is SliceKind.RESTRICTED
            # Denied is terminal: a denied UE bound anyway fails _check_invariants.
            if restricted and ue.auth_state is not AuthState.DENIED:
                ue.auth_state = AuthState.ISOLATED

    # ---- frame advance ----------------------------------------------------

    def _check_invariants(self) -> None:
        f = self.frame_index
        for ue_id, ue in self.ues.items():
            if ue.auth_state in (AuthState.GRANTED, AuthState.ISOLATED) and ue.slice_id is None:
                raise InvariantError(f, f"UE {ue_id} is {ue.auth_state.value} but unbound")
            if ue.auth_state in (AuthState.UNAUTHENTICATED, AuthState.DENIED) and ue.slice_id is not None:
                raise InvariantError(f, f"UE {ue_id} is {ue.auth_state.value} but bound")
            if ue.slice_id is not None and ue.slice_id not in self.slice_masks:
                raise InvariantError(f, f"UE {ue_id} bound to unknown slice {ue.slice_id}")
            if ue.auth_state is AuthState.ISOLATED:
                kind = self.slice_kinds[ue.slice_id]  # bound to a known slice, checked above
                if kind is not SliceKind.RESTRICTED:
                    raise InvariantError(f, f"UE {ue_id} is isolated but bound to a {kind.name.lower()} slice")

    def _enqueue_traffic(self, ue: UeState) -> None:
        f = self.frame_index
        bits = ue.traffic.bits_in_frame(f, ue.rng_traffic)
        ue.bits_accum += bits
        pkt_bits = ue.traffic.packet_size_bytes * 8
        n = int(ue.bits_accum // pkt_bits)
        if n <= 0:
            return
        ue.bits_accum -= n * pkt_bits
        if ue.auth_state is AuthState.DENIED and ue.queue:
            # Never served again, so only the count matters: grow the tail batch.
            ue.queue[-1].n += n
            ue.queue[-1].left += n
        else:
            ue.queue.append(Batch(f, n, pkt_bits, ue.pkt_seq))
        ue.pkt_seq += n
        ue.queued_bits += n * pkt_bits
        ue.window_arrived_pkts += n

    def _drain(self, ue: UeState, capacity: int) -> tuple[int, int, int]:
        """Serve `ue`'s FIFO up to `capacity` bits, one batch at a time.

        Returns (bits served, latency sum in ms, packets completed).
        """
        served = lat_sum = done_total = 0
        f = self.frame_index
        pkt_bits = ue.traffic.packet_size_bytes * 8
        q = ue.queue
        while capacity > 0 and q:
            b = q[0]
            take = min(b.head_bits_left, capacity)
            b.head_bits_left -= take
            capacity -= take
            served += take
            if b.head_bits_left:
                break
            # The head is done; complete as many whole packets after it as fit.
            whole = min(b.left - 1, capacity // pkt_bits)
            capacity -= whole * pkt_bits
            served += whole * pkt_bits
            done = whole + 1
            b.left -= done
            lat_sum += done * (f - b.arrival_frame + 1) * FRAME_MS
            done_total += done
            if b.left:
                b.head_bits_left = pkt_bits
            else:
                q.popleft()
        ue.queued_bits -= served
        return served, lat_sum, done_total

    def step_frame(self) -> FrameReport:
        f = self.frame_index
        per_ue: dict[UeId, UeFrameStats] = {}
        if self.zero_trust:
            if self.state_changed:
                self._check_invariants()  # a breach keeps the flag set, so it raises again
                self.state_changed = False
            for ue_id in self.ue_order:
                ue = self.ues[ue_id]
                self._enqueue_traffic(ue)
                cap = self.slice_bits.get(ue.slice_id, 0)  # an unbound UE is not served
                served, lat_sum, lat_n = self._drain(ue, cap)
                if served > cap:
                    raise InvariantError(f, f"UE {ue_id} served over slice capacity")
                per_ue[ue_id] = self._frame_stats(ue, served, lat_sum, lat_n)
        else:
            fm = FRAME_MS
            ues = [self.ues[u] for u in self.ue_order]
            for ue in ues:
                self._enqueue_traffic(ue)
            served = {u: 0 for u in self.ue_order}
            lat_sum = {u: 0 for u in self.ue_order}
            lat_n = {u: 0 for u in self.ue_order}
            cap_left = self.cfg.cell_bits_per_frame
            while cap_left > 0:
                head_idx = -1
                head_key = None
                for idx, ue in enumerate(ues):
                    if not ue.queue:
                        continue
                    b = ue.queue[0]
                    j = b.n - b.left
                    # idx differs per UE, so it settles every tie of the float key.
                    key = (b.arrival_frame * fm + fm * (2 * j + 1) / (2 * b.n), idx)
                    if head_key is None or key < head_key:
                        head_key = key
                        head_idx = idx
                if head_key is None:
                    break
                ue = ues[head_idx]
                b = ue.queue[0]
                take = min(b.head_bits_left, cap_left)
                b.head_bits_left -= take
                ue.queued_bits -= take
                served[ue.id] += take
                cap_left -= take
                if b.head_bits_left == 0:
                    b.left -= 1
                    lat_sum[ue.id] += (f - b.arrival_frame + 1) * fm
                    lat_n[ue.id] += 1
                    if b.left:
                        b.head_bits_left = ue.traffic.packet_size_bytes * 8
                    else:
                        ue.queue.popleft()
            if sum(served.values()) > self.cfg.cell_bits_per_frame:
                raise InvariantError(f, "cell served over shared capacity")
            for u, ue in zip(self.ue_order, ues):
                per_ue[u] = self._frame_stats(ue, served[u], lat_sum[u], lat_n[u])
        self.frame_index += 1
        return FrameReport(frame_index=f, per_ue=per_ue)

    def _frame_stats(self, ue: UeState, served: int, lat_sum: int, lat_n: int) -> UeFrameStats:
        ue.window_served_bits += served
        return UeFrameStats(
            served,
            ue.queue_bits() // 8,
            lat_sum / lat_n if lat_n else None,
            ue.auth_state._value_,  # a plain attribute, unlike the `.value` property
            ue.slice_id,
        )

    # ---- KPM reporting ----------------------------------------------------

    def collect_kpm(self, ue_id: UeId, period_ms: int) -> KPMReport:
        """Build one report for the window that just ended and reset counters."""
        ue = self.ues[ue_id]
        snr = ue.rng_radio.gauss(ue.radio.snr_mean_db, ue.radio.snr_std_db)
        cqi = min(15, max(0, round(ue.rng_radio.gauss(ue.radio.cqi_mean, ue.radio.cqi_std))))
        power = ue.rng_radio.gauss(ue.radio.tx_power_mean_dbm, ue.radio.tx_power_std_dbm)
        ue.kpm_seq += 1
        report = KPMReport(
            ue_id, self.cfg.cell_id, ue.kpm_seq, snr, cqi, ue.window_arrived_pkts, power,
            ue.window_served_bits / (period_ms * 1000.0),
        )
        ue.window_arrived_pkts = 0
        ue.window_served_bits = 0
        return report

    def emit_kpm_if_due(self) -> None:
        """Send per-UE indications when a report window closed at this boundary."""
        if self.report_period_frames is None or self.frame_index == 0:
            return
        if self.frame_index % self.report_period_frames:
            return
        period_ms = self.report_period_frames * FRAME_MS
        for ue_id in self.ue_order:
            if self.ues[ue_id].auth_state is not AuthState.DENIED:  # terminal: nothing to decide
                report = self.collect_kpm(ue_id, period_ms)
                self._send(e2.MsgKind.KPM_INDICATION, e2.KpmIndicationBody(report))
