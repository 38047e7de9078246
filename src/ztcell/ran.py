"""Discrete-event cell model advancing in `core.FRAME_MS` (10 ms) radio frames.

The cell is built from the parsed `Scenario`. Per frame it visits each UE
once, in attach order, and first draws and enqueues its new traffic per its
traffic model. Every UE has its own slice and its own RNG streams, which
`attach` names from the scenario seed, so the visiting order is unobservable.
With zero-trust slicing active each UE is served as it is visited: it drains up
to its own slice capacity in FIFO order and reports its stats in the same
loop body, with no per-UE method call; a UE whose queue is empty serves
nothing and has no latency, so it takes the stats it last had while idle,
rebuilt only when its auth state or slice changed. In legacy mode the loop
sums the backlog, and after it one shared FIFO across all UEs' packets is
served from the whole PRB pool, ordered by arrival; while the frame's whole
backlog fits the pool, every packet completes in that frame whatever the
order, so each UE's queue is drained whole instead, batch by batch.
The auth and binding invariants are checked at the start of a frame only
when `attach`, an AUTH_RESPONSE or a SLICE_CONTROL changed state since the
last check, so a quiet frame scans nothing. At each report boundary every
attached UE sends one KPM indication, except a denied one: DENIED is
terminal, so the RIC has nothing left to decide about it. A report draws
its snr, cqi and tx_power normals, in that order, from the UE's radio RNG
with `Random.gauss`'s arithmetic written out over `rng.random()`: three
normals a report split every other Box-Muller pair across two reports, so
`collect_kpm` takes `gauss`'s cached normal from `rng.gauss_next` and writes
the one it leaves back. Its reference, three `rng.gauss` calls, lives in the
tests. A UE's stats for a frame are interned in one dict per cell: an equal
value seen before is handed back as the stored object, so an idle, steady or
repeating UE adds no new record per frame.

A UE's queue holds one `Batch` per frame that had arrivals: all packets a UE
enqueues in one frame share their size and arrival frame, so a batch is the
run-length form `(arrival_frame, n, left, head_bits_left, seq0)`. Each UE
also keeps a running count of its queued bits, so per-frame work does not
grow with the backlog: a zero-trust drain completes the whole packets of a
batch in O(1), and a congested legacy FIFO is served one arrival frame at a
time: the UEs whose head batches arrived first are drained whole while they
fit, and the group the cell runs out in is cut once, at a level interpolated
from the capacity left and settled on the float keys. So a congested frame
costs O(UEs) per arrival frame it reaches, however many packets those hold.

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
from math import cos, log, sin, sqrt, tau
from random import Random
from typing import NamedTuple

from . import e2
from .core import FRAME_MS, KPMReport, SliceId, SliceKind, UeId
from .scenario import Scenario, TrafficModel, UeSpec
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


# Members read in per-frame loops, as module constants: a global read is
# cheaper than a class attribute read.
_DENIED = AuthState.DENIED
_GRANTED = AuthState.GRANTED
_KPM_INDICATION_KIND = e2.MsgKind.KPM_INDICATION


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


def _key(a: int, j: int, n: int) -> float:
    """The legacy FIFO key, in ms, of packet `j` of the `n` one UE enqueued in frame `a`."""
    return a * FRAME_MS + FRAME_MS * (2 * j + 1) / (2 * n)


# A cut member's last packet in, or first packet out, when it has none.
_NONE_IN = (float("-inf"), -1)
_NONE_OUT = (float("inf"), -1)


@dataclass
class UeState:
    spec: UeSpec
    traffic: TrafficModel  # `spec.traffic`, held for the frame loop's per-UE read
    rng_traffic: Random
    rng_radio: Random
    auth_state: AuthState = AuthState.UNAUTHENTICATED
    slice_id: SliceId | None = None
    token: bytes | None = None
    granted_frame: int | None = None
    queue: deque[Batch] = field(default_factory=deque)
    queued_bits: int = 0
    bits_accum: float = 0.0
    pkt_seq: int = 0
    kpm_seq: int = 0
    window_arrived_pkts: int = 0
    window_served_bits: int = 0
    idle_stats: UeFrameStats | None = None  # its stats the last frame its queue was empty

    def queue_bits(self) -> int:
        """`queued_bits`, which the frame loop reads directly. The method stays
        because perfbench's span targets (`perfbench/spans.py`) name it."""
        return self.queued_bits


class UeFrameStats(NamedTuple):
    served_bits: int
    queue_bytes: int
    mean_latency_ms: float | None
    auth_state: str
    slice_id: SliceId | None


@dataclass(frozen=True, slots=True)
class FrameReport:
    frame_index: int
    per_ue: dict[UeId, UeFrameStats]


class RanCell:
    """One cell plus its end of the E2 link, `conn`; the runner drains its outbox between frames."""

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.cfg = sc.cell
        self.cell_bits = sc.cell.cell_bits_per_frame  # the legacy FIFO's capacity per frame
        self.secret = sc.secret()
        self.zero_trust = sc.zero_trust
        self.conn = e2.Connection(sc.cell.cell_id, sc.cell.e2_id)
        self.frame_index = 0
        self.ues: dict[UeId, UeState] = {}  # in attach order
        self.slice_kinds: dict[SliceId, SliceKind] = {}
        self.slice_bits: dict[SliceId, int] = {}  # capacity per frame, per table
        self.report_period_frames: int | None = None
        self.reauth_period_frames = sc.auth.reauth_period_frames  # 0 disables RAN-driven re-auth
        # granted_frame % reauth_period_frames -> the UEs granted in a frame of
        # that residue, in attach order: the UEs whose re-auth may fall due.
        self._reauth_due: dict[int, list[UeState]] = {}
        self.state_changed = True  # UE auth or binding state moved since the last check
        self.last_ric_seq = 0  # the seq of the last RIC frame applied
        self.replays_dropped = 0  # RIC frames dropped for a seq at or below it
        self._stats: dict[UeFrameStats, UeFrameStats] = {}  # every distinct stats value, once

    # ---- E2 egress -------------------------------------------------------

    def connect(self) -> None:
        """Present the RAN's own identity blob so the RIC can verify this node."""
        cfg = self.cfg
        blob = ran_identity_blob(self.secret, cfg.cell_id, cfg.e2_id, self.sc.ran_credential())
        self.conn.send(e2.MsgKind.AUTH_REQUEST, e2.AuthRequestBody(blob))

    # ---- attach / auth ----------------------------------------------------

    def attach(self, spec: UeSpec, token: bytes | None = None) -> None:
        """Attach the UE `spec` describes, holding `token` (None in a legacy cell)."""
        ue = spec.ue
        if ue in self.ues:
            raise AttachError(f"UE {ue} already attached")
        seed = self.sc.seed
        state = UeState(spec, spec.traffic, Random(f"{seed}/ue{ue}/traffic"),
                        Random(f"{seed}/ue{ue}/radio"), token=token)
        self.ues[ue] = state
        self.state_changed = True
        if not self.zero_trust:
            return  # legacy cell: no authentication traffic, shared scheduling
        self._send_auth_request(state, slice_id=0)
        state.auth_state = AuthState.VERIFYING

    def _send_auth_request(self, ue: UeState, slice_id: int) -> None:
        spec = ue.spec
        token = ue.token if ue.token is not None else bytes(e2.TOKEN_LEN)
        chain = (spec.credential,)
        if spec.credentials == "wrong_token":
            token = Random(f"badtoken/{spec.ue}").randbytes(e2.TOKEN_LEN)
        elif spec.credentials == "wrong_credential":
            chain = corrupt_chain(chain)
        key = blob_key(self.secret, chain)
        blob = build_blob(token, spec.ue, self.cfg.cell_id, self.cfg.e2_id, slice_id, key)
        self.conn.send(e2.MsgKind.AUTH_REQUEST, e2.AuthRequestBody(blob))

    def maybe_reauth(self, frame: int) -> None:
        """Re-present credentials for granted UEs on the configured period,
        each whole period after its first grant, in attach order. Only the
        UEs granted in a frame of `frame`'s residue are visited. A legacy
        cell never re-authenticates."""
        if not self.zero_trust or self.reauth_period_frames <= 0:
            return
        for ue in self._reauth_due.get(frame % self.reauth_period_frames, ()):
            if ue.auth_state is _GRANTED and frame > ue.granted_frame:
                self._send_auth_request(ue, slice_id=ue.slice_id or 0)

    # ---- E2 ingress -------------------------------------------------------

    def handle_frame(self, data: bytes) -> None:
        """Apply one RIC frame, unless its seq is at or below the last one
        applied: a replayed or late frame is dropped and counted."""
        msg = e2.decode(data)
        if msg.seq <= self.last_ric_seq:
            self.replays_dropped += 1
            return
        self.last_ric_seq = msg.seq
        body = msg.body
        if isinstance(body, e2.AuthResponseBody):
            self._on_auth_response(body)
        elif isinstance(body, e2.SliceControlBody):
            self.apply_slice_control(body)
        elif isinstance(body, e2.SubscriptionRequestBody):
            self.report_period_frames = body.report_period_ms // FRAME_MS
            self.conn.send(e2.MsgKind.SUBSCRIPTION_ACK, e2.SubscriptionAckBody(body.report_period_ms))

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
            if ue.granted_frame is None:  # set once: DENIED below is terminal
                ue.granted_frame = self.frame_index
                period = self.reauth_period_frames
                if period > 0:
                    r = ue.granted_frame % period
                    self._reauth_due[r] = [
                        u for u in self.ues.values()
                        if u.granted_frame is not None and u.granted_frame % period == r
                    ]
        else:  # denied or revoked: service stops for good
            ue.auth_state = AuthState.DENIED
            ue.slice_id = None
            ue.granted_frame = None
            ue.token = None

    def apply_slice_control(self, body: e2.SliceControlBody) -> None:
        """Install a new slice table; callers only invoke this on frame boundaries."""
        self.state_changed = True  # first, so a table that fails half-way is still checked
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
            if ue.slice_id is not None and ue.slice_id not in self.slice_kinds:
                raise InvariantError(f, f"UE {ue_id} bound to unknown slice {ue.slice_id}")
            if ue.auth_state is AuthState.ISOLATED:
                kind = self.slice_kinds[ue.slice_id]  # bound to a known slice, checked above
                if kind is not SliceKind.RESTRICTED:
                    raise InvariantError(f, f"UE {ue_id} is isolated but bound to a {kind.name.lower()} slice")

    def step_frame(self) -> FrameReport:
        f = self.frame_index
        zero_trust = self.zero_trust
        if zero_trust and self.state_changed:
            self._check_invariants()  # a breach keeps the flag set, so it raises again
            self.state_changed = False
        ues = self.ues
        slice_bits = self.slice_bits
        interned = self._stats
        per_ue: dict[UeId, UeFrameStats] = {}
        backlog = 0
        for ue_id, ue in ues.items():
            t = ue.traffic
            kind = t.kind
            if kind == "uniform_rate":
                lo = t.lo_mbps  # Random.uniform's own arithmetic, inlined
                bits = (lo + (t.hi_mbps - lo) * ue.rng_traffic.random()) * FRAME_MS * 1000.0
            elif kind == "cbr" or (kind == "flood" and f >= t.onset_frame):
                bits = t.rate_mbps * FRAME_MS * 1000.0
            else:  # idle, or a flood before its onset: nothing arrives
                bits = 0.0
            q = ue.queue
            pkt_bits = t.packet_size_bytes * 8
            if bits:
                accum = ue.bits_accum + bits
                n = int(accum // pkt_bits)
                if n > 0:
                    accum -= n * pkt_bits
                    if q and ue.auth_state is _DENIED:
                        # Never served again, so only the count matters: grow the tail batch.
                        q[-1].n += n
                        q[-1].left += n
                    else:
                        q.append(Batch(f, n, pkt_bits, ue.pkt_seq))
                    ue.pkt_seq += n
                    ue.queued_bits += n * pkt_bits
                    ue.window_arrived_pkts += n
                ue.bits_accum = accum
            if not zero_trust:
                backlog += ue.queued_bits
                continue
            if not q:
                # Nothing to serve and no latency: the stats depend on the
                # auth state and slice alone, so reuse the UE's last ones.
                stats = ue.idle_stats
                state = ue.auth_state._value_
                if stats is None or stats[3] != state or stats[4] != ue.slice_id:
                    stats = UeFrameStats(0, 0, None, state, ue.slice_id)
                    stats = ue.idle_stats = interned.setdefault(stats, stats)
                per_ue[ue_id] = stats
                continue
            # Serve the FIFO up to the slice's capacity, one batch at a time;
            # an unbound UE is not served.
            cap = room = slice_bits.get(ue.slice_id, 0)
            served = lat_frames = lat_n = 0
            while room > 0 and q:
                b = q[0]
                take = b.head_bits_left
                if take > room:  # the slice runs out inside the head packet
                    b.head_bits_left = take - room
                    served += room
                    break
                room -= take
                served += take
                # The head is done; complete as many whole packets after it as fit.
                whole = room // pkt_bits
                if whole >= b.left:
                    whole = b.left - 1
                room -= whole * pkt_bits
                served += whole * pkt_bits
                done = whole + 1
                b.left -= done
                lat_frames += done * (f - b.arrival_frame + 1)
                lat_n += done
                if b.left:
                    b.head_bits_left = pkt_bits
                else:
                    q.popleft()
            if served > cap:
                raise InvariantError(f, f"UE {ue_id} served over slice capacity")
            ue.queued_bits -= served
            ue.window_served_bits += served
            # `_value_` is a plain attribute, unlike the `.value` property.
            # Interned: an equal value seen before in this run is handed back
            # as the object stored then. Equal means identical text in
            # `frames.csv`, because each field keeps one type (`1 == 1.0`).
            stats = UeFrameStats(
                served, ue.queued_bits // 8, lat_frames * FRAME_MS / lat_n if lat_n else None,
                ue.auth_state._value_, ue.slice_id,
            )
            per_ue[ue_id] = interned.setdefault(stats, stats)
        if not zero_trust:
            cap = self.cell_bits
            order = list(ues.values())
            if backlog <= cap:
                # Every queued packet completes in this frame, and its latency
                # depends only on its arrival frame, so FIFO order changes
                # nothing: drain each UE whole, with no merge.
                served = [ue.queued_bits for ue in order]
                lat_sum = []
                lat_n = []
                for ue in order:
                    waited = n = 0  # frames waited, summed over packets
                    for b in ue.queue:
                        waited += b.left * (f - b.arrival_frame + 1)
                        n += b.left
                    lat_sum.append(waited * FRAME_MS)
                    lat_n.append(n)
                    ue.queue.clear()
                    ue.queued_bits = 0
            else:
                served, lat_sum, lat_n = self._serve_shared(order, cap)
            total = 0
            for ue_id, ue, s, ls, ln in zip(ues, order, served, lat_sum, lat_n):
                total += s
                ue.window_served_bits += s
                stats = UeFrameStats(
                    s, ue.queued_bits // 8, ls / ln if ln else None, ue.auth_state._value_, ue.slice_id
                )
                per_ue[ue_id] = interned.setdefault(stats, stats)
            if total > cap:
                raise InvariantError(f, "cell served over shared capacity")
        self.frame_index += 1
        return FrameReport(frame_index=f, per_ue=per_ue)

    def _serve_shared(self, ues: list[UeState], cap: int) -> tuple[list[int], list[int], list[int]]:
        """Serve the legacy shared FIFO up to `cap` bits, one arrival frame at a time.

        `step_frame` calls it only when the UEs' backlog exceeds `cap`, so
        that the order decides which packets complete. The order is
        `(_key, idx)`; `idx` differs per UE, so it settles every tie of the
        float key. A packet that arrived in frame a has its key inside that
        frame's `FRAME_MS`, so it sorts before every later arrival (as a float
        too, while a frame holds fewer than `FRAME_MS` / ulp(key) packets:
        6.7e8 at frame 1e7). So the group of UEs whose head batch arrived
        first is served before the rest: a group that fits is drained whole,
        each member in O(1). The group the cell runs out in is cut once: one
        interpolated level counts each member's packets below it, and the
        float keys then settle the boundary packet by packet, so the packets
        completed are the longest prefix of the order that fits, and the next
        packet takes the bits left. Returns per-UE lists, in `ues` order, of
        bits served, latency sum in ms and packets completed.
        """
        fm = FRAME_MS
        done_at = (self.frame_index + 1) * fm  # latency = done_at - arrival_frame * fm
        served = [0] * len(ues)
        lat_sum = [0] * len(ues)
        lat_n = [0] * len(ues)
        live = [(idx, ue.queue, ue.traffic.packet_size_bytes * 8) for idx, ue in enumerate(ues) if ue.queue]
        while cap:
            a = min([q[0].arrival_frame for _, q, _ in live])
            group = []  # the UEs whose head batch arrived in frame a
            need = 0
            for m in live:
                b = m[1][0]
                if b.arrival_frame == a:
                    group.append(m)
                    need += b.head_bits_left + (b.left - 1) * m[2]
            wait = done_at - a * fm
            if need <= cap:
                cap -= need
                for idx, q, p in group:
                    b = q.popleft()
                    served[idx] += b.head_bits_left + (b.left - 1) * p
                    lat_sum[idx] += b.left * wait
                    lat_n[idx] += b.left
                live = [m for m in live if m[1]]
                continue
            # The cell runs out inside this group. Member i completes packets
            # j0 .. ends[i] - 1 of its head batch; the first guess is those
            # with keys below the level x, a share of frame a interpolated
            # by cap / need from the least share already served to 1.
            # lasts[i] is member i's last packet in, firsts[i] its first out,
            # as (key, idx).
            x = min([(q[0].n - q[0].left) / q[0].n for _, q, _ in group])
            x += (1 - x) * cap / need
            members = []  # (idx, batch, pkt bits, j0)
            ends = []
            lasts = []
            firsts = []
            bits = 0
            for idx, q, p in group:
                b = q[0]
                n = b.n
                j0 = n - b.left
                end = int(x * n + 0.5)
                if end > j0:
                    if end > n:
                        end = n
                    bits += b.head_bits_left + (end - j0 - 1) * p
                    lasts.append((_key(a, end - 1, n), idx))
                else:
                    end = j0
                    lasts.append(_NONE_IN)
                firsts.append((_key(a, end, n), idx) if end < n else _NONE_OUT)
                members.append((idx, b, p, j0))
                ends.append(end)
            # Settle with the float keys: take packets out until the rest fit
            # and all sort before every packet out, then put in the first
            # packet out while it fits.
            while True:
                last = max(lasts)
                if last is _NONE_IN or (bits <= cap and last < min(firsts)):
                    break
                i = lasts.index(last)
                idx, b, p, j0 = members[i]
                end = ends[i] = ends[i] - 1
                bits -= b.head_bits_left if end == j0 else p
                firsts[i] = last
                lasts[i] = (_key(a, end - 1, b.n), idx) if end > j0 else _NONE_IN
            while True:  # some packet is out: the group's `need` exceeds `cap`
                i = firsts.index(min(firsts))
                idx, b, p, j0 = members[i]
                end = ends[i]
                take = b.head_bits_left if end == j0 else p
                if bits + take > cap:
                    break
                bits += take
                end = ends[i] = end + 1
                firsts[i] = (_key(a, end, b.n), idx) if end < b.n else _NONE_OUT
            for (idx, b, p, j0), end in zip(members, ends):
                done = end - j0
                if done:
                    served[idx] += b.head_bits_left + (done - 1) * p
                    lat_sum[idx] += done * wait
                    lat_n[idx] += done
                    if end == b.n:
                        ues[idx].queue.popleft()
                    else:
                        b.left = b.n - end
                        b.head_bits_left = p
            # The first packet out, member i's, takes the bits left.
            idx, b, _, _ = members[i]
            b.head_bits_left -= cap - bits
            served[idx] += cap - bits
            break
        for ue, bits in zip(ues, served):
            ue.queued_bits -= bits
        return served, lat_sum, lat_n

    # ---- KPM reporting ----------------------------------------------------

    def collect_kpm(self, ue_id: UeId, period_ms: int) -> KPMReport:
        """Build one report for the window that just ended and reset counters.

        Draws the snr, cqi and tx_power normals as three `rng_radio.gauss`
        calls would, with its arithmetic inlined (see the module docstring).
        """
        ue = self.ues[ue_id]
        rng = ue.rng_radio
        random = rng.random
        carried = rng.gauss_next
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
        rng.gauss_next = carried
        radio = ue.spec.radio
        cqi = round(radio.cqi_mean + cqi_z * radio.cqi_std)
        if cqi < 0:
            cqi = 0
        elif cqi > 15:
            cqi = 15
        ue.kpm_seq += 1
        report = KPMReport(
            ue_id, self.cfg.cell_id, ue.kpm_seq, radio.snr_mean_db + snr_z * radio.snr_std_db,
            cqi, ue.window_arrived_pkts, radio.tx_power_mean_dbm + pow_z * radio.tx_power_std_dbm,
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
        for ue_id, ue in self.ues.items():
            if ue.auth_state is not _DENIED:  # terminal: nothing to decide
                report = self.collect_kpm(ue_id, period_ms)
                self.conn.send(_KPM_INDICATION_KIND, e2.KpmIndicationBody(report))
