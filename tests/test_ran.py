"""Cell model: capacity arithmetic, queue growth, FIFO, determinism."""
from dataclasses import replace
from heapq import heapify
from pathlib import Path
from random import Random
from weakref import WeakKeyDictionary

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztcell import e2, ran
from ztcell.core import FRAME_MS, KPMReport, PRBMask, SliceKind, SliceSpec
from ztcell.e2 import MsgKind, SliceControlBody
from ztcell.ran import (
    AttachError,
    AuthState,
    FrameReport,
    InvariantError,
    RadioProfile,
    RanCell,
    TrafficModel,
    UeFrameStats,
)
from ztcell.ric import Router, Sdl, Xapp
from ztcell.runner import run
from ztcell.scenario import UeSpec, load_scenario, parse_scenario
from ztcell.xapps import auth
from ztcell.xapps.auth import NS_AUTH, parse_blob
from ztcell.xapps.intrusion import NS_PROFILES

SCENARIOS = Path(__file__).parent.parent / "scenarios"
IDLE = TrafficModel(kind="idle")
STILL_RADIO = RadioProfile(snr_std_db=0.0, cqi_std=0.0, tx_power_std_dbm=0.0)


# Its one UE is never attached: each test attaches its own `UeSpec`s.
CELL_SCENARIO = parse_scenario("scenario.duration_frames = 1\nue.1.traffic = idle\n", "cell")


def new_cell(cls=RanCell, reauth_period_frames: int = 0, **changes) -> RanCell:
    """A cell of the default `CellConfig`, built from a scenario as the runner
    builds one, with re-auth off unless a period is given; `changes` replace
    `Scenario` fields."""
    auth_params = replace(CELL_SCENARIO.auth, reauth_period_frames=reauth_period_frames)
    return cls(replace(CELL_SCENARIO, auth=auth_params, **changes))


def grant_with_slices(cell: RanCell, table: dict[int, tuple[int, int, SliceKind]]) -> None:
    """table: ue -> (slice_id, (start, count) packed as args...)"""
    slices = []
    bindings = []
    for ue, (sid, start, count, kind) in table.items():
        slices.append(SliceSpec(sid, PRBMask.from_range(start, count, cell.cfg.total_prbs), kind=kind))
        bindings.append((ue, sid))
        state = cell.ues[ue]
        state.auth_state = AuthState.GRANTED
    cell.apply_slice_control(SliceControlBody(bindings=tuple(bindings), slices=tuple(slices)))


class TestCapacity:
    def test_full_cell_slice_serves_quarter_megabit_per_frame(self):
        cell = new_cell()
        # 1 Gbps offered: 833 packets of 12 kbit (10 Mbit) queue up per frame.
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=1000.0)))
        preload = cell.step_frame().per_ue[1]  # verifying and unbound: not served
        assert preload.served_bits == 0
        assert preload.queue_bytes == 833 * 1500
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        report = cell.step_frame()
        # 100 PRB * 0.24 Mbps * 10 ms = 0.24 Mbit
        assert report.per_ue[1].served_bits == 240_000
        assert report.per_ue[1].queue_bytes == (2 * 833 * 12_000 - 240_000) // 8

    def test_empty_queue_serves_nothing_latency_absent(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE))
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        report = cell.step_frame()
        stats = report.per_ue[1]
        assert stats.served_bits == 0
        assert stats.mean_latency_ms is None
        assert not cell.ues[1].queue  # no head-of-line packet

    def test_served_never_exceeds_slice_capacity(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="flood", rate_mbps=40.0)))
        grant_with_slices(cell, {1: (1, 0, 30, SliceKind.NORMAL)})
        cap = 30 * cell.cfg.prb_bits_per_frame
        for _ in range(50):
            report = cell.step_frame()
            assert report.per_ue[1].served_bits <= cap

    def test_legacy_total_served_capped_by_cell(self):
        cell = new_cell(zero_trust=False)
        for ue in (1, 2, 3):
            cell.attach(UeSpec(ue, TrafficModel(kind="cbr", rate_mbps=20.0)))
        for _ in range(50):
            report = cell.step_frame()
            assert sum(s.served_bits for s in report.per_ue.values()) <= 2_400_000 // 10


class TestLegacyQueueGrowth:
    def test_thousand_frame_queue_recurrence(self):
        """Deterministic oracle: offered 40 Mbps vs 24 Mbps cell capacity."""
        cell = new_cell(zero_trust=False)
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=40.0)))

        # Independent recurrence mirroring the packetizer arithmetic.
        accum = 0.0
        queue_bits = 0
        pkt_bits = 12_000
        for _ in range(1000):
            accum += 40.0 * 10 * 1000.0
            n = int(accum // pkt_bits)
            accum -= n * pkt_bits
            queue_bits += n * pkt_bits
            queue_bits -= min(queue_bits, 240_000)
            report = cell.step_frame()
            assert report.per_ue[1].queue_bytes == queue_bits // 8

        # Queue-growth law: at least (offered - capacity) * W * frame duration,
        # minus one packet of quantization slack.
        assert queue_bits >= (40 - 24) * 10_000 * 1000 - pkt_bits

    def test_head_of_line_latency_grows_without_bound(self):
        cell = new_cell(zero_trust=False)
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=40.0)))
        hol = []
        for _ in range(600):
            cell.step_frame()
            queue = cell.ues[1].queue
            if queue:
                hol.append((cell.frame_index - queue[0].arrival_frame) * FRAME_MS)
        assert hol[-1] > 2000  # several seconds of backlog by frame 600
        assert hol == sorted(hol)  # monotone growth under constant overload


class TestFifo:
    def test_per_ue_completion_in_enqueue_order(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=30.0)))
        grant_with_slices(cell, {1: (1, 0, 50, SliceKind.NORMAL)})
        next_seqs = []
        for _ in range(100):
            cell.step_frame()
            queue = cell.ues[1].queue
            head = queue[0]
            next_seqs.append(head.seq0 + head.n - head.left)
            # Batches hold consecutive packets in arrival order.
            for a, b in zip(queue, list(queue)[1:]):
                assert b.seq0 == a.seq0 + a.n and b.arrival_frame > a.arrival_frame
        assert next_seqs == sorted(next_seqs)

    def test_legacy_global_fifo_interleaves_by_arrival(self):
        cell = new_cell(zero_trust=False)
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=18.0)))
        cell.attach(UeSpec(2, TrafficModel(kind="cbr", rate_mbps=18.0)))
        # 36 Mbps offered vs 24 Mbps capacity: both UEs still get served every
        # frame because service follows arrival order, not UE order.
        for _ in range(20):
            report = cell.step_frame()
        assert report.per_ue[1].served_bits > 0
        assert report.per_ue[2].served_bits > 0


class TestDeterminism:
    def build(self) -> RanCell:
        cell = new_cell(zero_trust=False)
        cell.attach(UeSpec(1, TrafficModel(kind="uniform_rate", lo_mbps=5, hi_mbps=15)))
        cell.attach(UeSpec(2, TrafficModel(kind="uniform_rate", lo_mbps=5, hi_mbps=15)))
        return cell

    def test_identical_seeds_identical_frame_reports(self):
        a, b = self.build(), self.build()
        for _ in range(200):
            assert a.step_frame() == b.step_frame()


class TestAttach:
    def test_fresh_attach_emits_one_auth_request(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE))
        assert len(cell.outbox) == 1
        msg = e2.decode(cell.outbox[0])
        assert msg.kind == MsgKind.AUTH_REQUEST
        assert cell.ues[1].auth_state is AuthState.VERIFYING

    def test_duplicate_attach_rejected(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE))
        with pytest.raises(AttachError):
            cell.attach(UeSpec(1, IDLE))

    def test_four_attaches_distinct_monotone_seq(self):
        cell = new_cell()
        for ue in (1, 2, 3, 4):
            cell.attach(UeSpec(ue, IDLE))
        seqs = [e2.decode(raw).seq for raw in cell.outbox]
        assert len(seqs) == 4
        assert seqs == sorted(seqs) and len(set(seqs)) == 4

    def test_legacy_attach_stays_unauthenticated_and_silent(self):
        cell = new_cell(zero_trust=False)
        cell.attach(UeSpec(1, IDLE))
        assert cell.outbox == []
        assert cell.ues[1].auth_state is AuthState.UNAUTHENTICATED


def reauth_frames(cell: RanCell, frames: range) -> list[int]:
    """The frames in which `maybe_reauth` sends an AUTH_REQUEST."""
    sent = []
    for f in frames:
        cell.maybe_reauth(f)
        if cell.outbox:
            assert [e2.decode(raw).kind for raw in cell.outbox] == [MsgKind.AUTH_REQUEST]
            sent.append(f)
            cell.outbox.clear()
    return sent


class TestReauthPeriod:
    def test_period_given_at_construction_paces_reauth(self):
        cell = new_cell(reauth_period_frames=5)
        cell.attach(UeSpec(1, IDLE))
        auth_response(cell, TestDeniedIsTerminal.GRANT)  # granted in frame 0
        grant_with_slices(cell, {1: (1, 0, 10, SliceKind.NORMAL)})
        cell.outbox.clear()
        assert cell.ues[1].granted_frame == 0
        assert reauth_frames(cell, range(16)) == [5, 10, 15]

    def test_legacy_cell_never_reauthenticates(self):
        cell = new_cell(zero_trust=False, reauth_period_frames=5)
        cell.attach(UeSpec(1, IDLE))
        # Even a UE marked granted: the rule is the cell's mode, not the UE's state.
        cell.ues[1].auth_state = AuthState.GRANTED
        cell.ues[1].granted_frame = 0
        assert reauth_frames(cell, range(16)) == []


def reference_reauth(cell: RanCell, frame: int) -> list[int]:
    """The UEs that a scan of every attached UE re-authenticates at `frame`,
    in attach order."""
    due = []
    for ue in cell.ues.values():
        if ue.auth_state is not AuthState.GRANTED or ue.granted_frame is None:
            continue
        age = frame - ue.granted_frame
        if age > 0 and age % cell.reauth_period_frames == 0:
            due.append(ue.spec.ue)
    return due


REAUTH_OPS = ("attach", "grant", "deny", "isolate")
# Per frame, a few operations; an attach names a UE id, any other an
# attached UE by its index in attach order (modulo their number).
reauth_frames_ops = st.lists(
    st.lists(st.tuples(st.sampled_from(REAUTH_OPS), st.integers(1, 40)), max_size=4),
    min_size=1, max_size=40,
)


@pytest.mark.oracle
class TestReauthScheduleMatchesScan:
    """`maybe_reauth` visits only the UEs granted in a frame of the current
    residue; it must send what a scan of every UE sends, in the same order."""

    @given(st.integers(1, 7), reauth_frames_ops)
    @example(2, [  # two UEs granted in one frame, attached against id order
        [("attach", 9), ("attach", 3), ("grant", 1), ("grant", 0)], [], [], [], [],
    ])
    @example(3, [  # a grant while isolated, a denial, and a late attach
        [("attach", 1), ("attach", 2), ("isolate", 0), ("grant", 0)], [("grant", 1)],
        [], [("deny", 1), ("attach", 5)], [("grant", 2)], [], [], [], [], [],
    ])
    @settings(max_examples=200, deadline=None)
    def test_sends_equal_full_scan(self, period, frames):
        cell = new_cell(reauth_period_frames=period)
        restricted = SliceSpec(1, PRBMask.from_range(99, 1, 100), kind=SliceKind.RESTRICTED)
        for f, ops in enumerate(frames):
            # The runner's order: re-auth, then the RIC's answers, then the frame.
            cell.frame_index = f
            expected = reference_reauth(cell, f)
            cell.outbox.clear()
            cell.maybe_reauth(f)
            assert [parse_blob(e2.decode(raw).body.blob)[1] for raw in cell.outbox] == expected
            for op, n in ops:
                ues = list(cell.ues)
                if op == "attach":
                    if n not in cell.ues:
                        cell.attach(UeSpec(n, IDLE))
                elif not ues:
                    continue
                elif op == "isolate":
                    bindings = ((ues[n % len(ues)], restricted.id),)
                    cell.apply_slice_control(SliceControlBody(bindings, (restricted,)))
                else:
                    outcome = e2.AuthOutcome.GRANTED if op == "grant" else e2.AuthOutcome.REVOKED
                    reason = e2.AuthReason.OK if op == "grant" else e2.AuthReason.EXPIRED
                    auth_response(
                        cell, e2.AuthResponseBody(ues[n % len(ues)], outcome, reason, bytes(16))
                    )


class TestKpm:
    def test_throughput_is_served_bits_over_period(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE, STILL_RADIO))
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        cell.ues[1].window_served_bits = 1_500_000  # 1.5 Mbit over 100 ms
        report = cell.collect_kpm(1, period_ms=100)
        assert report.throughput_mbps == 15.0

    def test_zero_std_radio_reports_exact_means(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE, STILL_RADIO))
        report = cell.collect_kpm(1, period_ms=100)
        assert report.snr_db == 25.0
        assert report.cqi == 12
        assert report.tx_power_dbm == 20.0

    def test_isolated_attacker_capped_at_one_prb_rate(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="flood", rate_mbps=40.0)))
        grant_with_slices(cell, {1: (1, 99, 1, SliceKind.RESTRICTED)})
        assert cell.ues[1].auth_state is AuthState.ISOLATED
        for _ in range(10):
            cell.step_frame()
        report = cell.collect_kpm(1, period_ms=100)
        assert report.throughput_mbps <= 0.24
        assert report.tx_packets > 300  # the flood itself is still visible

    def test_kpm_seq_strictly_increases(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE))
        seqs = [cell.collect_kpm(1, 100).seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]


def reference_collect_kpm(cell: RanCell, ue_id: int, period_ms: int) -> KPMReport:
    """`RanCell.collect_kpm` with one `rng_radio.gauss` call per normal."""
    ue = cell.ues[ue_id]
    radio = ue.spec.radio
    snr = ue.rng_radio.gauss(radio.snr_mean_db, radio.snr_std_db)
    cqi = min(15, max(0, round(ue.rng_radio.gauss(radio.cqi_mean, radio.cqi_std))))
    power = ue.rng_radio.gauss(radio.tx_power_mean_dbm, radio.tx_power_std_dbm)
    ue.kpm_seq += 1
    report = KPMReport(
        ue_id, cell.cfg.cell_id, ue.kpm_seq, snr, cqi, ue.window_arrived_pkts, power,
        ue.window_served_bits / (period_ms * 1000.0),
    )
    ue.window_arrived_pkts = 0
    ue.window_served_bits = 0
    return report


def normal_field(mean_lo: float, mean_hi: float):
    return st.tuples(st.floats(mean_lo, mean_hi), st.just(0.0) | st.floats(0.0, 5.0))


@st.composite
def radio_profiles(draw) -> RadioProfile:
    """Zero and wide stds, and cqi means at and beyond both clip edges."""
    (snr_mean, snr_std), (cqi_mean, cqi_std), (pow_mean, pow_std) = (
        draw(normal_field(-10.0, 40.0)),
        draw(normal_field(-2.0, 1.0) | normal_field(14.0, 17.0) | normal_field(0.0, 15.0)),
        draw(normal_field(-10.0, 30.0)),
    )
    return RadioProfile(snr_mean, snr_std, cqi_mean, cqi_std, pow_mean, pow_std)


@pytest.mark.oracle
class TestKpmDrawMatchesReference:
    """`collect_kpm` draws its snr, cqi and tx_power normals with `Random.gauss`'s
    arithmetic written out; it must equal three `gauss` calls, report for report."""

    @given(
        radio_profiles(),
        st.integers(0, 2**32) | st.text(max_size=4),  # the seed names the radio stream
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**9)), min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_reports_and_rng_state_equal_reference(self, radio, seed, carried, windows):
        cells = []
        for _ in range(2):
            cell = new_cell(seed=seed)
            cell.attach(UeSpec(7, IDLE, radio))
            rng = cell.ues[7].rng_radio
            if carried:  # the first report starts on `gauss`'s cached normal
                rng.gauss()
                assert rng.gauss_next is not None
            cells.append(cell)
        cell, ref_cell = cells
        for arrived, served in windows:
            for c in cells:
                c.ues[7].window_arrived_pkts = arrived
                c.ues[7].window_served_bits = served
            report = cell.collect_kpm(7, period_ms=100)
            ref = reference_collect_kpm(ref_cell, 7, period_ms=100)
            assert type(report) is KPMReport
            assert tuple(map(repr, report)) == tuple(map(repr, ref))  # tells 1 from 1.0
            assert cell.ues[7].rng_radio.getstate() == ref_cell.ues[7].rng_radio.getstate()
            assert (cell.ues[7].window_arrived_pkts, cell.ues[7].window_served_bits) == (0, 0)


# ---- reference model: one object per packet --------------------------------


class RefPacket:
    __slots__ = ("bits_left", "arrival_frame", "order_key", "seq")

    def __init__(self, bits: int, arrival_frame: int, order_key: float, seq: int) -> None:
        self.bits_left = bits
        self.arrival_frame = arrival_frame
        self.order_key = order_key
        self.seq = seq


def bits_in_frame(model: TrafficModel, frame: int, rng: Random) -> float:
    """The bits `model` offers in `frame`, one traffic kind per branch."""
    if model.kind == "idle":
        return 0.0
    if model.kind == "cbr":
        rate = model.rate_mbps
    elif model.kind == "uniform_rate":
        rate = rng.uniform(model.lo_mbps, model.hi_mbps)
    else:  # flood
        rate = model.rate_mbps if frame >= model.onset_frame else 0.0
    return rate * FRAME_MS * 1000.0


class ReferenceCell(RanCell):
    """The scheduler with one queue entry per packet and a rescanned queue
    size; the batched cell must report the same frames. It keeps each
    installed slice's mask, so capacity comes from popcounts rather than the
    cell's per-slice bit counts."""

    def apply_slice_control(self, body: SliceControlBody) -> None:
        self.slice_masks = {s.id: s.mask for s in body.slices}
        super().apply_slice_control(body)

    def _enqueue_traffic(self, ue):
        f = self.frame_index
        bits = bits_in_frame(ue.traffic, f, ue.rng_traffic)
        ue.bits_accum += bits
        pkt_bits = ue.traffic.packet_size_bytes * 8
        n = int(ue.bits_accum // pkt_bits)
        if n <= 0:
            return
        ue.bits_accum -= n * pkt_bits
        base = f * FRAME_MS
        for j in range(n):
            key = base + FRAME_MS * (2 * j + 1) / (2 * n)
            ue.queue.append(RefPacket(pkt_bits, f, key, ue.pkt_seq))
            ue.pkt_seq += 1
        ue.window_arrived_pkts += n

    def _drain_packets(self, ue, capacity: int, latencies: list[int]) -> int:
        served = 0
        f = self.frame_index
        while capacity > 0 and ue.queue:
            head = ue.queue[0]
            take = min(head.bits_left, capacity)
            head.bits_left -= take
            served += take
            capacity -= take
            if head.bits_left == 0:
                ue.queue.popleft()
                latencies.append((f - head.arrival_frame + 1) * FRAME_MS)
        return served

    def step_frame(self) -> FrameReport:
        if self.zero_trust:
            self._check_invariants()
        f = self.frame_index
        for ue in self.ues.values():
            self._enqueue_traffic(ue)
        served = {u: 0 for u in self.ues}
        latencies: dict[int, list[int]] = {u: [] for u in self.ues}
        if self.zero_trust:
            for ue_id, ue in self.ues.items():
                if ue.slice_id is None:
                    continue
                cap = self.slice_masks[ue.slice_id].popcount() * self.cfg.prb_bits_per_frame
                served[ue_id] = self._drain_packets(ue, cap, latencies[ue_id])
        else:
            cap_left = self.cfg.cell_bits_per_frame
            while cap_left > 0:
                head_ue = None
                head_key = None
                for idx, (ue_id, ue) in enumerate(self.ues.items()):
                    q = ue.queue
                    if not q:
                        continue
                    key = (q[0].order_key, idx, q[0].seq)
                    if head_key is None or key < head_key:
                        head_key = key
                        head_ue = ue_id
                if head_ue is None:
                    break
                ue = self.ues[head_ue]
                head = ue.queue[0]
                take = min(head.bits_left, cap_left)
                head.bits_left -= take
                served[head_ue] += take
                cap_left -= take
                if head.bits_left == 0:
                    ue.queue.popleft()
                    latencies[head_ue].append((f - head.arrival_frame + 1) * FRAME_MS)
        per_ue = {}
        for ue_id, ue in self.ues.items():
            ue.window_served_bits += served[ue_id]
            lat = latencies[ue_id]
            per_ue[ue_id] = UeFrameStats(
                served_bits=served[ue_id],
                queue_bytes=sum(p.bits_left for p in ue.queue) // 8,
                mean_latency_ms=sum(lat) / len(lat) if lat else None,
                auth_state=ue.auth_state.value,
                slice_id=ue.slice_id,
            )
        self.frame_index += 1
        return FrameReport(frame_index=f, per_ue=per_ue)


def recount_queue_bits(ue) -> int:
    pkt_bits = ue.traffic.packet_size_bytes * 8
    return sum(b.head_bits_left + (b.left - 1) * pkt_bits for b in ue.queue)


@st.composite
def traffic_models(draw) -> TrafficModel:
    size = draw(st.integers(min_value=100, max_value=3000))
    kind = draw(st.sampled_from(["cbr", "uniform_rate", "flood", "idle"]))
    rate = st.floats(min_value=0.1, max_value=40.0)
    if kind == "cbr":
        return TrafficModel(kind="cbr", rate_mbps=draw(rate), packet_size_bytes=size)
    if kind == "uniform_rate":
        lo, hi = sorted((draw(rate), draw(rate)))
        return TrafficModel(kind="uniform_rate", lo_mbps=lo, hi_mbps=hi, packet_size_bytes=size)
    if kind == "flood":
        onset = draw(st.integers(min_value=0, max_value=40))
        return TrafficModel(kind="flood", rate_mbps=draw(rate), onset_frame=onset,
                            packet_size_bytes=size)
    return TrafficModel(kind="idle", packet_size_bytes=size)


VERIFYING = ("verifying", 0)
DENIED = ("denied", 0)


def bind_widths(cell: RanCell, roles: list[tuple[str, int]]) -> None:
    """UE i takes roles[i] = (state, width): "granted" gets its own normal
    slice of `width` PRBs and "isolated" its own restricted one; "verifying"
    and "denied" stay unbound. A UE denied before stays denied, as in the cell."""
    slices, bindings, start = [], [], 0
    for (ue, state), (role, width) in zip(cell.ues.items(), roles):
        if state.auth_state is AuthState.DENIED:
            continue
        if role in ("granted", "isolated"):
            mask = PRBMask.from_range(start, width, cell.cfg.total_prbs)
            kind = SliceKind.NORMAL if role == "granted" else SliceKind.RESTRICTED
            slices.append(SliceSpec(ue, mask, kind=kind))
            bindings.append((ue, ue))
            state.auth_state = AuthState.GRANTED  # the restricted slice isolates it
            start += width
        else:
            state.auth_state = AuthState(role)
    cell.apply_slice_control(SliceControlBody(bindings=tuple(bindings), slices=tuple(slices)))


def peak_packets_per_frame(model: TrafficModel) -> float:
    rate = model.hi_mbps if model.kind == "uniform_rate" else model.rate_mbps
    return rate * FRAME_MS * 1000 / (model.packet_size_bytes * 8)


@st.composite
def cell_runs(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        # One model on every UE: equal batch sizes give exact cross-UE key ties.
        models = [draw(traffic_models())] * count
    else:
        models = draw(st.lists(traffic_models(), min_size=count, max_size=count))
    zero_trust = draw(st.booleans())
    width = st.integers(min_value=1, max_value=100 // count)
    role = st.one_of(
        st.tuples(st.sampled_from(["granted", "isolated"]), width),
        st.sampled_from([VERIFYING, DENIED]),
    )
    tables = [draw(st.lists(role, min_size=count, max_size=count)) for _ in range(2)]
    # The reference holds one object per packet, so a run offers at most
    # about 20k packets; at 100 packets a frame or fewer that is 200 frames,
    # long enough for a flood backlog to span many batches.
    offered = 1 + sum(peak_packets_per_frame(m) for m in models)
    frames = draw(st.integers(min_value=1, max_value=max(1, min(200, int(20_000 / offered)))))
    switch = draw(st.integers(min_value=0, max_value=frames))
    return models, zero_trust, tables, frames, switch


@pytest.mark.oracle
class TestBatchedQueueOracle:
    @given(cell_runs())
    @example((  # two UEs tie on every key; the flood backlog outgrows the cell
        [TrafficModel(kind="cbr", rate_mbps=6.0)] * 2
        + [TrafficModel(kind="flood", rate_mbps=40.0, onset_frame=10)],
        False, [[VERIFYING] * 3] * 2, 200, 0,
    ))
    @example((  # 120 and 24 packets a frame: UE 1's runs end in ties it wins
        [TrafficModel(kind="cbr", rate_mbps=120.0, packet_size_bytes=1250),
         TrafficModel(kind="cbr", rate_mbps=24.0, packet_size_bytes=1250)],
        False, [[VERIFYING] * 2] * 2, 40, 0,
    ))
    @example((  # the backlog is exactly the cell's 240 000 bits every frame
        [TrafficModel(kind="cbr", rate_mbps=8.0, packet_size_bytes=1000)] * 3,
        False, [[VERIFYING] * 3] * 2, 120, 0,
    ))
    @example((  # one packet over the cell at frame 100, and congested from then on
        [TrafficModel(kind="cbr", rate_mbps=8.008, packet_size_bytes=1000)]
        + [TrafficModel(kind="cbr", rate_mbps=8.0, packet_size_bytes=1000)] * 2,
        False, [[VERIFYING] * 3] * 2, 120, 0,
    ))
    @example((  # both queues are empty at frame 30, when both UEs lose their slice and grant
        [IDLE, TrafficModel(kind="cbr", rate_mbps=0.1, packet_size_bytes=3000)],
        True, [[("granted", 5)] * 2, [VERIFYING] * 2], 60, 30,
    ))
    @example((  # a flooder queues while verifying, then is denied; an idle UE goes granted to isolated
        [TrafficModel(kind="flood", rate_mbps=40.0), IDLE],
        True, [[VERIFYING, ("granted", 5)], [DENIED, ("isolated", 1)]], 60, 20,
    ))
    @settings(max_examples=200, deadline=None)
    def test_frames_equal_per_packet_reference(self, run):
        """Every branch of the frame loop against the per-packet reference:
        the legacy whole drain and shared FIFO, and in zero-trust mode idle
        UEs, granted and isolated UEs served up to their slice, unbound
        verifying UEs that queue, and denied UEs whose tail batch grows."""
        models, zero_trust, tables, frames, switch = run
        cells = [new_cell(zero_trust=zero_trust), new_cell(ReferenceCell, zero_trust=zero_trust)]
        for cell in cells:
            for ue, model in enumerate(models, start=1):
                cell.attach(UeSpec(ue, model))
        batched, reference = cells
        for f in range(frames):
            if zero_trust and f in (0, switch):
                for cell in cells:
                    bind_widths(cell, tables[f == switch])
            assert batched.step_frame() == reference.step_frame()
            for ue in batched.ues.values():
                assert ue.queue_bits() == recount_queue_bits(ue)
                assert len(ue.queue) <= f + 1
        for ue_id, ue in batched.ues.items():
            ref = reference.ues[ue_id]
            assert (ue.pkt_seq, ue.window_arrived_pkts, ue.window_served_bits) == (
                ref.pkt_seq, ref.window_arrived_pkts, ref.window_served_bits
            )


# cell -> the RIC's end of its link, so each cell's RIC seqs count from 1
RIC_ENDS: WeakKeyDictionary[RanCell, e2.Connection] = WeakKeyDictionary()


def ric_frame(cell: RanCell, kind: MsgKind, body) -> bytes:
    """`body` framed as the RIC end of `cell`'s link sends it."""
    end = RIC_ENDS.get(cell)
    if end is None:
        end = RIC_ENDS[cell] = e2.Connection(cell.cfg.cell_id, cell.cfg.e2_id)
    return e2.encode(end.make(kind, body))


def auth_response(cell: RanCell, body: e2.AuthResponseBody) -> None:
    cell.handle_frame(ric_frame(cell, MsgKind.AUTH_RESPONSE, body))


class TestDeniedIsTerminal:
    GRANT = e2.AuthResponseBody(1, e2.AuthOutcome.GRANTED, e2.AuthReason.OK, bytes(range(16)))
    DENY = e2.AuthResponseBody(1, e2.AuthOutcome.DENIED, e2.AuthReason.BAD_TAG)

    def test_later_grant_is_ignored(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=12.0)))
        auth_response(cell, self.DENY)
        auth_response(cell, self.GRANT)
        ue = cell.ues[1]
        assert ue.auth_state is AuthState.DENIED
        assert ue.token is None and ue.granted_frame is None

    def test_restricted_binding_does_not_readmit_and_fails_closed(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=12.0)))
        auth_response(cell, self.DENY)
        spec = SliceSpec(1, PRBMask.from_range(99, 1, 100), kind=SliceKind.RESTRICTED)
        cell.apply_slice_control(SliceControlBody(bindings=((1, 1),), slices=(spec,)))
        assert cell.ues[1].auth_state is AuthState.DENIED
        with pytest.raises(InvariantError, match="denied but bound"):
            cell.step_frame()

    def test_denied_backlog_grows_one_batch(self):
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=12.0)))
        for _ in range(3):
            cell.step_frame()  # verifying and unbound: three batches queue up
        auth_response(cell, self.DENY)
        ue = cell.ues[1]
        for f in range(200):
            stats = cell.step_frame().per_ue[1]
            assert stats.served_bits == 0
            assert cell.frame_index - ue.queue[0].arrival_frame == f + 4  # the head batch is still frame 0's
            assert len(ue.queue) == 3
            assert ue.queue_bits() == recount_queue_bits(ue) == ue.pkt_seq * 12_000
        tail = ue.queue[-1]
        assert tail.seq0 + tail.n == ue.pkt_seq == 203 * 10


def slice_control(cell: RanCell, body: SliceControlBody) -> None:
    cell.handle_frame(ric_frame(cell, MsgKind.SLICE_CONTROL, body))


def slice_frame(cell: RanCell, width: int) -> bytes:
    """A SLICE_CONTROL frame binding UE 1 to a normal slice of `width` PRBs."""
    spec = SliceSpec(1, PRBMask.from_range(0, width, 100), kind=SliceKind.NORMAL)
    body = SliceControlBody(bindings=((1, 1),), slices=(spec,))
    return ric_frame(cell, MsgKind.SLICE_CONTROL, body)


class TestRicSeqCheck:
    """The cell applies a RIC frame only if its seq is above the last one applied."""

    def granted_cell(self) -> RanCell:
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=40.0)))
        cell.ues[1].auth_state = AuthState.GRANTED
        return cell

    def test_replayed_slice_control_leaves_table_untouched(self):
        cell = self.granted_cell()
        first = slice_frame(cell, 10)
        cell.handle_frame(first)
        cell.step_frame()
        installed = cell.slice_bits
        cell.handle_frame(first)
        assert cell.slice_bits is installed and not cell.state_changed
        assert cell.replays_dropped == 1 and cell.last_ric_seq == 1

    def test_late_slice_control_leaves_newer_table_untouched(self):
        cell = self.granted_cell()
        older, newer = slice_frame(cell, 10), slice_frame(cell, 20)
        cell.handle_frame(newer)
        cell.handle_frame(older)
        assert cell.slice_bits == {1: 20 * cell.cfg.prb_bits_per_frame}
        assert cell.replays_dropped == 1 and cell.last_ric_seq == 2
        assert cell.step_frame().per_ue[1].served_bits == 20 * cell.cfg.prb_bits_per_frame


class EveryFrameCheckCell(RanCell):
    """Checks the invariants at the start of every frame, changed or not."""

    def step_frame(self) -> FrameReport:
        if self.zero_trust:
            self._check_invariants()
        return super().step_frame()


CHECK_UES = (1, 2, 3)


@st.composite
def slice_tables(draw) -> SliceControlBody:
    kinds = draw(st.lists(st.sampled_from(list(SliceKind)), min_size=1, max_size=3))
    slices = [
        SliceSpec(sid, PRBMask.from_range(10 * (sid - 1), 10, 100), kind=kind)
        for sid, kind in enumerate(kinds, start=1)
    ]
    targets = st.none() | st.integers(min_value=1, max_value=len(slices))
    bindings = tuple(
        (ue, sid) for ue in CHECK_UES if (sid := draw(targets)) is not None
    )
    return SliceControlBody(bindings=bindings, slices=tuple(slices))


check_ops = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(CHECK_UES)),
        st.tuples(st.just("auth"), st.sampled_from(CHECK_UES), st.booleans()),
        st.tuples(st.just("slices"), slice_tables()),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


def apply_op(cell: RanCell, op: tuple):
    """Run one step on `cell`; return its frame report, an invariant breach
    as (message, frame), or None."""
    kind = op[0]
    if kind == "attach":
        if op[1] not in cell.ues:
            cell.attach(UeSpec(op[1], TrafficModel(kind="cbr", rate_mbps=3.0)))
    elif kind == "auth":
        grant = TestDeniedIsTerminal.GRANT if op[2] else TestDeniedIsTerminal.DENY
        auth_response(cell, replace(grant, ue=op[1]))
    elif kind == "slices":
        slice_control(cell, op[1])
    else:
        try:
            return cell.step_frame()
        except InvariantError as exc:
            return str(exc), exc.frame
    return None


def one_slice_table(kind: SliceKind) -> SliceControlBody:
    """UE 1 bound to slice 1 of `kind`, as `slice_tables` draws it."""
    spec = SliceSpec(1, PRBMask.from_range(0, 10, 100), kind=kind)
    return SliceControlBody(bindings=((1, 1),), slices=(spec,))


@pytest.mark.oracle
class TestCheckOnChange:
    @given(check_ops)
    @example([  # an isolated UE rebound to a normal slice
        ("attach", 1), ("slices", one_slice_table(SliceKind.RESTRICTED)), ("step",),
        ("auth", 1, True), ("slices", one_slice_table(SliceKind.NORMAL)), ("step",),
    ])
    @settings(max_examples=300, deadline=None)
    def test_same_breach_at_same_step_as_checking_every_frame(self, ops):
        """Checking only after attach, AUTH_RESPONSE or SLICE_CONTROL raises
        the same InvariantError at the same step as checking every frame, and
        no frame is served with an isolated UE outside a restricted slice."""
        on_change = new_cell()
        every_frame = new_cell(EveryFrameCheckCell)
        for op in ops:
            outcome = apply_op(on_change, op)
            assert outcome == apply_op(every_frame, op)
            if isinstance(outcome, tuple):
                break  # a breach ends the run
            if isinstance(outcome, FrameReport):
                for stats in outcome.per_ue.values():
                    if stats.auth_state == "isolated":
                        assert on_change.slice_kinds[stats.slice_id] is SliceKind.RESTRICTED

    def test_quiet_frames_scan_nothing(self, monkeypatch):
        scans = []
        check = RanCell._check_invariants

        def counting_check(cell):
            scans.append(cell.frame_index)
            check(cell)

        monkeypatch.setattr(RanCell, "_check_invariants", counting_check)
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="cbr", rate_mbps=3.0)))
        grant_with_slices(cell, {1: (1, 0, 10, SliceKind.NORMAL)})
        for _ in range(100):
            cell.step_frame()
        assert scans == [0]

    def test_table_that_fails_half_way_is_still_checked(self):
        cell = new_cell()
        cell.attach(UeSpec(1, IDLE))
        cell.step_frame()
        spec = SliceSpec(1, PRBMask.from_range(0, 10, 100))
        with pytest.raises(KeyError):  # binds UE 1 to slice 2, which the table lacks
            cell.apply_slice_control(SliceControlBody(bindings=((1, 2),), slices=(spec,)))
        with pytest.raises(InvariantError, match="bound to unknown slice 2"):
            cell.step_frame()


def gate_scenario():
    """4000 frames with staggered attaches, re-auth every 300 frames, a
    flooder from frame 1500 and UE 6 denied at attach."""
    lines = [
        "scenario.duration_frames = 4000",
        "scenario.seed = 11",
        "auth.reauth_period_frames = 300",
        "ue.1.traffic = flood",
        "ue.1.rate_mbps = 40",
        "ue.1.onset_frame = 1500",
        "ue.6.credentials = invalid",
    ]
    for ue in range(2, 7):
        lines += [f"ue.{ue}.traffic = uniform_rate", f"ue.{ue}.rate_lo_mbps = 1",
                  f"ue.{ue}.rate_hi_mbps = 2", f"ue.{ue}.attach_frame = {37 * ue}"]
    return parse_scenario("\n".join(lines) + "\n", "gate")


class TestAsymptoticGate:
    def test_long_flood_queue_holds_one_entry_per_frame(self):
        """Deterministic work counts over a 4000-frame flood, not wall time."""
        frames = 4000
        cell = new_cell()
        cell.attach(UeSpec(1, TrafficModel(kind="flood", rate_mbps=40.0)))
        cell.attach(UeSpec(2, TrafficModel(kind="cbr", rate_mbps=12.0)))
        grant_with_slices(cell, {1: (1, 99, 1, SliceKind.RESTRICTED), 2: (2, 0, 99, SliceKind.NORMAL)})
        produced = {1: 0, 2: 0}
        accum = {1: 0.0, 2: 0.0}
        rates = {1: 40.0, 2: 12.0}
        for f in range(frames):
            report = cell.step_frame()
            for ue, stats in report.per_ue.items():
                # The packetizer's own arithmetic, recounted.
                accum[ue] += rates[ue] * 10 * 1000.0
                n = int(accum[ue] // 12_000)
                accum[ue] -= n * 12_000
                produced[ue] += n
                assert stats.queue_bytes >= 0
                assert len(cell.ues[ue].queue) <= f + 1
        for ue in (1, 2):
            assert cell.ues[ue].pkt_seq == produced[ue]
        # A backlog of over 100k packets, held in at most one entry per frame.
        flooder = cell.ues[1]
        assert flooder.queue_bits() // 12_000 > 30 * len(flooder.queue)

    def test_denied_queue_stops_growing_in_long_flood_run(self, monkeypatch):
        """flood_isolation over 16k frames: UE 4, denied at attach, keeps
        offering traffic, but its queue never gains an entry after the denial."""
        sc = replace(load_scenario(SCENARIOS / "flood_isolation.scn"), duration_frames=16_000)
        lengths: list[tuple[str, int]] = []
        step = RanCell.step_frame

        def recording_step(cell):
            report = step(cell)
            ue = cell.ues.get(4)
            if ue is not None:
                lengths.append((ue.auth_state, len(ue.queue)))
            return report

        monkeypatch.setattr(RanCell, "step_frame", recording_step)
        result = run(sc)
        denied = [n for state, n in lengths if state is AuthState.DENIED]
        assert len(denied) > 15_000
        assert all(later <= earlier for earlier, later in zip(denied, denied[1:]))
        assert len(result.cell.ues[4].queue) <= 3

    def test_uncongested_legacy_frames_skip_the_merge(self, monkeypatch):
        """latency_flood in legacy mode: before the flood's onset the whole
        backlog fits every frame, so the shared FIFO's heap merge never runs;
        from the onset on the flooder saturates the cell and it does."""
        sc = load_scenario(SCENARIOS / "latency_flood.scn")
        onset = next(u.traffic.onset_frame for u in sc.ues if u.traffic.kind == "flood")
        heapified = [0]
        per_frame: list[int] = []  # heapify calls in each frame
        step = RanCell.step_frame

        def counting_heapify(heap):
            heapified[0] += 1
            heapify(heap)

        def recording_step(cell):
            before = heapified[0]
            report = step(cell)
            per_frame.append(heapified[0] - before)
            return report

        monkeypatch.setattr(ran, "heapify", counting_heapify)
        monkeypatch.setattr(RanCell, "step_frame", recording_step)
        run(sc, legacy=True)
        assert onset == 1500 and len(per_frame) == sc.duration_frames
        assert sum(per_frame[:onset]) == 0
        assert sum(per_frame[onset:]) > 0

    def test_invariant_scans_follow_state_changes(self, monkeypatch):
        """A 4000-frame run with staggered attaches, re-auth, a flooder and a
        denied UE: invariant scans are bounded by the state changes, not by
        the frames, and every frame reports each attached UE once."""
        sc = gate_scenario()
        counts = {"scans": 0, "changes": 0}

        def counting(name: str, key: str):
            method = getattr(RanCell, name)

            def wrapper(cell, *args, **kwargs):
                counts[key] += 1
                return method(cell, *args, **kwargs)

            monkeypatch.setattr(RanCell, name, wrapper)

        counting("_check_invariants", "scans")
        for mutator in ("attach", "_on_auth_response", "apply_slice_control"):
            counting(mutator, "changes")
        result = run(sc)
        assert len(result.frames) == 4000
        assert 0 < counts["scans"] <= 1 + counts["changes"] < 4000
        for report in result.frames:
            attached = [u.ue for u in sc.ues if u.attach_frame <= report.frame_index]
            assert sorted(report.per_ue) == sorted(attached)

    def test_ric_works_on_change(self, monkeypatch):
        """Over the same run: every emitted slice table differs from the one
        before it, no KPM report names UE 6 after its denial, the SDL keeps no
        window for it, and the flooder's verdict is routed once, at its onset,
        so the second half of the audit holds only re-authentications."""
        reported: list[tuple[int, int]] = []  # (frame the RIC got it, ue)
        ingest = Router.ingest_frame

        def recording_ingest(router, data):
            msg = e2.decode(data)
            if msg.kind is MsgKind.KPM_INDICATION:
                reported.append((router.frame, msg.body.report.ue))
            return ingest(router, data)

        monkeypatch.setattr(Router, "ingest_frame", recording_ingest)
        result = run(gate_scenario())
        tables = [body for _, body in result.slicing.emitted]
        reauths = result.audit.scan("reauth")
        assert len(tables) > 1 and len(reauths) > 10  # re-auth grants fall inside the run
        assert all(prev != cur for prev, cur in zip(tables, tables[1:]))
        denial = next(
            e["frame"] for e in result.audit.scan("auth") if e["ue"] == 6 and e["outcome"] == "denied"
        )
        assert result.audit.scan("isolate")  # the flooder was isolated, then still reported
        assert max(f for f, ue in reported if ue == 1) > 3900
        assert all(f <= denial for f, ue in reported if ue == 6)
        assert result.sdl.get(NS_PROFILES, "window:6") is None
        assert result.sdl.get(NS_AUTH, "usage:6") is None
        ue1 = [e["action"] for e in result.audit.entries if e.get("ue") == 1]
        assert ue1.count("intrusion_flag") == ue1.count("isolate") == 1
        assert "isolate_skipped" not in ue1
        late = {e["action"] for e in result.audit.entries if e["time_ms"] >= 2000 * 10}
        assert late == {"reauth", "token_issued"}

    def test_quiet_boundaries_cost_no_ric_work(self, monkeypatch):
        """flood_isolation over 1000 frames, where E2 traffic crosses on about
        a tenth of the boundaries. Each pump hands the router and the cell
        exactly the frames encoded since the last one, so on a boundary that
        starts with both outboxes empty it calls neither and leaves the
        outboxes as they are. Nor does such a boundary read the SDL. The
        boundary hook runs only on the auth xApp, the one xApp that overrides
        it, and the auth xApp parses at most one slice table per table
        emitted, however many frames run."""
        sc = load_scenario(SCENARIOS / "flood_isolation.scn")
        counts = {"encode": 0, "take": 0, "loads": 0, "gets": 0}
        # per frame boundary: (frames encoded, frames taken, SDL gets)
        windows: list[tuple[int, int, int]] = []
        outboxes = []  # the cell's outbox object at each step, once per object
        hooked: set[str] = set()

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        step, base_hook = RanCell.step_frame, Xapp.on_frame_boundary

        def recording_step(cell):
            windows.append((counts["encode"], counts["take"], counts["gets"]))
            counts["encode"] = counts["take"] = counts["gets"] = 0
            if not outboxes or outboxes[-1] is not cell.outbox:
                outboxes.append(cell.outbox)
            return step(cell)

        def recording_hook(xapp, frame):
            hooked.add(type(xapp).__name__)
            base_hook(xapp, frame)

        monkeypatch.setattr(e2, "encode", counting(e2.encode, "encode"))
        monkeypatch.setattr(Router, "ingest_frame", counting(Router.ingest_frame, "take"))
        monkeypatch.setattr(RanCell, "handle_frame", counting(RanCell.handle_frame, "take"))
        monkeypatch.setattr(RanCell, "step_frame", recording_step)
        monkeypatch.setattr(Xapp, "on_frame_boundary", recording_hook)
        monkeypatch.setattr(Sdl, "get", counting(Sdl.get, "gets"))
        loads = counting(auth.json.loads, "loads")
        monkeypatch.setattr(auth, "json", type("CountingJson", (), {"loads": staticmethod(loads)}))
        result = run(sc)
        assert sc.duration_frames == len(windows) == 1000
        assert all(encoded == taken for encoded, taken, _ in windows)
        assert all(gets == 0 for encoded, _, gets in windows if not encoded)
        busy = sum(1 for encoded, _, _ in windows if encoded)
        assert 0 < busy < sc.duration_frames // 5
        assert len(outboxes) <= 1 + busy
        assert hooked == {"AuthXapp"}
        assert counts["loads"] <= len(result.slicing.emitted) < busy
