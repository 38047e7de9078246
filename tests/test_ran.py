"""Cell model: capacity arithmetic, queue growth, FIFO, determinism."""
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztcell import e2
from ztcell.core import FRAME_MS, PRBMask, SliceKind, SliceSpec
from ztcell.e2 import MsgKind, SliceControlBody
from ztcell.ran import (
    AttachError,
    AuthState,
    CellConfig,
    FrameReport,
    InvariantError,
    RadioProfile,
    RanCell,
    TrafficModel,
    UeFrameStats,
)
from ztcell.ric import Router
from ztcell.runner import run
from ztcell.scenario import load_scenario, parse_scenario
from ztcell.xapps.auth import NS_AUTH
from ztcell.xapps.intrusion import NS_PROFILES

SCENARIOS = Path(__file__).parent.parent / "scenarios"
SECRET = b"\x5a" * 32
IDLE = TrafficModel(kind="idle")
STILL_RADIO = RadioProfile(snr_std_db=0.0, cqi_std=0.0, tx_power_std_dbm=0.0)


def attach_one(cell: RanCell, ue: int, traffic: TrafficModel, radio=None) -> None:
    cell.attach(
        ue,
        traffic=traffic,
        radio=radio or RadioProfile(),
        rng_traffic=Random(f"t/{ue}"),
        rng_radio=Random(f"r/{ue}"),
    )


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
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        # 1 Gbps offered: 833 packets of 12 kbit (10 Mbit) queue up per frame.
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=1000.0))
        preload = cell.step_frame().per_ue[1]  # verifying and unbound: not served
        assert preload.served_bits == 0
        assert preload.queue_bytes == 833 * 1500
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        report = cell.step_frame()
        # 100 PRB * 0.24 Mbps * 10 ms = 0.24 Mbit
        assert report.per_ue[1].served_bits == 240_000
        assert report.per_ue[1].queue_bytes == (2 * 833 * 12_000 - 240_000) // 8

    def test_empty_queue_serves_nothing_latency_absent(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE)
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        report = cell.step_frame()
        stats = report.per_ue[1]
        assert stats.served_bits == 0
        assert stats.mean_latency_ms is None
        assert not cell.ues[1].queue  # no head-of-line packet

    def test_served_never_exceeds_slice_capacity(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="flood", rate_mbps=40.0))
        grant_with_slices(cell, {1: (1, 0, 30, SliceKind.NORMAL)})
        cap = 30 * cell.cfg.prb_bits_per_frame
        for _ in range(50):
            report = cell.step_frame()
            assert report.per_ue[1].served_bits <= cap

    def test_legacy_total_served_capped_by_cell(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        for ue in (1, 2, 3):
            attach_one(cell, ue, TrafficModel(kind="cbr", rate_mbps=20.0))
        for _ in range(50):
            report = cell.step_frame()
            assert sum(s.served_bits for s in report.per_ue.values()) <= 2_400_000 // 10


class TestLegacyQueueGrowth:
    def test_thousand_frame_queue_recurrence(self):
        """Deterministic oracle: offered 40 Mbps vs 24 Mbps cell capacity."""
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=40.0))

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
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=40.0))
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
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=30.0))
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
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=18.0))
        attach_one(cell, 2, TrafficModel(kind="cbr", rate_mbps=18.0))
        # 36 Mbps offered vs 24 Mbps capacity: both UEs still get served every
        # frame because service follows arrival order, not UE order.
        for _ in range(20):
            report = cell.step_frame()
        assert report.per_ue[1].served_bits > 0
        assert report.per_ue[2].served_bits > 0


class TestDeterminism:
    def build(self) -> RanCell:
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        attach_one(cell, 1, TrafficModel(kind="uniform_rate", lo_mbps=5, hi_mbps=15))
        attach_one(cell, 2, TrafficModel(kind="uniform_rate", lo_mbps=5, hi_mbps=15))
        return cell

    def test_identical_seeds_identical_frame_reports(self):
        a, b = self.build(), self.build()
        for _ in range(200):
            assert a.step_frame() == b.step_frame()


class TestAttach:
    def test_fresh_attach_emits_one_auth_request(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE)
        assert len(cell.outbox) == 1
        msg = e2.decode(cell.outbox[0])
        assert msg.kind == MsgKind.AUTH_REQUEST
        assert cell.ues[1].auth_state is AuthState.VERIFYING

    def test_duplicate_attach_rejected(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE)
        with pytest.raises(AttachError):
            attach_one(cell, 1, IDLE)

    def test_four_attaches_distinct_monotone_seq(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        for ue in (1, 2, 3, 4):
            attach_one(cell, ue, IDLE)
        seqs = [e2.decode(raw).seq for raw in cell.outbox]
        assert len(seqs) == 4
        assert seqs == sorted(seqs) and len(set(seqs)) == 4

    def test_legacy_attach_stays_unauthenticated_and_silent(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=False)
        attach_one(cell, 1, IDLE)
        assert cell.outbox == []
        assert cell.ues[1].auth_state is AuthState.UNAUTHENTICATED


class TestKpm:
    def test_throughput_is_served_bits_over_period(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE, radio=STILL_RADIO)
        grant_with_slices(cell, {1: (1, 0, 100, SliceKind.NORMAL)})
        cell.ues[1].window_served_bits = 1_500_000  # 1.5 Mbit over 100 ms
        report = cell.collect_kpm(1, period_ms=100)
        assert report.throughput_mbps == 15.0

    def test_zero_std_radio_reports_exact_means(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE, radio=STILL_RADIO)
        report = cell.collect_kpm(1, period_ms=100)
        assert report.snr_db == 25.0
        assert report.cqi == 12
        assert report.tx_power_dbm == 20.0

    def test_isolated_attacker_capped_at_one_prb_rate(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="flood", rate_mbps=40.0))
        grant_with_slices(cell, {1: (1, 99, 1, SliceKind.RESTRICTED)})
        assert cell.ues[1].auth_state is AuthState.ISOLATED
        for _ in range(10):
            cell.step_frame()
        report = cell.collect_kpm(1, period_ms=100)
        assert report.throughput_mbps <= 0.24
        assert report.tx_packets > 300  # the flood itself is still visible

    def test_kpm_seq_strictly_increases(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE)
        seqs = [cell.collect_kpm(1, 100).seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]


# ---- reference model: one object per packet --------------------------------


class RefPacket:
    __slots__ = ("bits_left", "arrival_frame", "order_key", "seq")

    def __init__(self, bits: int, arrival_frame: int, order_key: float, seq: int) -> None:
        self.bits_left = bits
        self.arrival_frame = arrival_frame
        self.order_key = order_key
        self.seq = seq


class ReferenceCell(RanCell):
    """The scheduler with one queue entry per packet and a rescanned queue
    size; the batched cell must report the same frames."""

    def _enqueue_traffic(self, ue):
        f = self.frame_index
        bits = ue.traffic.bits_in_frame(f, ue.rng_traffic)
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
        for u in self.ue_order:
            self._enqueue_traffic(self.ues[u])
        served = {u: 0 for u in self.ue_order}
        latencies: dict[int, list[int]] = {u: [] for u in self.ue_order}
        if self.zero_trust:
            for ue_id in self.ue_order:
                ue = self.ues[ue_id]
                if ue.slice_id is None:
                    continue
                cap = self.slice_masks[ue.slice_id].popcount() * self.cfg.prb_bits_per_frame
                served[ue_id] = self._drain_packets(ue, cap, latencies[ue_id])
        else:
            cap_left = self.cfg.cell_bits_per_frame
            while cap_left > 0:
                head_ue = None
                head_key = None
                for idx, ue_id in enumerate(self.ue_order):
                    q = self.ues[ue_id].queue
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
        for ue_id in self.ue_order:
            ue = self.ues[ue_id]
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


def bind_widths(cell: RanCell, widths: list[int]) -> None:
    """UE i gets its own slice of widths[i] PRBs, or stays verifying and unbound at 0."""
    slices, bindings, start = [], [], 0
    for ue, width in zip(cell.ue_order, widths):
        state = cell.ues[ue]
        if width:
            mask = PRBMask.from_range(start, width, cell.cfg.total_prbs)
            slices.append(SliceSpec(ue, mask, kind=SliceKind.NORMAL))
            bindings.append((ue, ue))
            state.auth_state = AuthState.GRANTED
            start += width
        else:
            state.auth_state = AuthState.VERIFYING
    cell.apply_slice_control(SliceControlBody(bindings=tuple(bindings), slices=tuple(slices)))


@st.composite
def cell_runs(draw):
    models = draw(st.lists(traffic_models(), min_size=1, max_size=4))
    zero_trust = draw(st.booleans())
    width = st.integers(min_value=0, max_value=100 // len(models))
    tables = [draw(st.lists(width, min_size=len(models), max_size=len(models)))
              for _ in range(2)]
    frames = draw(st.integers(min_value=1, max_value=60))
    switch = draw(st.integers(min_value=0, max_value=frames))
    return models, zero_trust, tables, frames, switch


class TestBatchedQueueOracle:
    @given(cell_runs())
    @settings(max_examples=200, deadline=None)
    def test_frames_equal_per_packet_reference(self, run):
        models, zero_trust, tables, frames, switch = run
        cells = [RanCell(CellConfig(), SECRET, zero_trust), ReferenceCell(CellConfig(), SECRET, zero_trust)]
        for cell in cells:
            for ue, model in enumerate(models, start=1):
                attach_one(cell, ue, model)
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
            assert ue.pkt_seq == reference.ues[ue_id].pkt_seq


def auth_response(cell: RanCell, body: e2.AuthResponseBody) -> None:
    cell.handle_frame(e2.encode(cell.conn.make("ric", MsgKind.AUTH_RESPONSE, body)))


class TestDeniedIsTerminal:
    GRANT = e2.AuthResponseBody(1, e2.AuthOutcome.GRANTED, e2.AuthReason.OK, bytes(range(16)))
    DENY = e2.AuthResponseBody(1, e2.AuthOutcome.DENIED, e2.AuthReason.BAD_TAG)

    def test_later_grant_is_ignored(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=12.0))
        auth_response(cell, self.DENY)
        auth_response(cell, self.GRANT)
        ue = cell.ues[1]
        assert ue.auth_state is AuthState.DENIED
        assert ue.token is None and ue.granted_frame is None

    def test_restricted_binding_does_not_readmit_and_fails_closed(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=12.0))
        auth_response(cell, self.DENY)
        spec = SliceSpec(1, PRBMask.from_range(99, 1, 100), kind=SliceKind.RESTRICTED)
        cell.apply_slice_control(SliceControlBody(bindings=((1, 1),), slices=(spec,)))
        assert cell.ues[1].auth_state is AuthState.DENIED
        with pytest.raises(InvariantError, match="denied but bound"):
            cell.step_frame()

    def test_denied_backlog_grows_one_batch(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=12.0))
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
    cell.handle_frame(e2.encode(cell.conn.make("ric", MsgKind.SLICE_CONTROL, body)))


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
            attach_one(cell, op[1], TrafficModel(kind="cbr", rate_mbps=3.0))
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
        on_change = RanCell(CellConfig(), SECRET, zero_trust=True)
        every_frame = EveryFrameCheckCell(CellConfig(), SECRET, zero_trust=True)
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
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="cbr", rate_mbps=3.0))
        grant_with_slices(cell, {1: (1, 0, 10, SliceKind.NORMAL)})
        for _ in range(100):
            cell.step_frame()
        assert scans == [0]

    def test_table_that_fails_half_way_is_still_checked(self):
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, IDLE)
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
        cell = RanCell(CellConfig(), SECRET, zero_trust=True)
        attach_one(cell, 1, TrafficModel(kind="flood", rate_mbps=40.0))
        attach_one(cell, 2, TrafficModel(kind="cbr", rate_mbps=12.0))
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
