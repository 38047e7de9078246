"""Slice lifecycle: equal split, isolation, reallocation, emission validity."""
import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztcell.core import (
    PRBMask,
    SliceId,
    SliceKind,
    SlicePriority,
    SliceSpec,
    UeId,
    equal_split,
    validate_slice_table,
)
from ztcell.e2 import MsgKind, SliceControlBody
from ztcell.ric import AuditLog, InternalMessage, Router, Sdl, Xapp, XappContext
from ztcell.scenario import Scenario, parse_scenario
from ztcell.xapps.auth import (
    KIND_DENY,
    KIND_GRANT,
    KIND_REVOKE,
    KIND_VERIFY_START,
    NS_AUTH,
    NS_SLICES,
)
from ztcell.xapps.intrusion import KIND_VERDICT, Verdict
from ztcell.xapps.slicing import (
    PolicyError,
    RestrictedPolicy,
    SliceChange,
    SlicingXapp,
)

# The slicer binds whichever UEs it is told to; the scenario's UEs matter
# only as the source of its mission-critical reservations.
BASE = parse_scenario("scenario.duration_frames = 1\nue.1.traffic = idle")


def slicer_scenario(
    total_prbs: int = 100,
    verification_budget_prbs: int = 2,
    restricted: RestrictedPolicy = RestrictedPolicy(),
    reserved_prbs: dict[UeId, int] | None = None,
) -> Scenario:
    """`BASE` with the settings the slicer reads replaced, and one
    mission-critical UE per `reserved_prbs` entry. Being replaced rather than
    parsed, it reaches cells and reservations the parser rejects."""
    critical = tuple(
        replace(BASE.ues[0], ue=ue, priority=SlicePriority.MISSION_CRITICAL, reserved_prbs=prbs)
        for ue, prbs in (reserved_prbs or {}).items()
    )
    return replace(
        BASE,
        cell=replace(BASE.cell, total_prbs=total_prbs),
        auth=replace(BASE.auth, verification_budget_prbs=verification_budget_prbs),
        restricted=restricted,
        ues=critical,
    )


def verdict(ue: UeId) -> Verdict:
    return Verdict(ue, (("throughput_mbps", 40.0, (10.0, 20.0)),), 10)


class Board:
    def __init__(self, slicer=SlicingXapp, **overrides):
        self.audit = AuditLog()
        self.router = Router(self.audit)
        self.sdl = Sdl()
        self.sent: list[tuple[MsgKind, SliceControlBody]] = []
        self.xapp = slicer(slicer_scenario(**overrides))
        self.xapp.on_init(
            XappContext(
                router=self.router, sdl=self.sdl, audit=self.audit,
                send_e2=lambda kind, body: self.sent.append((kind, body)),
            )
        )
        self.xapp.on_frame_boundary(0)

    def grant(self, ue: UeId) -> None:
        self.sdl.put(NS_AUTH, f"grant:{ue}", b"\x00" * 8)
        self.xapp.bind_ue(ue, SliceKind.NORMAL)

    def budgets(self) -> dict[UeId, int]:
        _, body = self.xapp.emitted[-1]
        by_id = {s.id: s.budget() for s in body.slices}
        return {ue: by_id[sid] for ue, sid in body.bindings}

    def kinds(self) -> dict[UeId, SliceKind]:
        _, body = self.xapp.emitted[-1]
        by_id = {s.id: s.kind for s in body.slices}
        return {ue: by_id[sid] for ue, sid in body.bindings}


class TestBind:
    def test_three_granted_get_equal_split(self):
        board = Board()
        for ue in (1, 2, 3):
            board.grant(ue)
        assert sorted(board.budgets().values(), reverse=True) == equal_split(100, 3)
        assert board.budgets() == {1: 34, 2: 33, 3: 33}

    def test_single_ue_gets_everything(self):
        board = Board()
        board.grant(1)
        assert board.budgets() == {1: 100}

    def test_unauthenticated_bind_is_policy_error(self):
        board = Board()
        with pytest.raises(PolicyError):
            board.xapp.bind_ue(1, SliceKind.NORMAL)

    def test_bind_as_restricted_is_policy_error(self):
        board = Board()
        board.grant(1)
        with pytest.raises(PolicyError, match="cannot bind a UE as 'restricted'"):
            board.xapp.bind_ue(1, SliceKind.RESTRICTED)
        assert board.kinds() == {1: SliceKind.NORMAL}

    def test_verification_bind_budget_and_kind(self):
        board = Board(verification_budget_prbs=2)
        board.xapp.bind_ue(5, SliceKind.VERIFICATION)
        assert board.budgets() == {5: 2}
        assert board.kinds()[5] is SliceKind.VERIFICATION

    def test_rebind_to_the_same_kind_emits_nothing(self):
        board = Board()
        board.xapp.bind_ue(1, SliceKind.VERIFICATION)
        board.grant(1)
        board.grant(2)
        emitted, stored = len(board.xapp.emitted), board.sdl.get(NS_SLICES, "table")
        board.xapp.on_frame_boundary(300)
        board.grant(1)  # a re-authentication grant for a UE that is already normal
        board.xapp.bind_ue(2, SliceKind.NORMAL)
        assert len(board.xapp.emitted) == emitted == len(board.sent)
        assert board.sdl.get(NS_SLICES, "table") == stored
        assert board.xapp.emitted[-1][0] == 0

    def test_every_emission_validates(self):
        board = Board()
        board.xapp.bind_ue(1, SliceKind.VERIFICATION)
        board.grant(1)
        board.grant(2)
        board.xapp.isolate(verdict(1))
        board.xapp.release(2)
        for _, body in board.xapp.emitted:
            assert validate_slice_table(list(body.slices), 100) == []
            assert sum(s.budget() for s in body.slices) <= 100


class TestIsolate:
    def test_isolation_resplits_remaining_99_prbs(self):
        board = Board()
        for ue in (1, 2, 3):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        budgets = board.budgets()
        assert budgets[1] == 1  # restricted cap
        assert sorted((budgets[2], budgets[3]), reverse=True) == equal_split(99, 2) == [50, 49]
        assert board.kinds()[1] is SliceKind.RESTRICTED

    def test_restricted_slice_occupies_highest_prbs(self):
        board = Board()
        board.grant(1)
        board.xapp.isolate(verdict(1))
        _, body = board.xapp.emitted[-1]
        restricted = next(s for s in body.slices if s.kind is SliceKind.RESTRICTED)
        assert restricted.mask.bits == 1 << 99

    def test_isolate_twice_is_skipped(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        emissions = len(board.xapp.emitted)
        board.xapp.isolate(verdict(1))
        assert len(board.xapp.emitted) == emissions  # nothing changed
        assert [e["detail"] for e in board.audit.scan("isolate_skipped")] == [
            "ue 1 already isolated"
        ]

    def test_grant_never_lifts_isolation(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        emitted = len(board.xapp.emitted)
        for kind in (KIND_GRANT, KIND_VERIFY_START):
            board.router.route(InternalMessage(kind, {"ue": 1}))
        assert len(board.xapp.emitted) == emitted
        assert board.kinds() == {1: SliceKind.RESTRICTED, 2: SliceKind.NORMAL}
        assert board.budgets() == {1: 1, 2: 99}

    def test_isolating_ungranted_ue_skipped(self):
        board = Board()
        board.grant(2)
        board.xapp.isolate(verdict(7))
        assert [e["detail"] for e in board.audit.scan("isolate_skipped")] == ["ue 7 not bound"]
        assert 7 not in board.budgets()

    def test_verifying_ue_isolated_until_denied(self):
        board = Board()
        board.grant(2)
        board.xapp.bind_ue(1, SliceKind.VERIFICATION)
        board.xapp.isolate(verdict(1))
        assert board.kinds() == {1: SliceKind.RESTRICTED, 2: SliceKind.NORMAL}
        assert board.audit.scan("isolate_skipped") == []
        board.sdl.put(NS_AUTH, "grant:1", b"\x00" * 8)
        board.router.route(InternalMessage(KIND_GRANT, {"ue": 1}))
        assert board.kinds() == {1: SliceKind.RESTRICTED, 2: SliceKind.NORMAL}
        board.router.route(InternalMessage(KIND_DENY, {"ue": 1}))
        assert board.kinds() == {2: SliceKind.NORMAL}
        assert [c.cause for c in board.xapp.changes if c.ue == 1] == [
            "verify", "isolate", "release"
        ]

    def test_isolated_ues_share_one_restricted_slice(self):
        board = Board()
        for ue in (1, 2, 3, 4):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        board.xapp.isolate(verdict(2))
        _, body = board.xapp.emitted[-1]
        restricted = [s for s in body.slices if s.kind is SliceKind.RESTRICTED]
        assert len(restricted) == 1
        bound = dict(body.bindings)
        assert bound[1] == bound[2] == restricted[0].id

    def test_no_stranded_prbs_after_isolation(self):
        board = Board(verification_budget_prbs=2)
        for ue in (1, 2, 3):
            board.grant(ue)
        board.xapp.bind_ue(9, SliceKind.VERIFICATION)
        board.xapp.isolate(verdict(3))
        _, body = board.xapp.emitted[-1]
        normal_total = sum(s.budget() for s in body.slices if s.kind is SliceKind.NORMAL)
        assert normal_total == 100 - 1 - 2  # total minus restricted minus verification


class TestRelease:
    def test_release_one_of_three_even_split(self):
        board = Board()
        for ue in (1, 2, 3):
            board.grant(ue)
        board.xapp.release(1)
        assert board.budgets() == {2: 50, 3: 50}

    def test_revoke_releases_bound_ue_as_reauth_revoke(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        sid = dict(board.xapp.emitted[-1][1].bindings)[1]
        board.router.route(InternalMessage(KIND_REVOKE, {"ue": 1}))
        assert board.budgets() == {2: 100}
        assert board.xapp.changes[-1] == SliceChange(0, 1, sid, None, "reauth_revoke")
        assert board.audit.scan("release_noop") == []

    def test_release_last_isolated_removes_restricted_slice(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        board.xapp.release(1)
        _, body = board.xapp.emitted[-1]
        assert all(s.kind is not SliceKind.RESTRICTED for s in body.slices)

    def test_next_isolation_reuses_the_restricted_id(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        restricted = dict(board.xapp.emitted[-1][1].bindings)[1]
        board.xapp.release(1)
        board.xapp.isolate(verdict(2))
        assert dict(board.xapp.emitted[-1][1].bindings) == {2: restricted}
        assert board.xapp.changes[-1] == SliceChange(0, 2, 2, restricted, "isolate")

    def test_release_then_regrant_restores_equal_split(self):
        board = Board()
        for ue in (1, 2, 3):
            board.grant(ue)
        baseline = board.budgets()
        board.xapp.release(2)
        board.grant(2)
        assert sorted(board.budgets().values()) == sorted(baseline.values())

    def test_release_unbound_is_logged_noop(self):
        board = Board()
        board.xapp.release(42)
        assert board.audit.scan("release_noop")
        assert board.xapp.emitted == []


class TestPriorities:
    def test_mission_critical_reserved_before_split(self):
        board = Board(reserved_prbs={9: 40})
        for ue in (1, 2, 9):
            board.grant(ue)
        budgets = board.budgets()
        assert budgets[9] == 40
        assert sorted((budgets[1], budgets[2]), reverse=True) == equal_split(60, 2)
        _, body = board.xapp.emitted[-1]
        critical = next(s for s in body.slices if s.priority is SlicePriority.MISSION_CRITICAL)
        assert critical.mask.bits & 1  # allocated off the bottom

    def test_mission_critical_only_on_the_normal_slice(self):
        board = Board(reserved_prbs={9: 40})
        board.xapp.bind_ue(9, SliceKind.VERIFICATION)
        board.grant(9)
        board.xapp.isolate(verdict(9))
        priorities = [
            [(s.kind, s.priority) for s in body.slices] for _, body in board.xapp.emitted
        ]
        assert priorities == [
            [(SliceKind.VERIFICATION, SlicePriority.COMMERCIAL)],
            [(SliceKind.NORMAL, SlicePriority.MISSION_CRITICAL)],
            [(SliceKind.RESTRICTED, SlicePriority.COMMERCIAL)],
        ]


def slices_sent_isolating(prior: int) -> int:
    """The slices in the SLICE_CONTROL table sent when one more UE is
    isolated after `prior` intruders, with 3 UEs left granted."""
    board = Board(restricted=RestrictedPolicy(budget_prbs=1))
    for ue in range(1, prior + 5):  # prior + 1 future intruders, 3 that stay granted
        board.grant(ue)
    for ue in range(1, prior + 1):
        board.xapp.isolate(verdict(ue))
    board.xapp.isolate(verdict(prior + 1))
    kind, body = board.sent[-1]
    assert kind is MsgKind.SLICE_CONTROL
    return len(body.slices)


class TestComplexity:
    def test_isolation_work_independent_of_intruder_count(self):
        # 3 normal slices and the one restricted slice, however many are isolated.
        assert [slices_sent_isolating(m) for m in (1, 5, 25)] == [4, 4, 4]


class TestChangeLog:
    def test_causes_recorded(self, tmp_path):
        board = Board()
        board.xapp.bind_ue(1, SliceKind.VERIFICATION)
        board.grant(1)
        board.grant(2)
        board.xapp.isolate(verdict(1))
        board.xapp.release(2, cause="reauth_revoke")
        causes = [c.cause for c in board.xapp.changes]
        assert causes == ["verify", "grant", "grant", "isolate", "reauth_revoke"]
        path = tmp_path / "slice_changes.csv"
        board.xapp.write_changes_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,ue,old_slice,new_slice,cause"
        assert len(lines) == 6

    def test_resizes_without_rebind_produce_no_rows(self):
        board = Board()
        board.grant(1)
        board.grant(2)  # resizes UE1's slice but does not rebind it
        rows_for_1 = [c for c in board.xapp.changes if c.ue == 1]
        assert len(rows_for_1) == 1  # only the original grant

    def test_epoch_is_always_a_frame_boundary(self):
        board = Board()
        board.xapp.on_frame_boundary(7)
        board.grant(1)
        epoch, _ = board.xapp.emitted[-1]
        assert epoch == 7 == json.loads(board.sdl.get(NS_SLICES, "table")[0])["epoch"]


class ReferenceSlicer(Xapp):
    """The slicer with string kinds, a second copy of every binding and a
    diff over every UE's old and new binding on each table; the slicer that
    holds each UE's occupancy once must emit the same tables and changes."""

    name = "slicing"

    def __init__(self, sc: Scenario) -> None:
        super().__init__()
        self.sc = sc
        self._occupancy: dict[UeId, str] = {}
        self._slice_ids: dict[tuple[UeId | None, str], SliceId] = {}
        self.bindings: dict[UeId, SliceId] = {}
        self.changes: list[SliceChange] = []
        self.emitted: list[tuple[int, SliceControlBody]] = []

    def on_init(self, ctx: XappContext) -> None:
        super().on_init(ctx)
        ctx.router.subscribe(
            self.name,
            [KIND_VERIFY_START, KIND_GRANT, KIND_DENY, KIND_REVOKE, KIND_VERDICT],
            self.handle,
        )

    def handle(self, msg: InternalMessage) -> None:
        if msg.kind == KIND_VERIFY_START:
            self.bind_ue(msg.payload["ue"], "verification")
        elif msg.kind == KIND_GRANT:
            self.bind_ue(msg.payload["ue"], "normal")
        elif msg.kind == KIND_DENY:
            self.release(msg.payload["ue"], cause="release")
        elif msg.kind == KIND_REVOKE:
            self.release(msg.payload["ue"], cause="reauth_revoke")
        elif msg.kind == KIND_VERDICT:
            self.isolate(msg.payload)

    def bind_ue(self, ue: UeId, kind: str) -> None:
        if kind not in ("normal", "verification"):
            raise PolicyError(f"cannot bind a UE as {kind!r}")
        if kind == "normal" and self.ctx.sdl.get(NS_AUTH, f"grant:{ue}") is None:
            raise PolicyError(f"UE {ue} is not authenticated")
        if self._occupancy.get(ue) in (kind, "restricted"):
            return
        cause = "grant" if kind == "normal" else "verify"
        self._occupancy[ue] = kind
        self._recompute(cause)

    def isolate(self, verdict: Verdict) -> None:
        ue = verdict.ue
        if not verdict.flagged:
            raise PolicyError("isolate requires a flagged verdict")
        held = self._occupancy.get(ue)
        if held in (None, "restricted"):
            reason = "not bound" if held is None else "already isolated"
            self.record("isolate_skipped", f"ue {ue} {reason}", ue=ue)
            return
        self._occupancy[ue] = "restricted"
        fields = ", ".join(f"{name}={mean:.2f}" for name, mean, _ in verdict.offending)
        self.record("isolate", f"ue {ue} isolated; offending: {fields}", ue=ue)
        self._recompute("isolate")

    def release(self, ue: UeId, cause: str = "release") -> None:
        if ue not in self._occupancy:
            self.record("release_noop", f"ue {ue} not bound", ue=ue)
            return
        del self._occupancy[ue]
        self._recompute(cause)

    def _slice_id(self, ue: UeId | None, kind: str) -> SliceId:
        return self._slice_ids.setdefault((ue, kind), len(self._slice_ids) + 1)

    def _recompute(self, cause: str) -> None:
        total = self.sc.cell.total_prbs
        verifying = [u for u, k in self._occupancy.items() if k == "verification"]
        normal = [u for u, k in self._occupancy.items() if k == "normal"]
        isolated = [u for u, k in self._occupancy.items() if k == "restricted"]
        reserved = {
            u.ue: u.reserved_prbs for u in self.sc.ues
            if u.priority is SlicePriority.MISSION_CRITICAL
        }
        critical = [u for u in normal if u in reserved]
        commercial = [u for u in normal if u not in reserved]

        restricted_prbs = self.sc.restricted.budget_prbs if isolated else 0
        verification = self.sc.auth.verification_budget_prbs
        reserved_prbs = sum(reserved[u] for u in critical)
        need = restricted_prbs + len(verifying) * verification + reserved_prbs + len(commercial)
        if need > total:
            raise PolicyError(
                f"frame {self.frame}: slice table does not fit the cell's {total} PRBs: "
                f"needs {need} = {len(verifying)} verifying UEs x {verification} "
                f"+ {restricted_prbs} restricted + {reserved_prbs} reserved "
                f"+ {len(commercial)} granted UEs x at least 1"
            )

        top = total
        slices: list[SliceSpec] = []
        new_bindings: dict[UeId, SliceId] = {}
        if isolated:
            budget = self.sc.restricted.budget_prbs
            top -= budget
            rid = self._slice_id(None, "restricted")
            slices.append(
                SliceSpec(rid, PRBMask.from_range(top, budget, total), kind=SliceKind.RESTRICTED)
            )
            for u in isolated:
                new_bindings[u] = rid
        for u in verifying:
            top -= verification
            sid = self._slice_id(u, "verification")
            slices.append(
                SliceSpec(
                    sid,
                    PRBMask.from_range(top, verification, total),
                    kind=SliceKind.VERIFICATION,
                )
            )
            new_bindings[u] = sid
        cursor = 0
        for u in critical:
            budget = reserved[u]
            sid = self._slice_id(u, "normal")
            slices.append(
                SliceSpec(
                    sid,
                    PRBMask.from_range(cursor, budget, total),
                    priority=SlicePriority.MISSION_CRITICAL,
                )
            )
            new_bindings[u] = sid
            cursor += budget
        if commercial:
            budgets = equal_split(top - cursor, len(commercial))
            for u, budget in zip(commercial, budgets):
                sid = self._slice_id(u, "normal")
                slices.append(SliceSpec(sid, PRBMask.from_range(cursor, budget, total)))
                new_bindings[u] = sid
                cursor += budget

        assert validate_slice_table(slices, total) == []
        for u in sorted(set(self.bindings) | set(new_bindings)):
            old = self.bindings.get(u)
            new = new_bindings.get(u)
            if old != new:
                self.changes.append(SliceChange(self.frame, u, old, new, cause))
        self.bindings = new_bindings

        body = SliceControlBody(bindings=tuple(sorted(new_bindings.items())), slices=tuple(slices))
        self.emitted.append((self.frame, body))
        self.ctx.sdl.put(
            NS_SLICES,
            "table",
            json.dumps(
                {
                    "epoch": self.frame,
                    "slices": [
                        {"id": s.id, "budget": s.budget(), "kind": s.kind.name.lower()}
                        for s in slices
                    ],
                    "bindings": {str(u): sid for u, sid in sorted(new_bindings.items())},
                }
            ).encode(),
        )
        self.ctx.send_e2(MsgKind.SLICE_CONTROL, body)


SLICER_OPS = (KIND_VERIFY_START, KIND_GRANT, KIND_DENY, KIND_REVOKE, KIND_VERDICT)


@st.composite
def slicer_runs(draw):
    """A slicing config and a sequence of (operation, UE, frames to advance
    first): 1-12 UEs, 0-3 of them mission-critical, in cells of 4-100 PRBs
    that some tables do not fit."""
    n = draw(st.integers(1, 12))
    critical = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    config = {
        "total_prbs": draw(st.integers(4, 100)),
        "verification_budget_prbs": draw(st.integers(1, 4)),
        "restricted": RestrictedPolicy(draw(st.integers(1, 5))),
        "reserved_prbs": {ue: draw(st.integers(1, 30)) for ue in critical},
    }
    step = st.tuples(st.sampled_from(SLICER_OPS), st.integers(1, n), st.integers(0, 3))
    return config, draw(st.lists(step, min_size=1, max_size=40))


def slicer_step(board: Board, kind: str, ue: UeId) -> str | None:
    """Deliver one operation as the auth and intrusion xApps would; returns
    the PolicyError text, if it raised one."""
    if kind == KIND_GRANT:
        board.sdl.put(NS_AUTH, f"grant:{ue}", b"\x00" * 8)
    elif kind in (KIND_DENY, KIND_REVOKE):
        board.sdl.delete(NS_AUTH, f"grant:{ue}")
    payload = verdict(ue) if kind == KIND_VERDICT else {"ue": ue}
    try:
        board.router.route(InternalMessage(kind, payload))
    except PolicyError as err:
        return str(err)
    return None


def slicer_outputs(board: Board) -> tuple:
    x = board.xapp
    return x.emitted, board.sdl.get(NS_SLICES, "table"), x.changes, board.audit.entries, board.sent


@pytest.mark.oracle
class TestSlicerOracle:
    @given(slicer_runs())
    @example((  # a mission-critical UE verifies, is granted, then is isolated
        {"total_prbs": 100, "verification_budget_prbs": 2,
         "restricted": RestrictedPolicy(1), "reserved_prbs": {1: 10}},
        [(KIND_VERIFY_START, 1, 0), (KIND_GRANT, 1, 1), (KIND_GRANT, 2, 0), (KIND_VERDICT, 1, 1)],
    ))
    @example((  # the last isolated UE is released; the next isolation reuses the restricted id
        {"total_prbs": 100, "verification_budget_prbs": 2,
         "restricted": RestrictedPolicy(1), "reserved_prbs": {}},
        [(KIND_GRANT, 1, 0), (KIND_GRANT, 2, 0), (KIND_VERDICT, 1, 1), (KIND_DENY, 1, 1),
         (KIND_VERDICT, 2, 1)],
    ))
    @settings(max_examples=200, deadline=None)
    def test_tables_equal_reference(self, run):
        config, steps = run
        board = Board(**config)
        reference = Board(ReferenceSlicer, **config)
        frame = 0
        for kind, ue, advance in steps:
            frame += advance
            for b in (board, reference):
                b.xapp.on_frame_boundary(frame)
            tables = len(board.xapp.emitted)
            error = slicer_step(board, kind, ue)
            assert error == slicer_step(reference, kind, ue)
            assert slicer_outputs(board) == slicer_outputs(reference)
            if error is not None:
                return  # a PolicyError ends the run
            assert len(board.xapp.emitted) - tables in (0, 1)
            assert len(board.xapp.changes) == len(board.xapp.emitted)
            if len(board.xapp.emitted) > tables:
                assert board.xapp.changes[-1].ue == ue
