"""Slice lifecycle: equal split, isolation, reallocation, emission validity."""
import json

import pytest

from ztcell.core import SliceKind, SlicePriority, UeId, equal_split, validate_slice_table
from ztcell.e2 import MsgKind, SliceControlBody
from ztcell.ric import AuditLog, InternalMessage, Router, Sdl, XappContext
from ztcell.xapps.auth import KIND_DENY, KIND_GRANT, KIND_VERIFY_START, NS_AUTH, NS_SLICES
from ztcell.xapps.intrusion import Verdict
from ztcell.xapps.slicing import (
    PolicyError,
    RestrictedPolicy,
    SlicingConfig,
    SlicingXapp,
    UePolicy,
)


def verdict(ue: UeId) -> Verdict:
    return Verdict(ue, True, (("throughput_mbps", 40.0, (10.0, 20.0)),), 10)


class Board:
    def __init__(self, **overrides):
        self.audit = AuditLog()
        self.router = Router(self.audit)
        self.sdl = Sdl()
        self.sent: list[tuple[MsgKind, SliceControlBody]] = []
        cfg = SlicingConfig(**overrides)
        self.xapp = SlicingXapp(cfg)
        self.xapp.on_init(
            XappContext(
                router=self.router, sdl=self.sdl, audit=self.audit,
                send_e2=lambda kind, body: self.sent.append((kind, body)),
            )
        )
        self.xapp.on_frame_boundary(0)

    def grant(self, ue: UeId) -> None:
        self.sdl.put(NS_AUTH, f"grant:{ue}", b"\x00" * 8)
        self.xapp.bind_ue(ue, "normal")

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
            board.xapp.bind_ue(1, "normal")

    def test_verification_bind_budget_and_kind(self):
        board = Board(verification_budget_prbs=2)
        board.xapp.bind_ue(5, "verification")
        assert board.budgets() == {5: 2}
        assert board.kinds()[5] is SliceKind.VERIFICATION

    def test_rebind_to_the_same_kind_emits_nothing(self):
        board = Board()
        board.xapp.bind_ue(1, "verification")
        board.grant(1)
        board.grant(2)
        emitted, stored = len(board.xapp.emitted), board.sdl.get(NS_SLICES, "table")
        board.xapp.on_frame_boundary(300)
        board.grant(1)  # a re-authentication grant for a UE that is already normal
        board.xapp.bind_ue(2, "normal")
        assert len(board.xapp.emitted) == emitted == len(board.sent)
        assert board.sdl.get(NS_SLICES, "table") == stored
        assert board.xapp.emitted[-1][0] == 0

    def test_every_emission_validates(self):
        board = Board()
        board.xapp.bind_ue(1, "verification")
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
        assert restricted.mask.indices() == [99]

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
            board.router.route(InternalMessage(kind, "auth", {"ue": 1}))
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
        board.xapp.bind_ue(1, "verification")
        board.xapp.isolate(verdict(1))
        assert board.kinds() == {1: SliceKind.RESTRICTED, 2: SliceKind.NORMAL}
        assert board.audit.scan("isolate_skipped") == []
        board.sdl.put(NS_AUTH, "grant:1", b"\x00" * 8)
        board.router.route(InternalMessage(KIND_GRANT, "auth", {"ue": 1}))
        assert board.kinds() == {1: SliceKind.RESTRICTED, 2: SliceKind.NORMAL}
        board.router.route(InternalMessage(KIND_DENY, "auth", {"ue": 1}))
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
        board.xapp.bind_ue(9, "verification")
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

    def test_release_last_isolated_removes_restricted_slice(self):
        board = Board()
        for ue in (1, 2):
            board.grant(ue)
        board.xapp.isolate(verdict(1))
        board.xapp.release(1)
        _, body = board.xapp.emitted[-1]
        assert all(s.kind is not SliceKind.RESTRICTED for s in body.slices)

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
        board = Board(ue_policies={9: UePolicy(SlicePriority.MISSION_CRITICAL, 40)})
        for ue in (1, 2, 9):
            board.grant(ue)
        budgets = board.budgets()
        assert budgets[9] == 40
        assert sorted((budgets[1], budgets[2]), reverse=True) == equal_split(60, 2)
        _, body = board.xapp.emitted[-1]
        critical = next(s for s in body.slices if s.priority is SlicePriority.MISSION_CRITICAL)
        assert min(critical.mask.indices()) == 0  # allocated off the bottom


class TestComplexity:
    def build_with_isolated(self, m: int) -> SlicingXapp:
        board = Board(restricted=RestrictedPolicy(budget_prbs=1))
        for ue in range(1, m + 5):  # m future intruders + 4 that stay granted
            board.grant(ue)
        for ue in range(1, m + 1):
            board.xapp.isolate(verdict(ue))
        return board.xapp

    def test_isolation_work_independent_of_intruder_count(self):
        ops = {}
        for m in (1, 5, 25):
            xapp = self.build_with_isolated(m)
            before = xapp.alloc_ops
            xapp.isolate(verdict(m + 1))  # the next victim; 3 UEs stay granted
            ops[m] = xapp.alloc_ops - before
        assert ops[1] == ops[5] == ops[25] > 0


class TestChangeLog:
    def test_causes_recorded(self, tmp_path):
        board = Board()
        board.xapp.bind_ue(1, "verification")
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
