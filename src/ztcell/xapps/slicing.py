"""Slice lifecycle xApp: equal-split binding, intruder isolation, reallocation.

Every UE gets a dedicated slice. Granted commercial UEs share the PRBs left
after reservations in an equal split (remainder to lowest-index slices);
mission-critical UEs take their configured budgets off the bottom first.
Isolated intruders all share one restricted slice pinned to the
highest-index PRBs, so slicing work stays independent of intruder count;
verification slices sit just below it. Tables change only at frame
boundaries and every emitted table is validated for disjointness and budget;
a table whose slices cannot all fit the cell fails, stamped with its frame,
before any mask is built.
A table is emitted only when an occupancy changes: a bind to the kind a UE
already holds emits nothing. Any bound UE can be isolated, a verifying one
included; a verdict for a UE that is unbound or already restricted leaves
one `isolate_skipped` record. Isolation is sticky: a grant never moves an
isolated UE out of the restricted slice; only a deny or revoke releases it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .. import e2
from ..core import (
    PRBMask,
    SliceId,
    SliceKind,
    SlicePriority,
    SliceSpec,
    UeId,
    equal_split,
    validate_slice_table,
)
from ..e2 import MsgKind
from ..ric import InternalMessage, Xapp, XappContext
from .auth import KIND_DENY, KIND_GRANT, KIND_REVOKE, KIND_VERIFY_START, NS_AUTH, NS_SLICES
from .intrusion import KIND_VERDICT, Verdict


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class RestrictedPolicy:
    budget_prbs: int = 1  # highest-index PRBs

    def __post_init__(self) -> None:
        if not 1 <= self.budget_prbs <= 5:
            raise ValueError("restricted budget must be 1..5 PRBs")


@dataclass
class SlicingConfig:
    total_prbs: int = 100
    restricted: RestrictedPolicy = field(default_factory=RestrictedPolicy)
    verification_budget_prbs: int = 2
    # mission-critical UE -> its budget, allocated off the bottom before the split
    reserved_prbs: dict[UeId, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SliceChange:
    frame: int
    ue: UeId
    old_slice: SliceId | None
    new_slice: SliceId | None
    cause: str  # grant | isolate | release | reauth_revoke | verify


class SlicingXapp(Xapp):
    name = "slicing"

    def __init__(self, config: SlicingConfig) -> None:
        super().__init__()
        self.cfg = config
        # ue -> occupancy kind: "verification" | "normal" | "restricted"
        self._occupancy: dict[UeId, str] = {}
        # (ue, kind) -> slice id, and (None, "restricted") -> the shared restricted slice
        self._slice_ids: dict[tuple[UeId | None, str], SliceId] = {}
        self.bindings: dict[UeId, SliceId] = {}
        self.changes: list[SliceChange] = []
        self.emitted: list[tuple[int, e2.SliceControlBody]] = []

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

    # ---- operations -----------------------------------------------------------

    def bind_ue(self, ue: UeId, kind: str) -> None:
        if kind not in ("normal", "verification"):
            raise PolicyError(f"cannot bind a UE as {kind!r}")
        if kind == "normal" and self.ctx.sdl.get(NS_AUTH, f"grant:{ue}") is None:
            raise PolicyError(f"UE {ue} is not authenticated")
        if self._occupancy.get(ue) in (kind, "restricted"):
            return  # the table would come out the same, and a grant never lifts isolation
        cause = "grant" if kind == "normal" else "verify"
        self._occupancy[ue] = kind
        self._recompute(cause_ue=ue, cause=cause)

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
        self._recompute(cause_ue=ue, cause="isolate")

    def release(self, ue: UeId, cause: str = "release") -> None:
        if ue not in self._occupancy:
            self.record("release_noop", f"ue {ue} not bound", ue=ue)
            return
        del self._occupancy[ue]
        self._recompute(cause_ue=ue, cause=cause)

    # ---- table computation -------------------------------------------------------

    def _slice_id(self, ue: UeId | None, kind: str) -> SliceId:
        """The id first given to (ue, kind); ids count up from 1 in first-use order."""
        return self._slice_ids.setdefault((ue, kind), len(self._slice_ids) + 1)

    def _recompute(self, cause_ue: UeId, cause: str) -> None:
        total = self.cfg.total_prbs
        verifying = [u for u, k in self._occupancy.items() if k == "verification"]
        normal = [u for u, k in self._occupancy.items() if k == "normal"]
        isolated = [u for u, k in self._occupancy.items() if k == "restricted"]
        reserved = self.cfg.reserved_prbs
        critical = [u for u in normal if u in reserved]
        commercial = [u for u in normal if u not in reserved]

        # Every slice below fits the cell iff their sum does: a commercial UE
        # needs at least one PRB of the split.
        restricted_prbs = self.cfg.restricted.budget_prbs if isolated else 0
        verification = self.cfg.verification_budget_prbs
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
            budget = self.cfg.restricted.budget_prbs
            top -= budget
            rid = self._slice_id(None, "restricted")
            slices.append(
                SliceSpec(rid, PRBMask.from_range(top, budget, total), kind=SliceKind.RESTRICTED)
            )
            for u in isolated:
                new_bindings[u] = rid
        for u in verifying:
            top -= self.cfg.verification_budget_prbs
            sid = self._slice_id(u, "verification")
            slices.append(
                SliceSpec(
                    sid,
                    PRBMask.from_range(top, self.cfg.verification_budget_prbs, total),
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

        violations = validate_slice_table(slices, total)
        if violations:  # never expected: every emission must be a valid table
            raise AssertionError("; ".join(v.detail for v in violations))

        for u in sorted(set(self.bindings) | set(new_bindings)):
            old = self.bindings.get(u)
            new = new_bindings.get(u)
            if old != new:
                self.changes.append(SliceChange(self.frame, u, old, new, cause))

        self.bindings = new_bindings

        body = e2.SliceControlBody(
            bindings=tuple(sorted(new_bindings.items())), slices=tuple(slices)
        )
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

    def write_changes_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("frame,ue,old_slice,new_slice,cause\n")
            for ch in self.changes:
                old = "" if ch.old_slice is None else ch.old_slice
                new = "" if ch.new_slice is None else ch.new_slice
                fh.write(f"{ch.frame},{ch.ue},{old},{new},{ch.cause}\n")
