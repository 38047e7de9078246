"""Slice lifecycle xApp: equal-split binding, intruder isolation, reallocation.

Every UE gets a dedicated slice. Granted commercial UEs share the PRBs left
after reservations in an equal split (remainder to lowest-index slices);
mission-critical UEs take their configured budgets off the bottom first.
The cell size, the verification and restricted budgets and the reservations
are read from the scenario the xApp is built from.
Isolated intruders all share one restricted slice pinned to the
highest-index PRBs, so slicing work stays independent of intruder count;
verification slices sit just below it. Tables change only at frame
boundaries and every emitted table is validated for disjointness and budget;
a table whose slices cannot all fit the cell fails, stamped with its frame,
before any mask is built.
Each UE's occupancy, the kind of slice it holds, is held once; its slice id
follows from it. A table is emitted only when one UE's occupancy changes, so
it moves that UE alone and logs one change: a bind to the kind a UE already
holds emits nothing. Any bound UE can be isolated, a verifying one
included; a verdict for a UE that is unbound or already restricted leaves
one `isolate_skipped` record. Isolation is sticky: a grant never moves an
isolated UE out of the restricted slice; only a deny or revoke releases it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

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
from ..scenario import Scenario
from .auth import KIND_DENY, KIND_GRANT, KIND_REVOKE, KIND_VERIFY_START, NS_AUTH, NS_SLICES
from .intrusion import KIND_VERDICT, Verdict

CHANGES_CSV_HEADER = "frame,ue,old_slice,new_slice,cause"


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class SliceChange:
    frame: int
    ue: UeId
    old_slice: SliceId | None
    new_slice: SliceId | None
    cause: str  # grant | isolate | release | reauth_revoke | verify


class SlicingXapp(Xapp):
    name = "slicing"

    def __init__(self, sc: Scenario, ctx: XappContext) -> None:
        super().__init__(ctx)
        self.sc = sc
        # mission-critical UE -> its budget, allocated off the bottom before the split
        self.reserved: dict[UeId, int] = {
            u.ue: u.reserved_prbs for u in sc.ues if u.priority is SlicePriority.MISSION_CRITICAL
        }
        # ue -> the kind of slice it holds: the one record of every UE's binding
        self._occupancy: dict[UeId, SliceKind] = {}
        # (ue, kind) -> slice id, and (None, RESTRICTED) -> the shared restricted slice
        self._slice_ids: dict[tuple[UeId | None, SliceKind], SliceId] = {}
        self.changes: list[SliceChange] = []
        self.emitted: list[tuple[int, e2.SliceControlBody]] = []
        ctx.router.subscribe(
            self.name,
            [KIND_VERIFY_START, KIND_GRANT, KIND_DENY, KIND_REVOKE, KIND_VERDICT],
            self.handle,
        )

    def handle(self, msg: InternalMessage) -> None:
        if msg.kind == KIND_VERIFY_START:
            self.bind_ue(msg.payload["ue"], SliceKind.VERIFICATION)
        elif msg.kind == KIND_GRANT:
            self.bind_ue(msg.payload["ue"], SliceKind.NORMAL)
        elif msg.kind == KIND_DENY:
            self.release(msg.payload["ue"], cause="release")
        elif msg.kind == KIND_REVOKE:
            self.release(msg.payload["ue"], cause="reauth_revoke")
        elif msg.kind == KIND_VERDICT:
            self.isolate(msg.payload)

    # ---- operations -----------------------------------------------------------

    def bind_ue(self, ue: UeId, kind: SliceKind) -> None:
        if kind is SliceKind.RESTRICTED:
            raise PolicyError(f"cannot bind a UE as {kind.name.lower()!r}")
        if kind is SliceKind.NORMAL and self.ctx.sdl.get(NS_AUTH, f"grant:{ue}") is None:
            raise PolicyError(f"UE {ue} is not authenticated")
        if self._occupancy.get(ue) in (kind, SliceKind.RESTRICTED):
            return  # the table would come out the same, and a grant never lifts isolation
        self._move(ue, kind, "grant" if kind is SliceKind.NORMAL else "verify")

    def isolate(self, verdict: Verdict) -> None:
        ue = verdict.ue
        if not verdict.flagged:
            raise PolicyError("isolate requires a flagged verdict")
        held = self._occupancy.get(ue)
        if held in (None, SliceKind.RESTRICTED):
            reason = "not bound" if held is None else "already isolated"
            self.record("isolate_skipped", f"ue {ue} {reason}", ue=ue)
            return
        fields = ", ".join(f"{name}={mean:.2f}" for name, mean, _ in verdict.offending)
        self.record("isolate", f"ue {ue} isolated; offending: {fields}", ue=ue)
        self._move(ue, SliceKind.RESTRICTED, "isolate")

    def release(self, ue: UeId, cause: str = "release") -> None:
        if ue not in self._occupancy:
            self.record("release_noop", f"ue {ue} not bound", ue=ue)
            return
        self._move(ue, None, cause)

    # ---- table computation -------------------------------------------------------

    def _slice_id(self, ue: UeId | None, kind: SliceKind) -> SliceId:
        """The id first given to the slice `ue` holds as `kind`; ids count up
        from 1 in first-use order, and every restricted UE shares one."""
        key = (None, kind) if kind is SliceKind.RESTRICTED else (ue, kind)
        return self._slice_ids.setdefault(key, len(self._slice_ids) + 1)

    def _move(self, ue: UeId, kind: SliceKind | None, cause: str) -> None:
        """Move `ue` into a slice of `kind` (None: out of every slice) and emit
        the table. No other UE changes kind, so no other UE changes slice id."""
        held = self._occupancy.get(ue)
        old = None if held is None else self._slice_id(ue, held)
        if kind is None:
            del self._occupancy[ue]
        else:
            self._occupancy[ue] = kind  # an existing UE keeps its place in the layout
        self._recompute()
        new = None if kind is None else self._slice_id(ue, kind)
        self.changes.append(SliceChange(self.frame, ue, old, new, cause))

    def _recompute(self) -> None:
        total = self.sc.cell.total_prbs
        verification = self.sc.auth.verification_budget_prbs
        reserved = self.reserved
        occupancy = self._occupancy.items()
        verifying = [u for u, k in occupancy if k is SliceKind.VERIFICATION]
        critical = [u for u, k in occupancy if k is SliceKind.NORMAL and u in reserved]
        commercial = [u for u, k in occupancy if k is SliceKind.NORMAL and u not in reserved]
        isolated = SliceKind.RESTRICTED in self._occupancy.values()
        restricted = self.sc.restricted_budget_prbs if isolated else 0

        # (ue, kind, first PRB, PRBs): the restricted and verification slices
        # down from the top of the cell, the mission-critical ones up from the
        # bottom, and the commercial ones splitting what is left equally.
        top = total - restricted
        layout = [(None, SliceKind.RESTRICTED, top, restricted)] if isolated else []
        for u in verifying:
            top -= verification
            layout.append((u, SliceKind.VERIFICATION, top, verification))
        bottom = 0
        for u in critical:
            layout.append((u, SliceKind.NORMAL, bottom, reserved[u]))
            bottom += reserved[u]
        # Every slice fits the cell iff their sum does: a commercial UE needs
        # at least one PRB of the split.
        need = sum(prbs for *_, prbs in layout) + len(commercial)
        if need > total:
            raise PolicyError(
                f"frame {self.frame}: slice table does not fit the cell's {total} PRBs: "
                f"needs {need} = {len(verifying)} verifying UEs x {verification} "
                f"+ {restricted} restricted + {bottom} reserved "
                f"+ {len(commercial)} granted UEs x at least 1"
            )
        if commercial:
            for u, prbs in zip(commercial, equal_split(top - bottom, len(commercial))):
                layout.append((u, SliceKind.NORMAL, bottom, prbs))
                bottom += prbs

        slices = [
            SliceSpec(
                self._slice_id(u, k),
                PRBMask.from_range(first, prbs, total),
                SlicePriority.MISSION_CRITICAL
                if k is SliceKind.NORMAL and u in reserved
                else SlicePriority.COMMERCIAL,
                k,
            )
            for u, k, first, prbs in layout
        ]
        violations = validate_slice_table(slices, total)
        if violations:  # never expected: every emission must be a valid table
            raise AssertionError("; ".join(v.detail for v in violations))

        bindings = tuple(sorted((u, self._slice_id(u, k)) for u, k in occupancy))
        body = e2.SliceControlBody(bindings=bindings, slices=tuple(slices))
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
                    "bindings": {str(u): sid for u, sid in bindings},
                }
            ).encode(),
        )
        self.ctx.send_e2(MsgKind.SLICE_CONTROL, body)

    def write_changes_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(CHANGES_CSV_HEADER + "\n")
            for ch in self.changes:
                old = "" if ch.old_slice is None else ch.old_slice
                new = "" if ch.new_slice is None else ch.new_slice
                fh.write(f"{ch.frame},{ch.ue},{old},{new},{ch.cause}\n")
