"""Multi-factor service authentication xApp.

A UE presents a 66-byte identity blob:

    token(16) | ue_id(8) | cell_id(4) | e2_id(4) | slice_id(2) | tag(32)

slice_id is zero outside re-authentication. The tag is HMAC-SHA256 over all
preceding bytes under a key chained from the scenario's shared secret through
the UE's credential factors, so one comparison binds every identifier while
each factor stays an individually countable verification step:

    possession  the token, issued RIC-side and rotated per transaction
    knowledge   the shared secret at the root of the key chain
    inherence   each static credential folded into the chain

The RAN node itself is verified first via a blob with the reserved ue_id 0;
UE requests from an unverified (cell, e2) pair are ignored outright and only
audit-logged. Verification holds the UE in a minimal verification slice for
`verify_frames` frames before the decision is made. The secret, the RAN's
credential and each UE's registered credential come from the scenario the
xApp is built from, and every token is drawn from one stream,
`Random(f"{seed}/auth/tokens")`.

The outcome follows from the reason: `ok` grants, `slice_mismatch` on a
re-authentication revokes, and any other reason denies.

Re-authentication also revokes, for `slice_mismatch`, a UE its RAN served
beyond its slice. A KPM report whose whole period the current slice table
served (its `epoch` at least one report period old) is judged on arrival:
one over `budget * per_prb_rate_mbps * (1 + usage_tolerance)` bumps a u64
count under `auth/usage:{ue}`, and the first also leaves a
`usage_over_budget` record. A report of a period that saw a table change, or
of an unbound UE, is not judged. The parsed table and its budgets by slice
id are cached per stored bytes object.

A re-auth blob must carry the slice the current table binds its UE to: the
runner delivers a boundary's RIC traffic before the RAN re-presents, so the
RAN builds the blob on the table the RIC holds. The boundary hook scans
pending verifications only while there are any, so a quiet boundary reads
nothing.
"""
from __future__ import annotations

import hashlib
import hmac
import json
import struct
from random import Random
from typing import TYPE_CHECKING

from .. import e2
from ..core import FRAME_MS, CellId, E2Id, KPMReport, SliceId, UeId
from ..e2 import AuthOutcome, AuthReason, MsgKind
from ..ric import InternalMessage, Xapp, XappContext

if TYPE_CHECKING:  # scenario.py imports the xApp modules
    from ..scenario import Scenario

BLOB_LEN = e2.AUTH_BLOB_LEN  # 66, shared with the wire format
TOKEN_LEN = e2.TOKEN_LEN  # 16, shared with the wire format
TAG_LEN = 32
RAN_UE_ID = 0  # reserved: a blob carrying ue_id 0 authenticates the RAN node

NS_AUTH = "auth"
NS_SLICES = "slices"

KIND_VERIFY_START = "auth.verify_start"
KIND_GRANT = "auth.grant"
KIND_DENY = "auth.deny"
KIND_REVOKE = "auth.revoke"


# ---- pure protocol helpers (also used by the RAN-side blob builder) --------


def blob_key(secret: bytes, credential_chain: tuple[bytes, ...]) -> bytes:
    key = secret
    for cred in credential_chain:
        key = hmac.new(key, b"factor|" + cred, hashlib.sha256).digest()
    return key


def corrupt_chain(chain: tuple[bytes, ...]) -> tuple[bytes, ...]:
    if not chain:
        return (b"\xff" * 8,)
    bad = bytes(b ^ 0xFF for b in chain[0])
    return (bad,) + chain[1:]


def build_blob(
    token: bytes, ue: UeId, cell: CellId, e2_id: E2Id, slice_id: SliceId, key: bytes
) -> bytes:
    if len(token) != TOKEN_LEN:
        raise ValueError(f"token must be {TOKEN_LEN} bytes")
    body = token + struct.pack(">QIIH", ue, cell, e2_id, slice_id)
    tag = hmac.new(key, body, hashlib.sha256).digest()
    return body + tag


def parse_blob(blob: bytes) -> tuple[bytes, UeId, CellId, E2Id, SliceId, bytes]:
    if len(blob) != BLOB_LEN:
        raise ValueError(f"blob must be {BLOB_LEN} bytes, got {len(blob)}")
    token = blob[:TOKEN_LEN]
    ue, cell, e2_id, slice_id = struct.unpack(">QIIH", blob[TOKEN_LEN : TOKEN_LEN + 18])
    return token, ue, cell, e2_id, slice_id, blob[-TAG_LEN:]


def ran_identity_blob(secret: bytes, cell: CellId, e2_id: E2Id, ran_credential: bytes) -> bytes:
    key = blob_key(secret, (ran_credential,))
    return build_blob(bytes(TOKEN_LEN), RAN_UE_ID, cell, e2_id, 0, key)


class AuthXapp(Xapp):
    name = "auth"

    def __init__(self, sc: Scenario) -> None:
        super().__init__()
        self.sc = sc
        self.secret = sc.secret()
        self.ran_credential = sc.ran_credential()
        # ue -> its credential factors, folded into the key chain in order
        self.credentials: dict[UeId, tuple[bytes, ...]] = {u.ue: (u.credential,) for u in sc.ues}
        self.rng_tokens = Random(f"{sc.seed}/auth/tokens")
        # pending verifications: ue -> (blob, due_frame); all durable state in SDL
        self._pending: dict[UeId, tuple[bytes, int]] = {}
        self.report_period_frames = sc.report_period_ms // FRAME_MS
        self._table: tuple[bytes, dict, dict[SliceId, int]] | None = None  # bytes, table, budgets

    # ---- wiring ------------------------------------------------------------

    def on_init(self, ctx: XappContext) -> None:
        super().on_init(ctx)
        ctx.router.subscribe(self.name, [MsgKind.AUTH_REQUEST, MsgKind.KPM_INDICATION], self.handle)

    def on_frame_boundary(self, frame: int) -> None:
        super().on_frame_boundary(frame)
        if self._pending:
            for ue in sorted(u for u, (_, due) in self._pending.items() if due <= frame):
                blob, _ = self._pending.pop(ue)
                self._decide(ue, self.verify_ue(ue, blob), reauth=False)

    def handle(self, msg: e2.E2Message) -> None:
        body = msg.body
        if isinstance(body, e2.AuthRequestBody):
            self._on_auth_request(msg, body.blob)
        elif isinstance(body, e2.KpmIndicationBody):
            self._judge_usage(body.report)

    # ---- token lifecycle ----------------------------------------------------

    def issue_token(self, ue: UeId) -> bytes:
        """Mint and store a fresh transaction token; the previous one dies."""
        token = self.rng_tokens.randbytes(TOKEN_LEN)
        packed = token + struct.pack(">QQ", self.frame, self.sc.auth.token_expiry_frames)
        self.ctx.sdl.put(NS_AUTH, f"token:{ue}", packed)
        self.record("token_issued", f"ue {ue} token {token[:4].hex()}..", ue=ue)
        return token

    def _stored_token(self, ue: UeId) -> tuple[bytes, int, int] | None:
        entry = self.ctx.sdl.get(NS_AUTH, f"token:{ue}")
        if entry is None:
            return None
        raw, _ = entry
        issued, expiry = struct.unpack(">QQ", raw[TOKEN_LEN:])
        return raw[:TOKEN_LEN], issued, expiry

    # ---- RAN verification -----------------------------------------------------

    def _ran_key(self, cell: CellId, e2_id: E2Id) -> str:
        return f"ran:{cell}:{e2_id}"

    def ran_verified(self, cell: CellId, e2_id: E2Id) -> bool:
        return self.ctx.sdl.get(NS_AUTH, self._ran_key(cell, e2_id)) is not None

    def verify_ran(self, cell: CellId, e2_id: E2Id, blob: bytes) -> bool:
        expected = ran_identity_blob(self.secret, cell, e2_id, self.ran_credential)
        if hmac.compare_digest(blob, expected):
            self.ctx.sdl.put(NS_AUTH, self._ran_key(cell, e2_id), b"\x01")
            self.record("verified_ran", f"cell {cell} e2 {e2_id} verified")
            return True
        self.record("ran_verify_failed", f"cell {cell} e2 {e2_id} presented a bad tag")
        return False

    # ---- UE verification -------------------------------------------------------

    def _on_auth_request(self, msg: e2.E2Message, blob: bytes) -> None:
        try:
            _, ue, *_ = parse_blob(blob)
        except ValueError:
            ue = None
        if ue == RAN_UE_ID:
            self.verify_ran(msg.cell, msg.e2, blob)
            return
        if not self.ran_verified(msg.cell, msg.e2):
            # Everything from an unverified RAN node is ignored: no decision.
            self.record(
                "auth_ignored", f"request from unverified cell {msg.cell} e2 {msg.e2}",
                ue=ue, reason="ran_unverified",
            )
            return
        if ue is None:
            return  # unparseable blob from a verified pair: nothing to decide on
        if self.ctx.sdl.get(NS_AUTH, f"grant:{ue}") is not None:
            self._decide_reauth(ue, blob)
            return
        # Fresh transaction: park the UE in a verification slice while checks run.
        self._pending[ue] = (blob, self.frame + self.sc.auth.verify_frames)
        self.record("auth_pending", f"ue {ue} under verification", ue=ue)
        self.ctx.router.route(InternalMessage(KIND_VERIFY_START, {"ue": ue}))

    def verify_ue(self, ue: UeId, blob: bytes, expect_slice: SliceId = 0) -> AuthReason:
        """Run the factor checks in order; the first failure names the reason.
        No side effects."""
        try:
            token, blob_ue, cell, e2_id, slice_id, tag = parse_blob(blob)
        except ValueError:
            return AuthReason.BAD_TAG
        # Possession: the token must be the one currently issued, and fresh.
        stored = self._stored_token(blob_ue)
        if stored is None or not hmac.compare_digest(token, stored[0]):
            return AuthReason.UNKNOWN_TOKEN
        _, issued, expiry = stored
        if self.frame - issued >= expiry:
            return AuthReason.EXPIRED
        # Knowledge + inherence: rebuild the key chain from registered factors.
        key = blob_key(self.secret, self.credentials.get(blob_ue, ()))
        expected_tag = hmac.new(key, blob[: BLOB_LEN - TAG_LEN], hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected_tag):
            return AuthReason.BAD_TAG
        # Identifier binding: tag-covered, but reject explicitly on mismatch.
        if blob_ue != ue or cell != self.sc.cell.cell_id or e2_id != self.sc.cell.e2_id:
            return AuthReason.BAD_TAG
        if slice_id != expect_slice:
            return AuthReason.SLICE_MISMATCH
        return AuthReason.OK

    def _decide_reauth(self, ue: UeId, blob: bytes) -> None:
        entry = self._slice_table()
        bound = 0 if entry is None else entry[1]["bindings"].get(str(ue), 0)
        reason = self.verify_ue(ue, blob, bound)
        if reason is AuthReason.OK and self.ctx.sdl.get(NS_AUTH, f"usage:{ue}") is not None:
            reason = AuthReason.SLICE_MISMATCH
        self._decide(ue, reason, reauth=True)

    def _decide(self, ue: UeId, reason: AuthReason, reauth: bool) -> None:
        """Grant on `ok`, revoke on a re-auth's `slice_mismatch`, deny on any
        other reason; then audit the decision and answer the RAN."""
        token = bytes(TOKEN_LEN)
        if reason is AuthReason.OK:
            outcome, kind = AuthOutcome.GRANTED, KIND_GRANT
            token = self.issue_token(ue)  # rotate for the next transaction
            self.ctx.sdl.put(NS_AUTH, f"grant:{ue}", struct.pack(">Q", self.frame))
        else:
            if reauth and reason is AuthReason.SLICE_MISMATCH:
                outcome, kind = AuthOutcome.REVOKED, KIND_REVOKE
            else:
                outcome, kind = AuthOutcome.DENIED, KIND_DENY
            self.ctx.sdl.delete(NS_AUTH, f"grant:{ue}")
        self.ctx.router.route(InternalMessage(kind, {"ue": ue}))
        name, why = outcome.name.lower(), reason.name.lower()
        self.record("reauth" if reauth else "auth", f"ue {ue} {name} ({why})",
                    ue=ue, outcome=name, reason=why)
        self.ctx.send_e2(MsgKind.AUTH_RESPONSE, e2.AuthResponseBody(ue, outcome, reason, token))

    # ---- usage against the slice that served it -----------------------------------

    def _slice_table(self) -> tuple[bytes, dict, dict[SliceId, int]] | None:
        """The slicer's table and its budgets by slice id, parsed once per stored bytes object."""
        entry = self.ctx.sdl.get(NS_SLICES, "table")
        if entry is None:
            return None
        if self._table is None or self._table[0] is not entry[0]:
            table = json.loads(entry[0])
            self._table = (entry[0], table, {s["id"]: s["budget"] for s in table["slices"]})
        return self._table

    def _judge_usage(self, report: KPMReport) -> None:
        """Count `report` against its UE if it exceeds the budget of the slice
        that served its whole period."""
        entry = self._slice_table()
        if entry is None:
            return
        _, table, budgets = entry
        if table["epoch"] > self.frame - self.report_period_frames:
            return  # the period saw a table change
        ue = report.ue
        slice_id = table["bindings"].get(str(ue))
        if slice_id is None:
            return
        capacity = budgets.get(slice_id, 0) * self.sc.cell.per_prb_rate_mbps
        mbps = report.throughput_mbps
        if mbps <= capacity * (1.0 + self.sc.auth.usage_tolerance):
            return
        stored = self.ctx.sdl.get(NS_AUTH, f"usage:{ue}")
        count = 1 if stored is None else struct.unpack(">Q", stored[0])[0] + 1
        self.ctx.sdl.put(NS_AUTH, f"usage:{ue}", struct.pack(">Q", count))
        if count == 1:  # later offences only count, so the log stays bounded
            detail = f"ue {ue} report {report.seq}: {mbps} Mbps over its slice's {capacity} Mbps"
            self.record("usage_over_budget", detail, ue=ue, seq=report.seq,
                        throughput_mbps=mbps, capacity_mbps=capacity)
