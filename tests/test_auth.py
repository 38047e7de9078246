"""Authentication xApp: token laws, RAN-first ordering, factor soundness."""
import hmac
import json
import math
import struct
from dataclasses import replace
from random import Random
from unittest import mock

import pytest

from ztcell import e2
from ztcell.core import FRAME_MS, KPMReport
from ztcell.e2 import AuthOutcome, AuthReason, AuthRequestBody, MsgKind
from ztcell.ric import AuditLog, Router, Sdl, XappContext, XappRegistry
from ztcell.scenario import parse_scenario
from ztcell.xapps.auth import (
    BLOB_LEN,
    KIND_DENY,
    KIND_GRANT,
    KIND_REVOKE,
    NS_AUTH,
    NS_SLICES,
    AuthXapp,
    blob_key,
    build_blob,
    corrupt_chain,
    parse_blob,
    ran_identity_blob,
)

# Nine UEs in cell 1, e2 node 1, decided in the frame they ask.
BASE = parse_scenario("\n".join(
    ["scenario.duration_frames = 1000", "auth.verify_frames = 0"]
    + [f"ue.{ue}.traffic = idle" for ue in range(1, 10)]
))
SECRET = BASE.secret()
RAN_CRED = BASE.ran_credential()
CHAINS = {u.ue: (u.credential,) for u in BASE.ues}


class Harness:
    def __init__(self, **auth):
        """The auth xApp on `BASE`, with `auth` replacing its `auth.*` settings."""
        self.audit = AuditLog()
        self.router = Router(self.audit)
        self.sdl = Sdl()
        self.sent = []
        ctx = XappContext(
            router=self.router, sdl=self.sdl, audit=self.audit,
            send_e2=lambda kind, body: self.sent.append((kind, body)),
        )
        self.xapp = AuthXapp(replace(BASE, auth=replace(BASE.auth, **auth)), ctx)
        self.registry = XappRegistry(self.router)
        self.registry.register(self.xapp)

    def boundary(self, frame: int) -> None:
        """Advance the RIC's clock to `frame` and run the boundary hook."""
        self.registry.frame_boundary(frame)

    def verify_ran(self) -> None:
        blob = ran_identity_blob(SECRET, 1, 1, RAN_CRED)
        self.request(blob)

    def request(self, blob: bytes, cell: int = 1, e2_id: int = 1) -> None:
        msg = e2.E2Message(MsgKind.AUTH_REQUEST, cell, e2_id, 1, AuthRequestBody(blob))
        self.xapp.handle(msg)

    def decide(self) -> None:
        self.boundary(self.router.frame)

    def blob_for(self, ue: int, token: bytes, slice_id: int = 0) -> bytes:
        return build_blob(token, ue, 1, 1, slice_id, blob_key(SECRET, CHAINS[ue]))

    def responses(self):
        return [body for kind, body in self.sent if kind == MsgKind.AUTH_RESPONSE]

    def decisions(self):
        return [e for e in self.audit.entries if e["action"] in ("auth", "reauth")]


class TestTokens:
    def test_second_issue_invalidates_first(self):
        h = Harness()
        h.verify_ran()
        first = h.xapp.issue_token(1)
        second = h.xapp.issue_token(1)
        assert first != second
        h.request(h.blob_for(1, first))
        h.decide()
        assert h.responses()[-1].reason is AuthReason.UNKNOWN_TOKEN

    def test_ten_thousand_tokens_no_collision(self):
        h = Harness(token_expiry_frames=10**9)
        tokens = {h.xapp.issue_token(ue) for ue in range(10_000)}
        assert len(tokens) == 10_000

    def test_issued_token_verifies_immediately(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        h.request(h.blob_for(1, token))
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED

    def test_grant_rotates_token(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        h.request(h.blob_for(1, token))
        h.decide()
        fresh = h.responses()[-1].token
        assert fresh != token and fresh != bytes(16)


class TestRanOrdering:
    def test_ue_blob_before_ran_verification_is_ignored(self):
        h = Harness()
        token = h.xapp.issue_token(1)
        h.request(h.blob_for(1, token))
        h.decide()
        assert h.responses() == []  # no decision emitted at all
        ignored = h.audit.scan("auth_ignored")
        assert ignored and ignored[0]["reason"] == "ran_unverified"

    def test_unparseable_blob_from_verified_ran_is_audited(self):
        h = Harness()
        h.verify_ran()
        h.request(b"short")
        h.decide()
        assert h.responses() == []
        ignored = h.audit.scan("auth_ignored")
        assert [(e["ue"], e["reason"]) for e in ignored] == [(None, "bad_tag")]

    def test_valid_pair_then_ue_blob_proceeds(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(2)
        h.request(h.blob_for(2, token))
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED

    def test_corrupted_ran_tag_rejected(self):
        h = Harness()
        blob = bytearray(ran_identity_blob(SECRET, 1, 1, RAN_CRED))
        blob[-1] ^= 0x01
        h.request(bytes(blob))
        assert h.audit.scan("ran_verify_failed")
        assert not h.xapp.ran_verified(1, 1)

    def test_grant_never_precedes_verified_ran_in_audit(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        h.request(h.blob_for(1, token))
        h.decide()
        actions = [e["action"] for e in h.audit.entries]
        assert actions.index("verified_ran") < actions.index("auth")


class TestVerifyUe:
    def grant(self, h: Harness, ue: int) -> bytes:
        token = h.xapp.issue_token(ue)
        h.request(h.blob_for(ue, token))
        h.decide()
        return token

    def test_three_valid_one_wrong_token(self):
        h = Harness()
        h.verify_ran()
        for ue in (1, 2, 3):
            self.grant(h, ue)
        h.xapp.issue_token(4)
        wrong = Random("nope").randbytes(16)
        h.request(h.blob_for(4, wrong))
        h.decide()
        outcomes = {e["ue"]: e["outcome"] for e in h.decisions()}
        assert outcomes == {1: "granted", 2: "granted", 3: "granted", 4: "denied"}
        assert h.decisions()[-1]["reason"] == "unknown_token"

    def test_wrong_credential_chain_denied_bad_tag(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        bad_key = blob_key(SECRET, corrupt_chain(CHAINS[1]))
        h.request(build_blob(token, 1, 1, 1, 0, bad_key))
        h.decide()
        assert h.responses()[-1].reason is AuthReason.BAD_TAG

    def test_mismatched_cell_id_denied(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        blob = build_blob(token, 1, 2, 1, 0, blob_key(SECRET, CHAINS[1]))  # cell 2, not 1
        h.request(blob)
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.DENIED
        assert h.responses()[-1].reason is AuthReason.BAD_TAG

    def test_malformed_blob_length_denied_bad_tag(self):
        h = Harness()
        assert h.xapp.verify_ue(1, b"way too short") is AuthReason.BAD_TAG

    def test_replay_after_reissue_denied_unknown_token(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        original = h.blob_for(1, token)
        h.request(original)
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED
        # The grant rotated the token, so replaying the original blob fails.
        h.sdl.delete(NS_AUTH, "grant:1")  # treat as a fresh transaction
        h.request(original)
        h.decide()
        assert h.responses()[-1].reason is AuthReason.UNKNOWN_TOKEN

    def test_every_single_bit_flip_is_denied(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        blob = h.blob_for(1, token)
        assert h.xapp.verify_ue(1, blob) is AuthReason.OK
        for bit in range(0, BLOB_LEN * 8, 37):  # sparse sample; full sweep in acceptance
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert h.xapp.verify_ue(1, bytes(flipped)) is not AuthReason.OK


# For each reason, a blob from UE 1 whose checks return it, given its token.
BLOB_FOR_REASON = {
    "ok": lambda h, token: h.blob_for(1, token),
    "slice_mismatch": lambda h, token: h.blob_for(1, token, slice_id=9),
    "unknown_token": lambda h, token: h.blob_for(1, bytes(len(token))),
    "bad_tag": lambda h, token: build_blob(
        token, 1, 1, 1, 0, blob_key(SECRET, corrupt_chain(CHAINS[1]))
    ),
}


class TestDecisionRule:
    """The outcome follows from the reason: `ok` grants, `slice_mismatch`
    revokes only a UE that holds a grant, and every other reason denies."""

    @pytest.mark.parametrize(("action", "reason", "outcome", "kind"), [
        ("auth", "ok", "granted", KIND_GRANT),
        ("auth", "slice_mismatch", "denied", KIND_DENY),
        ("auth", "unknown_token", "denied", KIND_DENY),
        ("auth", "bad_tag", "denied", KIND_DENY),
        ("reauth", "ok", "granted", KIND_GRANT),
        ("reauth", "slice_mismatch", "revoked", KIND_REVOKE),
        ("reauth", "unknown_token", "denied", KIND_DENY),
        ("reauth", "bad_tag", "denied", KIND_DENY),
    ])
    def test_outcome_and_routed_kind(self, action, reason, outcome, kind):
        h = Harness()
        h.verify_ran()
        token = h.xapp.issue_token(1)
        if action == "reauth":  # grant first; no slice table binds UE 1, so it expects slice 0
            h.request(h.blob_for(1, token))
            h.decide()
            token = h.responses()[-1].token
        routed = []
        h.router.subscribe("probe", [KIND_GRANT, KIND_DENY, KIND_REVOKE], lambda m: routed.append(m.kind))
        h.request(BLOB_FOR_REASON[reason](h, token))
        h.decide()
        response, decision = h.responses()[-1], h.decisions()[-1]
        assert (response.outcome.name.lower(), response.reason.name.lower()) == (outcome, reason)
        assert routed == [kind]
        assert (decision["action"], decision["outcome"], decision["reason"]) == (action, outcome, reason)


PERIOD = BASE.report_period_ms // FRAME_MS  # frames a KPM report covers


class TestReauth:
    def setup_granted(self, h: Harness, ue: int, budget: int = 50, epoch: int = 0) -> bytes:
        h.verify_ran()
        token = h.xapp.issue_token(ue)
        h.request(h.blob_for(ue, token))
        h.decide()
        fresh = h.responses()[-1].token
        h.sdl.put(
            NS_SLICES,
            "table",
            json.dumps(
                {
                    "epoch": epoch,
                    "slices": [{"id": 9, "budget": budget, "kind": "normal"}],
                    "bindings": {str(ue): 9},
                }
            ).encode(),
        )
        return fresh

    def report(self, h: Harness, ue: int, mbps: float, seq: int = 1) -> None:
        """Deliver one KPM_INDICATION for `ue` one report period after frame 0."""
        h.boundary(PERIOD)
        kpm = KPMReport(ue, 1, seq, 25.0, 12, 100, 20.0, mbps)
        h.xapp.handle(e2.E2Message(MsgKind.KPM_INDICATION, 1, 1, seq, e2.KpmIndicationBody(kpm)))

    def test_within_capacity_granted(self):
        """A report exactly at capacity x (1 + tolerance) is within it."""
        h = Harness()
        token = self.setup_granted(h, 1, budget=50)  # 12 Mbps capacity
        self.report(h, 1, 50 * BASE.cell.per_prb_rate_mbps * (1.0 + BASE.auth.usage_tolerance))
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED
        assert h.sdl.get(NS_AUTH, "usage:1") is None and not h.audit.scan("usage_over_budget")

    def test_one_ulp_over_bound_revoked(self):
        h = Harness()
        token = self.setup_granted(h, 1, budget=50)
        bound = 50 * BASE.cell.per_prb_rate_mbps * (1.0 + BASE.auth.usage_tolerance)
        self.report(h, 1, math.nextafter(bound, math.inf))
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].reason is AuthReason.SLICE_MISMATCH

    def test_usage_double_capacity_revoked_slice_mismatch(self):
        """A settled report over its slice's budget is counted, audited once,
        and revokes the UE at its next re-authentication."""
        h = Harness()
        token = self.setup_granted(h, 1, budget=10)  # 2.4 Mbps capacity
        self.report(h, 1, 4.8, seq=7)
        self.report(h, 1, 4.8, seq=8)
        assert h.sdl.get(NS_AUTH, "usage:1") == (struct.pack(">Q", 2), 2)
        [record] = h.audit.scan("usage_over_budget")
        assert (record["ue"], record["seq"], record["throughput_mbps"]) == (1, 7, 4.8)
        assert record["capacity_mbps"] == 10 * BASE.cell.per_prb_rate_mbps
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.REVOKED
        assert h.responses()[-1].reason is AuthReason.SLICE_MISMATCH

    def test_report_spanning_table_change_not_judged(self):
        """A table dated after the start of the report's period may not
        have served it, so the report is not judged against it."""
        h = Harness()
        token = self.setup_granted(h, 1, budget=10, epoch=1)
        self.report(h, 1, 24.0)
        assert h.sdl.get(NS_AUTH, "usage:1") is None
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED

    def test_unbound_ue_not_judged(self):
        h = Harness()
        self.setup_granted(h, 1, budget=10)
        self.report(h, 2, 24.0)  # the table binds only UE 1
        assert h.sdl.get(NS_AUTH, "usage:2") is None and not h.audit.scan("usage_over_budget")

    def test_wrong_slice_id_in_blob_revoked(self):
        h = Harness()
        token = self.setup_granted(h, 1)
        h.request(h.blob_for(1, token, slice_id=8))  # bound to 9
        assert h.responses()[-1].outcome is AuthOutcome.REVOKED

    def table_change(self, h: Harness, frame: int) -> None:
        """At `frame`, move UE 1 from slice 9 to a new slice 10."""
        h.boundary(frame)
        table = {"epoch": frame, "slices": [{"id": 10, "budget": 5, "kind": "restricted"}],
                 "bindings": {"1": 10}}
        h.sdl.put(NS_SLICES, "table", json.dumps(table).encode())

    @pytest.mark.parametrize(
        "slice_id, outcome",
        [(9, AuthOutcome.REVOKED), (10, AuthOutcome.GRANTED), (8, AuthOutcome.REVOKED)],
        ids=["frame_start_binding", "new_table_binding", "neither"],
    )
    def test_reauth_in_frame_of_table_change_needs_current_binding(self, slice_id, outcome):
        """The RAN re-presents only after the frame's table has reached it, so
        a re-auth in the frame of a table change is granted only on the
        binding of the table as it now stands."""
        h = Harness()
        token = self.setup_granted(h, 1)
        self.table_change(h, PERIOD)
        h.request(h.blob_for(1, token, slice_id=slice_id))
        assert h.responses()[-1].outcome is outcome

    def test_old_binding_revoked_after_frame_of_table_change(self):
        h = Harness()
        token = self.setup_granted(h, 1)
        self.table_change(h, PERIOD)
        h.boundary(PERIOD + 1)
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].reason is AuthReason.SLICE_MISMATCH

    def test_expired_token_denied_then_regrant_on_next_attach(self):
        h = Harness(token_expiry_frames=5)
        token = self.setup_granted(h, 1)
        h.boundary(500)  # well past expiry
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.DENIED
        assert h.responses()[-1].reason is AuthReason.EXPIRED
        # Fresh attach: issue a token again and verify within the expiry window.
        fresh = h.xapp.issue_token(1)
        h.request(h.blob_for(1, fresh))
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED


def hmac_calls_to_grant(length: int) -> int:
    """The `hmac.new` calls of one `verify_ue` that grants a UE holding
    `length` credential factors."""
    chain = tuple(bytes([i]) * 4 for i in range(length))
    h = Harness()
    h.xapp.credentials[1] = chain
    h.verify_ran()
    token = h.xapp.issue_token(1)
    blob = build_blob(token, 1, 1, 1, 0, blob_key(SECRET, chain))
    with mock.patch.object(hmac, "new", wraps=hmac.new) as new:
        reason = h.xapp.verify_ue(1, blob)
    assert reason is AuthReason.OK
    return new.call_count


class TestFactorLinearity:
    def test_work_is_affine_in_factor_count(self):
        # One HMAC per factor folded into the key chain, and one for the tag.
        for length in (1, 3, 8, 15):
            assert hmac_calls_to_grant(length) == length + 1


class TestBlobPrimitives:
    def test_blob_is_66_bytes(self):
        blob = build_blob(bytes(16), 1, 1, 1, 0, b"k")
        assert len(blob) == BLOB_LEN == 66

    def test_parse_inverts_build(self):
        token = bytes(range(16))
        blob = build_blob(token, 7, 3, 4, 2, b"key")
        got_token, ue, cell, e2_id, slice_id, tag = parse_blob(blob)
        assert (got_token, ue, cell, e2_id, slice_id) == (token, 7, 3, 4, 2)
        assert len(tag) == 32

    def test_slice_id_zero_when_none(self):
        blob = build_blob(bytes(16), 1, 1, 1, 0, b"k")
        assert blob[32:34] == b"\x00\x00"
