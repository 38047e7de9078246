"""Authentication xApp: token laws, RAN-first ordering, factor soundness."""
import hmac
import json
from random import Random
from unittest import mock

from ztcell import e2
from ztcell.e2 import AuthOutcome, AuthReason, AuthRequestBody, MsgKind
from ztcell.ric import AuditLog, Router, Sdl, XappContext
from ztcell.xapps.auth import (
    BLOB_LEN,
    NS_AUTH,
    NS_SLICES,
    AuthConfig,
    AuthXapp,
    blob_key,
    build_blob,
    corrupt_chain,
    parse_blob,
    ran_identity_blob,
)

SECRET = b"\x42" * 32
RAN_CRED = b"ran-credential!!"
CHAINS = {ue: (bytes([ue]) * 16,) for ue in range(1, 10)}


class Harness:
    def __init__(self, **overrides):
        self.audit = AuditLog()
        self.router = Router(self.audit)
        self.sdl = Sdl()
        self.sent = []
        cfg = dict(
            secret=SECRET,
            credentials=dict(CHAINS),
            ran_credential=RAN_CRED,
            cell_id=1,
            e2_id=1,
            rng_tokens=Random("tokens"),
            verify_frames=0,
        )
        cfg.update(overrides)
        self.xapp = AuthXapp(AuthConfig(**cfg))
        ctx = XappContext(
            router=self.router, sdl=self.sdl, audit=self.audit,
            send_e2=lambda kind, body: self.sent.append((kind, body)),
        )
        self.xapp.on_init(ctx)
        self.xapp.on_frame_boundary(0)

    def verify_ran(self) -> None:
        blob = ran_identity_blob(SECRET, 1, 1, RAN_CRED)
        self.request(blob)

    def request(self, blob: bytes, cell: int = 1, e2_id: int = 1) -> None:
        msg = e2.E2Message(MsgKind.AUTH_REQUEST, cell, e2_id, 1, AuthRequestBody(blob))
        self.xapp.handle(msg)

    def decide(self) -> None:
        self.xapp.on_frame_boundary(self.xapp.frame)

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
        first = h.xapp.provision(1)
        second = h.xapp.provision(1)
        assert first != second
        h.request(h.blob_for(1, first))
        h.decide()
        assert h.responses()[-1].reason is AuthReason.UNKNOWN_TOKEN

    def test_ten_thousand_tokens_no_collision(self):
        h = Harness(credentials={}, token_expiry_frames=10**9)
        tokens = {h.xapp.issue_token(ue).token for ue in range(10_000)}
        assert len(tokens) == 10_000

    def test_issued_token_verifies_immediately(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(1)
        h.request(h.blob_for(1, token))
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED

    def test_grant_rotates_token(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(1)
        h.request(h.blob_for(1, token))
        h.decide()
        fresh = h.responses()[-1].token
        assert fresh != token and fresh != bytes(16)


class TestRanOrdering:
    def test_ue_blob_before_ran_verification_is_ignored(self):
        h = Harness()
        token = h.xapp.provision(1)
        h.request(h.blob_for(1, token))
        h.decide()
        assert h.responses() == []  # no decision emitted at all
        ignored = h.audit.scan("auth_ignored")
        assert ignored and ignored[0]["reason"] == "ran_unverified"

    def test_valid_pair_then_ue_blob_proceeds(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(2)
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
        token = h.xapp.provision(1)
        h.request(h.blob_for(1, token))
        h.decide()
        actions = [e["action"] for e in h.audit.entries]
        assert actions.index("verified_ran") < actions.index("auth")


class TestVerifyUe:
    def grant(self, h: Harness, ue: int) -> bytes:
        token = h.xapp.provision(ue)
        h.request(h.blob_for(ue, token))
        h.decide()
        return token

    def test_three_valid_one_wrong_token(self):
        h = Harness()
        h.verify_ran()
        for ue in (1, 2, 3):
            self.grant(h, ue)
        h.xapp.provision(4)
        wrong = Random("nope").randbytes(16)
        h.request(h.blob_for(4, wrong))
        h.decide()
        outcomes = {e["ue"]: e["outcome"] for e in h.decisions()}
        assert outcomes == {1: "granted", 2: "granted", 3: "granted", 4: "denied"}
        assert h.decisions()[-1]["reason"] == "unknown_token"

    def test_wrong_credential_chain_denied_bad_tag(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(1)
        bad_key = blob_key(SECRET, corrupt_chain(CHAINS[1]))
        h.request(build_blob(token, 1, 1, 1, 0, bad_key))
        h.decide()
        assert h.responses()[-1].reason is AuthReason.BAD_TAG

    def test_mismatched_cell_id_denied(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(1)
        blob = build_blob(token, 1, 2, 1, 0, blob_key(SECRET, CHAINS[1]))  # cell 2, not 1
        h.request(blob)
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.DENIED
        assert h.responses()[-1].reason is AuthReason.BAD_TAG

    def test_malformed_blob_length_denied_bad_tag(self):
        h = Harness()
        decision = h.xapp.verify_ue(1, b"way too short")
        assert decision.outcome is AuthOutcome.DENIED
        assert decision.reason is AuthReason.BAD_TAG

    def test_replay_after_reissue_denied_unknown_token(self):
        h = Harness()
        h.verify_ran()
        token = h.xapp.provision(1)
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
        token = h.xapp.provision(1)
        blob = h.blob_for(1, token)
        assert h.xapp.verify_ue(1, blob).outcome is AuthOutcome.GRANTED
        for bit in range(0, BLOB_LEN * 8, 37):  # sparse sample; full sweep in acceptance
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert h.xapp.verify_ue(1, bytes(flipped)).outcome is AuthOutcome.DENIED


class TestReauth:
    def setup_granted(self, h: Harness, ue: int, budget: int = 50) -> bytes:
        h.verify_ran()
        token = h.xapp.provision(ue)
        h.request(h.blob_for(ue, token))
        h.decide()
        fresh = h.responses()[-1].token
        h.sdl.put(
            NS_SLICES,
            "table",
            json.dumps(
                {
                    "epoch": 0,
                    "slices": [{"id": 9, "budget": budget, "kind": "normal"}],
                    "bindings": {str(ue): 9},
                }
            ).encode(),
        )
        return fresh

    def track_usage(self, h: Harness, ue: int, mbps: float, reports: int = 5) -> None:
        for _ in range(reports):
            h.xapp._track_usage(ue, mbps)

    def test_within_capacity_granted(self):
        h = Harness()
        token = self.setup_granted(h, 1, budget=50)  # 12 Mbps capacity
        self.track_usage(h, 1, 11.0)
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED

    def test_usage_double_capacity_revoked_slice_mismatch(self):
        h = Harness()
        token = self.setup_granted(h, 1, budget=10)  # 2.4 Mbps capacity
        self.track_usage(h, 1, 4.8)
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.REVOKED
        assert h.responses()[-1].reason is AuthReason.SLICE_MISMATCH

    def test_wrong_slice_id_in_blob_revoked(self):
        h = Harness()
        token = self.setup_granted(h, 1)
        h.request(h.blob_for(1, token, slice_id=8))  # bound to 9
        assert h.responses()[-1].outcome is AuthOutcome.REVOKED

    def test_expired_token_denied_then_regrant_on_next_attach(self):
        h = Harness(token_expiry_frames=5)
        token = self.setup_granted(h, 1)
        h.xapp.on_frame_boundary(500)  # well past expiry
        h.request(h.blob_for(1, token, slice_id=9))
        assert h.responses()[-1].outcome is AuthOutcome.DENIED
        assert h.responses()[-1].reason is AuthReason.EXPIRED
        # Fresh attach: provision again and verify within the expiry window.
        fresh = h.xapp.provision(1)
        h.request(h.blob_for(1, fresh))
        h.decide()
        assert h.responses()[-1].outcome is AuthOutcome.GRANTED


def hmac_calls_to_grant(length: int) -> int:
    """The `hmac.new` calls of one `verify_ue` that grants a UE holding
    `length` credential factors."""
    chain = tuple(bytes([i]) * 4 for i in range(length))
    h = Harness(credentials={1: chain})
    h.verify_ran()
    token = h.xapp.provision(1)
    blob = build_blob(token, 1, 1, 1, 0, blob_key(SECRET, chain))
    with mock.patch.object(hmac, "new", wraps=hmac.new) as new:
        decision = h.xapp.verify_ue(1, blob)
    assert decision.outcome is AuthOutcome.GRANTED
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
