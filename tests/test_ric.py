"""Router, SDL, and registry behavior."""
import pytest

from ztcell import e2
from ztcell.core import KPMReport
from ztcell.e2 import KpmIndicationBody, MsgKind, SubscriptionAckBody
from ztcell.ric import (
    AuditLog,
    InternalMessage,
    RegistrationError,
    Router,
    Sdl,
    SubscriptionError,
    Xapp,
    XappContext,
    XappRegistry,
)


def kpm_frame(seq: int) -> bytes:
    report = KPMReport(2, 1, seq, 25.0, 12, 100, 20.0, 12.5)
    return e2.encode(e2.E2Message(MsgKind.KPM_INDICATION, 1, 1, seq, KpmIndicationBody(report)))


def make_router() -> tuple[Router, AuditLog]:
    audit = AuditLog()
    return Router(audit), audit


class TestRouter:
    def test_single_subscriber_gets_exactly_one_delivery(self):
        router, _ = make_router()
        got = []
        router.subscribe("intrusion", [MsgKind.KPM_INDICATION], got.append)
        router.ingest_frame(kpm_frame(1))
        assert len(got) == 1
        assert got[0].body.report.ue == 2

    def test_replayed_frame_dropped_with_audit(self):
        router, audit = make_router()
        got = []
        router.subscribe("intrusion", [MsgKind.KPM_INDICATION], got.append)
        frame = kpm_frame(1)
        router.ingest_frame(frame)
        router.ingest_frame(frame)  # same seq again
        assert len(got) == 1
        assert len(audit.scan("replay_dropped")) == 1

    def test_stale_seq_dropped(self):
        router, audit = make_router()
        got = []
        router.subscribe("x", [MsgKind.KPM_INDICATION], got.append)
        router.ingest_frame(kpm_frame(5))
        router.ingest_frame(kpm_frame(3))
        assert len(got) == 1
        assert audit.scan("replay_dropped")

    def test_fan_out_same_payload_to_both_subscribers(self):
        router, _ = make_router()
        a, b = [], []
        router.subscribe("first", [MsgKind.SUBSCRIPTION_ACK], a.append)
        router.subscribe("second", [MsgKind.SUBSCRIPTION_ACK], b.append)
        frame = e2.encode(
            e2.E2Message(MsgKind.SUBSCRIPTION_ACK, 1, 1, 1, SubscriptionAckBody(100))
        )
        router.ingest_frame(frame)
        assert len(a) == len(b) == 1
        assert e2.encode(a[0]) == e2.encode(b[0]) == frame

    def test_per_source_fifo_order(self):
        router, _ = make_router()
        seen = []
        router.subscribe("x", [MsgKind.KPM_INDICATION], lambda m: seen.append(m.seq))
        router.ingest_frame(kpm_frame(1))
        router.ingest_frame(kpm_frame(2))
        router.ingest_frame(kpm_frame(3))
        assert seen == [1, 2, 3]

    def test_dead_letter_logged(self):
        router, audit = make_router()
        router.ingest_frame(kpm_frame(1))
        assert len(audit.scan("dead_letter")) == 1

    def test_internal_messages_routed_by_kind_string(self):
        router, _ = make_router()
        got = []
        router.subscribe("slicing", ["intrusion.verdict"], got.append)
        router.route(InternalMessage("intrusion.verdict", {"ue": 1}))
        assert got[0].payload == {"ue": 1}

    def test_router_records_are_frame_stamped(self):
        router, audit = make_router()
        router.frame = 7
        router.ingest_frame(kpm_frame(1))  # no subscriber: a dead letter
        router.ingest_frame(kpm_frame(1))  # the same seq again: a replay
        router.ingest_frame(b"\x00\x00\x00\x05\x7f")
        assert [(e["action"], e["frame"], e["time_ms"]) for e in audit.entries] == [
            ("dead_letter", 7, 70), ("replay_dropped", 7, 70), ("decode_error", 7, 70)
        ]

    def test_duplicate_subscription_rejected(self):
        router, _ = make_router()
        router.subscribe("x", [MsgKind.KPM_INDICATION], lambda m: None)
        with pytest.raises(SubscriptionError):
            router.subscribe("x", [MsgKind.KPM_INDICATION], lambda m: None)

    def test_undecodable_frame_audited_not_raised(self):
        router, audit = make_router()
        router.ingest_frame(b"\x00\x00\x00\x05\x7f")
        assert audit.scan("decode_error")


class TestSdl:
    def test_put_get_round_trip_version_one(self):
        sdl = Sdl()
        assert sdl.put("auth", "k", b"v") == 1
        assert sdl.get("auth", "k") == (b"v", 1)

    def test_absent_key(self):
        assert Sdl().get("auth", "missing") is None

    def test_hundred_puts_version_hundred(self):
        sdl = Sdl()
        for i in range(100):
            version = sdl.put("ns", "k", bytes([i]))
        assert version == 100
        assert sdl.get("ns", "k") == (bytes([99]), 100)

    def test_version_order_equals_write_order(self):
        sdl = Sdl()
        versions = [sdl.put("ns", "k", b"x") for _ in range(5)]
        assert versions == sorted(versions) == [1, 2, 3, 4, 5]

    def test_namespaces_are_disjoint(self):
        sdl = Sdl()
        sdl.put("a", "k", b"1")
        sdl.put("b", "k", b"2")
        assert sdl.get("a", "k")[0] == b"1"
        assert sdl.get("b", "k")[0] == b"2"

    def test_values_must_be_bytes(self):
        with pytest.raises(TypeError):
            Sdl().put("ns", "k", "not bytes")


class NamedXapp(Xapp):
    def __init__(self, name: str, ctx: XappContext) -> None:
        super().__init__(ctx)
        self.name = name


class HookedXapp(NamedXapp):
    def __init__(self, name: str, ctx: XappContext) -> None:
        super().__init__(name, ctx)
        self.hooked = []  # (frame passed, frame read) per boundary

    def on_frame_boundary(self, frame: int) -> None:
        self.hooked.append((frame, self.frame))


class TestRegistry:
    def _ctx(self, router):
        return XappContext(router=router, sdl=Sdl(), audit=router.audit, send_e2=lambda *a: None)

    def test_duplicate_name_rejected(self):
        router, _ = make_router()
        registry = XappRegistry(router)
        registry.register(NamedXapp("auth", self._ctx(router)))
        with pytest.raises(RegistrationError):
            registry.register(NamedXapp("auth", self._ctx(router)))

    def test_boundary_sets_the_routers_frame_and_runs_only_overriding_hooks(self):
        router, _ = make_router()
        ctx = self._ctx(router)
        plain, hooked = NamedXapp("plain", ctx), HookedXapp("hooked", ctx)
        registry = XappRegistry(router)
        registry.register(plain)
        registry.register(hooked)
        registry.frame_boundary(5)
        registry.frame_boundary(6)
        assert router.frame == plain.frame == hooked.frame == 6
        assert hooked.hooked == [(5, 5), (6, 6)]
        with pytest.raises(AttributeError):
            plain.frame = 7  # the router's frame is the one clock
