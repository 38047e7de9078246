"""Write-through xApp state: the in-memory copies never drift from the SDL.

The intrusion xApp keeps each UE's report window in memory, and the auth
xApp the parsed slice table with its budgets by slice id. Other writers may
put, delete, or delete and re-put those SDL keys, and auth's usage counts,
at any time, including a re-put that lands on the version number the xApp
last wrote. After every step the bytes the intrusion xApp wrote must be
`json.dumps` of the window a fresh SDL read gives, the usage count must
follow auth's rule on a fresh read of the table, and flags and re-auth
decisions must equal those of xApps that decode and re-encode on every call.
"""
import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from ztcell import e2
from ztcell.core import FRAME_MS, KPMReport, SliceKind
from ztcell.e2 import MsgKind
from ztcell.ric import AuditLog, Router, Sdl, XappContext, json_text
from ztcell.scenario import parse_scenario
from ztcell.xapps.auth import NS_AUTH, NS_SLICES, AuthXapp, blob_key, build_blob
from ztcell.xapps.intrusion import NS_PROFILES, IntrusionXapp, report_json_text

SC = parse_scenario("\n".join([
    "scenario.duration_frames = 1000", "detection.window_n = 3", "auth.reauth_period_frames = 40",
    "ue.1.traffic = idle", "ue.2.traffic = idle",
]))
SECRET = SC.secret()
CHAINS = {u.ue: (u.credential,) for u in SC.ues}
WINDOW_N = SC.detection.window_n
PERIOD = SC.report_period_ms // FRAME_MS  # 10 frames
NOW = 15  # the frame every step runs in: a table of epoch <= 5 served a whole report period


class UncachedWindows:
    """Decodes and re-encodes the whole report window from the SDL on every append."""

    def __init__(self, sdl: Sdl, keep: int) -> None:
        self.sdl, self.keep = sdl, keep

    def append(self, key: str, report: KPMReport) -> list[KPMReport]:
        entry = self.sdl.get(NS_PROFILES, key)
        window = [KPMReport(**d) for d in json.loads(entry[0])] if entry else []
        window = (window + [report])[-self.keep :]
        self.sdl.put(NS_PROFILES, key, json.dumps([r._asdict() for r in window]).encode())
        return window


class UncachedIntrusion(IntrusionXapp):
    """The intrusion xApp with only its window step replaced by `UncachedWindows`."""

    def on_init(self, ctx: XappContext) -> None:
        super().on_init(ctx)
        self._windows = UncachedWindows(ctx.sdl, self.sc.detection.window_n)


class UncachedAuth(AuthXapp):
    """Parses the slice table from the SDL on every call."""

    def _slice_table(self):
        entry = self.ctx.sdl.get(NS_SLICES, "table")
        if entry is None:
            return None
        table = json.loads(entry[0])
        return entry[0], table, {spec["id"]: spec["budget"] for spec in table["slices"]}


def expected_usage(sdl: Sdl, before, report: KPMReport) -> bytes | None:
    """auth's usage count for `report.ue` after `report`, by a fresh read of the table."""
    entry = sdl.get(NS_SLICES, "table")
    table = json.loads(entry[0]) if entry else None
    if table is None or table["epoch"] > NOW - PERIOD:
        return before and before[0]
    slice_id = table["bindings"].get(str(report.ue))
    if slice_id is None:
        return before and before[0]
    budget = next((spec["budget"] for spec in table["slices"] if spec["id"] == slice_id), 0)
    capacity = budget * SC.cell.per_prb_rate_mbps
    if report.throughput_mbps <= capacity * (1.0 + SC.auth.usage_tolerance):
        return before and before[0]
    return struct.pack(">Q", (struct.unpack(">Q", before[0])[0] if before else 0) + 1)


class World:
    def __init__(self, cached: bool) -> None:
        self.sdl = Sdl()
        self.audit = AuditLog()
        ctx = XappContext(
            router=Router(self.audit), sdl=self.sdl, audit=self.audit,
            send_e2=lambda kind, body: self.sent.append((kind, body)),
        )
        self.sent = []
        intrusion = (IntrusionXapp if cached else UncachedIntrusion)(SC)
        auth = (AuthXapp if cached else UncachedAuth)(SC)
        self.intrusion, self.auth = intrusion, auth
        for xapp in (intrusion, auth):
            xapp.on_init(ctx)
            xapp.on_frame_boundary(NOW)
        for ue in CHAINS:
            auth.issue_token(ue)

    def deliver(self, report: KPMReport) -> None:
        msg = e2.E2Message(MsgKind.KPM_INDICATION, 1, 1, report.seq, e2.KpmIndicationBody(report))
        self.intrusion.handle(msg)
        self.auth.handle(msg)

    def reauth(self, ue: int) -> None:
        """Present valid credentials for the slice the table binds; usage decides."""
        table = self.sdl.get(NS_SLICES, "table")
        bound = json.loads(table[0])["bindings"].get(str(ue)) if table else None
        token = self.sdl.get(NS_AUTH, f"token:{ue}")[0][:16]
        blob = build_blob(token, ue, 1, 1, bound or 0, blob_key(SECRET, CHAINS[ue]))
        self.auth._decide_reauth(ue, blob)

    def outside_put(self, key: tuple[str, str], value: bytes) -> None:
        self.sdl.put(*key, value)

    def outside_delete(self, key: tuple[str, str]) -> None:
        self.sdl.delete(*key)

    def outside_reput_same_version(self, key: tuple[str, str], value: bytes) -> None:
        """Delete, then put until the version is back where it was."""
        entry = self.sdl.get(*key)
        version = entry[1] if entry else 1
        self.sdl.delete(*key)
        for _ in range(version):
            self.sdl.put(*key, value)


# ---- steps ------------------------------------------------------------------------

ues = st.sampled_from(sorted(CHAINS))
tputs = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)


@st.composite
def kpm_reports(draw, ue=None):
    return KPMReport(
        ue=draw(ues) if ue is None else ue,
        cell=1,
        seq=draw(st.integers(min_value=0, max_value=1000)),
        snr_db=draw(st.floats(min_value=10.0, max_value=40.0)),
        cqi=draw(st.integers(min_value=0, max_value=15)),
        tx_packets=draw(st.integers(min_value=0, max_value=600)),
        tx_power_dbm=draw(st.floats(min_value=10.0, max_value=30.0)),
        throughput_mbps=draw(tputs),
    )


def dumps_any(draw, value) -> bytes:
    """JSON in the xApps' own layout or a compact one, so bytes may or may not match."""
    compact = draw(st.booleans())
    return json.dumps(value, separators=(",", ":") if compact else None).encode()


@st.composite
def outside_values(draw):
    """(SDL key, value bytes) that another writer may put."""
    ue = draw(ues)
    which = draw(st.sampled_from(["window", "usage", "table"]))
    if which == "window":
        reports = draw(st.lists(kpm_reports(ue=ue), max_size=WINDOW_N + 2))
        return (NS_PROFILES, f"window:{ue}"), dumps_any(draw, [r._asdict() for r in reports])
    if which == "usage":
        return (NS_AUTH, f"usage:{ue}"), struct.pack(">Q", draw(st.integers(0, 1000)))
    budgets = draw(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=2))
    bound = draw(st.lists(st.sampled_from([None, 9, 10]), min_size=2, max_size=2))
    table = {
        "epoch": draw(st.integers(min_value=0, max_value=NOW)),
        "slices": [{"id": 9 + i, "budget": b, "kind": "normal"} for i, b in enumerate(budgets)],
        "bindings": {str(u): sid for u, sid in zip(sorted(CHAINS), bound) if sid is not None},
    }
    return (NS_SLICES, "table"), dumps_any(draw, table)


steps = st.one_of(
    st.tuples(st.just("kpm"), kpm_reports()),
    st.tuples(st.just("kpm"), kpm_reports()),
    st.tuples(st.just("reauth"), ues),
    st.tuples(st.just("put"), outside_values()),
    st.tuples(st.just("reput_same_version"), outside_values()),
    st.tuples(
        st.just("delete"),
        st.sampled_from(
            [(NS_PROFILES, f"window:{u}") for u in CHAINS]
            + [(NS_AUTH, f"usage:{u}") for u in CHAINS]
            + [(NS_SLICES, "table")]
        ),
    ),
)


def expected_write(before, item, keep: int) -> bytes:
    """json.dumps of the window a fresh SDL read gives, with `item` appended."""
    window = json.loads(before[0]) if before else []
    return json.dumps((window + [item])[-keep:]).encode()


class TestWriteThroughWindows:
    @given(st.lists(steps, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_cached_xapps_match_uncached_and_fresh_reads(self, plan):
        cached, uncached = World(cached=True), World(cached=False)
        for op, arg in plan:
            if op == "kpm":
                ue = arg.ue
                before_window = cached.sdl.get(NS_PROFILES, f"window:{ue}")
                before_usage = cached.sdl.get(NS_AUTH, f"usage:{ue}")
                usage = expected_usage(cached.sdl, before_usage, arg)
                for world in (cached, uncached):
                    world.deliver(arg)
                assert cached.sdl.get(NS_PROFILES, f"window:{ue}")[0] == expected_write(
                    before_window, arg._asdict(), WINDOW_N
                )
                after_usage = cached.sdl.get(NS_AUTH, f"usage:{ue}")
                assert (after_usage and after_usage[0]) == usage
            elif op == "reauth":
                for world in (cached, uncached):
                    world.reauth(arg)
            else:
                for world in (cached, uncached):
                    if op == "delete":
                        world.outside_delete(arg)
                    elif op == "put":
                        world.outside_put(*arg)
                    else:
                        world.outside_reput_same_version(*arg)
            assert cached.sdl.snapshot() == uncached.sdl.snapshot()
            assert cached.intrusion.flagged == uncached.intrusion.flagged
            assert cached.audit.entries == uncached.audit.entries  # flags and re-auths
            assert cached.sent == uncached.sent


# Anything a writer can put in a window: floats include NaN, infinities and
# -0.0; integers reach past 64 bits; an IntEnum is an int that is not exactly one.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.integers(-(2**200), 2**200),
    st.text(), st.sampled_from(list(SliceKind)),
)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=6
)


class TestJsonText:
    @given(json_values)
    @settings(max_examples=500, deadline=None)
    def test_item_text_is_json_dumps(self, value):
        assert json_text(value) == json.dumps(value)

    @given(kpm_reports() | st.builds(KPMReport, *([json_values] * len(KPMReport._fields))))
    @settings(max_examples=300, deadline=None)
    def test_report_text_is_json_dumps(self, report):
        assert report_json_text(report) == json.dumps(report._asdict())

    def test_append_after_a_foreign_nan(self):
        world = World(cached=True)
        foreign = KPMReport(1, 1, 1, float("nan"), 12, 125, 20.0, 12.5)
        world.outside_put((NS_PROFILES, "window:1"), json.dumps([foreign._asdict()]).encode())
        report = KPMReport(1, 1, 2, 25.0, 12, 125, 20.0, 12.5)
        world.deliver(report)
        written = world.sdl.get(NS_PROFILES, "window:1")[0]
        assert written == json.dumps([foreign._asdict(), report._asdict()]).encode()
        assert b'"snr_db": NaN' in written
