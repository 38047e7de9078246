"""Cross-module zero-trust laws checked on full runs."""
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztcell.core import SliceKind
from ztcell.ran import InvariantError, RanCell
from ztcell.runner import run
from ztcell.scenario import load_scenario, parse_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"


@pytest.fixture(scope="module")
def flood_result():
    return run(load_scenario(SCENARIOS / "flood_isolation.scn"))


class TestLeastPrivilege:
    def test_verification_slices_stay_minimal(self, flood_result):
        """Between the auth request and the grant a UE holds only a
        verification slice no wider than the configured budget."""
        budget = flood_result.scenario.auth.verification_budget_prbs
        grant_frame = {
            e["ue"]: e["frame"]
            for e in flood_result.audit.entries
            if e["action"] == "auth" and e.get("outcome") == "granted"
        }
        checked = 0
        for epoch, body in flood_result.slicing.emitted:
            kinds = {s.id: s.kind for s in body.slices}
            widths = {s.id: s.budget() for s in body.slices}
            for ue, sid in body.bindings:
                if ue not in grant_frame or epoch < grant_frame[ue]:
                    if kinds[sid] is SliceKind.VERIFICATION:
                        assert widths[sid] <= budget
                        checked += 1
                    else:
                        # Pre-grant bindings must never be normal slices.
                        assert kinds[sid] is not SliceKind.NORMAL or epoch >= grant_frame.get(ue, 0)
        assert checked >= 4  # all four UEs passed through verification

    def test_verifying_frames_capped_at_verification_rate(self, flood_result):
        budget = flood_result.scenario.auth.verification_budget_prbs
        cap = budget * flood_result.cell.cfg.prb_bits_per_frame
        seen = 0
        for fr in flood_result.frames:
            for stats in fr.per_ue.values():
                if stats.auth_state == "verifying":
                    assert stats.served_bits <= cap
                    seen += 1
        assert seen > 0


class TestAuditLaws:
    def test_no_grant_without_unexpired_token(self, flood_result):
        issues = set()
        for e in flood_result.audit.entries:
            if e["action"] == "token_issued":
                issues.add(e["ue"])
            if e["action"] in ("auth", "reauth") and e.get("outcome") == "granted":
                assert e["ue"] in issues

    def test_initial_decision_logged_exactly_once_per_ue(self, flood_result):
        first_decisions = [e for e in flood_result.audit.entries if e["action"] == "auth"]
        assert sorted(e["ue"] for e in first_decisions) == [1, 2, 3, 4]

    def test_flag_and_isolation_logged_once(self, flood_result):
        """The flooder keeps breaching its profile after isolation, but the
        verdict reaches the slicer only at its onset."""
        assert len(flood_result.audit.scan("intrusion_flag")) == 1
        assert len(flood_result.audit.scan("isolate")) == 1
        assert flood_result.audit.scan("isolate_skipped") == []
        assert flood_result.intrusion.flagged == {1}

    def test_denied_ue_never_served(self, flood_result):
        for fr in flood_result.frames:
            stats = fr.per_ue[4]
            if stats.auth_state == "denied":
                assert stats.served_bits == 0
                assert stats.slice_id is None


class TestIsolationOfVerifyingUe:
    @pytest.mark.parametrize("credentials, final_state", [("valid", "isolated"), ("invalid", "denied")])
    def test_flooder_flagged_while_verifying_is_isolated_at_once(self, credentials, final_state):
        """A flooder from frame 0 is flagged at frame 10, five frames before
        its verification ends. It is isolated in that frame; its grant keeps it
        isolated, and a denial releases it without an invariant breach."""
        text = "\n".join([
            "scenario.duration_frames = 300",
            "scenario.seed = 5",
            "auth.verify_frames = 15",
            "ue.1.traffic = flood",
            "ue.1.rate_mbps = 40",
            "ue.1.onset_frame = 0",
            f"ue.1.credentials = {credentials}",
            "ue.2.traffic = uniform_rate",
            "ue.2.rate_lo_mbps = 10",
            "ue.2.rate_hi_mbps = 20",
        ]) + "\n"
        result = run(parse_scenario(text, "verifying_flooder"))
        assert result.summary.isolation_frame == result.summary.detection_frame == 10
        states = [fr.per_ue[1].auth_state for fr in result.frames]
        assert states[9:11] == ["verifying", "isolated"]
        assert states[-1] == final_state
        assert result.audit.scan("isolate_skipped") == []


class TestWrongCredential:
    def test_denied_bad_tag_and_never_served_past_verification(self):
        """A UE whose credential is corrupted (`corrupt_chain`) fails the tag
        check: it is denied with bad_tag, never granted or bound to a normal
        slice, and served nothing once denied."""
        text = "\n".join([
            "scenario.duration_frames = 60",
            "scenario.seed = 7",
            "ue.1.traffic = cbr",
            "ue.1.rate_mbps = 1",
            "ue.2.traffic = cbr",
            "ue.2.rate_mbps = 1",
            "ue.2.credentials = wrong_credential",
        ]) + "\n"
        result = run(parse_scenario(text, "wrong_credential"))
        decisions = [e for e in result.audit.entries if e.get("ue") == 2 and "outcome" in e]
        assert [(e["outcome"], e["reason"]) for e in decisions] == [("denied", "bad_tag")]
        assert [c.cause for c in result.slicing.changes if c.ue == 2] == ["verify", "release"]
        denied = decisions[0]["frame"]
        for fr in result.frames:
            stats = fr.per_ue[2]
            if fr.frame_index >= denied:
                assert (stats.auth_state, stats.served_bits, stats.slice_id) == ("denied", 0, None)
            else:
                assert stats.auth_state == "verifying"


class TestReauthOverRun:
    def test_periodic_reauth_fires_for_granted_ues(self, flood_result):
        reauths = flood_result.audit.scan("reauth")
        assert {e["ue"] for e in reauths} == {2, 3}  # UE1 isolated, UE4 denied
        assert all(e["outcome"] == "granted" for e in reauths)

    def test_isolated_ue_keeps_flooding_but_stays_capped(self, flood_result):
        iso = flood_result.summary.isolation_frame
        post = [fr.per_ue[1] for fr in flood_result.frames if fr.frame_index > iso]
        assert all(s.auth_state == "isolated" for s in post)
        assert all(s.served_bits <= 2400 for s in post)
        assert post[-1].queue_bytes > post[0].queue_bytes  # backlog keeps growing


def scenario_text(reauth: int, ues: list[dict], seed: int = 1, duration: int = 1000) -> str:
    lines = [f"scenario.duration_frames = {duration}", f"scenario.seed = {seed}",
             f"auth.reauth_period_frames = {reauth}"]
    for ue, keys in enumerate(ues, start=1):
        lines += [f"ue.{ue}.{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines)


tenths = st.integers(min_value=1, max_value=400).map(lambda t: t / 10)  # 0.1 to 40 Mbps


@st.composite
def honest_ue(draw, last_attach: int = 600) -> dict:
    kind = draw(st.sampled_from(["cbr", "uniform_rate", "idle", "flood"]))
    keys = {"traffic": kind, "attach_frame": draw(st.integers(min_value=0, max_value=last_attach))}
    if kind == "cbr":
        keys["rate_mbps"] = draw(tenths)
    elif kind == "uniform_rate":
        lo, hi = sorted((draw(tenths), draw(tenths)))
        keys.update(rate_lo_mbps=lo, rate_hi_mbps=hi)
    elif kind == "flood":
        onset = draw(st.integers(min_value=0, max_value=900))
        keys.update(rate_mbps=draw(tenths), onset_frame=onset)
    return keys


@st.composite
def honest_ues(draw, last_attach: int = 600) -> list[dict]:
    """1-8 UEs with valid credentials, up to two of them mission-critical."""
    ues = draw(st.lists(honest_ue(last_attach), min_size=1, max_size=8))
    for ue in draw(st.sets(st.integers(0, len(ues) - 1), max_size=2)):
        ues[ue].update(priority="mission_critical", reserved_prbs=draw(st.integers(1, 20)))
    return ues


# UE 1 alone at 18-20 Mbps, profiled at that band, then three 1 Mbps UEs
# take three quarters of its slice.
ALONE_THEN_CROWDED = [{
    "traffic": "uniform_rate", "rate_lo_mbps": 18, "rate_hi_mbps": 20,
    "profile_rate_lo_mbps": 18, "profile_rate_hi_mbps": 20,
}] + [
    {"traffic": "cbr", "rate_mbps": 1, "attach_frame": 400}
] * 3
# Three UEs at 10-20 Mbps, the third attaching at frame 400.
THIRD_ATTACHES_LATE = [{"traffic": "uniform_rate", "rate_lo_mbps": 10, "rate_hi_mbps": 20}] * 2
THIRD_ATTACHES_LATE += [dict(THIRD_ATTACHES_LATE[0], attach_frame=400)]
# One UE outside its profile, isolated at frame 890, a frame its re-auth is
# due in: the RAN applies the isolation first and does not re-present it.
ISOLATED_AT_REAUTH = [
    {"traffic": "uniform_rate", "attach_frame": 488, "rate_lo_mbps": 0.1, "rate_hi_mbps": 32.1}
]


class TestHonestReauth:
    """An honest RAN serves a slice at most its budget, so no re-authentication
    of an honest run revokes a UE for its usage, however slices move."""

    @pytest.mark.oracle
    @given(st.integers(min_value=50, max_value=500), honest_ues(), st.integers(1, 1000))
    @example(500, ALONE_THEN_CROWDED, 1)
    @example(500, THIRD_ATTACHES_LATE, 1)
    @example(50, ISOLATED_AT_REAUTH, 1)
    @settings(max_examples=60, deadline=None)
    def test_no_honest_ue_revoked_for_usage(self, reauth, ues, seed):
        result = run(parse_scenario(scenario_text(reauth, ues, seed)))
        assert [e for e in result.audit.scan("reauth") if e["reason"] == "slice_mismatch"] == []
        assert result.audit.scan("usage_over_budget") == []

    @pytest.mark.parametrize("ues", [ALONE_THEN_CROWDED, THIRD_ATTACHES_LATE])
    def test_reproductions_granted_at_first_reauth(self, ues):
        for seed in range(1, 21):
            result = run(parse_scenario(scenario_text(500, ues, seed, duration=600)))
            first = [e for e in result.audit.scan("reauth") if e["ue"] == 1]
            assert [(e["frame"], e["outcome"], e["reason"]) for e in first] == [
                (502, "granted", "ok")
            ]

    def test_over_serving_ran_revoked_at_next_reauth(self, monkeypatch):
        """A RAN that reports UE 1 at three times what it served, above the
        budget of the slice that served it, gets UE 1 revoked at its next
        re-authentication; the honest UE is granted."""
        honest = RanCell.collect_kpm

        def inflated(cell, ue, period_ms):
            report = honest(cell, ue, period_ms)
            if ue == 1:
                return report._replace(throughput_mbps=3 * report.throughput_mbps)
            return report

        monkeypatch.setattr(RanCell, "collect_kpm", inflated)
        ues = [{"traffic": "cbr", "rate_mbps": 5}] * 2  # 50 PRBs, 12 Mbps each
        result = run(parse_scenario(scenario_text(500, ues, duration=600)))
        outcomes = [(e["ue"], e["outcome"], e["reason"]) for e in result.audit.scan("reauth")]
        assert outcomes == [(1, "revoked", "slice_mismatch"), (2, "granted", "ok")]
        [first] = result.audit.scan("usage_over_budget")
        assert first["ue"] == 1 and first["throughput_mbps"] > first["capacity_mbps"]


@st.composite
def flooder(draw, last_attach: int) -> dict:
    return {
        "traffic": "flood",
        "attach_frame": draw(st.integers(min_value=0, max_value=last_attach)),
        "rate_mbps": draw(st.integers(min_value=25, max_value=60)),
        "onset_frame": draw(st.integers(min_value=0, max_value=300)),
    }


@st.composite
def cells_with_flooders(draw) -> tuple[int, list[dict]]:
    """A run length of 100-600 frames and its UEs: honest ones, then 0-2 flooders."""
    duration = draw(st.integers(min_value=100, max_value=600))
    ues = draw(honest_ues(duration - 1))
    return duration, ues + draw(st.lists(flooder(min(duration - 1, 300)), max_size=2))


# UE 1 runs above its profile's band and is isolated at frame 40, with a
# re-auth due in every frame.
ISOLATED_WITH_REAUTH_DUE = [
    {"traffic": "cbr", "attach_frame": 5, "rate_mbps": 20.6},
    {"traffic": "cbr", "attach_frame": 56, "rate_mbps": 26.7},
]


class TestReauthAfterIsolation:
    """The RAN applies a boundary's RIC traffic before it re-presents, so it
    never re-authenticates a UE from the frame of its isolation on, and
    every blob it builds carries the slice the current table binds."""

    @pytest.mark.oracle
    @given(st.integers(min_value=1, max_value=60), cells_with_flooders(), st.integers(1, 1000))
    @example(1, (441, ISOLATED_WITH_REAUTH_DUE), 318032)
    @settings(max_examples=60, deadline=None)
    def test_no_reauth_from_isolation_on(self, reauth, cell, seed):
        duration, ues = cell
        result = run(parse_scenario(scenario_text(reauth, ues, seed, duration)))
        isolated = {}
        for e in result.audit.scan("isolate"):
            isolated.setdefault(e["ue"], e["frame"])
        reauths = result.audit.scan("reauth")
        assert [e for e in reauths if e["frame"] >= isolated.get(e["ue"], duration)] == []
        assert [e for e in reauths if e["reason"] == "slice_mismatch"] == []
        # Each decision's outcome follows from its reason: only `ok` grants,
        # and only a re-auth's `slice_mismatch` revokes.
        decisions = [e for e in result.audit.entries if e["action"] in ("auth", "reauth")]
        assert [e for e in decisions if (e["outcome"] == "granted") != (e["reason"] == "ok")] == []
        assert [e for e in decisions if e["outcome"] == "revoked"
                and (e["action"], e["reason"]) != ("reauth", "slice_mismatch")] == []


class TestCliInvariantExit:
    def test_invariant_breach_exits_two(self, monkeypatch, tmp_path):
        import ztcell.cli as cli

        def boom(*args, **kwargs):
            raise InvariantError(17, "synthetic breach")

        monkeypatch.setattr(cli, "run", boom)
        code = cli.main(["run", str(SCENARIOS / "flood_isolation.scn"), "--out", str(tmp_path)])
        assert code == 2
