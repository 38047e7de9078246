"""Cross-module zero-trust laws checked on full runs."""
from pathlib import Path

import pytest

from ztcell.core import SliceKind
from ztcell.ran import InvariantError
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


class TestCliInvariantExit:
    def test_invariant_breach_exits_two(self, monkeypatch, tmp_path):
        import ztcell.cli as cli

        def boom(*args, **kwargs):
            raise InvariantError(17, "synthetic breach")

        monkeypatch.setattr(cli, "run", boom)
        code = cli.main(["run", str(SCENARIOS / "flood_isolation.scn"), "--out", str(tmp_path)])
        assert code == 2
