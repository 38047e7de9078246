"""Scenario format: parsing, defaults, rejection with line/key diagnostics."""
from dataclasses import replace
from pathlib import Path

import pytest

from ztcell.scenario import ScenarioError, load_scenario, parse_scenario, resolved_lines

SCENARIOS = Path(__file__).parent.parent / "scenarios"

MINIMAL = """
scenario.duration_frames = 100
ue.1.traffic = cbr
ue.1.rate_mbps = 5
"""


class TestShippedScenarios:
    def test_flood_isolation_layout(self):
        sc = load_scenario(SCENARIOS / "flood_isolation.scn")
        assert len(sc.ues) == 4
        by_id = {u.ue: u for u in sc.ues}
        assert by_id[1].traffic.kind == "flood"
        assert by_id[1].traffic.rate_mbps == 40.0
        assert by_id[1].credentials == "valid"
        for ue in (2, 3):
            assert by_id[ue].traffic.kind == "uniform_rate"
            assert (by_id[ue].traffic.lo_mbps, by_id[ue].traffic.hi_mbps) == (10.0, 20.0)
        assert by_id[4].credentials == "wrong_token"  # "invalid" maps to a bad token
        assert not by_id[4].legitimate

    def test_latency_flood_layout(self):
        sc = load_scenario(SCENARIOS / "latency_flood.scn")
        assert len(sc.ues) == 3
        flooder = next(u for u in sc.ues if u.traffic.kind == "flood")
        assert flooder.traffic.onset_frame == 1500
        assert sum(u.legitimate for u in sc.ues) == 2

    def test_fpr_leaky_benign_range(self):
        sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
        assert sc.fpr_benign_range == (8.0, 22.0)
        assert (sc.detection.rate_lo_mbps, sc.detection.rate_hi_mbps) == (10.0, 20.0)

    def test_annotated_example_parses_with_every_key(self):
        sc = load_scenario(SCENARIOS / "example_annotated.scn")
        assert sc.duration_frames == 500
        assert len(sc.ues) == 5
        mc = next(u for u in sc.ues if u.reserved_prbs)
        assert mc.reserved_prbs == 10


class TestDefaults:
    def test_minimal_scenario_gets_documented_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.cell.total_prbs == 100
        assert sc.cell.per_prb_rate_mbps == 0.24
        assert sc.report_period_ms == 100
        assert sc.detection.window_n == 10
        assert sc.restricted.budget_prbs == 1
        assert sc.auth.reauth_period_frames == 500
        assert sc.latency_threshold_ms == 100
        assert sc.zero_trust is True

    def test_omitted_restricted_budget_echoed_as_default(self):
        sc = parse_scenario(MINIMAL)
        assert "restricted.budget_prbs = 1" in resolved_lines(sc)

    def test_fpr_range_defaults_to_detection_band(self):
        sc = parse_scenario(MINIMAL)
        assert sc.fpr_benign_range == (10.0, 20.0)

    def test_secret_seed_defaults_to_seed(self):
        sc = parse_scenario(MINIMAL)
        assert sc.auth.secret_seed == str(sc.seed)


class TestRejection:
    def test_zero_duration_names_the_key(self):
        bad = MINIMAL.replace("= 100", "= 0")
        with pytest.raises(ScenarioError, match="scenario.duration_frames"):
            parse_scenario(bad)

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("scenario.duration_frames = 10\nbogus.key = 1\nue.1.traffic = idle")

    def test_unknown_ue_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL + "ue.1.color = blue\n")

    def test_type_error_names_line_and_key(self):
        with pytest.raises(ScenarioError, match="expected int"):
            parse_scenario("scenario.duration_frames = soon\nue.1.traffic = idle")

    def test_missing_equals_sign(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("just some words")

    def test_duplicate_key_rejected(self):
        text = "scenario.duration_frames = 5\nscenario.duration_frames = 6\nue.1.traffic = idle"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(text)

    def test_no_ues_rejected(self):
        with pytest.raises(ScenarioError, match="at least one UE"):
            parse_scenario("scenario.duration_frames = 5")

    def test_ue_zero_reserved(self):
        with pytest.raises(ScenarioError, match="reserved"):
            parse_scenario("scenario.duration_frames = 5\nue.0.traffic = idle")

    def test_uniform_rate_needs_positive_band(self):
        text = (
            "scenario.duration_frames = 5\n"
            "ue.1.traffic = uniform_rate\nue.1.rate_lo_mbps = 9\nue.1.rate_hi_mbps = 3"
        )
        with pytest.raises(ScenarioError, match="ue.1.traffic"):
            parse_scenario(text)

    def test_report_period_must_be_whole_frames(self):
        with pytest.raises(ScenarioError, match="report.period_ms"):
            parse_scenario(MINIMAL + "report.period_ms = 105\n")

    def test_mission_critical_needs_reservation(self):
        with pytest.raises(ScenarioError, match="reserved_prbs"):
            parse_scenario(MINIMAL + "ue.1.priority = mission_critical\n")

    def test_non_hex_credential_names_line_and_key(self):
        with pytest.raises(ScenarioError, match="line 5: .*ue.1.credential"):
            parse_scenario(MINIMAL + "ue.1.credential = not-hex\n")

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("no/such/file.scn")

    @pytest.mark.parametrize("extra", ["detection.min_reports = 11\n", "detection.min_reports = 0\n",
                                       "detection.window_n = 3\ndetection.min_reports = 4\n"])
    def test_min_reports_outside_window_names_the_key(self, extra):
        # A window never holds more than window_n reports: no verdict would ever be made.
        with pytest.raises(ScenarioError, match=r"detection\.\*: min_reports must be in \[1, window_n"):
            parse_scenario(MINIMAL + extra)

    def test_min_reports_equal_to_window_accepted(self):
        sc = parse_scenario(MINIMAL + "detection.window_n = 4\ndetection.min_reports = 4\n")
        assert sc.detection.min_reports_before_decision == 4

    @pytest.mark.parametrize("value", [1, 0, -3])
    def test_warmup_reports_below_two_names_key_and_value(self, value):
        with pytest.raises(ScenarioError, match=rf"detection\.\*: warmup_reports must be >= 2, got {value}$"):
            parse_scenario(MINIMAL + f"detection.warmup_reports = {value}\n")

    @pytest.mark.parametrize(("lo", "hi", "key"), [
        (-20, -10, "profile_rate_lo_mbps"), (-1, 5, "profile_rate_lo_mbps"),
        (20, 10, "profile_rate_hi_mbps"), ("nan", 10, "profile_rate_lo_mbps"),
    ])
    def test_profile_rate_band_outside_domain_names_the_key(self, lo, hi, key):
        # A negative band profiles tx_packets at [0, 0], so an honest UE is
        # isolated on its first live report.
        text = MINIMAL + f"ue.1.profile_rate_lo_mbps = {lo}\nue.1.profile_rate_hi_mbps = {hi}\n"
        with pytest.raises(ScenarioError, match=rf"^ue\.1\.{key}: profile rate band needs 0 <= lo <= hi"):
            parse_scenario(text)

    @pytest.mark.parametrize(("lo", "hi"), [(0, 0), (0, 5), (7, 7)])
    def test_profile_rate_band_edges_accepted(self, lo, hi):
        text = MINIMAL + f"ue.1.profile_rate_lo_mbps = {lo}\nue.1.profile_rate_hi_mbps = {hi}\n"
        ue = parse_scenario(text).ues[0]
        assert (ue.profile_rate_lo_mbps, ue.profile_rate_hi_mbps) == (lo, hi)

    @pytest.mark.parametrize("extra", [
        "auth.token_expiry_frames = -1\n", "auth.token_expiry_frames = 0\n",
        "auth.token_expiry_frames = 2\n", f"auth.token_expiry_frames = {2**64}\n",
        "auth.verify_frames = 10\nauth.token_expiry_frames = 10\n",
    ])
    def test_token_expiry_outside_domain_names_the_key(self, extra):
        # A token expiring by the end of its verification denies every UE.
        with pytest.raises(ScenarioError, match=r"^auth\.token_expiry_frames: must be > auth\.verify_frames"):
            parse_scenario(MINIMAL + extra)

    @pytest.mark.parametrize(("verify", "expiry"), [(2, 3), (0, 1), (2, 2**64 - 1)])
    def test_token_expiry_edges_accepted(self, verify, expiry):
        text = MINIMAL + f"auth.verify_frames = {verify}\nauth.token_expiry_frames = {expiry}\n"
        assert parse_scenario(text).auth.token_expiry_frames == expiry

    KIND_TEXT = {
        "cbr": "ue.1.traffic = cbr\nue.1.rate_mbps = 5\n",
        "uniform_rate": "ue.1.traffic = uniform_rate\nue.1.rate_lo_mbps = 4\nue.1.rate_hi_mbps = 8\n",
        "flood": "ue.1.traffic = flood\nue.1.rate_mbps = 40\nue.1.onset_frame = 3\n",
        "idle": "ue.1.traffic = idle\n",
    }

    @pytest.mark.parametrize(("kind", "key"), [
        ("uniform_rate", "rate_mbps"), ("idle", "rate_mbps"),
        ("cbr", "rate_lo_mbps"), ("cbr", "rate_hi_mbps"),
        ("flood", "rate_lo_mbps"), ("flood", "rate_hi_mbps"),
        ("idle", "rate_lo_mbps"), ("idle", "rate_hi_mbps"),
        ("cbr", "onset_frame"), ("uniform_rate", "onset_frame"), ("idle", "onset_frame"),
    ])
    def test_traffic_key_the_kind_ignores_names_the_key(self, kind, key):
        """Such a key would be dropped from the echo, so run.log would not
        parse back to the same scenario."""
        parse_scenario("scenario.duration_frames = 5\n" + self.KIND_TEXT[kind])
        text = "scenario.duration_frames = 5\n" + self.KIND_TEXT[kind] + f"ue.1.{key} = 7\n"
        with pytest.raises(ScenarioError, match=rf"ue\.1\.{key}: traffic {kind} does not use"):
            parse_scenario(text)


class TestEcho:
    def test_resolved_lines_cover_every_section(self):
        lines = resolved_lines(parse_scenario(MINIMAL))
        keys = {line.split(" = ")[0] for line in lines}
        for expected in (
            "scenario.duration_frames",
            "cell.per_prb_rate_mbps",
            "report.period_ms",
            "detection.window_n",
            "restricted.budget_prbs",
            "auth.reauth_period_frames",
            "ue.1.traffic",
        ):
            assert expected in keys

    def test_echo_is_reparsable(self):
        for text in (MINIMAL, MINIMAL + "ue.1.credential = 00112233445566778899aabbccddeeff\n"):
            sc = parse_scenario(text)
            again = parse_scenario("\n".join(resolved_lines(sc)))
            assert again.cell == sc.cell
            assert again.detection == sc.detection
            assert again.ues == sc.ues

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_echo_states_the_scenario_as_run(self, path):
        """A run's seed and legacy overrides reach run.log: the echo of the
        overridden scenario parses back to it, all but the name."""
        sc = replace(load_scenario(path), seed=99, zero_trust=False)
        assert parse_scenario("\n".join(resolved_lines(sc)), name=sc.name) == sc
