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
