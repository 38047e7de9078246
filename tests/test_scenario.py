"""Scenario format: parsing, defaults, rejection with line/key diagnostics."""
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztcell import scenario
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

    def test_annotated_example_states_every_table_key(self):
        keys = set()
        for line in (SCENARIOS / "example_annotated.scn").read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                keys.add(re.sub(r"^ue\.\d+\.", "ue.N.", line.partition("=")[0].strip()))
        assert keys == set(scenario._TOP_KEYS) | {f"ue.N.{key}" for key in scenario._UE_KEYS}

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
        (20, 10, "profile_rate_hi_mbps"),
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

    @pytest.mark.parametrize("extra", [
        "detection.z_sigma = inf", "auth.usage_tolerance = nan", "ue.1.profile_rate_lo_mbps = nan",
        "ue.1.profile_rate_hi_mbps = inf", "ue.1.profile_rate_hi_mbps = 1e308",
        "cell.per_prb_rate_mbps = inf", "cell.per_prb_rate_mbps = 1e308",
        "ue.1.snr_mean_db = -inf", "fpr.benign_rate_hi_mbps = 1e305",
    ])
    def test_non_finite_float_names_line_and_key(self, extra):
        key, _, raw = extra.partition(" = ")
        with pytest.raises(ScenarioError, match=rf"^line 5: expected a finite float for {key}, got '{raw}'$"):
            parse_scenario(MINIMAL + extra + "\n")

    @pytest.mark.parametrize("raw", ["inf", "1e308", "NaN"])
    def test_non_finite_traffic_rate_names_line_and_key(self, raw):
        text = MINIMAL + f"ue.2.traffic = cbr\nue.2.rate_mbps = {raw}\n"
        with pytest.raises(ScenarioError, match=rf"^line 6: expected a finite float for ue\.2\.rate_mbps"):
            parse_scenario(text)

    def test_largest_rate_finite_in_bits_per_frame_accepted(self):
        sc = parse_scenario(MINIMAL + "cell.per_prb_rate_mbps = 1e304\n")
        assert sc.cell.per_prb_rate_mbps == 1e304

    @pytest.mark.parametrize("prbs", [-5, 5])
    def test_commercial_reservation_names_the_key(self, prbs):
        with pytest.raises(ScenarioError, match=rf"^ue\.1\.reserved_prbs: only mission_critical UEs reserve PRBs, got {prbs}$"):
            parse_scenario(MINIMAL + f"ue.1.reserved_prbs = {prbs}\n")

    @staticmethod
    def with_reservations(total: int, prbs: tuple[int, ...]) -> str:
        """MINIMAL in a cell of `total` PRBs, plus mission-critical UEs 2, 3, ...
        reserving `prbs`."""
        text = MINIMAL + f"cell.total_prbs = {total}\nauth.verification_budget_prbs = 1\n"
        for ue, n in enumerate(prbs, start=2):
            text += f"ue.{ue}.traffic = idle\nue.{ue}.priority = mission_critical\nue.{ue}.reserved_prbs = {n}\n"
        return text

    @pytest.mark.parametrize(("total", "prbs"), [(100, (60, 40)), (10, (9, 1)), (1, (1,))])
    def test_reservations_filling_the_cell_accepted(self, total, prbs):
        sc = parse_scenario(self.with_reservations(total, prbs))
        assert sum(ue.reserved_prbs for ue in sc.ues) == total

    @pytest.mark.parametrize(("total", "prbs"), [(100, (60, 41)), (100, (200,)), (1, (2,))])
    def test_reservations_beyond_the_cell_name_the_key(self, total, prbs):
        message = (rf"^ue\.{1 + len(prbs)}\.reserved_prbs: mission-critical reservations total "
                   rf"{sum(prbs)} PRBs, more than cell\.total_prbs \({total}\)$")
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(self.with_reservations(total, prbs))

    @pytest.mark.parametrize(("total", "budget"), [(1, 2), (1, 10), (9, 10)])
    def test_verification_slice_beyond_the_cell_names_the_key(self, total, budget):
        text = MINIMAL + f"cell.total_prbs = {total}\nauth.verification_budget_prbs = {budget}\n"
        message = (rf"^auth\.verification_budget_prbs: must be <= cell\.total_prbs \({total}\), "
                   rf"got {budget}$")
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize(("total", "budget"), [(1, 1), (2, 2), (100, 2)])
    def test_verification_slice_filling_the_cell_accepted(self, total, budget):
        text = MINIMAL + f"cell.total_prbs = {total}\nauth.verification_budget_prbs = {budget}\n"
        assert parse_scenario(text).auth.verification_budget_prbs == budget

    # At 12500-byte packets (100 kbit) and 100 ms reports, a rate in Mbps is
    # the packets of one report: the largest accepted rate is 2**32 - 2, which
    # leaves one packet of room for a carried fraction.
    RATE_TEXT = {
        "rate_mbps": "ue.2.traffic = cbr\nue.2.rate_mbps = {rate}\n",
        "flood rate_mbps": "ue.2.traffic = flood\nue.2.rate_mbps = {rate}\n",
        "rate_hi_mbps": "ue.2.traffic = uniform_rate\nue.2.rate_lo_mbps = 1\nue.2.rate_hi_mbps = {rate}\n",
        "profile_rate_hi_mbps": "ue.2.traffic = idle\nue.2.profile_rate_hi_mbps = {rate}\n",
    }
    LARGEST_RATE = float(2**32 - 2)

    @pytest.mark.parametrize("case", sorted(RATE_TEXT))
    def test_largest_rate_the_kpm_packet_count_holds_accepted(self, case):
        text = MINIMAL + "ue.2.packet_size_bytes = 12500\n" + self.RATE_TEXT[case].format(rate=self.LARGEST_RATE)
        key = case.split()[-1]
        assert f"ue.2.{key} = {self.LARGEST_RATE}" in resolved_lines(parse_scenario(text))

    @pytest.mark.parametrize("case", sorted(RATE_TEXT))
    def test_rate_past_the_kpm_packet_count_names_the_key(self, case):
        rate = math.nextafter(self.LARGEST_RATE, math.inf)
        text = MINIMAL + "ue.2.packet_size_bytes = 12500\n" + self.RATE_TEXT[case].format(rate=rate)
        key = case.split()[-1]
        message = (rf"^ue\.2\.{key}: must be <= 4294967294\.0 Mbps, so that a report\.period_ms "
                   rf"\(100\) of 12500-byte packets counts below 2\*\*32, got {rate}$")
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize("extra", [
        "auth.usage_tolerance = -0.1", "auth.reauth_period_frames = -1", "ue.1.snr_std_db = -1",
        "ue.1.cqi_std = -0.5", "ue.1.tx_power_std_dbm = -2", "scenario.latency_threshold_ms = -1",
        "ue.1.attach_frame = -1",
    ])
    def test_below_least_value_names_the_key(self, extra):
        key = extra.partition(" = ")[0]
        with pytest.raises(ScenarioError, match=rf"^{key}: must be >= 0$"):
            parse_scenario(MINIMAL + extra + "\n")

    @pytest.mark.parametrize("frame", [100, 5000])
    def test_attach_frame_at_or_past_the_run_end_names_the_key(self, frame):
        """A UE attaching at or after the last frame never attaches."""
        message = r"^ue\.1\.attach_frame: must be < scenario\.duration_frames \(100\), got"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(MINIMAL + f"ue.1.attach_frame = {frame}\n")

    @pytest.mark.parametrize("extra", [
        "auth.usage_tolerance = 0", "auth.reauth_period_frames = 0", "ue.1.snr_std_db = 0",
        "ue.1.cqi_std = 0", "ue.1.tx_power_std_dbm = 0", "scenario.latency_threshold_ms = 0",
        "ue.1.attach_frame = 0", "ue.1.attach_frame = 99",
        "cell.id = 0", f"cell.id = {2**32 - 1}", "cell.e2_id = 0", f"cell.e2_id = {2**32 - 1}",
    ])
    def test_domain_edges_accepted(self, extra):
        key, _, raw = extra.partition(" = ")
        echo = dict(line.split(" = ") for line in resolved_lines(parse_scenario(MINIMAL + extra + "\n")))
        assert float(echo[key]) == float(raw)


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


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# Each strategy stays inside its key's domain whatever the other keys hold or
# default to: bands draw lo below 10 and hi above 10, where the defaults meet.
# The PRB keys bounded by the cell, auth.verification_budget_prbs and the
# mission-critical reservations, are drawn in `scenario_texts`.
TOP_VALUES = {
    "scenario.seed": st.integers(-10**6, 10**6),
    "scenario.zero_trust": st.sampled_from(["on", "off", "true", "false", "yes", "no"]),
    "scenario.latency_threshold_ms": st.integers(0, 10**4),
    "cell.total_prbs": st.integers(1, 500),
    "cell.per_prb_rate_mbps": _floats(1e-3, 1e3),
    "cell.id": st.integers(0, 2**32 - 1),
    "cell.e2_id": st.integers(0, 2**32 - 1),
    "report.period_ms": st.integers(1, 100).map(lambda n: 10 * n),
    "detection.window_n": st.integers(10, 50),
    "detection.rate_lo_mbps": _floats(0, 9.5),
    "detection.rate_hi_mbps": _floats(10.5, 100),
    "detection.z_sigma": _floats(0.01, 10),
    "detection.min_reports": st.integers(1, 10),
    "detection.warmup_reports": st.integers(2, 500),
    "restricted.budget_prbs": st.integers(1, 5),
    "auth.verify_frames": st.integers(0, 999),
    "auth.reauth_period_frames": st.integers(0, 5000),
    "auth.token_expiry_frames": st.integers(1000, 2**64 - 1),
    "auth.usage_tolerance": _floats(0, 1),
    "auth.secret_seed": st.text(alphabet="abcxyz0129-_", min_size=1, max_size=12),
    "fpr.benign_rate_lo_mbps": _floats(0, 9.5),
    "fpr.benign_rate_hi_mbps": _floats(10.5, 100),
}
# The rate keys each traffic kind needs, and the optional ones it reads.
KIND_RATES = {
    "cbr": ({"rate_mbps": _floats(0.01, 100)}, {}),
    "uniform_rate": ({"rate_lo_mbps": _floats(0.01, 5), "rate_hi_mbps": _floats(5, 100)}, {}),
    "flood": ({"rate_mbps": _floats(0.01, 100)}, {"onset_frame": st.integers(0, 10**4)}),
    "idle": ({}, {}),
}
UE_VALUES = {
    "packet_size_bytes": st.integers(1, 9000),
    "credentials": st.sampled_from(["valid", "invalid", "wrong_token", "wrong_credential"]),
    "credential": st.binary(min_size=1, max_size=16).map(bytes.hex),
    "priority": st.just("commercial"),
    "reserved_prbs": st.just(0),  # only a mission-critical UE reserves PRBs
    "snr_mean_db": _floats(-50, 50),
    "snr_std_db": _floats(0, 10),
    "cqi_mean": _floats(0, 15),
    "cqi_std": _floats(0, 5),
    "tx_power_mean_dbm": _floats(-10, 30),
    "tx_power_std_dbm": _floats(0, 5),
    "profile_rate_lo_mbps": _floats(0, 9.5),
    "profile_rate_hi_mbps": _floats(10.5, 100),
}


@st.composite
def scenario_texts(draw):
    """A scenario of 1-6 UEs of every traffic kind, stating a random subset of
    the keys with in-domain values, in a random line order."""
    duration = draw(st.integers(1, 5000))
    pairs = {"scenario.duration_frames": duration}
    for key in draw(st.sets(st.sampled_from(sorted(TOP_VALUES)))):
        pairs[key] = draw(TOP_VALUES[key])
    free = pairs.get("cell.total_prbs", 100)  # PRBs no reservation holds yet
    # A cell smaller than the default verification slice must state its own.
    if free < scenario.AuthParams.verification_budget_prbs or draw(st.booleans()):
        pairs["auth.verification_budget_prbs"] = draw(st.integers(1, min(10, free)))
    per_ue = dict(UE_VALUES, attach_frame=st.integers(0, duration - 1))
    for ue in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(sorted(KIND_RATES)))
        needed, optional = KIND_RATES[kind]
        values = dict(per_ue, **optional)
        stated = {"traffic": kind, **{key: draw(s) for key, s in needed.items()}}
        for key in draw(st.sets(st.sampled_from(sorted(values)))):
            stated[key] = draw(values[key])
        if free and draw(st.booleans()):
            reserved = draw(st.integers(1, min(20, free)))
            stated.update(priority="mission_critical", reserved_prbs=reserved)
            free -= reserved
        pairs.update((f"ue.{ue}.{key}", value) for key, value in stated.items())
    return "\n".join(draw(st.permutations([f"{key} = {value}" for key, value in pairs.items()])))


class TestEchoProperty:
    @given(scenario_texts())
    @settings(max_examples=150, deadline=None)
    def test_echo_parses_back_to_the_scenario(self, text):
        """run.log states the whole scenario: its echo parses back to it, and
        echoing that gives the same lines."""
        sc = parse_scenario(text, "generated")
        echo = resolved_lines(sc)
        again = parse_scenario("\n".join(echo), name=sc.name)
        assert again == sc
        assert resolved_lines(again) == echo
