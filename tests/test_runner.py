"""End-to-end runs: determinism, output files, CLI behavior."""
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztcell.cli import main
from ztcell.e2 import AuthOutcome, DecodeError
from ztcell.ran import InvariantError, RanCell
from ztcell.runner import FRAMES_CSV_HEADER, fpr_sweep, frames_to_rows, run, summarize_dir
from ztcell.scenario import load_scenario, parse_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "data" / "golden_runs"

ZERO_TRAFFIC = """
scenario.duration_frames = 50
scenario.seed = 3
ue.1.traffic = idle
ue.2.traffic = idle
"""

SMALL_MIX = """
scenario.duration_frames = 120
scenario.seed = 5
ue.1.traffic = uniform_rate
ue.1.rate_lo_mbps = 10
ue.1.rate_hi_mbps = 20
ue.2.traffic = cbr
ue.2.rate_mbps = 6
"""


class TestZeroTraffic:
    def test_no_latency_no_detection(self, tmp_path):
        result = run(parse_scenario(ZERO_TRAFFIC, "zero"), out_dir=tmp_path / "out")
        assert result.summary.latency_exceedance == 0.0
        assert result.summary.peak_latency_ms == 0.0
        assert result.summary.detection_frame is None
        assert result.audit.scan("intrusion_flag") == []
        for frame in result.frames:
            for stats in frame.per_ue.values():
                assert stats.served_bits == 0
                assert stats.mean_latency_ms is None


class TestDeterminism:
    def test_two_runs_byte_identical_outputs(self, tmp_path):
        sc = load_scenario(SCENARIOS / "flood_isolation.scn")
        run(sc, out_dir=tmp_path / "a")
        run(sc, out_dir=tmp_path / "b")
        for name in ("frames.csv", "audit.jsonl", "summary.json", "run.log",
                     "slice_changes.csv", "sdl_snapshot.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_seed_override_changes_outputs(self, tmp_path):
        sc = parse_scenario(SMALL_MIX, "mix")
        a = run(sc, out_dir=tmp_path / "a")
        b = run(sc, out_dir=tmp_path / "b", seed=99)
        assert b.scenario.seed == 99
        assert (tmp_path / "a" / "frames.csv").read_bytes() != (
            tmp_path / "b" / "frames.csv"
        ).read_bytes()


class TestModes:
    def test_arrivals_independent_of_mode(self):
        """Cumulative arrived bits per UE, served bits so far plus the queue,
        match frame by frame; exact while PRB bits are whole bytes."""
        sc = parse_scenario(SMALL_MIX, "mix")
        zt = run(sc)
        legacy = run(sc, legacy=True)
        assert zt.cell.cfg.prb_bits_per_frame % 8 == 0
        served = {"zt": {}, "legacy": {}}
        for fz, fl in zip(zt.frames, legacy.frames, strict=True):
            assert fz.per_ue.keys() == fl.per_ue.keys()
            for ue in fz.per_ue:
                arrived = {}
                for mode, stats in (("zt", fz.per_ue[ue]), ("legacy", fl.per_ue[ue])):
                    served[mode][ue] = served[mode].get(ue, 0) + stats.served_bits
                    arrived[mode] = served[mode][ue] + 8 * stats.queue_bytes
                assert arrived["zt"] == arrived["legacy"]

    def test_legacy_skips_xapps_entirely(self, tmp_path):
        sc = parse_scenario(SMALL_MIX, "mix")
        result = run(sc, out_dir=tmp_path, legacy=True)
        assert result.auth is None and result.intrusion is None and result.slicing is None
        assert (tmp_path / "slice_changes.csv").read_text().splitlines() == [
            "frame,ue,old_slice,new_slice,cause"
        ]

    def test_mid_run_attach(self):
        sc = parse_scenario(SMALL_MIX + "\nue.3.traffic = cbr\nue.3.rate_mbps = 2\nue.3.attach_frame = 40\n", "late")
        result = run(sc)
        assert 3 not in result.frames[10].per_ue
        assert result.frames[60].per_ue[3].auth_state == "granted"


ONE_UE = """
scenario.duration_frames = 50
scenario.seed = 3
ue.1.traffic = cbr
ue.1.rate_mbps = 1
"""


@pytest.fixture
def reauth_on_every_grant(monkeypatch):
    """A RAN that answers every grant with another valid re-authentication."""
    original = RanCell._on_auth_response

    def storm(cell, body):
        original(cell, body)
        ue = cell.ues.get(body.ue)
        if ue is not None and body.outcome is AuthOutcome.GRANTED:
            cell._send_auth_request(ue, slice_id=ue.slice_id or 0, cred_mode="valid")

    monkeypatch.setattr(RanCell, "_on_auth_response", storm)


class TestMessageStorm:
    def test_reauth_storm_is_frame_stamped_invariant_error(self, reauth_on_every_grant):
        with pytest.raises(InvariantError) as err:
            run(parse_scenario(ONE_UE, "storm"))
        assert 0 <= err.value.frame <= 50
        assert str(err.value).startswith(f"frame {err.value.frame}:")

    def test_reauth_storm_exits_2(self, reauth_on_every_grant, tmp_path, capsys):
        scn = tmp_path / "storm.scn"
        scn.write_text(ONE_UE)
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert "invariant breach: frame " in capsys.readouterr().err


class TestOutputs:
    def test_frames_csv_columns_exact(self, tmp_path):
        run(parse_scenario(SMALL_MIX, "mix"), out_dir=tmp_path)
        lines = (tmp_path / "frames.csv").read_text().splitlines()
        assert lines[0] == FRAMES_CSV_HEADER
        assert lines[1].count(",") == 6

    def test_run_log_echoes_defaults(self, tmp_path):
        run(parse_scenario(SMALL_MIX, "mix"), out_dir=tmp_path)
        log = (tmp_path / "run.log").read_text()
        assert "restricted.budget_prbs = 1" in log
        assert "detection.window_n = 10" in log

    def test_summarize_dir_matches_in_memory_summary(self, tmp_path):
        result = run(parse_scenario(SMALL_MIX, "mix"), out_dir=tmp_path)
        recomputed = summarize_dir(tmp_path)
        assert recomputed.to_dict() == result.summary.to_dict()

    def test_run_log_is_the_scenario_as_run(self, tmp_path):
        """Overrides reach run.log, and summarizing reads them from there."""
        result = run(parse_scenario(SMALL_MIX, "mix"), out_dir=tmp_path, seed=99, legacy=True)
        log = (tmp_path / "run.log").read_text()
        assert log.startswith("# run: mix\n")
        logged = parse_scenario(log, "mix")
        assert (logged.seed, logged.zero_trust) == (99, False)
        assert logged == result.scenario
        assert not (tmp_path / "meta.json").exists()
        assert summarize_dir(tmp_path).to_dict() == result.summary.to_dict()

    @pytest.mark.parametrize("name", ["flood_isolation", "latency_flood", "latency_flood-legacy"])
    def test_summarize_shipped_run_rewrites_pinned_summary(self, tmp_path, name):
        """The summary is taken on latencies as frames.csv stores them, so
        summarizing a shipped run gives back its summary.json byte for byte."""
        shutil.copytree(GOLDEN / name, tmp_path / name)
        summarize_dir(tmp_path / name)
        assert (tmp_path / name / "summary.json").read_bytes() == (
            GOLDEN / name / "summary.json"
        ).read_bytes()

    def test_audit_includes_grants_after_ran_verification(self, tmp_path):
        run(parse_scenario(SMALL_MIX, "mix"), out_dir=tmp_path)
        actions = [
            json.loads(line)["action"]
            for line in (tmp_path / "audit.jsonl").read_text().splitlines()
        ]
        assert "verified_ran" in actions
        assert actions.index("verified_ran") < actions.index("auth")


def reference_frames_csv(result) -> str:
    """frames.csv formatted row by row from `frames_to_rows`, with no interning."""
    rows = frames_to_rows(result.frames, [u.ue for u in result.scenario.ues])
    return FRAMES_CSV_HEADER + "\n" + "".join(
        f"{f},{ue},{bits},{queue_bytes},{'' if lat is None else f'{lat:.3f}'},"
        f"{state},{'' if sid is None else sid}\n"
        for f, ue, bits, queue_bytes, lat, state, sid in rows
    )


@st.composite
def mixed_scenarios(draw):
    """A scenario text of 1-8 UEs of mixed traffic kinds over up to 300
    frames, and whether to run it in legacy mode."""
    frames = draw(st.integers(min_value=1, max_value=300))
    lines = [f"scenario.duration_frames = {frames}", f"scenario.seed = {draw(st.integers(0, 999))}"]
    rate = st.sampled_from([0.1, 0.3, 1.0, 2.5, 6.0, 12.0, 40.0])
    for ue in range(1, draw(st.integers(min_value=1, max_value=8)) + 1):
        kind = draw(st.sampled_from(["cbr", "uniform_rate", "flood", "idle"]))
        lines.append(f"ue.{ue}.traffic = {kind}")
        if kind in ("cbr", "flood"):
            lines.append(f"ue.{ue}.rate_mbps = {draw(rate)}")
        if kind == "flood":
            lines.append(f"ue.{ue}.onset_frame = {draw(st.integers(0, frames))}")
        if kind == "uniform_rate":
            lo, hi = sorted((draw(rate), draw(rate)))
            lines += [f"ue.{ue}.rate_lo_mbps = {lo}", f"ue.{ue}.rate_hi_mbps = {hi}"]
        lines.append(f"ue.{ue}.packet_size_bytes = {draw(st.sampled_from([200, 1500]))}")
        lines.append(f"ue.{ue}.attach_frame = {draw(st.integers(0, frames - 1))}")
        lines.append(f"ue.{ue}.credentials = {draw(st.sampled_from(['valid', 'valid', 'invalid']))}")
    return "\n".join(lines) + "\n", draw(st.booleans())


class TestFramesCsv:
    @given(mixed_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_frames_csv_equals_per_row_reference(self, case):
        text, legacy = case
        with tempfile.TemporaryDirectory() as out:
            result = run(parse_scenario(text, "mixed"), out_dir=out, legacy=legacy)
            assert (Path(out) / "frames.csv").read_bytes() == reference_frames_csv(result).encode()

    def test_48_ue_run_holds_one_object_per_distinct_stats(self):
        text = ["scenario.duration_frames = 1000", "scenario.seed = 9",
                "auth.reauth_period_frames = 300", "detection.min_reports = 3"]
        for ue in range(1, 49):
            text += [f"ue.{ue}.traffic = uniform_rate", f"ue.{ue}.rate_lo_mbps = 0.15",
                     f"ue.{ue}.rate_hi_mbps = 0.3", f"ue.{ue}.attach_frame = {4 * (ue - 1)}"]
        result = run(parse_scenario("\n".join(text) + "\n", "crowd"))
        stats = [s for report in result.frames for s in report.per_ue.values()]
        distinct = set(stats)
        assert len({id(s) for s in stats}) == len(distinct)
        assert len(distinct) * 10 < len(stats)  # light UEs repeat their stats


# The rate limit at 1500-byte packets and 100 ms reports: (2**32 - 2) * 12000 / 100000 Mbps.
_KPM_LIMIT = (
    "must be <= 515396075.28 Mbps, so that a report.period_ms (100) of 1500-byte packets "
    "counts below 2**32, got "
)


class TestCli:
    def test_run_summarize_fpr_sweep(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", str(SCENARIOS / "flood_isolation.scn"), "--out", str(out)])
        assert code == 0
        assert (out / "frames.csv").exists()

        code = main(["summarize", str(out), "--latency-threshold", "200"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["latency_threshold_ms"] == 200

        fpr_out = tmp_path / "fpr.csv"
        code = main([
            "fpr-sweep", str(SCENARIOS / "fpr_leaky.scn"),
            "--windows", "1,2,5,10", "--trials", "10000", "--out", str(fpr_out),
        ])
        assert code == 0
        assert fpr_out.read_bytes() == (GOLDEN / "fpr_leaky.csv").read_bytes()

    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run", "nope.scn"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_scenario_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("scenario.duration_frames = 0\nue.1.traffic = idle\n")
        assert main(["run", str(bad)]) == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("detection.min_reports = 11", "min_reports must be in [1, window_n = 10], got 11"),
            ("detection.warmup_reports = -3", "warmup_reports must be >= 2, got -3"),
        ],
    )
    def test_detection_that_could_never_decide_is_config_error(self, extra, message, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text((SCENARIOS / "flood_isolation.scn").read_text() + extra + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: detection.*: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("detection.z_sigma = inf", "line {n}: expected a finite float for detection.z_sigma"),
            ("auth.usage_tolerance = nan", "line {n}: expected a finite float for auth.usage_tolerance"),
            ("ue.2.profile_rate_hi_mbps = 1e308",
             "line {n}: expected a finite float for ue.2.profile_rate_hi_mbps"),
            ("cell.per_prb_rate_mbps = inf", "line {n}: expected a finite float for cell.per_prb_rate_mbps"),
            ("ue.5.traffic = cbr\nue.5.rate_mbps = 1e308",
             "line {m}: expected a finite float for ue.5.rate_mbps"),
            ("ue.2.attach_frame = 5000", "ue.2.attach_frame: must be < scenario.duration_frames (1000)"),
            ("auth.reauth_period_frames = -1", "auth.reauth_period_frames: must be >= 0"),
            ("cell.id = -1", "cell.*: cell_id must be in [0, 2**32), got -1"),
            ("cell.id = 4294967296", "cell.*: cell_id must be in [0, 2**32), got 4294967296"),
            ("cell.e2_id = -1", "cell.*: e2_id must be in [0, 2**32), got -1"),
            ("cell.e2_id = 4294967296", "cell.*: e2_id must be in [0, 2**32), got 4294967296"),
            ("ue.5.traffic = flood\nue.5.rate_mbps = 40\nue.5.onset_frame = -1",
             "ue.5.onset_frame: must be >= 0"),
            ("ue.2.reserved_prbs = -5", "ue.2.reserved_prbs: only mission_critical UEs reserve PRBs, got -5"),
            ("ue.2.priority = mission_critical\nue.2.reserved_prbs = 200",
             "ue.2.reserved_prbs: mission-critical reservations total 200 PRBs, "
             "more than cell.total_prbs (100)"),
            ("cell.total_prbs = 1", "auth.verification_budget_prbs: must be <= cell.total_prbs (1), got 2"),
            ("ue.5.traffic = cbr\nue.5.rate_mbps = 1e200", "ue.5.rate_mbps: " + _KPM_LIMIT + "1e+200"),
            ("ue.5.traffic = flood\nue.5.rate_mbps = 6e8", "ue.5.rate_mbps: " + _KPM_LIMIT + "600000000.0"),
            ("ue.5.traffic = uniform_rate\nue.5.rate_lo_mbps = 1\nue.5.rate_hi_mbps = 6e8",
             "ue.5.rate_hi_mbps: " + _KPM_LIMIT + "600000000.0"),
            ("ue.2.profile_rate_hi_mbps = 1e304", "ue.2.profile_rate_hi_mbps: " + _KPM_LIMIT + "1e+304"),
        ],
    )
    def test_value_outside_its_domain_is_config_error(self, extra, message, tmp_path, capsys):
        text = (SCENARIOS / "flood_isolation.scn").read_text()
        n = len(text.splitlines()) + 1
        scn = tmp_path / "bad.scn"
        scn.write_text(text + extra + "\n")
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {message.format(n=n, m=n + 1)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_rates_the_kpm_codec_holds_run(self, tmp_path):
        """At 12500-byte packets a report of 100 ms carries one packet per Mbps:
        2**32 - 2 Mbps, and one packet a carried fraction adds, fit the u32."""
        scn = tmp_path / "fast.scn"
        scn.write_text((SCENARIOS / "flood_isolation.scn").read_text() + (
            "ue.5.traffic = uniform_rate\nue.5.packet_size_bytes = 12500\n"
            "ue.5.rate_lo_mbps = 4294967293\nue.5.rate_hi_mbps = 4294967294\n"
            "ue.5.profile_rate_hi_mbps = 4294967294\n"
        ))
        for legacy in ([], ["--legacy"]):
            assert main(["run", str(scn), "--out", str(tmp_path / "out"), *legacy]) == 0

    def test_bad_windows_rejected(self, capsys):
        code = main(["fpr-sweep", str(SCENARIOS / "fpr_leaky.scn"), "--windows", "0,5"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run"], "the following arguments are required: scenario"),
            (["fpr-sweep", str(SCENARIOS / "fpr_leaky.scn"), "--trials", "abc"],
             "argument --trials: invalid int value: 'abc'"),
            (["summarize", "out", "--latency-threshold"], "expected one argument"),
            (["frobnicate"], "invalid choice"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_error_is_config_error(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: ztcell" in err and message in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fpr-sweep", "--help"])
        assert exc.value.code == 0
        assert "--trials" in capsys.readouterr().out

    def test_fpr_sweep_trials_below_floor_is_config_error(self, capsys):
        assert main(["fpr-sweep", str(SCENARIOS / "fpr_leaky.scn"), "--trials", "500"]) == 1
        assert "config error: --trials" in capsys.readouterr().err

    def test_decode_error_after_parse_is_runtime_failure(self, monkeypatch, tmp_path, capsys):
        import ztcell.cli as cli

        def corrupt(*args, **kwargs):
            raise DecodeError(3, "synthetic corruption")

        monkeypatch.setattr(cli, "run", corrupt)
        assert main(["run", str(SCENARIOS / "flood_isolation.scn"), "--out", str(tmp_path)]) == 2
        assert "runtime failure: decode error at byte 3" in capsys.readouterr().err

    def test_any_other_error_after_parse_is_runtime_failure(self, monkeypatch, tmp_path, capsys):
        import ztcell.cli as cli

        def broken(*args, **kwargs):
            raise KeyError("ue 9")

        monkeypatch.setattr(cli, "run", broken)
        assert main(["run", str(SCENARIOS / "flood_isolation.scn"), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "runtime failure: KeyError: 'ue 9'\n"

    def test_fpr_sweep_trials_floor(self):
        sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
        with pytest.raises(ValueError):
            fpr_sweep(sc, [1], trials=5000)

    def test_fpr_sweep_deterministic_csv(self, tmp_path):
        sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
        fpr_sweep(sc, [1, 2], trials=10_000, out_csv=tmp_path / "a.csv")
        fpr_sweep(sc, [1, 2], trials=10_000, out_csv=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFprSweepShape:
    def test_single_window_yields_one_row(self, tmp_path):
        sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
        fpr_sweep(sc, [1], trials=10_000, out_csv=tmp_path / "one.csv")
        lines = (tmp_path / "one.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[1].startswith("1,10000,")
