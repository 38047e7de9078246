"""End-to-end runs: determinism, output files, CLI behavior."""
import json
import shutil
from pathlib import Path

import pytest

from ztcell.cli import main
from ztcell.e2 import AuthOutcome
from ztcell.ran import InvariantError, RanCell
from ztcell.runner import FRAMES_CSV_HEADER, fpr_sweep, run, summarize_dir
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
            "--windows", "1,2", "--trials", "10000", "--out", str(fpr_out),
        ])
        assert code == 0
        assert fpr_out.read_text().startswith("window_n,trials,fpr_estimate,ci_low,ci_high")

    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run", "nope.scn"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_scenario_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("scenario.duration_frames = 0\nue.1.traffic = idle\n")
        assert main(["run", str(bad)]) == 1

    def test_bad_windows_rejected(self, capsys):
        code = main(["fpr-sweep", str(SCENARIOS / "fpr_leaky.scn"), "--windows", "0,5"])
        assert code == 1

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
