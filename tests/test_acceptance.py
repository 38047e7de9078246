"""Acceptance suite: every criterion with its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Each criterion also enforces its wall-clock budget.
"""
import importlib.util
import json
import math
import sys
import time
from pathlib import Path
from random import Random
from unittest import mock

import pytest

from ztcell import e2, runner
from ztcell.core import KPMReport, PRBMask, SliceSpec, validate_slice_table
from ztcell.e2 import AuthReason, AuthRequestBody, KpmIndicationBody, MsgKind, SubscriptionAckBody, SubscriptionRequestBody
from ztcell.runner import fpr_sweep, run
from ztcell.scenario import load_scenario, parse_scenario
from ztcell.xapps.auth import blob_key, build_blob

SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "data" / "golden_runs"

_passed: dict[str, bool] = {}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    _passed[criterion] = ok
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def flood_run(tmp_path_factory):
    sc = load_scenario(SCENARIOS / "flood_isolation.scn")
    t0 = time.monotonic()
    result = run(sc, out_dir=tmp_path_factory.mktemp("flood") / "out")
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def latency_runs(tmp_path_factory):
    sc = load_scenario(SCENARIOS / "latency_flood.scn")
    t0 = time.monotonic()
    legacy = run(sc, out_dir=tmp_path_factory.mktemp("lat") / "legacy", legacy=True)
    zt = run(sc, out_dir=tmp_path_factory.mktemp("lat") / "zt")
    return legacy, zt, time.monotonic() - t0


@pytest.fixture(scope="module")
def fpr_run(tmp_path_factory):
    sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
    out_csv = tmp_path_factory.mktemp("fpr") / "fpr.csv"
    t0 = time.monotonic()
    ests = fpr_sweep(sc, [1, 2, 5, 10], trials=10_000, out_csv=out_csv)
    return ests, out_csv, time.monotonic() - t0


def assert_same_files(out_dir: Path, golden_dir: Path) -> None:
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == sorted(p.name for p in golden_dir.iterdir())
    for name in written:
        assert (out_dir / name).read_bytes() == (golden_dir / name).read_bytes(), name


class TestGoldenRuns:
    """Every file the shipped runs write matches the pinned copy byte for byte."""

    def test_flood_isolation(self, flood_run):
        result, _ = flood_run
        assert_same_files(result.out_dir, GOLDEN / "flood_isolation")

    def test_latency_flood_both_modes(self, latency_runs):
        legacy, zt, _ = latency_runs
        assert_same_files(legacy.out_dir, GOLDEN / "latency_flood-legacy")
        assert_same_files(zt.out_dir, GOLDEN / "latency_flood")

    def test_fpr_sweep(self, fpr_run):
        _, out_csv, _ = fpr_run
        assert out_csv.read_bytes() == (GOLDEN / "fpr_leaky.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
    def test_run_log_replays(self, name, tmp_path):
        """A pinned run's `run.log`, parsed under the name on its first line
        and run as it stands, writes every pinned file again."""
        log = (GOLDEN / name / "run.log").read_text()
        sc = parse_scenario(log, name=log.partition("\n")[0].removeprefix("# run: "))
        run(sc, out_dir=tmp_path / "out")
        assert_same_files(tmp_path / "out", GOLDEN / name)


class TestCriterion1Authentication:
    def test_auth_outcomes_and_audit_ordering(self, flood_run):
        result, elapsed = flood_run
        audit = result.audit.entries
        decisions = {}
        for entry in audit:
            if entry["action"] == "auth" and entry["ue"] not in decisions:
                decisions[entry["ue"]] = entry

        reached_granted = {
            ue: any(
                fr.per_ue[ue].auth_state in ("granted", "isolated") for fr in result.frames
            )
            for ue in (1, 2, 3)
        }
        ok = (
            all(reached_granted.values())
            and decisions[4]["outcome"] == "denied"
            and decisions[4].get("reason") not in (None, "", "ok")
        )

        actions = [(e["action"], e.get("ue")) for e in audit]
        ran_idx = next(i for i, (a, _) in enumerate(actions) if a == "verified_ran")
        grant_indices = [
            i
            for i, e in enumerate(audit)
            if e["action"] in ("auth", "reauth") and e.get("outcome") == "granted"
        ]
        ordering_ok = all(i > ran_idx for i in grant_indices)

        ok = ok and ordering_ok and elapsed < 5.0
        report(
            "criterion 1 authentication outcome",
            ok,
            f"UE1-3 granted, UE4 denied ({decisions[4].get('reason')}), "
            f"grants after verified_ran={ordering_ok}, runtime {elapsed:.2f}s < 5s",
        )


class TestCriterion2DetectionReallocation:
    def test_flag_isolation_and_reallocation(self, flood_run):
        result, elapsed = flood_run
        summary = result.summary
        onset = 0
        detection_ok = (
            summary.detection_frame is not None
            and (summary.detection_frame - onset) * 10 <= 1000  # within 10 reports
        )

        iso = summary.isolation_frame
        cap_bits = 1 * result.cell.cfg.prb_bits_per_frame  # restricted: 1 PRB
        throttled = all(
            fr.per_ue[1].served_bits <= cap_bits for fr in result.frames if fr.frame_index >= iso
        )

        def mean_mbps(ue: int, lo: int, hi: int) -> float:
            bits = [f.per_ue[ue].served_bits for f in result.frames if lo <= f.frame_index < hi]
            return sum(bits) / len(bits) / 10_000.0

        realloc_ok = True
        gains = {}
        for ue in (2, 3):
            pre = mean_mbps(ue, 0, iso)
            post = mean_mbps(ue, iso, iso + 100)
            gains[ue] = post / pre
            realloc_ok = realloc_ok and post >= 1.10 * pre

        ok = detection_ok and throttled and realloc_ok and elapsed < 10.0
        report(
            "criterion 2 detection and reallocation",
            ok,
            f"flagged at frame {summary.detection_frame} (<=1000ms), UE1 capped at "
            f"{cap_bits} bits/frame, UE2/UE3 gains {gains[2]:.2f}x/{gains[3]:.2f}x (>=1.10x), "
            f"runtime {elapsed:.2f}s < 10s",
        )


def perfbench_workload(name: str):
    """The benchmark's workload `name`, read from perfbench/workloads.py as it
    stands: its scenario text and its claim check."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


@pytest.fixture(scope="module")
def flood_isolated():
    return perfbench_workload("flood_isolated")


class TestFloodIsolatedClaim:
    # With `detection.z_sigma = 3.0`, a radio field of an honest UE's first
    # report fell outside its profile band on each of the first six seeds, and
    # that UE was isolated at frame 10. Seeds 1-30 are a fixed range besides.
    @pytest.mark.parametrize("seed", [47, 223, 264, 271, 333, 360, *range(1, 31)])
    def test_only_the_flooder_is_isolated(self, flood_isolated, seed):
        sc = parse_scenario(flood_isolated.text(seed), name=flood_isolated.name)
        assert flood_isolated.check(sc, run(sc)) == []


class TestCriterion3LatencyExceedance:
    def test_legacy_vs_zero_trust(self, latency_runs):
        legacy, zt, elapsed = latency_runs
        legacy_ok = (
            abs(legacy.summary.latency_exceedance - 0.50) <= 0.15
            and legacy.summary.peak_latency_ms > 5000.0
        )
        zt_ok = zt.summary.latency_exceedance <= 0.10

        iso = zt.summary.isolation_frame
        recovered = True
        legit = (1, 2)
        for fr in zt.frames:
            if fr.frame_index >= iso + 200:  # 2 s of simulated time after isolation
                for ue in legit:
                    lat = fr.per_ue[ue].mean_latency_ms
                    if lat is not None and lat >= 100.0:
                        recovered = False

        ok = legacy_ok and zt_ok and recovered and elapsed < 30.0
        report(
            "criterion 3 latency exceedance",
            ok,
            f"legacy {legacy.summary.latency_exceedance:.3f} in 0.50+/-0.15 with peak "
            f"{legacy.summary.peak_latency_ms:.0f}ms > 5000ms; zero-trust "
            f"{zt.summary.latency_exceedance:.3f} <= 0.10, recovered within 2s, "
            f"runtime {elapsed:.2f}s < 30s",
        )


class TestCriterion4FalsePositiveCurve:
    def test_fpr_non_increasing_with_window(self, fpr_run):
        ests, _, elapsed = fpr_run

        non_increasing = all(b.fpr <= a.fpr for a, b in zip(ests, ests[1:]))
        ci_ordered = all(b.ci_low <= a.ci_high for a, b in zip(ests, ests[1:]))
        separated = ests[-1].ci_high < ests[0].ci_low and ests[-1].fpr < ests[0].fpr

        ok = non_increasing and ci_ordered and separated and elapsed < 60.0
        curve = ", ".join(f"w{e.window_n}={e.fpr:.4f}" for e in ests)
        report(
            "criterion 4 false-positive curve",
            ok,
            f"{curve}; non-increasing with CI ordering, FPR(10) < FPR(1) with "
            f"non-overlapping CIs, runtime {elapsed:.2f}s < 60s",
        )


# ---- an exact FPR oracle, independent of the Monte Carlo sweep --------------------
#
# The benign generator draws every field independently, so P(a window of n
# reports is not flagged) is a product over the fields: Gaussian window means
# via math.erf, cqi and tx_packets (rounded, clipped normals) via a discrete
# convolution of n draws, and the one-sided throughput via the Irwin-Hall CDF.


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _p_ok_normal(stats, n: int) -> float:
    scale = stats.std / math.sqrt(n)
    below = _phi((stats.lo - stats.mean) / scale) if stats.flag_low else 0.0
    return _phi((stats.hi - stats.mean) / scale) - below


def _p_ok_rounded(stats, n: int, top: int | None) -> float:
    """P(the mean of n draws of min(top, max(0, round(N(mean, std)))) is not
    flagged). With no top, the mass more than 12 std above the mean is lumped
    at mean + 12 std; the mass more than 12 std below it is lumped likewise."""
    first = max(0, math.floor(stats.mean - 12 * stats.std))
    last = top if top is not None else math.ceil(stats.mean + 12 * stats.std)
    cdf = [_phi((k + 0.5 - stats.mean) / stats.std) for k in range(first, last)] + [1.0]
    pmf = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
    dist = [1.0]  # P(sum of the draws so far - their count * first = index)
    for _ in range(n):
        out = [0.0] * (len(dist) + len(pmf) - 1)
        for i, a in enumerate(dist):
            for j, b in enumerate(pmf):
                out[i + j] += a * b
        dist = out
    means = ((i + n * first) / n for i in range(len(dist)))
    return sum(
        p for p, mean in zip(dist, means)
        if not (mean > stats.hi or (stats.flag_low and mean < stats.lo))
    )


def _p_ok_uniform(stats, n: int, lo: float, hi: float) -> float:
    """The mean of n U(lo, hi) stays at or below stats.hi (one-sided field)."""
    x = n * (stats.hi - lo) / (hi - lo)  # the bound on a sum of n U(0, 1)
    y = n - x  # P(sum > x) = P(sum < n - x) by symmetry
    if y <= 0:
        return 1.0
    if y >= n:
        return 0.0
    tail = sum((-1) ** k * math.comb(n, k) * (y - k) ** n for k in range(math.floor(y) + 1))
    return 1.0 - tail / math.factorial(n)


def exact_fpr(profile, n: int, throughput_range: tuple[float, float]) -> float:
    f = profile.fields
    assert not f["throughput_mbps"].flag_low  # _p_ok_uniform is one-sided
    p_ok = (
        _p_ok_normal(f["snr_db"], n)
        * _p_ok_rounded(f["cqi"], n, top=15)
        * _p_ok_rounded(f["tx_packets"], n, top=None)
        * _p_ok_normal(f["tx_power_dbm"], n)
        * _p_ok_uniform(f["throughput_mbps"], n, *throughput_range)
    )
    return 1.0 - p_ok


class TestExactFprOracle:
    def test_golden_intervals_cover_the_exact_fpr(self):
        sc = load_scenario(SCENARIOS / "fpr_leaky.scn")
        with mock.patch.object(runner, "estimate_fpr") as estimate:  # capture the sweep's inputs
            fpr_sweep(sc, [1], trials=runner.FPR_MIN_TRIALS)
        (profile,), kwargs = estimate.call_args
        rows = (GOLDEN / "fpr_leaky.csv").read_text().splitlines()[1:]
        exact = {}
        for row in rows:
            window_n, _, _, ci_low, ci_high = row.split(",")
            exact[int(window_n)] = exact_fpr(profile, int(window_n), kwargs["throughput_range"])
            assert float(ci_low) <= exact[int(window_n)] <= float(ci_high), row
        assert sorted(exact) == [1, 2, 5, 10]
        assert exact[1] == pytest.approx(0.14301, abs=5e-6)
        assert exact[10] == pytest.approx(9.755e-6, rel=1e-3)


def _random_message(rng: Random) -> e2.E2Message:
    kind = rng.choice(list(MsgKind))
    cell, e2_id, seq = rng.randrange(1 << 32), rng.randrange(1 << 32), rng.randrange(1, 1 << 64)
    if kind is MsgKind.AUTH_REQUEST:
        body = AuthRequestBody(rng.randbytes(66))
    elif kind is MsgKind.AUTH_RESPONSE:
        body = e2.AuthResponseBody(
            rng.randrange(1 << 64),
            rng.choice(list(e2.AuthOutcome)),
            rng.choice(list(e2.AuthReason)),
            rng.randbytes(16),
        )
    elif kind is MsgKind.KPM_INDICATION:
        body = KpmIndicationBody(
            KPMReport(
                ue=rng.randrange(1 << 64),
                cell=rng.randrange(1 << 32),
                seq=rng.randrange(1 << 64),
                snr_db=rng.uniform(-20, 60),
                cqi=rng.randrange(16),
                tx_packets=rng.randrange(1 << 32),
                tx_power_dbm=rng.uniform(-10, 40),
                throughput_mbps=rng.uniform(0, 100),
            )
        )
    elif kind is MsgKind.SLICE_CONTROL:
        total = rng.randrange(10, 120)
        n = rng.randrange(1, 4)
        cursor, slices = 0, []
        ids = rng.sample(range(1, 1 << 16), n)
        for sid in ids:
            width = rng.randrange(1, max(2, (total - cursor) // n + 1))
            if cursor + width > total:
                break
            slices.append(SliceSpec(sid, PRBMask.from_range(cursor, width, total)))
            cursor += width
        bindings = tuple(
            (rng.randrange(1 << 64), rng.choice([s.id for s in slices]))
            for _ in range(rng.randrange(3))
        )
        body = e2.SliceControlBody(bindings=bindings, slices=tuple(slices))
    elif kind is MsgKind.SUBSCRIPTION_REQUEST:
        body = SubscriptionRequestBody(rng.randrange(1, 500) * 10)
    else:
        body = SubscriptionAckBody(rng.randrange(1 << 32))
    return e2.E2Message(kind, cell, e2_id, seq, body)


class TestCriterion5PropertySuites:
    def test_a_emitted_slice_tables_always_valid(self, flood_run):
        result, _ = flood_run
        checked = 0
        for _, body in result.slicing.emitted:
            total = body.slices[0].mask.size if body.slices else 100
            assert validate_slice_table(list(body.slices), total) == []
            assert sum(s.budget() for s in body.slices) <= 100
            checked += 1
        report(
            "criterion 5a slice tables valid on every emission", checked > 0,
            f"{checked} emitted tables, zero violations",
        )

    def test_b_codec_round_trips_ten_thousand_messages(self):
        rng = Random("acceptance/roundtrip")
        for _ in range(10_000):
            msg = _random_message(rng)
            assert e2.decode(e2.encode(msg)) == msg
        report("criterion 5b E2 round-trip", True, "10000 generated messages round-tripped")

    def test_c_served_bits_never_exceed_capacity(self, flood_run, latency_runs):
        result, _ = flood_run
        prb_bits = result.cell.cfg.prb_bits_per_frame
        tables = result.slicing.emitted
        idx = -1
        budgets: dict[int, int] = {}
        bound: dict[int, int] = {}
        for fr in result.frames:
            while idx + 1 < len(tables) and tables[idx + 1][0] <= fr.frame_index:
                idx += 1
                budgets = {s.id: s.budget() for s in tables[idx][1].slices}
                bound = dict(tables[idx][1].bindings)
            total = 0
            for ue, stats in fr.per_ue.items():
                total += stats.served_bits
                if ue in bound:
                    assert stats.served_bits <= budgets[bound[ue]] * prb_bits
                else:
                    assert stats.served_bits == 0
            assert total <= result.cell.cfg.cell_bits_per_frame
        legacy, _, _ = latency_runs
        for fr in legacy.frames:
            assert sum(s.served_bits for s in fr.per_ue.values()) <= 240_000
        report(
            "criterion 5c capacity conservation", True,
            "per-slice and per-cell served bits within capacity in both modes",
        )

    def test_d_any_single_bit_flip_denies(self, flood_run):
        result, _ = flood_run
        auth = result.auth
        token = auth.issue_token(2)
        chain = auth.credentials[2]
        blob = build_blob(token, 2, 1, 1, 0, blob_key(auth.secret, chain))
        assert auth.verify_ue(2, blob) is AuthReason.OK
        denied = 0
        for bit in range(528):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            if auth.verify_ue(2, bytes(flipped)) is not AuthReason.OK:
                denied += 1
        report(
            "criterion 5d blob bit-flip soundness", denied == 528,
            f"{denied}/528 single-bit flips denied",
        )

    def test_e_identical_runs_byte_identical(self, tmp_path):
        sc = load_scenario(SCENARIOS / "flood_isolation.scn")
        run(sc, out_dir=tmp_path / "a")
        run(sc, out_dir=tmp_path / "b")
        same = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("frames.csv", "audit.jsonl", "summary.json", "slice_changes.csv")
        )
        report("criterion 5e byte-identical reruns", same, "all metric logs identical")


class TestCriterion6ComplexityCounters:
    def test_auth_work_linear_in_factors(self, flood_run):
        from test_auth import hmac_calls_to_grant

        calls = {length: hmac_calls_to_grant(length) for length in (1, 3, 8)}
        report(
            "criterion 6 auth factor linearity", all(calls[n] == n + 1 for n in calls),
            f"hmac.new calls by factor count {calls}, one per factor plus the tag",
        )

    def test_detection_work_linear_in_fields(self):
        from test_intrusion import values_read

        reads = {k: values_read(k, 10) for k in range(1, 6)}
        report(
            "criterion 6 detection field linearity", all(reads[k] == 10 * k for k in reads),
            f"values read by field count over a 10-report window {reads}",
        )

    def test_isolation_work_independent_of_intruders(self):
        from test_slicing import slices_sent_isolating

        slices = {m: slices_sent_isolating(m) for m in (1, 5, 25)}
        constant = slices[1] == slices[5] == slices[25] == 4
        report(
            "criterion 6 isolation constant work", constant,
            f"slices sent with 1/5/25 prior intruders: {slices}",
        )
