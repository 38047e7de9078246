"""Profiling and anomaly detection: boundary arithmetic and Monte Carlo laws."""
import math
from dataclasses import replace
from itertools import islice
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztcell.core import FRAME_MS, KPM_FIELDS, BehaviorProfile, FieldStats, KPMReport, ordered_sum
from ztcell.scenario import DetectionConfig, RadioProfile, UeSpec, parse_scenario
from ztcell.xapps import intrusion
from ztcell.xapps.intrusion import (
    FprEstimate,
    InsufficientDataError,
    NoVerdictError,
    Verdict,
    _benign_windows,
    _sample_stats,
    assess,
    build_profile,
    estimate_fpr,
    profile_generated_report,
    warmup_history,
    wilson_interval,
)

CFG = DetectionConfig()
# One UE with the default radio, packet size, report period and rate band.
BASE = parse_scenario("scenario.duration_frames = 1\nue.1.traffic = idle")


def report(tput: float, seq: int = 1, snr: float = 25.0, cqi: int = 12,
           pkts: int = 125, power: float = 20.0) -> KPMReport:
    return KPMReport(1, 1, seq, snr, cqi, pkts, power, tput)


def nominal_profile() -> BehaviorProfile:
    return BehaviorProfile(
        ue=1,
        fields={
            "snr_db": FieldStats(25.0, 1.0, 22.0, 28.0),
            "cqi": FieldStats(12.0, 1.0, 9.0, 15.0),
            "tx_packets": FieldStats(125.0, 10.0, 95.0, 155.0, flag_low=False),
            "tx_power_dbm": FieldStats(20.0, 1.0, 17.0, 23.0),
            "throughput_mbps": FieldStats(15.0, 3.0, 10.0, 20.0, flag_low=False),
        },
    )


class TestBuildProfile:
    def test_two_point_history_mean_and_sample_std(self):
        history = [report(10.0, seq=1), report(20.0, seq=2)]
        profile = build_profile(1, history, CFG)
        stats = profile.fields["throughput_mbps"]
        assert stats.mean == 15.0
        assert stats.std == pytest.approx(math.sqrt(50.0))  # n-1 sample std = 7.071
        # Accepted throughput range is pinned by policy, not by the z band.
        assert (stats.lo, stats.hi) == (10.0, 20.0)

    def test_constant_history_degenerates_to_point_range(self):
        history = [report(15.0, seq=s) for s in range(1, 6)]
        profile = build_profile(1, history, CFG)
        snr = profile.fields["snr_db"]
        assert snr.std == 0.0
        assert snr.lo == snr.hi == 25.0

    def test_sample_mean_adds_left_to_right(self):
        # Built-in sum() gives 1.0 here from Python 3.12 on (compensated
        # summation); plain left-to-right float addition loses the 1.0.
        assert _sample_stats([1e16, 1.0, -1e16])[0] == 0.0

    def test_single_report_insufficient(self):
        with pytest.raises(InsufficientDataError):
            build_profile(1, [report(15.0)], CFG)

    def test_profile_covers_all_kpm_fields(self):
        profile = build_profile(1, [report(10.0, 1), report(20.0, 2)], CFG)
        assert set(profile.fields) == {
            "snr_db", "cqi", "tx_packets", "tx_power_dbm", "throughput_mbps"
        }


class TestAssess:
    def test_legit_window_not_flagged(self):
        window = [report(15.0, seq=s) for s in range(1, 11)]
        assert not assess(nominal_profile(), window, CFG).flagged

    def test_attacker_window_flagged_on_throughput(self):
        window = [report(40.0, seq=s, pkts=125) for s in range(1, 11)]
        verdict = assess(nominal_profile(), window, CFG)
        assert verdict.flagged
        assert any(field == "throughput_mbps" for field, _, _ in verdict.offending)

    def test_window_mean_smooths_single_excursion(self):
        window = [report(9.0, seq=1), report(21.0, seq=2)]
        assert not assess(nominal_profile(), window, CFG).flagged  # mean 15

    def test_sustained_boundary_excursion_flagged(self):
        window = [report(21.0, seq=1), report(21.0, seq=2)]
        verdict = assess(nominal_profile(), window, CFG)
        assert verdict.flagged  # mean 21 lies strictly above 20

    def test_exact_boundary_not_flagged(self):
        window = [report(20.0, seq=1)]
        assert not assess(nominal_profile(), window, CFG).flagged

    def test_low_throughput_is_not_an_anomaly(self):
        # The scheduler itself throttles served volume; one-sided check.
        window = [report(0.24, seq=s, pkts=10) for s in range(1, 11)]
        assert not assess(nominal_profile(), window, CFG).flagged

    def test_radio_fields_flag_both_sides(self):
        low_snr = [report(15.0, seq=s, snr=10.0) for s in range(1, 11)]
        verdict = assess(nominal_profile(), low_snr, CFG)
        assert verdict.flagged
        assert verdict.offending[0][0] == "snr_db"

    def test_zero_reports_is_an_error(self):
        with pytest.raises(NoVerdictError):
            assess(nominal_profile(), [], CFG)

    def test_window_used_is_min_of_available_and_window(self):
        window = [report(15.0, seq=s) for s in range(1, 4)]
        assert assess(nominal_profile(), window, CFG).window_used == 3
        window = [report(15.0, seq=s) for s in range(1, 31)]
        assert assess(nominal_profile(), window, CFG).window_used == 10

    def test_assess_is_pure(self):
        window = [report(40.0, seq=s) for s in range(1, 11)]
        a = assess(nominal_profile(), window, CFG)
        b = assess(nominal_profile(), window, CFG)
        assert a == b

    @pytest.mark.parametrize("window_n", [1, 2, 5, 10])
    def test_sustained_attack_never_lost_to_smoothing(self, window_n):
        cfg = DetectionConfig(window_n=window_n)
        window = [report(40.0, seq=s) for s in range(1, window_n + 1)]
        assert assess(nominal_profile(), window, cfg).flagged


def reference_assess(profile, reports, config) -> Verdict:
    """`assess` reading each value by name and converting it with float()."""
    if not reports:
        raise NoVerdictError("no reports to assess")
    window = reports[-config.window_n :]
    offending = []
    for name, stats in profile.fields.items():
        total = 0.0
        for r in window:
            total += float(getattr(r, name))
        mean = total / len(window)
        if mean > stats.hi or (stats.flag_low and mean < stats.lo):
            offending.append((name, mean, (stats.lo, stats.hi)))
    return Verdict(profile.ue, tuple(offending), len(window))


bounds = st.floats(min_value=-1e300, max_value=1e300) | st.integers(-(2**64), 2**64)
# Ints past 2**53 round when added to a float, as float() rounds them.
values = st.floats() | st.integers(-(2**64), 2**64)


@st.composite
def field_stats(draw):
    lo, hi = sorted(draw(st.lists(bounds, min_size=2, max_size=2)))
    return FieldStats(0.0, 0.0, float(lo), float(hi), flag_low=draw(st.booleans()))


@st.composite
def profiles(draw):
    """A profile over a random subset of the KPM fields, in random order."""
    names = draw(st.permutations(KPM_FIELDS))[: draw(st.integers(1, len(KPM_FIELDS)))]
    return BehaviorProfile(ue=1, fields={name: draw(field_stats()) for name in names})


kpm_reports = st.builds(KPMReport, *([st.integers(0, 2**64)] * 3), *([values] * 5))


@pytest.mark.oracle
class TestAssessOracle:
    def test_report_fields_are_ids_then_kpm_fields(self):
        assert KPMReport._fields == ("ue", "cell", "seq", *KPM_FIELDS)

    @given(
        profiles(),
        st.integers(1, 12),
        st.lists(kpm_reports, min_size=1, max_size=25),
    )
    # Fewer reports than window_n, as many, and more: read in place, then sliced.
    @example(nominal_profile(), 3, [report(40.0, seq=s) for s in range(1, 3)])
    @example(nominal_profile(), 3, [report(40.0, seq=s) for s in range(1, 4)])
    @example(nominal_profile(), 3, [report(t, seq=s) for s, t in enumerate((99.0, 15.0, 15.0, 15.0), 1)])
    @settings(max_examples=300, deadline=None)
    def test_assess_matches_reference(self, profile, window_n, reports):
        cfg = DetectionConfig(window_n=window_n)
        before = list(reports)
        assert assess(profile, reports, cfg) == reference_assess(profile, reports, cfg)
        assert len(reports) == len(before)
        assert all(a is b for a, b in zip(reports, before))  # left as it was


OFFENDING = (("throughput_mbps", 40.0, (10.0, 20.0)),)
_VERDICT = Verdict(1, OFFENDING, 10)
VERDICT_WAYS = {
    "positional": lambda offending: Verdict(1, offending, 10),
    "keywords": lambda offending: Verdict(ue=1, offending=offending, window_used=10),
    "_make": lambda offending: Verdict._make((1, offending, 10)),
    "_replace": lambda offending: _VERDICT._replace(offending=offending),
}
OLD_VERDICT_WAYS = {
    "positional": lambda flagged, offending: Verdict(1, flagged, offending, 10),
    "keywords": lambda flagged, offending: Verdict(
        ue=1, flagged=flagged, offending=offending, window_used=10
    ),
    "_make": lambda flagged, offending: Verdict._make((1, flagged, offending, 10)),
    "_replace": lambda flagged, offending: _VERDICT._replace(flagged=flagged, offending=offending),
}


class TestVerdictFlaggedIsDerived:
    """`flagged` is read off the offending fields, so however a verdict is
    built it cannot contradict them."""

    @pytest.mark.parametrize("way", VERDICT_WAYS)
    @pytest.mark.parametrize("offending", [OFFENDING, ()], ids=["offending", "clean"])
    def test_flagged_iff_some_field_offends(self, way, offending):
        verdict = VERDICT_WAYS[way](offending)
        assert type(verdict) is Verdict and verdict == Verdict(1, offending, 10)
        assert verdict.flagged is bool(offending)

    @pytest.mark.parametrize("way", OLD_VERDICT_WAYS)
    @pytest.mark.parametrize(("flagged", "offending"), [(True, OFFENDING), (False, ())])
    def test_refuses_flagged_as_a_field(self, way, flagged, offending):
        """A caller that still passes `flagged`, even one that agrees with
        the offending fields, fails loudly: no way shifts its arguments
        into a verdict with `offending=flagged`."""
        with pytest.raises((TypeError, ValueError)):
            OLD_VERDICT_WAYS[way](flagged, offending)

    def test_flagged_cannot_be_set(self):
        with pytest.raises(AttributeError):
            _VERDICT.flagged = False
        assert _VERDICT.flagged is True


def values_read(field_count: int, window_n: int) -> int:
    """The report values one `assess` reads over the first `field_count`
    fields of the nominal profile and a full window of `window_n` reports,
    counted through each report's `__getitem__`."""
    reads = 0

    class CountingReport(KPMReport):
        __slots__ = ()

        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return super().__getitem__(i)

    fields = dict(list(nominal_profile().fields.items())[:field_count])
    window = [CountingReport(*report(15.0, seq=s)) for s in range(1, window_n + 1)]
    assess(BehaviorProfile(ue=1, fields=fields), window, DetectionConfig(window_n=window_n))
    return reads


class TestComplexity:
    @pytest.mark.parametrize("window_n", [1, 10])
    def test_work_linear_in_field_count(self, window_n):
        # Each field's mean reads each report in the window once.
        for k in range(1, len(KPM_FIELDS) + 1):
            assert values_read(k, window_n) == k * window_n


def synth_benign_report(
    spec: UeSpec, report_period_ms: int, seq: int, rng: Random,
    throughput_range: tuple[float, float],
) -> KPMReport:
    """One warm-up report, one `rng.uniform`/`rng.gauss` call per draw."""
    radio = spec.radio
    frames = report_period_ms // FRAME_MS
    bits_per_mbps = FRAME_MS * 1000  # bits one frame carries at 1 Mbps
    total_bits = ordered_sum(
        rng.uniform(spec.profile_rate_lo_mbps, spec.profile_rate_hi_mbps) * bits_per_mbps
        for _ in range(frames)
    )
    pkt_bits = spec.traffic.packet_size_bytes * 8
    return KPMReport(  # positional, in field order, which is also the draw order
        spec.ue, 0, seq,
        rng.gauss(radio.snr_mean_db, radio.snr_std_db),
        min(15, max(0, round(rng.gauss(radio.cqi_mean, radio.cqi_std)))),
        max(0, round(total_bits / pkt_bits)),
        rng.gauss(radio.tx_power_mean_dbm, radio.tx_power_std_dbm),
        rng.uniform(*throughput_range),
    )


def reference_warmup_history(
    spec: UeSpec, report_period_ms: int, config: DetectionConfig, rng: Random
) -> list[KPMReport]:
    span = (spec.profile_rate_lo_mbps, spec.profile_rate_hi_mbps)
    return [
        synth_benign_report(spec, report_period_ms, seq, rng, span)
        for seq in range(1, config.warmup_reports + 1)
    ]


def gauss_field(mean_lo: float, mean_hi: float):
    return st.tuples(st.floats(mean_lo, mean_hi), st.just(0.0) | st.floats(0.0, 5.0))


@st.composite
def warmup_ues(draw):
    """A UE and a report period: zero stds, equal rate bounds, cqi means at
    the clip edges, and negative rates, which reach the tx_packets clip. The
    UE is `BASE`'s with fields replaced, so it reaches rate bands and report
    periods the parser rejects."""
    rate_lo = draw(st.floats(-50.0, 50.0))
    rate_hi = draw(st.just(rate_lo) | st.floats(rate_lo, rate_lo + 50.0))
    (snr_mean, snr_std), (cqi_mean, cqi_std), (pow_mean, pow_std) = (
        draw(gauss_field(-10.0, 40.0)),
        draw(gauss_field(-2.0, 1.0) | gauss_field(14.0, 17.0) | gauss_field(0.0, 15.0)),
        draw(gauss_field(-10.0, 30.0)),
    )
    spec = BASE.ues[0]
    spec = replace(
        spec,
        ue=draw(st.integers(1, 64)),
        radio=RadioProfile(snr_mean, snr_std, cqi_mean, cqi_std, pow_mean, pow_std),
        traffic=replace(spec.traffic, packet_size_bytes=draw(st.integers(1, 9000))),
        profile_rate_lo_mbps=rate_lo,
        profile_rate_hi_mbps=rate_hi,
    )
    return spec, draw(st.integers(10, 1000))


@st.composite
def warmup_rngs(draw):
    """A seeded Random, half the time with `gauss_next` already set."""
    rng = Random(draw(st.integers(0, 2**32) | st.text(max_size=4)))
    if draw(st.booleans()):
        rng.gauss()
        assert rng.gauss_next is not None
    return rng


@pytest.mark.oracle
class TestWarmupMatchesReference:
    """`warmup_history` draws with `Random.uniform`'s and `Random.gauss`'s
    arithmetic written out; it must equal one call per draw, report for report."""

    @given(warmup_ues(), st.integers(2, 300), warmup_rngs())
    @settings(max_examples=150, deadline=None)
    def test_reports_and_rng_state_equal_reference(self, ue, warmup_reports, rng):
        spec, period = ue
        cfg = DetectionConfig(warmup_reports=warmup_reports)
        ref_rng = Random()
        ref_rng.setstate(rng.getstate())
        history = warmup_history(spec, period, cfg, rng)
        ref = reference_warmup_history(spec, period, cfg, ref_rng)
        assert all(type(r) is KPMReport for r in history)
        # repr tells an int field from an equal float one
        assert [tuple(map(repr, r)) for r in history] == [tuple(map(repr, r)) for r in ref]
        assert rng.getstate() == ref_rng.getstate()

    @given(warmup_ues(), st.integers(2, 60), warmup_rngs())
    @settings(max_examples=60, deadline=None)
    def test_profile_equals_reference_profile(self, ue, warmup_reports, rng):
        spec, period = ue
        cfg = DetectionConfig(warmup_reports=warmup_reports)
        history = warmup_history(spec, period, cfg, rng)
        assert repr(build_profile(spec.ue, history, cfg)) == repr(
            reference_build_profile(spec.ue, history, cfg)
        )


def reference_build_profile(ue, history, config) -> BehaviorProfile:
    """`build_profile` reading each value by name and converting it with float()."""
    fields = {}
    for name in KPM_FIELDS:
        values = [float(getattr(r, name)) for r in history]
        mean = ordered_sum(values) / len(values)
        std = math.sqrt(ordered_sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        if name == "throughput_mbps":
            lo, hi = config.rate_lo_mbps, config.rate_hi_mbps
        else:
            lo, hi = mean - config.z_sigma * std, mean + config.z_sigma * std
        fields[name] = FieldStats(mean, std, lo, hi, flag_low=name not in intrusion.TRAFFIC_FIELDS)
    return BehaviorProfile(ue=ue, fields=fields)


def leaky_profile() -> BehaviorProfile:
    history = warmup_history(BASE.ues[0], BASE.report_period_ms, CFG, Random("warmup"))
    return build_profile(1, history, CFG)


class TestEstimateFpr:
    def test_degenerate_profile_has_exactly_zero_fpr(self):
        fields = {
            name: FieldStats(s.mean, 0.0, s.mean, s.mean, flag_low=s.flag_low)
            for name, s in nominal_profile().fields.items()
        }
        profile = BehaviorProfile(ue=1, fields=fields)
        est = estimate_fpr(profile, window_n=1, trials=1000, seed=1, config=CFG,
                           throughput_range=(profile.fields["throughput_mbps"].mean,) * 2)
        assert est.fpr == 0.0

    def test_leaky_generator_window_ten_beats_window_one(self):
        profile = leaky_profile()
        one = estimate_fpr(profile, 1, 10_000, seed=3, config=CFG, throughput_range=(8.0, 22.0))
        ten = estimate_fpr(profile, 10, 10_000, seed=3, config=CFG, throughput_range=(8.0, 22.0))
        assert ten.fpr < one.fpr
        assert ten.ci_high < one.ci_low  # non-overlapping 95% intervals

    def test_monotone_smoothing_with_ci_ordering(self):
        profile = leaky_profile()
        estimates = [
            estimate_fpr(profile, w, 4000, seed=5, config=CFG, throughput_range=(8.0, 22.0))
            for w in (1, 2, 5, 10)
        ]
        for earlier, later in zip(estimates, estimates[1:]):
            assert later.ci_low <= earlier.ci_high  # never significantly increasing

    def test_concentration_inside_generator(self):
        profile = leaky_profile()
        est = estimate_fpr(profile, 20, 2000, seed=9, config=CFG, throughput_range=(12.0, 18.0))
        assert est.fpr == 0.0  # fully inside the accepted band, large window

    def test_deterministic_given_seed(self):
        profile = leaky_profile()
        a = estimate_fpr(profile, 5, 2000, seed=11, config=CFG, throughput_range=(8.0, 22.0))
        b = estimate_fpr(profile, 5, 2000, seed=11, config=CFG, throughput_range=(8.0, 22.0))
        assert a == b

    def test_min_reports_above_a_swept_window_is_no_error(self):
        # The sweep assesses full windows only, so the decision gate never applies.
        cfg = DetectionConfig(window_n=10, min_reports_before_decision=5)
        est = estimate_fpr(leaky_profile(), 1, 1000, seed=1, config=cfg, throughput_range=(8.0, 22.0))
        assert est == estimate_fpr(leaky_profile(), 1, 1000, seed=1, config=CFG, throughput_range=(8.0, 22.0))

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError):
            estimate_fpr(leaky_profile(), 1, 999, seed=1, config=CFG, throughput_range=(8.0, 22.0))


@st.composite
def sampler_profiles(draw):
    """Profiles in field order whose cqi and tx_packets means may sit at a
    clip edge, and whose stds may be zero, so every clip and every band side
    is reached."""

    def stats(mean: float, flag_low: bool = True) -> FieldStats:
        std = draw(st.just(0.0) | st.floats(0.0, 4.0))
        below, above = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        return FieldStats(mean, std, mean - below * std - 0.3, mean + above * std + 0.3, flag_low)

    rate_lo = draw(st.floats(0.0, 30.0))
    rate_hi = rate_lo + draw(st.floats(0.1, 10.0))
    return BehaviorProfile(
        ue=draw(st.integers(1, 8)),
        fields={
            "snr_db": stats(draw(st.floats(-10.0, 40.0))),
            "cqi": stats(draw(st.floats(-1.0, 1.5) | st.floats(13.5, 16.0) | st.floats(0.0, 15.0))),
            "tx_packets": stats(draw(st.floats(-1.0, 1.5) | st.floats(0.0, 200.0)), flag_low=False),
            "tx_power_dbm": stats(draw(st.floats(-10.0, 30.0))),
            "throughput_mbps": FieldStats(
                (rate_lo + rate_hi) / 2, 1.0, rate_lo, rate_hi, flag_low=False
            ),
        },
    )


throughput_ranges = st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 10.0)).map(
    lambda t: (t[0], t[0] + t[1])
)
fpr_seeds = st.integers(0, 2**32) | st.text(max_size=4)


@pytest.mark.oracle
class TestFastSamplerMatchesReference:
    """`estimate_fpr` draws its windows with `Random.gauss`'s arithmetic
    inlined; it must equal `profile_generated_report` draw for draw."""

    @given(sampler_profiles(), fpr_seeds, st.integers(1, 12), throughput_ranges)
    @settings(max_examples=40, deadline=None)
    def test_flagged_count_and_rng_state_equal_reference(self, profile, seed, window_n, span):
        trials = 1000
        cfg = DetectionConfig(window_n=window_n)
        made = []

        def recording_random(rng_seed):  # keeps estimate_fpr's Random to read its end state
            made.append(Random(rng_seed))
            return made[-1]

        with mock.patch.object(intrusion, "Random", recording_random):
            est = estimate_fpr(profile, window_n, trials, seed, cfg, span)
        (fast_rng,) = made

        ref_rng = Random(f"fpr/{seed}/{window_n}")
        flagged = 0
        for _ in range(trials):
            window = [
                profile_generated_report(profile, seq, ref_rng, span)
                for seq in range(1, window_n + 1)
            ]
            flagged += assess(profile, window, cfg).flagged
        assert est == FprEstimate(window_n, trials, flagged / trials, *wilson_interval(flagged, trials))
        assert fast_rng.getstate() == ref_rng.getstate()

    @given(sampler_profiles(), fpr_seeds, st.integers(1, 12), throughput_ranges)
    @settings(max_examples=60, deadline=None)
    def test_windows_equal_reference_reports(self, profile, seed, window_n, span):
        fast_rng, ref_rng = Random(seed), Random(seed)
        for window in islice(_benign_windows(profile, window_n, fast_rng, span), 20):
            ref = [profile_generated_report(profile, seq, ref_rng, span) for seq in range(1, window_n + 1)]
            # repr tells an int field from an equal float one
            assert [tuple(map(repr, r)) for r in window] == [tuple(map(repr, r)) for r in ref]
        assert fast_rng.getstate() == ref_rng.getstate()


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0 and hi < 5e-4

    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(2857, 10_000)
        assert lo < 0.2857 < hi
        assert hi - lo < 0.02


class TestIntrusionXapp:
    def make(self, min_reports: int = 1, window_n: int = 10):
        from random import Random

        from ztcell import e2 as e2mod
        from ztcell.ric import AuditLog, Router, Sdl, XappContext
        from ztcell.xapps.intrusion import NS_PROFILES, IntrusionXapp

        audit = AuditLog()
        router = Router(audit)
        sdl = Sdl()
        sent = []
        detection = DetectionConfig(min_reports_before_decision=min_reports, window_n=window_n)
        ctx = XappContext(router=router, sdl=sdl, audit=audit,
                          send_e2=lambda kind, body: sent.append((kind, body)))
        xapp = IntrusionXapp(replace(BASE, detection=detection), ctx)
        return xapp, sdl, audit, sent

    def deliver(self, xapp, tput: float, seq: int, pkts: int = 125):
        from ztcell import e2 as e2mod

        rep = KPMReport(1, 1, seq, 25.0, 12, pkts, 20.0, tput)
        msg = e2mod.E2Message(e2mod.MsgKind.KPM_INDICATION, 1, 1, seq, e2mod.KpmIndicationBody(rep))
        xapp.handle(msg)

    def test_subscribes_for_reports_at_init(self):
        from ztcell import e2 as e2mod

        _, _, _, sent = self.make()
        kinds = [kind for kind, _ in sent]
        assert e2mod.MsgKind.SUBSCRIPTION_REQUEST in kinds

    def test_profiles_stored_in_sdl(self):
        from ztcell.xapps.intrusion import NS_PROFILES

        xapp, sdl, _, _ = self.make()
        assert sdl.get(NS_PROFILES, "profile:1") is not None

    def test_windows_kept_in_sdl_and_bounded(self):
        from ztcell.xapps.intrusion import NS_PROFILES
        import json as j

        xapp, sdl, _, _ = self.make(window_n=3)
        for seq in range(1, 8):
            self.deliver(xapp, 15.0, seq)
        window = j.loads(sdl.get(NS_PROFILES, "window:1")[0])
        assert len(window) == 3
        assert [w["seq"] for w in window] == [5, 6, 7]

    def test_min_reports_gate(self):
        xapp, _, audit, _ = self.make(min_reports=3, window_n=3)
        self.deliver(xapp, 60.0, 1, pkts=400)
        self.deliver(xapp, 60.0, 2, pkts=400)
        assert audit.scan("intrusion_flag") == []
        self.deliver(xapp, 60.0, 3, pkts=400)
        assert len(audit.scan("intrusion_flag")) == 1
        assert xapp.flagged == {1}

    def test_verdict_routed_at_onset(self):
        from ztcell.xapps.intrusion import KIND_VERDICT

        xapp, _, audit, _ = self.make(window_n=3)
        routed = []
        xapp.ctx.router.subscribe("probe", [KIND_VERDICT], lambda msg: routed.append(msg.payload))
        for seq in range(1, 6):
            self.deliver(xapp, 60.0, seq, pkts=400)
        assert len(audit.scan("intrusion_flag")) == len(routed) == 1
        for seq in range(6, 9):  # three benign reports clear the window
            self.deliver(xapp, 15.0, seq)
        assert xapp.flagged == set()
        self.deliver(xapp, 60.0, 9, pkts=400)
        assert len(audit.scan("intrusion_flag")) == len(routed) == 2
        assert all(v.flagged and v.ue == 1 for v in routed)

    def test_benign_stream_never_flags(self):
        xapp, _, audit, _ = self.make()
        for seq in range(1, 30):
            self.deliver(xapp, 15.0, seq)
        assert audit.scan("intrusion_flag") == []
