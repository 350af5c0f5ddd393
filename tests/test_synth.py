"""Synthetic night generator: partitions, budgets, distributions, determinism."""

import numpy as np
import pytest

from bcgsleep.core import Stage, compute_gaps
from bcgsleep.errors import DurationTooShort
from bcgsleep.synth import (
    DROPOUT_MARGIN,
    SubjectProfile,
    default_profile,
    generate_cohort,
    generate_night,
    generate_step_night,
)


def stage_seconds(intervals):
    out = {s: 0 for s in Stage}
    for iv in intervals:
        out[iv.stage] += iv.duration
    return out


class TestProfile:
    def test_default_orderings(self):
        p = default_profile()
        hr = {s: p.stage_params[s]["hr"][0] for s in Stage}
        assert hr[Stage.WAKE] > hr[Stage.REM] > hr[Stage.LIGHT] > hr[Stage.DEEP]
        stds = {s: p.stage_params[s]["hr"][1] for s in Stage}
        assert stds[Stage.REM] == max(stds.values())  # REM is the noisiest

    def test_validation(self):
        p = default_profile()
        bad = {s: dict(p.stage_params[s]) for s in Stage}
        del bad[Stage.DEEP]["hrv"]
        with pytest.raises(ValueError):
            SubjectProfile(stage_params=bad)


class TestGenerateNight:
    def test_too_short_rejected(self):
        with pytest.raises(DurationTooShort):
            generate_night(default_profile(), duration_s=1799, seed=0)

    def test_intervals_partition_duration(self):
        record, intervals, _ = generate_night(default_profile(), 7200, seed=3)
        t = 0
        for iv in intervals:
            assert iv.start_t == t
            t = iv.end_t
        assert t == 7200

    def test_wake_budget_exact_for_target(self):
        duration, target = 14400, 0.85
        record, intervals, eff = generate_night(
            default_profile(), duration, seed=1, target_efficiency=target
        )
        wake = stage_seconds(intervals)[Stage.WAKE]
        assert wake == round(duration * (1 - target))
        assert eff == pytest.approx(1 - wake / duration)

    def test_scripted_efficiency_is_non_wake_fraction(self):
        _, intervals, eff = generate_night(default_profile(), 7200, seed=9)
        secs = stage_seconds(intervals)
        non_wake = sum(v for s, v in secs.items() if s is not Stage.WAKE)
        assert eff == pytest.approx(non_wake / 7200)

    def test_same_seed_reproduces_exactly(self):
        a = generate_night(default_profile(), 3600, seed=42)
        b = generate_night(default_profile(), 3600, seed=42)
        assert a[0].samples == b[0].samples
        assert a[1] == b[1]
        c = generate_night(default_profile(), 3600, seed=43)
        assert c[0].samples != a[0].samples

    def test_gaps_match_missing_timestamps(self):
        record, _, _ = generate_night(default_profile(), 14400, seed=5)
        ts = [s.t for s in record.samples]
        assert record.gaps == compute_gaps(ts)
        for start, length in record.gaps:
            assert start >= DROPOUT_MARGIN
            assert start + length <= 14400 - DROPOUT_MARGIN

    def test_signal_means_near_profile(self):
        profile = default_profile()
        record, intervals, _ = generate_night(profile, 28800, seed=11)
        per_second = {}
        for iv in intervals:
            for t in range(iv.start_t, iv.end_t):
                per_second[t] = iv.stage
        by_stage = {s: [] for s in Stage}
        for s in record.samples:
            if s.hr > 0:
                by_stage[per_second[s.t]].append(s)
        for stage in (Stage.REM, Stage.LIGHT, Stage.DEEP):
            group = by_stage[stage]
            n = len(group)
            assert n > 500
            for sig in ("hr", "rr", "sv", "hrv", "b2b"):
                mean, std = profile.stage_params[stage][sig]
                got = np.mean([getattr(s, sig) for s in group])
                # truncation at zero is negligible for these profiles
                assert abs(got - mean) < 4 * std / np.sqrt(n), (stage, sig)

    def test_motion_bursts_only_in_wake(self):
        record, intervals, _ = generate_night(default_profile(), 14400, seed=2)
        per_second = {}
        for iv in intervals:
            for t in range(iv.start_t, iv.end_t):
                per_second[t] = iv.stage
        zero_stages = {per_second[s.t] for s in record.samples if s.hr == 0.0}
        assert zero_stages <= {Stage.WAKE}
        assert Stage.WAKE in zero_stages  # bursts actually occurred

    def test_rem_bouts_grow_across_cycles(self):
        _, intervals, _ = generate_night(
            default_profile(), 28800, seed=4, target_efficiency=0.9
        )
        rem = [iv.duration for iv in intervals if iv.stage is Stage.REM]
        # the final bout may be truncated by the sleep budget; compare the
        # first full bout against the later ones
        assert len(rem) >= 3
        assert max(rem[1:]) > rem[0]


class TestGenerateCohort:
    def test_efficiencies_step_across_range(self):
        nights = generate_cohort(8, seed=0, duration_s=3600)
        targets = np.linspace(0.70, 0.95, 8)
        for night, target in zip(nights, targets):
            assert night.scripted_efficiency == pytest.approx(target, abs=1 / 3600)
        assert [n.record.night_id for n in nights] == [
            f"night{i:02d}" for i in range(8)
        ]

    def test_deterministic_and_order_independent(self):
        a = generate_cohort(4, seed=7, duration_s=3600)
        b = generate_cohort(4, seed=7, duration_s=3600)
        for na, nb in zip(a, b):
            assert na.record.samples == nb.record.samples
        # any night can be rebuilt alone from its derived seed
        night_seed = int(np.random.SeedSequence([7, 2]).generate_state(1)[0])
        rebuilt, _, _ = generate_night(
            default_profile(), 3600, night_seed,
            target_efficiency=0.70 + (0.95 - 0.70) * (2 / 3),
            night_id="night02",
        )
        assert rebuilt.samples == a[2].record.samples

    def test_single_night_uses_midpoint(self):
        (night,) = generate_cohort(1, seed=1, duration_s=3600)
        assert night.scripted_efficiency == pytest.approx(0.825, abs=1 / 3600)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_cohort(0)


class TestStepNight:
    @pytest.mark.parametrize("seed", [0, 3, 12])
    def test_onset_in_documented_range(self, seed):
        _, _, onset = generate_step_night(seed, duration_s=10800)
        assert 600 <= onset <= 5400

    def test_wake_epochs_all_carry_dense_zeros(self, ):
        record, _, onset = generate_step_night(5, duration_s=10800)
        hr = {s.t: s.hr for s in record.samples}
        for start in range(0, onset - 30 + 1, 30):
            zeros = sum(1 for t in range(start, start + 30) if hr[t] == 0.0)
            assert zeros > 10, f"epoch at {start} has only {zeros} zeros"

    def test_sleep_span_clean(self):
        record, _, onset = generate_step_night(6, duration_s=10800)
        assert all(s.hr > 0.0 for s in record.samples if s.t >= onset)
        assert record.gaps == ()

    def test_deterministic(self):
        a = generate_step_night(9)
        b = generate_step_night(9)
        assert a[0].samples == b[0].samples
        assert a[2] == b[2]

    def test_too_short(self):
        with pytest.raises(DurationTooShort):
            generate_step_night(0, duration_s=600)
