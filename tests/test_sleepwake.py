"""Moving-threshold segmentation: boundary exactness and a full re-simulation.

The oracle below re-implements the segmentation rules naively (statistics
module, explicit loops) and is compared epoch-by-epoch against run_night on
synthetic nights, so a regression in either the vectorized path or the rule
constants shows up as a direct disagreement.
"""

import math
import statistics

import numpy as np
import pytest

from bcgsleep.errors import TooFewItems
from bcgsleep.sleepwake import (
    EPOCH_CSV_HEADER,
    SleepWakeEpoch,
    WakeState,
    classify_epoch,
    epochs_to_csv,
    moving_threshold,
    run_night,
    sleep_efficiency,
    sleep_onset_latency,
    waso,
)
from bcgsleep.synth import default_profile, generate_night

from conftest import flat_record, make_record, make_sample


def _series_with_holes(record):
    """Per-second HR as a list, None for seconds the record does not hold."""
    series = [None] * (record.last_t + 1)
    for t, hr in zip(record.t.tolist(), record.vitals[:, 0].tolist()):
        series[t] = hr
    return series


def _oracle_night(series):
    """Naive re-simulation of the whole segmentation, loops and all."""
    out = []
    n_epochs = len(series) // 30
    for index in range(n_epochs):
        start = index * 30
        window = series[start : start + 30]
        n_zero = sum(1 for v in window if v is not None and v == 0.0)
        if start < 180:
            out.append((index, WakeState.AWAKE, None))
            continue
        look = series[start - 180 : start]
        valid = [v for v in look if v is not None and v > 0.0]
        if valid:
            scalar = -1.0 if start < 360 else 2.0
            thr = statistics.fmean(valid) + scalar * statistics.pstdev(valid)
        else:
            thr = None
        n_below = sum(
            1 for v in window if v is not None and v > 0.0 and thr is not None and v < thr
        )
        asleep = thr is not None and n_below > 15 and n_zero <= 10
        out.append((index, WakeState.ASLEEP if asleep else WakeState.AWAKE, thr))
    return out


def _loop_night(series):
    """(state, threshold, n_below, n_zero, n_present) per epoch by a plain
    Python loop with the reference formula: sum(), (v - mean) ** 2 and
    math.sqrt over the valid (present, nonzero) lookback samples."""
    out = []
    for start in range(0, len(series) // 30 * 30, 30):
        thr = None
        if start >= 180:
            valid = [v for v in series[start - 180 : start] if v is not None and v > 0.0]
            if valid:
                mean = sum(valid) / len(valid)
                var = sum((v - mean) ** 2 for v in valid) / len(valid)
                thr = mean + (-1.0 if start < 360 else 2.0) * math.sqrt(var)
        present = [v for v in series[start : start + 30] if v is not None]
        n_zero = sum(1 for v in present if v == 0.0)
        n_below = sum(1 for v in present if v != 0.0 and thr is not None and v < thr)
        asleep = n_below > 15 and n_zero <= 10
        state = WakeState.ASLEEP if asleep else WakeState.AWAKE
        out.append((state, thr, n_below, n_zero, len(present)))
    return out


class TestMovingThreshold:
    def test_mean_plus_scalar_population_std(self):
        vals = [60.0, 62.0, 64.0, 58.0]
        expected = statistics.fmean(vals) + 2.0 * statistics.pstdev(vals)
        assert moving_threshold(vals, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_zeros_and_holes_excluded(self):
        assert moving_threshold([0.0, None, 60.0], -1.0) == 60.0

    def test_all_invalid_gives_none(self):
        assert moving_threshold([0.0, None, 0.0], 2.0) is None

    def test_negative_scalar_lowers(self):
        vals = [50.0, 70.0]
        assert moving_threshold(vals, -1.0) == 60.0 - statistics.pstdev(vals)


class TestScalarSchedule:
    """Lookback HR alternates 50/70 (mean 60, std 10), so an epoch's
    threshold reads 50 under scalar -1 and 80 under scalar +2."""

    def thresholds(self):
        rec = flat_record(3630)
        vitals = rec.vitals.copy()
        vitals[1::2, 0] = 70.0
        vitals[::2, 0] = 50.0
        rec = make_record(np.column_stack([rec.t, vitals]).tolist())
        return {e.start_t: e.threshold for e in run_night(rec)}

    def test_early_window_uses_minus_one(self):
        thr = self.thresholds()
        assert thr[180] == 50.0
        assert thr[330] == 50.0

    def test_late_window_uses_plus_two(self):
        thr = self.thresholds()
        assert thr[360] == 80.0
        assert thr[3600] == 80.0


class TestBoundaryExactness:
    """The four count-boundary cases, pinned exactly."""

    THR = 100.0

    def epoch(self, n_below, n_zero):
        rest = 30 - n_below - n_zero
        assert rest >= 0
        return [50.0] * n_below + [0.0] * n_zero + [150.0] * rest

    def test_exactly_15_below_is_awake(self):
        state, n_below, _, _ = classify_epoch(self.epoch(15, 0), self.THR)
        assert n_below == 15
        assert state is WakeState.AWAKE

    def test_16_below_with_few_zeros_is_asleep(self):
        state, n_below, n_zero, _ = classify_epoch(self.epoch(16, 10), self.THR)
        assert (n_below, n_zero) == (16, 10)
        assert state is WakeState.ASLEEP

    def test_exactly_10_zeros_does_not_override(self):
        state, _, n_zero, _ = classify_epoch(self.epoch(20, 10), self.THR)
        assert n_zero == 10
        assert state is WakeState.ASLEEP

    def test_11_zeros_forces_awake(self):
        state, n_below, n_zero, _ = classify_epoch(self.epoch(19, 11), self.THR)
        assert (n_below, n_zero) == (19, 11)
        assert state is WakeState.AWAKE

    def test_zero_hr_not_counted_as_below(self):
        _, n_below, n_zero, _ = classify_epoch([0.0] * 30, self.THR)
        assert (n_below, n_zero) == (0, 30)

    def test_holes_count_toward_nothing(self):
        state, n_below, n_zero, n_present = classify_epoch(
            [None] * 14 + [50.0] * 16, self.THR
        )
        assert (n_below, n_zero, n_present) == (16, 0, 16)
        assert state is WakeState.ASLEEP

    def test_undefined_threshold_is_awake(self):
        state, n_below, _, _ = classify_epoch([50.0] * 30, None)
        assert n_below == 0
        assert state is WakeState.AWAKE


class TestRunNight:
    def test_too_short_raises(self):
        with pytest.raises(TooFewItems):
            run_night(flat_record(179))

    def test_first_six_epochs_forced_awake(self):
        # HR far below any threshold the whole time
        rec = flat_record(360, hr=40.0)
        epochs = run_night(rec)
        assert all(e.state is WakeState.AWAKE for e in epochs[:6])
        assert all(e.threshold is None for e in epochs[:6])

    def test_trailing_partial_epoch_dropped(self):
        epochs = run_night(flat_record(209))
        assert len(epochs) == 6
        assert epochs[-1].start_t == 150

    def test_constant_hr_never_below(self):
        # threshold = mean - 1*0 = hr itself; strictly-below fails
        epochs = run_night(flat_record(360, hr=60.0))
        assert all(e.state is WakeState.AWAKE for e in epochs)

    def test_step_down_detected_in_early_window(self):
        # 0..179 at 60, then a drop to 50: epoch 6 sees threshold 60.
        samples = [make_sample(t, hr=60.0) for t in range(180)]
        samples += [make_sample(t, hr=50.0) for t in range(180, 210)]
        rec = make_record(samples)
        epochs = run_night(rec)
        e = epochs[6]
        assert e.threshold == pytest.approx(60.0)
        assert e.n_below == 30
        assert e.state is WakeState.ASLEEP

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_naive_resimulation(self, seed):
        record, _, _ = generate_night(
            default_profile(), duration_s=7200, seed=seed, night_id="o"
        )
        epochs = run_night(record)
        oracle = _oracle_night(_series_with_holes(record))
        assert len(epochs) == len(oracle)
        for got, (index, state, thr) in zip(epochs, oracle):
            assert got.index == index
            assert got.state is state
            if thr is None:
                assert got.threshold is None
            else:
                assert got.threshold == pytest.approx(thr, abs=1e-9)

    def test_matches_python_loop_bit_for_bit(self):
        """Twenty 2 h nights; every other one loses a 400 s block, so some
        lookbacks hold no valid sample at all."""
        holes = zeros = undefined = 0
        for seed in range(20):
            record, _, _ = generate_night(
                default_profile(), duration_s=7200, seed=seed, night_id="o"
            )
            if seed % 2:
                keep = (record.t < 3000) | (record.t >= 3400)
                record = make_record(np.column_stack([record.t, record.vitals])[keep].tolist())
            series = _series_with_holes(record)
            want = _loop_night(series)
            got = [(e.state, e.threshold, e.n_below, e.n_zero, e.n_present)
                   for e in run_night(record)]
            assert got == want, f"seed {seed}"
            assert all(type(e[1]) is float for e in got if e[1] is not None)
            holes += series.count(None)
            zeros += series.count(0.0)
            undefined += sum(1 for e in want[6:] if e[1] is None)
        assert holes and zeros and undefined

    def test_holes_shrink_the_lookback(self):
        # lookback [0, 180) has only 90 valid seconds; threshold still defined
        samples = [make_sample(t, hr=60.0) for t in range(0, 180, 2)]
        samples += [make_sample(t, hr=44.0) for t in range(180, 210)]
        rec = make_record(samples)
        e = run_night(rec)[6]
        assert e.threshold == pytest.approx(60.0)
        assert e.state is WakeState.ASLEEP


class TestSummaries:
    def mk(self, states):
        return [
            SleepWakeEpoch(i, i * 30, s, None, 0, 0, 30) for i, s in enumerate(states)
        ]

    def test_efficiency(self):
        A, S = WakeState.AWAKE, WakeState.ASLEEP
        assert sleep_efficiency(self.mk([A, S, S, S])) == 0.75

    def test_efficiency_empty_raises(self):
        with pytest.raises(TooFewItems):
            sleep_efficiency([])

    def test_onset_latency(self):
        A, S = WakeState.AWAKE, WakeState.ASLEEP
        assert sleep_onset_latency(self.mk([A, A, S, S])) == 60
        assert sleep_onset_latency(self.mk([A, A])) is None

    def test_waso(self):
        A, S = WakeState.AWAKE, WakeState.ASLEEP
        assert waso(self.mk([A, S, A, S, A])) == 60
        assert waso(self.mk([A, A, A])) == 0

    def test_csv_shape(self):
        A = WakeState.AWAKE
        lines = list(epochs_to_csv(self.mk([A])))
        assert lines[0] == EPOCH_CSV_HEADER
        assert lines[1] == "0,0,awake,,0,0"
