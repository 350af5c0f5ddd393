"""Synthetic overnight recordings with scripted ground truth.

Nights follow a semi-Markov architecture: an initial wake bout, then
repeating Light -> Deep -> Light -> Rem cycles averaging MEAN_CYCLE_S
seconds, REM bouts lengthening and deep bouts shrinking as the night goes
on, with brief wake returns scattered between sleep bouts. Per-second
vitals are truncated-at-zero Gaussians per stage; wake seconds additionally
carry zero-HR motion bursts, which is how real recordings express movement.

Everything is a pure function of (profile, duration, seed), so a night can
serve as a reproducible oracle: the scripted stage intervals and scripted
efficiency are returned alongside the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import VITAL_FIELDS, NightRecord, Stage, StageInterval, stage_codes
from .errors import DurationTooShort
from .features import SIGNAL_COLUMNS, SIGNAL_ORDER

MIN_DURATION = 1800
MEAN_CYCLE_S = 5400

# Motion bursts per wake-hour, and each burst's length range (seconds,
# inclusive) for ordinary nights.
MOTION_BURST_RATE = 110.0
BURST_LEN = (10, 18)
# Expected dropout windows per night, their length range (seconds) and the
# interior margin that keeps the first and last samples of a night intact.
DROPOUT_RATE = 3.0
DROPOUT_LEN = (20, 120)
DROPOUT_MARGIN = 300

_SEED_MASK = (1 << 64) - 1

# Cycle composition as fractions of MEAN_CYCLE_S; REM grows and deep
# shrinks across the night.
_CYCLE_WEIGHTS = (
    (Stage.LIGHT, 0.30),
    (Stage.DEEP, 0.31),
    (Stage.LIGHT, 0.24),
    (Stage.REM, 0.15),
)
_REM_GROWTH = 0.35
_DEEP_DECAY = 0.25


@dataclass(frozen=True)
class SubjectProfile:
    """Per-stage vitals distributions.

    stage_params maps Stage -> signal name -> (mean, std). HR means must be
    ordered Deep < Light < Rem < Wake and the REM hr std must be strictly
    the largest, mirroring how heart rate behaves across real stages.
    """

    stage_params: dict[Stage, dict[str, tuple[float, float]]]

    def __post_init__(self):
        for stage in Stage:
            params = self.stage_params.get(stage)
            if params is None:
                raise ValueError(f"profile missing stage {stage.level_name}")
            for sig in SIGNAL_ORDER:
                if sig not in params:
                    raise ValueError(f"profile missing {sig} for {stage.level_name}")
                mean, std = params[sig]
                if std < 0:
                    raise ValueError(f"negative std for {sig}/{stage.level_name}")
                if mean < 0:
                    raise ValueError(f"negative mean for {sig}/{stage.level_name}")
        hr = {stage: self.stage_params[stage]["hr"] for stage in Stage}
        order = (Stage.DEEP, Stage.LIGHT, Stage.REM, Stage.WAKE)
        means = [hr[s][0] for s in order]
        if not all(a < b for a, b in zip(means, means[1:])):
            raise ValueError("hr means must satisfy Deep < Light < Rem < Wake")
        rem_std = hr[Stage.REM][1]
        others = [hr[s][1] for s in Stage if s is not Stage.REM]
        if not all(rem_std > s for s in others):
            raise ValueError("REM hr std must be strictly largest")


def default_profile() -> SubjectProfile:
    return SubjectProfile(
        stage_params={
            Stage.WAKE: {
                "hr": (72.0, 6.0), "rr": (16.0, 2.0), "sv": (70.0, 8.0),
                "b2b": (833.0, 60.0), "hrv": (35.0, 8.0),
            },
            Stage.REM: {
                "hr": (66.0, 7.0), "rr": (15.0, 2.5), "sv": (72.0, 9.0),
                "b2b": (909.0, 80.0), "hrv": (45.0, 10.0),
            },
            Stage.LIGHT: {
                "hr": (58.0, 3.0), "rr": (13.0, 1.5), "sv": (75.0, 6.0),
                "b2b": (1034.0, 55.0), "hrv": (55.0, 9.0),
            },
            Stage.DEEP: {
                "hr": (52.0, 2.0), "rr": (12.0, 1.0), "sv": (78.0, 5.0),
                "b2b": (1154.0, 45.0), "hrv": (65.0, 10.0),
            },
        },
    )


@dataclass(frozen=True)
class SynthNight:
    record: NightRecord
    intervals: tuple[StageInterval, ...]
    scripted_efficiency: float


def _sleep_bouts(rng, budget: int) -> list[tuple[Stage, int]]:
    """Cycle bouts truncated to exactly `budget` seconds of sleep."""
    bouts: list[tuple[Stage, int]] = []
    acc = 0
    cycle = 0
    while acc < budget:
        for stage, weight in _CYCLE_WEIGHTS:
            mu = weight * MEAN_CYCLE_S
            if stage is Stage.REM:
                mu *= 1.0 + _REM_GROWTH * cycle
            elif stage is Stage.DEEP:
                mu *= max(0.4, 1.0 - _DEEP_DECAY * cycle)
            dur = max(120, int(round(rng.normal(mu, 0.1 * mu))))
            if acc + dur >= budget:
                bouts.append((stage, budget - acc))
                acc = budget
                break
            bouts.append((stage, dur))
            acc += dur
        cycle += 1
    return bouts


def _intervals(seq) -> list[StageInterval]:
    """(stage, duration) bouts laid end to end from t = 0."""
    intervals = []
    start = 0
    for stage, dur in seq:
        intervals.append(StageInterval(stage=stage, start_t=start, duration=dur))
        start += dur
    return intervals


def _stage_script(rng, duration: int, wake_budget: int) -> list[StageInterval]:
    """Interval list partitioning [0, duration) with exactly wake_budget
    seconds of Wake: one long initial bout, the rest spread as returns."""
    sleep_budget = duration - wake_budget
    assert sleep_budget > 0
    wake0 = min(wake_budget, max(360, min(int(round(0.5 * wake_budget)), 3600)))
    returns = wake_budget - wake0
    bouts = _sleep_bouts(rng, sleep_budget)

    chunks: list[int] = []
    n_slots = len(bouts) - 1
    if returns > 0 and n_slots > 0:
        n_chunks = min(n_slots, max(1, int(round(returns / 180))))
        q, r = divmod(returns, n_chunks)
        chunks = [q + 1] * r + [q] * (n_chunks - r)
    slot_set = set()
    if chunks:
        slot_set = set(int(s) for s in rng.choice(n_slots, size=len(chunks), replace=False))

    seq: list[tuple[Stage, int]] = []
    if wake0 > 0:
        seq.append((Stage.WAKE, wake0))
    chunk_iter = iter(chunks)
    for i, bout in enumerate(bouts):
        seq.append(bout)
        if i in slot_set:
            seq.append((Stage.WAKE, next(chunk_iter)))
    if returns > 0 and n_slots == 0:
        seq.append((Stage.WAKE, returns))

    intervals = _intervals(seq)
    assert intervals[-1].end_t == duration
    return intervals


def _draw_signals(rng, profile: SubjectProfile, codes: np.ndarray) -> np.ndarray:
    """(duration, 5) vitals matrix; negatives are redrawn, not clipped."""
    n = codes.size
    out = np.empty((n, len(SIGNAL_ORDER)))
    for j, sig in enumerate(SIGNAL_ORDER):
        means = np.array([profile.stage_params[Stage(c)][sig][0] for c in range(4)])
        stds = np.array([profile.stage_params[Stage(c)][sig][1] for c in range(4)])
        vals = means[codes] + stds[codes] * rng.standard_normal(n)
        bad = vals < 0
        while bad.any():
            redraw = means[codes[bad]] + stds[codes[bad]] * rng.standard_normal(
                int(bad.sum())
            )
            vals[bad] = redraw
            bad = vals < 0
        out[:, j] = vals
    return out


def _apply_motion_bursts(rng, codes, signals) -> None:
    """Zero out hr during randomly placed bursts confined to wake seconds."""
    wake_seconds = np.nonzero(codes == int(Stage.WAKE))[0]
    n_bursts = int(rng.poisson(MOTION_BURST_RATE * wake_seconds.size / 3600.0))
    for _ in range(n_bursts):
        start = int(rng.integers(0, wake_seconds.size))
        length = int(rng.integers(BURST_LEN[0], BURST_LEN[1] + 1))
        hit = wake_seconds[start : start + length]
        signals[hit, 0] = 0.0


def _draw_dropouts(rng, duration: int) -> list[tuple[int, int]]:
    """Interior dropout windows as (start, length) pairs, in draw order;
    they may overlap."""
    lo, hi = DROPOUT_MARGIN, duration - 2 * DROPOUT_MARGIN
    if hi <= lo:
        return []
    windows = []
    for _ in range(int(rng.poisson(DROPOUT_RATE))):
        start = int(rng.integers(lo, hi))
        length = int(rng.integers(DROPOUT_LEN[0], DROPOUT_LEN[1] + 1))
        windows.append((start, min(length, duration - DROPOUT_MARGIN - start)))
    return windows


def _build_record(night_id: str, signals: np.ndarray, gaps) -> NightRecord:
    """The record of signals minus the seconds any (start, length) gap
    covers; overlapping gaps merge."""
    kept = np.ones(signals.shape[0], dtype=bool)
    for start, length in gaps:
        kept[start : start + length] = False
    vitals = np.empty((int(kept.sum()), len(VITAL_FIELDS)))
    vitals[:, SIGNAL_COLUMNS] = signals[kept]
    return NightRecord(night_id, np.flatnonzero(kept), vitals)


def generate_night(
    profile: SubjectProfile,
    duration_s: int,
    seed: int,
    target_efficiency: Optional[float] = None,
    night_id: str = "synth",
) -> tuple[NightRecord, list[StageInterval], float]:
    """One scripted night: the record, its true intervals, and the scripted
    efficiency (non-wake seconds over duration).

    With target_efficiency the wake budget is fixed to (1 - target) * duration
    exactly; otherwise the wake fraction is drawn from [0.08, 0.25].
    """
    if duration_s < MIN_DURATION:
        raise DurationTooShort(duration_s, MIN_DURATION)
    if target_efficiency is not None and not 0.0 < target_efficiency < 1.0:
        raise ValueError(f"target_efficiency out of (0, 1): {target_efficiency}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    if target_efficiency is None:
        wake_budget = int(round(duration_s * rng.uniform(0.08, 0.25)))
    else:
        wake_budget = int(round(duration_s * (1.0 - target_efficiency)))
    wake_budget = max(1, min(wake_budget, duration_s - 1))

    intervals = _stage_script(rng, duration_s, wake_budget)
    codes = stage_codes(intervals, duration_s)
    signals = _draw_signals(rng, profile, codes)
    _apply_motion_bursts(rng, codes, signals)
    record = _build_record(night_id, signals, _draw_dropouts(rng, duration_s))
    return record, intervals, scripted_efficiency(intervals)


def scripted_efficiency(intervals) -> float:
    """Non-wake seconds over the scripted span, which ends where the last
    interval does."""
    total = max(iv.end_t for iv in intervals)
    wake = sum(iv.duration for iv in intervals if iv.stage is Stage.WAKE)
    return 1.0 - wake / total


def generate_cohort(
    n_nights: int,
    profile: Optional[SubjectProfile] = None,
    seed: int = 0,
    duration_s: int = 28800,
    efficiency_range: tuple[float, float] = (0.70, 0.95),
) -> list[SynthNight]:
    """Nights whose scripted efficiencies step evenly across the range.

    Per-night seeds derive from (seed, index), so any night can be rebuilt
    in isolation and the cohort is order-independent.
    """
    if n_nights < 1:
        raise ValueError("need at least one night")
    profile = profile or default_profile()
    lo, hi = efficiency_range
    out = []
    for i in range(n_nights):
        frac = 0.5 if n_nights == 1 else i / (n_nights - 1)
        target = lo + (hi - lo) * frac
        night_seed = int(
            np.random.SeedSequence([seed & _SEED_MASK, i]).generate_state(1)[0]
        )
        record, intervals, eff = generate_night(
            profile,
            duration_s,
            night_seed,
            target_efficiency=target,
            night_id=f"night{i:02d}",
        )
        out.append(SynthNight(record, tuple(intervals), eff))
    return out


def generate_step_night(
    seed: int,
    duration_s: int = 10800,
    profile: Optional[SubjectProfile] = None,
) -> tuple[NightRecord, list[StageInterval], int]:
    """A night with one sharp wake-to-sleep step for onset-latency checks.

    The wake span carries a dense alternating motion pattern (every 30 s
    epoch sees at least 13 zero-HR seconds), the sleep span is burst- and
    dropout-free, and the returned onset second is drawn from
    [600, duration/2].
    """
    if duration_s < MIN_DURATION:
        raise DurationTooShort(duration_s, MIN_DURATION)
    profile = profile or default_profile()
    rng = np.random.default_rng(seed & _SEED_MASK)
    onset = int(rng.integers(600, duration_s // 2 + 1))

    intervals = _intervals([(Stage.WAKE, onset), *_sleep_bouts(rng, duration_s - onset)])
    signals = _draw_signals(rng, profile, stage_codes(intervals, duration_s))

    # Deterministic burst tiling: clean 8..12 s then burst 13..16 s, so any
    # aligned 30 s wake epoch contains one whole burst and trips the motion
    # override.
    t = 0
    while t < onset:
        t += int(rng.integers(8, 13))
        burst = int(rng.integers(13, 17))
        end = min(t + burst, onset)
        if t >= onset:
            break
        signals[t:end, 0] = 0.0
        t = end

    record = _build_record(f"step-{seed:04d}", signals, [])
    return record, intervals, onset
