"""Domain types: stage codes, vital validation, record invariants, gap
runs; fork_map, and the errors its workers send back."""

import dataclasses
import math
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcgsleep import errors
from bcgsleep.core import (
    MAX_NIGHT_SECONDS,
    VITAL_FIELDS,
    NightRecord,
    Stage,
    StageInterval,
    VitalsSample,
    compute_gaps,
    fork_map,
)
from bcgsleep.errors import InvalidStageCode, NegativeVital, NonMonotonicTimestamp
from bcgsleep.ingest import parse_night, sample_line

from conftest import claim_cpus, make_record, make_sample, record_forks


class TestStage:
    def test_codes_are_pinned(self):
        assert int(Stage.WAKE) == 0
        assert int(Stage.REM) == 1
        assert int(Stage.LIGHT) == 2
        assert int(Stage.DEEP) == 3

    def test_from_name_case_insensitive(self):
        assert Stage.from_name("wake") is Stage.WAKE
        assert Stage.from_name("Deep") is Stage.DEEP
        assert Stage.from_name("REM") is Stage.REM

    def test_from_name_unknown(self):
        with pytest.raises(InvalidStageCode):
            Stage.from_name("n3")

    def test_level_names(self):
        assert [s.level_name for s in Stage] == ["wake", "rem", "light", "deep"]


class TestVitalsSample:
    """Row values as a NightRecord accepts or rejects them."""

    def test_zero_hr_is_motion_marker(self):
        rec = make_record([make_sample(5, hr=0.0), make_sample(6, hr=55.0)])
        assert [s.hr for s in rec.samples] == [0.0, 55.0]

    def test_vitals_tuple_order(self):
        s = VitalsSample(t=1, hr=1.0, rr=2.0, sv=3.0, hrv=4.0, b2b=5.0)
        assert s[1:] == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert make_record([s]).vitals.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0]]

    def test_ints_coerced_to_float(self):
        s = make_record([(0, 60, 14, 70, 40, 1000)]).samples[0]
        assert isinstance(s.hr, float) and s.hr == 60.0

    @pytest.mark.parametrize("field", ["hr", "rr", "sv", "hrv", "b2b"])
    def test_negative_rejected(self, field):
        kwargs = dict(t=0, hr=60.0, rr=14.0, sv=70.0, hrv=40.0, b2b=1000.0)
        kwargs[field] = -0.5
        with pytest.raises(NegativeVital):
            make_record([VitalsSample(**kwargs)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NegativeVital):
            make_record([make_sample(0, hr=bad)])


class TestStageInterval:
    def test_end_exclusive(self):
        iv = StageInterval(Stage.LIGHT, start_t=10, duration=30)
        assert iv.end_t == 40

    @pytest.mark.parametrize("dur", [0, -5])
    def test_positive_duration_required(self, dur):
        with pytest.raises(ValueError):
            StageInterval(Stage.WAKE, start_t=0, duration=dur)


class TestNightRecord:
    def test_monotonic_timestamps_enforced(self):
        samples = [make_sample(0), make_sample(2), make_sample(2)]
        with pytest.raises(ValueError):
            make_record(samples)

    def test_repeated_t_is_non_monotonic_timestamp(self):
        """The record owns the check, so building a record and parsing a
        file fail alike."""
        samples = [make_sample(0), make_sample(2), make_sample(2)]
        with pytest.raises(NonMonotonicTimestamp) as built:
            make_record(samples)
        with pytest.raises(NonMonotonicTimestamp) as parsed:
            parse_night(map(sample_line, samples), "ndjson")
        assert str(built.value) == str(parsed.value) == "timestamp not strictly increasing at t=2"

    def test_span_and_bounds(self):
        rec = make_record([make_sample(3), make_sample(9)])
        assert rec.last_t == 9

    def test_empty_record(self):
        rec = make_record([])
        assert rec.last_t == -1

    @pytest.mark.parametrize("t", [[-1, 0, 1], [0, MAX_NIGHT_SECONDS]],
                             ids=["negative", "past-a-week"])
    def test_t_outside_a_week_rejected(self, t):
        with pytest.raises(ValueError, match="maximum night length"):
            make_record(make_sample(v) for v in t)

    def test_last_second_of_a_week_accepted(self):
        rec = make_record([make_sample(0), make_sample(MAX_NIGHT_SECONDS - 1)])
        assert rec.last_t == MAX_NIGHT_SECONDS - 1

    def test_bounds_and_gaps_are_python_ints(self):
        rec = make_record([make_sample(3), make_sample(9)])
        assert type(rec.last_t) is int
        assert all(type(v) is int for gap in rec.gaps for v in gap)
        assert rec.gaps == ((4, 5),)

    def test_columns_are_read_only(self):
        rec = make_record([make_sample(0), make_sample(1)])
        with pytest.raises(ValueError):
            rec.vitals[0, 0] = 1.0
        with pytest.raises(ValueError):
            rec.t[0] = 5

    def test_record_is_id_and_columns(self):
        assert [f.name for f in dataclasses.fields(NightRecord)] == ["night_id", "t", "vitals"]
        rec = NightRecord("n", [0, 1, 5], np.ones((3, 5)))
        assert rec.gaps == ((2, 3),)

    def test_mismatched_column_shapes_rejected(self):
        with pytest.raises(ValueError):
            NightRecord("n", np.arange(3), np.ones((2, 5)))

    @given(
        n=st.integers(1, 30),
        bad=st.sampled_from([-0.5, -1e300, math.nan, math.inf, -math.inf]),
        cells=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 4)),
                       min_size=1, max_size=4),
    )
    def test_first_bad_vital_rejected_row_major(self, n, bad, cells):
        rows = [list(make_sample(2 * t)) for t in range(n)]
        cells = sorted({(r % n, c) for r, c in cells})
        for r, c in cells:
            rows[r][1 + c] = bad
        with pytest.raises(NegativeVital) as exc:
            make_record(rows)
        row, col = cells[0]
        assert exc.value.field == VITAL_FIELDS[col]
        assert exc.value.t == 2 * row

    @given(ts=st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True),
           data=st.data())
    def test_repeated_t_rejected(self, ts, data):
        ts = sorted(ts)
        at = data.draw(st.integers(0, len(ts) - 1))
        ts.insert(at + 1, ts[at])
        with pytest.raises(ValueError, match=f"at t={ts[at]}$"):
            make_record([make_sample(t) for t in ts])


def _gaps_oracle(ts):
    """Missing-run reconstruction by scanning every second between endpoints."""
    if len(ts) < 2:
        return ()
    present = set(ts)
    runs = []
    t = ts[0]
    while t <= ts[-1]:
        if t not in present:
            start = t
            while t <= ts[-1] and t not in present:
                t += 1
            runs.append((start, t - start))
        else:
            t += 1
    return tuple(runs)


class TestComputeGaps:
    def test_no_gaps(self):
        assert compute_gaps([0, 1, 2, 3]) == ()

    def test_single_gap(self):
        assert compute_gaps([0, 1, 5, 6]) == ((2, 3),)

    def test_multiple_gaps(self):
        assert compute_gaps([10, 12, 20]) == ((11, 1), (13, 7),)

    def test_short_inputs(self):
        assert compute_gaps([]) == ()
        assert compute_gaps([7]) == ()

    @given(st.lists(st.integers(0, 400), min_size=0, max_size=80, unique=True))
    def test_matches_second_by_second_scan(self, ts):
        ts = sorted(ts)
        assert compute_gaps(ts) == _gaps_oracle(ts)


# constructor arguments of each error class in errors.py
ERROR_ARGS = {
    "BcgSleepError": ("any pipeline error",),
    "TooFewItems": (2, 3, "nights"),
    "InvalidStageCode": ("n3",),
    "MalformedRow": (5, "expected 31 columns"),
    "NonMonotonicTimestamp": (7,),
    "NegativeVital": ("hr", 12, -1.0),
    "UnknownLevel": ("n3",),
    "OverlappingIntervals": (1, 2),
    "AllMissing": ("the feature files hold no windows",),
    "RecordTooShort": (10, 300),
    "NoEpochs": (),
    "EmptyMatrix": (),
    "DegenerateMatrix": (),
    "EmptyTrainingSet": ("random forest",),
    "SchemaMismatch": ("no nodes",),
    "LengthMismatch": (3, 4),
    "ConstantInput": ("reference",),
    "DurationTooShort": (60, 600),
    "InitialConnectFailure": ("127.0.0.1:9", 2.5),
}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.BcgSleepError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_survives_pickling(cls):
    err = cls(*ERROR_ARGS[cls.__name__])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(err), err.args, vars(err))


class TaskFailure(Exception):
    pass


def _square(job, t):
    return job * t * t, os.getpid()


def _fail_tasks_one_and_two(job, t):
    """Task 1 fails late, task 2 at once: the later task fails first in time."""
    if t == 1:
        time.sleep(0.3)
        raise TaskFailure(t)
    if t == 2:
        raise TaskFailure(t)
    return t


def _exit_on_task_one(job, t):
    if t == 1:
        os._exit(3)
    return t


class TestForkMap:
    """fork_map against the plain loop, with every child and pipe checked
    gone after each call."""

    @pytest.fixture
    def tracked(self, monkeypatch):
        """The children and pipe ends made during the test, checked at its end."""
        pipes = []
        pipe = os.pipe

        def recording_pipe():
            fds = pipe()
            pipes.extend(fds)
            return fds

        monkeypatch.setattr(os, "pipe", recording_pipe)
        forks = record_forks(monkeypatch)
        yield forks
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    @pytest.mark.parametrize("n_tasks", [0, 1, 3, 7])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_results_in_task_order(self, monkeypatch, tracked, cpus, n_tasks):
        claim_cpus(monkeypatch, cpus)
        got = fork_map(_square, range(n_tasks), 3)
        assert [v for v, _ in got] == [3 * t * t for t in range(n_tasks)]
        workers = min(cpus, n_tasks)
        assert len(tracked) == (workers if workers > 1 else 0)
        # worker w ran tasks w, w + W, ...
        assert [pid for _, pid in got] == [
            (tracked[t % workers] if workers > 1 else os.getpid()) for t in range(n_tasks)]

    def test_without_fork_runs_in_process(self, monkeypatch):
        claim_cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        assert fork_map(_square, range(5), 1) == [(t * t, os.getpid()) for t in range(5)]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failed_task_in_order_wins(self, monkeypatch, tracked, cpus):
        claim_cpus(monkeypatch, cpus)
        with pytest.raises(TaskFailure) as err:
            fork_map(_fail_tasks_one_and_two, range(5))
        assert err.value.args == (1,)

    def test_dead_worker_is_one_clear_error(self, monkeypatch, tracked):
        claim_cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="worker 1 ended by exit status 3"):
            fork_map(_exit_on_task_one, range(4))
        assert len(tracked) == 2

    def test_unpicklable_result_is_named(self, monkeypatch, tracked):
        claim_cpus(monkeypatch, 2)
        with pytest.raises(TypeError, match="worker 1 cannot pickle"):
            fork_map(lambda job, t: (lambda: t) if t == 1 else t, range(2))
