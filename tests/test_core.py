"""Domain types: stage codes, vital validation, record invariants, gap
runs; fork_map, and the errors its workers send back; write_files."""

import dataclasses
import errno
import math
import os
import pickle
import stat
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
    spans,
    write_files,
)
from bcgsleep.errors import InvalidStageCode, NegativeVital, NonMonotonicTimestamp
from bcgsleep.ingest import parse_night, sample_line

from conftest import (claim_cpus, disk_full_after_half, make_record, make_sample,
                      record_forks)


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
    "OverlappingIntervals": (1, 2),
    "AllMissing": ("the feature files hold no windows",),
    "SchemaMismatch": ("no nodes",),
    "LengthMismatch": (3, 4),
    "ConstantInput": ("reference",),
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


def _inner_fork_map(job, t):
    return fork_map(_square, range(3), t)


def _exit_on_task_one(job, t):
    if t == 1:
        os._exit(3)
    return t


class TestSpans:
    @pytest.mark.parametrize("min_len", [1, 2, 10])
    @pytest.mark.parametrize("n", [0, 1, 7, 23])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_contiguous_runs_one_per_cpu_at_most(self, monkeypatch, cpus, n, min_len):
        claim_cpus(monkeypatch, cpus)
        got = spans(n, min_len)
        assert [lo for lo, _ in got] == [0] + [hi for _, hi in got[:-1]]
        assert got[-1][1] == n
        assert len(got) == max(1, min(cpus, n // min_len))
        if len(got) > 1:
            assert min(hi - lo for lo, hi in got) >= min_len


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
        # worker w ran the w-th of W contiguous runs of tasks
        runs = [range(n_tasks * w // workers, n_tasks * (w + 1) // workers)
                for w in range(workers)]
        assert [pid for _, pid in got] == [
            (tracked[w] if workers > 1 else os.getpid()) for w, run in enumerate(runs) for _ in run]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failed_task_in_order_wins(self, monkeypatch, tracked, cpus):
        claim_cpus(monkeypatch, cpus)
        with pytest.raises(TaskFailure) as err:
            fork_map(_fail_tasks_one_and_two, range(5))
        assert err.value.args == (1,)

    def test_dead_worker_is_one_clear_error(self, monkeypatch, tracked):
        claim_cpus(monkeypatch, 2)
        # task 1 is in worker 0's run of tasks 0 and 1
        with pytest.raises(ChildProcessError, match="worker 0 ended by exit status 3"):
            fork_map(_exit_on_task_one, range(4))
        assert len(tracked) == 2

    def test_fork_map_in_a_worker_starts_no_grandchild(self, monkeypatch, tracked):
        """A worker's own fork_map runs its tasks in a plain loop: a cohort
        report's night loads in a worker, and would otherwise fork again."""
        claim_cpus(monkeypatch, 2)
        got = fork_map(_inner_fork_map, range(2))
        assert len(tracked) == 2
        for t, inner in enumerate(got):
            assert inner == [(t * u * u, tracked[t]) for u in range(3)]

    def test_unpicklable_result_is_named(self, monkeypatch, tracked):
        claim_cpus(monkeypatch, 2)
        with pytest.raises(TypeError, match="worker 1 cannot pickle"):
            fork_map(lambda job, t: (lambda: t) if t == 1 else t, range(2))


class TestWriteFiles:
    """core.write_files: every target whole or not written at all."""

    def test_new_and_replaced_files(self, tmp_path):
        old = tmp_path / "old.txt"
        old.write_text("old bytes\n")
        write_files({old: "new ünïcode\n", tmp_path / "new.txt": ""})
        assert old.read_bytes() == "new ünïcode\n".encode("utf-8")
        assert (tmp_path / "new.txt").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "old.txt"]

    @pytest.mark.parametrize("failing", [None, 1, 2])
    def test_text_and_bytes_in_one_call(self, tmp_path, monkeypatch, failing):
        """A str target (written as UTF-8) and a bytes target are both
        whole, or, when either write fails, both absent."""
        data = bytes(range(256)) * 40
        if failing:
            disk_full_after_half(monkeypatch, from_file=failing)
            with pytest.raises(OSError):
                write_files({tmp_path / "t.txt": "ünï\n" * 900, tmp_path / "b.bin": data})
            assert list(tmp_path.iterdir()) == []
        else:
            write_files({tmp_path / "t.txt": "ünï\n" * 900, tmp_path / "b.bin": data})
            assert (tmp_path / "t.txt").read_bytes() == "ünï\n".encode("utf-8") * 900
            assert (tmp_path / "b.bin").read_bytes() == data

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_files({tmp_path / "a.txt": "x"})
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o640

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_write_leaves_old_bytes_or_no_file(self, tmp_path, monkeypatch, failing):
        """A disk that fills up while the first or the second of two texts
        is written leaves the old target as it was, the new one absent, and
        no temporary file."""
        (tmp_path / "a.txt").write_text("old a\n")
        opened = disk_full_after_half(monkeypatch, from_file=failing)
        with pytest.raises(OSError) as exc:
            write_files({tmp_path / "a.txt": "new a\n" * 100, tmp_path / "b.txt": "new b\n" * 100})
        assert exc.value.errno == errno.ENOSPC
        assert len(opened) == failing
        assert (tmp_path / "a.txt").read_text() == "old a\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_failed_replace_removes_every_new_file(self, tmp_path, monkeypatch):
        replace = os.replace

        def replace_once(src, dst):
            if dst.endswith("b.txt"):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_once)
        with pytest.raises(OSError):
            write_files({tmp_path / "a.txt": "a", tmp_path / "b.txt": "b"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_interrupt_removes_new_files(self, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        (tmp_path / "a.txt").write_text("old")
        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_files({tmp_path / "a.txt": "new"})
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old"

    def test_fifo_target_refused_untouched(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(FileExistsError, match="not a regular file"):
            write_files({tmp_path / "first.txt": "x", fifo: "y"})
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_directory_target_refused_untouched(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept").write_text("kept")
        with pytest.raises(FileExistsError, match="not a regular file"):
            write_files({target: "y"})
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in target.iterdir()] == ["kept"]

    def test_symlink_to_directory_refused(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "dir")
        with pytest.raises(FileExistsError):
            write_files({tmp_path / "link": "y"})
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.parametrize("exists", [True, False])
    def test_symlink_followed(self, tmp_path, exists):
        real = tmp_path / "sub" / "real.txt"
        real.parent.mkdir()
        if exists:
            real.write_text("old")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        write_files({link: "new"})
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "sub"]
        assert [p.name for p in real.parent.iterdir()] == ["real.txt"]
