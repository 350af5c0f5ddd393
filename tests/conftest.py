import base64
import os
from pathlib import Path

import hypothesis
import numpy as np

from bcgsleep import models
from bcgsleep.core import NightRecord, VitalsSample

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("ci")


def checkout_env():
    """The environment for a child Python that must import this checkout's
    bcgsleep, whatever PYTHONPATH the test run itself was given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def claim_cpus(monkeypatch, n):
    """Make core.usable_cpus() report n CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def record_forks(monkeypatch):
    """A list that collects the pid of every child os.fork starts from now on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def reencode(blob, fn):
    """A model document array entry {data, dtype, shape} for fn(its decoded
    array), laid out the same way but with the new array's own dtype string,
    which need not be one a model document allows."""
    a = fn(models._array(blob, blob["dtype"], "test array"))
    return {"data": base64.b64encode(a.tobytes()).decode("ascii"),
            "dtype": a.dtype.str, "shape": list(a.shape)}


def make_sample(t, hr=60.0, rr=14.0, sv=70.0, hrv=40.0, b2b=1000.0):
    return VitalsSample(t=t, hr=hr, rr=rr, sv=sv, hrv=hrv, b2b=b2b)


def make_record(rows, night_id="n"):
    """A NightRecord from (t, hr, rr, sv, hrv, b2b) rows, such as make_sample
    results; the record converts and checks the values."""
    rows = [tuple(r) for r in rows]
    t = np.array([r[0] for r in rows], dtype=np.int64)
    vitals = np.array([r[1:] for r in rows]).reshape(len(rows), 5)
    return NightRecord(night_id=night_id, t=t, vitals=vitals)


def flat_record(n, hr=60.0, night_id="test", missing=()):
    """A constant-vitals record over [0, n) with selected seconds dropped."""
    missing = set(missing)
    return make_record(
        (make_sample(t, hr=hr) for t in range(n) if t not in missing),
        night_id=night_id,
    )
