"""The three benchmark workloads, run one per process by run.py.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/workloads.py --workload cohort-cli --seed 1 \
        --seconds 10 --trace 0 --work DIR --result FILE

Each workload sets up its inputs from the seed (timed, several times), then
runs whole rounds of the same operations until --seconds have passed, and
checks every round's outputs against perfbench/oracles.py. A round's
operations are timed with ``time.perf_counter``; the operations that fail
today because of known faults in the program run after the timed part of the
round and are counted in ``failed``.

With --trace 1 the set-up and the rounds run with the probes of
perfbench/probes.py installed, and the spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import hostref
import oracles
import probes
from spans import Tracer, maybe_span

from bcgsleep import (cli, devicesim, features, ingest, models, preprocess,
                      sleepwake, synth)
from bcgsleep.errors import MalformedRow

HERE = Path(__file__).resolve().parent
FIXED_SEED = 20220201  # inputs of the always-failing operations ignore --seed
MODEL_SEED = 7


def _cli(tracer, *argv, **attrs) -> tuple[int, str]:
    """Run the CLI as a user would; returns (exit code, stdout + stderr)."""
    buf = io.StringIO()
    with maybe_span(tracer, f"cli.{argv[0]}", **attrs):
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(list(argv))
    return code, buf.getvalue()


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


class Workload:
    """Shared shape: setup(), run_round(tracer), run_faulty(round), check()."""

    name = ""
    fault_seen = ""  # how the always-failing operation failed, if it did

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def run_faulty(self, r: "Round") -> None:
        pass


class Round:
    """What one round did: timed figures, operations, problems found."""

    def __init__(self):
        self.figures: dict[str, float] = {}
        self.extra: dict[str, float] = {}  # layer figures from server threads
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_s = 0.0  # the timed operations, host-normalized
        self.refs: list[float] = []  # host reference passes during the round
        self.wall = 0.0  # the whole round, as seen from outside

    def close(self, clock: hostref.Clock) -> None:
        self.round_s = clock.wall * clock.scale()
        self.refs = clock.refs

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(f"operation failed: {what}")


# ---------------------------------------------------------------------------
# cohort-cli


class CohortCli(Workload):
    """Four 8 h nights through the CLI: sleepwake and featurize per night,
    then train (10-tree forest), evaluate and report."""

    name = "cohort-cli"
    n_nights = 4
    duration = 8 * 3600

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.nights = work / "nights"
        self.out = work / "out"
        self.fixed = work / "fixed"
        self._oracle: dict[str, dict] = {}

    def setup(self) -> None:
        for d in (self.nights, self.out, self.fixed):
            d.mkdir(parents=True, exist_ok=True)
        for item in synth.generate_cohort(self.n_nights, seed=self.seed,
                                          duration_s=self.duration):
            rec = item.record
            ingest.save_night(rec, self.nights / f"{rec.night_id}.ndjson")
            _write(self.nights / f"{rec.night_id}.labels.json",
                   ingest.write_labels(rec.night_id, item.intervals))
        # feature files for the night-level split, which fails on any
        # four-night cohort of equal-length nights
        for item in synth.generate_cohort(4, seed=FIXED_SEED, duration_s=3600):
            cleaned = preprocess.clean_for_features(item.record)
            windows = features.window_night(
                cleaned, ingest.align_labels(cleaned, item.intervals))
            _write(self.fixed / f"{item.record.night_id}.features.csv",
                   "\n".join(features.windows_to_csv(windows)) + "\n")
        self._oracle.clear()

    def stems(self):
        return [f"night{i:02d}" for i in range(self.n_nights)]

    def run_round(self, tracer) -> Round:
        r = Round()
        clock = hostref.Clock()
        out = self.out
        feats = [str(out / f"{s}.features.csv") for s in self.stems()]
        model = str(out / "forest.json")

        def command(*argv):
            (code, _), _ = clock.time(_cli, tracer, *argv)
            r.op(code == 0, argv[0])

        for s in self.stems():
            command("sleepwake", "--in", str(self.nights / f"{s}.ndjson"),
                    "--out", str(out / f"{s}.epochs.csv"))
        for s, f in zip(self.stems(), feats):
            command("featurize", "--in", str(self.nights / f"{s}.ndjson"),
                    "--labels", str(self.nights / f"{s}.labels.json"), "--out", f)
        command("train", "--features", *feats, "--model", "forest",
                "--n-trees", "10", "--seed", str(MODEL_SEED), "--out", model)
        command("evaluate", "--features", *feats, "--model", model,
                "--seed", str(MODEL_SEED), "--out-dir", str(out / "eval"))
        command("report", "--night", str(self.nights / "night00.ndjson"),
                "--labels", str(self.nights / "night00.labels.json"),
                "--model", model, "--cohort-dir", str(self.nights),
                "--out-dir", str(out / "rep"))
        r.figures["pipeline_s"] = clock.wall
        r.close(clock)
        return r

    def run_faulty(self, r: Round) -> None:
        """train + evaluate with a night-level split on four equal nights.

        Fails today: split_train_test adds nights to train until train holds
        80% of the windows, so all four land in train and evaluate stops on
        an empty test set. Once mended, at least one whole night must be in
        test and the split must cover every window.
        """
        feats = sorted(str(p) for p in self.fixed.glob("*.features.csv"))
        model = str(self.out / "nb-night.json")
        flags = ("--grouping", "night-level", "--seed", str(MODEL_SEED))
        r.attempted += 1
        code, said = _cli(None, "train", "--features", *feats, "--model", "nb",
                          "--out", model, *flags)
        if code == 0:
            code, said = _cli(None, "evaluate", "--features", *feats, "--model", model,
                              "--out-dir", str(self.out / "eval-night"), *flags)
        if code != 0:
            r.failed += 1
            self.fault_seen = f"exit {code}: {said.strip()}"
            return
        doc = json.loads((self.out / "eval-night" / "metrics.json").read_text())
        rows = [_count_rows(f) for f in feats]
        if not (doc["n_test"] >= min(rows) and doc["n_train"] + doc["n_test"] == sum(rows)):
            r.problems.append(f"night-level split: n_train={doc['n_train']} "
                              f"n_test={doc['n_test']} for nights of {rows} windows")

    def _night_oracle(self, stem: str) -> dict:
        if stem not in self._oracle:
            t, vitals = oracles.parse_night_file(self.nights / f"{stem}.ndjson")
            labels = json.loads((self.nights / f"{stem}.labels.json").read_text())
            codes = oracles.labels_per_second(labels, int(t[-1]) + 1)
            self._oracle[stem] = {
                "epochs": oracles.sleepwake_epochs(t, vitals[:, 0]),
                "starts": oracles.kept_window_starts(codes),
                "filled": oracles.filled_signals(t, vitals),
            }
        return self._oracle[stem]

    def check(self, r: Round, rng: np.random.Generator) -> None:
        p = r.problems
        total_rows = 0
        for stem in self.stems():
            want = self._night_oracle(stem)
            asleep, n_below, n_zero = want["epochs"]
            lines = (self.out / f"{stem}.epochs.csv").read_text().splitlines()[1:]
            got = [ln.split(",") for ln in lines]
            if len(got) != asleep.size:
                p.append(f"{stem}: {len(got)} epochs, oracle has {asleep.size}")
            else:
                bad = [i for i, row in enumerate(got)
                       if (row[2] == "asleep") != bool(asleep[i])
                       or int(row[4]) != n_below[i] or int(row[5]) != n_zero[i]]
                if bad:
                    p.append(f"{stem}: {len(bad)} epochs differ from the threshold "
                             f"oracle, first at index {bad[0]}")
            lines = (self.out / f"{stem}.features.csv").read_text().splitlines()
            header, rows = lines[0].split(",")[:-1], lines[1:]
            total_rows += len(rows)
            starts = want["starts"]
            if len(rows) != len(starts):
                p.append(f"{stem}: {len(rows)} windows kept, brute force counts {len(starts)}")
                continue
            for i in rng.choice(len(rows), size=min(16, len(rows)), replace=False):
                vals = [float(v) for v in rows[i].split(",")[:-1]]
                ref = oracles.feature_row(want["filled"], starts[i], header)
                if not all(oracles.close(a, b) for a, b in zip(vals, ref)):
                    p.append(f"{stem}: feature row {i} (t={starts[i]}) differs from "
                             "statistics of the filled signals")
                    break
        doc = json.loads((self.out / "eval" / "metrics.json").read_text())
        if sum(map(sum, doc["confusion"])) != doc["n_test"]:
            p.append("evaluate: confusion matrix does not sum to n_test")
        if doc["n_train"] + doc["n_test"] != total_rows:
            p.append(f"evaluate: n_train + n_test = {doc['n_train'] + doc['n_test']}, "
                     f"feature files hold {total_rows}")
        if not doc["accuracy"] >= 0.90:
            p.append(f"evaluate: forest accuracy {doc['accuracy']:.4f} < 0.90")
        svgs = sorted((self.out / "rep").glob("*.svg"))
        if len(svgs) != 4:
            p.append(f"report wrote {len(svgs)} SVGs, expected 4")
        for svg in svgs:
            if not oracles.parses_as_xml(svg.read_text()):
                p.append(f"{svg.name} does not parse as XML")


def _count_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


# ---------------------------------------------------------------------------
# classifier-suite


class ClassifierSuite(Workload):
    """Four model kinds trained on three 2 h nights and applied to the fourth,
    plus one five-fold naive Bayes evaluate on a 1 h night."""

    name = "classifier-suite"
    kinds = ("forest", "tree", "knn", "nb")

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        xs, ys = [], []
        for item in synth.generate_cohort(4, seed=self.seed, duration_s=2 * 3600):
            cleaned = preprocess.clean_for_features(item.record)
            windows = features.window_night(
                cleaned, ingest.align_labels(cleaned, item.intervals))
            x, y = features.windows_to_matrix(windows)
            xs.append(x)
            ys.append(y)
        self.held_out = cleaned  # the last night
        self.x_train, self.y_train = np.vstack(xs[:3]), np.concatenate(ys[:3])
        self.x_test, self.y_test = xs[3], ys[3]
        one = synth.generate_cohort(1, seed=self.seed + 1, duration_s=3600)[0]
        cleaned = preprocess.clean_for_features(one.record)
        windows = features.window_night(cleaned, ingest.align_labels(cleaned, one.intervals))
        self.kfold_csv = self.work / "kfold.features.csv"
        _write(self.kfold_csv, "\n".join(features.windows_to_csv(windows)) + "\n")
        self.kfold_n = len(windows)

    def _train(self, kind):
        x, y = self.x_train, self.y_train
        if kind == "forest":
            return models.train_random_forest(x, y, models.ForestParams(n_trees=100),
                                              seed=MODEL_SEED)
        if kind == "tree":
            return models.train_decision_tree(x, y)
        if kind == "knn":
            return models.train_knn(x, y, k=5)
        return models.train_gaussian_nb(x, y)

    def _fit_stage(self, kind):
        path = self.work / f"{kind}.json"
        model = self._train(kind)
        models.save_model(model, path)
        loaded = models.load_model(path)
        preds = models.predict(loaded, self.x_test)
        hyp = models.predict_hypnogram(loaded, self.held_out)
        return model, loaded, path, preds, hyp

    def run_round(self, tracer) -> Round:
        r = Round()
        clock = hostref.Clock()
        self.results = {}
        for kind in self.kinds:
            stage, r.figures[f"fit_stage_s.{kind}"] = clock.time(self._fit_stage, kind)
            r.op(len(stage[3]) == len(self.y_test), f"fit stage {kind}")
            self.results[kind] = stage
        (code, _), r.figures["kfold_s"] = clock.time(
            _cli, tracer, "evaluate", "--features", str(self.kfold_csv),
            "--out-dir", str(self.work / "kfold"), "--kfold", "5",
            "--model-kind", "nb", "--seed", str(MODEL_SEED), kfold=True)
        r.op(code == 0, "evaluate --kfold 5")
        r.close(clock)
        return r

    def check(self, r: Round, rng: np.random.Generator) -> None:
        p = r.problems
        floors = {"forest": 0.90, "tree": 0.85, "knn": 0.25, "nb": 0.25}
        for kind, (model, loaded, path, preds, hyp) in self.results.items():
            codes = np.array([int(s) for s in preds])
            acc = float((codes == self.y_test).mean())
            if acc < floors[kind] or (kind in ("knn", "nb") and acc == floors[kind]):
                p.append(f"{kind}: held-out accuracy {acc:.4f} below {floors[kind]}")
            if kind == "forest" and oracles.macro_f1(self.y_test, codes) < 0.85:
                p.append("forest: held-out macro F1 below 0.85")
            sample = rng.choice(len(codes), size=min(200, len(codes)), replace=False)
            if not np.array_equal(model.predict_codes(self.x_test[sample]), codes[sample]):
                p.append(f"{kind}: reloaded model predicts differently")
            text = path.read_text(encoding="utf-8")
            if models.model_to_json(loaded) + "\n" != text:
                p.append(f"{kind}: reloaded model re-serializes to different bytes")
            self._check_hypnogram(kind, loaded, hyp, rng, p)
            if kind == "knn":
                self._check_knn(loaded, codes, rng, p)
            if kind == "nb":
                self._check_nb(loaded, p)
        doc = json.loads((self.work / "kfold" / "metrics.json").read_text())
        folds = models.kfold_indices(self.kfold_n, 5, seed=MODEL_SEED)
        joined = np.sort(np.concatenate(folds))
        if not np.array_equal(joined, np.arange(self.kfold_n)):
            p.append("k-fold test folds do not partition the windows")
        if [b["n"] for b in doc["kfold"]["folds"]] != [len(f) for f in folds]:
            p.append("k-fold fold sizes in metrics.json differ from the folds")

    def _check_hypnogram(self, kind, model, hyp, rng, p):
        t = np.array([s.t for s in self.held_out.samples])
        vit = np.array([[getattr(s, k) for k in oracles.VITALS]
                        for s in self.held_out.samples])
        n = t.size
        if len(hyp) != n:
            p.append(f"{kind}: hypnogram has {len(hyp)} seconds, night has {n}")
            return
        header = list(features.FEATURE_NAMES)
        starts = np.sort(rng.choice(n - oracles.WINDOW + 1, size=40, replace=False))
        rows = [oracles.feature_row(vit, int(s), header) for s in starts]
        want = model.predict_codes(np.array(rows))
        got = [int(hyp[s]) for s in starts]
        if list(want) != got:
            p.append(f"{kind}: hypnogram second s differs from the window at s")
        tail = {int(s) for s in hyp[n - oracles.WINDOW:]}
        if len(tail) != 1:
            p.append(f"{kind}: hypnogram tail does not repeat the last window")

    def _check_knn(self, model, codes, rng, p):
        mean, std = oracles.standardize(self.x_train)
        train = (self.x_train - mean) / std
        sample = rng.choice(len(codes), size=100, replace=False)
        nbrs = model.neighbors(self.x_test[sample])
        for q, row in zip(sample, nbrs):
            z = (self.x_test[q] - mean) / std
            dist = np.sqrt(((train - z) ** 2).sum(axis=1))
            want = np.sort(dist)[: model.k]
            if not np.allclose(np.sort(dist[row]), want, rtol=1e-9, atol=1e-9):
                p.append(f"knn: neighbours of query {q} are not the {model.k} nearest")
                return
            if oracles.knn_vote(self.y_train[row]) != codes[q]:
                p.append(f"knn: vote for query {q} breaks the tie rule")
                return

    def _check_nb(self, model, p):
        x, y = self.x_train, self.y_train
        slack = 2e-9 * float(x.var(axis=0).max())
        for i, c in enumerate(model.classes):
            sub = x[y == c]
            if not np.allclose(model.mean[i], sub.mean(axis=0), rtol=1e-12, atol=0):
                p.append(f"nb: class {c} means differ from numpy")
            if not np.allclose(model.var[i], sub.var(axis=0), rtol=1e-9, atol=slack):
                p.append(f"nb: class {c} variances differ from numpy")
            if not oracles.close(model.prior[i], sub.shape[0] / x.shape[0], 1e-12):
                p.append(f"nb: class {c} prior differs")


# ---------------------------------------------------------------------------
# stream-record


class _Stamped(threading.Event):
    """The server's finished event, noting when the script ran out."""

    at = None

    def set(self):
        self.at = time.perf_counter()
        super().set()


class StreamRecord(Workload):
    """Four 8 h nights served over loopback at tick 0 with five disconnect
    windows each, recorded, then loaded and scored."""

    name = "stream-record"
    n_nights = 4
    duration = 8 * 3600
    policy = devicesim.RetryPolicy(retry_interval=0.02, deadline=0.5)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.scripts = []
        for i, item in enumerate(synth.generate_cohort(
                self.n_nights, seed=self.seed, duration_s=self.duration)):
            rng = np.random.default_rng([self.seed, i])
            span = (item.record.last_t - 1200) // 5
            windows = [
                devicesim.DropoutWindow(600 + k * span + int(rng.integers(0, span - 60)),
                                        int(rng.integers(10, 61)), devicesim.DISCONNECT)
                for k in range(5)
            ]
            self.scripts.append(devicesim.StreamScript(item.record, tuple(windows),
                                                       tick_interval=0.0))
        # a fixed stream with one malformed line in the middle
        good = [f'{{"t":{t},"hr":60.0,"rr":14.0,"sv":70.0,"hrv":40.0,"b2b":1000.0}}'
                for t in range(600)]
        self.bad_lines = good[:300] + ["not a sample"] + good[300:]
        _write(self.work / "malformed.txt", "\n".join(self.bad_lines) + "\n")

    def _record(self, script, out):
        """Serve and record one night; returns (result, serve s, end-wait s)."""
        t0 = time.perf_counter()
        server = devicesim.serve_stream(script, "127.0.0.1:0")
        # no sample is sent before the recorder connects, so the server
        # cannot have finished yet
        server.finished = _Stamped()
        try:
            res = devicesim.record_stream(server.endpoint, out, self.policy)
            t1 = time.perf_counter()
        finally:
            server.stop()
        if server.finished.at is None:
            return None, 0.0, 0.0
        return res, server.finished.at - t0, t1 - server.finished.at

    def _analyse(self, out, night_id):
        return sleepwake.run_night(ingest.load_night(out, night_id=night_id))

    def run_round(self, tracer) -> Round:
        r = Round()
        clock = hostref.Clock()
        serve = wait = analysis = 0.0
        samples = 0
        self.results = []
        for i, script in enumerate(self.scripts):
            out = self.work / f"rec{i}.ndjson"
            res, serve_s, wait_s = self._record(script, out)
            r.op(res is not None, f"record night {i}: server finished the script")
            if res is None:
                continue
            serve += serve_s
            wait += wait_s
            samples += res.n_samples
            clock.add(serve_s)
            epochs, wall = clock.time(self._analyse, out, f"rec{i}")
            analysis += wall
            r.op(len(epochs) > 0, f"epochs night {i}")
            self.results.append((script, out, res, epochs))
        r.figures["stream_samples_per_s"] = samples / serve if serve else 0.0
        r.figures["recording_to_epochs_s"] = analysis / len(self.scripts)
        r.extra = {"devicesim.serve_s": serve, "devicesim.end_wait_s": wait}
        r.close(clock)
        return r

    def run_faulty(self, r: Round) -> None:
        """Record a sender whose stream holds one malformed line.

        Fails today: record_stream raises JSONDecodeError on the line it has
        already queued to disk, writes no gap sidecar, and leaves a file that
        load_night rejects. Once mended, the recording must load and hold
        every well-formed sample.
        """
        out = self.work / "malformed.ndjson"
        for stale in (out, Path(f"{out}.gaps.json")):
            stale.unlink(missing_ok=True)
        r.attempted += 1
        sender = subprocess.Popen(
            [sys.executable, str(HERE / "badsender.py"), str(self.work / "malformed.txt")],
            stdout=subprocess.PIPE, text=True)
        try:
            port = int(sender.stdout.readline())  # a sender that cannot start ends the run
        except ValueError:
            sender.kill()
            sender.wait()
            raise
        try:
            devicesim.record_stream(f"127.0.0.1:{port}", out, self.policy)
        except (ValueError, OSError, devicesim.InitialConnectFailure) as exc:
            r.failed += 1
            self.fault_seen = self._fault_signature(out, exc)
            return
        finally:
            try:
                sender.wait(timeout=30)
            except subprocess.TimeoutExpired:
                sender.kill()
                sender.wait()
            sender.stdout.close()
        try:
            rec = ingest.load_night(out)
        except (MalformedRow, ValueError) as exc:
            r.problems.append(f"malformed-line recording does not load: {exc}")
            return
        want = [json.loads(ln)["t"] for ln in self.bad_lines if ln.startswith("{")]
        if [s.t for s in rec.samples] != want:
            r.problems.append("malformed-line recording lost well-formed samples")

    @staticmethod
    def _fault_signature(out: Path, exc: Exception) -> str:
        """What the failed malformed-line session raised and left behind."""
        seen = [f"record_stream raised {type(exc).__name__}"]
        seen.append("gap sidecar written" if Path(f"{out}.gaps.json").exists()
                    else "no gap sidecar")
        try:
            ingest.load_night(out)
            seen.append("partial file loads")
        except MalformedRow as err:
            seen.append(f"load_night: MalformedRow: {err}")
        return "; ".join(seen)

    def check(self, r: Round, rng: np.random.Generator) -> None:
        p = r.problems
        for script, out, res, epochs in self.results:
            src = script.source
            t_src = np.array([s.t for s in src.samples])
            v_src = np.array([[getattr(s, k) for k in oracles.VITALS] for s in src.samples])
            dropped = np.zeros(t_src.size, dtype=bool)
            for w in script.dropout_windows:
                dropped |= (t_src >= w.start_t) & (t_src < w.end_t)
            t_rec, v_rec = oracles.parse_night_file(out)
            if not np.array_equal(t_rec, t_src[~dropped]):
                p.append(f"{out.name}: timestamps differ from source minus dropouts")
                continue
            if not np.array_equal(v_rec.view(np.uint64), v_src[~dropped].view(np.uint64)):
                p.append(f"{out.name}: vitals are not bit-equal to the source")
            side = json.loads(Path(res.sidecar_path).read_text())
            want = oracles.merge_intervals(
                list(src.gaps) + [(w.start_t, w.length) for w in script.dropout_windows])
            if [tuple(g) for g in side["gaps"]] != want:
                p.append(f"{out.name}: sidecar gaps differ from source gaps and dropouts")
            asleep, n_below, n_zero = oracles.sleepwake_epochs(t_rec, v_rec[:, 0])
            if (len(epochs) != asleep.size
                    or [e.asleep for e in epochs] != asleep.tolist()
                    or [e.n_below for e in epochs] != n_below.tolist()
                    or [e.n_zero for e in epochs] != n_zero.tolist()):
                p.append(f"{out.name}: epochs differ from the threshold oracle")


WORKLOADS = {w.name: w for w in (CohortCli, ClassifierSuite, StreamRecord)}


# ---------------------------------------------------------------------------
# driver side of one workload process


def run(workload: str, seed: int, seconds: float, trace: bool, setups: int,
        work: Path) -> dict:
    wl = WORKLOADS[workload](work, seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        probes.install(tracer)
    clock = hostref.Clock()
    setup_walls = []
    for _ in range(setups):
        t0 = time.perf_counter()
        with maybe_span(tracer, "setup") as setup_root:
            wl.setup()
        setup_walls.append(time.perf_counter() - t0)
        clock.add(setup_walls[-1])

    rng = np.random.default_rng([seed, 99])
    rounds: list[Round] = []
    roots = []
    problems: list[str] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with maybe_span(tracer, "round") as root:
            r = wl.run_round(tracer)
        r.wall = time.perf_counter() - t0
        roots.append(root)
        if tracer is not None:
            tracer.uninstall()  # the failing operations and checks stay untraced
        wl.run_faulty(r)
        wl.check(r, rng)
        if tracer is not None:
            probes.install(tracer)
        if not rounds:  # later rounds reuse the heap, so one round sets the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(r)
        problems.extend(r.problems)

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "round_walls": [r.wall for r in rounds],
        "round_refs": [r.refs for r in rounds],
        "problems": problems[:20],
        "fault_seen": wl.fault_seen,
        "figures": {k: statistics.median([r.figures[k] for r in rounds]) for k in rounds[0].figures},
    }
    result["figures"]["setup_wall_s"] = statistics.median(setup_walls)
    if tracer is None:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_walls) * clock.scale(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (statistics.median([r.round_s for r in rounds]), "s"),
        }
    else:
        tracer.uninstall()
        extra = {k: statistics.median([r.extra[k] for r in rounds]) for k in rounds[0].extra}
        extra.update(result["figures"])
        result["metrics"] = probes.layer_metrics(tracer, setup_root, roots, extra)
        result["trace_file"] = str(work / "trace.json")
        tracer.dump(work / "trace.json")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setups", type=int, required=True,
                    help="set-ups to time; the last one's inputs are used")
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    args = ap.parse_args(argv)

    import bcgsleep
    src = (Path.cwd() / "src").resolve()
    if src not in Path(bcgsleep.__file__).resolve().parents:
        print(f"bcgsleep imported from {bcgsleep.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.setups,
                 Path(args.work))
    tmp = f"{args.result}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
