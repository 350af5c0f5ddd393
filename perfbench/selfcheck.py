"""Show that every output check of the workloads can fail.

From the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/selfcheck.py [--seed N]

Runs one round of each workload, confirms the checks pass on the real
outputs, then perturbs one output at a time and confirms that the check
meant for it reports a problem. Exits 1 if a perturbation goes unnoticed.
Takes about a minute; it is not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text()))


def _edit_line(path: Path, index: int, fn) -> None:
    lines = path.read_text().splitlines()
    lines[index] = fn(lines[index])
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _flip_state(row: str) -> str:
    cells = row.split(",")
    cells[2] = "awake" if cells[2] == "asleep" else "asleep"
    return ",".join(cells)


def _bump_cell(row: str, col: int) -> str:
    cells = row.split(",")
    cells[col] = str(int(cells[col]) + 1)
    return ",".join(cells)


def _nudge_features(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[0] = repr(float(cells[0]) * (1 + 1e-6))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _drop_line(text: str, index: int) -> str:
    lines = text.splitlines()
    del lines[index]
    return "\n".join(lines) + "\n"


def _nudge_vital(line: str) -> str:
    obj = json.loads(line)
    obj["rr"] = float(np.nextafter(obj["rr"], np.inf))
    return json.dumps(obj, separators=(",", ":"))


def cohort_cases(wl):
    out = wl.out
    return [
        ("epoch state flipped", lambda: _edit_line(out / "night01.epochs.csv", 200, _flip_state)),
        ("epoch n_below changed", lambda: _edit_line(out / "night02.epochs.csv", 300,
                                                     lambda r: _bump_cell(r, 4))),
        ("epoch n_zero changed", lambda: _edit_line(out / "night03.epochs.csv", 10,
                                                    lambda r: _bump_cell(r, 5))),
        ("feature row dropped", lambda: _edit(out / "night00.features.csv",
                                              lambda t: _drop_line(t, 5))),
        ("feature values nudged", lambda: _edit(out / "night01.features.csv", _nudge_features)),
        ("confusion sum changed", lambda: _edit_json(
            out / "eval" / "metrics.json",
            lambda d: d["confusion"][0].__setitem__(0, d["confusion"][0][0] + 1))),
        ("n_train changed", lambda: _edit_json(
            out / "eval" / "metrics.json", lambda d: d.__setitem__("n_train", d["n_train"] - 1))),
        ("accuracy under floor", lambda: _edit_json(
            out / "eval" / "metrics.json", lambda d: d.__setitem__("accuracy", 0.85))),
        ("svg truncated", lambda: _edit(out / "rep" / "hypnogram_pair.svg",
                                        lambda t: t[: len(t) // 2])),
    ]


def classifier_cases(wl):
    def preds(kind, fn):
        model, loaded, path, p, hyp = wl.results[kind]
        wl.results[kind] = (model, loaded, path, fn(p), hyp)

    def hyp(kind, fn):
        model, loaded, path, p, h = wl.results[kind]
        wl.results[kind] = (model, loaded, path, p, fn(h))

    def knn_rows():
        wl.results["knn"][1].x_std[::7] += 0.3

    def nb_var():
        wl.results["nb"][1].var[1, 4] *= 1.001

    from bcgsleep.core import Stage
    return [
        ("forest predictions all wake", lambda: preds("forest", lambda p: [Stage.WAKE] * len(p))),
        ("knn vote changed", lambda: preds("knn", lambda p: [Stage((int(s) + 1) % 4) for s in p])),
        ("knn training rows moved", knn_rows),
        ("nb variance changed", nb_var),
        ("tree model file edited", lambda: _edit(wl.results["tree"][2],
                                                 lambda t: t.replace('"max_depth":20', '"max_depth":19'))),
        ("forest hypnogram reversed", lambda: hyp("forest", lambda h: h[::-1])),
        ("k-fold sizes changed", lambda: _edit_json(
            wl.work / "kfold" / "metrics.json",
            lambda d: d["kfold"]["folds"][0].__setitem__("n", d["kfold"]["folds"][0]["n"] + 1))),
    ]


def stream_cases(wl):
    def epochs():
        script, out, res, ep = wl.results[1]
        flipped = list(ep)
        i = next(k for k, e in enumerate(ep) if e.asleep)
        flipped[i] = type(ep[i])(ep[i].index, ep[i].start_t, type(ep[i].state)("awake"),
                                 ep[i].threshold, ep[i].n_below, ep[i].n_zero, ep[i].n_present)
        wl.results[1] = (script, out, res, flipped)

    return [
        ("recorded line dropped", lambda: _edit(wl.results[0][1], lambda t: _drop_line(t, 1000))),
        ("recorded vital off by one ulp", lambda: _edit_line(wl.results[2][1], 500, _nudge_vital)),
        ("sidecar gap dropped", lambda: _edit_json(
            Path(wl.results[3][2].sidecar_path), lambda d: d["gaps"].pop())),
        ("epoch state flipped", epochs),
    ]


CASES = {"cohort-cli": cohort_cases, "classifier-suite": classifier_cases,
         "stream-record": stream_cases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    missed = 0
    scratch = Path.cwd() / ".bench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        for name, cases in CASES.items():
            wl = workloads.WORKLOADS[name](tmp / name, args.seed)
            wl.setup()
            r = wl.run_round(None)
            wl.run_faulty(r)
            wl.check(r, np.random.default_rng(0))
            print(f"{name}: {r.attempted} operations, {r.failed} failed as known, "
                  f"checks {'pass' if not r.problems else 'FAIL: ' + '; '.join(r.problems)}")
            if r.problems:
                missed += 1
                continue
            snapshot = tmp / f"{name}.snapshot"
            shutil.copytree(wl.work, snapshot)
            saved = copy.copy(getattr(wl, "results", None))  # in-memory outputs
            for label, perturb in cases(wl):
                perturb()
                probe = workloads.Round()
                wl.check(probe, np.random.default_rng(0))
                caught = bool(probe.problems)
                missed += not caught
                print(f"  {label:32s} {'caught: ' + '; '.join(probe.problems) if caught else 'MISSED'}")
                shutil.rmtree(wl.work)
                shutil.copytree(snapshot, wl.work)
                if saved is not None:
                    wl.results = type(saved)(saved)
                    _reload_models(wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("every perturbation caught" if not missed else f"{missed} perturbations missed")
    return 1 if missed else 0


def _reload_models(wl) -> None:
    """Undo in-memory model edits by reloading the restored model files."""
    if isinstance(wl.results, dict):
        from bcgsleep import models
        for kind, (model, _, path, p, h) in wl.results.items():
            wl.results[kind] = (model, models.load_model(path), path, p, h)


if __name__ == "__main__":
    sys.exit(main())
