"""The ten release acceptance checks.

Each test prints one verdict line straight to the terminal (bypassing pytest
capture) before asserting, so every run shows an auditable PASS/FAIL per
criterion. Tolerances are pinned in the assertions, not configurable.
"""

import json
import math
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import checkout_env, flat_record
from bcgsleep.cli import main
from bcgsleep.core import Stage, compute_gaps
from bcgsleep.devicesim import RetryPolicy, StreamScript, record_stream, serve_stream
from bcgsleep.evaluation import accuracy, confusion_matrix, macro_f1, pearson_r
from bcgsleep.features import (
    FeatureTable,
    compute_stats,
    pca_explained_variance,
    window_night,
    windows_to_matrix,
)
from bcgsleep.ingest import align_labels, load_night
from bcgsleep.models import (
    ForestParams,
    SplitSpec,
    TreeParams,
    predict,
    split_train_test,
    train_decision_tree,
    train_gaussian_nb,
    train_knn,
    train_random_forest,
)
from bcgsleep.preprocess import clean_for_features
from bcgsleep.sleepwake import (
    WakeState,
    classify_epoch,
    run_night,
    sleep_efficiency,
    sleep_onset_latency,
)
from bcgsleep.synth import generate_cohort, generate_step_night


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_01_step_night_onset_fidelity(capsys):
    """20 scripted step nights: onset within one 30 s epoch for >= 18, < 5 s."""
    t0 = time.perf_counter()
    hits = 0
    worst = 0
    for seed in range(20):
        record, _, onset = generate_step_night(seed)
        detected = sleep_onset_latency(run_night(record))
        err = abs(detected - onset) if detected is not None else math.inf
        worst = max(worst, err)
        if err <= 30:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"onset within 30 s on {hits}/20 nights (worst err {worst:.0f} s) "
             f"in {elapsed:.2f} s")


def test_02_efficiency_concordance(capsys):
    """Cohort r >= 0.9; pearson_r at r=0.897, n=8 gives p = 0.0025 +- 0.0005."""
    cohort = generate_cohort(8, seed=0, duration_s=28800)
    scripted = [n.scripted_efficiency for n in cohort]
    detected = [sleep_efficiency(run_night(n.record)) for n in cohort]
    r, _ = pearson_r(scripted, detected)

    # exact-r construction: y = r*xu + sqrt(1-r^2)*eu with eu _|_ xu, both unit
    rng = np.random.default_rng(97)
    x = rng.normal(size=8)
    xc = x - x.mean()
    xu = xc / np.linalg.norm(xc)
    e = rng.normal(size=8)
    e -= e.mean()
    e -= (e @ xu) * xu
    y = 0.897 * xu + math.sqrt(1.0 - 0.897**2) * (e / np.linalg.norm(e))
    r_point, p_point = pearson_r(x, y)
    assert abs(r_point - 0.897) < 1e-12

    ok = r >= 0.9 and abs(p_point - 0.0025) <= 0.0005
    _verdict(capsys, 2, ok,
             f"cohort r={r:.4f} (>=0.9); p(r=0.897, n=8)={p_point:.6f} "
             f"in 0.0025+-0.0005")


def test_03_threshold_rule_exactness(capsys):
    """Boundary epochs around the 15-below and 10-zero limits."""
    thr = 100.0

    def state(n_below, n_zero):
        hr = [50.0] * n_below + [0.0] * n_zero + [150.0] * (30 - n_below - n_zero)
        return classify_epoch(hr, thr)[0]

    checks = [
        (state(15, 0) is WakeState.AWAKE, "15/30 below -> awake"),
        (state(16, 10) is WakeState.ASLEEP, "16 below, 10 zeros -> asleep"),
        (state(16, 10) is WakeState.ASLEEP, "exactly 10 zeros: no override"),
        (state(16, 11) is WakeState.AWAKE, "11 zeros -> awake"),
    ]
    ok = all(c for c, _ in checks)
    failed = [name for c, name in checks if not c]
    _verdict(capsys, 3, ok,
             "all 4 boundary cases exact" if ok else f"failed: {failed}")


def _blobs(rng, n, d=6, spread=2.5):
    centers = rng.normal(scale=spread, size=(4, d))
    codes = rng.integers(0, 4, size=n)
    x = centers[codes] + rng.normal(size=(n, d))
    return x, [Stage(int(c)) for c in codes]


def test_04_classifier_oracle_equivalence(capsys):
    """kNN vs quadratic oracle; NB vs direct log-density; 1-tree forest vs tree."""
    instances = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 501))
        x, labels = _blobs(rng, n)
        probes = rng.normal(scale=3.0, size=(40, 6))

        knn = train_knn(x, labels, k=5)
        mean = x.mean(axis=0)
        std = np.where(x.std(axis=0) == 0.0, 1.0, x.std(axis=0))
        tz = (x - mean) / std
        got = knn.neighbors(probes)
        for i, row in enumerate((probes - mean) / std):
            d2 = ((tz - row) ** 2).sum(axis=1)
            want = sorted(range(n), key=lambda j: (d2[j], j))[:5]
            assert list(got[i]) == want, f"seed {seed} probe {i}"

        nb = train_gaussian_nb(x, labels)
        scores = np.empty((len(probes), nb.classes.size))
        for c in range(nb.classes.size):
            dens = (
                -0.5 * np.log(2.0 * math.pi * nb.var[c])
                - (probes - nb.mean[c]) ** 2 / (2.0 * nb.var[c])
            )
            scores[:, c] = math.log(nb.prior[c]) + dens.sum(axis=1)
        assert (nb.predict_codes(probes)
                == nb.classes[np.argmax(scores, axis=1)]).all()

        tree = train_decision_tree(x, labels, TreeParams(max_depth=None))
        forest = train_random_forest(
            x, labels,
            ForestParams(n_trees=1, bootstrap=False, features_per_split=6,
                         max_depth=None),
            seed=seed,
        )
        for rows in (x, probes):
            assert (tree.predict_codes(rows) == forest.predict_codes(rows)).all()
        instances += 1
    _verdict(capsys, 4, True,
             f"kNN/NB/1-tree-forest all match oracles on {instances} instances "
             f"(n up to 500)")


def test_05_end_to_end_staging(capsys):
    """4 synthetic nights, RF(100, seed 7) acc >= 0.90 / F1 >= 0.85, DT >= 0.85,
    NB and kNN > 0.25, all inside 10 minutes."""
    t0 = time.perf_counter()
    nights = []
    for night in generate_cohort(4, seed=7, duration_s=28800):
        cleaned = clean_for_features(night.record)
        aligned = align_labels(cleaned, night.intervals)
        nights.append(window_night(cleaned, aligned))
    windows = FeatureTable.concat(nights)
    assert 100_000 <= len(windows) <= 120_000, len(windows)

    train, test = split_train_test(windows, SplitSpec(seed=7))
    xtr, ytr_codes = windows_to_matrix(train)
    xte, yte_codes = windows_to_matrix(test)
    ytr = [Stage(int(c)) for c in ytr_codes]
    yte = [Stage(int(c)) for c in yte_codes]

    def score(model):
        cm = confusion_matrix(yte, predict(model, xte))
        return accuracy(cm), macro_f1(cm)

    rf_acc, rf_f1 = score(train_random_forest(xtr, ytr, ForestParams(n_trees=100),
                                              seed=7))
    dt_acc, _ = score(train_decision_tree(xtr, ytr))
    nb_acc, _ = score(train_gaussian_nb(xtr, ytr))
    knn_acc, _ = score(train_knn(xtr, ytr, k=5))
    elapsed = time.perf_counter() - t0

    ok = (rf_acc >= 0.90 and rf_f1 >= 0.85 and dt_acc >= 0.85
          and nb_acc > 0.25 and knn_acc > 0.25 and elapsed < 600.0)
    _verdict(capsys, 5, ok,
             f"{len(windows)} windows; rf acc={rf_acc:.4f} f1={rf_f1:.4f}, "
             f"dt={dt_acc:.4f}, nb={nb_acc:.4f}, knn={knn_acc:.4f} "
             f"in {elapsed:.0f} s")


def _stats_oracle(vals):
    n = len(vals)
    mean = sum(vals) / n
    s = sorted(vals)
    median = (s[n // 2 - 1] + s[n // 2]) / 2.0 if n % 2 == 0 else s[n // 2]
    var = sum((v - mean) ** 2 for v in vals) / n
    h = (n - 1) * 0.75
    lo = math.floor(h)
    p75 = s[lo] + (h - lo) * (s[lo + 1] - s[lo]) if lo + 1 < n else s[lo]
    return (mean, median, max(vals), min(vals), math.sqrt(var), p75)


def test_06_statistics_oracle(capsys):
    """1,000 random vectors match brute force to 1e-12; pinned [1..10] values."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        vals = list(rng.uniform(-50.0, 150.0, size=10))
        got = compute_stats(vals)
        want = _stats_oracle(vals)
        for g, w in zip(got, want):
            err = abs(g - w) / max(1.0, abs(w))
            worst = max(worst, err)
            assert err <= 1e-12

    pinned = compute_stats([float(v) for v in range(1, 11)])
    assert pinned[:4] == (5.5, 5.5, 10.0, 1.0)
    assert abs(pinned[4] - math.sqrt(8.25)) <= 1e-12  # ~2.8723
    assert abs(pinned[4] - 2.8723) <= 5e-5
    assert pinned[5] == 7.75
    _verdict(capsys, 6, True,
             f"1000 vectors within 1e-12 (worst {worst:.2e}); [1..10] pinned")


def test_07_windowing_identity(capsys):
    """Kept windows equal the brute-force same-label set; 200 s example exact."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 241))
        labels = []
        while len(labels) < n:
            dur = int(rng.integers(3, 15))
            fill = None if rng.random() < 0.2 else Stage(int(rng.integers(0, 4)))
            labels.extend([fill] * dur)
        labels = labels[:n]
        record = flat_record(n)
        codes = [-1 if l is None else int(l) for l in labels]
        got = set(window_night(record, codes).start_t.tolist())
        want = {
            s for s in range(n - 9)
            if labels[s] is not None and all(l == labels[s] for l in labels[s:s + 10])
        }
        assert got == want, f"seed {seed}"

    two_stage = [Stage.LIGHT] * 100 + [Stage.DEEP] * 100
    kept = window_night(flat_record(200), two_stage)
    candidates = 200 - 10 + 1
    ok = len(kept) == 182 and candidates - len(kept) == 9
    _verdict(capsys, 7, ok,
             f"8 random layouts match brute force; 200 s example kept "
             f"{len(kept)}/191 (discarded {candidates - len(kept)})")


def test_08_stream_integrity(capsys, tmp_path):
    """10,000 ticks with 5 disconnects: nothing lost, gaps equal the script;
    a SIGKILLed recorder still leaves a parseable file."""
    record = flat_record(10_000, night_id="stream")
    windows = [(1000, 40), (3000, 25), (5000, 60), (7000, 10), (9000, 45)]
    script = StreamScript(
        record,
        [(s, l, "disconnect") for s, l in windows],
        tick_interval=0.0,
    )
    srv = serve_stream(script, "127.0.0.1:0")
    out = tmp_path / "full.ndjson"
    res = record_stream(srv.endpoint, out, RetryPolicy(0.02, 10.0))
    srv.stop()
    assert res.timestamps == script.expected_timestamps()
    assert sorted(tuple(g) for g in res.gaps) == windows
    replay = load_night(out, night_id="stream")
    assert [s.t for s in replay.samples] == list(res.timestamps)
    assert sorted(replay.gaps) == windows

    kill_script = StreamScript(flat_record(10_000, night_id="kill"),
                               tick_interval=0.001)
    srv2 = serve_stream(kill_script, "127.0.0.1:0")
    part = tmp_path / "partial.ndjson"
    code = (
        "from bcgsleep.devicesim import record_stream, RetryPolicy; "
        f"record_stream({srv2.endpoint!r}, {str(part)!r}, "
        "RetryPolicy(retry_interval=0.05, deadline=5.0))"
    )
    child = subprocess.Popen([sys.executable, "-c", code], env=checkout_env())
    try:
        time.sleep(1.0)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        srv2.stop()
    complete = part.read_bytes().split(b"\n")[:-1]
    ts = [json.loads(ln)["t"] for ln in complete]
    assert len(ts) >= 5 and ts == sorted(ts) and compute_gaps(ts) == ()

    _verdict(capsys, 8, True,
             f"{len(res.timestamps)} samples conserved, gaps == script; "
             f"killed recorder left {len(ts)} parseable rows")


def _pipeline(root):
    nights = root / "nights"
    assert main(["synth", "--out", str(nights), "--nights", "3",
                 "--seed", "21", "--duration", "3600"]) == 0
    feats = []
    for stem in ("night00", "night01", "night02"):
        f = root / f"{stem}.features.csv"
        assert main(["featurize", "--in", str(nights / f"{stem}.ndjson"),
                     "--labels", str(nights / f"{stem}.labels.json"),
                     "--out", str(f)]) == 0
        feats.append(str(f))
    model = root / "model.json"
    assert main(["train", "--features", *feats, "--model", "forest",
                 "--n-trees", "10", "--seed", "4", "--out", str(model)]) == 0
    assert main(["evaluate", "--features", *feats, "--model", str(model),
                 "--seed", "4", "--out-dir", str(root / "eval")]) == 0
    assert main(["report", "--night", str(nights / "night00.ndjson"),
                 "--labels", str(nights / "night00.labels.json"),
                 "--model", str(model), "--cohort-dir", str(nights),
                 "--out-dir", str(root / "rep")]) == 0


def test_09_pipeline_determinism(capsys, tmp_path):
    """Two identically seeded runs agree byte for byte on every artifact."""
    a, b = tmp_path / "a", tmp_path / "b"
    _pipeline(a)
    _pipeline(b)
    artifacts = [
        "nights/night00.ndjson",
        "model.json",
        "eval/metrics.json",
        "eval/confusion.csv",
        "rep/threshold_trace.svg",
        "rep/hypnogram_pair.svg",
        "rep/confusion_heatmap.svg",
        "rep/efficiency_box.svg",
        "rep/confusion.csv",
        "rep/metrics.json",
    ]
    diffs = [p for p in artifacts if (a / p).read_bytes() != (b / p).read_bytes()]
    _verdict(capsys, 9, not diffs,
             f"{len(artifacts)} artifacts byte-identical across reruns"
             if not diffs else f"differing artifacts: {diffs}")


def test_10_pca_sanity(capsys):
    """diag(4,1) data -> [0.8, 0.2] +- 1e-6; ratios well formed in general."""
    s = math.sqrt(2.0)
    data = [[2 * s, 0.0], [-2 * s, 0.0], [0.0, s], [0.0, -s]]
    ratios = pca_explained_variance(data)
    assert abs(ratios[0] - 0.8) <= 1e-6 and abs(ratios[1] - 0.2) <= 1e-6

    for seed in range(5):
        rng = np.random.default_rng(seed)
        r = pca_explained_variance(rng.normal(size=(30, 6)))
        assert all(v >= 0.0 for v in r)
        assert all(r[i] >= r[i + 1] for i in range(len(r) - 1))
        assert abs(sum(r) - 1.0) <= 1e-9
    _verdict(capsys, 10, True,
             f"diag(4,1) -> [{ratios[0]:.6f}, {ratios[1]:.6f}]; "
             f"5 random matrices well formed")
