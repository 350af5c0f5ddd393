"""End-to-end command-line behavior: exit codes, files written, config flow."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from bcgsleep.cli import main
from bcgsleep.ingest import load_night
from bcgsleep.models import load_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthesized cohort plus features, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    nights = root / "nights"
    assert main([
        "synth", "--out", str(nights), "--nights", "3", "--seed", "11",
        "--duration", "3600",
    ]) == 0
    features = root / "features"
    features.mkdir()
    for stem in ("night00", "night01", "night02"):
        assert main([
            "featurize",
            "--in", str(nights / f"{stem}.ndjson"),
            "--labels", str(nights / f"{stem}.labels.json"),
            "--out", str(features / f"{stem}.features.csv"),
        ]) == 0
    return root


def feature_args(workdir, stems=("night00", "night01", "night02")):
    return [str(workdir / "features" / f"{s}.features.csv") for s in stems]


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --out is mandatory
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--features", feature_args(workdir)[0],
                  "--model", "svm", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2


class TestDataErrors:
    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["sleepwake", "--in", str(tmp_path / "nope.ndjson"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_malformed_night_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("this is not json\n")
        code = main(["sleepwake", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "MalformedRow" in capsys.readouterr().err

    def test_evaluate_without_model_exits_1(self, workdir, tmp_path, capsys):
        code = main(["evaluate", "--features", *feature_args(workdir),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err


class TestSynth:
    def test_files_written(self, workdir):
        nights = workdir / "nights"
        assert sorted(p.name for p in nights.glob("*.ndjson")) == [
            "night00.ndjson", "night01.ndjson", "night02.ndjson",
        ]
        assert len(list(nights.glob("*.labels.json"))) == 3
        rec = load_night(nights / "night00.ndjson", night_id="night00")
        assert rec.samples[-1].t == 3599  # final second is always emitted

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--nights", "1", "--seed", "1",
                     "--duration", "1800"]) == 0
        assert main(["synth", "--out", str(b), "--nights", "1", "--seed", "2",
                     "--duration", "1800"]) == 0
        assert (a / "night00.ndjson").read_bytes() != (b / "night00.ndjson").read_bytes()


class TestSleepwakeCommand:
    def test_writes_epoch_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "epochs.csv"
        code = main(["sleepwake", "--in", str(workdir / "nights" / "night00.ndjson"),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,start_t,state,threshold,n_below,n_zero"
        assert len(lines) == 1 + 3600 // 30
        assert "efficiency=" in capsys.readouterr().out


class TestFeaturizeCommand:
    def test_feature_csv_shape(self, workdir):
        text = (workdir / "features" / "night00.features.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("hr_mean,") and lines[0].endswith(",label")
        assert len(lines[1].split(",")) == 31
        assert len(lines) > 1000  # stride-1 windows over a labeled hour


class TestTrainCommand:
    def test_train_tree_and_reload(self, workdir, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = main(["train", "--features", *feature_args(workdir),
                     "--model", "tree", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert load_model(out).kind == "DecisionTree"
        assert "trained DecisionTree" in capsys.readouterr().out

    def test_config_file_can_supply_all_flags(self, workdir, tmp_path):
        explicit = tmp_path / "explicit.json"
        assert main(["train", "--features", *feature_args(workdir),
                     "--model", "nb", "--out", str(explicit)]) == 0
        cfg = tmp_path / "cfg.json"
        from_config = tmp_path / "from_config.json"
        cfg.write_text(json.dumps({
            "features": feature_args(workdir),
            "model": "nb",
            "out": str(from_config),
        }))
        assert main(["train", "--config", str(cfg)]) == 0
        assert from_config.read_bytes() == explicit.read_bytes()

    def test_command_line_beats_config(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "features": feature_args(workdir),
            "model": "tree",
            "out": str(out),
            "max-depth": 20,
        }))
        assert main(["train", "--config", str(cfg), "--model", "nb"]) == 0
        assert load_model(out).kind == "GaussianNB"

    def test_config_must_be_object(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code = main(["train", "--config", str(cfg)])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_single_split_metrics(self, workdir, tmp_path):
        model = tmp_path / "tree.json"
        assert main(["train", "--features", *feature_args(workdir),
                     "--model", "tree", "--out", str(model), "--seed", "5"]) == 0
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--features", *feature_args(workdir),
                     "--model", str(model), "--out-dir", str(out_dir),
                     "--seed", "5"]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert set(doc) >= {"accuracy", "macro_f1", "rmse", "confusion", "n"}
        assert doc["kind"] == "DecisionTree"
        assert doc["accuracy"] > 0.5  # separable synthetic stages
        csv = (out_dir / "confusion.csv").read_text().splitlines()
        assert csv[0] == "predicted\\true,wake,rem,light,deep"

    def test_kfold_metrics(self, workdir, tmp_path):
        out_dir = tmp_path / "kfold"
        assert main(["evaluate", "--features", *feature_args(workdir),
                     "--kfold", "3", "--model-kind", "nb",
                     "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert len(doc["kfold"]["folds"]) == 3
        assert 0.0 <= doc["kfold"]["mean"]["accuracy"] <= 1.0

    def test_night_level_split_on_equal_nights(self, tmp_path):
        nights = tmp_path / "nights"
        assert main(["synth", "--out", str(nights), "--nights", "4", "--seed", "5",
                     "--duration", "3600"]) == 0
        feats = []
        for i in range(4):
            feats.append(tmp_path / f"night0{i}.features.csv")
            assert main(["featurize", "--in", str(nights / f"night0{i}.ndjson"),
                         "--labels", str(nights / f"night0{i}.labels.json"),
                         "--out", str(feats[-1])]) == 0
        flags = ["--features", *map(str, feats), "--grouping", "night-level",
                 "--seed", "1"]
        model = tmp_path / "nb.json"
        assert main(["train", "--model", "nb", "--out", str(model), *flags]) == 0
        assert main(["evaluate", "--model", str(model),
                     "--out-dir", str(tmp_path / "eval"), *flags]) == 0
        doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        rows = [len(f.read_text().splitlines()) - 1 for f in feats]
        assert doc["n_test"] in rows  # exactly one whole night held out
        assert doc["n_train"] + doc["n_test"] == sum(rows)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Artifacts of the workdir cohort (synth seed 11) as produced before feature
# windows became a columnar table; a refactor must reproduce them byte for byte.
GOLDEN_SHA256 = {
    "features/night00.features.csv": "893a92137de425cc3da786db6fdefe55d8a2ec4ef126d65d1b549b451de463ee",
    "features/night01.features.csv": "d298929664027b6ff77bd7e933ea1130e60e89f9d7812321b5274aec152a341f",
    "features/night02.features.csv": "53e6e6195b7a5625d6ec3fa68d00c00334478c0733e79991d9c2adeec63db2d0",
    "tree.json": "d9f7bdfb3e17664a539e0991a55d80521b45235368070c5ec13d46fcda78f98a",
    "forest.json": "2cd9a0c8347e6134f3946ff47b407b119dcfc723cfca7a54ae016b02c14fd0d2",
    "knn.json": "6f41127d0fd5b1dee8a09de9561a7c53db19f670ce80d7d1342e9e5ab5cb918a",
    "nb.json": "b409beae8b495814cf6be5a9856de5486b7fb0281fddac9af2356d0b5bf94d59",
    "eval-tree/metrics.json": "149823729821bfea0a378b958af8a0b94e7edbad40036ed336ff7d876bc2cb17",
    "eval-tree/confusion.csv": "25c66261954b51c59085183af3337e3de6e5b6a58b699b6f1124c28d4b4d2076",
    "eval-forest/metrics.json": "1be705670f4d1d412f25de3c8a6f950512f749f5fa01e1e511279a7d62e78c9d",
    "eval-forest/confusion.csv": "25c66261954b51c59085183af3337e3de6e5b6a58b699b6f1124c28d4b4d2076",
    "eval-knn/metrics.json": "2395a2f24a6e289250e6fe0fe2aa2b17dd039f0069bfcab3f974eb6e08da30db",
    "eval-knn/confusion.csv": "25c66261954b51c59085183af3337e3de6e5b6a58b699b6f1124c28d4b4d2076",
    "eval-nb/metrics.json": "191b1f50f3da5f524ba34cd4bd7c00c3b3419569807a9d5d80b629fa2dacdddc",
    "eval-nb/confusion.csv": "56119480588bbbcf0335d0b0985a702b6bfe15c97a21424aece050e52c0477a9",
    "kfold-nb/metrics.json": "5034cfc77d72a3635c5de9fffafbf2945304ca46623cf6e5eec3f7d10e79dd8f",
    "report-tree/metrics.json": "cf433375f1efbaf31322b3e283b9db34a08442b7bae6dfc18efdfe8599ad5b0d",
    "report-tree/confusion.csv": "1501e4d3b6299182f308f3fed92d480c68ca93da9aac186afad14b9b05c9b975",
}


class TestGoldenArtifacts:
    def test_artifacts_match_golden_digests(self, workdir, tmp_path):
        feats = feature_args(workdir)
        for kind in ("tree", "forest", "knn", "nb"):
            model = tmp_path / f"{kind}.json"
            assert main(["train", "--features", *feats, "--model", kind,
                         "--n-trees", "10", "--seed", "3", "--out", str(model)]) == 0
            assert main(["evaluate", "--features", *feats, "--model", str(model),
                         "--seed", "3", "--out-dir", str(tmp_path / f"eval-{kind}")]) == 0
        assert main(["evaluate", "--features", *feats, "--kfold", "3",
                     "--model-kind", "nb", "--seed", "3",
                     "--out-dir", str(tmp_path / "kfold-nb")]) == 0
        nights = workdir / "nights"
        assert main(["report", "--night", str(nights / "night01.ndjson"),
                     "--labels", str(nights / "night01.labels.json"),
                     "--model", str(tmp_path / "tree.json"),
                     "--out-dir", str(tmp_path / "report-tree")]) == 0
        got = {
            name: _sha256((workdir if name.startswith("features/") else tmp_path) / name)
            for name in GOLDEN_SHA256
        }
        assert got == GOLDEN_SHA256


class TestReportCommand:
    def test_night_report(self, workdir, tmp_path):
        out_dir = tmp_path / "rep"
        assert main(["report", "--night", str(workdir / "nights" / "night00.ndjson"),
                     "--out-dir", str(out_dir)]) == 0
        svg = (out_dir / "threshold_trace.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert "sleepwake" in doc

    def test_full_night_report_with_model(self, workdir, tmp_path):
        model = tmp_path / "tree.json"
        assert main(["train", "--features", *feature_args(workdir),
                     "--model", "tree", "--out", str(model)]) == 0
        out_dir = tmp_path / "rep2"
        assert main([
            "report",
            "--night", str(workdir / "nights" / "night01.ndjson"),
            "--labels", str(workdir / "nights" / "night01.labels.json"),
            "--model", str(model),
            "--out-dir", str(out_dir),
        ]) == 0
        for name in ("threshold_trace.svg", "hypnogram_pair.svg",
                     "confusion_heatmap.svg", "confusion.csv", "metrics.json"):
            assert (out_dir / name).exists(), name

    def test_cohort_report(self, workdir, tmp_path):
        out_dir = tmp_path / "rep3"
        assert main(["report", "--cohort-dir", str(workdir / "nights"),
                     "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert len(doc["efficiency"]["nights"]) == 3
        assert (out_dir / "efficiency_box.svg").exists()

    def test_report_without_inputs_fails(self, tmp_path, capsys):
        code = main(["report", "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    def test_report_reruns_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        night = str(workdir / "nights" / "night02.ndjson")
        for out_dir in (a, b):
            assert main(["report", "--night", night, "--out-dir", str(out_dir)]) == 0
        assert (a / "threshold_trace.svg").read_bytes() == (b / "threshold_trace.svg").read_bytes()
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


class TestServeRecordCommands:
    def test_stream_round_trip(self, workdir, tmp_path):
        night = workdir / "nights" / "night00.ndjson"
        server = subprocess.Popen(
            [sys.executable, "-m", "bcgsleep", "serve", "--in", str(night),
             "--endpoint", "127.0.0.1:0", "--tick", "0",
             "--dropout", "100:30:disconnect"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = server.stdout.readline()
            endpoint = banner.rsplit(" on ", 1)[1].strip()
            out = tmp_path / "recorded.ndjson"
            code = main(["record", "--endpoint", endpoint, "--out", str(out),
                         "--retry-interval", "0.05", "--deadline", "2"])
            assert code == 0
            rec = load_night(out, night_id="recorded")
            assert (100, 30) in rec.gaps
            original = load_night(night, night_id="night00")
            want = [s.t for s in original.samples if not 100 <= s.t < 130]
            assert [s.t for s in rec.samples] == want
        finally:
            server.terminate()
            server.wait(timeout=10)
