"""End-to-end command-line behavior: exit codes, files written, config flow."""

import hashlib
import json
import select
import socket
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgsleep import features, models
from bcgsleep.cli import _load_feature_files, main
from bcgsleep.core import STAGE_NAMES
from bcgsleep.errors import MalformedRow
from bcgsleep.ingest import load_night, save_night
from bcgsleep.models import load_model, model_to_json

from conftest import checkout_env, claim_cpus, record_forks, reencode


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


@pytest.fixture(scope="module")
def equal_nights(tmp_path_factory):
    """Feature files of four synthesized 1 h nights (seed 5)."""
    root = tmp_path_factory.mktemp("equal")
    nights = root / "nights"
    assert main(["synth", "--out", str(nights), "--nights", "4", "--seed", "5",
                 "--duration", "3600"]) == 0
    feats = []
    for i in range(4):
        feats.append(root / f"night0{i}.features.csv")
        assert main(["featurize", "--in", str(nights / f"night0{i}.ndjson"),
                     "--labels", str(nights / f"night0{i}.labels.json"),
                     "--out", str(feats[-1])]) == 0
    return feats


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

    def test_negative_timestamp_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("".join(
            f'{{"t":{t},"hr":60.0,"rr":14.0,"sv":70.0,"hrv":40.0,"b2b":1000.0}}\n'
            for t in (-5, 0, 1)))
        code = main(["sleepwake", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedRow") and len(err.splitlines()) == 1

    def test_timestamp_past_a_week_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("".join(
            f'{{"t":{t},"hr":60.0,"rr":14.0,"sv":70.0,"hrv":40.0,"b2b":1000.0}}\n'
            for t in (0, 1, 10**12)))
        code = main(["sleepwake", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedRow") and len(err.splitlines()) == 1
        assert "maximum night length" in err

    @pytest.mark.parametrize("text", ["[1]", '{"schema":1,"kind":"Knn"}'])
    def test_bad_model_document_exits_1(self, workdir, tmp_path, capsys, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        code = main(["evaluate", "--features", *feature_args(workdir),
                     "--model", str(model), "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("SchemaMismatch") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind, edit", [
        ("knn", lambda doc: doc["state"]["y"].update(
            reencode(doc["state"]["y"], lambda a: a.astype("<u8") + 2**63))),
        ("knn", lambda doc: doc["state"]["y"].update(
            reencode(doc["state"]["y"], lambda a: a + 0.7))),
        ("tree", lambda doc: doc["state"]["feature"].update(
            reencode(doc["state"]["feature"], lambda a: a + 0.9))),
        ("tree", lambda doc: doc["state"]["label"].update(
            reencode(doc["state"]["label"], lambda a: a + 0.5))),
        ("forest", lambda doc: doc["params"].update(seed=2.7)),
        ("forest", lambda doc: doc["params"].update(n_trees=10)),
    ], ids=["knn-y-past-int64", "knn-y-fraction", "tree-feature-fraction",
            "tree-leaf-label-fraction", "forest-seed-fraction", "forest-n-trees-not-stored"])
    def test_ill_typed_model_value_exits_1(self, workdir, tmp_path, capsys, kind, edit):
        """Arrays of a dtype other than the schema's, whose values used to
        overflow or load truncated as JSON numbers, and ill-typed params are
        refused at load."""
        model = tmp_path / "model.json"
        assert main(["train", "--features", *feature_args(workdir), "--model", kind,
                     "--n-trees", "3", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["evaluate", "--features", *feature_args(workdir),
                     "--model", str(model), "--out-dir", str(tmp_path / "e")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("SchemaMismatch") and len(err.splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_night_past_a_week_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "long"
        code = main(["synth", "--nights", "1", "--duration", "605000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError") and len(err.splitlines()) == 1
        assert "maximum night length" in err
        assert not out.exists()

    def test_evaluate_without_model_exits_1(self, workdir, tmp_path, capsys):
        code = main(["evaluate", "--features", *feature_args(workdir),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    def test_kfold_without_model_kind_exits_1(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "ek"
        code = main(["evaluate", "--features", *feature_args(workdir), "--kfold", "3",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "ValueError: --kfold needs --model-kind\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("evaluate", ["--kfold", "3"], "--kfold needs --model-kind"),
        ("evaluate", ["--kfold", "3", "--model", "m.json"], "--kfold needs --model-kind"),
        ("evaluate", [], "need --model (or --kfold with --model-kind)"),
        ("evaluate", ["--kfold", "0", "--model-kind", "nb"],
         "need --model (or --kfold with --model-kind)"),
        ("evaluate", ["--kfold", "1", "--model-kind", "nb"], "k-fold needs at least 2 folds, got 1"),
        ("evaluate", ["--kfold", "3", "--model-kind", "forest", "--n-trees", "0"],
         "need at least one tree"),
        ("evaluate", ["--kfold", "3", "--model-kind", "knn", "--k", "0"],
         "knn k must be at least 1, got 0"),
        ("evaluate", ["--model", "m.json", "--train-fraction", "1.5"],
         "train_fraction out of (0, 1): 1.5"),
        ("train", ["--model", "knn", "--k", "0"], "knn k must be at least 1, got 0"),
        ("train", ["--model", "forest", "--n-trees", "0"], "need at least one tree"),
        ("train", ["--model", "nb", "--train-fraction", "1.5"],
         "train_fraction out of (0, 1): 1.5"),
        ("train", ["--model", "knn", "--k", "0", "--train-fraction", "0"],
         "train_fraction out of (0, 1): 0.0"),
    ], ids=["kfold-no-kind", "kfold-model-no-kind", "no-model", "kfold-zero-no-model",
            "kfold-one", "kfold-forest-no-trees", "kfold-knn-k-zero",
            "evaluate-fraction-above-one", "train-knn-k-zero", "train-forest-no-trees",
            "train-fraction-above-one", "train-fraction-zero-before-k"])
    def test_missing_flag_named_before_any_input_is_read(self, workdir, tmp_path, capsys,
                                                         command, flags, message):
        """A bad flag value ends the command before it reads any feature
        file: with a missing file, as with present ones, the one line names
        the flag's rule, and no output is written."""
        out = tmp_path / "out"
        out_flag = "--out-dir" if command == "evaluate" else "--out"
        for feats in ([str(tmp_path / "missing.features.csv")], feature_args(workdir)):
            code = main([command, "--features", *feats, *flags, out_flag, str(out)])
            assert code == 1
            assert capsys.readouterr().err == f"ValueError: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("folds", ["-3", "1"])
    def test_kfold_below_two_exits_1(self, workdir, tmp_path, capsys, folds):
        out_dir = tmp_path / "ek"
        code = main(["evaluate", "--features", *feature_args(workdir), "--kfold", folds,
                     "--model-kind", "nb", "--out-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"ValueError: k-fold needs at least 2 folds, got {folds}\n"
        assert not out_dir.exists()

    def test_too_few_nights_to_split_exits_1(self, workdir, tmp_path, capsys):
        out = tmp_path / "nb.json"
        code = main(["train", "--features", *feature_args(workdir, ("night00",)),
                     "--model", "nb", "--grouping", "night-level", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "TooFewItems: need at least 2 nights, got 1\n"
        assert not out.exists()

    def test_too_few_nights_to_fold_exits_1(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "ek"
        code = main(["evaluate", "--features", *feature_args(workdir, ("night00", "night01")),
                     "--kfold", "3", "--model-kind", "nb", "--grouping", "night-level",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "TooFewItems: need at least 3 nights, got 2\n"
        assert not out_dir.exists()

    def test_k_above_training_windows_exits_1(self, workdir, tmp_path, capsys):
        out = tmp_path / "knn.json"
        code = main(["train", "--features", *feature_args(workdir), "--model", "knn",
                     "--k", "100000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("TooFewItems: need at least 100000 training windows, got ")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_cohort_of_two_nights_exits_1(self, workdir, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        cohort.mkdir()
        for stem in ("night00", "night01"):
            for suffix in (".ndjson", ".labels.json"):
                src = workdir / "nights" / f"{stem}{suffix}"
                (cohort / src.name).write_bytes(src.read_bytes())
        out_dir = tmp_path / "rep"
        code = main(["report", "--cohort-dir", str(cohort), "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "TooFewItems: need at least 3 nights, got 2\n"
        assert not out_dir.exists()

    def test_failed_evaluate_leaves_no_directory(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "ek"
        code = main(["evaluate", "--features", *feature_args(workdir, ("night00",)),
                     "--kfold", "3", "--model-kind", "knn", "--k", "0",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError")
        assert not out_dir.exists()


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

    def test_feature_file_night_id_is_its_stem(self, workdir):
        windows = _load_feature_files(feature_args(workdir, ("night00",)))
        assert set(windows.night_id.tolist()) == {"night00"}

    def test_full_night_same_bytes_on_one_and_two_cpus(self, tmp_path, monkeypatch):
        """A full 8 h night is formatted in two forked blocks on two CPUs,
        and in process on one; the file is the same."""
        assert main(["synth", "--out", str(tmp_path), "--nights", "1", "--seed", "4"]) == 0
        written = []
        for cpus in (1, 2):
            claim_cpus(monkeypatch, cpus)
            with monkeypatch.context() as m:
                forks = record_forks(m)
                out = tmp_path / f"cpus{cpus}.features.csv"
                assert main(["featurize", "--in", str(tmp_path / "night00.ndjson"),
                             "--labels", str(tmp_path / "night00.labels.json"),
                             "--out", str(out)]) == 0
            assert len(forks) == (0 if cpus == 1 else 2)
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestFeatureFileReads:
    """_load_feature_files reads one file per forked task: the table, or
    the first bad file's error, is the plain loop's."""

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_same_table_as_in_process(self, workdir, monkeypatch, cpus):
        paths = feature_args(workdir) + feature_args(workdir, ("night00",))
        claim_cpus(monkeypatch, 1)
        want = _table_outcome(lambda: _load_feature_files(paths))
        claim_cpus(monkeypatch, cpus)
        assert _table_outcome(lambda: _load_feature_files(paths)) == want

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_first_bad_file_in_order_is_raised(self, workdir, tmp_path, monkeypatch, cpus):
        # the 2nd file has a bad cell at line 41, the 4th an extra cell at line 3
        paths = []
        for i, stem in enumerate(("night00", "night01", "night02", "night00")):
            lines = (workdir / "features" / f"{stem}.features.csv").read_text().split("\n")
            if i == 1:
                lines[40] = _set_cell(lines[40], 3, lambda c: "x")
            if i == 3:
                lines[2] = lines[2] + ","
            paths.append(tmp_path / f"file{i}.features.csv")
            paths[-1].write_text("\n".join(lines))
        claim_cpus(monkeypatch, 1)
        with pytest.raises(MalformedRow) as serial:
            _load_feature_files(paths)
        assert serial.value.line_no == 41
        claim_cpus(monkeypatch, cpus)
        with pytest.raises(MalformedRow) as forked:
            _load_feature_files(paths)
        assert forked.value.line_no == 41
        assert str(forked.value) == str(serial.value)


def _table_outcome(read):
    """What read() gives: the table's columns bit for bit, or its error."""
    try:
        t = read()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return (t.x.shape, t.x.flags.c_contiguous, t.x.tobytes(), t.y.dtype, t.y.tolist(),
            t.start_t.dtype, t.start_t.tolist(), t.night_id.dtype, t.night_id.tolist())


def _set_cell(line, col, fn):
    cells = line.split(",")
    cells[col] = fn(cells[col])
    return ",".join(cells)


# one change to a row's text (or, for some, to the file) that the bulk read
# refuses or must read exactly as parse_feature_csv does
ROW_MUTATIONS = {
    "none": lambda line: [line],
    "blank line": lambda line: [line, ""],
    "whitespace line": lambda line: [line, " \t "],
    "spaces around cells": lambda line: [" " + line.replace(",", " , ", 3) + " "],
    "unicode space": lambda line: [_set_cell(line, 2, lambda c: "\u2003" + c)],
    "underscore": lambda line: [_set_cell(line, 4, lambda c: "1_0")],
    "arabic-indic digits": lambda line: [_set_cell(line, 5, lambda c: "\u0661.\u0665")],
    "nan": lambda line: [_set_cell(line, 6, lambda c: "nan")],
    "inf": lambda line: [_set_cell(line, 6, lambda c: "-Infinity")],
    "overflow": lambda line: [_set_cell(line, 6, lambda c: "1e400")],
    "other spellings": lambda line: [_set_cell(_set_cell(line, 0, lambda c: "+.5"), 1,
                                               lambda c: "5.")],
    "hex": lambda line: [_set_cell(line, 3, lambda c: "0x1p3")],
    "unknown label": lambda line: [_set_cell(line, -1, lambda c: "n3")],
    "upper-case label": lambda line: [_set_cell(line, -1, str.upper)],
    "label with NUL": lambda line: [line + "\x00"],
    "label with space": lambda line: [line + " "],
    "label led by space": lambda line: [_set_cell(line, -1, lambda c: " " + c)],
    "missing cell": lambda line: [line.split(",", 1)[1]],
    "extra cell": lambda line: [line + ","],
    "empty label": lambda line: [line.rsplit(",", 1)[0] + ","],
    "crlf": lambda line: [line + "\r"],
    "nul in number": lambda line: [_set_cell(line, 0, lambda c: c + "\x00")],
    "not utf-8": lambda line: [_set_cell(line, 0, lambda c: c + "\udcff")],
}
# a change to the header line
HEADER_MUTATIONS = {
    "none": lambda h: h,
    "bom": lambda h: "\ufeff" + h,
    "spaces": lambda h: " " + h + "  ",
    "other": lambda h: h.replace("hr_mean", "hr_avg"),
}
feature_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16, -2.5, 60]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def feature_files(draw):
    """Feature CSV bytes: windows_to_csv-style rows, with one row and the
    header possibly changed, maybe without the final newline or empty."""
    if not draw(st.integers(0, 30)):
        return b""
    rows = draw(st.lists(st.tuples(st.tuples(*[feature_value] * features.N_FEATURES),
                                   st.sampled_from(STAGE_NAMES)), max_size=6))
    lines = [",".join(map(repr, x)) + "," + label for x, label in rows]
    mutation = draw(st.one_of(st.just("none"), st.sampled_from(sorted(ROW_MUTATIONS))))
    if lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = ROW_MUTATIONS[mutation](lines[i])
    header = HEADER_MUTATIONS[draw(st.one_of(
        st.just("none"), st.sampled_from(sorted(HEADER_MUTATIONS))))](features.FEATURE_CSV_HEADER)
    text = "\n".join([header] + lines) + ("\n" if draw(st.integers(0, 4)) else "")
    return text.encode("utf-8", "surrogateescape")


class TestBulkFeatureRead:
    """_load_feature_files reads each file in bulk; whatever the file holds,
    it must give what the per-line parse_feature_csv gives, bit for bit or
    the same error and message."""

    @settings(max_examples=300)
    @given(data=feature_files())
    def test_bulk_equals_per_line(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("feats") / "night07.features.csv"
        path.write_bytes(data)
        bulk = _table_outcome(lambda: _load_feature_files([str(path)]))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(features, "_bulk_feature_csv", lambda fh, night_id: None)
            assert bulk == _table_outcome(lambda: _load_feature_files([str(path)]))

    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("mutation", sorted(ROW_MUTATIONS))
    def test_each_row_mutation_equals_per_line(self, tmp_path, mutation, at):
        self.check(tmp_path, "none", mutation, at)

    @pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
    def test_each_header_mutation_equals_per_line(self, tmp_path, mutation):
        self.check(tmp_path, mutation, "none", 0)

    def check(self, tmp_path, header_mutation, row_mutation, at):
        rows = [",".join(repr(0.5 * (i + j)) for j in range(features.N_FEATURES))
                + "," + STAGE_NAMES[i % 4] for i in range(3)]
        rows[at:at + 1] = ROW_MUTATIONS[row_mutation](rows[at])
        header = HEADER_MUTATIONS[header_mutation](features.FEATURE_CSV_HEADER)
        path = tmp_path / "night07.features.csv"
        path.write_bytes("\n".join([header] + rows + [""]).encode("utf-8", "surrogateescape"))
        bulk = _table_outcome(lambda: _load_feature_files([str(path)]))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(features, "_bulk_feature_csv", lambda fh, night_id: None)
            assert bulk == _table_outcome(lambda: _load_feature_files([str(path)]))

    def test_featurized_files_take_the_bulk_path(self, workdir, monkeypatch):
        paths = feature_args(workdir)
        with monkeypatch.context() as m:
            m.setattr(features, "_bulk_feature_csv", lambda fh, night_id: None)
            want = _table_outcome(lambda: _load_feature_files(paths))
        monkeypatch.setattr(features, "parse_feature_csv", None)  # any fallback fails
        assert _table_outcome(lambda: _load_feature_files(paths)) == want
        assert len(want[4]) > 3000

    def test_empty_body_falls_back_without_a_warning(self, tmp_path):
        import warnings

        path = tmp_path / "empty.features.csv"
        path.write_text(features.FEATURE_CSV_HEADER + "\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = features.load_feature_csv(path, "empty")
        assert len(table) == 0 and table.x.shape == (0, features.N_FEATURES)
        assert np.array_equal(table.y, np.empty(0, dtype=np.int64))


class TestTrainCommand:
    def test_train_tree_and_reload(self, workdir, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code = main(["train", "--features", *feature_args(workdir),
                     "--model", "tree", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert load_model(out).kind == "DecisionTree"
        assert "trained DecisionTree" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ("--model", "tree", "--max-depth", "0"),
        ("--model", "tree", "--max-depth", "-2"),
        ("--model", "forest", "--n-trees", "2", "--max-depth", "-2", "--seed", "-4"),
    ], ids=["tree-depth-0", "tree-depth-negative", "forest-negative-depth-and-seed"])
    def test_trained_model_reloads_byte_identical(self, workdir, tmp_path, flags):
        out = tmp_path / "model.json"
        assert main(["train", "--features", *feature_args(workdir), *flags,
                     "--out", str(out)]) == 0
        assert model_to_json(load_model(out)) + "\n" == out.read_text()

    def test_knn_k_zero_exits_1_without_output(self, workdir, tmp_path, capsys):
        out = tmp_path / "knn.json"
        code = main(["train", "--features", *feature_args(workdir),
                     "--model", "knn", "--k", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError")
        assert not out.exists()

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

    def test_config_without_path_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bcgsleep")
        assert "argument --config: expected one argument" in err

    def test_config_must_be_object(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code = main(["train", "--config", str(cfg)])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, words", [
        ({"seed": 1.5}, "'seed' must be int"),
        ({"seed": True}, "'seed' must be int"),
        ({"sed": 1}, "'sed' is not a flag of train"),
        ({"labels": "x.json"}, "'labels' is not a flag of train"),
        ({"model": "svm"}, "'model' must be one of"),
        ({"train-fraction": "0.5"}, "'train-fraction' must be float"),
        ({"features": "one.csv"}, "'features' must be a non-empty list"),
        ({"features": [1]}, "'features' must be str"),
    ])
    def test_config_entries_checked(self, workdir, tmp_path, capsys, entry, words):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "features": feature_args(workdir), "model": "nb", "out": str(out), **entry,
        }))
        code = main(["train", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: config key") and words in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_config_values_reach_flags(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "features": feature_args(workdir)[:1], "model": "forest", "out": str(out),
            "n_trees": 2, "max-depth": 3, "train-fraction": 1, "seed": -4,
        }))
        assert main(["train", "--config", str(cfg), "--train-fraction", "0.5"]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["n_trees"] == 2 and doc["params"]["max_depth"] == 3
        assert doc["params"]["seed"] == -4


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

    def test_night_level_split_on_equal_nights(self, equal_nights, tmp_path):
        feats = equal_nights
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

    def test_night_level_kfold_holds_whole_nights(self, equal_nights, tmp_path):
        out_dir = tmp_path / "kfold"
        assert main(["evaluate", "--features", *map(str, equal_nights),
                     "--kfold", "4", "--model-kind", "nb", "--grouping", "night-level",
                     "--seed", "1", "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        rows = [len(f.read_text().splitlines()) - 1 for f in equal_nights]
        # four groups in four folds: fold i holds the one night kfold_indices gives it
        nights = [int(f[0]) for f in models.kfold_indices(4, 4, seed=1)]
        assert [b["n"] for b in doc["kfold"]["folds"]] == [rows[i] for i in nights]

    def test_two_windows_hold_one_out(self, workdir, tmp_path, capsys):
        """round(0.8 * 2) is both windows; one stays in test all the same."""
        lines = (workdir / "features" / "night00.features.csv").read_text().splitlines()
        feats = tmp_path / "two.features.csv"
        feats.write_text("\n".join(lines[:3]) + "\n")
        model = tmp_path / "nb.json"
        assert main(["train", "--features", str(feats), "--model", "nb",
                     "--out", str(model)]) == 0
        assert "(1 held out)" in capsys.readouterr().out
        assert main(["evaluate", "--features", str(feats), "--model", str(model),
                     "--out-dir", str(tmp_path / "eval")]) == 0
        doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert (doc["n_train"], doc["n_test"]) == (1, 1)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Artifacts of the workdir cohort (synth seed 11) as produced before feature
# windows, night records and per-second series became columnar; a refactor
# must reproduce them byte for byte. The four model digests are those of
# model schema 4. The kNN and naive Bayes files differ from schema 3's only in
# the schema number; the tree and forest node tables are schema 3's per-tree
# arrays, concatenated with their row offsets, and all arrays are bit-equal to
# the lists of schemas 1 and 2.
GOLDEN_SHA256 = {
    "nights/night00.ndjson": "c9a52144c1926b0a58614f21c52e1d59f22ca83b386d32356a603a66245a1abb",
    "nights/night00.labels.json": "c1d697ab0330ecae9b2e4cdc12df1d9ed7c90d8ee8c13d35036c16eb2820aa22",
    "nights/night01.ndjson": "99bec0ef350e977e2e361254891ec2408e8e61c978a7089c2a3a7f13f3675687",
    "nights/night01.labels.json": "a7dade9b034440f18329416adfbbbdb0001f5f9b897dc5aa2dca354af386a343",
    "nights/night02.ndjson": "8b52a332202c75f143818b416aaeac7ce91a988f528a80fef6a2545988e80bfa",
    "nights/night02.labels.json": "87309ba7311bece0d35468a6eed1cfe71f0dde1d4ed04d966a526eb75bf829ca",
    "features/night00.features.csv": "893a92137de425cc3da786db6fdefe55d8a2ec4ef126d65d1b549b451de463ee",
    "features/night01.features.csv": "d298929664027b6ff77bd7e933ea1130e60e89f9d7812321b5274aec152a341f",
    "features/night02.features.csv": "53e6e6195b7a5625d6ec3fa68d00c00334478c0733e79991d9c2adeec63db2d0",
    "tree.json": "6a913c67cc2ad395557ca5aa654a1f9f7de1a0664699191eec8e17d9441d3082",
    "forest.json": "9a1913b39e92094d2bb12bac1dc34d0c0888109d51af03cbe2943d791826bda0",
    "knn.json": "dbb47b0ef60faea013c36f72b82b50b04ddc5a7fbbd86747da476e3ef292be66",
    "nb.json": "335ab2009212d2cbb0e00464f5b694fd996c3518593d5c9dc589d3170b3e47c4",
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
    "report-tree/threshold_trace.svg": "75805d568d51cadb26e3dc2ab6bcecd8edea55f5c51cc9d4241fbcfbf5067c35",
    "report-tree/hypnogram_pair.svg": "feb2aade1cd8ee3d41679028ee26c0afb51cba8c8f383d465d8ab3b07e55f04e",
    "report-tree/confusion_heatmap.svg": "5c762731b341c34435198e02822435fd18965bc2b635a025bb43ca9422b07933",
    "report-forest/metrics.json": "ab6fafe6ce117a8e761d5458a56010a1799fc717ce517fe94087ce1d497e52f8",
    "report-forest/hypnogram_pair.svg": "2d30158dd4c09023a3c4e4e6d2f05d44d15cecc93985607c0fc45049df0a891a",
    "report-cohort/metrics.json": "be20dfd5983595fb2d797450dc2ea2d8921ea169c518acb369195145e3fd66ac",
    "report-cohort/efficiency_box.svg": "0aa0dbe46c0bdc1d94e7c4198cbe1d7999f584dc93f265b7ac54196995370cc0",
    "sleepwake-night00.csv": "f12b7f2c892ee643c724eb2151ba67b448ff5f0ea0099ce8680033f782dff9ba",
    "sleepwake-night01.csv": "7f488b79fb37a00253eed50f98e0afb6f93658a33f9cf328b08c0e8a29553c8d",
    "sleepwake-night02.csv": "4ccc91e2fad379751e7fdbb123c824109a5938c30aca2c84c979b6b69f767a91",
    "night01.csv": "4f591bbfab66704653c534c6d769a2975de10d74292ff845b625ccb938cfe01b",
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
        assert main(["report", "--night", str(nights / "night01.ndjson"),
                     "--labels", str(nights / "night01.labels.json"),
                     "--model", str(tmp_path / "forest.json"),
                     "--out-dir", str(tmp_path / "report-forest")]) == 0
        assert main(["report", "--cohort-dir", str(nights),
                     "--out-dir", str(tmp_path / "report-cohort")]) == 0
        for stem in ("night00", "night01", "night02"):
            assert main(["sleepwake", "--in", str(nights / f"{stem}.ndjson"),
                         "--out", str(tmp_path / f"sleepwake-{stem}.csv")]) == 0
        save_night(load_night(nights / "night01.ndjson"), tmp_path / "night01.csv")
        from_workdir = ("features/", "nights/")
        got = {
            name: _sha256((workdir if name.startswith(from_workdir) else tmp_path) / name)
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

    def test_report_predicts_each_window_once(self, workdir, tmp_path, monkeypatch):
        """The window metrics come from the hypnogram, not a second predict,
        and the window labels from the aligned codes: only the hypnogram
        computes window statistics."""
        model = tmp_path / "tree.json"
        assert main(["train", "--features", *feature_args(workdir),
                     "--model", "tree", "--out", str(model)]) == 0
        calls = []
        predict = models.predict
        monkeypatch.setattr(models, "predict",
                            lambda m, rows: calls.append(len(rows)) or predict(m, rows))

        def fail(*args):
            raise AssertionError("report called features.window_night")

        monkeypatch.setattr(features, "window_night", fail)
        night = workdir / "nights" / "night01"
        assert main(["report", "--night", f"{night}.ndjson", "--labels", f"{night}.labels.json",
                     "--model", str(model), "--out-dir", str(tmp_path / "rep")]) == 0
        assert calls == [3600 - 9]

    def test_cohort_report(self, workdir, tmp_path):
        out_dir = tmp_path / "rep3"
        assert main(["report", "--cohort-dir", str(workdir / "nights"),
                     "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert len(doc["efficiency"]["nights"]) == 3
        assert (out_dir / "efficiency_box.svg").exists()

    def test_cohort_report_same_bytes_on_one_and_two_cpus(self, workdir, tmp_path,
                                                          monkeypatch):
        outputs = []
        for cpus in (1, 2):
            claim_cpus(monkeypatch, cpus)
            with monkeypatch.context() as m:
                forks = record_forks(m)
                out_dir = tmp_path / f"cpus{cpus}"
                assert main(["report", "--cohort-dir", str(workdir / "nights"),
                             "--out-dir", str(out_dir)]) == 0
            assert len(forks) == (0 if cpus == 1 else 2)
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("metrics.json", "efficiency_box.svg")])
        assert outputs[0] == outputs[1]

    def test_report_without_inputs_fails(self, tmp_path, capsys):
        code = main(["report", "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_failed_cohort_leaves_no_night_figure(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out_dir = tmp_path / "rp2"
        code = main(["report", "--night", str(workdir / "nights" / "night00.ndjson"),
                     "--cohort-dir", str(empty), "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("AllMissing")
        assert not out_dir.exists()

    @pytest.mark.parametrize("given", [("night", "labels"), ("night", "model"),
                                       ("labels", "model"), ("labels",), ("model",)])
    def test_labels_and_model_need_each_other_and_night(self, workdir, tmp_path,
                                                        capsys, given):
        night = workdir / "nights" / "night00"
        paths = {"night": f"{night}.ndjson", "labels": f"{night}.labels.json",
                 "model": str(tmp_path / "any.json")}
        out_dir = tmp_path / "rep"
        argv = ["report", "--out-dir", str(out_dir)]
        for name in given:
            argv += [f"--{name}", paths[name]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError") and len(err.splitlines()) == 1
        assert "--labels and --model" in err
        assert not out_dir.exists()

    def test_report_reruns_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        night = str(workdir / "nights" / "night02.ndjson")
        for out_dir in (a, b):
            assert main(["report", "--night", night, "--out-dir", str(out_dir)]) == 0
        assert (a / "threshold_trace.svg").read_bytes() == (b / "threshold_trace.svg").read_bytes()
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


class TestAllMissingMessages:
    """Each AllMissing names what is missing; only imputing says 'impute'."""

    def test_empty_cohort_dir(self, tmp_path, capsys):
        assert main(["report", "--cohort-dir", str(tmp_path),
                     "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"AllMissing: no night files (*.ndjson) in {tmp_path}\n"

    def test_feature_files_without_windows(self, workdir, tmp_path, capsys):
        header = (workdir / "features" / "night00.features.csv").read_text().splitlines()[0]
        feats = tmp_path / "empty.features.csv"
        feats.write_text(header + "\n")
        assert main(["train", "--features", str(feats), "--model", "nb",
                     "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == "AllMissing: the feature files hold no windows\n"

    def test_night_without_labelled_second(self, workdir, tmp_path, capsys):
        model = tmp_path / "nb.json"
        assert main(["train", "--features", *feature_args(workdir), "--model", "nb",
                     "--out", str(model)]) == 0
        labels = tmp_path / "late.labels.json"
        labels.write_text(json.dumps({"night_id": "night00", "levels": [
            {"level": "wake", "start_t": 10**5, "seconds": 30}]}))
        capsys.readouterr()
        assert main(["report", "--night", str(workdir / "nights" / "night00.ndjson"),
                     "--labels", str(labels), "--model", str(model),
                     "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "AllMissing: labels cover no second of the night\n"
        assert not (tmp_path / "r").exists()


class TestServeRecordCommands:
    def test_stream_round_trip(self, workdir, tmp_path):
        night = workdir / "nights" / "night00.ndjson"
        server = subprocess.Popen(
            [sys.executable, "-m", "bcgsleep", "serve", "--in", str(night),
             "--endpoint", "127.0.0.1:0", "--tick", "0",
             "--dropout", "100:30:disconnect"],
            stdout=subprocess.PIPE, text=True, env=checkout_env(),
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
            server.stdout.close()

    @pytest.mark.parametrize("port", ["99999", "-1", "65536"])
    def test_serve_port_out_of_range_exits_1(self, workdir, port, capsys):
        night = workdir / "nights" / "night00.ndjson"
        assert main(["serve", "--in", str(night), "--endpoint", f"127.0.0.1:{port}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and "0..65535" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("record", "--deadline", "nan"), ("record", "--retry-interval", "inf"),
        ("serve", "--tick", "inf"), ("serve", "--tick", "nan"),
    ])
    def test_non_finite_timing_exits_1_before_connect_or_bind(
            self, workdir, tmp_path, capsys, command, flag, value):
        night = workdir / "nights" / "night00.ndjson"
        out = tmp_path / "recorded.ndjson"
        args = {"record": ["--out", str(out), "--retry-interval", "0.05", "--deadline", "0.2"],
                "serve": ["--in", str(night)]}[command]
        with socket.create_server(("127.0.0.1", 0)) as listener:
            endpoint = f"127.0.0.1:{listener.getsockname()[1]}"
            # serve binding this taken endpoint would fail with OSError instead
            assert main([command, "--endpoint", endpoint, *args, flag, value]) == 1
            assert not select.select([listener], [], [], 0)[0]  # no connect came
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and "finite" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_record_port_out_of_range_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "recorded.ndjson"
        assert main(["record", "--endpoint", "127.0.0.1:99999", "--out", str(out),
                     "--retry-interval", "0.05", "--deadline", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and "0..65535" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
