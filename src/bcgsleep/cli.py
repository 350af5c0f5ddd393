"""Command-line pipeline: synthesize, stream, record, segment, featurize,
train, evaluate, and render figures.

Conventions shared by every subcommand: all randomness flows from an
explicit --seed (never the clock), a JSON --config file can pre-set any
flag (command-line values win), usage problems exit 2, and data problems
exit 1 with a single diagnostic line naming the error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import devicesim, evaluation, features, ingest, models, preprocess, report
from . import sleepwake, synth
from .core import Stage
from .errors import AllMissing, BcgSleepError

MODEL_KINDS = ("tree", "forest", "knn", "nb")
STAGE_NAMES = tuple(s.level_name for s in Stage)


def _night_stem(path) -> str:
    name = Path(path).name
    for suffix in (".ndjson", ".csv", ".features.csv"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return Path(path).stem


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nights = synth.generate_cohort(
        args.nights,
        seed=args.seed,
        duration_s=args.duration,
        efficiency_range=(args.efficiency_lo, args.efficiency_hi),
    )
    for item in nights:
        rec = item.record
        ingest.save_night(rec, out / f"{rec.night_id}.ndjson")
        _write_text(
            out / f"{rec.night_id}.labels.json",
            ingest.write_labels(rec.night_id, item.intervals),
        )
        print(f"{rec.night_id}: {len(rec.samples)} samples, "
              f"scripted efficiency {item.scripted_efficiency:.4f}")
    return 0


def _parse_dropout(text: str) -> devicesim.DropoutWindow:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"dropout must be start:length[:mode], got {text!r}")
    mode = parts[2] if len(parts) == 3 else devicesim.SILENCE
    return devicesim.DropoutWindow(int(parts[0]), int(parts[1]), mode)


def _cmd_serve(args) -> int:
    record = ingest.load_night(args.infile, night_id=_night_stem(args.infile))
    script = devicesim.StreamScript(
        source=record,
        dropout_windows=tuple(_parse_dropout(d) for d in args.dropout or ()),
        tick_interval=args.tick,
    )
    server = devicesim.serve_stream(script, args.endpoint)
    print(f"serving {len(record.samples)} samples on {server.endpoint}", flush=True)
    try:
        while not server.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_record(args) -> int:
    policy = devicesim.RetryPolicy(
        retry_interval=args.retry_interval, deadline=args.deadline
    )
    result = devicesim.record_stream(args.endpoint, args.out, policy)
    print(f"recorded {result.n_samples} samples -> {result.path} "
          f"({len(result.gaps)} gaps, log {result.sidecar_path})")
    return 0


def _cmd_sleepwake(args) -> int:
    record = ingest.load_night(args.infile, night_id=_night_stem(args.infile))
    epochs = sleepwake.run_night(record)
    _write_text(args.out, "\n".join(sleepwake.epochs_to_csv(epochs)) + "\n")
    onset = sleepwake.sleep_onset_latency(epochs)
    print(f"epochs={len(epochs)} efficiency={sleepwake.sleep_efficiency(epochs):.4f} "
          f"onset_s={onset if onset is not None else 'none'} "
          f"waso_s={sleepwake.waso(epochs)}")
    return 0


def _cmd_featurize(args) -> int:
    record = ingest.load_night(args.infile, night_id=_night_stem(args.infile))
    intervals = ingest.load_labels(args.labels)
    cleaned = preprocess.clean_for_features(record)
    aligned = ingest.align_labels(cleaned, intervals)
    windows = features.window_night(cleaned, aligned)
    _write_text(args.out, "\n".join(features.windows_to_csv(windows)) + "\n")
    candidates = len(features.candidate_starts(cleaned))
    print(f"kept {len(windows)} of {candidates} windows -> {args.out}")
    return 0


def _load_feature_files(paths) -> features.FeatureTable:
    """One table for all files; each file's rows take its stem as night id."""
    tables = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            tables.append(features.parse_feature_csv(fh, night_id=_night_stem(path)))
    windows = features.FeatureTable.concat(tables)
    if not len(windows):
        raise AllMissing("feature windows")
    return windows


def _train_kind(kind: str, x, y, seed: int, args):
    if kind == "tree":
        return models.train_decision_tree(
            x, y, models.TreeParams(max_depth=args.max_depth)
        )
    if kind == "forest":
        params = models.ForestParams(n_trees=args.n_trees, max_depth=args.max_depth)
        return models.train_random_forest(x, y, params, seed=seed)
    if kind == "knn":
        return models.train_knn(x, y, k=args.k)
    return models.train_gaussian_nb(x, y)


def _split(windows, args):
    spec = models.SplitSpec(
        train_fraction=args.train_fraction, seed=args.seed, grouping=args.grouping
    )
    return models.split_train_test(windows, spec)


def _cmd_train(args) -> int:
    windows = _load_feature_files(args.features)
    train, test = _split(windows, args)
    model = _train_kind(args.model, train.x, train.y, args.seed, args)
    models.save_model(model, args.out)
    print(f"trained {model.kind} on {len(train)} windows "
          f"({len(test)} held out) -> {args.out}")
    return 0


def _metric_block(true_stages, predicted) -> dict:
    cm = evaluation.confusion_matrix(true_stages, predicted)
    return {
        "accuracy": evaluation.accuracy(cm),
        "macro_f1": evaluation.macro_f1(cm),
        "rmse": evaluation.rmse(true_stages, predicted),
        "confusion": [[int(v) for v in row] for row in cm],
        "n": int(cm.sum()),
    }


def _cmd_evaluate(args) -> int:
    windows = _load_feature_files(args.features)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc: dict = {}

    if args.kfold:
        if not args.model_kind:
            raise ValueError("--kfold needs --model-kind")
        x, y = windows.x, windows.y
        folds = models.kfold_indices(len(windows), args.kfold, seed=args.seed)
        fold_blocks = []
        for fold in folds:
            test = np.zeros(len(windows), dtype=bool)
            test[fold] = True
            model = _train_kind(args.model_kind, x[~test], y[~test], args.seed, args)
            fold_blocks.append(_metric_block(y[test], models.predict(model, x[test])))
        doc["kfold"] = {
            "folds": fold_blocks,
            "mean": {
                key: sum(b[key] for b in fold_blocks) / len(fold_blocks)
                for key in ("accuracy", "macro_f1", "rmse")
            },
        }
        summary = doc["kfold"]["mean"]
    else:
        if not args.model:
            raise ValueError("need --model (or --kfold with --model-kind)")
        model = models.load_model(args.model)
        train, test = _split(windows, args)
        block = _metric_block(test.y, models.predict(model, test.x))
        doc.update(block)
        doc["kind"] = model.kind
        doc["n_train"] = len(train)
        doc["n_test"] = len(test)
        _write_text(
            out_dir / "confusion.csv",
            "\n".join(evaluation.confusion_to_csv(block["confusion"], STAGE_NAMES)) + "\n",
        )
        summary = block

    _write_json(out_dir / "metrics.json", doc)
    print(f"accuracy={summary['accuracy']:.4f} macro_f1={summary['macro_f1']:.4f} "
          f"rmse={summary['rmse']:.4f}")
    return 0


def _fill_codes(aligned) -> list[int]:
    """Forward-fill unlabeled seconds for rendering; leading holes copy the
    first labeled second."""
    first = next((s for s in aligned if s is not None), None)
    if first is None:
        raise AllMissing("stage labels")
    out = []
    prev = int(first)
    for s in aligned:
        if s is not None:
            prev = int(s)
        out.append(prev)
    return out


def _scripted_efficiency(intervals) -> float:
    total = max(iv.end_t for iv in intervals)
    wake = sum(iv.duration for iv in intervals if iv.stage is Stage.WAKE)
    return 1.0 - wake / total


def _cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc: dict = {}
    wrote = []

    if args.night:
        record = ingest.load_night(args.night, night_id=_night_stem(args.night))
        epochs = sleepwake.run_night(record)
        hr = preprocess.raw_hr_series(record)
        _write_text(out_dir / "threshold_trace.svg",
                    report.threshold_trace_svg(hr, epochs))
        wrote.append("threshold_trace.svg")
        doc["sleepwake"] = {
            "efficiency": sleepwake.sleep_efficiency(epochs),
            "onset_s": sleepwake.sleep_onset_latency(epochs),
            "waso_s": sleepwake.waso(epochs),
            "n_epochs": len(epochs),
        }

        if args.labels and args.model:
            intervals = ingest.load_labels(args.labels)
            model = models.load_model(args.model)
            cleaned = preprocess.clean_for_features(record)
            aligned = ingest.align_labels(cleaned, intervals)
            predicted = models.predict_hypnogram(model, cleaned)
            _write_text(
                out_dir / "hypnogram_pair.svg",
                report.hypnogram_pair_svg(
                    _fill_codes(aligned), [int(s) for s in predicted]
                ),
            )
            wrote.append("hypnogram_pair.svg")
            windows = features.window_night(cleaned, aligned)
            block = _metric_block(windows.y, models.predict(model, windows.x))
            doc["windows"] = block
            doc["windows"]["kind"] = model.kind
            _write_text(
                out_dir / "confusion_heatmap.svg",
                report.confusion_heatmap_svg(block["confusion"], STAGE_NAMES),
            )
            _write_text(
                out_dir / "confusion.csv",
                "\n".join(
                    evaluation.confusion_to_csv(block["confusion"], STAGE_NAMES)
                ) + "\n",
            )
            wrote.extend(["confusion_heatmap.svg", "confusion.csv"])

    if args.cohort_dir:
        cohort = sorted(Path(args.cohort_dir).glob("*.ndjson"))
        if not cohort:
            raise AllMissing(f"night files in {args.cohort_dir}")
        ids, algo, ref = [], [], []
        for night_path in cohort:
            rec = ingest.load_night(night_path, night_id=_night_stem(night_path))
            labels_path = night_path.with_name(_night_stem(night_path) + ".labels.json")
            intervals = ingest.load_labels(labels_path)
            ids.append(rec.night_id)
            algo.append(sleepwake.sleep_efficiency(sleepwake.run_night(rec)))
            ref.append(_scripted_efficiency(intervals))
        summary = evaluation.efficiency_comparison(algo, ref, ids)
        doc["efficiency"] = summary
        _write_text(out_dir / "efficiency_box.svg", report.efficiency_box_svg(summary))
        wrote.append("efficiency_box.svg")

    if not doc:
        raise ValueError("nothing to report: pass --night and/or --cohort-dir")
    _write_json(out_dir / "metrics.json", doc)
    wrote.append("metrics.json")
    print(f"wrote {', '.join(wrote)} in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bcgsleep",
        description="Sleep analysis pipeline for 1 Hz bed-sensor vitals",
    )
    parser.add_argument("--config", help="JSON file of flag defaults", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["synth"] = sub.add_parser(
        "synth", help="generate a synthetic cohort with scripted labels")
    p.add_argument("--nights", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=int, default=28800)
    p.add_argument("--efficiency-lo", type=float, default=0.70)
    p.add_argument("--efficiency-hi", type=float, default=0.95)
    p.set_defaults(func=_cmd_synth)

    p = subparsers["serve"] = sub.add_parser(
        "serve", help="stream a night file over TCP like the bed sensor")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--endpoint", default="127.0.0.1:0")
    p.add_argument("--tick", type=float, default=1.0)
    p.add_argument("--dropout", action="append",
                   help="start:length[:mode], mode silence|disconnect")
    p.set_defaults(func=_cmd_serve)

    p = subparsers["record"] = sub.add_parser(
        "record", help="record a device stream to NDJSON with a gap log")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--retry-interval", type=float, default=1.0)
    p.add_argument("--deadline", type=float, default=30.0)
    p.set_defaults(func=_cmd_record)

    p = subparsers["sleepwake"] = sub.add_parser(
        "sleepwake", help="segment a night into awake/asleep epochs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sleepwake)

    p = subparsers["featurize"] = sub.add_parser(
        "featurize", help="extract labeled window statistics to CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    def add_split_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--train-fraction", type=float, default=0.8)
        p.add_argument("--grouping", default=models.WINDOW_GROUPING,
                       choices=(models.WINDOW_GROUPING, models.NIGHT_GROUPING))

    def add_model_flags(p):
        p.add_argument("--n-trees", type=int, default=100)
        p.add_argument("--max-depth", type=int, default=20)
        p.add_argument("--k", type=int, default=5)

    p = subparsers["train"] = sub.add_parser(
        "train", help="fit a stage classifier on feature CSVs")
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True)
    add_split_flags(p)
    add_model_flags(p)
    p.set_defaults(func=_cmd_train)

    p = subparsers["evaluate"] = sub.add_parser(
        "evaluate", help="score a model on the held-out split or by k-fold")
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--model", help="model JSON (single-split mode)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kfold", type=int, default=0)
    p.add_argument("--model-kind", choices=MODEL_KINDS)
    add_split_flags(p)
    add_model_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = subparsers["report"] = sub.add_parser(
        "report", help="render figures and metrics from pipeline outputs")
    p.add_argument("--night")
    p.add_argument("--labels")
    p.add_argument("--model")
    p.add_argument("--cohort-dir")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser, subparsers


def _extract_config(argv: list[str]) -> tuple[list[str], dict]:
    """Pull --config out of argv and load it, wherever it appears."""
    out = []
    config = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise SystemExit(2)
            with open(argv[i + 1], "r", encoding="utf-8") as fh:
                config = json.load(fh)
            i += 2
        elif arg.startswith("--config="):
            with open(arg.split("=", 1)[1], "r", encoding="utf-8") as fh:
                config = json.load(fh)
            i += 1
        else:
            out.append(arg)
            i += 1
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return out, config


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _extract_config(argv)
        parser, subparsers = build_parser()
        if config:
            # --in parses into "infile" (args.in would not be legal python)
            defaults = {
                ("infile" if k == "in" else k).replace("-", "_"): v
                for k, v in config.items()
            }
            for sp in subparsers.values():
                sp.set_defaults(**defaults)
                for action in sp._actions:
                    # a flag satisfied by the config is no longer mandatory
                    if action.dest in defaults:
                        action.required = False
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except BcgSleepError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
