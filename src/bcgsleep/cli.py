"""Command-line pipeline: synthesize, stream, record, segment, featurize,
train, evaluate, and render figures.

Conventions shared by every subcommand: all randomness flows from an
explicit --seed (never the clock), a JSON --config file can pre-set any
flag (command-line values win), usage problems exit 2, and data problems
exit 1 with a single diagnostic line naming the error.

Large night reads, feature CSV formatting, forest trees, kNN query blocks
and report --cohort-dir's nights are spread over every usable CPU in forked
workers (core.fork_map), with no setting; what a command writes is the same
as a serial run's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import devicesim, evaluation, features, ingest, models, preprocess, report
from . import sleepwake, synth
from .core import fork_map, write_files
from .errors import AllMissing, BcgSleepError

MODEL_KINDS = ("tree", "forest", "knn", "nb")


def _night_stem(path) -> str:
    name = Path(path).name
    for suffix in (".features.csv", ".ndjson", ".csv"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return Path(path).stem


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _confusion_csv(confusion) -> str:
    return "\n".join(evaluation.confusion_to_csv(confusion)) + "\n"


def _write_outputs(out_dir, outputs: dict[str, str]):
    """Create out_dir and write each named text into it in one write_files
    call. Commands call this only once every output is computed, and a
    failed write removes the directories it created, so a failed run leaves
    no new directory and no partial set of files behind."""
    out_dir = Path(out_dir)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        write_files({out_dir / name: text for name, text in outputs.items()})
    except BaseException:
        for d in made:  # deepest first; each is empty again
            d.rmdir()
        raise


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_synth(args) -> int:
    nights = synth.generate_cohort(
        args.nights,
        seed=args.seed,
        duration_s=args.duration,
        efficiency_range=(args.efficiency_lo, args.efficiency_hi),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for item in nights:
        rec = item.record
        ingest.save_night(rec, out / f"{rec.night_id}.ndjson")
        write_files({out / f"{rec.night_id}.labels.json":
                     ingest.write_labels(rec.night_id, item.intervals)})
        print(f"{rec.night_id}: {len(rec.t)} samples, "
              f"scripted efficiency {item.scripted_efficiency:.4f}")
    return 0


def _parse_dropout(text: str) -> devicesim.DropoutWindow:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"dropout must be start:length[:mode], got {text!r}")
    mode = parts[2] if len(parts) == 3 else devicesim.SILENCE
    return devicesim.DropoutWindow(int(parts[0]), int(parts[1]), mode)


def _cmd_serve(args) -> int:
    dropouts = tuple(_parse_dropout(d) for d in args.dropout or ())
    host, port = devicesim.split_endpoint(args.endpoint)
    tick = devicesim.check_tick(args.tick)
    record = ingest.load_night(args.infile, night_id=_night_stem(args.infile))
    script = devicesim.StreamScript(record, dropouts, tick)
    server = devicesim.DeviceServer(script, host, port).start()
    try:  # a Ctrl-C as soon as the banner is out still stops the server
        print(f"serving {len(record.t)} samples on {server.endpoint}", flush=True)
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
    write_files({args.out: "\n".join(sleepwake.epochs_to_csv(epochs)) + "\n"})
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
    features.save_features(windows, args.out)
    candidates = len(features.candidate_starts(cleaned))
    print(f"kept {len(windows)} of {candidates} windows -> {args.out}")
    return 0


def _load_feature_files(paths) -> features.FeatureTable:
    """One table for all files, read in the order given; each file's rows
    take its stem as night id, and two files with one stem are a ValueError
    before any file is read."""
    ids = [_night_stem(p) for p in paths]
    for i, night_id in enumerate(ids):
        if night_id in ids[:i]:
            raise ValueError(f"feature files {paths[ids.index(night_id)]} and {paths[i]} "
                             f"share the night id {night_id!r}")
    windows = features.FeatureTable.concat(
        [features.load_features(p, night_id) for p, night_id in zip(paths, ids)])
    if not len(windows):
        raise AllMissing("the feature files hold no windows")
    return windows


def _trainer(kind: str, args):
    """fit(x, y) for a model kind, its flags checked now, before any input
    is read."""
    if kind == "tree":
        params = models.TreeParams(max_depth=args.max_depth)
        return lambda x, y: models.train_decision_tree(x, y, params)
    if kind == "forest":
        params = models.ForestParams(n_trees=args.n_trees, max_depth=args.max_depth)
        return lambda x, y: models.train_random_forest(x, y, params, seed=args.seed)
    if kind == "knn":
        k = models.check_knn_k(args.k)
        return lambda x, y: models.train_knn(x, y, k=k)
    return models.train_gaussian_nb


def _split_spec(args) -> models.SplitSpec:
    return models.SplitSpec(
        train_fraction=args.train_fraction, seed=args.seed, grouping=args.grouping
    )


def _cmd_train(args) -> int:
    spec = _split_spec(args)
    fit = _trainer(args.model, args)
    windows = _load_feature_files(args.features)
    train, test = models.split_train_test(windows, spec)
    model = fit(train.x, train.y)
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
    if args.kfold and not args.model_kind:
        raise ValueError("--kfold needs --model-kind")
    if not args.kfold and not args.model:
        raise ValueError("need --model (or --kfold with --model-kind)")
    if args.kfold:
        models.check_folds(args.kfold)
        fit = _trainer(args.model_kind, args)
    else:
        spec = _split_spec(args)
    windows = _load_feature_files(args.features)
    doc: dict = {}
    outputs = {}

    if args.kfold:
        x, y = windows.x, windows.y
        group, n_groups = models.split_groups(windows, args.grouping)
        fold_blocks = []
        unit = models.GROUP_UNITS[args.grouping]
        for fold in models.kfold_indices(n_groups, args.kfold, seed=args.seed, unit=unit):
            test = np.isin(group, fold)
            model = fit(x[~test], y[~test])
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
        model = models.load_model(args.model)
        train, test = models.split_train_test(windows, spec)
        block = _metric_block(test.y, models.predict(model, test.x))
        doc.update(block)
        doc["kind"] = model.kind
        doc["n_train"] = len(train)
        doc["n_test"] = len(test)
        outputs["confusion.csv"] = _confusion_csv(block["confusion"])
        summary = block

    outputs["metrics.json"] = _json_text(doc)
    _write_outputs(args.out_dir, outputs)
    print(f"accuracy={summary['accuracy']:.4f} macro_f1={summary['macro_f1']:.4f} "
          f"rmse={summary['rmse']:.4f}")
    return 0


def _fill_codes(aligned: np.ndarray) -> np.ndarray:
    """Forward-fill unlabeled (-1) seconds for rendering; leading holes copy
    the first labeled second."""
    labeled = aligned >= 0
    if not labeled.any():
        raise AllMissing("labels cover no second of the night")
    source = np.where(labeled, np.arange(aligned.size), np.argmax(labeled))
    return aligned[np.maximum.accumulate(source)]


def _cohort_night(job, night_path) -> tuple[str, float, float]:
    """(night id, the algorithm's sleep efficiency, the scripted one) of a
    cohort night file and its labels beside it."""
    rec = ingest.load_night(night_path, night_id=_night_stem(night_path))
    intervals = ingest.load_labels(night_path.with_name(rec.night_id + ".labels.json"))
    algo = sleepwake.sleep_efficiency(sleepwake.run_night(rec))
    return rec.night_id, algo, synth.scripted_efficiency(intervals)


def _cmd_report(args) -> int:
    doc: dict = {}
    outputs = {}
    if (args.labels or args.model) and not (args.night and args.labels and args.model):
        raise ValueError("--labels and --model must be given together, with --night")

    if args.night:
        record = ingest.load_night(args.night, night_id=_night_stem(args.night))
        epochs = sleepwake.run_night(record)
        hr = preprocess.raw_hr_series(record)
        outputs["threshold_trace.svg"] = report.threshold_trace_svg(hr, epochs)
        doc["sleepwake"] = {
            "efficiency": sleepwake.sleep_efficiency(epochs),
            "onset_s": sleepwake.sleep_onset_latency(epochs),
            "waso_s": sleepwake.waso(epochs),
            "n_epochs": len(epochs),
        }

        if args.model:
            intervals = ingest.load_labels(args.labels)
            model = models.load_model(args.model)
            cleaned = preprocess.clean_for_features(record)
            aligned = ingest.align_labels(cleaned, intervals)
            predicted = models.predict_hypnogram(model, cleaned)
            outputs["hypnogram_pair.svg"] = report.hypnogram_pair_svg(
                _fill_codes(aligned), predicted)
            # window s's prediction is the hypnogram's second s
            starts = features.kept_starts(aligned)
            block = _metric_block(aligned[starts], predicted[starts])
            doc["windows"] = block
            doc["windows"]["kind"] = model.kind
            outputs["confusion_heatmap.svg"] = report.confusion_heatmap_svg(block["confusion"])
            outputs["confusion.csv"] = _confusion_csv(block["confusion"])

    if args.cohort_dir:
        cohort = sorted(Path(args.cohort_dir).glob("*.ndjson"))
        if not cohort:
            raise AllMissing(f"no night files (*.ndjson) in {args.cohort_dir}")
        ids, algo, ref = zip(*fork_map(_cohort_night, cohort))
        summary = evaluation.efficiency_comparison(algo, ref, ids)
        doc["efficiency"] = summary
        outputs["efficiency_box.svg"] = report.efficiency_box_svg(summary)

    if not doc:
        raise ValueError("nothing to report: pass --night and/or --cohort-dir")
    outputs["metrics.json"] = _json_text(doc)
    _write_outputs(args.out_dir, outputs)
    print(f"wrote {', '.join(outputs)} in {Path(args.out_dir)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and for each subcommand its flags by name (without the
    dashes) as (action, takes a list) pairs."""
    parser = argparse.ArgumentParser(
        prog="bcgsleep",
        description="Sleep analysis pipeline for 1 Hz bed-sensor vitals",
    )
    parser.add_argument("--config", help="JSON file of flag defaults", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, dict[str, tuple[argparse.Action, bool]]] = {}

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        actions = flags[name] = {}

        def add(flag, **kwargs):
            many = kwargs.get("nargs") == "+" or kwargs.get("action") == "append"
            actions[flag[2:]] = (p.add_argument(flag, **kwargs), many)
        return add

    add = command("synth", _cmd_synth, "generate a synthetic cohort with scripted labels")
    add("--nights", type=int, default=8)
    add("--seed", type=int, default=0)
    add("--out", required=True)
    add("--duration", type=int, default=28800)
    add("--efficiency-lo", type=float, default=0.70)
    add("--efficiency-hi", type=float, default=0.95)

    add = command("serve", _cmd_serve, "stream a night file over TCP like the bed sensor")
    add("--in", dest="infile", required=True)
    add("--endpoint", default="127.0.0.1:0")
    add("--tick", type=float, default=1.0)
    add("--dropout", action="append",
        help="start:length[:mode], mode silence|disconnect")

    add = command("record", _cmd_record, "record a device stream to NDJSON with a gap log")
    add("--endpoint", required=True)
    add("--out", required=True)
    add("--retry-interval", type=float, default=1.0)
    add("--deadline", type=float, default=30.0)

    add = command("sleepwake", _cmd_sleepwake, "segment a night into awake/asleep epochs")
    add("--in", dest="infile", required=True)
    add("--out", required=True)

    add = command("featurize", _cmd_featurize, "extract labeled window statistics to CSV")
    add("--in", dest="infile", required=True)
    add("--labels", required=True)
    add("--out", required=True)

    def add_split_flags(add):
        add("--seed", type=int, default=0)
        add("--train-fraction", type=float, default=0.8)
        add("--grouping", default=models.WINDOW_GROUPING,
            choices=(models.WINDOW_GROUPING, models.NIGHT_GROUPING))

    def add_model_flags(add):
        add("--n-trees", type=int, default=100)
        add("--max-depth", type=int, default=20)
        add("--k", type=int, default=5)

    add = command("train", _cmd_train, "fit a stage classifier on feature CSVs")
    add("--features", nargs="+", required=True)
    add("--model", required=True, choices=MODEL_KINDS)
    add("--out", required=True)
    add_split_flags(add)
    add_model_flags(add)

    add = command("evaluate", _cmd_evaluate,
                  "score a model on the held-out split or by k-fold")
    add("--features", nargs="+", required=True)
    add("--model", help="model JSON (single-split mode)")
    add("--out-dir", required=True)
    add("--kfold", type=int, default=0)
    add("--model-kind", choices=MODEL_KINDS)
    add_split_flags(add)
    add_model_flags(add)

    add = command("report", _cmd_report, "render figures and metrics from pipeline outputs")
    add("--night")
    add("--labels")
    add("--model")
    add("--cohort-dir")
    add("--out-dir", required=True)

    return parser, flags


def _extract_config(argv: list[str], parser) -> tuple[list[str], dict]:
    """Pull --config out of argv and load it, wherever it appears; a
    --config with no path is the parser's usage error."""
    out = []
    config = {}
    args = iter(argv)
    for arg in args:
        if arg == "--config" or arg.startswith("--config="):
            path = arg[len("--config="):] if "=" in arg else next(args, None)
            if path is None:
                parser.error("argument --config: expected one argument")
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    config = json.load(fh)
                except RecursionError as exc:
                    raise ValueError(f"config file: {exc}") from None
        else:
            out.append(arg)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return out, config


# JSON value types a config file may give for each flag type
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _apply_config(config: dict, command: str, flags: dict) -> None:
    """Make each config entry its subcommand flag's default, so a value is
    never read as a flag and an explicit flag still wins (an appending flag
    adds its values to the config's).

    Each key must name one of the subcommand's flags (dashes or underscores),
    and each value must have the flag's type and be one of its choices; a
    list-valued flag takes a non-empty JSON list. Raises ValueError.
    """
    for key, value in config.items():
        name = key.replace("_", "-")
        if name not in flags:
            raise ValueError(f"config key {key!r} is not a flag of {command}")
        action, many = flags[name]
        if many and not (isinstance(value, list) and value):
            raise ValueError(f"config key {key!r} must be a non-empty list")
        for item in value if many else [value]:
            types = _CONFIG_TYPES[action.type]
            if not isinstance(item, types) or isinstance(item, bool):
                raise ValueError(
                    f"config key {key!r} must be {types[-1].__name__}, got {item!r}")
            if action.choices is not None and item not in action.choices:
                raise ValueError(f"config key {key!r} must be one of "
                                 f"{', '.join(action.choices)}, got {item!r}")
        # a scalar converts as its text on the command line would
        action.default = list(value) if many else (action.type or str)(str(value))
        action.required = False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, flags = build_parser()
        argv, config = _extract_config(argv, parser)
        command = next((a for a in argv if not a.startswith("-")), None)
        if config and command in flags:
            _apply_config(config, command, flags[command])
        args = parser.parse_args(argv)
        return args.func(args)
    except (BcgSleepError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
