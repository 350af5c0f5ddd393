"""Where the traced run measures bcgsleep, and how spans become layer metrics.

``install`` wraps the public functions that ``cli`` and the workloads call,
one span per call, with item counts attached to the span. ``layer_metrics``
turns the spans of the traced rounds into the per-layer metrics listed in
``BENCHMARK.json``: times and counts are per round (the mean over traced
rounds), set-up figures are per set-up.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import LAYERS, Tracer

KINDS = {"RandomForest": "forest", "DecisionTree": "tree", "Knn": "knn", "GaussianNB": "nb"}
TRAINERS = {
    "train_random_forest": "forest",
    "train_decision_tree": "tree",
    "train_knn": "knn",
    "train_gaussian_nb": "nb",
}
CLI_COMMANDS = ("sleepwake", "featurize", "train", "evaluate", "report")
SVG_FUNCTIONS = ("threshold_trace_svg", "hypnogram_pair_svg",
                 "confusion_heatmap_svg", "efficiency_box_svg")
METRIC_FUNCTIONS = ("confusion_matrix", "accuracy", "macro_f1", "rmse")
WINDOW_LEN = 10  # bcgsleep.features.WINDOW_LEN; run.py imports this module without bcgsleep


def _kind(model) -> str:
    return KINDS.get(getattr(model, "kind", ""), "other")


def install(tracer: Tracer) -> None:
    """Wrap every probed function of the bcgsleep modules."""
    from bcgsleep import (devicesim, evaluation, features, ingest, models,
                          preprocess, report, sleepwake, synth)

    def put(**values):
        def after(span, args, kwargs, result):
            for key, fn in values.items():
                span.attrs[key] = fn(args, kwargs, result)
        return after

    w = tracer.wrap
    w(ingest, "load_night", after=put(items=lambda a, k, r: len(r.samples)))
    w(ingest, "load_labels")
    w(ingest, "save_night", after=put(items=lambda a, k, r: len(a[0].samples)))
    w(preprocess, "clean_for_features", after=put(
        items=lambda a, k, r: len(r.samples) - sum(1 for s in a[0].samples if s.hr != 0.0)))
    w(preprocess, "raw_hr_series")
    w(sleepwake, "run_night", after=put(items=lambda a, k, r: len(r)))
    w(features, "window_night", after=put(
        items=lambda a, k, r: len(r),
        candidates=lambda a, k, r: max(0, a[0].last_t + 2 - WINDOW_LEN)))
    tracer.wrap_generator(features, "windows_to_csv")
    w(features, "parse_feature_csv", after=put(items=lambda a, k, r: len(r)))
    w(features, "windows_to_matrix")
    w(models, "split_train_test")
    w(models, "kfold_indices")
    for attr, kind in TRAINERS.items():
        w(models, attr, name=f"models.train.{kind}", after=put(
            items=lambda a, k, r: sum(len(t.feature) for t in getattr(r, "_trees", ()))))
    w(models, "predict",
      span_name=lambda a, k: f"models.predict.{_kind(a[0])}",
      after=put(items=lambda a, k, r: len(r)))
    w(models, "predict_hypnogram",
      span_name=lambda a, k: f"models.hypnogram.{_kind(a[0])}",
      after=put(items=lambda a, k, r: max(0, len(r) - WINDOW_LEN + 1)))
    w(models, "save_model",
      span_name=lambda a, k: f"models.save.{_kind(a[0])}",
      after=put(items=lambda a, k, r: os.path.getsize(a[1])))

    def name_load(span, args, kwargs, result):
        span.name = f"models.load.{_kind(result)}"

    w(models, "load_model", after=name_load)
    for attr in METRIC_FUNCTIONS:
        w(evaluation, attr, name="evaluation.metrics")
    w(evaluation, "efficiency_comparison", name="evaluation.efficiency")
    for attr in SVG_FUNCTIONS:
        w(report, attr, name="report.svg", after=put(items=lambda a, k, r: len(r)))
    w(devicesim, "serve_stream")
    w(devicesim, "record_stream", after=put(
        items=lambda a, k, r: r.n_samples, gaps=lambda a, k, r: len(r.gaps)))
    w(synth, "generate_cohort")


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("ingest.load_night_s", "s"), ("ingest.samples_parsed", "count"),
    ("ingest.load_labels_s", "s"), ("ingest.save_night_s", "s"),
    ("preprocess.clean_s", "s"), ("preprocess.seconds_filled", "count"),
    ("sleepwake.run_night_s", "s"), ("sleepwake.epochs_scored", "count"),
    ("features.window_night_s", "s"), ("features.windows_kept", "count"),
    ("features.windows_discarded", "count"), ("features.to_csv_s", "s"),
    ("features.parse_csv_s", "s"), ("features.rows_parsed", "count"),
    ("features.to_matrix_s", "s"), ("features.hypnogram_windows", "count"),
    *[(f"models.train_s.{k}", "s") for k in KINDS.values()],
    ("models.forest_nodes", "count"),
    *[(f"models.predict_s.{k}", "s") for k in KINDS.values()],
    *[(f"models.hypnogram_s.{k}", "s") for k in KINDS.values()],
    ("models.knn_queries", "count"),
    *[(f"models.save_s.{k}", "s") for k in KINDS.values()],
    *[(f"models.load_s.{k}", "s") for k in KINDS.values()],
    *[(f"models.model_bytes.{k}", "bytes") for k in KINDS.values()],
    ("models.split_s", "s"),
    ("evaluation.metrics_s", "s"), ("evaluation.efficiency_s", "s"),
    ("report.svg_s", "s"), ("report.svg_bytes", "bytes"),
    *[(f"cli.{c}_s", "s") for c in CLI_COMMANDS],
    ("cli.kfold_mask_s", "s"),
    ("devicesim.serve_s", "s"), ("devicesim.record_s", "s"),
    ("devicesim.samples_recorded", "count"), ("devicesim.gaps_recorded", "count"),
    ("devicesim.end_wait_s", "s"),
    ("synth.cohort_s", "s"),
    *[(f"self_s.{layer}", "s") for layer in LAYERS],
    ("trace.coverage", "share"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
]

# Workload figures the traced run also reports; the untraced run prints them
# on its own lines (see run.py), since BENCHMARK.json bounds only metrics that
# every workload has.
WORKLOAD_FIGURES = [
    ("pipeline_s", "s"),
    *[(f"fit_stage_s.{k}", "s") for k in KINDS.values()],
    ("kfold_s", "s"),
    ("stream_samples_per_s", "samples/s"),
    ("recording_to_epochs_s", "s"),
]

# span name -> (time metric, count metric fed from attrs["items"])
_SPAN_METRICS = {
    "ingest.load_night": ("ingest.load_night_s", "ingest.samples_parsed"),
    "ingest.load_labels": ("ingest.load_labels_s", None),
    "ingest.save_night": ("ingest.save_night_s", None),
    "preprocess.clean_for_features": ("preprocess.clean_s", "preprocess.seconds_filled"),
    "sleepwake.run_night": ("sleepwake.run_night_s", "sleepwake.epochs_scored"),
    "features.window_night": ("features.window_night_s", "features.windows_kept"),
    "features.windows_to_csv": ("features.to_csv_s", None),
    "features.parse_feature_csv": ("features.parse_csv_s", "features.rows_parsed"),
    "features.windows_to_matrix": ("features.to_matrix_s", None),
    "models.split_train_test": ("models.split_s", None),
    "evaluation.metrics": ("evaluation.metrics_s", None),
    "evaluation.efficiency": ("evaluation.efficiency_s", None),
    "report.svg": ("report.svg_s", "report.svg_bytes"),
    "devicesim.record_stream": ("devicesim.record_s", "devicesim.samples_recorded"),
    "synth.generate_cohort": ("synth.cohort_s", None),
}
for _k in KINDS.values():
    _SPAN_METRICS[f"models.train.{_k}"] = (f"models.train_s.{_k}", None)
    _SPAN_METRICS[f"models.save.{_k}"] = (f"models.save_s.{_k}", f"models.model_bytes.{_k}")
    _SPAN_METRICS[f"models.load.{_k}"] = (f"models.load_s.{_k}", None)
    _SPAN_METRICS[f"models.hypnogram.{_k}"] = (f"models.hypnogram_s.{_k}", "features.hypnogram_windows")
for _c in CLI_COMMANDS:
    _SPAN_METRICS[f"cli.{_c}"] = (f"cli.{_c}_s", None)


def layer_metrics(tracer: Tracer, setup_root, round_roots, extra: dict) -> dict:
    """Per-layer metrics from one traced set-up and the traced rounds.

    extra carries figures measured by the workload itself (serve and
    end-of-stream wait times, which happen on the server's threads), already
    averaged per round. trace.overhead_s needs an untraced run to compare
    with; run.py fills it in.
    """
    kids = tracer.children()
    n_rounds = len(round_roots)
    totals: dict[str, float] = defaultdict(float)

    def add(spans, scale):
        for s in spans:
            name = s.name
            if name.startswith("models.predict."):
                kind = name.rsplit(".", 1)[1]
                parent = tracer.spans[s.parent] if s.parent is not None else None
                if kind == "knn":
                    totals["models.knn_queries"] += s.attrs.get("items", 0) * scale
                if parent is None or not parent.name.startswith("models.hypnogram."):
                    totals[f"models.predict_s.{kind}"] += s.duration * scale
                continue
            if name == "models.train.forest":
                totals["models.forest_nodes"] += s.attrs.get("items", 0) * scale
            if name == "features.window_night":
                discarded = s.attrs.get("candidates", 0) - s.attrs.get("items", 0)
                totals["features.windows_discarded"] += discarded * scale
            if name == "devicesim.record_stream":
                totals["devicesim.gaps_recorded"] += s.attrs.get("gaps", 0) * scale
            if name == "cli.evaluate" and s.attrs.get("kfold"):
                totals["cli.kfold_mask_s"] += tracer.self_time(s, kids) * scale
            time_metric, count_metric = _SPAN_METRICS.get(name, (None, None))
            if time_metric:
                totals[time_metric] += s.duration * scale
            if count_metric:
                totals[count_metric] += s.attrs.get("items", 0) * scale

    round_spans = []
    for root in round_roots:
        round_spans.append(root)
        round_spans.extend(tracer.descendants(root, kids))
    add(round_spans, 1.0 / n_rounds)
    # set-up only: synthesis and writing the night files
    for s in tracer.descendants(setup_root, kids):
        if s.name in ("synth.generate_cohort", "ingest.save_night"):
            totals[_SPAN_METRICS[s.name][0]] += s.duration

    for s in round_spans:
        totals[f"self_s.{s.layer}"] += tracer.self_time(s, kids) / n_rounds
    wall = sum(r.duration for r in round_roots)
    covered = sum(c.duration for r in round_roots for c in kids.get(r.id, ()))
    totals["trace.coverage"] = covered / wall if wall > 0 else 0.0
    totals["trace.spans"] = len(round_spans) / n_rounds
    totals.update(extra)

    units = dict(PER_LAYER + WORKLOAD_FIGURES)
    return {name: (float(totals.get(name, 0.0)), unit) for name, unit in units.items()}

