"""Run a benchmark workload of bcgsleep and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload cohort-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

The first form runs one workload in a child process and prints, last, one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced;
with --trace 1 they are its per-layer metrics, from traced rounds. The lines
before it name the run (manifest) and give the workload's own figures.

--all runs every workload untraced and then traced and prints every metric
as a table. Each run's manifest, result and spans are kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import probes

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cohort-cli", "classifier-suite", "stream-record")
RUN_TIMEOUT_S = 170  # for every process of one run together
SETUP_REPEATS = 3
# numpy's BLAS would otherwise start a worker thread per core; the workloads
# keep to the program's own threads so that runs on two cores stay steady.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def manifest(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": SINGLE_THREAD_BLAS,
    }


def _child(root: Path, workload: str, seed: int, seconds: float, trace: int,
           setups: int, tag: str, deadline: float) -> dict:
    """One workload process; returns the result it wrote."""
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ, **SINGLE_THREAD_BLAS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--setups", str(setups), "--work", str(work), "--result", str(result_path)]
    try:
        child = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr)
        try:
            code = child.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise SystemExit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        if code != 0 or not result_path.exists():
            raise SystemExit(f"{workload}: workload process exited with {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if trace:
            shutil.copyfile(result.pop("trace_file"), root / ".bench_out" / f"{tag}.spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Untraced: one process that sets up several times. Traced: an untraced
    process and then a traced one, each setting up once, so that the tracing
    overhead compares two rounds that both start cold."""
    (root / ".bench_out").mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    t0 = time.perf_counter()
    deadline = t0 + RUN_TIMEOUT_S
    if not trace:
        result = _child(root, workload, seed, seconds, 0, SETUP_REPEATS, tag, deadline)
    else:
        plain = _child(root, workload, seed, seconds, 0, 1, tag + "-untraced", deadline)
        result = _child(root, workload, seed, seconds, 1, 1, tag, deadline)
        overhead = statistics.median(result["round_walls"]) - statistics.median(plain["round_walls"])
        result["metrics"]["trace.overhead_s"] = (overhead, "s")
        result["untraced_round_walls"] = plain["round_walls"]
        for key in ("attempted", "failed"):
            result[key] += plain[key]
        result["correct"] = result["correct"] and plain["correct"]
        result["problems"] += plain["problems"]
    result["manifest"] = manifest(root, workload, seed, seconds, trace)
    result["manifest"]["run_wall_s"] = time.perf_counter() - t0
    with open(root / ".bench_out" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _listed_metrics(root: Path, trace: int):
    path = root / "BENCHMARK.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def _line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def _print_table(workload: str, result: dict) -> None:
    m = result["manifest"]
    print(f"# {workload}: seed {m['seed']}, trace {m['trace']}, {result['rounds']} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    rows = [(k, v, u) for k, (v, u) in result["metrics"].items()]
    if not result["manifest"]["trace"]:
        units = dict(probes.WORKLOAD_FIGURES)
        rows += [(k, v, units.get(k, "s")) for k, v in result["figures"].items()]
    for name, value, unit in rows:
        print(f"{workload:18s} {name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bcgsleep benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")

    root = Path.cwd()
    if not (root / "src" / "bcgsleep" / "__init__.py").is_file():
        print("run from the root of a bcgsleep checkout: src/bcgsleep is missing",
              file=sys.stderr)
        return 2

    if args.all:
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(root, workload, args.seed, args.seconds, trace)
                _print_table(workload, result)
                if result["fault_seen"]:
                    print(f"  known fault: {result['fault_seen']}")
                for problem in result["problems"]:
                    print(f"  CHECK FAILED: {problem}")
        return 0

    result = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    listed = _listed_metrics(root, args.trace)
    if listed is not None and sorted(listed) != sorted(result["metrics"]):
        print("metrics differ from BENCHMARK.json: "
              f"{sorted(set(listed) ^ set(result['metrics']))}", file=sys.stderr)
        return 1
    print(json.dumps({"manifest": result["manifest"]}, sort_keys=True))
    if not args.trace:
        print(json.dumps({"workload_figures": result["figures"]}, sort_keys=True))
    if result["fault_seen"]:
        print(json.dumps({"known_fault": result["fault_seen"]}))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
