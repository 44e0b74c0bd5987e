"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The run is a closed loop with one
client: in one process, operations run one after another on one thread
(BLAS included).  Set-up (package import, inputs from the seed, windows) is
repeated SETUP_REPEATS times and its median is setup_s.  Then whole rounds
of the workload's operations run until --seconds have passed; each round
starts from a fresh import of the package, as a new CLI process would.
Every output is checked; a failed check makes "correct" false, an operation
that raises or exits non-zero counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
installs the span recorder (spans.py) and reports its per-layer metrics.
Metrics are medians over rounds.  The last line of stdout is the result;
the line before it, and bench/results/<workload>-seed<seed>-trace<t>.json,
carry provenance and the per-round detail.
"""

from __future__ import annotations

import os

THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:  # must precede the numpy import
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import importlib
import io
import json
import pathlib
import platform
import resource
import statistics
import sys
import time
import types

import numpy as np

import spans
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("core", "transforms", "theta", "bargmann", "frames", "localization", "cli")
SETUP_REPEATS = 15

# task metrics: per-round values computed from timed operations and counts
TASK_METRICS = {
    "sweep_s": lambda r: r.times.get("sweep", 0.0),
    "density_s": lambda r: r.times.get("density", 0.0),
    "restriction_s": lambda r: r.times.get("restriction", 0.0),
    "dgt_s": lambda r: r.times.get("dgt", 0.0),
    "scan_subsets_per_s": lambda r: _rate(r, "scan_subsets", "scan"),
    "theta_evals_per_s": lambda r: _rate(r, "theta_evals", "theta_eval"),
    "winding_s": lambda r: r.times.get("winding", 0.0),
    "gram_s": lambda r: r.times.get("gram", 0.0),
}


def _rate(r, count, task):
    t = r.times.get(task, 0.0)
    return r.counts.get(count, 0) / t if t > 0 else 0.0


class Round:
    """Timed operations, counts and check results of one round."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.times = {}
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, task, fn, *args, **kwargs):
        """One operation, timed under `task`; returns None if it raised."""
        self.attempted += 1
        rec = self.recorder
        if rec is not None:
            rec.enter(task)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = None
            self.failed += 1
            print(f"operation failed: {task}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.exit()
        self.times[task] = self.times.get(task, 0.0) + dt
        return out

    def cli(self, task, cli, argv):
        """One CLI command through cli.main(argv), stdout captured in memory."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse usage errors exit 2
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()
        text = self.call(task, run)
        if text is not None and self.recorder is not None:
            self.recorder.add("cli.output_bytes", len(text.encode()))
        return text

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def wall(self):
        return sum(self.times.values())


def fresh_import():
    """Import torusgabor from ./src with an empty module table for it."""
    for name in [m for m in sys.modules if m == "torusgabor" or m.startswith("torusgabor.")]:
        del sys.modules[name]
    package = importlib.import_module("torusgabor")
    if not pathlib.Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"torusgabor imported from {package.__file__}, not from {SRC}")
    # import_module, not attribute access: the package re-exports the
    # function `bargmann` under its submodule's name
    modules = {m: importlib.import_module(f"torusgabor.{m}") for m in MODULES}
    return package, modules


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, trace, seconds):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = lapack = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lapack": lapack,
        "threads": THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def median_of(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        fresh_import()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _, modules = fresh_import()
        inputs = wl.setup(types.SimpleNamespace(**modules), args.seed)
        setup_times.append(time.perf_counter() - t0)
    refs = wl.references(inputs)

    rounds, recorders = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        package, modules = fresh_import()
        recorder = None
        if args.trace:
            recorder = spans.Recorder()
            spans.install(recorder, package, modules)
        r = Round(recorder)
        wl.run_round(r, types.SimpleNamespace(**modules), inputs, refs)
        rounds.append(r)
        if recorder is not None:
            recorders.append(recorder)

    if args.trace:
        def per_layer(name):
            if name in TASK_METRICS:
                return median_of(rounds, TASK_METRICS[name])
            if name == "traced_wall_s":
                return median_of(rounds, lambda r: r.wall)
            return statistics.median(rec.value(name) for rec in recorders)
        table = spec["per_layer"]
        values = {m["name"]: per_layer(m["name"]) for m in table}
    else:
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median_of(rounds, lambda r: r.wall),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in table}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}

    result = {
        "correct": all(not r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    detail = {
        "provenance": provenance(args.workload, args.seed, args.trace, args.seconds),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "setup_s_repeats": setup_times,
        "rounds": [{
            "times_s": r.times,
            "counts": r.counts,
            "task_metrics": {k: fn(r) for k, fn in TASK_METRICS.items()},
            "attempted": r.attempted,
            "failed": r.failed,
            "problems": r.problems,
        } for r in rounds],
        "layers": [rec.snapshot() for rec in recorders],
        "result": result,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"provenance": detail["provenance"],
                      "task_metrics": {k: median_of(rounds, fn)
                                       for k, fn in TASK_METRICS.items()}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
