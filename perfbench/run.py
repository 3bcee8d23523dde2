#!/usr/bin/env python3
"""Benchmark of the atarisal command line, run from the root of a checkout.

    python3 perfbench/run.py --workload eval-sparse-long --seed 1 --seconds 20 --trace 0

Each timed run is one `atarisal eval` or `atarisal metrics` process: a closed
loop with one client and one command at a time, repeated until --seconds have
passed. Every run's frames_rec0.csv and summary.csv are checked by sha256:
against the digests in digests.json at seed 0, otherwise against the first
(untimed warm-up) run of this invocation. A run fails on a nonzero exit or a
digest mismatch.

With --trace 0 the last stdout line carries the end-to-end metrics: medians
over the timed runs of observations per wall second, child CPU time and child
peak RSS, plus the median set-up time of several fresh interpreters. With
--trace 1 one more run goes through traced.py, which times each layer from
outside src/, and the last line carries the per-layer metrics instead. All
other lines are for people: machine facts, every metric by name and unit,
sample counts and quartiles.

Inputs come from scripts/make_synthetic_recording.py and models.build_model,
keyed by (workload, seed), and are cached under perfbench/work/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
CACHED_SEEDS_PER_WORKLOAD = 12  # a sparse recording is about 200 MB of PPMs
CHILD_TIMEOUT_S = 150
CHECKED_CSVS = ("frames_rec0.csv", "summary.csv")
SQUARE = 12  # make_synthetic_recording's default square side
RAW_PER_OBSERVATION = 16  # preprocessing.RAW_PER_OBSERVATION


@dataclass(frozen=True)
class Workload:
    command: str              # "eval" or "metrics"
    preset: str               # model of the run; for metrics, of the set-up dumps
    frames: int               # raw frames in the recording
    fixations_per_frame: int
    weights: bool             # pass a weights file built from the seed
    flags: tuple = ()

    @property
    def observations(self):
        return self.frames // RAW_PER_OBSERVATION


# Sizes are scaled so that one process takes 2-5 s on a 2-core VM and a run
# collects several of them; all use default flags (--workers 1, the machine's
# BLAS threads).
WORKLOADS = {
    # The balanced pipeline users run: forward with the 3136x512 fc, render,
    # frame decode, fixation maps and scoring all matter; writes dumps.
    "eval-sparse-long": Workload("eval", "sparse-fls", 2048, 10, True,
                                 ("--save-saliency", "--pgm")),
    # Stride-1 84x84 convs are nearly all the time; render, fixation and
    # scoring changes should read "no change" here.
    "eval-dense-conv": Workload("eval", "dense-fls", 256, 3, False),
    # No model: re-scores saved 84x84 dumps against a dense gaze log, so
    # fixation mapping, sAUC, KL and the CSV parse dominate.
    "metrics-rescore": Workload("metrics", "sparse-fls", 2048, 80, True),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str = ""   # empty when the run succeeded and its outputs checked out


def child_env():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def run_child(argv, log):
    """Run argv to completion; wall time from spawn to exit, rusage of the child."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = "" if proc.returncode == 0 else \
        f"exit {proc.returncode}: {Path(log).read_text(errors='replace')[-400:]}"
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, error)


def program_args(w, inputs, out):
    rec = inputs / "recording"
    if w.command == "metrics":
        return ["metrics", "--saliency", str(inputs / "saliency"),
                "--fixations", str(rec / "fixations.csv"), "--out", str(out)]
    args = ["eval", "--preset", w.preset]
    if w.weights:
        args += ["--weights", str(inputs / "weights.flsw")]
    return args + list(w.flags) + ["--recording", str(rec / "frames"), str(rec / "fixations.csv"),
                                   "--out", str(out)]


def generate(entry, w, seed):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    from make_synthetic_recording import make_recording
    from atarisal import models, weights_io

    with redirect_stdout(sys.stderr):
        make_recording(entry / "recording", w.frames, seed, SQUARE, w.fixations_per_frame)
    if w.weights:
        weights_io.save_model(str(entry / "weights.flsw"),
                              models.build_model(models.PRESETS[w.preset], seed))
    if w.command == "metrics":
        sample = run_child([sys.executable, "-m", "atarisal", "saliency", "--preset", w.preset,
                            "--weights", str(entry / "weights.flsw"),
                            "--frames", str(entry / "recording" / "frames"),
                            "--out", str(entry / "saliency")], entry / "saliency.log")
        if sample.error:
            raise RuntimeError(f"writing the saliency dumps failed: {sample.error}")
        # the metrics command reads only the dumps and the gaze log
        shutil.rmtree(entry / "recording" / "frames")
    # Write the new files out now: their writeback would otherwise compete
    # with the timed runs, which cached inputs do not have to.
    for path in entry.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def prepare_inputs(name, w, seed):
    """Inputs for (workload, seed), generated once and kept for the most
    recently used few seeds."""
    cache = WORK / "inputs"
    entry = cache / f"{name}-{w.frames}x{w.fixations_per_frame}-seed{seed}"
    ready = entry / "ready"
    if not ready.exists():
        shutil.rmtree(entry, ignore_errors=True)
        entry.mkdir(parents=True)
        generate(entry, w, seed)
        ready.touch()
    os.utime(ready)
    others = [p for p in cache.glob(f"{name}-*") if p != entry]
    others.sort(key=lambda p: (p / "ready").stat().st_mtime if (p / "ready").exists() else 0)
    for old in others[:max(0, len(others) - (CACHED_SEEDS_PER_WORKLOAD - 1))]:
        shutil.rmtree(old)
    return entry


def setup_argv(w, inputs):
    if w.command == "metrics":
        code = "import atarisal.cli"
    else:
        weights = repr(str(inputs / "weights.flsw")) if w.weights else "None"
        code = (f"from atarisal import cli, models; "
                f"cli.load_model(models.PRESETS[{w.preset!r}], {weights}, 0)")
    return [sys.executable, "-c", code]


class OutputCheck:
    """sha256 of the checked CSVs against a reference: recorded digests, or
    else the first run that produced well-formed CSVs."""

    def __init__(self, expected, observations):
        self.expected = expected
        self.observations = observations

    def __call__(self, out):
        missing = [f for f in CHECKED_CSVS if not (out / f).is_file()]
        if missing:
            return f"missing {', '.join(missing)}"
        rows = len((out / "frames_rec0.csv").read_text().splitlines()) - 1
        if rows != self.observations:
            return f"{rows} frame rows, expected {self.observations}"
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in CHECKED_CSVS}
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            return f"digest mismatch: got {got}, expected {self.expected}"
        return ""


def run_program(argv, out, check):
    shutil.rmtree(out, ignore_errors=True)
    sample = run_child(argv, out.with_suffix(".log"))
    if not sample.error:
        sample.error = check(out)
    return sample


def machine_facts():
    load = os.getloadavg()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_env": {k: os.environ[k] for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                                if k in os.environ},
            "loadavg_at_start": load}


def spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "atarisal" / "cli.py").is_file() or \
            not (ROOT / "scripts" / "make_synthetic_recording.py").is_file():
        print("error: run from the root of an atarisal checkout "
              "(src/atarisal and scripts/ not found)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    print("machine:", json.dumps(machine_facts()))

    t = time.perf_counter()
    inputs = prepare_inputs(args.workload, w, args.seed)
    print(f"inputs: {inputs.relative_to(ROOT)} ready in {time.perf_counter() - t:.1f} s")
    runs = WORK / "runs" / args.workload
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)

    recorded = json.loads(DIGESTS.read_text()).get(args.workload)
    check = OutputCheck(recorded if args.seed == DEFAULT_SEED else None, w.observations)
    program = [sys.executable, "-m", "atarisal"]

    # Untimed: fills the page cache with this recording and compiles bytecode.
    attempts = [run_program(program + program_args(w, inputs, runs / "warmup"),
                            runs / "warmup", check)]

    setup = []
    for _ in range(SETUP_REPEATS):
        sample = run_child(setup_argv(w, inputs), runs / "setup.log")
        if sample.error:
            print(f"error: set-up failed: {sample.error}", file=sys.stderr)
            return 1
        setup.append(sample.wall_s)

    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(run_program(program + program_args(w, inputs, runs / "run"),
                                 runs / "run", check))
    measured_s = time.perf_counter() - start
    attempts += timed

    raw = {"obs_per_s": [w.observations / s.wall_s for s in timed],
           "cpu_s": [s.cpu_s for s in timed], "peak_rss_mb": [s.rss_mb for s in timed],
           "setup_s": setup}
    values = {name: statistics.median(samples) for name, samples in raw.items()}

    if args.trace:
        result = runs / "trace.json"
        result.unlink(missing_ok=True)
        traced = run_program([sys.executable, str(HERE / "traced.py"), str(result)]
                             + program_args(w, inputs, runs / "traced"), runs / "traced", check)
        attempts.append(traced)
        layers = json.loads(result.read_text()) if result.is_file() else {}
        covered = layers.pop("covered_s", 0.0)
        values.update(layers)
        values["cli.self_s"] = traced.wall_s - covered
        values["trace.overhead_s"] = traced.wall_s - statistics.median(s.wall_s for s in timed)
        values["trace.coverage"] = covered / traced.wall_s

    failed = [s for s in attempts if s.error]
    for s in failed:
        print(f"failed run: {s.error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(timed)} timed runs over "
          f"{measured_s:.1f} s, {SETUP_REPEATS} set-ups")
    print(f"error_rate = {len(failed) / len(attempts)!r} ratio ({len(failed)} of {len(attempts)} "
          f"runs, warm-up{' and traced run' if args.trace else ''} included)")
    for m in spec["end_to_end"]:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']} (median; {spread(raw[m['name']])})")
    if args.trace:
        for m in spec["per_layer"]:
            values.setdefault(m["name"], 0.0)  # only when the traced run failed
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not failed, "attempted": len(attempts), "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
