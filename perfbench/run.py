"""Benchmark of the slicerank command line on seeded workloads.

    python3 perfbench/run.py --workload dense_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each job is one in-process call of
``slicerank.cli.main(argv)`` with stdout captured; its inputs are files
that ``bench_inputs`` writes from the seed into a work directory under
the checkout. One client runs the jobs in a closed loop, in whole passes
over the workload's job list, until ``--seconds`` of job time have been
measured. Every output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a separate traced run. Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import bench_check
import bench_inputs
from bench_trace import JOB, NAMES, Tracer
from setup_probe import run_cli, warm_up

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
MIN_PASSES = 3
# stop starting new passes after this much wall time, so a run always ends
WALL_CAP_S = 150.0
# time of one reference() call on the host of BASELINE.md when it is least busy
REF_S = 0.0009
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.integers(0, 7, size=(8, 8))
_REF_TENSOR = _REF_RNG.integers(0, 5, size=(4, 4, 4))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile; refused when fewer than 10 samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"{len(ordered)} samples leave {len(ordered) - rank} beyond the "
            f"{q:.0%} point; at least 10 are needed"
        )
    return ordered[rank - 1]


def load_program():
    """Import slicerank from this checkout's src, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import slicerank.cli
    except ImportError as exc:
        sys.exit(f"cannot import slicerank from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(slicerank.cli.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        sys.exit(f"slicerank was imported from {where}, not from {SRC}")
    return slicerank


class Outcomes:
    """Checks each job's first output and compares every repeat with it."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: list = [None] * len(jobs)
        self.stdout_hash = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, i: int, code: int, out: str, err: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if self.first[i] is None:
            self.first[i] = digest
            self.stdout_hash.update(out.encode("utf-8"))
            why = self.jobs[i].check(code, out)
        else:
            why = None if digest == self.first[i] else "stdout differs from the first run"
        if why:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(self.jobs[i].argv)}: {why} {err.strip()[-200:]}")


def reference() -> float:
    """Wall time of a fixed piece of Python and numpy work that shares no code with slicerank.

    The host's speed drifts by up to 2x over tens of seconds, and the
    reference slows with the jobs, so job time x REF_S / reference time
    measures the program on a host of fixed speed.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        bench_check.rref(_REF_MATRIX, 7)
        for axis in range(3):
            bench_check.mode_product(_REF_TENSOR, _REF_MATRIX[:4, :4], axis, 5)
    return time.perf_counter() - t0


def run_pass(jobs, main, outcomes: Outcomes, host: list | None = None) -> list[float]:
    """One timed pass over the job list; returns each job's wall time.

    With ``host``, a reference() time is appended after every job.
    """
    times = []
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        code, out, err = run_cli(main, job.argv)
        times.append(time.perf_counter() - t0)
        outcomes.record(i, code, out, err)
        if host is not None:
            host.append(reference())
    return times


def warmups(jobs) -> list[tuple[str, ...]]:
    """One job per (command, shape, p), in job order."""
    seen, out = set(), []
    for job in jobs:
        if job.group not in seen:
            seen.add(job.group)
            out.append(job.argv)
    return out


def set_up(main, warm: list) -> None:
    """Empty slicerank's caches, as in a fresh process, then run the warm-ups."""
    for name, module in list(sys.modules.items()):
        if name == "slicerank" or name.startswith("slicerank."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    warm_up(main, warm)


def setup_samples(workdir: str, warm: list) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, raw and scaled to the reference host.

    Each probe imports slicerank and runs the warm-ups; the reference is
    timed right before and after it.
    """
    path = os.path.join(workdir, "warmup.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(warm, fh)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        host = [reference() for _ in range(5)]
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, path],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            raw.append(time.perf_counter() - t0)
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if line != "ready\n" or code != 0:
            sys.exit(f"set-up probe failed with exit status {code}")
        host += [reference() for _ in range(5)]
        scaled.append(raw[-1] * REF_S / statistics.median(host))
    return raw, scaled


def _latency_metrics(per_job: list[float]) -> dict:
    return {
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "job_p90_ms": (percentile(per_job, 0.9) * 1e3, "ms"),
    }


def timed_run(jobs, main, seconds: float, started: float):
    """Whole passes until enough job time is measured.

    Each job time is scaled by REF_S over the median of the nine reference
    times around it, so it reads as on a host of fixed speed. A job's time
    is its median over the passes; p50 and p90 are taken over the jobs of a
    pass and throughput over their sum. Returns the scaled metrics and the
    same metrics unscaled.
    """
    outcomes = Outcomes(jobs)
    raw: list[float] = []
    host: list[float] = []
    n = len(jobs)
    while (sum(raw) < seconds or len(raw) < MIN_PASSES * n) \
            and time.perf_counter() - started < WALL_CAP_S:
        raw += run_pass(jobs, main, outcomes, host)
    scaled = [t * REF_S / statistics.median(host[max(0, k - 4):k + 5]) for k, t in enumerate(raw)]
    metrics = _latency_metrics([statistics.median(scaled[i::n]) for i in range(n)])
    unscaled = _latency_metrics([statistics.median(raw[i::n]) for i in range(n)])
    unscaled["host_slowdown"] = (statistics.median(host) / REF_S, "x")
    summary = f"{len(raw) // n} passes of {n} jobs, {sum(raw):.2f} s of job time"
    return outcomes, metrics, unscaled, summary


def traced_run(jobs, main, seconds: float, program):
    """Alternate traced and untraced passes; counts come from the first traced pass."""
    outcomes = Outcomes(jobs)
    traced, walls = [], ([], [])
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < min(seconds, WALL_CAP_S):
        tracer = Tracer()
        tracer.install()
        try:
            walls[0].append(sum(run_pass(jobs, tracer.wrap(JOB, main), outcomes)))
        finally:
            tracer.uninstall()
        traced.append(tracer.summary())
        if len(traced) == 1:
            cache = program.linalg.grassmannian.cache_info()
        walls[1].append(sum(run_pass(jobs, main, outcomes)))
    first = traced[0]
    metrics = {name: (statistics.median(t[name] for t in traced), "s") for name in NAMES}
    counts = {
        "rank.search_calls": "count", "rank.cover_calls": "count",
        "tensor.mode_product_calls": "count", "tensor.mode_product_ops": "madd_computed",
        "serialize.bytes_in": "bytes", "serialize.bytes_out": "bytes",
        "splitting.triangular_search_calls": "count",
    }
    metrics.update({name: (first[name], unit) for name, unit in counts.items()})
    metrics["linalg.grassmannian_misses"] = (cache.misses, "count")
    metrics["linalg.grassmannian_hits"] = (cache.hits, "count")
    # adjacent passes see the same host speed, so their ratio is the overhead
    metrics["trace.overhead_ratio"] = (statistics.median(t / u for t, u in zip(*walls)), "ratio")
    metrics["trace.job_s"] = (statistics.median(t["job_s"] for t in traced), "s")
    summary = f"{len(traced)} traced and {len(walls[1])} untraced passes of {len(jobs)} jobs"
    return outcomes, metrics, summary


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    main_fn = program.cli.main
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        jobs = bench_inputs.make_jobs(args.workload, args.seed, workdir)
        warm = warmups(jobs)
        if args.trace:
            set_up(main_fn, warm)
            outcomes, metrics, summary = traced_run(jobs, main_fn, args.seconds, program)
            unscaled = {}
        else:
            raw_setup, setup = setup_samples(workdir, warm)
            set_up(main_fn, warm)
            outcomes, metrics, unscaled, summary = timed_run(jobs, main_fn, args.seconds, started)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            unscaled["setup_s"] = (statistics.median(raw_setup), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for name, (value, unit) in unscaled.items():
        print(f"  unscaled {name:27s} {value:.6g} {unit}")
    print(f"  failed_frac {outcomes.failed / outcomes.attempted:.6g} "
          f"({outcomes.failed} of {outcomes.attempted})")
    print(f"  stdout_sha256 {outcomes.stdout_hash.hexdigest()}")
    for reason in outcomes.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
