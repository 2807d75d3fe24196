"""ramseykit benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload arrow-search --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The loop runs whole passes over
the seeded job list, one job at a time in this one process, until the
passes' wall time adds up to ``--seconds`` (and at least 100 jobs ran).
After each pass, outside the timed region, every outcome is judged
against its reference verdict and re-checked; a later pass whose outputs
repeat the first pass's exactly is accepted on that ground.  Set-up
(``import ramseykit`` timed in a fresh child interpreter, then building the
job list, which for ``types-extract`` warms the shared index) runs several
times, spread between the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the time untraced and the second half traced, and prints the
per-layer metrics, the deterministic work counts per pass and the tracing
overhead.  The last line of standard output is one JSON object; a record
with machine information and any failures goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MAX_SPANS = 300_000
# ten samples beyond the 90th percentile
MIN_LATENCY_SAMPLES = 100
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ramseykit; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "ramseykit", "__init__.py")):
        fail(f"no ramseykit package under {SRC}")
    sys.path.insert(0, SRC)
    import ramseykit
    if not os.path.abspath(ramseykit.__file__).startswith(SRC + os.sep):
        fail(f"imported ramseykit from {ramseykit.__file__}, not {SRC}")


def child_import_s() -> float:
    """``import ramseykit`` timed inside a fresh, isolated interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"child import failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine()}


class Run:
    """Measured passes over one workload's job list."""

    def __init__(self, jobs, rec=None):
        self.jobs = jobs
        self.rec = rec
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.definite = 0
        self.failures: list[str] = []
        self.first_keys: list | None = None
        self.pass_counts: list[dict] = []

    def run_pass(self) -> None:
        outcomes = []
        rec = self.rec
        if rec is not None:
            before = tracing.pass_counts(rec)
            rec.enabled = True
        t_pass = time.perf_counter()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                with rec.span("job:" + job.name) if rec else contextlib.nullcontext():
                    out = job.run()
            except Exception as exc:  # a raising job is a failed job
                out = exc
            self.latencies.append(time.perf_counter() - t0)
            outcomes.append(out)
        self.pass_walls.append(time.perf_counter() - t_pass)
        if rec is not None:
            rec.enabled = False
            after = tracing.pass_counts(rec)
            self.pass_counts.append({k: after[k] - before[k] for k in after})
        self.check(outcomes)

    def check(self, outcomes) -> None:
        keys = []
        for i, (job, out) in enumerate(zip(self.jobs, outcomes)):
            self.attempted += 1
            if isinstance(out, Exception):
                problem = f"raised {type(out).__name__}: {out}"
                keys.append(None)
            else:
                repeat = self.first_keys is not None and self.first_keys[i] == out.key
                try:
                    problem = None if repeat else job.judge(out)
                    if problem is None and not repeat and job.recheck is not None:
                        problem = job.recheck(out)
                except Exception as exc:  # a re-check that raises fails the job
                    problem = f"re-check raised {type(exc).__name__}: {exc}"
                keys.append(out.key if problem is None else None)
            if problem is None:
                if out.verdict != "INCONCLUSIVE":
                    self.definite += 1
            else:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{job.name}: {problem}")
        if self.first_keys is None:
            self.first_keys = keys

    def run_for(self, seconds: float, between=None, min_samples: int = 1) -> None:
        """Whole passes until their wall time adds up to ``seconds`` and at
        least ``min_samples`` jobs ran; ``between(measured)`` runs after each
        pass, outside the timed region."""
        while sum(self.pass_walls) < seconds or len(self.latencies) < min_samples:
            self.run_pass()
            if between is not None:
                between(sum(self.pass_walls))

    def ops_per_s(self) -> float:
        return len(self.jobs) / statistics.median(self.pass_walls)

    def job_medians(self) -> dict:
        m = len(self.jobs)
        return {f"{i:02d} {job.name}": statistics.median(self.latencies[i::m]) * 1e3
                for i, job in enumerate(self.jobs)}

    def end_to_end(self) -> dict:
        lat = sorted(self.latencies)
        return {
            "ops_per_s": (self.ops_per_s(), "ops/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "solved_ratio": (self.definite / self.attempted, "ratio"),
            "verified_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }


class Setup:
    """Set-up, repeated: ``import ramseykit`` in a fresh child interpreter,
    then building the workload in this process."""

    def __init__(self, build, seed: int, workdir: str):
        self.build, self.seed, self.workdir = build, seed, workdir
        self.imports: list[float] = []
        self.builds: list[float] = []

    def once(self):
        self.imports.append(child_import_s())
        t0 = time.perf_counter()
        jobs = self.build(self.seed, self.workdir)
        self.builds.append(time.perf_counter() - t0)
        return jobs

    def spread_over(self, seconds: float):
        """A ``between`` hook that spaces the repeats evenly over a run, so
        that their median does not hinge on one moment of the machine."""
        def between(elapsed: float) -> None:
            if len(self.builds) < SETUP_REPEATS and \
                    elapsed >= len(self.builds) * seconds / SETUP_REPEATS:
                self.once()
        return between

    def finish(self) -> None:
        while len(self.builds) < SETUP_REPEATS:
            self.once()

    @property
    def import_s(self) -> float:
        return statistics.median(self.imports)

    @property
    def setup_s(self) -> float:
        return self.import_s + statistics.median(self.builds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads  # imports ramseykit, so only after import_package
    if args.workload not in workloads.BUILDERS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.BUILDERS)}")
    build = workloads.BUILDERS[args.workload]

    # Relative paths inside the work directory keep certificate bytes the
    # same wherever the checkout lives.
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)
    try:
        setup = Setup(build, args.seed, workdir)
        jobs = setup.once()
        gc.collect()
        if args.trace == 0:
            run = Run(jobs)
            run.run_for(args.seconds, setup.spread_over(args.seconds), MIN_LATENCY_SAMPLES)
            setup.finish()
            metrics = run.end_to_end()
            metrics["setup_s"] = (setup.setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            extra = {"latency_samples": len(run.latencies), "job_median_ms": run.job_medians(),
                     "pass_wall_s": run.pass_walls, "latencies_s": run.latencies}
            parts = [run]
        else:
            setup.finish()
            plain = Run(jobs)
            plain.run_for(args.seconds / 2)
            rec = tracing.Recorder(MAX_SPANS)
            bound = tracing.install(rec)
            traced = Run(jobs, rec)
            traced.run_for(args.seconds / 2)
            metrics = tracing.layer_metrics(rec, len(traced.pass_walls))
            metrics["cli.import_s"] = (setup.import_s, "s")
            for name, value in traced.pass_counts[0].items():
                metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")
            untraced, with_trace = plain.ops_per_s(), traced.ops_per_s()
            metrics["trace.ops_per_s_untraced"] = (untraced, "ops/s")
            metrics["trace.ops_per_s_traced"] = (with_trace, "ops/s")
            metrics["trace.overhead_ratio"] = (untraced / with_trace, "ratio")
            repeat = all(c == traced.pass_counts[0] for c in traced.pass_counts)
            extra = {"bindings_replaced": bound, "traced_passes": len(traced.pass_walls),
                     "counts_repeat_across_passes": repeat,
                     "spans_kept": len(rec.span_start), "spans_dropped": rec.dropped}
            parts = [plain, traced]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    failures = [line for p in parts for line in p.failures]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(),
              "attempted": attempted, "failed": failed,
              "failures": failures, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace == 1:
        rec.dump(stem + "-spans.json.gz", {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(machine_info())}")
    for name, value in extra.items():
        if not isinstance(value, (dict, list)):
            print(f"  {name}: {value}")
    print(f"  failed_ratio: {failed / attempted:.6f} ({failed} of {attempted})")
    for line in failures:
        print(f"  FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
