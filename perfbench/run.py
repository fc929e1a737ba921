"""qf benchmark: three CLI workloads, timed end to end, with a traced run for per-layer spans.

    python3 perfbench/run.py --workload verify_cold|homology_warm|tc_overflow
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; qf is imported from ``src/``, and nothing is
installed or built. Every job is one ``qf.cli.main(argv)`` call in this
process (closed loop, one client, no threads), with stdout and stderr
captured and checked against an oracle. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's metadata. ``--trace 0`` reports the end-to-end metrics,
with times rescaled to a nominal host speed by ``reference.py``; ``--trace 1``
reports the per-layer ones. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import reference  # noqa: E402  (HERE is on sys.path as the script's directory)
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 2312
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_PROBES = 5

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

_SPAN_METRICS = {
    "groups.todd_coxeter": ("calls", "self_s", "cosets_out", "overflows"),
    "groups.branched_cover_group": ("calls", "self_s"),
    "groups.quandle_from_cosets": ("self_s",),
    "intlinalg.smith_normal_form": ("calls", "self_s", "nnz_in", "cells_in"),
    "intlinalg.homology_of_pair": ("self_s",),
    "intlinalg.SparseIntMatrix.mul": ("self_s",),
    "homology.boundaries": ("calls", "self_s", "d3_nnz"),
    "homology.h1": ("self_s",),
    "homology.h2": ("self_s",),
    "quandles.FiniteQuandle.init": ("calls", "self_s", "work"),
    "quandles.FiniteGroupElementSet.init": ("calls", "self_s", "work"),
    "quandles.GroupAutomorphism.init": ("calls", "self_s"),
    "quandles.galex": ("calls", "self_s"),
    "quandles.coset_quandle": ("calls", "self_s"),
    "quandles.is_isomorphic": ("calls", "self_s"),
    "quandles.verify_extension": ("calls", "self_s"),
    "pipeline.Pipeline.quandle": ("calls", "self_s"),
    "pipeline.Pipeline.branched": ("calls", "self_s"),
    "pipeline.CosetCache.todd_coxeter": ("calls", "self_s"),
    "catalog.resolve_knot_spec": ("calls", "self_s"),
    "diagrams.analyze": ("self_s",),
    "diagrams.wirtinger_with_peripherals": ("self_s",),
    "verify.run_verification": ("self_s",),
    "cli.main": ("s",),
}
_UNITS = {"calls": "count", "self_s": "s", "s": "s", "cosets_out": "count", "overflows": "count",
          "nnz_in": "count", "cells_in": "count", "d3_nnz": "count", "work": "count"}
_CACHE = (("hits", "count"), ("misses", "count"), ("hit_ratio", "ratio"),
          ("bytes_read", "bytes"), ("bytes_written", "bytes"))

# Per job, except hit_ratio and overhead_ratio.
PER_LAYER = tuple(
    [(f"{span}.{field}", _UNITS[field]) for span, fields in _SPAN_METRICS.items() for field in fields]
    + [(f"pipeline.cache.{field}", unit) for field, unit in _CACHE]
    + [("trace.overhead_ratio", "ratio")])


@dataclass
class Outcome:
    label: str
    seconds: float
    stdout: str
    problem: str | None


def import_qf_cli():
    """qf.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qf sources at {src / 'qf'}")
    sys.path.insert(0, str(src))
    import qf.cli

    if Path(qf.cli.__file__).resolve().parent != (src / "qf").resolve():
        raise SystemExit(f"perfbench: imported qf from {qf.cli.__file__}, not {src}")
    return qf.cli


def set_up(workload: str, seed: int, work: Path):
    """Import qf, build the inputs and (homology_warm) fill the cache: the part setup_s times."""
    cli = import_qf_cli()
    W.prepare(workload, seed, work)
    return cli, [W.ROUND_BUILDERS[workload](seed, r, work) for r in range(W.ROUNDS[workload])]


def time_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, host slowdown) of SETUP_PROBES fresh interpreters that set
    up and exit. Each probe samples the host's speed during its own set-up; the
    wall time leaves those samples out."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((wall - probe["spent_s"], probe["host_slowdown"]))
    return samples


def run_jobs(cli, jobs, tracer: Tracer | None = None,
             host: reference.HostSampler | None = None) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        if job.fresh_cache:
            shutil.rmtree(job.cache_dir, ignore_errors=True)
        if tracer is not None:
            tracer.cache_dir = Path(job.cache_dir)
        out, err = io.StringIO(), io.StringIO()
        sampled = host.spent if host else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if host:
            seconds -= host.spent - sampled
        if tracer is not None:
            tracer.cache_dir = None
        if job.fresh_cache:
            shutil.rmtree(job.cache_dir, ignore_errors=True)
        outcomes.append(Outcome(job.label, seconds, out.getvalue(),
                                job.check(code, out.getvalue(), err.getvalue())))
    return outcomes


def timed_run(cli, rounds, seconds: float, host: reference.HostSampler) -> list[Outcome]:
    """Whole cycles through every round, so that every run weighs the rounds
    alike: at least one, and then as many as come nearest to `seconds`."""
    outcomes = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for jobs in rounds:
            outcomes += run_jobs(cli, jobs, host=host)
        cycles += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed < elapsed / cycles / 2:  # under half a cycle to go
            return outcomes


def layer_metrics(tracer: Tracer, jobs: int, overhead_ratio: float) -> dict[str, float]:
    stats, counters = tracer.stats, tracer.counters
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span == "pipeline.cache":
            if field == "hit_ratio":
                lookups = counters["pipeline.cache.hits"] + counters["pipeline.cache.misses"]
                values[name] = counters["pipeline.cache.hits"] / lookups if lookups else 0.0
            else:
                values[name] = counters[name] / jobs
        elif name == "trace.overhead_ratio":
            values[name] = overhead_ratio
        elif span not in stats:
            values[name] = 0.0
        else:
            stat = stats[span]
            total = {"calls": stat.calls, "self_s": stat.self_s, "s": stat.total}.get(
                field, stat.counters.get(field, 0))
            values[name] = total / jobs
    return values


def traced_run(cli, jobs):
    """The jobs untraced, then traced; returns outcomes, metrics and extra metadata."""
    plain = run_jobs(cli, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped()
        if missed:
            raise SystemExit(f"perfbench: unwrapped qf callables: {missed}")
        traced = run_jobs(cli, jobs, tracer)
        missed = tracer.unwrapped()
        if missed:
            raise SystemExit(f"perfbench: qf callables bound during the traced pass: {missed}")
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if b.problem is None and a.stdout != b.stdout:
            b.problem = "traced stdout differs from untraced stdout"
    overhead = (statistics.median(o.seconds for o in traced)
                / statistics.median(o.seconds for o in plain))
    spans = {name: {"calls": s.calls, "self_s": round(s.self_s, 6), "total_s": round(s.total, 6)}
             for name, s in sorted(tracer.stats.items()) if s.calls}
    expected = {name.rpartition(".")[0] for name, _ in PER_LAYER}
    missing = sorted(s for s in expected - set(tracer.stats)
                     if not s.startswith(("pipeline.cache", "trace")))
    extra = {"spans": spans, "spans_missing": missing,
             "untraced_job_s_p50": statistics.median(o.seconds for o in plain)}
    return plain + traced, layer_metrics(tracer, len(jobs), overhead), extra


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, outcomes) -> dict:
    failures = [f"{o.label}: {o.problem}" for o in outcomes if o.problem]
    times = [o.seconds for o in outcomes]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workload": args.workload,
        "reason": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "cap": W.TC_CAP if args.workload == "tc_overflow" else "qf default (10^6)",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "jobs": [o.label for o in outcomes],
        "job_seconds": [round(t, 6) for t in times],
        "error_rate": len(failures) / len(outcomes),
        "job_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "failures": failures[:20],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.ROUND_BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in a fresh work directory and exit (what setup_s times)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.setup_only:
            with reference.HostSampler() as host:
                set_up(args.workload, args.seed, work)
            print(json.dumps({"host_slowdown": host.slowdown(), "spent_s": host.spent}))
            return 0
        if not args.trace:
            setup_samples = time_setup(args.workload, args.seed)
        cli, rounds = set_up(args.workload, args.seed, work)
        if args.trace:
            # One fixed round, so that per-job counts repeat exactly for a seed.
            outcomes, values, extra = traced_run(cli, rounds[0])
            units = dict(PER_LAYER)
        else:
            with reference.HostSampler() as host:
                outcomes = timed_run(cli, rounds, args.seconds, host)
            times = [o.seconds for o in outcomes]
            measured = {"jobs_per_s": len(times) / sum(times),
                        "job_s_p50": statistics.median(times),
                        "setup_s": statistics.median(wall for wall, _ in setup_samples)}
            slowdown = host.slowdown()
            values = {
                "jobs_per_s": measured["jobs_per_s"] * slowdown,
                "job_s_p50": measured["job_s_p50"] / slowdown,
                "setup_s": statistics.median(wall / slow for wall, slow in setup_samples),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            extra = {"measured": measured, "host_slowdown": slowdown,
                     "host_samples": len(host.samples),
                     "setup_probes": [{"wall_s": wall, "host_slowdown": slow}
                                      for wall, slow in setup_samples]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    meta = metadata(args, outcomes)
    meta.update(extra)
    failed = sum(1 for o in outcomes if o.problem)
    for name, value in values.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
