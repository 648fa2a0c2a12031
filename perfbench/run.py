"""Fixed-seed opcalc benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
jobs untraced and then traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (provenance,
failure inventory, per-job digests) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
OUT_DIR = ".perfbench"


def _parse(argv):
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("calculus", "dyson", "propagator", "battery"))
    p.add_argument("--seed", type=int, default=baseline["default_seed"])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, root: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of import opcalc plus job generation.

    Returns normalised and raw seconds; each sample is scaled by the speed
    reference timed in the same interpreter.
    """
    from speed import NOMINAL_S

    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * NOMINAL_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def untraced(cli, args, workdir):
    """End-to-end metrics of one closed-loop run, set-up probes first."""
    import harness
    from speed import SpeedProbe

    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    speed = SpeedProbe()
    rounds = max(harness.rounds_for(args.workload, args.seconds),
                 harness.TAIL_ROUNDS.get(args.workload, 1))
    outcomes, wall = harness.run_rounds(cli, args.workload, args.seed, workdir, speed, rounds)
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(harness.end_to_end(outcomes, args.workload, speed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    raw = harness.end_to_end(outcomes, args.workload)
    info = {
        "rounds": rounds, "wall_s": wall, "speed_factor": speed.factor(),
        "setup_raw_s": setup_raw,
        "raw_times": {k: raw[k][0] for k in ("jobs_per_s", "job_p50_s", "job_tail_s")},
        "job_times": [[o.job.key, o.start, o.seconds] for o in outcomes],
        "speed_samples_s": [[t, v] for t, v in zip(speed.times, speed.samples)],
        "inventory": harness.inventory(outcomes),
    }
    return metrics, outcomes, info, []


def traced(cli, args, workdir, digests):
    """Per-layer metrics: the same rounds run untraced, then traced."""
    import harness
    from speed import SpeedProbe
    from tracer import Tracer
    import opcalc.verify

    speed = SpeedProbe()
    rounds = harness.rounds_for(args.workload, args.seconds / 2)
    plain, wall_plain = harness.run_rounds(cli, args.workload, args.seed, workdir, speed,
                                           rounds)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, wall = harness.run_rounds(cli, args.workload, args.seed, workdir, speed,
                                            rounds, on_start=tracer.start_job)
    finally:
        tracer.uninstall()
    scale = speed.factor()
    problems = [] if [o.digest for o in plain] == [o.digest for o in outcomes] else [
        "traced and untraced reports differ"]
    checks = [c.__name__ for c in opcalc.verify.BATTERY]
    metrics = {}
    for k, v in tracer.metrics(checks).items():
        unit = _unit(k)
        metrics[k] = (v * scale if unit == "s" else v, unit)
    known = [o for o in outcomes if o.job.key in digests]
    metrics["cli.report_compared"] = (len(known), "count")
    metrics["cli.report_changed"] = (
        sum(o.digest != digests[o.job.key] for o in known), "count")
    metrics["trace.overhead_s"] = ((wall - wall_plain) * scale, "s")
    spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
    tracer.write_spans(spans)
    info = {
        "rounds": rounds, "wall_s": wall, "untraced_wall_s": wall_plain, "spans": spans,
        "speed_factor": scale,
        "errors": {f"{k}:{c}": n for (k, c), n in sorted(tracer.errors.items())},
        "inventory": harness.inventory(outcomes),
    }
    return metrics, plain + outcomes, info, problems


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "opcalc", "__init__.py")):
        print(f"error: no opcalc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:     # single-threaded, as the package documents
        os.environ[var] = "1"
    sys.path[:0] = [HERE, src]
    import opcalc.cli
    import harness

    if not os.path.abspath(opcalc.cli.__file__).startswith(src + os.sep):
        print(f"error: imported opcalc from {opcalc.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"specs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh).get(args.workload, {})
    with open(os.path.join(HERE, "failures.json")) as fh:
        failures = json.load(fh).get(args.workload, {})
    try:
        if args.trace:
            metrics, outcomes, info, problems = traced(opcalc.cli, args, workdir, digests)
        else:
            metrics, outcomes, info, problems = untraced(opcalc.cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += harness.outcome_problems(outcomes, digests, failures)
    prov = provenance(args, root)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "provenance": prov,
        "metrics": reported,
        "problems": problems,
        "digests": {o.job.key: o.digest for o in outcomes},
        **info,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    n_fail = sum(o.failed for o in outcomes)
    print(f"{args.workload}: {len(outcomes)} jobs in {info['rounds']} round(s), "
          f"{n_fail} failed, {len(problems)} problem(s); record in {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for p in problems:
        print(f"  PROBLEM {p}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": n_fail,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
