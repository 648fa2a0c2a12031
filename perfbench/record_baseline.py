"""Record the baseline commit's outcomes and figures.  Run from the repository
root, at the commit the baseline describes:

    python3 perfbench/record_baseline.py jobs WORKLOAD   # once per workload
    python3 perfbench/record_baseline.py merge
    python3 perfbench/record_baseline.py figures         # after the timed runs

``jobs`` runs, untimed, every job an untraced run of ``run_seconds``
(``BENCHMARK.json``) makes under each of the ``reference_seeds`` in
``baseline.json``, and writes their report digests and outcomes to
``.perfbench/reference-WORKLOAD.json``.  ``merge`` folds those into
``perfbench/digests.json`` (report digest of every job), ``perfbench/failures.json``
(exit status and error class of every job that failed; see
``harness.outcome``) and the default seed's failure inventory in
``baseline.json``.  ``figures`` adds the ``baseline`` figures to
``baseline.json``: median and quartiles of every end-to-end metric over the
untraced run records in ``.perfbench/`` except the held-out seed's, and the
per-layer metrics of the default seed's traced run.  The seeds and the
failure-class descriptions in ``baseline.json`` are kept as they are.
"""

import glob
import json
import os
import shutil
import statistics
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDS = ".perfbench"
WORKLOADS = ("calculus", "dyson", "propagator", "battery")


def _load(pattern: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(RECORDS, pattern))):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def record_jobs(workload: str, baseline: dict) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    import harness
    import opcalc.cli
    from jobs import round_jobs

    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    rounds = max(harness.rounds_for(workload, seconds), harness.TAIL_ROUNDS.get(workload, 1))
    workdir = os.path.join(RECORDS, f"specs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    digests, outcomes, inventory, default_jobs = {}, {}, [], 0
    try:
        for seed in baseline["reference_seeds"]:
            for index in range(rounds):
                for job in round_jobs(workload, seed, index):
                    o = harness.run_job(opcalc.cli, job, workdir)
                    digests[job.key] = o.digest
                    if o.failed:
                        outcomes[job.key] = harness.outcome(o)
                    if seed == baseline["default_seed"]:
                        default_jobs += 1
                        inventory += harness.inventory([o])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(RECORDS, f"reference-{workload}.json")
    with open(path, "w") as fh:
        json.dump({"digests": digests, "failures": outcomes,
                   "default_seed_jobs": default_jobs, "inventory": inventory}, fh)
    print(f"{workload}: {len(digests)} jobs, {len(outcomes)} failed; wrote {path}")
    return 0


def _write(baseline: dict) -> None:
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def merge(baseline: dict) -> int:
    digests, failures, inventory = {}, {}, {}
    for workload in WORKLOADS:
        reference = _load(f"reference-{workload}.json")
        if not reference:
            print(f"error: no reference record of {workload} in {RECORDS}/", file=sys.stderr)
            return 2
        reference = reference[0]
        digests[workload] = reference["digests"]
        failures[workload] = reference["failures"]
        rows = reference["inventory"]
        classes = Counter((row["kind"], row["exit"], row["error"], row["reason"])
                          for row in rows)
        inventory[workload] = {
            "default_seed_jobs": reference["default_seed_jobs"],
            "failed_jobs": len(rows),
            "classes": [{"kind": k, "exit": e, "error": c, "reason": r, "jobs": n}
                        for (k, e, c, r), n in sorted(classes.items())],
            "jobs": rows,
        }
    baseline["failure_inventory"]["by_workload"] = inventory
    _write(baseline)
    for name, table in (("digests", digests), ("failures", failures)):
        with open(os.path.join(HERE, f"{name}.json"), "w") as fh:
            json.dump(table, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


def figures(baseline: dict) -> int:
    summary = {}
    machine = None
    for workload in WORKLOADS:
        runs = _load(f"{workload}-seed*-trace0.json")
        traced = _load(f"{workload}-seed{baseline['default_seed']}-trace1.json")
        if not runs or not traced:
            print(f"error: no untraced or traced run of {workload} in {RECORDS}/",
                  file=sys.stderr)
            return 2
        machine = machine or {k: v for k, v in runs[0]["provenance"].items()
                              if k not in ("workload", "seed", "trace")}
        # the held-out seed contributes digests, never baseline figures
        runs_in = [r for r in runs if r["provenance"]["seed"] != baseline["held_out_seed"]]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs_in]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": runs[0]["metrics"][name]["unit"]}
        summary[workload] = {
            "seeds": sorted(r["provenance"]["seed"] for r in runs_in),
            "jobs_per_run": statistics.median(len(r["job_times"]) for r in runs_in),
            "metrics": metrics,
            "per_layer_default_seed": {k: v["value"] for k, v in traced[0]["metrics"].items()},
        }
    baseline["machine"] = machine
    baseline["baseline"] = summary
    _write(baseline)
    return 0


def main(argv: list[str]) -> int:
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    if argv[:1] == ["jobs"] and len(argv) == 2 and argv[1] in WORKLOADS:
        return record_jobs(argv[1], baseline)
    if argv == ["merge"]:
        return merge(baseline)
    if argv == ["figures"]:
        return figures(baseline)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
