"""Closed-loop job runner, output checks and end-to-end metrics.

One client, one process: each job is ``opcalc.cli.main(argv)`` called
in-process after the previous job returned.  Reports are captured from
standard output and checked against the job's exit status.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

from jobs import round_jobs

# Percentile that job_tail_s reports per workload: at least ten jobs of a
# 25 s run lie beyond it, and for dyson and propagator it falls inside a
# group of same-size jobs (see README.md).
TAIL_PERCENTILE = {"calculus": 95, "dyson": 69, "propagator": 87, "battery": 60}
# Fewest rounds of an untraced run.  A battery round is one verify-all job,
# and p60 keeps ten jobs beyond it only from 25 jobs on, so an untraced
# battery run takes about 40 s whatever ``--seconds`` says.
TAIL_ROUNDS = {"battery": 25}

# The report check that is a ratio describing the input, not an error.
NOT_AN_ERROR = {"taylor-remainder-geometric-decay"}
EPS = 2.2e-16


@dataclass
class Outcome:
    job: object
    rc: int
    start: float
    seconds: float
    digest: str
    residuals: list
    problem: str        # non-empty: the report contradicts the exit status
    stderr: str
    error: str          # class of the exception that ended the job, if any

    @property
    def failed(self) -> bool:
        return self.rc != 0


@contextlib.contextmanager
def _handler_errors(cli, caught: list):
    """Note the class of any exception leaving a subcommand handler.

    ``cli.main`` turns such an exception into exit status 2 and prints only
    its message, so the class is taken on its way out of the handler (one
    extra Python call per job).
    """
    def watch(fn):
        @functools.wraps(fn)
        def handler(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                caught.append(type(exc).__name__)
                raise
        return handler

    saved = {k: v for k, v in vars(cli).items() if k.startswith("_cmd_") and callable(v)}
    for name, fn in saved.items():
        setattr(cli, name, watch(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def run_job(cli, job, workdir: str, on_start=None) -> Outcome:
    """Run one job through ``cli.main`` (looked up per call, so a tracer sees it)."""
    spec_path = None
    if job.spec is not None:
        spec_path = os.path.join(workdir, f"{job.key}.json")
        with open(spec_path, "w") as fh:
            json.dump(job.spec, fh)
    argv = job.argv_with(spec_path)
    out, err = io.StringIO(), io.StringIO()
    if on_start is not None:
        on_start(job.key)
    caught: list[str] = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _handler_errors(cli, caught):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
            caught.append("SystemExit")
        except Exception as exc:           # escapes main: the process would die
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            rc = 1
            caught.append(type(exc).__name__)
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    digest = hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:16]
    residuals, problem = _check_report(job, rc, text)
    return Outcome(job, rc, t0, seconds, digest, residuals, problem, err.getvalue(),
                   caught[-1] if caught else "")


def _check_report(job, rc: int, text: str) -> tuple[list, str]:
    """Residuals of the report and any contradiction with the exit status."""
    if rc not in (0, 1):
        return [], "" if not text else "report written despite a refusal"
    try:  # verify-all prints one PASS/FAIL line per identity before the report
        residuals = json.loads(text[text.find("{"):])["residuals"]
    except (ValueError, KeyError, TypeError) as exc:
        return [], f"unreadable report: {exc}"
    for r in residuals:
        if r["pass"] != (r["value"] <= r["tolerance"]):
            return residuals, f"pass flag contradicts {r['identity']}"
    passed = all(r["pass"] for r in residuals)
    if rc == 0 and not passed:
        return residuals, "exit 0 with a failing residual"
    if rc == 1 and passed:
        return residuals, "exit 1 with every residual passing"
    if rc == 0 and not residuals and job.kind != "ddtensor":
        return residuals, "no checked residual"
    return residuals, ""


# Rough wall time of one round of each workload at the baseline commit on the
# reference host.  A run of ``--seconds`` runs ``seconds // ROUND_S`` whole
# rounds (at least one): the same work on every commit, about ``--seconds``
# long at the baseline.
ROUND_S = {"calculus": 3.0, "dyson": 18.0, "propagator": 4.5, "battery": 1.4}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_S[workload]))


def run_rounds(cli, workload: str, seed: int, workdir: str, speed, rounds: int,
               on_start=None) -> tuple[list[Outcome], float]:
    """Run ``rounds`` whole rounds, closed loop.

    ``speed`` (a :class:`speed.SpeedProbe`) samples the host around every job.
    Returns the outcomes and the raw wall time of the loop without the
    speed samples.
    """
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    spent0 = speed.spent
    for index in range(rounds):
        for job in round_jobs(workload, seed, index):
            speed.sample()
            outcomes.append(run_job(cli, job, workdir, on_start))
    speed.sample()
    return outcomes, time.perf_counter() - t0 - (speed.spent - spent0)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def accuracy_digits(outcomes: list[Outcome]) -> float:
    digits = [
        math.log10(r["tolerance"] / max(r["value"], EPS))
        for o in outcomes if not o.failed
        for r in o.residuals
        if r["tolerance"] > 0 and r["identity"] not in NOT_AN_ERROR
    ]
    return statistics.median(digits) if digits else 0.0


def end_to_end(outcomes: list[Outcome], workload: str, speed=None) -> dict:
    """End-to-end metrics.  With ``speed`` each job's time is normalised by
    the host speed sampled around it (see speed.py); without, raw seconds."""
    lat = [o.seconds * (speed.factor_at(o.start, o.start + o.seconds) if speed else 1.0)
           for o in outcomes]
    failed = sum(o.failed for o in outcomes)
    return {
        "jobs_per_s": (len(outcomes) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (percentile(lat, TAIL_PERCENTILE[workload]), "s"),
        "pass_frac": (1.0 - failed / len(outcomes), "frac"),
        "accuracy_digits": (accuracy_digits(outcomes), "digits"),
    }


def outcome(o: Outcome) -> str:
    """``pass``, or a failed job's exit status and error class.

    The class of an exit-1 job is the sorted list of its failing residuals,
    that of any other exit the class of the exception that ended the job.
    """
    if not o.failed:
        return "pass"
    failing = sorted(r["identity"] for r in o.residuals if not r["pass"])
    if o.rc == 1 and failing:
        return "1:" + ",".join(failing)
    return f"{o.rc}:{o.error or '?'}"


def _no_worse(now: str, before: str) -> bool:
    """A failure that keeps its exit and class, or fails fewer residuals."""
    if now[:2] != "1:" or before[:2] != "1:":
        return now == before
    return set(now[2:].split(",")) <= set(before[2:].split(","))


def outcome_problems(outcomes: list[Outcome], digests: dict, failures: dict) -> list[str]:
    """Jobs whose outcome is worse than at the baseline commit.

    ``digests`` holds every job recorded at the baseline, ``failures`` the
    outcome of those that failed (see record_baseline.py).  A recorded job
    may not fail if it passed then, nor change the exit status or error
    class of its failure; it may pass now.  A job the baseline did not
    record may fail only in a known-failure class (``Job.may_fail``).
    Reports that contradict their exit status are problems too.
    """
    problems = []
    for o in outcomes:
        where = f"{o.job.kind} {o.job.key}"
        if o.problem:
            problems.append(f"{where}: exit {o.rc} {o.problem}")
        if not o.failed:
            continue
        now = outcome(o)
        if o.job.key in digests:
            before = failures.get(o.job.key, "pass")
            if not _no_worse(now, before):
                problems.append(f"{where}: {before} at the baseline commit, now {now}")
        elif not o.job.may_fail:
            problems.append(f"{where}: {now} outside the known-failure classes")
    return problems


def inventory(outcomes: list[Outcome]) -> list[dict]:
    """One entry per failed job: exit status, error class and reason."""
    rows = []
    for o in outcomes:
        if not o.failed:
            continue
        failing = [r["identity"] for r in o.residuals if not r["pass"]]
        cls = o.error
        if o.rc == 1 and failing:
            cls = "residual over tolerance: " + ", ".join(failing)
        rows.append({
            "job": o.job.key, "kind": o.job.kind, "exit": o.rc,
            "error": cls or (o.stderr.strip().splitlines() or ["?"])[-1][:120],
            "reason": o.job.may_fail or "unexpected",
        })
    return rows
