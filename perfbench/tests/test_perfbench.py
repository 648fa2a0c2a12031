"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import harness  # noqa: E402
import jobs as jobs_module  # noqa: E402
import opcalc.cli  # noqa: E402
from jobs import WORKLOADS, round_jobs  # noqa: E402
from tracer import ENGINES, Tracer, resolve  # noqa: E402


def _summary(jobs):
    return [(j.key, j.kind, j.argv, j.spec, j.may_fail) for j in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_are_deterministic_per_seed(workload):
    first = round_jobs(workload, 7, 0)
    assert _summary(first) == _summary(round_jobs(workload, 7, 0))
    assert [j.key for j in first] != [j.key for j in round_jobs(workload, 8, 0)]
    assert [j.key for j in first] != [j.key for j in round_jobs(workload, 7, 1)]
    assert len({j.key for j in first}) == len(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_composition_does_not_depend_on_the_seed(workload):
    def composition(seed, index):
        return Counter(j.kind for j in round_jobs(workload, seed, index))

    assert composition(1, 0) == composition(2, 3) == composition(99, 1)


def _cheap(job) -> bool:
    """Round-0 jobs that finish in well under a second each."""
    argv = job.argv
    if job.kind == "dyson":
        return int(argv[argv.index("--order") + 1]) <= 2
    if job.kind == "magnus":
        return int(argv[argv.index("--rows") + 1]) <= 2
    if job.kind == "rearrange":
        return int(argv[argv.index("--p") + 1]) <= 2
    return job.kind not in ("verify-all", "funcalc-elementary-3", "dd")


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    jobs = [j for w in WORKLOADS for j in round_jobs(w, 3, 0) if _cheap(j)]
    plain = [harness.run_job(opcalc.cli, j, str(tmp_path)) for j in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.run_job(opcalc.cli, j, str(tmp_path), tracer.start_job)
                  for j in jobs]
    finally:
        tracer.uninstall()
    assert [o.digest for o in plain] == [o.digest for o in traced]
    names = Counter(span[0] for span in tracer.spans)
    for name in ("cli.main", "quadrature.contour_quadrature", "quadrature.simplex_integrate",
                 "quadrature.adaptive_gauss_kronrod", "magnus.magnus_solve",
                 "quadrature.contour.integrand"):
        assert names[name] > 0, name
    metrics = tracer.metrics([])
    assert 0 < metrics["quadrature.contour.useful_ratio"] <= 1
    assert metrics["magnus.field_evals"] > 0 and metrics["magnus.rhs_evals"] > 0
    assert metrics["cli.self_s"] > 0


def test_tracer_restores_every_binding():
    before = resolve()
    tracer = Tracer()
    tracer.install()
    wrapped = resolve()
    tracer.uninstall()
    after = resolve()
    assert all(wrapped[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    assert opcalc.cli.dyson_exp is before["ncseries.dyson_exp"]


def test_every_wrapped_name_resolves():
    names = resolve()   # raises AttributeError on a renamed function
    import opcalc.verify

    assert sum(k.startswith("verify.") for k in names) == len(opcalc.verify.BATTERY) == 16


def test_engines_still_report_their_accepted_level():
    from opcalc import quadrature

    for func, (_, key) in ENGINES.items():
        stats = {}
        if func == "contour_quadrature":
            quadrature.contour_quadrature(np.exp, 0.0, 1.0, stats=stats)
        elif func == "simplex_integrate":
            quadrature.simplex_integrate(lambda s: np.exp(s[:, 0]), 2, stats=stats)
        else:
            quadrature.adaptive_gauss_kronrod(np.exp, 0.0, 1.0, stats=stats)
        assert key in stats, func


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, "j"], ["b", 1.0, 4.0, 0, "j"],
                    ["c", 2.0, 3.0, 1, "j"], ["d", 5.0, 6.0, 0, "j"]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).uniform(size=37))
    for pct in (35, 50, 66, 75, 95):
        assert harness.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def _outcome(key, rc, failing=(), error="", may_fail=""):
    job = jobs_module.Job(key, "dd", ("dd",), None, may_fail)
    residuals = [{"identity": name, "pass": False} for name in failing]
    return harness.Outcome(job, rc, 0.0, 0.1, "", residuals, "", "", error)


def test_outcome_check_compares_with_the_baseline_commit():
    digests = {k: "d" for k in ("was_pass", "was_fail_1", "was_fail_2")}
    failures = {"was_fail_1": "1:a,b", "was_fail_2": "2:ValueError"}

    def problems(*outcomes):
        return harness.outcome_problems(list(outcomes), digests, failures)

    # unchanged failures, fewer failing residuals, and a fix all pass the check
    assert problems(_outcome("was_fail_1", 1, ["a", "b"]), _outcome("was_fail_2", 2,
                    error="ValueError"), _outcome("was_pass", 0)) == []
    assert problems(_outcome("was_fail_1", 1, ["b"]), _outcome("was_fail_2", 0)) == []
    # even a job flagged as a known-failure class may not fail if it passed at the baseline
    assert problems(_outcome("was_pass", 2, error="QuadratureNoConvergence",
                             may_fail="near-singular"))
    # a failure that changes its error class, its exit or its failing residuals
    assert problems(_outcome("was_fail_2", 2, error="ContourViolation"))
    assert problems(_outcome("was_fail_1", 2, error="ValueError"))
    assert problems(_outcome("was_fail_1", 1, ["a", "c"]))
    # a job the baseline did not record may fail only in a known-failure class
    assert problems(_outcome("new", 1, ["a"], may_fail="near-singular")) == []
    assert problems(_outcome("new", 1, ["a"]))


def test_outcome_records_the_error_class_of_a_refusal(tmp_path):
    job = jobs_module._job("dd", ["dd", "--f", "no-such-function", "--nodes", "[[0, 0], [1, 0]]"])
    o = harness.run_job(opcalc.cli, job, str(tmp_path))
    assert o.rc == 2 and o.error and harness.outcome(o) == f"2:{o.error}"
    digests = {job.key: o.digest}
    assert harness.outcome_problems([o], digests, {job.key: f"2:{o.error}"}) == []
    assert harness.outcome_problems([o], digests, {job.key: "2:SomeOtherError"})
    assert harness.outcome_problems([o], digests, {})
