"""Seeded job generator for the opcalc benchmark.

Every job is one ``opcalc`` command line, plus the JSON job-spec file it
reads for ``funcalc``.  A workload is a sequence of *rounds*; every round of
a workload has the same composition of job kinds and sizes, and only the
seeded inputs (matrices, nodes, poles, exponents, b-scales, CLI seeds)
differ between rounds and between workload seeds.  Fixing the composition
keeps per-job latency quantiles and throughput comparable across seeds and
across runs of different length.

The generator uses numpy only to build inputs; it never imports opcalc.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("calculus", "dyson", "propagator", "battery")

# Jobs flagged with one of these reasons may fail at the seed commit; every
# other job must pass.  The reasons mirror the failure inventory in
# baseline.json.
NEAR_SINGULAR = "near-singular"      # an eigenvalue/node within 0.1 of a pole or branch point
THREE_VARIABLE = "three-variable"    # tensor grid enters the leading-axis loop at 256 nodes
LOW_ORDER = "low-magnus-order"       # commutator series truncated at order <= 14
ZERO_DD = "zero-divided-difference"  # pow:N with N below the order: the exact value is 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``spec`` is written to a file named in ``argv``."""

    key: str                  # stable content hash, also the digest key
    kind: str
    argv: tuple
    spec: dict | None = None
    may_fail: str = ""

    def argv_with(self, spec_path: str | None) -> list[str]:
        return [spec_path if a == "{spec}" else a for a in self.argv]


def _job(kind: str, argv: list[str], spec: dict | None = None,
         may_fail: str = "") -> Job:
    blob = json.dumps([argv, spec], sort_keys=True).encode()
    key = hashlib.sha256(blob).hexdigest()[:16]
    return Job(key, kind, tuple(argv), spec, may_fail)


# ---------------------------------------------------------------------------
# inputs


def _mat_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def _gaussian(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(rng, eigs: np.ndarray) -> np.ndarray:
    """A mildly non-normal matrix with the given eigenvalues."""
    d = len(eigs)
    while True:
        v = np.eye(d) + 0.3 * _gaussian(rng, d) / np.sqrt(d)
        if np.linalg.cond(v) <= 20.0:
            return (v * eigs) @ np.linalg.inv(v)


def _disc(rng, count: int, center: complex, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return center + r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _draw_function(rng, fam: str) -> tuple[str, complex | None]:
    """A CLI function name of family ``fam`` and where its pole or branch point sits.

    ``fam`` is one of exp, pow+, pow-, log, rational, resolvent, or an exact
    ``pow:N``; exponents and poles not fixed by ``fam`` come from the seed.
    """
    if fam == "exp":
        return "exp", None
    if fam == "pow+":
        fam = f"pow:{int(rng.integers(1, 5))}"
    elif fam == "pow-":
        fam = f"pow:{-int(rng.integers(1, 4))}"
    if fam.startswith("pow:"):
        return fam, (0j if int(fam[4:]) < 0 else None)
    if fam == "log":
        return "log", 0j
    if fam == "rational":
        return f"rational:{int(rng.integers(1, 4))}", -1 + 0j
    lam = _resolvent_pole(rng)
    return f"resolvent:{lam.real!r},{lam.imag!r}", lam


def _resolvent_pole(rng) -> complex:
    """A pole on |lambda| = 3: the resolvent's domain is the disc of radius 2.85."""
    lam = 3.0 * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return complex(round(float(lam.real), 6), round(float(lam.imag), 6))


def _reason(name: str, order: int, near: bool) -> str:
    """Known-failure class of a divided difference of the given order."""
    if near:
        return NEAR_SINGULAR
    if name.startswith("pow:") and 0 <= int(name[4:]) < order:
        return ZERO_DD
    return ""


def _spectrum(rng, d: int, singular: complex | None, near: bool,
              center: complex) -> np.ndarray:
    """d eigenvalues (or nodes) placed for a function with the given singularity.

    Safe placements keep the automatic circle clear of the singularity; a
    near-singular placement puts one point within 0.1 of it.  ``center``
    comes from :func:`_safe_center`, shared by all matrices of one job so
    that the circle around their union stays clear too.
    """
    if near:
        pts = _disc(rng, d, 0.5 * np.exp(1j * rng.uniform(-np.pi, np.pi)), 1.0)
        offset = rng.uniform(0.02, 0.1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        pts[rng.integers(d)] = singular + offset
        return pts
    if singular is None or abs(singular) > 2:   # entire, or resolvent at |lam| = 3
        return _disc(rng, d, 0.0, 1.0 if singular is None else 0.5)
    return _disc(rng, d, center, 0.5)


def _safe_center(rng) -> complex:
    """Centre of a safe spectrum for a singularity at 0 or -1 (cut along (-inf, 0])."""
    return 2.0 * np.exp(1j * rng.uniform(-0.5, 0.5))


def _nodes_json(pts: np.ndarray) -> str:
    return json.dumps([[float(z.real), float(z.imag)] for z in pts])


# ---------------------------------------------------------------------------
# calculus


def _dd(rng, d: int, fams: tuple, near: bool) -> Job:
    name, sing = _draw_function(rng, fams[0])
    pts = _spectrum(rng, d, sing, near, _safe_center(rng))
    return _job("dd", ["dd", "--f", name, "--nodes", _nodes_json(pts), "--method", "all"],
                may_fail=_reason(name, d - 1, near))


def _funcalc_single(rng, d: int, fams: tuple, near: bool) -> Job:
    name, sing = _draw_function(rng, fams[0])
    a = _with_spectrum(rng, _spectrum(rng, d, sing, near, _safe_center(rng)))
    spec = {"function": name, "matrices": [_mat_json(a)], "contour": {"auto": True},
            "mode": "funcalc"}
    return _job("funcalc", ["funcalc", "--job", "{spec}"], spec,
                NEAR_SINGULAR if near else "")


def _funcalc_elementary(rng, d: int, fams: tuple, near: bool) -> Job:
    """Commuting tuple: functions of one shared normal matrix's eigenbasis.

    With ``near``, the first matrix has an eigenvalue near its function's
    singularity.
    """
    u = _unitary(rng, d)
    names, mats = [], []
    for j, fam in enumerate(fams):
        name, sing = _draw_function(rng, fam)
        eigs = _spectrum(rng, d, sing, near and j == 0, _safe_center(rng))
        names.append(name)
        mats.append(_mat_json((u * eigs) @ u.conj().T))
    spec = {"function": names, "matrices": mats, "contour": {"auto": True},
            "mode": "funcalc"}
    reason = THREE_VARIABLE if len(fams) >= 3 else (NEAR_SINGULAR if near else "")
    return _job(f"funcalc-elementary-{len(fams)}", ["funcalc", "--job", "{spec}"], spec,
                reason)


def _kronecker(rng, mode: str, d: int, n: int, fams: tuple, near: bool) -> Job:
    """ddapply / ddtensor on n+1 non-commuting d x d matrices (Kronecker size d^(n+1))."""
    name, sing = _draw_function(rng, fams[0])
    center = _safe_center(rng)
    mats = [_mat_json(_with_spectrum(rng, _spectrum(rng, d, sing, near and j == 0, center)))
            for j in range(n + 1)]
    spec = {"function": name, "matrices": mats, "contour": {"auto": True}, "mode": mode}
    if mode == "ddapply":
        spec["b_matrices"] = [_mat_json(_gaussian(rng, d) / (2 * np.sqrt(d)))
                              for _ in range(n)]
    return _job(mode, ["funcalc", "--job", "{spec}"], spec, _reason(name, n, near))


def _newton(rng, d: int, fams: tuple) -> Job:
    """Matrices come from the CLI's own seeded generator (norm 1), so only
    functions holomorphic well beyond the unit disc are used."""
    name, _ = _draw_function(rng, fams[0])
    return _job("newton", ["newton", "--f", name, "--dim", str(d),
                           "--count", str(2 + d % 3),
                           "--seed", str(int(rng.integers(1 << 30)))])


def _taylor(rng, d: int, fams: tuple) -> Job:
    name, _ = _draw_function(rng, fams[0])
    return _job("taylor", ["taylor", "--f", name, "--dim", str(d), "--order", str(10 - d),
                           "--b-scale", repr(round(float(rng.uniform(0.03, 0.12)), 4)),
                           "--seed", str(int(rng.integers(1 << 30)))])


_SAFE = ("exp", "pow+", "resolvent")

# (kind, d, n, function families, near-singular): the fixed composition of one
# calculus round.  For dd, d is the node count, at most 5 because the
# four-route check also integrates over the (d-1)-simplex; for ddapply and
# ddtensor, n + 1 matrices make a Kronecker integrand of size d^(n+1).  Every
# family of the CLI name set appears; 8 of 43 inputs are near-singular and 6
# build a Kronecker integrand of size >= 64.
_CALCULUS = (
    [("dd", d, 0, (f,), near) for d, f, near in (
        (2, "exp", False), (3, "log", True), (3, "rational", False), (4, "pow-", True),
        (4, "resolvent", False), (5, "pow:2", False), (5, "log", False))]
    + [("funcalc", d, 0, (f,), near) for d, f, near in (
        (2, "rational", True), (3, "exp", False), (4, "pow-", False), (5, "log", True),
        (6, "pow+", False), (7, "rational", False), (8, "resolvent", True))]
    + [("newton", d, 0, (_SAFE[d % 3],), False) for d in range(2, 9)]
    + [("taylor", d, 0, (_SAFE[(d + 1) % 3],), False) for d in range(2, 9)]
    + [("elementary", d, 0, fs, near) for d, fs, near in (
        (2, ("exp", "log"), False), (4, ("pow-", "resolvent"), True),
        (6, ("rational", "pow+"), False), (2, ("resolvent", "exp", "pow+"), False))]
    + [("ddapply", d, n, (f,), near) for d, n, f, near in (
        (2, 2, "rational", True), (3, 1, "exp", False), (5, 1, "log", False),
        (3, 2, "resolvent", False), (4, 2, "exp", False), (8, 1, "pow-", False),
        (2, 5, "rational", False))]
    + [("ddtensor", d, n, (f,), near) for d, n, f, near in (
        (2, 6, "exp", False), (3, 1, "log", True), (4, 2, "resolvent", False),
        (8, 1, "exp", False))]
)


def _calculus_round(rng) -> list[Job]:
    jobs = []
    for kind, d, n, fams, near in _CALCULUS:
        if kind == "dd":
            jobs.append(_dd(rng, d, fams, near))
        elif kind == "funcalc":
            jobs.append(_funcalc_single(rng, d, fams, near))
        elif kind == "newton":
            jobs.append(_newton(rng, d, fams))
        elif kind == "taylor":
            jobs.append(_taylor(rng, d, fams))
        elif kind == "elementary":
            jobs.append(_funcalc_elementary(rng, d, fams, near))
        else:
            jobs.append(_kronecker(rng, kind, d, n, fams, near))
    return jobs


# ---------------------------------------------------------------------------
# dyson, propagator, battery

# (order, dim) of one dyson round, cheapest first: order 1 at every dimension
# twice; order 2 at d = 2 (5) and d = 4 (10); order 3 at d = 2 (5), 4 and 6
# (4 each); and two jobs where the simplex point budget binds (order N
# integrates up to dimension N + 1).  The median falls in the middle of the
# ten order-2, d = 4 jobs and the tail percentile among the order-3, d = 2
# jobs, so neither sits on the jump between two job sizes.
_DYSON = ([(1, d) for d in range(2, 7)] * 2 + [(2, 2)] * 5 + [(2, 4)] * 10
          + [(3, 2)] * 5 + [(3, 4)] * 4 + [(3, 6)] * 4 + [(4, 2), (5, 2)])


def _dyson_round(rng) -> list[Job]:
    return [
        _job("dyson", ["dyson", "--dim", str(d), "--order", str(o),
                       "--b-scale", repr(round(float(rng.uniform(0.05, 0.3)), 4)),
                       "--seed", str(int(rng.integers(1 << 30)))])
        for o, d in _DYSON
    ]


# (rows, order, h) of the magnus jobs.  Fields alternate between triangular
# and a seeded perturbation.  Truncating the commutator series at order 14 or
# below leaves an error above the 1e-6 check at t = 1 whatever h is.
_MAGNUS = ((1, 8, 0.008), (1, 12, 0.005), (2, 16, 0.004), (5, 20, 0.006),
           (20, 28, 0.008))
# (p, d) of the rearrange jobs; p = 3 stops at d = 5, where one job takes 0.5 s
# and d^(p+1) kernel pairs grow as d^4.  Three copies of the p = 1 jobs put
# the median among many jobs of 10-20 ms instead of on the jump to the
# 35-60 ms jobs, where it would swing between runs.
_REARRANGE = ([(1, d) for d in range(2, 7)] * 3 + [(2, d) for d in range(2, 7)]
              + [(3, d) for d in range(2, 6)])


def _propagator_round(rng) -> list[Job]:
    jobs = []
    for k, (rows, order, h) in enumerate(_MAGNUS):
        fld = "triangular" if k % 2 == 0 else f"perturbed:{int(rng.integers(1 << 20))}"
        jobs.append(_job("magnus", [
            "magnus", "--field", fld, "--rows", str(rows), "--order", str(order),
            "--h", repr(h), "--format", "json"],
            may_fail=LOW_ORDER if order <= 14 else ""))
    for p, d in _REARRANGE:
        # decay exponents and sector half-angle fixed per slot; the seed
        # picks the matrices
        family = ",".join(str(1 + (d + j) % 2) for j in range(p + 1))
        jobs.append(_job("rearrange", [
            "rearrange", "--p", str(p), "--dim", str(d), "--family", family,
            "--delta", f"{0.2 + 0.05 * (d - 2):.2f}",
            "--seed", str(int(rng.integers(1 << 30)))]))
    return jobs


def _battery_round(rng) -> list[Job]:
    return [_job("verify-all", ["verify-all", "--seed", str(int(rng.integers(1 << 30)))])]


_ROUNDS = {
    "calculus": _calculus_round,
    "dyson": _dyson_round,
    "propagator": _propagator_round,
    "battery": _battery_round,
}


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """Jobs of round ``index`` of ``workload`` under ``seed``, in seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    jobs = _ROUNDS[workload](rng)
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]
