"""Contour-integral functional calculus on dense complex matrices.

Single matrices, commuting tuples (tensor-grid circle quadrature), tensor
divided differences of arbitrary (non-commuting) tuples, and their pairing
with interleaved matrix factors.  All contours are circles: matrix spectra
are finite point sets, so a circle with margin always encloses them and keeps
the trapezoid rule spectrally accurate.  Every entry point takes its circle
from :func:`opcalc.quadrature.contour_around` (built around the spectrum, or
the one passed in, checked against the spectrum and the domain), and a
single matrix is the one-slot case of :func:`dd_apply`.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import (
    TensorOperator,
    as_matrix,
    commutator,
    eigen_decompose,
    opnorm,
    rel_err,
)
from .divdiff import compositions
from .errors import (
    ArityCap,
    ContourViolation,
    DomainViolation,
    NonCommutingTuple,
    TensorRuleViolation,
)
from .functions import HoloFunction, MultivariateFunction
from .quadrature import Contour, _refine, contour_around, contour_quadrature, simplex_integrate
from .tolerances import DEFAULTS

__all__ = [
    "Contour",
    "CommutingTuple",
    "apply_via_eig",
    "apply_function",
    "funcalc_n",
    "funcalc_elementary",
    "dd_tensor",
    "dd_apply",
    "dd_commuting",
    "genocchi_hermite_matrix",
]

MAX_ARITY = 4
MAX_AXIS_NODES = 256


class CommutingTuple:
    """Tuple of same-size matrices validated to commute pairwise.

    The commutator of every pair must have operator norm at most
    ``comm_tol * |a_i| * |a_j|``.
    """

    def __init__(self, mats: Sequence, comm_tol: float = DEFAULTS.comm_tol):
        self.mats = tuple(as_matrix(m) for m in mats)
        if not self.mats:
            raise NonCommutingTuple("empty tuple")
        d = self.mats[0].shape[0]
        self.mats = tuple(as_matrix(m, dim=d) for m in self.mats)
        self.comm_tol = comm_tol
        norms = [max(opnorm(m), 1e-300) for m in self.mats]
        for i in range(len(self.mats)):
            for j in range(i + 1, len(self.mats)):
                defect = opnorm(commutator(self.mats[i], self.mats[j]))
                if defect > comm_tol * norms[i] * norms[j]:
                    raise NonCommutingTuple(
                        f"matrices {i} and {j}: commutator norm {defect:.3e} "
                        f"exceeds {comm_tol:g} * |a_i| * |a_j|"
                    )

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def __len__(self):
        return len(self.mats)

    def __iter__(self):
        return iter(self.mats)

    def __getitem__(self, k):
        return self.mats[k]


def _as_tuple(a, comm_tol: float = DEFAULTS.comm_tol) -> CommutingTuple:
    if isinstance(a, CommutingTuple):
        return a
    if isinstance(a, np.ndarray) and a.ndim == 2:
        a = (a,)
    return CommutingTuple(a, comm_tol)


def _spectrum(mats: Sequence) -> np.ndarray:
    """Eigenvalues of every matrix in ``mats``, in order."""
    return np.concatenate([np.linalg.eigvals(m) for m in mats])


def _resolvents(zeta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stack of (zeta_k - a)^-1 over the contour nodes."""
    d = a.shape[0]
    eye = np.eye(d, dtype=complex)
    return np.linalg.inv(zeta[:, None, None] * eye - a)


def apply_via_eig(f, m) -> np.ndarray:
    """Eigendecomposition route: V diag(f(w)) V^-1.

    Serves as the independent oracle for the contour route; raises
    :class:`opcalc.errors.NonDiagonalizable` for defective input.
    """
    spec, v, vinv = eigen_decompose(m)
    fw = np.asarray(f(spec.eigenvalues), dtype=complex)
    return (v * fw) @ vinv


def apply_function(
    f: HoloFunction,
    m,
    contour: Contour | None = None,
    *,
    rtol: float = DEFAULTS.funcalc_rtol,
    stats: dict | None = None,
) -> np.ndarray:
    """f(m) by circle quadrature of f(z) (z - m)^-1: the one-slot :func:`dd_apply`."""
    return dd_apply(f, [m], [], contour, rtol=rtol, stats=stats)


def funcalc_n(
    f,
    a,
    cs: Sequence[Contour] | None = None,
    *,
    rtol: float = DEFAULTS.funcalc_rtol,
    comm_tol: float = DEFAULTS.comm_tol,
    cap: int = MAX_AXIS_NODES,
    block_budget: int = 1 << 22,
    stats: dict | None = None,
) -> np.ndarray:
    """f(a_1, ..., a_n) for a commuting tuple by tensor-grid circle quadrature.

    One circle per variable; all axes double their trapezoid counts together
    until two levels agree by the stopping rule of
    :func:`opcalc.quadrature._refine`, in operator norm (per-axis count capped
    at ``cap``, arity capped at 4).  Grid blocks larger than ``block_budget``
    entries are never materialized: leading axes fall back to a loop, so the
    three- and four-variable cases cost time rather than memory.  Wide spectra
    need many nodes per axis; passing contours with a larger margin makes the
    trapezoid converge geometrically faster.
    """
    tup = _as_tuple(a, comm_tol)
    n = len(tup)
    if n > MAX_ARITY:
        raise ArityCap(f"tensor-grid quadrature supports up to {MAX_ARITY} variables")
    domains: tuple = ()
    if isinstance(f, MultivariateFunction):
        domains = f.domains
    elif isinstance(f, HoloFunction):
        if n != 1:
            raise ContourViolation("a univariate handle only evaluates a 1-tuple")
        domains = (f.domain,)

    if cs is None:
        cs = [None] * n
    if len(cs) != n:
        raise ContourViolation(f"need {n} contours, got {len(cs)}")
    cs = [contour_around(np.linalg.eigvals(tup[j]),
                         domains[j] if j < len(domains) else None, c)
          for j, c in enumerate(cs)]

    d = tup.dim
    start = max(16, max(c.nodes for c in cs))

    def level(m_nodes: int):
        zetas, ws, res, res_norms = [], [], [], []
        for j, c in enumerate(cs):
            zeta, w = c.points(m_nodes)
            zetas.append(zeta)
            ws.append(w)
            r = _resolvents(zeta, tup[j])
            res.append(r)
            res_norms.append(np.linalg.norm(r, axis=(1, 2)))
        # trailing axes are contracted as one dense block; leading axes are
        # looped so memory stays bounded for three and four variables
        tail = n
        while tail > 1 and m_nodes**tail > block_budget:
            tail -= 1
        lead = n - tail
        tail_grids = np.meshgrid(*zetas[lead:], indexing="ij")
        tail_coef = np.ones((1,) * tail, dtype=complex)
        tail_nu = np.ones((1,) * tail)
        for axis in range(tail):
            shape = [1] * tail
            shape[axis] = m_nodes
            tail_coef = tail_coef * ws[lead + axis].reshape(shape)
            tail_nu = tail_nu * (
                np.abs(ws[lead + axis]) * res_norms[lead + axis]
            ).reshape(shape)

        def tail_value(lead_zetas):
            fv = np.asarray(f(*lead_zetas, *tail_grids), dtype=complex)
            coef = np.broadcast_to(fv, (m_nodes,) * tail) * tail_coef
            x = np.tensordot(coef, res[lead], axes=(0, 0))
            for r in res[lead + 1:]:
                x = np.einsum("a...ij,ajk->...ik", x, r)
            mass = float(np.sum(np.abs(fv) * tail_nu))
            return x, mass

        if lead == 0:
            return tail_value(())

        total = np.zeros((d, d), dtype=complex)
        mass_total = 0.0
        for flat in range(m_nodes**lead):
            idx = []
            remainder = flat
            for _ in range(lead):
                idx.append(remainder % m_nodes)
                remainder //= m_nodes
            idx.reverse()
            x, mass = tail_value(tuple(zetas[j][idx[j]] for j in range(lead)))
            weight = np.eye(d, dtype=complex)
            scale = 1.0
            for j in range(lead):
                weight = weight @ (ws[j][idx[j]] * res[j][idx[j]])
                scale *= abs(ws[j][idx[j]]) * res_norms[j][idx[j]]
            total = total + weight @ x
            mass_total += scale * mass
        return total, mass_total

    def levels():
        m_nodes = start
        yield m_nodes, *level(m_nodes)
        while m_nodes < cap:
            m_nodes *= 2
            yield m_nodes, *level(m_nodes)

    m_nodes, value = _refine(levels(), rtol, opnorm)
    if stats is not None:
        stats["axis_nodes"] = m_nodes
    return value


def funcalc_elementary(
    fs: Sequence[HoloFunction],
    a,
    cs: Sequence[Contour] | None = None,
    *,
    check_tol: float = DEFAULTS.tensor_rule,
    rtol: float = DEFAULTS.funcalc_rtol,
    stats: dict | None = None,
) -> np.ndarray:
    """(f_1 x ... x f_n)(a) with the product-rule cross-check.

    Evaluates the joint tensor-grid integral of the product function and the
    product of single-variable values, verifies they agree to ``check_tol``,
    and returns the product of single-variable values.
    """
    tup = _as_tuple(a)
    n = len(tup)
    if len(fs) != n:
        raise ContourViolation(f"need {n} functions, got {len(fs)}")
    product = MultivariateFunction(
        # broadcast: the leading-axis loop of funcalc_n passes scalar nodes
        # next to tail grids
        fn=lambda *zs: functools.reduce(np.multiply, [fj(z) for fj, z in zip(fs, zs)]),
        domains=tuple(fj.domain for fj in fs),
        name="*".join(fj.name for fj in fs),
    )
    joint = funcalc_n(product, tup, cs, rtol=rtol)
    singles = np.eye(tup.dim, dtype=complex)
    for j, fj in enumerate(fs):
        singles = singles @ apply_function(fj, tup[j], cs[j] if cs else None, rtol=rtol)
    defect = rel_err(joint, singles)
    if stats is not None:
        stats["tensor_rule_defect"] = defect
    if defect > check_tol:
        raise TensorRuleViolation(
            f"joint and factored evaluations differ by {defect:.3e} "
            f"(tensor-product-rule, tol {check_tol:g})"
        )
    return singles


def dd_tensor(
    f: HoloFunction,
    mats: Sequence,
    contour: Contour | None = None,
    *,
    rtol: float = DEFAULTS.funcalc_rtol,
    stats: dict | None = None,
) -> TensorOperator:
    """Tensor divided difference of a (not necessarily commuting) tuple.

    A single circle around the union of the spectra integrates
    f(z) * (z - a_0)^-1 (x) ... (x) (z - a_n)^-1 into an (n+1)-slot operator.
    """
    ms = [as_matrix(m) for m in mats]
    d = ms[0].shape[0]
    c = contour_around(_spectrum(ms), getattr(f, "domain", None), contour)

    def batch(zeta):
        out = _resolvents(zeta, ms[0])
        for m in ms[1:]:
            r = _resolvents(zeta, m)
            p, q = out.shape[1], r.shape[1]
            out = np.einsum("kab,kcd->kacbd", out, r).reshape(len(zeta), p * q, p * q)
        return np.asarray(f(zeta), dtype=complex)[:, None, None] * out

    big = d ** len(ms)
    value = contour_quadrature(batch, c.center, c.radius, start=c.nodes,
                               rtol=rtol, chunk=max(1, (1 << 23) // big**2),
                               stats=stats)
    return TensorOperator(value, d, len(ms))


def dd_apply(
    f: HoloFunction,
    mats: Sequence,
    bs: Sequence,
    contour: Contour | None = None,
    *,
    rtol: float = DEFAULTS.funcalc_rtol,
    stats: dict | None = None,
) -> np.ndarray:
    """Divided difference of a tuple paired with interleaved matrix factors.

    Integrates f(z) (z-a_0)^-1 b_1 (z-a_1)^-1 ... b_n (z-a_n)^-1 directly in
    d x d arithmetic (the big tensor operator is never materialized); equals
    ``pair(dd_tensor(f, mats), bs)``.  A node repeated in ``mats`` (confluent
    slots) shares one resolvent stack per batch of contour points.
    """
    ms = [as_matrix(m) for m in mats]
    d = ms[0].shape[0]
    if len(bs) != len(ms) - 1:
        raise ContourViolation(f"{len(ms)} nodes pair with {len(ms) - 1} factors")
    bmats = [as_matrix(b, dim=d) for b in bs]
    c = contour_around(_spectrum(ms), getattr(f, "domain", None), contour)

    distinct: list[np.ndarray] = []
    slots = []
    for m in ms:
        k = next((i for i, u in enumerate(distinct) if np.array_equal(u, m)), len(distinct))
        if k == len(distinct):
            distinct.append(m)
        slots.append(k)

    def batch(zeta):
        res = [_resolvents(zeta, m) for m in distinct]
        x = res[slots[0]]
        for b, k in zip(bmats, slots[1:]):
            x = x @ b
            x = x @ res[k]
        return np.asarray(f(zeta), dtype=complex)[:, None, None] * x

    return contour_quadrature(batch, c.center, c.radius, start=c.nodes,
                              rtol=rtol, stats=stats)


def dd_commuting(
    f: HoloFunction,
    a,
    contour: Contour | None = None,
    *,
    rtol: float = DEFAULTS.funcalc_rtol,
    comm_tol: float = DEFAULTS.comm_tol,
) -> np.ndarray:
    """Matrix-valued divided difference of a commuting tuple (shared contour).

    The commuting case of :func:`dd_apply` with identity factors.
    """
    tup = _as_tuple(a, comm_tol)
    eye = np.eye(tup.dim, dtype=complex)
    return dd_apply(f, tup.mats, [eye] * (len(tup) - 1), contour, rtol=rtol)


def genocchi_hermite_matrix(
    f: HoloFunction,
    a,
    *,
    rtol: float = 1e-9,
    grid: int = 10,
    comm_tol: float = DEFAULTS.comm_tol,
) -> np.ndarray:
    """Divided difference of a commuting tuple as a simplex integral of f^(n).

    The n-th derivative is applied to the convex combination matrix through the
    single-variable contour calculus at every quadrature node.  Holomorphy on
    the union of combination spectra is checked on a simplex lattice with
    ``grid`` points per axis before integrating.
    """
    tup = _as_tuple(a, comm_tol)
    n = len(tup) - 1
    if n == 0:
        return apply_function(f, tup[0])

    lattice = grid - 1
    for alpha in compositions(lattice, n + 1):
        comb = sum(w / lattice * m for w, m in zip(alpha, tup.mats))
        lam = np.linalg.eigvals(comb)
        if not np.all(f.domain.contains(lam)):
            raise DomainViolation(
                "combination spectrum leaves the declared domain at a lattice point"
            )

    fn_deriv = f.deriv_function(n)

    def integrand(s):
        out = np.empty((len(s), tup.dim, tup.dim), dtype=complex)
        for k, weights in enumerate(s):
            comb = sum(w * m for w, m in zip(weights, tup.mats))
            out[k] = apply_function(fn_deriv, comb)
        return out

    return simplex_integrate(integrand, n, rtol=rtol, start=8, cap=32)
