"""Contour-integral functional calculus on dense complex matrices.

Single matrices (:func:`apply_function`), commuting tuples (tensor-grid
circle quadrature of a :class:`MultivariateFunction`, :func:`funcalc_n`),
tensor divided differences of arbitrary (non-commuting) tuples, and their
pairing with interleaved matrix factors; the divided difference of a
commuting tuple is the pairing with identity factors.  All contours are circles: matrix spectra
are finite point sets, so a circle with margin always encloses them and keeps
the trapezoid rule spectrally accurate.  Every entry point takes its circle
from :func:`opcalc.quadrature.contour_around` (built around the spectrum, or
the one passed in, checked against the spectrum and the domain; a default
circle widened for f, and :func:`funcalc_n`'s default circles widened
together for its :class:`MultivariateFunction`).  A
pairing with factors is a block of f of one block-bidiagonal matrix B
(:func:`bidiagonal`), read from the block array of f(B) that this module
alone lays out, and a single matrix is the one-slot case of
:func:`dd_apply`.  The resolvent of B is never inverted whole: it is built
from the d x d resolvents R_i = (z - a_i)^-1 of its diagonal blocks, block
(i, j) being R_i b_{i+1} R_{i+1} ... b_j R_j.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .core import (
    TensorOperator,
    as_matrices,
    as_matrix,
    commutator,
    eigen_decompose,
    opnorm,
    rel_err,
)
from .errors import (
    ArityCap,
    ContourViolation,
    DimensionMismatch,
    InvalidInput,
    NonCommutingTuple,
    TensorRuleViolation,
)
from .functions import HoloFunction, MultivariateFunction, _handle
from .quadrature import (Contour, _circle_levels, _refine, _torus_around, contour_around,
                         contour_quadrature)

__all__ = [
    "Contour",
    "CommutingTuple",
    "apply_via_eig",
    "apply_function",
    "funcalc_n",
    "funcalc_elementary",
    "dd_tensor",
    "bidiagonal",
    "dd_apply",
]

MAX_ARITY = 4
MAX_AXIS_NODES = 256
RTOL = 1e-10  # relative agreement at which a contour quadrature here stops refining
# Most grid points funcalc_n passes to f at once.  Sized to the cache, not to
# memory: at three variables a block's values and the contraction's
# temporaries trace 8.3 MB at their peak, where one 2^22-point block held 48 MB.
BLOCK = 1 << 18
ENTRIES = 1 << 23  # most integrand entries dd_tensor and dd_apply hold at once


class CommutingTuple:
    """Tuple of same-size matrices validated to commute pairwise.

    The commutator of every pair must have operator norm at most
    ``1e-10 * |a_i| * |a_j|``.
    """

    def __init__(self, mats: Sequence):
        self.mats = tuple(as_matrices(mats))
        norms = [max(opnorm(m), 1e-300) for m in self.mats]
        for i in range(len(self.mats)):
            for j in range(i + 1, len(self.mats)):
                defect = opnorm(commutator(self.mats[i], self.mats[j]))
                if defect > 1e-10 * norms[i] * norms[j]:
                    raise NonCommutingTuple(
                        f"matrices {i} and {j}: commutator norm {defect:.3e} "
                        "exceeds 1e-10 * |a_i| * |a_j|"
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


def _as_tuple(a) -> CommutingTuple:
    return a if isinstance(a, CommutingTuple) else CommutingTuple(a)


def _distinct(mats: Sequence) -> tuple[np.ndarray, list[int]]:
    """Stack of the distinct matrices in the validated ``mats`` and the index
    of each matrix in that stack."""
    seen: dict = {}
    idx = [seen.setdefault(m.tobytes(), (len(seen), m))[0] for m in mats]
    return np.stack([m for _, m in seen.values()]), idx


def _spectrum(mats: Sequence) -> np.ndarray:
    """Eigenvalues of every matrix in the validated ``mats``, in order; each
    distinct matrix is factored once."""
    distinct, idx = _distinct(mats)
    return np.linalg.eigvals(distinct)[idx].ravel()


def _resolvents(zeta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stack of (zeta_k - a)^-1 over the contour nodes; for a stack of matrices
    ``a``, one such stack per matrix, in one batched inverse.  A node where
    zeta_k - a is singular is a :class:`ContourViolation` naming the node."""
    shifted = zeta[:, None, None] * np.eye(a.shape[-1], dtype=complex) - a[..., None, :, :]
    try:
        return np.linalg.inv(shifted)
    except np.linalg.LinAlgError:  # name the node of least |det| over the matrices
        k = np.argmin(np.linalg.slogdet(shifted)[1].reshape(-1, len(zeta)).min(axis=0))
        raise ContourViolation(f"singular resolvent at contour node {zeta[k]:.6g}") from None


def _level_resolvents(zeta: np.ndarray, a: np.ndarray, prev) -> np.ndarray:
    """``_resolvents(zeta, a)`` on a doubling level, given the stack ``prev`` of
    the level before (None at the first level).  The even nodes of a level
    are the nodes of the one before, bit for bit, and so are their
    resolvents: only the new odd nodes ``zeta[1::2]`` are inverted."""
    if prev is None:
        return _resolvents(zeta, a)
    r = np.empty((len(zeta),) + prev.shape[1:], dtype=complex)
    r[0::2] = prev
    r[1::2] = _resolvents(zeta[1::2], a)
    return r


def apply_via_eig(f, m) -> np.ndarray:
    """Eigendecomposition route: V diag(f(w)) V^-1.

    Serves as the independent oracle for the contour route; raises
    :class:`NonDiagonalizable` for defective input, :class:`InvalidInput` for a non-handle.
    """
    w, v, vinv = eigen_decompose(m)
    fw = np.asarray(_handle(f, HoloFunction)(w), dtype=complex)
    return (v * fw) @ vinv


def apply_function(f: HoloFunction, m, contour: Contour | None = None, *,
                   stats: dict | None = None) -> np.ndarray:
    """f(m) by circle quadrature of f(z) (z - m)^-1: the one-slot :func:`dd_apply`."""
    return dd_apply(f, [m], [], contour, stats=stats)


def funcalc_n(f: MultivariateFunction, a, cs: Sequence[Contour] | None = None) -> np.ndarray:
    """f(a_1, ..., a_n) for a commuting tuple by tensor-grid circle quadrature.

    One circle per variable; all axes double their trapezoid counts together
    (up to ``MAX_AXIS_NODES``, arity capped at 4) until two levels agree by
    the stopping rule of :func:`opcalc.quadrature._refine`.
    A level inverts each axis's resolvents only at its new (odd) nodes and
    takes those at its even nodes from the level before.
    Each level tiles the grid into blocks of at most ``BLOCK`` (2^18)
    points, evaluates f once per block on sparse axis grids and contracts
    the block one axis at a time against the weighted resolvents, so three
    and four variables cost time rather than memory: a 128^3-point level
    holds about 8 MB at once.  ``f`` is a
    :class:`MultivariateFunction` declaring one domain per matrix (another
    count raises :class:`InvalidInput`).  A circle given for an axis is
    kept; the default circles are widened together for f by the rule of
    :func:`opcalc.quadrature._widened`, each within 2 R0 and its domain's
    clearance, probing f on a grid of at most 4096 points, so that they
    converge geometrically faster than the tight circles.  A given circle
    of more than ``MAX_AXIS_NODES // 2`` (128) nodes is refused
    (:class:`ContourViolation`) before f is evaluated.  f of a single
    matrix is :func:`apply_function`.
    """
    tup = _as_tuple(a)
    n = len(tup)
    if n > MAX_ARITY:
        raise ArityCap(f"tensor-grid quadrature supports up to {MAX_ARITY} variables")
    if len(_handle(f, MultivariateFunction).domains) != n:
        raise InvalidInput(f"need {n} domains, got {len(f.domains)}")
    if cs is None:
        cs = [None] * n
    if len(cs) != n:
        raise ContourViolation(f"need {n} contours, got {len(cs)}")
    # every axis starts at the largest given count: past half the cap there
    # is no second level to compare with, so refuse before a point is evaluated
    given = [c.nodes for c in cs if c is not None]
    if given and max(given) > MAX_AXIS_NODES // 2:
        raise ContourViolation(f"contour nodes {max(given)} exceed {MAX_AXIS_NODES // 2}, half of "
                               f"the MAX_AXIS_NODES = {MAX_AXIS_NODES} a torus axis refines to")
    cs = _torus_around(f, [np.linalg.eigvals(m) for m in tup], f.domains, cs)

    d = tup.dim

    def level(m_nodes: int, held: list):
        """The level's sum and mass; ``held`` holds each axis's resolvent
        stack of the level before (None at the first), and is given this
        level's."""
        zetas, wres, nus = [], [], []
        for k, (c, m) in enumerate(zip(cs, tup)):
            zeta, w = c.points(m_nodes)
            r = held[k] = _level_resolvents(zeta, m, held[k])
            zetas.append(zeta)
            wres.append(w[:, None, None] * r)
            nus.append(np.abs(w) * np.linalg.norm(r, axis=(1, 2)))
        # block steps per axis: whole trailing axes, a run of the next axis,
        # single nodes before that
        steps, room = [], BLOCK
        for _ in range(n):
            steps.insert(0, min(m_nodes, room))
            room //= steps[0]
        value, mass = np.zeros((d, d), dtype=complex), 0.0
        for block in itertools.product(
            *[[slice(s, s + step) for s in range(0, m_nodes, step)] for step in steps]
        ):
            axes = [z[b] for z, b in zip(zetas, block)]
            fv = np.broadcast_to(
                np.asarray(f(*np.meshgrid(*axes, indexing="ij", sparse=True)), dtype=complex),
                tuple(map(len, axes)),
            )
            # sum factorisation: contract the last axis, then each earlier one
            x = np.tensordot(fv, wres[-1][block[-1]], axes=(-1, 0))
            for r, b in zip(wres[-2::-1], block[-2::-1]):
                x = np.sum(r[b] @ x, axis=-3)
            weight = np.abs(fv)
            for nu, b in zip(nus[::-1], block[::-1]):
                weight = weight @ nu[b]
            value += x
            mass += float(weight)
        return value, mass

    def levels():
        held = [None] * n
        m_nodes = max(c.nodes for c in cs)  # each at least 16, as Contour checks
        yield m_nodes, *level(m_nodes, held)
        while m_nodes < MAX_AXIS_NODES:
            m_nodes *= 2
            yield m_nodes, *level(m_nodes, held)

    return _refine(levels(), RTOL)[1]


def funcalc_elementary(
    fs: Sequence[HoloFunction],
    a,
    cs: Sequence[Contour] | None = None,
    *,
    check_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(f_1 x ... x f_n)(a) with the product-rule cross-check.

    Evaluates the joint tensor-grid integral of the product function and the
    product of single-variable values, verifies they agree to ``check_tol``,
    and returns ``(value, joint)``: the product of single-variable values
    and the joint integral (``verify.tensor_rule`` records their distance).
    Each axis's circle is built once from its own handle (widened for f_j
    unless given) and both evaluations use the same circles.
    """
    tup = _as_tuple(a)
    n = len(tup)
    if len(fs) != n:
        raise ContourViolation(f"need {n} functions, got {len(fs)}")
    if cs is None:
        cs = [None] * n
    if len(cs) != n:
        raise ContourViolation(f"need {n} contours, got {len(cs)}")
    cs = [contour_around(np.linalg.eigvals(m), _handle(fj, HoloFunction), c)
          for fj, m, c in zip(fs, tup, cs)]
    product = MultivariateFunction(
        # broadcast: funcalc_n passes sparse axis grids
        fn=lambda *zs: functools.reduce(np.multiply, [fj(z) for fj, z in zip(fs, zs)]),
        domains=tuple(fj.domain for fj in fs),
    )
    joint = funcalc_n(product, tup, cs)
    singles = np.eye(tup.dim, dtype=complex)
    for j, fj in enumerate(fs):
        singles = singles @ apply_function(fj, tup[j], cs[j])
    defect = rel_err(joint, singles)
    if defect > check_tol:
        raise TensorRuleViolation(
            f"joint and factored evaluations differ by {defect:.3e} "
            f"(tensor-product-rule, tol {check_tol:g})"
        )
    return singles, joint


def dd_tensor(
    f: HoloFunction,
    mats: Sequence,
    contour: Contour | None = None,
    *,
    stats: dict | None = None,
) -> TensorOperator:
    """Tensor divided difference of a (not necessarily commuting) tuple.

    A single circle around the union of the spectra integrates
    f(z) * (z - a_0)^-1 (x) ... (x) (z - a_n)^-1 into an (n+1)-slot operator.
    The slots are split into a leading and a trailing half, so a level's sum
    over the nodes is one matrix product of the two halves' Kronecker stacks
    and no node's d^(n+1)-square integrand is formed.  A level's sum still
    holds the whole tensor, d^(2(n+1)) entries: past ``ENTRIES`` the tuple is
    refused with :class:`InvalidInput` before f is called.
    """
    ms = as_matrices(mats)
    d = ms[0].shape[0]
    entries = d ** (2 * len(ms))
    if entries > ENTRIES:
        raise InvalidInput(f"a {len(ms)}-slot tensor at d = {d} has {entries} entries, "
                           f"more than {ENTRIES}")
    c = contour_around(_spectrum(ms), _handle(f, HoloFunction), contour)
    halves = ms[: len(ms) // 2], ms[len(ms) // 2 :]
    p, q = (d ** len(h) for h in halves)

    def kron_stack(zeta, part):  # the half's resolvent Kronecker products, per node
        out = np.ones((len(zeta), 1, 1), dtype=complex)
        for r in (_resolvents(zeta, m) for m in part):
            k = out.shape[1] * r.shape[1]
            out = np.einsum("kab,kcd->kacbd", out, r).reshape(len(zeta), k, k)
        return out

    def weighted(zeta, w):
        cw = w * np.asarray(f(zeta), dtype=complex)
        left, right = (kron_stack(zeta, h) for h in halves)
        mass = np.abs(cw) @ (np.abs(left).sum(axis=(1, 2)) * np.abs(right).sum(axis=(1, 2)))
        return np.einsum("k,kab,kce->acbe", cw, left, right, optimize=True), float(mass)

    step = max(1, ENTRIES // (p * p + q * q))
    m, value = _refine(_circle_levels(weighted, c, step), RTOL)
    if stats is not None:
        stats["contour_nodes"] = m
    return TensorOperator(value.reshape(p * q, p * q), d, len(ms))


def _blocks(diag: Sequence, sup: Sequence) -> tuple[list, list]:
    """Validated diagonal and superdiagonal blocks of a block-bidiagonal matrix."""
    ms = as_matrices(diag)
    d = ms[0].shape[0]
    bs = [as_matrix(b, dim=d) for b in sup]
    if len(bs) != len(ms) - 1:
        raise DimensionMismatch(f"{len(ms)} diagonal blocks need {len(ms) - 1} above them")
    return ms, bs


def bidiagonal(diag: Sequence, sup: Sequence) -> np.ndarray:
    """Block-bidiagonal B with ``diag`` on the diagonal and ``sup`` just above.

    Block (i, j) of f(B) is the pairing [a_i..a_j] f (b_{i+1} ... b_j) (Opitz
    1964).  Every block must be square of one dimension (DimensionMismatch).
    """
    ms, bs = _blocks(diag, sup)
    d = ms[0].shape[0]
    return np.block([[ms[i] if j == i else bs[i] if j == i + 1 else np.zeros((d, d))
                      for j in range(len(ms))] for i in range(len(ms))])


def _block_array(fb: np.ndarray, count: int) -> np.ndarray:
    """The ``(count, count, d, d)`` view of a (count d)-square matrix whose
    ``[i, j]`` is block (i, j): how every pairing is read off f(B)."""
    d = fb.shape[0] // count
    return fb.reshape(count, d, count, d).swapaxes(1, 2)


def _f_bidiagonal(f, diag, sup, c: Contour, known, *, stats=None) -> np.ndarray:
    """f(B), B = ``bidiagonal(diag, sup)``, by circle quadrature of f(z) (z - B)^-1
    on ``c``, as the ``(n+1, n+1, d, d)`` block array of :func:`_block_array`.

    The caller has built and checked ``c`` (:func:`opcalc.quadrature.contour_around`)
    around the diagonal blocks' spectra, not B's (defective when blocks
    repeat), for f's domain.  (z - B)^-1 is block upper triangular with block
    (i, j) equal to R_i b_{i+1} R_{i+1} ... b_j R_j, R_i = (z - a_i)^-1, so
    block row i is [R_i, (R_i b_{i+1}) row_{i+1}], filled from the last row
    up, and only the blocks below the diagonal are zeroed.  A node batch
    takes one batched inverse of the distinct diagonal blocks (Taylor's
    repeated a is inverted once), one product per factor b_{i+1} over all
    nodes and one batched product per block row: O((n+1)^2 d^3) per node,
    against O((n+1)^3 d^3) for inverting z - B whole.

    ``known`` is None or a dict from the bytes of a node batch to the stack
    of the distinct blocks' resolvents there.  A batch found in it takes its
    stack from there; one that is not is inverted and added.  So calls on
    one circle with the same diagonal blocks (every shell of
    ``ncseries.taylor_series_ad``) invert each node once; its lifetime is
    the caller's.
    """
    ms, bs = _blocks(diag, sup)
    distinct, idx = _distinct(ms)
    d = ms[0].shape[0]
    size = len(ms) * d

    def resolvents(zeta):
        if known is None:
            return _resolvents(zeta, distinct)
        key = zeta.tobytes()
        if key not in known:
            known[key] = _resolvents(zeta, distinct)
        return known[key]

    def integrand(zeta):
        r = resolvents(zeta)
        fr = np.asarray(f(zeta), dtype=complex)[:, None, None] * r
        out = np.empty((len(zeta), size, size), dtype=complex)
        for i in reversed(range(len(ms))):
            lo, hi = i * d, (i + 1) * d
            out[:, lo:hi, :lo] = 0.0
            out[:, lo:hi, lo:hi] = fr[idx[i]]
            if hi < size:
                # one GEMM over the node stack: a stacked matmul calls BLAS per node
                rb = (r[idx[i]].reshape(-1, d) @ bs[i]).reshape(-1, d, d)
                np.matmul(rb, out[:, hi:hi + d, hi:], out=out[:, lo:hi, hi:])
        return out

    fb = contour_quadrature(integrand, c.center, c.radius, start=c.nodes, rtol=RTOL,
                            stats=stats, chunk=max(1, ENTRIES // size**2))
    return _block_array(fb, len(ms))


def dd_apply(f: HoloFunction, mats: Sequence, bs: Sequence, contour: Contour | None = None, *,
             stats: dict | None = None) -> np.ndarray:
    """Divided difference of a tuple paired with interleaved matrix factors.

    [a_0..a_n] f (b_1 ... b_n) is block (0, n) of f(``bidiagonal(mats, bs)``),
    so the d^(n+1) tensor operator is never built; equals
    ``pair(dd_tensor(f, mats), bs)``; its circle is checked here, by
    :func:`opcalc.quadrature.contour_around`.
    """
    ms, bs = _blocks(mats, bs)
    c = contour_around(_spectrum(ms), _handle(f, HoloFunction), contour)
    return _f_bidiagonal(f, ms, bs, c, None, stats=stats)[0, -1]
