"""Dense complex matrix kernel: eigendecomposition, Kronecker products, pairing.

Matrices are plain ``numpy.ndarray`` of shape ``(d, d)`` and dtype complex128.
Elements of the (n+1)-fold tensor algebra are realized as Kronecker-product
matrices of dimension ``d**(n+1)``; :class:`TensorOperator` is such a
matrix checked against its base dimension and slot count, as
:func:`opcalc.funcalc.dd_tensor` returns it and :func:`pair` reads it.
Slot 0 is the leftmost Kronecker factor, so pairing an elementary tensor
``a0 (x) ... (x) an`` with matrices ``b1, ..., bn`` interleaves left to
right: ``a0 b1 a1 b2 ... bn an``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InvalidInput, NonDiagonalizable

__all__ = [
    "TensorOperator",
    "opnorm",
    "rel_err",
    "as_matrix",
    "as_matrices",
    "eigen_decompose",
    "kron",
    "multikron",
    "pair",
    "matrix_exp",
    "commutator",
    "stack_times",
    "matrix_to_json",
    "matrix_from_json",
]

EIG_COND_CAP = 1e8  # eigenvector condition above which a matrix counts as defective
EIG_RESIDUAL = 1e-10  # largest relative reconstruction error of V diag(w) V^-1


def opnorm(m: np.ndarray) -> float:
    """Operator 2-norm (largest singular value); scalars pass through as |.|."""
    m = np.asarray(m)
    if m.ndim == 0:
        return float(abs(m))
    return float(np.linalg.norm(m, 2))


def rel_err(value: np.ndarray, reference: np.ndarray) -> float:
    """Operator-norm difference relative to the reference (floor 1 on tiny refs)."""
    scale = max(opnorm(reference), 1e-300)
    return opnorm(np.asarray(value) - np.asarray(reference)) / scale


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """Validate and convert to a nonempty square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix entries must be finite")
    return a


def as_matrices(mats) -> list[np.ndarray]:
    """Validate a nonempty sequence of square matrices of one dimension."""
    if len(mats) == 0:
        raise InvalidInput("need at least one matrix")
    d = as_matrix(mats[0]).shape[0]
    return [as_matrix(m, dim=d) for m in mats]


def eigen_decompose(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize ``m = V diag(w) V^-1``.

    Returns ``(w, V, V^-1)``.  Raises :class:`NonDiagonalizable` when the
    eigenvector condition number exceeds ``EIG_COND_CAP`` or the relative
    reconstruction residual exceeds ``EIG_RESIDUAL``; callers holding such a
    matrix must fall back to a contour method, which never needs this
    factorization.
    """
    a = as_matrix(m)
    w, v = np.linalg.eig(a)
    cond = float(np.linalg.cond(v))
    if not np.isfinite(cond) or cond > EIG_COND_CAP:
        raise NonDiagonalizable(
            f"eigenvector condition {cond:.3e} exceeds cap {EIG_COND_CAP:.1e}"
        )
    vinv = np.linalg.inv(v)
    residual = rel_err((v * w) @ vinv, a) if opnorm(a) > 0 else 0.0
    if residual > EIG_RESIDUAL:
        raise NonDiagonalizable(f"reconstruction residual {residual:.3e}")
    return w, v, vinv


def kron(x, y) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(as_matrix(x), as_matrix(y))


def multikron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


@dataclass(frozen=True)
class TensorOperator:
    """Element of the (n+1)-fold matrix tensor algebra as a d**(n+1) dense matrix."""

    matrix: np.ndarray
    base_dim: int
    slots: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.base_dim**self.slots,) * 2:
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match "
                f"base_dim {self.base_dim} ** slots {self.slots}"
            )
        object.__setattr__(self, "matrix", m)


def _mu_contract(big: np.ndarray, d: int, slots: int) -> np.ndarray:
    # multiplication map on the Kronecker realization: contract row index of
    # slot k+1 against column index of slot k, leaving slot-0 row / slot-n column
    t = big.reshape((d,) * (2 * slots))
    letters = string.ascii_lowercase
    rows = letters[:slots]
    out = letters[slots]
    cols = rows[1:] + out
    return np.einsum(f"{rows}{cols}->{rows[0]}{out}", t)


def pair(t: TensorOperator, bs: Sequence[np.ndarray]) -> np.ndarray:
    """Pair an (n+1)-slot tensor operator with n matrices.

    Multiplies ``t`` by ``b1 (x) ... (x) bn (x) 1`` and applies the slotwise
    multiplication map; on elementary tensors this produces the interleaved
    product ``a0 b1 a1 ... bn an``.  Bilinear in ``t`` and in each ``b``.
    """
    d, slots = t.base_dim, t.slots
    if len(bs) != slots - 1:
        raise DimensionMismatch(f"{slots}-slot operator pairs with {slots - 1} matrices")
    mats = [as_matrix(b, dim=d) for b in bs]
    if not mats:
        return t.matrix.copy()
    big = t.matrix @ multikron(mats + [np.eye(d, dtype=complex)])
    return _mu_contract(big, d, slots)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade approximant)."""
    return scipy.linalg.expm(as_matrix(m))


def commutator(x, y) -> np.ndarray:
    return x @ y - y @ x


def stack_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for a stack ``x`` of shape (..., d, d) and one matrix ``m``.

    The stack goes in as the rows of one (P d, d) GEMM: numpy's per-call cost
    is paid once, not once per matrix of the stack.
    """
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape)


def matrix_to_json(m) -> dict:
    """Encode a matrix as {"dim": d, "re": [...], "im": [...]} (row-major)."""
    a = as_matrix(m)
    return {
        "dim": a.shape[0],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the row-major {"dim", "re", "im"} matrix format."""
    d = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros(d * d)), dtype=float)
    if re.size != d * d or im.size != d * d:
        raise DimensionMismatch(f"need {d * d} entries for dim {d}")
    return (re + 1j * im).reshape(d, d)
