"""Dense complex matrix kernel: eigendecomposition, tensor operators, pairing.

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

import base64
import operator
import string
import sys
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
    "as_integer",
    "eigen_decompose",
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
    # the first of the descending singular values: bit for bit the max that
    # np.linalg.norm(m, 2) takes of them, without norm's argument handling
    return float(np.linalg.svd(m, compute_uv=False)[0])


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
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise DimensionMismatch("matrix entries must be finite")
    return a


def as_matrices(mats) -> list[np.ndarray]:
    """Validate a nonempty sequence of square matrices of one dimension."""
    if len(mats) == 0:
        raise InvalidInput("need at least one matrix")
    d = as_matrix(mats[0]).shape[0]
    return [as_matrix(m, dim=d) for m in mats]


def as_integer(value, name: str) -> int:
    """``value`` as an int (a Python or numpy integer; :class:`InvalidInput`
    naming ``name`` for anything else, a float included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


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
    scale = opnorm(a)  # one SVD: rel_err's scale, floor included
    residual = opnorm((v * w) @ vinv - a) / max(scale, 1e-300) if scale > 0 else 0.0
    if residual > EIG_RESIDUAL:
        raise NonDiagonalizable(f"reconstruction residual {residual:.3e}")
    return w, v, vinv


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


def pair(t: TensorOperator, bs: Sequence[np.ndarray]) -> np.ndarray:
    """Pair an (n+1)-slot tensor operator with n matrices.

    One contraction of t[r_0..r_n, c_0..c_n] with b_j[c_{j-1}, r_j] for
    j = 1..n, keeping (r_0, c_n): the slotwise multiplication map applied to
    ``t`` times ``b1 (x) ... (x) bn (x) 1``, with no Kronecker product formed.
    On elementary tensors this produces the interleaved product
    ``a0 b1 a1 ... bn an``.  Bilinear in ``t`` and in each ``b``.
    """
    d, slots = t.base_dim, t.slots
    if len(bs) != slots - 1:
        raise DimensionMismatch(f"{slots}-slot operator pairs with {slots - 1} matrices")
    mats = [as_matrix(b, dim=d) for b in bs]
    rows, cols = string.ascii_letters[:slots], string.ascii_letters[slots:2 * slots]
    operands = [rows + cols] + [c + r for c, r in zip(cols, rows[1:])]
    # optimize=True contracts pairwise through BLAS: one nested loop over all
    # 2(n+1) indices rounds worse (about 0.05 fewer median digits on the
    # calculus pairing residuals).  Copied: with no factors einsum returns a
    # view of the frozen matrix.
    return np.einsum(f"{','.join(operands)}->{rows[0]}{cols[-1]}",
                     t.matrix.reshape((d,) * (2 * slots)), *mats, optimize=True).copy()


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade approximant).

    An exponential past the float range is refused with :class:`InvalidInput`,
    with numpy's overflow warnings on the way there kept off stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(as_matrix(m))
    if np.count_nonzero(np.isfinite(e)) != e.size:
        raise InvalidInput("matrix exponential overflows the float range")
    return e


def commutator(x, y) -> np.ndarray:
    return x @ y - y @ x


def stack_times(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for a stack ``x`` of shape (..., d, d) and one matrix ``m``.

    The stack goes in as the rows of one (P d, d) GEMM: numpy's per-call cost
    is paid once, not once per matrix of the stack.
    """
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(x.shape)


def matrix_to_json(m) -> dict:
    """Encode a matrix as {"dim": d, "dtype": "<c16", "b64": ...}: the base64
    text of its row-major, little-endian complex128 bytes.

    Exact and compact: it decodes to the same array bit for bit, in about a
    third of the text of decimal floats and a small fraction of the time.
    """
    a = as_matrix(m)
    return {
        "dim": a.shape[0],
        "dtype": "<c16",
        "b64": base64.b64encode(a.astype("<c16", copy=False).tobytes()).decode("ascii"),
    }


def _checked_json(value, kind, what: str):
    """``value`` if ``json.load`` decoded it as a ``kind``; :class:`InvalidInput`
    naming ``what`` otherwise, so malformed outside input is an input error.
    A JSON ``true`` or ``false`` is no number, though ``bool`` subclasses ``int``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise InvalidInput(f"{what} must be a JSON {' or '.join(k.__name__ for k in kinds)}, "
                           f"got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, what: str):
    """``obj[key]``; a missing key is :class:`InvalidInput` naming it, not a bare KeyError."""
    if key not in obj:
        raise InvalidInput(f"{what} has no {key!r} field")
    return obj[key]


def _finite_number(value, what: str):
    """``value`` if it is a finite JSON number.  ``json.load`` also decodes
    NaN, the infinities and integers beyond the float range, which are refused
    (:class:`InvalidInput`) before any arithmetic overflows on them."""
    if not abs(_checked_json(value, (int, float), what)) <= sys.float_info.max:
        raise InvalidInput(f"{what} must be a finite number")
    return value


def _number_list(value, what: str) -> list:
    """``value`` if it is a JSON list of finite numbers (:class:`InvalidInput` otherwise)."""
    for x in _checked_json(value, list, what):
        _finite_number(x, f"an entry of {what}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode a matrix in either of its two forms, both row-major:
    {"dim", "dtype": "<c16", "b64"}, as :func:`matrix_to_json` writes it, or
    {"dim", "re", "im"} of JSON numbers ("im" may be left out), as job and
    field files may give it.  A "b64" field selects the first form.

    A field of the wrong JSON type, a dtype other than "<c16" or text that is
    not strict base64 is :class:`InvalidInput`; a dim below 1, an entry count
    other than dim^2 (a byte count other than 16 dim^2) or an entry that is
    not finite is :class:`DimensionMismatch`.
    """
    d = _checked_json(_field(_checked_json(obj, dict, "a matrix"), "dim", "a matrix"), int,
                      "matrix dim")
    if "b64" in obj:
        if _field(obj, "dtype", "a matrix") != "<c16":
            raise InvalidInput(f"matrix dtype must be '<c16', got {obj['dtype']!r}")
        try:
            raw = base64.b64decode(_checked_json(obj["b64"], str, "matrix b64"), validate=True)
        except ValueError as exc:  # binascii.Error, or a character outside ASCII
            raise InvalidInput(f"matrix b64 is not base64: {exc}") from None
        if d < 1 or len(raw) != 16 * d * d:
            raise DimensionMismatch(f"need dim >= 1 and 16 dim^2 bytes, got dim {d} "
                                    f"with {len(raw)}")
        return as_matrix(np.frombuffer(raw, dtype="<c16").reshape(d, d).astype(complex))
    re = np.asarray(_number_list(_field(obj, "re", "a matrix"), "matrix re"), dtype=float)
    im = (np.asarray(_number_list(obj["im"], "matrix im"), dtype=float) if "im" in obj
          else np.zeros(re.size))
    if d < 1 or re.size != d * d or im.size != d * d:
        raise DimensionMismatch(f"need dim >= 1 and dim^2 entries, got dim {d} "
                                f"with {re.size} and {im.size}")
    return (re + 1j * im).reshape(d, d)
