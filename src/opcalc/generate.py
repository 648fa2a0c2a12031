"""Deterministic random-matrix generation for demo and verification runs.

Everything derives from ``numpy.random.default_rng(seed)`` in a fixed draw
order, so the same seed always yields bit-identical matrices.  All kinds are
normalized to operator norm 1.
"""

from __future__ import annotations

import numpy as np

from .core import as_integer, as_matrix, opnorm
from .errors import InvalidInput

__all__ = ["gen_matrix", "KINDS"]

KINDS = ("hermitian", "random", "commuting-pair", "diagonalizable")
MAX_DIM = 8


def _normalized(m: np.ndarray) -> np.ndarray:
    return m / max(opnorm(m), 1e-300)


def _complex_gaussian(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def gen_matrix(kind: str, dim: int, seed: int):
    """Seeded matrices of the named kind (operator norm 1, dim <= 8).

    ``dim`` and ``seed`` are integers (a nonnegative seed); anything else is
    :class:`InvalidInput` naming the argument.

    ``commuting-pair`` returns a tuple of two matrices built as cubic
    polynomials in one shared Hermitian matrix, so they commute exactly;
    the other kinds return a single matrix.
    """
    dim, seed = as_integer(dim, "dim"), as_integer(seed, "seed")
    if not 1 <= dim <= MAX_DIM:
        raise InvalidInput(f"dimension must be 1..{MAX_DIM}")
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    if kind == "random":
        return _normalized(_complex_gaussian(rng, dim))
    if kind == "hermitian":
        z = _complex_gaussian(rng, dim)
        return _normalized(0.5 * (z + z.conj().T))
    if kind == "diagonalizable":
        while True:
            v = _complex_gaussian(rng, dim)
            if np.linalg.cond(v) <= 100.0:
                break
        w = rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
        return _normalized((v * w) @ np.linalg.inv(v))
    if kind == "commuting-pair":
        z = _complex_gaussian(rng, dim)
        h = _normalized(0.5 * (z + z.conj().T))
        coeffs = rng.uniform(-1, 1, (2, 4)) + 1j * rng.uniform(-1, 1, (2, 4))
        eye = np.eye(dim, dtype=complex)
        out = []
        for row in coeffs:
            m = np.zeros_like(eye)
            p = eye
            for c in row:
                m = m + c * p
                p = p @ h
            out.append(_normalized(as_matrix(m)))
        return tuple(out)
    raise InvalidInput(f"unknown kind {kind!r}; expected one of {KINDS}")
