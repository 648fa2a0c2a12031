import numpy as np
import pytest

from opcalc import gen_matrix
from opcalc.errors import QuadratureNoConvergence
from opcalc.quadrature import circle_points, contour_quadrature


def full_recompute(batch_fn, center, radius, *, start=16, rtol=1e-12, cap=8192):
    """Reference doubling that evaluates every node of every level afresh."""

    def level(m):
        zeta, w = circle_points(center, radius, m)
        vals = np.asarray(batch_fn(zeta))
        mass = float(np.sum(np.abs(w) * np.abs(vals).reshape(m, -1).sum(axis=1)))
        return np.tensordot(w, vals, axes=(0, 0)), mass

    m = start
    prev, prev_mass = level(m)
    while m < cap:
        m *= 2
        cur, mass = level(m)
        err = np.linalg.norm(np.ravel(cur - prev))
        floor = max(rtol * np.linalg.norm(np.ravel(cur)), 2e-15 * max(mass, prev_mass), 1e-300)
        if err <= floor:
            return cur, m
        prev, prev_mass = cur, mass
    raise AssertionError("reference did not converge")


def counted(batch_fn):
    points = []

    def wrapped(zeta):
        points.append(len(zeta))
        return batch_fn(zeta)

    return wrapped, points


def _scalar(zeta):
    return np.exp(zeta) / ((zeta - 0.3) * (zeta + 0.2j))


_A = gen_matrix("random", 3, 5)


def _resolvent(zeta):
    res = np.linalg.inv(zeta[:, None, None] * np.eye(3) - _A)
    return np.sin(zeta)[:, None, None] * res


_P, _Q = gen_matrix("random", 2, 6), gen_matrix("random", 2, 7)


def _tensor(zeta):
    # dd_tensor-style integrand: f(z) (z - p)^-1 (x) (z - q)^-1
    rp = np.linalg.inv(zeta[:, None, None] * np.eye(2) - _P)
    rq = np.linalg.inv(zeta[:, None, None] * np.eye(2) - _Q)
    out = np.einsum("kab,kcd->kacbd", rp, rq).reshape(len(zeta), 4, 4)
    return np.exp(zeta)[:, None, None] * out


@pytest.mark.parametrize(
    "batch_fn, center, radius, chunk",
    [
        (_scalar, 0.0, 1.0, None),
        (_resolvent, complex(np.trace(_A) / 3), 4.0, None),
        (_tensor, 0.1, 3.5, 5),
    ],
    ids=["scalar", "resolvent", "tensor-chunked"],
)
def test_nested_doubling_evaluates_each_node_once(batch_fn, center, radius, chunk):
    fn, points = counted(batch_fn)
    stats = {}
    got = contour_quadrature(fn, center, radius, chunk=chunk, stats=stats)
    want, nodes = full_recompute(batch_fn, center, radius)
    assert stats["contour_nodes"] == nodes
    assert sum(points) == nodes
    if chunk is not None:
        assert max(points) <= chunk
    assert np.linalg.norm(np.ravel(got - want)) <= 1e-14 * np.linalg.norm(np.ravel(want))


def test_no_convergence_after_cap_points():
    # a pole just outside the circle: the trapezoid error decays too slowly
    pole = 1.0 + 1e-9

    fn, points = counted(lambda zeta: 1.0 / (zeta - pole))
    with pytest.raises(QuadratureNoConvergence):
        contour_quadrature(fn, 0.0, 1.0, cap=1024)
    assert sum(points) == 1024
