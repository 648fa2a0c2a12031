import numpy as np
import pytest

from opcalc import Disc, gen_matrix, quadrature
from opcalc.errors import ContourViolation, QuadratureNoConvergence
from opcalc.quadrature import (
    Contour,
    _refine,
    circle_points,
    contour_around,
    contour_quadrature,
    gauss_legendre_01,
    iter_simplex_rule,
    simplex_integrate,
)


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


def test_no_convergence_after_cap_points(monkeypatch):
    # a pole just outside the circle: the trapezoid error decays too slowly
    pole = 1.0 + 1e-9
    monkeypatch.setattr(quadrature, "MAX_NODES", 1024)

    fn, points = counted(lambda zeta: 1.0 / (zeta - pole))
    with pytest.raises(QuadratureNoConvergence):
        contour_quadrature(fn, 0.0, 1.0)
    assert sum(points) == 1024


def test_refine_accepts_the_first_agreeing_pair_lazily():
    made = []

    def levels():
        for size, value in ((16, 1.0), (32, 0.5), (64, 0.5 + 1e-16), (128, 9.0)):
            made.append(size)
            yield size, value, 1.0

    assert _refine(levels(), 1e-12) == (64, 0.5 + 1e-16)
    assert made == [16, 32, 64]


def test_refine_names_last_size_difference_and_floor():
    levels = iter([(8, 1.0, 1.0), (16, 3.0, 3.0)])
    with pytest.raises(QuadratureNoConvergence,
                       match=r"size 16: last difference 2\.000e\+00, floor 3\.000e-12"):
        _refine(levels, 1e-12)


def test_refine_floor_accepts_exact_zero():
    # levels at round-off distance from zero agree through the mass floor, whatever rtol says
    assert _refine(iter([(16, 0.0, 1.0), (32, 1e-16, 1.0)]), 0.0) == (32, 1e-16)


@pytest.mark.parametrize("n", [7, 14])
def test_simplex_single_order_refused_before_integrating(n):
    # 4e6 points leave one Gauss-Legendre order from n = 7 on
    calls = []

    def fn(s):
        calls.append(len(s))
        return np.ones(len(s))

    with pytest.raises(QuadratureNoConvergence, match="single order"):
        simplex_integrate(fn, n)
    assert calls == []


def decoded_simplex_rule(n, q):
    """Reference Duffy rule that decodes every flat point index into its q^n axis nodes."""
    if n == 0:
        yield np.ones((1, 1)), np.ones(1)
        return
    x, w1 = gauss_legendre_01(q)
    total, chunk = q**n, 1 << 18
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.stack(np.unravel_index(np.arange(lo, hi), (q,) * n), axis=1)
        u = x[idx]
        t = np.cumprod(u, axis=1)
        s = np.empty((hi - lo, n + 1))
        s[:, 0] = 1.0 - t[:, 0]
        s[:, 1:n] = t[:, : n - 1] - t[:, 1:]
        s[:, n] = t[:, n - 1]
        jac = np.ones(hi - lo)
        for j in range(n - 1):
            jac *= u[:, j] ** (n - 1 - j)
        yield s, w1[idx].prod(axis=1) * jac


@pytest.mark.parametrize("n, q", [(0, 8), (1, 8), (2, 128), (3, 12), (4, 44), (5, 8)])
def test_simplex_rule_is_bit_identical_to_index_decoding(n, q):
    # 44^4 points do not fill whole 2^18-point chunks, so chunks cut rows apart
    chunks = list(iter_simplex_rule(n, q))
    want = list(decoded_simplex_rule(n, q))
    assert len(chunks) == len(want)
    for (s, w), (s_ref, w_ref) in zip(chunks, want):
        assert s.shape == s_ref.shape and w.shape == w_ref.shape
        assert s.tobytes() == s_ref.tobytes() and w.tobytes() == w_ref.tobytes()


class TestContourAround:
    def test_auto_circle(self):
        c = contour_around([-1.0, 1.0])
        assert (c.center, c.nodes) == (0.0, 16)
        assert c.radius == pytest.approx(1.3)

    def test_point_spectrum(self):
        c = contour_around(np.zeros(3))
        assert (c.center, c.radius) == (0.0, pytest.approx(0.1))

    def test_given_circle_is_kept(self):
        given = Contour(0.5, 2.0, 64)
        assert contour_around([0.0, 1.0], contour=given) is given

    def test_given_circle_must_enclose(self):
        with pytest.raises(ContourViolation, match="enclose"):
            contour_around([0.0, 1.0], contour=Contour(0.0, 1.0))

    def test_circle_must_stay_in_the_domain(self):
        # auto circle around [0, 0.9] reaches 1.09, outside the unit disc
        with pytest.raises(ContourViolation, match="domain"):
            contour_around([0.0, 0.9], Disc(0.0, 1.0))
        contour_around([0.0, 0.9], Disc(0.0, 2.0))
