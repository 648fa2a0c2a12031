import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opcalc import Disc, Entire, Sector, bidiagonal, divdiff, gen_matrix, named_function, quadrature
from opcalc.errors import ContourViolation, InvalidInput, OpcalcError, QuadratureNoConvergence
from opcalc.functions import Domain, HoloFunction
from opcalc.quadrature import (
    Contour,
    _gm_levels,
    _gm_shell,
    _gm_weights,
    _gk_levels,
    _refine,
    adaptive_gauss_kronrod,
    circle_points,
    contour_around,
    contour_quadrature,
    gauss_legendre_01,
    grundmann_moller_integrate,
    halfline_integrate,
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


@pytest.mark.parametrize("start", [16.0, 24, 8192, 2**30])
def test_a_bad_start_is_refused_before_the_integrand_is_called(start, monkeypatch):
    # start used to be read as max(16, int(start)): 16.0 was truncated, 24 was
    # used as is, and 8192 and up were refused only after a whole first level
    def no_level_past_the_cap(center, radius, m):
        assert m <= quadrature.MAX_NODES, f"a level of {m} nodes was built"
        return circle_points(center, radius, m)

    monkeypatch.setattr(quadrature, "circle_points", no_level_past_the_cap)
    fn, points = counted(np.exp)
    with pytest.raises(ContourViolation, match="contour nodes|node count"):
        contour_quadrature(fn, 0, 1, start=start)
    assert points == []


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


def test_refine_refuses_a_level_that_is_not_finite():
    # inf <= inf must not read as agreement
    with pytest.raises(QuadratureNoConvergence, match="non-finite level at size 32"):
        _refine(iter([(16, 1.0, 1.0), (32, math.inf, math.inf)]), 1e-12)
    with pytest.raises(QuadratureNoConvergence, match="size 32"):
        _refine(iter([(16, math.nan, 1.0), (32, math.nan, 1.0)]), 1e-12)


def test_refine_floor_accepts_exact_zero():
    # levels at round-off distance from zero agree through the mass floor, whatever rtol says
    assert _refine(iter([(16, 0.0, 1.0), (32, 1e-16, 1.0)]), 0.0) == (32, 1e-16)


def test_order_schedule_grows_by_half():
    # q + q // 2 from 8, capped by MAX_ORDER (128) and by the per-axis order the
    # 4e6-point budget allows, int(4e6 ** (1 / n)): 44 at n = 4, 20 at n = 5,
    # 12 at n = 6 and 8 at n = 7, where one order is left and no estimate
    grown = [8, 12, 18, 27, 40, 60, 90, 128]
    assert {n: quadrature._order_schedule(n) for n in range(1, 8)} == {
        1: grown, 2: grown, 3: grown, 4: [8, 12, 18, 27, 40, 44], 5: [8, 12, 18, 20],
        6: [8, 12], 7: [8]}


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
    total, chunk = q**n, quadrature.SIMPLEX_BLOCK
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
    # 44^4 points in rows of 44^2 do not fill whole SIMPLEX_BLOCK chunks, so
    # chunks cut rows apart; 8^5 points span two chunks
    chunks = list(iter_simplex_rule(n, q))
    want = list(decoded_simplex_rule(n, q))
    assert len(chunks) == len(want)
    for (s, w), (s_ref, w_ref) in zip(chunks, want):
        assert s.shape == s_ref.shape and w.shape == w_ref.shape
        assert s.tobytes() == s_ref.tobytes() and w.tobytes() == w_ref.tobytes()


def test_simplex_integrate_never_hands_fn_more_than_a_block():
    # a step across the simplex keeps every level apart, so the walk runs
    # through all eight orders up to q = 128 (128^3 = 2^21 points at the last)
    sizes = []

    def fn(s):
        sizes.append(len(s))
        return np.sign(s[:, 0] - 1.0 / 3.0)

    with pytest.raises(QuadratureNoConvergence, match="up to size 128"):
        simplex_integrate(fn, 3)
    assert sum(sizes) == sum(q**3 for q in (8, 12, 18, 27, 40, 60, 90, 128))
    assert max(sizes) == quadrature.SIMPLEX_BLOCK


def _partitions(total, parts, largest=None):
    """Nonincreasing parts-tuples of nonnegative integers summing to ``total``."""
    largest = total if largest is None else largest
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(min(total, largest), -1, -1):
        for rest in _partitions(total - head, parts - 1, head):
            yield (head,) + rest


def _gm_rule(n, s):
    """Rule s as one (points, weights) pair, shells k = 0..s in order."""
    pts, wts = [], []
    for k, w in enumerate(_gm_weights(n, s)):
        shell = np.concatenate([p for p, _ in _gm_shell(n, k)])
        pts.append(shell)
        wts.append(np.full(len(shell), w))
    return np.concatenate(pts), np.concatenate(wts)


class TestGrundmannMoller:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_level_s_integrates_degree_2s_plus_1(self, n):
        # permuting the coordinates permutes each shell and keeps its weight,
        # so one alpha per orbit (nonincreasing parts) covers every monomial
        for k in range(9):
            shell = np.concatenate([p for p, _ in _gm_shell(n, k)])
            assert len(shell) == math.comb(n + k, n)
            for perm in (np.roll(np.arange(n + 1), 1), np.r_[1, 0, 2:n + 1]):
                assert np.array_equal(np.unique(shell[:, perm], axis=0), np.unique(shell, axis=0))
        alphas = [a for total in range(19) for a in _partitions(total, n + 1)]
        powers = np.array(alphas)

        def monomials(S):
            return np.prod(S[:, None, :] ** powers[None], axis=2)

        exact = np.array([float(divdiff.simplex_moment_s(a)) for a in alphas])
        degree = powers.sum(axis=1)
        for s, value, _ in itertools.islice(_gm_levels(monomials, n), 9):
            pts, w = _gm_rule(n, s)
            mass = np.abs(w) @ np.abs(monomials(pts))
            err = np.abs(value - exact)
            ok = degree <= 2 * s + 1
            # the weights alternate in sign, so a level rounds relative to its
            # mass sum |w| |s^alpha| (up to 4e3 times the moment at n = 6,
            # s = 8); relative to the moment alone the error stays below 1e-13
            # up to s = 4
            assert np.all(err[ok] <= 1e-14 * mass[ok])
            if s <= 4:
                assert np.all(err[ok] <= 1e-13 * exact[ok])
            # and the degree is sharp: some monomial of degree 2s+2 is missed
            assert np.max(err[degree == 2 * s + 2] / mass[degree == 2 * s + 2]) > 1e-8

    @pytest.mark.parametrize("n", range(7))
    def test_weights_sum_to_the_simplex_volume(self, n):
        for s in range(13):
            counts = [math.comb(n + k, n) for k in range(s + 1)]
            assert sum(counts) == math.comb(n + s + 1, s)
            w = _gm_weights(n, s)
            total = math.fsum(wk * c for wk, c in zip(w, counts))
            mass = math.fsum(abs(wk) * c for wk, c in zip(w, counts))
            assert abs(total - 1 / math.factorial(n)) <= 2.3e-16 * mass

    def test_zero_simplex_is_one_point(self):
        # every shell of the 0-simplex is the point s_0 = 1
        got = grundmann_moller_integrate(lambda S: S[:, :, None] * np.array([2.0, -3.0]), 0)
        assert np.allclose(got, [[2.0, -3.0]], rtol=1e-15, atol=0)

    def test_nan_integrand_is_refused(self):
        with pytest.raises(QuadratureNoConvergence, match="non-finite level"):
            grundmann_moller_integrate(lambda S: np.full(len(S), np.nan), 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_singular_integrand_runs_to_the_cap_and_refuses(self, n):
        # s_0^(-1/2) is integrable but not smooth at the face s_0 = 0
        fn, points = counted(lambda S: S[:, 0] ** -0.5)
        with pytest.raises(QuadratureNoConvergence, match="up to size 12"):
            grundmann_moller_integrate(fn, n)
        assert sum(points) == math.comb(n + 13, 12)


class TestGaussKronrod:
    @pytest.mark.parametrize("k", range(24))
    def test_one_panel_integrates_degree_23(self, k):
        # level 0 is the 15-point Kronrod rule on one panel, exact to degree 23
        size, value, _ = next(_gk_levels(lambda x: x**k, 0.0, 1.0))
        assert size == 1
        assert abs(value - 1.0 / (k + 1)) <= 1e-15

    def test_polynomial_accepted_at_two_panels(self):
        stats = {}
        value = adaptive_gauss_kronrod(lambda x: 3.0 * x**5 - x**2 + 1.0, -1.0, 2.0, stats=stats)
        assert stats == {"gk_panels": 2}
        assert value == pytest.approx(31.5, rel=1e-15)  # 63/2 - 3 + 3

    def test_singular_integrand_refused_at_the_panel_cap(self):
        # x^(-1/2): the level differences shrink only by sqrt(2) per halving
        with pytest.raises(QuadratureNoConvergence, match=f"size {quadrature.GK_PANELS}:"):
            adaptive_gauss_kronrod(lambda x: x**-0.5, 0.0, 1.0)

    def test_nan_integrand_refused_at_the_first_comparison(self):
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.full(len(x), np.nan)

        with pytest.raises(QuadratureNoConvergence, match="non-finite level at size 2"):
            adaptive_gauss_kronrod(fn, 0.0, 1.0)
        assert calls == [15, 15, 15]

    def test_halfline_scalar_and_matrix_integrands(self):
        assert halfline_integrate(lambda u: (1.0 + u) ** -2) == pytest.approx(1.0, rel=1e-14)
        m = np.array([[1.0, 2.0], [0.5, 3.0]])
        got = halfline_integrate(lambda u: np.multiply.outer((1.0 + u) ** -2, m))
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, m, rtol=1e-14)


class TestContourAround:
    def test_auto_circle(self):
        c = contour_around([-1.0, 1.0])
        assert (c.center, c.nodes) == (0.0, 16)
        assert c.radius == pytest.approx(1.3)

    def test_point_spectrum(self):
        c = contour_around(np.zeros(3))
        assert (c.center, c.radius) == (0.0, pytest.approx(0.1))

    # with a handle as without: a given circle never widens, and the tight
    # circle is checked before it widens, so the refusals are the same
    def test_given_circle_is_kept(self):
        given = Contour(0.5, 2.0, 64)
        for f in (None, named_function("exp")):
            assert contour_around([0.0, 1.0], f, given) is given

    def test_given_circle_must_enclose(self):
        for f in (None, named_function("exp")):
            with pytest.raises(ContourViolation, match="enclose"):
                contour_around([0.0, 1.0], f, Contour(0.0, 1.0))

    def test_circle_must_stay_in_the_domain(self):
        # auto circle around [0, 0.9] reaches 1.09, outside the unit disc
        with pytest.raises(ContourViolation, match="domain"):
            contour_around([0.0, 0.9], HoloFunction(np.exp, Disc(0.0, 1.0)))
        contour_around([0.0, 0.9], HoloFunction(np.exp, Disc(0.0, 2.0)))

    def test_without_a_handle_the_circle_is_the_tight_one(self):
        pts = np.array([0.3, -0.4 + 0.2j, 1.1j])
        center = complex(pts.mean())
        spread = float(np.max(np.abs(pts - center)))
        tight = Contour(center, 1.1 * spread + 0.1 * (1.0 + spread))
        assert contour_around(pts) == tight
        # a bare domain is refused: a circle is checked and sized for a handle
        for domain in (Entire(), Disc(0.0, 10.0)):
            with pytest.raises(InvalidInput, match="function handle"):
                contour_around(pts, domain)
        # given the tight circle, a handle checks it and never widens it
        assert contour_around(pts, HoloFunction(np.exp, Disc(0.0, 10.0)), tight) is tight
        # and by default a domain that does not know its clearance never widens
        assert contour_around(pts, HoloFunction(np.exp, _Plane())) == tight

    @pytest.mark.parametrize("points", [
        [0.0, 1.0], [0.3, -0.4 + 0.2j, 1.1j], [2.0, 2.5 + 0.5j], [0.5], [1.0, 1.0 + 1e-3j]])
    @pytest.mark.parametrize("name", [
        "exp", "id", "pow:4", "pow:-2", "log", "resolvent:3,0", "resolvent:0,-4", "rational:2"])
    def test_widened_circle(self, name, points):
        f = named_function(name)
        tight = contour_around(points)
        try:
            c = contour_around(points, f)
        except ContourViolation:
            with pytest.raises(ContourViolation):  # refused exactly when the tight circle is
                contour_around(points, f, tight)
            return
        assert (c.center, c.nodes) == (tight.center, tight.nodes)
        assert tight.radius <= c.radius <= 2.0 * tight.radius
        if c.radius == tight.radius:
            # the 64 probes can miss a slit, so a tight circle may cross one
            # (an open defect); it is never widened then
            return
        assert c.radius < f.domain.clearance(c.center)
        on_tight = np.max(np.abs(f(circle_points(c.center, tight.radius, 64)[0])))
        assert np.max(np.abs(f(circle_points(c.center, c.radius, 64)[0]))) <= 10.0 * on_tight
        assert np.all(f.domain.contains(circle_points(c.center, c.radius, 4096)[0]))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(points=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=6),
           name=st.sampled_from(["exp", "log", "pow:-2", "resolvent:3,0"]))
    def test_a_default_circle_keeps_its_distance_from_the_points(self, points, name):
        # why dd_contour needs no gate against a trapezoid node on top of a
        # node: a default circle has radius R >= 1.2 s + 0.1 about the
        # centroid, s the spread, so every circle node is 0.2 s + 0.1 away
        # (up to rounding), far above the old gate of 1e-6 R
        try:
            c = contour_around(points, named_function(name))
        except ContourViolation:
            return
        x = np.asarray(points, dtype=complex)
        spread = float(np.max(np.abs(x - x.mean())))
        margin = c.radius - float(np.max(np.abs(x - c.center)))
        assert margin >= (0.2 * spread + 0.1) * (1.0 - 1e-12)

    @pytest.mark.parametrize("name", ["exp", "pow:4", "resolvent:3,0", "log", "rational:2"])
    def test_a_function_with_room_widens(self, name):
        points = [0.6, 1.4 + 0.3j, 1.2 - 0.2j]
        assert contour_around(points, named_function(name)).radius > contour_around(points).radius

    def test_entire_and_bounded_function_doubles_the_radius(self):
        c = contour_around([-0.1, 0.1], named_function("exp"))
        assert c.radius == 2.0 * contour_around([-0.1, 0.1]).radius

    def test_a_pole_limits_the_radius_to_the_geometric_mean(self):
        # resolvent:3,0 is declared on Disc(0, 2.85); spread 1 about 0: R0 = 1.3,
        # and sqrt(1 * 2.85) < 2 R0 balances (s / R)^m against (R / D)^m
        c = contour_around([-1.0, 1.0], named_function("resolvent:3,0"))
        assert c.radius == pytest.approx(math.sqrt(2.85), rel=1e-15)

    def test_a_point_spectrum_in_the_plane_doubles(self):
        # spread 0 with clearance inf: 0 * inf must not reach the radius
        c = contour_around([1.0, 1.0], named_function("id"))
        assert (c.center, c.radius) == (1.0, pytest.approx(0.2))

    def test_a_point_spectrum_in_a_disc_keeps_the_tight_circle(self):
        # spread 0: sqrt(s D) = 0 leaves nothing to widen to
        assert contour_around([0.5], named_function("resolvent:3,0")).radius == pytest.approx(0.1)

    def test_growth_of_f_caps_the_radius(self):
        # exp grows by e^(R - R0) across the widening, so at most ln 10 is added
        pts = [-20.0, 20.0]
        c = contour_around(pts, named_function("exp"))
        tight = contour_around(pts)
        assert tight.radius < c.radius <= tight.radius + math.log(10.0)

    def test_an_overflowing_probe_is_refused_quietly(self):
        # exp overflows on the widest candidate and grows past 10x on the
        # others: no RuntimeWarning, no widening
        pts = [-300.0, 300.0]
        assert contour_around(pts, named_function("exp")) == contour_around(pts)


class _Plane(Domain):
    """The whole plane, declared without a clearance of its own."""

    def contains(self, z):
        return np.full(np.shape(z), True)


SLIT = math.pi * (1 - 1e-12)


def _ray_distance(center, angle):
    """Distance from ``center`` to the ray {t e^(i angle), t >= 0}, by projection."""
    u = cmath.rect(1.0, angle)
    t = max(0.0, (center * u.conjugate()).real)
    return abs(center - t * u)


class TestClearance:
    def test_base_domain_never_widens(self):
        assert _Plane().clearance(0.0) == 0.0

    def test_entire(self):
        assert Entire().clearance(3.0 - 4.0j) == math.inf

    @pytest.mark.parametrize("center, want", [
        (0.0, 2.0), (1.0 + 1.0j, 2.0 - math.sqrt(2.0)), (3.0, 0.0), (2.0, 0.0), (-1.5, 0.5)])
    def test_disc(self, center, want):
        assert Disc(0.0, 2.0).clearance(center) == pytest.approx(want, abs=1e-15)

    def test_disc_off_the_origin(self):
        assert Disc(1.0 + 1.0j, 1.0).clearance(1.5 + 1.0j) == pytest.approx(0.5)

    @pytest.mark.parametrize("delta, center, want", [
        # delta < pi/2: the nearest point of the complement lies inside a ray
        (math.pi / 4, 1.0, math.sqrt(0.5)),
        (math.pi / 4, 2.0 + 0.1j, abs(2.0 + 0.1j) * math.sin(math.pi / 4 - math.atan(0.05))),
        (math.pi / 6, 1.0 - 0.5j, abs(1.0 - 0.5j) * math.sin(math.pi / 6 - math.atan(0.5))),
        # outside the sector, or at its vertex
        (math.pi / 4, 1.0 + 2.0j, 0.0),
        (math.pi / 4, 0.0, 0.0),
        (SLIT, -1.0, 0.0),
        # delta > pi/2 from the right half-plane: the vertex is nearest
        (SLIT, 2.0 + 1.0j, abs(2.0 + 1.0j)),
        (2.0, 1.0, 1.0),
        # centres close to the slit
        (SLIT, -1.0 + 1e-3j, abs(-1.0 + 1e-3j) * math.sin(SLIT - cmath.phase(-1.0 + 1e-3j))),
        (SLIT, -5.0 - 1e-6j, abs(-5.0 - 1e-6j) * math.sin(SLIT + cmath.phase(-5.0 - 1e-6j))),
    ])
    def test_sector(self, delta, center, want):
        got = Sector(delta).clearance(center)
        # the closed forms lose ~1e-16 pi / sin(.) to cancellation near the slit
        assert got == pytest.approx(want, rel=1e-8, abs=1e-300)
        if want > 0:
            assert got == pytest.approx(
                min(_ray_distance(center, delta), _ray_distance(center, -delta)), rel=1e-12)

    def test_close_to_the_slit(self):
        assert Sector(SLIT).clearance(-1.0 + 1e-3j) == pytest.approx(1e-3, rel=1e-6)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(kind=st.sampled_from(["disc", "sector", "entire"]),
           re=st.floats(-5.0, 5.0), im=st.floats(-5.0, 5.0),
           size=st.floats(0.1, 5.0), delta=st.floats(0.05, SLIT),
           frac=st.floats(0.0, 0.99))
    def test_circles_inside_the_clearance_lie_in_the_domain(self, kind, re, im, size,
                                                            delta, frac):
        domain = {"disc": Disc(complex(0.5 * re, -0.3 * im), size),
                  "sector": Sector(delta), "entire": Entire()}[kind]
        center = complex(re, im)
        clearance = domain.clearance(center)
        assume(clearance > 1e-6)
        radius = frac * min(clearance, 100.0)
        assume(radius > 0.0)
        assert np.all(domain.contains(circle_points(center, radius, 512)[0]))
        if kind == "disc" or (kind == "sector" and delta <= math.pi / 2):
            # and the clearance is not an underestimate: 1 % past it the circle leaves
            wider = circle_points(center, 1.01 * clearance, 4096)[0]
            assert not np.all(domain.contains(wider))


class TestNonFiniteInput:
    @pytest.mark.parametrize("center, radius", [
        (0.0, math.nan), (0.0, math.inf), (complex(math.nan, 0.0), 1.0),
        (complex(0.0, math.inf), 1.0), (0.0, 0.0)])
    def test_contour_needs_a_finite_center_and_radius(self, center, radius):
        with pytest.raises(ContourViolation):
            Contour(center, radius)

    @pytest.mark.parametrize("points", [[math.nan, 1.0], [math.inf], [complex(0.0, -math.inf)]])
    def test_contour_around_refuses_non_finite_points(self, points):
        with pytest.raises(InvalidInput, match="finite"):
            contour_around(points)
        with pytest.raises(InvalidInput, match="finite"):
            contour_around(points, named_function("exp"))

    @pytest.mark.parametrize("route", ["dd_hermite", "dd_contour", "dd_recursive"])
    def test_divided_differences_refuse_non_finite_nodes(self, route):
        f = named_function("exp")
        for nodes in ([math.nan], [math.inf, 0.0]):
            with pytest.raises(InvalidInput, match="finite"):
                getattr(divdiff, route)(f, nodes)

    @pytest.mark.parametrize("route", ["dd_recursive", "dd_explicit", "dd_contour", "dd_hermite"])
    @pytest.mark.parametrize("f, nodes", [
        ("pow:-3", [1e-300j]), ("pow:-3", [1e-300, 2e-300]), ("log", [5e-324j]),
        ("exp", [1e300, 0.5]), ("pow:-1", [1e300, -1.7976931348623157e308j]),
        ("pow:-1", [1e308 - 1.7976931348623157e308j]),
        ("pow:-1", [1e308, -1.7976931348623157e308]), ("pow:-1", [1e200, -1e200, 1e200j])],
        ids=["one-tiny", "two-tiny", "subnormal", "huge", "huge-spread", "past-abs",
             "past-subtract", "past-product"])
    def test_extreme_nodes_give_a_finite_value_or_a_typed_refusal(self, route, f, nodes):
        # these returned NaN with numpy's RuntimeWarnings, or raised an untyped
        # OverflowError from abs() of a circle centre past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = getattr(divdiff, route)(named_function(f), nodes)
            except OpcalcError:
                return
        assert cmath.isfinite(value)

    def test_the_one_point_of_the_0_simplex_must_be_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureNoConvergence, match="0-simplex"):
                simplex_integrate(lambda s: 1.0 / (0.0 * s[:, 0]), 0)

    def test_a_hull_quotient_past_the_float_range_leaves_the_sector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not Sector(SLIT).contains_hull([5e-324j])
            assert Sector(SLIT).contains_hull([1.0, 2.0 + 1.0j])
            assert Sector(SLIT).clearance(1e308 - 1.7976931348623157e308j) == math.inf


class TestCountRefusals:
    """Every count a quadrature entry point takes is an integer in range, read
    through ``core.as_integer``; anything else is InvalidInput."""

    @pytest.mark.parametrize("m", [0, -3, 2.5, "3", 16.0, None, quadrature.MAX_NODES + 1])
    def test_circle_points_refuses_a_bad_node_count(self, m):
        # 2.5 gave 3 points whose weights summed to 0.2 - 0.145i; 0 and -3
        # gave empty arrays, so an integral over them was silently 0
        with pytest.raises(InvalidInput, match="node count"):
            circle_points(0, 1, m)

    @pytest.mark.parametrize("m", [1, 3, np.int64(16), quadrature.MAX_NODES])
    def test_circle_points_takes_an_integer_in_range(self, m):
        zeta, w = circle_points(0.5, 2.0, m)
        assert len(zeta) == len(w) == m
        assert abs(np.sum(w / (zeta - 0.5)) - 1.0) < 1e-14  # the residue of 1/(z - center)

    @pytest.mark.parametrize("q", [0, -1, 2.5, "3", quadrature.MAX_ORDER + 1])
    def test_gauss_legendre_refuses_a_bad_order(self, q):
        # numpy raised a bare ValueError for 0 and TypeError for 2.5
        with pytest.raises(InvalidInput, match="Gauss-Legendre order"):
            gauss_legendre_01(q)

    def test_gauss_legendre_rules_are_read_only(self):
        x, w = gauss_legendre_01(np.int64(12))
        assert gauss_legendre_01(12)[0] is x  # one rule per order, kept
        for part in (x, w):
            with pytest.raises(ValueError):
                part[0] = 0.0

    @pytest.mark.parametrize("chunk", ["3", 0, -2, 0.5, math.nan, math.inf])
    def test_contour_quadrature_refuses_a_bad_chunk(self, chunk):
        # "3" was accepted; 0, -2 and 0.5 became 1; NaN and infinity escaped
        # as ValueError and OverflowError
        fn, points = counted(np.exp)
        with pytest.raises(InvalidInput, match="chunk"):
            contour_quadrature(fn, 0, 1, chunk=chunk)
        assert points == []


def _direct_circle_points(center, radius, m):
    """The formula ``circle_points`` computed at every call before its roots were tabled."""
    theta = 2.0 * np.pi * np.arange(m) / m
    offset = radius * np.exp(1j * theta)
    return center + offset, offset / m


_B = bidiagonal([gen_matrix("random", 2, 40 + k) for k in range(3)],
                [gen_matrix("random", 2, 50 + k) for k in range(2)])


def _block_bidiagonal(zeta):
    # f(z) (z - B)^-1 for a three-slot block-bidiagonal B: zero below the block diagonal
    return np.exp(zeta)[:, None, None] * np.linalg.inv(zeta[:, None, None] * np.eye(6) - _B)


class TestFixedCostsBitForBit:
    """The tabled roots, the one-GEMM level sums and the inlined norm give the
    bits of the formulas they replace."""

    LADDER = [16 * 2**k for k in range(10)]  # 16 .. MAX_NODES

    @pytest.mark.parametrize("m", sorted(set(LADDER + [8, 16, 64])))
    def test_circle_points_equal_the_direct_formula(self, m):
        for center, radius in ((0.0, 1.0), (0.3 - 1.7j, 2.5), (1e3, 1e-3)):
            for _ in range(2):  # the first call may fill the table, the second reads it
                zeta, w = circle_points(center, radius, m)
                want_zeta, want_w = _direct_circle_points(center, radius, m)
                assert zeta.tobytes() == want_zeta.tobytes()
                assert w.tobytes() == want_w.tobytes()

    def test_even_nodes_of_a_level_are_the_level_before(self):
        for m in self.LADDER[:-1]:
            assert (circle_points(0.2j, 3.0, 2 * m)[0][0::2].tobytes()
                    == circle_points(0.2j, 3.0, m)[0].tobytes())

    def test_the_roots_table_is_read_only_and_bounded(self):
        zeta, _ = circle_points(0, 1, 32)
        zeta[:] = 0  # the caller's points are its own
        assert circle_points(0, 1, 32)[0][1] != 0
        table = quadrature._unit_roots(32)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
        from opcalc import verify

        verify.run_battery(0, verify.tolerances(1.0))
        info = quadrature._unit_roots.cache_info()
        assert 0 < info.currsize <= info.maxsize == quadrature.ROOT_TABLES == 64
        assert all(not quadrature._unit_roots(m).flags.writeable for m in self.LADDER)

    @pytest.mark.parametrize("batch_fn", [_scalar, _resolvent, _block_bidiagonal],
                             ids=["scalar", "d-by-d", "block-bidiagonal"])
    def test_weighted_sum_equals_tensordot(self, batch_fn):
        for m in (16, 32, 64):
            zeta, w = circle_points(0.1, 3.5, m)
            for pts, wts in ((zeta, w), (zeta[1::2], w[1::2])):
                vals = np.asarray(batch_fn(pts))
                value, mass = quadrature._weighted_sum(batch_fn, [(pts, wts)])
                want = np.tensordot(wts, vals, axes=(0, 0))
                assert value.shape == want.shape and value.tobytes() == want.tobytes()
                assert mass == float(np.sum(np.abs(wts) * np.abs(vals).reshape(len(wts), -1).sum(axis=1)))

    @pytest.mark.parametrize("x", [
        np.exp(1j * np.arange(7.0)), np.arange(12.0).reshape(3, 4) * (1 - 2j),
        gen_matrix("random", 5, 3), np.arange(5.0), np.asfortranarray(gen_matrix("random", 4, 9)),
        gen_matrix("random", 4, 9)[:, ::2]])
    def test_norm_equals_numpy(self, x):
        assert quadrature._norm(x) == float(np.linalg.norm(x.ravel(order="K")))


def _direct_gk_levels(fn, a, b):
    """The Kronrod levels with each panel's nodes and weights formed per panel."""
    panels = 1
    while panels <= quadrature.GK_PANELS:
        half = 0.5 * (b - a) / panels
        mids = a + half * (2.0 * np.arange(panels) + 1.0)
        blocks = ((mid + half * quadrature._XGK, half * quadrature._WGK) for mid in mids)
        yield panels, *quadrature._weighted_sum(fn, blocks)
        panels *= 2


class TestGaussKronrodTable:
    """The Kronrod panels of one (a, b, panel count) come from one read-only
    table, bit for bit the per-panel nodes and weights it replaced."""

    @pytest.fixture(autouse=True)
    def _fresh_table(self):
        quadrature._gk_table.cache_clear()
        yield
        quadrature._gk_table.cache_clear()

    @staticmethod
    def _keys(monkeypatch) -> list:
        """The keys every later ``_gk_table`` call asks for, in order."""
        keys, table = [], quadrature._gk_table
        monkeypatch.setattr(quadrature, "_gk_table",
                            lambda *key: keys.append(key) or table(*key))
        return keys

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (0.3, -1.7), (1e3, 1e3 + 1e-3)])
    def test_rows_equal_the_per_panel_formula(self, a, b):
        for panels in (1, 2, 8, 64, quadrature.GK_PANELS):
            half = 0.5 * (b - a) / panels
            mids = a + half * (2.0 * np.arange(panels) + 1.0)
            for _ in range(2):  # the first call fills the table, the second reads it
                nodes, weights = quadrature._gk_table(a, b, panels)
                assert nodes.shape == (panels, 15)
                assert all(row.tobytes() == (mid + half * quadrature._XGK).tobytes()
                           for row, mid in zip(nodes, mids))
                assert weights.tobytes() == (half * quadrature._WGK).tobytes()

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0)])
    def test_levels_equal_the_per_panel_levels(self, a, b):
        def fn(x):
            return np.multiply.outer(np.exp(1j * x) / (1.5 + x), [1.0, -2.0 + 0.5j])

        for got, want in itertools.islice(zip(_gk_levels(fn, a, b), _direct_gk_levels(fn, a, b)), 8):
            assert got[0] == want[0] and got[2] == want[2]
            assert got[1].tobytes() == want[1].tobytes()

    def test_integer_bounds_read_the_float_table(self, monkeypatch):
        table = quadrature._gk_table
        keys = self._keys(monkeypatch)
        adaptive_gauss_kronrod(np.cos, 0, 1)
        assert keys == [(0.0, 1.0, 1), (0.0, 1.0, 2)]
        assert all(type(x) is float for key in keys for x in key[:2])
        adaptive_gauss_kronrod(np.cos, 0.0, 1.0)
        assert table.cache_info()[:2] == (2, 2)  # hits, misses

    def test_the_table_is_read_only(self):
        nodes, weights = quadrature._gk_table(0.0, 1.0, 4)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0, 0] = 0.5
        seen = []

        def fn(x):
            seen.append(x.flags.writeable)
            return np.cos(x)

        adaptive_gauss_kronrod(fn, 0.0, 1.0)
        assert seen and not any(seen)

    def test_the_table_stops_growing_at_its_cap(self):
        cap = quadrature.GK_TABLES
        assert cap == 32 == quadrature._gk_table.cache_info().maxsize
        keys = [(float(k), k + 1.0, 2) for k in range(cap + 8)]
        first = [quadrature._gk_table(*key) for key in keys]
        assert quadrature._gk_table.cache_info().currsize == cap
        assert quadrature._gk_table(*keys[-1])[0] is first[-1][0]
        early = quadrature._gk_table(*keys[0])  # used least recently, so rebuilt
        assert early[0] is not first[0][0] and early[0].tobytes() == first[0][0].tobytes()
        assert not early[0].flags.writeable
        assert quadrature._gk_table.cache_info().currsize == cap

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (np.float64("nan"), 1.0), (0.0, math.inf),
                                      (-math.inf, 0.0)])
    def test_a_bound_that_is_not_finite_raises(self, a, b):
        # a NaN bound may equal no key, so it can take new places: the cap holds them
        for _ in range(2):
            with pytest.raises(QuadratureNoConvergence, match="non-finite level at size 2"):
                adaptive_gauss_kronrod(np.cos, a, b)
        assert quadrature._gk_table.cache_info().currsize <= 4

    def test_the_half_line_reads_one_interval(self, monkeypatch):
        from opcalc import verify

        table = quadrature._gk_table
        keys = self._keys(monkeypatch)
        verify.run_battery(0, verify.tolerances(1.0))
        assert keys and all(key[:2] == (0.0, 1.0) and key[2] <= quadrature.GK_PANELS
                            for key in keys)
        assert table.cache_info().currsize == len(set(keys))
