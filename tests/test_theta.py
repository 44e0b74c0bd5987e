import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice import complex_distance_mod_lattice
from torusgabor import theta as theta_mod
from torusgabor.core import GaborError, GaborParams
from torusgabor.theta import (
    ContourNearZeroError,
    ScaledComplex,
    ToleranceUnreachableError,
    certified_lattice_sum,
    gaussian_box_tail,
    sum_scaled_exponents,
    tail_radius,
    theta_eval,
    theta_zero_1d,
    winding_number,
)

# sum over Z of exp(-pi k^2), i.e. the series at the origin for Omega = i
GAUSS_SUM_AT_I = 1.086434811213308

SQUARE = [0.0 + 0.0j, 1.0 + 0.0j, 1.0 + 1.0j, 0.0 + 1.0j]


def _p(omega, N=1, d=1):
    return GaborParams(d=d, N=N, Omega=np.atleast_2d(np.asarray(omega, dtype=complex)))


P2 = GaborParams(d=2, N=2, Omega=np.array([[0.1 + 1.0j, 0.05 + 0.1j],
                                           [0.05 + 0.1j, 1.3j]]))


# ---------------------------------------------------------------------------
# scaled arithmetic


def test_scaled_complex_round_trip():
    # exp(log(.)) loses relative accuracy proportional to the exponent size,
    # so the tolerance is scale-aware rather than a bare machine epsilon
    vals = [3 + 4j, -2.5j, 1e-200, -7.0]
    for v in vals:
        s = ScaledComplex.from_complex(v)
        assert abs(s.to_complex() - v) <= 1e-12 * abs(v)
        assert abs(abs(s.phase) - 1.0) < 1e-15


def test_scaled_complex_zero():
    s = ScaledComplex.from_complex(0.0)
    assert s.logmag == float("-inf")
    assert s.to_complex() == 0.0


def test_scaled_multiplication_far_beyond_float_range():
    a = ScaledComplex.from_exponent(400.0 + 1.0j)
    b = ScaledComplex.from_exponent(500.0 - 0.5j)
    c = a * b
    assert c.logmag == pytest.approx(900.0)
    assert c.phase == pytest.approx(np.exp(0.5j))
    # scalar multiplication folds into the phase/magnitude split
    d = 2.0 * a
    assert d.logmag == pytest.approx(400.0 + math.log(2.0))


def test_scaled_magnitude_with_log_shift():
    s = ScaledComplex.from_exponent(1000.0 + 0.3j)
    assert s.magnitude(-1000.0) == pytest.approx(1.0)


def test_scaled_conjugate_and_negation():
    s = ScaledComplex.from_complex(3 + 4j)
    assert abs(s.conjugate().to_complex() - (3 - 4j)) < 1e-14
    assert abs((-1 * s).to_complex() + (3 + 4j)) < 1e-14


def test_sum_scaled_exponents_matches_direct():
    rng = np.random.default_rng(0)
    e = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    direct = np.exp(e).sum()
    s = sum_scaled_exponents(e)
    assert abs(s.to_complex() - direct) < 1e-13 * abs(direct)


def test_sum_scaled_exponents_cancellation():
    # near-opposite terms: the result must come out tiny relative to the
    # inputs without overflowing, even though e^{i pi} is not exactly -1
    s = sum_scaled_exponents(np.array([800.0, 800.0 + 1j * np.pi]))
    assert s.logmag < 800.0 - 30.0
    assert abs(abs(s.phase) - 1.0) < 1e-12
    # the empty sum is an exact zero
    assert sum_scaled_exponents([]).logmag == float("-inf")


# ---------------------------------------------------------------------------
# certified truncation


def test_gaussian_box_tail_dominates_actual_tail():
    rng = np.random.default_rng(1)
    for d in (1, 2):
        for a in (0.8, 2.5):
            for R in (2, 4):
                bound = gaussian_box_tail(a, R, d, 0.5)
                for _ in range(5):
                    c = rng.uniform(-0.5, 0.5, d)
                    rng_pts = np.arange(-40, 41)
                    mesh = np.stack(np.meshgrid(*([rng_pts] * d), indexing="ij"),
                                    axis=-1).reshape(-1, d)
                    outside = mesh[np.abs(mesh).max(axis=1) > R]
                    actual = np.exp(-a * ((outside + c) ** 2).sum(axis=1)).sum()
                    assert actual <= bound


def test_gaussian_box_tail_rejects_nonpositive_decay():
    assert gaussian_box_tail(0.0, 3, 1) == float("inf")
    assert gaussian_box_tail(-1.0, 3, 1) == float("inf")


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.05, 20.0), d=st.integers(1, 3), log_bound=st.floats(-306.0, 5.0),
       offset=st.floats(0.0, 2.0), r_cap=st.integers(1, 40))
def test_tail_radius_is_the_smallest_certified_radius(a, d, log_bound, offset, r_cap):
    bound = 10.0 ** log_bound

    def tail(R):
        return gaussian_box_tail(a, R, d, offset)

    try:
        R = tail_radius(a, d, bound, offset, r_cap)
    except ToleranceUnreachableError:
        assert tail(r_cap) > bound
        return
    assert 1 <= R <= r_cap
    assert tail(R) <= bound
    if R > 1:
        assert bound < tail(R - 1)


def _one_point(fn):
    # the exponents of one point, as the (len(rows), K) rows certified_lattice_sum asks for
    return lambda k, rows: np.broadcast_to(fn(k), (len(rows), len(k)))


def test_certified_sum_gaussian_value():
    def fn(k):
        return -np.pi * (k ** 2).sum(axis=1).astype(complex)

    s, radius, bound = certified_lattice_sum(_one_point(fn), np.pi, 1, 1e-14)
    assert s.logmag.shape == bound.shape == (1,)
    assert abs(s.to_complex()[0] - GAUSS_SUM_AT_I) < 1e-13
    assert bound[0] <= 1e-14
    assert radius >= 2


def test_certified_sum_radius_cap():
    def fn(k):
        return -1e-4 * (k ** 2).sum(axis=1).astype(complex)

    with pytest.raises(ToleranceUnreachableError):
        certified_lattice_sum(_one_point(fn), 1e-4, 1, 1e-12, r_cap=5)


def test_certified_sum_min_radius_honesty():
    # forcing extra shells must not move a certified value
    def fn(k):
        return (-0.9 * (k ** 2).sum(axis=1) + 0.3j * k[:, 0]).astype(complex)

    s1, r1, _ = certified_lattice_sum(_one_point(fn), 0.9, 1, 1e-13)
    s2, r2, _ = certified_lattice_sum(_one_point(fn), 0.9, 1, 1e-13, min_radius=r1 + 4)
    assert r2 >= r1 + 4
    assert abs(s1.to_complex()[0] - s2.to_complex()[0]) <= 1e-12 * abs(s2.to_complex()[0])


def _theta_i_exponents(ws):
    # theta_3(w | i) = sum_k exp(-pi k^2 + 2 pi i k w): one row per w in ws[rows];
    # it vanishes at w = (1 + i)/2
    def fn(k, rows):
        return -np.pi * k[:, 0] ** 2 + 2j * np.pi * np.multiply.outer(ws[rows], k[:, 0])
    return fn


def test_certified_sum_batch_is_the_single_calls():
    # the third point sits 1e-6 from the zero, so only its box grows; every
    # point keeps the bits, the radius and the bound of its own single call
    ws = np.array([0.1 + 0.2j, 0.37 - 0.3j, 0.5 + 0.5j + 1e-6, 0.05 + 0.0j])
    log_scale = np.pi * ws.imag ** 2
    s, radius, bound = certified_lattice_sum(_theta_i_exponents(ws), np.pi, 1, 1e-12,
                                             log_scale=log_scale)
    radii = []
    for i in range(len(ws)):
        s1, r1, b1 = certified_lattice_sum(_theta_i_exponents(ws[i:i + 1]), np.pi, 1, 1e-12,
                                           log_scale=log_scale[i])
        radii.append(r1)
        assert bound[i] == b1[0] <= 1e-12
        assert s.logmag[i] == s1.logmag[0] and s.phase[i] == s1.phase[0]
    assert radius == max(radii)
    assert radii[2] > radii[0] == radii[1] == radii[3]


def test_certified_sum_evaluates_only_open_points_in_blocks(monkeypatch):
    # the first round evaluates every point, in blocks of about _BLOCK
    # exponents; a later round only the points that fell short
    ws = np.array([0.1 + 0.2j, 0.37 - 0.3j, 0.5 + 0.5j + 1e-6, 0.05 + 0.0j] * 3)
    log_scale = np.pi * ws.imag ** 2
    fn = _theta_i_exponents(ws)
    whole = certified_lattice_sum(fn, np.pi, 1, 1e-12, log_scale=log_scale)
    calls = []

    def recorded(k, rows):
        calls.append((len(k), rows.tolist()))
        return fn(k, rows)

    monkeypatch.setattr(theta_mod, "_BLOCK", 20)
    s, radius, bound = certified_lattice_sum(recorded, np.pi, 1, 1e-12, log_scale=log_scale)
    K = calls[0][0]
    first = [c for c in calls if c[0] == K]
    assert [r for _, rows in first for r in rows] == list(range(12))
    assert all(len(rows) == max(1, 20 // K) for _, rows in first[:-1])
    assert {r for k, rows in calls[len(first):] for r in rows} == {2, 6, 10}
    assert radius == whole[1] and np.array_equal(bound, whole[2])
    assert np.array_equal(s.logmag, whole[0].logmag)
    assert np.array_equal(s.phase, whole[0].phase)


def test_certified_sum_near_a_zero_is_relative_to_the_value():
    # |theta| ~ 1e-6 at the third point; its tail is certified against that
    w = 0.5 + 0.5j + 1e-6
    s, _, bound = certified_lattice_sum(_theta_i_exponents(np.array([w])), np.pi, 1, 1e-12,
                                        log_scale=np.pi * 0.25)
    k = np.arange(-40, 41)
    direct = np.exp(-np.pi * k ** 2 + 2j * np.pi * k * w).sum()
    assert bound[0] <= 1e-12
    assert abs(s.to_complex()[0] - direct) <= 1e-8 * abs(direct)


# ---------------------------------------------------------------------------
# theta evaluation


def test_theta_value_at_origin_omega_i():
    ev = theta_eval(np.array([0j]), _p(1j), order=1, tol=1e-14)
    assert abs(ev.value.to_complex() - GAUSS_SUM_AT_I) < 1e-13


def test_theta_matches_dense_sum_d1():
    # independent oracle: plain double-precision summation, no reduction
    p = _p(0.3 + 1.1j)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        direct = sum(
            np.exp(1j * np.pi * (0.3 + 1.1j) * k * k + 2j * np.pi * k * z)
            for k in range(-40, 41)
        )
        ev = theta_eval(np.array([z]), p, order=1, tol=1e-14)
        assert abs(ev.value.to_complex() - direct) < 1e-12 * max(1.0, abs(direct))


def test_theta_matches_dense_sum_d2():
    z = np.array([0.21 - 0.13j, -0.4 + 0.33j])
    om = P2.Omega
    acc = 0j
    for a in range(-25, 26):
        for b in range(-25, 26):
            k = np.array([a, b])
            acc += np.exp(2j * np.pi * (k @ om @ k) + 4j * np.pi * (k @ z))
    ev = theta_eval(z, P2, order=2, tol=1e-14)
    assert abs(ev.value.to_complex() - acc) < 1e-12 * abs(acc)


def test_theta_quasiperiodicity_with_order_factor():
    # theta_n(z + m + Omega k) = exp(-pi i n k'Omega k - 2 pi i n z'k) theta_n(z)
    rng = np.random.default_rng(11)
    for p, order in ((_p(0.3 + 1j), 3), (P2, 2)):
        om = p.Omega
        for _ in range(25):
            z = rng.standard_normal(p.d) + 1j * rng.standard_normal(p.d)
            m = rng.integers(-3, 4, p.d).astype(float)
            k = rng.integers(-3, 4, p.d).astype(float)
            lhs = theta_eval(z + m + om @ k, p, order=order, tol=1e-13).value
            rhs = theta_eval(z, p, order=order, tol=1e-13).value
            fac = ScaledComplex.from_exponent(
                -1j * np.pi * order * (k @ om @ k) - 2j * np.pi * order * (z @ k)
            )
            want = fac * rhs
            assert lhs.logmag == pytest.approx(want.logmag, abs=1e-10)
            assert abs(lhs.phase - want.phase) < 1e-10


def test_theta_order_identity():
    # theta_N(z, Omega) = theta_1(N z, N Omega)
    rng = np.random.default_rng(3)
    N = 3
    pN = _p(0.2 + 0.9j, N=N)
    p1 = _p(N * (0.2 + 0.9j))
    for _ in range(10):
        z = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
        a = theta_eval(z, pN, order=N, tol=1e-13).value
        b = theta_eval(N * z, p1, order=1, tol=1e-13).value
        assert a.logmag == pytest.approx(b.logmag, abs=1e-10)
        assert abs(a.phase - b.phase) < 1e-10


def _fixed_box_theta(w, p, order, R=12):
    # theta_order(w) summed over the box of radius R around -Y^{-1} Im w.  Each
    # exponent pi i n (k'Omega k + 2 k'w) is formed in rationals, and its phase
    # reduced mod 2 pi exactly, so Re w = 1e3 costs no digits; returns the sum
    # and the sum of the moduli of its terms
    from fractions import Fraction

    om, w = p.Omega, np.asarray(w)
    centre = np.rint(-np.linalg.solve(om.imag, w.imag)).astype(int)
    total, scale = 0j, 0.0
    for k in np.indices((2 * R + 1,) * p.d).reshape(p.d, -1).T - R + centre:
        k = [int(v) for v in k]

        def form(A, x):
            idx = range(p.d)
            return (sum(Fraction(float(A[i, j])) * k[i] * k[j] for i in idx for j in idx)
                    + 2 * sum(Fraction(float(x[i])) * k[i] for i in idx))

        mag = math.exp(-math.pi * order * float(form(om.imag, w.imag)))
        total += mag * complex(np.exp(1j * math.pi * float(order * form(om.real, w.real) % 2)))
        scale += mag
    return total, scale


@pytest.mark.parametrize("p,order,w,tol", [
    (_p(0.3 + 1.1j), 1, [1000.3 + 2.7j], 1e-12),
    (_p(0.3 + 1.1j), 3, [-999.85 + 5.9j], 1e-10),
    (P2, 2, [1000.3 + 2.1j, -999.6 - 1.7j], 1e-10),
    (P2, 1, [0.2 + 6.3j, 1000.45 + 0.4j], 1e-11),
], ids=["d1-order1", "d1-order3", "d2-order2", "d2-order1"])
def test_theta_far_from_the_cell_matches_a_fixed_box_sum(p, order, w, tol):
    # the reduction moves each point by m0 + Omega k0 with k0 != 0, so its
    # factor exp(e) has |e| up to about 1e5: certified at tol, and the value
    # must agree with the plain sum to that tol
    ev = theta_eval(np.array(w), p, order=order, tol=tol)
    want, scale = _fixed_box_theta(w, p, order)
    assert ev.tail_bound <= tol
    assert abs(ev.value.to_complex() - want) <= 10 * tol * scale


def test_theta_eval_batch_is_the_single_calls():
    # cell points, their lattice translates, far points whose factor is rounded
    # once from its exact value, and two points at and 1e-7 from a zero of
    # theta_1, whose boxes grow to different radii (for d = 2, with a diagonal
    # Omega, theta_1 is a product of two d = 1 series): each value, phase and
    # tail bound of a batch is that of its own one-point call, and the radius is
    # the largest
    rng = np.random.default_rng(17)
    diag = GaborParams(d=2, N=1, Omega=np.diag([0.3 + 1j, 0.2 + 1.1j]))
    cases = [(_p(0.3 + 1.1j), 3, [[300.3 + 1.4j], [-300.2 + 1.4j]]),
             (_p(0.3 + 1j), 1, [[0.65 + 0.5j + 1e-7], [0.65 + 0.5j]]),
             (diag, 1, [[0.65 + 0.5j + 1e-7, 0.1 + 0.2j], [0.65 + 0.5j, 0.1 + 0.2j]]),
             (P2, 2, [[300.3 + 2.1j, -299.6 - 1.7j]])]
    for p, order, extra in cases:
        z = rng.uniform(-1, 1, (20, p.d)) + 1j * rng.uniform(-1, 1, (20, p.d))
        moved = z + rng.integers(-2, 3, (20, p.d)) + rng.integers(-2, 3, (20, p.d)) @ p.Omega.T
        W = np.concatenate([z, moved, np.array(extra)])
        batch = theta_eval(W, p, order=order)
        singles = [theta_eval(w, p, order=order) for w in W]
        one = singles[0]
        assert (type(one.value.logmag), type(one.value.phase), type(one.tail_bound),
                type(one.radius)) == (float, complex, float, int)
        assert batch.value.logmag.shape == batch.tail_bound.shape == (len(W),)
        for got, field in ((batch.value.logmag, lambda ev: ev.value.logmag),
                           (batch.value.phase, lambda ev: ev.value.phase),
                           (batch.tail_bound, lambda ev: ev.tail_bound)):
            assert got.tobytes() == np.array([field(ev) for ev in singles]).tobytes()
        assert batch.radius == max(ev.radius for ev in singles)
        assert len({ev.radius for ev in singles}) == (3 if order == 1 else 1)


def test_theta_truncation_honesty():
    # evaluating with a larger forced box must reproduce the certified value
    p = _p(0.3 + 1j)
    z = np.array([0.37 + 0.41j])
    e1 = theta_eval(z, p, tol=1e-12)
    e2 = theta_eval(z, p, tol=1e-12, min_radius=e1.radius + 4)
    assert e2.radius >= e1.radius + 4
    d = abs(e1.value.to_complex() - e2.value.to_complex())
    assert d <= 1e-11 * abs(e2.value.to_complex())


def test_theta_rejects_bad_order_and_shape():
    p = _p(1j)
    with pytest.raises(Exception):
        theta_eval(np.array([0j]), p, order=0)
    with pytest.raises(Exception):
        theta_eval(np.array([0j, 0j]), p)
    for bad in (np.zeros((2, 2), complex), np.zeros((2, 1, 1), complex)):
        with pytest.raises(GaborError, match="shape"):
            theta_eval(bad, p)


def test_theta_large_argument_overflow_safe():
    # the prefactor can exceed float range; the scaled value must stay finite
    p = _p(1j)
    ev = theta_eval(np.array([0.0 + 60.0j]), p, order=1, tol=1e-12)
    assert np.isfinite(ev.value.logmag)
    assert abs(abs(ev.value.phase) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# winding numbers


def test_winding_counts_enclosed_zeros():
    def make(z0):
        return lambda w: ScaledComplex.from_complex(w - z0)

    assert winding_number(make(0.3 + 0.4j), SQUARE) == 1
    assert winding_number(make(2.0 + 2.0j), SQUARE) == 0

    def double(w):
        return ScaledComplex.from_complex((w - (0.3 + 0.4j)) * (w - (0.6 + 0.2j)))

    assert winding_number(double, SQUARE) == 2


def test_winding_rejects_zero_on_contour():
    def f(w):
        return ScaledComplex.from_complex(w - 0.5)

    with pytest.raises(ContourNearZeroError):
        winding_number(f, SQUARE)


def test_winding_calls_f_once_per_bisection_level():
    calls = []

    def counted(zeros):
        def f(w):
            calls.append(w.shape)
            return ScaledComplex.from_complex(np.prod([w - z for z in zeros], axis=0))
        return f

    assert winding_number(counted([0.3 + 0.4j, 0.6 + 0.2j]), SQUARE) == 2
    assert 1 <= len(calls) <= 28 + 2
    assert calls[0] == (4 * 33,)
    # a zero 1e-12 off the contour needs more bisection levels than the cap
    calls.clear()
    with pytest.raises(ContourNearZeroError):
        winding_number(counted([0.51 + 1e-12j]), SQUARE, max_depth=20)
    assert len(calls) <= 20 + 2


# ---------------------------------------------------------------------------
# the zero of the order-one series


ZERO_OMEGAS = (1j, 2j, 0.3 + 1j, 0.7 + 1.3j, -0.7 + 0.4j, 0.1 + 0.2j, 5j)


def test_theta_zero_matches_half_periods():
    # the zero sits at the class of -i(1 + Omega)/2 on C / Lambda
    for om in ZERO_OMEGAS:
        p = _p(om, N=4)
        z0 = theta_zero_1d(p)
        expect = np.array([-1j * (1 + om) / 2])
        assert complex_distance_mod_lattice(np.array([z0]), expect, p) < 1e-10


def test_theta_zero_is_a_zero_in_weighted_magnitude():
    for om in ZERO_OMEGAS:
        p = _p(om, N=2)
        z0 = theta_zero_1d(p, tol=1e-11)
        ev = theta_eval(np.array([1j * z0]), p, order=1, tol=1e-13)
        y = float(p.im[0, 0])
        phi = 2 * np.pi * z0.real ** 2 / y
        assert ev.value.magnitude(-0.5 * phi) < 1e-11


def test_theta_zero_representative_is_reduced():
    for om in ZERO_OMEGAS:
        z0 = theta_zero_1d(_p(om, N=4))
        # coefficients against the generators -i Omega and i
        a = z0.real / om.imag
        b = z0.imag + a * om.real
        assert -1e-9 <= a < 1 + 1e-9
        assert -1e-9 <= b < 1 + 1e-9


def test_theta_zero_is_the_half_period_itself():
    # the lattice coefficients of z0 are exactly (1/2, 1/2): no solve, and
    # no rounding beyond the two products and the sum of -i Omega/2 + i/2
    rng = np.random.default_rng(23)
    for om in [1j, 0.3 + 1j] + list(rng.uniform(-2, 2, 60) + 1j * rng.uniform(0.3, 3, 60)):
        assert theta_zero_1d(_p(om, N=4)) == -0.5j * om + 0.5j


def test_theta_zero_raises_below_the_attainable_magnitude():
    # theta_1 at the half period is zero only up to rounding, about 1e-17
    with pytest.raises(ToleranceUnreachableError):
        theta_zero_1d(_p(0.3 + 1j, N=4), tol=1e-30)


def test_theta_eval_refuses_an_uncertified_reduction_phase():
    # the reduction exponent at z = 0.17 + 1e3 i has |Im e| ~ 9.4e5, so its
    # phase carries an error near 9.4e5 * 2^-52 = 2.1e-10
    p = _p(0.3 + 1j)
    z = np.array([0.17 + 1e3j])
    with pytest.raises(ToleranceUnreachableError):
        theta_eval(z, p, tol=1e-12)
    ev = theta_eval(z, p, tol=1e-9)
    assert ev.tail_bound <= 1e-9


def test_theta_eval_refuses_an_uncertified_reduction_magnitude():
    # at Omega = i, z = 1e6 i the reduction exponent is real, e = pi 1e12: its
    # phase is exact, but even rounded once its log-magnitude is off by up to
    # half an ulp, 2.4e-4
    p = _p(1j)
    with pytest.raises(ToleranceUnreachableError, match="magnitude"):
        theta_eval(np.array([1e6j]), p, tol=1e-12)


def test_theta_eval_rounds_a_large_reduction_exponent_once():
    # z = 40i = 40 Omega - 12 at Omega = 0.3 + i, so theta(z) = e^{1600 pi} theta(0)
    # up to the phase e^{-480 pi i} = 1; |e| 2^-52 = 1.2e-12 exceeds tol, half an
    # ulp of the exponent rounded once (4.5e-13) does not
    p = _p(0.3 + 1j)
    ev, ev0 = (theta_eval(np.array([z]), p, tol=1e-12).value for z in (40j, 0j))
    assert abs(ev.logmag - ev0.logmag - 1600 * math.pi) <= 2e-12
    assert abs(ev.phase - ev0.phase) <= 1e-12


def test_theta_eval_reduction_exponent_is_certified_when_its_terms_cancel():
    # the terms of Re e nearly cancel here: the floating-point sum is off by
    # 4.0e-11 while |e| 2^-52 is 4.4e-12, so a check on |e| alone accepts it at
    # tol 1e-11.  theta(z) = exp(e) theta(zr) with the same reduced zr, whose
    # own reduction is trivial; e rounded once from its exact value is the
    # reference
    om = np.array([[0.3793134649452301 + 5.230515944797466j,
                    -0.28658590944940454 + 7.30809357497767j],
                   [-0.28658590944940454 + 7.30809357497767j,
                    0.1436487489729923 + 11.34611642154529j]])
    z = np.array([-21.46734990950645 - 43.49006920251484j,
                  23.34846872957273 + 20.310619897777457j])
    p, tol = GaborParams(d=2, N=1, Omega=om), 1e-11
    k0 = -np.round(np.linalg.solve(om.imag, z.imag))
    z1 = z + om @ k0
    zr = z1 - np.round(z1.real)
    e = theta_mod._exact_exponent(k0, om, z, 1)
    try:
        ev = theta_eval(z, p, tol=tol).value
    except ToleranceUnreachableError:
        return
    ev_r = theta_eval(zr, p, tol=tol).value
    assert abs(ev.logmag - (e.real + ev_r.logmag)) <= tol
    assert abs(ev.phase - np.exp(1j * e.imag) * ev_r.phase) <= tol


# ---------------------------------------------------------------------------
# the z-independent caches behind theta_eval


def _clear_caches():
    for cached in (gaussian_box_tail, tail_radius, theta_mod._shell_box, theta_mod._theta_quad):
        cached.cache_clear()


def _bits(ev):
    v = ev.value
    return np.array([v.logmag, v.phase.real, v.phase.imag, ev.tail_bound]).tobytes(), ev.radius


def test_theta_eval_caches_are_invisible():
    # each call on empty caches, then all again on caches that hold every
    # (Omega, order, radius) met, then for new GaborParams with an equal Omega:
    # the same bits every time
    rng = np.random.default_rng(12)
    cases = [(p, order, z) for p in (_p(0.3 + 1j, N=3), P2) for order in (1, 2, 3)
             for z in rng.uniform(-2, 2, (200, p.d)) + 1j * rng.uniform(-2, 2, (200, p.d))]
    cold = []
    for p, order, z in cases:
        _clear_caches()
        cold.append(_bits(theta_eval(z, p, order=order)))
    assert [_bits(theta_eval(z, p, order=order)) for p, order, z in cases] == cold
    fresh = {id(p): GaborParams(d=p.d, N=p.N, Omega=p.Omega.copy()) for p, _, _ in cases}
    assert [_bits(theta_eval(z, fresh[id(p)], order=order)) for p, order, z in cases] == cold


def test_cached_arrays_are_read_only():
    ev = theta_eval(np.array([0.2 + 0.3j, -0.1j]), P2, order=2)
    arrays = [theta_mod._shell_box(ev.radius, 2), theta_mod._theta_quad(P2, 2, ev.radius),
              P2.Omega, P2.im, P2.im_inv]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
