import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgabor.core import GaborParams, complex_distance_mod_lattice
from torusgabor.theta import (
    ContourNearZeroError,
    ScaledComplex,
    ToleranceUnreachableError,
    _theta1_pair,
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


def test_scaled_addition_with_huge_disparity():
    big = ScaledComplex.from_exponent(0.0)
    tiny = ScaledComplex.from_exponent(-800.0)
    s = big + tiny
    assert s.to_complex() == pytest.approx(1.0)
    t = ScaledComplex.from_complex(1.0) + ScaledComplex.from_complex(-1.0)
    assert t.logmag == float("-inf")


def test_scaled_magnitude_with_log_shift():
    s = ScaledComplex.from_exponent(1000.0 + 0.3j)
    assert s.magnitude(-1000.0) == pytest.approx(1.0)


def test_scaled_conjugate_and_negation():
    s = ScaledComplex.from_complex(3 + 4j)
    assert abs(s.conjugate().to_complex() - (3 - 4j)) < 1e-14
    assert abs((-s).to_complex() + (3 + 4j)) < 1e-14


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
@given(a=st.floats(0.05, 20.0), d=st.integers(1, 3), log_bound=st.floats(-300.0, 2.0),
       factor=st.floats(1e-3, 1e6), offset=st.floats(0.0, 2.0), r_cap=st.integers(1, 40))
def test_tail_radius_is_the_smallest_certified_radius(a, d, log_bound, factor, offset, r_cap):
    bound = 10.0 ** log_bound

    def tail(R):
        return factor * gaussian_box_tail(a, R, d, offset)

    try:
        R = tail_radius(a, d, bound, offset, factor, r_cap)
    except ToleranceUnreachableError:
        assert tail(r_cap) > bound
        return
    assert 1 <= R <= r_cap
    assert tail(R) <= bound
    if R > 1:
        assert bound < tail(R - 1)


def test_theta1_pair_raises_at_radius_cap():
    # Im Omega = 1e-4 needs radius 343 for tol 1e-15, past the default cap of 200
    with pytest.raises(ToleranceUnreachableError):
        _theta1_pair(0.1 + 0j, 1e-4j)


def test_certified_sum_gaussian_value():
    def fn(k):
        return -np.pi * (k ** 2).sum(axis=1).astype(complex)

    s, radius, bound = certified_lattice_sum(fn, np.pi, 1, 1e-14)
    assert abs(s.to_complex() - GAUSS_SUM_AT_I) < 1e-13
    assert bound <= 1e-14
    assert radius >= 2


def test_certified_sum_radius_cap():
    def fn(k):
        return -1e-4 * (k ** 2).sum(axis=1).astype(complex)

    with pytest.raises(ToleranceUnreachableError):
        certified_lattice_sum(fn, 1e-4, 1, 1e-12, r_cap=5)


def test_certified_sum_min_radius_honesty():
    # forcing extra shells must not move a certified value
    def fn(k):
        return (-0.9 * (k ** 2).sum(axis=1) + 0.3j * k[:, 0]).astype(complex)

    s1, r1, _ = certified_lattice_sum(fn, 0.9, 1, 1e-13)
    s2, r2, _ = certified_lattice_sum(fn, 0.9, 1, 1e-13, min_radius=r1 + 4)
    assert r2 >= r1 + 4
    assert abs(s1.to_complex() - s2.to_complex()) <= 1e-12 * abs(s2.to_complex())


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


# ---------------------------------------------------------------------------
# the zero of the order-one series


def test_theta_zero_matches_half_periods():
    # the zero sits at the class of -i(1 + Omega)/2 on C / Lambda
    for om in (1j, 2j, 0.3 + 1j):
        p = _p(om, N=4)
        z0 = theta_zero_1d(p)
        expect = np.array([-1j * (1 + om) / 2])
        assert complex_distance_mod_lattice(z0.z, expect, p) < 1e-10


def test_theta_zero_is_a_zero_in_weighted_magnitude():
    p = _p(0.7 + 1.3j, N=2)
    z0 = theta_zero_1d(p, tol=1e-11)
    ev = theta_eval(1j * z0.z, p, order=1, tol=1e-13)
    y = float(p.im[0, 0])
    phi = 2 * np.pi * float(z0.z.real[0]) ** 2 / y
    assert ev.value.magnitude(-0.5 * phi) < 1e-11


def test_theta_zero_representative_is_reduced():
    p = _p(0.3 + 1j, N=4)
    z0 = complex(theta_zero_1d(p).z[0])
    om = 0.3 + 1j
    # coefficients against the generators -i Omega and i
    a = z0.real / om.imag
    b = z0.imag + a * om.real
    assert -1e-9 <= a < 1 + 1e-9
    assert -1e-9 <= b < 1 + 1e-9
