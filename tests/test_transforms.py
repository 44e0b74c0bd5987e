import math

import numpy as np
import pytest

from torusgabor.core import GaborParams
from torusgabor.theta import theta_eval
from torusgabor.transforms import (
    ExplicitWindow,
    GaussianWindow,
    NoDecayError,
    SampledWindow,
    ShapeMismatchError,
    ZeroWindowError,
    dgt,
    dgt_inverse,
    l2_inner_product,
    periodize_sample,
    sn_inner,
    stft,
    stft_basis,
    stft_basis_grid,
    time_frequency_shift,
    tn_grid,
    zak,
)

DGT_TOL = 1e-12
ROUND_TRIP_TOL = 1e-10


def _p(omega=1j, N=4, d=1):
    if d == 1:
        om = np.array([[omega]])
    else:
        om = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
    return GaborParams(d=d, N=N, Omega=om)


def _rand_signal(rng, p):
    return rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)


# ---------------------------------------------------------------------------
# windows


def test_gaussian_window_values_and_envelope():
    p = _p(0.3 + 1j, N=2)
    w = GaussianWindow(p)
    t = np.array([1.0])
    # conjugated quadratic phase: exp(-i pi conj(Omega) t^2 / N)
    expect = np.exp(-1j * np.pi * (0.3 - 1j) / 2)
    assert abs(w(t) - expect) < 1e-14
    C, alpha = w.decay
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(-6, 6, 1)
        assert abs(w(t)) <= C * math.exp(-alpha * float(t @ t)) + 1e-15


def test_gaussian_l2_norm_closed_form():
    for p in (_p(1j), _p(0.3 + 2j, N=3), _p(d=2, N=2)):
        w = GaussianWindow(p)
        num = l2_inner_product(w, w, rel_tol=1e-12)
        assert abs(num.imag) < 1e-10
        assert num.real == pytest.approx(w.l2_norm_sq(), rel=1e-8)


def test_l2_inner_product_matches_gaussian_integral():
    # h_1 conj(h_2) is a pure Gaussian, so the integral has a closed form
    p1, p2 = _p(0.4 + 1j, N=2), _p(-0.3 + 2j, N=2)
    w1, w2 = GaussianWindow(p1), GaussianWindow(p2)
    c = np.pi * ((1 + 2) - 1j * (-0.3 - 0.4)) / 2
    expect = np.sqrt(np.pi / c)
    got = l2_inner_product(w1, w2, rel_tol=1e-12)
    assert abs(got - expect) < 1e-9 * abs(expect)


def test_explicit_window_requires_envelope():
    p = _p()
    with pytest.raises(NoDecayError):
        ExplicitWindow(lambda t: np.exp(-t.sum(-1) ** 2), None, None, p)
    with pytest.raises(NoDecayError):
        ExplicitWindow(lambda t: np.exp(-t.sum(-1) ** 2), 1.0, 0.0, p)


def test_sampled_window_shape_check_and_no_decay():
    p = _p()
    with pytest.raises(ShapeMismatchError):
        SampledWindow(np.ones(3), p)
    sw = SampledWindow(np.ones(4), p)
    with pytest.raises(NoDecayError):
        zak(sw, 0.0, 0.0)


def test_periodized_gaussian_center_value():
    # h[0] = sum_k exp(-4 pi k^2) = 1 + 2 e^{-4 pi} + ...
    p = _p(1j, N=4)
    h = periodize_sample(GaussianWindow(p))
    expect = sum(math.exp(-4 * math.pi * k * k) for k in range(-6, 7))
    assert abs(h[0] - expect) < 1e-15
    assert abs(h[0] - (1 + 2 * math.exp(-4 * math.pi))) < 1e-15


def test_periodize_matches_brute_force_d2():
    p = _p(d=2, N=2)
    w = GaussianWindow(p)
    h = periodize_sample(w)
    for n in np.ndindex(p.shape):
        acc = 0j
        for k1 in range(-8, 9):
            for k2 in range(-8, 9):
                acc += complex(w(np.array(n, float) - 2 * np.array([k1, k2], float)))
        assert abs(h[n] - acc) < 1e-13


# ---------------------------------------------------------------------------
# discrete transform


def test_time_frequency_shift_formula():
    rng = np.random.default_rng(1)
    p = _p(N=5)
    h = _rand_signal(rng, p)
    k, l = 2, 3
    out = time_frequency_shift(h, k, l)
    for m in range(5):
        expect = np.exp(2j * np.pi * l * m / 5) * h[(m - k) % 5]
        assert abs(out[m] - expect) < 1e-14


def test_dgt_fft_equals_direct():
    rng = np.random.default_rng(2)
    for p in (_p(N=16), _p(d=2, N=4)):
        f = _rand_signal(rng, p)
        g = _rand_signal(rng, p)
        V1 = dgt(f, g, method="fft")
        V2 = dgt(f, g, method="direct")
        assert np.abs(V1 - V2).max() < DGT_TOL


def test_dgt_round_trip():
    rng = np.random.default_rng(3)
    for p in (_p(N=16), _p(d=2, N=4)):
        f = _rand_signal(rng, p)
        g = periodize_sample(GaussianWindow(p))
        fr = dgt_inverse(dgt(f, g), g)
        assert np.abs(fr - f).max() < ROUND_TRIP_TOL


def test_dgt_tightness():
    # sum |V|^2 = N^d ||f||^2 ||g||^2 for any window, not just Gaussians
    rng = np.random.default_rng(4)
    for p in (_p(N=7), _p(d=2, N=3)):
        for _ in range(5):
            f = _rand_signal(rng, p)
            g = _rand_signal(rng, p)
            V = dgt(f, g)
            lhs = float((np.abs(V) ** 2).sum())
            rhs = p.dim_sn * float(np.vdot(f, f).real) * float(np.vdot(g, g).real)
            assert abs(lhs - rhs) < 1e-10 * rhs


def test_dgt_shape_checks():
    with pytest.raises(ShapeMismatchError):
        dgt(np.ones(4), np.ones(5))
    with pytest.raises(ShapeMismatchError):
        dgt(np.ones((4, 3)), np.ones((4, 3)))
    with pytest.raises(ShapeMismatchError):
        dgt_inverse(np.ones((4, 4)), np.ones(3))
    with pytest.raises(ZeroWindowError):
        dgt_inverse(np.ones((4, 4)), np.zeros(4))


def test_sn_inner_ordering():
    f = np.array([1 + 1j, 0, 0, 0])
    g = np.array([2j, 0, 0, 0])
    assert sn_inner(f, g) == pytest.approx((1 + 1j) * (-2j))


# ---------------------------------------------------------------------------
# Zak transform


def test_zak_covariance_and_frequency_period():
    p = _p(0.3 + 1j, N=3)
    w = GaussianWindow(p)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = float(rng.uniform(0, 3))
        xi = float(rng.uniform(0, 1))
        base = zak(w, x, xi)
        m = int(rng.integers(-2, 3))
        shifted = zak(w, x + 3 * m, xi)
        assert abs(shifted - np.exp(2j * np.pi * 3 * m * xi) * base) < 1e-12 * abs(base)
        # period 1/N in frequency
        assert abs(zak(w, x, xi + 1.0 / 3) - base) < 1e-12 * abs(base)


def test_zak_of_conjugate_window_matches_theta_form():
    # Z(conj h)(u, xi) = exp(pi i u^2 Omega / N) theta_N(xi - Omega u / N)
    for om, N in ((1j, 2), (0.3 + 1j, 3)):
        p = _p(om, N=N)
        w = GaussianWindow(p)
        rng = np.random.default_rng(6)

        class _Conj:
            params = p
            decay = w.decay

            def __call__(self, t):
                return w.conj_fn(t)

        for _ in range(10):
            u = float(rng.uniform(-1, N))
            xi = float(rng.uniform(0, 1))
            got = zak(_Conj(), u, xi)
            pref = np.exp(1j * np.pi * u * u * om / N)
            th = theta_eval(np.array([xi - om * u / N]), p, order=N, tol=1e-13)
            expect = pref * th.value.to_complex()
            assert abs(got - expect) < 1e-11 * max(1.0, abs(expect))


def test_zak_unitarity_on_fundamental_cell():
    # N * integral over [0,N) x [0,1/N) of |Z h|^2 equals the L2 norm squared
    p = _p(0.2 + 1.1j, N=2)
    w = GaussianWindow(p)
    n1 = n2 = 48
    xs = (np.arange(n1) + 0.5) * (p.N / n1)
    xis = (np.arange(n2) + 0.5) * (1.0 / p.N / n2)
    acc = 0.0
    for x in xs:
        for xi in xis:
            acc += abs(zak(w, x, xi)) ** 2
    integral = acc * (p.N / n1) * (1.0 / p.N / n2)
    assert p.N * integral == pytest.approx(w.l2_norm_sq(), rel=1e-9)


# ---------------------------------------------------------------------------
# short-time transform of combs


def test_stft_sampling_reproduces_dgt():
    # V phi(k, l/N) with phi = sum a_n eps_n equals the discrete transform
    # of a against the periodized window
    rng = np.random.default_rng(7)
    for p in (_p(0.3 + 1j, N=4), _p(d=2, N=2)):
        w = GaussianWindow(p)
        a = _rand_signal(rng, p)
        g = periodize_sample(w)
        V = dgt(a, g)
        for k in np.ndindex(p.shape):
            for l in np.ndindex(p.shape):
                got = stft(a, np.array(k, float), np.array(l, float) / p.N, w)
                assert abs(got - V[k + l]) < 1e-10 * max(1.0, abs(V[k + l]))


def test_stft_quasiperiodicity():
    rng = np.random.default_rng(8)
    p = _p(0.3 + 1j, N=3)
    w = GaussianWindow(p)
    a = _rand_signal(rng, p)
    for _ in range(10):
        x = rng.uniform(0, 3, 1)
        xi = rng.uniform(0, 1, 1)
        base = stft(a, x, xi, w)
        k = rng.integers(-2, 3, 1).astype(float)
        m = rng.integers(-2, 3, 1).astype(float)
        lhs = stft(a, x + 3 * k, xi, w)
        assert abs(lhs - np.exp(-2j * np.pi * 3 * (k @ xi)) * base) < 1e-11 * abs(base)
        assert abs(stft(a, x, xi + m, w) - base) < 1e-11 * abs(base)


def test_stft_basis_grid_matches_pointwise_path():
    # reference: the Zak sum over the fixed box |k| <= 6 with no covariance
    # reduction, V_n(x, xi) = e^{-2 pi i xi n} sum_k conj h(n - x - Nk) e^{2 pi i N k xi}
    p = _p(0.3 + 1j, N=3)
    w = GaussianWindow(p)
    rng = np.random.default_rng(9)
    X = rng.uniform(-3, 6, (6, 1))
    XI = rng.uniform(0, 1, (6, 1))
    V = stft_basis_grid(w, X, XI)
    assert V.shape == (3, 6)
    ks = np.arange(-6, 7)
    for n in range(3):
        for j in range(6):
            x, xi = X[j, 0], XI[j, 0]
            terms = w.conj_fn((n - x - 3 * ks)[:, None]) * np.exp(2j * np.pi * 3 * ks * xi)
            ref = np.exp(-2j * np.pi * xi * n) * terms.sum()
            tol = 1e-12 * max(1.0, abs(ref))
            assert abs(V[n, j] - ref) < tol
            assert abs(stft_basis(np.array([n], float), X[j], XI[j], w) - ref) < tol


def test_moyal_identity_on_grid():
    # cell-weighted phase-space inner product reproduces the signal inner
    # product once divided by the window's continuous L2 norm
    rng = np.random.default_rng(10)
    for om in (1j, 0.3 + 1j):
        for N in (2, 4):
            p = _p(om, N=N)
            w = GaussianWindow(p)
            f = _rand_signal(rng, p)
            g = _rand_signal(rng, p)
            X, XI, cell = tn_grid(p, 8 * N, 8 * N)
            V = stft_basis_grid(w, X, XI)
            Vf = f.reshape(-1) @ V
            Vg = g.reshape(-1) @ V
            lhs = complex((Vf * Vg.conj()).sum() * cell / w.l2_norm_sq())
            rhs = complex(np.vdot(g, f))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_tn_grid_weights_and_ranges():
    p = _p(N=3)
    X, XI, cell = tn_grid(p, 6, 5)
    assert X.shape == (30, 1) and XI.shape == (30, 1)
    assert cell == pytest.approx((3 / 6) * (1 / 5))
    assert X.max() < 3 and XI.max() < 1
    Xm, XIm, _ = tn_grid(p, 6, 5, midpoint=True)
    assert Xm.min() == pytest.approx(0.25)
    assert XIm.min() == pytest.approx(0.1)
