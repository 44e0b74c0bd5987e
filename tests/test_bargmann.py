import math

import numpy as np
import pytest

from torusgabor.bargmann import (
    bargmann,
    bergman_density,
    gram,
    section_winding,
    weight_phi,
)
from grids import tn_grid, window_l2_norm_sq
from torusgabor import bargmann as bargmann_mod, transforms
from torusgabor.core import GaborError, GaborParams, exact_sum
from torusgabor.theta import ScaledComplex, ToleranceUnreachableError, theta_eval

SERIES_TOL = 1e-12


def _p(omega=1j, N=2, d=1):
    if d == 1:
        om = np.array([[omega]])
    else:
        om = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
    return GaborParams(d=d, N=N, Omega=om)


def _eps(n, p):
    # the delta basis vector eps_n: B eps_n is the n-th basis section
    a = np.zeros(p.shape, dtype=complex)
    a[tuple(np.atleast_1d(n))] = 1.0
    return a


def _brute_basis(n, z, p, box=14):
    # literal series, no scaling, no recentering; valid for moderate Re z
    N, om = p.N, complex(p.Omega[0, 0])
    acc = 0j
    for k in range(-box, box + 1):
        q = n + N * k
        acc += np.exp(1j * np.pi * om * q * q / N - 2 * np.pi * q * complex(z))
    return acc


# ---------------------------------------------------------------------------
# weight and curvature


def test_weight_phi_closed_form():
    rng = np.random.default_rng(0)
    for p in (_p(0.3 + 1.2j), _p(d=2, N=2)):
        yinv = np.linalg.inv(p.im)
        for _ in range(10):
            z = rng.standard_normal(p.d) + 1j * rng.standard_normal(p.d)
            expect = 2 * np.pi * float(z.real @ yinv @ z.real)
            assert weight_phi(z, p) == pytest.approx(expect, rel=1e-12)


def test_weight_phi_ignores_imaginary_directions():
    p = _p(0.3 + 1.2j)
    z = np.array([0.4 - 0.7j])
    assert weight_phi(z, p) == pytest.approx(weight_phi(z + 5.3j, p), rel=1e-12)


def test_weight_phi_batched():
    p = _p()
    zs = np.array([[0.5 + 0.1j], [1.0 - 2.0j]])
    out = weight_phi(zs, p)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(2 * np.pi * 0.25)


# ---------------------------------------------------------------------------
# section evaluation


def test_basis_matches_brute_force_series():
    rng = np.random.default_rng(1)
    for om, N in ((1j, 2), (0.3 + 1j, 3)):
        p = _p(om, N=N)
        for _ in range(8):
            n = int(rng.integers(0, N))
            z = np.array([complex(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1))])
            got = bargmann(_eps(np.array([n]), p), z, p, tol=SERIES_TOL)
            expect = _brute_basis(n, z[0], p)
            assert abs(got.raw.to_complex() - expect) < 1e-11 * max(1.0, abs(expect))


def test_basis_shift_identities():
    # B(z + i m) = B(z) and B(z - i Omega k) = e^{-pi i N k'Om k + 2 pi N k'z} B(z)
    rng = np.random.default_rng(2)
    for p in (_p(0.3 + 1j, N=3), _p(d=2, N=2)):
        om = p.Omega
        for _ in range(6):
            n = rng.integers(0, p.N, p.d)
            z = rng.uniform(-0.5, 0.5, p.d) + 1j * rng.uniform(-1, 1, p.d)
            base = bargmann(_eps(n, p), z, p, tol=SERIES_TOL).raw
            m = rng.integers(-2, 3, p.d).astype(float)
            per = bargmann(_eps(n, p), z + 1j * m, p, tol=SERIES_TOL).raw
            assert per.logmag == pytest.approx(base.logmag, abs=1e-9)
            assert abs(per.phase - base.phase) < 1e-9
            k = rng.integers(-1, 2, p.d).astype(float)
            shifted = bargmann(_eps(n, p), z - 1j * (om @ k), p, tol=SERIES_TOL).raw
            fac = ScaledComplex.from_exponent(
                -1j * np.pi * p.N * (k @ om @ k) + 2 * np.pi * p.N * (k @ z)
            )
            want = fac * base
            assert shifted.logmag == pytest.approx(want.logmag, abs=1e-9)
            assert abs(shifted.phase - want.phase) < 1e-9


def test_weighted_magnitude_is_gauge_invariant():
    # |B| e^{-N phi / 2} must be a function on the quotient torus
    p = _p(0.2 + 0.9j, N=3)
    om = p.Omega
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = rng.integers(0, 3, 1)
        z = rng.uniform(-0.5, 0.5, 1) + 1j * rng.uniform(-1, 1, 1)
        k = rng.integers(-2, 3, 1).astype(float)
        m = rng.integers(-2, 3, 1).astype(float)
        w1 = bargmann(_eps(n, p), z, p, tol=SERIES_TOL).weighted_mag
        w2 = bargmann(_eps(n, p), z - 1j * (om @ k) + 1j * m, p, tol=SERIES_TOL).weighted_mag
        assert w2 == pytest.approx(w1, rel=1e-9)


def test_theta_form_cross_check_agrees():
    # B eps_n(z) = exp(pi i n'Omega n/N - 2 pi z'n) theta_N(Omega n/N + i z),
    # with theta_N from theta_eval: its own lattice reduction and exponent
    rng = np.random.default_rng(4)
    for p in (_p(1j, N=2), _p(0.3 + 1j, N=3), _p(d=2, N=2)):
        om = p.Omega
        for _ in range(5):
            n = rng.integers(0, p.N, p.d)
            z = rng.uniform(-0.5, 0.5, p.d) + 1j * rng.uniform(-1, 1, p.d)
            got = bargmann(_eps(n, p), z, p, tol=SERIES_TOL).raw
            pref = ScaledComplex.from_exponent(1j * np.pi * (n @ om @ n) / p.N - 2 * np.pi * (z @ n))
            other = pref * theta_eval(om @ n / p.N + 1j * z, p, order=p.N, tol=SERIES_TOL).value
            diff = abs(got.to_complex() - other.to_complex())
            assert diff <= 1e-9 * max(got.magnitude(), other.magnitude())


def test_combination_is_linear_in_coefficients():
    p = _p(0.3 + 1j, N=3)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = np.array([0.2 - 0.6j])
    direct = sum(
        a[n] * bargmann(_eps(np.array([n]), p), z, p, tol=SERIES_TOL).raw.to_complex()
        for n in range(3)
    )
    got = bargmann(a, z, p, tol=SERIES_TOL).raw.to_complex()
    assert abs(got - direct) < 1e-11 * max(1.0, abs(direct))


def _brute_section(a, z, p, box=30):
    # fixed box of m around the origin, plain double-precision sum
    m = np.indices((2 * box + 1,) * p.d).reshape(p.d, -1).T - box
    e = 1j * np.pi * np.einsum("ki,ij,kj->k", m, p.Omega, m) / p.N - 2 * np.pi * (m @ z)
    return complex((a[tuple((m % p.N).T)] * np.exp(e)).sum())


@pytest.mark.parametrize("p,tol", [(_p(0.3 + 1j, N=3), 1e-6), (_p(d=2, N=2), 1e-4)],
                         ids=["d1", "d2"])
def test_section_near_its_zero_keeps_tol(p, tol):
    # a = B eps_1(z1) eps_0 - B eps_0(z1) eps_1 vanishes at z1; 1e-7 away the
    # two terms cancel to about 1e-6 of their size, so a tail certified per
    # basis section would miss tol, and one certified for B a(z) must not
    n0, n1 = (0,) * p.d, (1,) * p.d
    z1 = p.im @ np.full(p.d, 0.3) + 0.21j
    a = np.zeros(p.shape, dtype=complex)
    a[n0] = bargmann(_eps(n1, p), z1, p, tol=1e-15).raw.to_complex()
    a[n1] = -bargmann(_eps(n0, p), z1, p, tol=1e-15).raw.to_complex()
    z = z1 + 1e-7
    want = _brute_section(a, z, p)
    got = bargmann(a, z, p, tol=tol).raw.to_complex()
    assert abs(got - want) <= tol * abs(want)


def test_batched_sections_are_the_single_calls():
    rng = np.random.default_rng(6)
    for p in (_p(0.3 + 1j, N=3), _p(d=2, N=2)):
        a = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
        Z = rng.uniform(-1, 1, (9, p.d)) + 1j * rng.uniform(-1, 1, (9, p.d))
        n = np.ones(p.d, dtype=int)
        for batch, one in ((bargmann(a, Z, p, tol=SERIES_TOL),
                            lambda z: bargmann(a, z, p, tol=SERIES_TOL)),
                           (bargmann(_eps(n, p), Z, p, tol=SERIES_TOL),
                            lambda z: bargmann(_eps(n, p), z, p, tol=SERIES_TOL))):
            assert batch.raw.logmag.shape == batch.weighted_mag.shape == (9,)
            for j, z in enumerate(Z):
                single = one(z)
                v, v1 = batch.raw.to_complex()[j], single.raw.to_complex()
                assert abs(v - v1) <= 1e-14 * abs(v1)
                assert batch.weighted_mag[j] == pytest.approx(single.weighted_mag, rel=1e-14)


def test_zero_coefficients_give_exact_zero():
    p = _p()
    out = bargmann(np.zeros(2), np.array([0.1 + 0.2j]), p)
    assert out.raw.logmag == float("-inf")
    assert out.weighted_mag == 0.0


@pytest.mark.parametrize("z", [50 + 0.1j, 1e6 + 0.1j, 1e10 + 0.1j, 1e19 + 0.1j, 1e300 + 0j,
                               complex("nan")],
                         ids=["50", "1e6", "1e10", "1e19", "1e300", "nan"])
def test_section_far_from_the_cell_is_refused(z):
    # z is reduced at order N as theta_eval reduces i z; at Re z = 50 the factor
    # exponent is 3 pi 50^2 = 2.4e4, whose half ulp 1.8e-12 exceeds tol = 1e-12,
    # further out its rounding grows, and then it overflows.  theta_eval refuses
    # the same points
    p, a = _p(0.3 + 1j, N=3), np.array([1.0, 0.5j, -0.2])
    for call in (lambda: bargmann(a, np.array([z]), p),
                 lambda: bargmann(a, np.array([[0.4 + 0.1j], [z]]), p),
                 lambda: theta_eval(np.array([1j * z]), p, order=p.N)):
        with pytest.raises(ToleranceUnreachableError):
            call()


def _brute_section_scaled(a, z, p, R=30):
    # log|B a(z)| and its phase from the box of radius R around m* = -N Y^{-1} Re z
    # (d = 1).  Each exponent pi (i m^2 Omega/N - 2 m z) is formed in rationals,
    # shifted by the largest real part and reduced mod 2 pi exactly, so a sum
    # near e^{15000} or with phases near 1e5 keeps its digits
    from fractions import Fraction

    pi = Fraction(314159265358979323846264338327950288419716939937511, 10 ** 50)
    N, om, z = p.N, complex(p.Omega[0, 0]), complex(z[0])
    X, Y = Fraction(om.real), Fraction(om.imag)
    centre = round(-N * z.real / om.imag)
    ms = range(centre - R, centre + R + 1)
    re = {m: -Y * m * m / N - 2 * m * Fraction(z.real) for m in ms}
    im = {m: X * m * m / N - 2 * m * Fraction(z.imag) for m in ms}
    top = max(re.values())
    s = sum(a[m % N] * math.exp(math.pi * float(re[m] - top))
            * complex(np.exp(1j * math.pi * float(im[m] % 2))) for m in ms)
    weight = float(pi * (top - N * Fraction(z.real) ** 2 / Y))  # log of e^{pi top - N phi/2}
    return float(pi * top) + math.log(abs(s)), s / abs(s), math.exp(weight) * abs(s)


@pytest.mark.parametrize("z", [0.21 + 3e3j, -0.35 + 1e4j, 40 + 0.3j, -38.7 - 0.45j],
                         ids=["im3e3", "im1e4", "re40", "re-39"])
def test_section_far_from_the_cell_matches_a_brute_force_sum(z):
    # points the sections refused while they were summed unreduced; reduced at
    # order N, as theta_eval(i z, order=N) reduces them, they are certified at
    # tol = 1e-12, and agree with the brute-force sum to tol plus a few ulps of
    # log|B| (about 1.5e4 at Re z = 40)
    p, a, tol = _p(0.3 + 1j, N=3), np.array([0.3 + 0.1j, -1.0, 0.5j]), 1e-12
    got = bargmann(a, np.array([z]), p, tol=tol)
    logmag, phase, weighted = _brute_section_scaled(a, np.array([z]), p)
    assert abs(got.raw.logmag - logmag) <= tol + 4 * math.ulp(logmag)
    assert abs(got.raw.phase - phase) <= 2 * tol
    assert got.weighted_mag == pytest.approx(weighted, rel=1e-12)
    theta_eval(np.array([1j * z]), p, order=p.N, tol=tol)


def test_section_in_the_cell_still_evaluates():
    p, a = _p(0.3 + 1j, N=3), np.array([1.0, 0.5j, -0.2])
    z = -1j * p.Omega[0, 0] * 0.3 + 0.6j
    got = bargmann(a, np.array([z]), p, tol=1e-15).raw.to_complex()
    want = _brute_section(a, np.array([z]), p)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_bargmann_rejects_wrong_shape():
    p = _p()
    with pytest.raises(Exception):
        bargmann(np.ones(3), np.array([0j]), p)


# ---------------------------------------------------------------------------
# Gram matrix


def test_gram_is_scalar_and_full_rank():
    for p in (_p(1j, N=2), _p(0.3 + 1j, N=4)):
        rep = gram(p)
        nd = p.dim_sn
        assert rep.matrix.shape == (nd, nd)
        assert rep.rank == nd
        assert rep.offdiag_residual < 1e-8
        diag = np.real(np.diag(rep.matrix))
        assert np.abs(diag - rep.onb_constant).max() < 1e-8 * rep.onb_constant


def test_gram_constant_is_the_closed_form():
    # G is the a == 1 localization matrix, the identity, times
    # sqrt(det Im Omega / (2N)^d)
    om2 = np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])
    for p in (_p(1j, N=2), _p(0.7 + 1.5j, N=3), GaborParams(d=2, N=2, Omega=om2)):
        root = np.sqrt(np.linalg.det(p.im) / (2.0 * p.N) ** p.d)
        assert gram(p).onb_constant == pytest.approx(root, rel=1e-12)


@pytest.mark.parametrize("p,nx,nxi,tol", [
    (_p(0.3 + 1j, N=3), 12, 12, 1e-12),
    (GaborParams(d=2, N=2, Omega=np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])), 8, 6, 1e-11),
], ids=["d1", "d2"])
def test_gram_is_the_weighted_section_sum(p, nx, nxi, tol):
    # G[m, n] = integral of B eps_n conj(B eps_m) e^{-N phi} over a fundamental
    # domain, summed here from the section series alone on a midpoint grid of
    # z = i (Omega x / N + xi), x in [0, N)^d, xi in [0, 1)^d; the grid sizes
    # put the aliasing error below tol
    X, XI, cell = tn_grid(p, nx, nxi, midpoint=True)
    Z = 1j * (X @ p.Omega.T / p.N + XI)
    B = np.array([bargmann(_eps(np.array(n), p), Z, p).raw.to_complex()
                  for n in np.ndindex(p.shape)]).T
    # dA(z) = det Im Omega / N^d dx dxi
    w = np.exp(-p.N * weight_phi(Z, p)) * cell * np.linalg.det(p.im) / p.N ** p.d
    ref = (B.conj().T * w) @ B
    G = gram(p).matrix
    assert np.linalg.norm(G - ref) <= tol * np.linalg.norm(ref)


def test_table_is_the_sections_times_one_phase():
    # the coherent-state transform and the sections are one object: at
    # z = i (Omega x / N + xi), V_h eps_n(x, xi) = e^{pi i x'Omega x/N} B eps_n(z)
    # with a factor that does not depend on n and has modulus e^{-N phi(z)/2}
    om2 = np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])
    rng = np.random.default_rng(61)
    cases = (_p(0.3 + 1j, N=4), GaborParams(d=2, N=2, Omega=om2),
             GaborParams(d=2, N=3, Omega=om2))
    for p in cases:
        ns = np.indices(p.shape).reshape(p.d, -1).T
        # 3N nodes per axis: at 2N, e^{2 pi i N k.xi} = +-1 would hide its sign
        nx = 3 * p.N
        X, XI, _ = tn_grid(p, nx, nx)
        window = transforms.GaussianWindow(p)
        for j in rng.choice(len(X), 8, replace=False):
            V = transforms.stft_basis_grid(window, X[j], XI[j])[:, 0]
            z = 1j * (p.Omega @ X[j] / p.N + XI[j])
            B = np.array([bargmann(_eps(n, p), z, p, tol=1e-14).raw.to_complex() for n in ns])
            # some sections vanish at grid points, so no entrywise ratio
            c = np.exp(1j * np.pi * (X[j] @ p.Omega @ X[j]) / p.N)
            assert np.abs(V - c * B).max() <= 1e-12 * np.abs(V).max()
            assert abs(c) == pytest.approx(np.exp(-0.5 * p.N * weight_phi(z, p)), rel=1e-12)


@pytest.mark.parametrize("p", [
    _p(1j, N=2), _p(0.7 + 1.5j, N=5),
    GaborParams(d=2, N=3, Omega=np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])),
], ids=["d1-N2", "d1-N5", "d2-N3"])
def test_gram_is_the_closed_form_without_quadrature(p):
    # the constant symbol's one Fourier term gives the identity, so G is
    # sqrt(det Y / (2N)^d) I to roundoff, and no grid is sampled
    rep = gram(p)
    root = math.sqrt(np.linalg.det(p.im) / (2.0 * p.N) ** p.d)
    assert np.abs(rep.matrix - root * np.eye(p.dim_sn)).max() <= 4e-16 * root
    assert rep.grid_history == []


# ---------------------------------------------------------------------------
# zero counting and density


def test_section_winding_counts_n_zeros():
    # N = 1 is one zero per cell, the uniqueness theta_zero_1d relies on
    rng = np.random.default_rng(6)
    for N in (1, 2, 3):
        p = _p(1j, N=N)
        for _ in range(3):
            a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            assert section_winding(a, p) == N


def test_section_winding_off_square_lattice():
    rng = np.random.default_rng(7)
    p = _p(0.3 + 1j, N=3)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert section_winding(a, p) == 3


def test_density_integral_and_flattening():
    p4 = _p(1j, N=4)
    p12 = _p(1j, N=12)
    d4 = bergman_density(p4, oversample=8)
    d12 = bergman_density(p12, oversample=8)
    assert d4.integral == pytest.approx(4.0, abs=1e-8)
    assert d12.integral == pytest.approx(12.0, abs=1e-8)
    assert d4.values.min() > 0
    assert d12.flatness() < d4.flatness()


@pytest.mark.parametrize("chunk", [None, 1000], ids=["one-chunk", "chunk-1000"])
@pytest.mark.parametrize("p,ov", [(_p(0.3 + 1j, N=5), 6), (_p(d=2, N=2), 4)], ids=["d1", "d2"])
def test_density_matches_the_pointwise_grid_sum(monkeypatch, chunk, p, ov):
    # rho written out with one stft_basis_grid call over the whole grid
    if chunk is not None:
        monkeypatch.setattr(transforms, "_CHUNK", chunk)
    rep = bergman_density(p, oversample=ov)
    w = transforms.GaussianWindow(p)
    X, XI, _ = tn_grid(p, ov * p.N, ov * p.N)
    V = transforms.stft_basis_grid(w, X, XI)
    rho = (np.abs(V) ** 2).sum(axis=0) / window_l2_norm_sq(p)
    assert rep.values.size == rho.size
    assert np.abs(rep.values.reshape(-1) - rho).max() <= 1e-13 * rho.max()


@pytest.mark.parametrize("p,ov", [(_p(1j, N=3), 8), (_p(0.3 + 1j, N=5), 8), (_p(1j, N=7), 3),
                                  (_p(1j, N=32), 8), (_p(d=2, N=3), 3)],
                         ids=["d1-N3", "d1-N5", "d1-N7", "d1-N32", "d2-N3"])
def test_density_sums_from_the_cell_are_the_grid_sums(p, ov):
    # N^{2d} times the cell's exact total, rounded once, is exact_sum over the
    # tiled grid, bit for bit
    rep = bergman_density(p, oversample=ov)
    grid = np.tile(rep.cell, (p.N,) * (2 * p.d))
    assert np.array_equal(rep.values, grid)
    nx = ov * p.N
    total = exact_sum([grid])
    assert rep.integral == total * (p.N / nx) ** p.d * (1.0 / nx) ** p.d
    assert rep.flatness() == float((grid.max() - grid.min()) / (total / grid.size))
    assert (rep.vmin, rep.vmax) == (grid.min(), grid.max())


def test_density_refuses_an_oversized_grid(monkeypatch):
    # the limit is checked before the kernel is built or anything allocated
    def unreachable(*args):
        raise AssertionError("the kernel was built")

    at_limit = bergman_density(_p(1j, N=512), oversample=8)   # 4096^2 = 2^24 nodes
    assert at_limit.cell.shape == (8, 8) and at_limit.x_nodes.size == 4096
    monkeypatch.setattr(bargmann_mod.localization, "_heisenberg_kernel", unreachable)
    with pytest.raises(GaborError, match="4096000000 nodes"):
        bergman_density(_p(1j, N=32), oversample=2000)
    with pytest.raises(GaborError, match="4104\\^2 = 16842816 nodes"):
        bergman_density(_p(1j, N=513), oversample=8)
    with pytest.raises(GaborError, match="nodes"):
        bergman_density(_p(d=2, N=3), oversample=22)   # 66^4 = 18,974,736


def test_density_grid_layout():
    p = _p(1j, N=2)
    rep = bergman_density(p, oversample=4)
    assert rep.values.shape == (8, 8)
    assert rep.x_nodes.shape == (8,)
    assert rep.x_nodes[1] == pytest.approx(0.25)
    assert rep.xi_nodes[-1] == pytest.approx(7 / 8)
    assert rep.vmin <= rep.values.mean() <= rep.vmax
