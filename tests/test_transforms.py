import math
import tracemalloc

import numpy as np
import pytest

from dgt_reference import dgt_direct
from grids import tn_grid, window_l2_norm_sq
from torusgabor import transforms
from torusgabor.core import MAX_NODES, GaborError, GaborParams
from torusgabor.theta import ToleranceUnreachableError, theta_eval
from torusgabor.transforms import (
    GaussianWindow,
    NonFiniteInputError,
    ShapeMismatchError,
    ZeroWindowError,
    dgt,
    dgt_inverse,
    periodize_sample,
    stft_basis_grid,
    time_frequency_shift,
)

DGT_TOL = 1e-12
ROUND_TRIP_TOL = 1e-12


def _p(omega=1j, N=4, d=1):
    if d == 1:
        om = np.array([[omega]])
    else:
        om = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
    return GaborParams(d=d, N=N, Omega=om)


def _rand_signal(rng, p):
    return rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)


# ---------------------------------------------------------------------------
# the Gaussian window and its series


def test_gaussian_window_values_and_envelope():
    p = _p(0.3 + 1j, N=2)
    w = GaussianWindow(p)
    t = np.array([1.0])
    # conjugated quadratic phase: exp(-i pi conj(Omega) t^2 / N)
    expect = np.exp(-1j * np.pi * (0.3 - 1j) / 2)
    assert abs(w(t) - expect) < 1e-14
    rng = np.random.default_rng(0)
    for q in (p, _p(d=2, N=3)):
        w = GaussianWindow(q)
        t = rng.uniform(-6, 6, (20, q.d))
        envelope = np.exp(-np.pi * np.einsum("pi,ij,pj->p", t, q.im, t) / q.N)
        assert np.allclose(np.abs(w(t)), envelope, rtol=1e-13, atol=0)


def test_gaussian_l2_norm_closed_form():
    # trapezoid rule on [-T, T]^d, spectrally accurate for this Gaussian
    for p in (_p(1j), _p(0.3 + 2j, N=3), _p(d=2, N=2)):
        w = GaussianWindow(p)
        ts = np.linspace(-12.0, 12.0, 241 if p.d == 1 else 97)
        pts = np.stack(np.meshgrid(*([ts] * p.d), indexing="ij"), axis=-1).reshape(-1, p.d)
        num = complex((np.abs(w(pts)) ** 2).sum() * (ts[1] - ts[0]) ** p.d)
        assert num.real == pytest.approx(window_l2_norm_sq(p), rel=1e-12)


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


OM2 = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
OM3 = np.array([[0.2 + 1.0j, 0.1 + 0.1j, 0.0],
                [0.1 + 0.1j, -0.3 + 1.2j, 0.05j],
                [0.0, 0.05j, 0.4 + 0.9j]])
SERIES_CASES = {
    "d1-re-omega": GaborParams(d=1, N=5, Omega=np.array([[-0.7 + 1.1j]])),
    "d2-bench-omega": GaborParams(d=2, N=3, Omega=OM2),
    "d3-N3": GaborParams(d=3, N=3, Omega=OM3),
    "d1-N2048": GaborParams(d=1, N=2048, Omega=np.array([[1j]])),
}


def _brute_force_stft(p, X, XI, box):
    # V_h eps_n(x, xi) = sum_j e^{pi i w'Omega w/N - 2 pi i xi.(n + N j)}, w = n + N j - x,
    # over the fixed box |j|_inf <= box, with no recentring; shape (N^d, P)
    ns = np.indices(p.shape).reshape(p.d, -1).T
    js = np.indices((2 * box + 1,) * p.d).reshape(p.d, -1).T - box
    out = np.zeros((len(ns), len(X)), dtype=complex)
    for i, n in enumerate(ns):
        t = n + p.N * js                                  # (J, d) integers
        w = t[None, :, :] - X[:, None, :]                 # (P, J, d)
        e = 1j * np.pi * np.einsum("pji,ik,pjk->pj", w, p.Omega, w) / p.N
        e -= 2j * np.pi * np.einsum("pi,ji->pj", XI, t)
        out[i] = np.exp(e).sum(axis=1)
    return out


def _assert_close_to_each_value(got, ref, rtol):
    # relative to each value where it is normal; where it is subnormal or zero,
    # within a few units of the subnormal spacing
    atol = 4 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref) + atol)


@pytest.mark.parametrize("name", list(SERIES_CASES))
def test_periodize_matches_a_fixed_box_sum(name):
    p = SERIES_CASES[name]
    w = GaussianWindow(p)
    h = periodize_sample(w)
    ref = np.conj(_brute_force_stft(p, np.zeros((1, p.d)), np.zeros((1, p.d)), 3))
    # an exponent of size |log|h|| is rounded to a few of its ulps
    size = 1.0 + np.abs(np.log(np.maximum(np.abs(ref), 1e-300)))
    _assert_close_to_each_value(h.reshape(-1), ref[:, 0], 1e-14 * size[:, 0])
    if p.N == 2048:
        # the corner values exp(-pi u^2 / N), |u| near N/2, underflow to 0
        assert h[p.N // 2] == 0.0 and ref[p.N // 2, 0] == 0.0
        assert np.count_nonzero(h == 0.0) == np.count_nonzero(ref == 0.0) > 0


@pytest.mark.parametrize("name", list(SERIES_CASES))
def test_stft_basis_grid_matches_a_fixed_box_sum(name):
    p = SERIES_CASES[name]
    rng = np.random.default_rng(11)
    P = 4 if p.N == 2048 else 12
    # positions up to two periods away, so the recentring is exercised
    X = rng.uniform(-2 * p.N, 2 * p.N, (P, p.d))
    XI = rng.uniform(-1.0, 2.0, (P, p.d))
    V = stft_basis_grid(GaussianWindow(p), X, XI)
    assert V.shape == (p.dim_sn, P)
    ref = _brute_force_stft(p, X, XI, 5)
    # exponents and phases of size up to |log|V|| + 2 pi |xi| |x| are rounded
    size = 1.0 + np.abs(np.log(np.maximum(np.abs(ref), 1e-300))) \
        + 2 * np.pi * (np.abs(XI) * (np.abs(X) + p.N)).sum(axis=1)
    _assert_close_to_each_value(V, ref, 1e-14 * size)


def test_window_series_are_refused_above_the_node_budget():
    # d = 2, N = 3000: 9 * 10^6 rows of a 3 x 3 box, 8.1 * 10^7 terms, are
    # refused before a per-row array is built
    p = GaborParams(d=2, N=3000, Omega=np.eye(2) * 1j)
    tracemalloc.start()
    try:
        with pytest.raises(GaborError, match="9000000 rows x 9 terms"):
            periodize_sample(GaussianWindow(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # rows are N^d per point: 2048 rows of a 3-term box per point are refused
    # at 2^12 points (2.5 * 10^7 terms)
    p = _p(1j, N=2048)
    zero = np.zeros((2 ** 12, 1))
    with pytest.raises(GaborError, match=f"limit of {MAX_NODES}"):
        stft_basis_grid(GaussianWindow(p), zero, zero)
    assert stft_basis_grid(GaussianWindow(p), zero[:1], zero[:1]).shape == (2048, 1)


def test_stft_basis_grid_keeps_the_point_shape():
    p = _p(0.3 + 1j, N=3)
    w = GaussianWindow(p)
    X = np.linspace(-2.0, 4.0, 6).reshape(2, 3, 1)
    V = stft_basis_grid(w, X, np.array([0.25]))
    assert V.shape == (3, 2, 3)
    flat = stft_basis_grid(w, X.reshape(-1, 1), np.full((6, 1), 0.25))
    assert np.array_equal(V.reshape(3, -1), flat)


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


@pytest.mark.parametrize("d,N", [(1, 7), (2, 4), (3, 3)])
def test_time_frequency_shift_stack_equals_single_shifts(d, N):
    # negative and unreduced shifts; l enters the phase unreduced, so each
    # atom keeps the bits of its own one-shift call
    rng = np.random.default_rng(d)
    h = rng.standard_normal((N,) * d) + 1j * rng.standard_normal((N,) * d)
    ks = rng.integers(-3 * N, 3 * N, size=(25, d))
    ls = rng.integers(-3 * N, 3 * N, size=(25, d))
    stack = time_frequency_shift(h, ks, ls)
    assert stack.shape == (25,) + h.shape
    for atom, k, l in zip(stack, ks, ls):
        assert np.array_equal(atom.view(np.uint64), time_frequency_shift(h, k, l).view(np.uint64))
    with pytest.raises(ShapeMismatchError):
        time_frequency_shift(h, ks, ls[:3])


def test_dgt_fft_equals_direct():
    # random complex windows, so no symmetry of a Gaussian hides an index slip
    rng = np.random.default_rng(2)
    p3 = GaborParams(d=3, N=3, Omega=1j * np.eye(3))
    for p in (_p(N=16), _p(d=2, N=4), _p(d=2, N=5), p3):
        f = _rand_signal(rng, p)
        g = _rand_signal(rng, p)
        V1 = dgt(f, g)
        V2 = dgt_direct(f, g)
        assert np.abs(V1 - V2).max() < DGT_TOL


def test_dgt_round_trip():
    rng = np.random.default_rng(3)
    for p in (_p(N=16), _p(d=2, N=4), _p(N=256)):
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


def test_dgt_returns_its_own_c_ordered_table():
    rng = np.random.default_rng(21)
    p = _p(d=2, N=5)
    f = _rand_signal(rng, p)
    g = _rand_signal(rng, p)
    V = dgt(f, g)
    assert V.shape == (5,) * 4
    assert V.flags.c_contiguous and V.flags.writeable
    assert not np.shares_memory(V, f) and not np.shares_memory(V, g)


def test_dgt_inverse_only_reads_its_coefficients():
    rng = np.random.default_rng(22)
    p = _p(d=2, N=5)
    f = _rand_signal(rng, p)
    g = _rand_signal(rng, p)
    V = dgt(f, g)
    before = V.copy()
    back = dgt_inverse(V, g)
    assert np.array_equal(V, before)
    assert np.array_equal(dgt_inverse(np.asfortranarray(V), g), back)
    view = V.view()
    view.setflags(write=False)
    assert np.array_equal(dgt_inverse(view, g), back)
    assert np.abs(back - f).max() < 1e-13


def test_dgt_inverse_does_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(23)
    for p in (_p(N=16), _p(d=2, N=6)):
        f = _rand_signal(rng, p)
        g = _rand_signal(rng, p)
        V = dgt(f, g)
        whole = dgt_inverse(V, g)
        monkeypatch.setattr(transforms, "_CHUNK", 1)  # one row k_1 per block
        assert np.abs(dgt_inverse(V, g) - whole).max() < 1e-13
        monkeypatch.undo()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# room for numpy's FFT line buffers and its 8192-element ufunc buffers
_BUFFER_BYTES = 1 << 20


@pytest.mark.parametrize("d,N", [(2, 24), (1, 1024), (2, 32)])
def test_dgt_memory_is_the_table_plus_signal_sized_arrays(d, N):
    rng = np.random.default_rng(25)
    p = _p(d=d, N=N)
    f = _rand_signal(rng, p)
    g = _rand_signal(rng, p)
    V, peak = _traced_peak(dgt, f, g)
    # the shift table is g tiled 2^d times; a second table-sized array fails this
    assert peak <= V.nbytes + 8 * 2 ** d * f.nbytes + _BUFFER_BYTES
    # with V allocated, the inverse holds one block of about _CHUNK values at a time
    back, peak = _traced_peak(dgt_inverse, V, g)
    block = 16 * max(transforms._CHUNK, N ** (2 * d - 1))
    assert peak <= 2 * block + 8 * 2 ** d * f.nbytes + _BUFFER_BYTES
    if N ** (2 * d - 1) <= transforms._CHUNK:
        assert peak < V.nbytes / 2
    assert np.abs(back - f).max() < 1e-12


@pytest.mark.parametrize("where", ["signal", "window"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dgt_refuses_non_finite_input(where, bad):
    f = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    g = np.ones(4, dtype=complex)
    (f if where == "signal" else g)[1] = bad
    for transform in (dgt, dgt_direct):
        with pytest.raises(NonFiniteInputError):
            transform(f, g)
    if where == "window":
        with pytest.raises(NonFiniteInputError):
            dgt_inverse(np.ones((4, 4)), g)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_dgt_inverse_refuses_non_finite_coefficients(bad):
    V = np.ones((4, 4), dtype=complex)
    V[2, 3] = bad
    with pytest.raises(NonFiniteInputError):
        dgt_inverse(V, np.ones(4))


def test_dgt_overflow_is_refused_without_a_warning():
    # pytest turns RuntimeWarning into an error, so a warning fails here too
    with pytest.raises(ToleranceUnreachableError):
        dgt(np.full(4, 1e308), np.ones(4))
    with pytest.raises(ToleranceUnreachableError):
        dgt(np.full((3, 3), 1e200), np.full((3, 3), 1e200))
    with pytest.raises(ToleranceUnreachableError):
        dgt_inverse(np.full((4, 4), 1e308), np.ones(4))
    with pytest.raises(ToleranceUnreachableError):
        dgt_inverse(np.ones((4, 4)), np.full(4, 1e160))
    # large but representable coefficients still transform
    V = dgt(np.array([1e300, 0, 0, 0]), np.ones(4))
    assert np.abs(V).max() == pytest.approx(1e300)


# ---------------------------------------------------------------------------
# identities of the short-time transform of the Dirac combs


def test_zak_covariance_and_frequency_period():
    # V_h eps_n(x, xi) = e^{-2 pi i xi.n} Z(conj h)(n - x, xi), so the Zak
    # covariance Z(u + N m, xi) = e^{2 pi i N m.xi} Z(u, xi) and the period
    # 1/N of Z in xi read V_n(x + N m, xi) = e^{-2 pi i N m.xi} V_n(x, xi)
    # and V_n(x, xi + 1/N) = e^{-2 pi i n/N} V_n(x, xi)
    p = _p(0.3 + 1j, N=3)
    w = GaussianWindow(p)
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 3, (10, 1))
    XI = rng.uniform(0, 1, (10, 1))
    m = rng.integers(-2, 3, (10, 1)).astype(float)
    base = stft_basis_grid(w, X, XI)
    shifted = stft_basis_grid(w, X + 3 * m, XI)
    phase = np.exp(-2j * np.pi * 3 * (m * XI).sum(axis=1))
    assert np.all(np.abs(shifted - phase * base) <= 1e-12 * np.abs(base))
    n = np.arange(3)[:, None]
    up = stft_basis_grid(w, X, XI + 1.0 / 3)
    assert np.all(np.abs(up - np.exp(-2j * np.pi * n / 3) * base) <= 1e-12 * np.abs(base))


def test_zak_of_conjugate_window_matches_theta_form():
    # Z(conj h)(u, xi) = exp(pi i u'Omega u / N) theta_N(xi - Omega u / N), and
    # Z(conj h)(u, xi) = V_h eps_0(-u, xi)
    rng = np.random.default_rng(6)
    for p in (_p(1j, N=2), _p(0.3 + 1j, N=3), GaborParams(d=2, N=2, Omega=OM2)):
        U = rng.uniform(-1, p.N, (10, p.d))
        XI = rng.uniform(0, 1, (10, p.d))
        got = stft_basis_grid(GaussianWindow(p), -U, XI)[0]
        for j in range(10):
            u, xi = U[j], XI[j]
            pref = np.exp(1j * np.pi * (u @ p.Omega @ u) / p.N)
            th = theta_eval(xi - p.Omega @ u / p.N, p, order=p.N, tol=1e-13)
            expect = pref * th.value.to_complex()
            assert abs(got[j] - expect) < 1e-11 * max(1.0, abs(expect))


def test_zak_unitarity_on_fundamental_cell():
    # N * integral over [0,N) x [0,1/N) of |Z h|^2 equals the L2 norm squared,
    # with |Z h(x, xi)| = |Z(conj h)(x, -xi)| = |V_h eps_0(-x, -xi)|
    p = _p(0.2 + 1.1j, N=2)
    w = GaussianWindow(p)
    n1 = n2 = 48
    xs = (np.arange(n1) + 0.5) * (p.N / n1)
    xis = (np.arange(n2) + 0.5) * (1.0 / p.N / n2)
    X, XI = (g.reshape(-1, 1) for g in np.meshgrid(xs, xis, indexing="ij"))
    acc = float((np.abs(stft_basis_grid(w, -X, -XI)[0]) ** 2).sum())
    integral = acc * (p.N / n1) * (1.0 / p.N / n2)
    assert p.N * integral == pytest.approx(window_l2_norm_sq(p), rel=1e-9)


def test_stft_sampling_reproduces_dgt():
    # V phi(k, l/N) with phi = sum a_n eps_n equals the discrete transform
    # of a against the periodized window
    rng = np.random.default_rng(7)
    for p in (_p(0.3 + 1j, N=4), _p(d=2, N=2)):
        w = GaussianWindow(p)
        a = _rand_signal(rng, p)
        V = dgt(a, periodize_sample(w))
        kl = np.indices(p.shape * 2).reshape(2 * p.d, -1).T.astype(float)
        got = (a.reshape(-1) @ stft_basis_grid(w, kl[:, :p.d], kl[:, p.d:] / p.N))
        ref = V.reshape(-1)
        assert np.all(np.abs(got - ref) < 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_stft_quasiperiodicity():
    rng = np.random.default_rng(8)
    for p in (_p(0.3 + 1j, N=3), GaborParams(d=2, N=2, Omega=OM2)):
        w = GaussianWindow(p)
        a = _rand_signal(rng, p).reshape(-1)
        X = rng.uniform(0, p.N, (10, p.d))
        XI = rng.uniform(0, 1, (10, p.d))
        k = rng.integers(-2, 3, (10, p.d)).astype(float)
        m = rng.integers(-2, 3, (10, p.d)).astype(float)
        base = a @ stft_basis_grid(w, X, XI)
        lhs = a @ stft_basis_grid(w, X + p.N * k, XI)
        phase = np.exp(-2j * np.pi * p.N * (k * XI).sum(axis=1))
        assert np.all(np.abs(lhs - phase * base) < 1e-11 * np.abs(base))
        assert np.all(np.abs(a @ stft_basis_grid(w, X, XI + m) - base) < 1e-11 * np.abs(base))


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
            terms = np.conj(w((n - x - 3 * ks)[:, None])) * np.exp(2j * np.pi * 3 * ks * xi)
            ref = np.exp(-2j * np.pi * xi * n) * terms.sum()
            assert abs(V[n, j] - ref) < 1e-12 * max(1.0, abs(ref))


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
            lhs = complex((Vf * Vg.conj()).sum() * cell / window_l2_norm_sq(p))
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
