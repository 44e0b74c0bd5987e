"""Discrete Gabor transform, Zak transform, and window machinery on S_N.

Signals are complex arrays of shape (N,)*d indexed by I_N = (Z_N)^d with the
plain coefficient inner product.  The discrete Gabor transform with window g
is

    V_g f[k, l] = sum_m f[m] conj(g[m - k]) exp(-2 pi i l.m / N),

all index arithmetic mod N.  Summing |V_g f|^2 over the full N^{2d} grid
gives N^d ||f||^2 ||g||^2, so the time-frequency shifts of any nonzero
window form a tight frame and inversion is a single weighted sum.

Continuous-time windows enter through the Zak transform

    Z_N f(x, xi) = sum_k f(x - Nk) exp(2 pi i N k.xi),

whose value at xi = 0 is the periodization (P f)[n] = sum_k f(n - kN) that
samples a window onto I_N.  Every such sum is truncated through the window's
Gaussian decay envelope, at the radius theta.tail_radius certifies, over a
theta.lattice_box.
The short-time transform of phi = sum_n a_n eps_n against a decaying window
g evaluates as V_g phi(x, xi) = sum_n a_n e^{-2 pi i xi.n} Z_N(conj g)(n - x, xi),
which on the integer samples (k, l/N) reproduces the discrete transform of
the periodized window.

stft_basis_grid evaluates one Zak sum per basis function and point, for
scattered points.  On the product grid of tn_grid one product table serves
every consumer: for a block of whole x-node rows,

    V_n = e^{-2 pi i n.xi} A_n @ E,   A_n[x, k] = conj g(n - N k - x),   E[k, xi] = e^{2 pi i N k.xi},

over the truncation box of _zak_box, for any window with conj_fn and decay.
tn_grid_gram contracts it into S[m, n] = sum_p w_p conj(V_m(p)) V_n(p): the
localization matrix of a symbol takes w = the symbol, the Gram matrix of the
Bargmann sections w = 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import theta
from .core import GaborError, validate, im_min_eig


class ShapeMismatchError(GaborError):
    """Signal/window/coefficient arrays have incompatible shapes."""


class ZeroWindowError(GaborError):
    """The window has zero norm; inversion is undefined."""


class NoDecayError(GaborError):
    """A continuous-time operation needs a window with a decay envelope."""


# ---------------------------------------------------------------------------
# windows


class GaussianWindow:
    """Window h0(t) = conj(exp(pi i t'(Omega/N) t)).

    |h0(t)| = exp(-pi t'(Im Omega) t / N), so the envelope constant comes from
    the smallest eigenvalue of Im(Omega) and the squared L2 norm has the
    closed form sqrt(N^d / (2^d det Im Omega)).
    """

    def __init__(self, params):
        self.params = validate(params)

    def __call__(self, t):
        return np.conj(self.conj_fn(t))

    def conj_fn(self, t):
        t = np.asarray(t, dtype=float)
        q = np.einsum("...i,ij,...j->...", t, self.params.Omega, t)
        return np.exp(1j * np.pi * q / self.params.N)

    @property
    def decay(self):
        """(C, alpha) with |h0(t)| <= C exp(-alpha |t|^2)."""
        return 1.0, math.pi * im_min_eig(self.params) / self.params.N

    def l2_norm_sq(self):
        p = self.params
        return math.sqrt(p.N ** p.d / (2.0 ** p.d * float(np.linalg.det(p.im))))


class ExplicitWindow:
    """User-supplied window; the decay envelope (C, alpha) is mandatory.

    The envelope |f(t)| <= C exp(-alpha |t|^2) is what certifies every
    periodization and Zak truncation, so it is required up front rather than
    inferred.
    """

    def __init__(self, fn, decay_c, decay_alpha, params):
        if decay_c is None or decay_alpha is None or not decay_alpha > 0.0:
            raise NoDecayError(
                "explicit windows require an envelope |f(t)| <= C exp(-alpha |t|^2)"
            )
        self.fn = fn
        self.decay_c = float(decay_c)
        self.decay_alpha = float(decay_alpha)
        self.params = validate(params)

    def __call__(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=complex)

    def conj_fn(self, t):
        return np.conj(self(t))

    @property
    def decay(self):
        return self.decay_c, self.decay_alpha

    def l2_norm_sq(self):
        return float(l2_inner_product(self, self).real)


class SampledWindow:
    """Window given directly by its N^d coefficients; no off-grid values exist."""

    def __init__(self, coeffs, params):
        self.params = validate(params)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != params.shape:
            raise ShapeMismatchError(
                f"sampled window must have shape {params.shape}, got {coeffs.shape}"
            )
        self.coeffs = coeffs


def _require_decay(window):
    if isinstance(window, SampledWindow):
        raise NoDecayError("operation needs a continuous-time window with a decay bound")
    return window


# ---------------------------------------------------------------------------
# periodization / sampling


def periodize_sample(window, rel_tol=1e-14):
    """Sample the periodization (P f)[n] = sum_k f(n - kN) on I_N.

    This is the Zak sum of the window at xi = 0, truncated at a radius whose
    Gaussian tail bound is below rel_tol relative to the smallest on-grid
    leading term.
    """
    if isinstance(window, SampledWindow):
        return window.coeffs.copy()
    p = window.params
    ns = np.indices(p.shape).reshape(p.d, -1).T.astype(float)
    return _zak_sum_grid(window, window, ns, np.zeros(p.d), rel_tol).reshape(p.shape)


# ---------------------------------------------------------------------------
# discrete Gabor transform


def _check_signal(f, name="signal"):
    f = np.asarray(f, dtype=complex)
    N = f.shape[0] if f.ndim else 0
    if f.ndim < 1 or any(s != N for s in f.shape):
        raise ShapeMismatchError(f"{name} must be shaped (N,)*d, got {f.shape}")
    return f


def sn_inner(f, g):
    """Coefficient inner product <f, g> = sum conj(g) f... ordered <f,g> = sum f conj(g)."""
    return complex(np.sum(np.asarray(f) * np.conj(np.asarray(g))))


def time_frequency_shift(h, k, l):
    """(M_l T_k h)[m] = exp(2 pi i l.m / N) h[m - k] with cyclic index shifts."""
    h = _check_signal(h, "window")
    d, N = h.ndim, h.shape[0]
    k = np.atleast_1d(np.asarray(k, dtype=int))
    l = np.atleast_1d(np.asarray(l, dtype=int))
    out = np.roll(h, tuple(int(v) for v in k), axis=tuple(range(d)))
    m = np.indices(h.shape)
    phase = np.exp(2j * np.pi * np.tensordot(l, m, axes=1) / N)
    return phase * out


def dgt(f, g, method="fft"):
    """Discrete Gabor coefficients V_g f[k, l], returned with shape (N,)*2d.

    method="fft" computes, for each shift k, the d-dimensional FFT of
    m -> f[m] conj(g[m - k]); method="direct" is the literal O(N^{3d})
    triple summation kept as an independent reference path.
    """
    f = _check_signal(f)
    g = _check_signal(g, "window")
    if f.shape != g.shape:
        raise ShapeMismatchError(f"signal {f.shape} vs window {g.shape}")
    d, N = f.ndim, f.shape[0]
    axes = tuple(range(d))
    V = np.empty(f.shape + f.shape, dtype=complex)
    if method == "fft":
        for k in np.ndindex(f.shape):
            u = f * np.conj(np.roll(g, k, axis=axes))
            V[k] = np.fft.fftn(u)
    elif method == "direct":
        ms = np.indices(f.shape).reshape(d, -1).T
        fv = f.reshape(-1)
        for k in np.ndindex(f.shape):
            u = fv * np.conj(np.roll(g, k, axis=axes)).reshape(-1)
            for l in np.ndindex(f.shape):
                ph = np.exp(-2j * np.pi * (ms @ np.asarray(l)) / N)
                V[k + l] = (u * ph).sum()
    else:
        raise GaborError(f"unknown dgt method {method!r}")
    return V


def dgt_inverse(V, g):
    """Invert the transform: f = (N^d ||g||^2)^{-1} sum_{k,l} V[k,l] M_l T_k g."""
    g = _check_signal(g, "window")
    d, N = g.ndim, g.shape[0]
    V = np.asarray(V, dtype=complex)
    if V.shape != g.shape * 2:
        raise ShapeMismatchError(f"coefficients must have shape {g.shape * 2}, got {V.shape}")
    gnorm = float(np.vdot(g, g).real)
    if gnorm == 0.0:
        raise ZeroWindowError("window has zero norm")
    # sum over l first: sum_l V[k, l] e^{2 pi i l.m/N} = N^d ifft_l(V[k])[m]
    W = np.fft.ifftn(V, axes=tuple(range(d, 2 * d))) * (N ** d)
    f = np.zeros(g.shape, dtype=complex)
    for k in np.ndindex(g.shape):
        f += W[k] * np.roll(g, k, axis=tuple(range(d)))
    return f / (N ** d * gnorm)


# ---------------------------------------------------------------------------
# Zak transform and the short-time transform of Dirac combs


def _zak_box(window, rel_tol):
    # the lattice points k of every Zak sum over fn(u - N k), u in (-N, N)^d:
    # the tail target is rel_tol relative to the worst-case on-grid lead term,
    # and the box is one wider than R to cover every rounding of u/N
    N, d = window.params.N, window.params.d
    C, alpha = window.decay
    lead = C * math.exp(-alpha * d * (N / 2.0) ** 2)
    R = theta.tail_radius(alpha * N * N, d, rel_tol * lead, factor=C)
    return theta.lattice_box(-(R + 1), R + 1, d)


def _zak_sum_grid(window, fn, U, XI, rel_tol=1e-13):
    # sum_k fn(U - Nk) exp(2 pi i N k.XI) elementwise for float arrays with U
    # entries in (-N, N); fn shares the window's decay envelope
    N = window.params.N
    out = np.zeros(np.broadcast_shapes(U.shape[:-1], XI.shape[:-1]), dtype=complex)
    for k in _zak_box(window, rel_tol):
        out = out + fn(U - N * k) * np.exp(2j * np.pi * N * (XI @ k.astype(float)))
    return out


def zak(window, x, xi, rel_tol=1e-13):
    """Z_N w(x, xi) = sum_k w(x - Nk) exp(2 pi i N k.xi), certified truncation.

    x is first reduced mod N through the covariance
    Z(x + N m, xi) = exp(2 pi i N m.xi) Z(x, xi), which keeps the summation
    box centered.
    """
    window = _require_decay(window)
    p = window.params
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    m = np.floor(x / p.N)
    x0 = x - p.N * m
    base = _zak_sum_grid(window, window, x0, xi, rel_tol)
    return complex(np.exp(2j * np.pi * p.N * (xi @ m)) * base)


def _stft_rows(window, ns, X, XI, rel_tol):
    # V_g eps_n at the broadcast points (X, XI), one row per n in ns; the Zak
    # argument n - x is recentered through the covariance phase
    window = _require_decay(window)
    p = window.params
    X, XI = np.broadcast_arrays(X, XI)
    out = np.empty((len(ns),) + X.shape[:-1], dtype=complex)
    for i, n in enumerate(ns):
        u = n - X
        m = np.floor(u / p.N + 0.5)
        zb = _zak_sum_grid(window, window.conj_fn, u - p.N * m, XI, rel_tol)
        cov = np.exp(2j * np.pi * p.N * np.einsum("...i,...i->...", XI, m))
        out[i] = np.exp(-2j * np.pi * (XI @ n)) * cov * zb
    return out


def stft_basis_grid(window, X, XI, rel_tol=1e-13):
    """V_g eps_n at every grid point, for every n in I_N.

    X, XI have shape (..., d); the result has shape (N^d, ...) ordered by
    C-order enumeration of I_N.  The Zak argument n - x is recentered through
    the covariance phase, so arbitrary (unreduced) positions are fine.
    """
    p = window.params
    ns = np.indices(p.shape).reshape(p.d, -1).T.astype(float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    XI = np.atleast_2d(np.asarray(XI, dtype=float))
    return _stft_rows(window, ns, X, XI, rel_tol)


def stft_basis(n, x, xi, window, rel_tol=1e-13):
    """V_g eps_n(x, xi) = e^{-2 pi i xi.n} Z_N(conj g)(n - x, xi)."""
    n = np.atleast_1d(np.asarray(n, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(_stft_rows(window, n[None, :], x, xi, rel_tol)[0])


def stft(coeffs, x, xi, window, rel_tol=1e-13):
    """Short-time transform of phi = sum_n coeffs[n] eps_n at one point."""
    window = _require_decay(window)
    p = window.params
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != p.shape:
        raise ShapeMismatchError(f"coefficients must have shape {p.shape}")
    V = stft_basis_grid(window, x, xi, rel_tol)
    return complex((coeffs.reshape(-1) @ V).reshape(-1)[0])


# ---------------------------------------------------------------------------
# quadrature grids and reference inner products

# entries of V (basis functions x grid points) held in memory at once
_CHUNK = 1 << 17


def tn_axes(params, nx, nxi, midpoint=False):
    """Axis nodes and cell volume of the uniform product grid on T_N.

    Returns (xs, xis, w): the nx time nodes in [0, N), the nxi frequency
    nodes in [0, 1), shared by every axis, and the cell volume w.
    """
    if nx < 1 or nxi < 1:
        raise GaborError(f"a T_N grid needs nx, nxi >= 1, got nx={nx}, nxi={nxi}")
    off = 0.5 if midpoint else 0.0
    d, N = params.d, params.N
    xs = (np.arange(nx) + off) * (N / nx)
    xis = (np.arange(nxi) + off) * (1.0 / nxi)
    w = (N / nx) ** d * (1.0 / nxi) ** d
    return xs, xis, w


def tn_grid(params, nx, nxi, midpoint=False):
    """Uniform product grid on T_N = [0, N)^d x [0, 1)^d.

    nx and nxi are points per time and frequency axis.  Returns (X, XI, w)
    with X, XI of shape (P, d) and w the cell volume; for periodic smooth
    integrands the plain w-weighted sum is the spectrally accurate
    trapezoid/midpoint rule.  Points run in C order over the axes
    (x_1..x_d, xi_1..xi_d).
    """
    xs, xis, w = tn_axes(params, nx, nxi, midpoint)
    d = params.d
    pts, _ = _product_points([xs] * d + [xis] * d, 0, (nx * nxi) ** d)
    return pts[:, :d], pts[:, d:], w


def _product_points(axes, start, stop):
    # points start..stop-1 of the C-order product of the axes, shape
    # (stop - start, len(axes)), and the per-axis indices they came from
    idx = np.unravel_index(np.arange(start, stop), [len(a) for a in axes])
    return np.stack([a[i] for a, i in zip(axes, idx)], axis=-1), idx


def stft_basis_tn_grid(window, nx, nxi, midpoint=False, rel_tol=1e-13):
    """V_g eps_n on the points of tn_grid, in blocks of whole x-node rows.

    Yields (X, XI, V) for consecutive point ranges of
    tn_grid(params, nx, nxi, midpoint); V has shape (N^d, len(X)) and equals
    stft_basis_grid(window, X, XI, rel_tol) to roundoff; each block is one
    matmul A_n @ E (module docstring).  n - x lies in (-N, N)^d for every x in
    [0, N)^d, the range _zak_box certifies.  A block holds at most _CHUNK
    entries of V, and at least one x node; E (len(_zak_box) x nxi^d) and the
    n phases (N^d x nxi^d) are built once and held whole.
    """
    window = _require_decay(window)
    p = window.params
    N, d = p.N, p.d
    xs, xis, _ = tn_axes(p, nx, nxi, midpoint)
    ns = np.indices(p.shape).reshape(d, -1).T.astype(float)
    k = _zak_box(window, rel_tol).astype(float)
    J = ns[:, None, :] - N * k  # (N^d, K, d)
    XI, _ = _product_points([xis] * d, 0, nxi ** d)
    E = np.exp(2j * np.pi * N * (k @ XI.T))  # (K, nxi^d), shared by every n
    phase = np.exp(-2j * np.pi * (ns @ XI.T))[:, None, :]
    per_x = nxi ** d
    rows = max(1, _CHUNK // (len(ns) * per_x))
    for r0 in range(0, nx ** d, rows):
        r1 = min(r0 + rows, nx ** d)
        Xb, _ = _product_points([xs] * d, r0, r1)
        A = window.conj_fn(J[:, None, :, :] - Xb[None, :, None, :])
        V = (A.reshape(-1, len(k)) @ E).reshape(len(ns), r1 - r0, per_x)
        V *= phase
        pts, _ = _product_points([xs] * d + [xis] * d, r0 * per_x, r1 * per_x)
        yield pts[:, :d], pts[:, d:], V.reshape(len(ns), -1)


def tn_grid_gram(window, nx, nxi, weight=None, midpoint=False):
    """S[m, n] = sum_p w_p conj(V_m(p)) V_n(p) over the points p of tn_grid.

    weight(X, XI) gives w at a block of points (None means w = 1) and must be
    finite there, and so must the sum: a finite weight whose products
    overflow is rejected once the sum is complete.  The V_n come block by
    block from stft_basis_tn_grid, so V is never held for the whole grid.
    """
    dim = window.params.dim_sn
    S = np.zeros((dim, dim), dtype=complex)
    for X, XI, V in stft_basis_tn_grid(window, nx, nxi, midpoint):
        Vw = V.conj()
        if weight is not None:
            w = weight(X, XI)
            if not np.all(np.isfinite(w)):
                raise GaborError("weight samples must be finite at every T_N grid point")
        # an overflow leaves S non-finite, which is checked below, so numpy
        # need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            if weight is not None:
                # in place, so at most two V-sized arrays are alive at a time
                Vw *= w
            S += Vw @ V.T
        del V, Vw
    if not np.all(np.isfinite(S)):
        raise GaborError("the weighted T_N-grid sum overflowed: weight samples are too large")
    return S


def l2_inner_product(w1, w2, rel_tol=1e-12):
    """<w1, w2> over R^d by tensor trapezoid with automatic refinement.

    Both windows must carry decay envelopes; the integration box comes from
    the combined envelope and the step is halved until the value stabilizes.
    """
    _require_decay(w1), _require_decay(w2)
    if w1.params.d != w2.params.d:
        raise ShapeMismatchError("windows have different dimensions")
    d = w1.params.d
    C1, a1 = w1.decay
    C2, a2 = w2.decay
    a = a1 + a2
    T = math.sqrt(max(80.0, -math.log(max(rel_tol, 1e-300))) / a)
    # point count is per axis, so the refinement cap shrinks with dimension
    n = 128 if d == 1 else 32
    n_cap = 2 ** 14 if d == 1 else 2 ** 10
    prev = None
    while n <= n_cap:
        ts = np.linspace(-T, T, n + 1)
        mesh = np.meshgrid(*([ts] * d), indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        vals = w1(pts) * np.conj(w2(pts))
        h = ts[1] - ts[0]
        val = complex(vals.sum() * h ** d)
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-30):
            return val
        prev = val
        n *= 2
    raise theta.ToleranceUnreachableError("window inner product did not stabilize")
