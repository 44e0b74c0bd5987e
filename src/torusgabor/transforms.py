"""Discrete Gabor transform and the Gaussian window on S_N.

Signals are complex arrays of shape (N,)*d indexed by I_N = (Z_N)^d with the
plain coefficient inner product.  The discrete Gabor transform with window g
is

    V_g f[k, l] = sum_m f[m] conj(g[m - k]) exp(-2 pi i l.m / N),

all index arithmetic mod N.  Summing |V_g f|^2 over the full N^{2d} grid
gives N^d ||f||^2 ||g||^2, so the time-frequency shifts of any nonzero
window form a tight frame and inversion is a single weighted sum.

The continuous window is the Gaussian h(t) = conj(exp(pi i t'(Omega/N) t)).
The short-time transform of the Dirac comb eps_n against it is

    V_h eps_n(x, xi) = sum_{w in n - x + N Z^d} e^{pi i w'Omega w/N - 2 pi i xi.(x + w)},

a Gaussian lattice series, the Bargmann section B eps_n at
z = i (Omega x/N + xi) times a phase that does not depend on n.  Its
conjugate at (x, xi) = (0, 0) is the periodization (P h)[n] = sum_k h(n - kN)
that samples the window onto I_N, and at the integer samples (k, l/N) the
transform of sum_n a_n eps_n is the discrete transform of a against that
window.  periodize_sample and stft_basis_grid each evaluate the series as
one theta.certified_lattice_sum over the (n, point) pairs, so every value's
tail is certified relative to that value.  stft_basis_grid is the pointwise
reference for the localization matrices and the Bergman density, which
localization and bargmann sum as Heisenberg series instead.
"""

from __future__ import annotations

import math

import numpy as np

from . import theta
from .core import MAX_NODES, GaborError, check_nodes


class ShapeMismatchError(GaborError):
    """Signal/window/coefficient arrays have incompatible shapes."""


class ZeroWindowError(GaborError):
    """The window has zero norm; inversion is undefined."""


class NonFiniteInputError(GaborError):
    """A signal, window or coefficient array holds a NaN or an infinity."""


# ---------------------------------------------------------------------------
# the Gaussian window


class GaussianWindow:
    """Window h(t) = conj(exp(pi i t'(Omega/N) t)).

    |h(t)| = exp(-pi t'(Im Omega) t / N), so the squared L2 norm has the
    closed form sqrt(N^d / (2^d det Im Omega)).
    """

    def __init__(self, params):
        self.params = params

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        q = np.einsum("...i,ij,...j->...", t, self.params.Omega, t)
        return np.conj(np.exp(1j * np.pi * q / self.params.N))


# truncation tolerances of the series, relative to each value
_PERIODIZE_TOL = 1e-14
_STFT_TOL = 1e-13


def _delta_stft(params, X, XI, tol):
    # V_h eps_n at the points (X, XI) of shape (M, d), as an (N^d, M) array.
    # u = n - x is recentred to u0 = u - N m, m = round(u/N), so the series
    # runs over w = u0 - N k, k in Z^d.  A term
    # e^{pi i w'Omega w/N - 2 pi i xi.(n - N m - N k)} is a(row) + b(row).k + c(k)
    # in the exponent and at most e^{-pi lambda_min(Y) N |k - u0/N|^2}, with
    # |u0/N|_inf <= 1/2.  The rows times the terms of the a-priori box are
    # refused above MAX_NODES before any per-row array is built
    N, d, om = params.N, params.d, params.Omega
    decay = math.pi * params.im_min * N
    rows, terms = params.dim_sn * len(X), (2 * theta.tail_radius(decay, d, tol) + 1) ** d
    if rows * terms > MAX_NODES:
        raise GaborError(f"the window series of {rows} rows x {terms} terms = {rows * terms} "
                         f"exceeds the limit of {MAX_NODES}")
    n = np.indices(params.shape).reshape(d, -1).T[:, None, :]
    u = n - X
    m = np.floor(u / N + 0.5)
    u0 = (u - N * m).reshape(-1, d)
    xi = np.broadcast_to(XI, u.shape).reshape(-1, d)
    a = (1j * np.pi / N) * np.einsum("pi,ij,pj->p", u0, om, u0) \
        - 2j * np.pi * np.einsum("pi,pi->p", xi, (n - N * m).reshape(-1, d))
    b = 2j * np.pi * (N * xi - u0 @ om)

    def exponent_fn(k, rows):
        k = k.astype(float)
        e = b[rows] @ k.T
        e += a[rows, None]
        e += 1j * np.pi * N * np.einsum("ki,ij,kj->k", k, om, k)
        return e

    offset = max(0.5, float(np.abs(u0).max(initial=0.0)) / N)
    s, _, _ = theta.certified_lattice_sum(exponent_fn, decay, d, tol,
                                          offset=offset, log_scale=np.zeros(len(a)))
    return s.to_complex().reshape(u.shape[:-1])


def periodize_sample(window):
    """Sample the periodization (P h)[n] = sum_k h(n - kN) of a GaussianWindow on I_N.

    It is conj(V_h eps_n(0, 0)), one certified series per n, each truncated
    at _PERIODIZE_TOL relative to its own value.  N^d rows times the terms of
    the a-priori box above core.MAX_NODES is a GaborError, raised before the
    rows are built.
    """
    p = window.params
    zero = np.zeros((1, p.d))
    return np.conj(_delta_stft(p, zero, zero, _PERIODIZE_TOL)).reshape(p.shape)


def stft_basis_grid(window, X, XI):
    """V_h eps_n at every point, for every n in I_N, for a GaussianWindow h.

    X, XI have shape (..., d) and broadcast; the result has shape (N^d, ...)
    ordered by C-order enumeration of I_N.  Positions need not be reduced:
    n - x is recentred in the series (module docstring), whose truncation is
    certified to _STFT_TOL relative to each value.  N^d times the points
    (rows) times the terms of the a-priori box above core.MAX_NODES is a
    GaborError, raised before the rows are built.
    """
    p = window.params
    X, XI = np.broadcast_arrays(np.atleast_2d(np.asarray(X, dtype=float)),
                                np.atleast_2d(np.asarray(XI, dtype=float)))
    pts = X.shape[:-1]
    V = _delta_stft(p, X.reshape(-1, p.d), XI.reshape(-1, p.d), _STFT_TOL)
    return V.reshape((p.dim_sn,) + pts)


# ---------------------------------------------------------------------------
# discrete Gabor transform


def _check_signal(f, name="signal"):
    f = np.asarray(f, dtype=complex)
    N = f.shape[0] if f.ndim else 0
    if f.ndim < 1 or any(s != N for s in f.shape):
        raise ShapeMismatchError(f"{name} must be shaped (N,)*d, got {f.shape}")
    return f


def time_frequency_shift(h, k, l):
    """(M_l T_k h)[m] = exp(2 pi i l.m / N) h[m - k] with cyclic index shifts.

    One shift k, l of shape (d,) gives one atom; a stack of shape (K, d) gives
    K atoms, shaped (K,) + h.shape, from the shift table _shift_view and one
    (K, N^d) exponent l.m, each with the bits of its own one-shift call.
    """
    h = _check_signal(h, "window")
    d, N = h.ndim, h.shape[0]
    ks = np.atleast_2d(np.asarray(k, dtype=int))
    ls = np.atleast_2d(np.asarray(l, dtype=int))
    if ks.ndim != 2 or ks.shape[1] != d or ls.shape != ks.shape:
        raise ShapeMismatchError(f"shifts must be ({d},) or (K, {d}), got {ks.shape}, {ls.shape}")
    # in place, so a stack holds two arrays of its size at once
    atoms = np.exp(2j * np.pi * (ls @ np.indices(h.shape).reshape(d, -1)) / N)
    atoms = atoms.reshape((-1,) + h.shape)
    atoms *= _shift_view(h)[tuple((ks % N).T)]
    return atoms if np.ndim(k) == 2 else atoms[0]


# numbers computed per block: DGT coefficients in dgt_inverse, symbol samples
# and Heisenberg series terms in localization, orbit-key candidates and the
# atoms of one SVD block in a frame scan
_CHUNK = 1 << 17


def _shift_view(h):
    # read-only H[k, m] = h[(m - k) mod N] of shape (N,)*2d: a view into h
    # tiled 2^d times, started at the tile's (N, ..., N) corner with stride
    # -s along each k axis and +s along each m axis
    d, N = h.ndim, h.shape[0]
    tiled = np.tile(h, (2,) * d)
    s = tiled.strides
    return np.lib.stride_tricks.as_strided(
        tiled[(slice(N, None),) * d], shape=h.shape * 2,
        strides=tuple(-v for v in s) + s, writeable=False)


def _require_finite(x, name):
    if not np.isfinite(x).all():
        raise NonFiniteInputError(f"{name} has a non-finite entry")


def dgt(f, g):
    """Discrete Gabor coefficients V_g f[k, l], returned with shape (N,)*2d.

    f is multiplied into the shift table conj(g[m - k]), a zero-copy strided
    view of g, to fill one C-ordered V, and V is transformed in place along
    each frequency axis: no Python loop over the N^d shifts and no
    table-sized temporary.  A table of more than core.MAX_NODES entries is a
    GaborError, raised before it is allocated.

    A non-finite f or g is a NonFiniteInputError.  Every |V[k, l]| is at
    most sum|f| max|g|; where that bound leaves the FFT's partial sums no
    headroom below the largest double, the overflow is refused up front as
    ToleranceUnreachableError.
    """
    f = _check_signal(f)
    g = _check_signal(g, "window")
    if f.shape != g.shape:
        raise ShapeMismatchError(f"signal {f.shape} vs window {g.shape}")
    d, N = f.ndim, f.shape[0]
    check_nodes(N, 2 * d, f"the coefficient table of N^{2 * d}")
    _require_finite(f, "signal")
    _require_finite(g, "window")
    # a partial sum along one axis stays below 4N times its l1 norm: the
    # Bluestein convolution, for lengths with large prime factors, runs at a
    # length below 4N
    with np.errstate(over="ignore"):
        bound = float(np.abs(f).sum()) * float(np.abs(g).max())
    if bound > np.finfo(float).max / (8 * N):
        raise theta.ToleranceUnreachableError(
            f"coefficients up to {bound:.1e} overflow double precision")
    V = np.empty(f.shape + f.shape, dtype=complex)
    # out=V keeps V in C order; the view's own order is not
    np.multiply(f, _shift_view(np.conj(g)), out=V)
    for ax in range(2 * d - 1, d - 1, -1):
        np.fft.fft(V, axis=ax, out=V)
    return V


def dgt_inverse(V, g):
    """Invert the transform: f = (N^d ||g||^2)^{-1} sum_{k,l} V[k,l] M_l T_k g.

    The sum over l is a normalized inverse FFT, whose 1/N^d is the N^d of
    the prefactor, so f = ||g||^{-2} sum_k ifft_l(V[k])[m] g[m - k].  It runs
    over blocks of the first shift axis of about _CHUNK coefficients each
    (one row k_1 where a row is larger), against the same shift view of g as
    the forward transform; V is only read, in any memory order.

    A non-finite g is a NonFiniteInputError.  A non-finite result is one
    too when V holds a non-finite entry, and an overflow
    (ToleranceUnreachableError) otherwise; V is searched for one only then.
    """
    g = _check_signal(g, "window")
    d, N = g.ndim, g.shape[0]
    V = np.asarray(V, dtype=complex)
    if V.shape != g.shape * 2:
        raise ShapeMismatchError(f"coefficients must have shape {g.shape * 2}, got {V.shape}")
    _require_finite(g, "window")
    with np.errstate(over="ignore"):
        gnorm = float(np.vdot(g, g).real)
    if gnorm == 0.0:
        raise ZeroWindowError("window has zero norm")
    if gnorm == math.inf:
        raise theta.ToleranceUnreachableError("the window norm overflows double precision")
    G = _shift_view(g)
    rows = max(1, _CHUNK // N ** (2 * d - 1))
    buf = np.empty((min(rows, N),) + V.shape[1:], dtype=complex)
    f = np.zeros(g.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, N, rows):
            W = buf[:min(rows, N - i)]
            np.fft.ifft(V[i:i + rows], axis=2 * d - 1, out=W)
            for ax in range(2 * d - 2, d - 1, -1):
                np.fft.ifft(W, axis=ax, out=W)
            np.multiply(W, G[i:i + rows], out=W)
            f += W.sum(axis=tuple(range(d)))
        f /= gnorm
    if not np.isfinite(f).all():
        _require_finite(V, "coefficients")
        raise theta.ToleranceUnreachableError("the inverse transform overflows double precision")
    return f

