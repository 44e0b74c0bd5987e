"""Holomorphic torus sections attached to signals, and their Bergman geometry.

A signal with coefficients a_n on I_N maps to the entire function

    B a(z) = sum_n a_n sum_{k in Z^d} exp(pi i (n+Nk)'Omega(n+Nk)/N - 2 pi (n+Nk)'z),

which obeys the order-N shift identities B(z + i m) = B(z) and
B(z - i Omega k) = exp(-pi i N k'Omega k + 2 pi N k'z) B(z) for integer m, k,
those of theta_N at w = i z; so bargmann sums the series at z reduced into
the cell by the reduction theta_eval uses, and multiplies the factor back.
With the invariant weight

    phi(z) = pi (z' (Im Omega)^{-1} conj(z) + Re(z' (Im Omega)^{-1} z)),

the combination |B a(z)|^2 e^{-N phi(z)} is a genuine function on the torus
C^d / Lambda, so all magnitude reporting happens in that gauge and raw values
travel as ScaledComplex.  The basis sections B eps_n are orthogonal in
L^2(e^{-N phi}) over a fundamental domain and span an N^d-dimensional space.
Since the factor in
V_h eps_n(x, xi) = e^{pi i x'Omega x/N} B eps_n(i (Omega x/N + xi)) does not
depend on n and has modulus e^{-N phi/2}, the coherent-state resolution of
the identity makes the Gram matrix sqrt(det Im Omega / (2N)^d) times the
a == 1 localization matrix (localization.restriction_matrix), which the
constant symbol's one Fourier term makes the identity up to roundoff; the
tests check it against sums of the sections themselves.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import localization
from . import theta as theta_mod
from .core import GaborError, _exact_tiled_sum, check_nodes
from .theta import ScaledComplex, certified_lattice_sum


def weight_phi(z, params):
    """phi(z) = pi (z' Yinv conj(z) + Re(z' Yinv z)) with Y = Im Omega.

    Works on batched z of shape (..., d); the two quadratic forms combine to
    2 pi (Re z)' Yinv (Re z), so phi depends on the real part alone and is
    invariant under the purely imaginary period directions.
    """
    z = np.asarray(z, dtype=complex)
    yinv = params.im_inv
    h = np.einsum("...i,ij,...j->...", z, yinv, np.conj(z))
    b = np.einsum("...i,ij,...j->...", z, yinv, z)
    return np.pi * (h.real + b.real)


@dataclasses.dataclass(frozen=True, eq=False)
class SectionValue:
    """Section value at a point: raw scaled value plus its gauge-invariant magnitude."""

    raw: ScaledComplex
    weighted_mag: float


def bargmann(coeffs, z, params, tol=1e-12):
    """Section value B a(z) for a signal a at one point z (d,) or at P points (P, d).

    B a satisfies the order-N identities of theta_N at w = i z, so z is first
    reduced as theta_eval reduces w (theta._reduce): B a(z) = exp(e) B a(zr) with
    zr in the centred cell and e certified to tol; ToleranceUnreachableError is
    raised exactly where theta_eval(i z, order=N) raises it for the reduction.
    B a(zr) = sum_m a_{m mod N} exp(pi i m'Omega m/N - 2 pi m'zr) is one certified
    lattice sum.  Its terms are at most max|a| e^{N phi(zr)/2} exp(-(pi/N) (m - m*)'Y
    (m - m*)), m* = -N Y^{-1} Re zr, Y = Im Omega, so the box is centred at round(m*)
    and the tail is certified relative to B a(zr), also near a zero of the section.
    Each exponent is off by about |e| 2^-52; ToleranceUnreachableError is also
    raised when that rounding, weighted by the term's size relative to the
    bound, exceeds tol for some term (theta._check_rounding, as in theta_eval).
    weighted_mag is |B a(zr)| e^{-N phi(zr)/2}, which equals |B a(z)| e^{-N phi(z)/2}
    and keeps its digits far from the cell.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != params.shape:
        raise GaborError(f"coefficients must have shape {params.shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf is nan, which the reduction refuses
        w, one = theta_mod._points(1j * np.asarray(z, dtype=complex), params.d)
    N, om = params.N, params.Omega
    wr, e, c = theta_mod._reduce(w, params, N, tol)
    zr = -1j * wr
    with np.errstate(divide="ignore"):
        loga = np.log(coeffs)
    m0 = np.rint(-N * c)  # c = Y^{-1} Re zr
    phi = weight_phi(zr, params)
    # a zero signal keeps a finite scale, and its sums underflow to an exact zero
    scale = 0.5 * N * phi + math.log(np.abs(coeffs).max() or 1.0)

    def exponent_fn(j, rows):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite e fails the check
            m = m0[rows, None, :] + j
            quad = ((m @ om) * m).sum(axis=-1)
            e0 = 1j * np.pi * quad / N - 2.0 * np.pi * np.einsum("pki,pi->pk", m, zr[rows])
            e = e0 + loga[tuple(np.moveaxis(m.astype(int) % N, -1, 0))]
        theta_mod._check_rounding(e0, e, scale, rows, tol, "section")
        return e

    s, _, _ = certified_lattice_sum(
        exponent_fn, math.pi * params.im_min / N, params.d, tol, log_scale=scale)
    raw = ScaledComplex.from_exponent(e) * s
    wmag = s.magnitude(-0.5 * N * phi)
    if one:
        raw, wmag = ScaledComplex(float(raw.logmag[0]), complex(raw.phase[0])), float(wmag[0])
    return SectionValue(raw=raw, weighted_mag=wmag)


# ---------------------------------------------------------------------------
# Gram matrix of the basis sections


@dataclasses.dataclass(frozen=True, eq=False)
class GramReport:
    """Weighted L^2 Gram matrix of the basis sections over a fundamental domain."""

    matrix: np.ndarray
    rank: int
    onb_constant: float
    offdiag_residual: float
    grid_history: list


def gram(params):
    """Gram matrix G_{mn} of the weighted basis sections over a fundamental domain.

    By the identity of the module docstring, G is
    sqrt(det Im Omega / (2N)^d) times restriction_matrix(Constant(1.0, d)).
    A constant symbol has the one Fourier term nu = 0, so that matrix is the
    identity by construction, up to the roundoff of one inverse FFT, with no
    quadrature; grid_history is always empty.
    """
    rep = localization.restriction_matrix(localization.Constant(1.0, params.d), params)
    G = math.sqrt(float(np.linalg.det(params.im)) / (2.0 * params.N) ** params.d) * rep.matrix
    evals = np.linalg.eigvalsh(G)
    diag = np.real(np.diag(G))
    off = G - np.diag(np.diag(G))
    return GramReport(
        matrix=G,
        rank=int((evals > 1e-8 * evals.max()).sum()),
        onb_constant=float(diag.mean()),
        offdiag_residual=float(np.abs(off).max() / diag.mean()),
        grid_history=[],
    )


# ---------------------------------------------------------------------------
# zero counting and the Bergman density


def section_winding(coeffs, params):
    """Winding number of z -> B coeffs(z) along the fundamental parallelogram (d = 1).

    Counts the zeros of the section in one fundamental domain, from its values
    at tol 1e-10; the contour is jittered when it grazes a zero.
    """
    if params.d != 1:
        raise GaborError("zero counting by winding is a d = 1 operation")
    om = complex(params.Omega[0, 0])

    def f(zz):
        return bargmann(coeffs, zz[:, None], params, tol=1e-10).raw

    last = None
    for attempt in range(5):
        eps = 0.0171 * attempt + 0.0063 * (attempt > 0)
        corners = [
            -1j * om * eps + 1j * eps,
            -1j * om * (1.0 + eps) + 1j * eps,
            -1j * om * (1.0 + eps) + 1j * (1.0 + eps),
            -1j * om * eps + 1j * (1.0 + eps),
        ]
        try:
            return theta_mod.winding_number(f, corners)
        except theta_mod.ContourNearZeroError as exc:
            last = exc
    raise theta_mod.WindingNotOneError(f"no zero-free contour found: {last}")


_DENSITY_TOL = 1e-13


@dataclasses.dataclass(frozen=True, eq=False)
class DensityReport:
    """Bergman density on a T_N product grid, kept as its period cell.

    The grid has oversample * N nodes per axis, and rho on it is cell tiled
    N times along each of the 2d axes: values is that tiling, built on first
    use.  integral, mean, vmin and vmax are those of values, taken from cell.
    """

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    cell: np.ndarray
    N: int
    integral: float
    mean: float
    vmin: float
    vmax: float

    @functools.cached_property
    def values(self):
        return np.tile(self.cell, (self.N,) * self.cell.ndim)

    def flatness(self):
        """(vmax - vmin) / mean, with an order-fixed mean (core.exact_sum)."""
        return float((self.vmax - self.vmin) / self.mean)


def bergman_density(params, oversample=8):
    """rho(x, xi) = sum_n |V_h eps_n(x, xi)|^2 / ||h||_{L^2}^2 for the Gaussian window.

    rho is the trace part of the localization series (localization module):

        rho(x, xi) = sum_{j,k} (-1)^{N j.k} e^{-(pi N / 2) Q(j, k)} e^{2 pi i (j.x + N k.xi)},

    Q as in localization._heisenberg_kernel, truncated at _DENSITY_TOL: the
    (j, k) are the integer points of that kernel's ellipsoid, enumerated
    directly (core.lattice_ellipsoid) and cut by the same exact test.  On the
    trapezoid grid of oversample * N nodes per axis rho has period oversample,
    so the report keeps one cell (an inverse FFT of the folded coefficients),
    which tiles the grid N^{2d} times.  Its exact integral over T_N is N^d;
    the integral reported is the trapezoid sum of the grid samples, correctly
    rounded (core.exact_sum, so order-fixed): N^{2d} times the exact sum of
    the cell, rounded once, the same bits as exact_sum over the whole grid.
    A grid of more than core.MAX_NODES nodes is a GaborError, raised before
    anything is computed.
    """
    N, d, ov = params.N, params.d, oversample
    if ov < 1:
        raise GaborError(f"oversample must be >= 1, got {ov}")
    nx = ov * N
    check_nodes(nx, 2 * d, f"the density grid of (oversample * N)^{2 * d}")
    scale = math.pi * N / 2
    coeffs = np.zeros((ov,) * (2 * d))
    for jk, Q in localization._heisenberg_kernel(params, scale, _DENSITY_TOL):
        sign = 1 - 2 * (N * (jk[:, :d] * jk[:, d:]).sum(axis=1) % 2)
        np.add.at(coeffs, tuple((jk % ov).T), sign * np.exp(-scale * Q))
    cell = np.fft.ifftn(coeffs).real * ov ** (2 * d)
    total = _exact_tiled_sum([cell], N ** (2 * d), "the density values")
    return DensityReport(
        x_nodes=np.arange(nx) * (N / nx),
        xi_nodes=np.arange(nx) / nx,
        cell=cell,
        N=N,
        integral=total * (N / nx) ** d * (1.0 / nx) ** d,
        mean=total / nx ** (2 * d),
        vmin=float(cell.min()),
        vmax=float(cell.max()),
    )
