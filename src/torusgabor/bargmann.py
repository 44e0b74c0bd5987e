"""Holomorphic torus sections attached to signals, and their Bergman geometry.

A signal with coefficients a_n on I_N maps to the entire function

    B a(z) = sum_n a_n sum_{k in Z^d} exp(pi i (n+Nk)'Omega(n+Nk)/N - 2 pi (n+Nk)'z),

which obeys the order-N shift identities B(z + i m) = B(z) and
B(z - i Omega k) = exp(-pi i N k'Omega k + 2 pi N k'z) B(z) for integer m, k.
With the invariant weight

    phi(z) = pi (z' (Im Omega)^{-1} conj(z) + Re(z' (Im Omega)^{-1} z)),

the combination |B a(z)|^2 e^{-N phi(z)} is a genuine function on the torus
C^d / Lambda, so all magnitude reporting happens in that gauge and raw values
travel as ScaledComplex.  The basis sections B eps_n are orthogonal in
L^2(e^{-N phi}) over a fundamental domain and span an N^d-dimensional space;
the Gram matrix assembled here verifies both numerically.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import theta as theta_mod
from . import transforms
from .core import GaborError, QuadratureUnderResolvedError, im_min_eig, validate
from .theta import ScaledComplex, certified_lattice_sum, sum_scaled_exponents, theta_eval


def weight_phi(z, params):
    """phi(z) = pi (z' Yinv conj(z) + Re(z' Yinv z)) with Y = Im Omega.

    Works on batched z of shape (..., d); the two quadratic forms combine to
    2 pi (Re z)' Yinv (Re z), so phi depends on the real part alone and is
    invariant under the purely imaginary period directions.
    """
    z = np.asarray(z, dtype=complex)
    yinv = np.linalg.inv(params.im)
    h = np.einsum("...i,ij,...j->...", z, yinv, np.conj(z))
    b = np.einsum("...i,ij,...j->...", z, yinv, z)
    return np.pi * (h.real + b.real)


def chern_matrix(params):
    """Coefficient matrix (Im Omega)^{-1} of the translation-invariant curvature form."""
    return np.linalg.inv(params.im)


# grid points held in memory at once during Gram assembly
_GRID_CHUNK = 1 << 16


@dataclasses.dataclass(frozen=True, eq=False)
class SectionValue:
    """Section value at a point: raw scaled value plus its gauge-invariant magnitude."""

    raw: ScaledComplex
    weighted_mag: float
    cross_check_residual: float | None = None


def _basis_sum(n, z, params, tol, min_radius=0):
    N, om = params.N, params.Omega
    x = z.real
    c = n / N + np.linalg.solve(params.im, x)
    k0 = -np.round(c)
    chat = c + k0
    decay = math.pi * N * im_min_eig(params)
    log_scale = 0.5 * N * float(weight_phi(z, params))
    offset = max(0.5, float(np.abs(chat).max()))

    def exponent_fn(j):
        q = n[None, :] + N * (j + k0[None, :])
        quad = np.einsum("ki,ij,kj->k", q, om, q)
        return 1j * np.pi * quad / N - 2.0 * np.pi * (q @ z)

    s, _, _ = certified_lattice_sum(
        exponent_fn, decay, params.d, tol, offset=offset, log_scale=log_scale,
        min_radius=min_radius,
    )
    return s


def bargmann_basis(n, z, params, tol=1e-12, cross_check=False):
    """Evaluate the basis section B eps_n at z by the direct lattice series.

    With cross_check=True the prefactor-times-theta identity

        B eps_n(z) = exp(pi i n'Omega n/N - 2 pi z'n) theta_N(Omega n/N + i z)

    is evaluated as an independent second path and the relative discrepancy
    is attached to the result (a warning is emitted above 1e-9).
    """
    validate(params)
    n = np.atleast_1d(np.asarray(n, dtype=int))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if n.shape != (params.d,) or z.shape != (params.d,):
        raise GaborError(f"n and z must be {params.d}-vectors")
    s = _basis_sum(n, z, params, tol)
    wmag = s.magnitude(-0.5 * params.N * float(weight_phi(z, params)))
    resid = None
    if cross_check:
        other = bargmann_basis_theta_form(n, z, params, tol)
        num = (s + (-other)).magnitude()
        den = max(s.magnitude(), other.magnitude())
        resid = num / den if den > 0.0 else 0.0
        if resid > 1e-9:
            warnings.warn(
                f"bargmann basis cross-check residual {resid:.3e} at n={n}, z={z}",
                stacklevel=2,
            )
    return SectionValue(raw=s, weighted_mag=float(wmag), cross_check_residual=resid)


def bargmann_basis_theta_form(n, z, params, tol=1e-12):
    """B eps_n via the theta closed form; used as a cross-check only."""
    n = np.atleast_1d(np.asarray(n, dtype=int))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    om = params.Omega
    pref = ScaledComplex.from_exponent(
        1j * np.pi * (n @ om @ n) / params.N - 2.0 * np.pi * (z @ n)
    )
    ev = theta_eval(om @ n / params.N + 1j * z, params, order=params.N, tol=tol)
    return pref * ev.value


def bargmann(coeffs, z, params, tol=1e-12):
    """Section value B a(z) for a signal a, accumulated in scaled arithmetic."""
    validate(params)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != params.shape:
        raise GaborError(f"coefficients must have shape {params.shape}")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    # log(a_n B eps_n(z)) for every nonzero coefficient
    exps = []
    for idx in np.ndindex(params.shape):
        a = coeffs[idx]
        if a != 0.0:
            s = _basis_sum(np.asarray(idx, dtype=int), z, params, tol)
            exps.append(np.log(a) + s.logmag + 1j * np.angle(s.phase))
    raw = sum_scaled_exponents(exps)
    wmag = raw.magnitude(-0.5 * params.N * float(weight_phi(z, params)))
    return SectionValue(raw=raw, weighted_mag=float(wmag))


# ---------------------------------------------------------------------------
# Gram matrix of the basis sections


@dataclasses.dataclass(frozen=True, eq=False)
class GramReport:
    """Weighted L^2 Gram matrix of the basis sections over a fundamental domain."""

    matrix: np.ndarray
    rank: int
    onb_constant: float
    offdiag_residual: float
    onb_constant_candidates: dict
    grid_history: list


def _gram_at(params, per_axis, series_tol=1e-14):
    d, N, om, Y = params.d, params.N, params.Omega, params.im
    axis = np.arange(per_axis) / per_axis
    A = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    B = A.copy()
    Pa, Pb = len(A), len(B)

    # absolute series target relative to the smallest weighted lead term on the cell
    lead_floor = math.exp(-math.pi * N * float(np.linalg.eigvalsh(Y)[-1]) * d / 4.0)
    R = theta_mod.tail_radius(math.pi * N * im_min_eig(params), d, series_tol * lead_floor)
    ks = theta_mod.lattice_box(-(R + 2), R, d)

    ns = np.indices(params.shape).reshape(d, -1).T
    nd = params.dim_sn

    # weight exponent on the a-grid: e^{-pi N a'Ya}
    wa = math.pi * N * np.einsum("pi,ij,pj->p", A, Y, A)

    G = np.zeros((nd, nd), dtype=complex)
    # chunk the b-grid so the stacked section values stay in memory bounds
    bchunk = max(1, min(Pb, _GRID_CHUNK // max(Pa, 1)))
    for b0 in range(0, Pb, bchunk):
        Bc = B[b0:b0 + bchunk]
        W = np.empty((nd, Pa, len(Bc)), dtype=complex)
        for i, n in enumerate(ns):
            q = n[None, :] + N * ks  # (K, d)
            quad = np.einsum("ki,ij,kj->k", q, om, q)
            e1 = np.exp(
                (1j * np.pi / N) * quad[None, :]
                + 2j * np.pi * (A @ (om @ q.T))
                - wa[:, None]
            )  # (Pa, K); every entry has magnitude <= 1
            e2 = np.exp(-2j * np.pi * (Bc @ q.T))  # (Bc, K)
            W[i] = e1 @ e2.T
        Wf = W.reshape(nd, -1)
        G += Wf @ Wf.conj().T
    # mean over the grid times the fundamental-domain volume det(Y)
    G *= float(np.linalg.det(Y)) / (Pa * Pb)
    # G[m, n] = integral of B eps_n conj(B eps_m) e^{-N phi}
    return G.conj()


def gram(params, oversample=8, rel_stab=1e-6, max_doublings=3, series_tol=1e-14):
    """Gram matrix G_{mn} of the weighted basis sections over a fundamental domain.

    Tensor trapezoid on the periodic cell coordinates (a, b) in [0,1)^{2d},
    z = -i Omega a + i b, volume element det(Im Omega); the grid is doubled
    until G changes by less than rel_stab in relative Frobenius norm.
    """
    validate(params)
    per = oversample * params.N
    prev = None
    history = []
    for _ in range(max_doublings + 1):
        G = _gram_at(params, per, series_tol)
        if prev is not None:
            change = float(np.linalg.norm(G - prev) / max(np.linalg.norm(G), 1e-300))
            history.append((per, change))
            if change <= rel_stab:
                return _gram_report(params, G, history)
        else:
            history.append((per, float("nan")))
        prev = G
        per *= 2
    raise QuadratureUnderResolvedError(
        f"gram quadrature still changing after {max_doublings} doublings"
    )


def _gram_report(params, G, history):
    evals = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    rank = int((evals > 1e-8 * evals.max()).sum())
    diag = np.real(np.diag(G))
    c = float(diag.mean())
    off = G - np.diag(np.diag(G))
    offres = float(np.abs(off).max() / diag.mean())
    dety = float(np.linalg.det(params.im))
    candidates = {
        # two closed-form predictions for ||B eps_n||^2 under this measure;
        # they disagree with each other, so both are reported and only the
        # proportionality G = c I is asserted
        "sqrt(det Im Omega / (2N)^d)": math.sqrt(dety / (2.0 * params.N) ** params.d),
        "det Im Omega / (2N)^d": dety / (2.0 * params.N) ** params.d,
    }
    return GramReport(
        matrix=G,
        rank=rank,
        onb_constant=c,
        offdiag_residual=offres,
        onb_constant_candidates=candidates,
        grid_history=history,
    )


# ---------------------------------------------------------------------------
# zero counting and the Bergman density


def section_winding(coeffs, params, tol=1e-10, max_attempts=5):
    """Winding number of z -> B coeffs(z) along the fundamental parallelogram (d = 1).

    Counts the zeros of the section in one fundamental domain; the contour is
    jittered when it grazes a zero.
    """
    validate(params)
    if params.d != 1:
        raise GaborError("zero counting by winding is a d = 1 operation")
    om = complex(params.Omega[0, 0])

    def f(zz):
        return bargmann(coeffs, np.array([zz]), params, tol=tol).raw

    last = None
    for attempt in range(max_attempts):
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


@dataclasses.dataclass(frozen=True, eq=False)
class DensityReport:
    """Bergman density sampled on a T_N product grid."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    values: np.ndarray
    integral: float
    vmin: float
    vmax: float

    def flatness(self):
        """(vmax - vmin) / mean, with an order-fixed mean (math.fsum)."""
        mean = math.fsum(self.values.ravel()) / self.values.size
        return float((self.vmax - self.vmin) / mean)


def bergman_density(params, oversample=8, rel_tol=1e-13):
    """rho(x, xi) = sum_n |V_h eps_n(x, xi)|^2 / ||h||_{L^2}^2 for the Gaussian window.

    The normalizer is the continuous L^2 norm of the window, which makes the
    exact integral of rho over T_N equal to N^d; the trapezoid quadrature of
    the sampled values is reported alongside for comparison.  It sums the
    samples with math.fsum, so it does not depend on summation order.
    """
    validate(params)
    win = transforms.GaussianWindow(params)
    nx = oversample * params.N
    nxi = oversample * params.N
    X, XI, w = transforms.tn_grid(params, nx, nxi)
    V = transforms.stft_basis_grid(win, X, XI, rel_tol)
    rho = (np.abs(V) ** 2).sum(axis=0) / win.l2_norm_sq()
    shape = (nx,) * params.d + (nxi,) * params.d
    values = rho.reshape(shape)
    return DensityReport(
        x_nodes=np.arange(nx) * (params.N / nx),
        xi_nodes=np.arange(nxi) / nxi,
        values=values,
        integral=math.fsum(rho) * w,
        vmin=float(values.min()),
        vmax=float(values.max()),
    )
