"""Certified evaluation of lattice Gaussian (theta) series.

The order-n theta series attached to a Siegel matrix Omega is

    theta_n(z, Omega) = sum_{k in Z^d} exp(pi i n k'Omega k + 2 pi i n k'z),

an entire function of z in C^d with the quasiperiodicity

    theta_n(z + m + Omega k) = exp(-pi i n k'Omega k - 2 pi i n k'z) theta_n(z)

for integer vectors m, k.  Evaluation reduces the argument by a lattice
translate so the remaining series has a unit-size leading term, sums it over
a centered box whose radius carries an explicit Gaussian tail bound, and
reassembles the exact quasiperiodicity factor.  That factor and the metric
weights downstream overflow double precision separately but not combined, so
values travel as a log-magnitude plus a unit phase (ScaledComplex).  The
factor's phase is off by about 2^-52 times its argument, so an argument too
large for the requested tol is an error, not a value.

For d = 1 the order-1 series vanishes once per cell, at the half period
(1 + Omega)/2; theta_zero_1d returns that point and checks it with theta_eval.
winding_number counts the zeros of sections along polygonal contours.

Zak sums, periodized windows and Bargmann sections are Gaussian lattice series
too; this module alone decides how far any of them runs: gaussian_box_tail,
tail_radius (a-priori radius), lattice_box, and certified_lattice_sum.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import ComplexPoint, GaborError, lattice_coefficients, validate


class ToleranceUnreachableError(GaborError):
    """The certified truncation could not reach the requested tolerance."""


class WindingNotOneError(GaborError):
    """A zero count on the fundamental domain came out different from expected."""


class ContourNearZeroError(GaborError):
    """Adaptive phase tracking hit its depth cap; the contour grazes a zero."""


# ---------------------------------------------------------------------------
# scaled complex arithmetic


@dataclasses.dataclass(frozen=True, eq=False)
class ScaledComplex:
    """Complex value represented as exp(logmag) * phase with |phase| = 1.

    logmag may be -inf for an exact zero.  Fields may be numpy arrays, in
    which case all operations act elementwise.
    """

    logmag: float | np.ndarray
    phase: complex | np.ndarray

    @classmethod
    def from_exponent(cls, e):
        """exp(e) for complex e, kept in scaled form."""
        e = np.asarray(e, dtype=complex)
        if e.ndim == 0:
            return cls(float(e.real), complex(np.exp(1j * e.imag)))
        return cls(e.real, np.exp(1j * e.imag))

    @classmethod
    def from_complex(cls, w):
        w = np.asarray(w, dtype=complex)
        mag = np.abs(w)
        with np.errstate(divide="ignore"):
            logmag = np.log(mag)
        phase = np.where(mag > 0.0, w / np.where(mag == 0.0, 1.0, mag), 1.0 + 0.0j)
        if w.ndim == 0:
            return cls(float(logmag), complex(phase))
        return cls(logmag, phase)

    def __mul__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        return ScaledComplex(self.logmag + other.logmag, self.phase * other.phase)

    __rmul__ = __mul__

    def __add__(self, other):
        # rescale both summands by the larger magnitude before adding
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        m = np.maximum(self.logmag, other.logmag)
        if np.ndim(m) == 0 and np.isneginf(m):
            return ScaledComplex(float("-inf"), 1.0 + 0.0j)
        w = self.phase * np.exp(self.logmag - m) + other.phase * np.exp(other.logmag - m)
        return ScaledComplex.from_complex(w) * ScaledComplex(m, 1.0 + 0.0j)

    def __neg__(self):
        return ScaledComplex(self.logmag, -self.phase)

    def conjugate(self):
        return ScaledComplex(self.logmag, np.conj(self.phase))

    def to_complex(self):
        """May overflow to inf; magnitude reporting should use magnitude()."""
        with np.errstate(over="ignore"):
            return np.exp(self.logmag) * self.phase

    def magnitude(self, log_shift=0.0):
        """exp(logmag + log_shift); log_shift folds in weights such as -N phi/2."""
        return np.exp(self.logmag + log_shift)


def sum_scaled_exponents(exponents):
    """Stable sum_k exp(e_k) over a 1-d array of complex exponents (zero if empty)."""
    e = np.asarray(exponents, dtype=complex)
    m = float(e.real.max()) if e.size else 0.0
    s = complex(np.exp(e - m).sum())
    mag = abs(s)
    if mag == 0.0:
        return ScaledComplex(float("-inf"), 1.0 + 0.0j)
    return ScaledComplex(m + math.log(mag), s / mag)


# ---------------------------------------------------------------------------
# certified box summation


def lattice_box(lo, hi, d):
    """Integer points of the box [lo, hi]^d, shape (K, d), in C order."""
    return np.indices((hi - lo + 1,) * d).reshape(d, -1).T + lo


def gaussian_box_tail(a, R, d, offset=0.5):
    """Upper bound for sum over |k|_inf > R of exp(-a |k + c|^2), |c|_inf <= offset.

    Shells are summed until the terms underflow; the decay is
    doubly exponential so this terminates quickly for any a > 0.
    """
    if not a > 0.0:
        return float("inf")
    total = 0.0
    r = R + 1
    for _ in range(100000):
        shell = float((2 * r + 1) ** d - (2 * r - 1) ** d)
        t = shell * math.exp(-a * max(r - offset, 0.0) ** 2)
        total += t
        if t == 0.0:
            return total
        r += 1
    return float("inf")


def tail_radius(a, d, bound, offset=0.5, factor=1.0, r_cap=200):
    """Smallest R >= 1 with factor * gaussian_box_tail(a, R, d, offset) <= bound.

    The tail does not increase with R, so R is bracketed by doubling and then
    found by bisection.  Raises ToleranceUnreachableError when no R <= r_cap
    reaches the bound.
    """
    def reached(R):
        return factor * gaussian_box_tail(a, R, d, offset) <= bound

    lo, hi = 0, 1
    while not reached(hi):
        if hi >= r_cap:
            raise ToleranceUnreachableError(f"Gaussian tail above {bound:.1e} at radius {r_cap}")
        lo, hi = hi, min(2 * hi, r_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


def certified_lattice_sum(exponent_fn, decay, d, tol, offset=0.5, log_scale=0.0,
                          min_radius=0, r_cap=200):
    """Sum exp(exponent_fn(k)) over k in Z^d by expanding centered boxes.

    `decay` is a constant a > 0 such that every term satisfies
    |exp(exponent_fn(k))| <= exp(log_scale) * exp(-a |k + c|^2) for some
    offset vector with |c|_inf <= offset.  The box radius grows until the
    certified tail falls below tol relative to the accumulated partial sum
    (and at least to min_radius).  Returns (ScaledComplex, radius, bound).
    """
    exponents = []
    r = 0
    while True:
        shell = lattice_box(-r, r, d)
        shell = shell[np.abs(shell).max(axis=1) == r]
        exponents.append(np.asarray(exponent_fn(shell), dtype=complex))
        if r >= min_radius:
            s = sum_scaled_exponents(np.concatenate(exponents))
            tail = gaussian_box_tail(decay, r, d, offset)
            if tail == 0.0:
                return s, r, 0.0
            rel = math.exp(min(math.log(tail) + log_scale - s.logmag, 700.0)) \
                if np.isfinite(s.logmag) and np.isfinite(tail) else float("inf")
            if rel <= tol:
                return s, r, rel
        if r >= r_cap:
            raise ToleranceUnreachableError(
                f"lattice sum did not reach tol={tol:.1e} by radius {r_cap}"
            )
        r += 1


# ---------------------------------------------------------------------------
# theta evaluation


@dataclasses.dataclass(frozen=True, eq=False)
class ThetaEval:
    """Evaluation record: scaled value, box radius, certified relative tail."""

    value: ScaledComplex
    radius: int
    tail_bound: float


def theta_eval(z, params, order=1, tol=1e-12, min_radius=0, r_cap=200):
    """Evaluate theta_order(z, Omega) with a certified truncation.

    The argument is translated by a lattice vector m + Omega k to make the
    imaginary part small before summation; the exact quasiperiodicity factor
    is multiplied back into the returned ScaledComplex, so the reported value
    is the series at the original z.  tail_bound is the certified bound on
    the omitted terms relative to the kept partial sum.
    """
    validate(params)
    if order < 1:
        raise GaborError("order must be a positive integer")
    om = params.Omega
    Y = params.im
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (params.d,):
        raise GaborError(f"z must be a complex {params.d}-vector")

    # reduce: zr = z + m0 + Omega k0 with small Im(zr); overflow is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = -np.round(np.linalg.solve(Y, z.imag))
        z1 = z + om @ k0
        m0 = -np.round(z1.real)
        zr = z1 + m0
        # theta(z) = exp(pi i n k0'Omega k0 + 2 pi i n k0'z) * theta(zr)
        e = 1j * np.pi * order * (k0 @ om @ k0) + 2j * np.pi * order * (k0 @ z)
        pref = ScaledComplex.from_exponent(e)
    if not (pref.logmag < math.inf and np.isfinite(pref.phase)):
        raise ToleranceUnreachableError("lattice reduction overflows double precision")
    # the phase exp(i Im e) is only as good as Im e, which is off by |Im e| 2^-52
    if abs(e.imag) * 2.0 ** -52 > tol:
        raise ToleranceUnreachableError(
            f"reduction phase {abs(e.imag):.1e} rad is not certified to tol={tol:.1e}"
        )

    chat = np.linalg.solve(Y, zr.imag)
    a = math.pi * order * float(np.linalg.eigvalsh(Y)[0])
    log_scale = math.pi * order * float(chat @ Y @ chat)
    offset = max(0.5, float(np.abs(chat).max()))

    def exponent_fn(k):
        quad = np.einsum("ki,ij,kj->k", k, om, k)
        return 1j * np.pi * order * quad + 2j * np.pi * order * (k @ zr)

    s, radius, bound = certified_lattice_sum(
        exponent_fn, a, params.d, tol, offset=offset, log_scale=log_scale,
        min_radius=min_radius, r_cap=r_cap,
    )
    if not pref.logmag + s.logmag < math.inf:
        raise ToleranceUnreachableError("theta value overflows double precision")
    return ThetaEval(value=pref * s, radius=radius, tail_bound=bound)


# ---------------------------------------------------------------------------
# winding numbers along polygonal contours


def winding_number(f, vertices, samples_per_edge=32, max_depth=28):
    """Winding of t -> f(gamma(t)) around 0 along a closed polygon.

    f maps a complex number to a ScaledComplex.  Each edge starts with
    `samples_per_edge` samples and is bisected wherever the phase increment
    between neighbours exceeds pi/2, so the count is exact unless the contour
    passes essentially through a zero, in which case ContourNearZeroError is
    raised and the caller may jitter the contour.
    """
    def phase_at(zz):
        val = f(zz)
        if not np.isfinite(val.logmag):
            raise ContourNearZeroError(f"exact zero on contour at {zz}")
        return complex(val.phase)

    total = 0.0
    nv = len(vertices)
    for i in range(nv):
        za, zb = vertices[i], vertices[(i + 1) % nv]
        ts = np.linspace(0.0, 1.0, samples_per_edge + 1)
        pts = [za + (zb - za) * t for t in ts]
        vals = [phase_at(p) for p in pts]
        stack = [(pts[j], pts[j + 1], vals[j], vals[j + 1], 0) for j in range(len(pts) - 1)]
        stack.reverse()
        while stack:
            p0, p1, v0, v1, depth = stack.pop()
            d_ang = math.atan2((v1 / v0).imag, (v1 / v0).real)
            if abs(d_ang) <= 0.5 * math.pi:
                total += d_ang
                continue
            if depth >= max_depth:
                raise ContourNearZeroError(
                    "phase step stayed above pi/2 after repeated bisection"
                )
            pm = 0.5 * (p0 + p1)
            vm = phase_at(pm)
            stack.append((pm, p1, vm, v1, depth + 1))
            stack.append((p0, pm, v0, vm, depth + 1))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise GaborError(f"winding number {w:.6f} is not close to an integer")
    return int(round(w))


# ---------------------------------------------------------------------------
# the zero of the order-1 series, d = 1


def theta_zero_1d(params, tol=1e-10):
    """The unique zero of z -> theta_1(i z, Omega) on C / Lambda (d = 1).

    theta_1 vanishes at the half period (1 + Omega)/2, so z0 = -i(1 + Omega)/2,
    and nowhere else in a cell (a section of order N has N zeros there; see
    bargmann.section_winding).  The returned representative has lattice
    coefficients in [0, 1)^2.  Its weighted magnitude |theta_1(i z0)|
    e^{-phi(z0)/2}, phi(z) = 2 pi (Re z)^2 / Im Omega, is evaluated by theta_eval
    and must be below tol, else ToleranceUnreachableError is raised.
    """
    validate(params)
    if params.d != 1:
        raise GaborError("theta_zero_1d requires d = 1")
    om = complex(params.Omega[0, 0])
    a, b = lattice_coefficients(np.array([-0.5j * (1.0 + om)]), params)
    z0 = complex(-1j * om * (a - np.floor(a))[0] + 1j * (b - np.floor(b))[0])
    ev = theta_eval(np.array([1j * z0]), params, order=1, tol=1e-10)
    weighted = float(ev.value.magnitude(-math.pi * z0.real ** 2 / om.imag))
    if not weighted < tol:
        raise ToleranceUnreachableError(
            f"weighted |theta_1| at the half period is {weighted:.1e}, not below tol={tol:.1e}"
        )
    return ComplexPoint(np.array([z0]))
