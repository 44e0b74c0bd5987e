"""Certified evaluation of lattice Gaussian (theta) series.

The order-n theta series attached to a Siegel matrix Omega is

    theta_n(z, Omega) = sum_{k in Z^d} exp(pi i n k'Omega k + 2 pi i n k'z),

an entire function of z in C^d with the quasiperiodicity

    theta_n(z + m + Omega k) = exp(-pi i n k'Omega k - 2 pi i n k'z) theta_n(z)

for integer vectors m, k.  Every order-n section of the theta line bundle
obeys the same identity: theta_n itself, and the Bargmann section B a of
bargmann at w = i z with n = N.  So one function, _reduce, moves a batch of
points by lattice translates into the centred cell and returns the exponent e
of the factor each section picks up; theta_eval and bargmann.bargmann sum
their series at the reduced points, whose leading term has unit size, over a
centred box whose radius carries an explicit Gaussian tail bound, and
multiply the factor back.  That factor and the metric weights downstream
overflow double precision separately but not combined, so values travel as a
log-magnitude plus a unit phase (ScaledComplex).  The factor's exponent e is
off, in its phase and in its log-magnitude alike, by at most a few 2^-52
times the summed size of its terms; where that bound exceeds the requested
tol, e is rounded once from its exact rational value, and where even that
half ulp exceeds tol the result is an error, not a value; so is a series
whose own exponents are rounded past tol, weighted by term (_check_rounding).

For d = 1 the order-1 series vanishes once per cell, at the half period
(1 + Omega)/2; theta_zero_1d returns that point and checks it with theta_eval.
winding_number counts the zeros of sections along polygonal contours.

The periodized Gaussian window, the short-time transform of the Dirac combs
and the Bargmann sections are Gaussian lattice series too, sections of the
same theta line bundle; this module alone decides how far any of them runs:
gaussian_box_tail, tail_radius (a-priori radius), lattice_box, and
certified_lattice_sum, which theta_eval, bargmann.bargmann,
transforms.periodize_sample and transforms.stft_basis_grid all call.  It
takes a batch of P points (one point is a batch of one) and sums one box of
the a-priori radius in shell order, so that the golden files keep their
bytes, in blocks of points; only the points that fall short are summed
again, each on the box of its own radius, so a point's bits do not depend on
the batch.  theta_eval takes one point or P points and makes one
certified_lattice_sum call for all of them.

What does not depend on z is computed once.  The checks on Omega, with
Y = Im Omega, Y^{-1} and lambda_min(Y), run when the GaborParams is made and
are stored on it.  The rest is memoised: gaussian_box_tail and tail_radius
(pure functions of their scalar arguments); the shell-ordered box
(_shell_box, keyed on radius and d); and theta_eval's quadratic part
i pi n k'Omega k over that box (_theta_quad, keyed on the params object, the
order n and the radius).  The caches are module-level and bounded by fixed
sizes, so a fresh import starts cold, and their arrays are read-only.  The
solve with Y in _reduce stays per batch: it depends on z, and an inverse
computed once would move the rounding of Y^{-1} Im z, and with it the
reduced point of a z on a cell edge.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .core import GaborError


class ToleranceUnreachableError(GaborError):
    """The certified truncation could not reach the requested tolerance."""


class WindingNotOneError(GaborError):
    """section_winding found no zero-free contour: each jittered one grazed a zero."""


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

    def to_complex(self):
        """May overflow to inf; magnitude reporting should use magnitude()."""
        with np.errstate(over="ignore"):
            return np.exp(self.logmag) * self.phase

    def magnitude(self, log_shift=0.0):
        """exp(logmag + log_shift); log_shift folds in weights such as -N phi/2."""
        return np.exp(self.logmag + log_shift)


_LOWEST = -np.finfo(float).max


def sum_scaled_exponents(exponents):
    """Stable sum of exp(e) over the last axis of complex exponents (zero if empty).

    Fields of shape e.shape[:-1], one per row; each row's bits are those of
    Python's abs, math.log and complex division, whatever the numpy build.
    """
    e = np.asarray(exponents, dtype=complex)
    # the shift m starts at the lowest double, not -inf, so that a row without
    # terms, or whose terms are all exp(-inf), sums to an exact zero
    m = e.real.max(axis=-1, initial=_LOWEST, keepdims=True)
    s = np.exp(e - m).sum(axis=-1, keepdims=True)
    mag = np.hypot(s.real, s.imag)
    logmag = m + np.array([math.log(v) if v else -math.inf
                           for v in mag.ravel().tolist()]).reshape(mag.shape)
    s[mag == 0.0], mag[mag == 0.0] = 1.0, 1.0  # a zero sum has the phase 1
    # the real and the imaginary part divided by mag, as one float array
    phase = (s.view(float) / mag).view(complex)
    return ScaledComplex(logmag[..., 0], phase[..., 0])


# ---------------------------------------------------------------------------
# certified box summation


def lattice_box(lo, hi, d):
    """Integer points of the box [lo, hi]^d, shape (K, d), in C order."""
    return np.indices((hi - lo + 1,) * d).reshape(d, -1).T + lo


@functools.lru_cache(maxsize=4096)
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


@functools.lru_cache(maxsize=4096)
def tail_radius(a, d, bound, offset=0.5, r_cap=200):
    """Smallest R >= 1 with gaussian_box_tail(a, R, d, offset) <= bound.

    The tail does not increase with R, so R is bracketed by doubling and then
    found by bisection.  Raises ToleranceUnreachableError when no R <= r_cap
    reaches the bound.
    """
    def reached(R):
        return gaussian_box_tail(a, R, d, offset) <= bound

    lo, hi = 0, 1
    while not reached(hi):
        if hi >= r_cap:
            raise ToleranceUnreachableError(f"Gaussian tail above {bound:.1e} at radius {r_cap}")
        lo, hi = hi, min(2 * hi, r_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


# exponents evaluated per block of points in certified_lattice_sum
_BLOCK = 1 << 17


@functools.lru_cache(maxsize=32)
def _shell_box(R, d):
    """lattice_box(-R, R, d) stably sorted by max-norm; read-only."""
    box = lattice_box(-R, R, d)
    box = box[np.argsort(np.abs(box).max(axis=1), kind="stable")]
    box.setflags(write=False)
    return box


def certified_lattice_sum(exponent_fn, decay, d, tol, offset=0.5, log_scale=0.0):
    """Sum exp(exponent_fn(k, rows)) over k in Z^d on a certified box, for each of P points.

    log_scale holds one number per point (a scalar is one point).  Every term of
    point p must satisfy |exp(e)| <= exp(log_scale[p] - decay |k + c|^2) for some
    |c|_inf <= offset, where exponent_fn(k, rows) maps the (K, d) box to the
    (len(rows), K) exponents e of the point indices rows.  Every point is summed
    on the box of the a-priori radius tail_radius(decay, d, tol, offset), in
    blocks of points whose exponents hold about _BLOCK numbers.  A point whose
    tail exceeds tol relative to its sum is summed again, with the other such
    points of its radius, on the box of the radius certified relative to that
    sum, then to tail underflow (ToleranceUnreachableError past radius 200).
    So a point's bits do not depend on the other points.  The box runs in shell
    order, in which the sum once grew, so a cancelling sum keeps its bits (and the
    golden files); exponent_fn gets the read-only box that _shell_box caches per
    (radius, d).  Returns (ScaledComplex of shape (P,), largest radius, tail bound
    relative to each sum).
    """
    def relative(tail, ls, lm):  # a nan sum stays uncertified: nan <= tol is false
        return 0.0 if tail == 0.0 else math.exp(min(math.log(tail) + ls - lm, 700.0))

    scale = np.asarray(log_scale, dtype=float).reshape(-1)

    def sums(rows, R):  # (logmag, phase, relative tail bound) of the points rows
        box = _shell_box(R, d)
        step = max(1, _BLOCK // len(box))
        lm, ph = np.empty(len(rows)), np.empty(len(rows), dtype=complex)
        for i in range(0, len(rows), step):
            s = sum_scaled_exponents(exponent_fn(box, rows[i:i + step]))
            lm[i:i + step], ph[i:i + step] = s.logmag, s.phase
        tail = gaussian_box_tail(decay, R, d, offset)
        return lm, ph, np.array([relative(tail, ls, m)
                                 for ls, m in zip(scale[rows].tolist(), lm.tolist())])

    radius = tail_radius(decay, d, tol, offset)
    logmag, phase, bound = sums(np.arange(len(scale)), radius)
    largest = radius
    for grow in range(2):  # the radius certified relative to the sum, then underflow
        certified = bound <= tol
        if np.count_nonzero(certified) == certified.size:
            break
        radii = {}
        for i in np.flatnonzero(~certified).tolist():
            target = tol * math.exp(min(logmag[i] - scale[i], 0.0)) if grow == 0 else 0.0
            radii.setdefault(tail_radius(decay, d, target, offset), []).append(i)
        for R, rows in radii.items():
            logmag[rows], phase[rows], bound[rows] = sums(np.array(rows), R)
        largest = max(largest, *radii)
    return ScaledComplex(logmag, phase), largest, bound


# ---------------------------------------------------------------------------
# theta evaluation


@dataclasses.dataclass(frozen=True, eq=False)
class ThetaEval:
    """Evaluation record: scaled value, box radius, certified relative tail.

    Scalar fields for one point; for P points value and tail_bound have shape
    (P,) and radius is the largest box radius.
    """

    value: ScaledComplex
    radius: int
    tail_bound: float | np.ndarray


@functools.lru_cache(maxsize=64)
def _theta_quad(params, order, R):
    """1j pi order k'Omega k over k = _shell_box(R, d), for params.Omega; read-only."""
    k = _shell_box(R, params.d)
    q = 1j * np.pi * order * np.einsum("ki,ij,kj->k", k, params.Omega, k)
    q.setflags(write=False)
    return q


def _points(z, d):
    """z of shape (d,) or (P, d) as a (P, d) complex array, and whether it is one point."""
    z = np.asarray(z, dtype=complex)
    w = z if z.ndim == 2 else np.atleast_1d(z)[None]
    if w.ndim != 2 or w.shape[1] != d:
        raise GaborError(f"z must have shape ({d},) or (P, {d})")
    return w, z.ndim < 2


def _quad(u, A, v):
    # u'A v for each row of the real (P, d) arrays u and v, as (u'A) v; np.vecdot
    # (which conjugates its first argument) sums each row on its own, so a row's
    # bits do not depend on the other rows
    return np.vecdot(v, np.vecdot(u[:, None, :], A.T))


def _exact_exponent(k0, om, z, order):
    # e = pi n (-(k0'Y k0 + 2 k0'Im z) + i (k0'X k0 + 2 k0'Re z)), each part
    # summed exactly in rationals and rounded once to the nearest double.
    # fractions (and with it decimal) is imported on this rare path only, so
    # that a CLI process does not pay for it
    from fractions import Fraction

    # pi to 50 decimals: a relative error near 2e-51, far below half an ulp
    pi = Fraction(314159265358979323846264338327950288419716939937511, 10 ** 50)
    k = [int(v) for v in k0]
    idx = range(len(k))

    def part(A, w):
        return (sum(Fraction(float(A[i, j])) * (k[i] * k[j]) for i in idx for j in idx)
                + 2 * sum(Fraction(float(w[i])) * k[i] for i in idx))

    return complex(float(-pi * order * part(om.imag, z.imag)),
                   float(pi * order * part(om.real, z.real)))


def _reduce(w, params, order, tol):
    """Reduce a (P, d) batch of points w by lattice translates, for sections of order n.

    With Y = Im Omega, c = Y^{-1} Im w, k0 = -round(c) and m0 = -round(Re(w + Omega k0)),
    the point wr = w + m0 + Omega k0 has Re wr in [-1/2, 1/2]^d, and cr = c + k0, which
    is Y^{-1} Im wr up to rounding, lies in [-1/2, 1/2]^d exactly (c - round(c) is
    exact).  Every order-n section s (theta_n at w, and B a at w = i z for n = N)
    satisfies s(w) = exp(e) s(wr) with e = pi i n k0'Omega k0 + 2 pi i n k0'w.
    Returns (wr, e, cr).

    An error in Im e is the phase error of exp(e), one in Re e the relative
    error of its magnitude.  Each part of e sums terms whose moduli add up to
    at most pi n (|k0|'|Omega||k0| + 2|k0|'|w|), with at most 2d + 5
    roundings (two length-d dot products, pi, the products by n and by 2, the
    final sum), so it is off by at most (d + 4) 2^-52 times that, however
    much the terms cancel.  Where that exceeds tol, e is rounded once from its
    exact value, which leaves half an ulp per part.  A point whose e is not
    finite, or whose half ulp exceeds tol, raises ToleranceUnreachableError.
    """
    om = params.Omega
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.linalg.solve(params.im, w.imag[:, :, None])[:, :, 0]
        k0 = -np.rint(c)
        z1 = w + np.vecdot(k0[:, None, :], om)
        wr = z1 - np.rint(z1.real)
        e = 1j * np.pi * order * _quad(k0, om, k0) + 2j * np.pi * order * np.vecdot(k0, w)
    if not np.isfinite(e).all():
        raise ToleranceUnreachableError("lattice reduction overflows double precision")
    ak = np.abs(k0)
    size = math.pi * order * (_quad(ak, np.abs(om), ak) + 2 * np.vecdot(ak, np.abs(w)))
    for i in ((w.shape[1] + 4) * 2.0 ** -52 * size > tol).nonzero()[0].tolist():
        e[i] = _exact_exponent(k0[i], om, w[i], order)
        if max(math.ulp(e[i].real), math.ulp(e[i].imag)) / 2 > tol:
            raise ToleranceUnreachableError(
                f"reduction factor exp(e), |e| = {abs(e[i]):.1e}: its phase and magnitude "
                f"are not certified to tol={tol:.1e}"
            )
    return wr, e, c + k0


def _check_rounding(e0, e, scale, rows, tol, what):
    """Raise ToleranceUnreachableError where the exponents e0 are rounded past tol.

    Each e0 is off by about err = |e0| 2^-52.  Above tol, err is weighed by its
    term's size exp(e) relative to exp(scale) of its point (one of rows), which
    err may understate by e^err.
    """
    rounding = 2.0 ** -52 * float(np.abs(e0).max())  # the cheap test; most calls stop here
    if rounding > tol:
        with np.errstate(over="ignore", invalid="ignore"):
            err = 2.0 ** -52 * np.abs(e0)
            rounding = float((err * np.exp(e.real - scale[rows, None] + err)).max())
    if not rounding <= tol:
        raise ToleranceUnreachableError(
            f"{what} exponents are rounded by {rounding:.1e}, not certified to tol={tol:.1e}")


def theta_eval(z, params, order=1, tol=1e-12):
    """Evaluate theta_order(z, Omega) at one point z (d,) or at P points (P, d), certified.

    Each point is first translated by a lattice vector m + Omega k into the
    centred cell (_reduce); the exact quasiperiodicity factor, certified to tol,
    is multiplied back into the returned ScaledComplex, so the reported value is
    the series at the original z.  tail_bound is the certified bound on the
    omitted terms relative to the kept partial sum.  Exponents rounded past tol,
    as for a large Re Omega, raise ToleranceUnreachableError (_check_rounding,
    as in bargmann).  All points make one
    certified_lattice_sum call, and each keeps the bits of its one-point call.
    """
    if order < 1:
        raise GaborError("order must be a positive integer")
    w, one = _points(z, params.d)
    wr, e, c = _reduce(w, params, order, tol)
    # a term is at most exp(pi n c'Y c - pi n lambda_min(Y) |k + c|^2), with
    # c'Y c = c' Im wr and |c|_inf <= 1/2, the default offset
    scale = math.pi * order * np.vecdot(c, wr.imag)

    def exponent_fn(k, rows):  # k is a shell box, whose last row is (R, ..., R)
        ek = (_theta_quad(params, order, int(k[-1, 0]))
              + 2j * np.pi * order * np.vecdot(k, wr[rows, None, :]))
        _check_rounding(ek, ek, scale, rows, tol, "series")
        return ek

    s, radius, bound = certified_lattice_sum(
        exponent_fn, math.pi * order * params.im_min, params.d, tol, log_scale=scale)
    value = ScaledComplex.from_exponent(e) * s
    if not value.logmag.max(initial=-math.inf) < math.inf:
        raise ToleranceUnreachableError("theta value overflows double precision")
    if one:
        value = ScaledComplex(float(value.logmag[0]), complex(value.phase[0]))
        bound = float(bound[0])
    return ThetaEval(value=value, radius=radius, tail_bound=bound)


# ---------------------------------------------------------------------------
# winding numbers along polygonal contours


# intervals per polygon edge in winding_number's first call; bisection levels
_SAMPLES_PER_EDGE = 32
_MAX_DEPTH = 28


def winding_number(f, vertices):
    """Winding of t -> f(gamma(t)) around 0 along a closed polygon.

    f maps a 1-d array of complex points to a ScaledComplex of that shape.  One
    call samples _SAMPLES_PER_EDGE intervals per edge; one call per level bisects
    those whose phase step exceeds pi/2, so f runs at most _MAX_DEPTH + 1 times.
    The count is exact unless the contour passes essentially through a zero:
    then ContourNearZeroError is raised and the caller may jitter the contour.
    """
    def phases(zz):
        val = f(zz)
        zero = ~np.isfinite(val.logmag)
        if zero.any():
            raise ContourNearZeroError(f"exact zero on contour at {zz[zero][0]}")
        return np.asarray(val.phase, dtype=complex)

    za = np.asarray(vertices, dtype=complex)
    ts = np.linspace(0.0, 1.0, _SAMPLES_PER_EDGE + 1)
    pts = za[:, None] + (np.roll(za, -1) - za)[:, None] * ts   # one row per edge
    vals = phases(pts.ravel()).reshape(pts.shape)
    p0, p1 = pts[:, :-1].ravel(), pts[:, 1:].ravel()
    v0, v1 = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    total = 0.0
    for depth in range(_MAX_DEPTH + 1):
        d_ang = np.angle(v1 / v0)
        ok = np.abs(d_ang) <= 0.5 * math.pi
        total += math.fsum(d_ang[ok])
        if ok.all():
            break
        if depth == _MAX_DEPTH:
            raise ContourNearZeroError("phase step stayed above pi/2 after repeated bisection")
        p0, p1, v0, v1 = p0[~ok], p1[~ok], v0[~ok], v1[~ok]
        pm = 0.5 * (p0 + p1)
        vm = phases(pm)
        p0, p1, v0, v1 = np.r_[p0, pm], np.r_[pm, p1], np.r_[v0, vm], np.r_[vm, v1]
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
    bargmann.section_winding).  It returns the representative
    z0 = -i Omega/2 + i/2, whose lattice coefficients are exactly (1/2, 1/2),
    with no solve.  Its weighted magnitude |theta_1(i z0)|
    e^{-phi(z0)/2}, phi(z) = 2 pi (Re z)^2 / Im Omega, is evaluated by theta_eval
    and must be below tol, else ToleranceUnreachableError is raised.
    """
    if params.d != 1:
        raise GaborError("theta_zero_1d requires d = 1")
    om = complex(params.Omega[0, 0])
    z0 = -0.5j * om + 0.5j
    ev = theta_eval(np.array([1j * z0]), params, order=1, tol=1e-10)
    weighted = float(ev.value.magnitude(-math.pi * z0.real ** 2 / om.imag))
    if not weighted < tol:
        raise ToleranceUnreachableError(
            f"weighted |theta_1| at the half period is {weighted:.1e}, not below tol={tol:.1e}"
        )
    return z0
