"""Parameters and lattices for the time-frequency torus.

Everything in this package is configured by a triple (d, N, Omega): the space
dimension, the number of samples per axis, and a Siegel matrix Omega
(symmetric, with positive definite imaginary part), held by a GaborParams,
which checks them once, when it is made.  Omega identifies the real torus
T_N = R^{2d} / (N Z^d x Z^d) with the complex torus T_Omega = C^d / Lambda,
where

    Lambda = -i Omega Z^d + i Z^d,      z = -i(Omega x / N + xi),

so the integer time-frequency sample (k, l) lands on z = -i(Omega k/N + l/N).
The transforms live on the real side and the frame criteria on the complex
side; this module owns the lattice coefficients of complex points (one or a
batch), a float lattice membership test (the oracle the tests hold the
integer parity rule of frames to), the integer points of an ellipsoid
(lattice_ellipsoid, behind the Heisenberg series and the section sums),
exact_sum, the correctly rounded sum behind every grid total a report
prints, and the node budget MAX_NODES of every grid and table.  The
reduction of a point into the cell, with the factor the theta series and the
sections pick up on the way, lives in theta (theta._reduce).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


class GaborError(Exception):
    """Base class for domain errors raised by this package."""


class NonSymmetricError(GaborError):
    """Omega is not symmetric within tolerance."""


class NotPositiveDefiniteError(GaborError):
    """Im(Omega) has a nonpositive eigenvalue."""


class QuadratureUnderResolvedError(GaborError):
    """Grid doubling kept changing the result; the quadrature is not converged."""


SYMMETRY_RTOL = 1e-12
# the most nodes a grid or table may have: the density grid, each quadrature
# level's midpoint grid, and the N^{2d} tables of a restriction matrix and a
# DGT are refused above it (check_nodes), before anything is allocated
MAX_NODES = 1 << 24
# largest coefficient residual at which dual_lattice_member counts a point as
# a lattice point
MEMBERSHIP_TOL = 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class GaborParams:
    """Global configuration: dimension d, samples per axis N, Siegel matrix Omega.

    The signal space has dimension N^d, the time lattice step is 1 and the
    frequency lattice step is 1/N.  Omega may be passed as a scalar for d = 1.
    Everything is checked when the params are made: d and N are positive
    integers (Python or numpy, not bool); Omega is d x d, finite, symmetric
    within SYMMETRY_RTOL, and Y = Im Omega has its smallest eigenvalue above
    d 2^-52 times its largest, the eigensolver's own error.  Y^{-1} (im_inv,
    read-only like Omega) and lambda_min(Y) (im_min) are stored.
    """

    d: int
    N: int
    Omega: np.ndarray
    im_inv: np.ndarray = dataclasses.field(init=False, repr=False)
    im_min: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        for name in ("d", "N"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise GaborError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        om = np.atleast_2d(np.asarray(self.Omega, dtype=complex))
        if om.shape != (self.d, self.d):
            raise GaborError(f"Omega must be {self.d}x{self.d}, got {om.shape}")
        om = om.copy()
        om.setflags(write=False)
        if not np.all(np.isfinite(om)):
            raise GaborError("Omega must have finite entries")
        scale = float(np.abs(om).max())
        asym = float(np.abs(om - om.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise NonSymmetricError(
                f"Omega asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|Omega| "
                f"= {SYMMETRY_RTOL * scale:.3e}"
            )
        im = om.imag
        eig = np.linalg.eigvalsh(0.5 * (im + im.T))
        low, high = float(eig[0]), float(eig[-1])
        # also refuses low <= 0, whatever the sign of high
        if low <= self.d * 2.0 ** -52 * high:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue of Im(Omega) is {low:.3e}; must be positive and "
                f"above d * 2^-52 times the largest, {high:.3e}"
            )
        im_inv = np.linalg.inv(im)
        im_inv.setflags(write=False)
        object.__setattr__(self, "Omega", om)
        object.__setattr__(self, "im_inv", im_inv)
        object.__setattr__(self, "im_min", float(np.linalg.eigvalsh(im)[0]))

    @property
    def dim_sn(self):
        """Dimension N^d of the signal space."""
        return self.N ** self.d

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def im(self):
        return self.Omega.imag

    @property
    def re(self):
        return self.Omega.real


def check_nodes(base, power, what):
    """Refuse `what`, a grid or table of base^power nodes, with a GaborError above MAX_NODES."""
    if base ** power > MAX_NODES:
        raise GaborError(f"{what} = {base}^{power} = {base ** power} nodes exceeds the "
                         f"limit of {MAX_NODES}")


def lattice_coefficients(z, params):
    """Real coefficients (a, b) with z = -i Omega a + i b, for z of shape (d,) or (P, d).

    Re z = Y a and Im z = -X a + b with Omega = X + iY: a is one solve with Y
    per point and b = Im z + X a, summed elementwise.  A GaborParams is
    checked when it is made, so Y is positive definite, not numerically
    singular, and its factorization has no zero pivot.
    """
    d = params.d
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 2 or z.shape[-1] != d:
        raise GaborError(f"expected a complex {d}-vector or (P, {d}) array, "
                         f"got shape {z.shape}")
    a = np.linalg.solve(params.im, z.real[..., None])[..., 0]
    # an overflowed a times a zero entry of X is NaN; callers check for finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        return a, z.imag + (params.re * a[..., None, :]).sum(axis=-1)


def _point_coefficients(z, params):
    # lattice_coefficients of a single finite point: a (P, d) batch, a
    # non-finite z and coefficients that overflow are refused here
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (params.d,):
        raise GaborError(f"expected a complex {params.d}-vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise GaborError(f"the point must be finite, got {z.tolist()}")
    a, b = lattice_coefficients(z, params)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise GaborError(f"the lattice coefficients of {z.tolist()} overflow")
    return a, b


@dataclasses.dataclass(frozen=True, eq=False)
class LatticeMembership:
    """Outcome of a lattice membership test, with the rounded integer witness."""

    member: bool
    a: np.ndarray
    b: np.ndarray
    residual: float


def dual_lattice_member(z, params):
    """Test z in Lambda = -i Omega Z^d + i Z^d.

    The solved real coefficients are compared with the nearest integers;
    `residual` is the largest componentwise distance, and z is a member when
    it is at most MEMBERSHIP_TOL.  For the principal polarization carried by
    Lambda the lattice dual to Lambda under the torus symplectic form is
    Lambda itself, so this is the membership of s = sum_j z_j - N z0 that
    frames.parity_predicate decides with integers.
    """
    a, b = _point_coefficients(z, params)
    wa, wb = np.round(a), np.round(b)
    if not np.all(np.abs(np.concatenate([wa, wb])) < 2.0 ** 63):
        raise GaborError(f"the integer witnesses of {np.asarray(z).tolist()} exceed 64 bits")
    residual = float(max(np.abs(a - wa).max(), np.abs(b - wb).max()))
    return LatticeMembership(
        member=residual <= MEMBERSHIP_TOL,
        a=wa.astype(int),
        b=wb.astype(int),
        residual=residual,
    )


def lattice_ellipsoid(form, bound, rows, radius=math.inf):
    """Blocks of integer points, in C order, holding all nu with nu' form nu <= bound.

    form is symmetric positive definite, n x n.  With nu_0..nu_{k-1} fixed,
    the least value of the form over real nu_{k+1}.. is y' S_k y with
    y = nu[:k+1] and S_k = inv(inv(form)[:k+1, :k+1]), a quadratic in nu_k
    whose bound interval is found in closed form.  Each interval is widened by
    one integer on each side, far more than the rounding of its ends, and
    clipped to [-radius, radius]; so the points are a superset of the
    ellipsoid, and a caller applies its own exact test.  A block groups
    consecutive rows of the previous coordinate's blocks and holds at most
    rows points (more only if one interval is longer); the coordinates are
    int32.
    """
    inv = np.linalg.inv(form)
    blocks = iter([np.zeros((1, 0), dtype=np.int32)])
    low = np.zeros((0, 0))
    for k in range(len(form)):
        S = np.linalg.inv(inv[:k + 1, :k + 1])
        blocks = _extend_prefixes(blocks, S, low, bound, rows, radius)
        low = S
    return blocks


def _extend_prefixes(blocks, S, low, bound, rows, radius):
    # append coordinate k to every prefix nu[:k] of the blocks; low is S_{k-1},
    # so y' low y is the least the form can be on the prefix
    k = len(S) - 1
    for prefix in blocks:
        mid = -(prefix @ S[k, :k]) / S[k, k]
        half = np.sqrt(np.maximum(bound - ((prefix @ low) * prefix).sum(axis=1), 0.0) / S[k, k])
        lo = np.maximum(np.ceil(mid - half) - 1, -radius).astype(np.int64)
        hi = np.minimum(np.floor(mid + half) + 1, radius).astype(np.int64)
        count = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(count)
        start = 0
        while start < len(prefix):
            done = ends[start] - count[start]
            stop = max(int(np.searchsorted(ends, done + rows, side="right")), start + 1)
            c = count[start:stop]
            out = np.empty((int(ends[stop - 1] - done), k + 1), dtype=np.int32)
            out[:, :k] = np.repeat(prefix[start:stop], c, axis=0)
            # lo of each prefix, counted from that prefix's first row in out
            first = ends[start:stop] - c - done
            out[:, k] = np.arange(len(out)) + np.repeat(lo[start:stop] - first, c)
            if len(out):
                yield out
            start = stop


def params_to_json(params):
    """Serialize to the {"d", "N", "omega_re", "omega_im"} schema."""
    return json.dumps(
        {
            "d": params.d,
            "N": params.N,
            "omega_re": params.re.tolist(),
            "omega_im": params.im.tolist(),
        }
    )


def params_from_json(text):
    """Parse parameters from the JSON schema; GaborParams checks d, N and Omega as given."""
    obj = json.loads(text)
    om = np.asarray(obj["omega_re"], dtype=float) + 1j * np.asarray(obj["omega_im"], dtype=float)
    return GaborParams(d=obj["d"], N=obj["N"], Omega=om)


# exact_sum reads at most this many values per pass, so the bin sums below stay exact
_SUM_PIECE = 1 << 17


def exact_sum(blocks, what="the values"):
    """Correctly rounded sum of the float values in an iterable of arrays.

    Equal to math.fsum of the concatenated values, so it does not depend on
    the order of the values, but one vectorised pass per block.  Each value is
    q 2^(e - 53) with q = frexp mantissa times 2^53, an integer below 2^53,
    split into a 27-bit high and a 26-bit low part; np.bincount sums each
    part per binary exponent e.  A pass holds at most _SUM_PIECE = 2^17
    values, so every bin sum is an integer below 2^27 * 2^17 = 2^44 and the
    float additions are exact.  The bins are added up as Python ints and
    rounded once by int true division, which is correctly rounded (half to
    even, subnormals included).  Unlike math.fsum, a sum whose partial sums
    overflow but whose total is finite is returned; a total beyond double
    precision, or a non-finite value, is a GaborError whose message names
    what is summed.  A zero total is +0.0.
    """
    return _exact_tiled_sum(blocks, 1, what)


def _exact_tiled_sum(blocks, copies, what):
    """exact_sum of `copies` copies of the values, from one pass over them.

    The bins add up to an exact integer, so copies times it is the exact sum
    of the copies, rounded once like exact_sum's own.
    """
    total = 0
    for block in blocks:
        flat = np.asarray(block, dtype=float).reshape(-1)
        for start in range(0, flat.size, _SUM_PIECE):
            piece = flat[start:start + _SUM_PIECE]
            if not np.isfinite(piece).all():
                raise GaborError(f"{what} must be finite")
            mant, exp = np.frexp(piece)
            mant *= 2.0 ** 27
            hi = np.floor(mant)
            # in place, so a pass holds one array of its size fewer: mant
            # becomes the low part, the last 26 bits of q as an integer
            mant -= hi
            mant *= 2.0 ** 26
            # e + 1073 >= 0: frexp gives e >= -1073 for the smallest subnormal
            exp += 1073
            for part, shift in ((hi, 26), (mant, 0)):
                sums = np.bincount(exp, weights=part)
                for e in np.flatnonzero(sums):
                    total += int(sums[e]) << (int(e) + shift)
    try:
        # the bins count units of 2^(-1073 - 53)
        return total * copies / (1 << 1126)
    except OverflowError:
        raise GaborError(f"the sum of {what} exceeds double precision") from None
