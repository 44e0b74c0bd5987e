"""Phase-space localization operators on S_N and their spectral asymptotics.

A symbol a(x, xi) on the torus [0,1)^d x [0,1)^d is applied by restricting
the coherent-state resolution of the identity, M[m, n] = ||h||_L2^{-2} times
the integral over T_N of a(x/N, xi) V_n conj(V_m), with V_n the short-time
transform of the n-th Dirac comb against the Gaussian window h
(transforms.stft_basis_grid, the pointwise reference of the tests).  The
Heisenberg group acts on the Bargmann sections by translations, so the
symbol e^{2 pi i nu.(x, xi)}, nu = (p, q) in Z^{2d}, gives

    M = gamma_Omega(nu) W_N(nu),   gamma_Omega(p, q) = e^{-(pi/2N) (p - Omega q)^H Y^{-1} (p - Omega q)},

with Y = Im Omega and W_N(p, q)[m, m + q mod N] = e^{pi i p.(2m + q)/N}.
restriction_matrix sums M = sum_nu a_L(nu) gamma_Omega(nu) W_N(nu) with a_L
the DFT of the symbol at L midpoint nodes per axis, which is exactly the
midpoint rule of that integral; it rejects non-finite samples and doubles L
until the whole matrix settles in relative Frobenius norm.  That is the only
grid-doubling loop of the package: every other series is a certified
lattice sum (theta.certified_lattice_sum) or a truncated Heisenberg series.
The truncated series runs over the integer points of the ellipsoid where
gamma_Omega is not negligible (_heisenberg_kernel); a restriction builds
that kernel once and every doubling level reuses it.  For a == 1 the series
is the identity up to roundoff.  The Gram matrix of the Bargmann sections is
that matrix times sqrt(det Im Omega / (2N)^d) (bargmann.gram), and the
Bergman density is the trace part of the series (bargmann.bergman_density).

Symbols come from small builtins (Constant, BoxIndicator, TrigPoly) or from
a tiny expression language, e.g. "sin(pi*x1)^2 * sin(pi*xi1)^2".
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import theta, transforms
from .core import GaborError, QuadratureUnderResolvedError, exact_sum, lattice_ellipsoid, validate


class ParseError(GaborError):
    """Symbol text could not be parsed; offset is a 0-based byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    """Identifier is not a variable of this dimension or a known function."""


class NonHermitianBeyondToleranceError(GaborError):
    """A symbol declared real produced a matrix that is not Hermitian."""


class EigSolverFailure(GaborError):
    """The dense eigensolver did not converge."""


# ---------------------------------------------------------------------------
# symbols


class Symbol:
    """Callable a(x, xi) with x, xi arrays of shape (..., d), coords in [0,1)."""

    d = 1
    is_real = True
    description = "symbol"

    def __call__(self, x, xi):
        raise NotImplementedError

    def on_grid(self, axes):
        """The symbol on the open grid of axes, as an array of their broadcast shape.

        axes[k] holds the coordinates along axis k of (x_1..x_d, xi_1..xi_d),
        shaped (r, 1, ..., 1) for k = 0, (1, m, 1, ..., 1) for k = 1 and so on.
        This default builds the grid points and calls the symbol on them.
        """
        shape = _grid_shape(axes)
        pts = np.empty(shape + (len(axes),))
        for k, ax in enumerate(axes):
            pts[..., k] = ax
        pts = pts.reshape(-1, len(axes))
        return np.asarray(self(pts[:, :self.d], pts[:, self.d:])).reshape(shape)


def _grid_shape(axes):
    return np.broadcast_shapes(*(np.shape(ax) for ax in axes))


class Constant(Symbol):
    def __init__(self, value, d=1):
        self.value = complex(value) if np.iscomplexobj(np.asarray(value)) else float(value)
        if not np.isfinite(self.value):
            raise GaborError(f"constant symbol must be finite, got {self.value}")
        self.d = d
        self.is_real = not isinstance(self.value, complex)
        self.description = f"constant {self.value}"

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.value)

    def on_grid(self, axes):
        return np.full(_grid_shape(axes), self.value)


class BoxIndicator(Symbol):
    """Indicator of the box prod [lo_i, hi_i) in (x_1..x_d, xi_1..xi_d)."""

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size % 2 != 0:
            raise GaborError("box needs matching lo/hi of length 2d")
        if np.any(hi < lo):
            raise GaborError("box has hi < lo")
        self.lo, self.hi = lo, hi
        self.d = lo.size // 2
        self.is_real = True
        self.description = f"box {lo.tolist()}..{hi.tolist()}"

    def __call__(self, x, xi):
        pts = np.concatenate([np.asarray(x, float), np.asarray(xi, float)], axis=-1)
        pts = pts % 1.0
        inside = np.all((pts >= self.lo) & (pts < self.hi), axis=-1)
        return inside.astype(float)


class TrigPoly(Symbol):
    """Finite Fourier sum: terms maps a 2d-tuple of integer frequencies to a
    coefficient, a(x, xi) = sum_nu c_nu exp(2 pi i nu . (x, xi))."""

    def __init__(self, d, terms):
        self.d = d
        self.terms = {}
        for nu, c in terms.items():
            nu = tuple(int(v) for v in nu)
            if len(nu) != 2 * d:
                raise GaborError(f"frequency {nu} must have 2d = {2 * d} entries")
            self.terms[nu] = complex(c)
        self.is_real = all(
            abs(self.terms.get(tuple(-v for v in nu), 0.0) - c.conjugate()) < 1e-15
            for nu, c in self.terms.items()
        )
        self.description = f"trig polynomial, {len(self.terms)} terms"

    def __call__(self, x, xi):
        pts = np.concatenate([np.asarray(x, float), np.asarray(xi, float)], axis=-1)
        acc = np.zeros(pts.shape[:-1], dtype=complex)
        for nu, c in self.terms.items():
            acc += c * np.exp(2j * np.pi * (pts @ np.asarray(nu, float)))
        return acc.real if self.is_real else acc

    def shifted(self, by):
        """Translate by a phase-space vector: a(. - by)."""
        by = np.asarray(by, dtype=float)
        return TrigPoly(self.d, {
            nu: c * np.exp(-2j * np.pi * float(np.dot(nu, by)))
            for nu, c in self.terms.items()
        })


_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "step": lambda t: np.where(t >= 0, 1.0, 0.0),
}


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number {text[i:j]!r}", i) from None
            toks.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | power
    power := atom ('^' factor)?
    atom := number | name | name '(' expr ')' | '(' expr ')'"""

    def __init__(self, text, d):
        self.toks = _tokenize(text)
        self.pos = 0
        self.d = d

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = ("binop", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = ("binop", op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner = self.factor()
            return inner if tok[0] == "+" else ("neg", inner)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            node = ("binop", "^", node, self.factor())
        return node

    def atom(self):
        tok = self.take()
        kind, val, off = tok
        if kind == "num":
            return ("num", val)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if val in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", val, arg)
            if val == "pi":
                return ("num", math.pi)
            for prefix, slot in (("xi", 1), ("x", 0)):
                if val.startswith(prefix) and val[len(prefix):].isdigit():
                    idx = int(val[len(prefix):])
                    if not 1 <= idx <= self.d:
                        raise UnknownVariableError(
                            f"variable {val!r} out of range for d = {self.d}", off)
                    return ("var", slot, idx - 1)
            raise UnknownVariableError(f"unknown name {val!r}", off)
        raise ParseError(f"unexpected token {val!r}", off)


def _eval_node(node, var):
    # var(slot, i) is the coordinate array of x_{i+1} (slot 0) or xi_{i+1} (slot 1)
    kind = node[0]
    if kind == "num":
        # numpy scalars, so 0/0 or 10^400 give nan/inf instead of raising
        return np.float64(node[1])
    if kind == "var":
        return var(node[1], node[2])
    if kind == "neg":
        return -_eval_node(node[1], var)
    if kind == "call":
        return _FUNCS[node[1]](_eval_node(node[2], var))
    op, lhs, rhs = node[1], _eval_node(node[2], var), _eval_node(node[3], var)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return lhs / rhs
    return lhs ** rhs


class Expr(Symbol):
    """Symbol defined by expression text over x1..xd, xi1..xid."""

    def __init__(self, text, d=1):
        self.text = text
        self.d = d
        self.node = _Parser(text, d).parse()
        self.is_real = True  # the grammar has no complex literals
        self.description = text

    def __call__(self, x, xi):
        x, xi = np.asarray(x, float), np.asarray(xi, float)
        return self.on_grid([c[..., i] for c in (x, xi) for i in range(self.d)])

    def on_grid(self, axes):
        # each node runs on the axes its subtree uses, so on an open grid a
        # function of x1 alone costs m evaluations, not the whole block;
        # non-finite samples are reported by whoever consumes them
        with np.errstate(all="ignore"):
            out = _eval_node(self.node, lambda slot, i: axes[slot * self.d + i])
        shape = _grid_shape(axes)
        if np.shape(out) != shape:
            out = np.full(shape, out)
        return out


def parse_symbol(text, d=1):
    return Expr(text, d)


# ---------------------------------------------------------------------------
# restriction matrices


@dataclasses.dataclass(frozen=True, eq=False)
class RestrictionReport:
    """Localization matrix plus the quadrature trail that produced it."""

    matrix: np.ndarray
    trace: complex
    oversample: int
    trace_history: list
    change: float
    symbol_description: str


# truncation bound of a restriction matrix's series, relative to max |a|
_SERIES_BOUND = 1e-16


def _heisenberg_kernel(params, scale, bound):
    """Blocks (nu, Q) of the nu in Z^{2d} kept in a series sum_nu c_nu e^{-scale Q(nu)}.

    Q(nu) = nu' H nu = (p - Omega q)^H Y^{-1} (p - Omega q) for nu = (p, q),
    with H = [[Y^{-1}, -Y^{-1} X], [-X Y^{-1}, X Y^{-1} X + Y]], X = Re Omega
    and Y = Im Omega.  The box [-R, R]^{2d} has the theta.tail_radius of
    e^{-scale lambda_min(H) |nu|^2} at bound; inside it a term with
    scale Q > -log(bound) + 2d log(2R + 1) is dropped, and each such term is
    at most bound / (2R + 1)^{2d}.  So a series with |c_nu| <= 1 loses at most
    2 bound.  Only the integer points of that ellipsoid are enumerated
    (core.lattice_ellipsoid, a superset clipped to the box), and the test
    scale * ((nu @ H) * nu).sum(axis=1) <= cut is applied to them exactly as
    to the whole box: the kept nu, their C order and the bits of Q are those
    of a walk over the box.  The blocks hold at most _CHUNK / 8d candidates,
    so nu (int32) and the few arrays a caller derives from it hold about
    _CHUNK numbers.
    """
    d = params.d
    X, Y = params.re, params.im
    Yinv = np.linalg.inv(Y)
    H = np.block([[Yinv, -Yinv @ X], [-X @ Yinv, X @ Yinv @ X + Y]])
    # R grows like sqrt(N / lambda_min(H)): 171 at N = 1024, Omega = i, bound 1e-16
    R = theta.tail_radius(scale * float(np.linalg.eigvalsh(H)[0]), 2 * d, bound,
                          offset=0.0, r_cap=1000)
    cut = -math.log(bound) + 2 * d * math.log(2 * R + 1)
    step = max(1, transforms._CHUNK // (8 * d))
    for nu in lattice_ellipsoid(H, cut / scale, step, radius=R):
        Q = ((nu @ H) * nu).sum(axis=1)
        keep = scale * Q <= cut
        yield nu[keep], Q[keep]


def _midpoint_samples(symbol, m):
    # the symbol at the midpoint nodes (j + 1/2) / m of [0, 1)^{2d}, in C
    # order, in blocks of first-axis rows of about _CHUNK coordinates, one
    # on_grid call per block: the grid points are never held whole, and an
    # Expr never builds them at all
    n = 2 * symbol.d
    axis = (np.arange(m) + 0.5) / m
    rest = [axis.reshape((1,) * k + (m,) + (1,) * (n - 1 - k)) for k in range(1, n)]
    rows = max(1, transforms._CHUNK // (n * m ** (n - 1)))
    for r0 in range(0, m, rows):
        first = axis[r0:r0 + rows].reshape((-1,) + (1,) * (n - 1))
        yield np.asarray(symbol.on_grid([first] + rest)).reshape(-1)


def _level_matrix(symbol, params, L, kernel):
    """The midpoint-rule matrix at L nodes per axis, summed as its Heisenberg series.

    sum_nu a_L(nu) gamma_Omega(nu) W_N(nu), a_L the DFT of the samples at the
    L midpoint nodes per axis.  kernel holds, per block of _heisenberg_kernel,
    the parts of the terms that do not depend on L, as restriction_matrix
    builds them once: nu, -(pi/2N) Q, the W_N phase (p.q mod 2N) / N, sum(nu)
    and the raveled index of nu mod N into B.  A level only gathers a_L(nu),
    reduces the midpoint phase e^{-pi i sum(nu) / L} exactly and takes one
    exp per term.
    """
    N, d = params.N, params.d
    rows = (L,) * (2 * d - 1)
    # real samples keep the last axis up to L // 2, the rest is F(-nu) = conj F(nu)
    F = np.empty(rows + (L // 2 + 1 if symbol.is_real else L,), dtype=complex)
    B = np.zeros((N,) * (2 * d), dtype=complex)
    # an overflow leaves M non-finite, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        # the last axis is transformed block by block as the samples come, and
        # the others in place, so F is the only grid-sized array
        r0 = 0
        for v in _midpoint_samples(symbol, L):
            if not np.all(np.isfinite(v)):
                raise GaborError("symbol samples must be finite at every midpoint node")
            v = v.reshape((-1,) + rows[1:] + (L,))
            F[r0:r0 + len(v)] = np.fft.rfft(v.real) if symbol.is_real else np.fft.fft(v)
            r0 += len(v)
        for axis in range(2 * d - 1):
            np.fft.fft(F, axis=axis, out=F)
        for nu, gauss, pq, nusum, fold in kernel:
            flip = nu[:, -1] % L >= F.shape[-1]
            idx = np.where(flip[:, None], -nu, nu) % L
            ahat = F.reshape(-1)[np.ravel_multi_index(idx.T, F.shape)]
            np.conjugate(ahat, out=ahat, where=flip)
            # e^{pi i p.q / N} of W_N and e^{-pi i sum(nu) / L} of the midpoint
            # nodes, with both integers reduced exactly
            ahat *= np.exp(gauss + 1j * np.pi * (pq - nusum % (2 * L) / L))
            np.add.at(B.reshape(-1), fold, ahat)
        # M[m, m + s] = sum_r B[r, s] e^{2 pi i r.m / N}
        C = np.fft.ifftn(B, axes=tuple(range(d))) * (N ** d / L ** (2 * d))
    m = np.indices(params.shape).reshape(d, -1).T
    cols = np.ravel_multi_index(np.moveaxis((m[:, None] + m[None, :]) % N, -1, 0), params.shape)
    M = np.empty((params.dim_sn, params.dim_sn), dtype=complex)
    M[np.arange(params.dim_sn)[:, None], cols] = C.reshape(params.dim_sn, -1)
    if not np.all(np.isfinite(M)):
        raise GaborError("the symbol's Fourier sum overflowed: samples are too large")
    return M


# largest entry of M - M^H, relative to max(1, max |M|), that a real symbol's
# restriction matrix may show before symmetrization, and below which spectrum
# treats its input as Hermitian
_RESTRICTION_HERMITIAN_TOL = 1e-8
_SPECTRUM_HERMITIAN_TOL = 1e-10


def restriction_matrix(symbol, params, oversample=4, rel_tol=1e-8, max_doublings=3):
    """Localization matrix of the symbol, grid-doubled until the matrix settles.

    Level k samples the symbol at L = oversample * N midpoint nodes per axis
    (oversample doubling with k) and sums its Heisenberg series (module
    docstring) over one _heisenberg_kernel, built once per call with the
    parts of each term that do not depend on L.  A level is accepted once
    ||M_k - M_{k-1}||_F <= rel_tol ||M_k||_F (the norm floored at 1e-300);
    report.change is that relative change at the accepted level and
    trace_history holds (oversample, trace) per level.  Raises
    QuadratureUnderResolvedError when the change still exceeds rel_tol after
    max_doublings doublings.  Real symbols yield a matrix that is Hermitian
    up to FFT roundoff; it is symmetrized, and NonHermitianBeyondToleranceError
    flags anything larger.
    """
    validate(params)
    if symbol.d != params.d:
        raise GaborError(f"symbol dimension {symbol.d} != params dimension {params.d}")
    if oversample < 1:
        raise GaborError(f"oversample must be >= 1, got {oversample}")
    N, d = params.N, params.d
    scale = math.pi / (2 * N)
    # the terms' parts that do not depend on L (_level_matrix), int32 where integer
    kernel = [(nu, -scale * Q, np.einsum("ij,ij->i", nu[:, :d], nu[:, d:]) % (2 * N) / N,
               np.einsum("ij->i", nu),
               np.ravel_multi_index(tuple((nu % N).T), (N,) * (2 * d)).astype(np.int32))
              for nu, Q in _heisenberg_kernel(params, scale, _SERIES_BOUND)]
    history = []
    prev = None
    change = None
    ov = oversample
    for _ in range(max_doublings + 1):
        M = _level_matrix(symbol, params, ov * N, kernel)
        history.append((ov, complex(np.trace(M))))
        if prev is not None:
            change = float(np.linalg.norm(M - prev) / max(np.linalg.norm(M), 1e-300))
            if change <= rel_tol:
                break
        prev = M
        ov *= 2
    else:
        measured = "not measured" if change is None else f"{change:.3e}"
        raise QuadratureUnderResolvedError(
            f"relative matrix change (Frobenius) {measured} at oversample {ov // 2} "
            f"after {max_doublings} doublings; rel_tol = {rel_tol:.1e}"
        )
    if symbol.is_real:
        asym = float(np.abs(M - M.conj().T).max())
        scale = max(1.0, float(np.abs(M).max()))
        if asym > _RESTRICTION_HERMITIAN_TOL * scale:
            raise NonHermitianBeyondToleranceError(
                f"asymmetry {asym:.3e} for a symbol declared real"
            )
        M = 0.5 * (M + M.conj().T)
    return RestrictionReport(
        matrix=M,
        trace=complex(np.trace(M)),
        oversample=ov,
        trace_history=history,
        change=change,
        symbol_description=symbol.description,
    )


# ---------------------------------------------------------------------------
# spectra


@dataclasses.dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigendata of a localization matrix."""

    eigenvalues: np.ndarray
    singular_values: np.ndarray
    trace: complex
    hermitian: bool
    nonnormal: bool

    def count_below(self, alpha):
        return int(np.count_nonzero(self.eigenvalues.real < alpha))

    def count_above(self, alpha):
        return int(np.count_nonzero(self.eigenvalues.real > alpha))

    def plunge_fraction(self, delta, symbol_max=1.0):
        lam = self.eigenvalues.real
        inside = np.count_nonzero((lam > delta) & (lam < symbol_max - delta))
        return inside / lam.size


def spectrum(restriction):
    """Eigenvalues of a restriction matrix (or raw square array).

    Hermitian input goes through the symmetric solver; otherwise the general
    solver runs and the report flags non-normality, in which case eigenvalues
    alone understate the operator and the singular values should be read too.
    """
    M = restriction.matrix if isinstance(restriction, RestrictionReport) \
        else np.asarray(restriction, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise GaborError("restriction matrix must be square")
    scale = max(1.0, float(np.abs(M).max()))
    herm = float(np.abs(M - M.conj().T).max()) <= _SPECTRUM_HERMITIAN_TOL * scale
    try:
        svals = np.linalg.svd(M, compute_uv=False)
        if herm:
            lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T)).astype(complex)
            nonnormal = False
        else:
            lam = np.linalg.eigvals(M)
            lam = lam[np.argsort(lam.real)]
            comm = M @ M.conj().T - M.conj().T @ M
            nonnormal = float(np.linalg.norm(comm)) > _SPECTRUM_HERMITIAN_TOL * scale ** 2
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    return SpectrumReport(
        eigenvalues=lam,
        singular_values=svals,
        trace=complex(np.trace(M)),
        hermitian=herm,
        nonnormal=nonnormal,
    )


# ---------------------------------------------------------------------------
# asymptotics


@dataclasses.dataclass(frozen=True, eq=False)
class SweepRow:
    """Scaled spectral statistics for one grid size N."""

    N: int
    trace_scaled: float
    counts_scaled: dict
    plunge: float


@dataclasses.dataclass(frozen=True, eq=False)
class SweepReport:
    """Sweep over N with phase-space targets for the scaled statistics.

    trace_scaled rows approach the symbol's mean; counts_scaled[alpha]
    approaches the volume of {a < alpha}.  Both targets come from a midpoint
    grid on [0,1)^2d (2048^2 nodes in d = 1, 48^4 in d = 2), sampled on its
    open grid (Symbol.on_grid).  integral_target is the correctly rounded sum
    of the samples (core.exact_sum, equal to math.fsum) divided by their
    count, so it does not depend on summation order; in d = 1 the count is
    2^22, the division is exact and the value is the correctly rounded mean
    of the samples.  volume_targets[alpha] is the exact count of samples
    below alpha over the number of samples.  A non-finite sample, or a sum
    beyond double precision, is a GaborError.
    """

    rows: list
    integral_target: float
    volume_targets: dict
    symbol_description: str


def _phase_space_targets(symbol, alphas):
    m = 2048 if symbol.d == 1 else 48
    below = {float(a): 0 for a in alphas}

    def blocks():
        for vals in _midpoint_samples(symbol, m):
            vals = vals.real
            for a in below:
                below[a] += np.count_nonzero(vals < a)
            yield vals

    # the correctly rounded sum does not depend on the order in which a given
    # numpy build would add the samples; it also rejects non-finite samples
    size = m ** (2 * symbol.d)
    integral = exact_sum(blocks(), f"the symbol samples on the {m}^{2 * symbol.d} target grid")
    return integral / size, {a: float(c / size) for a, c in below.items()}


def asymptotic_sweep(symbol, n_list, Omega, d=1, alphas=(0.5,), oversample=4,
                     rel_tol=1e-8, max_doublings=3, plunge_delta=0.1):
    """Scaled trace and eigenvalue counts along a list of grid sizes N."""
    from .core import GaborParams

    if isinstance(symbol, str):
        symbol = parse_symbol(symbol, d)
    rows = []
    for N in n_list:
        params = GaborParams(d=symbol.d, N=int(N), Omega=Omega)
        rep = restriction_matrix(symbol, params, oversample=oversample,
                                 rel_tol=rel_tol, max_doublings=max_doublings)
        spec = spectrum(rep)
        nd = params.dim_sn
        rows.append(SweepRow(
            N=int(N),
            trace_scaled=float(spec.trace.real) / nd,
            counts_scaled={float(a): spec.count_below(a) / nd for a in alphas},
            plunge=spec.plunge_fraction(plunge_delta),
        ))
    integral, volumes = _phase_space_targets(symbol, alphas)
    return SweepReport(
        rows=rows,
        integral_target=integral,
        volume_targets=volumes,
        symbol_description=symbol.description,
    )
