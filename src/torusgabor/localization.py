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
So every restriction matrix is the one series
M = sum_nu c_nu gamma_Omega(nu) W_N(nu), summed by _series_matrix, and
restriction_matrix only chooses, from the symbol itself, where c_nu comes
from.  A symbol with Fourier terms (Symbol.fourier_terms: TrigPoly, Constant
and the trigonometric polynomials among Expr) gives its own terms: no
sampling, no FFT of samples, no doubling, and only roundoff as error.
Every other symbol gives the midpoint rule of that integral,
c_nu = e^{-pi i sum(nu) / L} F(nu mod L) / L^{2d} with F the DFT of the
symbol at L midpoint nodes per axis; it rejects non-finite samples and
doubles L, at most _MAX_DOUBLINGS times, until the whole matrix settles in
relative Frobenius norm.  That is the only grid-doubling loop of the
package: every other series is a certified lattice sum
(theta.certified_lattice_sum) or a truncated Heisenberg series.  The
sampled series runs over the integer points of the ellipsoid where
gamma_Omega is not negligible (_heisenberg_kernel); a quadrature builds
that kernel once and every doubling level reuses it.  For a == 1 the
series is the identity up to roundoff.  The Gram matrix of the Bargmann sections is that
matrix times sqrt(det Im Omega / (2N)^d) (bargmann.gram), and the Bergman
density is the trace part of the series (bargmann.bergman_density).

Symbols come from small builtins (Constant, BoxIndicator, TrigPoly) or from
a tiny expression language, e.g. "sin(pi*x1)^2 * sin(pi*xi1)^2".
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import operator

import numpy as np

from . import theta, transforms
from .core import (GaborError, GaborParams, QuadratureUnderResolvedError, check_nodes,
                   exact_sum, lattice_ellipsoid)


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
    """The dense eigen or singular value solve has no finite answer.

    The matrix has a non-finite entry, the solver did not converge, or a
    result lies beyond double precision.
    """


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

    def fourier_terms(self):
        """The symbol's Fourier terms {nu: c_nu}, or None.

        a(x, xi) = sum_nu c_nu e^{2 pi i nu.(x, xi)} exactly, with nu a 2d-tuple
        of integers, each at most _MAX_FREQUENCY in size.  A symbol with terms
        gets its restriction matrix from them (restriction_matrix); None, the
        default, leaves it to the quadrature.
        """
        return None


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

    def fourier_terms(self):
        return {(0,) * (2 * self.d): self.value}


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
        # as for Expr, non-finite samples are reported by whoever consumes them
        with np.errstate(all="ignore"):
            for nu, c in self.terms.items():
                acc += c * np.exp(2j * np.pi * (pts @ np.asarray(nu, float)))
        return acc.real if self.is_real else acc

    def on_grid(self, axes):
        # per term, one exponential per axis on that axis alone, multiplied
        # out over the open grid, as Expr.on_grid runs each node on its axes
        acc = np.zeros(_grid_shape(axes), dtype=complex)
        with np.errstate(all="ignore"):
            for nu, c in self.terms.items():
                term = c
                for v, ax in zip(nu, axes):
                    if v:
                        term = term * np.exp(2j * np.pi * (v * np.asarray(ax, float)))
                acc += term
        return acc.real if self.is_real else acc

    def fourier_terms(self):
        if any(abs(v) > _MAX_FREQUENCY for nu in self.terms for v in nu):
            return None
        return dict(self.terms)


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


# deepest nesting an expression may have: the most operators, calls, signs and
# parentheses on one path from the top of the expression to a number or a
# variable.  The parser and the syntax-tree walkers recurse a few frames per
# level, so this keeps them well inside Python's recursion limit.
_MAX_DEPTH = 100


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | power
    power := atom ('^' factor)?
    atom := number | name | name '(' expr ')' | '(' expr ')'

    Each rule returns its node and its depth (see _MAX_DEPTH); a depth or a
    count of open levels beyond _MAX_DEPTH is a ParseError at the token that
    crosses it."""

    def __init__(self, text, d):
        self.toks = _tokenize(text)
        self.pos = 0
        self.d = d
        self.open = 0

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

    def bound(self, depth, off):
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", off)
        return depth

    def nested(self, rule, off):
        # a rule entered one level down (a parenthesis, a call's argument, a
        # sign's operand or an exponent), counted on the way down so that the
        # recursion stops at the level that crosses the bound
        self.open += 1
        self.bound(self.open, off)
        node = rule()
        self.open -= 1
        return node

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def binop(self, op, lhs, rhs, off):
        # lhs and rhs are (node, depth) pairs; the operator is a level above both
        return ("binop", op, lhs[0], rhs[0]), self.bound(max(lhs[1], rhs[1]) + 1, off)

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.take()
            node = self.binop(op, node, self.term(), off)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.take()
            node = self.binop(op, node, self.factor(), off)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            inner, depth = self.nested(self.factor, tok[2])
            return (inner if tok[0] == "+" else ("neg", inner)), self.bound(depth + 1, tok[2])
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            off = self.take()[2]
            node = self.binop("^", node, self.nested(self.factor, off), off)
        return node

    def atom(self):
        tok = self.take()
        kind, val, off = tok
        if kind == "num":
            return ("num", val), 0
        if kind == "(":
            node, depth = self.nested(self.expr, off)
            self.expect(")")
            return node, self.bound(depth + 1, off)
        if kind == "name":
            if val in _FUNCS:
                self.expect("(")
                arg, depth = self.nested(self.expr, off)
                self.expect(")")
                return ("call", val, arg), self.bound(depth + 1, off)
            if val == "pi":
                return ("num", math.pi), 0
            for prefix, slot in (("xi", 1), ("x", 0)):
                if val.startswith(prefix) and val[len(prefix):].isdigit():
                    idx = int(val[len(prefix):])
                    if not 1 <= idx <= self.d:
                        raise UnknownVariableError(
                            f"variable {val!r} out of range for d = {self.d}", off)
                    return ("var", slot, idx - 1), 0
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


# the recogniser's limits: past them a symbol keeps the quadrature route
_MAX_TERMS = 4096
_MAX_FREQUENCY = 1024     # largest |nu_i| of a Fourier term
_MAX_PAIRS = 1 << 20      # largest product, in term pairs, the recogniser forms


class _NotTrig(Exception):
    """The syntax tree is not a trigonometric polynomial of the recognised forms."""


def _has_var(node):
    if node[0] == "var":
        return True
    return any(_has_var(child) for child in node[1:] if isinstance(child, tuple))


def _constant(node):
    # a subtree without variables, evaluated as the sampler evaluates it
    value = float(_eval_node(node, None))
    if not math.isfinite(value):
        raise _NotTrig
    return value


def _collect(terms):
    # sum the coefficients of equal half-frequencies, in order, and drop exact zeros
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    out = {k: c for k, c in out.items() if c != 0}
    if (len(out) > _MAX_TERMS or not all(cmath.isfinite(c) for c in out.values())
            or any(abs(v) > 2 * _MAX_FREQUENCY for k in out for v in k)):
        raise _NotTrig
    return out


def _product(a, b):
    if len(a) * len(b) > _MAX_PAIRS:
        raise _NotTrig
    return _collect((tuple(map(operator.add, ka, kb)), ca * cb)
                    for ka, ca in a.items() for kb, cb in b.items())


def _affine(node, n):
    # (c0, c) with the subtree equal to c0 + sum_j c_j v_j
    if not _has_var(node):
        return _constant(node), np.zeros(n)
    kind = node[0]
    if kind == "var":
        c = np.zeros(n)
        c[node[1] * (n // 2) + node[2]] = 1.0
        return 0.0, c
    if kind == "neg":
        c0, c = _affine(node[1], n)
        return -c0, -c
    if kind == "binop":
        op, lhs, rhs = node[1:]
        if op in "+-":
            (a0, a), (b0, b) = _affine(lhs, n), _affine(rhs, n)
            return (a0 + b0, a + b) if op == "+" else (a0 - b0, a - b)
        if op == "*" and not _has_var(lhs):
            lhs, rhs = rhs, lhs
        if op == "*" and not _has_var(rhs):
            value = _constant(rhs)
            c0, c = _affine(lhs, n)
            return c0 * value, c * value
        if op == "/" and not _has_var(rhs):
            value = _constant(rhs)
            if value != 0.0:
                c0, c = _affine(lhs, n)
                return c0 / value, c / value
    raise _NotTrig


def _half_poly(node, n):
    """{k: c_k} with the subtree equal to sum_k c_k e^{i pi k.v}, k in Z^n."""
    if not _has_var(node):
        value = _constant(node)
        return {(0,) * n: complex(value)} if value else {}
    kind = node[0]
    if kind == "neg":
        return {k: -c for k, c in _half_poly(node[1], n).items()}
    if kind == "call" and node[1] in ("sin", "cos"):
        c0, c = _affine(node[2], n)
        k = np.round(c / math.pi)
        if not (np.all(np.abs(k) <= 2 * _MAX_FREQUENCY) and np.all(k * math.pi == c)):
            raise _NotTrig
        k = tuple(int(v) for v in k)
        # sin t = (e^{it} - e^{-it}) / 2i and cos t = (e^{it} + e^{-it}) / 2
        up = cmath.exp(1j * c0) / 2
        down = up.conjugate()
        pair = (-1j * up, 1j * down) if node[1] == "sin" else (up, down)
        return _collect([(k, pair[0]), (tuple(-v for v in k), pair[1])])
    if kind == "binop":
        op, lhs, rhs = node[1:]
        if op in "+-":
            a, b = _half_poly(lhs, n), _half_poly(rhs, n)
            sign = 1 if op == "+" else -1
            return _collect(itertools.chain(a.items(), ((k, sign * c) for k, c in b.items())))
        if op == "*":
            return _product(_half_poly(lhs, n), _half_poly(rhs, n))
        if op == "/" and not _has_var(rhs):
            value = _constant(rhs)
            if value != 0.0:
                return _collect((k, c / value) for k, c in _half_poly(lhs, n).items())
        if op == "^" and not _has_var(rhs):
            # a non-constant base to the power e has a half-frequency of at least e
            e = _constant(rhs)
            if e == int(e) and 0 <= e <= 2 * _MAX_FREQUENCY:
                base = _half_poly(lhs, n)
                if e == 0:
                    return {(0,) * n: 1 + 0j}
                out = base
                for bit in bin(int(e))[3:]:
                    out = _product(out, out)
                    if bit == "1":
                        out = _product(out, base)
                return out
    raise _NotTrig


def _fourier_terms(node, d):
    """{nu: c_nu} of a syntax tree that is a trigonometric polynomial, or None.

    The tree is expanded in half-frequencies, sum_k c_k e^{i pi k.v} over
    k in Z^{2d}, from numbers and pi, unary minus, + - *, division by a
    nonzero constant, powers with a constant integer exponent in
    [0, 2 _MAX_FREQUENCY], and sin and cos of c0 + sum_j c_j v_j where each
    c_j == k_j * math.pi holds exactly for an integer k_j.  A subtree without
    variables is a constant, evaluated as the sampler evaluates it.  Any
    other node, an odd k left at the end (the symbol is then not 1-periodic),
    a non-finite constant or coefficient, more than _MAX_TERMS terms, a
    product of more than _MAX_PAIRS term pairs or a frequency beyond
    _MAX_FREQUENCY gives None.
    """
    try:
        with np.errstate(all="ignore"):
            terms = _half_poly(node, 2 * d)
    except _NotTrig:
        return None
    if any(v % 2 for k in terms for v in k):
        return None
    return {tuple(v // 2 for v in k): c for k, c in terms.items()}


class Expr(Symbol):
    """Symbol defined by expression text over x1..xd, xi1..xid.

    The nesting of the text is bounded: at most _MAX_DEPTH = 100 operators,
    calls, signs and parentheses on any one path from the top of the
    expression to a number or a variable (a sum of n terms is n - 1 levels
    deep), else ParseError at the token that crosses the bound.

    A trigonometric polynomial of the forms _fourier_terms recognises has
    Fourier terms, found once here from the syntax tree; sampling
    (__call__, on_grid) always evaluates the tree itself.
    """

    def __init__(self, text, d=1):
        self.text = text
        self.d = d
        self.node = _Parser(text, d).parse()
        self.is_real = True  # the grammar has no complex literals
        self.description = text
        self._terms = _fourier_terms(self.node, d)

    def fourier_terms(self):
        return None if self._terms is None else dict(self._terms)

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
    """Localization matrix plus the quadrature trail that produced it.

    A matrix summed from the symbol's own Fourier terms has no quadrature:
    oversample and change are None and trace_history is empty.
    """

    matrix: np.ndarray
    trace: complex
    oversample: int | None
    trace_history: list
    change: float | None
    symbol_description: str


# truncation bound of the quadrature's Heisenberg series, relative to max |a|
_SERIES_BOUND = 1e-16


def _heisenberg_form(params):
    # H of Q(nu) = nu' H nu (_heisenberg_kernel)
    X, Y, Yinv = params.re, params.im, params.im_inv
    return np.block([[Yinv, -Yinv @ X], [-X @ Yinv, X @ Yinv @ X + Y]])


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
    H = _heisenberg_form(params)
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


def _series_matrix(params, blocks, factor):
    """The matrix (factor / N^d) sum_nu c_nu gamma_Omega(nu) W_N(nu), from blocks (nu, Q, c).

    Q(nu) = nu' H nu (_heisenberg_form), so gamma_Omega(nu) = e^{-(pi/2N) Q}.
    Each term t_nu = c_nu gamma_Omega(nu) e^{pi i p.q / N} carries the phase
    of W_N(p, q)[m, m + q mod N] = e^{pi i p.(2m + q) / N}, with p.q reduced
    exactly mod 2N, and is folded into B[r, s] = sum_{nu = (r, s) mod N} t_nu.
    Then M[m, m + s] = factor ifftn(B)[m, s], the inverse FFT over r.  Both
    routes of restriction_matrix end here; only c differs.  A non-finite M
    is a GaborError.
    """
    N, d = params.N, params.d
    B = np.zeros((N,) * (2 * d), dtype=complex)
    # an overflow leaves M non-finite, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for nu, Q, c in blocks:
            pq = np.einsum("ij,ij->i", nu[:, :d], nu[:, d:]) % (2 * N) / N
            t = c * np.exp(-math.pi / (2 * N) * Q + 1j * math.pi * pq)
            np.add.at(B.reshape(-1), np.ravel_multi_index(tuple((nu % N).T), B.shape), t)
        C = np.fft.ifftn(B, axes=tuple(range(d))) * factor
    m = np.indices(params.shape).reshape(d, -1).T
    cols = np.ravel_multi_index(np.moveaxis((m[:, None] + m[None, :]) % N, -1, 0), params.shape)
    M = np.empty((params.dim_sn, params.dim_sn), dtype=complex)
    M[np.arange(params.dim_sn)[:, None], cols] = C.reshape(params.dim_sn, -1)
    if not np.all(np.isfinite(M)):
        raise GaborError("the symbol's Fourier sum overflowed: samples are too large")
    return M


def _terms_matrix(terms, params):
    """sum_nu c_nu gamma_Omega(nu) W_N(nu) over the symbol's own terms {nu: c_nu}.

    Exact up to roundoff: no sampling and no truncation.  Every entry of M
    is at most sum |c_nu|; the sum must leave room for the sums spectrum
    forms (M + M^H and the trace), else it is a GaborError.
    """
    nu = np.array(list(terms), dtype=np.int64).reshape(-1, 2 * params.d)
    c = np.array(list(terms.values()), dtype=complex)
    with np.errstate(over="ignore"):
        total = float(np.abs(c).sum())
    if not 2.0 * params.dim_sn * total <= np.finfo(float).max:
        raise GaborError(f"the symbol's Fourier sum overflowed: its coefficients add up "
                         f"to {total:.3e} in modulus")
    Q = ((nu @ _heisenberg_form(params)) * nu).sum(axis=1)
    return _series_matrix(params, [(nu, Q, c)], params.N ** params.d)


def _level_matrix(symbol, params, L, kernel):
    """The midpoint-rule matrix at L nodes per axis, summed as a Heisenberg series.

    The coefficients are those of the samples: c_nu = e^{-pi i sum(nu) / L}
    F(nu mod L) / L^{2d}, F the DFT of the symbol at the L midpoint nodes per
    axis, taken on the nu of kernel, the (nu, Q) blocks of one
    _heisenberg_kernel.  They go into _series_matrix with the 1 / L^{2d} in
    its factor.
    """
    d = params.d
    rows = (L,) * (2 * d - 1)
    # real samples keep the last axis up to L // 2, the rest is F(-nu) = conj F(nu)
    F = np.empty(rows + (L // 2 + 1 if symbol.is_real else L,), dtype=complex)
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

    def blocks():
        for nu, Q in kernel:
            flip = nu[:, -1] % L >= F.shape[-1]
            idx = np.where(flip[:, None], -nu, nu) % L
            ahat = F.reshape(-1)[np.ravel_multi_index(idx.T, F.shape)]
            np.conjugate(ahat, out=ahat, where=flip)
            # the midpoint phase, with sum(nu) reduced exactly mod 2L
            ahat *= np.exp(-1j * np.pi * (np.einsum("ij->i", nu) % (2 * L) / L))
            yield nu, Q, ahat

    return _series_matrix(params, blocks(), params.N ** d / L ** (2 * d))


# doublings of the midpoint grid before a quadrature gives up
_MAX_DOUBLINGS = 3


def _quadrature_matrix(symbol, params, oversample, rel_tol):
    """The midpoint-rule matrix, grid-doubled until it settles: (M, oversample, history, change).

    Level k samples the symbol at L = oversample * N midpoint nodes per axis
    (oversample doubling with k) and sums its Heisenberg series over one
    _heisenberg_kernel, built once per call.  A level is accepted once
    ||M_k - M_{k-1}||_F <= rel_tol ||M_k||_F (the norm floored at 1e-300);
    change is that relative change at the accepted level and history holds
    (oversample, trace) per level.  Raises QuadratureUnderResolvedError when
    the change still exceeds rel_tol after _MAX_DOUBLINGS doublings.
    """
    N = params.N
    kernel = list(_heisenberg_kernel(params, math.pi / (2 * N), _SERIES_BOUND))
    history = []
    prev = None
    ov = oversample
    for _ in range(_MAX_DOUBLINGS + 1):
        check_nodes(ov * N, 2 * params.d,
                    f"the midpoint grid at oversample {ov}, (oversample * N)^{2 * params.d}")
        M = _level_matrix(symbol, params, ov * N, kernel)
        history.append((ov, complex(np.trace(M))))
        if prev is not None:
            # both scaled by a power of two, so they cannot overflow and keep their bits
            s = 2.0 ** -math.frexp(max(np.abs(M.real).max(), np.abs(M.imag).max()))[1]
            change = float(np.linalg.norm(s * M - s * prev) / max(np.linalg.norm(s * M), 1e-300))
            if change <= rel_tol:
                return M, ov, history, change
        prev = M
        ov *= 2
    raise QuadratureUnderResolvedError(
        f"relative matrix change (Frobenius) {change:.3e} at oversample {ov // 2} "
        f"after {_MAX_DOUBLINGS} doublings; rel_tol = {rel_tol:.1e}"
    )


# largest entry of M - M^H, relative to max(1, max |M|), that a real symbol's
# restriction matrix may show before symmetrization, and below which spectrum
# treats its input as Hermitian
_RESTRICTION_HERMITIAN_TOL = 1e-8
_SPECTRUM_HERMITIAN_TOL = 1e-10


def restriction_matrix(symbol, params, oversample=4, rel_tol=1e-8):
    """Localization matrix of the symbol, M = sum_nu c_nu gamma_Omega(nu) W_N(nu).

    One series (_series_matrix) with two sources of c_nu.  A symbol with
    Fourier terms (Symbol.fourier_terms: TrigPoly, Constant and the
    trigonometric polynomials among Expr) gives its own terms, exact up to
    roundoff (_terms_matrix); oversample and rel_tol do not enter,
    report.oversample and report.change are None and trace_history is
    empty.  Every other symbol gives the DFT of its midpoint samples, from
    L = oversample * N nodes per axis, doubled at most _MAX_DOUBLINGS times
    until the whole matrix settles (_quadrature_matrix): report.change is
    the relative Frobenius change at the accepted oversample and
    trace_history holds (oversample, trace) per level.  Real symbols yield a
    matrix that is Hermitian up to roundoff; it is symmetrized, and
    NonHermitianBeyondToleranceError flags anything larger.  A matrix of
    N^{2d}, or a quadrature level of (oversample * N)^{2d}, above
    core.MAX_NODES nodes is a GaborError, raised before it is allocated.
    """
    if symbol.d != params.d:
        raise GaborError(f"symbol dimension {symbol.d} != params dimension {params.d}")
    if oversample < 1:
        raise GaborError(f"oversample must be >= 1, got {oversample}")
    check_nodes(params.N, 2 * params.d, f"the restriction matrix of N^{2 * params.d}")
    terms = symbol.fourier_terms()
    if terms is not None:
        M, ov, history, change = _terms_matrix(terms, params), None, [], None
    else:
        M, ov, history, change = _quadrature_matrix(symbol, params, oversample, rel_tol)
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

    def plunge_fraction(self, delta):
        """Share of the eigenvalues, by real part, in (delta, 1 - delta), for delta in [0, 1/2]."""
        if not 0.0 <= delta <= 0.5:
            raise GaborError(f"the plunge delta must lie in [0, 1/2], got {delta}")
        lam = self.eigenvalues.real
        inside = np.count_nonzero((lam > delta) & (lam < 1.0 - delta))
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
    if not np.isfinite(M).all():
        raise EigSolverFailure("restriction matrix has a non-finite entry")
    # both tests run on M scaled to max(|Re A|, |Im A|) <= 1, so nothing at the
    # scale of M is squared; |M| itself can overflow where its parts do not
    A = M / max(1.0, float(np.abs(M.real).max()), float(np.abs(M.imag).max()))
    herm = float(np.abs(A - A.conj().T).max()) <= _SPECTRUM_HERMITIAN_TOL
    try:
        svals = np.linalg.svd(M, compute_uv=False)
        if herm:
            # halving first: M + M^H can overflow where M does not
            lam = np.linalg.eigvalsh(0.5 * M + 0.5 * M.conj().T).astype(complex)
            nonnormal = False
        else:
            lam = np.linalg.eigvals(M)
            lam = lam[np.argsort(lam.real)]
            comm = A @ A.conj().T - A.conj().T @ A
            nonnormal = float(np.linalg.norm(comm)) > _SPECTRUM_HERMITIAN_TOL
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    with np.errstate(over="ignore"):
        trace = complex(np.trace(M))
    if not (np.isfinite(svals).all() and np.isfinite(lam).all() and cmath.isfinite(trace)):
        raise EigSolverFailure("the spectrum of the restriction matrix overflows double precision")
    return SpectrumReport(
        eigenvalues=lam,
        singular_values=svals,
        trace=trace,
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
    approaches the volume of {a < alpha}.  A symbol with Fourier terms
    (Symbol.fourier_terms) has integral_target = Re c_0, its exact mean and
    the constant term that gives its restriction matrix its trace.  For
    every other symbol integral_target is the mean of the samples of a
    midpoint grid on [0,1)^2d (2048^2 nodes in d = 1, 48^4 in d = 2),
    sampled on its open grid (Symbol.on_grid): the correctly rounded sum of
    the samples (core.exact_sum, equal to math.fsum) divided by their count,
    so it does not depend on summation order; in d = 1 the count is 2^22,
    the division is exact and the value is the correctly rounded mean of the
    samples.  volume_targets[alpha] is always the exact count of grid
    samples below alpha over the number of samples, so it aliases for
    frequencies at and above the grid's Nyquist frequency (1024 in d = 1,
    24 in d = 2): cos(96 pi x1) in d = 2 reads 1 at alpha = 0.5.  A
    non-finite sample, or a sum beyond double precision, is a GaborError.
    """

    rows: list
    integral_target: float
    volume_targets: dict
    symbol_description: str


def _phase_space_targets(symbol, alphas):
    m = 2048 if symbol.d == 1 else 48
    what = f"the symbol samples on the {m}^{2 * symbol.d} target grid"
    size = m ** (2 * symbol.d)
    below = {float(a): 0 for a in alphas}

    def blocks():
        for vals in _midpoint_samples(symbol, m):
            vals = vals.real
            for a in below:
                below[a] += np.count_nonzero(vals < a)
            yield vals

    terms = symbol.fourier_terms()
    if terms is None:
        # the correctly rounded sum does not depend on the order in which a
        # given numpy build would add the samples; it also rejects non-finite
        # samples
        integral = exact_sum(blocks(), what) / size
    else:
        # the constant term is the exact mean, with no aliasing; the samples
        # are still counted and must still be finite.  + 0.0 turns a -0.0
        # term into the +0.0 that exact_sum gives for a zero total
        for vals in blocks():
            if not np.isfinite(vals).all():
                raise GaborError(f"{what} must be finite")
        integral = complex(terms.get((0,) * (2 * symbol.d), 0.0)).real + 0.0
    return integral, {a: float(c / size) for a, c in below.items()}


_PLUNGE_DELTA = 0.1


def asymptotic_sweep(symbol, n_list, Omega, alphas=(0.5,), oversample=4, rel_tol=1e-8):
    """Scaled trace, eigenvalue counts and plunge fraction (at _PLUNGE_DELTA) along a list of N.

    A text symbol is parsed with d the size of Omega (a scalar is 1 x 1).
    """
    if isinstance(symbol, str):
        symbol = parse_symbol(symbol, len(np.atleast_2d(Omega)))
    rows = []
    for N in n_list:
        params = GaborParams(d=symbol.d, N=N, Omega=Omega)
        rep = restriction_matrix(symbol, params, oversample=oversample, rel_tol=rel_tol)
        spec = spectrum(rep)
        nd = params.dim_sn
        rows.append(SweepRow(
            N=params.N,
            trace_scaled=float(spec.trace.real) / nd,
            counts_scaled={float(a): spec.count_below(a) / nd for a in alphas},
            plunge=spec.plunge_fraction(_PLUNGE_DELTA),
        ))
    integral, volumes = _phase_space_targets(symbol, alphas)
    return SweepReport(
        rows=rows,
        integral_target=integral,
        volume_targets=volumes,
        symbol_description=symbol.description,
    )
