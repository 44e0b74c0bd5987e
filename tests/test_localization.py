import math
import re
import tracemalloc

import numpy as np
import pytest

from grids import tn_grid, window_l2_norm_sq
from torusgabor import localization, theta, transforms
from torusgabor.core import GaborError, GaborParams, QuadratureUnderResolvedError
from torusgabor.localization import (
    BoxIndicator,
    Constant,
    EigSolverFailure,
    Expr,
    ParseError,
    Symbol,
    TrigPoly,
    UnknownVariableError,
    _midpoint_samples,
    _phase_space_targets,
    asymptotic_sweep,
    parse_symbol,
    restriction_matrix,
    spectrum,
)

OM = np.array([[1j]])


def _p(N, omega=1j):
    return GaborParams(d=1, N=N, Omega=np.array([[omega]]))


def _sin2sin2_trig():
    # sin^2(pi x) sin^2(pi xi) as an explicit Fourier sum
    fx = {(0, 0): 0.5, (1, 0): -0.25, (-1, 0): -0.25}
    fxi = {(0, 0): 0.5, (0, 1): -0.25, (0, -1): -0.25}
    full = {}
    for n1, c1 in fx.items():
        for n2, c2 in fxi.items():
            nu = (n1[0] + n2[0], n1[1] + n2[1])
            full[nu] = full.get(nu, 0.0) + c1 * c2
    return TrigPoly(1, full)


class _Sampled(Symbol):
    """The same symbol without its Fourier terms, so restriction_matrix samples it."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.is_real = inner.is_real
        self.description = inner.description

    def __call__(self, x, xi):
        return self.inner(x, xi)

    def on_grid(self, axes):
        return self.inner.on_grid(axes)


# ---------------------------------------------------------------------------
# symbol grammar


def test_parser_precedence_and_power():
    x = np.zeros((1, 1))
    assert Expr("2 + 3 * 4")(x, x)[0] == 14.0
    assert Expr("2 ^ 3 ^ 2")(x, x)[0] == 512.0  # right associative
    assert Expr("-2^2")(x, x)[0] == -4.0
    assert Expr("(2 + 3) * 4")(x, x)[0] == 20.0
    assert Expr("7 / 2 / 2")(x, x)[0] == 1.75
    assert Expr("cos(0) + pi")(x, x)[0] == pytest.approx(1 + np.pi)
    assert Expr("step(1) - step(-1)")(x, x)[0] == 1.0


def test_parser_variables_against_numpy():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (20, 2))
    xi = rng.uniform(0, 1, (20, 2))
    sym = Expr("sin(2*pi*x1) * exp(-xi2) + x2^2", d=2)
    expect = np.sin(2 * np.pi * x[:, 0]) * np.exp(-xi[:, 1]) + x[:, 1] ** 2
    assert np.abs(sym(x, xi) - expect).max() < 1e-14


def test_parser_error_offsets():
    with pytest.raises(ParseError) as exc:
        Expr("1 + $")
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        Expr("sin(x1")  # unclosed call
    with pytest.raises(ParseError) as exc:
        Expr("1 + 2 )")  # trailing garbage
    assert exc.value.offset == 6


# inputs that ended in RecursionError before the parser bounded their depth
DEEP_SYMBOLS = {
    "parens-250": ("(" * 250 + "x1" + ")" * 250, 100),
    "parens-3000": ("(" * 3000 + "x1" + ")" * 3000, 100),
    "minus-3000": ("-" * 3000 + "x1", 100),
    "sum-400": ("+".join(["sin(2*pi*x1)"] * 400), 1273),
    "power-3000": ("^".join(["x1"] * 3000), 302),
}


@pytest.mark.parametrize("name", DEEP_SYMBOLS)
def test_parser_bounds_the_nesting_depth(name):
    text, offset = DEEP_SYMBOLS[name]
    with pytest.raises(ParseError, match="nests deeper than 100 levels") as exc:
        Expr(text)
    assert exc.value.offset == offset


def test_parser_admits_the_depth_bound_itself():
    # each of these is exactly 100 levels deep, and its syntax tree can be walked
    assert Expr("(" * 100 + "x1" + ")" * 100)(np.array([0.25]), np.array([0.5])) == 0.25
    assert Expr("-" * 100 + "x1").fourier_terms() is None
    assert len(Expr("+".join(["sin(2*pi*x1)"] * 98)).fourier_terms()) == 2
    assert Expr("^".join(["x1"] * 101)).fourier_terms() is None


def test_parser_unknown_variables():
    with pytest.raises(UnknownVariableError):
        Expr("y1 + 1")
    with pytest.raises(UnknownVariableError):
        Expr("x2", d=1)  # index out of range for d = 1
    Expr("x2 + xi1", d=2)  # fine once d admits it


def test_parse_symbol_shortcut():
    sym = parse_symbol("x1 + xi1")
    assert sym.d == 1 and sym.is_real
    assert sym.description == "x1 + xi1"


def test_trigpoly_reality_detection():
    real = TrigPoly(1, {(1, 0): 0.5, (-1, 0): 0.5})
    assert real.is_real
    lopsided = TrigPoly(1, {(1, 0): 1.0})
    assert not lopsided.is_real
    with pytest.raises(GaborError):
        TrigPoly(1, {(1, 0, 0): 1.0})


def test_box_validation():
    with pytest.raises(GaborError):
        BoxIndicator([0.0], [1.0])  # odd length
    with pytest.raises(GaborError):
        BoxIndicator([0.5, 0.0], [0.1, 1.0])  # hi < lo


def test_box_wraps_coordinates():
    box = BoxIndicator([0.0, 0.0], [0.5, 1.0])
    assert box(np.array([[1.25]]), np.array([[0.3]]))[0] == 1.0
    assert box(np.array([[-0.3]]), np.array([[0.3]]))[0] == 0.0  # -0.3 -> 0.7


# ---------------------------------------------------------------------------
# restriction matrices


def test_unit_symbol_gives_identity():
    for N, om in ((2, 1j), (4, 1j), (4, 0.3 + 1j)):
        p = _p(N, om)
        rep = restriction_matrix(Constant(1.0), p, oversample=8)
        assert np.abs(rep.matrix - np.eye(N)).max() < 1e-8
        assert rep.trace == pytest.approx(N, abs=1e-8)


def test_constant_scales_identity():
    p = _p(3)
    rep = restriction_matrix(Constant(2.5, d=1), p, oversample=8)
    assert np.abs(rep.matrix - 2.5 * np.eye(3)).max() < 1e-7


def test_constant_and_its_expression_give_one_matrix():
    # a Constant and the same number as an expression go through the same
    # series, and a non-finite constant is a domain error
    p = _p(3, 0.3 + 1j)
    const = restriction_matrix(Constant(2.5), p, oversample=8).matrix
    expr = restriction_matrix(Expr("2.5"), p, oversample=8).matrix
    assert np.abs(const - expr).max() <= 1e-14
    with pytest.raises(GaborError):
        Constant(float("nan"))


def test_whole_domain_box_is_identity():
    p = _p(4)
    rep = restriction_matrix(BoxIndicator([0.0, 0.0], [1.0, 1.0]), p, oversample=4)
    assert np.abs(rep.matrix - np.eye(4)).max() < 1e-12


def test_box_spectrum_is_contained_in_unit_interval():
    p = _p(8)
    rep = restriction_matrix(BoxIndicator([0.0, 0.0], [0.5, 0.5]), p,
                             oversample=4, rel_tol=1e-3)
    lam = np.linalg.eigvalsh(rep.matrix)
    assert lam.min() > -1e-10
    assert lam.max() < 1.0 + 1e-6
    assert 0.0 < rep.trace.real < 8.0


def test_quadrature_failure_reports_change():
    p = _p(4)
    box = BoxIndicator([0.1, 0.13], [0.47, 0.81])
    with pytest.raises(QuadratureUnderResolvedError) as exc:
        restriction_matrix(box, p, oversample=2, rel_tol=1e-10)
    assert "relative matrix change (Frobenius)" in str(exc.value)


def test_quadrature_gives_up_after_max_doublings(monkeypatch):
    levels = []
    level = localization._level_matrix

    def counted(symbol, params, L, kernel):
        levels.append(L)
        return level(symbol, params, L, kernel)

    monkeypatch.setattr(localization, "_level_matrix", counted)
    box = BoxIndicator([0.1, 0.13], [0.47, 0.81])
    with pytest.raises(QuadratureUnderResolvedError) as exc:
        restriction_matrix(box, _p(4), oversample=4, rel_tol=1e-10)
    assert localization._MAX_DOUBLINGS == 3
    assert "at oversample 32" in str(exc.value)
    assert "after 3 doublings" in str(exc.value)
    assert levels == [16, 32, 64, 128]


def test_matrix_rule_rejects_a_settled_trace():
    # the trace of this odd step settles at oversample 16 (-3.2499984 twice),
    # while that matrix is still 2.8e-2 off the oversample-64 one in spectral
    # norm; the whole matrix still moves by 1.8e-2 at oversample 32
    sym = Expr("step(0.3 - x1) - step(x1 - 0.3)")
    with pytest.raises(QuadratureUnderResolvedError, match="at oversample 32"):
        restriction_matrix(sym, _p(8), rel_tol=1e-8)


def test_symbol_dimension_must_match():
    with pytest.raises(GaborError):
        restriction_matrix(Constant(1.0, d=2), _p(2))


def test_real_symbol_matrix_is_hermitian():
    p = _p(4)
    rep = restriction_matrix(_Sampled(Expr("sin(2*pi*x1)^2 + cos(2*pi*xi1)")), p, oversample=4)
    M = rep.matrix
    assert np.abs(M - M.conj().T).max() == 0.0
    assert len(rep.trace_history) >= 2
    assert 0.0 <= rep.change <= 1e-8


def test_complex_symbol_matrix_is_not_hermitian():
    p = _p(4)
    rep = restriction_matrix(TrigPoly(1, {(1, 0): 1.0}), p, oversample=4)
    assert np.abs(rep.matrix - rep.matrix.conj().T).max() > 0.1
    assert not spectrum(rep).hermitian


def test_translation_covariance():
    # shifting the symbol by a lattice step conjugates the matrix by a
    # unitary, so the spectrum cannot move
    p = _p(4)
    tp = _sin2sin2_trig()
    r0 = restriction_matrix(tp, p, oversample=4)
    # a(. - (1/4, 0)): each term c_nu gains the phase e^{-2 pi i nu_1 / 4}
    shifted = TrigPoly(1, {nu: c * np.exp(-0.5j * np.pi * nu[0]) for nu, c in tp.terms.items()})
    r1 = restriction_matrix(shifted, p, oversample=4)
    e0 = np.sort(np.linalg.eigvalsh(r0.matrix))
    e1 = np.sort(np.linalg.eigvalsh(r1.matrix))
    assert np.abs(e0 - e1).max() < 1e-10


def test_frequency_only_symbol_gives_toeplitz_matrix():
    p = _p(4)
    rep = restriction_matrix(Expr("sin(2*pi*xi1)^2"), p, oversample=4)
    M = rep.matrix
    for i in range(3):
        for j in range(3):
            assert abs(M[i, j] - M[i + 1, j + 1]) < 1e-12


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_on_diagonal_input():
    sp = spectrum(np.diag([0.1, 0.9, 0.5]))
    assert sp.hermitian and not sp.nonnormal
    assert np.allclose(sp.eigenvalues.real, [0.1, 0.5, 0.9])
    assert sp.trace == pytest.approx(1.5)
    assert sp.count_below(0.5) == 1
    assert np.count_nonzero(sp.eigenvalues.real > 0.5) == 1
    assert sp.plunge_fraction(0.2) == pytest.approx(1 / 3)
    assert sp.plunge_fraction(0.0) == 1.0 and sp.plunge_fraction(0.5) == 0.0
    for delta in (math.nan, math.inf, -0.1, 0.6):
        with pytest.raises(GaborError, match="plunge delta"):
            sp.plunge_fraction(delta)


def test_spectrum_flags_nonnormal():
    sp = spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not sp.hermitian
    assert sp.nonnormal
    assert np.allclose(sp.eigenvalues, 0.0)
    assert sp.singular_values[0] == pytest.approx(1.0)


def test_spectrum_tests_huge_input_without_overflow():
    # the Hermitian and normality tests run on M / max|M|: nothing at the
    # scale of M is squared, and eigvals and svd see M itself
    big = restriction_matrix(TrigPoly(1, {(1, 0): 1e200}), _p(4))
    sp = spectrum(big)
    assert not sp.hermitian and not sp.nonnormal
    assert np.all(np.isfinite(sp.eigenvalues)) and np.all(np.isfinite(sp.singular_values))
    assert np.abs(sp.eigenvalues).max() == pytest.approx(np.abs(big.matrix).max())
    sp = spectrum(1e200 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not sp.hermitian and sp.nonnormal
    assert sp.singular_values[0] == pytest.approx(1e200)
    sp = spectrum(np.array([[1e308, -1e308], [1e308, 0.0]]))
    assert np.all(np.isfinite(sp.eigenvalues)) and np.all(np.isfinite(sp.singular_values))
    assert not sp.hermitian and sp.nonnormal


def test_spectrum_of_entries_near_the_largest_double_is_finite():
    # M + M^H would overflow here; the Hermitian part halves first
    sp = spectrum(np.diag([1e308, 1.0]))
    assert sp.hermitian and not sp.nonnormal
    assert sp.eigenvalues.tolist() == [1.0, 1e308]
    assert sp.singular_values.tolist() == [1e308, 1.0]
    assert sp.trace == 1e308 + 1.0


def test_spectrum_beyond_double_precision_is_a_domain_error():
    # |M_00| overflows though its parts do not, and so does sigma_1: the
    # tests must not read the matrix as zero, and no NaN may come back
    with pytest.raises(EigSolverFailure, match="overflows double precision"):
        spectrum(np.array([[1.5e308 + 1.5e308j, 0], [1e308, 0]]))
    with pytest.raises(EigSolverFailure, match="overflows double precision"):
        spectrum(np.array([[1e308, 1e308j], [-1e308j, 1e308]]))  # eigenvalue 2e308
    with pytest.raises(EigSolverFailure, match="overflows double precision"):
        spectrum(np.diag([1e308, 1e308]))  # the trace


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_spectrum_refuses_non_finite_entries_before_solving(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    with pytest.raises(EigSolverFailure, match="non-finite entry"):
        spectrum(M)


def test_spectrum_rejects_nonsquare_and_wraps_solver_errors():
    with pytest.raises(GaborError):
        spectrum(np.zeros((2, 3)))
    with pytest.raises(EigSolverFailure):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("solver,M", [("eigvalsh", np.diag([1.0, 2.0])),
                                      ("eigvals", np.array([[1.0, 1.0], [0.0, 2.0]]))],
                         ids=["hermitian", "general"])
def test_spectrum_wraps_a_solver_that_does_not_converge(solver, M, monkeypatch):
    # finite input reaches the solver; its LinAlgError becomes a domain error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(EigSolverFailure, match="did not converge"):
        spectrum(M)


# ---------------------------------------------------------------------------
# asymptotics


def test_sweep_targets_and_scaled_trace():
    sw = asymptotic_sweep("sin(pi*x1)^2*sin(pi*xi1)^2", [2, 4, 8], OM)
    assert sw.integral_target == pytest.approx(0.25, abs=1e-6)
    assert sw.symbol_description == "sin(pi*x1)^2*sin(pi*xi1)^2"
    assert [r.N for r in sw.rows] == [2, 4, 8]
    for row in sw.rows:
        # mode orthogonality pins the scaled trace at the symbol mean exactly
        assert row.trace_scaled == pytest.approx(0.25, abs=1e-9)
        assert 0.0 <= row.plunge <= 1.0
    assert 0.5 in sw.volume_targets


def test_sweep_counts_are_fractions():
    sw = asymptotic_sweep("sin(pi*x1)^2*sin(pi*xi1)^2", [4], OM, alphas=(0.25, 0.75))
    row = sw.rows[0]
    assert set(row.counts_scaled) == {0.25, 0.75}
    assert all(0.0 <= v <= 1.0 for v in row.counts_scaled.values())
    assert row.counts_scaled[0.75] >= row.counts_scaled[0.25]


def test_sweep_accepts_symbol_objects():
    sw = asymptotic_sweep(_sin2sin2_trig(), [2], OM)
    assert sw.rows[0].trace_scaled == pytest.approx(0.25, abs=1e-9)
    # the count of the 2048^2 samples below 0.5, the same from the open grid
    # (TrigPoly.on_grid) as from the grid points (TrigPoly.__call__)
    assert sw.volume_targets == {0.5: 3346644 / 2048 ** 2}


class _Recorded(Symbol):
    """Wraps a symbol and keeps the real samples it hands out, call by call."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.blocks = []

    def __call__(self, x, xi):
        vals = np.asarray(self.inner(x, xi)).real
        self.blocks.append(vals)
        return vals

    @property
    def samples(self):
        return np.concatenate(self.blocks)


class _WideRange(Symbol):
    """Samples spread over twelve decades, where summation order shows.

    Each point of the 2048^2 midpoint grid has a fixed sample, so the values
    do not depend on how the grid is split into calls.
    """

    def __init__(self):
        rng = np.random.default_rng(7)
        n = 2048 ** 2
        self.table = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)

    def __call__(self, x, xi):
        i = np.floor(np.asarray(x)[:, 0] * 2048).astype(int)
        j = np.floor(np.asarray(xi)[:, 0] * 2048).astype(int)
        return self.table[i * 2048 + j]


def test_phase_space_targets_exact_for_sin2():
    integral, volumes = _phase_space_targets(
        parse_symbol("sin(pi*x1)^2*sin(pi*xi1)^2"), (0.5,))
    # the midpoint rule integrates sin^2(pi x) sin^2(pi xi) exactly
    assert integral == 0.25
    assert type(integral) is float
    assert type(volumes[0.5]) is float


# factories, so the 2048^2 sample table is built only while its test runs
@pytest.mark.parametrize("make_inner", [lambda: parse_symbol("sin(pi*x1)^2*sin(pi*xi1)^2"),
                                        _WideRange], ids=["sin2", "wide_range"])
def test_phase_space_targets_do_not_depend_on_summation_order(make_inner):
    # _Recorded has no Fourier terms, so the mean target is the sampled one
    sym = _Recorded(make_inner())
    assert sym.fourier_terms() is None
    integral, volumes = _phase_space_targets(sym, (0.5,))
    vals = sym.samples
    shuffled = np.random.default_rng(0).permutation(vals)
    assert integral == math.fsum(vals[::-1]) / vals.size
    assert integral == math.fsum(shuffled) / vals.size
    assert volumes[0.5] == np.count_nonzero(shuffled < 0.5) / vals.size
    # the 2048^2 grid is evaluated in blocks, never whole
    assert vals.size == 2048 ** 2
    assert max(b.size for b in sym.blocks) <= 1 << 17


class _Pointwise(_Sampled):
    """A symbol seen through the default on_grid, which builds the grid points."""

    on_grid = Symbol.on_grid


# every node kind: num, var, neg, call, + - * / ^
_EVERY_NODE_1D = "-(x1 - 0.25)^2 * 3 / (1 + xi1) + sin(pi*x1)^xi1 - exp(-xi1)*step(x1 - 0.5) + cos(xi1)"
_EVERY_NODE_2D = ("-(x1 - 0.25)^2 * 3 / (1 + xi2) + sin(pi*x2)^xi1 - exp(-xi1)*step(x2 - 0.5)"
                  " + cos(x1*xi2)")


@pytest.mark.parametrize("d,text", [
    (1, _EVERY_NODE_1D), (1, "2.5 / 4 - 1"),
    (2, _EVERY_NODE_2D), (2, "2.5 / 4 - 1"), (2, "cos(2*pi*xi2)^2 - xi2"),
], ids=["d1-every-node", "d1-constant", "d2-every-node", "d2-constant", "d2-xi2-only"])
def test_open_grid_samples_equal_the_pointwise_samples(d, text):
    m = 2048 if d == 1 else 48
    sym = parse_symbol(text, d)
    fast = list(_midpoint_samples(sym, m))
    slow = list(_midpoint_samples(_Pointwise(sym), m))
    assert [b.shape for b in fast] == [b.shape for b in slow]
    assert max(b.size for b in fast) <= transforms._CHUNK
    fast, slow = np.concatenate(fast), np.concatenate(slow)
    assert fast.size == m ** (2 * d)
    assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))
    # the sampled mean target, from the open grid and from the grid points
    # (neither _Sampled nor _Pointwise has Fourier terms)
    integral, volumes = _phase_space_targets(_Sampled(sym), (0.0, 0.5))
    assert (integral, volumes) == _phase_space_targets(_Pointwise(sym), (0.0, 0.5))
    assert integral == math.fsum(slow) / slow.size
    # a symbol with terms counts the same samples; its mean is its constant term
    terms = sym.fourier_terms()
    own_integral, own_volumes = _phase_space_targets(sym, (0.0, 0.5))
    assert own_volumes == volumes
    assert own_integral == (integral if terms is None else terms[(0,) * (2 * d)].real)


def test_constant_term_target_has_no_aliasing():
    # in d = 2 the 48 midpoint nodes per axis alias frequency 48 onto the
    # mean: the sampled target of cos(96 pi x1) reads -1, its constant term 0
    sw = asymptotic_sweep("cos(96*pi*x1)", [2], 1j * np.eye(2))
    assert sw.integral_target == 0.0
    assert _phase_space_targets(_Sampled(parse_symbol("cos(96*pi*x1)", 2)), ())[0] == -1.0
    # the volume targets are grid counts, aliased alike (the true volume is 2/3)
    assert sw.volume_targets == {0.5: 1.0}


def test_constant_term_target_is_the_constant_itself():
    # the correctly rounded sample mean of 0.3 cos(2 pi x1) + 0.1 is
    # 0.09999999999999999
    sym = parse_symbol("0.3*cos(2*pi*x1)+0.1")
    assert _phase_space_targets(sym, ())[0] == 0.1
    assert _phase_space_targets(_Sampled(sym), ())[0] == 0.09999999999999999


def test_constant_term_target_still_rejects_non_finite_samples():
    # c_0 is finite, but the samples overflow on the grid the volumes count
    sym = TrigPoly(1, {(0, 0): 1e308, (1, 0): 1e308, (-1, 0): 1e308})
    assert sym.fourier_terms() is not None
    with pytest.raises(GaborError, match="target grid must be finite"):
        _phase_space_targets(sym, (0.5,))


def test_constant_on_grid_equals_the_pointwise_samples():
    for sym in (Constant(0.75), Constant(-2.0, d=2)):
        m = 2048 if sym.d == 1 else 48
        fast = np.concatenate(list(_midpoint_samples(sym, m)))
        slow = np.concatenate(list(_midpoint_samples(_Pointwise(sym), m)))
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("text,message", [
    ("1/(x1-0.500244140625)*step(x1-0.50024)*step(0.50025-x1)",
     "samples on the 2048^2 target grid must be finite"),
    ("1e308*step(x1-0.50024)*step(0.50025-x1)",
     "samples on the 2048^2 target grid exceeds double precision"),
], ids=["non-finite", "overflow"])
def test_bad_target_samples_are_domain_errors(text, message):
    # the restriction grids miss the one target node where the symbol is bad
    with pytest.raises(GaborError, match=re.escape(message)):
        asymptotic_sweep(text, [2], OM)


def test_sweep_grid_sizes_must_be_integers():
    # a grid size of 4.9 is refused, not run as N = 4
    with pytest.raises(GaborError, match="N must be a positive integer"):
        asymptotic_sweep("sin(pi*x1)^2", [4.9], OM)
    assert [r.N for r in asymptotic_sweep("sin(pi*x1)^2", np.array([2]), OM).rows] == [2]


# ---------------------------------------------------------------------------
# cross-route identities


def _random_real_trig(rng, d=1, deg=1, pairs=None):
    # every frequency with |nu_i| <= deg, or, with pairs, the constant and that
    # many random conjugate pairs of them
    if pairs is None:
        freqs = (tuple(int(v) - deg for v in nu) for nu in np.ndindex(*(2 * deg + 1,) * (2 * d)))
    else:
        draws = rng.integers(-deg, deg + 1, (pairs, 2 * d)).tolist()
        freqs = [(0,) * (2 * d)] + [max(tuple(nu), tuple(-v for v in nu)) for nu in draws]
    terms = {}
    for nu in freqs:
        if nu < tuple(-v for v in nu):
            continue
        if all(v == 0 for v in nu):
            terms[nu] = complex(rng.standard_normal())
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[nu] = c
            terms[tuple(-v for v in nu)] = c.conjugate()
    return TrigPoly(d, terms)


@pytest.mark.parametrize("sym", [
    _sin2sin2_trig(),
    _random_real_trig(np.random.default_rng(50), 1, 8, pairs=6),
    _random_real_trig(np.random.default_rng(51), 2, 3, pairs=6),
    TrigPoly(2, {(1, 0, 1, 1): 1.0, (0, 1, -1, 2): 0.5 - 1j, (0, 0, 0, 0): 0.25}),
], ids=["sin2sin2", "d1-random", "d2-random", "d2-complex"])
def test_trig_poly_on_grid_equals_the_pointwise_samples(sym):
    m = 64 if sym.d == 1 else 12
    fast = np.concatenate(list(_midpoint_samples(sym, m)))
    slow = np.concatenate(list(_midpoint_samples(_Pointwise(sym), m)))
    assert fast.dtype == slow.dtype and fast.size == m ** (2 * sym.d)
    assert np.abs(fast - slow).max() <= 1e-13 * sum(abs(c) for c in sym.terms.values())


class _RecordedWithTerms(_Recorded):
    """A recorded symbol that keeps its inner symbol's Fourier terms."""

    def fourier_terms(self):
        return self.inner.fourier_terms()


class _Replayed(Symbol):
    """Hands out recorded sample blocks in order, with no Fourier terms."""

    def __init__(self, blocks, d):
        self.blocks = iter(blocks)
        self.d = d

    def on_grid(self, axes):
        return next(self.blocks)


@pytest.mark.parametrize("d,deg", [(1, 1023), (2, 23)], ids=["d1", "d2"])
def test_constant_term_target_equals_the_sampled_target(d, deg):
    # frequencies up to just below the Nyquist frequency of the target grid
    # (2048 nodes per axis in d = 1, 48 in d = 2): the midpoint rule
    # integrates them exactly, so the sample mean is c_0 up to roundoff
    sym = _RecordedWithTerms(_random_real_trig(np.random.default_rng(40 + d), d, deg, pairs=2))
    alphas = (-0.5, 0.0, 0.5)
    integral, volumes = _phase_space_targets(sym, alphas)
    sampled, sampled_volumes = _phase_space_targets(_Replayed(sym.blocks, d), alphas)
    c = sym.fourier_terms()
    assert integral == c[(0,) * (2 * d)].real
    scale = sum(abs(v) for v in c.values())
    assert abs(integral - sampled) <= 4 * np.finfo(float).eps * scale
    assert volumes == sampled_volumes
    assert all(0.0 < v < 1.0 for v in volumes.values())


def test_restriction_is_linear_in_the_symbol():
    rng = np.random.default_rng(31)
    p = _p(3)
    a = _random_real_trig(rng)
    b = _random_real_trig(rng)
    ra = restriction_matrix(a, p, oversample=8).matrix
    rb = restriction_matrix(b, p, oversample=8).matrix
    ab = TrigPoly(1, {nu: a.terms.get(nu, 0) + b.terms.get(nu, 0)
                      for nu in set(a.terms) | set(b.terms)})
    rab = restriction_matrix(ab, p, oversample=8).matrix
    assert np.abs(rab - (ra + rb)).max() < 1e-12


OM2 = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])


@pytest.mark.parametrize("chunk", [None, 1000], ids=["one-chunk", "chunk-1000"])
@pytest.mark.parametrize("params,text,ov", [
    (GaborParams(d=1, N=6, Omega=np.array([[0.3 + 1j]])), "sin(pi*x1)^2*cos(2*pi*xi1) + xi1", 4),
    (GaborParams(d=2, N=2, Omega=OM2), "sin(pi*x1)^2*sin(pi*xi1)^2*cos(pi*x2)^2", 2),
], ids=["d1", "d2"])
def test_restriction_matrix_matches_the_pointwise_grid_sum(monkeypatch, chunk, params, text, ov):
    # the quadrature sum written out with per-point stft_basis_grid calls
    if chunk is not None:
        monkeypatch.setattr(transforms, "_CHUNK", chunk)
    sym = _Sampled(parse_symbol(text, params.d))
    rep = restriction_matrix(sym, params, oversample=ov, rel_tol=1e-3)
    w = transforms.GaussianWindow(params)
    X, XI, cell = tn_grid(params, rep.oversample * params.N,
                          rep.oversample * params.N, midpoint=True)
    V = transforms.stft_basis_grid(w, X, XI)
    M = (V.conj() * np.asarray(sym(X / params.N, XI)).real) @ V.T
    M *= cell / window_l2_norm_sq(params)
    M = 0.5 * (M + M.conj().T)
    assert np.abs(rep.matrix - M).max() <= 1e-13 * np.abs(M).max()


def test_toeplitz_correspondence_with_weighted_sections():
    # the same operator computed on the signal side and on the section side,
    # matched through the single constant the unit symbol fixes
    from torusgabor.bargmann import bargmann, weight_phi
    from torusgabor.core import GaborParams

    rng = np.random.default_rng(32)
    p = GaborParams(d=1, N=2, Omega=np.array([[1j]]))
    nx = 16 * p.N
    X, XI, cell = tn_grid(p, nx, nx, midpoint=True)
    Z = 1j * (X @ p.Omega.T / p.N + XI)
    B = np.empty((p.dim_sn, X.shape[0]), dtype=complex)
    W = np.empty(X.shape[0])
    for j in range(X.shape[0]):
        W[j] = np.exp(-p.N * weight_phi(Z[j], p))
        for n in range(p.dim_sn):
            B[n, j] = bargmann(np.eye(p.dim_sn)[n], Z[j], p, tol=1e-13).raw.to_complex()
    scale = np.einsum("j,nj,mj->mn", W * cell, B, B.conj()).trace().real / p.dim_sn
    for _ in range(2):
        a = _random_real_trig(rng)
        signal_side = restriction_matrix(a, p, oversample=8).matrix
        av = np.asarray(a(X / p.N, XI)).real
        section_side = np.einsum("j,nj,mj->mn", av * W * cell, B, B.conj()) / scale
        assert np.abs(section_side - signal_side).max() < 1e-7


def test_trace_identity_against_coherent_density():
    from torusgabor.bargmann import bergman_density
    from torusgabor.core import GaborParams

    rng = np.random.default_rng(33)
    for N in (2, 4):
        p = GaborParams(d=1, N=N, Omega=np.array([[1j]]))
        dens = bergman_density(p, oversample=8)
        xg, xig = np.meshgrid(dens.x_nodes, dens.xi_nodes, indexing="ij")
        cell = (p.N / dens.values.shape[0]) / dens.values.shape[1]
        for _ in range(5):
            a = _random_real_trig(rng)
            tr = restriction_matrix(a, p, oversample=8).trace.real
            av = np.asarray(a(xg.reshape(-1, 1) / p.N, xig.reshape(-1, 1))).real
            against_density = float((av.reshape(dens.values.shape)
                                     * dens.values).sum() * cell)
            assert abs(tr - against_density) <= 1e-8 * max(1.0, abs(tr))


def test_spectrum_trace_equals_eigenvalue_sum_and_counts_are_monotone():
    rng = np.random.default_rng(34)
    p = _p(5)
    rep = restriction_matrix(_random_real_trig(rng), p, oversample=8)
    sp = spectrum(rep)
    assert abs(sp.trace - sp.eigenvalues.sum()) <= 1e-10 * max(1.0, abs(sp.trace))
    alphas = np.linspace(-3, 3, 13)
    counts = [sp.count_below(a) for a in alphas]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# the Heisenberg series, mode by mode


def _gamma_times_shift(nu, params):
    # gamma_Omega(nu) W_N(nu) written out: W_N(p, q)[m, m + q mod N] = e^{pi i p.(2m + q)/N}
    d, N = params.d, params.N
    p, q = np.asarray(nu[:d]), np.asarray(nu[d:])
    v = p - params.Omega @ q
    gamma = np.exp(-np.pi / (2 * N) * (v.conj() @ np.linalg.inv(params.im) @ v).real)
    W = np.zeros((params.dim_sn,) * 2, dtype=complex)
    for i, m in enumerate(np.ndindex(params.shape)):
        j = np.ravel_multi_index(tuple((np.asarray(m) + q) % N), params.shape)
        W[i, j] = np.exp(1j * np.pi * (p @ (2 * np.asarray(m) + q)) / N)
    return gamma * W, gamma


MODE_CASES = [
    (_p(3, omega), nu)
    for omega in (1j, 0.3 + 1.2j, -0.7 + 0.4j)
    for nu in ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 2), (3, -2))
] + [
    (GaborParams(d=2, N=2, Omega=OM2), nu)
    for nu in ((1, 0, 0, 1), (1, 1, -1, 1), (0, -1, 1, 0), (3, 0, 1, 1), (1, 2, 1, -1))
]


@pytest.mark.parametrize("params,nu", MODE_CASES,
                         ids=[f"d{p.d}-{p.Omega[0, 0]}-{nu}" for p, nu in MODE_CASES])
def test_single_mode_is_one_damped_shift(params, nu):
    # e^{2 pi i nu.(x, xi)} gives gamma_Omega(nu) W_N(nu); its real part (the
    # rfft path of the quadrature) gives the mean of the nu and -nu shifts;
    # both routes, the symbol's own terms and the sampled symbol
    minus = tuple(-v for v in nu)
    ref, gamma = _gamma_times_shift(nu, params)
    ref_minus, _ = _gamma_times_shift(minus, params)
    tol = 1e-12 * gamma
    for route in (lambda sym: sym, _Sampled):
        mode = restriction_matrix(route(TrigPoly(params.d, {nu: 1.0})), params, oversample=4)
        assert np.abs(mode.matrix - ref).max() <= tol
        cosine = restriction_matrix(route(TrigPoly(params.d, {nu: 0.5, minus: 0.5})), params,
                                    oversample=4)
        assert np.abs(cosine.matrix - 0.5 * (ref + ref_minus)).max() <= tol


SERIES_CASES = [
    (params, TrigPoly(params.d, {nu: 1.0})) for params, nu in MODE_CASES
] + [
    (params, TrigPoly(params.d, {nu: 0.5, tuple(-v for v in nu): 0.5})) for params, nu in MODE_CASES
] + [
    # the benchmark's symbols: restriction_2d at N = 2, 3 and the asymptotics_1d sweep
    (GaborParams(d=2, N=N, Omega=OM2), parse_symbol("sin(pi*x1)^2*sin(pi*xi1)^2*cos(pi*x2)^2", 2))
    for N in (2, 3)
] + [
    (_p(N), parse_symbol("sin(2*pi*x1)^2*sin(2*pi*xi1)^2")) for N in (8, 16, 32, 48)
] + [
    (_p(5, 0.3 + 1j), parse_symbol("cos(2*pi*x1 + 0.3)*sin(pi*xi1)^2 - 2.5")),
]


@pytest.mark.parametrize("params,sym", SERIES_CASES,
                         ids=[f"d{p.d}-N{p.N}-{i}" for i, (p, _) in enumerate(SERIES_CASES)])
def test_series_route_matches_the_quadrature(params, sym):
    # the symbol's own Fourier terms against the sampled, grid-doubled matrix;
    # the quadrature's roundoff is relative to the samples, so to sum |c_nu|
    # where a mode's gamma makes the matrix smaller (2.8e-4 for (3, -2), N = 3)
    series = restriction_matrix(sym, params)
    quad = restriction_matrix(_Sampled(sym), params)
    assert (series.oversample, series.trace_history, series.change) == (None, [], None)
    assert quad.oversample is not None and len(quad.trace_history) >= 2
    scale = max(np.abs(quad.matrix).max(), sum(abs(c) for c in sym.fourier_terms().values()))
    assert np.abs(series.matrix - quad.matrix).max() <= 1e-13 * scale


RECOGNISED = [
    (1, "sin(pi*x1)^2*sin(pi*xi1)^2"),
    (1, "cos(2*pi*x1 + 0.3)"),
    (1, "-sin(2*pi*x1)*cos(4*pi*xi1)/2 + 3"),
    (1, "(1 + cos(2*pi*(x1 - xi1)))^3 - sin(pi*x1)^2"),
    (1, "2.5 / 4 - 1"),
    (1, "sin(2*pi*x1)^0 + cos(pi*x1 - x1*pi)"),
    (2, "sin(pi*x1)^2*sin(pi*xi1)^2*cos(pi*x2)^2"),
    (2, "-cos(2*pi*x1 - 4*pi*xi2 + 1)^2 * sin(2*pi*x2) / 0.5"),
    (2, "cos(x1*pi*2 - x2*2*pi + (4*pi)*xi2/2)"),
]


@pytest.mark.parametrize("d,text", RECOGNISED)
def test_recognised_terms_sum_to_the_samples(d, text):
    sym = parse_symbol(text, d)
    terms = sym.fourier_terms()
    assert terms and all(len(nu) == 2 * d and all(type(v) is int for v in nu) for nu in terms)
    rng = np.random.default_rng(41)
    x, xi = rng.uniform(-1, 2, (2, 200, d))
    nu = np.array(list(terms), dtype=float)
    series = np.exp(2j * np.pi * np.concatenate([x, xi], axis=1) @ nu.T) @ np.array(list(terms.values()))
    assert np.abs(series - sym(x, xi)).max() <= 1e-14 * max(1.0, np.abs(series).max())


@pytest.mark.parametrize("text", [
    "sin(pi*x1)",                   # not 1-periodic: odd half-frequency
    "sin(pi*x1)*cos(2*pi*xi1)",
    "x1",                           # a bare variable
    "sin(x1)",                      # frequency not an integer multiple of pi
    "cos(0.1*pi*x1*10)",            # 0.1*pi*10 is not pi in floating point
    "exp(cos(2*pi*x1))",
    "step(0.5-x1)",
    "sin(2*pi*x1)^0.5",             # non-integer power
    "sin(2*pi*x1)^-1",
    "sin(2*pi*x1)^xi1",             # non-constant exponent
    "1/sin(2*pi*x1)",               # non-constant divisor
    "sin(2*pi*x1)/0",
    "0/0",                          # non-finite constant
    "1e308*10*cos(2*pi*x1)",
    "(1e200*cos(2*pi*x1))^2",       # non-finite coefficient
    "cos(2*pi*x1*xi1)",             # argument not affine
    "cos(2050*pi*x1)",              # frequency past the cap
    "(cos(2*pi*x1) + cos(2*pi*xi1) + cos(6*pi*x1 + 2*pi*xi1))^40",   # terms past the cap
])
def test_forms_outside_the_class_have_no_terms(text):
    assert parse_symbol(text).fourier_terms() is None


def test_symbol_classes_state_their_terms():
    assert Constant(2.5, d=2).fourier_terms() == {(0, 0, 0, 0): 2.5}
    tp = _sin2sin2_trig()
    assert tp.fourier_terms() == tp.terms and tp.fourier_terms() is not tp.terms
    assert TrigPoly(1, {(1025, 0): 1.0}).fourier_terms() is None
    assert BoxIndicator([0.0, 0.0], [0.5, 0.5]).fourier_terms() is None
    assert Symbol().fourier_terms() is None


def test_series_overflow_is_a_domain_error():
    # the sums spectrum forms must stay finite: 2 N^d sum |c_nu| is refused past
    # the largest double, and just below it the spectrum is finite
    p = _p(4)
    with pytest.raises(GaborError, match="the symbol's Fourier sum overflowed"):
        restriction_matrix(Constant(1e308), p)
    big = np.finfo(float).max / 8.5
    with pytest.raises(GaborError, match="the symbol's Fourier sum overflowed"):
        restriction_matrix(TrigPoly(1, {(1, 0): 0.6 * big, (-1, 0): 0.6 * big}), p)
    sp = spectrum(restriction_matrix(Constant(big), p))
    assert np.all(np.isfinite(sp.eigenvalues)) and sp.eigenvalues.real.max() == pytest.approx(big)


def _shortest_form(omega):
    # min over nu != 0 of (p - Omega q)^H Y^{-1} (p - Omega q), d = 1
    return min(abs(p - omega * q) ** 2 / omega.imag
               for p in range(-4, 5) for q in range(-4, 5) if (p, q) != (0, 0))


@pytest.mark.parametrize("omega,last_tol", [(1j, 1e-4), (-0.7 + 0.4j, 1e-4), (0.3 + 1.2j, 4e-3)])
def test_density_flattens_at_the_rate_of_the_shortest_vector(omega, last_tol):
    # rho - 1 is led by the shortest nonzero N (j, k): flatness(N + 1) / flatness(N)
    # tends to e^{-(pi/2) Q_min}, the Bergman kernel asymptotics of high tensor powers
    from torusgabor.bargmann import bergman_density

    rate = -0.5 * np.pi * _shortest_form(omega)
    flat = [bergman_density(_p(N, omega), oversample=8).flatness() for N in range(2, 9)]
    errors = [abs(math.log(b / a) / rate - 1.0) for a, b in zip(flat, flat[1:])]
    assert errors[-1] <= last_tol
    if omega.real != 0.0:
        # the error falls at least geometrically, as the next vector's term does
        assert all(b < 0.6 * a for a, b in zip(errors, errors[1:]))
    else:
        assert max(errors) <= last_tol


# ---------------------------------------------------------------------------
# the Heisenberg kernel

# OM2 is the benchmark's OMEGA_2D; this is its OMEGA_GRAM_2D
OMEGA_GRAM_2D = np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])


def _box_kernel(params, scale, bound):
    # the reference: the whole box [-R, R]^{2d} in C order, in blocks, under
    # the kernel's exact test scale * Q <= cut
    d = params.d
    X, Y = params.re, params.im
    Yinv = np.linalg.inv(Y)
    H = np.block([[Yinv, -Yinv @ X], [-X @ Yinv, X @ Yinv @ X + Y]])
    R = theta.tail_radius(scale * float(np.linalg.eigvalsh(H)[0]), 2 * d, bound,
                          offset=0.0, r_cap=1000)
    cut = -math.log(bound) + 2 * d * math.log(2 * R + 1)
    box = (2 * R + 1,) * (2 * d)
    size = math.prod(box)
    for start in range(0, size, 1 << 18):
        flat = np.arange(start, min(start + (1 << 18), size))
        nu = np.stack(np.unravel_index(flat, box), axis=-1)
        nu -= R
        Q = ((nu @ H) * nu).sum(axis=1)
        keep = scale * Q <= cut
        yield nu[keep], Q[keep]


def _joined(blocks):
    nus, Qs = zip(*blocks)
    return np.concatenate(nus), np.concatenate(Qs)


KERNEL_CASES = [
    (1, 2, 1j), (1, 48, 1j), (1, 256, 1j), (1, 48, 0.1j), (1, 20, 2.4 + 0.5j),
    (2, 3, OM2), (2, 4, OMEGA_GRAM_2D), (3, 2, 1j * np.eye(3)),
]


@pytest.mark.parametrize("at", ["restriction", "density"])
@pytest.mark.parametrize("d,N,omega", KERNEL_CASES,
                         ids=[f"d{d}-N{N}-{i}" for i, (d, N, _) in enumerate(KERNEL_CASES)])
def test_kernel_enumerates_the_box_walk(d, N, omega, at):
    # the ellipsoid enumeration keeps the nu of the box walk, in its order,
    # with the bits of its Q, at both scales the package uses
    p = GaborParams(d=d, N=N, Omega=np.atleast_2d(omega))
    scale, bound = (np.pi / (2 * N), 1e-16) if at == "restriction" else (np.pi * N / 2, 1e-13)
    nu, Q = _joined(localization._heisenberg_kernel(p, scale, bound))
    ref_nu, ref_Q = _joined(_box_kernel(p, scale, bound))
    assert nu.dtype == np.int32
    assert np.array_equal(nu, ref_nu)
    assert np.array_equal(Q.view(np.uint64), ref_Q.view(np.uint64))
    if (d, N, omega, at) == (1, 48, 0.1j, "restriction"):
        assert len(nu) == 4541   # of the 233^2 = 54,289 nu in the box


def test_restriction_builds_the_kernel_once(monkeypatch):
    calls = []
    build = localization._heisenberg_kernel

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(localization, "_heisenberg_kernel", counted)
    p = _p(6, 0.3 + 1j)
    box = parse_symbol("step(0.5 - x1)*step(0.5 - xi1)")
    levels = set()
    for sym, tol in ((_Sampled(Constant(1.0)), 1e-8), (parse_symbol("sin(pi*x1)^2*xi1"), 1e-3),
                     (box, 1e-3)):
        calls.clear()
        rep = restriction_matrix(sym, p, oversample=2, rel_tol=tol)
        levels.add(len(rep.trace_history))
        assert len(calls) == 1
    assert levels == {2, 3, 4}
    calls.clear()
    with pytest.raises(QuadratureUnderResolvedError):
        restriction_matrix(box, p, oversample=2, rel_tol=1e-12)
    assert len(calls) == 1
    # the series route builds no kernel at all
    calls.clear()
    for sym in (Constant(1.0), parse_symbol("sin(pi*x1)^2*sin(pi*xi1)^2"), _sin2sin2_trig()):
        assert restriction_matrix(sym, p).trace_history == []
    assert calls == []


# measured peak 5.52 MB (numpy 2.4, Linux x86-64): 4.42 MB of kept int32 nu and
# float Q plus one block of candidates; int64 nu would add 2.9 MB
KERNEL_PEAK_BYTES = 6_500_000


def test_kernel_memory_is_the_kept_terms():
    # d = 2, N = 6: 184,015 kept of 27^4 = 531,441 in the box
    p = GaborParams(d=2, N=6, Omega=OM2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        blocks = list(localization._heisenberg_kernel(p, np.pi / 12, 1e-16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(len(nu) for nu, _ in blocks)
    assert kept == 184015
    assert peak <= KERNEL_PEAK_BYTES


@pytest.mark.parametrize("sym", [
    parse_symbol("sin(pi*x1)^2*sin(pi*xi1)^2*cos(pi*x2)^2", 2),
    TrigPoly(2, {(1, 0, 1, 1): 1.0, (0, 1, -1, 2): 0.5 - 1j}),
], ids=["real", "complex"])
def test_level_holds_one_transform(sym):
    # the second level (L = 32) transforms its samples block by block and in
    # place: 10.6 MB (real) and 21.7 MB (complex) measured against F of 8.9 and
    # 16.8 MB; a second grid-sized array reads 2 F
    p = GaborParams(d=2, N=2, Omega=OM2)
    L = 32
    F = L ** 3 * (L // 2 + 1 if sym.is_real else L) * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        restriction_matrix(_Sampled(sym), p, oversample=L // 4, rel_tol=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * F
