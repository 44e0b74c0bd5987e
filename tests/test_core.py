import math
import warnings

import numpy as np
import pytest

from lattice import complex_distance_mod_lattice
from torusgabor.bargmann import bargmann
from torusgabor.core import (
    GaborError,
    GaborParams,
    NonSymmetricError,
    NotPositiveDefiniteError,
    dual_lattice_member,
    exact_sum,
    lattice_coefficients,
    params_from_json,
    params_to_json,
)
from torusgabor.theta import theta_eval

TOL = 1e-12


def _p1(omega=1j, N=4):
    return GaborParams(d=1, N=N, Omega=np.array([[omega]]))


def _p2():
    om = np.array([[0.2 + 1.0j, 0.1 + 0.05j], [0.1 + 0.05j, 1.3j]])
    return GaborParams(d=2, N=3, Omega=om)


def test_params_validation_accepts_siegel_matrices():
    for p in (_p1(), _p1(0.3 + 1j), _p2()):
        assert np.array_equal(p.im_inv, np.linalg.inv(p.im))
        assert p.im_min == float(np.linalg.eigvalsh(p.im)[0])


def test_params_rejects_asymmetric_omega():
    om = np.array([[1j, 0.2], [0.1, 1j]])
    with pytest.raises(NonSymmetricError):
        GaborParams(d=2, N=2, Omega=om)


def test_params_rejects_indefinite_imaginary_part():
    with pytest.raises(NotPositiveDefiniteError):
        _p1(omega=0.5 - 0.1j)
    with pytest.raises(NotPositiveDefiniteError):
        _p1(omega=0.5)


@pytest.mark.parametrize("im", [
    # eigvalsh's smallest eigenvalue rounds positive, and inv finds Y singular
    [[0.29621784042087357, 0.17214920138308412], [0.17214920138308412, 0.10004578891915161]],
    # inv succeeds, and the smallest eigenvalue is 1.1e-16
    [[1.7004161176994, 1.2349936186624255], [1.2349936186624255, 0.896962350721813]],
], ids=["inv-fails", "inv-succeeds"])
def test_params_rejects_numerically_singular_imaginary_part(im):
    # both Y are rank one in exact arithmetic
    with pytest.raises(NotPositiveDefiniteError, match="Im\\(Omega\\)"):
        GaborParams(d=2, N=2, Omega=1j * np.array(im))


@pytest.mark.parametrize("d,N", [(1, 4.5), (1.0, 4), (True, 4), (1, "4"), (1, np.float64(4)),
                                 (0, 4), (1, -2)])
def test_params_d_and_N_must_be_positive_integers(d, N):
    with pytest.raises(GaborError, match="positive integer"):
        GaborParams(d=d, N=N, Omega=np.array([[1j]]))


def test_params_store_numpy_integers_as_int():
    p = GaborParams(d=np.int64(1), N=np.int32(4), Omega=np.array([[1j]]))
    assert type(p.d) is int and type(p.N) is int and p.shape == (4,)


def test_params_matrix_is_read_only():
    p = _p2()
    for a in (p.Omega, p.im_inv):
        with pytest.raises(ValueError):
            a[0, 0] = 2j


def test_params_shape_helpers():
    p = _p2()
    assert p.shape == (3, 3)
    assert p.dim_sn == 9
    assert np.allclose(p.im, [[1.0, 0.05], [0.05, 1.3]])
    assert np.allclose(p.re, [[0.2, 0.1], [0.1, 0.0]])


def test_lattice_coefficients_recover_generators():
    # one point at a time, then all of them as one (P, d) batch with the same bits
    rng = np.random.default_rng(8)
    for p in (_p1(0.3 + 1j), _p2()):
        a = rng.standard_normal((20, p.d))
        b = rng.standard_normal((20, p.d))
        zs = -1j * (a @ p.Omega.T) + 1j * b
        for z, aj, bj in zip(zs, a, b):
            ar, br = lattice_coefficients(z, p)
            assert ar.shape == br.shape == (p.d,)
            assert np.abs(ar - aj).max() < 1e-10
            assert np.abs(br - bj).max() < 1e-10
        batch = lattice_coefficients(zs, p)
        single = [lattice_coefficients(z, p) for z in zs]
        for got, want in zip(batch, zip(*single)):
            assert np.array_equal(got, np.array(want))
    with pytest.raises(GaborError):
        lattice_coefficients(np.zeros((2, 3, 2), complex), _p2())


def test_lattice_coefficients_validate_their_params():
    # Im Omega = 0 is refused as every entry point refuses it, not by a failed solve
    for om in (0.5 + 0j, 0.3 - 1j):
        with pytest.raises(NotPositiveDefiniteError):
            lattice_coefficients(np.array([1 + 1j]), _p1(om))
    # a valid Omega whose 2d x 2d system with pivoting on X loses its last
    # pivot to underflow: the solve with Y alone never does
    a, b = lattice_coefficients(np.array([1 + 1j]), _p1(1e10 + 1e-320j))
    assert a[0] == b[0] == math.inf
    with pytest.raises(GaborError, match="overflow"):
        dual_lattice_member(np.array([1 + 1j]), _p1(1e10 + 1e-320j))


def test_dual_lattice_membership():
    p = _p1(0.3 + 1j)
    z = -1j * (p.Omega @ np.array([2.0])) + 1j * np.array([-3.0])
    m = dual_lattice_member(z, p)
    assert m.member and m.a[0] == 2 and m.b[0] == -3
    assert not dual_lattice_member(z / 4, p).member
    m3 = dual_lattice_member(z + 1e-5, p)
    assert not m3.member
    assert m3.residual > 1e-6


def test_near_membership_tolerance_boundary():
    p = _p1()
    z = -1j * (p.Omega @ np.array([1.0])) + 1j * np.array([1.0])
    assert dual_lattice_member(z + 1e-12, p).member
    assert not dual_lattice_member(z + 1e-7, p).member


def test_distance_mod_lattice():
    p = _p1(0.3 + 1j)
    z = np.array([0.37 - 0.21j])
    shift = -1j * (p.Omega @ np.array([3.0])) + 1j * np.array([-2.0])
    assert complex_distance_mod_lattice(z, z + shift, p) < 1e-10
    assert complex_distance_mod_lattice(z, z + 0.05, p) == pytest.approx(0.05, rel=1e-6)


@pytest.mark.parametrize("omega", [0.3 + 1j, 0.9 + 0.3j, 2.4 + 0.5j])
def test_distance_mod_lattice_is_the_nearest_translate(omega):
    # brute force: the 17 x 17 translates about the rounded coefficients; on a
    # skewed lattice rounding each coefficient alone is not the nearest
    p = _p1(omega)
    rng = np.random.default_rng(47)
    z = rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)
    a, b = lattice_coefficients(z[:, None], p)
    k = np.arange(-8, 9)
    ms = np.round(a) + k
    ks = np.round(b) + k
    translates = -1j * omega * ms[:, :, None] + 1j * ks[:, None, :]
    brute = np.abs(z[:, None, None] - translates).min(axis=(1, 2))
    got = np.array([complex_distance_mod_lattice(zi, 0.0, p) for zi in z])
    assert np.abs(got - brute).max() <= 1e-12
    # the rounded translate misses 228, 461 and 1,312 of these 2,000 points
    rounded = np.abs(z - translates[:, 8, 8])
    assert np.count_nonzero(rounded > brute + 1e-9) > 200


def test_single_point_lattice_tests_refuse_a_batch():
    # only lattice_coefficients takes (P, d); the one-point answer would mix the rows
    p = _p2()
    with pytest.raises(GaborError):
        dual_lattice_member(np.zeros((3, 2), complex), p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(0.5, -np.inf)],
                         ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
def test_single_point_lattice_tests_refuse_a_non_finite_point(bad):
    # no integer witness of a cast NaN, no RuntimeWarning
    for p in (_p1(0.3 + 1j), _p2()):
        z = np.full(p.d, bad, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GaborError, match="must be finite"):
                dual_lattice_member(z, p)


def test_lattice_witnesses_beyond_64_bits_are_refused():
    p = _p1()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GaborError, match="exceed 64 bits"):
            dual_lattice_member(np.array([1e300 + 0j]), p)
        with pytest.raises(GaborError, match="overflow"):
            dual_lattice_member(np.array([2e307 + 0j]), _p1(1e-3j))


def test_params_json_round_trip():
    for p in (_p1(0.3 + 1j), _p2()):
        q = params_from_json(params_to_json(p))
        assert q.d == p.d and q.N == p.N
        assert np.abs(q.Omega - p.Omega).max() < TOL


def test_params_json_rejects_bad_matrix():
    with pytest.raises(Exception):
        params_from_json('{"d": 2, "N": 2, "omega_re": [[0]], "omega_im": [[1]]}')


@pytest.mark.parametrize("bad,error", [
    (np.array([[1j, np.nan], [np.nan, 1j]]), GaborError),
    (np.array([[1j, 0.2], [0.1, 1j]]), NonSymmetricError),
    (np.array([[1j, 0.0], [0.0, -0.5j]]), NotPositiveDefiniteError),
    (1j * np.array([[1.7004161176994, 1.2349936186624255],
                    [1.2349936186624255, 0.896962350721813]]), NotPositiveDefiniteError),
], ids=["nonfinite", "asymmetric", "indefinite", "singular"])
def test_invalid_omega_raises_on_every_construction(bad, error):
    # every construction with a bad Omega raises, also between uses of a good one
    z, coeffs = np.array([0.1 + 0.2j, 0.3j]), np.ones((2, 2))
    for _ in range(3):
        with pytest.raises(error):
            GaborParams(d=2, N=2, Omega=bad)
        good = GaborParams(d=2, N=2, Omega=np.array([[1j, 0.1], [0.1, 1.2j]]))
        assert theta_eval(z, good).tail_bound <= 1e-12
        assert bargmann(coeffs, z, good).weighted_mag > 0.0


def _sum_cases():
    rng = np.random.default_rng(11)
    tiny = 5e-324
    return {
        "mixed_signs": rng.standard_normal(5000),
        "subnormals": np.concatenate([rng.integers(-9, 10, 3000) * tiny,
                                      [tiny, -tiny, 2.2e-308, -1e-310, 3e-320]]),
        "1e-300_to_1e300": rng.standard_normal(4000) * 10.0 ** rng.integers(-300, 301, 4000),
        "cancellation": np.array([1e16, 1.0, -1e16]),
        "cancellation_to_a_tail": np.array([1e300, 1e-300, 3.0, -1e300, -3.0]),
        "ties_to_even": np.array([1.0, 2.0 ** -53, 2.0 ** -53, -2.0 ** -105]),
        "near_max": np.array([1.7e308, 1.0, -1.7e308, 2.0 ** -1074]),
        "empty": np.array([]),
        # more than one pass of equal exponents, where the bin sums are largest
        "beyond_one_pass": np.full(300_001, -np.nextafter(1.0, 0.0)),
    }


@pytest.mark.parametrize("name", list(_sum_cases()))
def test_exact_sum_equals_fsum(name):
    values = _sum_cases()[name]
    expect = math.fsum(values)
    # uneven blocks, empty ones included, from lists, arrays and a generator
    cuts = [0, 1, 1, values.size // 3, values.size // 3 + 7]
    blocks = [b for b in np.split(values, [c for c in cuts if c <= values.size])]
    for got in (exact_sum([values]), exact_sum(blocks), exact_sum(iter(blocks)),
                exact_sum([values.tolist()]), exact_sum([values[::-1]])):
        assert type(got) is float
        assert got.hex() == expect.hex()


def test_exact_sum_survives_intermediate_overflow():
    values = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(values)
    assert exact_sum([values]) == 1e308
    assert exact_sum([[1e308] * 3, [-1e308] * 3, [5.0]]) == 5.0


def test_exact_sum_rejects_overflow_and_non_finite_values():
    with pytest.raises(GaborError, match="sum of the samples exceeds double precision"):
        exact_sum([[1e308, 1e308]], "the samples")
    with pytest.raises(GaborError, match="exceeds double precision"):
        exact_sum([[np.finfo(float).max, np.finfo(float).max, -np.finfo(float).max / 2]])
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(GaborError, match="the samples must be finite"):
            exact_sum([[1.0, 2.0], [3.0, bad]], "the samples")


def test_submodules_are_not_shadowed_by_functions():
    # `import torusgabor.bargmann as m` binds the attribute of the package, which
    # must be the submodule, not a function re-exported under its name
    import types

    import torusgabor
    import torusgabor.bargmann as m

    assert isinstance(m, types.ModuleType) and m.__name__ == "torusgabor.bargmann"
    for name in ("core", "transforms", "theta", "bargmann", "frames", "localization"):
        assert isinstance(getattr(torusgabor, name), types.ModuleType), name
