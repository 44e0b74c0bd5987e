"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Each test is self-contained and seeded; `pytest -v` prints one pass/fail
line per criterion.
"""

import json
import time

import numpy as np
import pytest

from box_sum import theta_box
from dgt_reference import dgt_direct
from lattice import complex_distance_mod_lattice
from torusgabor.bargmann import bergman_density, gram, section_winding
from torusgabor.cli import main
from torusgabor.core import GaborParams
from torusgabor.frames import scan_subsets
from torusgabor.localization import (
    BoxIndicator,
    Constant,
    asymptotic_sweep,
    restriction_matrix,
    spectrum,
)
from torusgabor.theta import ScaledComplex, theta_eval, theta_zero_1d
from torusgabor.transforms import GaussianWindow, dgt, dgt_inverse, periodize_sample

OMEGA_2D = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
# the same Omega as JSON params at N = 2, for the density golden file
P2D_DENSITY = ('{"d": 2, "N": 2, "omega_re": [[0.1, 0.05], [0.05, 0.0]], '
               '"omega_im": [[1.0, 0.1], [0.1, 1.3]]}')


def _params(d, N, omega=None):
    if omega is None:
        Omega = 1j * np.eye(d)
    elif np.isscalar(omega):
        Omega = np.array([[omega]])
    else:
        Omega = np.asarray(omega)
    return GaborParams(d=d, N=N, Omega=Omega)


def _random_signal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01_dgt_round_trip_and_path_agreement():
    rng = np.random.default_rng(101)
    for d, N in ((1, 16), (2, 4)):
        p = _params(d, N)
        g = periodize_sample(GaussianWindow(p))
        f = _random_signal(rng, p.shape)
        V_fft = dgt(f, g)
        V_dir = dgt_direct(f, g)
        path_err = np.abs(V_fft - V_dir).max() / np.abs(V_fft).max()
        assert path_err <= 1e-12
        back = dgt_inverse(V_fft, g)
        rel = np.linalg.norm(back - f) / np.linalg.norm(f)
        assert rel <= 1e-10


def test_criterion_02_discrete_tightness():
    rng = np.random.default_rng(102)
    cases = [(1, 16)] * 10 + [(2, 4)] * 10
    for d, N in cases:
        p = _params(d, N)
        f = _random_signal(rng, p.shape)
        g = _random_signal(rng, p.shape)
        V = dgt(f, g)
        total = float(np.sum(np.abs(V) ** 2))
        target = N ** d * float(np.vdot(f, f).real) * float(np.vdot(g, g).real)
        assert abs(total - target) <= 1e-10 * target


def test_criterion_03_continuous_moyal_quadrature():
    # pairwise inner products of the coherent family against itself,
    # evaluated by phase-space quadrature, must return the identity
    for om in (1j, 0.3 + 1j):
        for N in (2, 4):
            p = _params(1, N, om)
            rep = restriction_matrix(Constant(1.0), p, oversample=8)
            assert np.abs(rep.matrix - np.eye(N)).max() <= 1e-8


def test_criterion_04_theta_quasiperiodicity_and_tail_honesty():
    rng = np.random.default_rng(104)
    cases = [(_params(1, 3, 0.3 + 1.1j), 3)] * 25 + \
            [(GaborParams(d=2, N=2, Omega=OMEGA_2D), 2)] * 25
    for p, order in cases:
        d = p.d
        z = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        k = rng.integers(-2, 3, d).astype(float)
        m = rng.integers(-2, 3, d).astype(float)
        base = theta_eval(z, p, order=order, tol=1e-13)
        lhs = theta_eval(z + m + p.Omega @ k, p, order=order, tol=1e-13).value
        factor = ScaledComplex.from_exponent(
            -1j * np.pi * order * (k @ p.Omega @ k) - 2j * np.pi * order * (k @ z)
        )
        rhs = factor * base.value
        # |lhs - rhs| / |rhs|, formed in the scale of rhs
        residual = abs(np.exp(lhs.logmag - rhs.logmag) * lhs.phase - rhs.phase)
        assert residual <= 1e-10
        # honesty: a brute-force sum on a box four shells past the certified
        # radius differs by less than the claimed tail bound; the floor
        # covers summation roundoff, which the bound cannot see
        finer = theta_box(z, p, order, base.radius + 4)
        drift = abs(base.value.to_complex() - finer)
        floor = 1e-13 * base.value.magnitude()
        assert drift <= base.tail_bound * (1 + 1e-6) + floor


def test_criterion_05_theta_zero_matches_transported_classical_zero():
    for om in (1j, 2j, 0.3 + 1j):
        p = _params(1, 3, om)
        z0 = np.array([theta_zero_1d(p, tol=1e-12)])
        target = -1j * (1 + om) / 2
        dist = complex_distance_mod_lattice(z0, np.array([target]), p)
        assert dist <= 1e-10


def test_criterion_06_gram_rank_and_orthogonality():
    for d, N in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
        om = None if d == 1 else np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])
        p = _params(d, N, om)
        rep = gram(p)
        assert rep.rank == N ** d
        assert rep.offdiag_residual <= 1e-8


def test_criterion_07_section_zero_count():
    rng = np.random.default_rng(107)
    for N in (2, 3, 5):
        p = _params(1, N)
        for _ in range(10):
            coeffs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            assert section_winding(coeffs, p) == N


def test_criterion_08_parity_predicate_vs_svd_oracle():
    elapsed_n4 = None
    for om in (1j, 0.25 + 1j):
        for N in (2, 3, 4):
            p = _params(1, N, om)
            t0 = time.monotonic()
            res = scan_subsets(p, N)
            dt = time.monotonic() - t0
            assert res.parity_applicable
            assert res.confusion["pred_no_frame_oracle_frame"] == 0
            assert res.confusion["pred_frame_oracle_no_frame"] == 0
            assert res.disagreements == []
            if N == 4:
                assert res.total == 1820
                elapsed_n4 = dt
    assert elapsed_n4 is not None and elapsed_n4 < 60.0


def test_criterion_09_counting_guarantees_hold_empirically():
    p = _params(1, 6)
    res = scan_subsets(p, 7, mode="random", count=500, seed=109)
    assert res.total == 500
    assert res.all_frames
    for N, K in ((2, 1), (3, 1), (3, 2)):
        p = _params(1, N)
        res = scan_subsets(p, K)
        assert res.confusion["oracle_no_frame"] == res.total


def test_criterion_10_restriction_trace_limit():
    n_list = [4, 8, 16, 32]
    sw = asymptotic_sweep("sin(2*pi*x1)^2*sin(2*pi*xi1)^2", n_list,
                          np.array([[1j]]))
    devs = [abs(r.trace_scaled - 0.25) for r in sw.rows]
    for a, b in zip(devs, devs[1:]):
        assert b <= a + 1e-10
    assert devs[-1] <= 0.05
    for N in n_list:
        p = _params(1, N)
        rep = restriction_matrix(Constant(1.0), p, oversample=8)
        assert abs(rep.trace.real / N - 1.0) <= 1e-8


def test_criterion_11_plunge_and_counting_limit():
    box = BoxIndicator([0.0, 0.0], [0.5, 0.5])
    plunges = []
    for N in (8, 16, 32):
        p = _params(1, N)
        rep = restriction_matrix(box, p, oversample=4, rel_tol=1e-3)
        sp = spectrum(rep)
        lam = sp.eigenvalues.real
        assert lam.min() >= -1e-6
        assert lam.max() <= 1 + 1e-6
        plunges.append(sp.plunge_fraction(0.1))
        if N == 32:
            assert abs(sp.count_below(0.5) / N - 0.75) <= 0.1
    assert plunges[0] > plunges[1] > plunges[2]


def test_criterion_12_bergman_density_mass_and_flattening():
    reports = {}
    for N in (8, 32):
        p = _params(1, N)
        rep = bergman_density(p, oversample=8)
        assert abs(rep.integral - N) <= 1e-8
        reports[N] = rep
    assert reports[32].flatness() < reports[8].flatness()


def test_criterion_13_cli_determinism_and_golden_files(capsys, tmp_path):
    p4 = '{"d": 1, "N": 4, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    runs = [
        ("theta_zero.json", ["theta", "zero", "--params", p4]),
        ("frame_check.json", ["frame", "check", "--params", p4,
                              "--points", "0,0;1,1;2,3;1,0"]),
        ("asymptotics_sweep.json", ["asymptotics", "sweep",
                                    "--symbol", "sin(pi*x1)^2*sin(pi*xi1)^2",
                                    "--omega", "1j", "--n-list", "2,4"]),
        ("bergman_density.json", ["bergman", "density", "--params", P2D_DENSITY,
                                  "--oversample", "3"]),
    ]
    here = __file__.rsplit("/", 1)[0]
    for golden_name, argv in runs:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical across runs
        with open(f"{here}/golden/{golden_name}") as fh:
            assert first == fh.read()
        json.loads(first)  # golden documents stay valid JSON
    # csv mode is deterministic too, seed pinned
    scan = ["frame", "scan", "--params", p4, "-K", "2", "--mode", "random",
            "--count", "25", "--seed", "7", "--format", "csv"]
    assert main(list(scan)) == 0
    first = capsys.readouterr()
    assert main(list(scan)) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == second.err
    # the density table in CSV mode, pinned byte for byte
    density_csv = ["bergman", "density", "--params", p4, "--oversample", "4", "--format", "csv"]
    assert main(list(density_csv)) == 0
    with open(f"{here}/golden/bergman_density.csv") as fh:
        assert capsys.readouterr().out == fh.read()
