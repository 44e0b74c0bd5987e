import argparse
import builtins
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgt_reference import dgt_direct
import torusgabor
from torusgabor import GaborParams, cli, theta, theta_eval, transforms
from torusgabor.bargmann import bergman_density
from torusgabor.cli import _fmt_float, _json_dumps, main
from torusgabor.core import GaborError

P4 = '{"d": 1, "N": 4, "omega_re": [[0.0]], "omega_im": [[1.0]]}'


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _signal_doc(values):
    arr = np.asarray(values, dtype=complex)
    return json.dumps({
        "shape": list(arr.shape),
        "re": arr.real.reshape(-1).tolist(),
        "im": arr.imag.reshape(-1).tolist(),
    })


def test_output_is_deterministic(capsys):
    args = ("theta", "zero", "--params", P4)
    c1, out1, _ = _run(capsys, *args)
    c2, out2, _ = _run(capsys, *args)
    assert c1 == c2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert "provenance" in doc and "z0" in doc
    assert doc["provenance"]["version"] == "0.1.0"
    assert "timestamp" not in json.dumps(doc)


def test_theta_zero_matches_library_value(capsys):
    code, out, _ = _run(capsys, "theta", "zero", "--params", P4)
    assert code == 0
    doc = json.loads(out)
    # self-dual square lattice: the zero class is (1 + i) / 2
    assert doc["z0"]["re"] == pytest.approx(0.5, abs=1e-9)
    assert doc["z0"]["im"] == pytest.approx(0.5, abs=1e-9)
    assert doc["weighted_magnitude"] < 1e-9


def test_theta_eval_matches_library(capsys):
    code, out, _ = _run(capsys, "theta", "eval", "--params", P4, "--z", "0.3+0.7j")
    assert code == 0
    doc = json.loads(out)
    params = GaborParams(d=1, N=4, Omega=np.array([[1j]]))
    ev = theta_eval(np.array([0.3 + 0.7j]), params)
    assert doc["value"]["re"] == pytest.approx(ev.value.to_complex().real, rel=1e-12)
    assert doc["value"]["im"] == pytest.approx(ev.value.to_complex().imag, rel=1e-12)
    assert doc["radius"] == ev.radius
    assert doc["tail_bound"] <= 1e-12


def test_dgt_round_trip_through_documents(capsys):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    code, out, _ = _run(capsys, "dgt", "forward", "--params", P4,
                        "--signal", _signal_doc(f))
    assert code == 0
    coeffs = json.loads(out)["coefficients"]
    code, out, _ = _run(capsys, "dgt", "inverse", "--params", P4,
                        "--coeffs", json.dumps(coeffs))
    assert code == 0
    sig = json.loads(out)["signal"]
    back = np.asarray(sig["re"]) + 1j * np.asarray(sig["im"])
    assert np.abs(back - f).max() < 1e-12


def test_dgt_methods_agree(capsys):
    # the CLI's coefficients against the direct reference sum
    f = np.arange(4.0)
    _, out, _ = _run(capsys, "dgt", "forward", "--params", P4, "--signal", _signal_doc(f))
    doc = json.loads(out)
    a = doc["coefficients"]
    g = transforms.periodize_sample(transforms.GaussianWindow(GaborParams(d=1, N=4, Omega=1j)))
    b = dgt_direct(f, g).reshape(-1)
    assert np.abs(np.asarray(a["re"]) - b.real).max() < 1e-12
    assert np.abs(np.asarray(a["im"]) - b.imag).max() < 1e-12
    assert "method" not in doc["provenance"]


def test_frame_check_document(capsys):
    code, out, _ = _run(capsys, "frame", "check", "--params", P4,
                        "--points", "0,0;1,1;2,3;1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 4
    assert doc["is_frame"] is False
    assert doc["parity"]["no_frame"] is True
    assert doc["parity"]["integer_form"] is True
    assert doc["guarantees"]["no_frame_by_count"] is False
    assert len(doc["singular_values"]) == 4


def test_frame_check_csv_keeps_the_parity_point_in_parts(capsys):
    code, out, _ = _run(capsys, "frame", "check", "--params", P4,
                        "--points", "0,0;1,1;2,3;1,0", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    doc = json.loads(_run(capsys, "frame", "check", "--params", P4,
                          "--points", "0,0;1,1;2,3;1,0")[1])
    assert float(rows["parity.s.re"]) == doc["parity"]["s"]["re"]
    assert float(rows["parity.s.im"]) == doc["parity"]["s"]["im"]
    assert rows["parity.witness.1"] == str(doc["parity"]["witness"][1])
    assert rows["parity.integer_form"] == "true"
    # complex values flatten into re and im rows, as _json_dumps writes them
    assert cli._flatten_doc({"s": 0.5 - 1j}) == [["s.re", "0.5"], ["s.im", "-1"]]


@pytest.mark.parametrize("symbol", [
    "(" * 250 + "x1" + ")" * 250,
    "(" * 3000 + "x1" + ")" * 3000,
    "-" * 3000 + "x1",
    "+".join(["sin(2*pi*x1)"] * 400),
    "^".join(["x1"] * 3000),
    "+".join(["x1"] * 20000),
], ids=["parens-250", "parens-3000", "minus-3000", "sum-400", "power-3000", "sum-20000"])
def test_deep_symbols_are_domain_errors(capsys, symbol):
    # --symbol=..., so that argparse takes the leading minus signs as a value
    code, out, err = _run(capsys, "spectrum", "restriction", "--params", P4, f"--symbol={symbol}")
    assert code == 1 and out == ""
    assert err.startswith("error: expression nests deeper than 100 levels")
    assert "Traceback" not in err


def test_frame_check_json_points(capsys):
    code, out, _ = _run(capsys, "frame", "check", "--params", P4,
                        "--points", "[[[0],[0]],[[1],[1]],[[2],[3]],[[2],[0]]]")
    assert code == 0
    assert json.loads(out)["is_frame"] is True


def test_frame_scan_exhaustive(capsys):
    params2 = '{"d": 1, "N": 2, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, out, _ = _run(capsys, "frame", "scan", "--params", params2, "-K", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 6
    assert doc["confusion"]["pred_no_frame_oracle_frame"] == 0
    assert doc["confusion"]["pred_frame_oracle_no_frame"] == 0
    assert doc["disagreements"] == []


def test_frame_scan_seed_recorded(capsys):
    params6 = '{"d": 1, "N": 6, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, out, _ = _run(capsys, "frame", "scan", "--params", params6, "-K", "7",
                        "--mode", "random", "--count", "20", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["seed"] == 9
    assert doc["total"] == 20
    assert doc["all_frames"] is True


def test_bergman_density_document(capsys):
    code, out, _ = _run(capsys, "bergman", "density", "--params", P4,
                        "--oversample", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] == pytest.approx(4.0, abs=1e-8)
    assert doc["vmin"] > 0
    assert len(doc["x_nodes"]) == 16
    assert doc["values"]["shape"] == [16, 16]


def test_density_document_is_a_real_array(capsys):
    code, out, _ = _run(capsys, "bergman", "density", "--params", P4, "--oversample", "4")
    assert code == 0
    values = json.loads(out)["values"]
    assert set(values) == {"shape", "re"}
    text = json.dumps(values)
    back = cli._load_array(text, (16, 16), "values")
    assert back.dtype == complex and not back.imag.any()
    assert back.real.tolist() == np.reshape(values["re"], (16, 16)).tolist()
    # the re list is the library's density, bit for bit
    rep = bergman_density(GaborParams(d=1, N=4, Omega=np.array([[1j]])), oversample=4)
    assert np.array_equal(back.real, rep.values)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_density_formats_each_cell_value_once(capsys, monkeypatch, fmt):
    # 64 cell values and 2 * 256 nodes, not one format per node of the 256^2 grid
    calls = []

    def counted(x):
        calls.append(x)
        return _fmt_float(x)

    monkeypatch.setattr(cli, "_fmt_float", counted)
    params = '{"d": 1, "N": 32, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, out, _ = _run(capsys, "bergman", "density", "--params", params, "--format", fmt)
    assert code == 0
    assert len(out.splitlines()) > 256 ** 2
    assert len(calls) <= 8 ** 2 + 2 * 256 + 8


def test_oversized_density_grid_is_a_domain_error(capsys):
    params = '{"d": 1, "N": 32, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, out, err = _run(capsys, "bergman", "density", "--params", params,
                          "--oversample", "2000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "4096000000 nodes" in err


def test_complex_documents_keep_their_imaginary_part(capsys):
    f = np.arange(4.0)
    _, out, _ = _run(capsys, "dgt", "forward", "--params", P4, "--signal", _signal_doc(f))
    coeffs = json.loads(out)["coefficients"]
    assert set(coeffs) == {"shape", "re", "im"}
    _, out, _ = _run(capsys, "dgt", "inverse", "--params", P4, "--coeffs", json.dumps(coeffs))
    assert set(json.loads(out)["signal"]) == {"shape", "re", "im"}


def test_spectrum_restriction_document(capsys):
    code, out, _ = _run(capsys, "spectrum", "restriction", "--params", P4,
                        "--symbol", "sin(pi*x1)^2*sin(pi*xi1)^2",
                        "--alpha-grid", "0.25,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["hermitian"] is True
    assert len(doc["eigenvalues"]) == 4
    assert doc["trace"]["re"] == pytest.approx(1.0, abs=1e-9)
    assert set(doc["counts_below"]) == {"0.25", "0.5"}
    assert doc["provenance"]["symbol"] == "sin(pi*x1)^2*sin(pi*xi1)^2"
    # a trigonometric polynomial is summed from its own terms: no quadrature
    assert '"oversample": null' in out and '"trace_history": []' in out
    assert '"matrix_change": null' in out


def test_spectrum_restriction_document_of_a_sampled_symbol(capsys):
    # exp(cos(2 pi x)) has no finite Fourier sum, so the quadrature runs
    code, out, _ = _run(capsys, "spectrum", "restriction", "--params", P4,
                        "--symbol", "exp(cos(2*pi*x1))")
    assert code == 0
    doc = json.loads(out)
    assert doc["hermitian"] is True
    prov = doc["provenance"]
    assert prov["oversample"] >= 8 and len(prov["trace_history"]) >= 2
    # the relative Frobenius change the quadrature loop accepted
    assert 0.0 <= prov["matrix_change"] <= 1e-8


def test_asymptotics_sweep_document(capsys):
    code, out, _ = _run(capsys, "asymptotics", "sweep",
                        "--symbol", "sin(pi*x1)^2*sin(pi*xi1)^2",
                        "--omega", "1j", "--n-list", "2,4")
    assert code == 0
    doc = json.loads(out)
    assert [r["N"] for r in doc["rows"]] == [2, 4]
    assert doc["integral_target"] == pytest.approx(0.25, abs=1e-6)
    for row in doc["rows"]:
        assert row["trace_scaled"] == pytest.approx(0.25, abs=1e-9)


def test_csv_format_emits_table_and_provenance(capsys):
    code, out, err = _run(capsys, "dgt", "forward", "--params", P4,
                          "--signal", _signal_doc(np.ones(4)), "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k1,l1,value_re,value_im"
    assert len(lines) == 17  # header + 16 coefficient rows
    prov = json.loads(err)
    assert prov["provenance"]["tool"] == "torusgabor"


def _numbers(obj):
    # number leaves plus number-like keys: what the JSON writer may format
    if isinstance(obj, dict):
        return sum(_numbers(v) + (k.replace(".", "", 1).isdigit()) for k, v in obj.items())
    if isinstance(obj, list):
        return sum(_numbers(v) for v in obj)
    return int(isinstance(obj, (int, float)) and not isinstance(obj, bool))


@pytest.mark.parametrize("command", [
    ("dgt", "forward", "--params", P4, "--signal", _signal_doc(np.ones(4))),
    ("dgt", "inverse", "--params", P4, "--coeffs", _signal_doc(np.ones((4, 4)))),
    ("bergman", "density", "--params", P4, "--oversample", "2"),
    ("spectrum", "restriction", "--params", P4, "--symbol", "sin(pi*x1)^2"),
    ("asymptotics", "sweep", "--symbol", "sin(pi*x1)^2", "--omega", "1j", "--n-list", "2,4"),
], ids=["dgt-forward", "dgt-inverse", "density", "restriction", "sweep"])
def test_json_output_builds_no_csv_rows(capsys, monkeypatch, command):
    # CSV rows are formatted in CSV mode only, so JSON output formats no more
    # floats than it prints.  Floats reach format() through _fmt_float and
    # through the one-pass route for lists of floats, so format() is counted.
    calls = []

    def counted(x, spec=""):
        calls.append(x)
        return builtins.format(x, spec)

    monkeypatch.setattr(cli, "format", counted, raising=False)
    code, out, _ = _run(capsys, *command)
    assert code == 0
    assert 0 < len(calls) <= _numbers(json.loads(out))


def test_csv_flattening_for_scalar_documents(capsys):
    code, out, err = _run(capsys, "theta", "zero", "--params", P4,
                          "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert "z0.re" in keys and "weighted_magnitude" in keys
    assert "provenance" in json.loads(err)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "theta", "zero", "--params", P4,
                        "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["z0"]["re"] == pytest.approx(0.5, abs=1e-9)


def test_threads_option_is_a_usage_error():
    # evaluation is single-threaded, so there is no --threads option
    with pytest.raises(SystemExit) as exc:
        main(["theta", "zero", "--params", P4, "--threads", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("oversample", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ("bergman", "density", "--params", P4),
    ("spectrum", "restriction", "--params", P4, "--symbol", "step(0.5 - x1)"),
    ("asymptotics", "sweep", "--symbol", "step(0.5 - x1)", "--omega", "1j", "--n-list", "2"),
])
def test_nonpositive_oversample_is_a_domain_error(capsys, command, oversample):
    code, out, err = _run(capsys, *command, "--oversample", oversample)
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "--oversample" in err


def test_fourier_symbols_ignore_an_oversample_beyond_the_node_budget(capsys):
    # no quadrature grid is built, so none is refused
    code, out, _ = _run(capsys, "spectrum", "restriction", "--params", P4,
                        "--symbol", "sin(pi*x1)^2", "--oversample", "1000000")
    assert code == 0 and json.loads(out)["provenance"]["oversample"] is None


def test_theta_eval_overflow_is_a_domain_error(capsys):
    # the lattice reduction factor overflows; no NaN may be printed as a value
    code, out, err = _run(capsys, "theta", "eval", "--params", P4, "--z", "1e308j")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_domain_errors_exit_one(capsys):
    # a negative Im Omega is refused when the params are made
    bad = '{"d": 1, "N": 3, "omega_re": [[0.0]], "omega_im": [[-1.0]]}'
    code, out, err = _run(capsys, "theta", "zero", "--params", bad)
    assert code == 1
    assert out == ""
    assert "error:" in err
    # exhaustive scan over too many subsets is refused, not attempted
    params5 = '{"d": 1, "N": 5, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, _, err = _run(capsys, "frame", "scan", "--params", params5, "-K", "12")
    assert code == 1


@pytest.mark.parametrize("params,z,message", [
    ('{"d": 1, "N": 4.9, "omega_re": [[0.0]], "omega_im": [[1.0]]}', "0.3", "N must be"),
    ('{"d": true, "N": 4, "omega_re": [[0.0]], "omega_im": [[1.0]]}', "0.3", "d must be"),
    ('{"d": 1, "N": "4", "omega_re": [[0.0]], "omega_im": [[1.0]]}', "0.3", "N must be"),
    ('{"d": 2, "N": 2, "omega_re": [[0, 0], [0, 0]], "omega_im": [[0.29621784042087357, '
     '0.17214920138308412], [0.17214920138308412, 0.10004578891915161]]}', "0.1,0.2",
     "Im(Omega)"),
], ids=["N-4.9", "d-true", "N-string", "singular-im"])
def test_invalid_params_are_domain_errors(capsys, params, z, message):
    # refused when the params are made, not truncated or left to a failed solve
    code, out, err = _run(capsys, "theta", "eval", "--params", params, "--z", z)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and "cannot parse params" not in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theta", "eval", "--params", P4])  # missing --z
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def _subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# each action's options in order: (option strings, default, type, choices, required)
CLI_SURFACE = {
    "dgt forward": [
        ("--params", None, None, None, True),
        ("--signal", None, None, None, True),
        ("--window", None, None, None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "dgt inverse": [
        ("--params", None, None, None, True),
        ("--coeffs", None, None, None, True),
        ("--window", None, None, None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "theta eval": [
        ("--params", None, None, None, True),
        ("--z", None, None, None, True),
        ("--order", 1, "int", None, False),
        ("--tol", 1e-12, "float", None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "theta zero": [
        ("--params", None, None, None, True),
        ("--tol", 1e-10, "float", None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "frame check": [
        ("--params", None, None, None, True),
        ("--points", None, None, None, True),
        ("--window", None, None, None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "frame scan": [
        ("--params", None, None, None, True),
        ("--size/-K", None, "int", None, True),
        ("--mode", "exhaustive", None, ("exhaustive", "random"), False),
        ("--count", None, "int", None, False),
        ("--seed", None, "int", None, False),
        ("--window", None, None, None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "bergman density": [
        ("--params", None, None, None, True),
        ("--oversample", 8, "int", None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "spectrum restriction": [
        ("--params", None, None, None, True),
        ("--symbol", None, None, None, True),
        ("--oversample", 4, "int", None, False),
        ("--rel-tol", 1e-08, "float", None, False),
        ("--alpha-grid", "0.5", "comma-separated float list", None, False),
        ("--plunge-delta", 0.1, "float", None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
    "asymptotics sweep": [
        ("--symbol", None, None, None, True),
        ("--omega", None, None, None, True),
        ("--n-list", None, "comma-separated int list", None, True),
        ("--alpha-grid", "0.5", "comma-separated float list", None, False),
        ("--oversample", 4, "int", None, False),
        ("--rel-tol", 1e-08, "float", None, False),
        ("--out", None, None, None, False),
        ("--format", "json", None, ("json", "csv"), False),
    ],
}


def test_cli_surface_is_pinned():
    # every action with its options, defaults, types, choices and required flags
    surface = {}
    for command, group in _subparsers(cli.build_parser()).items():
        for action, parser in _subparsers(group).items():
            surface[f"{command} {action}"] = [
                ("/".join(a.option_strings), a.default, getattr(a.type, "__name__", None),
                 a.choices, a.required)
                for a in parser._actions if not isinstance(a, argparse._HelpAction)
            ]
    assert surface == CLI_SURFACE


def test_library_surface_is_pinned():
    # the package's names, and the four functions whose test-only knobs were
    # made constants: a caller sets only these arguments
    assert torusgabor.__all__ == [
        "GaborError", "GaborParams", "params_from_json", "params_to_json",
        "ScaledComplex", "theta_eval", "theta_zero_1d", "winding_number",
        "GaussianWindow", "dgt", "dgt_inverse", "periodize_sample", "time_frequency_shift",
        "bergman_density", "gram", "section_winding", "weight_phi",
        "PointSet", "counting_guarantees", "frame_bounds", "parity_predicate", "scan_subsets",
        "BoxIndicator", "Constant", "TrigPoly", "asymptotic_sweep", "parse_symbol",
        "restriction_matrix", "spectrum", "__version__",
    ]
    for fn, text in ((torusgabor.theta_eval, "(z, params, order=1, tol=1e-12)"),
                     (theta.certified_lattice_sum,
                      "(exponent_fn, decay, d, tol, offset=0.5, log_scale=0.0)"),
                     (torusgabor.winding_number, "(f, vertices)"),
                     (torusgabor.section_winding, "(coeffs, params)")):
        assert str(inspect.signature(fn)) == text


def test_the_parser_is_built_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    for _ in range(2):
        assert _run(capsys, "theta", "zero", "--params", P4)[0] == 0
    assert built.count("torusgabor") == 1


def test_a_command_builds_only_its_path(capsys, monkeypatch):
    # the top parser, the command's and the action's, with the action's
    # options alone, built once per import
    cli.build_parser.cache_clear()
    progs, options = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counted_init(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    def counted_add_argument(self, *flags, **kwargs):
        options.append(flags)
        return add_argument(self, *flags, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add_argument)
    for _ in range(2):
        assert _run(capsys, "theta", "zero", "--params", P4)[0] == 0
    assert progs == ["torusgabor", "torusgabor theta", "torusgabor theta zero"]
    help_flags = ("-h", "--help")
    assert options == [help_flags, ("--version",), help_flags, help_flags,
                       ("--params",), ("--tol",), ("--out",), ("--format",)]


def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    argv = ["theta", "zero", "--params", P4]
    code, out, err = _run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["torusgabor", *argv])
    assert main() == code == 0
    assert capsys.readouterr() == (out, err)
    passed = list(argv)
    assert main(passed) == 0
    assert passed == argv


def _whole_tree(argv):
    # the reference for main: the whole tree parses argv and, for a bare "--"
    # value, which it takes as a value, its top parser reports the error
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    bare = [name for name, value in vars(args).items() if value == [] or value == "--"]
    parser.error(f"argument --{bare[0].replace('_', '-')}: expected one argument")


@pytest.mark.parametrize("argv", [
    *[[command, action, flag] for command, (_, actions) in cli._COMMANDS.items()
      for action in actions for flag in ("--help", "-h")],
    ["-h"], ["--help"], *[[command, "-h"] for command in cli._COMMANDS],
    ["--version"], ["--vers"], ["theta", "zero", "--params", P4, "--version"],
    [], ["nonsense"], ["-x"], ["theta"], ["theta", "bogus"], ["spectrum", "bogus"],
    ["theta", "-h", "zero"], ["--", "theta", "zero"],
    ["theta", "eval", "--params", P4],
    ["theta", "zero", "--params", P4, "--tol", "x"],
    ["theta", "zero", "--params", P4, "--format", "xml"],
    ["theta", "zero", "--params", P4, "extra"],
    ["theta", "zero", "--params"],
    ["spectrum", "restriction", "--params", P4, "--symbol", "x1", "--bogus"],
    ["asymptotics", "sweep", "--symbol", "x1", "--omega", "1j", "--n-list", "2", "--d", "1"],
    ["frame", "check", "--params", P4, "--points=--"],
], ids=lambda argv: " ".join(argv).replace(P4, "P4") or "no-arguments")
def test_help_and_usage_errors_print_the_whole_trees_bytes(argv):
    # the path parser of a named action reports no usage error itself: the
    # whole tree does, so each usage line lists every command and action
    assert _run_captured(argv) == _run_captured(argv, _whole_tree)


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    args = ("frame", "scan", "--params", P4, "-K", "4", "--format", "csv")
    cli.build_parser.cache_clear()
    alone = _run(capsys, *args)
    with pytest.raises(SystemExit) as exc:
        main(["frame", "scan", "--params", P4, "-K", "x", "--mode", "random"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert _run(capsys, *args) == alone


def test_out_of_memory_is_a_domain_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(transforms, "periodize_sample", exhausted)
    code, out, err = _run(capsys, "frame", "check", "--params", P4, "--points", "0,0;1,1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of memory" in err
    assert "Traceback" not in err


def test_frame_commands_refuse_arguments_before_they_sample_the_window(capsys, monkeypatch):
    # without --window the frame commands leave the Gaussian to frames, which
    # periodizes it after its argument checks: here 10^6 samples a bad K
    # does not need
    def unexpected(*args, **kwargs):
        raise AssertionError("the window was sampled")

    monkeypatch.setattr(transforms, "periodize_sample", unexpected)
    params = '{"d": 2, "N": 1000, "omega_re": [[0, 0], [0, 0]], "omega_im": [[1, 0], [0, 1]]}'
    code, out, err = _run(capsys, "frame", "scan", "--params", params, "-K", "0")
    assert code == 1 and out == ""
    assert err == "error: subset size K must be in 1..1000000000000, got 0\n"


def test_sweep_prints_the_omega_that_ran(capsys):
    # a scalar and a JSON scalar, list or matrix are the same 1 x 1 Omega,
    # and the provenance prints it as that matrix
    runs = {
        _run(capsys, "asymptotics", "sweep", "--symbol", "sin(pi*x1)^2", "--omega", omega,
             "--n-list", "2")
        for omega in ("1j", '{"omega_re": 0, "omega_im": 1}',
                      '{"omega_re": [0], "omega_im": [1]}',
                      '{"omega_re": [[0]], "omega_im": [[1]]}')
    }
    assert len(runs) == 1
    code, out, _ = runs.pop()
    assert code == 0
    prov = json.loads(out)["provenance"]
    assert prov["d"] == 1 and prov["omega_re"] == [[0]] and prov["omega_im"] == [[1]]


def test_sweep_takes_d_from_omega(capsys):
    omega = '{"omega_re": [[0, 0], [0, 0]], "omega_im": [[1, 0], [0, 1]]}'
    code, out, _ = _run(capsys, "asymptotics", "sweep", "--symbol", "sin(pi*x1)^2*cos(pi*xi2)^2",
                        "--omega", omega, "--n-list", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["d"] == 2
    assert doc["rows"][0]["trace_scaled"] == pytest.approx(0.25, abs=1e-12)
    # --d is gone: d is the size of --omega
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "sweep", "--symbol", "x1", "--omega", "1j", "--n-list", "2",
              "--d", "1"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "torusgabor 0.1.0" in capsys.readouterr().out


def test_json_floats_survive_round_trip(capsys):
    # '.17g' formatting must reproduce the binary value exactly
    _, out, _ = _run(capsys, "theta", "eval", "--params", P4, "--z", "0.123+0.456j")
    doc = json.loads(out)
    params = GaborParams(d=1, N=4, Omega=np.array([[1j]]))
    ev = theta_eval(np.array([0.123 + 0.456j]), params)
    assert doc["logmag"] == ev.value.logmag


P4_NO_OMEGA_RE = '{"d": 1, "N": 4, "omega_im": [[1.0]]}'
P4_NAN_OMEGA = '{"d": 1, "N": 4, "omega_re": [[NaN]], "omega_im": [[1.0]]}'
P4_RE03 = '{"d": 1, "N": 4, "omega_re": [[0.3]], "omega_im": [[1.0]]}'
# N^2 tables of a terabyte and more, which must be refused before allocation
P300K = '{"d": 1, "N": 300000, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
P2_18 = '{"d": 1, "N": 262144, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
# a window series of 9 * 10^6 rows
P3000_D2 = '{"d": 2, "N": 3000, "omega_re": [[0, 0], [0, 0]], "omega_im": [[1, 0], [0, 1]]}'
# e^{pi i k^2 Re Omega} is that of Re Omega = 0.5, but pi k^2 10^6 is rounded by 1e-10
P1_RE1E6 = '{"d": 1, "N": 1, "omega_re": [[1000000.5]], "omega_im": [[1.0]]}'
POINTS4 = "0,0;1,1;2,3;1,0"


class _Zeros:
    """A real signal document of n zeros, passed as a file: it is too long for one argument."""

    def __init__(self, n):
        self.n = n

    def path(self, tmp_path):
        path = tmp_path / f"zeros{self.n}.json"
        path.write_text(json.dumps({"shape": [self.n], "re": [0] * self.n}))
        return str(path)


@pytest.mark.parametrize("argv,code,message", [
    (["spectrum", "restriction", "--params", P4, "--symbol", "x1/0"], 1, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "0/0"], 1, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "1e308"], 1, "overflowed"),
    (["frame", "check", "--params", P4, "--points", "0,0;1"], 1, "error:"),
    (["frame", "check", "--params", P4_NO_OMEGA_RE, "--points", "0,0;1,1"], 1, "error:"),
    # frames are decided by the SVD's own rank tolerance; the option is gone
    (["frame", "check", "--params", P4, "--points", "0,0;1,1", "--threshold", "nan"], 2,
     "unrecognized arguments: --threshold"),
    (["asymptotics", "sweep", "--symbol", "x1", "--omega", "1j", "--n-list", "2,x"], 2, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "x1", "--alpha-grid", "0.5,a"], 2,
     "error:"),
    (["frame", "scan", "--params", P4, "-K", "0"], 1, "error:"),
    (["frame", "scan", "--params", P4, "--mode", "random", "-K", "40", "--count", "3"], 1,
     "error:"),
    (["theta", "zero", "--params", P4_NAN_OMEGA], 1, "error:"),
    (["frame", "check", "--params", P4, "--points=--"], 2, "error:"),
    (["theta", "eval", "--params", P4_RE03, "--z", "1e8j"], 1, "phase"),
    (["theta", "zero", "--params", P4, "--tol", "0"], 1, "not below"),
    (["theta", "eval", "--params", P4, "--z", "1e6j"], 1, "magnitude"),
    (["dgt", "forward", "--params", P4, "--signal", _signal_doc(np.full(4, 1e308))], 1,
     "overflow"),
    (["dgt", "inverse", "--params", P4, "--coeffs", _signal_doc(np.full((4, 4), 1e308))], 1,
     "overflow"),
    (["dgt", "forward", "--params", P4, "--signal", _signal_doc([1, np.nan, 0, 0])], 1,
     "non-finite"),
    (["dgt", "inverse", "--params", P4, "--coeffs", _signal_doc(np.full((4, 4), np.inf))], 1,
     "non-finite"),
    # the restriction grids miss the one target node where these symbols are bad
    (["asymptotics", "sweep", "--symbol", "1e308*step(x1-0.50024)*step(0.50025-x1)"
      "+1e308*step(xi1-0.50024)*step(0.50025-xi1)", "--omega", "1j", "--n-list", "2"], 1,
     "target grid must be finite"),
    (["asymptotics", "sweep", "--symbol", "1/(x1-0.500244140625)*step(x1-0.50024)"
      "*step(0.50025-x1)", "--omega", "1j", "--n-list", "2"], 1, "target grid must be finite"),
    (["asymptotics", "sweep", "--symbol", "1e308*step(x1-0.50024)*step(0.50025-x1)",
      "--omega", "1j", "--n-list", "2"], 1, "target grid exceeds double precision"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "x1", "--oversample", "1000000"],
     1, "4000000^2 = 16000000000000 nodes"),
    (["asymptotics", "sweep", "--symbol", "sin(pi*x1)^2", "--omega", "1j",
      "--n-list", "300000"], 1, "300000^2 = 90000000000 nodes"),
    (["spectrum", "restriction", "--params", P300K, "--symbol", "sin(pi*x1)^2"], 1,
     "300000^2 = 90000000000 nodes"),
    (["dgt", "forward", "--params", P2_18, "--signal", _Zeros(2 ** 18),
      "--window", _Zeros(2 ** 18)], 1, "262144^2 = 68719476736 nodes"),
    (["frame", "scan", "--params", P4, "-K", "4", "--mode", "random",
      "--count", "1000000000000"], 1, "draws exceed"),
    (["frame", "scan", "--params", P4, "-K", "4", "--mode", "random", "--count", "5",
      "--seed", "-1"], 1, "seed"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "sin(pi*x1)^2",
      "--plunge-delta", "nan"], 1, "plunge delta"),
    (["frame", "check", "--params", P3000_D2, "--points", "0 0,0 0;1 1,1 1"], 1,
     "9000000 rows x 9 terms"),
    (["theta", "eval", "--params", P1_RE1E6, "--z", "0.3+0.2j"], 1, "series exponents"),
    (["frame", "check", "--params", P4, "--points", POINTS4,
      "--window", _signal_doc([np.nan, 1, 0, 0])], 1, "non-finite"),
    (["frame", "check", "--params", P4, "--points", POINTS4,
      "--window", _signal_doc([1e200, 1, 0, 0])], 1, "overflow"),
    (["frame", "check", "--params", P4, "--points", POINTS4,
      "--window", _signal_doc([0, 0, 0, 0])], 1, "zero norm"),
    (["frame", "scan", "--params", P4, "-K", "4", "--window", _signal_doc([np.nan, 1, 0, 0])],
     1, "non-finite"),
    (["frame", "scan", "--params", P4, "-K", "2", "--window", _signal_doc([np.nan, 1, 0, 0])],
     1, "non-finite"),
    (["frame", "scan", "--params", P4, "-K", "4", "--window", _signal_doc([0, 0, 0, 0])],
     1, "zero norm"),
    (["theta", "zero", "--params", P4, "--out", "/nonexistent/dir/x.json"], 1,
     "cannot write --out: [Errno 2] No such file or directory"),
    # finite matrices whose Frobenius norm overflows: the sawtooth x1 does not
    # settle, at any scale, and says by how much
    (["spectrum", "restriction", "--params", P4, "--symbol", "1e300*x1"], 1,
     "relative matrix change (Frobenius) 7.636e-05"),
], ids=["symbol-x1/0", "symbol-0/0", "symbol-overflow", "points-half-pair",
        "params-no-omega_re", "threshold-nan", "n-list-letter", "alpha-grid-letter",
        "scan-K0", "scan-K-above-positions", "params-nan-omega", "points-double-dash",
        "theta-eval-phase", "theta-zero-tol0", "theta-eval-magnitude", "dgt-forward-overflow",
        "dgt-inverse-overflow", "dgt-forward-nan", "dgt-inverse-inf", "sweep-target-inf",
        "sweep-target-pole", "sweep-target-sum-overflow", "restriction-oversample-grid",
        "sweep-restriction-table", "restriction-table", "dgt-forward-table",
        "scan-random-count", "scan-negative-seed", "plunge-delta-nan", "window-series",
        "theta-eval-rounding", "check-window-nan", "check-window-overflow", "check-window-zero",
        "scan-window-nan", "scan-below-dimension-window-nan", "scan-window-zero",
        "out-missing-directory", "restriction-norm-overflow"])
def test_malformed_input_exits_with_a_message(argv, code, message, tmp_path):
    # a separate interpreter, so an uncaught exception would show as a traceback
    # and a numpy warning would show on stderr
    import torusgabor

    argv = [a.path(tmp_path) if isinstance(a, _Zeros) else a for a in argv]

    src = os.path.dirname(os.path.dirname(torusgabor.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "torusgabor.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_report_values_are_domain_errors(value):
    # NaN and Infinity are not JSON tokens
    assert _fmt_float(0.1) == "0.10000000000000001"
    with pytest.raises(GaborError, match="non-finite"):
        _fmt_float(value)
    with pytest.raises(GaborError, match="non-finite"):
        _json_dumps({"x": [1.0, np.float64(value)]})


def test_float_lists_are_formatted_in_one_pass_with_the_same_bytes():
    values = [0.1, -0.0, 5e-324, 1e308, -2.5, 1.0 / 3.0]
    text = _json_dumps({"x": values})
    # the element-wise route: a list that is not all Python floats
    assert text == _json_dumps({"x": [np.float64(v) for v in values]})
    assert json.loads(text)["x"] == values
    # finite values whose sum overflows still print
    assert json.loads(_json_dumps([1e308, 1e308])) == [1e308, 1e308]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(GaborError, match="non-finite"):
            _json_dumps({"x": [1.0, bad, 2.0]})


def _run_captured(argv, run=main):
    # capsys is not reset between hypothesis examples, so capture here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parses(convert, text):
    try:
        return all(math.isfinite(convert(v)) for v in text.split(","))
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="0123456789,.-+ eEainf;_", max_size=12))
def test_malformed_number_lists_are_usage_errors(text):
    # only texts that do not parse are run, so no sweep is ever started
    for convert, option in ((int, "--n-list"), (float, "--alpha-grid")):
        if _parses(convert, text):
            continue
        opts = {"--n-list": "2", "--alpha-grid": "0.5", option: text}
        argv = ["asymptotics", "sweep", "--symbol", "x1", "--omega", "1j"]
        argv += [f"{k}={v}" for k, v in opts.items()]
        code, _, err = _run_captured(argv)
        assert code == 2
        assert f"argument {option}" in err


@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="0123456789,; -[]x.", max_size=16))
def test_any_points_text_ends_in_a_report_or_an_error(text):
    code, _, err = _run_captured(["frame", "check", "--params", P4, f"--points={text}"])
    assert code in (0, 1, 2)
    assert (code == 0) == ("error:" not in err)
