import contextlib
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

from torusgabor import GaborParams, theta_eval
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
    f = np.arange(4.0)
    _, out_fft, _ = _run(capsys, "dgt", "forward", "--params", P4,
                         "--signal", _signal_doc(f), "--method", "fft")
    _, out_dir, _ = _run(capsys, "dgt", "forward", "--params", P4,
                         "--signal", _signal_doc(f), "--method", "direct")
    a = json.loads(out_fft)["coefficients"]
    b = json.loads(out_dir)["coefficients"]
    assert np.abs(np.asarray(a["re"]) - np.asarray(b["re"])).max() < 1e-12
    assert json.loads(out_fft)["provenance"]["method"] == "fft"


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


def test_theta_eval_overflow_is_a_domain_error(capsys):
    # the lattice reduction factor overflows; no NaN may be printed as a value
    code, out, err = _run(capsys, "theta", "eval", "--params", P4, "--z", "1e308j")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_domain_errors_exit_one(capsys):
    # non-symmetric Omega is rejected during validation
    bad = '{"d": 1, "N": 3, "omega_re": [[0.0]], "omega_im": [[-1.0]]}'
    code, out, err = _run(capsys, "theta", "zero", "--params", bad)
    assert code == 1
    assert out == ""
    assert "error:" in err
    # exhaustive scan over too many subsets is refused, not attempted
    params5 = '{"d": 1, "N": 5, "omega_re": [[0.0]], "omega_im": [[1.0]]}'
    code, _, err = _run(capsys, "frame", "scan", "--params", params5, "-K", "12")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theta", "eval", "--params", P4])  # missing --z
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
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


@pytest.mark.parametrize("argv,code,message", [
    (["spectrum", "restriction", "--params", P4, "--symbol", "x1/0"], 1, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "0/0"], 1, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "1e308"], 1, "overflowed"),
    (["frame", "check", "--params", P4, "--points", "0,0;1"], 1, "error:"),
    (["frame", "check", "--params", P4_NO_OMEGA_RE, "--points", "0,0;1,1"], 1, "error:"),
    (["frame", "check", "--params", P4, "--points", "0,0;1,1", "--threshold", "nan"], 1,
     "non-finite"),
    (["asymptotics", "sweep", "--symbol", "x1", "--omega", "1j", "--n-list", "2,x"], 2, "error:"),
    (["spectrum", "restriction", "--params", P4, "--symbol", "x1", "--alpha-grid", "0.5,a"], 2,
     "error:"),
    (["frame", "scan", "--params", P4, "-K", "0"], 1, "error:"),
    (["frame", "scan", "--params", P4, "--mode", "random", "-K", "40", "--count", "3"], 1,
     "error:"),
    (["theta", "zero", "--params", P4_NAN_OMEGA], 1, "error:"),
    (["frame", "check", "--params", P4, "--points=--"], 2, "error:"),
], ids=["symbol-x1/0", "symbol-0/0", "symbol-overflow", "points-half-pair",
        "params-no-omega_re", "threshold-nan", "n-list-letter", "alpha-grid-letter",
        "scan-K0", "scan-K-above-positions", "params-nan-omega", "points-double-dash"])
def test_malformed_input_exits_with_a_message(argv, code, message):
    # a separate interpreter, so an uncaught exception would show as a traceback
    # and a numpy warning would show on stderr
    import torusgabor

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


def _run_captured(argv):
    # capsys is not reset between hypothesis examples, so capture here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
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
