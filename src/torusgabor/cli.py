"""Command line front end.

Every subcommand writes one deterministic report to stdout (or --out): JSON
by default, a flat CSV table with --format csv (provenance then goes to
stderr).  Floats are printed with 17 significant digits so equal inputs give
byte-identical output; reports carry no timestamps for the same reason.
The grid sums and means that reports print (density integral and
flatness, and the sweep's mean target of a symbol without Fourier terms)
are order-fixed: they are correctly rounded sums (core.exact_sum, equal to
math.fsum), so they do not change with the summation order of a numpy
build.  A symbol with Fourier terms (a trigonometric polynomial) takes its
mean target from its constant term c_0, with no sum at all.  The volume
targets are always counts of grid samples, exact but aliased at and above
the grid's Nyquist frequency (1024 in d = 1, 24 in d = 2).  Restriction
matrices (and so their traces) and density values are assembled by FFTs and
elementwise sums, with no matmul, so their last bits follow numpy's FFT, not
the BLAS build.  The density is one inverse FFT of its period cell, and
`bergman density` prints it from that cell: each cell value and each node is
formatted once, and the grid's value list and CSV rows are tiled from that
text.  What can still differ between BLAS/LAPACK builds is the
output of dense linear algebra: eigenvalues, and singular values at roundoff
level, such as the 4.5314964572701556e-17 in tests/golden/frame_check.json.
`frame scan` takes one SVD per translation orbit of subsets, batched per
block: a subset's margin is that of its orbit's first scanned member, which
can differ from the subset's own SVD, and from the single-matrix SVD of
`frame check`, at roundoff level (up to 1.6e-14 relative in a frame margin
of the N=K=5 scan).
A report never holds NaN or Infinity: a non-finite value is a domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import frames, localization, theta, transforms
from .bargmann import bergman_density, weight_phi
from .core import GaborError, GaborParams, params_from_json, params_to_json

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x):
    # NaN and Infinity are not JSON tokens, and no report may carry them
    x = float(x)
    if not math.isfinite(x):
        raise GaborError(f"the report holds a non-finite value ({x}), which JSON cannot represent")
    return format(x, ".17g")


class _Formatted(list):
    """Numbers already formatted by _fmt_float, which _json_dumps writes as they are."""


def _json_dumps(obj, indent=0):
    # floats first: they are most of the values in a large report
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        # one f-string copies each part once; a chain of + copies a large
        # report once per operator
        body = ",\n".join(items)
        return f"{{\n{body}\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj, _Formatted):
            items = obj
        # a list of Python floats (an array's values) is formatted in one pass;
        # an inf or NaN makes the sum non-finite, so one check covers them all
        # (finite values whose sum overflows take the per-value route)
        elif set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = [format(v, ".17g") for v in obj]
        else:
            items = [_json_dumps(v, indent + 1) for v in obj]
        body = (",\n" + inner).join(items)
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _json_dumps(_cnum(obj), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _emit(doc, args, csv_header=None, csv_rows=None):
    # csv_rows() is called in CSV mode only, so JSON output never formats rows
    if args.format == "csv":
        if csv_header is None:
            body = {k: v for k, v in doc.items() if k != "provenance"}
            text = _csv_text(["key", "value"], _flatten_doc(body))
        else:
            text = _csv_text(csv_header, csv_rows())
        print(_json_dumps({"provenance": doc.get("provenance", {})}), file=sys.stderr)
    else:
        text = _json_dumps(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_doc(obj, prefix=""):
    # one [key, value] row per leaf; a complex number is a {re, im} leaf pair,
    # as _json_dumps writes it
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        obj = _cnum(obj)
    if isinstance(obj, (dict, list, tuple)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [row for k, v in items for row in _flatten_doc(v, f"{prefix}{k}.")]
    key = prefix.rstrip(".")
    if isinstance(obj, (float, np.floating)):
        return [[key, _fmt_float(obj)]]
    if isinstance(obj, (bool, np.bool_)):
        return [[key, "true" if obj else "false"]]
    if obj is None:
        return [[key, ""]]
    return [[key, str(obj)]]


# ---------------------------------------------------------------------------
# argument parsing helpers


@contextlib.contextmanager
def _parsing(what):
    # malformed input text ends in a domain error with a message
    try:
        yield
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, OSError) as exc:
        raise GaborError(f"cannot parse {what}: {exc!r}") from None


def _load_text(arg):
    if arg.lstrip().startswith(("{", "[")):
        return arg
    with _parsing(repr(arg)), open(arg) as fh:
        return fh.read()


def _load_params(arg):
    text = _load_text(arg)
    with _parsing("params: need JSON with d, N, omega_re, omega_im"):
        return params_from_json(text)


def _load_array(arg, shape, name):
    text = _load_text(arg)
    with _parsing(f"{name}: need JSON with shape, re, im"):
        obj = json.loads(text)
        got = tuple(obj["shape"])
        if got != shape:
            raise GaborError(f"{name} must have shape {shape}, got {got}")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        return (re + 1j * im).reshape(shape)


def _array_doc(arr):
    # a real array has no "im" list; _load_array reads it as zeros
    flat = arr.reshape(-1)
    doc = {"shape": list(arr.shape), "re": flat.real.tolist()}
    if np.iscomplexobj(arr):
        doc["im"] = flat.imag.tolist()
    return doc


def _parse_complex_vector(text, d):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise GaborError(f"expected {d} comma-separated components, got {len(parts)}")
    with _parsing(f"complex components {text!r}"):
        return np.array([complex(p) for p in parts])


def _parse_points(arg, params):
    text = _load_text(arg) if (arg.lstrip().startswith("[") or os.path.exists(arg)) else arg
    with _parsing("--points: need 'k,l;k,l;...' or a JSON list of [k, l] pairs"):
        if text.lstrip().startswith("["):
            pairs = [(np.asarray(k, int), np.asarray(l, int)) for k, l in json.loads(text)]
        else:
            pairs = []
            for chunk in text.split(";"):
                k_str, l_str = chunk.split(",")
                pairs.append((
                    np.array([int(v) for v in k_str.split()], int),
                    np.array([int(v) for v in l_str.split()], int),
                ))
        return frames.PointSet.from_pairs(pairs, params)


def _parse_omega(text, d):
    s = text.strip()
    with _parsing("--omega: need 'a+bj' or JSON with omega_re, omega_im"):
        if s.startswith("{"):
            obj = json.loads(s)
            return np.asarray(obj["omega_re"], float) + 1j * np.asarray(obj["omega_im"], float)
        if d != 1:
            raise GaborError("scalar --omega is for d = 1; pass omega_re/omega_im JSON")
        return np.array([[complex(s)]])


def _number_list(convert):
    # argparse type; a ValueError here makes argparse exit with a usage error
    def parse(text):
        vals = [convert(v) for v in text.split(",")]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(text)
        return vals
    parse.__name__ = f"comma-separated {convert.__name__} list"
    return parse


_floats = _number_list(float)
_ints = _number_list(int)


def _provenance(args, params=None, seed=None, extra=None):
    prov = {
        "tool": "torusgabor",
        "version": VERSION,
        "command": f"{args.command} {args.action}",
        "seed": seed,
    }
    if params is not None:
        prov["params"] = json.loads(params_to_json(params))
    if extra:
        prov.update(extra)
    return prov


# ---------------------------------------------------------------------------
# subcommand handlers


def _window_coeffs(args, params):
    if getattr(args, "window", None):
        return _load_array(args.window, params.shape, "window")
    return transforms.periodize_sample(transforms.GaussianWindow(params))


def _cmd_dgt_forward(args):
    params = _load_params(args.params)
    f = _load_array(args.signal, params.shape, "signal")
    g = _window_coeffs(args, params)
    V = transforms.dgt(f, g)
    doc = {
        "provenance": _provenance(args, params),
        "coefficients": _array_doc(V),
    }
    header = [f"k{i + 1}" for i in range(params.d)] + \
             [f"l{i + 1}" for i in range(params.d)] + ["value_re", "value_im"]
    _emit(doc, args, header, lambda: [
        [str(v) for v in idx] + [_fmt_float(V[idx].real), _fmt_float(V[idx].imag)]
        for idx in np.ndindex(V.shape)
    ])


def _cmd_dgt_inverse(args):
    params = _load_params(args.params)
    V = _load_array(args.coeffs, params.shape * 2, "coefficients")
    g = _window_coeffs(args, params)
    f = transforms.dgt_inverse(V, g)
    doc = {
        "provenance": _provenance(args, params),
        "signal": _array_doc(f),
    }
    header = [f"m{i + 1}" for i in range(params.d)] + ["value_re", "value_im"]
    _emit(doc, args, header, lambda: [
        [str(v) for v in idx] + [_fmt_float(f[idx].real), _fmt_float(f[idx].imag)]
        for idx in np.ndindex(f.shape)
    ])


def _cmd_theta_eval(args):
    params = _load_params(args.params)
    z = _parse_complex_vector(args.z, params.d)
    ev = theta.theta_eval(z, params, order=args.order, tol=args.tol)
    val = ev.value
    doc = {
        "provenance": _provenance(
            args, params,
            extra={"radius": ev.radius, "tail_bound": ev.tail_bound}),
        "z": [_cnum(v) for v in z],
        "order": args.order,
        "logmag": float(val.logmag),
        "phase": _cnum(val.phase),
        "value": _cnum(val.to_complex()) if val.logmag < 700.0 else None,
        "radius": ev.radius,
        "tail_bound": float(ev.tail_bound),
    }
    _emit(doc, args)


def _cmd_theta_zero(args):
    params = _load_params(args.params)
    z0 = theta.theta_zero_1d(params, tol=args.tol)
    ev = theta.theta_eval(np.array([z0 * 1j]), params, order=1, tol=1e-12)
    phi = float(weight_phi(np.array([z0]), params))
    doc = {
        "provenance": _provenance(args, params),
        "z0": _cnum(z0),
        "weighted_magnitude": float(ev.value.magnitude(-0.5 * phi)),
    }
    _emit(doc, args)


def _cmd_frame_check(args):
    params = _load_params(args.params)
    D = _parse_points(args.points, params)
    window = _window_coeffs(args, params)
    rep = frames.frame_bounds(D, params, window=window, svd_threshold=args.threshold)
    parity = rep.parity and dataclasses.asdict(rep.parity) | {"integer_form": rep.parity.no_frame}
    doc = {
        "provenance": _provenance(args, params, extra={"threshold": args.threshold}),
        "K": len(D),
        "A": rep.A,
        "B": rep.B,
        "is_frame": rep.is_frame,
        "singular_values": rep.singular_values,
        "parity": parity,
        "guarantees": dataclasses.asdict(rep.guarantees),
    }
    _emit(doc, args)


def _cmd_frame_scan(args):
    params = _load_params(args.params)
    window = _window_coeffs(args, params)
    res = frames.scan_subsets(
        params, args.size, window=window, mode=args.mode, count=args.count,
        seed=args.seed, svd_threshold=args.threshold)
    doc = {
        "provenance": _provenance(args, params, seed=args.seed,
                                  extra={"threshold": args.threshold}),
        "total": res.total,
        "mode": res.mode,
        "parity_applicable": res.parity_applicable,
        "confusion": res.confusion,
        "margin_min": res.margins.min(),
        "margin_median": np.median(res.margins),
        "margin_max": res.margins.max(),
        "all_frames": res.all_frames,
        "disagreements": res.disagreements,
    }
    _emit(doc, args)


def _cmd_bergman_density(args):
    params = _load_params(args.params)
    rep = bergman_density(params, oversample=args.oversample)
    # the grid is the period cell tiled N times along each axis, so each cell
    # value and each node is formatted once, and the grid's text is tiled
    x_text = _Formatted(_fmt_float(v) for v in rep.x_nodes)
    xi_text = _Formatted(_fmt_float(v) for v in rep.xi_nodes)
    cell_text = np.array([_fmt_float(v) for v in rep.cell.reshape(-1)], dtype=object)
    grid_text = np.tile(cell_text.reshape(rep.cell.shape), (rep.N,) * rep.cell.ndim)
    values_text = _Formatted(grid_text.reshape(-1).tolist())
    doc = {
        "provenance": _provenance(args, params, extra={"oversample": args.oversample}),
        "integral": rep.integral,
        "vmin": rep.vmin,
        "vmax": rep.vmax,
        "flatness": rep.flatness(),
        "x_nodes": x_text,
        "xi_nodes": xi_text,
        # the document of a real array, as _array_doc writes it
        "values": {"shape": list(grid_text.shape), "re": values_text},
    }
    d = params.d
    header = [f"x{i + 1}" for i in range(d)] + [f"xi{i + 1}" for i in range(d)] + ["density"]
    # itertools.product runs over the nodes in the row-major order of the values
    _emit(doc, args, header, lambda: [
        [*node, v] for node, v in zip(
            itertools.product(*[x_text] * d, *[xi_text] * d), values_text)
    ])


def _cmd_spectrum_restriction(args):
    params = _load_params(args.params)
    symbol = localization.parse_symbol(args.symbol, params.d)
    rep = localization.restriction_matrix(
        symbol, params, oversample=args.oversample, rel_tol=args.rel_tol)
    spec = localization.spectrum(rep)
    doc = {
        "provenance": _provenance(
            args, params,
            extra={"symbol": args.symbol,
                   "oversample": rep.oversample,
                   "trace_history": [[ov, _cnum(tr)] for ov, tr in rep.trace_history],
                   "matrix_change": rep.change}),
        "trace": _cnum(spec.trace),
        "hermitian": spec.hermitian,
        "nonnormal": spec.nonnormal,
        "eigenvalues": [_cnum(v) for v in spec.eigenvalues],
        "singular_values": spec.singular_values.tolist(),
        "counts_below": {_fmt_float(a): spec.count_below(a) for a in args.alpha_grid},
        "plunge_fraction": spec.plunge_fraction(args.plunge_delta),
    }
    header = ["index", "eigenvalue_re", "eigenvalue_im", "singular_value"]
    _emit(doc, args, header, lambda: [
        [str(i), _fmt_float(spec.eigenvalues[i].real), _fmt_float(spec.eigenvalues[i].imag),
         _fmt_float(spec.singular_values[i])]
        for i in range(len(spec.eigenvalues))
    ])


def _cmd_asymptotics_sweep(args):
    omega = _parse_omega(args.omega, args.d)
    alphas, n_list = args.alpha_grid, args.n_list
    rep = localization.asymptotic_sweep(
        args.symbol, n_list, omega, d=args.d, alphas=alphas,
        oversample=args.oversample, rel_tol=args.rel_tol)
    doc = {
        "provenance": _provenance(
            args,
            extra={
                "symbol": args.symbol,
                "d": args.d,
                "omega_re": omega.real.tolist(),
                "omega_im": omega.imag.tolist(),
                "n_list": n_list,
            }),
        "rows": [
            {
                "N": row.N,
                "trace_scaled": row.trace_scaled,
                "counts_scaled": {_fmt_float(a): v for a, v in row.counts_scaled.items()},
                "plunge": row.plunge,
            }
            for row in rep.rows
        ],
        "integral_target": rep.integral_target,
        "volume_targets": {_fmt_float(a): v for a, v in rep.volume_targets.items()},
    }
    header = ["N", "trace_scaled"] + [f"count_below_{a:g}" for a in alphas] + ["plunge"]
    _emit(doc, args, header, lambda: [
        [str(row.N), _fmt_float(row.trace_scaled)]
        + [_fmt_float(row.counts_scaled[float(a)]) for a in alphas]
        + [_fmt_float(row.plunge)]
        for row in rep.rows
    ])


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(p):
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    top = argparse.ArgumentParser(
        prog="torusgabor",
        description="Gabor analysis on finite tori: transforms, theta evaluation, "
                    "frame certification, and localization spectra.")
    top.add_argument("--version", action="version", version=f"torusgabor {VERSION}")
    groups = top.add_subparsers(dest="command", required=True)

    dgt = groups.add_parser("dgt", help="discrete Gabor transform").add_subparsers(
        dest="action", required=True)
    p = dgt.add_parser("forward", help="coefficients of a signal")
    p.add_argument("--params", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--window", default=None)
    _add_common(p)
    p.set_defaults(run=_cmd_dgt_forward)
    p = dgt.add_parser("inverse", help="signal from coefficients")
    p.add_argument("--params", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--window", default=None)
    _add_common(p)
    p.set_defaults(run=_cmd_dgt_inverse)

    th = groups.add_parser("theta", help="lattice theta series").add_subparsers(
        dest="action", required=True)
    p = th.add_parser("eval", help="evaluate at a point")
    p.add_argument("--params", required=True)
    p.add_argument("--z", required=True, help="d comma-separated components, e.g. '0.3+0.7j'")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(run=_cmd_theta_eval)
    p = th.add_parser("zero", help="locate the zero on the fundamental domain (d = 1)")
    p.add_argument("--params", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(run=_cmd_theta_zero)

    fr = groups.add_parser("frame", help="frame certification").add_subparsers(
        dest="action", required=True)
    p = fr.add_parser("check", help="bounds and verdicts for one sampling set")
    p.add_argument("--params", required=True)
    p.add_argument("--points", required=True,
                   help="'k,l;k,l;...' (components space-separated) or a JSON file")
    p.add_argument("--window", default=None)
    p.add_argument("--threshold", type=float, default=1e-7)
    _add_common(p)
    p.set_defaults(run=_cmd_frame_check)
    p = fr.add_parser("scan", help="sweep subsets and compare predicate vs SVD")
    p.add_argument("--params", required=True)
    p.add_argument("--size", "-K", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--window", default=None)
    p.add_argument("--threshold", type=float, default=1e-7)
    _add_common(p)
    p.set_defaults(run=_cmd_frame_scan)

    be = groups.add_parser("bergman", help="coherent-state density").add_subparsers(
        dest="action", required=True)
    p = be.add_parser("density", help="density on a phase-space grid")
    p.add_argument("--params", required=True)
    p.add_argument("--oversample", type=int, default=8)
    _add_common(p)
    p.set_defaults(run=_cmd_bergman_density)

    sp = groups.add_parser("spectrum", help="localization operators").add_subparsers(
        dest="action", required=True)
    p = sp.add_parser("restriction", help="spectrum of a symbol's localization matrix")
    p.add_argument("--params", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--oversample", type=int, default=4)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--alpha-grid", type=_floats, default="0.5")
    p.add_argument("--plunge-delta", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(run=_cmd_spectrum_restriction)

    asym = groups.add_parser("asymptotics", help="spectral statistics along N").add_subparsers(
        dest="action", required=True)
    p = asym.add_parser("sweep", help="scaled trace and counting along a list of N")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--omega", required=True,
                   help="'a+bj' for d = 1, or JSON with omega_re/omega_im")
    p.add_argument("--n-list", type=_ints, required=True, help="comma-separated grid sizes")
    p.add_argument("--alpha-grid", type=_floats, default="0.5")
    p.add_argument("--oversample", type=int, default=4)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(run=_cmd_asymptotics_sweep)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a bare "--" value: [] from argparse before Python 3.12, "--" after
    for name, value in vars(args).items():
        if (isinstance(value, list) and not value) or value == "--":
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        # checked here so the message names the option
        if getattr(args, "oversample", 1) < 1:
            raise GaborError(f"--oversample must be >= 1, got {args.oversample}")
        args.run(args)
    except GaborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
