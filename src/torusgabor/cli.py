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
block, and builds each block's atoms from that block's shifts alone: a
subset's margin is that of its orbit's first scanned member, which can
differ from the subset's own SVD, and from the single-matrix SVD of
`frame check`, at roundoff level (up to 1.6e-14 relative in a frame margin
of the N=K=5 scan).  Without --window, `frame check` and `frame scan` leave
the Gaussian to frames, which periodizes it after the argument checks.
A report never holds NaN or Infinity: a non-finite value is a domain error.
So is a MemoryError, a request too large for the machine that no size check
refused: `error:` on stderr and exit 1, as for a GaborError.
The CLI is declared once, in _COMMANDS: each (command, action) with its help,
handler and options.  build_parser builds argparse parsers from it, each at
most once per import: with no arguments the whole tree, and with a command
and action only the path to it (the top parser, the command's parser and the
action's parser with its options, about a fifth of the tree's cost).  main
parses an argv that names an action with that action's path.  Every other
argv (help listings, --version, no action) goes to the whole tree, and so
does every usage error: the path's parsers raise instead of printing, and
main parses argv again with the whole tree, which prints the usage line and
message of a whole-tree parse.  main then loads --params once and hands the
params to the handler.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import frames, localization, theta, transforms
from .bargmann import bergman_density, weight_phi
from .core import GaborError, params_from_json, params_to_json

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


def _emit(doc, args, csv_header=None, csv_rows=None):
    # csv_rows() is called in CSV mode only, so JSON output never formats rows;
    # a document without a table is written as its flattened key, value rows
    if args.format == "csv":
        if csv_header is None:
            csv_header = ["key", "value"]
            rows = _flatten_doc({k: v for k, v in doc.items() if k != "provenance"})
        else:
            rows = csv_rows()
        text = "\n".join(map(",".join, [csv_header, *rows])) + "\n"
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


def _parse_omega(text):
    # a scalar is the 1 x 1 Omega of d = 1; JSON gives the matrix, and so d
    s = text.strip()
    with _parsing("--omega: need 'a+bj' or JSON with omega_re, omega_im"):
        if s.startswith("{"):
            obj = json.loads(s)
            omega = np.asarray(obj["omega_re"], float) + 1j * np.asarray(obj["omega_im"], float)
            return np.atleast_2d(omega)
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


def _provenance(args, params=None, extra=None):
    prov = {
        "tool": "torusgabor",
        "version": VERSION,
        "command": f"{args.command} {args.action}",
        "seed": getattr(args, "seed", None),
    }
    if params is not None:
        prov["params"] = json.loads(params_to_json(params))
    if extra:
        prov.update(extra)
    return prov


# ---------------------------------------------------------------------------
# subcommand handlers


def _window_coeffs(args, params):
    if args.window:
        return _load_array(args.window, params.shape, "window")
    return transforms.periodize_sample(transforms.GaussianWindow(params))


def _emit_array(args, params, key, arr, index_names):
    # the complex array's JSON document, or a CSV table with one index column
    # per axis (index_names, d axes each) followed by value_re and value_im
    flat = arr.reshape(-1)
    doc = {"provenance": _provenance(args, params),
           key: {"shape": list(arr.shape), "re": flat.real.tolist(), "im": flat.imag.tolist()}}
    header = [f"{name}{i + 1}" for name in index_names for i in range(params.d)]
    _emit(doc, args, header + ["value_re", "value_im"], lambda: [
        [str(v) for v in idx] + [_fmt_float(arr[idx].real), _fmt_float(arr[idx].imag)]
        for idx in np.ndindex(arr.shape)
    ])


def _cmd_dgt_forward(args, params):
    f = _load_array(args.signal, params.shape, "signal")
    V = transforms.dgt(f, _window_coeffs(args, params))
    _emit_array(args, params, "coefficients", V, "kl")


def _cmd_dgt_inverse(args, params):
    V = _load_array(args.coeffs, params.shape * 2, "coefficients")
    f = transforms.dgt_inverse(V, _window_coeffs(args, params))
    _emit_array(args, params, "signal", f, "m")


def _cmd_theta_eval(args, params):
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


def _cmd_theta_zero(args, params):
    z0 = theta.theta_zero_1d(params, tol=args.tol)
    ev = theta.theta_eval(np.array([z0 * 1j]), params, order=1, tol=1e-12)
    phi = float(weight_phi(np.array([z0]), params))
    doc = {
        "provenance": _provenance(args, params),
        "z0": _cnum(z0),
        "weighted_magnitude": float(ev.value.magnitude(-0.5 * phi)),
    }
    _emit(doc, args)


def _cmd_frame_check(args, params):
    D = _parse_points(args.points, params)
    window = _load_array(args.window, params.shape, "window") if args.window else None
    rep = frames.frame_bounds(D, params, window=window)
    parity = rep.parity and dataclasses.asdict(rep.parity) | {"integer_form": rep.parity.no_frame}
    doc = {
        "provenance": _provenance(
            args, params, extra={"rank_tol": frames.rank_tol(len(D), params.dim_sn)}),
        "K": len(D),
        "A": rep.A,
        "B": rep.B,
        "is_frame": rep.is_frame,
        "singular_values": rep.singular_values,
        "parity": parity,
        "guarantees": dataclasses.asdict(rep.guarantees),
    }
    _emit(doc, args)


def _cmd_frame_scan(args, params):
    window = _load_array(args.window, params.shape, "window") if args.window else None
    res = frames.scan_subsets(
        params, args.size, window=window, mode=args.mode, count=args.count, seed=args.seed)
    doc = {
        "provenance": _provenance(
            args, params, extra={"rank_tol": frames.rank_tol(args.size, params.dim_sn)}),
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


def _cmd_bergman_density(args, params):
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
        # a real array's document has no "im" list; _load_array reads it as zeros
        "values": {"shape": list(grid_text.shape), "re": values_text},
    }
    d = params.d
    header = [f"x{i + 1}" for i in range(d)] + [f"xi{i + 1}" for i in range(d)] + ["density"]
    # itertools.product runs over the nodes in the row-major order of the values
    _emit(doc, args, header, lambda: [
        [*node, v] for node, v in zip(
            itertools.product(*[x_text] * d, *[xi_text] * d), values_text)
    ])


def _cmd_spectrum_restriction(args, params):
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


def _cmd_asymptotics_sweep(args, _params):
    omega = _parse_omega(args.omega)
    alphas = args.alpha_grid
    rep = localization.asymptotic_sweep(args.symbol, args.n_list, omega, alphas=alphas,
                                        oversample=args.oversample, rel_tol=args.rel_tol)
    doc = {
        "provenance": _provenance(
            args,
            extra={
                "symbol": args.symbol,
                "d": len(omega),
                "omega_re": omega.real.tolist(),
                "omega_im": omega.imag.tolist(),
                "n_list": args.n_list,
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


def _opt(*flags, **kwargs):
    return flags, kwargs


# the options that several actions take, each declared once
_PARAMS = _opt("--params", required=True)
_WINDOW = _opt("--window")
_REL_TOL = _opt("--rel-tol", type=float, default=1e-8)
_ALPHA_GRID = _opt("--alpha-grid", type=_floats, default="0.5")
_OVERSAMPLE = _opt("--oversample", type=int, default=4)  # the localization commands'
_OUTPUT = (_opt("--out", help="write the report here instead of stdout"),
           _opt("--format", choices=("json", "csv"), default="json"))

# command: (help, {action: (help, handler, options)}); each action's options
# are followed by _OUTPUT, and its handler is called as handler(args, params)
_COMMANDS = {
    "dgt": ("discrete Gabor transform", {
        "forward": ("coefficients of a signal", _cmd_dgt_forward,
                    [_PARAMS, _opt("--signal", required=True), _WINDOW]),
        "inverse": ("signal from coefficients", _cmd_dgt_inverse,
                    [_PARAMS, _opt("--coeffs", required=True), _WINDOW]),
    }),
    "theta": ("lattice theta series", {
        "eval": ("evaluate at a point", _cmd_theta_eval, [
            _PARAMS,
            _opt("--z", required=True, help="d comma-separated components, e.g. '0.3+0.7j'"),
            _opt("--order", type=int, default=1),
            _opt("--tol", type=float, default=1e-12),
        ]),
        "zero": ("locate the zero on the fundamental domain (d = 1)", _cmd_theta_zero,
                 [_PARAMS, _opt("--tol", type=float, default=1e-10)]),
    }),
    "frame": ("frame certification", {
        "check": ("bounds and verdicts for one sampling set", _cmd_frame_check, [
            _PARAMS,
            _opt("--points", required=True,
                 help="'k,l;k,l;...' (components space-separated) or a JSON file"),
            _WINDOW,
        ]),
        "scan": ("sweep subsets and compare predicate vs SVD", _cmd_frame_scan, [
            _PARAMS,
            _opt("--size", "-K", type=int, required=True),
            _opt("--mode", choices=("exhaustive", "random"), default="exhaustive"),
            _opt("--count", type=int),
            _opt("--seed", type=int),
            _WINDOW,
        ]),
    }),
    "bergman": ("coherent-state density", {
        "density": ("density on a phase-space grid", _cmd_bergman_density,
                    [_PARAMS, _opt("--oversample", type=int, default=8)]),
    }),
    "spectrum": ("localization operators", {
        "restriction": ("spectrum of a symbol's localization matrix", _cmd_spectrum_restriction, [
            _PARAMS, _opt("--symbol", required=True), _OVERSAMPLE, _REL_TOL, _ALPHA_GRID,
            _opt("--plunge-delta", type=float, default=0.1),
        ]),
    }),
    "asymptotics": ("spectral statistics along N", {
        "sweep": ("scaled trace and counting along a list of N", _cmd_asymptotics_sweep, [
            _opt("--symbol", required=True),
            _opt("--omega", required=True,
                 help="'a+bj' for d = 1, or JSON with omega_re/omega_im"),
            _opt("--n-list", type=_ints, required=True, help="comma-separated grid sizes"),
            _ALPHA_GRID, _OVERSAMPLE, _REL_TOL,
        ]),
    }),
}


class _PathError(Exception):
    """A usage error met by a path parser, which the whole tree reports instead."""


class _PathParser(argparse.ArgumentParser):
    def error(self, message):
        raise _PathError(message)


@functools.cache
def build_parser(command=None, action=None):
    """The argparse tree of _COMMANDS, or with a command and action, only the path to it.

    The path is the top parser, the command's parser and the action's parser
    with its options; its usage errors raise _PathError instead of printing.
    """
    commands = _COMMANDS
    parser_class = argparse.ArgumentParser
    if command is not None:
        command_help, actions = _COMMANDS[command]
        commands = {command: (command_help, {action: actions[action]})}
        parser_class = _PathParser
    top = parser_class(
        prog="torusgabor",
        description="Gabor analysis on finite tori: transforms, theta evaluation, "
                    "frame certification, and localization spectra.")
    top.add_argument("--version", action="version", version=f"torusgabor {VERSION}")
    groups = top.add_subparsers(dest="command", required=True)
    for command, (command_help, actions) in commands.items():
        sub = groups.add_parser(command, help=command_help).add_subparsers(
            dest="action", required=True)
        for action, (action_help, run, options) in actions.items():
            p = sub.add_parser(action, help=action_help)
            for flags, kwargs in (*options, *_OUTPUT):
                p.add_argument(*flags, **kwargs)
            p.set_defaults(run=run)
    return top


def _parse_args(argv):
    # an argv that names an action is parsed by its path parser; help
    # listings, --version and usage errors go to the whole tree, whose
    # usage lines list every command and action
    if len(argv) > 1 and argv[1] in _COMMANDS.get(argv[0], ((), {}))[1]:
        with contextlib.suppress(_PathError):
            return build_parser(argv[0], argv[1]).parse_args(argv)
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # a bare "--" value: [] from argparse before Python 3.12, "--" after
    for name, value in vars(args).items():
        if (isinstance(value, list) and not value) or value == "--":
            build_parser().error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        # checked here so the message names the option
        if getattr(args, "oversample", 1) < 1:
            raise GaborError(f"--oversample must be >= 1, got {args.oversample}")
        text = getattr(args, "params", None)
        args.run(args, None if text is None else _load_params(text))
    except GaborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a request too large for this machine that no size check refused
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
