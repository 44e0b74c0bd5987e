"""Span recorder for the traced run, installed from outside the package.

Every public function the per-layer metrics name is replaced, at every
module attribute that binds it, by a wrapper that opens a span, calls the
function and closes the span.  Self time is a span's duration minus the time
its child spans cover, computed with a span stack.  Work counts are read from
return values.  The dense numpy.linalg calls of `frames` and `localization`
are wrapped through a view of numpy installed as those modules' `np`, so the
benchmark's own reference code is not counted.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# layer name -> (module short name, attribute); the layer name is also the
# prefix of its metrics
LAYERS = [
    "cli.main",
    "core.dual_lattice_member",
    "transforms.stft_basis_grid",
    "transforms.dgt",
    "transforms.dgt_inverse",
    "transforms.time_frequency_shift",
    "transforms.periodize_sample",
    "theta.certified_lattice_sum",
    "theta.theta_eval",
    "theta.winding_number",
    "theta.theta_zero_1d",
    "bargmann.bargmann",
    "bargmann.gram",
    "bargmann.bergman_density",
    "frames.scan_subsets",
    "localization.restriction_matrix",
    "localization.spectrum",
    "localization.asymptotic_sweep",
]

LINALG = ("svd", "eigvalsh", "eigvals")
LINALG_USERS = ("frames", "localization")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_stft(rec, out, args, kwargs):
    # result shape (N^d, points...): one entry per basis function and point
    rec.add("transforms.stft_basis_grid.evals", out.size)


def _count_restriction(rec, out, args, kwargs):
    p = _arg(args, kwargs, 1, "params")
    rec.add("localization.restriction_matrix.levels", len(out.trace_history))
    rec.add("localization.restriction_matrix.grid_points",
            sum((ov * p.N) ** (2 * p.d) for ov, _ in out.trace_history))


def _count_lattice_sum(rec, out, args, kwargs):
    d = _arg(args, kwargs, 2, "d")
    rec.add("theta.certified_lattice_sum.terms", (2 * out[1] + 1) ** d)


def _count_gram(rec, out, args, kwargs):
    d = _arg(args, kwargs, 0, "params").d
    rec.add("bargmann.gram.grid_points", sum(per ** (2 * d) for per, _ in out.grid_history))


def _count_scan(rec, out, args, kwargs):
    rec.add("frames.scan_subsets.subsets", out.total)


COUNTERS = {
    "transforms.stft_basis_grid": _count_stft,
    "localization.restriction_matrix": _count_restriction,
    "theta.certified_lattice_sum": _count_lattice_sum,
    "bargmann.gram": _count_gram,
    "frames.scan_subsets": _count_scan,
}


class Recorder:
    """Spans and counts of one round, kept in memory."""

    def __init__(self):
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.counts = {}   # name -> count
        self._stack = []   # open spans: [name, start, child_s]

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                counter(self, out, args, kwargs)
            return out
        return traced

    def value(self, metric):
        """Read a per-layer metric: <layer>.calls, <layer>.s, <layer>.self_s or a count."""
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and layer in self.stats:
            calls, total, self_s = self.stats[layer]
            return {"calls": calls, "s": total, "self_s": self_s}[field]
        return self.counts.get(metric, 0)

    def snapshot(self):
        return {
            "spans": {k: {"calls": c, "s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }


class _View:
    """Attribute view of a module with a few attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def install(rec, package, modules):
    """Wrap every binding of the LAYERS functions in the package and its modules.

    `modules` maps short names ("cli", "theta", ...) to module objects, which
    must come from importlib.import_module: the package re-exports the
    function `bargmann` under the name of its submodule.
    """
    wrappers = {}
    for layer in LAYERS:
        mod, attr = layer.split(".")
        fn = getattr(modules[mod], attr)
        wrappers[id(fn)] = rec.wrap(layer, fn, COUNTERS.get(layer))
    for mod in [package, *modules.values()]:
        for attr, val in list(vars(mod).items()):
            wrapped = wrappers.get(id(val))
            if wrapped is not None:
                setattr(mod, attr, wrapped)
    linalg = _View(np.linalg, **{
        name: rec.wrap(f"linalg.{name}", getattr(np.linalg, name)) for name in LINALG
    })
    for mod in LINALG_USERS:
        modules[mod].np = _View(np, linalg=linalg)
