"""The benchmark's workloads.

Each workload has three parts:

* setup(tg, seed): make the inputs from the seed and build the windows the
  timed operations take; timed as setup_s.
* references(inputs): reference values from reference.py; not timed.
* run_round(r, tg, inputs, refs): one round of operations, each timed by
  r.call or r.cli and checked afterwards with r.expect.

`tg` holds the freshly imported torusgabor modules by short name.  Every
round runs the same operations; only the inputs depend on the seed.
Tolerances are the ones the method promises (the quadrature's rel_tol, the
certified truncation tolerances), not roundoff.
"""

from __future__ import annotations

import collections
import json
import math

import numpy as np

import reference as ref

Workload = collections.namedtuple("Workload", "setup references run_round")

OMEGA_2D = np.array([[0.1 + 1.0j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])
OMEGA_GRAM_2D = np.array([[1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.5j]])


def _omega(d, value=None):
    return np.eye(d) * 1j if value is None else np.atleast_2d(np.asarray(value, complex))


def _params_json(d, N, omega):
    return json.dumps({"d": d, "N": N, "omega_re": omega.real.tolist(),
                       "omega_im": omega.imag.tolist()})


def _alpha_text(rng):
    return ",".join(f"{a:.3f}" for a in np.sort(rng.uniform(0.05, 0.95, 3)))


def _check_restriction(r, doc, N, d, symbol, rel_tol, alpha_text, where):
    """Properties every restriction matrix of a real symbol must have."""
    lam = np.array([e["re"] for e in doc["eigenvalues"]])
    lam_im = np.array([e["im"] for e in doc["eigenvalues"]])
    sv = np.array(doc["singular_values"])
    trace = doc["trace"]["re"]
    nd = N ** d
    # the quadrature accepts once the trace moves by at most rel_tol * max(1, |trace|)
    tol = rel_tol * max(1.0, abs(trace))
    lo, hi = symbol["range"]
    r.expect(doc["hermitian"] and not doc["nonnormal"], f"{where}: not Hermitian")
    r.expect(lam.size == nd and np.all(lam_im == 0.0), f"{where}: eigenvalues not real")
    r.expect(lam.min() >= lo - tol and lam.max() <= hi + tol,
             f"{where}: eigenvalues [{lam.min()}, {lam.max()}] leave the symbol range")
    r.expect(abs(trace - nd * symbol["mean"]) <= tol,
             f"{where}: trace/N^d {trace / nd} vs mean {symbol['mean']}")
    r.expect(np.allclose(np.sort(sv), np.sort(np.abs(lam)), rtol=0, atol=1e-10 * sv.max()),
             f"{where}: singular values differ from |eigenvalues|")
    counts = doc["counts_below"]
    r.expect(all(counts[format(float(a), ".17g")] == int(np.count_nonzero(lam < float(a)))
                 for a in alpha_text.split(",")), f"{where}: counts_below inconsistent")
    return lam


# ---------------------------------------------------------------------------
# asymptotics_1d: the d = 1 quadrature path through the CLI

SWEEP_N = (8, 16, 32, 48)
DENSITY_N, DENSITY_OV = 32, 8
BOX_N, BOX_REL_TOL = 32, 1e-3
SWEEP_REL_TOL = 1e-8
DENSITY_SAMPLES = 64


def _setup_asymptotics(tg, seed):
    rng = np.random.default_rng(seed)
    om = _omega(1)
    for N in SWEEP_N:
        tg.transforms.GaussianWindow(tg.core.GaborParams(d=1, N=N, Omega=om))
    pjson = _params_json(1, DENSITY_N, om)
    tg.transforms.GaussianWindow(tg.core.params_from_json(pjson))
    alphas = _alpha_text(rng)
    nx = DENSITY_OV * DENSITY_N
    return {
        "alphas": alphas,
        "sweep": ["asymptotics", "sweep", "--symbol", ref.SYMBOLS["sweep_smooth"]["text"],
                  "--omega", "1j", "--n-list", ",".join(map(str, SWEEP_N)),
                  "--alpha-grid", alphas, "--rel-tol", repr(SWEEP_REL_TOL)],
        "restriction": ["spectrum", "restriction", "--params", _params_json(1, BOX_N, om),
                        "--symbol", ref.SYMBOLS["box"]["text"], "--rel-tol", repr(BOX_REL_TOL),
                        "--alpha-grid", alphas],
        "density": ["bergman", "density", "--params", pjson,
                    "--oversample", str(DENSITY_OV)],
        "density_idx": rng.integers(0, nx, size=(DENSITY_SAMPLES, 2)),
    }


def _references_asymptotics(inp):
    nx = DENSITY_OV * DENSITY_N
    idx = inp["density_idx"]
    x = (idx[:, 0] * (DENSITY_N / nx))[:, None]
    xi = (idx[:, 1] / nx)[:, None]
    return {"density": ref.bergman_density(DENSITY_N, _omega(1), x, xi)}


def _round_asymptotics(r, tg, inp, refs):
    out = r.cli("sweep", tg.cli, inp["sweep"])
    if out is not None:
        doc = json.loads(out)
        sym = ref.SYMBOLS["sweep_smooth"]
        r.expect([row["N"] for row in doc["rows"]] == list(SWEEP_N), "sweep: rows")
        for row in doc["rows"]:
            trace = row["trace_scaled"] * row["N"]
            r.expect(abs(row["trace_scaled"] - sym["mean"])
                     <= SWEEP_REL_TOL * max(1.0, abs(trace)) / row["N"],
                     f"sweep: trace/N {row['trace_scaled']} at N={row['N']}")
            r.expect(all(0.0 <= v <= 1.0 for v in row["counts_scaled"].values())
                     and 0.0 <= row["plunge"] <= 1.0, f"sweep: fractions at N={row['N']}")
        r.expect(abs(doc["integral_target"] - sym["mean"]) <= 1e-12,
                 f"sweep: integral_target {doc['integral_target']}")

    out = r.cli("restriction", tg.cli, inp["restriction"])
    if out is not None:
        _check_restriction(r, json.loads(out), BOX_N, 1, ref.SYMBOLS["box"], BOX_REL_TOL,
                           inp["alphas"], "box restriction")

    out = r.cli("density", tg.cli, inp["density"])
    if out is not None:
        doc = json.loads(out)
        nx = DENSITY_OV * DENSITY_N
        vals = np.asarray(doc["values"]["re"]).reshape(doc["values"]["shape"])
        r.expect(vals.shape == (nx, nx), "density: shape")
        r.expect(abs(doc["integral"] - DENSITY_N) <= 1e-8, f"density: integral {doc['integral']}")
        idx = inp["density_idx"]
        got = vals[idx[:, 0], idx[:, 1]]
        r.expect(np.all(np.abs(got - refs["density"]) <= 1e-10 * refs["density"]),
                 "density: sampled values differ from the brute-force Zak sum")


# ---------------------------------------------------------------------------
# restriction_2d: the same quadrature with few basis functions on a 4-D grid

R2D_N = (2, 3)
R2D_REL_TOL = 1e-8
R2D_REF_PER_AXIS = 12   # 12^4 midpoint nodes for the N = 2 reference


def _setup_restriction_2d(tg, seed):
    rng = np.random.default_rng(seed)
    alphas = _alpha_text(rng)
    argv = {}
    for N in R2D_N:
        pjson = _params_json(2, N, OMEGA_2D)
        tg.transforms.GaussianWindow(tg.core.params_from_json(pjson))
        argv[N] = ["spectrum", "restriction", "--params", pjson,
                   "--symbol", ref.SYMBOLS["smooth_2d"]["text"],
                   "--rel-tol", repr(R2D_REL_TOL), "--alpha-grid", alphas]
    return {"alphas": alphas, "argv": argv}


def _references_restriction_2d(inp):
    return {"eig_n2": ref.restriction_eigenvalues(
        ref.SYMBOLS["smooth_2d"]["fn"], 2, OMEGA_2D, R2D_REF_PER_AXIS)}


def _round_restriction_2d(r, tg, inp, refs):
    for N in R2D_N:
        out = r.cli("restriction", tg.cli, inp["argv"][N])
        if out is None:
            continue
        lam = _check_restriction(r, json.loads(out), N, 2, ref.SYMBOLS["smooth_2d"],
                                 R2D_REL_TOL, inp["alphas"], f"d=2 N={N} restriction")
        if N == 2:
            # Weyl: eigenvalues move by at most the matrix change; both
            # quadratures are converged far below rel_tol for this symbol
            r.expect(np.all(np.abs(np.sort(lam) - refs["eig_n2"]) <= R2D_REL_TOL),
                     "d=2 N=2: eigenvalues differ from the brute-force quadrature")


# ---------------------------------------------------------------------------
# certify: DGT, frame scans, theta functions, winding and Gram; no quadrature

DGT_SIZES = ((1, 2048), (2, 48), (3, 12))
DGT_ENTRIES = 8
THETA_PAIRS = 1250
THETA_1D = (3, 0.3 + 1.1j)   # (order, omega) for d = 1
THETA_2D_ORDER = 2
WINDING_N = (3, 5, 8)
WINDING_REPEATS = 2
ZERO_OMEGA = 0.3 + 1j
# (d, N, omega, K, random draws or None for exhaustive, expectation)
SCANS = (
    (1, 5, None, 5, None, "integer_form"),
    (1, 4, 0.25 + 1j, 4, None, "integer_form"),
    (1, 6, None, 7, 2000, "all_frames"),      # K > N certifies a frame in d = 1
    (2, 3, OMEGA_2D, 8, 1000, "no_frames"),   # K < N^d atoms cannot span
    (1, 6, None, 6, 1000, "parity"),
)
GRAMS = ((1, 4, None), (2, 2, OMEGA_GRAM_2D))


def _setup_certify(tg, seed):
    rng = np.random.default_rng(seed)
    T, GP = tg.transforms, tg.core.GaborParams
    dgt = []
    for d, N in DGT_SIZES:
        p = GP(d=d, N=N, Omega=OMEGA_2D if d == 2 else _omega(d))
        f = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
        g = T.periodize_sample(T.GaussianWindow(p))
        kl = rng.integers(0, N, size=(DGT_ENTRIES, 2, d))
        dgt.append((f, g, kl))

    scans = []
    for d, N, om, K, draws, expect in SCANS:
        argv = ["frame", "scan", "--params", _params_json(d, N, _omega(d, om)), "-K", str(K)]
        if draws is not None:
            argv += ["--mode", "random", "--count", str(draws),
                     "--seed", str(int(rng.integers(0, 2 ** 31)))]
        total = draws if draws is not None else math.comb(N ** (2 * d), K)
        scans.append((argv, N, total, expect))

    order1, om1 = THETA_1D
    p1 = GP(d=1, N=order1, Omega=_omega(1, om1))
    p2 = GP(d=2, N=THETA_2D_ORDER, Omega=OMEGA_2D)
    theta = []
    for p, order in ((p1, order1), (p2, THETA_2D_ORDER)):
        z = rng.uniform(-1, 1, (THETA_PAIRS, p.d)) + 1j * rng.uniform(-1, 1, (THETA_PAIRS, p.d))
        m = rng.integers(-2, 3, (THETA_PAIRS, p.d)).astype(float)
        k = rng.integers(-2, 3, (THETA_PAIRS, p.d)).astype(float)
        theta.append((p, order, z, m, k, z + m + k @ p.Omega.T))

    winding = [(GP(d=1, N=N, Omega=_omega(1)),
                rng.standard_normal(N) + 1j * rng.standard_normal(N))
               for N in WINDING_N for _ in range(WINDING_REPEATS)]
    grams = [GP(d=d, N=N, Omega=_omega(d, om)) for d, N, om in GRAMS]
    zero = ["theta", "zero", "--params", _params_json(1, 4, _omega(1, ZERO_OMEGA))]
    return {"dgt": dgt, "scans": scans, "theta": theta, "winding": winding,
            "grams": grams, "zero": zero}


def _references_certify(inp):
    dgt = [[ref.dgt_entry(f, g, k, l) for k, l in kl] for f, g, kl in inp["dgt"]]
    no_frames = {N: ref.integer_form_no_frame_count(N)
                 for _, N, _, expect in inp["scans"] if expect == "integer_form"}
    theta = []
    for p, order, z, _, _, zs in inp["theta"]:
        om = p.Omega
        box = ref.THETA_BOX_1D if p.d == 1 else ref.THETA_BOX_2D
        vals = []
        for w in np.concatenate([z, zs]):
            s, scale = ref.theta_box(w, om, order, box)
            if p.d == 1:
                s = ref.theta_jacobi(complex(w[0]), complex(om[0, 0]), order)
            vals.append((s, scale))
        theta.append(vals)
    return {"dgt": dgt, "no_frames": no_frames, "theta": theta}


def _check_scan(r, doc, N, total, expect, refs, where):
    conf = doc["confusion"]
    r.expect(doc["total"] == total, f"{where}: total {doc['total']} != {total}")
    r.expect(conf["oracle_frame"] + conf["oracle_no_frame"] == total, f"{where}: oracle tally")
    r.expect(doc["disagreements"] == [] and conf["pred_no_frame_oracle_frame"] == 0
             and conf["pred_frame_oracle_no_frame"] == 0,
             f"{where}: predicate and oracle disagree")
    if expect == "integer_form":
        n = refs["no_frames"][N]
        r.expect(conf["oracle_no_frame"] == n and conf["agree_no_frame"] == n,
                 f"{where}: no-frame count {conf['oracle_no_frame']} != integer form {n}")
    elif expect == "all_frames":
        r.expect(doc["all_frames"], f"{where}: K > N subset that is not a frame")
    elif expect == "no_frames":
        r.expect(conf["oracle_no_frame"] == total, f"{where}: K < N^d subset that is a frame")
    else:
        r.expect(conf["agree_frame"] + conf["agree_no_frame"] == total,
                 f"{where}: predicate not applied to every subset")


def _round_certify(r, tg, inp, refs):
    T = tg.transforms
    for (f, g, kl), entries in zip(inp["dgt"], refs["dgt"]):
        where = f"dgt d={f.ndim} N={f.shape[0]}"
        V = r.call("dgt", T.dgt, f, g)
        if V is None:
            continue
        nd, fn2, gn2 = f.size, np.vdot(f, f).real, np.vdot(g, g).real
        r.expect(abs(np.vdot(V, V).real - nd * fn2 * gn2) <= 1e-10 * nd * fn2 * gn2,
                 f"{where}: sum |V|^2 != N^d |f|^2 |g|^2")
        got = np.array([V[tuple(k) + tuple(l)] for k, l in kl])
        r.expect(np.all(np.abs(got - np.array(entries)) <= 1e-10 * math.sqrt(fn2 * gn2)),
                 f"{where}: entries differ from the direct sum")
        back = r.call("dgt", T.dgt_inverse, V, g)
        del V
        if back is not None:
            r.expect(np.linalg.norm(back - f) <= 1e-10 * np.linalg.norm(f),
                     f"{where}: round trip")

    for argv, N, total, expect in inp["scans"]:
        out = r.cli("scan", tg.cli, argv)
        if out is not None:
            where = f"frame scan N={N} " + " ".join(argv[4:])
            _check_scan(r, json.loads(out), N, total, expect, refs, where)
            r.count("scan_subsets", total)

    out = r.cli("theta_zero", tg.cli, inp["zero"])
    if out is not None:
        doc = json.loads(out)
        z0 = complex(doc["z0"]["re"], doc["z0"]["im"])
        dist = ref.distance_mod_lattice(z0, -0.5j * (1 + ZERO_OMEGA), ZERO_OMEGA)
        r.expect(dist <= 1e-10, f"theta zero: {z0} is {dist:.2e} from -i(1+Omega)/2 mod Lambda")

    for (p, order, z, _, k, zs), refvals in zip(inp["theta"], refs["theta"]):
        points = np.concatenate([z, zs])
        vals = []
        for w in points:
            ev = r.call("theta_eval", tg.theta.theta_eval, w, p, order=order)
            vals.append(None if ev is None else complex(ev.value.to_complex()))
        r.count("theta_evals", sum(v is not None for v in vals))
        n = len(z)
        for w, v, (s, scale) in zip(points, vals, refvals):
            if v is not None:
                r.expect(abs(v - s) <= 1e-10 * scale, f"theta d={p.d}: value at {w} differs")
        for i in range(n):
            if vals[i] is None or vals[n + i] is None:
                continue
            factor = np.exp(-1j * np.pi * order * (k[i] @ p.Omega @ k[i])
                            - 2j * np.pi * order * (k[i] @ z[i]))
            r.expect(abs(vals[n + i] - factor * vals[i]) <= 1e-10 * refvals[n + i][1],
                     f"theta d={p.d}: quasi-periodicity at z={z[i]}")

    for p, coeffs in inp["winding"]:
        w = r.call("winding", tg.bargmann.section_winding, coeffs, p)
        if w is not None:
            r.expect(w == p.N, f"section_winding N={p.N} gave {w}")

    for p in inp["grams"]:
        rep = r.call("gram", tg.bargmann.gram, p)
        if rep is not None:
            r.expect(rep.rank == p.dim_sn and rep.offdiag_residual <= 1e-8,
                     f"gram d={p.d} N={p.N}: rank {rep.rank}, residual {rep.offdiag_residual}")


WORKLOADS = {
    "asymptotics_1d": Workload(_setup_asymptotics, _references_asymptotics, _round_asymptotics),
    "restriction_2d": Workload(_setup_restriction_2d, _references_restriction_2d,
                               _round_restriction_2d),
    "certify": Workload(_setup_certify, _references_certify, _round_certify),
}
