"""Frame certification for Gabor systems sampled on subsets of the integer grid.

A subset D = {(k_j, l_j)} of I_N x I_N generates the system
{M_l T_k h : (k, l) in D} in S_N.  Two independent verdicts are computed:

* a numerical oracle: the K x N^d matrix whose rows are the generated atoms
  has frame bounds A = sigma_{N^d}^2 and B = sigma_1^2, so D is a frame
  exactly when the atoms span, decided by an SVD with a relative threshold;

* for d = 1, K = N and distinct points, an algebraic parity predicate: with
  z_j = -i(Omega k_j/N + l_j/N) and z0 the zero of z -> theta_1(i z, Omega),
  the system fails to span exactly when s = sum_j z_j - N z0 lies in
  Lambda = -i Omega Z + i Z.  For purely imaginary Omega this reduces to an
  integer test: N even, N | sum k_j and N | sum l_j.

The scan driver runs both over subset families and reports every
disagreement, keeping the margin distribution so the SVD threshold remains
auditable.  It works on blocks of subsets: each block of index rows gathers
one (B, K, N^d) stack of atom matrices, takes one batched SVD of the stack
and sums the parity coefficients of every row at once.  A block holds at
most transforms._CHUNK complex entries, and the verdicts do not depend on
where blocks split.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import theta as theta_mod
from . import transforms
from .bargmann import weight_phi
from .core import GaborError, dual_lattice_member, lattice_coefficients, validate


class EmptyPointSetError(GaborError):
    """The sampling set has no points."""


class NotApplicableError(GaborError):
    """The parity predicate needs d = 1, K = N, and distinct points."""


class ParityMismatchError(GaborError):
    """The lattice-membership and integer forms of the predicate disagreed."""


class TooManySubsetsError(GaborError):
    """Exhaustive enumeration would exceed the configured subset budget."""


class TranslateSumNotInDualLatticeError(GaborError):
    """Zero-set diagnostics need translates whose sum lies in the dual lattice."""


@dataclasses.dataclass(frozen=True, eq=False)
class PointSet:
    """Sampling positions: integer arrays ks, ls of shape (K, d), reduced mod N."""

    ks: np.ndarray
    ls: np.ndarray

    @classmethod
    def from_pairs(cls, pairs, params):
        ks, ls = [], []
        for k, l in pairs:
            ks.append(np.atleast_1d(np.asarray(k, dtype=int)))
            ls.append(np.atleast_1d(np.asarray(l, dtype=int)))
        ks = np.asarray(ks, dtype=int) % params.N if ks else np.zeros((0, params.d), int)
        ls = np.asarray(ls, dtype=int) % params.N if ls else np.zeros((0, params.d), int)
        if ks.shape[1:] != (params.d,) or ls.shape[1:] != (params.d,):
            raise GaborError(f"points must have d = {params.d} components")
        return cls(ks=ks, ls=ls)

    def __len__(self):
        return self.ks.shape[0]

    @property
    def distinct(self):
        seen = {(tuple(k), tuple(l)) for k, l in zip(self.ks, self.ls)}
        return len(seen) == len(self)

    def complex_images(self, params):
        """z_j = -i(Omega k_j/N + l_j/N), one row per point."""
        return -1j * (self.ks @ params.Omega.T / params.N + self.ls / params.N)


@dataclasses.dataclass(frozen=True, eq=False)
class CountingGuarantees:
    """Cardinality-only consequences; independent of where the points sit."""

    frame_by_count: bool
    no_frame_by_count: bool
    interpolation_by_count: bool
    seshadri_lower: float
    seshadri_upper: float


def counting_guarantees(K, params):
    """Guarantees that follow from |D| = K alone.

    Density K > N certifies a frame in d = 1; K below the space dimension
    can never span; N > d K certifies interpolation via the uniform lower
    Seshadri bound 1/K, whose companion upper bound is (d!/K)^{1/d}.
    """
    d, N = params.d, params.N
    return CountingGuarantees(
        frame_by_count=(d == 1 and K > N),
        no_frame_by_count=(K < N ** d or (d == 1 and K < N)),
        interpolation_by_count=(N > d * K),
        seshadri_lower=1.0 / K if K > 0 else float("inf"),
        seshadri_upper=(math.factorial(d) / K) ** (1.0 / d) if K > 0 else float("inf"),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ParityResult:
    """Outcome of the algebraic spanning test for d = 1, K = N, distinct points."""

    applicable: bool
    no_frame: bool
    s: complex
    witness: tuple
    integer_form: bool | None


_zero_cache = {}


def _theta_zero(params):
    key = params.Omega.tobytes()
    if key not in _zero_cache:
        _zero_cache[key] = complex(theta_mod.theta_zero_1d(params).z[0])
    return _zero_cache[key]


def parity_predicate(D, params, z0=None, tol=1e-9):
    """Algebraic no-frame test: s = sum_j z_j - N z0 lies in Lambda.

    Raises NotApplicableError unless d = 1, |D| = N and the points are
    distinct.  For Re Omega = 0 the equivalent integer form (N even,
    N | sum k, N | sum l) is evaluated as well and the two must agree.
    """
    validate(params)
    if params.d != 1:
        raise NotApplicableError(f"parity predicate needs d = 1, got d = {params.d}")
    if len(D) != params.N:
        raise NotApplicableError(f"parity predicate needs K = N = {params.N}, got K = {len(D)}")
    if not D.distinct:
        raise NotApplicableError("parity predicate needs distinct points")
    if z0 is None:
        z0 = _theta_zero(params)
    zs = D.complex_images(params)
    s = zs.sum(axis=0) - params.N * np.array([z0])
    mem = dual_lattice_member(s, params, scale=1.0, tol=tol)
    integer_form = None
    if float(np.abs(params.re).max()) == 0.0:
        integer_form = (
            params.N % 2 == 0
            and int(D.ks.sum()) % params.N == 0
            and int(D.ls.sum()) % params.N == 0
        )
        if integer_form != mem.member:
            raise ParityMismatchError(
                f"integer form {integer_form} vs lattice membership {mem.member} "
                f"for points ks={D.ks.ravel().tolist()}, ls={D.ls.ravel().tolist()}"
            )
    return ParityResult(
        applicable=True,
        no_frame=mem.member,
        s=complex(s[0]),
        witness=(int(mem.a[0]), int(mem.b[0])),
        integer_form=integer_form,
    )


def _lambda_membership(params, zs, z0, tol=1e-9):
    # idx (..., K) -> whether sum_j zs[idx] - N z0 lies in Lambda, one bool per
    # row; lattice coefficients are real-linear, so each z_j and N z0 is
    # solved once, not per subset
    coef = np.array([np.concatenate(lattice_coefficients(z, params)) for z in zs])
    base = np.concatenate(lattice_coefficients(params.N * np.array([z0]), params))

    def member(idx):
        c = coef[idx].sum(axis=-2) - base
        return np.abs(c - np.round(c)).max(axis=-1) <= tol

    return member


def _frame_margin(svals, nd):
    """(sigma_min, sigma_max, margin) from singular values sorted along the last axis.

    sigma_min is the N^d-th singular value (0 with fewer than N^d of them),
    and margin = (sigma_min / sigma_max)^2 = A/B (0 when sigma_max = 0), the
    ratio that frame_bounds and scan_subsets compare with the threshold.
    """
    smax = svals[..., 0]
    smin = svals[..., nd - 1] if svals.shape[-1] >= nd else np.zeros_like(smax)
    margin = np.divide(smin, smax, out=np.zeros_like(smax), where=smax > 0) ** 2
    return smin, smax, margin


@dataclasses.dataclass(frozen=True, eq=False)
class FrameReport:
    """Frame bounds and verdicts for one sampling set."""

    A: float
    B: float
    is_frame: bool
    singular_values: np.ndarray
    parity: ParityResult | None
    guarantees: CountingGuarantees


def _window_samples(window, params):
    if window is None:
        window = transforms.GaussianWindow(params)
    if isinstance(window, np.ndarray):
        if window.shape != params.shape:
            raise transforms.ShapeMismatchError(
                f"window samples must have shape {params.shape}"
            )
        return np.asarray(window, dtype=complex)
    if isinstance(window, transforms.SampledWindow):
        return window.coeffs
    return transforms.periodize_sample(window)


def _atom_matrix(h, D):
    return np.stack([
        transforms.time_frequency_shift(h, k, l).reshape(-1)
        for k, l in zip(D.ks, D.ls)
    ])


def frame_bounds(D, params, window=None, svd_threshold=1e-7):
    """Frame bounds of {M_l T_k h : (k,l) in D} plus all applicable verdicts.

    A is the squared N^d-th singular value of the atom matrix (zero when
    K < N^d), B the squared largest; the frame decision is A/B > threshold.
    """
    validate(params)
    if len(D) == 0:
        raise EmptyPointSetError("sampling set is empty")
    h = _window_samples(window, params)
    if float(np.vdot(h, h).real) == 0.0:
        raise transforms.ZeroWindowError("window has zero norm")
    atoms = _atom_matrix(h, D)
    # one 2-D SVD, not a stacked one: the reported singular values keep the
    # bits of the single-matrix LAPACK call
    svals = np.linalg.svd(atoms, compute_uv=False)
    smin, smax, margin = _frame_margin(svals, params.dim_sn)
    A, B = float(smin) ** 2, float(smax) ** 2
    parity = None
    try:
        parity = parity_predicate(D, params)
    except NotApplicableError:
        pass
    return FrameReport(
        A=A,
        B=B,
        is_frame=bool(margin > svd_threshold),
        singular_values=svals,
        parity=parity,
        guarantees=counting_guarantees(len(D), params),
    )


def zero_set_diagnostic(D, translates, params, membership_tol=1e-9, tol=1e-10):
    """Weighted distance of every sample point to the union of translated zero sets.

    translates is a sequence of N complex d-vectors t_i whose sum must lie in
    the lattice dual to Lambda (= Lambda itself here); the returned value for
    z_j is min_i |theta_1(i(z_j - t_i), Omega)| e^{-phi(z_j - t_i)/2}, which
    vanishes exactly when z_j sits on some translated divisor.
    """
    validate(params)
    translates = np.atleast_2d(np.asarray(translates, dtype=complex))
    if translates.shape != (params.N, params.d):
        raise GaborError(f"need exactly N = {params.N} translates of dimension {params.d}")
    ssum = translates.sum(axis=0)
    mem = dual_lattice_member(ssum, params, scale=1.0, tol=membership_tol)
    if not mem.member:
        raise TranslateSumNotInDualLatticeError(
            f"translate sum residual {mem.residual:.3e} exceeds {membership_tol:.1e}"
        )
    zs = D.complex_images(params)
    out = np.empty(len(D))
    for j, zj in enumerate(zs):
        best = float("inf")
        for ti in translates:
            w = zj - ti
            ev = theta_mod.theta_eval(1j * w, params, order=1, tol=tol)
            phi = float(weight_phi(w, params))
            best = min(best, float(ev.value.magnitude(-0.5 * phi)))
        out[j] = best
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class ScanResult:
    """Predicate-vs-oracle agreement over a family of K-subsets."""

    total: int
    mode: str
    parity_applicable: bool
    confusion: dict
    disagreements: list
    margins: np.ndarray
    all_frames: bool
    seed: int | None


def scan_subsets(params, K, window=None, mode="exhaustive", count=None, seed=None,
                 svd_threshold=1e-7, max_exhaustive=10 ** 6):
    """Run the SVD oracle (and parity when applicable) over K-subsets of I_N^2.

    mode="exhaustive" enumerates every subset in deterministic
    lexicographic order and refuses families larger than max_exhaustive;
    mode="random" draws `count` subsets without replacement inside each draw
    from a seeded generator.  Margins are the ratios A/B, recorded for every
    subset so the decision threshold stays auditable.
    """
    validate(params)
    h = _window_samples(window, params)
    positions = list(itertools.product(np.ndindex(params.shape), np.ndindex(params.shape)))
    total_positions = len(positions)
    if not 1 <= K <= total_positions:
        raise GaborError(f"subset size K must be in 1..{total_positions}, got {K}")
    atoms_all = np.stack([
        transforms.time_frequency_shift(h, np.asarray(k), np.asarray(l)).reshape(-1)
        for k, l in positions
    ])

    parity_applicable = params.d == 1 and K == params.N
    if parity_applicable:
        zs = PointSet.from_pairs(positions, params).complex_images(params)
        no_frame = _lambda_membership(params, zs, _theta_zero(params))

    if mode == "exhaustive":
        n_subsets = math.comb(total_positions, K)
        if n_subsets > max_exhaustive:
            raise TooManySubsetsError(
                f"{n_subsets} subsets exceed the budget of {max_exhaustive}"
            )
        subset_iter = itertools.combinations(range(total_positions), K)
        total = n_subsets
    elif mode == "random":
        if count is None or count < 1:
            raise GaborError(f"random mode needs a draw count >= 1, got {count}")
        rng = np.random.default_rng(seed)
        subset_iter = (
            tuple(sorted(rng.choice(total_positions, size=K, replace=False)))
            for _ in range(count)
        )
        total = count
    else:
        raise GaborError(f"unknown scan mode {mode!r}")

    nd = params.dim_sn
    block = max(1, transforms._CHUNK // (K * nd))
    margins = np.empty(total)
    pred = np.empty(total, dtype=bool)
    disagreements = []
    for start in range(0, total, block):
        idx = np.fromiter(itertools.islice(subset_iter, block), dtype=np.dtype((np.intp, K)))
        rows = slice(start, start + len(idx))
        svals = np.linalg.svd(atoms_all[idx], compute_uv=False)
        smin, _, margins[rows] = _frame_margin(svals, nd)
        if not parity_applicable:
            continue
        pred[rows] = no_frame(idx)
        # a disagreement: predicted no-frame where the oracle finds a frame, or
        # the reverse
        for i in np.flatnonzero(pred[rows] == (margins[rows] > svd_threshold)):
            disagreements.append({
                "positions": [positions[j] for j in idx[i]],
                "sigma_min": float(smin[i]),
                "margin": float(margins[start + i]),
                "pred_no_frame": bool(pred[start + i]),
            })
    oracle = margins > svd_threshold
    confusion = dict.fromkeys(("agree_frame", "agree_no_frame",
                               "pred_no_frame_oracle_frame", "pred_frame_oracle_no_frame"), 0)
    if parity_applicable:
        confusion.update(
            agree_frame=int(np.count_nonzero(~pred & oracle)),
            agree_no_frame=int(np.count_nonzero(pred & ~oracle)),
            pred_no_frame_oracle_frame=int(np.count_nonzero(pred & oracle)),
            pred_frame_oracle_no_frame=int(np.count_nonzero(~pred & ~oracle)),
        )
    confusion["oracle_frame"] = int(np.count_nonzero(oracle))
    confusion["oracle_no_frame"] = total - confusion["oracle_frame"]
    return ScanResult(
        total=total,
        mode=mode,
        parity_applicable=parity_applicable,
        confusion=confusion,
        disagreements=disagreements,
        margins=margins,
        all_frames=bool(np.all(oracle)),
        seed=seed,
    )
