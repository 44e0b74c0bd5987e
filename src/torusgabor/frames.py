"""Frame certification for Gabor systems sampled on subsets of the integer grid.

A subset D = {(k_j, l_j)} of I_N x I_N generates the system
{M_l T_k h : (k, l) in D} in S_N.  Two independent verdicts are computed:

* a numerical oracle: the K x N^d matrix whose rows are the generated atoms
  has frame bounds A = sigma_{N^d}^2 and B = sigma_1^2, so D is a frame
  exactly when the atoms span, decided by the SVD's numerical rank (rank_tol);

* for d = 1, K = N and distinct points, an algebraic parity predicate: with
  z_j = -i(Omega k_j/N + l_j/N) and z0 the zero of z -> theta_1(i z, Omega),
  the system fails to span exactly when s = sum_j z_j - N z0 lies in
  Lambda = -i Omega Z + i Z.  In the coordinates z = -i Omega a + i b, z_j is
  (k_j/N, -l_j/N) and z0 = -i Omega/2 + i/2 is (1/2, 1/2), so s is
  (sum k/N - N/2, -sum l/N - N/2).  Both are integers exactly when N is even,
  N | sum k_j and N | sum l_j: an integer test that holds for every Omega,
  so this module evaluates no theta function and solves no lattice system.

Atoms come from batched transforms.time_frequency_shift calls: one for
frame_bounds' K points, and one per SVD block of a scan, on the shifts of
that block's subsets, whose positions j = N^d k + l are the pairs (k, l) of
flat indices into Z_N^d.  Each atom has the bits of its own one-shift call,
so no SVD input depends on the block it sits in.  A window is None (the
Gaussian, periodized after the scan's argument checks) or samples, refused
before any atom is built if not finite, zero or of overflowing K ||h||^2.

The scan driver runs both over subset families, reports every disagreement
and keeps every margin.  The oracle takes one SVD per translation orbit, not per subset:
for any window h, M_{l+l0} T_{k+k0} h = e^{2 pi i l.k0/N} M_{l0} T_{k0} M_l T_k h,
so the atom matrix of D + t is a row-phased copy of D's times a unitary and
has the same singular values.  Each subset gets a key naming its orbit (its
least sorted translate), one np.unique over all keys picks each orbit's
first scanned member, and only those members' atom stacks are SVD'd; their
margins are scattered to the rest of the orbit.  With K < N^d the atoms
cannot span and no SVD runs: every margin is 0.  The family is read once
into a (subsets, K) array of positions, and the parity test is decided per
subset from its integer sums over that array.  Every block of keys or atom
stacks holds at most about transforms._CHUNK entries, so no table of all
positions' atoms is built, and the results do not depend on where blocks
split.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import transforms
from .core import MAX_NODES, GaborError
from .theta import ToleranceUnreachableError


class EmptyPointSetError(GaborError):
    """The sampling set has no points."""


class NotApplicableError(GaborError):
    """The parity predicate needs d = 1, K = N, and distinct points."""


class TooManySubsetsError(GaborError):
    """A scan would enumerate or draw more subsets than its budget."""


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
    def n_distinct(self):
        """The number of distinct positions (k, l)."""
        return len(np.unique(np.hstack([self.ks, self.ls]), axis=0))

    @property
    def distinct(self):
        return self.n_distinct == len(self)


@dataclasses.dataclass(frozen=True, eq=False)
class CountingGuarantees:
    """Cardinality-only consequences; independent of where the points sit."""

    frame_by_count: bool
    no_frame_by_count: bool
    interpolation_by_count: bool
    seshadri_lower: float
    seshadri_upper: float


def counting_guarantees(K, params, distinct=None):
    """Guarantees that follow from |D| = K and its number of distinct positions alone.

    A repeated position repeats an atom, so only the n = distinct positions
    (K when None) count: density n > N certifies a frame in d = 1; n below
    the space dimension can never span; N > d n certifies interpolation via
    the uniform lower Seshadri bound 1/n, whose companion upper bound is
    (d!/n)^{1/d}, when no position repeats (a repeated atom interpolates
    nothing).
    """
    d, N = params.d, params.N
    n = K if distinct is None else distinct
    return CountingGuarantees(
        frame_by_count=(d == 1 and n > N),
        no_frame_by_count=(n < N ** d),
        interpolation_by_count=(N > d * n and n == K),
        seshadri_lower=1.0 / n if n > 0 else float("inf"),
        seshadri_upper=(math.factorial(d) / n) ** (1.0 / d) if n > 0 else float("inf"),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ParityResult:
    """Outcome of the algebraic spanning test for d = 1, K = N, distinct points."""

    applicable: bool
    no_frame: bool
    s: complex
    witness: tuple


def _no_frame(k_sums, l_sums, N):
    # s = sum_j z_j - N z0 lies in Lambda: N even, N | sum k and N | sum l
    return (N % 2 == 0) & (k_sums % N == 0) & (l_sums % N == 0)


def parity_predicate(D, params):
    """Algebraic no-frame test: s = sum_j z_j - N z0 lies in Lambda.

    Raises NotApplicableError unless d = 1, |D| = N and the points are
    distinct.  The verdict is the integer form (N even, N | sum k, N | sum l),
    exact for every Omega.  s and the witness, its coordinates rounded half
    to even, come from the exact coordinates 2N a = 2 sum k - N^2 and
    2N b = -2 sum l - N^2 of s = -i Omega a + i b.
    """
    N = params.N
    if params.d != 1:
        raise NotApplicableError(f"parity predicate needs d = 1, got d = {params.d}")
    if len(D) != N:
        raise NotApplicableError(f"parity predicate needs K = N = {N}, got K = {len(D)}")
    if not D.distinct:
        raise NotApplicableError("parity predicate needs distinct points")
    k_sum, l_sum = int(D.ks.sum()), int(D.ls.sum())
    no_frame = _no_frame(k_sum, l_sum, N)
    a, b = (2 * k_sum - N * N) / (2 * N), (-2 * l_sum - N * N) / (2 * N)
    om = complex(params.Omega[0, 0])
    return ParityResult(
        applicable=True,
        no_frame=no_frame,
        s=complex(om.imag * a, b - om.real * a),
        witness=(round(a), round(b)),
    )


def _orbit_keys(subsets, diff):
    """Keys naming each subset's orbit under the translations of Z_N^2d, one row each.

    subsets is (B, K) flat position indices j = Q k + l, where Q = N^d and
    k, l are flat indices into Z_N^d; diff is the (Q, Q) table of the flat
    index of k - k' mod N.  The key is the least sorted translate of the
    subset, or of its complement when that is smaller (a translation moves
    both together).  Only the translates S - p_s, s in S, hold position 0,
    so the least of all N^2d translates is among them.
    """
    B, K = subsets.shape
    Q = len(diff)
    if 0 < Q * Q - K < K:
        outside = np.ones((B, Q * Q), dtype=bool)
        outside[np.arange(B)[:, None], subsets] = False
        subsets = np.nonzero(outside)[1].reshape(B, -1).astype(subsets.dtype)
    k, l = np.divmod(subsets, Q)
    # cand[b, s, j] = flat index of p_j - p_s, each row sorted; the flat
    # indices of diff stay below Q^2, so they fit the dtype
    table = diff.ravel()
    cand = table.take(k[:, None, :] * Q + k[:, :, None])
    cand *= Q
    cand += table.take(l[:, None, :] * Q + l[:, :, None])
    cand.sort(axis=-1)
    # each subset's lexicographically least row, column by column over the
    # subsets whose least row is not yet unique
    least = np.ones(cand.shape[:2], dtype=bool)
    live = np.arange(B)
    top = np.iinfo(cand.dtype).max
    for c in range(1, cand.shape[-1]):
        col = np.where(least[live], cand[live, :, c], top)
        least[live] &= col == col.min(axis=1, keepdims=True)
        live = live[np.count_nonzero(least[live], axis=1) > 1]
        if not len(live):
            break
    return cand[np.arange(B), least.argmax(axis=1)]


def rank_tol(K, nd):
    """numpy.linalg.matrix_rank's default cut for K x N^d matrices, relative to sigma_max."""
    return max(K, nd) * np.finfo(float).eps


def _frame_margin(svals, K, nd):
    """(sigma_min, sigma_max, margin, is_frame) of K x N^d matrices from sorted singular values.

    sigma_min is the N^d-th singular value (0 with fewer than N^d of them),
    margin = (sigma_min / sigma_max)^2 = A/B (0 when sigma_max = 0), and the
    verdict is numerical rank N^d: sigma_min > sigma_max rank_tol(K, N^d).
    """
    smax = svals[..., 0]
    smin = svals[..., nd - 1] if svals.shape[-1] >= nd else np.zeros_like(smax)
    margin = np.divide(smin, smax, out=np.zeros_like(smax), where=smax > 0) ** 2
    return smin, smax, margin, smin > smax * rank_tol(K, nd)


@dataclasses.dataclass(frozen=True, eq=False)
class FrameReport:
    """Frame bounds and verdicts for one sampling set."""

    A: float
    B: float
    is_frame: bool
    singular_values: np.ndarray
    parity: ParityResult | None
    guarantees: CountingGuarantees


def _window_samples(window, params, K):
    """The window's samples: no non-finite entry, nonzero, and K ||h||^2 (>= B) finite."""
    if window is not None and np.shape(window) != params.shape:
        raise transforms.ShapeMismatchError(f"window samples must have shape {params.shape}")
    h = (transforms.periodize_sample(transforms.GaussianWindow(params)) if window is None
         else np.asarray(window, dtype=complex))
    transforms._require_finite(h, "window")
    with np.errstate(over="ignore"):
        energy = K * float(np.vdot(h, h).real)
    if energy == 0.0:
        raise transforms.ZeroWindowError("window has zero norm")
    if energy == math.inf:
        raise ToleranceUnreachableError(
            f"the squared norms of {K} atoms overflow double precision")
    return h


def frame_bounds(D, params, window=None):
    """Frame bounds of {M_l T_k h : (k,l) in D} plus all applicable verdicts.

    A is the squared N^d-th singular value of the atom matrix (zero when
    K < N^d), B the squared largest; the verdict is its numerical rank (_frame_margin).
    """
    if len(D) == 0:
        raise EmptyPointSetError("sampling set is empty")
    h = _window_samples(window, params, len(D))
    atoms = transforms.time_frequency_shift(h, D.ks, D.ls).reshape(len(D), -1)
    # one 2-D SVD, not a stacked one: the reported singular values keep the
    # bits of the single-matrix LAPACK call
    svals = np.linalg.svd(atoms, compute_uv=False)
    smin, smax, _, is_frame = _frame_margin(svals, len(D), params.dim_sn)
    A, B = float(smin) ** 2, float(smax) ** 2
    parity = None
    try:
        parity = parity_predicate(D, params)
    except NotApplicableError:
        pass
    return FrameReport(
        A=A,
        B=B,
        is_frame=bool(is_frame),
        singular_values=svals,
        parity=parity,
        guarantees=counting_guarantees(len(D), params, D.n_distinct),
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ScanResult:
    """Predicate-vs-oracle agreement over a family of K-subsets.

    orbits is the number of atom matrices the scan SVD'd: one per translation
    orbit among the scanned subsets, and 0 when K < N^d.
    """

    total: int
    mode: str
    parity_applicable: bool
    confusion: dict
    disagreements: list
    margins: np.ndarray
    all_frames: bool
    seed: int | None
    orbits: int


# largest family a scan enumerates or draws
_MAX_SUBSETS = 10 ** 6


def scan_subsets(params, K, window=None, mode="exhaustive", count=None, seed=None):
    """Run the SVD oracle (and parity when applicable) over K-subsets of I_N^2.

    mode="exhaustive" enumerates every subset in deterministic
    lexicographic order; mode="random" draws `count` subsets without
    replacement inside each draw from a generator seeded by a non-negative
    seed (or None).  Either refuses more than _MAX_SUBSETS subsets, or more
    than core.MAX_NODES positions in all (TooManySubsetsError).  Verdicts are
    frame_bounds'; the margins A/B of every subset are kept for any other cut.
    """
    nd = params.dim_sn
    total_positions = nd * nd
    if not 1 <= K <= total_positions:
        raise GaborError(f"subset size K must be in 1..{total_positions}, got {K}")
    parity_applicable = params.d == 1 and K == params.N

    if mode == "exhaustive":
        total = math.comb(total_positions, K)
        if total > _MAX_SUBSETS:
            raise TooManySubsetsError(f"{total} subsets exceed the budget of {_MAX_SUBSETS}")
        family = itertools.combinations(range(total_positions), K)
    elif mode == "random":
        if count is None or count < 1:
            raise GaborError(f"random mode needs a draw count >= 1, got {count}")
        if count > _MAX_SUBSETS:
            raise TooManySubsetsError(f"{count} draws exceed the budget of {_MAX_SUBSETS}")
        if seed is not None and seed < 0:
            raise GaborError(f"the seed must be a non-negative integer, got {seed}")
        rng = np.random.default_rng(seed)
        family = (rng.choice(total_positions, size=K, replace=False) for _ in range(count))
        total = count
    else:
        raise GaborError(f"unknown scan mode {mode!r}")
    # the (subsets, K) array of positions below is allocated whole
    if total * K > MAX_NODES:
        raise TooManySubsetsError(f"{total} subsets of {K} positions ({total * K} entries) "
                                  f"exceed the budget of {MAX_NODES}")
    h = _window_samples(window, params, K)
    # position j = N^d k + l is the pair (cells[k], cells[l])
    cells = list(np.ndindex(params.shape))

    # holds every position index, and so every flat index _orbit_keys forms
    index_dtype = np.min_scalar_type(total_positions - 1)
    subsets = np.fromiter(family, dtype=(index_dtype, K), count=total)
    if mode == "random":
        subsets.sort(axis=1)
    if parity_applicable:
        # in d = 1 the flat position index is k N + l
        k, l = np.divmod(subsets, params.N)
        pred = _no_frame(k.sum(axis=1), l.sum(axis=1), params.N)

    if K < nd:
        # K < N^d atoms never span: no SVD, and _frame_margin's zeros and verdicts
        smin, margins, oracle, orbits = np.zeros(total), np.zeros(total), np.zeros(total, bool), 0
    else:
        # diff[a, b] = flat index of k_a - k_b mod N, for k_a, k_b in Z_N^d
        ks = np.array(cells)
        diff = np.ravel_multi_index(np.moveaxis((ks[:, None] - ks) % params.N, -1, 0),
                                    params.shape).astype(index_dtype)
        block = max(1, transforms._CHUNK // (K * max(nd, K)))
        keys = np.concatenate([_orbit_keys(subsets[i:i + block], diff)
                               for i in range(0, total, block)])
        # translates share singular values, so one SVD per orbit: that of its
        # first scanned member, scattered to the others
        _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys[0].nbytes))).ravel(),
                                      return_index=True, return_inverse=True)
        orbits = len(first)
        reps = []
        block = max(1, transforms._CHUNK // (K * nd))
        for start in range(0, orbits, block):
            k, l = np.divmod(subsets[first[start:start + block]], nd)
            atoms = transforms.time_frequency_shift(h, ks[k.ravel()], ks[l.ravel()])
            svals = np.linalg.svd(atoms.reshape(k.shape + (nd,)), compute_uv=False)
            reps.append(_frame_margin(svals, K, nd))
        smin, _, margins, oracle = (np.concatenate(r)[inverse] for r in zip(*reps))

    # a disagreement: predicted no-frame where the oracle finds a frame, or the
    # reverse
    disagreements = [
        {
            "positions": [(cells[k], cells[l]) for k, l in zip(*np.divmod(subsets[i], nd))],
            "sigma_min": float(smin[i]),
            "margin": float(margins[i]),
            "pred_no_frame": bool(pred[i]),
        }
        for i in np.flatnonzero(pred == oracle)
    ] if parity_applicable else []
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
        orbits=orbits,
    )
