import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusgabor import transforms
from torusgabor.core import GaborError, GaborParams, dual_lattice_member
from torusgabor.frames import (
    EmptyPointSetError,
    NotApplicableError,
    PointSet,
    TooManySubsetsError,
    counting_guarantees,
    frame_bounds,
    parity_predicate,
    scan_subsets,
)
from torusgabor.theta import ToleranceUnreachableError, theta_zero_1d
from torusgabor.transforms import (
    GaussianWindow,
    ZeroWindowError,
    periodize_sample,
    time_frequency_shift,
)


def _p(N, omega=1j, d=1):
    if d == 1:
        om = np.array([[omega]])
    else:
        om = np.eye(d) * 1j
    return GaborParams(d=d, N=N, Omega=om)


def _set(pairs, p):
    return PointSet.from_pairs(pairs, p)


# ---------------------------------------------------------------------------
# point sets and counting


def test_pointset_reduces_mod_n_and_counts():
    p = _p(4)
    D = _set([(5, -1), (0, 0)], p)
    assert len(D) == 2
    assert D.ks.ravel().tolist() == [1, 0]
    assert D.ls.ravel().tolist() == [3, 0]
    assert D.distinct


def test_pointset_detects_collision_after_reduction():
    p = _p(3)
    D = _set([(1, 2), (4, -1)], p)
    assert not D.distinct
    assert D.n_distinct == 1


def test_pointset_rejects_wrong_width():
    p = _p(2, d=2)
    with pytest.raises(GaborError):
        PointSet.from_pairs([((0,), (0,))], p)


def test_counting_guarantees_thresholds():
    p = _p(5)
    g = counting_guarantees(6, p)
    assert g.frame_by_count and not g.no_frame_by_count
    g = counting_guarantees(4, p)
    assert g.no_frame_by_count and not g.frame_by_count
    g = counting_guarantees(2, p)
    assert g.interpolation_by_count  # 5 > 1 * 2
    assert g.seshadri_lower == pytest.approx(0.5)
    assert g.seshadri_upper == pytest.approx(0.5)
    p2 = _p(3, d=2)
    g2 = counting_guarantees(5, p2)
    assert not g2.frame_by_count  # density alone certifies nothing in d = 2
    assert g2.no_frame_by_count  # 5 < 9
    assert g2.seshadri_upper == pytest.approx((2 / 5) ** 0.5)
    # a repeated position repeats an atom: only the distinct positions count
    g = counting_guarantees(6, p, distinct=1)
    assert not g.frame_by_count and g.no_frame_by_count
    assert g.seshadri_lower == g.seshadri_upper == 1.0
    assert not counting_guarantees(2, p, distinct=1).interpolation_by_count


@pytest.mark.parametrize("pairs, frame_by_count, interpolation_by_count", [
    ([(0, 0)] * 5, False, False),
    ([(0, 0)] * 2, False, False),
    ([(0, 0), (1, 2), (3, 1), (2, 3), (1, 1)], True, False),
    ([(0, 0), (1, 2)], False, True),
], ids=["five-repeats", "two-repeats", "five-distinct", "two-distinct"])
def test_frame_bounds_counts_distinct_points(pairs, frame_by_count, interpolation_by_count):
    p = _p(4)
    rep = frame_bounds(_set(pairs, p), p)
    g = rep.guarantees
    assert g.frame_by_count is frame_by_count
    assert g.interpolation_by_count is interpolation_by_count
    assert not g.frame_by_count or rep.is_frame
    assert not g.no_frame_by_count or not rep.is_frame


# ---------------------------------------------------------------------------
# frame bounds oracle


def test_full_grid_is_a_tight_frame():
    p = _p(3)
    h = periodize_sample(GaussianWindow(p))
    D = _set([(k, l) for k in range(3) for l in range(3)], p)
    rep = frame_bounds(D, p)
    assert rep.is_frame
    norm = float(np.vdot(h, h).real)
    expect = 3 * norm
    assert rep.A == pytest.approx(expect, rel=1e-10)
    assert rep.B == pytest.approx(expect, rel=1e-10)


def test_known_no_frame_and_frame_quadruples():
    # N = 4: sums (4, 4) are divisible by 4 -> no frame; bumping one k breaks it
    p = _p(4)
    bad = _set([(0, 0), (1, 1), (2, 3), (1, 0)], p)
    good = _set([(0, 0), (1, 1), (2, 3), (2, 0)], p)
    rb = frame_bounds(bad, p)
    rg = frame_bounds(good, p)
    assert not rb.is_frame
    assert rb.parity is not None and rb.parity.no_frame
    assert rb.A < 1e-25
    assert rg.is_frame
    assert rg.parity is not None and not rg.parity.no_frame
    assert rg.A / rg.B > 1e-3


def test_undersized_set_has_zero_lower_bound():
    p = _p(3)
    rep = frame_bounds(_set([(0, 0), (1, 2)], p), p)
    assert rep.A == 0.0
    assert not rep.is_frame
    assert rep.guarantees.no_frame_by_count


def test_empty_set_raises():
    p = _p(2)
    with pytest.raises(EmptyPointSetError):
        frame_bounds(PointSet(ks=np.zeros((0, 1), int), ls=np.zeros((0, 1), int)), p)


def test_zero_window_raises():
    p = _p(2)
    with pytest.raises(ZeroWindowError):
        frame_bounds(_set([(0, 0), (1, 1)], p), p, window=np.zeros(2, complex))


@pytest.mark.parametrize("entry,error", [
    (np.nan, transforms.NonFiniteInputError),
    (np.inf, transforms.NonFiniteInputError),
    (1e200, ToleranceUnreachableError),
    (0.0, ZeroWindowError),
], ids=["nan", "inf", "overflow", "zero"])
def test_window_values_are_checked_before_any_atom(entry, error, monkeypatch):
    # the same verdict from frame_bounds and from scans above and below N^d
    # (no SVD there), before time_frequency_shift builds an atom
    p = _p(4)
    h = np.zeros(4, complex)
    h[0] = entry

    def no_atoms(*args):
        raise AssertionError("an atom was built")

    monkeypatch.setattr(transforms, "time_frequency_shift", no_atoms)
    with pytest.raises(error):
        frame_bounds(_set([(0, 0), (1, 1), (2, 3), (1, 0)], p), p, window=h)
    for K in (2, 4):
        with pytest.raises(error):
            scan_subsets(p, K, window=h)


def test_window_overflow_counts_the_atoms():
    # one atom of squared norm 1e308 is finite; two sum past the largest double
    p = _p(2)
    h = np.array([1e154, 0], complex)
    assert frame_bounds(_set([(0, 0)], p), p, window=h).B == pytest.approx(1e308)
    with pytest.raises(ToleranceUnreachableError, match="2 atoms"):
        frame_bounds(_set([(0, 0), (1, 1)], p), p, window=h)


def test_window_is_none_or_its_samples():
    # a GaussianWindow object is not samples: frame_bounds and scan_subsets
    # take None (the periodized Gaussian) or an array shaped like a signal
    p = _p(3)
    D = _set([(k, l) for k in range(3) for l in range(3)], p)
    with pytest.raises(transforms.ShapeMismatchError):
        frame_bounds(D, p, window=GaussianWindow(p))
    with pytest.raises(transforms.ShapeMismatchError):
        scan_subsets(p, 3, window=GaussianWindow(p))
    h = periodize_sample(GaussianWindow(p))
    assert np.array_equal(frame_bounds(D, p, window=h).singular_values,
                          frame_bounds(D, p).singular_values)


def test_custom_window_array_changes_bounds():
    p = _p(3)
    D = _set([(k, l) for k in range(3) for l in range(3)], p)
    flat = np.ones(3, complex)
    rep = frame_bounds(D, p, window=flat)
    assert rep.A == pytest.approx(9.0, rel=1e-12)  # N * ||h||^2 = 3 * 3


# ---------------------------------------------------------------------------
# parity predicate


def test_parity_not_applicable_cases():
    p = _p(3)
    with pytest.raises(NotApplicableError):
        parity_predicate(_set([(0, 0), (1, 1)], p), p)  # K != N
    with pytest.raises(NotApplicableError):
        parity_predicate(_set([(0, 0), (0, 0), (1, 1)], p), p)  # repeated point
    p2 = _p(2, d=2)
    with pytest.raises(NotApplicableError):
        parity_predicate(
            PointSet(ks=np.zeros((2, 2), int), ls=np.zeros((2, 2), int)), p2
        )


def test_parity_integer_form_agrees_on_purely_imaginary_omega():
    p = _p(4)
    res = parity_predicate(_set([(0, 0), (1, 1), (2, 3), (1, 0)], p), p)
    assert res.no_frame is True
    res = parity_predicate(_set([(0, 0), (1, 1), (2, 3), (2, 0)], p), p)
    assert res.no_frame is False


def test_parity_integer_form_is_the_verdict_for_general_omega():
    p = _p(4, omega=0.25 + 1j)
    res = parity_predicate(_set([(0, 0), (1, 1), (2, 3), (1, 0)], p), p)
    assert res.no_frame is True  # no dependence on Re Omega
    assert res.s == -1 - 2.75j and res.witness == (-1, -3)
    # s = -i Omega (-1/2) + i(-4): a half-integer coordinate rounds half to even
    p = _p(4, omega=0.3 + 1.1j)
    res = parity_predicate(_set([(0, 1), (1, 2), (3, 3), (2, 2)], p), p)
    assert res.no_frame is False
    assert res.s == -0.55 - 3.85j and res.witness == (0, -4)


def _lattice_reference(D, p):
    # the complex-geometric form: s = sum_j z_j - N z0 against Lambda, with
    # z_j = -i(Omega k_j + l_j)/N
    z = -1j * (D.ks @ p.Omega.T + D.ls) / p.N
    s = z.sum(axis=0) - p.N * theta_zero_1d(p)
    return dual_lattice_member(s, p), s


@settings(max_examples=300, deadline=None)
@given(N=st.integers(2, 8), re=st.floats(-2.0, 2.0).filter(lambda x: x != 0.0),
       im=st.floats(0.2, 3.0), force=st.booleans(), data=st.data())
def test_parity_predicate_is_lattice_membership(N, re, im, force, data):
    # random subsets are members about 1/N^2 of the time, so half the cases
    # move the last point until N | sum k and N | sum l: members for even N,
    # and for odd N exactly the subsets an "N even" clause must exclude
    p = _p(N, omega=complex(re, im))
    flat = data.draw(st.lists(st.integers(0, N * N - 1), min_size=N, max_size=N, unique=True))
    k, l = np.divmod(np.array(flat), N)
    if force:
        k[-1] = (k[-1] - k.sum()) % N
        l[-1] = (l[-1] - l.sum()) % N
        assume(len(set(zip(k, l))) == N)
    D = _set(list(zip(k, l)), p)
    res = parity_predicate(D, p)
    mem, s = _lattice_reference(D, p)
    assert res.no_frame is mem.member
    assert abs(res.s - s[0]) <= 1e-12 * max(1.0, abs(s[0]))
    if mem.member:
        assert res.witness == (mem.a[0], mem.b[0])


def test_parity_odd_n_never_certifies_no_frame():
    p = _p(3)
    for pairs in [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0), (2, 2)]]:
        assert not parity_predicate(_set(pairs, p), p).no_frame


# ---------------------------------------------------------------------------
# scans: predicate vs oracle


def test_exhaustive_scan_n2():
    p = _p(2)
    res = scan_subsets(p, 2)
    assert res.total == 6
    assert res.parity_applicable
    assert res.confusion["pred_no_frame_oracle_frame"] == 0
    assert res.confusion["pred_frame_oracle_no_frame"] == 0
    assert res.confusion["oracle_no_frame"] == 0
    assert res.all_frames


def test_exhaustive_scan_n4_counts_and_margins():
    p = _p(4)
    res = scan_subsets(p, 4)
    assert res.total == 1820
    assert res.confusion["oracle_frame"] == 1704
    assert res.confusion["oracle_no_frame"] == 116
    assert res.disagreements == []
    no_frame_margins = res.margins[res.margins <= 1e-7]
    frame_margins = res.margins[res.margins > 1e-7]
    assert len(no_frame_margins) == 116
    # verdicts are bimodal: nothing lives anywhere near the threshold
    assert no_frame_margins.max() < 1e-20
    assert frame_margins.min() > 1e-4


def test_scan_counts_do_not_depend_on_real_part():
    res_a = scan_subsets(_p(4), 4)
    res_b = scan_subsets(_p(4, omega=0.25 + 1j), 4)
    assert res_a.confusion["oracle_no_frame"] == res_b.confusion["oracle_no_frame"] == 116
    assert res_b.disagreements == []


def test_scan_verdicts_equal_the_parity_predicate():
    # the scan decides each subset from its integer sums; every verdict must be
    # the complex-geometric one, s = sum_j z_j - N z0 in Lambda, and
    # parity_predicate's
    for N, omega, predicted in ((4, 0.25 + 1j, 116), (3, 0.3 + 1j, 0)):
        p = _p(N, omega=omega)
        positions = list(itertools.product(np.ndindex(p.shape), np.ndindex(p.shape)))
        subsets = list(itertools.combinations(range(len(positions)), N))
        res = scan_subsets(p, N)
        # with no disagreement, each subset's prediction is the oracle's verdict
        assert res.disagreements == []
        for idx, verdict in zip(subsets, res.margins <= 1e-7):
            D = _set([positions[i] for i in idx], p)
            assert verdict == parity_predicate(D, p).no_frame == _lattice_reference(D, p)[0].member
        assert np.count_nonzero(res.margins <= 1e-7) == predicted


OMEGA_2D = np.array([[0.1 + 1j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])


@pytest.mark.parametrize("omega", [1j, 2j])
@pytest.mark.parametrize("N", [8, 9, 12, 16, 20])
def test_random_parity_scans_agree_with_the_rank_verdict(N, omega):
    # the parity theorem is exact, so the rank verdict must reproduce it; a
    # fixed cut of 1e-7 on the margin called 1 to 576 of these draws' frames
    # "no frame" for even N.  The odd N = 9, where about 1 draw in 81 has
    # N | sum k and N | sum l, is what makes the rule's "N even" matter
    res = scan_subsets(_p(N, omega=omega), N, mode="random", count=2000, seed=1)
    assert res.parity_applicable
    assert res.disagreements == []
    assert res.confusion["pred_no_frame_oracle_frame"] == 0
    assert res.confusion["pred_frame_oracle_no_frame"] == 0


@pytest.mark.parametrize("p", [_p(7, omega=0.25 + 2j), _p(8, omega=2j),
                               GaborParams(d=2, N=3, Omega=OMEGA_2D),
                               GaborParams(d=2, N=5, Omega=OMEGA_2D)],
                         ids=["d1-N7", "d1-N8", "d2-N3", "d2-N5"])
def test_frame_verdict_is_numpys_matrix_rank(p):
    # random sets of every size, drawn with repeats from a few positions too,
    # and in d = 1 sets whose sums the parity rule calls no frame
    rng = np.random.default_rng(31)
    h = periodize_sample(GaussianWindow(p))
    nd = p.dim_sn
    sets = []
    for _ in range(60):
        K = int(rng.integers(1, nd + 3))
        pool = rng.integers(0, p.N, (int(rng.integers(1, 2 * K + 1)), 2, p.d))
        sets.append(pool[rng.integers(0, len(pool), K)])
        sets.append(rng.integers(0, p.N, (K, 2, p.d)))
    if p.d == 1:
        for _ in range(20):
            pts = rng.integers(0, p.N, (p.N, 2, 1))
            pts[-1] = (pts[-1] - pts.sum(axis=0)) % p.N
            sets.append(pts)
    verdicts = set()
    for pts in sets:
        D = PointSet.from_pairs(zip(pts[:, 0], pts[:, 1]), p)
        rep = frame_bounds(D, p)
        atoms = time_frequency_shift(h, D.ks, D.ls).reshape(len(D), -1)
        rank = np.linalg.matrix_rank(atoms)
        assert rep.is_frame == (rank == nd)
        g = rep.guarantees
        assert not g.frame_by_count or rep.is_frame
        assert not g.no_frame_by_count or not rep.is_frame
        assert not g.interpolation_by_count or rank == len(D)
        verdicts.add((rep.is_frame, g.interpolation_by_count))
    assert (True, False) in verdicts and (False, False) in verdicts
    if p.N > p.d * 2:
        assert (False, True) in verdicts


@pytest.mark.parametrize("omega, singular", [
    (1j * np.eye(2), 544),
    (OMEGA_2D, 240),
    (np.diag([0.25 + 1j, 1j]), 536),
], ids=["iI", "bench", "diag"])
def test_exhaustive_d2_census(omega, singular):
    # every 4-subset of the 16 positions of d = 2, N = 2; the count moves with
    # Omega, so no rule that ignores Omega decides d = 2
    res = scan_subsets(GaborParams(d=2, N=2, Omega=omega), 4)
    assert res.total == 1820
    assert res.confusion["oracle_no_frame"] == singular


def _scan_reference(p, K, mode="exhaustive", count=None, seed=None, window=None):
    # one 2-D SVD, one matrix_rank and one parity_predicate per subset, in the
    # scan's order
    h = periodize_sample(GaussianWindow(p)) if window is None else window
    positions = list(itertools.product(np.ndindex(p.shape), np.ndindex(p.shape)))
    atoms_all = np.stack([time_frequency_shift(h, np.asarray(k), np.asarray(l)).reshape(-1)
                          for k, l in positions])
    if mode == "exhaustive":
        subsets = itertools.combinations(range(len(positions)), K)
    else:
        rng = np.random.default_rng(seed)
        subsets = [tuple(sorted(rng.choice(len(positions), size=K, replace=False)))
                   for _ in range(count)]
    nd = p.dim_sn
    applicable = p.d == 1 and K == p.N
    confusion = dict.fromkeys(["agree_frame", "agree_no_frame", "pred_no_frame_oracle_frame",
                               "pred_frame_oracle_no_frame", "oracle_frame",
                               "oracle_no_frame"], 0)
    margins, disagreements = [], []
    for idx in subsets:
        svals = np.linalg.svd(atoms_all[list(idx)], compute_uv=False)
        smin = float(svals[nd - 1]) if len(svals) >= nd else 0.0
        margin = (smin / float(svals[0])) ** 2
        oracle_frame = np.linalg.matrix_rank(atoms_all[list(idx)]) == nd
        margins.append(margin)
        confusion["oracle_frame" if oracle_frame else "oracle_no_frame"] += 1
        if not applicable:
            continue
        D = _set([positions[i] for i in idx], p)
        pred = parity_predicate(D, p).no_frame
        if pred != oracle_frame:
            confusion["agree_no_frame" if pred else "agree_frame"] += 1
        else:
            confusion["pred_no_frame_oracle_frame" if pred
                      else "pred_frame_oracle_no_frame"] += 1
            disagreements.append(([positions[i] for i in idx], smin, margin, pred))
    return confusion, np.array(margins), disagreements


def _same_disagreements(found, expected):
    assert len(found) == len(expected)
    for rec, (positions, smin, margin, pred) in zip(found, expected):
        assert rec["positions"] == positions
        assert rec["pred_no_frame"] is pred
        assert rec["margin"] == pytest.approx(margin, rel=1e-12, abs=1e-30)
        assert rec["sigma_min"] == pytest.approx(smin, rel=1e-12, abs=1e-15)


SCAN_CASES = {
    "exhaustive-d1-N4-K4": (_p(4, omega=0.25 + 1j), 4, {}),
    "exhaustive-d1-N3-K3": (_p(3, omega=0.3 + 1j), 3, {}),  # odd N: N z0 is not in Lambda
    "random-d2-N3-K8": (GaborParams(d=2, N=3, Omega=OMEGA_2D), 8,
                        {"mode": "random", "count": 300, "seed": 5}),
    "random-d1-N6-K7": (_p(6), 7, {"mode": "random", "count": 300, "seed": 6}),
    # C(81, 79) = 3240 subsets; 81^79 overflows any integer code of a subset
    "exhaustive-d2-N3-K79": (GaborParams(d=2, N=3, Omega=OMEGA_2D), 79, {}),
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_block_scan_matches_a_per_subset_reference(case, monkeypatch):
    p, K, kw = SCAN_CASES[case]
    res = scan_subsets(p, K, **kw)
    confusion, margins, disagreements = _scan_reference(p, K, **kw)
    assert res.total == len(margins)
    assert res.confusion == confusion
    assert np.allclose(res.margins, margins, rtol=1e-12, atol=1e-30)
    assert res.all_frames == (confusion["oracle_no_frame"] == 0)
    _same_disagreements(res.disagreements, disagreements)
    # blocks of 7 subsets give the same bits as the default block bound
    monkeypatch.setattr(transforms, "_CHUNK", 7 * K * p.dim_sn)
    split = scan_subsets(p, K, **kw)
    assert np.array_equal(split.margins.view(np.uint64), res.margins.view(np.uint64))
    assert split.confusion == res.confusion
    assert split.disagreements == res.disagreements
    assert split.all_frames == res.all_frames


def test_scan_reports_every_disagreement_in_subset_order(monkeypatch):
    # with the delta window eps_0 the atom of (k, l) is a phase times eps_k, so
    # a subset spans exactly when its N points hold N distinct k: each k once,
    # so sum k = N(N-1)/2 = 6, which 4 does not divide, and the predicate calls
    # it a frame.  Every subset the predicate calls a frame but that repeats a
    # k is a disagreement
    p = _p(4)
    delta = np.zeros(4, dtype=complex)
    delta[0] = 1
    res = scan_subsets(p, 4, window=delta)
    c = res.confusion
    assert c["oracle_frame"] == c["agree_frame"] == 4 ** 4
    assert c["oracle_no_frame"] == 1820 - 4 ** 4
    assert c["agree_no_frame"] == 116
    assert c["pred_frame_oracle_no_frame"] == 1820 - 4 ** 4 - 116
    assert c["pred_no_frame_oracle_frame"] == 0
    assert not res.all_frames
    confusion, _, expected = _scan_reference(p, 4, window=delta)
    assert res.confusion == confusion
    _same_disagreements(res.disagreements, expected)
    # for Omega = i the predicate is the integer test: N | sum k and N | sum l
    positions = list(itertools.product(np.ndindex(p.shape), np.ndindex(p.shape)))
    frames_by_sums = [
        [positions[i] for i in idx] for idx in itertools.combinations(range(16), 4)
        if len({positions[i][0] for i in idx}) < 4
        and (sum(positions[i][0][0] for i in idx) % 4 or sum(positions[i][1][0] for i in idx) % 4)
    ]
    assert [rec["positions"] for rec in res.disagreements] == frames_by_sums
    assert all(rec["margin"] < 1e-30 and not rec["pred_no_frame"] for rec in res.disagreements)
    monkeypatch.setattr(transforms, "_CHUNK", 7 * 4 * 4)
    assert scan_subsets(p, 4, window=delta).disagreements == res.disagreements


def _count_svd_matrices(monkeypatch):
    matrices = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        matrices.append(np.prod(np.shape(a)[:-2], dtype=int))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return matrices


@pytest.mark.parametrize("N, orbits", [(4, 122), (5, 2130)])
def test_scan_takes_one_svd_per_translation_orbit(N, orbits, monkeypatch):
    # Burnside: 122 = (1820 + 3 * 28 + 12 * 4) / 16 orbits of 4-subsets of
    # Z_4^2, and 2130 = (53130 + 24 * 5) / 25 of 5-subsets of Z_5^2
    p = _p(N, omega=0.25 + 1j)
    matrices = _count_svd_matrices(monkeypatch)
    res = scan_subsets(p, N)
    assert res.total == math.comb(N * N, N)
    assert res.orbits == orbits == sum(matrices)
    # an orbit's first scanned member keeps the bits of its own stacked SVD
    h = periodize_sample(GaussianWindow(p))
    atoms = np.stack([time_frequency_shift(h, k, l) for k in range(N) for l in range(N)])
    svals = np.linalg.svd(atoms[list(itertools.combinations(range(N * N), N))],
                          compute_uv=False)
    own = (svals[:, -1] / svals[:, 0]) ** 2
    first = np.unique(res.margins, return_index=True)[1]
    assert np.array_equal(res.margins[first], own[first])


def test_scan_below_the_dimension_takes_no_svd(monkeypatch):
    # K < N^d atoms never span: every margin is the 0 an SVD would give
    matrices = _count_svd_matrices(monkeypatch)
    p, K, kw = SCAN_CASES["random-d2-N3-K8"]
    res = scan_subsets(p, K, **kw)
    assert matrices == [] and res.orbits == 0
    assert np.array_equal(res.margins, np.zeros(res.total))
    assert res.confusion["oracle_no_frame"] == res.total


def test_scan_memory_does_not_grow_with_all_positions_atoms():
    # the atoms of all N^2 positions of N = 128 are N^3 complex numbers
    # (32 MiB); a one-draw scan builds only its one subset's 128 atoms
    p = _p(128)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = scan_subsets(p, 128, mode="random", count=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total == res.orbits == 1
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("K", [0, 17])
def test_scan_rejects_subset_sizes_outside_the_positions(K):
    for mode in ("exhaustive", "random"):
        with pytest.raises(GaborError):
            scan_subsets(_p(4), K, mode=mode, count=3)


def test_exhaustive_scan_refuses_huge_families():
    p = _p(5)
    with pytest.raises(TooManySubsetsError):
        scan_subsets(p, 12)  # C(25, 12) = 5200300


@pytest.mark.parametrize("K,kw", [
    (400, {"mode": "random", "count": 10 ** 6, "seed": 1}),  # 4 * 10^8 entries
    (398, {}),  # C(400, 398) = 79800 subsets, 31760400 entries
])
def test_scan_budget_counts_the_entries_of_the_subset_array(monkeypatch, K, kw):
    # each family is within the subset budget, but its (subsets, K) array is
    # not; it is refused before the window is periodized
    def unexpected(*args, **kwargs):
        raise AssertionError("the window was sampled")

    monkeypatch.setattr(transforms, "periodize_sample", unexpected)
    with pytest.raises(TooManySubsetsError, match="entries"):
        scan_subsets(_p(20), K, **kw)


def test_random_scan_is_seeded_and_reproducible():
    p = _p(6)
    r1 = scan_subsets(p, 7, mode="random", count=50, seed=11)
    r2 = scan_subsets(p, 7, mode="random", count=50, seed=11)
    assert np.array_equal(r1.margins, r2.margins)
    assert r1.total == 50 and r1.seed == 11
    assert not r1.parity_applicable  # K = N + 1


def test_random_scan_needs_count():
    with pytest.raises(GaborError):
        scan_subsets(_p(4), 4, mode="random")
    with pytest.raises(GaborError):
        scan_subsets(_p(4), 4, mode="random", count=0)
    with pytest.raises(GaborError):
        scan_subsets(_p(4), 4, mode="sideways")


def test_oversampled_random_sets_are_all_frames():
    # K = N + 1 exceeds the density threshold, so every draw must be a frame
    p = _p(6)
    res = scan_subsets(p, 7, mode="random", count=200, seed=123)
    assert res.all_frames
    assert res.margins.min() > 1e-5


# ---------------------------------------------------------------------------
# structural properties of the bounds


def test_adding_points_never_hurts():
    rng = np.random.default_rng(21)
    p = _p(4)
    grid = [(k, l) for k in range(4) for l in range(4)]
    for _ in range(5):
        order = rng.permutation(len(grid))
        prev_A = 0.0
        was_frame = False
        for size in range(1, 9):
            pairs = [grid[i] for i in order[:size]]
            rep = frame_bounds(_set(pairs, p), p)
            assert rep.A >= prev_A - 1e-12
            assert rep.is_frame or not was_frame
            prev_A, was_frame = rep.A, rep.is_frame


@pytest.mark.parametrize("p", [_p(5, omega=0.3 + 1j), GaborParams(d=2, N=3, Omega=OMEGA_2D)],
                         ids=["d1", "d2"])
def test_translated_sets_share_singular_values_for_any_window(p):
    # M_{l+l0} T_{k+k0} h = e^{2 pi i l.k0/N} M_{l0} T_{k0} M_l T_k h for every
    # window h: the atoms of D + t are a row-phased copy of D's times a
    # unitary, which is what lets a scan take one SVD per translation orbit
    rng = np.random.default_rng(23)
    h = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
    assert not np.allclose(h, h[tuple(-np.indices(p.shape) % p.N)])  # not even
    K = p.dim_sn + 2
    for _ in range(4):
        ks, ls, t = rng.integers(0, p.N, (K, p.d)), rng.integers(0, p.N, (K, p.d)), \
            rng.integers(0, p.N, (2, p.d))
        r0 = frame_bounds(PointSet.from_pairs(zip(ks, ls), p), p, window=h)
        r1 = frame_bounds(PointSet.from_pairs(zip(ks + t[0], ls + t[1]), p), p, window=h)
        assert np.abs(r1.singular_values - r0.singular_values).max() <= \
            1e-13 * r0.singular_values[0]


def test_rigid_translation_preserves_singular_values():
    # time-frequency shifting every sample point is a unitary change of atoms
    rng = np.random.default_rng(22)
    p = _p(4)
    for _ in range(5):
        pairs = [tuple(v) for v in rng.integers(0, 4, (5, 2))]
        dk, dl = rng.integers(0, 4, 2)
        shifted = [(k + dk, l + dl) for k, l in pairs]
        r0 = frame_bounds(_set(pairs, p), p)
        r1 = frame_bounds(_set(shifted, p), p)
        assert np.abs(r0.singular_values - r1.singular_values).max() <= \
            1e-10 * r0.singular_values[0]
