import itertools

import numpy as np
import pytest

from torusgabor import transforms
from torusgabor.core import GaborError, GaborParams
from torusgabor.frames import (
    EmptyPointSetError,
    NotApplicableError,
    PointSet,
    TooManySubsetsError,
    TranslateSumNotInDualLatticeError,
    counting_guarantees,
    frame_bounds,
    parity_predicate,
    scan_subsets,
    zero_set_diagnostic,
)
from torusgabor.frames import _lambda_membership, _theta_zero
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
    assert res.no_frame and res.integer_form is True
    res = parity_predicate(_set([(0, 0), (1, 1), (2, 3), (2, 0)], p), p)
    assert not res.no_frame and res.integer_form is False


def test_parity_integer_form_skipped_for_general_omega():
    p = _p(4, omega=0.25 + 1j)
    res = parity_predicate(_set([(0, 0), (1, 1), (2, 3), (1, 0)], p), p)
    assert res.integer_form is None
    assert res.no_frame  # predicate does not depend on Re Omega


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
    # the scan sums lattice coefficients solved once per scan; every subset's
    # verdict must be the one parity_predicate solves for from scratch
    p = _p(4, omega=0.25 + 1j)
    positions = list(itertools.product(np.ndindex(p.shape), np.ndindex(p.shape)))
    member = _lambda_membership(p, _set(positions, p).complex_images(p), _theta_zero(p))
    predicted = 0
    for idx in itertools.combinations(range(len(positions)), 4):
        expected = parity_predicate(_set([positions[i] for i in idx], p), p).no_frame
        assert member(list(idx)) == expected
        predicted += expected
    c = scan_subsets(p, 4).confusion
    assert c["agree_no_frame"] + c["pred_no_frame_oracle_frame"] == predicted == 116


OMEGA_2D = np.array([[0.1 + 1j, 0.05 + 0.1j], [0.05 + 0.1j, 1.3j]])


def _scan_reference(p, K, mode="exhaustive", count=None, seed=None, svd_threshold=1e-7):
    # one 2-D SVD and one parity_predicate per subset, in the scan's order
    h = periodize_sample(GaussianWindow(p))
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
        oracle_frame = margin > svd_threshold
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
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_block_scan_matches_a_per_subset_reference(case, monkeypatch):
    p, K, kw = SCAN_CASES[case]
    res = scan_subsets(p, K, **kw)
    confusion, margins, disagreements = _scan_reference(p, K, **kw)
    assert res.total == len(margins)
    assert res.confusion == confusion
    assert np.allclose(res.margins, margins, rtol=1e-12, atol=1e-30)
    assert res.all_frames == bool(np.all(margins > 1e-7))
    _same_disagreements(res.disagreements, disagreements)
    # blocks of 7 subsets give the same bits as the default block bound
    monkeypatch.setattr(transforms, "_CHUNK", 7 * K * p.dim_sn)
    split = scan_subsets(p, K, **kw)
    assert np.array_equal(split.margins.view(np.uint64), res.margins.view(np.uint64))
    assert split.confusion == res.confusion
    assert split.disagreements == res.disagreements
    assert split.all_frames == res.all_frames


def test_scan_reports_every_disagreement_in_subset_order(monkeypatch):
    # a threshold above every margin makes each subset an oracle no-frame, so
    # every subset the predicate calls a frame is a disagreement
    p = _p(4)
    res = scan_subsets(p, 4, svd_threshold=2.0)
    c = res.confusion
    assert c["oracle_no_frame"] == 1820 and c["oracle_frame"] == 0
    assert c["pred_frame_oracle_no_frame"] == 1704
    assert c["agree_no_frame"] == 116
    assert c["agree_frame"] == c["pred_no_frame_oracle_frame"] == 0
    assert not res.all_frames
    confusion, _, expected = _scan_reference(p, 4, svd_threshold=2.0)
    assert res.confusion == confusion
    _same_disagreements(res.disagreements, expected)
    # for Omega = i the predicate is the integer test: N | sum k and N | sum l
    positions = list(itertools.product(np.ndindex(p.shape), np.ndindex(p.shape)))
    frames_by_sums = [
        [positions[i] for i in idx] for idx in itertools.combinations(range(16), 4)
        if sum(positions[i][0][0] for i in idx) % 4 or sum(positions[i][1][0] for i in idx) % 4
    ]
    assert [rec["positions"] for rec in res.disagreements] == frames_by_sums
    assert all(rec["margin"] > 1e-4 and not rec["pred_no_frame"] for rec in res.disagreements)
    monkeypatch.setattr(transforms, "_CHUNK", 7 * 4 * 4)
    assert scan_subsets(p, 4, svd_threshold=2.0).disagreements == res.disagreements


@pytest.mark.parametrize("K", [0, 17])
def test_scan_rejects_subset_sizes_outside_the_positions(K):
    for mode in ("exhaustive", "random"):
        with pytest.raises(GaborError):
            scan_subsets(_p(4), K, mode=mode, count=3)


def test_exhaustive_scan_refuses_huge_families():
    p = _p(5)
    with pytest.raises(TooManySubsetsError):
        scan_subsets(p, 12)  # C(25, 12) = 5200300


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
# zero-set diagnostic


def test_diagnostic_vanishes_for_no_frame_configuration():
    p = _p(4)
    bad = _set([(0, 0), (1, 1), (2, 3), (1, 0)], p)
    z0 = _theta_zero(p)
    translates = (bad.complex_images(p) - z0).reshape(4, 1)
    vals = zero_set_diagnostic(bad, translates, p)
    assert vals.shape == (4,)
    assert vals.max() < 1e-12  # each point sits on its own translated divisor


def test_diagnostic_rejects_frame_translates_then_accepts_recentered():
    p = _p(4)
    good = _set([(0, 0), (1, 1), (2, 3), (2, 0)], p)
    z0 = _theta_zero(p)
    translates = (good.complex_images(p) - z0).reshape(4, 1)
    with pytest.raises(TranslateSumNotInDualLatticeError):
        zero_set_diagnostic(good, translates, p)
    s = translates.sum(axis=0)
    vals = zero_set_diagnostic(good, translates - s / 4, p)
    assert vals.min() > 1e-2  # no point is trapped once the sum is repaired


def test_diagnostic_checks_translate_count():
    p = _p(3)
    D = _set([(0, 0), (1, 1), (2, 2)], p)
    with pytest.raises(GaborError):
        zero_set_diagnostic(D, np.zeros((2, 1), complex), p)


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
