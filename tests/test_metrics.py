import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import metrics as M
from atarisal.errors import ConfigurationError

from oracles import pairwise_auc


def fix_at(shape, *cells):
    fix = np.zeros(shape, np.int64)
    for r, c in cells:
        fix[r, c] += 1
    return fix


# -- nss ----------------------------------------------------------------------------

def test_nss_single_fixation_known_value():
    sal = np.array([[0.0, 0.0], [0.0, 2.0]], np.float32)
    # mean 0.5, population std sqrt(3)/2, so the max cell normalizes to sqrt(3)
    got = M.nss(sal, fix_at((2, 2), (1, 1)))
    assert got == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_nss_constant_saliency_undefined():
    val, reason = M._nss(np.full((4, 4), 3.0), fix_at((4, 4), (0, 0)))
    assert val is None and reason == M.REASON_ZERO_VARIANCE


def test_nss_no_fixations_undefined():
    val, reason = M._nss(np.arange(16.0).reshape(4, 4), np.zeros((4, 4), np.int64))
    assert val is None and reason == M.REASON_NO_FIXATIONS


def test_nss_uniform_fixations_zero():
    rng = np.random.default_rng(0)
    sal = rng.random((6, 6))
    assert M.nss(sal, np.ones((6, 6), np.int64)) == pytest.approx(0.0, abs=1e-12)


def test_nss_counts_weight_repeated_fixations():
    sal = np.array([[0.0, 1.0]])
    one = M.nss(sal, np.array([[1, 0]]))
    # two fixations on the zero cell pull the average toward its score
    two = M.nss(sal, np.array([[2, 1]]))
    assert two == pytest.approx((2 * one + (-one)) / 3)


@given(seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.1, 50.0), shift=st.floats(-100.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_nss_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    sal = rng.random((8, 8))
    fix = (rng.random((8, 8)) > 0.8).astype(np.int64)
    base = M.nss(sal, fix)
    moved = M.nss(scale * sal + shift, fix)
    if base is None:
        assert moved is None
    else:
        assert moved == pytest.approx(base, abs=1e-9)


def test_nss_shape_mismatch():
    with pytest.raises(ConfigurationError):
        M.nss(np.zeros((2, 2)), np.zeros((2, 3), np.int64))


# -- blur ---------------------------------------------------------------------------

def test_blur_constant_preserved():
    out = M.gaussian_blur(np.full((30, 30), 4.0))
    np.testing.assert_allclose(out, 4.0, rtol=1e-12)


def test_blur_interior_delta_mass_and_symmetry():
    grid = np.zeros((85, 85))
    grid[42, 42] = 1.0  # exact center of an odd grid, so flips are exact
    out = M.gaussian_blur(grid)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(out, out[::-1, :], atol=1e-12)
    np.testing.assert_allclose(out, out[:, ::-1], atol=1e-12)
    assert out.max() == out[42, 42]


def test_blur_radius_follows_sigma():
    assert M.blur_radius_for(5.0) == 15
    assert M.blur_radius_for(2.0) == 6
    assert M.blur_radius_for(2.1) == 7
    assert M.BlurParams().radius == M.blur_radius_for(M.BlurParams().sigma)


def test_blur_spread_is_sigma_sized():
    grid = np.zeros((84, 84))
    grid[42, 42] = 1.0
    out = M.gaussian_blur(grid)
    # one sigma out the density drops to exp(-0.5) of the peak
    assert out[42, 47] / out[42, 42] == pytest.approx(math.exp(-0.5), rel=1e-3)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["counts", "floats"]),
       shape=st.sampled_from([(210, 160), (1, 1), (1, 7), (9, 2), (40, 13)]),
       sigma=st.one_of(st.sampled_from([0.0, 1e-16, 1e-15, 1e-9, 0.3, 5.0, 70.0]),
                       st.floats(0.0, 70.0)))
@settings(max_examples=200, deadline=None)
def test_blur_bytes_equal_scipy_gaussian_filter(seed, kind, shape, sigma):
    # the oracle; atarisal itself does not import scipy. Radii up to 210 reach
    # past every edge of the small grids, so reflection repeats.
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    if kind == "counts":
        grid = rng.poisson(0.05, shape).astype(np.int64)
    else:
        grid = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30)
    params = M.BlurParams(sigma=sigma, radius=M.blur_radius_for(sigma))
    got = M.gaussian_blur(grid, params)
    want = gaussian_filter(grid.astype(np.float64), sigma=sigma, mode="reflect",
                           radius=params.radius)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- kl -----------------------------------------------------------------------------

def test_kl_of_matched_distributions_is_zero():
    fix = fix_at((84, 84), (10, 10), (40, 50), (40, 50), (70, 20))
    sal = M.gaussian_blur(fix)
    assert M.kl_divergence(sal, fix) == pytest.approx(0.0, abs=1e-6)


def test_kl_two_cell_hand_value():
    # identity blur: radius 0 truncates the kernel to a single tap
    params = M.BlurParams(sigma=5.0, radius=0)
    sal = np.array([[0.5, 0.5]])
    fix = np.array([[3, 1]])
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert M.kl_divergence(sal, fix, params) == pytest.approx(want, abs=1e-6)


def test_kl_no_fixations_undefined():
    val, reason = M._kl(np.ones((3, 3)), np.zeros((3, 3), np.int64), M.BlurParams())
    assert val is None and reason == M.REASON_NO_FIXATIONS


def test_kl_rejects_negative_saliency():
    with pytest.raises(ConfigurationError):
        M.kl_divergence(np.array([[-0.1, 1.0]]), np.array([[1, 0]]))


def test_kl_penalizes_mass_far_from_fixations():
    fix = fix_at((84, 84), (20, 20))
    near = M.gaussian_blur(fix)
    far = M.gaussian_blur(fix_at((84, 84), (70, 70)))
    assert M.kl_divergence(far, fix) > M.kl_divergence(near, fix) + 1.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    sal = rng.random((12, 12))
    fix = rng.integers(0, 3, size=(12, 12))
    if fix.sum() == 0:
        fix[0, 0] = 1
    assert M.kl_divergence(sal, fix, M.BlurParams(2.0, 6)) >= -1e-12


# -- shuffled auc -------------------------------------------------------------------

def test_sauc_perfect_separation_is_one():
    sal = np.arange(16.0).reshape(4, 4)
    pos = fix_at((4, 4), (3, 3), (3, 2), (3, 1))
    pool = [fix_at((4, 4), (0, 0), (0, 1), (0, 2), (0, 3))]
    assert M.shuffled_auc(sal, pos, pool) == 1.0


def test_sauc_inverted_separation_is_zero():
    sal = np.arange(16.0).reshape(4, 4)
    pos = fix_at((4, 4), (0, 0), (0, 1))
    pool = [fix_at((4, 4), (3, 3), (3, 2))]
    assert M.shuffled_auc(sal, pos, pool) == 0.0


def test_sauc_constant_saliency_is_half():
    sal = np.full((4, 4), 2.0)
    pos = fix_at((4, 4), (0, 0), (1, 1))
    pool = [fix_at((4, 4), (2, 2), (3, 3), (3, 0))]
    assert M.shuffled_auc(sal, pos, pool) == 0.5


def test_sauc_overlap_cells_stay_positive():
    # a pool fixation on an already-positive cell must not count as negative
    sal = np.arange(4.0).reshape(2, 2)
    pos = fix_at((2, 2), (1, 1))
    pool = [fix_at((2, 2), (1, 1), (0, 0))]
    assert M.shuffled_auc(sal, pos, pool) == 1.0


def test_sauc_no_fixations_reason():
    val, reason = M._sauc(np.ones((2, 2)), np.zeros((2, 2), np.int64),
                          [fix_at((2, 2), (0, 0))])
    assert val is None and reason == M.REASON_NO_FIXATIONS


def test_sauc_no_negatives_reason():
    pos = fix_at((2, 2), (0, 0))
    val, reason = M._sauc(np.ones((2, 2)), pos, [pos.copy()])
    assert val is None and reason == M.REASON_NO_NEGATIVES
    val, reason = M._sauc(np.ones((2, 2)), pos, [])
    assert val is None and reason == M.REASON_NO_NEGATIVES


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sauc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    sal = rng.integers(0, 6, size=(5, 5)).astype(np.float64)  # integer ties likely
    pos = (rng.random((5, 5)) > 0.7).astype(np.int64)
    pool = [(rng.random((5, 5)) > 0.6).astype(np.int64) for _ in range(2)]
    got = M.shuffled_auc(sal, pos, pool)
    neg_mask = np.zeros((5, 5), bool)
    for m in pool:
        neg_mask |= m > 0
    neg_mask &= ~(pos > 0)
    if not (pos > 0).any() or not neg_mask.any():
        assert got is None
    else:
        want = pairwise_auc(sal[pos > 0], sal[neg_mask])
        assert got == pytest.approx(want, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sauc_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    sal = rng.integers(0, 8, size=(5, 5)).astype(np.float64)
    pos = fix_at((5, 5), (0, 0), (2, 3))
    pool = [fix_at((5, 5), (4, 4), (1, 1), (3, 0))]
    assert M.shuffled_auc(np.exp(sal / 4.0), pos, pool) == M.shuffled_auc(sal, pos, pool)


FLOAT32_TIES = [float(np.float32(v)) for v in (-0.0, 0.0, 0.1, 0.2, 1 / 3, 1e-8, 7.5)]


@given(values=st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=80),
    st.lists(st.sampled_from(FLOAT32_TIES), min_size=1, max_size=80),
    st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=80),
    st.tuples(st.floats(allow_nan=False), st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
))
@settings(max_examples=300, deadline=None)
def test_midranks_equal_scipy_rankdata_bytes(values):
    from scipy.stats import rankdata  # the oracle; atarisal itself does not import scipy.stats

    x = np.asarray(values, dtype=np.float64)
    got, want = M._midranks(x), rankdata(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- score_frame / aggregate --------------------------------------------------------

def test_score_frame_reason_wiring():
    sal = np.full((4, 4), 1.0)
    fix = fix_at((4, 4), (1, 1))
    pool = [fix_at((4, 4), (2, 2))]
    score = M.score_frame(7, sal, fix, pool, M.BlurParams(1.0, 3))
    assert score.frame == 7
    assert score.nss is None and score.reasons["nss"] == M.REASON_ZERO_VARIANCE
    assert score.kl is not None and "kl" not in score.reasons
    assert score.sauc == 0.5 and "sauc" not in score.reasons


def test_score_frame_empty_fixations():
    score = M.score_frame(0, np.arange(4.0).reshape(2, 2),
                          np.zeros((2, 2), np.int64), [])
    assert score.nss is None and score.kl is None and score.sauc is None
    assert score.reasons == {"nss": M.REASON_NO_FIXATIONS,
                             "kl": M.REASON_NO_FIXATIONS,
                             "sauc": M.REASON_NO_FIXATIONS}


def scores(name, values):
    out = []
    for i, v in enumerate(values):
        out.append(M.FrameScore(frame=i, **{name: v}))
    return out


def test_aggregate_single_recording():
    summary = M.aggregate([scores("nss", [1.0, 2.0, 3.0])])
    assert summary["nss"].mean == pytest.approx(2.0)
    assert summary["nss"].std == 0.0  # one recording, population std
    assert summary["nss"].n == 3


def test_aggregate_recording_means_before_grand_mean():
    recs = [scores("kl", [0.4, 0.4]), scores("kl", [0.6])]
    summary = M.aggregate(recs)
    assert summary["kl"].mean == pytest.approx(0.5)
    assert summary["kl"].std == pytest.approx(0.1)
    assert summary["kl"].n == 3


def test_aggregate_skips_undefined_frames():
    recs = [scores("sauc", [0.8, None, 0.6]), scores("sauc", [None])]
    summary = M.aggregate(recs)
    assert summary["sauc"].mean == pytest.approx(0.7)
    assert summary["sauc"].std == 0.0
    assert summary["sauc"].n == 2


def test_aggregate_all_undefined():
    summary = M.aggregate([scores("nss", [None, None])])
    assert summary["nss"].mean is None
    assert summary["nss"].std is None
    assert summary["nss"].n == 0
    # the other metrics see no values either
    assert summary["kl"].n == 0 and summary["sauc"].n == 0
