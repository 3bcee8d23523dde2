import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    val, reason = M._nss(np.full((4, 4), 3.0), fix_at((4, 4), (0, 0)), 1.0)
    assert val is None and reason == M.REASON_ZERO_VARIANCE


def test_nss_no_fixations_undefined():
    val, reason = M._nss(np.arange(16.0).reshape(4, 4), np.zeros((4, 4), np.int64), 0.0)
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


def test_blur_spread_is_sigma_sized():
    grid = np.zeros((84, 84))
    grid[42, 42] = 1.0
    out = M.gaussian_blur(grid)
    # one sigma out the density drops to exp(-0.5) of the peak
    assert out[42, 47] / out[42, 42] == pytest.approx(math.exp(-0.5), rel=1e-3)


def blur_grid(rng, kind, shape):
    """A grid of the given kind. "rows" and "columns" put counts on one to
    three lines among the two at each reflect edge; "negative-zeros" has
    -0.0 columns, alone or beside counts."""
    if kind == "counts":
        return rng.poisson(0.05, shape).astype(np.int64)
    if kind == "floats":
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30)
    grid = np.zeros(shape)
    if kind in ("rows", "columns"):
        n = shape[0] if kind == "rows" else shape[1]
        edges = sorted({0, min(1, n - 1), max(n - 2, 0), n - 1})
        lines = rng.choice(edges, size=rng.integers(1, min(3, len(edges)) + 1), replace=False)
        view = grid if kind == "rows" else grid.T
        view[lines] = rng.poisson(0.5, (len(lines), view.shape[1]))
    elif kind == "negative-zeros":
        grid[:, rng.random(shape[1]) < 0.3] = -0.0
        if rng.random() < 0.5:
            grid[rng.random(shape) < 0.05] += 1.0
    return grid


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["counts", "floats", "rows", "columns", "zeros", "negative-zeros"]),
       shape=st.sampled_from([(210, 160), (1, 1), (1, 7), (9, 2), (40, 13)]),
       sigma=st.one_of(st.sampled_from([0.0, 1e-16, 1e-15, 1e-9, 0.3, 5.0, 70.0]),
                       st.floats(0.0, 70.0)))
@settings(max_examples=300, deadline=None)
def test_blur_bytes_equal_scipy_gaussian_filter(seed, kind, shape, sigma):
    # the oracle; atarisal itself does not import scipy. Radii up to 210 reach
    # past every edge of the small grids, so reflection repeats. The sparse
    # kinds check that lines of +0.0 bits, which the blur skips, come out as
    # scipy's +0.0, and that -0.0 lines are blurred.
    from scipy.ndimage import gaussian_filter

    grid = blur_grid(np.random.default_rng(seed), kind, shape)
    got = M.gaussian_blur(grid, sigma)
    want = gaussian_filter(grid.astype(np.float64), sigma=sigma, mode="reflect",
                           radius=M.blur_radius_for(sigma))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- kl -----------------------------------------------------------------------------

def test_kl_of_matched_distributions_is_zero():
    fix = fix_at((84, 84), (10, 10), (40, 50), (40, 50), (70, 20))
    sal = M.gaussian_blur(fix)
    assert M.kl_divergence(sal, fix) == pytest.approx(0.0, abs=1e-6)


def test_kl_two_cell_hand_value():
    # identity blur: sigma 0 leaves the fixation grid as it is
    sal = np.array([[0.5, 0.5]])
    fix = np.array([[3, 1]])
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert M.kl_divergence(sal, fix, 0.0) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("sigma", [0.0, 5.0])
def test_kl_against_a_uniform_map_is_the_negative_entropy_plus_log_n(sigma):
    # with s = 1/N everywhere, KL(f || s) = sum f log f + log N, f being the
    # blurred fixation map smoothed by EPSILON per cell and normalized
    fix = fix_at((210, 160), (10, 10), (100, 80), (100, 80), (200, 150))
    f = M.gaussian_blur(fix, sigma) + M.EPSILON
    f /= f.sum()
    want = float((f * np.log(f)).sum()) + math.log(fix.size)
    assert M.kl_divergence(np.full(fix.shape, 0.25), fix, sigma) == pytest.approx(want, rel=1e-12)


def test_kl_no_fixations_undefined():
    val, reason = M._kl(np.ones((3, 3)), np.zeros((3, 3), np.int64), 0.0, 5.0)
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
    assert M.kl_divergence(sal, fix, 2.0) >= -1e-12


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


def test_sauc_shape_mismatch():
    pos = np.zeros((2, 2), np.int64)
    with pytest.raises(ConfigurationError, match=r"saliency \(2, 2\) vs fixation \(2, 3\)"):
        M.shuffled_auc(np.zeros((2, 2)), np.zeros((2, 3), np.int64), [])
    with pytest.raises(ConfigurationError, match=r"negative-pool map shape \(3, 2\) mismatch"):
        M.shuffled_auc(np.zeros((2, 2)), pos, [pos, np.zeros((3, 2), np.int64)])


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
    st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=80),
    st.lists(st.sampled_from(FLOAT32_TIES), min_size=2, max_size=80),
    st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=2, max_size=80),
    st.lists(st.floats(-1e6, 1e6, width=32), min_size=2, max_size=80),
    st.tuples(st.floats(allow_nan=False), st.integers(2, 40)).map(lambda t: [t[0]] * t[1]),
), data=st.data())
@settings(max_examples=300, deadline=None)
def test_sauc_bytes_equal_rankdata_mann_whitney(values, data):
    from scipy.stats import rankdata  # the oracle; atarisal itself does not import scipy.stats

    # one row of cells: the first n_pos are fixated here, the rest in another frame
    sal = np.asarray(values, dtype=np.float64)[None, :]
    n_pos = data.draw(st.integers(1, sal.size - 1))
    pos = np.zeros(sal.shape, np.int64)
    pos[0, :n_pos] = 1
    got = M.shuffled_auc(sal, pos, [1 - pos])
    n_neg = sal.size - n_pos
    u = rankdata(sal[0])[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    want = float(u / (n_pos * n_neg))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_sauc_pool_of_the_total_equals_the_total_less_the_frame(data):
    # _sauc drops the positives from the pool, so a frame's own counts in
    # the pooled total change nothing: total >= fix cell by cell
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    counts = arrays(np.int64, shape, elements=st.integers(0, 2))
    fix, others = data.draw(counts), data.draw(counts)
    sal = data.draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5, 1.0])))
    total = fix + others
    assert M._sauc(sal, fix, [total]) == M._sauc(sal, fix, [total - fix])


# -- invariances, through score_frame -------------------------------------------------
# The ones the literature gives each metric (Bylinskii et al., arXiv:1604.03605).
# KL is left out of the transform tests: it adds EPSILON to every cell before
# normalizing, so even scaling a map moves it.

FLOAT_EPS = float(np.finfo(np.float64).eps)
INVARIANCE = settings(max_examples=100, deadline=None, derandomize=True)
FRAMES = dict(seed=st.integers(0, 2**32 - 1),
              shape=st.sampled_from([(7, 5), (21, 16), (210, 160)]),
              levels=st.sampled_from([0, 4, 64]))  # 0: no ties made; else that many values


def scored_frame(seed, shape, levels):
    """A non-negative map (ties made by rounding to levels), a count map that
    fixates about a fifth of the pixels, and a pool map that holds them."""
    rng = np.random.default_rng(seed)
    sal = rng.random(shape)
    if levels:
        sal = np.round(sal * levels) / levels
    fix = rng.integers(0, 3, shape) * (rng.random(shape) > 0.8)
    pool = fix + rng.integers(0, 2, shape) * (rng.random(shape) > 0.5)
    return sal, fix, pool


STRICTLY_INCREASING = {"exp": np.exp, "cube": lambda x: x ** 3, "sqrt": np.sqrt,
                       "affine": lambda x: 1e3 * x + 7.0}


@given(**FRAMES, transform=st.sampled_from(sorted(STRICTLY_INCREASING)))
@INVARIANCE
def test_sauc_is_unchanged_by_a_strictly_increasing_transform(seed, shape, levels, transform):
    sal, fix, pool = scored_frame(seed, shape, levels)
    moved = STRICTLY_INCREASING[transform](sal)
    # sAUC reads only the map's order, so the transform must keep it in
    # float64: strictly increasing between distinct values, equal at ties
    ordered = np.sort(sal, axis=None)
    steps, moved_steps = np.diff(ordered), np.diff(STRICTLY_INCREASING[transform](ordered))
    assert np.array_equal(steps > 0, moved_steps > 0) and (moved_steps >= 0).all()
    assert M.score_frame(0, moved, fix, [pool]).sauc == M.score_frame(0, sal, fix, [pool]).sauc


@given(**FRAMES, scale=st.floats(0.1, 100.0), shift=st.floats(0.0, 100.0))
@INVARIANCE
def test_nss_is_unchanged_by_a_positive_affine_map(seed, shape, levels, scale, shift):
    sal, fix, pool = scored_frame(seed, shape, levels)
    base = M.score_frame(0, sal, fix, [pool]).nss
    moved = M.score_frame(0, scale * sal + shift, fix, [pool]).nss
    if base is None:
        assert moved is None
        return
    # scale * sal + shift rounds each cell by up to an ulp of shift + scale,
    # against a spread of scale * std(sal): 16 such units, where 1.6 was the
    # most seen over 1,500 random frames
    unit = FLOAT_EPS * (shift + scale * sal.max()) / (scale * sal.std())
    assert abs(moved - base) <= 16 * unit * max(1.0, abs(base))


def test_kl_is_not_scale_invariant():
    # the EPSILON added before normalizing weighs more against a smaller map
    sal, fix = np.array([[0.0, 1.0]]), np.array([[1, 1]])
    assert M.kl_divergence(1e-6 * sal, fix, 0.0) != M.kl_divergence(sal, fix, 0.0)


@given(**FRAMES, sigma=st.sampled_from([0.0, 1.5, 5.0]))
@INVARIANCE
def test_mirroring_a_frame_mirrors_its_scores(seed, shape, levels, sigma):
    sal, fix, pool = scored_frame(seed, shape, levels)
    # the blur's taps and its reflect padding are symmetric, and a + b == b + a
    # in float64, so its output mirrors exactly
    blurred = M.gaussian_blur(fix, sigma)
    assert np.array_equal(M.gaussian_blur(fix[:, ::-1], sigma), blurred[:, ::-1])
    base = M.score_frame(0, sal, fix, [pool], sigma)
    mirrored = M.score_frame(0, sal[:, ::-1], fix[:, ::-1], [pool[:, ::-1]], sigma)
    # sAUC counts pairs, which no order changes; NSS and KL sum in another
    # order, so they agree to rounding: at most 7.8e-16 and 1.8e-15 were seen
    # over 600 random frames
    assert mirrored.sauc == base.sauc and mirrored.reasons == base.reasons
    for name in ("nss", "kl"):
        got, want = getattr(mirrored, name), getattr(base, name)
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 64 * FLOAT_EPS * max(1.0, abs(want)), name


# -- score_frame / aggregate --------------------------------------------------------

def test_score_frame_depends_only_on_the_map_values():
    # numpy's float64 sums depend on the memory layout, so score_frame must
    # convert every map to one layout before it sums
    rng = np.random.default_rng(3)
    sal = rng.random((210, 160)).astype(np.float32)
    fix = rng.integers(0, 3, size=(210, 160)) * (rng.random((210, 160)) > 0.9)
    pool = [fix + rng.integers(0, 2, size=(210, 160))]
    scores = [M.score_frame(0, order(sal), layout(fix), pool)
              for order in (np.ascontiguousarray, np.asfortranarray)
              for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert all(score == scores[0] for score in scores)


def test_score_frame_reason_wiring():
    sal = np.full((4, 4), 1.0)
    fix = fix_at((4, 4), (1, 1))
    pool = [fix_at((4, 4), (2, 2))]
    score = M.score_frame(7, sal, fix, pool, 1.0)
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
