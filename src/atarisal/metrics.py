"""Saliency-vs-fixation scoring: NSS, blurred KL divergence, shuffled AUC,
and recording-level aggregation.

Frames where a metric is undefined carry a reason code instead of a value:
"zero-variance-saliency", "no-fixations", or "no-negatives". Aggregation
drops those frames per metric, averages within each recording first, then
reports mean and population std across recordings.

Conventions, set against the MIT saliency benchmark code of Bylinskii et
al. ("What do different evaluation metrics tell us about saliency models?",
arXiv:1604.03605):
- KL adds EPSILON to every cell of both maps before normalizing them; the
  MIT code normalizes first and puts eps inside the ratio and the log.
- sAUC's positives and negatives are pixel sets, not fixation multisets: a
  pixel fixated twice is one positive. NSS weights each fixated pixel by its
  fixation count, so repeated fixations count again there.
- sAUC is the exact Mann-Whitney count over all pairs; the MIT code
  averages the AUC over randomly sampled splits of the negatives.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError

EPSILON = 1e-9  # additive smoothing for the KL distributions

# A float map is treated as zero-variance when its population std is this far
# below its scale; catches arithmetic wobble on constant maps without ever
# flagging a genuinely varying one.
VARIANCE_EPS = 1e-6

METRIC_NAMES = ("nss", "kl", "sauc")  # FrameScore fields and CSV columns, in column order
DEFAULT_SIGMA = 5.0  # default std of the Gaussian blur of the fixation map, in pixels

REASON_ZERO_VARIANCE = "zero-variance-saliency"
REASON_NO_FIXATIONS = "no-fixations"
REASON_NO_NEGATIVES = "no-negatives"


@dataclass
class FrameScore:
    frame: int = 0
    nss: Optional[float] = None
    kl: Optional[float] = None
    sauc: Optional[float] = None
    reasons: dict = field(default_factory=dict)  # metric name -> reason code


def _check_shapes(sal: np.ndarray, fix: np.ndarray):
    """sal as column-major float64 and fix as row-major float64, each copied
    only if it is not so already. numpy's float64 sums depend on the memory
    layout, so a score depends only on the values once the layout is fixed.
    Column-major is a fixed choice that the sums' bytes depend on, whatever
    layout a map arrives in; row-major is what `preprocessing.fixation_map`
    returns."""
    sal = np.asarray(sal, dtype=np.float64, order="F")
    fix = np.asarray(fix, dtype=np.float64, order="C")
    if sal.shape != fix.shape:
        raise ConfigurationError(f"saliency {sal.shape} vs fixation {fix.shape} shape mismatch")
    return sal, fix


def _nss(sal: np.ndarray, fix: np.ndarray, total: float):
    """NSS of _check_shapes' sal and fix, total being fix's sum."""
    mean = float(sal.mean())
    std = float(sal.std())  # population std
    if std <= VARIANCE_EPS * max(1.0, abs(mean)):
        return None, REASON_ZERO_VARIANCE
    if total == 0.0:
        return None, REASON_NO_FIXATIONS
    normalized = (sal - mean) / std
    return float((fix * normalized).sum() / total), None


def nss(sal: np.ndarray, fix: np.ndarray) -> Optional[float]:
    """Mean of the zero-mean unit-std normalized saliency over fixated pixels,
    weighted by fixation counts. None if saliency is constant or no fixations."""
    sal, fix = _check_shapes(sal, fix)
    return _nss(sal, fix, float(fix.sum()))[0]


def gaussian_blur(grid: np.ndarray, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Separable Gaussian with a normalized kernel truncated at radius
    blur_radius_for(sigma), reflect padding.

    The float64 operations, and so the bytes, of scipy.ndimage.gaussian_filter
    (grid, sigma, mode="reflect", radius=blur_radius_for(sigma)): the same
    kernel expression, rows first, and per pixel center * w0 followed by
    (left + right) * w_j added for j from the radius down to 1. A sigma of at
    most 1e-15 leaves the grid as it is, as scipy does. Written out here so
    that no command has to import scipy, which would cost more start-up time
    and resident memory than all of atarisal's own imports."""
    grid = np.asarray(grid, dtype=np.float64)
    if sigma <= 1e-15:
        return grid.copy()
    r = blur_radius_for(sigma)
    taps = np.arange(-r, r + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    # A line of +0.0 bits blurs to +0.0 bits (0 * w = 0, 0 + 0 = 0), so each
    # pass runs only on the lines holding other bits, -0.0 and NaN included.
    rows = np.zeros(grid.shape)
    cols = (grid.view(np.uint64) != 0).any(axis=0)
    rows[:, cols] = _correlate_rows(grid[:, cols], weights, r)
    live = (rows.view(np.uint64) != 0).any(axis=1)
    out = np.zeros(grid.shape)
    out[live] = _correlate_rows(np.ascontiguousarray(rows[live].T), weights, r).T
    return out


def _correlate_rows(grid: np.ndarray, weights: np.ndarray, r: int) -> np.ndarray:
    """grid correlated along axis 0 with the symmetric 2r+1 weights, the grid
    extended by half-sample reflection (dcba|abcd|dcba, repeated as needed)."""
    n = grid.shape[0]
    index = np.arange(-r, n + r) % (2 * n)
    padded = grid[np.where(index < n, index, 2 * n - 1 - index)]
    out = padded[r:r + n] * weights[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= weights[r + j]
        out += pair
    return out


def _kl(sal: np.ndarray, fix: np.ndarray, total: float, sigma: float):
    """KL divergence of _check_shapes' sal and fix, total being fix's sum."""
    if total == 0.0:
        return None, REASON_NO_FIXATIONS
    if float(sal.min()) < 0.0:
        raise ConfigurationError("saliency map must be non-negative for KL divergence")
    f = gaussian_blur(fix, sigma) + EPSILON
    f /= f.sum()
    s = sal + EPSILON
    s /= s.sum()
    return float((f * np.log(f / s)).sum()), None


def kl_divergence(sal: np.ndarray, fix: np.ndarray,
                  sigma: float = DEFAULT_SIGMA) -> Optional[float]:
    """KL(blurred-fixation distribution || saliency distribution); both sides
    smoothed by EPSILON per cell and normalized to sum 1. None without fixations."""
    sal, fix = _check_shapes(sal, fix)
    return _kl(sal, fix, float(fix.sum()), sigma)[0]


def _sauc(sal: np.ndarray, positives: np.ndarray, negative_pool):
    """sAUC of _check_shapes' sal and positives."""
    pos_mask = positives > 0
    neg_mask = np.zeros_like(pos_mask)
    for other in negative_pool:
        other = np.asarray(other)
        if other.shape != sal.shape:
            raise ConfigurationError(f"negative-pool map shape {other.shape} mismatch")
        neg_mask |= other > 0
    neg_mask &= ~pos_mask
    if not pos_mask.any():
        return None, REASON_NO_FIXATIONS
    if not neg_mask.any():
        return None, REASON_NO_NEGATIVES

    pos_vals = sal[pos_mask]
    neg_vals = np.sort(sal[neg_mask])
    # Mann-Whitney U over all pos x neg pairs: each positive wins over the
    # negatives below it and ties those equal to it. U is an exact half-integer.
    below = np.searchsorted(neg_vals, pos_vals, side="left").sum(dtype=np.int64)
    not_above = np.searchsorted(neg_vals, pos_vals, side="right").sum(dtype=np.int64)
    u = (below + not_above) / 2
    return float(u / (pos_vals.size * neg_vals.size)), None


def shuffled_auc(sal: np.ndarray, positives: np.ndarray,
                 negative_pool: Sequence[np.ndarray]) -> Optional[float]:
    """Ranking AUC of saliency at fixated pixels vs the pixels that some map
    of negative_pool counts and positives does not (ties at half weight).
    None when either set is empty."""
    sal, positives = _check_shapes(sal, positives)
    return _sauc(sal, positives, negative_pool)[0]


def score_frame(frame: int, sal: np.ndarray, fix: np.ndarray,
                negative_pool: Sequence[np.ndarray],
                sigma: float = DEFAULT_SIGMA) -> FrameScore:
    """NSS, KL and sAUC of one frame, or the reason each is undefined. The
    map and the fixation map are converted to float64 and the fixation map
    summed once, here, and every metric reads those."""
    sal, fix = _check_shapes(sal, fix)
    total = float(fix.sum())
    score = FrameScore(frame=frame)
    results = (_nss(sal, fix, total), _kl(sal, fix, total, sigma),
               _sauc(sal, fix, negative_pool))
    for name, (value, reason) in zip(METRIC_NAMES, results):
        setattr(score, name, value)
        if reason:
            score.reasons[name] = reason
    return score


@dataclass
class MetricSummary:
    mean: Optional[float]
    std: Optional[float]
    n: int  # defined frames, totalled over recordings


def aggregate(recordings: Sequence[Sequence[FrameScore]]) -> dict[str, MetricSummary]:
    """Per metric: mean of per-recording means and population std across
    recordings; recordings with no defined frame for a metric are skipped.
    A metric with no defined frame anywhere reports n=0 and no mean."""
    out: dict[str, MetricSummary] = {}
    for name in METRIC_NAMES:
        rec_means = []
        n_frames = 0
        for scores in recordings:
            values = [getattr(s, name) for s in scores if getattr(s, name) is not None]
            if values:
                rec_means.append(float(np.mean(values)))
                n_frames += len(values)
        if rec_means:
            mean = float(np.mean(rec_means))
            std = float(np.std(rec_means))  # population std
        else:
            mean = std = None
        out[name] = MetricSummary(mean, std, n_frames)
    return out


def blur_radius_for(sigma: float) -> int:
    """Truncation radius of the Gaussian blur: three sigmas, rounded up."""
    return math.ceil(3.0 * sigma)
