"""Saliency-vs-fixation scoring: NSS, blurred KL divergence, shuffled AUC,
and recording-level aggregation.

Frames where a metric is undefined carry a reason code instead of a value:
"zero-variance-saliency", "no-fixations", or "no-negatives". Aggregation
drops those frames per metric, averages within each recording first, then
reports mean and population std across recordings.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigurationError

EPSILON = 1e-9  # additive smoothing for the KL distributions

# A float map is treated as zero-variance when its population std is this far
# below its scale; catches arithmetic wobble on constant maps without ever
# flagging a genuinely varying one.
VARIANCE_EPS = 1e-6

METRIC_NAMES = ("nss", "kl", "sauc")

REASON_ZERO_VARIANCE = "zero-variance-saliency"
REASON_NO_FIXATIONS = "no-fixations"
REASON_NO_NEGATIVES = "no-negatives"


@dataclass
class BlurParams:
    sigma: float = 5.0
    radius: int = 15  # ceil(3 * sigma)


@dataclass
class FrameScore:
    frame: int = 0
    nss: Optional[float] = None
    kl: Optional[float] = None
    sauc: Optional[float] = None
    reasons: dict = field(default_factory=dict)  # metric name -> reason code


def _check_shapes(sal: np.ndarray, fix: np.ndarray):
    sal = np.asarray(sal)
    fix = np.asarray(fix)
    if sal.shape != fix.shape:
        raise ConfigurationError(f"saliency {sal.shape} vs fixation {fix.shape} shape mismatch")
    return sal.astype(np.float64), fix.astype(np.float64)


def _nss(sal: np.ndarray, fix: np.ndarray):
    sal, fix = _check_shapes(sal, fix)
    mean = float(sal.mean())
    std = float(sal.std())  # population std
    if std <= VARIANCE_EPS * max(1.0, abs(mean)):
        return None, REASON_ZERO_VARIANCE
    total = float(fix.sum())
    if total == 0.0:
        return None, REASON_NO_FIXATIONS
    normalized = (sal - mean) / std
    return float((fix * normalized).sum() / total), None


def nss(sal: np.ndarray, fix: np.ndarray) -> Optional[float]:
    """Mean of the zero-mean unit-std normalized saliency over fixated pixels,
    weighted by fixation counts. None if saliency is constant or no fixations."""
    return _nss(sal, fix)[0]


def gaussian_blur(grid: np.ndarray, params: BlurParams = None) -> np.ndarray:
    """Separable Gaussian with a truncated normalized kernel, reflect padding."""
    params = params or BlurParams()
    return gaussian_filter(np.asarray(grid, dtype=np.float64),
                           sigma=params.sigma, mode="reflect", radius=params.radius)


def _kl(sal: np.ndarray, fix: np.ndarray, params: BlurParams):
    sal, fix = _check_shapes(sal, fix)
    if float(fix.sum()) == 0.0:
        return None, REASON_NO_FIXATIONS
    if float(sal.min()) < 0.0:
        raise ConfigurationError("saliency map must be non-negative for KL divergence")
    f = gaussian_blur(fix, params) + EPSILON
    f /= f.sum()
    s = sal + EPSILON
    s /= s.sum()
    return float((f * np.log(f / s)).sum()), None


def kl_divergence(sal: np.ndarray, fix: np.ndarray,
                  params: BlurParams = None) -> Optional[float]:
    """KL(blurred-fixation distribution || saliency distribution); both sides
    smoothed by EPSILON per cell and normalized to sum 1. None without fixations."""
    return _kl(sal, fix, params or BlurParams())[0]


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values in float64, tied values sharing the mean of their
    ranks: a group at sorted positions start..end-1 gets (start + 1 + end) / 2.
    Every rank is an exact half-integer, so these equal scipy.stats.rankdata's."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _sauc(sal: np.ndarray, positives: np.ndarray, negative_pool):
    sal = np.asarray(sal, dtype=np.float64)
    pos_mask = np.asarray(positives) > 0
    if pos_mask.shape != sal.shape:
        raise ConfigurationError(
            f"saliency {sal.shape} vs fixation {pos_mask.shape} shape mismatch")
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
    neg_vals = sal[neg_mask]
    # Mann-Whitney with midranks over all pos x neg pairs: exhaustive and exact.
    ranks = _midranks(np.concatenate([pos_vals, neg_vals]))
    n_pos, n_neg = pos_vals.size, neg_vals.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg)), None


def shuffled_auc(sal: np.ndarray, positives: np.ndarray,
                 negative_pool: Sequence[np.ndarray]) -> Optional[float]:
    """Ranking AUC of saliency at fixated pixels vs pixels fixated in other
    frames (ties at half weight). None when either set is empty."""
    return _sauc(sal, positives, negative_pool)[0]


def score_frame(frame: int, sal: np.ndarray, fix: np.ndarray,
                negative_pool: Sequence[np.ndarray],
                blur: BlurParams = None) -> FrameScore:
    blur = blur or BlurParams()
    score = FrameScore(frame=frame)
    score.nss, r = _nss(sal, fix)
    if r:
        score.reasons["nss"] = r
    score.kl, r = _kl(sal, fix, blur)
    if r:
        score.reasons["kl"] = r
    score.sauc, r = _sauc(sal, fix, negative_pool)
    if r:
        score.reasons["sauc"] = r
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
    return math.ceil(3.0 * sigma)
