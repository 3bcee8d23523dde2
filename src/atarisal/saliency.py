"""Saliency rendering and export.

An attention map rendered to input resolution is a transposed convolution
with an all-ones kernel whose size/stride/padding are the composed geometry
of the conv layers feeding the attention read point, which the model's plan
holds (`AttentionPlan.geometry`): each neuron adds its activation over its
receptive-field rectangle, clipped at the borders by the composed padding.

`render` computes it in sub-pixel form (Shi et al., arXiv:1609.07009): a
stride-s transposed convolution splits into s x s output lattices, and with
an all-ones kernel every lattice receives the same shifted copy of the map,
so ceil(k/s)^2 broadcast adds replace the k^2 kernel taps. Each output pixel
still receives the same float64 terms in the same (row tap, column tap)
order, starting from +0.0, so the bytes equal `tensor_ops.transposed_conv2d`
with `ConvKernel.ones` for every input.
"""

import json
import os

import numpy as np

from . import models
from .errors import ConfigurationError, DataFormatError
from .models import RFGeometry
from .preprocessing import FRAME_HEIGHT, FRAME_WIDTH, bilinear_resize


def render_output_size(n: int, geom: RFGeometry) -> int:
    return (n - 1) * geom.stride + geom.kernel - 2 * geom.padding


def render(attention: np.ndarray, geom: RFGeometry) -> np.ndarray:
    """Attention (N x N or N x N x 1) -> 84 x 84 saliency map."""
    a = np.asarray(attention)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3 or a.shape[2] != 1 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"attention map must be square single-channel, got {a.shape}")
    out = render_output_size(a.shape[0], geom)
    if out != models.INPUT_SIZE:
        raise ConfigurationError(
            f"geometry {geom} renders {a.shape[0]} -> {out}, expected {models.INPUT_SIZE}")
    n, k, s, p = a.shape[0], geom.kernel, geom.stride, geom.padding
    q = -(-k // s)  # at most q kernel taps reach an output pixel along each axis
    a64 = a[:, None, :, 0, None].astype(np.float64)
    full = np.zeros(((n + q) * s, (n + q) * s), dtype=np.float64)
    lattice = full.reshape(n + q, s, n + q, s)
    # Tap ki = qi*s + r lands on row (qi + y)*s + r: the tap rows sharing qi
    # are one slice of the lattice view, added in ascending (ki, kj) order.
    for qi in range(q):
        for qj in range(q):
            lattice[qi:qi + n, :k - qi * s, qj:qj + n, :k - qj * s] += a64
    return full[p:p + out, p:p + out].astype(a.dtype)


def render_multi(maps, plan: models.ModelPlan) -> np.ndarray:
    """Render every (placement, attention) pair at its read point's geometry
    in plan and sum the results."""
    geometry = {ap.tag: ap.geometry for ap in plan.attentions}
    total = np.zeros((models.INPUT_SIZE, models.INPUT_SIZE), dtype=np.float64)
    dtype = np.float32
    for placement, attention in maps:
        if placement not in geometry:
            raise ConfigurationError(f"placement {placement!r} not present in the model "
                                     f"(has {sorted(geometry) or 'none'})")
        rendered = render(attention, geometry[placement])
        dtype = rendered.dtype
        total += rendered.astype(np.float64)
    return total.astype(dtype)


def upscale_to_frame(sal: np.ndarray) -> np.ndarray:
    """84 x 84 -> 210 x 160 (rows x cols) bilinear, half-pixel centers."""
    sal = np.asarray(sal)
    if sal.shape != (models.INPUT_SIZE, models.INPUT_SIZE):
        raise ConfigurationError(f"expected 84x84 saliency map, got {sal.shape}")
    return bilinear_resize(sal, FRAME_HEIGHT, FRAME_WIDTH)


# -- export formats ------------------------------------------------------------

def save_raw_saliency(path: str, sal: np.ndarray, sidecar: str = None) -> None:
    """Row-major float32 little-endian grid plus a {width, height} JSON sidecar."""
    sal = np.ascontiguousarray(sal, dtype="<f4")
    with open(path, "wb") as f:
        f.write(sal.tobytes())
    with open(sidecar or path + ".json", "w") as f:
        json.dump({"width": sal.shape[1], "height": sal.shape[0]}, f)
        f.write("\n")


def load_raw_saliency(path: str, sidecar: str = None) -> np.ndarray:
    """A save_raw_saliency dump, exactly the size its sidecar implies, with
    finite non-negative values (KL divergence reads it as a distribution)."""
    sidecar = sidecar or path + ".json"
    try:
        with open(sidecar, encoding="utf-8") as f:
            meta = json.load(f)
        width, height = int(meta["width"]), int(meta["height"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise DataFormatError(f"{sidecar}: invalid saliency sidecar") from None
    if width < 1 or height < 1:
        raise DataFormatError(f"{sidecar}: saliency size {width}x{height} is not positive")
    size = os.stat(path).st_size
    if size != 4 * width * height:
        raise DataFormatError(f"{path}: {size} bytes, sidecar implies {width}x{height} float32 "
                              f"= {4 * width * height} bytes")
    data = np.fromfile(path, dtype="<f4")
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: saliency contains NaN or Inf")
    if (data < 0).any():
        raise DataFormatError(f"{path}: saliency contains negative values")
    return data.reshape(height, width).astype(np.float32)


def save_pgm(path: str, sal: np.ndarray) -> None:
    """8-bit P5 view after min-max normalization; constant maps export as black."""
    sal = np.asarray(sal, dtype=np.float64)
    lo, hi = float(sal.min()), float(sal.max())
    if hi > lo:
        scaled = np.round((sal - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(sal)
    img = scaled.astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())
