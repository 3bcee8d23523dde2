"""Receptive-field geometry and saliency rendering.

An attention map rendered to input resolution is a transposed convolution
with an all-ones kernel whose size/stride/padding are the composed geometry
of the conv layers feeding the attention read point: each neuron adds its
activation over its receptive-field rectangle, clipped at the borders by the
composed padding.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import models, tensor_ops as T
from .errors import ConfigurationError, DataFormatError
from .preprocessing import FRAME_HEIGHT, FRAME_WIDTH, bilinear_resize


@dataclass(frozen=True)
class RFGeometry:
    kernel: int
    stride: int
    padding: int


def compose_layers(layers) -> RFGeometry:
    """Fold per-layer (kernel, stride, padding) into one equivalent geometry."""
    kernel, padding, stride_prod = 1, 0, 1
    for (k, s, p) in layers:
        kernel += (k - 1) * stride_prod
        padding += p * stride_prod
        stride_prod *= s
    return RFGeometry(kernel, stride_prod, padding)


def compose_geometry(config: models.ModelConfig, placement: str) -> RFGeometry:
    """Geometry of the conv layers between the network input and the given
    attention read point ("block" or "convN"). The read point must exist in
    the config. The 1px input pad some presets use is a border tweak, not a
    conv layer, and stays out of the composition so rendering lands on 84x84.
    """
    plan = models.build_plan(config)
    tags = {ap.tag: ap.after_layer for ap in plan.attentions}
    if placement not in tags:
        raise ConfigurationError(
            f"placement {placement!r} not present in config (has {sorted(tags) or 'none'})")
    specs = models.BLOCK_LAYERS[config.block][:tags[placement]]
    return compose_layers((s.kernel, s.stride, s.padding) for s in specs)


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
    kernel = T.ConvKernel.ones(geom.kernel, geom.stride, geom.padding)
    return T.transposed_conv2d(a, kernel)[:, :, 0]


def render_multi(maps, config: models.ModelConfig) -> np.ndarray:
    """Render every (placement, attention) pair and sum the results."""
    total = np.zeros((models.INPUT_SIZE, models.INPUT_SIZE), dtype=np.float64)
    dtype = np.float32
    for placement, attention in maps:
        rendered = render(attention, compose_geometry(config, placement))
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
    sidecar = sidecar or path + ".json"
    try:
        with open(sidecar) as f:
            meta = json.load(f)
        width, height = int(meta["width"]), int(meta["height"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise DataFormatError(f"{sidecar}: invalid saliency sidecar") from None
    data = np.fromfile(path, dtype="<f4")
    if data.size != width * height:
        raise DataFormatError(f"{path}: {data.size} values, sidecar implies {width * height}")
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: saliency contains NaN or Inf")
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
