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
with an all-ones `ConvKernel` for every input.

Maps are scored at 210x160, and `upscale_to_frame` is the one resize. A dump
directory holds map i as `sal_NNNN.raw`, scored against observation i:
`write_dumps` writes it, `dump_files` lists it, `load_dump` reads at 210x160.
"""

import os
from pathlib import Path

import numpy as np

from . import models
from .errors import ConfigurationError, DataFormatError
from .models import RFGeometry, render_output_size
from .preprocessing import (FRAME_HEIGHT, FRAME_WIDTH, bilinear_resize, nonempty_path,
                            read_sidecar, write_sidecar)


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


# -- export formats and dump directories ---------------------------------------

def save_raw_saliency(path: str, sal: np.ndarray) -> None:
    """Row-major float32 little-endian grid plus a {width, height} sidecar path.json."""
    sal = np.ascontiguousarray(sal, dtype="<f4")
    with open(path, "wb") as f:
        f.write(sal.tobytes())
    write_sidecar(path, width=sal.shape[1], height=sal.shape[0])


def load_raw_saliency(path: str) -> np.ndarray:
    """A save_raw_saliency dump, exactly the size its sidecar's integer
    width/height imply, with finite non-negative values (KL divergence reads
    it as a distribution)."""
    width, height = read_sidecar(path, ("width", "height"))
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}.json: saliency size {width}x{height} is not positive")
    size = os.stat(path).st_size
    if size != 4 * width * height:
        raise DataFormatError(f"{path}: {size} bytes, sidecar implies {width}x{height} float32 "
                              f"= {4 * width * height} bytes")
    data = np.fromfile(path, dtype="<f4")
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: saliency contains NaN or Inf")
    if (data < 0).any():
        raise DataFormatError(f"{path}: saliency contains negative values")
    return data.reshape(height, width).astype(np.float32, copy=False)


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


def write_dumps(directory: Path, maps, pgm: bool):
    """maps, each written as it passes as directory/sal_NNNN.raw (and .pgm
    with pgm), the layout dump_files reads; directory is made at the first."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, sal in enumerate(maps):
        save_raw_saliency(str(directory / f"sal_{i:04d}.raw"), sal)
        if pgm:
            save_pgm(str(directory / f"sal_{i:04d}.pgm"), sal)
        yield sal


def dump_files(directory: str) -> list[Path]:
    """The sal_<N>.raw files of directory in index order. The indices must be
    exactly 0..n-1: dump i is scored against observation i's fixations."""
    by_index = {}
    for path in sorted(nonempty_path(directory, "dump directory").glob("sal_*.raw")):
        digits = path.name[len("sal_"):-len(".raw")]
        if not (digits.isascii() and digits.isdigit()):
            raise DataFormatError(f"{path}: no integer index in the name; expected sal_<N>.raw")
        first = by_index.setdefault(int(digits), path)
        if first != path:
            raise DataFormatError(f"{path}: index {int(digits)} repeats {first.name}")
    if not by_index:
        raise DataFormatError(f"{directory}: no sal_*.raw files")
    missing = set(range(len(by_index))) - by_index.keys()
    if missing:
        raise DataFormatError(f"{directory}: sal_{min(missing):04d}.raw is missing; dump indices "
                              "must run from 0 without gaps")
    return [by_index[i] for i in range(len(by_index))]


def load_dump(path) -> np.ndarray:
    """The dump at path at the 210x160 scoring size: an 84x84 dump upscaled,
    a 210x160 one as stored, and any other size an error."""
    sal = load_raw_saliency(str(path))
    if sal.shape not in ((models.INPUT_SIZE, models.INPUT_SIZE), (FRAME_HEIGHT, FRAME_WIDTH)):
        raise DataFormatError(f"{path}: unexpected saliency shape {sal.shape}")
    return sal if sal.shape == (FRAME_HEIGHT, FRAME_WIDTH) else upscale_to_frame(sal)
