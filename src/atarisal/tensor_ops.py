"""Dense-tensor kernels for (height, width, channels) feature maps.

Pipeline code stores float32; every kernel here accumulates dot products in
float64 and casts the result back to the input's dtype, so integer-valued
fixtures stay exact and float64 inputs (used by the gradient checker) keep
full precision. All functions are pure and safe to call concurrently.

conv2d is im2col (Chellapilla, Puri & Simard, IWFHR 2006): the zero-padded
input is viewed as (H', W', kh, kw, Cin) patches and multiplied by the
kernel's (kh*kw*Cin, Cout) float64 matrix, one GEMM per block of output rows.
A block's patch matrix is capped at PATCH_BLOCK_BYTES (at least one output
row), which bounds memory and keeps each GEMM operand cache-sized.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

# Overflow-safe branch point for the softplus family.
SOFTPLUS_CUTOFF = 30.0

# Byte cap of one conv2d patch block (float64 im2col rows).
PATCH_BLOCK_BYTES = 4 * 2**20

_LN2 = float(np.log(2.0))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


@dataclass
class ConvKernel:
    """A 2-D convolution kernel: weights (out, in, kh, kw), optional bias (out,).

    Stride and padding are isotropic; padding is zero-fill on all four sides.
    """

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    stride: int = 1
    padding: int = 0
    weights: np.ndarray = None
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        _require(self.kernel_h >= 1 and self.kernel_w >= 1, "kernel dims must be positive")
        _require(self.in_channels >= 1 and self.out_channels >= 1, "channel counts must be positive")
        _require(self.stride >= 1, "stride must be >= 1")
        _require(self.padding >= 0, "padding must be >= 0")
        expected = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        _require(self.weights is not None and tuple(self.weights.shape) == expected,
                 f"weights shape {None if self.weights is None else self.weights.shape} != {expected}")
        if self.bias is not None:
            _require(tuple(self.bias.shape) == (self.out_channels,),
                     f"bias shape {self.bias.shape} != ({self.out_channels},)")

    @cached_property
    def gemm_weights(self) -> np.ndarray:
        """The weights as the (kh*kw*in, out) float64 matrix conv2d multiplies
        by, rows in (kh, kw, in) order. Built on first use, so the weights
        must not change after the kernel has been applied."""
        w64 = np.asarray(self.weights, np.float64).transpose(2, 3, 1, 0)
        return np.ascontiguousarray(w64).reshape(-1, self.out_channels)

    @classmethod
    def ones(cls, size: int, stride: int = 1, padding: int = 0) -> "ConvKernel":
        """Single-channel all-ones kernel: the receptive-field painting that
        saliency.render computes in sub-pixel form, byte for byte."""
        return cls(size, size, 1, 1, stride, padding,
                   weights=np.ones((1, 1, size, size), dtype=np.float32))


def _check_feature_map(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x)
    _require(x.ndim == 3, f"{name} must be (height, width, channels), got shape {x.shape}")
    return x


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def conv2d(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Cross-correlate x (H, W, Cin) with kernel -> (H', W', Cout).

    No kernel flip; zero padding; H' = floor((H + 2p - k) / s) + 1.
    """
    x = _check_feature_map(x)
    h, w, c = x.shape
    _require(c == kernel.in_channels,
             f"input has {c} channels, kernel expects {kernel.in_channels}")
    s, p = kernel.stride, kernel.padding
    ho = conv_output_size(h, kernel.kernel_h, s, p)
    wo = conv_output_size(w, kernel.kernel_w, s, p)
    _require(ho >= 1 and wo >= 1,
             f"non-positive conv output size {ho}x{wo} for input {h}x{w}")

    kh, kw, cout = kernel.kernel_h, kernel.kernel_w, kernel.out_channels
    xp = np.zeros((h + 2 * p, w + 2 * p, c), dtype=np.float64)
    xp[p:p + h, p:p + w, :] = x
    # (H', W', Cin, kh, kw) window view -> (ho, wo, kh, kw, Cin), no copy yet
    patches = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::s, ::s].transpose(0, 1, 3, 4, 2)
    depth = kh * kw * c
    rows = max(1, PATCH_BLOCK_BYTES // (wo * depth * xp.itemsize))
    acc = np.empty((ho, wo, cout), dtype=np.float64)
    for r in range(0, ho, rows):
        block = patches[r:r + rows].reshape(-1, depth)  # the im2col copy
        np.matmul(block, kernel.gemm_weights, out=acc[r:r + rows].reshape(-1, cout))
    if kernel.bias is not None:
        acc += kernel.bias.astype(np.float64)
    return acc.astype(x.dtype)


def transposed_conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size - 1) * stride + kernel - 2 * padding


def transposed_conv2d(y: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Adjoint of conv2d: y (H, W, Cout) -> (H_out, W_out, Cin); bias is ignored.

    H_out = (H - 1) * s + k - 2p.  For every x, y and bias-free kernel K,
    <conv2d(x, K), y> == <x, transposed_conv2d(y, K)>.
    """
    y = _check_feature_map(y)
    h, w, c = y.shape
    _require(c == kernel.out_channels,
             f"input has {c} channels, kernel produces {kernel.out_channels}")
    s, p = kernel.stride, kernel.padding
    ho = transposed_conv_output_size(h, kernel.kernel_h, s, p)
    wo = transposed_conv_output_size(w, kernel.kernel_w, s, p)
    _require(ho >= 1 and wo >= 1,
             f"non-positive transposed conv output size {ho}x{wo}")

    full_h = (h - 1) * s + kernel.kernel_h
    full_w = (w - 1) * s + kernel.kernel_w
    y64 = y.reshape(h * w, c).astype(np.float64)
    w64 = kernel.weights.astype(np.float64)
    full = np.zeros((full_h, full_w, kernel.in_channels), dtype=np.float64)
    for ki in range(kernel.kernel_h):
        for kj in range(kernel.kernel_w):
            contrib = y64 @ w64[:, :, ki, kj]
            full[ki:ki + (h - 1) * s + 1:s, kj:kj + (w - 1) * s + 1:s, :] += \
                contrib.reshape(h, w, kernel.in_channels)
    out = full[p:full_h - p, p:full_w - p, :]
    return out.astype(y.dtype)


# -- activations --------------------------------------------------------------

def relu(x):
    return np.maximum(x, 0)


def elu(x):
    # alpha = 1
    x = np.asarray(x)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def softplus(x):
    """ln(1 + e^x) with asymptotic branches beyond |x| = 30."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    mid = np.log1p(np.exp(np.clip(x, -SOFTPLUS_CUTOFF, SOFTPLUS_CUTOFF)))
    return np.where(x > SOFTPLUS_CUTOFF, x,
                    np.where(x < -SOFTPLUS_CUTOFF, np.exp(np.minimum(x, 0.0)), mid))


def softplus2(x):
    """log2(1 + 2^x) with asymptotic branches beyond |x| = 30."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    mid = np.log1p(np.exp2(np.clip(x, -SOFTPLUS_CUTOFF, SOFTPLUS_CUTOFF))) / _LN2
    return np.where(x > SOFTPLUS_CUTOFF, x,
                    np.where(x < -SOFTPLUS_CUTOFF, np.exp2(np.minimum(x, 0.0)) / _LN2, mid))


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": relu,
    "elu": elu,
    "tanh": np.tanh,
    "softplus": softplus,
    "softplus2": softplus2,
    "identity": lambda x: x,
}


def apply_activation(x: np.ndarray, kind: str) -> np.ndarray:
    _require(kind in ACTIVATIONS, f"unknown activation {kind!r}")
    x = np.asarray(x)
    return np.asarray(ACTIVATIONS[kind](x), dtype=x.dtype)


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
    ex = np.exp(np.minimum(x, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0, pos, neg)


ACTIVATION_GRADS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda x: (np.asarray(x) > 0).astype(np.float64),
    "elu": lambda x: np.where(np.asarray(x) > 0, 1.0, np.exp(np.minimum(np.asarray(x, np.float64), 0.0))),
    "tanh": lambda x: 1.0 - np.tanh(np.asarray(x, np.float64)) ** 2,
    "softplus": _sigmoid,
    "softplus2": lambda x: _sigmoid(np.asarray(x, np.float64) * _LN2),
    "identity": lambda x: np.ones_like(np.asarray(x, np.float64)),
}


# -- softmax and pooling -------------------------------------------------------

def spatial_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the H*W positions of each channel; channels stay independent."""
    x = _check_feature_map(x)
    x64 = x.astype(np.float64)
    x64 -= x64.max(axis=(0, 1), keepdims=True)  # shift for stability
    e = np.exp(x64)
    return (e / e.sum(axis=(0, 1), keepdims=True)).astype(x.dtype)


def sum_pool_channels(x: np.ndarray) -> np.ndarray:
    """(H, W, C) -> (H, W, 1) by summing channels."""
    x = _check_feature_map(x)
    return x.astype(np.float64).sum(axis=2, keepdims=True).astype(x.dtype)


def spatial_sum_pool(x: np.ndarray) -> np.ndarray:
    """(H, W, C) -> (C,) by summing over all spatial positions."""
    x = _check_feature_map(x)
    return x.astype(np.float64).sum(axis=(0, 1)).astype(x.dtype)


def linear(v: np.ndarray, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """weights (out, in) @ v (in,) [+ bias (out,)]."""
    v = np.asarray(v)
    _require(v.ndim == 1, f"linear input must be a vector, got shape {v.shape}")
    _require(weights.ndim == 2 and weights.shape[1] == v.shape[0],
             f"weights shape {weights.shape} incompatible with input length {v.shape[0]}")
    out = np.einsum("oi,i->o", np.asarray(weights, np.float64), v.astype(np.float64))
    if bias is not None:
        _require(bias.shape == (weights.shape[0],), "bias length mismatch")
        out = out + np.asarray(bias, np.float64)
    return out.astype(v.dtype)


def l2_normalize_locations(x: np.ndarray) -> np.ndarray:
    """Scale each location's channel vector to unit Euclidean norm; zero vectors pass through."""
    x = _check_feature_map(x)
    x64 = x.astype(np.float64)
    norm = np.sqrt((x64 * x64).sum(axis=2, keepdims=True))
    return np.where(norm > 0, x64 / np.where(norm > 0, norm, 1.0), x64).astype(x.dtype)


# -- analytic input gradients (verification only, no training graph) ----------

def conv2d_input_grad(upstream: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """d/dx of sum(upstream * conv2d(x, kernel)); the adjoint applied to upstream."""
    return transposed_conv2d(upstream, kernel)


def activation_input_grad(x: np.ndarray, kind: str, upstream: np.ndarray) -> np.ndarray:
    _require(kind in ACTIVATION_GRADS, f"unknown activation {kind!r}")
    return ACTIVATION_GRADS[kind](x) * np.asarray(upstream, dtype=np.float64)


def spatial_softmax_input_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    y = spatial_softmax(np.asarray(x, dtype=np.float64))
    g = np.asarray(upstream, dtype=np.float64)
    dot = (g * y).sum(axis=(0, 1), keepdims=True)
    return y * (g - dot)


def l2_normalize_input_grad(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    x64 = np.asarray(x, dtype=np.float64)
    g = np.asarray(upstream, dtype=np.float64)
    norm = np.sqrt((x64 * x64).sum(axis=2, keepdims=True))
    safe = np.where(norm > 0, norm, 1.0)
    y = x64 / safe
    proj = (g * y).sum(axis=2, keepdims=True)
    grad = (g - proj * y) / safe
    return np.where(norm > 0, grad, g)


def grad_check(forward: Callable[[np.ndarray], np.ndarray],
               input_grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
               x: np.ndarray,
               epsilon: float = 1e-3,
               weights: Optional[np.ndarray] = None) -> float:
    """Max relative error between analytic and central-difference input gradients.

    The scalar loss is sum(weights * forward(x)); weights defaults to all ones
    (a plain output sum). Relative error at each coordinate is
    |analytic - numeric| / max(1, |analytic|). Everything runs in float64.
    """
    x = np.array(x, dtype=np.float64)
    w = np.ones_like(forward(x)) if weights is None else np.asarray(weights, dtype=np.float64)

    analytic = np.asarray(input_grad(x, w), dtype=np.float64)
    _require(analytic.shape == x.shape, "analytic gradient shape mismatch")

    numeric = np.zeros_like(x)
    flat = x.ravel()
    nflat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        lo_hi = float((w * forward(x)).sum())
        flat[i] = orig - epsilon
        lo_lo = float((w * forward(x)).sum())
        flat[i] = orig
        nflat[i] = (lo_hi - lo_lo) / (2.0 * epsilon)

    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max())
