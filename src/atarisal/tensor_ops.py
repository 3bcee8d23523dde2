"""Dense-tensor kernels for (height, width, channels) feature maps.

Pipeline code stores float32; every kernel here accumulates dot products in
float64 and casts the result back to the input's dtype, so integer-valued
fixtures stay exact and float64 inputs (used by the gradient checker) keep
full precision. All functions are pure and safe to call concurrently.

ACTIVATIONS is the one table of activation kinds, each its function and
its derivative: conv2d and apply_activation read the first,
activation_input_grad the second, and `gradcheck` checks each kind but
identity, in table order.

conv2d is im2col (Chellapilla, Puri & Simard, IWFHR 2006): the zero-padded
input is viewed as (H', W', kh, kw, Cin) patches and multiplied by the
kernel's (kh*kw*Cin, Cout) float64 matrix, one GEMM per block of output rows.
A block's patch matrix and its float64 accumulator are each capped at
PATCH_BLOCK_BYTES (at least one output row; `block_rows`), which bounds
memory and keeps each GEMM operand cache-sized. No layer pads its whole
input: a block pads only the input rows it reads, into a zeroed band of
(rows - 1) * stride + kh padded rows, and applies the layer's activation to
its own output rows. A call may ask for a range of output rows only, given
the input rows they read.

conv_chain runs stride-1, size-keeping layers (an attention module) as one
row-streamed chain, the fused layers of Alwani et al. (MICRO 2016) with
the line buffers of Halide (Ragan-Kelley et al., PLDI 2013): each layer
but the last keeps only the rows the next one's band reads, and every band
goes through conv2d.

`block_threads()` owns the thread policy, and the CLI runs every command
under it: OpenBLAS runs on one thread, and a layer of several blocks shares
them among as many threads as OpenBLAS had, n: the calling one and n - 1
that the layer starts and joins before it returns. The cap then applies per
worker, each of which holds one band, one patch buffer and one float64
accumulator. A chain of several bands instead gives each of the n its own
share of the rows to stream.
The blocks and their products are the same whatever n is, so the output
bytes are too.
"""

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

# Overflow-safe branch point for the softplus family.
SOFTPLUS_CUTOFF = 30.0

# Byte cap of one conv2d patch block (float64 im2col rows): one worker's
# block fits a 2 MiB L2 cache.
PATCH_BLOCK_BYTES = 2**20

_LN2 = float(np.log(2.0))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


@dataclass
class ConvKernel:
    """A 2-D convolution kernel: weights (out, in, kh, kw), optional bias (out,).

    The weights' shape is the kernel's only record of its dims. Stride and
    padding are isotropic; padding is zero-fill on all four sides.
    """

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        shape = np.shape(self.weights)
        _require(len(shape) == 4 and min(shape) >= 1,
                 f"weights must be (out, in, kh, kw) with every dim >= 1, got shape {shape}")
        _require(self.stride >= 1, "stride must be >= 1")
        _require(self.padding >= 0, "padding must be >= 0")
        if self.bias is not None:
            _require(tuple(self.bias.shape) == shape[:1],
                     f"bias shape {self.bias.shape} != ({shape[0]},)")

    @cached_property
    def gemm_weights(self) -> np.ndarray:
        """The weights as the (kh*kw*in, out) float64 matrix conv2d multiplies
        by, rows in (kh, kw, in) order. Built on first use, so the weights
        must not change after the kernel has been applied."""
        w64 = np.asarray(self.weights, np.float64).transpose(2, 3, 1, 0)
        return np.ascontiguousarray(w64).reshape(-1, self.weights.shape[0])


def _check_feature_map(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x)
    _require(x.ndim == 3, f"{name} must be (height, width, channels), got shape {x.shape}")
    return x


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _share_blocks(work: Callable[[int], None], workers: int) -> None:
    """work(0) on this thread and work(1), ..., work(workers - 1) on threads
    started here, each under this thread's numpy error state, which threads
    do not inherit. Returns once every thread has ended, raising the first
    error."""
    if workers == 1:
        work(0)
        return
    errors: list[Optional[BaseException]] = [None] * workers
    errstate = np.geterr()

    def run(i):
        try:
            with np.errstate(**errstate):
                work(i)
        except BaseException as e:  # raised below, once every thread has ended
            errors[i] = e

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=run, args=(i,), name=f"conv2d-block-{i}")
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for e in errors:
        if e is not None:
            raise e


def _openblas_thread_functions(libs: Path = Path(np.__file__).parent.parent / "numpy.libs"):
    """(set, get) thread-count functions of the OpenBLAS that numpy's wheel
    bundles in libs, or None: a distro numpy, MKL or Accelerate has none."""
    import ctypes

    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by numpy; this opens no copy
        except OSError:
            continue
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


# The worker count of the innermost `block_threads` block of this context.
_WORKERS: ContextVar[int] = ContextVar("conv2d_block_workers", default=1)


@contextmanager
def block_threads():
    """Run the block with OpenBLAS on one thread and conv2d's row blocks on
    as many threads as OpenBLAS had, then put that count back, also on an
    error. An idle OpenBLAS worker spins between products, through every
    copy, decode and score. With a count of one, or no known setter, nothing
    changes and the blocks run serially. The threads change timing only,
    never a byte."""
    functions = _openblas_thread_functions()
    workers = functions[1]() if functions else 1
    if workers == 1:
        yield
        return
    functions[0](1)
    token = _WORKERS.set(workers)
    try:
        yield
    finally:
        _WORKERS.reset(token)
        functions[0](workers)


def block_rows(out_width: int, depth: int, out_channels: int) -> int:
    """Output rows per GEMM block of a conv whose patch rows are depth wide:
    as many as keep the float64 patch block and the float64 accumulator
    each within PATCH_BLOCK_BYTES, and at least one."""
    return max(1, PATCH_BLOCK_BYTES // (out_width * max(depth, out_channels) * 8))


def conv2d(x: np.ndarray, kernel: ConvKernel, *, activation: str = "identity",
           rows: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Cross-correlate x (H, W, Cin) with kernel, then apply activation
    -> (H', W', Cout).

    No kernel flip; zero padding; H' = floor((H + 2p - k) / s) + 1. The
    activation is one of ACTIVATIONS, applied to each block's output rows
    as apply_activation would apply it to the whole output.

    rows = (first, stop) computes only output rows first, ..., stop - 1,
    with the same bytes as those rows of the whole output. x then holds the
    input from row max(0, first * s - p), the first row they read, on; it
    may end before the last row they read only where the input ends, and
    rows past its end are zero padding, as they are below the whole input.
    """
    x = _check_feature_map(x)
    h, w, c = x.shape
    cout, cin, kh, kw = kernel.weights.shape
    _require(c == cin, f"input has {c} channels, kernel expects {cin}")
    act = None if activation == "identity" else _activation(activation)[0]
    s, p = kernel.stride, kernel.padding
    wo = conv_output_size(w, kw, s, p)
    if rows is None:
        first, stop = 0, conv_output_size(h, kh, s, p)
    else:
        first, stop = rows
        _require(0 <= first < stop, f"output rows {rows} are not a non-empty range")
    x_top = max(0, first * s - p)  # the input row that x's row 0 holds
    ho = stop - first
    _require(ho >= 1 and wo >= 1,
             f"non-positive conv output size {ho}x{wo} for input {h}x{w}")
    _require(stop <= conv_output_size(x_top + h, kh, s, p),
             f"output rows {rows} read past the {h} input rows given")

    depth = kh * kw * c
    n_rows = min(ho, block_rows(wo, depth, cout))
    band_rows = (n_rows - 1) * s + kh  # the padded input rows one block reads
    starts = range(0, ho, n_rows)
    workers = min(len(starts), _WORKERS.get())
    gemm_weights = kernel.gemm_weights
    bias = None if kernel.bias is None else kernel.bias.astype(np.float64)
    out = np.empty((ho, wo, cout), dtype=x.dtype)
    out_rows = out.reshape(ho * wo, cout)

    def scratch():
        # a zero-padded band, its (rows, wo, kh, kw, Cin) window view, a patch
        # buffer and an accumulator; made on this thread so that no worker
        # thread allocates (and grows a malloc arena of its own)
        band = np.zeros((band_rows, w + 2 * p, c), dtype=x.dtype)
        b0, b1, b2 = band.strides
        windows = np.ndarray((n_rows, wo, kh, kw, c), band.dtype, band, 0,
                             (s * b0, s * b1, b0, b1, b2))
        return (band, windows, np.empty((n_rows * wo, depth), np.float64),
                np.empty((n_rows * wo, cout), np.float64))

    buffers = [scratch() for _ in range(workers)]

    def work(i):  # blocks starts[i::workers]
        band, windows, patch, acc = buffers[i]
        for r in starts[i::workers]:
            n = min(n_rows, ho - r)
            m = (n - 1) * s + kh
            top = (first + r) * s - p - x_top  # the row of x in band row 0
            a = min(max(-top, 0), m)  # band rows [a, b) hold input rows, the rest are padding
            b = min(max(h - top, a), m)
            band[:a, p:p + w] = 0
            band[a:b, p:p + w] = x[top + a:top + b]
            band[b:m, p:p + w] = 0
            block, block_acc = patch[:n * wo], acc[:n * wo]
            np.copyto(block.reshape(n, wo, kh, kw, c), windows[:n])  # the im2col copy
            np.matmul(block, gemm_weights, out=block_acc)
            if bias is not None:
                block_acc += bias
            block_out = out_rows[r * wo:(r + n) * wo]
            block_out[...] = block_acc
            if act is not None:
                block_out[...] = act(block_out)

    _share_blocks(work, workers)
    return out


def conv_chain(x: np.ndarray, layers: Sequence[tuple[ConvKernel, str]]) -> np.ndarray:
    """conv2d through each (kernel, activation) of layers in turn, streamed
    by rows, so that no layer's output but the last is ever whole. Each
    layer is stride 1 and keeps its input's size.

    The last layer makes its rows one band at a time. A band is as many
    rows as the largest GEMM block of any layer, so each band call runs
    whole blocks. Each earlier layer writes its rows into a line buffer
    that holds only the rows the next layer's band reads: the kh - 1 rows
    that two bands share shift to the top of the buffer once per band, and
    a conv2d call with an output-row range makes the rest.

    With n block workers and more than one band, each worker streams its
    own 1/n of the rows through its own line buffers, its convs serial, so
    no thread starts per band; the rows that two workers' first bands read
    across a seam are made by both. Every call makes its rows as the whole
    layer would, so the bytes are those of conv2d run layer by layer on
    whole maps.
    """
    x = _check_feature_map(x)
    h, w, _ = x.shape
    band = 1
    for kernel, _ in layers:
        cout, cin, kh, kw = kernel.weights.shape
        _require(kernel.stride == 1 and kh == kw == 2 * kernel.padding + 1,
                 "a conv chain layer must be stride 1 and keep its input's size")
        band = max(band, min(h, block_rows(w, kh * kw * cin, cout)))
    *inner, (last, last_activation) = layers
    pads = [kernel.padding for kernel, _ in layers]
    # ahead[j]: how far below a band's last row layer j's rows must reach
    ahead = [sum(pads[j + 1:]) for j in range(len(inner))]
    segments = min(_WORKERS.get(), -(-h // band))
    out = np.empty((h, w, last.weights.shape[0]), x.dtype)

    def stream(first, stop):  # the last layer's rows [first, stop)
        buffers = [np.empty((min(h, band + 2 * a), w, kernel.weights.shape[0]), x.dtype)
                   for (kernel, _), a in zip(inner, ahead)]
        tops = [max(0, first - a) for a in ahead]  # the layer row in each buffer's row 0
        done = list(tops)  # the layer rows made so far
        for r0 in range(first, stop, band):
            r1 = min(stop, r0 + band)
            source = x[max(0, (done[0] if inner else r0) - pads[0]):]
            for j, (kernel, activation) in enumerate(inner):
                buffer, end = buffers[j], min(h, r1 + ahead[j])
                keep = max(0, (done[j + 1] if j + 1 < len(inner) else r0) - pads[j + 1])
                buffer[:done[j] - keep] = buffer[keep - tops[j]:done[j] - tops[j]]
                tops[j] = keep
                if end > done[j]:
                    buffer[done[j] - keep:end - keep] = conv2d(
                        source, kernel, activation=activation, rows=(done[j], end))
                    done[j] = end
                source = buffer[:end - keep]
            out[r0:r1] = conv2d(source, last, activation=last_activation, rows=(r0, r1))

    def work(i):  # worker i's rows, its convs serial
        token = _WORKERS.set(1)
        try:
            stream(h * i // segments, h * (i + 1) // segments)
        finally:
            _WORKERS.reset(token)

    if segments == 1:
        stream(0, h)
    else:
        _share_blocks(work, segments)
    return out


def transposed_conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size - 1) * stride + kernel - 2 * padding


def transposed_conv2d(y: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Adjoint of conv2d: y (H, W, Cout) -> (H_out, W_out, Cin); bias is ignored.

    H_out = (H - 1) * s + k - 2p.  For every x, y and bias-free kernel K,
    <conv2d(x, K), y> == <x, transposed_conv2d(y, K)>, so it is also the
    input gradient d/dx of sum(y * conv2d(x, K)) that `gradcheck` checks.
    """
    y = _check_feature_map(y)
    h, w, c = y.shape
    cout, cin, kh, kw = kernel.weights.shape
    _require(c == cout, f"input has {c} channels, kernel produces {cout}")
    s, p = kernel.stride, kernel.padding
    ho = transposed_conv_output_size(h, kh, s, p)
    wo = transposed_conv_output_size(w, kw, s, p)
    _require(ho >= 1 and wo >= 1,
             f"non-positive transposed conv output size {ho}x{wo}")

    full_h = (h - 1) * s + kh
    full_w = (w - 1) * s + kw
    y64 = y.reshape(h * w, c).astype(np.float64)
    w64 = kernel.weights.astype(np.float64)
    full = np.zeros((full_h, full_w, cin), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            contrib = y64 @ w64[:, :, ki, kj]
            full[ki:ki + (h - 1) * s + 1:s, kj:kj + (w - 1) * s + 1:s, :] += \
                contrib.reshape(h, w, cin)
    out = full[p:full_h - p, p:full_w - p, :]
    return out.astype(y.dtype)


# -- activations --------------------------------------------------------------

def relu(x):
    return np.maximum(x, 0)


def elu(x):
    # alpha = 1
    x = np.asarray(x)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _softplus(x, power: Callable, ln_base: float):
    """log_b(1 + b^x), with power(x) = b^x and ln_base = ln b, and asymptotic
    branches beyond |x| = 30; a division by ln_base = 1.0 changes no bit."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    mid = np.log1p(power(np.clip(x, -SOFTPLUS_CUTOFF, SOFTPLUS_CUTOFF))) / ln_base
    return np.where(x > SOFTPLUS_CUTOFF, x,
                    np.where(x < -SOFTPLUS_CUTOFF, power(np.minimum(x, 0.0)) / ln_base, mid))


def softplus(x):
    """ln(1 + e^x) with asymptotic branches beyond |x| = 30."""
    return _softplus(x, np.exp, 1.0)


def softplus2(x):
    """log2(1 + 2^x) with asymptotic branches beyond |x| = 30."""
    return _softplus(x, np.exp2, _LN2)


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
    ex = np.exp(np.minimum(x, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0, pos, neg)


Elementwise = Callable[[np.ndarray], np.ndarray]

# kind -> (function, float64 derivative)
ACTIVATIONS: dict[str, tuple[Elementwise, Elementwise]] = {
    "softplus": (softplus, _sigmoid),
    "softplus2": (softplus2, lambda x: _sigmoid(np.asarray(x, np.float64) * _LN2)),
    "elu": (elu, lambda x: np.where(np.asarray(x) > 0, 1.0,
                                    np.exp(np.minimum(np.asarray(x, np.float64), 0.0)))),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(np.asarray(x, np.float64)) ** 2),
    "relu": (relu, lambda x: (np.asarray(x) > 0).astype(np.float64)),
    "identity": (lambda x: x, lambda x: np.ones_like(np.asarray(x, np.float64))),
}


def _activation(kind: str) -> tuple[Elementwise, Elementwise]:
    _require(kind in ACTIVATIONS, f"unknown activation {kind!r}")
    return ACTIVATIONS[kind]


def apply_activation(x: np.ndarray, kind: str) -> np.ndarray:
    act, _ = _activation(kind)
    x = np.asarray(x)
    return np.asarray(act(x), dtype=x.dtype)


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


def l2_normalize_locations(x: np.ndarray) -> np.ndarray:
    """Scale each location's channel vector to unit Euclidean norm; zero vectors pass through."""
    x = _check_feature_map(x)
    x64 = x.astype(np.float64)
    norm = np.sqrt((x64 * x64).sum(axis=2, keepdims=True))
    return np.where(norm > 0, x64 / np.where(norm > 0, norm, 1.0), x64).astype(x.dtype)


# -- analytic input gradients (verification only, no training graph) ----------

def activation_input_grad(x: np.ndarray, kind: str, upstream: np.ndarray) -> np.ndarray:
    _, derivative = _activation(kind)
    return derivative(x) * np.asarray(upstream, dtype=np.float64)


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
