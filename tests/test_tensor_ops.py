import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import tensor_ops as T
from atarisal.errors import ConfigurationError

from conftest import count_shared_runs, fake_blas
from oracles import naive_conv2d

seeds = st.integers(0, 2**32 - 1)


def random_kernel(rng, cin, cout, k, stride=1, padding=0, bias=True):
    return T.ConvKernel(rng.standard_normal((cout, cin, k, k)).astype(np.float32),
                        rng.standard_normal(cout).astype(np.float32) if bias else None,
                        stride, padding)


# -- conv2d ---------------------------------------------------------------------

def test_sparse_block_shape_chain():
    rng = np.random.default_rng(0)
    x = rng.random((84, 84, 4)).astype(np.float32)
    x = T.conv2d(x, random_kernel(rng, 4, 32, 8, stride=4))
    assert x.shape == (20, 20, 32)
    x = T.conv2d(x, random_kernel(rng, 32, 64, 4, stride=2))
    assert x.shape == (9, 9, 64)
    x = T.conv2d(x, random_kernel(rng, 64, 64, 3, stride=1))
    assert x.shape == (7, 7, 64)


@pytest.mark.parametrize("k,p", [(7, 3), (5, 2), (3, 1)])
def test_dense_layers_preserve_shape(k, p):
    rng = np.random.default_rng(1)
    x = rng.random((84, 84, 4)).astype(np.float32)
    out = T.conv2d(x, random_kernel(rng, 4, 8, k, stride=1, padding=p))
    assert out.shape == (84, 84, 8)


def test_1x1_conv_is_affine():
    kern = T.ConvKernel(np.full((1, 1, 1, 1), 2.5, np.float32), np.array([-1.0], np.float32))
    out = T.conv2d(np.full((1, 1, 1), 3.0, np.float32), kern)
    assert out[0, 0, 0] == pytest.approx(2.5 * 3.0 - 1.0)


@pytest.mark.parametrize("seed,h,w,cin,cout,k,s,p", [
    (0, 6, 6, 1, 1, 3, 1, 0),
    (1, 8, 8, 2, 3, 3, 2, 1),
    (2, 16, 16, 4, 2, 5, 1, 2),
    (3, 10, 7, 3, 4, 4, 3, 0),
    (4, 16, 16, 4, 4, 8, 4, 0),
    # Under the 4 KiB cap below: 11 blocks of 2 rows, the last one short
    (5, 21, 12, 2, 3, 3, 1, 1),
    # 6 strided blocks of 2 rows, the last one short
    (6, 23, 15, 3, 2, 3, 2, 0),
    # one output row (40 x 72 float64 patches) is larger than the cap
    (7, 9, 40, 8, 2, 3, 1, 1),
])
def test_conv2d_matches_naive_oracle(monkeypatch, seed, h, w, cin, cout, k, s, p):
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", 4096)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, w, cin)).astype(np.float32)
    kern = random_kernel(rng, cin, cout, k, stride=s, padding=p)
    got = T.conv2d(x, kern)
    want = naive_conv2d(x.astype(np.float64), kern.weights, kern.bias, s, p)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@given(seed=seeds, h=st.integers(3, 9), cin=st.integers(1, 3), cout=st.integers(1, 3),
       k=st.integers(1, 3), s=st.integers(1, 2), p=st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_conv2d_oracle_property(seed, h, cin, cout, k, s, p):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, h, cin)).astype(np.float32)
    kern = random_kernel(rng, cin, cout, k, stride=s, padding=p)
    want = naive_conv2d(x.astype(np.float64), kern.weights, kern.bias, s, p)
    np.testing.assert_allclose(T.conv2d(x, kern), want, rtol=1e-5, atol=1e-5)


@given(seed=seeds, h=st.integers(1, 12), cin=st.integers(1, 3), cout=st.integers(1, 3),
       k=st.integers(1, 4), s=st.integers(1, 3), p=st.integers(0, 2), data=st.data())
@settings(max_examples=40, deadline=None)
def test_conv2d_output_rows_are_those_of_the_whole_output(seed, h, cin, cout, k, s, p, data):
    # rows=(first, stop) reads x from the first input row those output rows
    # read; x may stop at the last row they read, or run on to the end
    if h + 2 * p < k:
        p = k
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, h, cin)).astype(np.float32)
    kern = random_kernel(rng, cin, cout, k, stride=s, padding=p)
    whole = T.conv2d(x, kern, activation="softplus")
    first = data.draw(st.integers(0, whole.shape[0] - 1))
    stop = data.draw(st.integers(first + 1, whole.shape[0]))
    top = max(0, first * s - p)
    end = data.draw(st.sampled_from([min(h, (stop - 1) * s - p + k), h]))
    if (stop - 1) * s - p >= end:  # the last rows read only padding: x must reach the end
        end = h
    got = T.conv2d(x[top:end], kern, activation="softplus", rows=(first, stop))
    assert got.tobytes() == whole[first:stop].tobytes()


@pytest.mark.parametrize("rows,given", [((2, 2), 8), ((-1, 2), 8), ((0, 8), 3)],
                         ids=["empty", "negative", "past-the-rows-given"])
def test_conv2d_rejects_bad_output_rows(rows, given):
    rng = np.random.default_rng(0)
    x = rng.random((8, 8, 1)).astype(np.float32)
    with pytest.raises(ConfigurationError, match="output rows"):
        T.conv2d(x[:given], random_kernel(rng, 1, 1, 3, padding=1), rows=rows)


def test_block_rows_bound_the_patch_and_the_accumulator():
    # each of a block's float64 patch rows and accumulator rows fits the cap:
    # the dense attention convs, and rs's 64 -> 512 1x1 conv, whose
    # accumulator, not its patch, sets 3 rows
    assert T.block_rows(84, 3 * 3 * 64, 256) == 2
    assert T.block_rows(84, 3 * 3 * 256, 1) == 1
    assert T.block_rows(84, 64, 512) == 3
    assert T.block_rows(84, 512, 2) == 3


def test_conv_chain_rejects_a_layer_that_changes_the_map_size():
    rng = np.random.default_rng(0)
    x = rng.random((8, 8, 2)).astype(np.float32)
    for kern in (random_kernel(rng, 2, 2, 3), random_kernel(rng, 2, 2, 1, stride=2)):
        with pytest.raises(ConfigurationError, match="keep its input's size"):
            T.conv_chain(x, [(kern, "relu"), (random_kernel(rng, 2, 1, 1), "identity")])


def test_conv_chain_bytes_do_not_depend_on_the_workers(monkeypatch):
    # 5 workers each stream their share of a 41-row map in 2-row bands into
    # one output, switching often; every seam's shared rows are made twice
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", 30 * 36 * 8 * 2)
    rng = np.random.default_rng(6)
    x = rng.random((41, 30, 4)).astype(np.float32)
    layers = [(random_kernel(rng, 4, 16, 3, padding=1), "relu"),
              (random_kernel(rng, 16, 2, 3, padding=1), "softplus")]
    serial = T.conv_chain(x, layers)
    runs = count_shared_runs(monkeypatch)
    fake_blas(monkeypatch, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with T.block_threads():
            pooled = T.conv_chain(x, layers)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [5]
    assert pooled.tobytes() == serial.tobytes()


def test_conv_chain_workers_run_under_the_callers_errstate(monkeypatch):
    # one-row bands on 2 workers, whose second half overflows float32: the
    # second worker streams those rows under the caller's errstate and hands
    # its error to the caller once it has ended
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", 64)
    x = np.ones((8, 4, 2), np.float32)
    x[4:] = 1e30
    layers = [(T.ConvKernel(np.full((2, 2, 1, 1), 1e30, np.float32)), "identity"),
              (T.ConvKernel(np.ones((1, 2, 1, 1), np.float32)), "identity")]
    runs = count_shared_runs(monkeypatch)
    fake_blas(monkeypatch, 2)
    before = set(threading.enumerate())
    with T.block_threads():
        with np.errstate(over="ignore"):
            out = T.conv_chain(x, layers)
        with pytest.raises(RuntimeWarning, match="overflow"):
            T.conv_chain(x, layers)
    assert set(threading.enumerate()) == before
    assert runs == [2, 2]
    assert np.isinf(out[4:]).all() and np.isfinite(out[:4]).all()


def test_conv2d_channel_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        T.conv2d(rng.random((8, 8, 3)).astype(np.float32), random_kernel(rng, 2, 1, 3))


def test_conv2d_output_too_small():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        T.conv2d(rng.random((2, 2, 1)).astype(np.float32), random_kernel(rng, 1, 1, 5))


@pytest.mark.parametrize("workers", [2, 5])
@pytest.mark.parametrize("shape,cout,k,s,p,block_bytes,blocks", [
    # the dense attention conv: 42 blocks of 2 rows
    ((84, 84, 64), 256, 3, 1, 1, T.PATCH_BLOCK_BYTES, 42),
    # 7 strided blocks of 3 rows, the last of 2
    ((41, 30, 3), 4, 4, 2, 1, 20000, 7),
], ids=["dense-attention", "stride-2"])
def test_conv2d_bytes_do_not_depend_on_the_block_workers(monkeypatch, workers, shape, cout, k,
                                                         s, p, block_bytes, blocks):
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(9)
    x = rng.random(shape).astype(np.float32)
    kern = random_kernel(rng, shape[2], cout, k, stride=s, padding=p)
    serial = T.conv2d(x, kern)
    runs = count_shared_runs(monkeypatch)
    fake_blas(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        with T.block_threads():
            pooled = T.conv2d(x, kern)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [min(workers, blocks)]
    assert pooled.tobytes() == serial.tobytes()


def test_pooled_blocks_run_under_the_callers_errstate(monkeypatch):
    # a 1x1 conv in one-row blocks whose odd rows overflow float32: those are
    # the second worker's, which follows the caller's errstate and hands its
    # error to the caller once it has ended; later layers still share blocks
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", 64)
    x = np.ones((6, 4, 2), np.float32)
    x[1::2] = 1e30
    kern = T.ConvKernel(np.full((1, 2, 1, 1), 1e30, np.float32))
    runs = count_shared_runs(monkeypatch)
    fake_blas(monkeypatch, 2)
    before = set(threading.enumerate())
    with T.block_threads():
        with np.errstate(over="ignore"):
            out = T.conv2d(x, kern)
        with pytest.raises(RuntimeWarning, match="overflow"):  # the suite makes warnings errors
            T.conv2d(x, kern)
        assert set(threading.enumerate()) == before
        assert T.conv2d(x[::2], kern).tobytes() == out[::2].tobytes()
    assert runs == [2, 2, 2]
    assert np.isinf(out[1::2]).all() and np.isfinite(out[::2]).all()


def test_a_block_thread_that_cannot_start_is_raised_after_the_others_end(monkeypatch):
    # of three workers the third thread fails to start: the second, already
    # running and slow, is joined before the error reaches the caller
    class Thread(threading.Thread):
        def start(self):
            if self.name == "conv2d-block-2":
                raise RuntimeError("can't start new thread")
            super().start()

        def run(self):
            time.sleep(0.05)
            super().run()

    monkeypatch.setattr(T.threading, "Thread", Thread)
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", 64)
    x = np.ones((6, 4, 2), np.float32)
    kern = T.ConvKernel(np.ones((1, 2, 1, 1), np.float32))
    fake_blas(monkeypatch, 3)
    before = set(threading.enumerate())
    with T.block_threads(), pytest.raises(RuntimeError, match="can't start"):
        T.conv2d(x, kern)
    assert set(threading.enumerate()) == before


def test_pooled_conv2d_holds_no_buffer_once_it_returns(monkeypatch):
    # once conv2d returns, no block thread or closure keeps the layer's patch
    # buffers and accumulators (11 MB here) alive
    rng = np.random.default_rng(4)
    x = rng.random((84, 84, 64)).astype(np.float32)
    kern = random_kernel(rng, 64, 256, 3, padding=1)
    kern.gemm_weights  # cached before the count starts
    fake_blas(monkeypatch, 2)
    with T.block_threads():
        tracemalloc.start()
        try:
            out = T.conv2d(x, kern)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert held < out.nbytes + 2**20


@pytest.mark.parametrize("weights,bias,stride,padding", [
    (np.ones((1, 3, 3), np.float32), None, 1, 0),
    (np.ones((2, 1, 0, 3), np.float32), None, 1, 0),
    (np.ones((2, 1, 3, 3), np.float32), np.zeros(3, np.float32), 1, 0),
    (np.ones((2, 1, 3, 3), np.float32), None, 0, 0),
    (np.ones((2, 1, 3, 3), np.float32), None, 1, -1),
], ids=["3-d", "zero-dim", "bias-length", "stride-0", "padding-negative"])
def test_conv_kernel_rejects_bad_geometry(weights, bias, stride, padding):
    with pytest.raises(ConfigurationError):
        T.ConvKernel(weights, bias, stride, padding)


def test_integer_inputs_stay_exact():
    # float32 storage with float64 accumulation: small-integer fixtures come
    # out as exact integers
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(9, 9, 2)).astype(np.float32)
    kern = T.ConvKernel(rng.integers(-3, 4, size=(2, 2, 3, 3)).astype(np.float32))
    out = T.conv2d(x, kern)
    assert np.array_equal(out, np.round(out))


# -- transposed conv --------------------------------------------------------------

def test_transposed_output_sizes():
    a = np.ones((7, 7, 1), np.float32)
    sparse = T.ConvKernel(np.ones((1, 1, 36, 36), np.float32), stride=8)
    assert T.transposed_conv2d(a, sparse).shape == (84, 84, 1)
    b = np.ones((84, 84, 1), np.float32)
    dense = T.ConvKernel(np.ones((1, 1, 13, 13), np.float32), padding=6)
    assert T.transposed_conv2d(b, dense).shape == (84, 84, 1)


def test_transposed_one_hot_paints_rectangle():
    a = np.zeros((7, 7, 1), np.float32)
    a[2, 4, 0] = 1.0
    kernel = T.ConvKernel(np.ones((1, 1, 36, 36), np.float32), stride=8)
    out = T.transposed_conv2d(a, kernel)[:, :, 0]
    want = np.zeros((84, 84))
    want[16:52, 32:68] = 1.0
    assert np.array_equal(out, want)


@given(seed=seeds, n=st.integers(2, 6), cin=st.integers(1, 3), cout=st.integers(1, 2),
       k=st.integers(1, 4), s=st.integers(1, 3), p=st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_adjoint_identity(seed, n, cin, cout, k, s, p):
    # <conv(x), y> == <x, transposed(y)> defines the transposed conv. Pick the
    # input size from the transposed direction so the stride covers it exactly.
    if k - 2 * p < 1:
        p = 0
    h = (n - 1) * s + k - 2 * p
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, h, cin)).astype(np.float32)
    kern = random_kernel(rng, cin, cout, k, stride=s, padding=p, bias=False)
    y = rng.standard_normal((n, n, cout)).astype(np.float32)
    conv_out = T.conv2d(x, kern)
    assert conv_out.shape == (n, n, cout)
    lhs = float(np.sum(conv_out.astype(np.float64) * y))
    rhs = float(np.sum(x.astype(np.float64) * T.transposed_conv2d(y, kern)))
    assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-4)


# -- activations -------------------------------------------------------------------

def test_softplus_values():
    assert T.softplus(np.float32(0.0)) == pytest.approx(math.log(2), abs=1e-7)
    assert T.softplus2(np.float32(0.0)) == pytest.approx(1.0, abs=1e-7)
    assert T.relu(np.float32(-3.5)) == 0.0
    assert T.relu(np.float32(2.25)) == 2.25


def test_softplus_overflow_branches():
    x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0], np.float64)
    out = T.softplus(x)
    assert np.isfinite(out).all()
    assert out[3] == 40.0 and out[4] == 1000.0
    assert out[1] == pytest.approx(math.exp(-40.0), rel=1e-6)
    assert out[0] >= 0.0
    out2 = T.softplus2(x)
    assert np.isfinite(out2).all()
    assert out2[3] == 40.0 and out2[4] == 1000.0


@given(st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_softplus2_base_change(x):
    want = T.softplus(np.float64(x * math.log(2))) / math.log(2)
    assert abs(float(T.softplus2(np.float64(x))) - float(want)) < 1e-6


def test_elu_matches_definition():
    x = np.array([-2.0, -0.5, 0.0, 1.5], np.float64)
    out = T.elu(x)
    np.testing.assert_allclose(out[:2], np.expm1(x[:2]), rtol=1e-12)
    assert out[2] == 0.0 and out[3] == 1.5


def test_unknown_activation_rejected():
    with pytest.raises(ConfigurationError):
        T.apply_activation(np.zeros((1, 1, 1), np.float32), "swish")
    with pytest.raises(ConfigurationError, match="swish"):  # before any block runs
        T.conv2d(np.zeros((1, 1, 1), np.float32), T.ConvKernel(np.ones((1, 1, 1, 1), np.float32)),
                 activation="swish")


# -- softmax / pooling ------------------------------------------------------------

def test_spatial_softmax_constant_channel():
    out = T.spatial_softmax(np.full((5, 4, 2), 3.0, np.float32))
    np.testing.assert_allclose(out, 1.0 / 20.0, rtol=1e-6)


def test_spatial_softmax_two_cell_example():
    x = np.array([[0.0, math.log(3)]], np.float64).reshape(1, 2, 1)
    out = T.spatial_softmax(x)[:, :, 0]
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-9)


@given(seed=seeds, c=st.integers(1, 4), shift=st.floats(-50, 50))
@settings(max_examples=30, deadline=None)
def test_spatial_softmax_sums_and_shift_invariance(seed, c, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 5, c))
    out = T.spatial_softmax(x)
    np.testing.assert_allclose(out.sum(axis=(0, 1)), 1.0, atol=1e-6)
    np.testing.assert_allclose(T.spatial_softmax(x + shift), out, atol=1e-9)


def test_sum_pool_channels():
    x = np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 3)
    assert T.sum_pool_channels(x)[0, 0, 0] == 6.0
    soft = T.spatial_softmax(np.random.default_rng(0).standard_normal((7, 7, 2)))
    assert T.sum_pool_channels(soft).sum() == pytest.approx(2.0, abs=1e-6)
    zeros = np.zeros((3, 3, 4), np.float32)
    assert np.array_equal(T.sum_pool_channels(zeros), np.zeros((3, 3, 1), np.float32))


def test_l2_normalize_locations():
    x = np.zeros((1, 2, 2), np.float32)
    x[0, 0] = [3.0, 4.0]           # -> [0.6, 0.8]
    out = T.l2_normalize_locations(x)
    np.testing.assert_allclose(out[0, 0], [0.6, 0.8], rtol=1e-6)
    assert np.array_equal(out[0, 1], [0.0, 0.0])  # zero vector passes through


@given(seed=seeds)
@settings(max_examples=20, deadline=None)
def test_l2_normalize_unit_norms(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4, 3)) + 0.05
    norms = np.linalg.norm(T.l2_normalize_locations(x), axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


# -- gradient checks ---------------------------------------------------------------

def test_grad_check_conv2d():
    rng = np.random.default_rng(0)
    kern = random_kernel(rng, 2, 3, 3, stride=1, padding=1)
    x = rng.standard_normal((8, 8, 2))
    err = T.grad_check(lambda x: T.conv2d(x, kern),
                       lambda x, u: T.transposed_conv2d(u, kern), x)
    assert err < 1e-4


def test_grad_check_softplus():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 6, 2))
    err = T.grad_check(lambda x: T.softplus(x),
                       lambda x, u: T.activation_input_grad(x, "softplus", u), x)
    assert err < 1e-5


def test_grad_check_spatial_softmax():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 5, 1))
    w = rng.standard_normal((5, 5, 1))  # plain output sum has zero gradient here
    err = T.grad_check(T.spatial_softmax, T.spatial_softmax_input_grad, x, weights=w)
    assert err < 1e-4


def test_grad_check_l2_normalize():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4, 3)) + 0.1
    w = rng.standard_normal((4, 4, 3))
    err = T.grad_check(T.l2_normalize_locations, T.l2_normalize_input_grad, x, weights=w)
    assert err < 1e-4


def test_grad_check_detects_wrong_gradient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4, 1))
    err = T.grad_check(lambda x: T.softplus(x),
                       lambda x, u: 2.0 * T.activation_input_grad(x, "softplus", u), x)
    assert err > 1e-2
