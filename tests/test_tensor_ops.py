import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import tensor_ops as T
from atarisal.errors import ConfigurationError

from oracles import naive_conv2d

seeds = st.integers(0, 2**32 - 1)


def random_kernel(rng, cin, cout, k, stride=1, padding=0, bias=True):
    return T.ConvKernel(k, k, cin, cout, stride, padding,
                        weights=rng.standard_normal((cout, cin, k, k)).astype(np.float32),
                        bias=rng.standard_normal(cout).astype(np.float32) if bias else None)


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
    kern = T.ConvKernel(1, 1, 1, 1, weights=np.full((1, 1, 1, 1), 2.5, np.float32),
                        bias=np.array([-1.0], np.float32))
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


def test_conv2d_channel_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        T.conv2d(rng.random((8, 8, 3)).astype(np.float32), random_kernel(rng, 2, 1, 3))


def test_conv2d_output_too_small():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        T.conv2d(rng.random((2, 2, 1)).astype(np.float32), random_kernel(rng, 1, 1, 5))


def test_integer_inputs_stay_exact():
    # float32 storage with float64 accumulation: small-integer fixtures come
    # out as exact integers
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(9, 9, 2)).astype(np.float32)
    kern = T.ConvKernel(3, 3, 2, 2, 1, 0,
                        weights=rng.integers(-3, 4, size=(2, 2, 3, 3)).astype(np.float32))
    out = T.conv2d(x, kern)
    assert np.array_equal(out, np.round(out))


# -- transposed conv --------------------------------------------------------------

def test_transposed_output_sizes():
    a = np.ones((7, 7, 1), np.float32)
    assert T.transposed_conv2d(a, T.ConvKernel.ones(36, 8, 0)).shape == (84, 84, 1)
    b = np.ones((84, 84, 1), np.float32)
    assert T.transposed_conv2d(b, T.ConvKernel.ones(13, 1, 6)).shape == (84, 84, 1)


def test_transposed_one_hot_paints_rectangle():
    a = np.zeros((7, 7, 1), np.float32)
    a[2, 4, 0] = 1.0
    out = T.transposed_conv2d(a, T.ConvKernel.ones(36, 8, 0))[:, :, 0]
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


# -- softmax / pooling / linear ----------------------------------------------------

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


def test_spatial_sum_pool():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32).reshape(2, 2, 1)
    assert T.spatial_sum_pool(x).tolist() == [10.0]
    # one-hot attention times features selects the feature vector at that cell
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((5, 5, 3)).astype(np.float32)
    attn = np.zeros((5, 5, 1), np.float32)
    attn[3, 1, 0] = 1.0
    np.testing.assert_allclose(T.spatial_sum_pool(feats * attn), feats[3, 1, :], rtol=1e-6)


def test_linear():
    v = np.array([1.0, -2.0, 0.5], np.float32)
    assert np.array_equal(T.linear(v, np.eye(3, dtype=np.float32)), v)
    b = np.array([4.0, -1.0], np.float32)
    out = T.linear(v, np.zeros((2, 3), np.float32), b)
    assert np.array_equal(out, b)
    with pytest.raises(ConfigurationError):
        T.linear(v, np.zeros((2, 4), np.float32))


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
                       lambda x, u: T.conv2d_input_grad(u, kern), x)
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
