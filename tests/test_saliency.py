import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import models, saliency as S, tensor_ops as T
from atarisal.errors import ConfigurationError, DataFormatError

from oracles import paint_receptive_fields

GEOMETRIES = [
    (S.RFGeometry(36, 8, 0), 7),    # strided block
    (S.RFGeometry(13, 1, 6), 84),   # stride-1 padded block
    (S.RFGeometry(8, 4, 0), 20),    # first conv layer alone
]

# (geometry, attention side) of every read point of every preset
PRESET_GEOMETRIES = [
    (S.RFGeometry(8, 4, 0), 20), (S.RFGeometry(20, 8, 0), 9), (S.RFGeometry(36, 8, 0), 7),
    (S.RFGeometry(7, 1, 3), 84), (S.RFGeometry(11, 1, 5), 84), (S.RFGeometry(13, 1, 6), 84),
]


def plan_geometry(cfg):
    """Read point tag -> render geometry, as the model's plan holds it."""
    return {ap.tag: ap.geometry for ap in models.build_plan(cfg).attentions}


def test_compose_block_geometries():
    assert models.compose_layers([(8, 4, 0), (4, 2, 0), (3, 1, 0)]) == S.RFGeometry(36, 8, 0)
    assert models.compose_layers([(7, 1, 3), (5, 1, 2), (3, 1, 1)]) == S.RFGeometry(13, 1, 6)
    assert models.compose_layers([(8, 4, 0)]) == S.RFGeometry(8, 4, 0)
    assert models.compose_layers([(8, 4, 0), (4, 2, 0)]) == S.RFGeometry(20, 8, 0)


@pytest.mark.parametrize("preset,tag,geom,n", [
    ("sparse-fls", "block", S.RFGeometry(36, 8, 0), 7),
    ("dense-fls", "block", S.RFGeometry(13, 1, 6), 84),
    ("daqn", "block", S.RFGeometry(36, 8, 0), 7),
    ("rs-ppo", "block", S.RFGeometry(36, 8, 0), 7),
    ("mousavi", "block", S.RFGeometry(36, 8, 0), 7),
])
def test_compose_geometry_per_preset(preset, tag, geom, n):
    cfg = models.preset_config(preset)
    got = plan_geometry(cfg)[tag]
    assert got == geom
    assert S.render_output_size(n, got) == 84


def test_compose_geometry_each_conv():
    cfg = models.preset_config("sparse-fls", placement="each-conv")
    assert plan_geometry(cfg) == {"conv1": S.RFGeometry(8, 4, 0), "conv2": S.RFGeometry(20, 8, 0),
                                  "conv3": S.RFGeometry(36, 8, 0)}


def test_compose_geometry_unknown_placement():
    with pytest.raises(ConfigurationError, match="'block'"):
        S.render_multi([("block", np.zeros((7, 7, 1), np.float32))],
                       models.build_plan(models.preset_config("nature-cnn")))
    with pytest.raises(ConfigurationError, match="'conv2'"):
        S.render_multi([("conv2", np.zeros((9, 9, 1), np.float32))],
                       models.build_plan(models.preset_config("sparse-fls")))


# -- render -------------------------------------------------------------------------

def test_render_one_hot_paints_ones_rectangle():
    a = np.zeros((7, 7), np.float32)
    a[0, 0] = 1.0
    out = S.render(a, S.RFGeometry(36, 8, 0))
    assert out.shape == (84, 84)
    assert np.array_equal(out[:36, :36], np.ones((36, 36), np.float32))
    assert out[36:, :].sum() == 0 and out[:, 36:].sum() == 0


def test_render_uniform_mass_conservation():
    a = np.full((7, 7), 0.5, np.float32)
    out = S.render(a, S.RFGeometry(36, 8, 0))
    assert float(out.astype(np.float64).sum()) == pytest.approx(49 * 36 * 36 * 0.5, rel=1e-6)


def test_render_size_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        S.render(np.zeros((8, 8), np.float32), S.RFGeometry(36, 8, 0))
    with pytest.raises(ConfigurationError):
        S.render(np.zeros((7, 6), np.float32), S.RFGeometry(36, 8, 0))


@pytest.mark.parametrize("geom,n", GEOMETRIES)
def test_render_equals_rectangle_painting_exactly(geom, n):
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.integers(0, 10, size=(n, n)).astype(np.float32)
        got = S.render(a, geom)
        want = paint_receptive_fields(a, geom.kernel, geom.stride, geom.padding, 84)
        assert np.array_equal(got.astype(np.float64), want)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_render_matches_oracle_on_float_maps(seed):
    rng = np.random.default_rng(seed)
    geom, n = GEOMETRIES[seed % 3]
    a = rng.random((n, n)).astype(np.float32)
    want = paint_receptive_fields(a, geom.kernel, geom.stride, geom.padding, 84)
    np.testing.assert_allclose(S.render(a, geom), want, rtol=1e-5, atol=1e-5)


@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
@settings(max_examples=15, deadline=None)
def test_render_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    geom, n = GEOMETRIES[seed % 3]
    a = rng.random((n, n)).astype(np.float64)
    b = rng.random((n, n)).astype(np.float64)
    lhs = S.render(alpha * a + beta * b, geom)
    rhs = alpha * S.render(a, geom) + beta * S.render(b, geom)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


@st.composite
def attention_maps(draw):
    geom, n = draw(st.sampled_from(PRESET_GEOMETRIES))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mixed signs, magnitudes 1e-30..1e30, and some +0.0 and -0.0
    a = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-30, 30, (n, n))
    a[rng.random((n, n)) < 0.1] = 0.0
    a[rng.random((n, n)) < 0.1] = -0.0
    return geom, a.astype(dtype)


@given(case=attention_maps())
@settings(max_examples=60, deadline=None)
def test_render_bytes_equal_transposed_conv_tap_loop(case):
    geom, a = case
    kernel = T.ConvKernel.ones(geom.kernel, geom.stride, geom.padding)
    want = T.transposed_conv2d(a[..., None], kernel)[:, :, 0]
    got = S.render(a, geom)
    assert got.dtype == a.dtype
    assert got.tobytes() == want.tobytes()


# -- render_multi --------------------------------------------------------------------

def test_render_multi_single_equals_render():
    cfg = models.preset_config("sparse-fls")
    a = np.random.default_rng(3).random((7, 7, 1)).astype(np.float32)
    np.testing.assert_array_equal(S.render_multi([("block", a)], models.build_plan(cfg)),
                                  S.render(a, S.RFGeometry(36, 8, 0)))


def test_render_multi_sums_maps():
    cfg = models.preset_config("sparse-fls", placement="each-conv")
    rng = np.random.default_rng(4)
    m1 = rng.random((20, 20, 1)).astype(np.float32)
    m2 = rng.random((9, 9, 1)).astype(np.float32)
    got = S.render_multi([("conv1", m1), ("conv2", m2)], models.build_plan(cfg))
    want = S.render(m1, S.RFGeometry(8, 4, 0)).astype(np.float64) \
        + S.render(m2, S.RFGeometry(20, 8, 0)).astype(np.float64)
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_render_multi_empty_is_zero_map():
    out = S.render_multi([], models.build_plan(models.preset_config("nature-cnn")))
    assert out.shape == (84, 84)
    assert out.sum() == 0.0


@pytest.mark.parametrize("preset,overrides", [
    ("daqn", {}), ("rs-ppo", {}), ("sparse-fls", {}), ("dense-fls", {}), ("mousavi", {}),
    ("sparse-fls", {"placement": "first-conv"}),
    ("sparse-fls", {"placement": "each-conv"}),
])
def test_model_attention_renders_to_input_size(preset, overrides):
    cfg = models.preset_config(preset, **overrides)
    model = models.build_model(cfg, 0)
    obs = np.random.default_rng(1).random((84, 84, 4)).astype(np.float32)
    out = model.forward(obs)
    sal = S.render_multi(out.attention_maps, model.plan)
    assert sal.shape == (84, 84)
    assert float(sal.min()) >= 0.0


# -- upscale ------------------------------------------------------------------------

def test_upscale_constant():
    out = S.upscale_to_frame(np.full((84, 84), 2.25, np.float32))
    assert out.shape == (210, 160)
    assert np.array_equal(out, np.full((210, 160), 2.25, np.float32))


def test_upscale_bounded_and_nonnegative():
    rng = np.random.default_rng(5)
    sal = rng.random((84, 84)).astype(np.float32)
    out = S.upscale_to_frame(sal)
    assert out.min() >= 0.0
    assert out.max() <= sal.max() + 1e-6


def test_upscale_one_hot_footprint_is_local():
    sal = np.zeros((84, 84), np.float32)
    sal[10, 20] = 1.0
    out = S.upscale_to_frame(sal)
    rows, cols = np.nonzero(out)
    # source cell 10 maps near row 10*2.5, col 20*160/84
    assert rows.min() >= 10 * 2.5 - 4 and rows.max() <= 10 * 2.5 + 4
    assert cols.min() >= 20 * 160 / 84 - 4 and cols.max() <= 20 * 160 / 84 + 4


def test_upscale_rejects_wrong_shape():
    with pytest.raises(ConfigurationError):
        S.upscale_to_frame(np.zeros((80, 84), np.float32))


# -- export -------------------------------------------------------------------------

def test_raw_export_round_trip(tmp_path):
    sal = np.random.default_rng(6).random((84, 84)).astype(np.float32)
    path = str(tmp_path / "sal.raw")
    S.save_raw_saliency(path, sal)
    with open(path + ".json") as f:
        meta = json.load(f)
    assert meta == {"width": 84, "height": 84}
    assert np.array_equal(S.load_raw_saliency(path), sal)


def test_raw_export_size_check(tmp_path):
    sal = np.zeros((84, 84), np.float32)
    path = str(tmp_path / "sal.raw")
    S.save_raw_saliency(path, sal)
    with open(path, "ab") as f:
        f.write(b"\x00" * 4)
    with pytest.raises(DataFormatError):
        S.load_raw_saliency(path)


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_raw_load_rejects_partial_trailing_value(tmp_path, extra):
    # fewer trailing bytes than one float32 still make the dump the wrong size
    path = str(tmp_path / "sal.raw")
    S.save_raw_saliency(path, np.zeros((84, 84), np.float32))
    with open(path, "ab") as f:
        f.write(b"\x00" * extra)
    with pytest.raises(DataFormatError, match=f"sal.raw: {4 * 84 * 84 + extra} bytes"):
        S.load_raw_saliency(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_load_rejects_non_finite_values(tmp_path, bad):
    sal = np.ones((84, 84), np.float32)
    sal[40, 2] = bad
    path = str(tmp_path / "sal.raw")
    S.save_raw_saliency(path, sal)
    with pytest.raises(DataFormatError, match="sal.raw"):
        S.load_raw_saliency(path)


def test_pgm_export(tmp_path):
    sal = np.zeros((4, 5), np.float32)
    sal[1, 2] = 2.0
    sal[0, 0] = 1.0
    path = str(tmp_path / "sal.pgm")
    S.save_pgm(path, sal)
    with open(path, "rb") as f:
        raw = f.read()
    assert raw.startswith(b"P5\n5 4\n255\n")
    pixels = np.frombuffer(raw[len(b"P5\n5 4\n255\n"):], np.uint8).reshape(4, 5)
    assert pixels[1, 2] == 255 and pixels[0, 0] == 128 and pixels[3, 4] == 0


def test_pgm_constant_map_is_black(tmp_path):
    path = str(tmp_path / "flat.pgm")
    S.save_pgm(path, np.full((3, 3), 7.0, np.float32))
    with open(path, "rb") as f:
        raw = f.read()
    assert set(raw[raw.index(b"255\n") + 4:]) == {0}
