import math
from dataclasses import replace

import numpy as np
import pytest

from atarisal import models, weights_io
from atarisal.errors import ConfigurationError, EvaluationError

RNG = np.random.default_rng(42)
OBS = RNG.random((84, 84, 4)).astype(np.float32)


def test_fls_delta_arithmetic():
    # adding the attention module costs exactly its two conv layers
    base = models.count_params(models.preset_config("nature-cnn"))
    fls = models.count_params(models.preset_config("sparse-fls"))
    assert fls - base == (3 * 3 * 64 * 256 + 256) + (3 * 3 * 256 * 1 + 1) == 150_017


def test_linear_readout_cost():
    # 64-dim pooled vector into the 512-wide fc layer
    daqn = models.build_plan(models.preset_config("daqn"))
    shapes = models.param_shapes(daqn)
    assert int(np.prod(shapes["fc.weight"])) + int(np.prod(shapes["fc.bias"])) == 33_280


def test_mousavi_count_from_architecture():
    # hand sum: sparse convs + 64x64 1x1 conv + fc + heads
    sparse_convs = (32 * 4 * 8 * 8 + 32) + (64 * 32 * 4 * 4 + 64) + (64 * 64 * 3 * 3 + 64)
    attn = 64 * 64 + 64
    fc = 512 * 64 + 512
    heads = (4 * 512 + 4) + (512 + 1)
    assert models.count_params(models.preset_config("mousavi")) == sparse_convs + attn + fc + heads


FORWARD_CASES = [
    ("nature-cnn", {}, (7, 7, 64), []),
    ("daqn", {}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("rs-ppo", {}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("dense-fls", {}, (84, 84, 64), [("block", (84, 84, 1))]),
    ("mousavi", {}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {"readout": "sum-pool"}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {"placement": "first-conv"}, (7, 7, 64), [("conv1", (20, 20, 1))]),
    ("sparse-fls", {"placement": "each-conv"}, (7, 7, 64),
     [("conv1", (20, 20, 1)), ("conv2", (9, 9, 1)), ("conv3", (7, 7, 1))]),
    ("sparse-fls", {"softplus2": True}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {"attention": "fls-1x1"}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {"normalize_output": True}, (7, 7, 64), [("block", (7, 7, 1))]),
    ("sparse-fls", {"final_relu": False}, (7, 7, 64), [("block", (7, 7, 1))]),
]


@pytest.mark.parametrize("preset,overrides,feat_shape,attn_shapes", FORWARD_CASES)
def test_shape_propagation_matches_forward(preset, overrides, feat_shape, attn_shapes):
    cfg = models.preset_config(preset, **overrides)
    plan = models.build_plan(cfg)
    model = models.build_model(cfg, 0)
    out = model.forward(OBS)
    assert plan.feature_shape == feat_shape
    assert out.features.shape == feat_shape
    assert [(t, a.shape) for t, a in out.attention_maps] == attn_shapes
    assert out.embedding.shape == (512,)
    assert out.policy_logits.shape == (cfg.num_actions,)
    assert isinstance(out.value, float)


@pytest.mark.parametrize("preset,overrides", [(p, o) for p, o, _, _ in FORWARD_CASES])
def test_count_params_equals_serialized_scalars(tmp_path, preset, overrides):
    cfg = models.preset_config(preset, **overrides)
    model = models.build_model(cfg, 1)
    path = tmp_path / "w.flsw"
    weights_io.save_model(str(path), model)
    loaded = weights_io.load_weights(str(path))
    assert sum(v.size for v in loaded.values()) == models.count_params(cfg)


@pytest.mark.parametrize("preset", ["daqn", "rs-ppo", "mousavi"])
def test_softmax_terminal_attention_sums_to_one(preset):
    model = models.build_model(models.preset_config(preset), 3)
    for _, amap in model.forward(OBS).attention_maps:
        assert float(amap.sum()) == pytest.approx(1.0, abs=1e-6)


def test_fls_attention_non_negative():
    model = models.build_model(models.preset_config("sparse-fls"), 3)
    _, amap = model.forward(OBS).attention_maps[0]
    assert float(amap.min()) > 0.0  # softplus is strictly positive


def test_normalize_output_sums_to_one():
    cfg = models.preset_config("sparse-fls", normalize_output=True)
    model = models.build_model(cfg, 3)
    _, amap = model.forward(OBS).attention_maps[0]
    assert float(amap.sum()) == pytest.approx(1.0, abs=1e-6)


def test_zero_weight_fls_outputs_ln2():
    model = models.zero_model(models.preset_config("sparse-fls"))
    _, amap = model.forward(OBS).attention_maps[0]
    assert np.abs(amap - math.log(2.0)).max() < 1e-7


def test_zero_weight_softplus2_fls_outputs_one():
    model = models.zero_model(models.preset_config("sparse-fls", softplus2=True))
    _, amap = model.forward(OBS).attention_maps[0]
    assert np.abs(amap - 1.0).max() < 1e-7


def test_attention_of_one_is_multiplicative_identity():
    # fls model whose attention map is softplus(b) == 1 with zero conv weights;
    # block/fc/head weights copied into a no-attention twin
    gated = models.build_model(models.preset_config("sparse-fls"), 9)
    b = float(np.log(np.e - 1.0))
    for name in gated.params:
        if name.startswith("attn."):
            gated.params[name] = np.zeros_like(gated.params[name])
    gated.params["attn.conv2.bias"] = np.array([b], np.float32)

    plain = models.build_model(models.preset_config("nature-cnn"), 9)
    for name in plain.params:
        plain.params[name] = gated.params[name]

    amap = gated.forward(OBS).attention_maps[0][1]
    np.testing.assert_allclose(amap, 1.0, atol=1e-6)
    np.testing.assert_allclose(gated.forward(OBS).embedding, plain.forward(OBS).embedding,
                               rtol=1e-4, atol=1e-4)


def test_forward_deterministic():
    model = models.build_model(models.preset_config("daqn"), 5)
    a = model.forward(OBS)
    b = model.forward(OBS)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.policy_logits, b.policy_logits)
    assert a.value == b.value
    assert np.array_equal(a.attention_maps[0][1], b.attention_maps[0][1])


def test_build_model_seed_determinism():
    cfg = models.preset_config("sparse-fls")
    m1, m2 = models.build_model(cfg, 77), models.build_model(cfg, 77)
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
    m3 = models.build_model(cfg, 78)
    assert any(not np.array_equal(m1.params[n], m3.params[n]) for n in m1.params)


def test_init_bounds_and_zero_biases():
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    w = model.params["block.conv1.weight"]
    bound = math.sqrt(6.0 / (4 * 8 * 8))
    assert float(np.abs(w).max()) <= bound
    assert not np.array_equal(w, np.zeros_like(w))
    assert np.array_equal(model.params["block.conv1.bias"],
                          np.zeros_like(model.params["block.conv1.bias"]))


# -- config validation -------------------------------------------------------------

def test_placement_requires_attention():
    with pytest.raises(ConfigurationError):
        models.ModelConfig(attention=None, placement="each-conv")


def test_zero_actions_rejected():
    with pytest.raises(ConfigurationError):
        models.preset_config("nature-cnn", num_actions=0)


def test_softplus2_requires_fls():
    with pytest.raises(ConfigurationError):
        models.preset_config("daqn", softplus2=True)


def test_unknown_preset():
    with pytest.raises(ConfigurationError):
        models.preset_config("alexnet")


def test_unknown_block():
    with pytest.raises(ConfigurationError):
        models.ModelConfig(block="atrous")


# -- forward input validation --------------------------------------------------------

def test_forward_rejects_bad_shape():
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    with pytest.raises(EvaluationError):
        model.forward(np.zeros((84, 84, 3), np.float32))


def test_forward_rejects_out_of_range():
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    with pytest.raises(EvaluationError):
        model.forward(np.full((84, 84, 4), 1.5, np.float32))


def test_forward_rejects_nan_weights():
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    model.params["fc.weight"][0, 0] = np.nan
    with pytest.raises(EvaluationError):
        model.forward(OBS)
