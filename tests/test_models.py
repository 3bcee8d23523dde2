import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from atarisal import models, tensor_ops as T, weights_io
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
    maps = models.build_model(cfg, 0).forward(OBS)
    assert dict(plan.trace)[plan.block_layers[-1].name] == feat_shape
    assert [(t, a.shape) for t, a in maps] == attn_shapes


@pytest.mark.parametrize("preset,overrides", [(p, o) for p, o, _, _ in FORWARD_CASES])
def test_count_params_equals_serialized_scalars(tmp_path, preset, overrides):
    cfg = models.preset_config(preset, **overrides)
    model = models.build_model(cfg, 1)
    path = tmp_path / "w.flsw"
    weights_io.save_model(str(path), model)
    # walk the file's own records, as its layout documents them
    raw = path.read_bytes()
    (count,), pos, scalars = struct.unpack_from("<I", raw, 8), 12, 0
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        ndim = raw[pos + 2 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", raw, pos + 3 + name_len)
        size = math.prod(dims)
        scalars += size
        pos += 3 + name_len + 4 * ndim + 4 * size
    assert pos == len(raw)
    assert scalars == models.count_params(cfg)


@pytest.mark.parametrize("preset", ["daqn", "rs-ppo", "mousavi"])
def test_softmax_terminal_attention_sums_to_one(preset):
    model = models.build_model(models.preset_config(preset), 3)
    for _, amap in model.forward(OBS):
        assert float(amap.sum()) == pytest.approx(1.0, abs=1e-6)


def test_fls_attention_non_negative():
    model = models.build_model(models.preset_config("sparse-fls"), 3)
    _, amap = model.forward(OBS)[0]
    assert float(amap.min()) > 0.0  # softplus is strictly positive


def test_normalize_output_sums_to_one():
    cfg = models.preset_config("sparse-fls", normalize_output=True)
    model = models.build_model(cfg, 3)
    _, amap = model.forward(OBS)[0]
    assert float(amap.sum()) == pytest.approx(1.0, abs=1e-6)


def test_zero_weight_fls_outputs_ln2():
    model = models.build_model(models.preset_config("sparse-fls"), 0)
    for value in model.params.values():
        value.fill(0)
    _, amap = model.forward(OBS)[0]
    assert np.abs(amap - math.log(2.0)).max() < 1e-7


def test_zero_weight_softplus2_fls_outputs_one():
    model = models.build_model(models.preset_config("sparse-fls", softplus2=True), 0)
    for value in model.params.values():
        value.fill(0)
    _, amap = model.forward(OBS)[0]
    assert np.abs(amap - 1.0).max() < 1e-7


def test_attention_of_one_is_multiplicative_identity():
    # each-conv fls whose first two modules have zero weights and a conv2 bias
    # of log(e - 1), so each of their gates is softplus(log(e - 1)) == 1.0:
    # the third module then reads the ungated block output, as the block
    # placement's one module does, and its map holds the same bytes
    gated = models.build_model(models.preset_config("sparse-fls", placement="each-conv"), 9)
    for name in gated.params:
        if name.startswith(("attn1.", "attn2.")):
            gated.params[name] = np.zeros_like(gated.params[name])
    for prefix in ("attn1", "attn2"):
        gated.params[f"{prefix}.conv2.bias"] = np.array([np.log(np.e - 1.0)], np.float32)

    block = models.build_model(models.preset_config("sparse-fls"), 0)
    for name in block.params:
        if name.startswith(("block.", "attn.")):
            block.params[name] = gated.params[name.replace("attn.", "attn3.")]

    maps = dict(gated.forward(OBS))
    for tag in ("conv1", "conv2"):
        assert maps[tag].dtype == np.float32 and (maps[tag] == 1.0).all()
    (tag, want), = block.forward(OBS)
    assert tag == "block"
    assert maps["conv3"].dtype == want.dtype and maps["conv3"].tobytes() == want.tobytes()


@pytest.mark.parametrize("block", models.BLOCK_KINDS)
@pytest.mark.parametrize("overrides,ran", [
    ({"attention": "fls", "placement": "first-conv"}, {"block.conv1", "attn.conv1", "attn.conv2"}),
    ({"attention": "fls"}, {"block.conv1", "block.conv2", "block.conv3",
                            "attn.conv1", "attn.conv2"}),
    ({}, set()),
], ids=["first-conv", "block", "no-attention"])
def test_forward_stops_at_the_deepest_read_point(monkeypatch, block, overrides, ran):
    # no map reads a block layer past the last attention module's read
    # point, so a first-conv forward runs block.conv1 and its attention
    # convs only, and a model with no attention module runs no conv
    config = models.ModelConfig(block=block, readout="sum-pool", **overrides)
    model = models.build_model(config, 0)
    names = {id(kernel): name for name, kernel in model.kernels.items()}
    conv2d, seen = T.conv2d, set()

    def recorded(x, kernel, **kwargs):
        seen.add(names[id(kernel)])
        return conv2d(x, kernel, **kwargs)

    monkeypatch.setattr(T, "conv2d", recorded)
    model.forward(OBS)
    assert seen == ran


def test_forward_deterministic():
    model = models.build_model(models.preset_config("daqn"), 5)
    a = model.forward(OBS)
    b = model.forward(OBS)
    assert np.array_equal(a[0][1], b[0][1])


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
    # softplus2 swaps the last layer's softplus, which only the fls kinds end in
    for kind in models.ATTENTION_KINDS:
        if kind in ("fls", "fls-1x1"):
            config = models.ModelConfig(attention=kind, softplus2=True)
            (ap,) = models.build_plan(config).attentions
            assert [lp.spec.activation for lp in ap.layers] == ["relu", "softplus2"]
        else:
            with pytest.raises(ConfigurationError) as e:
                models.ModelConfig(attention=kind, softplus2=True)
            assert str(e.value) == "softplus2 only applies to the fls attention variants"


READ_POINTS = {"block": {3}, "first-conv": {1}, "each-conv": {1, 2, 3}}  # block layers read


@pytest.mark.parametrize("block", models.BLOCK_KINDS)
@pytest.mark.parametrize("placement", models.PLACEMENTS)
def test_no_final_relu_plans_identity_exactly_at_the_read_points(block, placement):
    # build_plan makes the swap, so the forward runs each layer spec as planned
    read_points = READ_POINTS[placement]
    config = models.ModelConfig(block=block, attention="fls", placement=placement)
    relu = models.build_plan(config)
    plan = models.build_plan(replace(config, final_relu=False))
    assert {ap.after_layer for ap in plan.attentions} == read_points
    for i, (lp, kept) in enumerate(zip(plan.block_layers, relu.block_layers), start=1):
        assert lp.spec == replace(kept.spec, activation="identity" if i in read_points else "relu")
    assert plan.attentions == relu.attentions and plan.trace == relu.trace


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_forward_rejects_non_finite_observation(value):
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    obs = OBS.copy()
    obs[3, 5, 1] = value
    with pytest.raises(EvaluationError, match="observation contains NaN or Inf"):
        model.forward(obs)


def test_forward_rejects_nan_weights():
    model = models.build_model(models.preset_config("nature-cnn"), 0)
    model.params["fc.weight"][0, 0] = np.nan
    with pytest.raises(EvaluationError, match=r"^tensor 'fc.weight' contains NaN or Inf$"):
        model.forward(OBS)


def test_replaced_model_runs_its_own_params():
    # a model made by dataclasses.replace builds its own conv kernels, so it
    # runs the params it was given, also after a forward of the original
    cfg = models.preset_config("sparse-fls")
    model, other = models.build_model(cfg, 0), models.build_model(cfg, 1)
    model.forward(OBS)
    out, want = replace(model, params=other.params).forward(OBS), other.forward(OBS)
    assert np.array_equal(out[0][1], want[0][1])


def test_forward_runs_once_a_rejected_weight_is_repaired():
    # a failed weight check caches nothing
    cfg = models.preset_config("sparse-fls")
    model, want = models.build_model(cfg, 0), models.build_model(cfg, 0).forward(OBS)
    weight = model.params["block.conv1.weight"]
    good, weight[0, 0, 0, 0] = weight[0, 0, 0, 0], np.inf
    with pytest.raises(EvaluationError, match="NaN or Inf"):
        model.forward(OBS)
    weight[0, 0, 0, 0] = good
    out = model.forward(OBS)
    assert np.array_equal(out[0][1], want[0][1])
