"""Catalog of Atari feature extractors with multiplicative attention gates.

A ModelConfig is compiled into a ModelPlan (layer specs, parameter shapes,
shape trace, render geometry); parameter counting, weight initialization,
serialization order, the forward pass and rendering all read that one plan.
Training is out of scope: weights come from build_model's initializer or a
weight file.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import tensor_ops as T
from .errors import ConfigurationError, EvaluationError

INPUT_SIZE = 84
INPUT_CHANNELS = 4

BLOCK_KINDS = ("sparse", "dense")
ATTENTION_KINDS = ("fls", "fls-1x1", "rs", "daqn", "mousavi")
PLACEMENTS = ("block", "first-conv", "each-conv")
READOUTS = ("flatten", "sum-pool")
HEADS = ("fc", "policy", "value")  # dense layers after the readout, in parameter order


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int
    padding: int
    activation: str


# Strided large-kernel block (coarse features) and stride-1 padded block
# (shape-preserving fine features).
BLOCK_LAYERS: dict[str, tuple[ConvSpec, ...]] = {
    "sparse": (ConvSpec(32, 8, 4, 0, "relu"),
               ConvSpec(64, 4, 2, 0, "relu"),
               ConvSpec(64, 3, 1, 0, "relu")),
    "dense": (ConvSpec(32, 7, 1, 3, "relu"),
              ConvSpec(64, 5, 1, 2, "relu"),
              ConvSpec(64, 3, 1, 1, "relu")),
}


@dataclass(frozen=True)
class ModelConfig:
    block: str = "sparse"
    attention: Optional[str] = None
    placement: str = "block"
    readout: str = "flatten"
    pad_input_1px: bool = False
    l2_norm_features: bool = False
    softplus2: bool = False
    normalize_output: bool = False
    final_relu: bool = True
    daqn_width: int = 256
    fc_width: int = 512
    num_actions: int = 4

    def __post_init__(self):
        if self.block not in BLOCK_KINDS:
            raise ConfigurationError(f"unknown block {self.block!r}; choose from {BLOCK_KINDS}")
        if self.attention is not None and self.attention not in ATTENTION_KINDS:
            raise ConfigurationError(f"unknown attention {self.attention!r}; choose from {ATTENTION_KINDS}")
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(f"unknown placement {self.placement!r}; choose from {PLACEMENTS}")
        if self.readout not in READOUTS:
            raise ConfigurationError(f"unknown readout {self.readout!r}; choose from {READOUTS}")
        if self.attention is None:
            if self.placement != "block":
                raise ConfigurationError("attention placement requires an attention module")
            for flag in ("softplus2", "normalize_output"):
                if getattr(self, flag):
                    raise ConfigurationError(f"{flag} requires an attention module")
            if not self.final_relu:
                raise ConfigurationError("final_relu=False requires an attention module")
        if self.softplus2 and self.attention not in ("fls", "fls-1x1"):
            raise ConfigurationError("softplus2 only applies to the fls attention variants")
        if self.num_actions < 1:
            raise ConfigurationError(f"num_actions must be >= 1, got {self.num_actions}")
        if self.fc_width < 1 or self.daqn_width < 1:
            raise ConfigurationError("fc_width and daqn_width must be >= 1")


# Preset table; names double as CLI values.
PRESETS: dict[str, ModelConfig] = {
    "nature-cnn": ModelConfig(block="sparse", attention=None, readout="flatten"),
    "daqn": ModelConfig(block="sparse", attention="daqn", readout="sum-pool"),
    "rs-ppo": ModelConfig(block="sparse", attention="rs", readout="flatten",
                          pad_input_1px=True, l2_norm_features=True),
    "sparse-fls": ModelConfig(block="sparse", attention="fls", readout="flatten"),
    "dense-fls": ModelConfig(block="dense", attention="fls", readout="sum-pool"),
    "mousavi": ModelConfig(block="sparse", attention="mousavi", readout="sum-pool"),
}


def preset_config(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)


def _attention_layers(kind: str, daqn_width: int, softplus2: bool):
    """Layer specs for one attention instance plus its output reduction.

    post = "direct": the last conv's activation already is the 1-channel map.
    post = "softmax-mean": per-channel spatial softmax, then mean over
    channels, which keeps the map summing to 1.
    """
    term = "softplus2" if softplus2 else "softplus"
    if kind == "fls":
        return (ConvSpec(256, 3, 1, 1, "relu"), ConvSpec(1, 3, 1, 1, term)), "direct"
    if kind == "fls-1x1":
        return (ConvSpec(256, 1, 1, 0, "relu"), ConvSpec(1, 1, 1, 0, term)), "direct"
    if kind == "rs":
        return (ConvSpec(512, 1, 1, 0, "elu"), ConvSpec(2, 1, 1, 0, "identity")), "softmax-mean"
    if kind == "daqn":
        return (ConvSpec(daqn_width, 1, 1, 0, "tanh"), ConvSpec(1, 1, 1, 0, "identity")), "softmax-mean"
    if kind == "mousavi":
        return (ConvSpec(64, 1, 1, 0, "tanh"),), "softmax-mean"
    raise ConfigurationError(f"unknown attention {kind!r}")


@dataclass(frozen=True)
class LayerPlan:
    name: str            # full parameter prefix, e.g. "block.conv1" or "attn2.conv1"
    spec: ConvSpec
    in_channels: int


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


@dataclass(frozen=True)
class AttentionPlan:
    tag: str             # read point: "block", "conv1", "conv2", "conv3"
    after_layer: int     # 1-based block layer index the module reads
    layers: tuple[LayerPlan, ...]
    post: str            # "direct" or "softmax-mean"
    geometry: RFGeometry  # receptive field of one map cell on the 84x84 input


@dataclass(frozen=True)
class ModelPlan:
    config: ModelConfig
    block_layers: tuple[LayerPlan, ...]
    attentions: tuple[AttentionPlan, ...]
    feature_shape: tuple[int, int, int]
    readout_width: int
    trace: tuple[tuple[str, tuple[int, ...]], ...]  # layer name -> output shape

    @property
    def conv_layers(self) -> tuple[LayerPlan, ...]:
        """Block layers, then each attention module's layers, in parameter order."""
        return self.block_layers + tuple(lp for ap in self.attentions for lp in ap.layers)


def build_plan(config: ModelConfig) -> ModelPlan:
    """Propagate shapes, lay out every parameter tensor, and compose the
    render geometry of each attention read point."""
    specs = BLOCK_LAYERS[config.block]
    n = len(specs)

    size = INPUT_SIZE + (2 if config.pad_input_1px else 0)
    chans = INPUT_CHANNELS
    trace = [("input", (size, size, chans))]

    block_layers = []
    block_shapes = []
    for i, spec in enumerate(specs, start=1):
        out = T.conv_output_size(size, spec.kernel, spec.stride, spec.padding)
        if out < 1:
            raise ConfigurationError(
                f"block layer {i}: non-positive output size {out} from input {size}")
        name = f"block.conv{i}"
        block_layers.append(LayerPlan(name, spec, chans))
        size, chans = out, spec.out_channels
        block_shapes.append((size, size, chans))
        trace.append((name, (size, size, chans)))

    if config.attention is None:
        placements = []
    elif config.placement == "block":
        placements = [("block", n, "attn")]
    elif config.placement == "first-conv":
        placements = [("conv1", 1, "attn")]
    else:  # each-conv: one independent instance per block layer
        placements = [(f"conv{i}", i, f"attn{i}") for i in range(1, n + 1)]

    attentions = []
    for tag, after, prefix in placements:
        h, w, c = block_shapes[after - 1]
        layer_specs, post = _attention_layers(config.attention, config.daqn_width,
                                              config.softplus2)
        layers = []
        in_c = c
        for j, spec in enumerate(layer_specs, start=1):
            out = T.conv_output_size(h, spec.kernel, spec.stride, spec.padding)
            if out != h:
                raise ConfigurationError(
                    f"attention {tag} layer {j}: expected shape-preserving conv, got {out} from {h}")
            layers.append(LayerPlan(f"{prefix}.conv{j}", spec, in_c))
            in_c = spec.out_channels
            trace.append((f"{prefix}.conv{j}", (h, w, in_c)))
        # The 1px input pad some presets use is a border tweak, not a conv
        # layer; it stays out so maps render onto the 84x84 input.
        geometry = compose_layers((lp.spec.kernel, lp.spec.stride, lp.spec.padding)
                                  for lp in block_layers[:after])
        attentions.append(AttentionPlan(tag, after, tuple(layers), post, geometry))
        trace.append((f"{prefix} [map]", (h, w, 1)))

    fh, fw, fc_ = block_shapes[-1]
    readout_width = fh * fw * fc_ if config.readout == "flatten" else fc_
    trace.append(("readout", (readout_width,)))
    trace.append(("fc", (config.fc_width,)))
    trace.append(("policy", (config.num_actions,)))
    trace.append(("value", (1,)))

    return ModelPlan(config, tuple(block_layers), tuple(attentions),
                     (fh, fw, fc_), readout_width, tuple(trace))


def param_shapes(plan: ModelPlan) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor, in the canonical (serialization) order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for lp in plan.conv_layers:
        shapes[f"{lp.name}.weight"] = (lp.spec.out_channels, lp.in_channels,
                                       lp.spec.kernel, lp.spec.kernel)
        shapes[f"{lp.name}.bias"] = (lp.spec.out_channels,)
    cfg = plan.config
    shapes["fc.weight"] = (cfg.fc_width, plan.readout_width)
    shapes["fc.bias"] = (cfg.fc_width,)
    shapes["policy.weight"] = (cfg.num_actions, cfg.fc_width)
    shapes["policy.bias"] = (cfg.num_actions,)
    shapes["value.weight"] = (1, cfg.fc_width)
    shapes["value.bias"] = (1,)
    return shapes


def count_params(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(build_plan(config)).values())


@dataclass
class ModelOutput:
    features: np.ndarray                       # block output at the final read point, pre-gate
    attention_maps: list[tuple[str, np.ndarray]]  # (placement tag, H x W x 1 map)
    embedding: np.ndarray                      # post-readout, post-fc vector
    policy_logits: np.ndarray
    value: float


@dataclass
class Model:
    plan: ModelPlan
    params: dict[str, np.ndarray]
    _finite: Optional[bool] = field(default=None, repr=False, compare=False)
    # Conv kernels by layer name and float64 (weight, bias) of the dense
    # layers, built at the first forward like _finite: params edited before
    # then count, edits after it do not.
    _kernels: Optional[dict[str, T.ConvKernel]] = field(default=None, repr=False, compare=False)
    _dense: Optional[dict[str, tuple[np.ndarray, np.ndarray]]] = field(
        default=None, repr=False, compare=False)

    @property
    def config(self) -> ModelConfig:
        return self.plan.config

    def _check_weights(self) -> None:
        if self._finite is None:
            self._finite = all(bool(np.isfinite(v).all()) for v in self.params.values())
        if not self._finite:
            raise EvaluationError("model weights contain NaN or Inf")

    def _prepare(self) -> None:
        if self._kernels is not None:
            return
        kernels = {lp.name: T.ConvKernel(lp.spec.kernel, lp.spec.kernel, lp.in_channels,
                                         lp.spec.out_channels, lp.spec.stride, lp.spec.padding,
                                         weights=self.params[f"{lp.name}.weight"],
                                         bias=self.params[f"{lp.name}.bias"])
                   for lp in self.plan.conv_layers}
        self._dense = {name: (self.params[f"{name}.weight"].astype(np.float64),
                              self.params[f"{name}.bias"].astype(np.float64))
                       for name in HEADS}
        self._kernels = kernels

    def _attention_map(self, ap: AttentionPlan, x: np.ndarray) -> np.ndarray:
        a = x
        for lp in ap.layers:
            a = T.conv2d(a, self._kernels[lp.name])
            a = T.apply_activation(a, lp.spec.activation)
        if ap.post == "softmax-mean":
            a = T.spatial_softmax(a)
            c = a.shape[2]
            a = T.sum_pool_channels(a)
            if c > 1:
                a = (a.astype(np.float64) / c).astype(np.float32)
        if self.config.normalize_output:
            total = float(a.astype(np.float64).sum())
            if total <= 0.0:
                raise EvaluationError("cannot normalize an attention map with non-positive sum")
            a = (a.astype(np.float64) / total).astype(np.float32)
        return a

    def forward(self, obs: np.ndarray) -> ModelOutput:
        """Evaluate one 84x84x4 observation with values in [0, 1]."""
        self._check_weights()
        self._prepare()
        cfg = self.config
        x = np.asarray(obs)
        if x.shape != (INPUT_SIZE, INPUT_SIZE, INPUT_CHANNELS):
            raise EvaluationError(
                f"observation must be {INPUT_SIZE}x{INPUT_SIZE}x{INPUT_CHANNELS}, got {x.shape}")
        x = x.astype(np.float32, copy=False)
        if not np.isfinite(x).all():
            raise EvaluationError("observation contains NaN or Inf")
        if float(x.min()) < 0.0 or float(x.max()) > 1.0:
            raise EvaluationError("observation values must lie in [0, 1]")
        if cfg.pad_input_1px:
            x = np.pad(x, ((1, 1), (1, 1), (0, 0)))

        by_layer = {ap.after_layer: ap for ap in self.plan.attentions}
        n = len(self.plan.block_layers)
        maps: list[tuple[str, np.ndarray]] = []
        features = None
        for i, lp in enumerate(self.plan.block_layers, start=1):
            x = T.conv2d(x, self._kernels[lp.name])
            ap = by_layer.get(i)
            # final_relu=False drops the activation right before an attention
            # read point, so the module (and the gate) sees pre-activation values.
            if not (ap is not None and not cfg.final_relu):
                x = T.apply_activation(x, lp.spec.activation)
            if i == n and cfg.l2_norm_features:
                x = T.l2_normalize_locations(x)
            if i == n:
                features = x
            if ap is not None:
                alpha = self._attention_map(ap, x)
                maps.append((ap.tag, alpha))
                x = x * alpha  # broadcast: one gate value scales all channels

        vec = x.reshape(-1) if cfg.readout == "flatten" else T.spatial_sum_pool(x)
        emb = T.relu(T.linear(vec, *self._dense["fc"]))
        logits = T.linear(emb, *self._dense["policy"])
        value = float(T.linear(emb, *self._dense["value"])[0])
        return ModelOutput(features=features, attention_maps=maps, embedding=emb,
                           policy_logits=logits, value=value)


def build_model(config: ModelConfig, rng_seed: int) -> Model:
    """Instantiate a model with uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)) weights
    and zero biases, drawn in canonical parameter order from one seeded generator."""
    plan = build_plan(config)
    rng = np.random.default_rng(rng_seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(plan).items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return Model(plan, params)


def zero_model(config: ModelConfig) -> Model:
    """All parameters zero; mainly for the constant-attention checks."""
    plan = build_plan(config)
    params = {name: np.zeros(shape, dtype=np.float32)
              for name, shape in param_shapes(plan).items()}
    return Model(plan, params)
