"""Catalog of Atari feature extractors with multiplicative attention gates.

The catalog is two tables: BLOCK_LAYERS holds each conv block's layer
specs, and ATTENTION_LAYERS each attention module's layer specs and output
reduction. BLOCK_KINDS, ATTENTION_KINDS (the CLI's choices) and ModelConfig's
softplus2 check all read these tables.

A ModelConfig is compiled into a ModelPlan (layer specs, parameter shapes,
shape trace, render geometry); parameter counting, weight initialization,
serialization order, the forward pass and rendering all read that one plan.
build_plan makes both activation swaps, softplus2 and the identity at each
read point when final_relu is False, so its layer specs are what the forward
runs. Training is out of scope: weights come from build_model's initializer
or a weight file.

The forward runs the block only down to its deepest read point, since no
map reads a layer past it, and runs each attention module's convs as one
row-streamed `tensor_ops.conv_chain`: every ATTENTION_LAYERS kind is stride
1 and keeps its input's size, so only the module's last, small map is ever
whole, and its post step and normalize_output see that map.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from . import tensor_ops as T
from .errors import ConfigurationError, EvaluationError
from .preprocessing import OBS_SIZE as INPUT_SIZE, STACK_DEPTH as INPUT_CHANNELS

PLACEMENTS = ("block", "first-conv", "each-conv")
READOUTS = ("flatten", "sum-pool")
HEADS = {"fc": "readout", "policy": "fc", "value": "fc"}  # dense layer -> the layer it reads


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

# Attention modules: the layer specs of one instance and its output
# reduction. post = "direct": the last conv's activation already is the
# 1-channel map. post = "softmax-mean": per-channel spatial softmax, then
# mean over channels, which keeps the map summing to 1. With softplus2,
# build_plan swaps a final softplus for softplus2. Every layer is stride 1
# and keeps its input's size, as tensor_ops.conv_chain requires.
ATTENTION_LAYERS: dict[str, tuple[tuple[ConvSpec, ...], str]] = {
    "fls": ((ConvSpec(256, 3, 1, 1, "relu"), ConvSpec(1, 3, 1, 1, "softplus")), "direct"),
    "fls-1x1": ((ConvSpec(256, 1, 1, 0, "relu"), ConvSpec(1, 1, 1, 0, "softplus")), "direct"),
    "rs": ((ConvSpec(512, 1, 1, 0, "elu"), ConvSpec(2, 1, 1, 0, "identity")), "softmax-mean"),
    "daqn": ((ConvSpec(256, 1, 1, 0, "tanh"), ConvSpec(1, 1, 1, 0, "identity")), "softmax-mean"),
    "mousavi": ((ConvSpec(64, 1, 1, 0, "tanh"),), "softmax-mean"),
}

BLOCK_KINDS = tuple(BLOCK_LAYERS)
ATTENTION_KINDS = tuple(ATTENTION_LAYERS)


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
    num_actions: int = 4
    fc_width: ClassVar[int] = 512  # every preset's; not a field, so no config sets it

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
        if self.softplus2 and ATTENTION_LAYERS[self.attention][0][-1].activation != "softplus":
            raise ConfigurationError("softplus2 only applies to the fls attention variants")
        if self.num_actions < 1:
            raise ConfigurationError(f"num_actions must be >= 1, got {self.num_actions}")


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


def render_output_size(n: int, geom: RFGeometry) -> int:
    """Side of the input-resolution render of an n x n map through geom."""
    return T.transposed_conv_output_size(n, geom.kernel, geom.stride, geom.padding)


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
    trace: tuple[tuple[str, tuple[int, ...]], ...]  # layer name -> output shape

    @property
    def readout_width(self) -> int:
        return dict(self.trace)["readout"][0]

    @property
    def conv_layers(self) -> tuple[LayerPlan, ...]:
        """Block layers, then each attention module's layers, in parameter order."""
        return self.block_layers + tuple(lp for ap in self.attentions for lp in ap.layers)


def build_plan(config: ModelConfig) -> ModelPlan:
    """Propagate shapes, lay out every parameter tensor, and compose the
    render geometry of each attention read point."""
    specs = BLOCK_LAYERS[config.block]
    n = len(specs)

    if config.attention is None:
        placements = []
    elif config.placement == "block":
        placements = [("block", n, "attn")]
    elif config.placement == "first-conv":
        placements = [("conv1", 1, "attn")]
    else:  # each-conv: one independent instance per block layer
        placements = [(f"conv{i}", i, f"attn{i}") for i in range(1, n + 1)]
    unactivated = set() if config.final_relu else {after for _, after, _ in placements}

    size = INPUT_SIZE + (2 if config.pad_input_1px else 0)
    chans = INPUT_CHANNELS
    trace = [("input", (size, size, chans))]

    block_layers = []
    for i, spec in enumerate(specs, start=1):
        if i in unactivated:  # its attention module and gate read pre-activation values
            spec = replace(spec, activation="identity")
        size = T.conv_output_size(size, spec.kernel, spec.stride, spec.padding)
        name = f"block.conv{i}"
        block_layers.append(LayerPlan(name, spec, chans))
        chans = spec.out_channels
        trace.append((name, (size, size, chans)))

    attentions = []
    for tag, after, prefix in placements:
        _, (h, w, c) = trace[after]  # trace[i] is block layer i's output
        layer_specs, post = ATTENTION_LAYERS[config.attention]
        if config.softplus2:  # ModelConfig allows it only where the last layer is softplus
            layer_specs = layer_specs[:-1] + (replace(layer_specs[-1], activation="softplus2"),)
        layers = []
        in_c = c
        for j, spec in enumerate(layer_specs, start=1):
            layers.append(LayerPlan(f"{prefix}.conv{j}", spec, in_c))
            in_c = spec.out_channels
            trace.append((f"{prefix}.conv{j}", (h, w, in_c)))
        # The 1px input pad some presets use is a border tweak, not a conv
        # layer; it stays out so maps render onto the 84x84 input.
        geometry = compose_layers((lp.spec.kernel, lp.spec.stride, lp.spec.padding)
                                  for lp in block_layers[:after])
        rendered = render_output_size(h, geometry)
        if rendered != INPUT_SIZE:
            raise ConfigurationError(
                f"attention {tag}: its {h}x{h} map renders to {rendered}x{rendered}, not the "
                f"{INPUT_SIZE}x{INPUT_SIZE} input"
                + (" (pad_input_1px widens a shape-preserving block's maps)"
                   if config.pad_input_1px else ""))
        attentions.append(AttentionPlan(tag, after, tuple(layers), post, geometry))

    _, (fh, fw, fc_) = trace[n]
    readout_width = fh * fw * fc_ if config.readout == "flatten" else fc_
    trace.append(("readout", (readout_width,)))
    trace.append(("fc", (config.fc_width,)))
    trace.append(("policy", (config.num_actions,)))
    trace.append(("value", (1,)))

    return ModelPlan(config, tuple(block_layers), tuple(attentions), tuple(trace))


def param_shapes(plan: ModelPlan) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor, in the canonical (serialization) order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for lp in plan.conv_layers:
        shapes[f"{lp.name}.weight"] = (lp.spec.out_channels, lp.in_channels,
                                       lp.spec.kernel, lp.spec.kernel)
        shapes[f"{lp.name}.bias"] = (lp.spec.out_channels,)
    widths = {name: shape[0] for name, shape in plan.trace}
    for head, reads in HEADS.items():
        shapes[f"{head}.weight"] = (widths[head], widths[reads])
        shapes[f"{head}.bias"] = (widths[head],)
    return shapes


def count_params(config: ModelConfig) -> int:
    # exact: np.prod wraps past int64
    return sum(math.prod(s) for s in param_shapes(build_plan(config)).values())


@dataclass
class Model:
    """A plan and its params. forward runs the convs and returns the maps;
    the fc, policy and value params exist for the weight file format and the
    parameter counts, and no forward reads them."""
    plan: ModelPlan
    params: dict[str, np.ndarray]

    @cached_property
    def kernels(self) -> dict[str, T.ConvKernel]:
        """Conv kernels by layer name, built at the first forward or by the
        weight loader once every param is finite: the params' one finite
        check, naming the first bad tensor. A failed check caches nothing; a
        kernel caches its float64 weights at its first conv, and a model
        made by `dataclasses.replace` builds its own."""
        for name, value in self.params.items():
            if not np.isfinite(value).all():
                raise EvaluationError(f"tensor {name!r} contains NaN or Inf")
        return {lp.name: T.ConvKernel(self.params[f"{lp.name}.weight"],
                                      self.params[f"{lp.name}.bias"],
                                      lp.spec.stride, lp.spec.padding)
                for lp in self.plan.conv_layers}

    def _attention_map(self, ap: AttentionPlan, x: np.ndarray) -> np.ndarray:
        a = T.conv_chain(x, [(self.kernels[lp.name], lp.spec.activation) for lp in ap.layers])
        if ap.post == "softmax-mean":
            a = T.spatial_softmax(a)
            c = a.shape[2]
            a = T.sum_pool_channels(a)
            a = (a.astype(np.float64) / c).astype(np.float32)  # exact for c = 1
        if self.plan.config.normalize_output:
            total = float(a.astype(np.float64).sum())
            if total <= 0.0:
                raise EvaluationError("cannot normalize an attention map with non-positive sum")
            a = (a.astype(np.float64) / total).astype(np.float32)
        return a

    def forward(self, obs: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """Evaluate one 84x84x4 observation with values in [0, 1]; return its
        (placement tag, H x W x 1 attention map) pairs in read-point order.
        Block layers past the deepest read point are not run."""
        kernels = self.kernels  # a non-finite weight is reported before a bad observation
        x = np.asarray(obs)
        if x.shape != (INPUT_SIZE, INPUT_SIZE, INPUT_CHANNELS):
            raise EvaluationError(
                f"observation must be {INPUT_SIZE}x{INPUT_SIZE}x{INPUT_CHANNELS}, got {x.shape}")
        x = x.astype(np.float32, copy=False)
        if not np.isfinite(x).all():
            raise EvaluationError("observation contains NaN or Inf")
        if float(x.min()) < 0.0 or float(x.max()) > 1.0:
            raise EvaluationError("observation values must lie in [0, 1]")
        if self.plan.config.pad_input_1px:
            x = np.pad(x, ((1, 1), (1, 1), (0, 0)))

        by_layer = {ap.after_layer: ap for ap in self.plan.attentions}
        deepest = max(by_layer, default=0)  # no map reads a block layer past it
        n = len(self.plan.block_layers)
        maps: list[tuple[str, np.ndarray]] = []
        for i, lp in enumerate(self.plan.block_layers[:deepest], start=1):
            ap = by_layer.get(i)
            x = T.conv2d(x, kernels[lp.name], activation=lp.spec.activation)
            if i == n and self.plan.config.l2_norm_features:
                x = T.l2_normalize_locations(x)
            if ap is not None:
                alpha = self._attention_map(ap, x)
                maps.append((ap.tag, alpha))
                if i < deepest:  # only a later block layer reads the gated map
                    x = x * alpha  # broadcast: one gate value scales all channels

        return maps


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

