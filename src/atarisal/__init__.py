"""Attention-gated Atari feature extractors with deterministic numpy
inference, receptive-field saliency rendering, and eye-fixation metrics."""

__version__ = "0.1.0"

from .errors import ConfigurationError, DataFormatError, EvaluationError
from .models import Model, ModelConfig, ModelOutput, PRESETS, RFGeometry, build_model, count_params, preset_config
from .saliency import render, render_multi, upscale_to_frame
from .metrics import BlurParams, FrameScore, aggregate, gaussian_blur, kl_divergence, nss, shuffled_auc

__all__ = [
    "ConfigurationError", "DataFormatError", "EvaluationError",
    "Model", "ModelConfig", "ModelOutput", "PRESETS",
    "build_model", "count_params", "preset_config",
    "RFGeometry", "render", "render_multi", "upscale_to_frame",
    "BlurParams", "FrameScore", "aggregate", "gaussian_blur",
    "kl_divergence", "nss", "shuffled_auc",
    "__version__",
]
