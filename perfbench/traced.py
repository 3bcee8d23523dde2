"""Traced run of one `atarisal` command, for the per-layer split.

    PYTHONPATH=src python3 perfbench/traced.py RESULT.json eval --preset ... --out DIR

Runs `atarisal.cli.main` in this process after wrapping, from this file only,
the public functions each layer module offers to the CLI (and the three
private per-metric kernels that `metrics.score_frame` calls). Every wrapper
keeps its call durations in memory; RESULT.json gets the per-layer metrics
when the command returns. The command writes the same CSVs as an untraced
run, which the caller checks byte for byte.
"""

import functools
import json
import math
import sys
import time

# Spans at the top of the call tree. They do not nest in one another, so their
# sum is the part of the wall time the layers account for; the rest is the
# CLI's own work and the interpreter.
TOP_LEVEL = ("cli.import", "preprocessing.load_frames", "preprocessing.build_observations",
             "preprocessing.load_fixations", "preprocessing.fixation_map",
             "models.build_model", "weights_io.load", "models.forward", "saliency.render",
             "saliency.upscale", "saliency.save", "saliency.load",
             "metrics.nss", "metrics.kl", "metrics.sauc")

# Conv layers of the sparse-fls and dense-fls plans; a layer that a workload
# does not run reads 0.
CONV_LAYERS = ("block.conv1", "block.conv2", "block.conv3", "attn.conv1", "attn.conv2")


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sized(items):
    """len() of a sized argument; 0 for an iterator, which must not be consumed here."""
    return len(items) if hasattr(items, "__len__") else 0


def kernel_counts(plan):
    """(GFLOP, MB moved) per conv layer and for fc, computed from ModelPlan
    shapes: 2 flops per multiply-add, and each float32 input, weight, bias and
    output tensor read or written once."""
    shapes = dict(plan.trace)
    counts = {}

    def conv(lp, h, w):
        k, cin, cout = lp.spec.kernel, lp.in_channels, lp.spec.out_channels
        ho, wo, _ = shapes[lp.name]
        elems = h * w * cin + cout * cin * k * k + cout + ho * wo * cout
        counts[lp.name] = (2 * ho * wo * cout * cin * k * k / 1e9, 4 * elems / 1e6)

    h, w, _ = shapes["input"]
    for lp in plan.block_layers:
        conv(lp, h, w)
        h, w, _ = shapes[lp.name]
    for ap in plan.attentions:
        h, w, _ = shapes[plan.block_layers[ap.after_layer - 1].name]
        for lp in ap.layers:  # attention convs preserve the spatial size
            conv(lp, h, w)
    n_in, n_out = plan.readout_width, plan.config.fc_width
    counts["fc"] = (2 * n_in * n_out / 1e9, 4 * (n_in + n_in * n_out + 2 * n_out) / 1e6)
    return counts


class Tracer:
    def __init__(self):
        self.spans = {}    # span name -> list of durations in seconds
        self.counts = {}   # counter name -> list of observed values
        self.conv_names = {}    # (weight shape, stride, padding) -> layer name
        self.linear_names = {}  # weight shape -> layer name
        self.kernels = {}

    def record(self, name, seconds):
        self.spans.setdefault(name, []).append(seconds)

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    def wrap(self, owner, attr, name, before=None):
        """Replace owner.attr by a timed wrapper; `before(*args)` runs outside
        the timed span and may record counters. Absent attributes are skipped."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name(*args) if callable(name) else name, time.perf_counter() - t)

        setattr(owner, attr, timed)

    def learn_plan(self, plan, param_shapes):
        """Name conv and linear calls by their weight shapes in this plan."""
        if self.kernels:
            return
        self.kernels = kernel_counts(plan)
        shapes = param_shapes(plan)
        layers = list(plan.block_layers) + [lp for ap in plan.attentions for lp in ap.layers]
        for lp in layers:
            key = ((lp.spec.out_channels, lp.in_channels, lp.spec.kernel, lp.spec.kernel),
                   lp.spec.stride, lp.spec.padding)
            # two layers with one geometry cannot be told apart by shape
            self.conv_names[key] = "other" if key in self.conv_names else lp.name
        for layer in ("fc", "policy", "value"):
            self.linear_names[shapes[f"{layer}.weight"]] = layer

    def install(self, M, models, P, S, T, W):
        self.wrap(P, "load_frames", "preprocessing.load_frames")
        self.wrap(P, "build_observations", "preprocessing.build_observations")
        self.wrap(P, "load_fixations_csv", "preprocessing.load_fixations")
        self.wrap(P, "fixation_map", "preprocessing.fixation_map",
                  before=lambda records, retained: self.count(
                      "preprocessing.fixation_map.records", sized(records)))
        self.wrap(models, "build_model", "models.build_model")
        self.wrap(W, "load_into_model", "weights_io.load")
        self.wrap(models.Model, "forward", "models.forward",
                  before=lambda model, obs: self.learn_plan(model.plan, models.param_shapes))
        self.wrap(T, "conv2d", lambda x, kernel: "tensor_ops.conv2d." + self.conv_names.get(
            (tuple(kernel.weights.shape), kernel.stride, kernel.padding), "other"))
        self.wrap(T, "linear", lambda v, weights, bias=None: "tensor_ops.linear." +
                  self.linear_names.get(tuple(weights.shape), "other"))
        self.wrap(S, "render_multi", "saliency.render")
        self.wrap(S, "compose_geometry", "saliency.compose_geometry")
        self.wrap(S, "upscale_to_frame", "saliency.upscale")
        self.wrap(S, "save_raw_saliency", "saliency.save")
        self.wrap(S, "save_pgm", "saliency.save")
        self.wrap(S, "load_raw_saliency", "saliency.load")
        self.wrap(M, "_nss", "metrics.nss")
        self.wrap(M, "_kl", "metrics.kl")

        def negatives(sal, positives, pool, rng_seed=0):
            import numpy as np  # loaded with atarisal, so this costs nothing

            pos = np.asarray(positives) > 0
            neg = np.zeros_like(pos)
            for other in pool:
                neg |= other > 0
            self.count("metrics.sauc.negatives", int((neg & ~pos).sum()))

        self.wrap(M, "_sauc", "metrics.sauc", before=negatives)

    def metrics(self):
        """Per-layer metrics, except those that need the caller's wall time."""
        spans, counts = self.spans, self.counts

        def total(name):
            return sum(spans.get(name, ()))

        def p_ms(name, q=0.5):
            return 1e3 * percentile(spans.get(name, []), q)

        def mean(name):
            values = counts.get(name, [])
            return sum(values) / len(values) if values else 0.0

        out = {
            "cli.import_s": total("cli.import"),
            "preprocessing.load_frames.s": total("preprocessing.load_frames"),
            "preprocessing.build_observations.s": total("preprocessing.build_observations"),
            "preprocessing.load_fixations.s": total("preprocessing.load_fixations"),
            "preprocessing.fixation_map.s": total("preprocessing.fixation_map"),
            "preprocessing.fixation_map.calls": len(spans.get("preprocessing.fixation_map", [])),
            "preprocessing.fixation_map.records_per_call":
                mean("preprocessing.fixation_map.records"),
            "models.build_model.s": total("models.build_model"),
            "weights_io.load.s": total("weights_io.load"),
            "models.forward.s": total("models.forward"),
            "models.forward.ms_p50": p_ms("models.forward"),
            "models.forward.ms_p95": p_ms("models.forward", 0.95),
            "saliency.render.ms_p50": p_ms("saliency.render"),
            "saliency.compose_geometry.calls": len(spans.get("saliency.compose_geometry", [])),
            "saliency.upscale.ms_p50": p_ms("saliency.upscale"),
            "saliency.save.s": total("saliency.save"),
            "saliency.load.s": total("saliency.load"),
            "metrics.nss.ms_p50": p_ms("metrics.nss"),
            "metrics.kl.ms_p50": p_ms("metrics.kl"),
            "metrics.sauc.ms_p50": p_ms("metrics.sauc"),
            "metrics.sauc.negatives_mean": mean("metrics.sauc.negatives"),
        }
        for layer in CONV_LAYERS:
            name = "tensor_ops.conv2d." + layer
            gflop, mb = self.kernels.get(layer, (0.0, 0.0))
            out.update({name + ".ms_p50": p_ms(name), name + ".gflop": gflop,
                        name + ".mb_moved": mb})
        gflop, mb = self.kernels.get("fc", (0.0, 0.0))
        out.update({"tensor_ops.linear.fc.ms_p50": p_ms("tensor_ops.linear.fc"),
                    "tensor_ops.linear.fc.gflop": gflop, "tensor_ops.linear.fc.mb_moved": mb})
        out["covered_s"] = sum(total(name) for name in TOP_LEVEL)
        return out


def main():
    result_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t = time.perf_counter()
    from atarisal import cli, metrics, models, preprocessing, saliency, tensor_ops, weights_io
    tracer.record("cli.import", time.perf_counter() - t)
    tracer.install(metrics, models, preprocessing, saliency, tensor_ops, weights_io)
    rc = cli.main(argv)
    with open(result_path, "w") as f:
        json.dump(tracer.metrics(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
