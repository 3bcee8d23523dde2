"""Command-line surface.

Subcommands: params, preprocess, saliency, metrics, eval, gradcheck, report.
Exit codes: 0 success, 1 validation error, 2 I/O error, 3 verification
failure. Every command that writes an output directory drops a manifest.json
there; `eval --manifest` re-runs from such a file and reproduces its CSVs
byte for byte (floats are written with repr, rows in sorted order, and no
timestamps appear anywhere).
"""

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import metrics as M
from . import models
from . import preprocessing as P
from . import saliency as S
from . import tensor_ops as T
from . import weights_io as W
from .errors import ConfigurationError, DataFormatError, EvaluationError

SCHEMA_VERSION = 1

FRAME_CSV_HEADER = "frame,nss,kl,sauc,valid_nss,valid_kl,valid_sauc"
SUMMARY_CSV_HEADER = "model,game,metric,mean,std,n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2 for I/O
        raise ConfigurationError(message)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


# -- config flags ---------------------------------------------------------------

def add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(models.PRESETS), default=None,
                   help="start from a named architecture")
    p.add_argument("--block", choices=models.BLOCK_KINDS, default=None)
    p.add_argument("--attention", choices=("none",) + models.ATTENTION_KINDS, default=None)
    p.add_argument("--placement", choices=models.PLACEMENTS, default=None)
    p.add_argument("--readout", choices=models.READOUTS, default=None)
    p.add_argument("--actions", type=int, default=None, help="policy head width")
    p.add_argument("--softplus2", action="store_true", help="base-2 softplus in fls modules")
    p.add_argument("--normalize-output", action="store_true",
                   help="divide each attention map by its sum")
    p.add_argument("--no-final-relu", action="store_true",
                   help="drop the activation feeding each attention module")
    p.add_argument("--fls-1x1", action="store_true", help="1x1 convs inside the fls module")
    p.add_argument("--pad-input-1px", action="store_true")
    p.add_argument("--l2-norm", action="store_true",
                   help="unit-normalize each location's feature vector")


def config_from_args(args) -> models.ModelConfig:
    cfg = models.PRESETS[args.preset] if args.preset else models.ModelConfig()
    overrides = {}
    if args.block:
        overrides["block"] = args.block
    if args.attention:
        overrides["attention"] = None if args.attention == "none" else args.attention
    if args.placement:
        overrides["placement"] = args.placement
    if args.readout:
        overrides["readout"] = args.readout
    if args.actions is not None:
        overrides["num_actions"] = args.actions
    if args.softplus2:
        overrides["softplus2"] = True
    if args.normalize_output:
        overrides["normalize_output"] = True
    if args.no_final_relu:
        overrides["final_relu"] = False
    if args.pad_input_1px:
        overrides["pad_input_1px"] = True
    if args.l2_norm:
        overrides["l2_norm_features"] = True
    cfg = replace(cfg, **overrides)
    if args.fls_1x1:
        if cfg.attention not in ("fls", "fls-1x1"):
            raise ConfigurationError("--fls-1x1 requires an fls attention module")
        cfg = replace(cfg, attention="fls-1x1")
    return cfg.validate()


def model_label(args) -> str:
    return args.preset if args.preset else "custom"


def load_model(cfg: models.ModelConfig, weights: str, seed: int) -> models.Model:
    model = models.build_model(cfg, seed)
    if weights:
        model = W.load_into_model(model, weights)
    return model


# -- params ----------------------------------------------------------------------

def cmd_params(args) -> int:
    cfg = config_from_args(args)
    plan = models.build_plan(cfg)
    shapes = models.param_shapes(plan)

    layers: dict[str, int] = {}
    weight_shape: dict[str, tuple] = {}
    for name, shape in shapes.items():
        prefix, kind = name.rsplit(".", 1)
        layers[prefix] = layers.get(prefix, 0) + int(np.prod(shape))
        if kind == "weight":
            weight_shape[prefix] = shape
    out_shapes = dict(plan.trace)

    print(f"{'layer':<14} {'weight shape':<20} {'output':<16} {'params':>12}")
    for prefix, count in layers.items():
        wshape = "x".join(str(d) for d in weight_shape[prefix])
        oshape = out_shapes.get(prefix, out_shapes.get(prefix.split(".")[0], ()))
        ostr = "x".join(str(d) for d in oshape)
        print(f"{prefix:<14} {wshape:<20} {ostr:<16} {count:>12,}")
    print(f"{'total':<14} {'':<20} {'':<16} {models.count_params(cfg):>12,}")
    return 0


# -- preprocess -------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    frames = P.load_frames(args.frames)
    observations = P.build_observations(frames)
    records = P.load_fixations_csv(args.fixations) if args.fixations else None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rejected = 0
    index = {"schema_version": SCHEMA_VERSION, "observations": len(observations),
             "retained_indices": [list(o.retained_indices) for o in observations]}
    for i, obs in enumerate(observations):
        np.save(out / f"obs_{i:04d}.npy", obs.pixels)
        if records is not None:
            fmap, rej = P.fixations_for_observation(records, obs)
            rejected += rej
            np.save(out / f"fix_{i:04d}.npy", fmap)
    if records is not None:
        index["rejected_fixations"] = rejected
    (out / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(observations)} observations to {out}")
    if rejected:
        print(f"skipped {rejected} out-of-bounds fixation records")
    return 0


# -- saliency rendering -------------------------------------------------------------

def _render_saliency(model: models.Model, obs: P.ObservationStack):
    out = model.forward(obs.pixels)
    return S.render_multi(out.attention_maps, model.config)


def cmd_saliency(args) -> int:
    cfg = config_from_args(args)
    model = load_model(cfg, args.weights, args.seed)
    frames = P.load_frames(args.frames)
    observations = P.build_observations(frames)
    if not observations:
        raise DataFormatError(f"{args.frames}: fewer than {P.RAW_PER_OBSERVATION} frames")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, obs in enumerate(observations):
        sal = _render_saliency(model, obs)
        if args.upscale:
            sal = S.upscale_to_frame(sal)
        S.save_raw_saliency(str(out / f"sal_{i:04d}.raw"), sal)
        if args.pgm:
            S.save_pgm(str(out / f"sal_{i:04d}.pgm"), sal)
    _write_manifest(out, args, command="saliency")
    print(f"rendered {len(observations)} saliency maps to {out}")
    return 0


# -- scoring ---------------------------------------------------------------------

def _blur_params(sigma: float) -> M.BlurParams:
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ConfigurationError(f"--sigma must be a finite number >= 0, got {sigma!r}")
    return M.BlurParams(sigma=sigma, radius=M.blur_radius_for(sigma))


def _score_recording(sal_maps, fix_maps, pool_total, blur, rng_seed):
    """pool_total is the fixation-count map summed over the negative-pool scope;
    each frame's negatives are pool_total minus its own counts."""
    scores = []
    for i, (sal, fix) in enumerate(zip(sal_maps, fix_maps)):
        pool = [pool_total - fix]
        scores.append(M.score_frame(i, sal, fix, pool, blur, rng_seed))
    return scores


def _write_frame_csv(path: Path, scores) -> None:
    lines = [FRAME_CSV_HEADER]
    for s in scores:
        lines.append(f"{s.frame},{_fmt(s.nss)},{_fmt(s.kl)},{_fmt(s.sauc)},"
                     f"{int(s.nss is not None)},{int(s.kl is not None)},{int(s.sauc is not None)}")
    path.write_text("\n".join(lines) + "\n")


def _write_summary_csv(path: Path, label: str, game: str, summary) -> None:
    lines = [SUMMARY_CSV_HEADER]
    for name in M.METRIC_NAMES:
        row = summary[name]
        lines.append(f"{label},{game},{name},{_fmt(row.mean)},{_fmt(row.std)},{row.n}")
    path.write_text("\n".join(lines) + "\n")


def cmd_metrics(args) -> int:
    blur = _blur_params(args.sigma)
    sal_dir = Path(args.saliency)
    sal_files = sorted(sal_dir.glob("sal_*.raw"))
    if not sal_files:
        raise DataFormatError(f"{args.saliency}: no sal_*.raw files")
    records = P.load_fixations_csv(args.fixations)

    sal_maps, fix_maps = [], []
    rejected = 0
    for i, sf in enumerate(sal_files):
        sal = S.load_raw_saliency(str(sf))
        if sal.shape == (models.INPUT_SIZE, models.INPUT_SIZE):
            sal = S.upscale_to_frame(sal)
        elif sal.shape != (P.FRAME_HEIGHT, P.FRAME_WIDTH):
            raise DataFormatError(f"{sf}: unexpected saliency shape {sal.shape}")
        fmap, rej = P.fixation_map(records, P.retained_indices(i))
        rejected += rej
        sal_maps.append(sal)
        fix_maps.append(fmap)

    pool_total = np.sum(fix_maps, axis=0)
    scores = _score_recording(sal_maps, fix_maps, pool_total, blur, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_frame_csv(out / "frames_rec0.csv", scores)
    summary = M.aggregate([scores])
    _write_summary_csv(out / "summary.csv", "external", args.game, summary)
    _write_manifest(out, args, command="metrics")
    if rejected:
        print(f"skipped {rejected} out-of-bounds fixation records")
    print(f"scored {len(scores)} frames; summary in {out / 'summary.csv'}")
    return 0


# -- eval -------------------------------------------------------------------------

def _manifest_dict(args, command: str) -> dict:
    data = {"schema_version": SCHEMA_VERSION, "command": command}
    if hasattr(args, "block"):  # only parsers with model-config flags
        data["model"] = {"label": model_label(args), "config": asdict(config_from_args(args))}
    for key in ("weights", "seed", "game", "pool_scope", "sigma", "workers",
                "save_saliency", "pgm", "upscale", "frames", "fixations", "saliency"):
        if hasattr(args, key):
            data[key] = getattr(args, key)
    if hasattr(args, "recording"):
        data["recordings"] = [{"frames": fr, "fixations": fx} for fr, fx in args.recording]
    return data


def _write_manifest(out: Path, args, command: str) -> None:
    (out / "manifest.json").write_text(
        json.dumps(_manifest_dict(args, command), sort_keys=True, indent=2) + "\n")


def _args_from_manifest(path: str, out: str):
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError:
        raise DataFormatError(f"{path}: invalid manifest JSON") from None
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported manifest schema")
    if data.get("command") != "eval":
        raise DataFormatError(f"{path}: not an eval manifest")
    entry = data.get("model")
    if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
            and isinstance(entry.get("config"), dict)):
        raise DataFormatError(f"{path}: manifest needs model.label and model.config")
    unknown = sorted(set(entry["config"]) - {f.name for f in fields(models.ModelConfig)})
    if unknown:
        raise DataFormatError(f"{path}: unknown model.config key(s): {', '.join(unknown)}")
    ns = argparse.Namespace()
    cfg = models.ModelConfig(**entry["config"]).validate()
    ns.manifest_config = cfg
    ns.manifest_label = entry["label"]
    ns.weights = data.get("weights")
    ns.seed = data.get("seed", 0)
    ns.game = data.get("game", "unlabeled")
    ns.pool_scope = data.get("pool_scope", "recording")
    ns.sigma = data.get("sigma", 5.0)
    ns.workers = data.get("workers", 1)
    ns.save_saliency = data.get("save_saliency", False)
    ns.pgm = data.get("pgm", False)
    ns.recording = [(r["frames"], r["fixations"]) for r in data.get("recordings", [])]
    ns.out = out
    return ns


def cmd_eval(args) -> int:
    if args.manifest:
        ns = _args_from_manifest(args.manifest, args.out)
        cfg = ns.manifest_config
        label = ns.manifest_label
        eff = ns
    else:
        if not args.recording:
            raise ConfigurationError("eval needs at least one --recording FRAMES FIXATIONS")
        cfg = config_from_args(args)
        label = model_label(args)
        eff = args
    if not eff.out:
        raise ConfigurationError("eval needs --out")
    if not eff.recording:
        raise ConfigurationError("eval needs at least one recording")

    blur = _blur_params(eff.sigma)
    model = load_model(cfg, eff.weights, eff.seed)

    # Load everything up front so a corrupt input aborts before outputs exist.
    recordings = []
    for fr_path, fx_path in eff.recording:
        frames = P.load_frames(fr_path)
        observations = P.build_observations(frames)
        if not observations:
            raise DataFormatError(f"{fr_path}: fewer than {P.RAW_PER_OBSERVATION} frames")
        records = P.load_fixations_csv(fx_path)
        recordings.append((observations, records))

    log_lines = []
    per_rec_scores = []
    out = Path(eff.out)
    out.mkdir(parents=True, exist_ok=True)

    def process(model, obs):
        sal84 = _render_saliency(model, obs)
        return S.upscale_to_frame(sal84), sal84

    rec_data = []
    for ri, (observations, records) in enumerate(recordings):
        fix_maps = []
        rejected = 0
        for obs in observations:
            fmap, rej = P.fixations_for_observation(records, obs)
            fix_maps.append(fmap)
            rejected += rej
        if eff.workers > 1:
            with ThreadPoolExecutor(max_workers=eff.workers) as ex:
                results = list(ex.map(lambda o: process(model, o), observations))
        else:
            results = [process(model, obs) for obs in observations]
        sal_maps = [r[0] for r in results]
        if eff.save_saliency:
            for i, (_, sal84) in enumerate(results):
                S.save_raw_saliency(str(out / f"rec{ri}_sal_{i:04d}.raw"), sal84)
                if eff.pgm:
                    S.save_pgm(str(out / f"rec{ri}_sal_{i:04d}.pgm"), sal84)
        rec_data.append((sal_maps, fix_maps))
        log_lines.append(f"rec{ri}: {len(observations)} observations, "
                         f"{rejected} out-of-bounds fixation records skipped")

    if eff.pool_scope == "all":
        grand_total = np.sum([np.sum(fm, axis=0) for _, fm in rec_data], axis=0)
    for ri, (sal_maps, fix_maps) in enumerate(rec_data):
        pool_total = grand_total if eff.pool_scope == "all" else np.sum(fix_maps, axis=0)
        scores = _score_recording(sal_maps, fix_maps, pool_total, blur, eff.seed)
        per_rec_scores.append(scores)
        _write_frame_csv(out / f"frames_rec{ri}.csv", scores)
        for name in M.METRIC_NAMES:
            undefined = sum(1 for s in scores if getattr(s, name) is None)
            if undefined:
                log_lines.append(f"rec{ri}: {undefined} frames undefined for {name}")

    summary = M.aggregate(per_rec_scores)
    _write_summary_csv(out / "summary.csv", label, eff.game, summary)
    if args.manifest:
        # re-emit the manifest we ran from, with this run's output dir
        data = _manifest_dict_from_ns(eff, label, cfg)
    else:
        data = _manifest_dict(args, command="eval")
    (out / "manifest.json").write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    (out / "log.txt").write_text("\n".join(log_lines) + "\n")
    for line in log_lines:
        print(line)
    print(f"summary in {out / 'summary.csv'}")
    return 0


def _manifest_dict_from_ns(ns, label: str, cfg: models.ModelConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": "eval",
            "model": {"label": label, "config": asdict(cfg)},
            "weights": ns.weights, "seed": ns.seed, "game": ns.game,
            "pool_scope": ns.pool_scope, "sigma": ns.sigma, "workers": ns.workers,
            "save_saliency": ns.save_saliency, "pgm": ns.pgm,
            "recordings": [{"frames": fr, "fixations": fx} for fr, fx in ns.recording]}


# -- gradcheck ----------------------------------------------------------------------

def _gradcheck_suite(seed: int, epsilon: float):
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.standard_normal(shape)

    checks = []

    kern_a = T.ConvKernel(3, 3, 2, 4, 1, 1, weights=rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
    kern_b = T.ConvKernel(4, 4, 2, 3, 2, 0, weights=rng.standard_normal((3, 2, 4, 4)).astype(np.float32))
    for tag, kern, shape in (("conv2d s1 p1", kern_a, (8, 8, 2)), ("conv2d s2 p0", kern_b, (8, 8, 2))):
        x = rand(shape)
        w = rand(T.conv2d(x, kern).shape)
        checks.append((tag, lambda x, k=kern: T.conv2d(x, k),
                       lambda x, u, k=kern: T.conv2d_input_grad(u, k), x, w))

    for kind in ("softplus", "softplus2", "elu", "tanh", "relu"):
        x = rand((6, 6, 2)) * 2.0
        if kind == "relu":
            x = x + np.where(np.abs(x) < 0.05, 0.5, 0.0)  # keep away from the kink
        w = rand(x.shape)
        checks.append((kind, lambda x, k=kind: T.apply_activation(x, k),
                       lambda x, u, k=kind: T.activation_input_grad(x, k, u), x, w))

    for shape in ((5, 5, 1), (5, 5, 3)):
        x = rand(shape)
        w = rand(shape)
        checks.append((f"spatial_softmax {shape[2]}ch", T.spatial_softmax,
                       T.spatial_softmax_input_grad, x, w))

    x = rand((4, 4, 3)) + 0.1
    w = rand((4, 4, 3))
    checks.append(("l2_normalize_locations", T.l2_normalize_locations,
                   T.l2_normalize_input_grad, x, w))

    results = []
    for tag, fwd, grad, x, w in checks:
        err = T.grad_check(fwd, grad, x, epsilon=epsilon, weights=w)
        results.append((tag, err))
    return results


def cmd_gradcheck(args) -> int:
    results = _gradcheck_suite(args.seed, args.eps)
    failed = 0
    for tag, err in results:
        ok = err < args.threshold
        failed += 0 if ok else 1
        print(f"{tag:<24} max_rel_err={err:.3e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"{failed} of {len(results)} checks failed (threshold {args.threshold:g})")
        return 3
    print(f"all {len(results)} checks passed (threshold {args.threshold:g})")
    return 0


# -- report -------------------------------------------------------------------------

def cmd_report(args) -> int:
    rows = []
    for run_dir in args.runs:
        path = Path(run_dir) / "summary.csv"
        if not path.is_file():
            raise DataFormatError(f"{run_dir}: no summary.csv")
        lines = path.read_text().splitlines()
        if not lines or lines[0] != SUMMARY_CSV_HEADER:
            raise DataFormatError(f"{path}: unexpected summary header")
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 6:
                raise DataFormatError(f"{path}: malformed summary row {line!r}")
            rows.append(fields)

    widths = [max(len(r[i]) for r in rows + [SUMMARY_CSV_HEADER.split(",")])
              for i in range(6)]
    header = SUMMARY_CSV_HEADER.split(",")
    out_lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in sorted(rows):
        out_lines.append("  ".join(r[i].ljust(widths[i]) for i in range(6)))
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


# -- parser ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atarisal",
                     description="Attention-gated Atari feature extractors, receptive-field "
                                 "saliency rendering, and fixation metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="per-layer parameter table")
    add_config_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("preprocess", help="frames -> observation stacks (+ fixation maps)")
    p.add_argument("--frames", required=True)
    p.add_argument("--fixations", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("saliency", help="render per-observation saliency maps")
    add_config_flags(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--upscale", action="store_true", help="export at 160x210 instead of 84x84")
    p.add_argument("--pgm", action="store_true", help="also write min-max normalized PGMs")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("metrics", help="score saved saliency maps against fixations")
    p.add_argument("--saliency", required=True, help="directory of sal_*.raw dumps")
    p.add_argument("--fixations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--game", default="unlabeled")
    p.add_argument("--sigma", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_metrics, preset=None)

    p = sub.add_parser("eval", help="frames + fixations -> per-frame and summary CSVs")
    add_config_flags(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--recording", nargs=2, metavar=("FRAMES", "FIXATIONS"),
                   action="append", default=[])
    p.add_argument("--manifest", default=None, help="re-run from a saved manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--game", default="unlabeled")
    p.add_argument("--pool-scope", dest="pool_scope", choices=("recording", "all"),
                   default="recording")
    p.add_argument("--sigma", type=float, default=5.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--save-saliency", dest="save_saliency", action="store_true")
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the analytic gradients")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="merge summary.csv files into one table")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except EvaluationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
