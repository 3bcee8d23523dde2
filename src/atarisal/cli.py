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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

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


# config flag -> the ModelConfig field it sets; a switch sets the given value
_CONFIG_VALUES = {"block": "block", "placement": "placement", "readout": "readout",
                  "actions": "num_actions"}
_CONFIG_SWITCHES = {"softplus2": ("softplus2", True),
                    "normalize_output": ("normalize_output", True),
                    "no_final_relu": ("final_relu", False),
                    "pad_input_1px": ("pad_input_1px", True), "l2_norm": ("l2_norm_features", True)}


def config_from_args(args) -> models.ModelConfig:
    cfg = models.PRESETS[args.preset] if args.preset else models.ModelConfig()
    overrides = {name: getattr(args, flag) for flag, name in _CONFIG_VALUES.items()
                 if getattr(args, flag) is not None}
    overrides.update(setting for flag, setting in _CONFIG_SWITCHES.items() if getattr(args, flag))
    if args.attention:
        overrides["attention"] = None if args.attention == "none" else args.attention
    cfg = replace(cfg, **overrides)
    if args.fls_1x1:
        if cfg.attention not in ("fls", "fls-1x1"):
            raise ConfigurationError("--fls-1x1 requires an fls attention module")
        cfg = replace(cfg, attention="fls-1x1")
    return cfg


def load_model(cfg: models.ModelConfig, weights: str, seed: int) -> models.Model:
    if seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}")
    model = models.build_model(cfg, seed)
    if weights:
        model = W.load_into_model(model, weights)
    return model


# -- params ----------------------------------------------------------------------

def cmd_params(args) -> int:
    plan = models.build_plan(config_from_args(args))
    shapes = models.param_shapes(plan)
    out_shapes = dict(plan.trace)

    print(f"{'layer':<14} {'weight shape':<20} {'output':<16} {'params':>12}")
    for name in [lp.name for lp in plan.conv_layers] + list(models.HEADS):
        weight, bias = shapes[f"{name}.weight"], shapes[f"{name}.bias"]
        wstr, ostr = "x".join(map(str, weight)), "x".join(map(str, out_shapes[name]))
        print(f"{name:<14} {wstr:<20} {ostr:<16} {math.prod(weight) + math.prod(bias):>12,}")
    total = sum(math.prod(shape) for shape in shapes.values())
    print(f"{'total':<14} {'':<20} {'':<16} {total:>12,}")
    return 0


# -- preprocess -------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    observations = P.build_observations(P.load_frames(args.frames))
    if not observations:
        raise DataFormatError(f"{args.frames}: fewer than {P.RAW_PER_OBSERVATION} frames")
    records = P.load_fixations_csv(args.fixations) if args.fixations else None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rejected = 0
    index = {"schema_version": SCHEMA_VERSION, "observations": len(observations),
             "retained_indices": [list(o.retained_indices) for o in observations]}
    for i, obs in enumerate(observations):
        np.save(out / f"obs_{i:04d}.npy", obs.pixels)
    if records is not None:
        for i, bucket in enumerate(P.records_by_observation(records, len(observations))):
            fmap, rej = P.fixation_map(bucket, P.retained_indices(i))
            rejected += rej
            np.save(out / f"fix_{i:04d}.npy", fmap)
        index["rejected_fixations"] = rejected
    (out / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(observations)} observations to {out}")
    if rejected:
        print(f"skipped {rejected} out-of-bounds fixation records")
    return 0


# -- saliency rendering -------------------------------------------------------------

def _render_saliency(model: models.Model, obs: P.ObservationStack):
    out = model.forward(obs.pixels)
    return S.render_multi(out.attention_maps, model.plan)


def _save_dumps(out: Path, sal_maps, pgm: bool) -> None:
    """sal_NNNN.raw (and .pgm) per map: the layout `metrics --saliency` reads."""
    out.mkdir(parents=True, exist_ok=True)
    for i, sal in enumerate(sal_maps):
        S.save_raw_saliency(str(out / f"sal_{i:04d}.raw"), sal)
        if pgm:
            S.save_pgm(str(out / f"sal_{i:04d}.pgm"), sal)


def cmd_saliency(args) -> int:
    cfg = config_from_args(args)
    model = load_model(cfg, args.weights, args.seed)
    observations = P.build_observations(P.load_frames(args.frames))
    if not observations:
        raise DataFormatError(f"{args.frames}: fewer than {P.RAW_PER_OBSERVATION} frames")

    out = Path(args.out)
    sal_maps = (_render_saliency(model, obs) for obs in observations)
    _save_dumps(out, (S.upscale_to_frame(s) for s in sal_maps) if args.upscale else sal_maps,
                args.pgm)
    _write_manifest(out, _manifest_dict(args, command="saliency"))
    print(f"rendered {len(observations)} saliency maps to {out}")
    return 0


# -- scoring ---------------------------------------------------------------------

def _blur_params(sigma: float) -> M.BlurParams:
    # a truncation radius past the frame height adds only time (sigma <= 70)
    if not (math.isfinite(sigma) and sigma >= 0.0
            and M.blur_radius_for(sigma) <= P.FRAME_HEIGHT):
        raise ConfigurationError(f"--sigma must be a finite number in [0, {P.FRAME_HEIGHT // 3}] "
                                 f"(blur radius ceil(3 sigma) at most the {P.FRAME_HEIGHT}-pixel "
                                 f"frame height), got {sigma!r}")
    return M.BlurParams(sigma=sigma, radius=M.blur_radius_for(sigma))


def _write_frame_csv(path: Path, scores) -> None:
    rows = (f"{s.frame},{_fmt(s.nss)},{_fmt(s.kl)},{_fmt(s.sauc)},"
            f"{int(s.nss is not None)},{int(s.kl is not None)},{int(s.sauc is not None)}"
            for s in scores)
    path.write_text("\n".join([FRAME_CSV_HEADER, *rows]) + "\n")


def _write_summary_csv(path: Path, label: str, game: str, summary) -> None:
    rows = (f"{label},{game},{name},{_fmt(summary[name].mean)},{_fmt(summary[name].std)},"
            f"{summary[name].n}" for name in M.METRIC_NAMES)
    path.write_text("\n".join([SUMMARY_CSV_HEADER, *rows]) + "\n")


def _score(out: Path, recordings, label: str, game: str, pool_scope: str,
           blur: M.BlurParams) -> None:
    """Score (saliency maps, fixation records) per recording; write
    frames_rec{i}.csv, summary.csv and log.txt. Map i is 84x84, upscaled here
    when it is scored, or already 210x160. It meets the records on the raw
    frames observation i retains; its sAUC negatives are the fixations of the
    other frames of its recording, or of all recordings for pool_scope "all".

    sAUC needs the pooled total before any frame is scored, so a first pass
    takes each recording's total map and counts from one bincount, and the
    scoring pass builds each observation's fixation map as it scores it: no
    map outlives its frame's scores."""
    log_lines, buckets, totals = [], [], []
    for ri, (sal_maps, records) in enumerate(recordings):
        buckets.append(P.records_by_observation(records, len(sal_maps)))
        total, rejected = P.total_fixation_map(records, len(sal_maps))
        totals.append(total)
        # a record is counted in a map, rejected as out of bounds, or on a
        # raw frame no scored observation retains
        discarded = len(records) - int(total.sum()) - rejected
        log_lines.append(f"rec{ri}: {len(sal_maps)} observations, "
                         f"{rejected} out-of-bounds fixation records skipped")
        log_lines.append(f"rec{ri}: {discarded} fixation records on discarded raw frames skipped")

    if pool_scope == "all":
        totals = [np.sum(totals, axis=0)] * len(totals)
    per_rec_scores = []
    for ri, ((sal_maps, _), rec_buckets, total) in enumerate(zip(recordings, buckets, totals)):
        scores = []
        for i, (sal, bucket) in enumerate(zip(sal_maps, rec_buckets)):
            if sal.shape != (P.FRAME_HEIGHT, P.FRAME_WIDTH):
                sal = S.upscale_to_frame(sal)
            fix, _ = P.fixation_map(bucket, P.retained_indices(i))
            scores.append(M.score_frame(i, sal, fix, [total - fix], blur))
        per_rec_scores.append(scores)
        _write_frame_csv(out / f"frames_rec{ri}.csv", scores)
        for name in M.METRIC_NAMES:
            undefined = sum(1 for s in scores if getattr(s, name) is None)
            if undefined:
                log_lines.append(f"rec{ri}: {undefined} frames undefined for {name}")

    _write_summary_csv(out / "summary.csv", label, game, M.aggregate(per_rec_scores))
    log = "\n".join(log_lines) + "\n"
    (out / "log.txt").write_text(log)
    print(f"{log}summary in {out / 'summary.csv'}")


def _dump_files(directory: str) -> list[Path]:
    """The sal_<N>.raw files of directory in index order. The indices must be
    exactly 0..n-1: dump i is scored against observation i's fixations."""
    by_index = {}
    for path in sorted(Path(directory).glob("sal_*.raw")):
        digits = path.name[len("sal_"):-len(".raw")]
        if not (digits.isascii() and digits.isdigit()):
            raise DataFormatError(f"{path}: no integer index in the name; expected sal_<N>.raw")
        first = by_index.setdefault(int(digits), path)
        if first != path:
            raise DataFormatError(f"{path}: index {int(digits)} repeats {first.name}")
    if not by_index:
        raise DataFormatError(f"{directory}: no sal_*.raw files")
    for i in range(len(by_index)):
        if i not in by_index:
            raise DataFormatError(f"{directory}: sal_{i:04d}.raw is missing; dump indices "
                                  "must run from 0 without gaps")
    return [by_index[i] for i in range(len(by_index))]


def cmd_metrics(args) -> int:
    blur = _blur_params(args.sigma)
    sal_files = _dump_files(args.saliency)
    records = P.load_fixations_csv(args.fixations)

    sal_maps = []  # at their stored size; _score upscales the 84x84 ones
    for sf in sal_files:
        sal = S.load_raw_saliency(str(sf))
        if sal.shape not in ((models.INPUT_SIZE, models.INPUT_SIZE),
                             (P.FRAME_HEIGHT, P.FRAME_WIDTH)):
            raise DataFormatError(f"{sf}: unexpected saliency shape {sal.shape}")
        sal_maps.append(sal)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _score(out, [(sal_maps, records)], "external", args.game, "recording", blur)
    _write_manifest(out, _manifest_dict(args, command="metrics"))
    return 0


# -- manifests ----------------------------------------------------------------------

def _manifest_dict(args, command: str) -> dict:
    """Manifest of a saliency or metrics run: the flags it was given."""
    data = {"schema_version": SCHEMA_VERSION, "command": command}
    if hasattr(args, "block"):  # only parsers with model-config flags
        data["model"] = {"label": args.preset or "custom", "config": asdict(config_from_args(args))}
    for key in ("weights", "seed", "game", "sigma", "pgm", "upscale", "frames", "fixations",
                "saliency"):
        if hasattr(args, key):
            data[key] = getattr(args, key)
    return data


def _write_manifest(out: Path, data: dict) -> None:
    (out / "manifest.json").write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


# field type -> (test of a JSON value, its name); a bool is not a number
_JSON_TYPES = {
    str: (lambda v: isinstance(v, str), "a string"),
    Optional[str]: (lambda v: v is None or isinstance(v, str), "a string or null"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}


def _checked(data: dict, hints: dict, source: str, prefix: str) -> dict:
    """data, once every key is in hints and every value has the hinted type."""
    for key, value in sorted(data.items()):
        if key not in hints:
            raise DataFormatError(f"{source}: unknown manifest key {prefix}{key}")
        test, name = _JSON_TYPES[hints[key]]
        if not test(value):
            raise DataFormatError(f"{source}: {prefix}{key} must be {name}, got {value!r}")
    return data


POOL_SCOPES = ("recording", "all")


@dataclass(frozen=True)
class EvalSpec:
    """Everything an eval run depends on, from the command line or a manifest;
    to_dict is the run's manifest.json, and from_dict reads it back."""
    label: str
    config: models.ModelConfig
    recordings: tuple  # (frames path, fixations path) per recording
    weights: Optional[str] = None
    seed: int = 0
    game: str = "unlabeled"
    pool_scope: str = "recording"
    sigma: float = 5.0
    save_saliency: bool = False
    pgm: bool = False

    def __post_init__(self):
        if not self.recordings:
            raise ConfigurationError("eval needs at least one --recording FRAMES FIXATIONS")
        _blur_params(self.sigma)

    @classmethod
    def from_args(cls, args) -> "EvalSpec":
        # every field with a default is an eval flag of the same name
        flags = {f.name: getattr(args, f.name) for f in fields(cls) if f.default is not MISSING}
        return cls(label=args.preset or "custom", config=config_from_args(args),
                   recordings=tuple(map(tuple, args.recording)), **flags)

    @classmethod
    def from_dict(cls, data, source: str) -> "EvalSpec":
        """The spec of an eval manifest; a missing key takes its default, and an
        unknown key or a bad value is an error naming the key."""
        if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
            raise DataFormatError(f"{source}: unsupported manifest schema")
        if data.get("command") != "eval":
            raise DataFormatError(f"{source}: not an eval manifest")
        data = {k: v for k, v in data.items() if k not in ("schema_version", "command")}
        data.pop("workers", None)  # a thread count that older manifests hold; it never changed bytes
        entry = data.pop("model", None)
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("config"), dict)):
            raise DataFormatError(f"{source}: manifest needs model.label and model.config")
        config = _checked(entry["config"], {f.name: f.type for f in fields(models.ModelConfig)},
                          source, "model.config.")
        recordings = data.pop("recordings", [])
        if not (isinstance(recordings, list) and all(
                isinstance(r, dict) and sorted(r) == ["fixations", "frames"]
                and all(isinstance(v, str) for v in r.values()) for r in recordings)):
            raise DataFormatError(f"{source}: recordings must be a list of "
                                  f"{{frames, fixations}} paths, got {recordings!r}")
        _checked(data, {f.name: f.type for f in fields(cls) if f.default is not MISSING},
                 source, "")
        if data.get("pool_scope", "recording") not in POOL_SCOPES:
            raise DataFormatError(f"{source}: pool_scope must be one of "
                                  f"{', '.join(POOL_SCOPES)}, got {data['pool_scope']!r}")
        return cls(label=entry["label"], config=models.ModelConfig(**config),
                   recordings=tuple((r["frames"], r["fixations"]) for r in recordings),
                   **data)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["model"] = {"label": data.pop("label"), "config": data.pop("config")}
        data["recordings"] = [{"frames": fr, "fixations": fx} for fr, fx in self.recordings]
        return {"schema_version": SCHEMA_VERSION, "command": "eval", **data}


# -- eval -------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.manifest:
        defaults = vars(build_parser().parse_args(["eval", "--out", ""]))
        given = ["--" + name.replace("_", "-") for name, value in vars(args).items()
                 if name not in ("manifest", "out") and value != defaults[name]]
        if given:
            raise ConfigurationError(f"--manifest re-runs the saved spec and takes no other "
                                     f"eval or model flag; got {', '.join(given)}")
        try:
            with open(args.manifest, encoding="utf-8") as f:
                data = json.load(f)
        except ValueError:  # JSONDecodeError or UnicodeDecodeError
            raise DataFormatError(f"{args.manifest}: invalid manifest JSON") from None
        spec = EvalSpec.from_dict(data, args.manifest)
    else:
        spec = EvalSpec.from_args(args)
    model = load_model(spec.config, spec.weights, spec.seed)

    # Load everything up front so a corrupt input aborts before outputs exist:
    # load_frames checks every frame, build_observations decodes the retained
    # ones. Until its forward, an observation is its 113 KB float32 stack;
    # after it, its 28 KB 84x84 map until that is scored.
    loaded = []
    for frames_path, fixations_path in spec.recordings:
        observations = P.build_observations(P.load_frames(frames_path))
        if not observations:
            raise DataFormatError(f"{frames_path}: fewer than {P.RAW_PER_OBSERVATION} frames")
        loaded.append((observations, P.load_fixations_csv(fixations_path)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    recordings = []
    for ri, (observations, records) in enumerate(loaded):
        sal84s = [_render_saliency(model, obs) for obs in observations]
        observations.clear()  # the stacks are spent once rendered
        if spec.save_saliency:
            _save_dumps(out / f"rec{ri}", sal84s, spec.pgm)
        recordings.append((sal84s, records))

    _score(out, recordings, spec.label, spec.game, spec.pool_scope, _blur_params(spec.sigma))
    _write_manifest(out, spec.to_dict())
    return 0


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
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: not UTF-8 text") from None
        if not lines or lines[0] != SUMMARY_CSV_HEADER:
            raise DataFormatError(f"{path}: unexpected summary header")
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 6:
                raise DataFormatError(f"{path}: malformed summary row {line!r}")
            rows.append(fields)

    table = [SUMMARY_CSV_HEADER.split(",")] + sorted(rows)
    widths = [max(len(r[i]) for r in table) for i in range(6)]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n" for r in table)
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
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("eval", help="frames + fixations -> per-frame and summary CSVs")
    add_config_flags(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--recording", nargs=2, metavar=("FRAMES", "FIXATIONS"),
                   action="append", default=[])
    p.add_argument("--manifest", default=None, help="re-run from a saved manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--game", default="unlabeled")
    p.add_argument("--pool-scope", dest="pool_scope", choices=POOL_SCOPES,
                   default="recording")
    p.add_argument("--sigma", type=float, default=5.0)
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
    except (ConfigurationError, EvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
