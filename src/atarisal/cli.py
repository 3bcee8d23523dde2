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
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
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

FRAME_CSV_HEADER = ",".join(["frame", *M.METRIC_NAMES, *("valid_" + n for n in M.METRIC_NAMES)])
SUMMARY_CSV_HEADER = "model,game,metric,mean,std,n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve 2 for I/O
        raise ConfigurationError(message)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


# -- config flags ---------------------------------------------------------------

def add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(models.PRESETS),
                   help="start from a named architecture")
    p.add_argument("--block", choices=models.BLOCK_KINDS)
    p.add_argument("--attention", choices=("none",) + models.ATTENTION_KINDS)
    p.add_argument("--placement", choices=models.PLACEMENTS)
    p.add_argument("--readout", choices=models.READOUTS)
    p.add_argument("--actions", type=int, help="policy head width")
    p.add_argument("--softplus2", action="store_true", help="base-2 softplus in fls modules")
    p.add_argument("--normalize-output", action="store_true",
                   help="divide each attention map by its sum")
    p.add_argument("--no-final-relu", action="store_true",
                   help="drop the activation feeding each attention module")
    p.add_argument("--pad-input-1px", action="store_true")
    p.add_argument("--l2-norm", action="store_true",
                   help="unit-normalize each location's feature vector")


# config flag -> the ModelConfig field it sets ("none" as None); a switch sets the given value
_CONFIG_VALUES = {"block": "block", "attention": "attention", "placement": "placement",
                  "readout": "readout", "actions": "num_actions"}
_CONFIG_SWITCHES = {"softplus2": ("softplus2", True),
                    "normalize_output": ("normalize_output", True),
                    "no_final_relu": ("final_relu", False),
                    "pad_input_1px": ("pad_input_1px", True), "l2_norm": ("l2_norm_features", True)}


def config_from_args(args) -> models.ModelConfig:
    """The config the flags describe; eval's args hold only the flags given."""
    flags = vars(args)
    overrides = {name: flags[flag] for flag, name in _CONFIG_VALUES.items()
                 if flags.get(flag) is not None}
    overrides.update(setting for flag, setting in _CONFIG_SWITCHES.items() if flags.get(flag))
    if overrides.get("attention") == "none":
        overrides["attention"] = None
    preset = flags.get("preset")
    return models.preset_config(preset, **overrides) if preset else models.ModelConfig(**overrides)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {seed}")


def load_model(cfg: models.ModelConfig, weights: Optional[str], seed: int) -> models.Model:
    """The weights file's model when weights is not None, an empty path too,
    or else a fresh one drawn from seed, which is checked either way. A
    fresh model too large to allocate is an error naming its size."""
    _check_seed(seed)
    if weights is not None:
        return W.load_into_model(models.build_plan(cfg), weights)
    try:
        return models.build_model(cfg, seed)
    except (MemoryError, ValueError):  # ValueError: a tensor past numpy's largest dimension
        raise ConfigurationError(f"a model of {models.count_params(cfg):,} parameters does not "
                                 "fit in memory") from None


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
    print(f"{'total':<14} {'':<20} {'':<16} {models.count_params(plan.config):>12,}")
    return 0


# -- preprocess -------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    frames, n_obs = P.recording_frames(args.frames)
    records = P.load_fixations_csv(args.fixations) if args.fixations is not None else None

    out = P.nonempty_path(args.out, "--out")
    out.mkdir(parents=True, exist_ok=True)
    rejected = 0
    index = {"schema_version": SCHEMA_VERSION, "observations": n_obs,
             "retained_indices": [list(P.retained_indices(i)) for i in range(n_obs)]}
    for i, obs in enumerate(P.observations(frames)):
        np.save(out / f"obs_{i:04d}.npy", obs)
    if records is not None:
        for i, fix in enumerate(P.fixation_maps(records, n_obs)):
            np.save(out / f"fix_{i:04d}.npy", fix)
        rejected = index["rejected_fixations"] = P.total_fixation_map(records, n_obs)[1]
    (out / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")
    _write_manifest(out, _manifest_dict(args))
    print(f"wrote {n_obs} observations to {out}")
    if rejected:
        print(f"skipped {rejected} out-of-bounds fixation records")
    return 0


# -- saliency rendering -------------------------------------------------------------

def _saliency_maps(model: models.Model, frames_path: str, frames: P.FrameFiles):
    """The rendered 84x84 saliency map of each observation of frames, made
    when it is asked for. Forward and render run with numpy's floating-point
    warnings off, and each map is checked once: one that is not finite, as
    weights that overflow float32 make, is an error naming the frames and
    the observation, never a NaN score or a warning."""
    for i, obs in enumerate(P.observations(frames)):
        with np.errstate(all="ignore"):
            sal = S.render_multi(model.forward(obs), model.plan)
        if not np.isfinite(sal).all():
            raise EvaluationError(f"{frames_path}: observation {i}: the model's saliency map "
                                  "is not finite")
        yield sal


def cmd_saliency(args) -> int:
    cfg = config_from_args(args)
    model = load_model(cfg, args.weights, args.seed)
    frames, n_obs = P.recording_frames(args.frames)

    out = P.nonempty_path(args.out, "--out")
    sal_maps = _saliency_maps(model, args.frames, frames)
    for _ in S.write_dumps(out, map(S.upscale_to_frame, sal_maps) if args.upscale else sal_maps,
                           args.pgm):
        pass
    _write_manifest(out, _manifest_dict(args))
    print(f"rendered {n_obs} saliency maps to {out}")
    return 0


# -- scoring ---------------------------------------------------------------------

def _check_sigma(sigma: float) -> float:
    # a blur radius ceil(3 sigma) past the frame height adds only time;
    # sigma <= 70 is exactly radius <= 210, tested with no radius computed, so
    # a huge sigma cannot overflow before its error, and NaN fails it too
    if not 0.0 <= sigma <= P.FRAME_HEIGHT / 3:
        raise ConfigurationError(f"--sigma must be a finite number in [0, {P.FRAME_HEIGHT // 3}] "
                                 f"(blur radius ceil(3 sigma) at most the {P.FRAME_HEIGHT}-pixel "
                                 f"frame height), got {sigma!r}")
    return sigma


def _check_summary_field(name: str, value: str) -> None:
    # the model label and the game are fields of every summary.csv row, which
    # `report` cuts with str.splitlines and then splits on commas; splitlines
    # drops exactly the line breaks it cuts at, so any of them changes the join
    if "," in value or "".join(value.splitlines()) != value:
        raise ConfigurationError(f"{name} must not contain a comma or a line break "
                                 f"(any that str.splitlines cuts at), got {value!r}")


def _write_frame_csv(path: Path, scores) -> None:
    rows = (",".join([str(s.frame), *(_fmt(getattr(s, name)) for name in M.METRIC_NAMES),
                      *(str(int(getattr(s, name) is not None)) for name in M.METRIC_NAMES)])
            for s in scores)
    path.write_text("\n".join([FRAME_CSV_HEADER, *rows]) + "\n")


def _write_summary_csv(path: Path, label: str, game: str, summary) -> None:
    rows = (f"{label},{game},{name},{_fmt(summary[name].mean)},{_fmt(summary[name].std)},"
            f"{summary[name].n}" for name in M.METRIC_NAMES)
    path.write_text("\n".join([SUMMARY_CSV_HEADER, *rows]) + "\n")


def _score(out: Path, recordings, label: str, game: str, pool_scope: str,
           sigma: float) -> None:
    """Score (observation count, saliency maps, fixation records) per
    recording, taking the maps, any iterable of that many, one at a time;
    then make out and write frames_rec{i}.csv, summary.csv and log.txt.
    Map i is 210x160 and meets the records on the raw frames observation i
    retains; its sAUC negatives are the pixels its recording's total map
    counts, or all recordings' for pool_scope "all", less those it fixates
    itself, which `metrics.shuffled_auc` drops from any pool.

    sAUC needs the pooled total before any frame is scored, so a first pass
    takes each recording's total map and counts from one bincount, and the
    scoring pass takes each observation's map from `fixation_maps` as it
    scores it: no bucket or map outlives its frame's scores."""
    log_lines, totals = [], []
    for ri, (n_obs, _, records) in enumerate(recordings):
        total, rejected, discarded = P.total_fixation_map(records, n_obs)
        totals.append(total)
        log_lines.append(f"rec{ri}: {n_obs} observations, "
                         f"{rejected} out-of-bounds fixation records skipped")
        log_lines.append(f"rec{ri}: {discarded} fixation records on discarded raw frames skipped")

    if pool_scope == "all":
        totals = [np.sum(totals, axis=0)] * len(totals)
    per_rec_scores = []
    for ri, ((n_obs, sal_maps, records), total) in enumerate(zip(recordings, totals)):
        scores = [M.score_frame(i, sal, fix, [total], sigma)
                  for i, (sal, fix) in enumerate(zip(sal_maps, P.fixation_maps(records, n_obs)))]
        per_rec_scores.append(scores)
        out.mkdir(parents=True, exist_ok=True)
        _write_frame_csv(out / f"frames_rec{ri}.csv", scores)
        for name in M.METRIC_NAMES:
            reasons = Counter(s.reasons[name] for s in scores if name in s.reasons)
            for reason, undefined in sorted(reasons.items()):
                log_lines.append(f"rec{ri}: {undefined} frames undefined for {name}: {reason}")

    _write_summary_csv(out / "summary.csv", label, game, M.aggregate(per_rec_scores))
    log = "\n".join(log_lines) + "\n"
    (out / "log.txt").write_text(log)
    print(f"{log}summary in {out / 'summary.csv'}")


def cmd_metrics(args) -> int:
    sigma = _check_sigma(args.sigma)
    _check_summary_field("--game", args.game)
    sal_files = S.dump_files(args.saliency)
    records = P.load_fixations_csv(args.fixations)

    out = P.nonempty_path(args.out, "--out")
    _score(out, [(len(sal_files), map(S.load_dump, sal_files), records)], "external",
           args.game, EvalSpec.pool_scope, sigma)
    _write_manifest(out, _manifest_dict(args))
    return 0


# -- manifests ----------------------------------------------------------------------

def _model_label(args) -> str:
    """The model's name in manifests and summary rows: its preset, if any."""
    return getattr(args, "preset", None) or "custom"


def _manifest_dict(args) -> dict:
    """Manifest of a preprocess, saliency or metrics run: its command and
    flags but --out, with any config flags recorded as the config they make."""
    skipped = {"func", "out", "preset", *_CONFIG_VALUES, *_CONFIG_SWITCHES}
    data = {"schema_version": SCHEMA_VERSION,
            **{key: value for key, value in vars(args).items() if key not in skipped}}
    if hasattr(args, "block"):  # only parsers with model-config flags
        data["model"] = {"label": _model_label(args), "config": asdict(config_from_args(args))}
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
    sigma: float = M.DEFAULT_SIGMA
    save_saliency: bool = False
    pgm: bool = False

    def __post_init__(self):
        if not self.recordings:
            raise ConfigurationError("eval needs at least one --recording FRAMES FIXATIONS")
        _check_sigma(self.sigma)
        _check_summary_field("model.label", self.label)
        _check_summary_field("--game", self.game)
        if self.pgm and not self.save_saliency:
            raise ConfigurationError("--pgm writes views of the dumps and needs --save-saliency")

    @classmethod
    def from_args(cls, args) -> "EvalSpec":
        # every field with a default is an eval flag of the same name, present
        # in args only when it was given
        flags = {f.name: getattr(args, f.name) for f in fields(cls)
                 if f.default is not MISSING and hasattr(args, f.name)}
        return cls(label=_model_label(args), config=config_from_args(args),
                   recordings=tuple(map(tuple, getattr(args, "recording", ()))), **flags)

    @classmethod
    def from_dict(cls, data, source: str) -> "EvalSpec":
        """The spec of an eval manifest; a missing key takes its default, and an
        unknown key or a bad value is an error naming the key."""
        if not (isinstance(data, dict) and type(data.get("schema_version")) is int
                and data["schema_version"] == SCHEMA_VERSION):  # true and 1.0 equal 1
            raise DataFormatError(f"{source}: unsupported manifest schema; schema_version "
                                  f"must be the integer {SCHEMA_VERSION}")
        if data.get("command") != "eval":
            raise DataFormatError(f"{source}: not an eval manifest")
        data = {k: v for k, v in data.items() if k not in ("schema_version", "command")}
        data.pop("workers", None)  # a thread count that older manifests hold; it never changed bytes
        entry = data.pop("model", None)
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("config"), dict)):
            raise DataFormatError(f"{source}: manifest needs model.label and model.config")
        _checked({k: v for k, v in entry.items() if k not in ("label", "config")}, {},
                 source, "model.")
        config = dict(entry["config"])
        # older manifests hold widths now fixed, DAQN's at 256 and the fc's at
        # 512; a run of another width cannot be rebuilt
        for key, fixed in (("daqn_width", 256), ("fc_width", models.ModelConfig.fc_width)):
            width = config.pop(key, fixed)
            if type(width) is not int or width != fixed:  # a bool is not a JSON integer
                raise DataFormatError(f"{source}: model.config.{key} must be the integer "
                                      f"{fixed}, its one width, got {width!r}")
        _checked(config, {f.name: f.type for f in fields(models.ModelConfig)},
                 source, "model.config.")
        recordings = data.pop("recordings", [])
        if not (isinstance(recordings, list) and all(
                isinstance(r, dict) and sorted(r) == ["fixations", "frames"]
                and all(isinstance(v, str) for v in r.values()) for r in recordings)):
            raise DataFormatError(f"{source}: recordings must be a list of "
                                  f"{{frames, fixations}} paths, got {recordings!r}")
        _checked(data, {f.name: f.type for f in fields(cls) if f.default is not MISSING},
                 source, "")
        if data.get("pool_scope", cls.pool_scope) not in POOL_SCOPES:
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
    if hasattr(args, "manifest"):
        # the eval parser keeps only the flags that were given, each under its
        # flag's name with "-" as "_"
        given = ["--" + name.replace("_", "-") for name in vars(args)
                 if name not in ("command", "func", "manifest", "out")]
        if given:
            raise ConfigurationError(f"--manifest re-runs the saved spec and takes no other "
                                     f"eval or model flag; got {', '.join(given)}")
        try:
            with open(args.manifest, encoding="utf-8") as f:
                data = json.load(f)
        except (ValueError, RecursionError):  # bad JSON or UTF-8, or nesting too deep
            raise DataFormatError(f"{args.manifest}: invalid manifest JSON") from None
        spec = EvalSpec.from_dict(data, args.manifest)
    else:
        spec = EvalSpec.from_args(args)
    model = load_model(spec.config, spec.weights, spec.seed)

    # Check every input before any output: load_frames checks each frame's
    # header and size, and each gaze log is parsed whole. Then each
    # observation is decoded, run, rendered, dumped and scored before the
    # next is decoded, so memory does not grow with the recording.
    checked = [(frames, *P.recording_frames(frames), P.load_fixations_csv(fixations))
               for frames, fixations in spec.recordings]

    out = P.nonempty_path(args.out, "--out")
    recordings = []
    for ri, (frames_path, frames, n_obs, records) in enumerate(checked):
        sal_maps = _saliency_maps(model, frames_path, frames)
        if spec.save_saliency:
            sal_maps = S.write_dumps(out / f"rec{ri}", sal_maps, spec.pgm)
        recordings.append((n_obs, map(S.upscale_to_frame, sal_maps), records))

    _score(out, recordings, spec.label, spec.game, spec.pool_scope, spec.sigma)
    _write_manifest(out, spec.to_dict())
    return 0


# -- gradcheck ----------------------------------------------------------------------

def _gradcheck_suite(seed: int, epsilon: float):
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.standard_normal(shape)

    checks = []

    kern_a = T.ConvKernel(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), stride=1, padding=1)
    kern_b = T.ConvKernel(rng.standard_normal((3, 2, 4, 4)).astype(np.float32), stride=2, padding=0)
    for tag, kern, shape in (("conv2d s1 p1", kern_a, (8, 8, 2)), ("conv2d s2 p0", kern_b, (8, 8, 2))):
        x = rand(shape)
        w = rand(T.conv2d(x, kern).shape)
        checks.append((tag, lambda x, k=kern: T.conv2d(x, k),
                       lambda x, u, k=kern: T.transposed_conv2d(u, k), x, w))

    for kind in (k for k in T.ACTIVATIONS if k != "identity"):
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
    _check_seed(args.seed)
    for flag, value in (("--eps", args.eps), ("--threshold", args.threshold)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"{flag} must be a finite number > 0, got {value!r}")
    with np.errstate(all="ignore"):  # an --eps that overflows gives a non-finite error: a FAIL
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
    columns = SUMMARY_CSV_HEADER.split(",")
    rows = []
    for run_dir in args.runs:
        path = P.nonempty_path(run_dir, "--runs") / "summary.csv"
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
            if len(fields) != len(columns):
                raise DataFormatError(f"{path}: malformed summary row {line!r}")
            rows.append(fields)

    table = [columns] + sorted(rows)
    widths = [max(map(len, column)) for column in zip(*table)]
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
    p.add_argument("--seed", type=int, default=EvalSpec.seed)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--upscale", action="store_true", help="export at 160x210 instead of 84x84")
    p.add_argument("--pgm", action="store_true", help="also write min-max normalized PGMs")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("metrics", help="score saved saliency maps against fixations")
    p.add_argument("--saliency", required=True, help="directory of sal_*.raw dumps")
    p.add_argument("--fixations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--game", default=EvalSpec.game)
    p.add_argument("--sigma", type=float, default=EvalSpec.sigma)
    p.set_defaults(func=cmd_metrics)

    # an eval flag that was not given is absent from args: EvalSpec and
    # ModelConfig hold the defaults, and --manifest can tell what was given
    p = sub.add_parser("eval", help="frames + fixations -> per-frame and summary CSVs",
                       argument_default=argparse.SUPPRESS)
    add_config_flags(p)
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--recording", nargs=2, metavar=("FRAMES", "FIXATIONS"), action="append")
    p.add_argument("--manifest", help="re-run from a saved manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--game")
    p.add_argument("--pool-scope", choices=POOL_SCOPES)
    p.add_argument("--sigma", type=float)
    p.add_argument("--save-saliency", action="store_true")
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
        with T.block_threads():
            return args.func(args)
    except (ConfigurationError, EvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
