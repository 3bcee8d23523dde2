import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atarisal import cli, metrics as M, models, preprocessing as P, saliency as S, tensor_ops as T
from atarisal import weights_io
from atarisal.errors import EvaluationError

from conftest import count_shared_runs, fake_blas, write_recording
from test_determinism import digests

SRC = Path(__file__).resolve().parents[1] / "src"
# a name holding each line break that str.splitlines cuts at, besides CR and LF
SPLITLINES_BREAKS = [f"a{c}b" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- params -------------------------------------------------------------------------

@pytest.mark.parametrize("argv,total", [
    (("--preset", "nature-cnn"), "1,686,693"),
    (("--preset", "daqn"), "130,726"),
    (("--preset", "rs-ppo"), "1,720,999"),
    (("--preset", "sparse-fls"), "1,836,710"),
    (("--preset", "sparse-fls", "--readout", "sum-pool"), "263,846"),
    (("--preset", "dense-fls"), "280,358"),
    (("--preset", "sparse-fls", "--placement", "first-conv"), "1,762,982"),
    (("--preset", "sparse-fls", "--placement", "each-conv"), "2,063,016"),
])
def test_params_totals(capsys, argv, total):
    rc, out, _ = run(capsys, "params", *argv)
    assert rc == 0
    assert total in out


def test_params_lists_every_layer(capsys):
    rc, out, _ = run(capsys, "params", "--preset", "sparse-fls")
    assert rc == 0
    for name in ("block.conv1", "block.conv2", "block.conv3", "attn.conv1",
                 "attn.conv2", "fc", "policy", "value", "total"):
        assert any(line.startswith(name) for line in out.splitlines())


PARAMS_STDOUT = json.loads((Path(__file__).parent / "data" / "params_stdout.json").read_text())
PARAMS_VARIANTS = {"default": (), "first-conv": ("--placement", "first-conv"),
                   "each-conv": ("--placement", "each-conv"), "sum-pool": ("--readout", "sum-pool")}


@pytest.mark.parametrize("case", sorted(PARAMS_STDOUT))
def test_params_table_bytes(capsys, case):
    # exit code and stdout of every preset with each variant, recorded once;
    # nature-cnn has no attention, so its placement variants are exit 1
    preset, variant = case.split()
    rc, out, _ = run(capsys, "params", "--preset", preset, *PARAMS_VARIANTS[variant])
    assert (rc, out) == (PARAMS_STDOUT[case]["exit"], PARAMS_STDOUT[case]["stdout"])


def test_invalid_action_count_is_exit_1(capsys):
    rc, _, err = run(capsys, "params", "--preset", "nature-cnn", "--actions", "0")
    assert rc == 1
    assert "error:" in err


def test_unknown_flag_is_exit_1(capsys):
    rc, _, err = run(capsys, "params", "--not-a-flag")
    assert rc == 1


def test_params_one_by_one_fls_attention_has_1x1_weights(capsys):
    rc, out, _ = run(capsys, "params", "--preset", "sparse-fls", "--attention", "fls-1x1")
    assert rc == 0
    shapes = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
    assert shapes["attn.conv1"] == "256x64x1x1" and shapes["attn.conv2"] == "1x256x1x1"


# -- gradcheck ----------------------------------------------------------------------

def test_gradcheck_negative_seed_is_exit_1(capsys):
    rc, out, err = run(capsys, "gradcheck", "--seed", "-1")
    assert rc == 1
    assert "--seed" in err and out == ""


def test_gradcheck_passes_at_default_epsilon(capsys):
    # every activation kind but identity is checked, in tensor_ops.ACTIVATIONS order
    rc, out, _ = run(capsys, "gradcheck")
    assert rc == 0
    *lines, last = out.splitlines()
    assert [line.split(" max_rel_err=")[0].rstrip() for line in lines] == [
        "conv2d s1 p1", "conv2d s2 p0", "softplus", "softplus2", "elu", "tanh", "relu",
        "spatial_softmax 1ch", "spatial_softmax 3ch", "l2_normalize_locations"]
    assert all(line.endswith("  PASS") for line in lines)
    assert last == "all 10 checks passed (threshold 0.0001)"


def test_gradcheck_fails_at_coarse_epsilon(capsys):
    # second-order truncation error at eps=0.1 blows past the 1e-4 threshold
    # for the curved ops, while the linear conv checks still pass
    rc, out, _ = run(capsys, "gradcheck", "--eps", "1e-1")
    assert rc == 3
    assert "FAIL" in out


def test_gradcheck_eps_that_overflows_is_a_fail_with_no_warning(capsys):
    # x +- 1e308 overflows in the forwards: the error is not finite, which
    # reads FAIL, and no RuntimeWarning (an error in this suite) escapes
    rc, out, err = run(capsys, "gradcheck", "--eps", "1e308")
    assert rc == 3
    assert "max_rel_err=nan  FAIL" in out and err == ""


@pytest.mark.parametrize("flag,value", [
    ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
    ("--threshold", "0"), ("--threshold", "-1"), ("--threshold", "nan"), ("--threshold", "inf"),
])
def test_gradcheck_rejects_a_non_positive_or_non_finite_flag(capsys, flag, value):
    rc, out, err = run(capsys, "gradcheck", flag, value)
    assert rc == 1
    assert flag in err
    assert "FAIL" not in out and "PASS" not in out


# -- preprocess ---------------------------------------------------------------------

def test_preprocess_writes_stacks_and_fixations(tmp_path, capsys):
    frames_dir, csv_path = write_recording(tmp_path, 32, seed=3)
    out = tmp_path / "proc"
    rc, stdout, _ = run(capsys, "preprocess", "--frames", str(frames_dir),
                        "--fixations", str(csv_path), "--out", str(out))
    assert rc == 0
    assert "wrote 2 observations" in stdout
    for i in range(2):
        obs = np.load(out / f"obs_{i:04d}.npy")
        assert obs.shape == (84, 84, 4) and obs.dtype == np.float32
        fix = np.load(out / f"fix_{i:04d}.npy")
        assert fix.shape == (210, 160)
    index = json.loads((out / "index.json").read_text())
    assert index["observations"] == 2
    assert index["retained_indices"][0] == [2, 3, 6, 7, 10, 11, 14, 15]
    assert index["rejected_fixations"] == 0


def test_preprocess_writes_a_manifest(tmp_path, capsys):
    frames_dir, csv_path = write_recording(tmp_path, 16, seed=3)
    out = tmp_path / "proc"
    assert run(capsys, "preprocess", "--frames", str(frames_dir),
               "--fixations", str(csv_path), "--out", str(out))[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["frames"] == str(frames_dir)
    assert manifest["fixations"] == str(csv_path)


def test_preprocess_reports_out_of_bounds_fixations(tmp_path, capsys):
    frames_dir, csv_path = write_recording(tmp_path, 32, seed=4)
    with open(csv_path, "a") as f:  # and two on frames no observation retains: not counted
        f.write("2,500,10\n2,10,300\n0,500,10\n99999,500,10\n")
    out = tmp_path / "proc"
    rc, stdout, _ = run(capsys, "preprocess", "--frames", str(frames_dir),
                        "--fixations", str(csv_path), "--out", str(out))
    assert rc == 0
    assert "skipped 2 out-of-bounds fixation records" in stdout
    assert json.loads((out / "index.json").read_text())["rejected_fixations"] == 2


def test_preprocess_fewer_than_16_frames_is_exit_2(tmp_path, capsys):
    frames_dir, csv_path = write_recording(tmp_path, 15, seed=3)
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(frames_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert "fewer than 16 frames" in err
    assert not out.exists()


def test_preprocess_non_utf8_rgb_sidecar_is_exit_2(tmp_path, capsys):
    rgb = tmp_path / "rec.rgb"
    rgb.write_bytes(bytes(16 * 160 * 210 * 3))
    (tmp_path / "rec.rgb.json").write_bytes(b'{"frames": 16, "width": 160, "height": 210, '
                                            b'"note": "\xff"}')
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(rgb), "--out", str(out))
    assert rc == 2
    assert "rec.rgb.json" in err
    assert not out.exists()


def test_preprocess_missing_frames_is_exit_2(tmp_path, capsys):
    rc, _, err = run(capsys, "preprocess", "--frames", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "error:" in err


def test_preprocess_negative_rgb_sidecar_is_exit_2(tmp_path, capsys):
    # the product of the three sizes still matches the payload
    rgb = tmp_path / "rec.rgb"
    rgb.write_bytes(bytes(16 * 160 * 210 * 3))
    (tmp_path / "rec.rgb.json").write_text('{"frames": -16, "width": -160, "height": 210}')
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(rgb), "--out", str(out))
    assert rc == 2
    assert "rec.rgb.json" in err
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [
    {"frames": 16.7, "width": 160.0, "height": "210"},
    {"frames": 16.0, "width": 160, "height": 210},
    {"frames": 16, "width": "160", "height": 210},
    {"frames": True, "width": 160, "height": 210},
], ids=["all", "float", "string", "bool"])
def test_preprocess_rgb_sidecar_sizes_must_be_json_integers(tmp_path, capsys, sidecar):
    # int() would truncate 16.7 and read "160", and True is the integer 1
    rgb = tmp_path / "rec.rgb"
    rgb.write_bytes(bytes(16 * 160 * 210 * 3))
    (tmp_path / "rec.rgb.json").write_text(json.dumps(sidecar))
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(rgb), "--out", str(out))
    assert rc == 2
    assert f"{rgb}.json: sidecar needs an integer" in err
    assert not out.exists()


def test_preprocess_negative_ppm_size_is_exit_2(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    (frames_dir / "frame_00000.ppm").write_bytes(b"P6\n-160 -210\n255\n" + bytes(160 * 210 * 3))
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(frames_dir), "--out", str(out))
    assert rc == 2
    assert "frame_00000.ppm" in err
    assert not out.exists()


@pytest.mark.parametrize("header,message", [
    (b"P3\n160 210\n255\n", "not a binary P6 PPM"),
    (b"P6\n160 2l0\n255\n", "malformed PPM header"),
    (b"P6\n160 210", "truncated PPM header"),
], ids=["not-p6", "malformed", "cut-in-header"])
def test_preprocess_bad_ppm_header_is_exit_2(tmp_path, capsys, header, message):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    path = frames_dir / "frame_00000.ppm"
    path.write_bytes(header)
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(frames_dir), "--out", str(out))
    assert rc == 2
    assert f"{path}: {message}" in err
    assert not out.exists()


# -- saliency -----------------------------------------------------------------------

def test_saliency_exports(tmp_path, capsys, recording_32):
    frames_dir, _ = recording_32
    out = tmp_path / "sal"
    rc, stdout, _ = run(capsys, "saliency", "--preset", "sparse-fls",
                        "--frames", str(frames_dir), "--out", str(out), "--pgm")
    assert rc == 0
    assert "rendered 2 saliency maps" in stdout
    sal = S.load_raw_saliency(str(out / "sal_0000.raw"))
    assert sal.shape == (84, 84)
    assert (out / "sal_0000.pgm").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "saliency"
    assert manifest["model"]["label"] == "sparse-fls"


def test_saliency_upscale_exports_frame_size(tmp_path, capsys, recording_32):
    frames_dir, _ = recording_32
    out = tmp_path / "sal"
    rc, _, _ = run(capsys, "saliency", "--preset", "dense-fls",
                   "--frames", str(frames_dir), "--out", str(out), "--upscale")
    assert rc == 0
    assert S.load_raw_saliency(str(out / "sal_0001.raw")).shape == (210, 160)


def test_saliency_without_attention_renders_zeros(tmp_path, capsys, recording_32):
    frames_dir, _ = recording_32
    out = tmp_path / "sal"
    rc, _, _ = run(capsys, "saliency", "--preset", "nature-cnn",
                   "--frames", str(frames_dir), "--out", str(out))
    assert rc == 0
    assert S.load_raw_saliency(str(out / "sal_0000.raw")).sum() == 0.0


# -- metrics ------------------------------------------------------------------------

def test_metrics_scores_saved_maps(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    sal_dir = tmp_path / "sal"
    assert run(capsys, "saliency", "--preset", "sparse-fls",
               "--frames", str(frames_dir), "--out", str(sal_dir))[0] == 0
    out = tmp_path / "scores"
    rc, stdout, _ = run(capsys, "metrics", "--saliency", str(sal_dir),
                        "--fixations", str(csv_path), "--out", str(out),
                        "--game", "breakout")
    assert rc == 0
    frame_lines = (out / "frames_rec0.csv").read_text().splitlines()
    assert frame_lines[0] == "frame,nss,kl,sauc,valid_nss,valid_kl,valid_sauc"
    assert len(frame_lines) == 3
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "model,game,metric,mean,std,n"
    assert all(line.startswith("external,breakout,") for line in summary_lines[1:])
    assert [line.split(",")[2] for line in summary_lines[1:]] == ["nss", "kl", "sauc"]


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "70.001", "1e300", "1e308"])
def test_metrics_rejects_bad_sigma(tmp_path, capsys, recording_32, sigma):
    frames_dir, csv_path = recording_32
    sal_dir = tmp_path / "sal"
    assert run(capsys, "saliency", "--preset", "sparse-fls",
               "--frames", str(frames_dir), "--out", str(sal_dir))[0] == 0
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out), "--sigma", sigma)
    assert rc == 1
    assert "--sigma" in err
    assert not out.exists()


def test_metrics_rejects_nan_in_saliency_dump(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    sal_dir = tmp_path / "sal"
    assert run(capsys, "saliency", "--preset", "sparse-fls",
               "--frames", str(frames_dir), "--out", str(sal_dir))[0] == 0
    sal = S.load_raw_saliency(str(sal_dir / "sal_0001.raw"))
    sal[10, 10] = np.nan
    S.save_raw_saliency(str(sal_dir / "sal_0001.raw"), sal)
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert "sal_0001.raw" in err
    assert not (out / "summary.csv").exists()


# a single negative cell, which the upscale would smooth away, is rejected
# when the dump is read, as a negative block is
@pytest.mark.parametrize("cells", [np.s_[10, 10], np.s_[10:20, 10:20]], ids=["cell", "block"])
def test_metrics_rejects_negative_saliency_dump(tmp_path, capsys, cells):
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 48)
    sal = S.load_raw_saliency(str(sal_dir / "sal_0001.raw"))
    sal[cells] = -1e-3
    S.save_raw_saliency(str(sal_dir / "sal_0001.raw"), sal)
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert "sal_0001.raw: saliency contains negative values" in err
    assert not out.exists()


def test_metrics_negative_saliency_sidecar_is_exit_2(tmp_path, capsys):
    # (-84) x (-84) still matches the 7056 values of the dump
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 32)
    (sal_dir / "sal_0000.raw.json").write_text('{"width": -84, "height": -84}')
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert "sal_0000.raw.json" in err
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [{"width": 84.9, "height": 84}, {"width": "84", "height": 84},
                                     {"width": 84, "height": True}],
                         ids=["float", "string", "bool"])
def test_metrics_saliency_sidecar_sizes_must_be_json_integers(tmp_path, capsys, sidecar):
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 32)
    (sal_dir / "sal_0001.raw.json").write_text(json.dumps(sidecar))
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert f"{sal_dir / 'sal_0001.raw.json'}: sidecar needs an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["sparse-fls", "dense-fls"])
def test_metrics_on_eval_dumps_reproduces_eval_scores(tmp_path, capsys, recording_32, preset):
    # eval and metrics share one scoring path, so re-scoring eval's own dumps
    # must give its per-frame CSV byte for byte
    frames_dir, csv_path = recording_32
    run_dir = tmp_path / "run"
    assert run(capsys, "eval", "--preset", preset, "--save-saliency",
               "--recording", str(frames_dir), str(csv_path), "--out", str(run_dir))[0] == 0
    assert sorted(p.name for p in (run_dir / "rec0").glob("sal_*.raw")) == \
        ["sal_0000.raw", "sal_0001.raw"]
    out = tmp_path / "scores"
    assert run(capsys, "metrics", "--saliency", str(run_dir / "rec0"),
               "--fixations", str(csv_path), "--out", str(out))[0] == 0
    assert (out / "frames_rec0.csv").read_bytes() == (run_dir / "frames_rec0.csv").read_bytes()


def test_metrics_scores_frame_size_dumps_as_upscaled_ones(tmp_path, capsys):
    # load_dump upscales an 84x84 dump and returns a 210x160 one as it is;
    # saliency --upscale writes that same upscale ahead of time.
    # Both score as eval scores its own upscale, whatever the memory layout
    # of each: on this recording, float64 sums over a 210x160 dump in its
    # row-major layout differ from eval's in the last bit
    frames_dir, csv_path = write_recording(tmp_path / "rec", 48, seed=12)
    run_dir = tmp_path / "run"
    assert run(capsys, "eval", "--preset", "sparse-fls",
               "--recording", str(frames_dir), str(csv_path), "--out", str(run_dir))[0] == 0
    outputs = []
    for tag, extra in (("84", []), ("210", ["--upscale"])):
        assert run(capsys, "saliency", "--preset", "sparse-fls", "--frames", str(frames_dir),
                   "--out", str(tmp_path / f"sal{tag}"), *extra)[0] == 0
        out = tmp_path / f"scores{tag}"
        assert run(capsys, "metrics", "--saliency", str(tmp_path / f"sal{tag}"),
                   "--fixations", str(csv_path), "--out", str(out))[0] == 0
        outputs.append([(out / name).read_bytes() for name in ("frames_rec0.csv", "summary.csv")])
    assert outputs[0] == outputs[1]
    assert outputs[1][0] == (run_dir / "frames_rec0.csv").read_bytes()


def test_fixations_on_discarded_frames_are_counted(tmp_path, capsys, recording_32):
    # 32 frames x 3 fixations: the retention schedule keeps offsets 2-3 of
    # each group of 4, so half of the 96 records land on discarded frames
    frames_dir, csv_path = recording_32
    line = "rec0: 48 fixation records on discarded raw frames skipped"
    run_dir = tmp_path / "run"
    rc, stdout, _ = run(capsys, "eval", "--preset", "sparse-fls", "--save-saliency",
                        "--recording", str(frames_dir), str(csv_path), "--out", str(run_dir))
    assert rc == 0 and line in stdout
    assert (run_dir / "log.txt").read_text().splitlines()[:2] == [
        "rec0: 2 observations, 0 out-of-bounds fixation records skipped", line]
    out = tmp_path / "scores"
    rc, stdout, _ = run(capsys, "metrics", "--saliency", str(run_dir / "rec0"),
                        "--fixations", str(csv_path), "--out", str(out))
    assert rc == 0 and line in stdout
    assert line in (out / "log.txt").read_text().splitlines()


def saliency_dumps(tmp_path, capsys, n_frames):
    """The 84x84 dumps of a sparse-fls `saliency` run on an n_frames recording."""
    frames_dir, csv_path = write_recording(tmp_path / "rec", n_frames, seed=12)
    sal_dir = tmp_path / "sal"
    assert run(capsys, "saliency", "--preset", "sparse-fls",
               "--frames", str(frames_dir), "--out", str(sal_dir))[0] == 0
    return sal_dir, csv_path


def test_metrics_dump_of_another_size_is_exit_2(tmp_path, capsys):
    # only 84x84 and 210x160 dumps are scored
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 32)
    S.save_raw_saliency(str(sal_dir / "sal_0001.raw"), np.zeros((100, 100), np.float32))
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert f"{sal_dir / 'sal_0001.raw'}: unexpected saliency shape (100, 100)" in err
    assert not out.exists()


def test_metrics_missing_middle_dump_is_exit_2(tmp_path, capsys):
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 48)
    (sal_dir / "sal_0001.raw").unlink()
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert "sal_0001.raw" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["sal_x.raw", "sal_.raw", "sal_1.raw"])
def test_metrics_dump_without_a_fresh_index_is_exit_2(tmp_path, capsys, name):
    # sal_1.raw repeats the index of sal_0001.raw
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 32)
    S.save_raw_saliency(str(sal_dir / name), S.load_raw_saliency(str(sal_dir / "sal_0000.raw")))
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert name in err
    assert not out.exists()


def test_metrics_memory_in_use_does_not_grow_with_the_dump_count(tmp_path, capsys, monkeypatch):
    # each dump is read, checked and scored before the next is read, so at the
    # last frame's scoring 64 dumps hold what 8 do: no map of an earlier one
    rng = np.random.default_rng(4)
    n_dumps = 64
    csv_path = tmp_path / "fixations.csv"
    P.save_fixations_csv(str(csv_path), [(i, int(x), int(y)) for i in range(
        n_dumps * P.RAW_PER_OBSERVATION) for x, y in rng.integers(0, 160, size=(4, 2))])
    score_frame = M.score_frame
    in_use = []

    def sampled(*args, **kwargs):
        in_use.append(tracemalloc.get_traced_memory()[0])
        return score_frame(*args, **kwargs)

    monkeypatch.setattr(M, "score_frame", sampled)
    at_last_score = []
    for count in (8, n_dumps):
        sal_dir = tmp_path / f"sal{count}"
        sal_dir.mkdir()
        for i in range(count):
            S.save_raw_saliency(str(sal_dir / f"sal_{i:04d}.raw"),
                                rng.random((models.INPUT_SIZE, models.INPUT_SIZE)))
        in_use.clear()
        tracemalloc.start()
        try:
            rc = cli.main(["metrics", "--saliency", str(sal_dir), "--fixations", str(csv_path),
                           "--out", str(tmp_path / f"scores{count}")])
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(in_use) == count
        at_last_score.append(in_use[-1])
    capsys.readouterr()
    assert abs(at_last_score[1] - at_last_score[0]) < 0.25 * 2**20


def test_score_holds_less_than_the_gaze_rows_it_scores(tmp_path, capsys):
    # the records are bucketed through one argsort and counted through masks:
    # what stays after bucketing is the order, and no copy of the rows is made
    rng = np.random.default_rng(5)
    n_rows, n_obs = 2**20, 16
    rows = np.stack([rng.integers(0, n_obs * P.RAW_PER_OBSERVATION, n_rows),
                     rng.integers(-5, 165, n_rows), rng.integers(-5, 215, n_rows)], axis=1)
    maps = [rng.random((P.FRAME_HEIGHT, P.FRAME_WIDTH)) for _ in range(n_obs)]
    tracemalloc.start()
    try:
        fix_maps = P.fixation_maps(rows, n_obs)
        next(fix_maps)  # after the argsort and its cuts, one map has been made
        after_bucketing = tracemalloc.get_traced_memory()[0]
        del fix_maps
        tracemalloc.reset_peak()
        cli._score(tmp_path / "scores", [(n_obs, maps, rows)], "m", "g", "recording",
                   M.DEFAULT_SIGMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert after_bucketing <= 0.4 * rows.nbytes, (after_bucketing, rows.nbytes)
    assert peak < rows.nbytes, (peak, rows.nbytes)


def test_dump_files_are_ordered_by_index(tmp_path):
    for i in range(12):
        (tmp_path / f"sal_{i}.raw").write_bytes(b"")
    # name order would put sal_10 and sal_11 before sal_2
    assert [p.name for p in S.dump_files(str(tmp_path))] == \
        [f"sal_{i}.raw" for i in range(12)]


def test_metrics_empty_dir_is_exit_2(tmp_path, capsys, recording_32):
    _, csv_path = recording_32
    empty = tmp_path / "empty"
    empty.mkdir()
    rc, _, _ = run(capsys, "metrics", "--saliency", str(empty),
                   "--fixations", str(csv_path), "--out", str(tmp_path / "o"))
    assert rc == 2


# -- eval ---------------------------------------------------------------------------

def read_outputs(out):
    return ((out / "frames_rec0.csv").read_bytes(), (out / "summary.csv").read_bytes(),
            (out / "manifest.json").read_bytes())


def test_eval_end_to_end(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    rc, stdout, _ = run(capsys, "eval", "--preset", "sparse-fls",
                        "--recording", str(frames_dir), str(csv_path),
                        "--out", str(out), "--game", "seaquest")
    assert rc == 0
    frame_lines = (out / "frames_rec0.csv").read_text().splitlines()
    assert frame_lines[0] == cli.FRAME_CSV_HEADER
    assert len(frame_lines) == 3
    for line in frame_lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        for value, flag in zip(fields[1:4], fields[4:7]):
            assert (value == "") == (flag == "0")
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == cli.SUMMARY_CSV_HEADER
    assert summary_lines[1].startswith("sparse-fls,seaquest,nss,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "eval"
    assert manifest["model"]["config"]["attention"] == "fls"
    assert (out / "log.txt").read_text().startswith("rec0: 2 observations")


# nature-cnn has no attention, so every map it renders is all zeros; the only
# fixations of the second case are on the retained frames of observation 0,
# so its sAUC has no negatives and the other two observations no fixations
@pytest.mark.parametrize("preset,fixations,undefined", [
    ("nature-cnn", None, ["rec0: 3 frames undefined for nss: zero-variance-saliency"]),
    ("sparse-fls", [(2, 50, 60), (3, 51, 61)], [
        "rec0: 2 frames undefined for nss: no-fixations",
        "rec0: 2 frames undefined for kl: no-fixations",
        "rec0: 2 frames undefined for sauc: no-fixations",
        "rec0: 1 frames undefined for sauc: no-negatives"]),
], ids=["constant-maps", "few-fixations"])
def test_log_counts_undefined_frames_by_reason(tmp_path, capsys, preset, fixations, undefined):
    frames_dir, csv_path = write_recording(tmp_path / "rec", 48, seed=3)
    if fixations is not None:
        P.save_fixations_csv(str(csv_path), fixations)
    out = tmp_path / "run"
    rc, stdout, _ = run(capsys, "eval", "--preset", preset,
                        "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 0
    assert [line for line in (out / "log.txt").read_text().splitlines()
            if "undefined" in line] == undefined
    assert all(line in stdout for line in undefined)


def test_manifests_label_a_config_without_a_preset_custom(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    assert run(capsys, "saliency", "--frames", str(frames_dir),
               "--out", str(tmp_path / "sal"))[0] == 0
    assert run(capsys, "eval", "--recording", str(frames_dir), str(csv_path),
               "--out", str(tmp_path / "run"))[0] == 0
    for out in ("sal", "run"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["model"]["label"] == "custom"


def test_eval_manifest_rerun_reproduces_outputs(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    out1 = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", "dense-fls",
               "--recording", str(frames_dir), str(csv_path),
               "--out", str(out1))[0] == 0
    out2 = tmp_path / "run2"
    assert run(capsys, "eval", "--manifest", str(out1 / "manifest.json"),
               "--out", str(out2))[0] == 0
    assert read_outputs(out1) == read_outputs(out2)


def test_eval_manifest_rejects_other_run_flags(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    out1 = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", "daqn",
               "--recording", str(frames_dir), str(csv_path), "--out", str(out1))[0] == 0
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(out1 / "manifest.json"),
                     "--sigma", "1", "--preset", "dense-fls", "--out", str(out2))
    assert rc == 1
    assert "--sigma" in err and "--preset" in err
    assert not out2.exists()


@pytest.mark.parametrize("flags,named", [
    (("--sigma", "5"), "--sigma"),
    (("--seed", "0"), "--seed"),
    (("--game", "unlabeled"), "--game"),
    (("--pool-scope", "recording"), "--pool-scope"),
    (("--sigma", "5", "--no-final-relu", "--l2-norm", "--actions", "6"),
     "--sigma, --no-final-relu, --l2-norm, --actions"),
], ids=["sigma", "seed", "game", "pool-scope", "as-typed"])
def test_eval_manifest_rejects_a_flag_given_at_its_default(tmp_path, capsys, recording_32,
                                                           flags, named):
    frames_dir, csv_path = recording_32
    out1 = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", "sparse-fls",
               "--recording", str(frames_dir), str(csv_path), "--out", str(out1))[0] == 0
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(out1 / "manifest.json"), *flags,
                     "--out", str(out2))
    assert rc == 1
    assert f"got {named}\n" in err
    assert not out2.exists()


def test_eval_does_not_depend_on_fixation_row_order(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    header, *rows = csv_path.read_text().splitlines()
    reversed_csv = tmp_path / "reversed.csv"
    reversed_csv.write_text("\n".join([header, *reversed(rows)]) + "\n")
    outs = []
    for tag, fixations in (("forward", csv_path), ("reversed", reversed_csv)):
        out = tmp_path / tag
        assert run(capsys, "eval", "--preset", "sparse-fls",
                   "--recording", str(frames_dir), str(fixations), "--out", str(out))[0] == 0
        outs.append([(out / name).read_bytes()
                     for name in ("frames_rec0.csv", "summary.csv", "log.txt")])
    assert outs[0] == outs[1]


def test_fixations_outside_every_observation_are_discarded(tmp_path, capsys, recording_32):
    # frame -1 and frame 32 lie outside the two observations of 32 frames; their
    # out-of-bounds coordinates must not count them as rejects either
    frames_dir, csv_path = recording_32
    with open(csv_path, "a") as f:
        f.write("-1,500,10\n32,10,900\n")
    out = tmp_path / "run"
    assert run(capsys, "eval", "--preset", "sparse-fls",
               "--recording", str(frames_dir), str(csv_path), "--out", str(out))[0] == 0
    assert (out / "log.txt").read_text().splitlines()[:2] == [
        "rec0: 2 observations, 0 out-of-bounds fixation records skipped",
        "rec0: 50 fixation records on discarded raw frames skipped"]


def test_eval_two_recordings_and_shared_pool(tmp_path, capsys):
    fr1, fx1 = write_recording(tmp_path / "r1", 32, seed=21)
    fr2, fx2 = write_recording(tmp_path / "r2", 32, seed=22)
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "eval", "--preset", "sparse-fls",
                   "--recording", str(fr1), str(fx1),
                   "--recording", str(fr2), str(fx2),
                   "--out", str(out), "--pool-scope", "all")
    assert rc == 0
    assert (out / "frames_rec0.csv").is_file() and (out / "frames_rec1.csv").is_file()
    n_values = [line.split(",")[5] for line in
                (out / "summary.csv").read_text().splitlines()[1:]]
    assert n_values == ["4", "4", "4"]


def test_eval_requires_recording(tmp_path, capsys):
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", "--out", str(tmp_path / "o"))
    assert rc == 1
    assert "recording" in err


def test_eval_corrupt_fixations_writes_nothing(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    csv_path.write_text("x,y\n1,2\n")
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "eval", "--preset", "sparse-fls",
                   "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 2
    assert not (out / "summary.csv").exists()
    assert not (out / "frames_rec0.csv").exists()


def eval_frames(capsys, tmp_path, frames, csv_path, *flags):
    """(exit code, stderr, out dir) of a sparse-fls eval of frames and csv_path."""
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", *flags,
                     "--recording", str(frames), str(csv_path), "--out", str(out))
    return rc, err, out


def test_eval_ppm_header_larger_than_its_file_is_exit_2(tmp_path, capsys, recording_32):
    # the size is checked against the file, so nothing of 30 GB is allocated
    frames_dir, csv_path = recording_32
    (frames_dir / "frame_00005.ppm").write_bytes(b"P6 100000 100000 255\n" + bytes(4))
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 2
    assert f"{frames_dir / 'frame_00005.ppm'}: truncated PPM payload" in err
    assert not out.exists()


@pytest.mark.parametrize("index", [16, 32], ids=["discarded", "incomplete-tail"])
def test_eval_truncated_unused_frame_is_exit_2(tmp_path, capsys, recording_32, index):
    # frame 16 is offset 0 of a group and frame 32 is past the last
    # observation: neither is decoded, but both are checked before any output
    frames_dir, csv_path = recording_32
    path = frames_dir / f"frame_{index:05d}.ppm"
    P.save_ppm(str(path), np.zeros((P.FRAME_HEIGHT, P.FRAME_WIDTH, 3), np.uint8))
    path.write_bytes(path.read_bytes()[:-1])
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 2
    assert f"{path}: truncated PPM payload" in err
    assert not out.exists()


def test_eval_wrong_size_retained_frame_is_exit_2(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    P.save_ppm(str(frames_dir / "frame_00018.ppm"), np.zeros((100, 100, 3), np.uint8))
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 2
    assert "frame 18: expected 210x160x3, got (100, 100, 3)" in err
    assert not out.exists()


@pytest.mark.parametrize("index", [0, 32], ids=["discarded", "incomplete-tail"])
def test_eval_wrong_size_unused_frame_is_exit_2(tmp_path, capsys, recording_32, index):
    # frame 0 is discarded by the retention schedule, and frame 32 starts a
    # tail too short for an observation; neither is ever decoded
    frames_dir, csv_path = recording_32
    path = frames_dir / f"frame_{index:05d}.ppm"
    P.save_ppm(str(path), np.zeros((100, 100, 3), np.uint8))
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 2
    assert f"{path}: frame {index}: expected 210x160x3, got (100, 100, 3)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_wrong_size_rgb_sidecar_is_exit_2_naming_the_file(tmp_path, capsys, command):
    rgb = tmp_path / "rec.rgb"
    P.save_raw_rgb(str(rgb), [np.zeros((100, 100, 3), np.uint8)] * 16)
    csv_path = tmp_path / "fixations.csv"
    P.save_fixations_csv(str(csv_path), [(0, 10, 10)])
    inputs = (["--recording", str(rgb), str(csv_path)] if command == "eval"
              else ["--frames", str(rgb)])
    out = tmp_path / "run"
    rc, _, err = run(capsys, command, "--preset", "sparse-fls", *inputs, "--out", str(out))
    assert rc == 2
    assert f"{rgb}: expected 210x160x3 frames, the sidecar gives (100, 100, 3)" in err
    assert not out.exists()


def test_eval_rgb_input_matches_ppm_input(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    rgb = tmp_path / "frames.rgb"
    P.save_raw_rgb(str(rgb), list(P.load_frames(str(frames_dir))))
    outputs = []
    for tag, frames in (("ppm", frames_dir), ("rgb", rgb)):
        rc, _, out = eval_frames(capsys, tmp_path / tag, frames, csv_path)
        assert rc == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("frames_rec0.csv", "summary.csv", "log.txt")])
    assert outputs[0] == outputs[1]


def test_eval_memory_stays_below_a_quarter_of_the_decoded_recording(tmp_path, capsys):
    # every frame is checked but only the retained half is decoded, one frame
    # at a time; what stays per observation is one stack, then one 84x84 map
    n_frames = 320
    frames_dir, csv_path = write_recording(tmp_path, n_frames, seed=13)
    decoded = n_frames * P.FRAME_HEIGHT * P.FRAME_WIDTH * 3
    tracemalloc.start()
    try:
        rc = cli.main(["eval", "--preset", "daqn", "--recording", str(frames_dir),
                       str(csv_path), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < decoded / 4


def test_eval_memory_in_use_does_not_grow_with_the_recording(tmp_path, capsys, monkeypatch):
    # each observation is decoded, run, rendered, dumped and scored before
    # the next one is decoded, so at the last forward a 512-frame recording
    # holds what a 64-frame one does: no stack or map of an earlier one
    weights = tmp_path / "w.flsw"
    weights_io.save_model(str(weights), models.build_model(models.PRESETS["sparse-fls"], 3))
    forward = models.Model.forward
    in_use = []

    def sampled(model, obs):
        in_use.append(tracemalloc.get_traced_memory()[0])
        return forward(model, obs)

    monkeypatch.setattr(models.Model, "forward", sampled)
    at_last_forward = []
    for n_frames in (64, 512):
        frames_dir, csv_path = write_recording(tmp_path / f"rec{n_frames}", n_frames, seed=7)
        in_use.clear()
        tracemalloc.start()
        try:
            rc = cli.main(["eval", "--preset", "sparse-fls", "--weights", str(weights),
                           "--recording", str(frames_dir), str(csv_path),
                           "--out", str(tmp_path / f"run{n_frames}"), "--save-saliency"])
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(in_use) == n_frames // P.RAW_PER_OBSERVATION
        at_last_forward.append(in_use[-1])
    capsys.readouterr()
    assert abs(at_last_forward[1] - at_last_forward[0]) < 0.25 * 2**20


def test_eval_frame_truncated_after_its_check_is_exit_2(tmp_path, capsys, monkeypatch,
                                                         recording_32):
    # a retained frame of observation 1 shrinks after load_frames checked it:
    # it is read when observation 0 is already scored, so output has begun,
    # and the run still ends in the truncation error naming the file
    frames_dir, csv_path = recording_32
    path = frames_dir / "frame_00018.ppm"
    load_frames = P.load_frames

    def load_then_truncate(frames_path):
        frames = load_frames(frames_path)
        path.write_bytes(path.read_bytes()[:-1])
        return frames

    monkeypatch.setattr(P, "load_frames", load_then_truncate)
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path, "--save-saliency")
    assert rc == 2
    assert f"{path}: truncated PPM payload" in err
    assert (out / "rec0" / "sal_0000.raw").exists()
    assert not (out / "summary.csv").exists()


# -- BLAS and block threads --------------------------------------------------------

OBS = np.random.default_rng(8).random((84, 84, 4)).astype(np.float32)


@pytest.mark.parametrize("config,worker_counts", [
    *((models.PRESETS[name], [3] * 4 if name == "dense-fls" else []) for name in sorted(models.PRESETS)),
    (models.ModelConfig(attention="fls", placement="each-conv"), [3, 2]),
    (models.ModelConfig(block="dense", readout="sum-pool"), []),
], ids=[*sorted(models.PRESETS), "sparse-fls-each-conv", "dense-no-attention"])
def test_small_forwards_run_on_one_blas_thread(monkeypatch, config, worker_counts):
    # every forward, small or large, runs on one BLAS thread; the count found
    # is the block-worker count and is put back afterwards. Dense block
    # layers have 12-84 row blocks and share them among all 3 workers, and
    # dense-fls's attention module streams a third of its rows on each; of
    # the sparse layers only each-conv's attn1.conv2 (10 blocks, on 3
    # workers) and attn2.conv2 (2 blocks, on 2) have more than one block,
    # and every other runs serially. A model with no attention module reads
    # no layer, so its forward runs none
    calls, state = fake_blas(monkeypatch, 3)
    shared = count_shared_runs(monkeypatch)
    model = models.build_model(config, 0)
    with T.block_threads():
        assert state["threads"] == 1
        assert T._WORKERS.get() == 3
        model.forward(OBS)
    assert calls == [1, 3]
    assert state["threads"] == 3
    assert T._WORKERS.get() == 1
    assert shared == worker_counts


def test_blas_threads_read_the_count_each_time(monkeypatch):
    # a count someone else set in between is the one put back, and is the
    # next block-worker count
    calls, state = fake_blas(monkeypatch, 3)
    workers = []
    for _ in range(2):
        with T.block_threads():
            workers.append(T._WORKERS.get())
        state["threads"] = 2
    assert calls == [1, 3, 1, 2]
    assert workers == [3, 2]


def test_blas_threads_never_raise_a_count_of_one(monkeypatch):
    calls, _ = fake_blas(monkeypatch, 1)
    with T.block_threads():
        assert T._WORKERS.get() == 1
    assert calls == []


def test_blas_threads_are_put_back_after_an_error(monkeypatch):
    calls, state = fake_blas(monkeypatch, 2)
    with pytest.raises(EvaluationError):
        with T.block_threads():
            raise EvaluationError("boom")
    assert calls == [1, 2]
    assert T._WORKERS.get() == 1


def test_blas_threads_without_a_known_library_set_nothing(tmp_path, capsys, monkeypatch,
                                                          recording_32):
    assert T._openblas_thread_functions(tmp_path) is None
    frames_dir, csv_path = recording_32
    rc, _, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 0
    monkeypatch.setattr(T, "_openblas_thread_functions", lambda: None)
    rc, _, again = eval_frames(capsys, tmp_path / "again", frames_dir, csv_path)
    assert rc == 0
    assert digests(again) == digests(out)


@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_commands_set_the_blas_threads_once(tmp_path, capsys, monkeypatch, recording_32,
                                            command):
    # one count for the whole run, in effect at every forward, not one per
    # conv product
    calls, state = fake_blas(monkeypatch, 2)
    forward = models.Model.forward
    seen = []

    def counted(model, obs):
        seen.append(state["threads"])
        return forward(model, obs)

    monkeypatch.setattr(models.Model, "forward", counted)
    frames_dir, csv_path = recording_32
    if command == "eval":
        rc, _, _ = eval_frames(capsys, tmp_path, frames_dir, csv_path, "--save-saliency")
    else:
        rc, _, _ = run(capsys, "saliency", "--preset", "sparse-fls", "--frames", str(frames_dir),
                       "--out", str(tmp_path / "sal"))
    assert rc == 0
    assert calls == [1, 2]
    assert seen == [1, 1]


def test_every_command_puts_the_blas_count_back(tmp_path, capsys, monkeypatch, recording_32):
    # main runs every command, whatever its exit code, with OpenBLAS on one
    # thread and the count it found as the block-worker count, then puts
    # that count back
    frames_dir, csv_path = recording_32
    frames, fixations = str(frames_dir), str(csv_path)
    sal, run_dir = str(tmp_path / "sal"), str(tmp_path / "run")
    commands = [
        (0, "params", "--preset", "sparse-fls"),
        (0, "preprocess", "--frames", frames, "--fixations", fixations,
         "--out", str(tmp_path / "proc")),
        (0, "saliency", "--preset", "sparse-fls", "--frames", frames, "--out", sal),
        (0, "metrics", "--saliency", sal, "--fixations", fixations,
         "--out", str(tmp_path / "scores")),
        (0, "eval", "--preset", "sparse-fls", "--recording", frames, fixations, "--out", run_dir),
        (0, "gradcheck"),
        (0, "report", "--runs", run_dir),
        (1, "metrics", "--saliency", sal, "--fixations", fixations,
         "--out", str(tmp_path / "bad-sigma"), "--sigma", "-1"),
        (2, "preprocess", "--frames", str(tmp_path / "missing"), "--fixations", fixations,
         "--out", str(tmp_path / "missing-proc")),
    ]
    for rc, *argv in commands:
        calls, state = fake_blas(monkeypatch, 3)
        assert run(capsys, *argv)[0] == rc, argv
        assert calls == [1, 3], argv
        assert state["threads"] == 3
        assert T._WORKERS.get() == 1


@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_no_thread_outlives_the_command(tmp_path, capsys, monkeypatch, recording_32, command):
    # each dense-fls block layer, and its attention module's streamed rows,
    # are shared with a thread that it starts and joins itself, so no block
    # thread is alive between forwards or after the command
    fake_blas(monkeypatch, 2)
    shared = count_shared_runs(monkeypatch)
    forward = models.Model.forward
    during = []

    def counted(model, obs):
        during.append(set(threading.enumerate()))
        return forward(model, obs)

    monkeypatch.setattr(models.Model, "forward", counted)
    before = set(threading.enumerate())
    frames_dir, csv_path = recording_32
    inputs = (["--recording", str(frames_dir), str(csv_path)] if command == "eval"
              else ["--frames", str(frames_dir)])
    rc, _, _ = run(capsys, command, "--preset", "dense-fls", *inputs,
                   "--out", str(tmp_path / "run"))
    assert rc == 0
    assert len(during) == 2 and all(threads == before for threads in during)
    assert shared == [2] * 4 * len(during)
    assert set(threading.enumerate()) == before


def test_eval_bytes_do_not_depend_on_fixation_syntax(tmp_path, capsys, monkeypatch,
                                                     recording_32):
    # CRLF line ends, padding and quoted fields send the parse through the
    # row loop; the counts, and so every output byte, stay the same
    frames_dir, csv_path = recording_32
    header, *rows = csv_path.read_text().splitlines()
    styled = tmp_path / "styled.csv"
    styled.write_bytes("".join(f'"{f}", {x} ,\t{y}\r\n' for f, x, y in
                               (row.split(",") for row in rows)).join([header + "\r\n", ""])
                       .encode())
    row_loop_calls = []
    row_loop = P._fixation_rows
    monkeypatch.setattr(P, "_fixation_rows",
                        lambda *a: row_loop_calls.append(a[0]) or row_loop(*a))
    outs = []
    for tag, fixations in (("plain", csv_path), ("styled", styled)):
        out = tmp_path / tag
        assert run(capsys, "eval", "--preset", "sparse-fls",
                   "--recording", str(frames_dir), str(fixations), "--out", str(out))[0] == 0
        outs.append([(out / name).read_bytes()
                     for name in ("frames_rec0.csv", "summary.csv", "log.txt")])
    assert row_loop_calls == [str(styled)]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["9223372036854775808", "-99999999999999999999"])
def test_eval_fixation_outside_int64_is_exit_2(tmp_path, capsys, recording_32, value):
    frames_dir, csv_path = recording_32
    n_lines = len(csv_path.read_text().splitlines())
    with open(csv_path, "a") as f:
        f.write(f"2,{value},10\n")
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls",
                     "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 2
    assert f"{csv_path}:{n_lines + 1}: value outside the int64 range" in err
    assert not out.exists()


def test_eval_non_utf8_fixations_is_exit_2(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    with open(csv_path, "ab") as f:
        f.write(b"2,\xff,10\n")
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls",
                     "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 2
    assert f"{csv_path}: not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["header", "body"])
def test_eval_fixation_field_over_the_csv_limit_is_exit_2(tmp_path, capsys, recording_32, where):
    frames_dir, csv_path = recording_32
    long_field = "1" * 131_073
    if where == "header":
        csv_path.write_text(f"frame_index,x,{long_field}\n0,1,2\n")
        want = f"{csv_path}: field larger than field limit"
    else:
        n_lines = len(csv_path.read_text().splitlines())
        with open(csv_path, "a") as f:
            f.write(f"2,{long_field},10\n")
        want = f"{csv_path}:{n_lines + 1}: field larger than field limit"
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path)
    assert rc == 2
    assert want in err
    assert not out.exists()


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # json.load raises RecursionError on it


def test_eval_deeply_nested_manifest_is_exit_2(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(DEEP_JSON)
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--manifest", str(path), "--out", str(out))
    assert rc == 2
    assert f"{path}: invalid manifest JSON" in err
    assert not out.exists()


def test_eval_deeply_nested_rgb_sidecar_is_exit_2(tmp_path, capsys):
    rgb = tmp_path / "rec.rgb"
    P.save_raw_rgb(str(rgb), [np.zeros((210, 160, 3), np.uint8)] * 16)
    (tmp_path / "rec.rgb.json").write_text(DEEP_JSON)
    csv_path = tmp_path / "fixations.csv"
    P.save_fixations_csv(str(csv_path), [(0, 10, 10)])
    rc, err, out = eval_frames(capsys, tmp_path, rgb, csv_path)
    assert rc == 2
    assert f"{rgb}.json: invalid JSON sidecar" in err
    assert not out.exists()


def test_metrics_deeply_nested_dump_sidecar_is_exit_2(tmp_path, capsys):
    sal_dir, csv_path = saliency_dumps(tmp_path, capsys, 32)
    (sal_dir / "sal_0001.raw.json").write_text(DEEP_JSON)
    out = tmp_path / "scores"
    rc, _, err = run(capsys, "metrics", "--saliency", str(sal_dir),
                     "--fixations", str(csv_path), "--out", str(out))
    assert rc == 2
    assert f"{sal_dir / 'sal_0001.raw.json'}: invalid JSON sidecar" in err
    assert not out.exists()


def test_eval_non_utf8_manifest_is_exit_2(tmp_path, capsys, recording_32):
    path = edited_manifest(tmp_path, capsys, recording_32, lambda manifest: None)
    path.write_bytes(path.read_bytes().replace(b'"game": "unlabeled"', b'"game": "\xff"'))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(path), "--out", str(out2))
    assert rc == 2
    assert str(path) in err
    assert not out2.exists()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "70.001", "1e300", "1e308"])
def test_eval_rejects_bad_sigma(tmp_path, capsys, recording_32, sigma):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls",
                     "--recording", str(frames_dir), str(csv_path),
                     "--out", str(out), "--sigma", sigma)
    assert rc == 1
    assert "--sigma" in err
    assert not out.exists()

    # 3 sigma overflows to inf at 1e308, so the bound is tested before any radius
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest.update(sigma=float(sigma)))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 1 and "--sigma" in err and not out2.exists()


def test_eval_manifest_unknown_config_key_is_exit_2(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    out1 = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", "sparse-fls",
               "--recording", str(frames_dir), str(csv_path), "--out", str(out1))[0] == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["model"]["config"]["dropout"] = 0.5
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 2
    assert "dropout" in err
    assert not out2.exists()


def edited_manifest(tmp_path, capsys, recording, edit, preset="sparse-fls"):
    """A manifest of a real eval run of preset on recording, changed by edit(dict)."""
    frames_dir, csv_path = recording
    out = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", preset,
               "--recording", str(frames_dir), str(csv_path), "--out", str(out))[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("key,value", [
    ("sigma", "5"), ("sigma", True), ("seed", "0"),
    ("recordings", 3), ("pool_scope", "bogus"), ("save_saliency", "no"), ("fc_width", "x"),
    # a bool or a float equal to 1 is not the integer schema version
    ("schema_version", 2), ("schema_version", True), ("schema_version", 1.0),
    ("model", {"config": {}}), ("model.extra", 1),
    # the one width DAQN has is the JSON integer 256
    ("model.config.daqn_width", 128), ("model.config.daqn_width", True),
    ("model.config.daqn_width", "256"), ("model.config.daqn_width", 256.0),
    # and the fc's is the JSON integer 512
    ("fc_width", 0), ("model.config.fc_width", 1024), ("model.config.fc_width", True),
    ("model.config.fc_width", "512"), ("model.config.fc_width", 512.0),
])
def test_eval_manifest_bad_value_is_exit_2(tmp_path, capsys, recording_32, key, value):
    def edit(manifest):
        *path, name = ("model.config." + key if key == "fc_width" else key).split(".")
        where = manifest
        for part in path:
            where = where[part]
        where[name] = value

    edited = edited_manifest(tmp_path, capsys, recording_32, edit)
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 2
    assert key in err
    assert not out2.exists()


@pytest.mark.parametrize("manifest", [[], "eval", 1, None])
def test_eval_manifest_that_is_not_an_object_is_exit_2(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--manifest", str(path), "--out", str(out))
    assert rc == 2
    assert f"{path}: unsupported manifest schema" in err
    assert not out.exists()


# a model.config that ModelConfig refuses is exit 1, as the same config from flags is
@pytest.mark.parametrize("config,named", [
    ({"attention": "bogus"}, "attention"), ({"placement": "bogus"}, "placement"),
    ({"readout": "bogus"}, "readout"), ({"num_actions": 0}, "num_actions"),
    ({"attention": None, "softplus2": True}, "softplus2"),
    ({"attention": None, "normalize_output": True}, "normalize_output"),
    ({"attention": None, "final_relu": False}, "final_relu"),
])
def test_eval_manifest_config_that_model_config_refuses_is_exit_1(tmp_path, capsys,
                                                                    recording_32, config, named):
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest["model"]["config"].update(config))
    out = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out))
    assert rc == 1
    assert named in err
    assert not out.exists()


def test_eval_pgm_without_save_saliency_is_exit_1(tmp_path, capsys, recording_32):
    # --pgm writes views of the dumps, so alone it would write nothing
    rc, err, out = eval_frames(capsys, tmp_path, *recording_32, "--pgm")
    assert rc == 1
    assert "--pgm" in err and "--save-saliency" in err
    assert not out.exists()

    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest.update(pgm=True))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 1
    assert "--pgm" in err and "--save-saliency" in err
    assert not out2.exists()


def test_eval_has_no_workers_flag(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", "--workers", "2",
                     "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 1
    assert "unrecognized arguments: --workers 2" in err
    assert not out.exists()


def test_eval_manifest_with_workers_key_reruns_byte_for_byte(tmp_path, capsys, recording_32):
    # older schema-1 manifests carry a thread count; it is read and dropped
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest.update(workers=3))
    out2 = tmp_path / "run2"
    assert run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))[0] == 0
    assert read_outputs(tmp_path / "run1") == read_outputs(out2)


def test_eval_manifest_with_daqn_width_256_reruns_byte_for_byte(tmp_path, capsys, recording_32):
    # older manifests hold DAQN's width, the 256 it is fixed at; it is read and dropped
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest["model"]["config"].update(daqn_width=256),
                             preset="daqn")
    out2 = tmp_path / "run2"
    assert run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))[0] == 0
    assert read_outputs(tmp_path / "run1") == read_outputs(out2)


def test_eval_manifest_with_fc_width_512_reruns_byte_for_byte(tmp_path, capsys, recording_32):
    # older manifests hold the fc's width, the 512 it is fixed at, which no
    # manifest writes now; it is read and dropped
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest["model"]["config"].update(fc_width=512))
    written = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert "fc_width" not in written["model"]["config"]
    out2 = tmp_path / "run2"
    assert run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))[0] == 0
    assert read_outputs(tmp_path / "run1") == read_outputs(out2)


# an empty path names a file as any other path does: exit 2 naming it before
# --out exists, never a run without that input
@pytest.mark.parametrize("case", ["eval", "saliency", "manifest", "preprocess"])
def test_empty_path_is_exit_2(tmp_path, capsys, recording_32, case):
    frames_dir, csv_path = recording_32
    if case == "manifest":
        argv = ["eval", "--manifest", str(edited_manifest(
            tmp_path, capsys, recording_32, lambda manifest: manifest.update(weights="")))]
    else:
        argv = {"eval": ["eval", "--preset", "sparse-fls", "--weights", "",
                         "--recording", str(frames_dir), str(csv_path)],
                "saliency": ["saliency", "--preset", "sparse-fls", "--weights", "",
                             "--frames", str(frames_dir)],
                "preprocess": ["preprocess", "--frames", str(frames_dir),
                               "--fixations", ""]}[case]
    out = tmp_path / "run2"
    rc, _, err = run(capsys, *argv, "--out", str(out))
    assert rc == 2 and "No such file or directory: ''" in err and not out.exists()


# Path("") is the working directory; each case runs inside a directory that
# an empty path would then name, and where it would find its input or write
# its output: it must be exit 2 with one error line, and the directory unchanged
@pytest.mark.parametrize("case", ["eval-recording", "saliency-frames", "preprocess-frames",
                                  "metrics-saliency", "report-runs", "eval-out",
                                  "saliency-out", "metrics-out", "preprocess-out"])
def test_empty_path_is_not_the_working_directory(tmp_path, capsys, monkeypatch, recording_32,
                                                 case):
    frames_dir, csv_path = recording_32
    run_dir = tmp_path / "run"
    if case in ("metrics-saliency", "report-runs"):
        assert run(capsys, "eval", "--preset", "sparse-fls", "--save-saliency", "--recording",
                   str(frames_dir), str(csv_path), "--out", str(run_dir))[0] == 0
    sal_dir = tmp_path / "sal"
    if case == "metrics-out":
        assert run(capsys, "saliency", "--preset", "sparse-fls", "--frames", str(frames_dir),
                   "--out", str(sal_dir))[0] == 0
    out = tmp_path / "out"
    cwd, argv = {
        "eval-recording": (frames_dir, ["eval", "--preset", "sparse-fls",
                                        "--recording", "", str(csv_path), "--out", str(out)]),
        "saliency-frames": (frames_dir, ["saliency", "--preset", "sparse-fls", "--frames", "",
                                         "--out", str(out)]),
        "preprocess-frames": (frames_dir, ["preprocess", "--frames", "", "--out", str(out)]),
        "metrics-saliency": (run_dir / "rec0", ["metrics", "--saliency", "", "--fixations",
                                                str(csv_path), "--out", str(out)]),
        "report-runs": (run_dir, ["report", "--runs", ""]),
        "eval-out": (out, ["eval", "--preset", "sparse-fls",
                           "--recording", str(frames_dir), str(csv_path), "--out", ""]),
        "saliency-out": (out, ["saliency", "--preset", "sparse-fls", "--frames", str(frames_dir),
                               "--out", ""]),
        "metrics-out": (out, ["metrics", "--saliency", str(sal_dir), "--fixations",
                              str(csv_path), "--out", ""]),
        "preprocess-out": (out, ["preprocess", "--frames", str(frames_dir), "--out", ""]),
    }[case]
    cwd.mkdir(exist_ok=True)
    listing = sorted(p.name for p in cwd.iterdir())
    monkeypatch.chdir(cwd)
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in cwd.iterdir()) == listing
    assert cwd == out or not out.exists()


@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_negative_seed_is_exit_1(tmp_path, capsys, recording_32, command):
    frames_dir, csv_path = recording_32
    inputs = (["--recording", str(frames_dir), str(csv_path)] if command == "eval"
              else ["--frames", str(frames_dir)])
    out = tmp_path / "run"
    rc, _, err = run(capsys, command, "--preset", "sparse-fls", "--seed", "-1", *inputs,
                     "--out", str(out))
    assert rc == 1
    assert "--seed" in err
    assert not out.exists()


# 10**12 actions make a float64 weight draw of 3.64 PiB,
# past the 128 TiB x86-64 user address space, so it fails at once under any
# overcommit policy and allocates nothing; 10**19 rows are past numpy's
# largest dimension. At 2**54 actions the policy weight alone holds
# 512 * 2**54 = 2**63 values, past int64.
HUGE = 10**12


@pytest.mark.parametrize("actions", [HUGE, 10**19, 2**54, 2**60])
@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_model_too_large_to_allocate_is_exit_1(tmp_path, capsys, recording_32, command,
                                               actions):
    # the error, count_params and the params total all give the exact count
    cfg = models.preset_config("sparse-fls", num_actions=actions)
    n_params = sum(math.prod(shape)
                   for shape in models.param_shapes(models.build_plan(cfg)).values())
    assert models.count_params(cfg) == n_params
    rc, stdout, _ = run(capsys, "params", "--preset", "sparse-fls", "--actions", str(actions))
    assert rc == 0 and stdout.splitlines()[-1].split() == ["total", f"{n_params:,}"]
    frames_dir, csv_path = recording_32
    inputs = (["--recording", str(frames_dir), str(csv_path)] if command == "eval"
              else ["--frames", str(frames_dir)])
    out = tmp_path / "run"
    rc, _, err = run(capsys, command, "--preset", "sparse-fls", "--actions", str(actions),
                     *inputs, "--out", str(out))
    assert rc == 1 and f"a model of {n_params:,} parameters" in err and not out.exists()


def test_manifest_model_too_large_to_allocate_is_exit_1(tmp_path, capsys, recording_32):
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest["model"]["config"].update(num_actions=HUGE))
    out = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out))
    n_params = models.count_params(models.preset_config("sparse-fls", num_actions=HUGE))
    assert rc == 1 and f"{n_params:,} parameters" in err and not out.exists()


@pytest.mark.parametrize("label", ["fls,v2", "fls\r", "fls\nv2", *SPLITLINES_BREAKS])
def test_manifest_label_that_would_split_a_summary_row_is_exit_1(tmp_path, capsys,
                                                                 recording_32, label):
    # the label is a field of every summary.csv row, like the game
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest["model"].update(label=label))
    out = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out))
    assert rc == 1 and "model.label" in err and not out.exists()


def test_eval_rejects_foreign_manifest(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"schema_version": 1, "command": "saliency"}))
    rc, _, _ = run(capsys, "eval", "--manifest", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2


def test_eval_with_weights_does_not_depend_on_seed(tmp_path, capsys, recording_32):
    # the file's model, whatever --seed says: the same bytes as eval of the
    # model it was saved from
    frames_dir, csv_path = recording_32
    weights = tmp_path / "w.flsw"
    weights_io.save_model(str(weights), models.build_model(models.PRESETS["sparse-fls"], 7))
    outputs = []
    for seed, flags in (("7", ()), ("0", ("--weights", str(weights))),
                        ("5", ("--weights", str(weights)))):
        out = tmp_path / f"seed{seed}"
        rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", "--seed", seed, *flags,
                         "--recording", str(frames_dir), str(csv_path), "--out", str(out))
        assert rc == 0, err
        outputs.append([(out / name).read_bytes() for name in ("frames_rec0.csv", "summary.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_eval_bytes_do_not_depend_on_the_dense_heads(tmp_path, capsys, recording_32):
    # two files that differ only in the fc, policy and value tensors, each
    # finite and each moved by one, score the same: no map reads a head
    frames_dir, csv_path = recording_32
    params = models.build_model(models.PRESETS["sparse-fls"], 7).params
    heads = tuple(f"{head}." for head in models.HEADS)
    moved = {k: v + np.float32(1) if k.startswith(heads) else v for k, v in params.items()}
    assert sum(k.startswith(heads) for k in moved) == 6
    outputs = []
    for label, tensors in (("a", params), ("b", moved)):
        weights, out = tmp_path / f"{label}.flsw", tmp_path / label
        weights_io.save_weights(str(weights), tensors)
        rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", "--weights", str(weights),
                         "--recording", str(frames_dir), str(csv_path), "--out", str(out))
        assert rc == 0, err
        outputs.append([(out / name).read_bytes() for name in ("frames_rec0.csv", "summary.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["params", "eval", "saliency"])
def test_pad_input_1px_dense_fls_is_exit_1_before_output(tmp_path, capsys, recording_32,
                                                         command):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    inputs = {"params": [], "saliency": ["--frames", str(frames_dir), "--out", str(out)],
              "eval": ["--recording", str(frames_dir), str(csv_path), "--out", str(out)]}
    rc, stdout, err = run(capsys, command, "--preset", "dense-fls", "--pad-input-1px",
                          *inputs[command])
    assert rc == 1 and "renders to 86x86" in err and not out.exists() and stdout == ""


def test_pad_input_1px_dense_block_without_attention_still_runs(capsys):
    rc, stdout, _ = run(capsys, "params", "--block", "dense", "--attention", "none",
                        "--pad-input-1px")
    assert rc == 0 and "86x86x64" in stdout


# -- report -------------------------------------------------------------------------

def test_report_merges_runs(tmp_path, capsys):
    for name, label in (("a", "sparse-fls"), ("b", "dense-fls")):
        d = tmp_path / name
        d.mkdir()
        (d / "summary.csv").write_text(
            cli.SUMMARY_CSV_HEADER + "\n"
            + f"{label},pong,nss,1.5,0.25,10\n{label},pong,kl,2.0,0.5,10\n")
    rc, out, _ = run(capsys, "report", "--runs", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--out", str(tmp_path / "table.txt"))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["model", "game", "metric"]
    assert len(lines) == 5
    body = [line.split()[0] for line in lines[1:]]
    assert body == sorted(body)
    assert (tmp_path / "table.txt").read_text() == out


def test_report_rejects_bad_header(tmp_path, capsys):
    d = tmp_path / "a"
    d.mkdir()
    (d / "summary.csv").write_text("wrong,header\n")
    rc, _, _ = run(capsys, "report", "--runs", str(d))
    assert rc == 2


def test_report_malformed_row_is_exit_2(tmp_path, capsys):
    d = tmp_path / "a"
    d.mkdir()
    (d / "summary.csv").write_text(cli.SUMMARY_CSV_HEADER + "\nsparse-fls,pong,nss,1.5,0.25\n")
    table = tmp_path / "table.txt"
    rc, _, err = run(capsys, "report", "--runs", str(d), "--out", str(table))
    assert rc == 2
    assert f"{d / 'summary.csv'}: malformed summary row" in err
    assert not table.exists()


def test_report_non_utf8_summary_is_exit_2(tmp_path, capsys):
    d = tmp_path / "a"
    d.mkdir()
    (d / "summary.csv").write_bytes(cli.SUMMARY_CSV_HEADER.encode() + b"\n\xff,pong,nss,1,0,1\n")
    rc, _, err = run(capsys, "report", "--runs", str(d))
    assert rc == 2
    assert "summary.csv: not UTF-8" in err


def test_report_missing_summary_is_exit_2(tmp_path, capsys):
    rc, _, _ = run(capsys, "report", "--runs", str(tmp_path))
    assert rc == 2


# -- module entry point ----------------------------------------------------------------

def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the start-up; the sAUC counts need only numpy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", "import sys, atarisal.cli; "
                           "print('scipy.stats' in sys.modules)"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_ndimage():
    # scipy.ndimage would be most of the start-up; the KL blur is numpy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", "import sys, atarisal.cli; "
                           "print('scipy.ndimage' in sys.modules)"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_eval_and_metrics_never_import_scipy(tmp_path, recording_32):
    # the KL blur is numpy: a scoring run loads no scipy module at all
    frames_dir, csv_path = recording_32
    run_dir, scores = tmp_path / "run", tmp_path / "scores"
    commands = [["eval", "--preset", "sparse-fls", "--save-saliency",
                 "--recording", str(frames_dir), str(csv_path), "--out", str(run_dir)],
                ["metrics", "--saliency", str(run_dir / "rec0"), "--fixations", str(csv_path),
                 "--out", str(scores)]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    code = ("import json, sys; from atarisal import cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]
    assert (scores / "summary.csv").is_file()


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "atarisal", "params",
                           "--preset", "nature-cnn"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1,686,693" in proc.stdout


# -- game names ---------------------------------------------------------------------

@pytest.mark.parametrize("game", ["pong,v4", "pong\r", "pong\nv4", *SPLITLINES_BREAKS])
def test_game_that_would_split_a_summary_row_is_exit_1(tmp_path, capsys, recording_32, game):
    # the game is a field of every summary.csv row, which `report` cuts at line
    # breaks (str.splitlines) and commas
    frames_dir, csv_path = recording_32
    rc, err, out = eval_frames(capsys, tmp_path, frames_dir, csv_path, "--game", game)
    assert rc == 1 and "--game" in err and not out.exists()

    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest.update(game=game))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 1 and "--game" in err and not out2.exists()

    dumps = tmp_path / "dumps"
    dumps.mkdir()
    S.save_raw_saliency(str(dumps / "sal_0000.raw"), np.ones((84, 84), np.float32))
    out3 = tmp_path / "rescore"
    rc, _, err = run(capsys, "metrics", "--saliency", str(dumps),
                     "--fixations", str(csv_path), "--out", str(out3), "--game", game)
    assert rc == 1 and "--game" in err and not out3.exists()
