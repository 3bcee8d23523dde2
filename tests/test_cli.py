import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atarisal import cli, preprocessing as P, saliency as S

from conftest import write_recording

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_invalid_action_count_is_exit_1(capsys):
    rc, _, err = run(capsys, "params", "--preset", "nature-cnn", "--actions", "0")
    assert rc == 1
    assert "error:" in err


def test_unknown_flag_is_exit_1(capsys):
    rc, _, err = run(capsys, "params", "--not-a-flag")
    assert rc == 1


def test_fls_flag_needs_fls_attention(capsys):
    rc, _, err = run(capsys, "params", "--preset", "daqn", "--fls-1x1")
    assert rc == 1
    assert "fls" in err


# -- gradcheck ----------------------------------------------------------------------

def test_gradcheck_passes_at_default_epsilon(capsys):
    rc, out, _ = run(capsys, "gradcheck")
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_gradcheck_fails_at_coarse_epsilon(capsys):
    # second-order truncation error at eps=0.1 blows past the 1e-4 threshold
    # for the curved ops, while the linear conv checks still pass
    rc, out, _ = run(capsys, "gradcheck", "--eps", "1e-1")
    assert rc == 3
    assert "FAIL" in out


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


def test_preprocess_reports_out_of_bounds_fixations(tmp_path, capsys):
    frames_dir, csv_path = write_recording(tmp_path, 32, seed=4)
    with open(csv_path, "a") as f:
        f.write("2,500,10\n2,10,300\n")
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


def test_preprocess_negative_ppm_size_is_exit_2(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    (frames_dir / "frame_00000.ppm").write_bytes(b"P6\n-160 -210\n255\n" + bytes(160 * 210 * 3))
    out = tmp_path / "proc"
    rc, _, err = run(capsys, "preprocess", "--frames", str(frames_dir), "--out", str(out))
    assert rc == 2
    assert "frame_00000.ppm" in err
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


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "70.001", "1e300"])
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


def test_dump_files_are_ordered_by_index(tmp_path):
    for i in range(12):
        (tmp_path / f"sal_{i}.raw").write_bytes(b"")
    # name order would put sal_10 and sal_11 before sal_2
    assert [p.name for p in cli._dump_files(str(tmp_path))] == \
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


def test_eval_workers_do_not_change_output(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    outs = []
    for tag, extra in (("a", []), ("b", ["--workers", "3"])):
        out = tmp_path / tag
        assert run(capsys, "eval", "--preset", "sparse-fls",
                   "--recording", str(frames_dir), str(csv_path),
                   "--out", str(out), *extra)[0] == 0
        outs.append((out / "frames_rec0.csv").read_bytes())
    assert outs[0] == outs[1]


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


def test_eval_non_utf8_manifest_is_exit_2(tmp_path, capsys, recording_32):
    path = edited_manifest(tmp_path, capsys, recording_32, lambda manifest: None)
    path.write_bytes(path.read_bytes().replace(b'"game": "unlabeled"', b'"game": "\xff"'))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(path), "--out", str(out2))
    assert rc == 2
    assert str(path) in err
    assert not out2.exists()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "70.001", "1e300"])
def test_eval_rejects_bad_sigma(tmp_path, capsys, recording_32, sigma):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls",
                     "--recording", str(frames_dir), str(csv_path),
                     "--out", str(out), "--sigma", sigma)
    assert rc == 1
    assert "--sigma" in err
    assert not out.exists()


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


def edited_manifest(tmp_path, capsys, recording, edit):
    """A manifest of a real sparse-fls eval run on recording, changed by edit(dict)."""
    frames_dir, csv_path = recording
    out = tmp_path / "run1"
    assert run(capsys, "eval", "--preset", "sparse-fls",
               "--recording", str(frames_dir), str(csv_path), "--out", str(out))[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("key,value", [
    ("sigma", "5"), ("sigma", True), ("workers", "2"), ("workers", True), ("seed", "0"),
    ("recordings", 3), ("pool_scope", "bogus"), ("save_saliency", "no"), ("fc_width", "x"),
])
def test_eval_manifest_bad_value_is_exit_2(tmp_path, capsys, recording_32, key, value):
    def edit(manifest):
        (manifest["model"]["config"] if key == "fc_width" else manifest)[key] = value

    edited = edited_manifest(tmp_path, capsys, recording_32, edit)
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 2
    assert key in err
    assert not out2.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_eval_rejects_workers_below_1(tmp_path, capsys, recording_32, workers):
    frames_dir, csv_path = recording_32
    out = tmp_path / "run"
    rc, _, err = run(capsys, "eval", "--preset", "sparse-fls", "--workers", workers,
                     "--recording", str(frames_dir), str(csv_path), "--out", str(out))
    assert rc == 1
    assert "--workers" in err
    assert not out.exists()


def test_eval_manifest_workers_below_1_is_exit_1(tmp_path, capsys, recording_32):
    edited = edited_manifest(tmp_path, capsys, recording_32,
                             lambda manifest: manifest.update(workers=0))
    out2 = tmp_path / "run2"
    rc, _, err = run(capsys, "eval", "--manifest", str(edited), "--out", str(out2))
    assert rc == 1
    assert "--workers" in err
    assert not out2.exists()


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


def test_eval_rejects_foreign_manifest(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"schema_version": 1, "command": "saliency"}))
    rc, _, _ = run(capsys, "eval", "--manifest", str(bad), "--out", str(tmp_path / "o"))
    assert rc == 2


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
    # scipy.stats costs most of the start-up; the sAUC midranks need only numpy
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
