"""Eval output bytes: pinned digests and independence from BLAS threading.

The digests were recorded with the per-tap conv loop that im2col replaced
(numpy 2.4, OpenBLAS 0.3.31, x86-64). A changed digest means some output bit
moved; changing the bits on purpose needs its own argument, not a new digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from atarisal import cli

from conftest import write_recording

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN = {
    ("--preset", "sparse-fls"): {
        "frames_rec0.csv": "cce9362fdf445fbf8f77038678ae5213793de98c0b749458ddf8cac1fccf5455",
        "summary.csv": "ef2fec592edcb59d98fecef30d0eed8e4b72d6d08cf108e1fa9233381fff0fce",
    },
    ("--preset", "dense-fls"): {
        "frames_rec0.csv": "145ba77557d45d593134a7fb73f28492f46e4cae502abcb0665d20e749d7292d",
        "summary.csv": "ab5f5705677f340b2851d8a202f9f591461338bc6bb8a6585ae22116e3835f58",
    },
    ("--preset", "sparse-fls", "--placement", "each-conv"): {
        "frames_rec0.csv": "bcd690e6b4add0317c1159685a3c7c0ae252d31412cffcad8220a51da411c7b0",
        "summary.csv": "38d51c45dbaff9301d84b3a3f425c60d6a984bc54e290cdf030ab99bd17aacda",
    },
}

CSVS = ("frames_rec0.csv", "summary.csv")


def digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CSVS}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: "-".join(argv[1::2]))
def test_eval_csv_bytes_are_pinned(tmp_path, capsys, recording_32, argv):
    frames_dir, csv_path = recording_32  # the same recording as write_recording(.., 32, seed=11)
    out = tmp_path / "run"
    assert cli.main(["eval", *argv, "--recording", str(frames_dir), str(csv_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert digests(out) == GOLDEN[argv]


def test_eval_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    frames_dir, csv_path = write_recording(tmp_path / "rec", 32, seed=11)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "atarisal", "eval", "--preset", "dense-fls",
                               "--recording", str(frames_dir), str(csv_path), "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in CSVS])
    assert outputs[0] == outputs[1]


def test_two_recording_shared_pool_bytes_are_pinned(tmp_path, capsys):
    # pool scope "all" pools sAUC negatives over both recordings; the second
    # also has out-of-bounds records and records outside every observation
    fr1, fx1 = write_recording(tmp_path / "r1", 32, seed=21)
    fr2, fx2 = write_recording(tmp_path / "r2", 32, seed=22)
    with open(fx2, "a") as f:
        f.write("18,500,10\n19,10,300\n-1,5,5\n40,3,3\n")
    out = tmp_path / "run"
    assert cli.main(["eval", "--preset", "sparse-fls", "--recording", str(fr1), str(fx1),
                     "--recording", str(fr2), str(fx2), "--out", str(out),
                     "--pool-scope", "all"]) == 0
    capsys.readouterr()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in
            ("frames_rec0.csv", "frames_rec1.csv", "summary.csv", "log.txt")} == {
        "frames_rec0.csv": "f77bccd56be5d6c55d99f53a3fe95f9122c74f447b5a5d77cea8d2ae78f2b28d",
        "frames_rec1.csv": "317ebcfaac25846b7535f53ed8a259a0b71aaf541f1d8f82642acb21f3258cf5",
        "summary.csv": "ecbb4d267af19195fba71c03e252051d77b685a7e767da299d56b2ece04ba743",
        "log.txt": "6513eedc80300c6dd4d76aca7d52a2e906d4c69e1df76c293b18fd32d4fab42b",
    }
