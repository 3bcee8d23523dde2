"""perfbench/traced.py against the CLI: a traced run must write the CSVs of
an untraced one and still see the layers it times, so a refactor of the CLI
cannot silently blind the benchmark's per-layer split."""

import json
import os
import subprocess
import sys
from pathlib import Path

from atarisal import cli

ROOT = Path(__file__).resolve().parents[1]
CSVS = ("frames_rec0.csv", "summary.csv")


def traced(result, argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(result),
                           *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_eval_and_metrics_match_untraced_runs(tmp_path, capsys, recording_32):
    frames_dir, csv_path = recording_32
    commands = {
        "eval": ["eval", "--preset", "sparse-fls", "--save-saliency",
                 "--recording", str(frames_dir), str(csv_path)],
        "metrics": ["metrics", "--saliency", str(tmp_path / "eval-plain" / "rec0"),
                    "--fixations", str(csv_path)],
    }
    for name, argv in commands.items():  # metrics scores the dumps of the plain eval run
        plain, traced_out = tmp_path / f"{name}-plain", tmp_path / f"{name}-traced"
        assert cli.main([*argv, "--out", str(plain)]) == 0
        layers = traced(tmp_path / f"{name}.json", [*argv, "--out", str(traced_out)])
        for csv in CSVS:
            assert (traced_out / csv).read_bytes() == (plain / csv).read_bytes()
        assert layers["preprocessing.fixation_map.calls"] == 2  # one per observation
        # each call sees only its observation's 16 raw frames x 3 records
        assert layers["preprocessing.fixation_map.records_per_call"] == 48
        assert layers["metrics.sauc.ms_p50"] > 0
        assert (layers["models.forward.s"] > 0) == (name == "eval")
    capsys.readouterr()
