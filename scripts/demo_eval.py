#!/usr/bin/env python3
"""End-to-end demo on synthetic data: build a recording, evaluate a randomly
initialized attention model against the synthetic fixations, and show the
summary table. Everything lands under --workdir."""

import argparse
import sys
from pathlib import Path

from make_synthetic_recording import make_recording

from atarisal import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--preset", default="sparse-fls")
    ap.add_argument("--frames", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = Path(args.workdir)
    rec = work / "recording"
    make_recording(rec, args.frames, args.seed)

    run_dir = work / "run"
    rc = cli.main(["eval", "--preset", args.preset,
                   "--seed", str(args.seed),
                   "--recording", str(rec / "frames"), str(rec / "fixations.csv"),
                   "--out", str(run_dir), "--save-saliency", "--pgm",
                   "--game", "synthetic"])
    if rc != 0:
        return rc
    print()
    return cli.main(["report", "--runs", str(run_dir)])


if __name__ == "__main__":
    sys.exit(main())
