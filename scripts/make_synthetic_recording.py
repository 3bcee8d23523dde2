#!/usr/bin/env python3
"""Generate a synthetic gameplay recording: PPM frames with a bright square
drifting over background noise, plus a fixations.csv of gaze points clustered
on the square. Useful for exercising the preprocess/saliency/eval commands
without real game data.

    python3 scripts/make_synthetic_recording.py --out /tmp/rec --frames 64
    atarisal eval --preset sparse-fls --recording /tmp/rec/frames /tmp/rec/fixations.csv --out /tmp/run
"""

import argparse
from pathlib import Path

import numpy as np

from atarisal import preprocessing as P

SQUARE, FIXATIONS_PER_FRAME = 12, 3


def make_recording(out: Path, n_frames: int, seed: int, square: int = SQUARE,
                   fixations_per_frame: int = FIXATIONS_PER_FRAME) -> None:
    rng = np.random.default_rng(seed)
    frames_dir = out / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)

    records = []
    cx, cy = P.FRAME_WIDTH // 2, P.FRAME_HEIGHT // 2
    half = square // 2
    for idx in range(n_frames):
        cx = int(np.clip(cx + rng.integers(-8, 9), half, P.FRAME_WIDTH - half - 1))
        cy = int(np.clip(cy + rng.integers(-8, 9), half, P.FRAME_HEIGHT - half - 1))
        frame = rng.integers(0, 40, size=(P.FRAME_HEIGHT, P.FRAME_WIDTH, 3),
                             dtype=np.uint8)
        frame[cy - half:cy + half, cx - half:cx + half, :] = 255
        P.save_ppm(str(frames_dir / f"frame_{idx:05d}.ppm"), frame)
        for _ in range(fixations_per_frame):
            x = int(np.clip(cx + rng.integers(-6, 7), 0, P.FRAME_WIDTH - 1))
            y = int(np.clip(cy + rng.integers(-6, 7), 0, P.FRAME_HEIGHT - 1))
            records.append((idx, x, y))

    P.save_fixations_csv(str(out / "fixations.csv"), records)
    n_obs = (n_frames // P.RAW_PER_PROCESSED) // P.STACK_DEPTH
    print(f"{n_frames} frames -> {frames_dir}")
    print(f"{len(records)} fixations -> {out / 'fixations.csv'}")
    print(f"enough raw frames for {n_obs} observation stacks")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="recording directory to create")
    ap.add_argument("--frames", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--square", type=int, default=SQUARE, help="side of the bright square")
    ap.add_argument("--fixations-per-frame", type=int, default=FIXATIONS_PER_FRAME)
    args = ap.parse_args()
    make_recording(Path(args.out), args.frames, args.seed, args.square,
                   args.fixations_per_frame)


if __name__ == "__main__":
    main()
