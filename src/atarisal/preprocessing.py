"""Atari frame pipeline: raw 160x210 RGB frames to 84x84x4 observations,
plus fixation logs and the ground-truth count maps aligned to observations.

Frame streams arrive either as a directory of P6 PPM files (named by
zero-padded index) or as one concatenated raw RGB file with a JSON sidecar
giving the frame count. Fixations arrive as a CSV with header
"frame_index,x,y".
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError

FRAME_WIDTH = 160
FRAME_HEIGHT = 210
OBS_SIZE = 84
STACK_DEPTH = 4
RAW_PER_PROCESSED = 4       # raw frames consumed per processed frame
RETAIN_OFFSETS = (2, 3)     # which of each group of 4 raw frames survive
RAW_PER_OBSERVATION = RAW_PER_PROCESSED * STACK_DEPTH

GRAY_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601 luma


class FixationRecord(NamedTuple):
    frame_index: int
    x: int
    y: int


@dataclass(frozen=True)
class ObservationStack:
    """84x84x4 float32 in [0, 1]; channel c is the c-th oldest processed frame."""
    pixels: np.ndarray
    source_indices: tuple[int, ...]    # the 16 consecutive raw indices consumed
    retained_indices: tuple[int, ...]  # the 8 raw indices that reached the stack


def _check_frame(frame: np.ndarray, index: int) -> np.ndarray:
    frame = np.asarray(frame)
    if frame.shape != (FRAME_HEIGHT, FRAME_WIDTH, 3):
        raise DataFormatError(
            f"frame {index}: expected {FRAME_HEIGHT}x{FRAME_WIDTH}x3, got {frame.shape}")
    return frame


def grayscale(frame: np.ndarray) -> np.ndarray:
    """Luma 0.299 R + 0.587 G + 0.114 B, kept as float32 (not re-quantized)."""
    f = np.asarray(frame, dtype=np.float64)
    r, g, b = GRAY_WEIGHTS
    return (r * f[..., 0] + g * f[..., 1] + b * f[..., 2]).astype(np.float32)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment; float32 output."""
    a = np.asarray(img, dtype=np.float64)
    h, w = a.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = a[y0][:, x0] * (1.0 - wx) + a[y0][:, x1] * wx
    bot = a[y1][:, x0] * (1.0 - wx) + a[y1][:, x1] * wx
    return (top * (1.0 - wy) + bot * wy).astype(np.float32)


def resize_84(gray: np.ndarray) -> np.ndarray:
    return bilinear_resize(gray, OBS_SIZE, OBS_SIZE)


def max_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DataFormatError(f"max_merge shape mismatch: {a.shape} vs {b.shape}")
    return np.maximum(a, b)


def retained_indices(observation_index: int) -> tuple[int, ...]:
    base = observation_index * RAW_PER_OBSERVATION
    return tuple(base + RAW_PER_PROCESSED * g + o
                 for g in range(STACK_DEPTH) for o in RETAIN_OFFSETS)


def build_observations(frames: Sequence[np.ndarray]) -> list[ObservationStack]:
    """Group raw frames in fours, keep the 3rd and 4th of each group
    (grayscale, resize, pixelwise max), stack four processed frames per
    observation, scale by 1/255. Observations never share raw frames;
    incomplete tails are dropped."""
    n_processed = len(frames) // RAW_PER_PROCESSED
    processed = []
    for g in range(n_processed):
        merged = None
        for o in RETAIN_OFFSETS:
            idx = RAW_PER_PROCESSED * g + o
            img = resize_84(grayscale(_check_frame(frames[idx], idx)))
            merged = img if merged is None else max_merge(merged, img)
        processed.append(merged)

    observations = []
    for m in range(n_processed // STACK_DEPTH):
        stack = np.stack(processed[STACK_DEPTH * m:STACK_DEPTH * (m + 1)], axis=-1)
        pixels = (stack.astype(np.float64) / 255.0).astype(np.float32)
        base = m * RAW_PER_OBSERVATION
        observations.append(ObservationStack(
            pixels=pixels,
            source_indices=tuple(range(base, base + RAW_PER_OBSERVATION)),
            retained_indices=retained_indices(m)))
    return observations


def fixation_map(records: Iterable[FixationRecord],
                 retained: Iterable[int]) -> tuple[np.ndarray, int]:
    """Count map over the raw frame grid from records landing on the given
    retained frame indices. Returns (map, out-of-bounds reject count)."""
    retained = set(retained)
    fmap = np.zeros((FRAME_HEIGHT, FRAME_WIDTH), dtype=np.int64)
    rejected = 0
    for rec in records:
        if rec.frame_index not in retained:
            continue
        if 0 <= rec.x < FRAME_WIDTH and 0 <= rec.y < FRAME_HEIGHT:
            fmap[rec.y, rec.x] += 1
        else:
            rejected += 1
    return fmap, rejected


def records_by_observation(records: Iterable[FixationRecord],
                           n_observations: int) -> list[list[FixationRecord]]:
    """One pass over the records: bucket i holds, in input order, those on the
    16 raw frames observation i consumes. A record whose observation index is
    outside [0, n_observations) goes to no bucket."""
    buckets = [[] for _ in range(n_observations)]
    for rec in records:
        i = rec.frame_index // RAW_PER_OBSERVATION
        if 0 <= i < n_observations:
            buckets[i].append(rec)
    return buckets


def fixations_for_observation(records: Iterable[FixationRecord],
                              obs: ObservationStack) -> tuple[np.ndarray, int]:
    return fixation_map(records, obs.retained_indices)


# -- fixation CSV --------------------------------------------------------------

FIXATION_HEADER = ["frame_index", "x", "y"]


def load_fixations_csv(path: str) -> list[FixationRecord]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty fixation file") from None
        if header != FIXATION_HEADER:
            raise DataFormatError(
                f"{path}: expected header {','.join(FIXATION_HEADER)!r}, got {','.join(header)!r}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                records.append(FixationRecord(int(row[0]), int(row[1]), int(row[2])))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer field") from None
    return records


def save_fixations_csv(path: str, records: Iterable[FixationRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FIXATION_HEADER)
        for rec in records:
            writer.writerow([rec.frame_index, rec.x, rec.y])


# -- frame file formats --------------------------------------------------------

def _ppm_token(f: BinaryIO, path: str) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise DataFormatError(f"{path}: truncated PPM header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def load_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        if _ppm_token(f, path) != b"P6":
            raise DataFormatError(f"{path}: not a binary P6 PPM")
        try:
            width = int(_ppm_token(f, path))
            height = int(_ppm_token(f, path))
            maxval = int(_ppm_token(f, path))
        except ValueError:
            raise DataFormatError(f"{path}: malformed PPM header") from None
        if maxval != 255:
            raise DataFormatError(f"{path}: unsupported PPM maxval {maxval}")
        payload = f.read(width * height * 3)
    if len(payload) != width * height * 3:
        raise DataFormatError(f"{path}: truncated PPM payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def save_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    h, w, _ = frame.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(frame.tobytes())


def load_raw_rgb(path: str, sidecar: str = None) -> list[np.ndarray]:
    """Concatenated raw RGB frames; the JSON sidecar holds frames/width/height."""
    sidecar = sidecar or path + ".json"
    try:
        with open(sidecar) as f:
            meta = json.load(f)
    except json.JSONDecodeError:
        raise DataFormatError(f"{sidecar}: invalid JSON sidecar") from None
    try:
        count, width, height = int(meta["frames"]), int(meta["width"]), int(meta["height"])
    except (KeyError, TypeError, ValueError):
        raise DataFormatError(f"{sidecar}: sidecar needs integer frames/width/height") from None
    data = np.fromfile(path, dtype=np.uint8)
    expected = count * width * height * 3
    if data.size != expected:
        raise DataFormatError(f"{path}: {data.size} bytes, sidecar implies {expected}")
    return list(data.reshape(count, height, width, 3))


def save_raw_rgb(path: str, frames: Sequence[np.ndarray], sidecar: str = None) -> None:
    frames = [np.ascontiguousarray(f, dtype=np.uint8) for f in frames]
    h, w, _ = frames[0].shape
    with open(path, "wb") as f:
        for frame in frames:
            f.write(frame.tobytes())
    with open(sidecar or path + ".json", "w") as f:
        json.dump({"frames": len(frames), "width": w, "height": h}, f)
        f.write("\n")


def load_frames(path: str) -> list[np.ndarray]:
    """Directory of *.ppm files named by zero-padded index, or a single .rgb file."""
    p = Path(path)
    if p.is_dir():
        ppm_files = sorted(p.glob("*.ppm"))
        if not ppm_files:
            raise DataFormatError(f"{path}: no .ppm frames found")
        odd = [fp.name for fp in ppm_files if len(fp.stem) != len(ppm_files[0].stem)]
        if odd:  # then name order is not index order: frame_10 sorts before frame_9
            raise DataFormatError(f"{path}: frame names {ppm_files[0].name} and {odd[0]} differ "
                                  "in length; name frames by zero-padded index")
        return [load_ppm(str(fp)) for fp in ppm_files]
    if p.is_file() and p.suffix == ".rgb":
        return load_raw_rgb(str(p))
    raise DataFormatError(f"{path}: expected a frame directory or a .rgb file")
