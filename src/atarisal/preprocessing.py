"""Atari frame pipeline: raw 160x210 RGB frames to 84x84x4 observations,
plus fixation logs and the ground-truth count maps aligned to observations.

Frame streams arrive either as a directory of P6 PPM files (named by
zero-padded index) or as one concatenated raw RGB file with a JSON sidecar
giving the frame count. `load_frames` checks every frame up front, each PPM
header and each file's size against it, without reading any pixels, and
returns a `FrameFiles` sequence that reads a frame from disk when it is
indexed. `build_observations` indexes only the retained frames (offsets 2-3
of each group of 4), so the discarded half is validated but never decoded.

Fixations arrive as a UTF-8 CSV with header "frame_index,x,y" and travel as
one (n, 3) int64 array of rows (frame_index, x, y): numpy's C reader parses
the body, and the csv row loop takes over for any syntax it refuses.
Bucketing rows by observation is one stable sort, and each observation's
count map is one np.bincount; `total_fixation_map` is their sum over a
recording in one np.bincount, so a scorer needs no map held per observation.
"""

import csv
import io
import json
import operator
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple

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
    incomplete tails are dropped. Only the kept frames are indexed, so a
    `FrameFiles` sequence decodes nothing else. A stack is built as soon as
    its four processed frames exist, so only the stacks accumulate; the kept
    frames of an incomplete tail are still decoded and shape-checked."""
    observations, processed = [], []
    for g in range(len(frames) // RAW_PER_PROCESSED):
        merged = None
        for o in RETAIN_OFFSETS:
            idx = RAW_PER_PROCESSED * g + o
            img = resize_84(grayscale(_check_frame(frames[idx], idx)))
            merged = img if merged is None else max_merge(merged, img)
        processed.append(merged)
        if len(processed) == STACK_DEPTH:  # no processed frame outlives its stack
            stack = np.stack(processed, axis=-1)
            processed = []
            pixels = (stack.astype(np.float64) / 255.0).astype(np.float32)
            m = len(observations)
            base = m * RAW_PER_OBSERVATION
            observations.append(ObservationStack(
                pixels=pixels,
                source_indices=tuple(range(base, base + RAW_PER_OBSERVATION)),
                retained_indices=retained_indices(m)))
    return observations


def _fixation_array(records) -> np.ndarray:
    """(n, 3) int64 rows (frame_index, x, y) of a FixationRecord list or array."""
    return np.asarray(records, dtype=np.int64).reshape(-1, 3)


def _retained_map(rows: np.ndarray, retained: np.ndarray) -> tuple[np.ndarray, int]:
    """Count map of the rows on the given raw frame indices, and how many of
    those rows lie outside the frame: the one rule of which records a map
    counts and which it rejects."""
    rows = rows[np.isin(rows[:, 0], retained)]
    x, y = rows[:, 1], rows[:, 2]
    inside = (0 <= x) & (x < FRAME_WIDTH) & (0 <= y) & (y < FRAME_HEIGHT)
    pixels = y[inside] * FRAME_WIDTH + x[inside]
    fmap = np.bincount(pixels, minlength=FRAME_HEIGHT * FRAME_WIDTH).astype(np.int64, copy=False)
    return fmap.reshape(FRAME_HEIGHT, FRAME_WIDTH), len(rows) - len(pixels)


def fixation_map(records, retained: Iterable[int]) -> tuple[np.ndarray, int]:
    """Count map over the raw frame grid from records landing on the given
    retained frame indices. Returns (map, out-of-bounds reject count).
    records is a list of FixationRecord or an (n, 3) int64 array."""
    return _retained_map(_fixation_array(records), np.fromiter(retained, dtype=np.int64))


def total_fixation_map(records, n_observations: int) -> tuple[np.ndarray, int]:
    """The sum over observations 0..n_observations-1 of fixation_map(records,
    retained_indices(i)), map and reject count, from one np.bincount over the
    rows on any of their retained frames. Counts are integers, so the sum is
    exact."""
    retained = np.add.outer(np.arange(n_observations, dtype=np.int64) * RAW_PER_OBSERVATION,
                            retained_indices(0)).ravel()
    return _retained_map(_fixation_array(records), retained)


def records_by_observation(records, n_observations: int) -> list[np.ndarray]:
    """Bucket i holds, in input order, the rows on the 16 raw frames
    observation i consumes: one stable sort by observation index, cut at
    0..n_observations. A row whose observation index is outside
    [0, n_observations) goes to no bucket."""
    rows = _fixation_array(records)
    obs = rows[:, 0] // RAW_PER_OBSERVATION
    order = np.argsort(obs, kind="stable")
    cuts = np.searchsorted(obs[order], np.arange(n_observations + 1))
    rows = rows[order]
    return [rows[cuts[i]:cuts[i + 1]] for i in range(n_observations)]


def fixations_for_observation(records, obs: ObservationStack) -> tuple[np.ndarray, int]:
    return fixation_map(records, obs.retained_indices)


# -- fixation CSV --------------------------------------------------------------

FIXATION_HEADER = ["frame_index", "x", "y"]


def load_fixations_csv(path: str) -> np.ndarray:
    """The (n, 3) int64 rows (frame_index, x, y) of a fixation CSV, in file
    order. numpy's C reader parses the body; input it refuses (quoted
    fields, `1_0`, non-ASCII digits, values outside int64, any syntax
    error) or reads with other than 3 columns goes through the csv row
    loop, which accepts what csv and int() accept and names the failing
    line otherwise."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {e.start})") from None
    lines = io.StringIO(text, newline="")
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty fixation file") from None
    if header != FIXATION_HEADER:
        raise DataFormatError(
            f"{path}: expected header {','.join(FIXATION_HEADER)!r}, got {','.join(header)!r}")
    body = lines.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2,
                              comments=None, quotechar=None)
        if rows.shape[1] == 3:
            return rows
    except (ValueError, Warning):
        pass
    lines.seek(body)
    return _fixation_rows(path, reader)


def _fixation_rows(path: str, reader) -> np.ndarray:
    """The body rows csv yields after the header, each 3 fields that int()
    reads and int64 holds; blank rows are skipped."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            values = [int(field) for field in row]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-integer field") from None
        if not all(-2**63 <= v < 2**63 for v in values):
            raise DataFormatError(f"{path}:{lineno}: value outside the int64 range")
        rows.append(values)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def save_fixations_csv(path: str, records: Iterable[FixationRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FIXATION_HEADER)
        for rec in records:
            writer.writerow([rec.frame_index, rec.x, rec.y])


# -- frame file formats --------------------------------------------------------

class FrameFiles(Sequence):
    """The raw frames of a recording, checked up front and read on demand.

    Whoever builds one has checked every frame's header and that its file
    holds the whole payload. frames[i] opens frame i's file, seeks to its
    payload and reads that one frame; nothing is cached, so a frame stays in
    memory only while the caller holds it. Reads are seek+read, not a memory
    map: every page of a map that gets touched counts toward RSS for as long
    as the map exists."""

    def __init__(self, count: int, locate: Callable[[int], tuple], kind: str):
        self._count = count
        self._locate = locate  # index -> (path, payload offset, height, width)
        self._kind = kind      # the file format, for the message of a short payload

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> np.ndarray:
        i = operator.index(index)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError(f"frame index {index} out of range for {self._count} frames")
        path, offset, height, width = self._locate(i)
        with open(path, "rb") as f:
            f.seek(offset)
            return _payload(f, path, height, width, self._kind)


def _payload(f: BinaryIO, path: str, height: int, width: int, kind: str) -> np.ndarray:
    """The height x width x 3 frame at f's position; a short read (the file
    shrank after its size was checked) is the truncation error."""
    payload = f.read(height * width * 3)
    if len(payload) != height * width * 3:
        raise DataFormatError(f"{path}: truncated {kind} payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


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


def _ppm_header(f: BinaryIO, path: str) -> tuple[int, int]:
    """(height, width) of the P6 header at the start of f, leaving f at the
    payload. The file's size must cover the payload; it is compared, not
    read, so a header larger than its file allocates nothing."""
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
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: PPM size {width}x{height} is not positive")
    if os.fstat(f.fileno()).st_size - f.tell() < width * height * 3:
        raise DataFormatError(f"{path}: truncated PPM payload")
    return height, width


def load_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        height, width = _ppm_header(f, path)
        return _payload(f, path, height, width, "PPM")


def save_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    h, w, _ = frame.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(frame.tobytes())


def load_raw_rgb(path: str, sidecar: str = None) -> FrameFiles:
    """Concatenated raw RGB frames, read on demand; the JSON sidecar holds
    frames/width/height, and the file's size must match it exactly."""
    sidecar = sidecar or path + ".json"
    try:
        with open(sidecar, encoding="utf-8") as f:
            meta = json.load(f)
    except ValueError:  # JSONDecodeError or UnicodeDecodeError
        raise DataFormatError(f"{sidecar}: invalid JSON sidecar") from None
    try:
        count, width, height = int(meta["frames"]), int(meta["width"]), int(meta["height"])
    except (KeyError, TypeError, ValueError):
        raise DataFormatError(f"{sidecar}: sidecar needs integer frames/width/height") from None
    if count < 0 or width < 1 or height < 1:
        raise DataFormatError(f"{sidecar}: {count} frames of {width}x{height} is not a valid size")
    size = os.stat(path).st_size
    frame_bytes = width * height * 3
    if size != count * frame_bytes:
        raise DataFormatError(f"{path}: {size} bytes, sidecar implies {count * frame_bytes}")
    return FrameFiles(count, lambda i: (path, i * frame_bytes, height, width), "raw RGB")


def save_raw_rgb(path: str, frames: Sequence[np.ndarray], sidecar: str = None) -> None:
    frames = [np.ascontiguousarray(f, dtype=np.uint8) for f in frames]
    h, w, _ = frames[0].shape
    with open(path, "wb") as f:
        for frame in frames:
            f.write(frame.tobytes())
    with open(sidecar or path + ".json", "w") as f:
        json.dump({"frames": len(frames), "width": w, "height": h}, f)
        f.write("\n")


def load_frames(path: str) -> FrameFiles:
    """Directory of *.ppm files named by zero-padded index, or a single .rgb
    file. Every frame is checked here, header and file size, so a corrupt
    frame fails before any is decoded; pixels are read when indexed."""
    p = Path(path)
    if p.is_dir():
        ppm_files = sorted(p.glob("*.ppm"))
        if not ppm_files:
            raise DataFormatError(f"{path}: no .ppm frames found")
        odd = [fp.name for fp in ppm_files if len(fp.stem) != len(ppm_files[0].stem)]
        if odd:  # then name order is not index order: frame_10 sorts before frame_9
            raise DataFormatError(f"{path}: frame names {ppm_files[0].name} and {odd[0]} differ "
                                  "in length; name frames by zero-padded index")
        located = []
        for fp in map(str, ppm_files):
            with open(fp, "rb") as f:
                height, width = _ppm_header(f, fp)
                located.append((fp, f.tell(), height, width))
        return FrameFiles(len(located), located.__getitem__, "PPM")
    if p.is_file() and p.suffix == ".rgb":
        return load_raw_rgb(str(p))
    raise DataFormatError(f"{path}: expected a frame directory or a .rgb file")
