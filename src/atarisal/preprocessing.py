"""Atari frame pipeline: raw 160x210 RGB frames to 84x84x4 observations,
plus fixation logs and the ground-truth count maps aligned to observations.

Frame streams arrive either as a directory of P6 PPM files (named by
zero-padded index) or as one concatenated raw RGB file with a JSON sidecar
giving the frame count. `load_frames` checks every frame up front, each PPM
header, its 210x160 size and each file's size against it, without reading
any pixels, and returns a `FrameFiles` sequence that reads a frame from disk,
with one `os.pread`, when it is indexed; a slice of it reads nothing.
`recording_frames` adds the count of whole observations and refuses fewer
than 16 frames, the one check of a recording's length. `build_observations`
indexes only `retained_indices(i)` of each whole observation i (offsets 2-3
of each group of 4), so the discarded half and an incomplete tail are
validated but never decoded, and grayscales only the 168 of each frame's 210
rows that the resize to 84x84 reads. It returns the observations as plain
84x84x4 float32 arrays; building observation i from the 16-frame window
`frames[16 * i:16 * (i + 1)]` gives the same array, and `observations`
yields them so, one at a time.

`bilinear_resize` reads its source rows, corner columns and weights from a
plan built once per shape (`_resize_plan`). It blends each source row it
reads across once, then blends pairs of those rows down: per output pixel
the float64 operations of blending its two corner rows across and then
down, so the bytes do not depend on the plan. `saliency.upscale_to_frame`
is the same resize from 84x84 to 210x160.

Fixations arrive as a UTF-8 CSV with header "frame_index,x,y" and travel,
from `load_fixations_csv` to the count maps, as one (n, 3) int64 array of
rows (frame_index, x, y): numpy's C reader parses the body from the open
file, so no copy of the text is held, and for any syntax it refuses the file
goes back to the body's start for the csv row loop. `fixation_maps` yields
each observation's count map, bucketing the rows by observation with one
stable argsort and gathering each bucket when its map is made. Each count
map is one np.bincount over a row mask; `total_fixation_map` reads its mask
from the 16-frame retention window, so a scorer needs no map held per
observation and no copy of the rows, and counts each row once: mapped,
rejected as out of bounds, or discarded on a raw frame no observation keeps.
"""

import csv
import functools
import json
import os
import warnings
from collections.abc import Sequence
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataFormatError

FRAME_WIDTH = 160
FRAME_HEIGHT = 210
FRAME_BYTES = FRAME_HEIGHT * FRAME_WIDTH * 3  # one RGB frame's payload
OBS_SIZE = 84
STACK_DEPTH = 4
RAW_PER_PROCESSED = 4       # raw frames consumed per processed frame
RETAIN_OFFSETS = (2, 3)     # which of each group of 4 raw frames survive
RAW_PER_OBSERVATION = RAW_PER_PROCESSED * STACK_DEPTH

GRAY_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601 luma
PPM_TOKEN_MAX = 64  # bytes in one PPM header token


def nonempty_path(path: str, what: str) -> Path:
    """Path(path), for any path but "", which Path reads as the working directory."""
    if not path:
        raise DataFormatError(f"an empty {what} path names no file or directory")
    return Path(path)


def _check_frame(frame: np.ndarray, index: int) -> np.ndarray:
    frame = np.asarray(frame)
    if frame.shape != (FRAME_HEIGHT, FRAME_WIDTH, 3):
        raise DataFormatError(
            f"frame {index}: expected {FRAME_HEIGHT}x{FRAME_WIDTH}x3, got {frame.shape}")
    return frame


def grayscale(frame: np.ndarray) -> np.ndarray:
    """Luma 0.299 R + 0.587 G + 0.114 B, kept as float32 (not re-quantized).
    Each product is cast to float64 as it is made and the sum accumulates in
    place as (r R + g G) + b B, so no float64 copy of the RGB frame exists."""
    frame = np.asarray(frame)
    r, g, b = GRAY_WEIGHTS
    luma = np.multiply(frame[..., 0], r, dtype=np.float64)
    luma += np.multiply(frame[..., 1], g, dtype=np.float64)
    luma += np.multiply(frame[..., 2], b, dtype=np.float64)
    return luma.astype(np.float32)


class _ResizePlan(NamedTuple):
    """What a half-pixel-center bilinear resample of one shape reads: the
    distinct source rows, each output row's upper and lower source row as an
    index into rows, and the column corners x0, x1 with their weights."""
    rows: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    wx: np.ndarray
    wy: np.ndarray


@functools.lru_cache(maxsize=8)
def _resize_plan(h: int, w: int, out_h: int, out_w: int) -> _ResizePlan:
    """The plan of an h x w -> out_h x out_w resample, built once per shape.
    Every caller shares its arrays, so they are read-only."""
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    rows, corner = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    corner.flags.writeable = False  # top and bottom are views of it
    plan = _ResizePlan(rows, corner[:out_h], corner[out_h:], x0, x1,
                       xs - x0, (ys - y0)[:, None])
    for array in plan:
        array.flags.writeable = False
    return plan


def _resample(rows: np.ndarray, plan: _ResizePlan) -> np.ndarray:
    """The resample of plan from its source rows alone, rows[k] being source
    row plan.rows[k]. Each row is blended across once, a[x0] (1 - wx) +
    a[x1] wx, then each output row blends its two across-rows down, top
    (1 - wy) + bottom wy: per pixel the float64 operations of blending the
    two corner rows across and then down. Row-major float32 output."""
    a = np.asarray(rows, dtype=np.float64)
    across = a.take(plan.x0, axis=1)
    across *= 1.0 - plan.wx
    right = a.take(plan.x1, axis=1)
    right *= plan.wx
    across += right
    out = across.take(plan.top, axis=0)
    out *= 1.0 - plan.wy
    bottom = across.take(plan.bottom, axis=0)
    bottom *= plan.wy
    out += bottom
    return out.astype(np.float32)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel-center alignment; float32 output."""
    img = np.asarray(img)
    plan = _resize_plan(*img.shape, out_h, out_w)
    return _resample(img.take(plan.rows, axis=0), plan)


def retained_indices(observation_index: int) -> tuple[int, ...]:
    base = observation_index * RAW_PER_OBSERVATION
    return tuple(base + RAW_PER_PROCESSED * g + o
                 for g in range(STACK_DEPTH) for o in RETAIN_OFFSETS)


def recording_frames(path: str) -> tuple["FrameFiles", int]:
    """load_frames(path), every frame checked, and how many whole
    observations its frames make: at least one, or an error."""
    frames = load_frames(path)
    n_obs = len(frames) // RAW_PER_OBSERVATION
    if not n_obs:
        raise DataFormatError(f"{path}: fewer than {RAW_PER_OBSERVATION} frames")
    return frames, n_obs


def observations(frames: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Each whole observation of frames in turn, built by build_observations
    from its own 16 frames when asked for: one stack exists at a time."""
    for start in range(0, len(frames) - RAW_PER_OBSERVATION + 1, RAW_PER_OBSERVATION):
        yield build_observations(frames[start:start + RAW_PER_OBSERVATION], start=start)[0]


def build_observations(frames: Sequence[np.ndarray], *, start: int = 0) -> list[np.ndarray]:
    """One 84x84x4 float32 observation in [0, 1] per whole 16 raw frames;
    an incomplete tail is never indexed. Observation i indexes exactly raw
    frames retained_indices(i), the 3rd and 4th of each group of 4: each is
    grayscaled and resized, each pair is merged by pixelwise max, and channel
    c, the c-th oldest merged pair, is scaled by 1/255. Observations never
    share raw frames, so a `FrameFiles` sequence decodes nothing else. A bad
    frame is named start + its index in frames, a window's start in its recording."""
    plan = _resize_plan(FRAME_HEIGHT, FRAME_WIDTH, OBS_SIZE, OBS_SIZE)
    observations = []
    for i in range(len(frames) // RAW_PER_OBSERVATION):
        # decoded lazily and zipped with itself, so only one pair is alive at
        # a time; only the rows the resize reads are grayscaled
        kept = (_resample(grayscale(_check_frame(frames[j], start + j)[plan.rows]), plan)
                for j in retained_indices(i))
        stack = np.stack([np.maximum(a, b) for a, b in zip(kept, kept)], axis=-1)
        observations.append((stack.astype(np.float64) / 255.0).astype(np.float32))
    return observations


def _retained_map(rows: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, int]:
    """Count map of the rows where the boolean mask kept is true, and how
    many of those rows lie outside the frame: the one rule of which records a
    map counts and which it rejects. It never gathers rows[kept]."""
    x, y = rows[:, 1], rows[:, 2]
    inside = kept & (0 <= x) & (x < FRAME_WIDTH) & (0 <= y) & (y < FRAME_HEIGHT)
    pixels = y[inside] * FRAME_WIDTH + x[inside]
    fmap = np.bincount(pixels, minlength=FRAME_HEIGHT * FRAME_WIDTH).astype(np.int64, copy=False)
    return fmap.reshape(FRAME_HEIGHT, FRAME_WIDTH), int(np.count_nonzero(kept)) - len(pixels)


def fixation_map(rows: np.ndarray, retained: Iterable[int]) -> tuple[np.ndarray, int]:
    """Count map over the raw frame grid from the (n, 3) int64 rows landing
    on the given retained frame indices. Returns (map, out-of-bounds reject
    count)."""
    return _retained_map(rows, np.isin(rows[:, 0], np.fromiter(retained, dtype=np.int64)))


def total_fixation_map(rows: np.ndarray, n_observations: int) -> tuple[np.ndarray, int, int]:
    """The sum over observations 0..n_observations-1 of fixation_map(rows,
    retained_indices(i)), map and reject count, from one np.bincount, and the
    count of the other rows, discarded on raw frames no such observation
    retains. As retained_indices(i) is retained_indices(0) shifted by 16 i, a
    row counts when its frame lies in [0, 16 n_observations) and a 16-entry
    window read at frame % 16 is true there. Counts are integers, so the sum
    is exact."""
    window = np.isin(np.arange(RAW_PER_OBSERVATION), retained_indices(0))
    frame = rows[:, 0]
    kept = (0 <= frame) & (frame < n_observations * RAW_PER_OBSERVATION)
    total, rejected = _retained_map(rows, kept & window[frame % RAW_PER_OBSERVATION])
    return total, rejected, len(rows) - int(total.sum()) - rejected


def fixation_maps(rows: np.ndarray, n_observations: int) -> Iterator[np.ndarray]:
    """fixation_map(rows, retained_indices(i))[0] for i in 0..n_observations-1
    in turn, offered only the rows on observation i's 16 raw frames: one
    stable argsort by observation index, made on the call and cut at
    0..n_observations, each bucket gathered when its map is asked for. Other
    rows go to no map."""
    obs = rows[:, 0] // RAW_PER_OBSERVATION
    order = np.argsort(obs, kind="stable")
    cuts = np.searchsorted(obs, np.arange(n_observations + 1), sorter=order)
    return (fixation_map(rows.take(order[a:b], axis=0), retained_indices(i))[0]
            for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])))


# -- fixation CSV --------------------------------------------------------------

FIXATION_HEADER = ["frame_index", "x", "y"]


def load_fixations_csv(path: str) -> np.ndarray:
    """The (n, 3) int64 rows (frame_index, x, y) of a fixation CSV, in file
    order, parsed from the open file with no copy of its text. numpy's C
    reader parses the body; input it refuses (quoted fields, `1_0`, non-ASCII
    digits, values outside int64, any syntax error) or reads with other than
    3 columns sends the file back to the body's start for the csv row loop,
    which accepts what csv and int() accept and names the failing line
    otherwise."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            line = f.readline()
            if not line:
                raise DataFormatError(f"{path}: empty fixation file")
            try:
                header = next(csv.reader([line]))
            except csv.Error as e:  # e.g. a field longer than csv's limit
                raise DataFormatError(f"{path}: {e}") from None
            if header != FIXATION_HEADER:
                raise DataFormatError(
                    f"{path}: expected header {','.join(FIXATION_HEADER)!r}, got {','.join(header)!r}")
            body = f.tell()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # e.g. "input contained no data"
                    rows = np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2,
                                      comments=None, quotechar=None)
                if rows.shape[1] == 3:
                    return rows
            except (ValueError, Warning):
                pass
            f.seek(body)
            reader = csv.reader(f)
            try:
                return _fixation_rows(path, reader)
            except csv.Error as e:  # line_num counts the body lines read, the failing one too
                raise DataFormatError(f"{path}:{reader.line_num + 1}: {e}") from None
    except UnicodeDecodeError:  # raised per decoded chunk, so it carries no file offset
        raise DataFormatError(f"{path}: not UTF-8 text") from None


def _fixation_rows(path: str, reader) -> np.ndarray:
    """The body rows csv yields after the header, each 3 fields that int()
    reads and int64 holds; blank rows are skipped. A message names the file
    line the row ends on, which a quoted line break puts past its row count."""
    rows = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num + 1  # line_num counts body lines; the header is line 1
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


def save_fixations_csv(path: str, rows: Iterable[Iterable[int]]) -> None:
    """A fixation CSV of rows (frame_index, x, y): tuples or array rows."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FIXATION_HEADER)
        writer.writerows(rows)


# -- frame file formats --------------------------------------------------------

class FrameFiles(Sequence):
    """The raw 210x160 frames of a recording, checked up front and read on
    demand: a list of (path, payload offset) locations, one per frame.

    Whoever builds one has checked every frame's header, its 210x160 size
    and that its file holds the whole payload. frames[i] opens frame i's
    file and reads that one frame's payload at its offset; nothing is cached,
    so a frame stays in memory only while the caller holds it. A read is one
    os.pread on a descriptor closed before it returns, not a memory map:
    every page of a map that gets touched counts toward RSS for as long as
    the map exists. frames[a:b] is a
    FrameFiles over the slice of the locations and reads nothing until it is
    indexed, so `observations` decodes observation i's retained frames
    alone. A file cut short after its check fails when its frame is read,
    with the truncation error."""

    def __init__(self, locations: list[tuple[str, int]], kind: str):
        self._locations = locations
        self._kind = kind  # the file format, for the message of a short payload

    def __len__(self) -> int:
        return len(self._locations)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FrameFiles(self._locations[index], self._kind)
        path, offset = self._locations[index]
        fd = os.open(path, os.O_RDONLY)
        try:
            payload = os.pread(fd, FRAME_BYTES, offset)
        finally:
            os.close(fd)
        if len(payload) != FRAME_BYTES:  # the file shrank after its size was checked
            raise DataFormatError(f"{path}: truncated {self._kind} payload")
        return np.frombuffer(payload, dtype=np.uint8).reshape(FRAME_HEIGHT, FRAME_WIDTH, 3)


def _ppm_token(f: BinaryIO, path: str) -> bytes:
    """The next whitespace-delimited header token of f, comments skipped; a
    token longer than PPM_TOKEN_MAX bytes is no header of a 210x160 frame."""
    tok = bytearray()
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
                return bytes(tok)
            continue
        if len(tok) == PPM_TOKEN_MAX:
            raise DataFormatError(f"{path}: malformed PPM header")
        tok += ch


def _ppm_header(f: BinaryIO, path: str) -> tuple[int, int]:
    """(height, width) of the P6 header at the start of f, leaving f at the
    payload. The file's size must cover the payload; it is compared, not
    read, so a header larger than its file allocates nothing."""
    if _ppm_token(f, path) != b"P6":
        raise DataFormatError(f"{path}: not a binary P6 PPM")
    tokens = [_ppm_token(f, path) for _ in range(3)]
    try:
        width, height, maxval = map(int, tokens)
    except ValueError:
        raise DataFormatError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataFormatError(f"{path}: unsupported PPM maxval {maxval}")
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: PPM size {width}x{height} is not positive")
    if os.fstat(f.fileno()).st_size - f.tell() < width * height * 3:
        raise DataFormatError(f"{path}: truncated PPM payload")
    return height, width


def save_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    h, w, _ = frame.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(frame.tobytes())


def write_sidecar(path: str, **ints: int) -> None:
    """The JSON sidecar path.json of a .rgb or .raw file: ints, in order, on one line."""
    with open(path + ".json", "w") as f:
        f.write(json.dumps(ints) + "\n")


def read_sidecar(path: str, keys: tuple[str, ...]) -> list[int]:
    """The values of keys in the JSON sidecar path.json, each a JSON integer:
    a float, a string, a bool or a missing key is an error naming the
    sidecar, as is a file that is not UTF-8 JSON."""
    sidecar = path + ".json"
    try:
        with open(sidecar, encoding="utf-8") as f:
            meta = json.load(f)
    except (ValueError, RecursionError):  # bad JSON or UTF-8, or nesting too deep
        raise DataFormatError(f"{sidecar}: invalid JSON sidecar") from None
    meta = meta if isinstance(meta, dict) else {}
    for key in keys:
        if type(meta.get(key)) is not int:  # a bool is an int subclass, not a JSON integer
            raise DataFormatError(f"{sidecar}: sidecar needs an integer {key}, "
                                  f"got {meta.get(key)!r}")
    return [meta[key] for key in keys]


def load_raw_rgb(path: str) -> FrameFiles:
    """Concatenated raw RGB frames, read on demand. The JSON sidecar
    path.json holds integer frames/width/height; the frames must be 210x160,
    and the file's size must match the sidecar exactly."""
    count, width, height = read_sidecar(path, ("frames", "width", "height"))
    if count < 0:
        raise DataFormatError(f"{path}.json: frame count {count} is negative")
    if (height, width) != (FRAME_HEIGHT, FRAME_WIDTH):
        raise DataFormatError(f"{path}: expected {FRAME_HEIGHT}x{FRAME_WIDTH}x3 frames, "
                              f"the sidecar gives {(height, width, 3)}")
    size = os.stat(path).st_size
    if size != count * FRAME_BYTES:
        raise DataFormatError(f"{path}: {size} bytes, sidecar implies {count * FRAME_BYTES}")
    return FrameFiles([(path, i * FRAME_BYTES) for i in range(count)], "raw RGB")


def save_raw_rgb(path: str, frames: Sequence[np.ndarray]) -> None:
    frames = [np.ascontiguousarray(f, dtype=np.uint8) for f in frames]
    h, w, _ = frames[0].shape
    with open(path, "wb") as f:
        for frame in frames:
            f.write(frame.tobytes())
    write_sidecar(path, frames=len(frames), width=w, height=h)


def load_frames(path: str) -> FrameFiles:
    """Directory of *.ppm files named by zero-padded index, or a single .rgb
    file. Every frame is checked here, header, file size and the 210x160
    frame size (of each PPM, or of the .rgb sidecar), so a corrupt frame
    fails before any is decoded, even one the retention schedule discards;
    pixels are read when indexed."""
    p = nonempty_path(path, "frames")
    if p.is_dir():
        ppm_files = sorted(map(str, p.glob("*.ppm")))  # one directory: str order is name order
        if not ppm_files:
            raise DataFormatError(f"{path}: no .ppm frames found")
        names = [os.path.basename(fp) for fp in ppm_files]
        odd = [name for name in names if len(name) != len(names[0])]
        if odd:  # then name order is not index order: frame_10 sorts before frame_9
            raise DataFormatError(f"{path}: frame names {names[0]} and {odd[0]} differ "
                                  "in length; name frames by zero-padded index")
        located = []
        for i, fp in enumerate(ppm_files):
            with open(fp, "rb") as f:
                height, width = _ppm_header(f, fp)
                if (height, width) != (FRAME_HEIGHT, FRAME_WIDTH):  # retained or not
                    raise DataFormatError(f"{fp}: frame {i}: expected {FRAME_HEIGHT}x"
                                          f"{FRAME_WIDTH}x3, got {(height, width, 3)}")
                located.append((fp, f.tell()))
        return FrameFiles(located, "PPM")
    if p.is_file() and p.suffix == ".rgb":
        return load_raw_rgb(str(p))
    raise DataFormatError(f"{path}: expected a frame directory or a .rgb file")
