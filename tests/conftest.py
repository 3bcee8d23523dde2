import numpy as np
import pytest

from atarisal import preprocessing as P, tensor_ops as T


def make_frames(n_frames, seed=0, square=8):
    """Dim noisy background with one bright square wandering around.
    Returns (frames, centers) where centers[i] = (x, y) of the square."""
    rng = np.random.default_rng(seed)
    frames, centers = [], []
    cx, cy = 80, 105
    for _ in range(n_frames):
        cx = int(np.clip(cx + rng.integers(-8, 9), square, P.FRAME_WIDTH - square - 1))
        cy = int(np.clip(cy + rng.integers(-8, 9), square, P.FRAME_HEIGHT - square - 1))
        frame = rng.integers(0, 40, size=(P.FRAME_HEIGHT, P.FRAME_WIDTH, 3), dtype=np.uint8)
        frame[cy - square // 2:cy + square // 2, cx - square // 2:cx + square // 2, :] = 255
        frames.append(frame)
        centers.append((cx, cy))
    return frames, centers


def make_fixations(centers, seed=0, per_frame=3, jitter=5):
    """A few gaze points near the bright square on every frame."""
    rng = np.random.default_rng(seed)
    records = []
    for idx, (cx, cy) in enumerate(centers):
        for _ in range(per_frame):
            x = int(np.clip(cx + rng.integers(-jitter, jitter + 1), 0, P.FRAME_WIDTH - 1))
            y = int(np.clip(cy + rng.integers(-jitter, jitter + 1), 0, P.FRAME_HEIGHT - 1))
            records.append((idx, x, y))
    return records


def write_recording(dirpath, n_frames, seed=0):
    """PPM frames plus fixations.csv under dirpath; returns (frames_dir, csv_path)."""
    frames, centers = make_frames(n_frames, seed=seed)
    frames_dir = dirpath / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        P.save_ppm(str(frames_dir / f"frame_{i:05d}.ppm"), frame)
    csv_path = dirpath / "fixations.csv"
    P.save_fixations_csv(str(csv_path), make_fixations(centers, seed=seed + 1))
    return frames_dir, csv_path


@pytest.fixture
def recording_32(tmp_path):
    return write_recording(tmp_path, 32, seed=11)


@pytest.fixture
def recording_64(tmp_path):
    return write_recording(tmp_path, 64, seed=5)


def fake_blas(monkeypatch, threads):
    """The counts the commands set, through a fake setter on a BLAS that
    runs `threads` until something sets it."""
    calls, state = [], {"threads": threads}

    def set_threads(n):
        calls.append(n)
        state["threads"] = n

    monkeypatch.setattr(T, "_openblas_thread_functions",
                        lambda: (set_threads, lambda: state["threads"]))
    return calls, state


def count_shared_runs(monkeypatch):
    """The worker counts of every conv2d that shares its blocks among
    threads, from now on."""
    runs, share_blocks = [], T._share_blocks

    def counted(work, workers):
        if workers > 1:
            runs.append(workers)
        return share_blocks(work, workers)

    monkeypatch.setattr(T, "_share_blocks", counted)
    return runs
