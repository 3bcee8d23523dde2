import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import preprocessing as P
from atarisal.errors import DataFormatError

from conftest import make_frames


def solid_frame(r, g, b):
    frame = np.zeros((210, 160, 3), np.uint8)
    frame[..., 0], frame[..., 1], frame[..., 2] = r, g, b
    return frame


# -- grayscale ---------------------------------------------------------------------

def test_grayscale_white_black_red():
    assert P.grayscale(solid_frame(255, 255, 255))[0, 0] == 255.0
    assert P.grayscale(solid_frame(0, 0, 0))[0, 0] == 0.0
    assert P.grayscale(solid_frame(255, 0, 0))[0, 0] == pytest.approx(76.245, abs=1e-3)


def test_grayscale_keeps_float_precision():
    g = P.grayscale(solid_frame(1, 0, 0))
    assert g.dtype == np.float32
    assert g[0, 0] == pytest.approx(0.299, abs=1e-6)  # not re-quantized to u8


# -- resize ------------------------------------------------------------------------

def test_resize_constant_is_exact():
    out = P.resize_84(np.full((210, 160), 37.5, np.float32))
    assert np.array_equal(out, np.full((84, 84), 37.5, np.float32))


def test_resize_same_size_is_identity():
    rng = np.random.default_rng(0)
    img = rng.random((50, 40)).astype(np.float32)
    assert np.array_equal(P.bilinear_resize(img, 50, 40), img)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_resize_bounded_by_input_range(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((210, 160)).astype(np.float32) * 100
    out = P.resize_84(img)
    assert out.min() >= img.min() - 1e-4
    assert out.max() <= img.max() + 1e-4


def test_resize_preserves_horizontal_ramp():
    # bilinear reproduces affine signals away from the clamped borders
    img = np.tile(np.arange(160, dtype=np.float32), (210, 1))
    out = P.resize_84(img)
    xs = np.clip((np.arange(84) + 0.5) * (160 / 84) - 0.5, 0, 159)
    np.testing.assert_allclose(out[40, 1:-1], xs[1:-1], atol=1e-3)


def test_max_merge():
    rng = np.random.default_rng(1)
    a = rng.random((84, 84)).astype(np.float32)
    b = rng.random((84, 84)).astype(np.float32)
    assert np.array_equal(P.max_merge(a, a), a)
    assert np.array_equal(P.max_merge(a, np.zeros_like(a)), a)
    assert np.array_equal(P.max_merge(a, b), P.max_merge(b, a))
    with pytest.raises(DataFormatError):
        P.max_merge(a, b[:10])


# -- observation building ------------------------------------------------------------

@given(n=st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_observation_count_formula(n):
    frames = [solid_frame(0, 0, 0)] * n
    assert len(P.build_observations(frames)) == (n // 4) // 4


def test_32_frames_two_observations():
    frames, _ = make_frames(32, seed=2)
    obs = P.build_observations(frames)
    assert len(obs) == 2
    assert obs[0].retained_indices == (2, 3, 6, 7, 10, 11, 14, 15)
    assert obs[1].retained_indices == (18, 19, 22, 23, 26, 27, 30, 31)
    assert obs[0].source_indices == tuple(range(16))
    assert obs[1].source_indices == tuple(range(16, 32))


def test_31_frames_drop_incomplete_tail():
    frames, _ = make_frames(31, seed=3)
    assert len(P.build_observations(frames)) == 1


def test_constant_stream_gives_identical_channels():
    frames = [solid_frame(90, 90, 90)] * 32
    obs = P.build_observations(frames)
    assert len(obs) == 2
    px = obs[0].pixels
    for c in range(1, 4):
        assert np.array_equal(px[:, :, c], px[:, :, 0])
    assert px[0, 0, 0] == pytest.approx(90.0 / 255.0, abs=1e-6)


def test_pixels_within_unit_interval():
    frames, _ = make_frames(16, seed=4)
    px = P.build_observations(frames)[0].pixels
    assert px.dtype == np.float32
    assert px.min() >= 0.0 and px.max() <= 1.0


def test_retained_indices_partition_across_observations():
    frames, _ = make_frames(64, seed=5)
    obs = P.build_observations(frames)
    seen = [i for o in obs for i in o.retained_indices]
    assert len(seen) == len(set(seen))
    # retained indices are exactly offsets 2,3 mod 4 of the consumed range
    assert set(seen) == {i for i in range(64) if i % 4 in (2, 3)}


def test_retained_frames_actually_drive_the_observation():
    # changing a discarded frame leaves the stack alone, changing a retained
    # frame does not
    frames = [solid_frame(10, 10, 10) for _ in range(16)]
    base = P.build_observations(frames)[0].pixels
    frames2 = [f.copy() for f in frames]
    frames2[0] = solid_frame(200, 200, 200)   # offset 0 -> discarded
    assert np.array_equal(P.build_observations(frames2)[0].pixels, base)
    frames3 = [f.copy() for f in frames]
    frames3[2] = solid_frame(200, 200, 200)   # offset 2 -> retained
    assert not np.array_equal(P.build_observations(frames3)[0].pixels, base)


def test_merge_takes_pixelwise_max_of_the_pair():
    frames = [solid_frame(0, 0, 0) for _ in range(16)]
    for g in range(4):
        frames[4 * g + 2] = solid_frame(60, 60, 60)
        frames[4 * g + 3] = solid_frame(120, 120, 120)
    px = P.build_observations(frames)[0].pixels
    assert px[0, 0, 0] == pytest.approx(120.0 / 255.0, abs=1e-6)


# -- fixation maps -------------------------------------------------------------------

def test_fixation_union_counts():
    frames, _ = make_frames(16, seed=6)
    obs = P.build_observations(frames)[0]
    records = [
        P.FixationRecord(2, 10, 10),    # retained
        P.FixationRecord(3, 11, 10),    # retained
        P.FixationRecord(15, 12, 10),   # retained
        P.FixationRecord(0, 13, 10),    # discarded
        P.FixationRecord(4, 14, 10),    # discarded
    ]
    fmap, rejected = P.fixations_for_observation(records, obs)
    assert fmap.sum() == 3
    assert rejected == 0


def test_fixation_same_pixel_counts_twice():
    frames, _ = make_frames(16, seed=7)
    obs = P.build_observations(frames)[0]
    records = [P.FixationRecord(2, 5, 9), P.FixationRecord(3, 5, 9)]
    fmap, _ = P.fixations_for_observation(records, obs)
    assert fmap[9, 5] == 2
    assert fmap.sum() == 2


def test_fixation_out_of_bounds_rejected_with_count():
    frames, _ = make_frames(16, seed=8)
    obs = P.build_observations(frames)[0]
    records = [P.FixationRecord(2, 160, 10), P.FixationRecord(3, -1, 10),
               P.FixationRecord(6, 0, 210), P.FixationRecord(7, 8, 8)]
    fmap, rejected = P.fixations_for_observation(records, obs)
    assert rejected == 3
    assert fmap.sum() == 1


def test_no_records_zero_map():
    frames, _ = make_frames(16, seed=9)
    obs = P.build_observations(frames)[0]
    fmap, rejected = P.fixations_for_observation([], obs)
    assert fmap.sum() == 0 and rejected == 0


def test_records_by_observation_buckets_in_input_order():
    records = [P.FixationRecord(f, f, 0) for f in (17, 3, -1, 16, 31, 32, 0, 15, 40)]
    buckets = P.records_by_observation(records, 2)
    assert [[r.frame_index for r in b] for b in buckets] == [[3, 0, 15], [17, 16, 31]]
    assert P.records_by_observation(records, 0) == []


@given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_binned_fixation_maps_match_full_scans(seed, n_obs):
    # the reference: every record offered to every observation's map
    rng = np.random.default_rng(seed)
    records = [P.FixationRecord(int(f), int(x), int(y)) for f, x, y in zip(
        rng.integers(-20, 16 * n_obs + 20, 60), rng.integers(-5, 170, 60),
        rng.integers(-5, 220, 60))]
    buckets = P.records_by_observation(records, n_obs)
    assert len(buckets) == n_obs
    for i, bucket in enumerate(buckets):
        got_map, got_rej = P.fixation_map(bucket, P.retained_indices(i))
        want_map, want_rej = P.fixation_map(records, P.retained_indices(i))
        assert got_rej == want_rej
        np.testing.assert_array_equal(got_map, want_map)


# -- csv ------------------------------------------------------------------------------

def test_fixation_csv_round_trip(tmp_path):
    records = [P.FixationRecord(0, 1, 2), P.FixationRecord(7, 159, 209)]
    path = str(tmp_path / "fix.csv")
    P.save_fixations_csv(path, records)
    assert open(path).readline().strip() == "frame_index,x,y"
    assert P.load_fixations_csv(path) == records


def test_fixation_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,x,y\n0,1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        P.load_fixations_csv(str(path))


def test_fixation_csv_non_integer_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("frame_index,x,y\n0,1.5,2\n")
    with pytest.raises(DataFormatError, match="non-integer"):
        P.load_fixations_csv(str(path))


def test_fixation_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        P.load_fixations_csv(str(path))


# -- frame files ----------------------------------------------------------------------

def test_ppm_round_trip(tmp_path):
    frame = make_frames(1, seed=10)[0][0]
    path = str(tmp_path / "f.ppm")
    P.save_ppm(path, frame)
    assert np.array_equal(P.load_ppm(path), frame)


def test_ppm_header_comments_are_skipped(tmp_path):
    payload = bytes(range(6)) * 1  # 2x1 image
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + payload)
    img = P.load_ppm(str(path))
    assert img.shape == (1, 2, 3)
    assert img.ravel().tolist() == list(range(6))


def test_ppm_wrong_maxval(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n2 1\n65535\n" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="maxval"):
        P.load_ppm(str(path))


def test_ppm_truncated_payload(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(DataFormatError, match="truncated"):
        P.load_ppm(str(path))


def test_raw_rgb_round_trip(tmp_path):
    frames, _ = make_frames(3, seed=11)
    path = str(tmp_path / "frames.rgb")
    P.save_raw_rgb(path, frames)
    loaded = P.load_raw_rgb(path)
    assert len(loaded) == 3
    for a, b in zip(frames, loaded):
        assert np.array_equal(a, b)


def test_raw_rgb_size_mismatch(tmp_path):
    frames, _ = make_frames(2, seed=12)
    path = str(tmp_path / "frames.rgb")
    P.save_raw_rgb(path, frames)
    with open(path, "ab") as f:
        f.write(b"\x00" * 5)
    with pytest.raises(DataFormatError, match="sidecar implies"):
        P.load_raw_rgb(path)


def test_load_frames_dispatch(tmp_path, recording_32):
    frames_dir, _ = recording_32
    assert len(P.load_frames(str(frames_dir))) == 32
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataFormatError, match="no .ppm"):
        P.load_frames(str(empty))
    with pytest.raises(DataFormatError):
        P.load_frames(str(tmp_path / "nope.txt"))


def test_load_frames_rejects_unpadded_names(tmp_path):
    # sorted by name, frame_10 would come before frame_2 and reorder the stream
    frames, _ = make_frames(20, seed=2)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i, frame in enumerate(frames):
        P.save_ppm(str(frames_dir / f"frame_{i}.ppm"), frame)
    with pytest.raises(DataFormatError, match="frame_0.ppm and frame_10.ppm"):
        P.load_frames(str(frames_dir))
