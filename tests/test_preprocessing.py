import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atarisal import preprocessing as P
from atarisal.errors import DataFormatError

import oracles
from conftest import make_frames


def solid_frame(r, g, b):
    frame = np.zeros((210, 160, 3), np.uint8)
    frame[..., 0], frame[..., 1], frame[..., 2] = r, g, b
    return frame


def unread_rows():
    """The frame rows no output row of the 210 -> 84 half-pixel resize
    reads: neither the floor of its source coordinate nor the row below."""
    y0 = np.floor(np.clip((np.arange(84) + 0.5) * (210 / 84) - 0.5, 0, 209)).astype(int)
    return sorted(set(range(210)) - set(y0) - set(np.minimum(y0 + 1, 209)))


def whole_frame_observation(frames):
    """The first observation by the whole-frame formulas: each retained frame
    grayscaled and resized whole, each pair merged by max, scaled by 1/255."""
    kept = [oracles.bilinear_resize(oracles.grayscale(frames[4 * g + o]), 84, 84)
            for g in range(4) for o in (2, 3)]
    stack = np.stack([np.maximum(a, b) for a, b in zip(kept[::2], kept[1::2])], axis=-1)
    return (stack.astype(np.float64) / 255.0).astype(np.float32)


# -- grayscale ---------------------------------------------------------------------

def test_grayscale_white_black_red():
    assert P.grayscale(solid_frame(255, 255, 255))[0, 0] == 255.0
    assert P.grayscale(solid_frame(0, 0, 0))[0, 0] == 0.0
    assert P.grayscale(solid_frame(255, 0, 0))[0, 0] == pytest.approx(76.245, abs=1e-3)


def test_grayscale_keeps_float_precision():
    g = P.grayscale(solid_frame(1, 0, 0))
    assert g.dtype == np.float32
    assert g[0, 0] == pytest.approx(0.299, abs=1e-6)  # not re-quantized to u8


@given(seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.uint8, np.int64, np.float32, np.float64]))
@settings(max_examples=40, deadline=None)
def test_grayscale_bytes_equal_the_whole_frame_float64_formula(seed, dtype):
    # each product is made in float64, whatever the frame's dtype: a float32
    # frame multiplied in float32 would round differently
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        frame = rng.integers(0, 256, (210, 160, 3), dtype=np.uint8)
    elif dtype == np.int64:
        frame = rng.integers(-2**62, 2**62, (210, 160, 3), dtype=np.int64)
    else:
        frame = (rng.standard_normal((210, 160, 3)) * 10.0 ** rng.uniform(-3, 6)).astype(dtype)
    got = P.grayscale(frame)
    want = oracles.grayscale(frame)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


# -- resize ------------------------------------------------------------------------

def test_resize_plan_reads_168_rows_and_is_shared_read_only():
    plan = P._resize_plan(210, 160, 84, 84)
    assert len(unread_rows()) == 42
    assert plan.rows.tolist() == sorted(set(range(210)) - set(unread_rows()))
    assert P._resize_plan(210, 160, 84, 84) is plan
    assert not any(array.flags.writeable for array in plan)


def test_resize_constant_is_exact():
    out = P.bilinear_resize(np.full((210, 160), 37.5, np.float32), 84, 84)
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
    out = P.bilinear_resize(img, 84, 84)
    assert out.min() >= img.min() - 1e-4
    assert out.max() <= img.max() + 1e-4


def test_resize_preserves_horizontal_ramp():
    # bilinear reproduces affine signals away from the clamped borders
    img = np.tile(np.arange(160, dtype=np.float32), (210, 1))
    out = P.bilinear_resize(img, 84, 84)
    xs = np.clip((np.arange(84) + 0.5) * (160 / 84) - 0.5, 0, 159)
    np.testing.assert_allclose(out[40, 1:-1], xs[1:-1], atol=1e-3)


@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.sampled_from([((210, 160), (84, 84)), ((84, 84), (210, 160))]))
@settings(max_examples=20, deadline=None)
def test_resize_bytes_equal_reference(seed, sizes):
    # both directions the pipeline takes: frame to observation, map to frame
    (h, w), (out_h, out_w) = sizes
    rng = np.random.default_rng(seed)
    img = (rng.standard_normal((h, w)) * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
    got = P.bilinear_resize(img, out_h, out_w)
    want = oracles.bilinear_resize(img, out_h, out_w)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    assert all(o.shape == (84, 84, 4) and o.dtype == np.float32 for o in obs)
    assert P.retained_indices(0) == (2, 3, 6, 7, 10, 11, 14, 15)
    assert P.retained_indices(1) == (18, 19, 22, 23, 26, 27, 30, 31)
    # observation i's map counts the rows on its retained frames, among the
    # raw frames 16i..16i+15 it consumes; row f fixates pixel (f, 0)
    rows = np.array([(f, f, 0) for f in range(32)], dtype=np.int64)
    maps = list(P.fixation_maps(rows, 2))
    assert [np.flatnonzero(m[0]).tolist() for m in maps] == \
        [list(P.retained_indices(0)), list(P.retained_indices(1))]
    for i, fmap in enumerate(maps):
        np.testing.assert_array_equal(fmap, P.fixation_map(rows, P.retained_indices(i))[0])


def test_31_frames_drop_incomplete_tail():
    frames, _ = make_frames(31, seed=3)
    assert len(P.build_observations(frames)) == 1


def test_incomplete_tail_is_never_indexed():
    # observation i indexes only retained_indices(i), so no frame of a tail
    # too short for an observation is decoded or checked
    frames, _ = make_frames(16, seed=3)
    assert np.array_equal(P.build_observations(frames + [None] * 15)[0],
                          P.build_observations(frames)[0])


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "all 0", "all 255", "unread rows differ"]))
@settings(max_examples=30, deadline=None)
def test_observation_bytes_equal_the_whole_frame_decode(seed, kind):
    # only the 168 rows the resize reads are grayscaled; a value on any of the
    # other 42 rows may not reach the observation
    rng = np.random.default_rng(seed)
    if kind == "all 0":
        frames = [np.zeros((210, 160, 3), np.uint8)] * 16
    elif kind == "all 255":
        frames = [np.full((210, 160, 3), 255, np.uint8)] * 16
    else:
        frames = list(rng.integers(0, 256, (16, 210, 160, 3), dtype=np.uint8))
    if kind == "unread rows differ":
        for frame in frames:
            frame[:] = rng.integers(0, 128)
            frame[unread_rows()] = rng.integers(128, 256, (42, 160, 3))
    got = P.build_observations(frames)
    want = whole_frame_observation(frames)
    assert len(got) == 1 and got[0].dtype == want.dtype
    assert got[0].tobytes() == want.tobytes()
    if kind == "unread rows differ":  # constant frames give constant channels
        assert all(np.unique(want[..., c]).size == 1 for c in range(4))


def test_build_observations_rejects_a_frame_of_another_size():
    frames = [solid_frame(0, 0, 0)] * 16
    frames[6] = np.zeros((100, 160, 3), np.uint8)  # retained: offset 2 of its group
    with pytest.raises(DataFormatError, match=r"frame 6: expected 210x160x3, got \(100, 160, 3\)"):
        P.build_observations(frames)


def test_a_bad_frame_is_named_by_its_index_in_the_recording():
    # observations builds observation 1 from its 16-frame window, frames
    # 16-31, which names frame 22 as the recording does, not as frame 6
    frames = [solid_frame(0, 0, 0)] * 32
    frames[22] = np.zeros((100, 100, 3), np.uint8)  # retained: offset 2 of its group
    for build in (P.build_observations, lambda frames: list(P.observations(frames))):
        with pytest.raises(DataFormatError, match=r"^frame 22: expected 210x160x3, got "
                                                  r"\(100, 100, 3\)$"):
            build(frames)


def test_constant_stream_gives_identical_channels():
    frames = [solid_frame(90, 90, 90)] * 32
    obs = P.build_observations(frames)
    assert len(obs) == 2
    px = obs[0]
    for c in range(1, 4):
        assert np.array_equal(px[:, :, c], px[:, :, 0])
    assert px[0, 0, 0] == pytest.approx(90.0 / 255.0, abs=1e-6)


def test_pixels_within_unit_interval():
    frames, _ = make_frames(16, seed=4)
    px = P.build_observations(frames)[0]
    assert px.dtype == np.float32
    assert px.min() >= 0.0 and px.max() <= 1.0


def test_retained_indices_partition_across_observations():
    frames, _ = make_frames(64, seed=5)
    obs = P.build_observations(frames)
    seen = [i for m in range(len(obs)) for i in P.retained_indices(m)]
    assert len(seen) == len(set(seen))
    # retained indices are exactly offsets 2,3 mod 4 of the consumed range
    assert set(seen) == {i for i in range(64) if i % 4 in (2, 3)}


def test_retained_frames_actually_drive_the_observation():
    # changing a discarded frame leaves the stack alone, changing a retained
    # frame does not
    frames = [solid_frame(10, 10, 10) for _ in range(16)]
    base = P.build_observations(frames)[0]
    frames2 = [f.copy() for f in frames]
    frames2[0] = solid_frame(200, 200, 200)   # offset 0 -> discarded
    assert np.array_equal(P.build_observations(frames2)[0], base)
    frames3 = [f.copy() for f in frames]
    frames3[2] = solid_frame(200, 200, 200)   # offset 2 -> retained
    assert not np.array_equal(P.build_observations(frames3)[0], base)


def test_merge_takes_pixelwise_max_of_the_pair():
    frames = [solid_frame(0, 0, 0) for _ in range(16)]
    for g in range(4):
        frames[4 * g + 2] = solid_frame(60, 60, 60)
        frames[4 * g + 3] = solid_frame(120, 120, 120)
    px = P.build_observations(frames)[0]
    assert px[0, 0, 0] == pytest.approx(120.0 / 255.0, abs=1e-6)


# -- fixation maps -------------------------------------------------------------------

def test_fixation_union_counts():
    rows = np.array([
        (2, 10, 10),    # retained
        (3, 11, 10),    # retained
        (15, 12, 10),   # retained
        (0, 13, 10),    # discarded
        (4, 14, 10),    # discarded
    ], dtype=np.int64)
    fmap, rejected = P.fixation_map(rows, P.retained_indices(0))
    assert fmap.sum() == 3
    assert rejected == 0


def test_fixation_same_pixel_counts_twice():
    rows = np.array([(2, 5, 9), (3, 5, 9)], dtype=np.int64)
    fmap, _ = P.fixation_map(rows, P.retained_indices(0))
    assert fmap[9, 5] == 2
    assert fmap.sum() == 2


def test_fixation_out_of_bounds_rejected_with_count():
    rows = np.array([(2, 160, 10), (3, -1, 10), (6, 0, 210), (7, 8, 8)], dtype=np.int64)
    fmap, rejected = P.fixation_map(rows, P.retained_indices(0))
    assert rejected == 3
    assert fmap.sum() == 1


def test_no_records_zero_map():
    fmap, rejected = P.fixation_map(np.empty((0, 3), np.int64), P.retained_indices(0))
    assert fmap.sum() == 0 and rejected == 0


@given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(0, 4),
       extremes=st.lists(st.sampled_from([-2**63, -2**62, 2**62, 2**63 - 1]), max_size=6))
@settings(max_examples=40, deadline=None)
def test_binned_fixation_maps_match_full_scans(seed, n_obs, extremes):
    # the reference: every record offered to every observation's map
    rng = np.random.default_rng(seed)
    records = np.stack([rng.integers(-20, 16 * n_obs + 20, 60), rng.integers(-5, 170, 60),
                        rng.integers(-5, 220, 60)], axis=1)
    # frames at the int64 extremes, where frame % 16, frame // 16 and the
    # 16 n_obs bound would break first
    records[:len(extremes), 0] = extremes
    maps = list(P.fixation_maps(records, n_obs))
    assert len(maps) == n_obs
    assert list(P.fixation_maps(records, 0)) == []
    total_map, total_rej = np.zeros((P.FRAME_HEIGHT, P.FRAME_WIDTH), np.int64), 0
    for i, got_map in enumerate(maps):
        want_map, want_rej = P.fixation_map(records, P.retained_indices(i))
        np.testing.assert_array_equal(got_map, want_map)
        total_map, total_rej = total_map + want_map, total_rej + want_rej
    # the recording's total is the sum of the per-observation maps and rejects
    got_map, got_rej, _ = P.total_fixation_map(records, n_obs)
    assert got_rej == total_rej
    np.testing.assert_array_equal(got_map, total_map)


@given(seed=st.integers(0, 2**32 - 1), n_obs=st.integers(0, 4),
       extremes=st.lists(st.sampled_from([-2**63, -1, 2**63 - 1]), max_size=4))
@settings(max_examples=40, deadline=None)
def test_every_row_is_counted_rejected_or_discarded(seed, n_obs, extremes):
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(-20, 16 * n_obs + 20, 60), rng.integers(-5, 170, 60),
                     rng.integers(-5, 220, 60)], axis=1)
    rows[:len(extremes), 0] = extremes
    total, rejected, discarded = P.total_fixation_map(rows, n_obs)
    assert int(total.sum()) + rejected + discarded == len(rows)
    # discarded, counted directly: the frame lies outside [0, 16 n_obs), or at
    # offset 0 or 1 of its group of 4, whatever its x and y
    assert discarded == sum(not 0 <= f < 16 * n_obs or f % 4 in (0, 1) for f in rows[:, 0].tolist())


# -- csv ------------------------------------------------------------------------------

def test_fixation_csv_round_trip(tmp_path):
    records = [(0, 1, 2), (7, 159, 209)]
    path = str(tmp_path / "fix.csv")
    P.save_fixations_csv(path, records)
    with open(path) as f:
        assert f.readline().strip() == "frame_index,x,y"
    loaded = P.load_fixations_csv(path)
    assert loaded.dtype == np.int64
    assert loaded.tolist() == [list(r) for r in records]


# CSV field and line syntax: what csv and int() accept is data, whatever
# numpy's reader makes of it
_padding = st.sampled_from(["", " ", "  ", "\t", " \t"])
_integer = st.one_of(
    st.integers(-300, 300),
    st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**30]),
    st.integers(-2**70, 2**70))


@st.composite
def _field(draw):
    kind = draw(st.sampled_from(["plain"] * 6 + ["sign", "quoted", "underscore", "arabic",
                                                 "empty", "float"]))
    value = draw(_integer)
    text = str(value)
    if kind == "sign" and value >= 0:
        text = "+" + text
    elif kind == "quoted":
        text = f'"{text}"'
    elif kind == "underscore" and len(text.lstrip("-")) > 1:
        text = text[:-1] + "_" + text[-1]
    elif kind == "arabic":
        text = text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif kind == "empty":
        text = ""
    elif kind == "float":
        text += ".0"
    return draw(_padding) + text + draw(_padding)


@st.composite
def _csv_body(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(_padding)
        else:
            width = {"row": 3, "short": 2, "long": 4}[kind]
            line = ",".join(draw(st.lists(_field(), min_size=width, max_size=width)))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r", ""])))
    return "".join(lines)


@given(body=_csv_body())
@settings(max_examples=300, deadline=None)
def test_fixation_csv_parse_matches_the_row_loop(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "fix.csv"
    path.write_bytes(("frame_index,x,y\n" + body).encode("utf-8"))
    want = oracles.csv_fixation_rows(path)
    try:
        got = P.load_fixations_csv(str(path))
    except DataFormatError as e:
        assert want == ("error", str(e))
    else:
        assert got.dtype == np.int64 and got.shape == (len(want[1]), 3)
        assert want == ("rows", got.tolist())


def test_fixation_csv_syntax_variants_parse_alike(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("frame_index,x,y\n2,5,9\n-1,+3,0\n")
    variants = [
        b'frame_index,x,y\r\n"2", 5 ,9\r\n\r\n-1,\t+3,0\r\n',   # quoted, CRLF
        b"frame_index,x,y\r2,5,9\r-1,+3,0",                         # CR only
        b"frame_index,x,y\n2,5,0_9\n-1,3,0\n",                      # 0_9 is int("0_9")
    ]
    want = P.load_fixations_csv(str(plain))
    for i, text in enumerate(variants):
        path = tmp_path / f"v{i}.csv"
        path.write_bytes(text)
        np.testing.assert_array_equal(P.load_fixations_csv(str(path)), want)


@pytest.mark.parametrize("value", ["9223372036854775808", "-9223372036854775809"])
def test_fixation_csv_value_outside_int64(tmp_path, value):
    path = tmp_path / "big.csv"
    path.write_text(f"frame_index,x,y\n0,1,2\n3,{value},4\n")
    with pytest.raises(DataFormatError, match=r"big\.csv:3: value outside the int64 range"):
        P.load_fixations_csv(str(path))


def test_fixation_csv_not_utf8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"frame_index,x,y\n0,1,2\n\xff,1,2\n")
    with pytest.raises(DataFormatError, match="latin.csv: not UTF-8"):
        P.load_fixations_csv(str(path))


def test_fixation_csv_error_names_the_line_the_row_ends_on(tmp_path):
    # a quoted line break puts the body's second row on the file's line 4
    path = tmp_path / "ml.csv"
    path.write_text('frame_index,x,y\n"5\n",1,2\n0,1.5,2\n')
    with pytest.raises(DataFormatError, match=r"ml\.csv:4: non-integer field"):
        P.load_fixations_csv(str(path))
    assert oracles.csv_fixation_rows(path) == ("error", f"{path}:4: non-integer field")


def test_fixation_csv_two_columns_are_an_error(tmp_path):
    # numpy's reader takes a uniform 2-column body; the row loop names the line
    path = tmp_path / "two.csv"
    path.write_text("frame_index,x,y\n0,1\n2,3\n")
    with pytest.raises(DataFormatError, match="two.csv:2: expected 3 fields, got 2"):
        P.load_fixations_csv(str(path))


def test_fixation_csv_header_only_is_empty(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("frame_index,x,y\n")
    rows = P.load_fixations_csv(str(path))
    assert rows.shape == (0, 3) and rows.dtype == np.int64


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


def test_fixation_csv_parse_peak_stays_near_the_array(tmp_path):
    # the log is parsed from the file: no copy of its text is held beside the array
    import tracemalloc

    rng = np.random.default_rng(0)
    n = 131_072
    records = np.stack([rng.integers(0, 10_000, n), rng.integers(0, 160, n),
                        rng.integers(0, 210, n)], axis=1)
    path = str(tmp_path / "long.csv")
    P.save_fixations_csv(path, records)
    tracemalloc.start()
    try:
        rows = P.load_fixations_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(rows, records)
    assert peak < 1.5 * rows.nbytes, (peak, rows.nbytes)


@pytest.mark.parametrize("odd,want_error", [('"7",8,9', None),
                                            ("1,2.5,3", "non-integer field")])
def test_fixation_csv_row_loop_restarts_after_a_long_parsed_prefix(tmp_path, odd, want_error):
    # numpy's reader has read 110,000 rows, several chunks of the file, before
    # it refuses row 110,000 and the row loop starts again at the body's start
    lines = [f"{i},{i % 160},{i % 210}" for i in range(120_000)]
    plain = tmp_path / "plain.csv"
    plain.write_text("frame_index,x,y\n" + "\n".join(lines) + "\n")
    lines[110_000] = odd
    path = tmp_path / "odd.csv"
    path.write_text("frame_index,x,y\n" + "\n".join(lines) + "\n")
    if want_error is None:
        got = P.load_fixations_csv(str(path))
        want = P.load_fixations_csv(str(plain))
        want[110_000] = (7, 8, 9)
        np.testing.assert_array_equal(got, want)
        assert oracles.csv_fixation_rows(path) == ("rows", got.tolist())
    else:
        assert oracles.csv_fixation_rows(path) == ("error", f"{path}:110002: {want_error}")
        with pytest.raises(DataFormatError) as e:
            P.load_fixations_csv(str(path))
        assert str(e.value) == f"{path}:110002: {want_error}"


def test_fixation_csv_field_over_the_csv_limit_is_an_error(tmp_path):
    # csv refuses a field over 131,072 characters with csv.Error, not a ValueError
    long_field = "1" * 131_073
    header = tmp_path / "header.csv"
    header.write_text(f"frame_index,x,{long_field}\n0,1,2\n")
    with pytest.raises(DataFormatError, match=r"header\.csv: field larger than field limit"):
        P.load_fixations_csv(str(header))
    body = tmp_path / "body.csv"
    body.write_text(f"frame_index,x,y\n0,1,2\n\n3,4,{long_field}\n5,6,7\n")
    with pytest.raises(DataFormatError, match=r"body\.csv:4: field larger than field limit"):
        P.load_fixations_csv(str(body))


# -- frame files ----------------------------------------------------------------------

def test_ppm_round_trip(tmp_path):
    frame = make_frames(1, seed=10)[0][0]
    P.save_ppm(str(tmp_path / "f.ppm"), frame)
    assert np.array_equal(P.load_frames(str(tmp_path))[0], frame)


def test_ppm_header_comments_are_skipped(tmp_path):
    # the blank line after the magic is whitespace between tokens
    payload = bytes(i % 256 for i in range(P.FRAME_BYTES))
    (tmp_path / "c.ppm").write_bytes(b"P6\n\n# a comment\n160 210\n# another\n255\n" + payload)
    img = P.load_frames(str(tmp_path))[0]
    assert img.shape == (210, 160, 3)
    assert img.ravel().tolist() == list(payload)


def test_ppm_header_token_is_capped(tmp_path):
    # a token of PPM_TOKEN_MAX bytes is read; a longer one, here 1 MB, is
    # refused as soon as it passes the cap
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    width = b"0" * (P.PPM_TOKEN_MAX - 3) + b"160"
    (frames_dir / "w.ppm").write_bytes(b"P6\n" + width + b" 210\n255\n" + bytes(P.FRAME_BYTES))
    assert len(P.load_frames(str(frames_dir))) == 1
    (frames_dir / "w.ppm").write_bytes(b"P6\n0" + width + b" 210\n255\n" + bytes(P.FRAME_BYTES))
    with pytest.raises(DataFormatError, match=r"w\.ppm: malformed PPM header"):
        P.load_frames(str(frames_dir))
    (frames_dir / "w.ppm").write_bytes(b"P6\n" + b"1" * 2**20 + b" 210\n255\n" + bytes(4))
    started = time.perf_counter()
    with pytest.raises(DataFormatError, match=r"w\.ppm: malformed PPM header"):
        P.load_frames(str(frames_dir))
    assert time.perf_counter() - started < 1.0


def test_ppm_wrong_maxval(tmp_path):
    (tmp_path / "m.ppm").write_bytes(b"P6\n160 210\n65535\n" + b"\x00" * 2 * P.FRAME_BYTES)
    with pytest.raises(DataFormatError, match="maxval"):
        P.load_frames(str(tmp_path))


def test_ppm_truncated_payload(tmp_path):
    (tmp_path / "t.ppm").write_bytes(b"P6\n160 210\n255\n" + b"\x00" * 10)
    with pytest.raises(DataFormatError, match="truncated"):
        P.load_frames(str(tmp_path))


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


def test_load_frames_checks_a_header_larger_than_its_file(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    (frames_dir / "frame_00000.ppm").write_bytes(b"P6 100000 100000 255\n" + bytes(4))
    with pytest.raises(DataFormatError, match="frame_00000.ppm: truncated PPM payload"):
        P.load_frames(str(frames_dir))


@pytest.mark.parametrize("suffix", ["", ".rgb"], ids=["ppm", "rgb"])
def test_load_frames_reads_each_frame_when_indexed(tmp_path, suffix):
    frames, _ = make_frames(5, seed=13)
    if suffix:
        path = tmp_path / "frames.rgb"
        P.save_raw_rgb(str(path), frames)
        frame_file, kind = path, "raw RGB"
    else:
        path = tmp_path / "frames"
        path.mkdir()
        for i, frame in enumerate(frames):
            P.save_ppm(str(path / f"frame_{i:05d}.ppm"), frame)
        frame_file, kind = path / "frame_00004.ppm", "PPM"
    loaded = P.load_frames(str(path))
    assert len(loaded) == 5
    assert all(np.array_equal(loaded[i], frames[i]) for i in (3, 0, -1))
    with pytest.raises(IndexError):
        loaded[5]
    # the file is read again at each access, so a frame cut short after the
    # check fails with the truncation error
    frame_file.write_bytes(frame_file.read_bytes()[:-1])
    assert np.array_equal(loaded[3], frames[3])
    with pytest.raises(DataFormatError, match=f"truncated {kind} payload"):
        loaded[4]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
@pytest.mark.parametrize("suffix", ["", ".rgb"], ids=["ppm", "rgb"])
def test_frame_files_close_every_descriptor(tmp_path, suffix):
    # each read opens its file and closes it, also when the read comes up short
    frames, _ = make_frames(4, seed=19)
    if suffix:
        path = tmp_path / "frames.rgb"
        P.save_raw_rgb(str(path), frames)
        last, kind = path, "raw RGB"
    else:
        path = tmp_path / "frames"
        path.mkdir()
        for i, frame in enumerate(frames):
            P.save_ppm(str(path / f"frame_{i:05d}.ppm"), frame)
        last, kind = path / "frame_00003.ppm", "PPM"
    loaded = P.load_frames(str(path))
    before = len(os.listdir("/proc/self/fd"))
    for i in range(64):
        assert np.array_equal(loaded[i % 4], frames[i % 4])
    assert len(os.listdir("/proc/self/fd")) == before
    last.write_bytes(last.read_bytes()[:-1])
    with pytest.raises(DataFormatError, match=f"truncated {kind} payload"):
        loaded[3]
    assert len(os.listdir("/proc/self/fd")) == before


def test_frame_files_slice_reads_nothing_until_indexed(tmp_path):
    frames, _ = make_frames(8, seed=17)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i, frame in enumerate(frames):
        P.save_ppm(str(frames_dir / f"frame_{i:05d}.ppm"), frame)
    loaded = P.load_frames(str(frames_dir))
    # a frame cut short after the check fails when it is read, not when a
    # slice over it is taken
    (frames_dir / "frame_00005.ppm").write_bytes(
        (frames_dir / "frame_00005.ppm").read_bytes()[:-1])
    window = loaded[4:8]
    assert isinstance(window, P.FrameFiles) and len(window) == 4
    assert all(np.array_equal(window[i], frames[j]) for i, j in ((0, 4), (2, 6), (-1, 7)))
    with pytest.raises(DataFormatError, match="frame_00005.ppm: truncated PPM payload"):
        window[1]
    with pytest.raises(IndexError):
        window[4]
    assert [np.array_equal(f, frames[i]) for f, i in zip(loaded[6:0:-3], (6, 3))] == [True, True]
    assert len(loaded[8:]) == 0
    # a window of a window reads through to the same files
    assert np.array_equal(loaded[2:8][1:3][1], frames[4])
    assert P.build_observations(loaded[:0]) == []
