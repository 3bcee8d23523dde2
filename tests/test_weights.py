import struct

import numpy as np
import pytest

from atarisal import cli, models, weights_io
from atarisal.errors import ConfigurationError, DataFormatError

from conftest import fake_blas

OBS = np.random.default_rng(8).random((84, 84, 4)).astype(np.float32)


def small_model(seed=0):
    return models.build_model(models.preset_config("daqn"), seed)


PLAN = models.build_plan(models.preset_config("daqn"))


def assert_same_model(got, want):
    """Every param, the dense heads' included, byte for byte, and the maps."""
    assert list(got.params) == list(want.params)
    for name, value in want.params.items():
        loaded = got.params[name]
        assert (loaded.dtype, loaded.shape) == (value.dtype, value.shape), name
        assert loaded.tobytes() == value.tobytes(), name
    assert ([(tag, a.shape, a.tobytes()) for tag, a in got.forward(OBS)]
            == [(tag, a.shape, a.tobytes()) for tag, a in want.forward(OBS)])


def test_round_trip_reproduces_forward_bitwise(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.flsw")
    weights_io.save_model(path, model)
    assert_same_model(weights_io.load_into_model(small_model(seed=99).plan, path), model)


def test_file_layout_is_as_documented(tmp_path):
    params = {"t": np.arange(6, dtype=np.float32).reshape(2, 3)}
    path = str(tmp_path / "one.flsw")
    weights_io.save_weights(path, params)
    with open(path, "rb") as f:
        raw = f.read()
    assert raw[:4] == b"FLSW"
    version, count = struct.unpack("<II", raw[4:12])
    assert (version, count) == (1, 1)
    name_len = struct.unpack("<H", raw[12:14])[0]
    assert raw[14:14 + name_len] == b"t"
    ndim = raw[15]
    assert ndim == 2
    dims = struct.unpack("<2I", raw[16:24])
    assert dims == (2, 3)
    assert np.frombuffer(raw[24:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]


def test_missing_tensor_error_names_it(tmp_path):
    model = small_model()
    params = dict(model.params)
    del params["value.bias"]
    path = str(tmp_path / "missing.flsw")
    weights_io.save_weights(path, params)
    with pytest.raises(DataFormatError, match="value.bias"):
        weights_io.load_into_model(model.plan, path)


def test_extra_tensor_rejected(tmp_path):
    model = small_model()
    params = dict(model.params)
    params["stray"] = np.zeros(3, np.float32)
    path = str(tmp_path / "extra.flsw")
    weights_io.save_weights(path, params)
    with pytest.raises(DataFormatError, match="stray"):
        weights_io.load_into_model(model.plan, path)


def test_transposed_shape_rejected(tmp_path):
    model = small_model()
    params = dict(model.params)
    params["fc.weight"] = params["fc.weight"].T.copy()
    path = str(tmp_path / "transposed.flsw")
    weights_io.save_weights(path, params)
    with pytest.raises(DataFormatError, match="fc.weight"):
        weights_io.load_into_model(model.plan, path)


def test_truncated_file(tmp_path):
    model = small_model()
    path = str(tmp_path / "trunc.flsw")
    weights_io.save_model(path, model)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:len(raw) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        weights_io.load_into_model(model.plan, path)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.flsw")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        weights_io.load_into_model(PLAN, path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "v9.flsw")
    with open(path, "wb") as f:
        f.write(b"FLSW" + struct.pack("<II", 9, 0))
    with pytest.raises(DataFormatError, match="version"):
        weights_io.load_into_model(PLAN, path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "trail.flsw")
    weights_io.save_model(path, small_model())
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        weights_io.load_into_model(PLAN, path)


def test_file_tensor_order_does_not_matter(tmp_path):
    model = small_model()
    shuffled = dict(reversed(list(model.params.items())))
    path = str(tmp_path / "shuffled.flsw")
    weights_io.save_weights(path, shuffled)
    # canonical order restored, every tensor and the maps unchanged
    assert_same_model(weights_io.load_into_model(small_model(seed=3).plan, path), model)


@pytest.mark.parametrize("seed", [0, 5])
def test_load_model_with_weights_runs_no_initializer(tmp_path, monkeypatch, seed):
    model = small_model(seed=2)
    path = str(tmp_path / "m.flsw")
    weights_io.save_model(path, model)

    def no_init(*args):
        raise AssertionError("models.build_model called")

    monkeypatch.setattr(models, "build_model", no_init)
    loaded = cli.load_model(models.preset_config("daqn"), path, seed)
    assert list(loaded.params) == list(model.params)
    for name, tensor in model.params.items():
        assert loaded.params[name].dtype == np.float32
        assert np.array_equal(loaded.params[name], tensor)
    with pytest.raises(ConfigurationError, match="--seed"):
        cli.load_model(models.preset_config("daqn"), path, -1)


@pytest.mark.parametrize("command", ["eval", "saliency"])
def test_non_finite_weight_file_is_exit_2(tmp_path, capsys, command):
    model = small_model()
    params = dict(model.params)
    params["fc.weight"] = params["fc.weight"].copy()
    params["fc.weight"][3, 7] = np.nan
    path = tmp_path / "nan.flsw"
    weights_io.save_weights(str(path), params)
    out = tmp_path / "run"
    inputs = (["--recording", "frames", "fixations.csv"] if command == "eval"
              else ["--frames", "frames"])
    rc = cli.main([command, "--preset", "daqn", "--weights", str(path), *inputs,
                   "--out", str(out)])
    assert rc == 2
    assert f"{path}: tensor 'fc.weight' contains NaN or Inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,preset", [
    ("eval", "sparse-fls"), ("saliency", "sparse-fls"),
    ("eval", "dense-fls"), ("saliency", "dense-fls"),
], ids=["eval", "saliency", "eval-dense-fls", "saliency-dense-fls"])
def test_weights_that_overflow_float32_are_exit_1_with_no_nan_written(tmp_path, capsys,
                                                                      monkeypatch, recording_32,
                                                                      command, preset):
    # every conv weight times 1e30 is still finite float32, so the file loads;
    # the forward overflows, and the map that is not finite stops the run at
    # observation 0, with no RuntimeWarning (the suite makes them errors),
    # also from dense-fls's block workers, here two whatever the BLAS has
    fake_blas(monkeypatch, 2)
    frames_dir, csv_path = recording_32
    params = models.build_model(models.PRESETS[preset], 3).params
    path = tmp_path / "big.flsw"
    weights_io.save_weights(str(path), {
        name: t * np.float32(1e30) if ".conv" in name and name.endswith(".weight") else t
        for name, t in params.items()})
    out = tmp_path / "run"
    inputs = (["--recording", str(frames_dir), str(csv_path), "--save-saliency"]
              if command == "eval" else ["--frames", str(frames_dir)])
    rc = cli.main([command, "--preset", preset, "--weights", str(path), *inputs,
                   "--out", str(out)])
    assert rc == 1
    assert (f"{frames_dir}: observation 0: the model's saliency map is not finite"
            in capsys.readouterr().err)
    assert not (out / "summary.csv").exists()
    for written in out.rglob("*"):
        if written.suffix == ".raw":
            assert np.isfinite(np.fromfile(written, "<f4")).all(), written
        elif written.is_file():
            assert b"nan" not in written.read_bytes().lower(), written


def test_normalizing_a_map_with_non_positive_sum_is_exit_1(tmp_path, capsys, recording_32):
    # softplus of -1e4 is 0 in float32, so the attention map sums to 0
    frames_dir, csv_path = recording_32
    model = models.build_model(models.preset_config("sparse-fls", normalize_output=True), 0)
    model.params["attn.conv2.bias"][:] = -1e4
    path = tmp_path / "zero.flsw"
    weights_io.save_model(str(path), model)
    out = tmp_path / "run"
    rc = cli.main(["eval", "--preset", "sparse-fls", "--normalize-output", "--weights", str(path),
                   "--recording", str(frames_dir), str(csv_path), "--out", str(out)])
    assert rc == 1
    assert "cannot normalize an attention map with non-positive sum" in capsys.readouterr().err
    assert not out.exists()


def test_save_weights_rejects_a_name_past_the_u16_length_field(tmp_path):
    # every name is checked before the file is opened, and the message gives
    # the tensor's index and its name's length, not the name
    path = tmp_path / "long.flsw"
    with pytest.raises(DataFormatError) as raised:
        weights_io.save_weights(str(path), {"a": np.zeros(3, np.float32),
                                            "t" * 65536: np.zeros(1, np.float32)})
    assert str(raised.value) == ("tensor name too long: tensor 1's name is 65536 bytes in "
                                 "UTF-8, more than the 65535 its length field holds")
    assert not path.exists()


@pytest.mark.parametrize("flags,name,dims,count,message", [
    # --actions makes policy.weight 8.8 TB: the size is checked against the
    # file before numpy is asked for it, so this is no MemoryError
    (["--actions", "4294967295"], b"policy.weight", (4294967295, 512), 1,
     "truncated weight file while reading payload of 'policy.weight'"),
    # the product overflows int64, where np.prod would wrap to 0; the dims are
    # refused against the plan's shape before any size is taken from them
    ([], b"fc.weight", (65536, 65536, 65536, 65536, 2), 1,
     "tensor 'fc.weight' has shape (65536, 65536, 65536, 65536, 2), expected (512, 64)"),
    ([], b"\xfft", (1,), 1, "tensor name is not UTF-8 (byte 0)"),
    ([], b"value.bias", (1,), 2, "duplicate tensor 'value.bias'"),
], ids=["dims-larger-than-file", "dims-overflow-int64", "name-not-utf8", "duplicate-tensor"])
def test_corrupt_weight_header_is_exit_2(tmp_path, capsys, flags, name, dims, count, message):
    # count copies of one tensor record with a 4-byte payload
    tensor = (struct.pack("<H", len(name)) + name
              + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(4))
    path = tmp_path / "bad.flsw"
    path.write_bytes(b"FLSW" + struct.pack("<II", 1, count) + tensor * count)
    out = tmp_path / "run"
    # eval loads the weights before it looks at any recording
    rc = cli.main(["eval", "--preset", "daqn", *flags, "--weights", str(path),
                   "--recording", "frames", "fixations.csv", "--out", str(out)])
    assert rc == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ndim", [65, 255])
def test_weight_tensor_with_more_dims_than_numpy_allows_is_exit_2(tmp_path, capsys, ndim):
    # numpy 2 takes 64 dims and numpy 1.x 32, and the u8 field holds up to
    # 255; the dims are read and refused against the plan's shape, so no
    # array of them is ever asked for
    path = tmp_path / "dims.flsw"
    path.write_bytes(b"FLSW" + struct.pack("<IIH", 1, 1, 10) + b"value.bias"
                     + struct.pack(f"<B{ndim}I", ndim, *(1,) * ndim) + bytes(4))
    out = tmp_path / "run"
    rc = cli.main(["eval", "--preset", "daqn", "--weights", str(path),
                   "--recording", "frames", "fixations.csv", "--out", str(out)])
    assert rc == 2
    assert (f"{path}: tensor 'value.bias' has shape {(1,) * ndim}, expected (1,)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_load_peak_memory_is_near_the_parameters(tmp_path):
    # each payload is read straight into its array: no bytes copy beside it
    import tracemalloc

    path = str(tmp_path / "sparse.flsw")
    weights_io.save_model(path, models.build_model(models.PRESETS["sparse-fls"], 0))
    plan = models.build_plan(models.PRESETS["sparse-fls"])
    tracemalloc.start()
    try:
        params = weights_io.load_into_model(plan, path).params
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.nbytes for p in params.values())
    assert peak < 1.5 * param_bytes, (peak, param_bytes)


def test_wrong_dims_are_refused_before_the_payload_is_read(tmp_path):
    # the file holds a plan tensor with its dims swapped and its whole 2 MiB
    # payload: it is refused at its dims, and no array of the payload's size
    # is allocated
    import tracemalloc

    plan = models.build_plan(models.preset_config("daqn", num_actions=1024))
    swapped = np.zeros((512, 1024), np.float32)
    path = str(tmp_path / "swapped.flsw")
    weights_io.save_weights(path, {"policy.weight": swapped})
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=r"tensor 'policy.weight' has shape "
                                                  r"\(512, 1024\), expected \(1024, 512\)"):
            weights_io.load_into_model(plan, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < swapped.nbytes // 8, (peak, swapped.nbytes)
