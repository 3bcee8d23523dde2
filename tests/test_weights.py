import struct

import numpy as np
import pytest

from atarisal import cli, models, weights_io
from atarisal.errors import DataFormatError

OBS = np.random.default_rng(8).random((84, 84, 4)).astype(np.float32)


def small_model(seed=0):
    return models.build_model(models.preset_config("daqn"), seed)


def test_round_trip_reproduces_forward_bitwise(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.flsw")
    weights_io.save_model(path, model)
    reloaded = weights_io.load_into_model(small_model(seed=99), path)
    a, b = model.forward(OBS), reloaded.forward(OBS)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.policy_logits, b.policy_logits)
    assert a.value == b.value


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
        weights_io.load_into_model(model, path)


def test_extra_tensor_rejected(tmp_path):
    model = small_model()
    params = dict(model.params)
    params["stray"] = np.zeros(3, np.float32)
    path = str(tmp_path / "extra.flsw")
    weights_io.save_weights(path, params)
    with pytest.raises(DataFormatError, match="stray"):
        weights_io.load_into_model(model, path)


def test_transposed_shape_rejected(tmp_path):
    model = small_model()
    params = dict(model.params)
    params["fc.weight"] = params["fc.weight"].T.copy()
    path = str(tmp_path / "transposed.flsw")
    weights_io.save_weights(path, params)
    with pytest.raises(DataFormatError, match="fc.weight"):
        weights_io.load_into_model(model, path)


def test_truncated_file(tmp_path):
    model = small_model()
    path = str(tmp_path / "trunc.flsw")
    weights_io.save_model(path, model)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:len(raw) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        weights_io.load_weights(path)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.flsw")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        weights_io.load_weights(path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "v9.flsw")
    with open(path, "wb") as f:
        f.write(b"FLSW" + struct.pack("<II", 9, 0))
    with pytest.raises(DataFormatError, match="version"):
        weights_io.load_weights(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "trail.flsw")
    weights_io.save_weights(path, {"t": np.zeros(2, np.float32)})
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        weights_io.load_weights(path)


def test_file_tensor_order_does_not_matter(tmp_path):
    model = small_model()
    shuffled = dict(reversed(list(model.params.items())))
    path = str(tmp_path / "shuffled.flsw")
    weights_io.save_weights(path, shuffled)
    reloaded = weights_io.load_into_model(small_model(seed=3), path)
    assert list(reloaded.params) == list(model.params)  # canonical order restored
    assert np.array_equal(reloaded.forward(OBS).embedding, model.forward(OBS).embedding)


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


@pytest.mark.parametrize("name,dims,message", [
    (b"t", (100000, 100000), "truncated weight file while reading payload of 't'"),
    # the product overflows int64, where np.prod would wrap to 0
    (b"t", (65536, 65536, 65536, 65536, 2), "truncated weight file while reading payload of 't'"),
    (b"\xfft", (1,), "tensor name is not UTF-8 (byte 0)"),
], ids=["dims-larger-than-file", "dims-overflow-int64", "name-not-utf8"])
def test_corrupt_weight_header_is_exit_2(tmp_path, capsys, name, dims, message):
    path = tmp_path / "bad.flsw"
    path.write_bytes(b"FLSW" + struct.pack("<IIH", 1, 1, len(name)) + name
                     + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(4))
    out = tmp_path / "run"
    # eval loads the weights before it looks at any recording
    rc = cli.main(["eval", "--preset", "daqn", "--weights", str(path),
                   "--recording", "frames", "fixations.csv", "--out", str(out)])
    assert rc == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()
