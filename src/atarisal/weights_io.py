"""Binary weight files.

Layout (all integers little-endian): magic b"FLSW", version u32 = 1, tensor
count u32, then per tensor: name length u16, UTF-8 name, ndim u8, each dim as
u32, then the float32 payload in row-major order.
"""

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataFormatError
from .models import Model, param_shapes

MAGIC = b"FLSW"
VERSION = 1


def _read_exact(f: BinaryIO, n: int, what: str, path: str) -> bytes:
    """n bytes of f. The file's size is checked first, so a size field larger
    than the file allocates nothing."""
    data = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated weight file while reading {what}")
    return data


def save_weights(path: str, params: dict[str, np.ndarray]) -> None:
    """Write tensors in dict order; order is part of the file's identity."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise DataFormatError(f"tensor name too long: {name!r}")
            arr = np.ascontiguousarray(tensor, dtype=np.float32)
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4", copy=False).tobytes())


def load_weights(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic", path) != MAGIC:
            raise DataFormatError(f"{path}: not a weight file (bad magic)")
        version, count = struct.unpack("<II", _read_exact(f, 8, "header", path))
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported weight file version {version}")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length", path))
            raw_name = _read_exact(f, name_len, "tensor name", path)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}: tensor name is not UTF-8 (byte {e.start})") from None
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, f"ndim of {name!r}", path))
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, f"dims of {name!r}", path))
            size = math.prod(dims)  # exact: np.prod wraps past int64
            payload = _read_exact(f, 4 * size, f"payload of {name!r}", path)
            if name in params:
                raise DataFormatError(f"{path}: duplicate tensor {name!r}")
            params[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
            if not np.isfinite(params[name]).all():
                raise DataFormatError(f"{path}: tensor {name!r} contains NaN or Inf")
        trailing = f.read(1)
        if trailing:
            raise DataFormatError(f"{path}: trailing bytes after last tensor")
    return params


def load_into_model(model: Model, path: str) -> Model:
    """Replace every parameter from the file; names and shapes must match exactly."""
    loaded = load_weights(path)
    expected = param_shapes(model.plan)
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing:
        raise DataFormatError(f"{path}: missing tensor {missing[0]!r}"
                              + (f" (+{len(missing) - 1} more)" if len(missing) > 1 else ""))
    if extra:
        raise DataFormatError(f"{path}: unexpected tensor {extra[0]!r}"
                              + (f" (+{len(extra) - 1} more)" if len(extra) > 1 else ""))
    for name, shape in expected.items():
        if tuple(loaded[name].shape) != shape:
            raise DataFormatError(
                f"{path}: tensor {name!r} has shape {tuple(loaded[name].shape)}, expected {shape}")
    # keep canonical parameter order regardless of file order
    params = {name: loaded[name] for name in expected}
    return Model(model.plan, params)


def save_model(path: str, model: Model) -> None:
    save_weights(path, model.params)
