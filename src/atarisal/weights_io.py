"""Binary weight files.

Layout (all integers little-endian): magic b"FLSW", version u32 = 1, tensor
count u32, then per tensor: name length u16, UTF-8 name, ndim u8, each dim as
u32, then the float32 payload in row-major order.

`load_into_model` checks each tensor against the plan in file order, its
name, then its dims, then its payload, each size against the bytes left
before anything is allocated; the finite check is `Model.kernels`.
"""

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataFormatError, EvaluationError
from .models import Model, ModelPlan, param_shapes

MAGIC = b"FLSW"
VERSION = 1


def _read_exact(f: BinaryIO, n: int, what: str, path: str, shape=None):
    """n bytes of f read in place: into a bytearray, or with shape into one
    little-endian float32 array of that shape. The file's size is checked
    first, so a size larger than the file allocates nothing."""
    if n <= os.fstat(f.fileno()).st_size - f.tell():
        data = bytearray(n) if shape is None else np.empty(shape, "<f4")
        if f.readinto(data) == n:
            return data
    raise DataFormatError(f"{path}: truncated weight file while reading {what}")


def save_weights(path: str, params: dict[str, np.ndarray]) -> None:
    """Write tensors in dict order; order is part of the file's identity.
    Every name is checked before the file is opened, so a bad one leaves
    no partial file."""
    names = [name.encode("utf-8") for name in params]
    for i, encoded in enumerate(names):
        if len(encoded) > 0xFFFF:
            raise DataFormatError(f"tensor name too long: tensor {i}'s name is {len(encoded)} "
                                  "bytes in UTF-8, more than the 65535 its length field holds")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(params)))
        for encoded, tensor in zip(names, params.values()):
            arr = np.ascontiguousarray(tensor, dtype=np.float32)
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4", copy=False).tobytes())


def load_into_model(plan: ModelPlan, path: str) -> Model:
    """The model of plan with every parameter from the file, in canonical
    order whatever the file's; no initializer runs. After the last tensor
    come the trailing bytes, the missing names and the finite check."""
    expected = param_shapes(plan)
    loaded: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic", path) != MAGIC:
            raise DataFormatError(f"{path}: not a weight file (bad magic)")
        version, count = struct.unpack("<II", _read_exact(f, 8, "header", path))
        if version != VERSION:
            raise DataFormatError(f"{path}: unsupported weight file version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length", path))
            raw_name = _read_exact(f, name_len, "tensor name", path)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataFormatError(f"{path}: tensor name is not UTF-8 (byte {e.start})") from None
            if name in loaded:
                raise DataFormatError(f"{path}: duplicate tensor {name!r}")
            if name not in expected:
                raise DataFormatError(f"{path}: unexpected tensor {name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, f"ndim of {name!r}", path))
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, f"dims of {name!r}", path))
            shape = expected[name]
            if dims != shape:
                raise DataFormatError(f"{path}: tensor {name!r} has shape {dims}, expected {shape}")
            payload = _read_exact(f, 4 * math.prod(shape), f"payload of {name!r}", path, shape)
            loaded[name] = payload.astype(np.float32, copy=False)
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after last tensor")
    missing = [name for name in expected if name not in loaded]
    if missing:
        first, *more = sorted(missing)
        raise DataFormatError(f"{path}: missing tensor {first!r}"
                              + (f" (+{len(more)} more)" if more else ""))
    model = Model(plan, {name: loaded[name] for name in expected})
    try:
        model.kernels  # built once here, so the first forward checks nothing again
    except EvaluationError as e:
        raise DataFormatError(f"{path}: {e}") from None
    return model


def save_model(path: str, model: Model) -> None:
    save_weights(path, model.params)
