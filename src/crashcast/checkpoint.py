"""Model checkpoint format: binary, little-endian, bit-exact round trips.

Layout: magic "DPMW" | version u32 | network-config block | tensor count u32 |
per tensor: name length u16, UTF-8 name, rank u8, dims u32 each, raw float64
values in row-major order. Each conv layer's return-sequences flag byte is 1
for every layer but the last and 0 for the last; a file that says otherwise
is refused at that byte's offset.
"""

import math
import struct

import numpy as np

from .network import INPUT_MODES, NetworkConfig, NetworkParams, param_shapes
from .sim import CAMERA_ORDER

MAGIC = b"DPMW"
VERSION = 1


class CheckpointFormatError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _pack_config(config):
    buf = bytearray()
    buf += struct.pack("<B", INPUT_MODES.index(config.input_mode))
    buf += struct.pack("<B", len(config.cameras))
    for cam in config.cameras:
        buf += struct.pack("<B", CAMERA_ORDER.index(cam))
    buf += struct.pack("<HHHH", config.image_rows, config.image_cols,
                       config.image_channels, config.seq_len)
    buf += struct.pack("<B", len(config.conv_filters))
    for i in range(len(config.conv_filters)):
        buf += struct.pack("<HBBB", config.conv_filters[i], config.conv_kernels[i],
                           config.conv_strides[i], int(config.conv_return_sequences[i]))
    buf += struct.pack("<HH", config.lstm_units, config.merge_units)
    return bytes(buf)


def _unpack_config(blob, offset):
    start = offset
    try:
        (mode_idx, n_cams) = struct.unpack_from("<BB", blob, offset)
        offset += 2
        cams = []
        for _ in range(n_cams):
            (ci,) = struct.unpack_from("<B", blob, offset)
            if ci >= len(CAMERA_ORDER):
                raise CheckpointFormatError(f"unknown camera index {ci}", offset)
            offset += 1
            cams.append(CAMERA_ORDER[ci])
        rows, cols, channels, seq_len = struct.unpack_from("<HHHH", blob, offset)
        offset += 8
        (n_conv,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        filters, kernels, strides = [], [], []
        for li in range(n_conv):
            f, k, s, r = struct.unpack_from("<HBBB", blob, offset)
            returns = int(li < n_conv - 1)  # every conv layer but the last
            if r != returns:
                raise CheckpointFormatError(
                    f"return-sequences flag of conv layer {li} must be {returns}, got {r}",
                    offset + 4)
            offset += 5
            filters.append(f)
            kernels.append(k)
            strides.append(s)
        lstm_units, merge_units = struct.unpack_from("<HH", blob, offset)
        offset += 4
    except struct.error:
        raise CheckpointFormatError("truncated network-config block", start) from None
    if mode_idx >= len(INPUT_MODES):
        raise CheckpointFormatError(f"unknown input-mode index {mode_idx}", start)
    try:
        config = NetworkConfig(
            input_mode=INPUT_MODES[mode_idx], cameras=tuple(cams),
            image_rows=rows, image_cols=cols, image_channels=channels, seq_len=seq_len,
            conv_filters=tuple(filters), conv_kernels=tuple(kernels),
            conv_strides=tuple(strides),
            lstm_units=lstm_units, merge_units=merge_units,
        )
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid network config: {exc}", start) from None
    return config, offset


def save_checkpoint(path, config, params):
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += _pack_config(config)
    tensors = params.tensors()
    buf += struct.pack("<I", len(tensors))
    for name, tensor in tensors.items():
        encoded = name.encode("utf-8")
        buf += struct.pack("<H", len(encoded))
        buf += encoded
        buf += struct.pack("<B", tensor.ndim)
        for dim in tensor.shape:
            buf += struct.pack("<I", dim)
        buf += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(buf)


def load_checkpoint(path):
    """Returns (NetworkConfig, NetworkParams); bit-exact inverse of save."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise CheckpointFormatError("file shorter than the fixed header", len(blob))
    if blob[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}", 0)
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported version {version}", 4)
    config, offset = _unpack_config(blob, 8)
    shapes = param_shapes(config)
    try:
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
    except struct.error:
        raise CheckpointFormatError("missing tensor count", offset) from None
    if count != len(shapes):
        raise CheckpointFormatError(
            f"checkpoint stores {count} tensors, architecture needs {len(shapes)}", offset - 4)
    values = {}
    for _ in range(count):
        record = offset
        try:
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
        except (struct.error, UnicodeDecodeError):
            raise CheckpointFormatError("malformed tensor record", offset) from None
        if name not in shapes:
            raise CheckpointFormatError(f"unknown tensor name {name!r}", record)
        shape = shapes[name]
        n_values = math.prod(shape)
        if dims != shape:
            if 8 * n_values > len(blob) - offset:
                raise CheckpointFormatError(
                    f"network config asks for {name} of shape {shape}, "
                    f"more than the rest of the file holds", 8)
            raise CheckpointFormatError(f"shape mismatch for {name}: {shape} vs {dims}", record)
        if offset + 8 * n_values > len(blob):
            raise CheckpointFormatError(f"tensor {name!r} data truncated", offset)
        tensor = np.frombuffer(blob, dtype="<f8", count=n_values, offset=offset).reshape(shape)
        if not np.isfinite(tensor).all():
            raise CheckpointFormatError(f"non-finite value in tensor {name!r}", record)
        values[name] = tensor
        offset += 8 * n_values
    if len(values) != len(shapes):
        missing = sorted(set(shapes) - set(values))
        raise CheckpointFormatError(f"missing tensors: {missing[:3]}", offset)
    if offset != len(blob):
        raise CheckpointFormatError("trailing bytes after the last tensor", offset)
    # every tensor matched a record of the file, so this copies no more than it holds;
    # param_shapes order is the canonical one, whatever order the records came in
    return config, NetworkParams({n: values[n].copy() for n in shapes})
