"""Model checkpoint format: binary, little-endian, bit-exact round trips.

Layout: magic "DPMW" | version u32 | network-config block | tensor count u32 |
per tensor, in network.param_shapes order: name length u16, UTF-8 name,
rank u8, dims u32 each, raw float64 values in row-major order.

save_checkpoint is the one definition of the layout. load_checkpoint reads
only the fields NetworkConfig takes from the config block and requires every
other byte but the tensor values to equal what save_checkpoint writes for
that config: the image channel count (1), each conv layer's return-sequences
flag (1 for every layer but the last), the tensor count and each record
header. A file that differs fails at the first differing byte, or at the
record whose header differs.
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
    buf = bytearray(struct.pack("<BB", INPUT_MODES.index(config.input_mode), len(config.cameras)))
    buf += bytes(CAMERA_ORDER.index(cam) for cam in config.cameras)
    buf += struct.pack("<HHHH", config.image_rows, config.image_cols,
                       config.image_channels, config.seq_len)
    buf += struct.pack("<B", len(config.conv_filters))
    for layer in zip(config.conv_filters, config.conv_kernels, config.conv_strides,
                     config.conv_return_sequences):
        buf += struct.pack("<HBBB", *layer)
    buf += struct.pack("<HH", config.lstm_units, config.merge_units)
    return bytes(buf)


def _record_header(name, shape):
    encoded = name.encode("utf-8")
    return struct.pack(f"<H{len(encoded)}sB{len(shape)}I", len(encoded), encoded, len(shape), *shape)


def _unpack_config(blob):
    """The NetworkConfig of the config block at byte 8; skips the bytes it does not take."""
    try:
        mode_idx, n_cams = struct.unpack_from("<BB", blob, 8)
        cams = []
        for offset in range(10, 10 + n_cams):
            (ci,) = struct.unpack_from("<B", blob, offset)
            if ci >= len(CAMERA_ORDER):
                raise CheckpointFormatError(f"unknown camera index {ci}", offset)
            cams.append(CAMERA_ORDER[ci])
        offset = 10 + n_cams
        rows, cols, seq_len, n_conv = struct.unpack_from("<HH2xHB", blob, offset)
        layers = [struct.unpack_from("<HBBx", blob, offset + 9 + 5 * li) for li in range(n_conv)]
        lstm_units, merge_units = struct.unpack_from("<HH", blob, offset + 9 + 5 * n_conv)
    except struct.error:
        raise CheckpointFormatError("truncated network-config block", 8) from None
    if mode_idx >= len(INPUT_MODES):
        raise CheckpointFormatError(f"unknown input-mode index {mode_idx}", 8)
    try:
        return NetworkConfig(
            input_mode=INPUT_MODES[mode_idx], cameras=tuple(cams),
            image_rows=rows, image_cols=cols, seq_len=seq_len,
            conv_filters=tuple(f for f, _, _ in layers),
            conv_kernels=tuple(k for _, k, _ in layers),
            conv_strides=tuple(s for _, _, s in layers),
            lstm_units=lstm_units, merge_units=merge_units,
        )
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid network config: {exc}", 8) from None


def save_checkpoint(path, config, params):
    tensors = params.tensors()
    buf = bytearray(MAGIC + struct.pack("<I", VERSION) + _pack_config(config)
                    + struct.pack("<I", len(tensors)))
    for name, tensor in tensors.items():
        buf += _record_header(name, tensor.shape)
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
    config = _unpack_config(blob)
    shapes = param_shapes(config)
    block = _pack_config(config) + struct.pack("<I", len(shapes))
    offset = 8 + len(block)
    if blob[8:offset] != block:
        # the first differing byte, or the first missing one of a file that ends early
        at = next((8 + i for i, (x, y) in enumerate(zip(blob[8:offset], block)) if x != y),
                  len(blob))
        raise CheckpointFormatError("config block or tensor count is not what save writes", at)
    tensors = {}
    for name, shape in shapes.items():
        header = _record_header(name, shape)
        record, offset = offset, offset + len(header)
        size = 8 * math.prod(shape)
        got = blob[record:offset]
        if got != header[: len(got)]:
            if size > len(blob) - offset:
                raise CheckpointFormatError(
                    f"network config asks for {name} of shape {shape}, "
                    f"more than the rest of the file holds", 8)
            raise CheckpointFormatError(f"tensor record is not {name} of shape {shape}", record)
        if offset + size > len(blob):
            raise CheckpointFormatError(f"file ends inside the record of {name}", len(blob))
        tensor = np.frombuffer(blob, dtype="<f8", count=size // 8, offset=offset).reshape(shape)
        if not np.isfinite(tensor).all():
            raise CheckpointFormatError(f"non-finite value in tensor {name!r}", record)
        tensors[name] = tensor.copy()
        offset += size
    if offset != len(blob):
        raise CheckpointFormatError("trailing bytes after the last tensor", offset)
    return config, NetworkParams(tensors)
