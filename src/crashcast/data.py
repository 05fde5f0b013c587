"""Episode-to-sample pipeline and the bit-exact binary dataset format.

Episodes are truncated to the five seconds before the collision (or the
closest approach), converted to frames carrying quantized images plus the
9-entry proprioceptive state vector, and cut into overlapping fixed-length
windows that inherit the episode label. gen-data shuffles the windows once
(assemble_dataset) and stores them in that order; split_samples is the one
rule that cuts a stored list into train/validate/test, and kfold_plan the
one balanced fold partition.

Frames hold images in the 8-bit storage form (value = round(intensity*255));
they are promoted to float64 in [0, 1] when batches are stacked for the
network. Values on the k/255 grid round-trip through the file bit-exactly.

File format (little-endian):

    magic "DPMD" | version u32 | sample count u64 | L u8 | cameras u8 |
    rows u16 | cols u16 | per sample: label u8, then per frame per camera
    rows*cols image bytes, 9 float32 state values, 1 float32 action.

The camera count n is 1..3, naming the first n of CAMERA_ORDER, and a file
with samples has a non-zero window length, rows and cols. A header that
breaks either rule is refused at the offending field's offset.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .sim import CAMERA_ORDER, in_window

MAGIC = b"DPMD"
VERSION = 1
HEADER_SIZE = 22  # 4 magic + 4 version + 8 count + 1 L + 1 cams + 2 rows + 2 cols

DASHCAM_MOUNT = (0.5, 0.0, 1.2)


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class Frame:
    images: tuple        # one (rows, cols, 1) array per camera, uint8 storage form
    state: np.ndarray    # (cam_x, cam_y, cam_z, veh_x, veh_y, veh_z, speed, torque, accelerator)
    action: float

    def __post_init__(self):
        if np.shape(self.state) != (9,):
            raise ValueError("state vector must have exactly 9 entries")


@dataclass
class SequenceSample:
    frames: list
    label: int           # 1 collision, 0 no collision
    episode_id: int
    window_start: int
    cameras: tuple


@dataclass
class Dataset:
    samples: list
    cameras: tuple
    seq_len: int
    rows: int
    cols: int


def quantize_image(img):
    """Map a float image in [0, 1] (or a uint8 image) to storage bytes."""
    arr = np.asarray(img)
    if arr.dtype == np.uint8:
        return arr
    return np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)


def truncate_episode(episode, horizon=5.0):
    """Keep frames within `horizon` seconds before the event; convert to Frames."""
    kept = [f for f in episode.frames if in_window(f.t, episode.event_time, horizon)]
    if not kept:
        return []
    cameras = [c for c in CAMERA_ORDER if c in kept[0].images]
    out = []
    for f in kept:
        s = f.sensor
        state = np.array([*DASHCAM_MOUNT,
                          s.x, s.y, 0.0, s.speed, s.torque_cmd, float(s.accelerator)])
        images = tuple(quantize_image(f.images[c]) for c in cameras)
        out.append(Frame(images=images, state=state, action=float(f.action)))
    return out


def windowize(frames, seq_len=5, stride=1, label=0, episode_id=0, cameras=CAMERA_ORDER):
    """Cut overlapping windows; every window inherits the episode label."""
    if seq_len < 1:
        raise ValueError("window length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n = len(frames)
    out = []
    for start in range(0, n - seq_len + 1, stride):
        out.append(SequenceSample(frames=frames[start : start + seq_len], label=label,
                                  episode_id=episode_id, window_start=start,
                                  cameras=tuple(cameras)))
    return out


def assemble_dataset(samples, rng_seed):
    """The samples in one deterministic shuffled order, as gen-data stores them."""
    if not samples:
        raise ValueError("no samples to assemble")
    order = np.random.default_rng(rng_seed).permutation(len(samples))
    return [samples[i] for i in order]


def split_samples(samples, split):
    """Contiguous (train, validate, test) parts of a stored sample list.

    The first floor(split[0]*n) samples train, the next floor(split[1]*n)
    validate and the rest test.
    """
    n = len(samples)
    n_train = int(np.floor(split[0] * n))
    n_val = int(np.floor(split[1] * n))
    return samples[:n_train], samples[n_train : n_train + n_val], samples[n_train + n_val :]


def kfold_plan(n, k=10, rng_seed=0):
    """Random balanced partition of n indices into k folds: index -> fold array."""
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot build {k} folds from {n} items")
    perm = np.random.default_rng(rng_seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    base = n // k
    extra = n % k
    pos = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignment[perm[pos : pos + size]] = fold
        pos += size
    return assignment


# --- binary serialization ----------------------------------------------------

def sample_byte_size(seq_len, n_cameras, rows, cols):
    return 1 + seq_len * (n_cameras * rows * cols + 9 * 4 + 4)


def serialize_dataset(samples, path):
    """Write the DPMD file; byte-identical for identical sample lists."""
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    first = samples[0]
    seq_len = len(first.frames)
    n_cams = len(first.cameras)
    rows, cols = np.shape(first.frames[0].images[0])[:2]
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += struct.pack("<Q", len(samples))
    buf += struct.pack("<BBHH", seq_len, n_cams, rows, cols)
    for s in samples:
        if len(s.frames) != seq_len or len(s.cameras) != n_cams:
            raise ValueError("all samples must share window length and camera count")
        buf += struct.pack("<B", int(s.label))
        for f in s.frames:
            for img in f.images:
                q = quantize_image(img)
                if q.shape[:2] != (rows, cols):
                    raise ValueError("all images must share the dataset resolution")
                buf += q.tobytes()
            buf += np.asarray(f.state, dtype="<f4").tobytes()
            buf += struct.pack("<f", float(f.action))
    with open(path, "wb") as fh:
        fh.write(buf)


def deserialize_dataset(path):
    """Read a DPMD file back into Frames/SequenceSamples (bit-exact round trip)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_SIZE:
        raise DatasetFormatError("file shorter than the fixed header", len(blob))
    if blob[:4] != MAGIC:
        raise DatasetFormatError(f"bad magic {blob[:4]!r}", 0)
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise DatasetFormatError(f"unsupported version {version}", 4)
    (count,) = struct.unpack_from("<Q", blob, 8)
    seq_len, n_cams, rows, cols = struct.unpack_from("<BBHH", blob, 16)
    if not 1 <= n_cams <= len(CAMERA_ORDER):
        raise DatasetFormatError(f"camera count must be 1..{len(CAMERA_ORDER)}, got {n_cams}", 17)
    for name, value, at in (("window length", seq_len, 16), ("rows", rows, 18),
                             ("cols", cols, 20)):
        if count and not value:
            raise DatasetFormatError(f"{name} is 0 in a file of {count} samples", at)
    cameras = CAMERA_ORDER[:n_cams]
    per_sample = sample_byte_size(seq_len, n_cams, rows, cols)
    expected = HEADER_SIZE + count * per_sample
    if len(blob) != expected:
        raise DatasetFormatError(
            f"expected {expected} bytes for {count} samples, found {len(blob)}",
            min(len(blob), expected))
    img_bytes = rows * cols
    frame_bytes = n_cams * img_bytes + 40
    if count:
        # the 9 state values and the action of every frame, as one strided view
        values = np.ndarray((count, seq_len, 10), dtype="<f4", buffer=blob,
                            offset=HEADER_SIZE + 1 + n_cams * img_bytes,
                            strides=(per_sample, frame_bytes, 4))
        if not np.isfinite(values).all():
            finite = np.isfinite(values).all(axis=2)
            idx, t = np.unravel_index(np.argmin(finite), finite.shape)
            raise DatasetFormatError(
                f"non-finite state or action value in sample {idx}, frame {t}",
                HEADER_SIZE + int(idx) * per_sample + 1 + int(t) * frame_bytes)
    samples = []
    offset = HEADER_SIZE
    for idx in range(count):
        label = blob[offset]
        if label not in (0, 1):
            raise DatasetFormatError(f"label byte must be 0 or 1, got {label}", offset)
        offset += 1
        frames = []
        for _t in range(seq_len):
            images = []
            for _c in range(n_cams):
                img = np.frombuffer(blob, dtype=np.uint8, count=img_bytes, offset=offset)
                images.append(img.reshape(rows, cols, 1))
                offset += img_bytes
            state = np.frombuffer(blob, dtype="<f4", count=9, offset=offset).astype(np.float64)
            offset += 36
            (action,) = struct.unpack_from("<f", blob, offset)
            offset += 4
            frames.append(Frame(images=tuple(images), state=state, action=float(action)))
        # episode identity is not part of the format; -1 means unknown (see sidecar)
        samples.append(SequenceSample(frames=frames, label=int(label), episode_id=-1,
                                      window_start=-1, cameras=cameras))
    return Dataset(samples=samples, cameras=cameras, seq_len=seq_len,
                   rows=rows, cols=cols)


# --- sidecar metadata (episode/scenario identity lives outside the format) ---

def write_meta(samples, scenarios_by_episode, path):
    """Sidecar CSV mapping sample index -> episode, scenario, window start."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "episode_id", "scenario", "window_start"])
        for i, s in enumerate(samples):
            writer.writerow([i, s.episode_id, scenarios_by_episode[s.episode_id], s.window_start])


def read_meta(path):
    """Returns (episode_ids, scenarios) arrays aligned with sample indices.

    A missing header, a short row or a non-integer field raises ValueError
    naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty meta file, no header at {path}:1")
        if header[:4] != ["sample_index", "episode_id", "scenario", "window_start"]:
            raise ValueError(f"unrecognized meta header {header!r} at {path}:1")
        rows = []
        for r in reader:
            try:
                rows.append((int(r[0]), int(r[1]), int(r[2])))
            except (IndexError, ValueError):
                raise ValueError(f"bad meta row {r!r} at {path}:{reader.line_num}; "
                                 f"expected integer sample_index, episode_id, "
                                 f"scenario") from None
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"meta file {path} does not cover sample indices contiguously")
    episode_ids = np.array([r[1] for r in rows], dtype=np.int64)
    scenarios = np.array([r[2] for r in rows], dtype=np.int64)
    return episode_ids, scenarios
