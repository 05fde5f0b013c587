"""Episode-to-sample pipeline and the bit-exact binary dataset format.

The simulator renders only the `data.horizon` seconds before the collision
(or the closest approach), and its images arrive already in the 8-bit
storage form; truncate_episode packs that episode into frame records
carrying those bytes as they are plus the 9-entry proprioceptive state
vector, and windowize cuts them into overlapping fixed-length windows that
inherit the episode label. gen-data shuffles the windows once
(assemble_dataset) and stores them in that order; split_samples is the one
rule that cuts a stored array into train/validate/test.

In memory a dataset is the DPMD record array itself: one numpy record per
sample (sample_dtype), read from the file as a single view and written back
from its buffer. Images stay in the 8-bit storage form
(value = round(intensity*255)) and state and action values in float32; both
are promoted to float64 when a batch is handed to the network. Values on the
k/255 grid round-trip through the file bit-exactly.

File format (little-endian):

    magic "DPMD" | version u32 | sample count u64 | L u8 | cameras u8 |
    rows u16 | cols u16 | per sample: label u8, then per frame per camera
    rows*cols image bytes, 9 float32 state values, 1 float32 action.

The camera count n is 1..3, naming the first n of CAMERA_ORDER, and a file
with samples has a non-zero window length, rows and cols. A header that
breaks either rule is refused at the offending field's offset.

The format holds no episode identity: gen-data writes each sample's episode,
scenario and window start to the .meta.csv sidecar (write_meta), and
read_meta returns them as integer arrays aligned with the records.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .sim import CAMERA_ORDER, DASHCAM_MOUNT

MAGIC = b"DPMD"
VERSION = 1
HEADER_SIZE = 22  # 4 magic + 4 version + 8 count + 1 L + 1 cams + 2 rows + 2 cols

STATE_DIM = 9  # the proprioceptive state vector of a frame; see frame_dtype


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def frame_dtype(n_cams, rows, cols):
    """One frame of a sample record: the images of the first n_cams cameras of
    CAMERA_ORDER, the 9 state values (cam_x, cam_y, cam_z, veh_x, veh_y, veh_z,
    speed, torque, accelerator) and the action."""
    return np.dtype([("images", np.uint8, (n_cams, rows, cols)), ("state", "<f4", (STATE_DIM,)),
                     ("action", "<f4")])


def sample_dtype(seq_len, n_cams, rows, cols):
    """The DPMD sample record: a label byte (1 collision, 0 none), then seq_len frames."""
    return np.dtype([("label", np.uint8), ("frames", frame_dtype(n_cams, rows, cols), (seq_len,))])


@dataclass
class Dataset:
    samples: np.recarray  # one sample_dtype record per sample, in stored order


def truncate_episode(episode):
    """The episode's frames as frame records, each camera's window assigned whole."""
    src = episode.frames
    cameras = [c for c in CAMERA_ORDER if c in episode.images]
    rows, cols = episode.images[cameras[0]].shape[1:]
    frames = np.recarray(len(src), frame_dtype(len(cameras), rows, cols))
    for ci, cam in enumerate(cameras):
        frames.images[:, ci] = episode.images[cam]
    frames.state[:, :3] = DASHCAM_MOUNT
    frames.state[:, 3:] = np.column_stack([src.x, src.y, np.zeros(len(src)), src.speed,
                                           src.torque_cmd, src.accelerator])
    frames.action = src.action
    return frames


def windowize(frames, seq_len=5, stride=1, label=0):
    """Cut overlapping windows of frame records; every window inherits the episode label.

    Window i starts at frame i * stride.
    """
    if seq_len < 1:
        raise ValueError("window length must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = np.arange(0, len(frames) - seq_len + 1, stride)
    images = frames.dtype["images"]
    out = np.recarray(len(starts), sample_dtype(seq_len, *images.shape))
    out.label = label
    out.frames = frames[starts[:, None] + np.arange(seq_len)]
    return out


def assemble_dataset(parts, rng_seed):
    """The records of every part in one deterministic shuffled order, as gen-data stores them.

    parts holds one record array per episode, in episode order. Returns the
    stored records, built once in their shuffled order, and for each the
    index of its part and its index within that part.
    """
    sizes = [len(p) for p in parts]
    n = sum(sizes)
    if not n:
        raise ValueError("no samples to assemble")
    order = np.random.default_rng(rng_seed).permutation(n)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    stored = np.recarray(n, parts[0].dtype)
    lo = 0
    for part in parts:
        stored[position[lo : lo + len(part)]] = part
        lo += len(part)
    part_index = np.repeat(np.arange(len(parts)), sizes)
    index_in_part = np.concatenate([np.arange(size) for size in sizes])
    return stored, part_index[order], index_in_part[order]


def split_samples(samples, split):
    """Contiguous (train, validate, test) parts of a stored sample array.

    The first floor(split[0]*n) samples train, the next floor(split[1]*n)
    validate and the rest test.
    """
    n = len(samples)
    n_train = int(np.floor(split[0] * n))
    n_val = int(np.floor(split[1] * n))
    return samples[:n_train], samples[n_train : n_train + n_val], samples[n_train + n_val :]


# --- binary serialization ----------------------------------------------------

def serialize_dataset(samples, path):
    """Write the DPMD file: the header, then the records' own bytes."""
    records = np.ascontiguousarray(samples)
    if not len(records):
        raise ValueError("refusing to write an empty dataset")
    frame = records.dtype["frames"]
    seq_len, = frame.shape
    n_cams, rows, cols = frame.base["images"].shape
    if records.dtype != sample_dtype(seq_len, n_cams, rows, cols):
        raise ValueError(f"samples are not DPMD sample records: {records.dtype}")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQBBHH", VERSION, len(records), seq_len, n_cams, rows, cols))
        fh.write(records.view(np.uint8))


def deserialize_dataset(path):
    """Read a DPMD file as one record array viewing the file's bytes (bit-exact round trip)."""
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
    try:
        dtype = sample_dtype(seq_len, n_cams, rows, cols)
    except ValueError:  # numpy caps a record at 2 GiB
        raise DatasetFormatError(f"a {seq_len}-frame sample of {n_cams} {rows}x{cols} "
                                 f"images does not fit one record", 16) from None
    expected = HEADER_SIZE + count * dtype.itemsize
    if len(blob) != expected:
        raise DatasetFormatError(
            f"expected {expected} bytes for {count} samples, found {len(blob)}",
            min(len(blob), expected))
    samples = np.frombuffer(blob, dtype, count=count, offset=HEADER_SIZE).view(np.recarray)
    frames = samples.frames
    finite = np.isfinite(frames.state).all(axis=2) & np.isfinite(frames.action)
    if not finite.all():
        idx, t = np.unravel_index(np.argmin(finite), finite.shape)
        raise DatasetFormatError(
            f"non-finite state or action value in sample {idx}, frame {t}",
            HEADER_SIZE + int(idx) * dtype.itemsize + 1 + int(t) * frames.itemsize)
    bad = np.flatnonzero(samples.label > 1)
    if bad.size:
        raise DatasetFormatError(f"label byte must be 0 or 1, got {samples.label[bad[0]]}",
                                 HEADER_SIZE + int(bad[0]) * dtype.itemsize)
    return Dataset(samples=samples)


# --- sidecar metadata (episode/scenario identity lives outside the format) ---

def write_meta(episode_ids, scenarios, window_starts, path):
    """Sidecar CSV mapping sample index -> episode, scenario, window start."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "episode_id", "scenario", "window_start"])
        writer.writerows(zip(range(len(episode_ids)), np.asarray(episode_ids).tolist(),
                             np.asarray(scenarios).tolist(), np.asarray(window_starts).tolist()))


def read_meta(path, n_samples=None):
    """Returns (episode_ids, scenarios) arrays aligned with sample indices.

    Text that is not UTF-8, a missing header, a short row or a non-integer
    field raises ValueError naming the file and line, and so does a file that
    does not cover exactly n_samples samples, when n_samples is given.
    """
    from .report import open_utf8  # here, not at module level: loading a dataset needs no report

    with open_utf8(path) as fh:
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
    if n_samples is not None and len(rows) != n_samples:
        raise ValueError(f"meta file {path} covers {len(rows)} samples, "
                         f"dataset has {n_samples}")
    episode_ids = np.array([r[1] for r in rows], dtype=np.int64)
    scenarios = np.array([r[2] for r in rows], dtype=np.int64)
    return episode_ids, scenarios
