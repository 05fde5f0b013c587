"""Dataset pipeline tests: truncation, windowing, folding, and the file format."""

import hashlib
import struct

import numpy as np
import pytest

from oracles import pack_frames, quantize_image

from crashcast.data import (
    HEADER_SIZE,
    DatasetFormatError,
    assemble_dataset,
    deserialize_dataset,
    frame_dtype,
    read_meta,
    sample_dtype,
    serialize_dataset,
    split_samples,
    truncate_episode,
    windowize,
    write_meta,
)
from crashcast.cli import _gen_episode
from crashcast.cli import main as cli_main
from crashcast.config import load_config
from crashcast.sim import ScenarioSpec, WorldConfig, default_cameras, run_scenario


def fill_frame(frame, rng):
    """Random storage bytes for one frame record."""
    for c in range(len(frame["images"])):
        frame["images"][c] = rng.integers(0, 256, frame["images"].shape[1:] + (1,))[:, :, 0]
    frame["state"] = rng.standard_normal(9)
    frame["action"] = rng.integers(0, 2)


def fake_frames(rng, n, cams=3, rows=4, cols=4):
    frames = np.recarray(n, frame_dtype(cams, rows, cols))
    for frame in frames:
        fill_frame(frame, rng)
    return frames


def fake_samples(rng, n, seq_len=5, cams=3, rows=4, cols=4):
    samples = np.recarray(n, sample_dtype(seq_len, cams, rows, cols))
    for s in samples:
        for frame in s["frames"]:
            fill_frame(frame, rng)
        s.label = rng.integers(0, 2)
    return samples


def test_truncate_keeps_five_second_window():
    # the vehicles still close in at 7 s, so the closest approach is the final frame
    ep = run_scenario(ScenarioSpec(3, 11.0, max_duration=7.0),
                      default_cameras(rows=4, cols=4), horizon=5.0)
    assert ep.event_time == pytest.approx(7.0)
    frames = truncate_episode(ep)
    assert len(frames) == 101  # 5 s at 20 Hz plus the boundary frame


def test_truncate_clamps_at_episode_start():
    ep = run_scenario(ScenarioSpec(3, 0.2, max_duration=3.0),
                      default_cameras(rows=4, cols=4), horizon=5.0)
    assert ep.event_time == 3.0
    frames = truncate_episode(ep)
    assert len(frames) == 61  # everything from t=0


def test_truncate_never_empty_and_builds_state_vector():
    ep = run_scenario(ScenarioSpec(4, 0.1), default_cameras(rows=4, cols=4))
    frames = truncate_episode(ep)
    assert len(frames) >= 1
    f = frames[0]
    assert f.state.shape == (9,)
    assert tuple(f.state[:3]) == tuple(np.float32([0.5, 0.0, 1.2]))  # dashcam mount
    assert f.state[5] == 0.0                        # vehicle z
    assert f.images[0].dtype == np.uint8
    assert len(f.images) == 3


@pytest.mark.parametrize("horizon", [5.0, 2.0])
def test_gen_episode_equals_truncated_full_run(horizon):
    cams = default_cameras(rows=6, cols=6)
    world = WorldConfig()
    cfg = load_config(None, [f"data.horizon={horizon}", "data.seq_len=5", "data.window_stride=3"])
    for sid, delay in ((1, 0.1), (2, 0.45), (3, 0.3), (4, 0.2)):
        label, windows = _gen_episode(cfg, cams, world, sid, delay)
        full = run_scenario(ScenarioSpec(sid, delay), cams, world)
        want = windowize(pack_frames(full, horizon), 5, 3, label=full.label)
        assert label == full.label
        assert len(windows) == len(want) > 0
        assert windows.tobytes() == want.tobytes()


def test_windowize_counts():
    rng = np.random.default_rng(0)
    frames10 = fake_frames(rng, 10)
    assert len(windowize(frames10, seq_len=5, stride=1)) == 6
    assert len(windowize(frames10[:4], seq_len=5, stride=1)) == 0
    frames101 = fake_frames(rng, 101)
    assert len(windowize(frames101, seq_len=5, stride=1)) == 97
    assert len(windowize(frames101, seq_len=5, stride=10)) == 10


def test_windowize_consecutive_and_label_inheritance():
    rng = np.random.default_rng(1)
    frames = fake_frames(rng, 8)
    samples = windowize(frames, seq_len=5, stride=1, label=1)
    for i, s in enumerate(samples):
        assert s.label == 1
        for t in range(5):
            assert s.frames[t].tobytes() == frames[i + t].tobytes()


def test_assemble_dataset_deterministic_partition():
    rng = np.random.default_rng(2)
    samples = fake_samples(rng, 50)
    parts = [samples[:20], samples[20:21], samples[21:]]  # windows of three episodes
    a, part_a, index_a = assemble_dataset(parts, rng_seed=9)
    b, part_b, index_b = assemble_dataset(parts, rng_seed=9)
    c = assemble_dataset(parts, rng_seed=10)[0]
    assert a.tobytes() == b.tobytes()
    assert (part_a == part_b).all() and (index_a == index_b).all()
    assert a.tobytes() != c.tobytes()
    train, validate, test = split_samples(a, (0.8, 0.1, 0.1))
    assert len(train) + len(validate) + len(test) == 50
    assert len(train) == 40 and len(validate) == 5
    # the parts are contiguous runs of the stored order
    assert np.concatenate([train, validate, test]).tobytes() == a.tobytes()
    # shuffling is a permutation, and each record names the part it came from
    for record, part, index in zip(a, part_a, index_a):
        assert record.tobytes() == parts[part][index].tobytes()
    assert sorted(zip(part_a.tolist(), index_a.tolist())) == \
        [(p, i) for p, part in enumerate(parts) for i in range(len(part))]


def test_assemble_dataset_split_class_balance():
    rng = np.random.default_rng(3)
    samples = fake_samples(rng, 1200)
    parts = split_samples(assemble_dataset([samples], rng_seed=11)[0], (0.8, 0.1, 0.1))
    global_rate = np.mean(samples.label)
    for part in parts:
        rate = np.mean(part.label)
        assert abs(rate - global_rate) <= 0.10


def test_assemble_validates_input():
    with pytest.raises(ValueError):
        assemble_dataset([], 0)


def test_serialize_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    samples = fake_samples(rng, 100)
    path = tmp_path / "d.dpmd"
    serialize_dataset(samples, path)
    loaded = deserialize_dataset(path)
    assert len(loaded.samples) == 100
    assert loaded.seq_len == 5 and loaded.rows == 4 and loaded.cols == 4
    assert loaded.cameras == ("left_mirror", "dashcam", "right_mirror")
    assert (loaded.samples.label == samples.label).all()
    fo, fg = samples.frames, loaded.samples.frames
    assert (fo.images == fg.images).all()
    assert fo.state.tobytes() == fg.state.tobytes()
    assert fo.action.tobytes() == fg.action.tobytes()
    # writing the loaded samples again reproduces the file byte for byte
    path2 = tmp_path / "d2.dpmd"
    serialize_dataset(loaded.samples, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialized_file_size_closed_form(tmp_path):
    rng = np.random.default_rng(11)
    n, seq_len, cams, rows, cols = 7, 5, 3, 32, 32
    samples = fake_samples(rng, n, seq_len=seq_len, cams=cams, rows=rows, cols=cols)
    path = tmp_path / "sized.dpmd"
    serialize_dataset(samples, path)
    per_sample = sample_dtype(seq_len, cams, rows, cols).itemsize
    assert per_sample == 1 + seq_len * (cams * rows * cols + 9 * 4 + 4)
    assert path.stat().st_size == HEADER_SIZE + n * per_sample


def test_deserialize_rejects_corruption(tmp_path):
    rng = np.random.default_rng(12)
    samples = fake_samples(rng, 3)
    path = tmp_path / "c.dpmd"
    serialize_dataset(samples, path)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.dpmd"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(DatasetFormatError) as err:
        deserialize_dataset(bad_magic)
    assert err.value.offset == 0

    bad_version = tmp_path / "v.dpmd"
    bad_version.write_bytes(bytes(blob[:4]) + b"\x63\x00\x00\x00" + bytes(blob[8:]))
    with pytest.raises(DatasetFormatError) as err:
        deserialize_dataset(bad_version)
    assert err.value.offset == 4

    truncated = tmp_path / "t.dpmd"
    truncated.write_bytes(bytes(blob[:-10]))
    with pytest.raises(DatasetFormatError):
        deserialize_dataset(truncated)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "pos_inf", "neg_inf"])
@pytest.mark.parametrize("field", [4, 9], ids=["state", "action"])
def test_deserialize_rejects_non_finite_values(tmp_path, field, value):
    rng = np.random.default_rng(13)
    path = tmp_path / "c.dpmd"
    serialize_dataset(fake_samples(rng, 3), path)  # 5 frames of 3 4x4 images each
    frame_bytes = 3 * 16 + 9 * 4 + 4
    frame = HEADER_SIZE + 2 * sample_dtype(5, 3, 4, 4).itemsize + 1 + 3 * frame_bytes
    at = frame + 3 * 16 + 4 * field  # state values 0-8, then the action
    blob = bytearray(path.read_bytes())
    blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError) as err:
        deserialize_dataset(path)
    assert err.value.offset == frame


def _dpmd_bytes(count, seq_len, n_cams, rows, cols):
    """A file whose size agrees with its header: labels 1, zero pixels and values."""
    header = b"DPMD" + struct.pack("<IQBBHH", 1, count, seq_len, n_cams, rows, cols)
    frame = bytes(n_cams * rows * cols + 40)
    return header + count * (b"\x01" + seq_len * frame)


@pytest.mark.parametrize("header, offset", [
    ((1, 1, 4, 2, 2), 17),   # more cameras than CAMERA_ORDER names
    ((1, 1, 0, 2, 2), 17),   # no cameras
    ((0, 1, 0, 2, 2), 17),
    ((1, 0, 3, 2, 2), 16),   # zero window length
    ((1, 1, 3, 0, 2), 18),   # zero rows
    ((1, 1, 3, 2, 0), 20),   # zero cols
], ids=["cams4", "cams0", "cams0_empty", "len0", "rows0", "cols0"])
def test_deserialize_rejects_impossible_header(tmp_path, capsys, header, offset):
    path = tmp_path / "h.dpmd"
    path.write_bytes(_dpmd_bytes(*header))
    with pytest.raises(DatasetFormatError) as err:
        deserialize_dataset(path)
    assert err.value.offset == offset
    assert cli_main(["inspect", "--data", str(path)]) == 2
    assert f"byte offset {offset}" in capsys.readouterr().err


def test_dataset_byte_fuzz_raises_typed_error_or_reloads_exactly(tmp_path):
    rng = np.random.default_rng(707)
    path = tmp_path / "d.dpmd"
    serialize_dataset(fake_samples(rng, 2, seq_len=2, cams=2, rows=3, cols=3), path)
    clean = path.read_bytes()
    header_and_first_sample = HEADER_SIZE + sample_dtype(2, 2, 3, 3).itemsize
    cases = [clean[:n] for n in range(len(clean))]
    for _ in range(400):
        at = int(rng.integers(0, header_and_first_sample))
        blob = bytearray(clean)
        blob[at] = (blob[at] + int(rng.integers(1, 256))) % 256
        cases.append(bytes(blob))
    bad, resaved = tmp_path / "bad.dpmd", tmp_path / "resaved.dpmd"
    for case in cases:
        bad.write_bytes(case)
        try:
            dataset = deserialize_dataset(bad)
        except DatasetFormatError:
            continue
        serialize_dataset(dataset.samples, resaved)
        assert resaved.read_bytes() == case


# sha256 of what gen-data writes at seed 5, 16x16, 3 episodes per scenario, stride 5
GEN_DATA_SHA256 = {
    "": "80a36bbb1ead68ec0d48a708727abbb8d0f1b7c5452ab55f25f0e769ed159711",
    ".meta.csv": "1a471790e18067afad3aa7d89dd3acc8ea458e31b16502b94d460cc1419dffbc",
    ".gen.csv": "7ba1d38d3a54f1f6f770fd9c56b02f99f17d1cb7e73531431b2482d6f827c084",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_gen_data_bytes_are_pinned(tmp_path, capsys, jobs):
    """gen-data's DPMD file and both sidecars hash to fixed values, at any --jobs.

    A change that alters any of these bytes must say in CHANGES.md which
    outputs change and why before it updates the hashes here.
    """
    out = tmp_path / "d.dpmd"
    assert cli_main(["gen-data", "--seed", "5", "--jobs", jobs, "--out", str(out),
                     "--set", "sim.image_size=16", "--set", "sim.episodes_per_scenario=3",
                     "--set", "data.window_stride=5"]) == 0
    capsys.readouterr()
    got = {suffix: hashlib.sha256((tmp_path / f"d.dpmd{suffix}").read_bytes()).hexdigest()
           for suffix in GEN_DATA_SHA256}
    assert got == GEN_DATA_SHA256


def test_quantize_image_stable_fixed_points():
    # k/255 values are fixed points of the oracle's quantize/dequantize pair
    k = np.arange(256, dtype=np.float64).reshape(16, 16, 1)
    img = k / 255.0
    assert (quantize_image(img)[:, :, 0] == k[:, :, 0]).all()
    again = quantize_image(quantize_image(img) / 255.0)
    assert (again == quantize_image(img)).all()


def test_meta_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    episode_ids = rng.integers(0, 3, 9)
    scenarios = episode_ids % 4 + 1
    path = tmp_path / "d.meta.csv"
    write_meta(episode_ids, scenarios, np.arange(9) % 3, path)
    got_ids, got_scen = read_meta(path)
    assert (got_ids == episode_ids).all()
    assert (got_scen == scenarios).all()
    assert (read_meta(path, 9)[0] == episode_ids).all()
    with pytest.raises(ValueError, match="covers 9 samples, dataset has 10"):
        read_meta(path, 10)


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("sample_index,episode_id,scenario,window_start\n0,0,1,0\n1,0\n", 3),
    ("sample_index,episode_id,scenario,window_start\n0,zero,1,0\n", 2),
    ("sample_index,episode_id,scenario,window_start\n0,0,1,\xff\n", 2),
], ids=["empty", "short-row", "non-integer", "not-utf8"])
def test_bad_meta_sidecar_names_file_and_line(tmp_path, capsys, text, line):
    data = tmp_path / "d.dpmd"
    serialize_dataset(fake_samples(np.random.default_rng(15), 2), data)
    meta = tmp_path / "d.dpmd.meta.csv"
    meta.write_bytes(text.encode("latin-1"))  # "\xff" stays one byte, which is not UTF-8
    with pytest.raises(ValueError) as err:
        read_meta(meta)
    assert f"{meta}:{line}" in str(err.value)
    assert cli_main(["inspect", "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(meta) in err and "Traceback" not in err
