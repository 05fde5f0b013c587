"""Dataset pipeline tests: truncation, windowing, folding, and the file format."""

import struct

import numpy as np
import pytest

from crashcast.data import (
    HEADER_SIZE,
    DatasetFormatError,
    Frame,
    SequenceSample,
    assemble_dataset,
    deserialize_dataset,
    kfold_plan,
    quantize_image,
    read_meta,
    sample_byte_size,
    serialize_dataset,
    split_samples,
    truncate_episode,
    windowize,
    write_meta,
)
from crashcast.cli import _gen_episode
from crashcast.cli import main as cli_main
from crashcast.sim import ScenarioSpec, WorldConfig, default_cameras, run_scenario


def fake_frame(rng, cams=3, rows=4, cols=4):
    images = tuple((rng.integers(0, 256, (rows, cols, 1))).astype(np.uint8) for _ in range(cams))
    state = (rng.standard_normal(9)).astype(np.float32).astype(np.float64)
    return Frame(images=images, state=state, action=float(rng.integers(0, 2)))


def fake_samples(rng, n, seq_len=5, cams=3, rows=4, cols=4):
    cameras = ("left_mirror", "dashcam", "right_mirror")[:cams]
    out = []
    for i in range(n):
        frames = [fake_frame(rng, cams, rows, cols) for _ in range(seq_len)]
        out.append(SequenceSample(frames=frames, label=int(rng.integers(0, 2)),
                                  episode_id=i // 3, window_start=i % 3, cameras=cameras))
    return out


def test_truncate_keeps_five_second_window():
    ep = run_scenario(ScenarioSpec(3, 0.6, max_duration=12.0), default_cameras(rows=4, cols=4))
    # force a known event time at the final frame
    ep.event_time = ep.frames[-1].t
    assert ep.event_time == pytest.approx(12.0)
    frames = truncate_episode(ep)
    assert len(frames) == 101  # 5 s at 20 Hz plus the boundary frame


def test_truncate_clamps_at_episode_start():
    ep = run_scenario(ScenarioSpec(3, 0.2, max_duration=12.0), default_cameras(rows=4, cols=4))
    ep.event_time = 3.0
    frames = truncate_episode(ep)
    assert len(frames) == 61  # everything from t=0


def test_truncate_never_empty_and_builds_state_vector():
    ep = run_scenario(ScenarioSpec(4, 0.1), default_cameras(rows=4, cols=4))
    frames = truncate_episode(ep)
    assert len(frames) >= 1
    f = frames[0]
    assert f.state.shape == (9,)
    assert tuple(f.state[:3]) == (0.5, 0.0, 1.2)   # dashcam mount in vehicle frame
    assert f.state[5] == 0.0                        # vehicle z
    assert f.images[0].dtype == np.uint8
    assert len(f.images) == 3


@pytest.mark.parametrize("horizon", [5.0, 2.0])
def test_gen_episode_equals_truncated_full_run(horizon):
    cams = default_cameras(rows=6, cols=6)
    world = WorldConfig()
    for sid, delay in ((1, 0.1), (2, 0.45), (3, 0.3), (4, 0.2)):
        got_sid, label, frames = _gen_episode((sid, delay, 0.05, 12.0, cams, world, horizon))
        full = run_scenario(ScenarioSpec(sid, delay), cams, world)
        want = truncate_episode(full, horizon)
        assert (got_sid, label) == (sid, full.label)
        assert len(frames) == len(want) > 0
        for g, w in zip(frames, want):
            assert g.state.tobytes() == w.state.tobytes() and g.action == w.action
            assert [i.tobytes() for i in g.images] == [i.tobytes() for i in w.images]


def test_windowize_counts():
    rng = np.random.default_rng(0)
    frames10 = [fake_frame(rng) for _ in range(10)]
    assert len(windowize(frames10, seq_len=5, stride=1)) == 6
    assert len(windowize(frames10[:4], seq_len=5, stride=1)) == 0
    frames101 = [fake_frame(rng) for _ in range(101)]
    assert len(windowize(frames101, seq_len=5, stride=1)) == 97
    assert len(windowize(frames101, seq_len=5, stride=10)) == 10


def test_windowize_consecutive_and_label_inheritance():
    rng = np.random.default_rng(1)
    frames = [fake_frame(rng) for _ in range(8)]
    samples = windowize(frames, seq_len=5, stride=1, label=1, episode_id=7)
    for i, s in enumerate(samples):
        assert s.window_start == i
        assert s.label == 1 and s.episode_id == 7
        for t in range(5):
            assert s.frames[t] is frames[i + t]


def test_assemble_dataset_deterministic_partition():
    rng = np.random.default_rng(2)
    samples = fake_samples(rng, 50)
    a = assemble_dataset(samples, rng_seed=9)
    b = assemble_dataset(samples, rng_seed=9)
    c = assemble_dataset(samples, rng_seed=10)
    assert [id(s) for s in a] == [id(s) for s in b]
    assert [id(s) for s in a] != [id(s) for s in c]
    train, validate, test = split_samples(a, (0.8, 0.1, 0.1))
    assert len(train) + len(validate) + len(test) == 50
    assert len(train) == 40 and len(validate) == 5
    # the parts are contiguous runs of the stored order
    assert [id(s) for s in train + validate + test] == [id(s) for s in a]
    # shuffling is a permutation: same multiset of objects
    assert sorted(map(id, a)) == sorted(map(id, samples))


def test_assemble_dataset_split_class_balance():
    rng = np.random.default_rng(3)
    samples = fake_samples(rng, 1200)
    parts = split_samples(assemble_dataset(samples, rng_seed=11), (0.8, 0.1, 0.1))
    global_rate = np.mean([s.label for s in samples])
    for part in parts:
        rate = np.mean([s.label for s in part])
        assert abs(rate - global_rate) <= 0.10


def test_assemble_validates_input():
    with pytest.raises(ValueError):
        assemble_dataset([], 0)


def test_kfold_plan_balanced_partition():
    plan = kfold_plan(5000, k=10, rng_seed=5)
    sizes = [int((plan == f).sum()) for f in range(10)]
    assert sizes == [500] * 10
    plan = kfold_plan(10, k=10, rng_seed=6)
    assert [int((plan == f).sum()) for f in range(10)] == [1] * 10
    plan = kfold_plan(23, k=5, rng_seed=7)
    sizes = [int((plan == f).sum()) for f in range(5)]
    assert max(sizes) - min(sizes) <= 1
    all_idx = np.concatenate([np.nonzero(plan == f)[0] for f in range(5)])
    assert sorted(all_idx.tolist()) == list(range(23))
    with pytest.raises(ValueError):
        kfold_plan(9, k=10)


def test_kfold_plan_deterministic():
    a = kfold_plan(100, 10, rng_seed=8)
    b = kfold_plan(100, 10, rng_seed=8)
    assert (a == b).all()
    c = kfold_plan(100, 10, rng_seed=9)
    assert not (a == c).all()


def test_serialize_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    samples = fake_samples(rng, 100)
    path = tmp_path / "d.dpmd"
    serialize_dataset(samples, path)
    loaded = deserialize_dataset(path)
    assert len(loaded.samples) == 100
    assert loaded.seq_len == 5 and loaded.rows == 4 and loaded.cols == 4
    assert loaded.cameras == ("left_mirror", "dashcam", "right_mirror")
    for orig, got in zip(samples, loaded.samples):
        assert got.label == orig.label
        for fo, fg in zip(orig.frames, got.frames):
            for io_, ig in zip(fo.images, fg.images):
                assert (io_ == ig).all()
            # states were float32-representable, so the round trip is bit-exact
            assert (fo.state == fg.state).all()
            assert fo.action == fg.action
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
    per_sample = sample_byte_size(seq_len, cams, rows, cols)
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
    frame = HEADER_SIZE + 2 * sample_byte_size(5, 3, 4, 4) + 1 + 3 * frame_bytes
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
    header_and_first_sample = HEADER_SIZE + sample_byte_size(2, 2, 3, 3)
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


def test_quantize_image_stable_fixed_points():
    # k/255 values are fixed points of the quantize/dequantize pair
    k = np.arange(256, dtype=np.float64).reshape(16, 16, 1)
    img = k / 255.0
    assert (quantize_image(img)[:, :, 0] == k[:, :, 0]).all()
    again = quantize_image(quantize_image(img) / 255.0)
    assert (again == quantize_image(img)).all()


def test_meta_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    samples = fake_samples(rng, 9)
    scenarios = {eid: (eid % 4) + 1 for eid in {s.episode_id for s in samples}}
    path = tmp_path / "d.meta.csv"
    write_meta(samples, scenarios, path)
    episode_ids, scen = read_meta(path)
    assert (episode_ids == np.array([s.episode_id for s in samples])).all()
    assert (scen == np.array([scenarios[s.episode_id] for s in samples])).all()


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("sample_index,episode_id,scenario,window_start\n0,0,1,0\n1,0\n", 3),
    ("sample_index,episode_id,scenario,window_start\n0,zero,1,0\n", 2),
], ids=["empty", "short-row", "non-integer"])
def test_bad_meta_sidecar_names_file_and_line(tmp_path, capsys, text, line):
    data = tmp_path / "d.dpmd"
    serialize_dataset(fake_samples(np.random.default_rng(15), 2), data)
    meta = tmp_path / "d.dpmd.meta.csv"
    meta.write_text(text)
    with pytest.raises(ValueError) as err:
        read_meta(meta)
    assert f"{meta}:{line}" in str(err.value)
    assert cli_main(["inspect", "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(meta) in err and "Traceback" not in err


def test_frame_validates_state_length():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        Frame(images=(np.zeros((2, 2, 1), dtype=np.uint8),),
              state=rng.standard_normal(8), action=0.0)
