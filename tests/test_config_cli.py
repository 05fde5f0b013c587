"""Configuration parsing, checkpoint format, and CLI behaviour tests."""

import os
import resource
from dataclasses import replace

import numpy as np
import pytest

from crashcast.checkpoint import (
    CheckpointFormatError,
    _pack_config,
    load_checkpoint,
    save_checkpoint,
)
from crashcast.cli import main
from crashcast.config import (
    MAX_BINS,
    MAX_EPISODES_PER_SCENARIO,
    REGISTRY,
    ConfigError,
    RunConfig,
    camera_specs,
    load_config,
    network_config,
    parse_config,
    world_config,
)
from crashcast.network import dpm_forward, init_params, param_shapes
from crashcast.report import read_csv, write_csv

from test_network import make_samples, tiny_config


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.dropout.rate == 0.01
    assert cfg.train.optimizer == "adam"
    assert cfg.eval.fold_k == 10


def test_parse_values_comments_and_overrides():
    text = """
# a comment
dropout.rate = 0.05   # trailing comment
sim.image_size = 24
net.cameras = dashcam
train.dropout_in_training = false
data.split = 0.6,0.2,0.2
"""
    cfg = parse_config(text, overrides=["dropout.rate=0.2"])
    assert cfg.dropout.rate == 0.2  # override wins over the file
    assert cfg.sim.image_size == 24
    assert cfg.net.cameras == ("dashcam",)
    assert cfg.train.dropout_in_training is False
    assert cfg.data.split == (0.6, 0.2, 0.2)


def test_parse_example_dropout_rate():
    cfg = parse_config("dropout.rate = 0.01")
    assert cfg.dropout.rate == 0.01


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("sim.dt = 0.05\nnot.a.key = 1\n", source="conf.txt")
    assert "not.a.key" in str(err.value)
    assert "conf.txt:2" in str(err.value)


def test_type_error_reports_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("dropout.rate = banana", source="conf.txt")
    assert "dropout.rate" in str(err.value)
    assert "conf.txt:1" in str(err.value)


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config("dropout.rate = 1.5")
    with pytest.raises(ConfigError):
        parse_config("sim.scenarios = 1,7")
    with pytest.raises(ConfigError):
        parse_config("eval.fold_unit = windows")
    with pytest.raises(ConfigError):
        parse_config("net.cameras = dashcam\nsim.cameras = left_mirror")
    with pytest.raises(ConfigError):
        parse_config("this is not a key value line")


# each must fail at parse time, naming its key, or its section where the
# simulator or network objects built from several keys reject it
BAD_SETTINGS = [
    ("train.batch_size=0", "'train.batch_size'"),
    ("train.optimizer=foo", "'train.optimizer'"),
    ("train.patience=0", "'train.patience'"),
    ("train.max_iterations=0", "'train.max_iterations'"),
    ("train.beta1=7", "'train.beta1'"),
    ("train.beta1=1", "'train.beta1'"),
    ("train.beta2=1", "'train.beta2'"),
    ("train.beta2=-0.5", "'train.beta2'"),
    ("train.epsilon=0", "'train.epsilon'"),
    # non-finite values used to load: train wrote its untrained weights as the
    # model, and gen-data failed mid-run with an error that named no key
    ("train.learning_rate=nan", "'train.learning_rate'"),
    ("sim.dt=nan", "'sim.dt'"),
    ("sim.top_speed=inf", "'sim.top_speed'"),
    ("eval.sigma_lo=-inf", "'eval.sigma_lo'"),
    ("dropout.targets=foo", "'dropout.targets'"),
    ("net.input_mode=bogus", "bad net settings"),
    ("net.conv_kernels=2", "bad net settings"),
    ("sim.fov_deg=200", "bad sim settings"),
    ("sim.cameras=dashcam", "'sim.cameras'"),
    ("sim.cameras=right_mirror,left_mirror", "'sim.cameras'"),
    ("sim.scenarios=1,1", "'sim.scenarios'"),
    ("sim.scenarios=2,4,2", "'sim.scenarios'"),
    ("data.seq_len=0", "'data.seq_len'"),
    ("data.window_stride=0", "'data.window_stride'"),
    ("data.split=0.5,0.5,0.5", "'data.split'"),
    ("eval.fold_k=1", "'eval.fold_k'"),
    ("eval.bins=0", "'eval.bins'"),
    ("eval.val_fraction=1.0", "'eval.val_fraction'"),
    ("eval.threshold=7", "'eval.threshold'"),
    # each used to exit 2 after the delay bisection or the simulation had run,
    # mostly naming no key; a negative vehicle height wrote a dataset
    ("sim.delay_window=-1", "'sim.delay_window'"),
    ("data.horizon=-1", "'data.horizon'"),
    ("sim.max_duration=-1", "'sim.max_duration'"),
    ("sim.top_speed=0", "'sim.top_speed'"),
    ("sim.max_accel=-1", "'sim.max_accel'"),
    ("sim.vehicle_length=-1", "'sim.vehicle_length'"),
    ("sim.vehicle_width=0", "'sim.vehicle_width'"),
    ("sim.vehicle_height=-1", "'sim.vehicle_height'"),
    ("sim.start_distance=-5", "'sim.start_distance'"),
    # values past a DPMW or DPMD field width used to pass the parser: train ran,
    # then died writing the checkpoint with a struct.error and exit 1
    ("net.conv_kernels=3,257", "bad net settings: conv_kernels"),
    ("net.conv_strides=1,256", "bad net settings: conv_strides"),
    ("net.conv_filters=8,65536", "bad net settings: conv_filters"),
    ("net.lstm_units=65536", "bad net settings: lstm_units"),
    ("net.merge_units=65536", "bad net settings: merge_units"),
    ("sim.image_size=65536", "'sim.image_size'"),
    ("data.seq_len=256", "'data.seq_len'"),
    # episodes of over a million frames used to pass the parser, and gen-data's
    # delay bisection then stepped them one tick at a time (1.2e10 ticks at dt 1e-9)
    ("sim.dt=1e-9", "bad sim settings"),
    ("sim.max_duration=1e12", "bad sim settings"),
    # each parsed, and made an uncertainty verdict class unreachable
    ("eval.sigma_lo=-1", "'eval.sigma_lo'"),
    ("eval.peak_mass_frac=5", "'eval.peak_mass_frac'"),
    ("eval.valley_ratio=-3", "'eval.valley_ratio'"),
    # each parsed, then asked numpy for tens of GiB: predict after every pass,
    # in its histogram, and gen-data when it drew the delays
    ("eval.bins=10000000000", "'eval.bins'"),
    ("sim.episodes_per_scenario=10000000000", "'sim.episodes_per_scenario'"),
]


@pytest.mark.parametrize("setting, names", BAD_SETTINGS, ids=[s for s, _ in BAD_SETTINGS])
def test_bad_value_rejected_at_parse_time(setting, names):
    key = setting.split("=")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(setting.replace("=", " = "), source="conf.txt")
    assert names in str(err.value)
    if key in names:
        assert "conf.txt:1" in str(err.value)


def test_size_caps_admit_their_limit():
    """eval.bins and sim.episodes_per_scenario parse at their caps and fail one past them."""
    for key, cap in (("eval.bins", MAX_BINS),
                     ("sim.episodes_per_scenario", MAX_EPISODES_PER_SCENARIO)):
        section, name = key.split(".")
        assert getattr(getattr(parse_config(f"{key} = {cap}"), section), name) == cap
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(f"{key} = {cap + 1}")


def _float_defaults():
    """(key, default) for every key whose value is a float or a list of floats."""
    out = []
    for key in REGISTRY:
        section, name = key.split(".")
        default = getattr(getattr(RunConfig(), section), name)
        items = default if isinstance(default, tuple) else (default,)
        if all(type(v) is float for v in items):
            out.append((key, default))
    return out


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, default", [pytest.param(k, d, id=k) for k, d in _float_defaults()])
def test_non_finite_float_rejected_at_parse_time(key, default, text):
    values = [text]
    if isinstance(default, tuple):  # one non-finite entry among valid ones, at each position
        values = [",".join(text if j == i else repr(v) for j, v in enumerate(default))
                  for i in range(len(default))]
    for value in values:
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {value}", source="conf.txt")
        msg = str(err.value)
        assert f"'{key}'" in msg and "conf.txt:1" in msg and "finite" in msg, msg


def test_config_hash_stable_and_sensitive():
    a = parse_config("")
    b = parse_config("# only a comment")
    c = parse_config("dropout.rate = 0.02")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.txt")


def test_engine_conversions():
    cfg = parse_config("sim.image_size = 16\nsim.fov_deg = 60\nnet.input_mode = images_only\n")
    world = world_config(cfg)
    assert world.top_speed == 10.0
    cams = camera_specs(cfg)
    assert [c.name for c in cams] == ["left_mirror", "dashcam", "right_mirror"]
    assert all(c.rows == 16 and c.cols == 16 for c in cams)
    assert cams[0].fov == pytest.approx(np.radians(60))
    net = network_config(cfg)
    assert net.input_mode == "images_only"
    assert net.image_rows == 16
    assert net.conv_return_sequences == (True, False)
    assert cfg.train.optimizer == "adam"


# --- checkpoint format ---------------------------------------------------------


def test_network_config_bounds_are_the_checkpoint_field_widths():
    """Every value the DPMW config block stores packs at its field's bound and is
    refused past it, naming the field, when the config is built."""
    base = tiny_config()
    for name, limit in (("conv_kernels", 255), ("conv_strides", 255), ("conv_filters", 65535),
                        ("image_rows", 65535), ("image_cols", 65535), ("seq_len", 65535),
                        ("lstm_units", 65535), ("merge_units", 65535)):
        as_field = (lambda v: (1, v)) if isinstance(getattr(base, name), tuple) else int
        _pack_config(replace(base, **{name: as_field(limit)}))
        with pytest.raises(ValueError, match=name):
            replace(base, **{name: as_field(limit + 2)})  # + 2: conv kernels must be odd
    for n, ok in ((255, True), (256, False)):
        layers = dict(conv_filters=(1,) * n, conv_kernels=(1,) * n, conv_strides=(1,) * n)
        if ok:
            _pack_config(replace(base, **layers))
        else:
            with pytest.raises(ValueError, match="255 conv layers"):
                replace(base, **layers)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    config = tiny_config()
    params = init_params(config, seed=1)
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, params)
    loaded_config, loaded = load_checkpoint(path)
    assert loaded_config == config
    for name, t in params.tensors().items():
        assert (loaded.tensors()[name] == t).all()
    # forward pass agrees exactly
    rng = np.random.default_rng(2)
    sample = make_samples(rng, config, 1)[0]
    assert (dpm_forward(params, config, sample) == dpm_forward(loaded, loaded_config, sample)).all()
    # second save is byte-identical
    path2 = tmp_path / "m2.dpmw"
    save_checkpoint(path2, loaded_config, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    config = tiny_config()
    params = init_params(config, seed=3)
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, params)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.dpmw"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(bad)
    assert err.value.offset == 0

    trunc = tmp_path / "trunc.dpmw"
    trunc.write_bytes(bytes(blob[: len(blob) - 17]))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(trunc)

    extra = tmp_path / "extra.dpmw"
    extra.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(extra)



def test_checkpoint_rejects_out_of_range_config_bytes(tmp_path, capsys):
    config = tiny_config()
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, init_params(config, seed=3))
    # the config block opens at byte 8 after magic and version: input mode
    # (8), camera count (9), one index byte per camera (10), rows, cols,
    # channels and seq_len as u16 (11-18), the conv-layer count (19), then per
    # layer filters u16, kernel, stride and return flag (20-24, 25-29); the
    # first tensor record starts at 38. Values NetworkConfig rejects fail at
    # the block's offset.
    edits = [
        ({8: 7}, 8),            # input-mode index out of range
        ({10: 7}, 10),          # camera index out of range
        ({9: 0}, 8),            # no cameras
        ({17: 0, 18: 0}, 8),    # zero-length sequences
        ({19: 0}, 8),           # empty conv stack
        ({20: 0, 21: 0}, 8),    # zero filters
        ({22: 0}, 8),           # zero kernel
        ({22: 2}, 8),           # even kernel
        ({23: 0}, 8),           # zero stride
        ({11: 255, 12: 255, 13: 255, 14: 255}, 8),  # 65535x65535 images: tens of GiB
        ({20: 3}, 38),          # a valid config whose first tensor record disagrees
        ({24: 2}, 24),          # return-sequences flags are 0 or 1
        ({29: 255}, 29),
        ({24: 0}, 24),          # every layer but the last returns sequences
        ({29: 1}, 29),          # the last layer does not
        ({15: 2}, 15),          # DPMD images have one channel
    ]
    for i, (edit, offset) in enumerate(edits):
        blob = bytearray(path.read_bytes())
        for at, value in edit.items():
            blob[at] = value
        bad = tmp_path / f"bad{i}.dpmw"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(bad)
        assert err.value.offset == offset, edit
        assert run_cli("eval", "--data", str(tmp_path / "unused.dpmd"), "--model", str(bad)) == 2
        err_text = capsys.readouterr().err
        assert f"byte offset {offset}" in err_text and "Traceback" not in err_text



def test_checkpoint_rejects_records_out_of_order(tmp_path, capsys):
    config = tiny_config()
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, init_params(config, seed=3))
    clean = path.read_bytes()
    # each record: u16 name length, name, rank, u32 dims, float64 values
    (name0, shape0), (name1, shape1) = list(param_shapes(config).items())[:2]
    end0 = 38 + 2 + len(name0) + 1 + 4 * len(shape0) + 8 * int(np.prod(shape0))
    end1 = end0 + 2 + len(name1) + 1 + 4 * len(shape1) + 8 * int(np.prod(shape1))
    swapped = clean[:38] + clean[end0:end1] + clean[38:end0] + clean[end1:]
    bad = tmp_path / "swapped.dpmw"
    bad.write_bytes(swapped)
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(bad)
    assert err.value.offset == 38
    assert run_cli("eval", "--data", str(tmp_path / "unused.dpmd"), "--model", str(bad)) == 2
    err_text = capsys.readouterr().err
    assert "byte offset 38" in err_text and "Traceback" not in err_text


def test_checkpoint_rejects_non_finite_values(tmp_path, capsys):
    config = tiny_config()
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, init_params(config, seed=3))
    clean = path.read_bytes()
    # head.b_out is the last record: u16 name length, name, rank, one u32 dim, 2 values
    record = len(clean) - (2 + len("head.b_out") + 1 + 4 + 16)
    for i, value in enumerate((np.nan, np.inf, -np.inf)):
        bad = tmp_path / f"bad{i}.dpmw"
        bad.write_bytes(clean[:-8] + np.array([value], dtype="<f8").tobytes())
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(bad)
        assert err.value.offset == record
        assert run_cli("eval", "--data", str(tmp_path / "unused.dpmd"), "--model", str(bad)) == 2
        err_text = capsys.readouterr().err
        assert f"byte offset {record}" in err_text and "Traceback" not in err_text


def test_checkpoint_byte_fuzz_raises_typed_error_or_reloads_exactly(tmp_path):
    # three cameras put the first conv layer's return-sequences flag at byte 26
    config = tiny_config(cameras=("left_mirror", "dashcam", "right_mirror"))
    path = tmp_path / "m.dpmw"
    save_checkpoint(path, config, init_params(config, seed=3))
    clean = path.read_bytes()
    bad, resaved = tmp_path / "bad.dpmw", tmp_path / "resaved.dpmw"
    rng = np.random.default_rng(606)
    # a config that asks for a huge tensor must fail on its bytes, not on allocation
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 3 << 30
    capped = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (capped, hard))
    try:
        for _ in range(400):
            at = int(rng.integers(0, 60))
            blob = bytearray(clean)
            blob[at] = (blob[at] + int(rng.integers(1, 256))) % 256
            bad.write_bytes(bytes(blob))
            try:
                loaded = load_checkpoint(bad)
            except CheckpointFormatError:
                continue
            save_checkpoint(resaved, *loaded)
            assert resaved.read_bytes() == bytes(blob), f"byte {at} = {blob[at]}"
        # every proper prefix of the file is a typed error
        for end in range(len(clean)):
            bad.write_bytes(clean[:end])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(bad)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

# --- report I/O ----------------------------------------------------------------


def test_write_read_csv_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(path, ["a", "b"], [[1, 0.5], [2, 0.25]], provenance={"seed": 7})
    prov, header, rows = read_csv(path)
    assert prov == {"seed": "7"}
    assert header == ["a", "b"]
    assert rows == [["1", "0.5"], ["2", "0.25"]]


# --- CLI -----------------------------------------------------------------------

FAST_GEN = [
    "--set", "sim.episodes_per_scenario=2",
    "--set", "sim.image_size=8",
    "--set", "data.window_stride=25",
]


def run_cli(*argv):
    return main(list(argv))


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("no-such-command") == 1
    assert run_cli("gen-data") == 1  # missing --out
    # the fold unit is the config key eval.fold_unit, set with --set like any other
    assert run_cli("experiment", "--data", str(tmp_path / "d.dpmd"), "--sweep", "camera",
                   "--out", str(tmp_path / "exp"), "--fold-unit", "samples") == 1
    assert "unrecognized arguments: --fold-unit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_config_errors_exit_1(tmp_path, capsys):
    rc = run_cli("gen-data", "--out", str(tmp_path / "x.dpmd"), "--set", "bogus.key=1")
    assert rc == 1
    assert "bogus.key" in capsys.readouterr().err
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"sim.dt = 0.05\n# caf\xff\n")  # not UTF-8
    assert run_cli("gen-data", "--config", str(conf), "--out", str(tmp_path / "x.dpmd")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(conf) in err, err
    assert list(tmp_path.iterdir()) == [conf]


@pytest.mark.parametrize("argv", [
    ("inspect", "--data", "d.dpmd"),
    ("train", "--data", "d.dpmd", "--out", "m.dpmw"),
    ("eval", "--data", "d.dpmd", "--model", "m.dpmw"),
    ("predict", "--data", "d.dpmd", "--model", "m.dpmw", "--index", "0", "--out", "p"),
    ("anova", "--folds", "f.csv"),
], ids=lambda argv: argv[0])
def test_cli_jobs_is_a_usage_error_where_nothing_runs_in_parallel(argv, capsys):
    assert run_cli(*argv, "--jobs", "3") == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 3" in err
    assert f"usage: crashcast {argv[0]}" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("gen-data", "--out", "x.dpmd", "--jobs"),
    ("experiment", "--data", "d.dpmd", "--sweep", "camera", "--out", "exp", "--jobs"),
    ("predict", "--data", "d.dpmd", "--model", "m.dpmw", "--index", "0", "--out", "p", "--sfp"),
], ids=lambda argv: argv[0])
def test_cli_counts_below_one_are_usage_errors(tmp_path, monkeypatch, capsys, argv, value):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, value) == 1
    err = capsys.readouterr().err
    assert f"usage: crashcast {argv[0]}" in err
    assert f"argument {argv[-1]}: expected a positive integer, got '{value}'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    """A small dataset and an untrained checkpoint that fits it."""
    root = tmp_path_factory.mktemp("inputs")
    data, model = root / "d.dpmd", root / "m.dpmw"
    assert run_cli("gen-data", "--seed", "3", "--out", str(data), *FAST_GEN) == 0
    net_config = network_config(parse_config("sim.image_size = 8"))
    save_checkpoint(model, net_config, init_params(net_config, seed=1))
    return data, model


# predict is the command that reads eval.bins
CLI_BAD_SETTINGS = [("predict" if s.startswith("eval.bins=") else "gen-data", s, n)
                    for s, n in BAD_SETTINGS]


@pytest.mark.parametrize("command, setting, names", CLI_BAD_SETTINGS,
                         ids=[f"{c}-{s}" for c, s, _ in CLI_BAD_SETTINGS])
def test_cli_bad_value_exits_1_before_any_work(tmp_path, capsys, predict_inputs,
                                               command, setting, names):
    if command == "gen-data":
        argv = ["gen-data", "--out", str(tmp_path / "x.dpmd"), *FAST_GEN]
    else:
        data, model = predict_inputs
        argv = ["predict", "--data", str(data), "--model", str(model), "--index", "0",
                "--sfp", "2", "--out", str(tmp_path / "pred")]
    capsys.readouterr()
    assert run_cli(*argv, "--set", setting) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err, err
    assert list(tmp_path.iterdir()) == []


def test_cli_data_errors_exit_2(tmp_path, capsys):
    rc = run_cli("inspect", "--data", str(tmp_path / "missing.dpmd"))
    assert rc == 2
    bad = tmp_path / "bad.dpmd"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert run_cli("inspect", "--data", str(bad)) == 2
    capsys.readouterr()


def test_cli_gen_data_deterministic_and_inspectable(tmp_path, capsys):
    out1 = tmp_path / "a.dpmd"
    out2 = tmp_path / "b.dpmd"
    assert run_cli("gen-data", "--seed", "5", "--out", str(out1), *FAST_GEN) == 0
    assert run_cli("gen-data", "--seed", "5", "--out", str(out2), *FAST_GEN) == 0
    assert out1.read_bytes() == out2.read_bytes()
    gen1 = (tmp_path / "a.dpmd.gen.csv").read_text()
    gen2 = (tmp_path / "b.dpmd.gen.csv").read_text()
    assert gen1.replace("a.dpmd", "x") == gen2.replace("b.dpmd", "x")
    # different seed changes the file
    out3 = tmp_path / "c.dpmd"
    assert run_cli("gen-data", "--seed", "6", "--out", str(out3), *FAST_GEN) == 0
    assert out1.read_bytes() != out3.read_bytes()
    assert run_cli("inspect", "--data", str(out1), "--out", str(tmp_path / "i.csv")) == 0
    _prov, header, rows = read_csv(tmp_path / "i.csv")
    assert header == ["subset", "samples", "collision", "no_collision"]
    subsets = {r[0] for r in rows}
    assert "all" in subsets and "scenario_3" in subsets
    # scenario 3 is always no-collision, scenario 4 always collision
    for r in rows:
        if r[0] == "scenario_3":
            assert r[2] == "0"
        if r[0] == "scenario_4":
            assert r[3] == "0"
    # a sidecar that covers a different number of samples is refused
    meta = tmp_path / "a.dpmd.meta.csv"
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(lines[:-1]))
    capsys.readouterr()
    assert run_cli("inspect", "--data", str(out1)) == 2
    n = len(lines) - 1
    assert f"covers {n - 1} samples, dataset has {n}" in capsys.readouterr().err


def test_cli_scenario_filter_all_labels_match(tmp_path, capsys):
    out = tmp_path / "s3.dpmd"
    assert run_cli("gen-data", "--seed", "1", "--out", str(out), *FAST_GEN,
                   "--set", "sim.scenarios=3") == 0
    from crashcast.data import deserialize_dataset
    ds = deserialize_dataset(out)
    assert all(s.label == 0 for s in ds.samples)
    capsys.readouterr()


def test_cli_gen_data_parallel_matches_sequential(tmp_path, capsys):
    seq = tmp_path / "seq.dpmd"
    par = tmp_path / "par.dpmd"
    assert run_cli("gen-data", "--seed", "21", "--out", str(seq), *FAST_GEN) == 0
    assert run_cli("gen-data", "--seed", "21", "--jobs", "2", "--out", str(par), *FAST_GEN) == 0
    assert seq.read_bytes() == par.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("setting", ["sim.episodes_per_scenario=0", "sim.scenarios="])
def test_cli_gen_data_without_episodes_exits_2(tmp_path, capsys, setting):
    out = tmp_path / "none.dpmd"
    assert run_cli("gen-data", "--out", str(out), *FAST_GEN, "--set", setting) == 2
    err = capsys.readouterr().err
    assert "generation produced no samples; check episode and window settings" in err
    assert not out.exists()


TRAIN_FAST = [
    "--set", "sim.image_size=8",
    "--set", "train.max_iterations=12",
    "--set", "train.validation_interval=6",
    "--set", "train.batch_size=8",
    "--set", "net.conv_filters=2,2",
    "--set", "net.lstm_units=4",
    "--set", "net.merge_units=8",
]


def _gen_train_predict(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    model = tmp_path / "m.dpmw"
    assert run_cli("gen-data", "--seed", "3", "--out", str(data), *FAST_GEN) == 0
    assert run_cli("train", "--seed", "4", "--data", str(data), "--out", str(model),
                   *TRAIN_FAST) == 0
    return data, model


def _assert_csvs_hold_no_numpy_reprs(root):
    """Numpy scalars must reach CSV bytes as plain numbers, never as np.float64(...)."""
    paths = list(root.rglob("*.csv"))
    assert paths
    for path in paths:
        assert "np." not in path.read_text(), path


def test_cli_train_eval_predict_round_trip(tmp_path, capsys):
    data, model = _gen_train_predict(tmp_path, capsys)
    assert (tmp_path / "m.dpmw.train.csv").exists()
    assert (tmp_path / "m.dpmw.loss.svg").exists()
    metrics = tmp_path / "metrics.csv"
    assert run_cli("eval", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--out", str(metrics)) == 0
    _prov, header, rows = read_csv(metrics)
    assert header == ["tp", "tn", "fp", "fn", "accuracy", "mcc"]
    assert len(rows) == 1

    pred = tmp_path / "pred"
    assert run_cli("predict", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--index", "0", "--sfp", "60", "--seed", "8", "--out", str(pred)) == 0
    dist_lines = [l for l in (pred / "distribution.csv").read_text().splitlines()
                  if not l.startswith("#")]
    assert dist_lines[0] == "pass_index,p_collision"
    assert len(dist_lines) == 61
    prov, _h, _r = read_csv(pred / "distribution.csv")
    assert "seed" in prov and "config_sha256" in prov
    _p, hh, hrows = read_csv(pred / "histogram.csv")
    assert hh == ["bin_lo", "bin_hi", "count"]
    assert sum(int(r[2]) for r in hrows) == 60
    _p, sh, srows = read_csv(pred / "stats.csv")
    assert sh == ["mean", "variance", "std", "class"]
    assert srows[0][3] in ("confident_unimodal", "diffuse_unimodal", "conflicting_bimodal")
    # reproducibility: same seed, byte-identical distribution
    pred2 = tmp_path / "pred2"
    assert run_cli("predict", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--index", "0", "--sfp", "60", "--seed", "8", "--out", str(pred2)) == 0
    assert (pred / "distribution.csv").read_bytes() == (pred2 / "distribution.csv").read_bytes()
    _assert_csvs_hold_no_numpy_reprs(tmp_path)
    capsys.readouterr()


def test_cli_eval_refuses_a_split_other_than_training(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    model = tmp_path / "m.dpmw"
    assert run_cli("gen-data", "--seed", "3", "--out", str(data), *FAST_GEN) == 0
    assert run_cli("train", "--seed", "4", "--data", str(data), "--out", str(model),
                   *TRAIN_FAST, "--set", "data.split=0.9,0.05,0.05") == 0
    prov, _header, _rows = read_csv(tmp_path / "m.dpmw.train.csv")
    assert prov["data_split"] == "0.9,0.05,0.05"
    capsys.readouterr()
    assert run_cli("eval", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--set", "data.split=0.5,0.1,0.4") == 2
    err = capsys.readouterr().err
    assert "data.split" in err and "0.5,0.1,0.4" in err and "0.9,0.05,0.05" in err
    assert run_cli("eval", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--set", "data.split=0.9,0.05,0.05") == 0
    # another dataset is not the one the model was trained on: any split scores it
    other = tmp_path / "other.dpmd"
    assert run_cli("gen-data", "--seed", "5", "--out", str(other), *FAST_GEN) == 0
    assert run_cli("eval", "--data", str(other), "--model", str(model), *TRAIN_FAST,
                   "--set", "data.split=0.5,0.1,0.4") == 0
    capsys.readouterr()


def test_cli_predict_zero_rate_is_degenerate(tmp_path, capsys):
    data, model = _gen_train_predict(tmp_path, capsys)
    pred = tmp_path / "pred0"
    assert run_cli("predict", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                   "--set", "dropout.rate=0", "--index", "1", "--sfp", "64",
                   "--seed", "9", "--out", str(pred)) == 0
    _p, _h, rows = read_csv(pred / "stats.csv")
    assert float(rows[0][1]) <= 1e-30  # degenerate distribution
    _p2, _h2, dist_rows = read_csv(pred / "distribution.csv")
    assert len({r[1] for r in dist_rows}) == 1  # every pass identical
    assert rows[0][3] == "confident_unimodal"
    capsys.readouterr()


@pytest.mark.parametrize("passes", [1, 49, 50])
def test_cli_predict_small_pass_counts(tmp_path, capsys, predict_inputs, passes):
    """One pass fits variance 0; below 50 passes no uncertainty class is given."""
    data, model = predict_inputs
    pred = tmp_path / "pred"
    assert run_cli("predict", "--data", str(data), "--model", str(model), "--index", "0",
                   "--sfp", str(passes), "--seed", "5", "--out", str(pred)) == 0
    _p, _h, dist_rows = read_csv(pred / "distribution.csv")
    assert len(dist_rows) == passes
    _p, header, rows = read_csv(pred / "stats.csv")
    stats = dict(zip(header, rows[0]))
    if passes == 1:
        assert stats == {"mean": dist_rows[0][1], "variance": "0.0", "std": "0.0",
                         "class": "insufficient_samples"}
    elif passes < 50:
        assert stats["class"] == "insufficient_samples"
    else:
        assert stats["class"] in ("confident_unimodal", "diffuse_unimodal",
                                  "conflicting_bimodal")
    assert capsys.readouterr().out.rstrip().endswith(f"class {stats['class']}")


def test_cli_predict_index_out_of_range(tmp_path, capsys):
    data, model = _gen_train_predict(tmp_path, capsys)
    rc = run_cli("predict", "--data", str(data), "--model", str(model), *TRAIN_FAST,
                 "--index", "100000", "--sfp", "10", "--out", str(tmp_path / "p"))
    assert rc == 2
    capsys.readouterr()


def test_cli_experiment_camera_sweep_smoke(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    assert run_cli("gen-data", "--seed", "7", "--out", str(data), *FAST_GEN) == 0
    out = tmp_path / "exp"
    args = ["experiment", "--data", str(data), "--sweep", "camera", "--seed", "11",
            "--out", str(out), *TRAIN_FAST,
            "--set", "eval.fold_k=2", "--set", "train.max_iterations=4",
            "--set", "train.validation_interval=2"]
    assert run_cli(*args) == 0
    _prov, header, rows = read_csv(out / "folds.csv")
    assert header == ["group", "fold", "accuracy", "mcc"]
    groups = {r[0] for r in rows}
    assert groups == {"left_mirror", "dashcam", "right_mirror", "all3"}
    assert len(rows) == 8  # 4 groups x 2 folds
    _prov, header, rows = read_csv(out / "anova.csv")
    assert header[:3] == ["metric", "f_value", "p_value"]
    assert {r[0] for r in rows} == {"accuracy", "mcc"}
    assert (out / "summary.csv").exists() and (out / "mcc_means.svg").exists()
    # reproducibility: re-running into a second directory matches byte for byte
    out2 = tmp_path / "exp2"
    args2 = [a if a != str(out) else str(out2) for a in args]
    assert run_cli(*args2) == 0
    assert (out / "folds.csv").read_bytes() == (out2 / "folds.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out / "anova.csv").read_bytes() == (out2 / "anova.csv").read_bytes()
    _assert_csvs_hold_no_numpy_reprs(tmp_path)
    capsys.readouterr()


def test_cli_experiment_input_mode_sweep_smoke(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    assert run_cli("gen-data", "--seed", "13", "--out", str(data), *FAST_GEN) == 0
    out = tmp_path / "exp"
    assert run_cli("experiment", "--data", str(data), "--sweep", "input_mode",
                   "--seed", "11", "--out", str(out), *TRAIN_FAST,
                   "--set", "eval.fold_k=2", "--set", "train.max_iterations=4",
                   "--set", "train.validation_interval=2") == 0
    _prov, _header, rows = read_csv(out / "folds.csv")
    assert {r[0] for r in rows} == {"images_only", "images_state", "images_state_action"}
    _prov, _header, arows = read_csv(out / "anova.csv")
    assert len(arows) == 2  # a p-value row for each metric
    for r in arows:
        assert 0.0 <= float(r[2]) <= 1.0
    capsys.readouterr()


def test_cli_experiment_requires_meta_for_episode_folding(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    assert run_cli("gen-data", "--seed", "17", "--out", str(data), *FAST_GEN) == 0
    os.remove(str(data) + ".meta.csv")
    rc = run_cli("experiment", "--data", str(data), "--sweep", "camera",
                 "--out", str(tmp_path / "exp"), *TRAIN_FAST,
                 "--set", "eval.fold_k=2", "--set", "train.max_iterations=2")
    assert rc == 2
    assert "meta" in capsys.readouterr().err
    # sample-level folding works without the sidecar
    rc = run_cli("experiment", "--data", str(data), "--sweep", "camera",
                 "--out", str(tmp_path / "exp"), *TRAIN_FAST, "--set", "eval.fold_unit=samples",
                 "--set", "eval.fold_k=2", "--set", "train.max_iterations=2",
                 "--set", "train.validation_interval=2")
    assert rc == 0
    capsys.readouterr()


def test_cli_anova_matches_published_rows(tmp_path, capsys):
    folds = tmp_path / "folds.csv"
    acc = [0.8099, 0.8646, 0.8125, 0.8854, 0.9427, 0.7031, 0.7891, 0.8307, 0.6797, 0.9010]
    folds.write_text("group,value\n" + "\n".join(f"isa,{v}" for v in acc) + "\n")
    out = tmp_path / "anova.csv"
    assert run_cli("anova", "--folds", str(folds), "--out", str(out)) == 0
    _prov, _header, rows = read_csv(out)
    group_row = [r for r in rows if r[0] == "group"][0]
    assert abs(float(group_row[3]) - 0.8219) <= 5e-4
    assert abs(float(group_row[4]) - 0.0790) <= 5e-4
    capsys.readouterr()


def test_cli_anova_two_groups(tmp_path, capsys):
    folds = tmp_path / "folds.csv"
    folds.write_text("group,value\na,1.0\na,2.0\na,3.0\nb,2.0\nb,3.0\nb,4.0\n")
    out = tmp_path / "anova.csv"
    assert run_cli("anova", "--folds", str(folds), "--out", str(out)) == 0
    _prov, _header, rows = read_csv(out)
    anova_rows = [r for r in rows if r[0] == "anova"]
    assert len(anova_rows) == 1
    assert float(anova_rows[0][5]) > 0  # F value present
    capsys.readouterr()


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("group,value\na,1.0\na\n", 3),
    ("group,value\na,1.0\na,2.0\nb,3.0\nb,nan\n", 5),
    ("group,value\na,1.0\na,inf\nb,3.0\nb,4.0\n", 3),
    ("group,value\na,1.0\na,x\n", 3),
    ("# seed = 1\ngroup,value\na,1.0\n\na,\n", 5),
    ("group,value\na,1.0\na,2.\xff\n", 3),
], ids=["empty-file", "no-value-column", "nan", "inf", "not-a-number", "after-comment-and-blank",
        "not-utf8"])
def test_cli_anova_refuses_bad_input_naming_file_and_line(tmp_path, capsys, text, line):
    folds = tmp_path / "folds.csv"
    folds.write_bytes(text.encode("latin-1"))  # "\xff" stays one byte, which is not UTF-8
    out = tmp_path / "anova.csv"
    assert run_cli("anova", "--folds", str(folds), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"{folds}:{line}" in captured.err
    assert captured.out == ""  # nothing, not even a group mean, is printed before it
    assert not out.exists()


def test_cli_eval_refuses_non_utf8_train_csv_naming_file_and_line(tmp_path, capsys):
    data, model = tmp_path / "d.dpmd", tmp_path / "m.dpmw"
    assert run_cli("gen-data", "--seed", "3", "--out", str(data), *FAST_GEN) == 0
    net = network_config(parse_config("", TRAIN_FAST[1::2]))
    save_checkpoint(model, net, init_params(net, seed=1))
    train_csv = tmp_path / "m.dpmw.train.csv"
    train_csv.write_bytes(b"# seed = 4\n# caf\xff\n")
    capsys.readouterr()
    assert run_cli("eval", "--data", str(data), "--model", str(model), *TRAIN_FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{train_csv}:2" in err and "Traceback" not in err, err