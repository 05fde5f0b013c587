"""Fail-fast guards: model/dataset dimension mismatches."""

import numpy as np
import pytest

from crashcast.checkpoint import load_checkpoint
from crashcast.cli import main
from crashcast.data import deserialize_dataset
from crashcast.network import dpm_forward_batch, init_params, inputs_from_samples

from test_network import make_samples, tiny_config


def run_cli(*argv):
    return main(list(argv))


def test_sequence_length_mismatch_rejected():
    config = tiny_config(seq_len=2)
    rng = np.random.default_rng(1)
    longer = tiny_config(seq_len=4)
    sample = make_samples(rng, longer, 1)[0]
    with pytest.raises(ValueError):
        inputs_from_samples(config, [sample])


@pytest.mark.parametrize("rows, cols", [(3, 4), (8, 8)])
def test_image_size_mismatch_rejected(rows, cols):
    config = tiny_config()  # 4x4 images
    sample = make_samples(np.random.default_rng(2), tiny_config(rows=rows, cols=cols), 1)[0]
    with pytest.raises(ValueError, match=f"sample images are {rows}x{cols}, network expects 4x4"):
        dpm_forward_batch(init_params(config), config, [sample])


GEN8 = [
    "--set", "sim.episodes_per_scenario=2",
    "--set", "sim.image_size=8",
    "--set", "data.window_stride=25",
]
NET_SMALL = [
    "--set", "net.conv_filters=2,2",
    "--set", "net.lstm_units=4",
    "--set", "net.merge_units=8",
    "--set", "train.max_iterations=4",
    "--set", "train.validation_interval=2",
    "--set", "train.batch_size=8",
]


def test_cli_rejects_model_dataset_dimension_mismatch(tmp_path, capsys):
    data8 = tmp_path / "d8.dpmd"
    data16 = tmp_path / "d16.dpmd"
    model = tmp_path / "m.dpmw"
    assert run_cli("gen-data", "--seed", "1", "--out", str(data8), *GEN8) == 0
    assert run_cli("gen-data", "--seed", "1", "--out", str(data16), *GEN8,
                   "--set", "sim.image_size=16") == 0
    assert run_cli("train", "--data", str(data8), "--out", str(model),
                   *GEN8, *NET_SMALL) == 0
    # evaluating the 8x8 model on the 16x16 dataset is a data/model error
    rc = run_cli("eval", "--data", str(data16), "--model", str(model), *GEN8, *NET_SMALL)
    assert rc == 2
    assert "8x8" in capsys.readouterr().err
    rc = run_cli("predict", "--data", str(data16), "--model", str(model),
                 "--index", "0", "--sfp", "4", "--out", str(tmp_path / "p"),
                 *GEN8, *NET_SMALL)
    assert rc == 2
    # training with a config that disagrees with the file fails fast too
    rc = run_cli("train", "--data", str(data16), "--out", str(tmp_path / "m2.dpmw"),
                 *GEN8, *NET_SMALL)
    assert rc == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """A model trained on 5-frame windows of three 8x8 cameras."""
    tmp = tmp_path_factory.mktemp("fitted")
    data, model = tmp / "d.dpmd", tmp / "m.dpmw"
    assert run_cli("gen-data", "--seed", "1", "--out", str(data), *GEN8) == 0
    assert run_cli("train", "--data", str(data), "--out", str(model), *GEN8, *NET_SMALL) == 0
    return model


@pytest.mark.parametrize("mismatch, message", [
    (["--set", "data.seq_len=4"], "samples hold 4-frame windows, network expects 5"),
    (["--set", "sim.image_size=6"], "sample images are 6x6, network expects 8x8"),
    (["--set", "sim.cameras=left_mirror", "--set", "net.cameras=left_mirror"],
     "samples lack camera 'dashcam', which the network reads"),
])
def test_network_and_cli_refuse_a_mismatch_with_one_message(fitted_model, tmp_path, capsys,
                                                           mismatch, message):
    """The network's forward, eval and train refuse a dataset the network cannot
    read through one rule, with the same message."""
    data = tmp_path / "other.dpmd"
    assert run_cli("gen-data", "--seed", "2", "--out", str(data), *GEN8, *mismatch) == 0
    config, params = load_checkpoint(fitted_model)
    samples = deserialize_dataset(data).samples
    with pytest.raises(ValueError) as err:
        dpm_forward_batch(params, config, samples[:2])
    assert str(err.value) == message
    capsys.readouterr()
    assert run_cli("eval", "--data", str(data), "--model", str(fitted_model)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "m.dpmw"),
                   *GEN8, *NET_SMALL) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.dpmw").exists()
