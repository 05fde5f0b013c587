"""Fail-fast guards: model/dataset dimension mismatches."""

import numpy as np
import pytest

from crashcast.cli import main
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
