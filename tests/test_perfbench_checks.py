"""The benchmark's output checks, run on tiny gen-data -> train -> eval,
predict and experiment runs.

perfbench/checks.py calls crashcast's sample API (deserialize_dataset's
record array, serialize_dataset, record labels, and dpm_gradients /
dpm_forward_batch on a slice) and compares the predict and experiment
reports with NumPy/SciPy and a reference forward. Running its checks here
makes a break in that API or in those reports fail a test rather than only a
benchmark run.
"""

import importlib.util
import pathlib

import pytest

from crashcast.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

GEN = ["--set", "sim.episodes_per_scenario=1", "--set", "sim.image_size=8",
       "--set", "data.window_stride=25"]
TRAIN = ["--set", "net.conv_filters=2,2", "--set", "net.lstm_units=4",
         "--set", "net.merge_units=8", "--set", "train.batch_size=8",
         # fewer validation checks than the patience: early stopping cannot fire
         "--set", "train.max_iterations=2", "--set", "train.validation_interval=1",
         "--set", "train.patience=3"]


@pytest.fixture
def checks(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(PERFBENCH))  # checks.py imports its sibling reference.py
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gen_and_train(tmp_path):
    data, model = tmp_path / "d.dpmd", tmp_path / "m.dpmw"
    assert main(["gen-data", "--seed", "3", "--out", str(data), *GEN]) == 0
    assert main(["train", "--seed", "4", "--data", str(data), "--out", str(model),
                 *GEN, *TRAIN]) == 0
    return data, model


def test_benchmark_checks_pass_on_a_tiny_run(tmp_path, capsys, checks):
    data, model = _gen_and_train(tmp_path)
    metrics = tmp_path / "eval.csv"
    assert main(["eval", "--seed", "4", "--data", str(data), "--model", str(model),
                 "--out", str(metrics), *GEN, *TRAIN]) == 0
    capsys.readouterr()
    assert checks.check_gen(str(data)) == []
    assert checks.check_train(str(data), str(model), str(metrics), iterations=2, seed=4) == []


def test_benchmark_predict_checks_pass_on_a_tiny_run(tmp_path, capsys, checks):
    data, model = _gen_and_train(tmp_path)
    passes, zero_rate_passes, seed = 20, 5, 6
    pred, zero = tmp_path / "pred", tmp_path / "pred-rate0"
    common = ["predict", "--seed", str(seed), "--data", str(data), "--model", str(model),
              "--index", "0", *GEN, *TRAIN]
    assert main([*common, "--sfp", str(passes), "--out", str(pred)]) == 0
    assert main([*common, "--sfp", str(zero_rate_passes), "--out", str(zero),
                 "--set", "dropout.rate=0"]) == 0
    capsys.readouterr()
    bins = 20  # eval.bins default
    assert checks.check_predict(str(data), str(model), str(pred), passes, seed, bins,
                                str(zero), zero_rate_passes) == []


def test_benchmark_sweep_checks_pass_on_a_tiny_run(tmp_path, capsys, checks):
    data = tmp_path / "d.dpmd"
    assert main(["gen-data", "--seed", "3", "--out", str(data), *GEN]) == 0
    for jobs in (1, 2):
        assert main(["experiment", "--seed", "5", "--data", str(data), "--sweep", "camera",
                     "--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}"), *GEN, *TRAIN,
                     "--set", "eval.fold_k=2"]) == 0
    capsys.readouterr()
    assert checks.check_sweep(str(tmp_path / "jobs2"), 2, 4, str(tmp_path / "jobs1")) == []
