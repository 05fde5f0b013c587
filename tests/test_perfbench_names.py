"""The benchmark reaches into crashcast by name; those names must keep existing.

perfbench/spans.py wraps the functions in its TRACED table by module
attribute, and its _COUNTS readers pick arguments (by position or keyword)
and fields of the results of some of them. A renamed or deleted function,
or a changed signature or result, would break `--trace 1` runs without
failing any other test, so the readers run here on real results of tiny
calls made the way the package's own callers make them.
"""

import importlib
import importlib.util
import os
import pathlib

import numpy as np
import pytest

from crashcast import config as cfgmod
from crashcast import data as datamod
from crashcast.checkpoint import load_checkpoint, save_checkpoint
from crashcast.network import dpm_forward_batch, dpm_gradients, init_params
from crashcast.report import file_sha256
from crashcast.sim import ScenarioSpec, run_scenario
from crashcast.training import TrainConfig, train

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


@pytest.mark.parametrize("module_name, names", sorted(_spans().TRACED.items()))
def test_traced_functions_exist(module_name, names):
    module = importlib.import_module(f"crashcast.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"crashcast.{module_name}.{name}"


def test_count_readers_read_real_calls(tmp_path):
    spans = _spans()
    tracer = spans.Tracer(str(tmp_path), "test")
    counts = {}

    def call(name, fn, *args, **kwargs):
        result = tracer.wrap(name, fn)(*args, **kwargs)
        span = tracer.spans[-1]
        assert span["name"] == name
        counts.setdefault(name, []).append(
            {k: v for k, v in span.items() if k not in ("id", "parent", "name", "pid",
                                                        "phase", "t0", "t1")})
        return result

    cfg = cfgmod.parse_config("sim.image_size = 8\nnet.conv_filters = 2,2\n"
                              "net.lstm_units = 4\nnet.merge_units = 8")
    cams, world = cfgmod.camera_specs(cfg), cfgmod.world_config(cfg)
    spec = ScenarioSpec(4, 0.0)
    # as gen-data calls it, and as the delay bisection calls it (no cameras)
    episode = call("run_scenario", run_scenario, spec, cams, world, cfg.data.horizon)
    bare = call("run_scenario", run_scenario, spec, cams=(), world=world)
    frames = call("truncate_episode", datamod.truncate_episode, episode)
    samples = datamod.windowize(frames, cfg.data.seq_len, 25, label=episode.label)
    dpmd = str(tmp_path / "d.dpmd")
    call("serialize_dataset", datamod.serialize_dataset, samples, dpmd)
    dataset = call("deserialize_dataset", datamod.deserialize_dataset, dpmd)

    net_config = cfgmod.network_config(cfg)
    params = init_params(net_config, seed=1)
    batch = dataset.samples[:2]
    call("dpm_forward_batch", dpm_forward_batch, params, net_config, batch)
    call("dpm_gradients", dpm_gradients, params, net_config, batch, batch["label"], None)
    trained, _report = call("train", train, params, net_config,
                            TrainConfig(batch_size=2, max_iterations=1), dataset.samples,
                            batch, cfg.dropout, rng_seed=3)
    dpmw = str(tmp_path / "m.dpmw")
    call("save_checkpoint", save_checkpoint, dpmw, net_config, trained)
    call("load_checkpoint", load_checkpoint, dpmw)
    call("file_sha256", file_sha256, dpmd)

    assert set(counts) == set(spans._COUNTS)
    assert counts["run_scenario"] == [{"frames": len(episode.frames), "cams": 3},
                                      {"frames": len(bare.frames), "cams": 0}]
    assert counts["truncate_episode"] == [{"kept": len(frames)}] and len(frames)
    size = os.path.getsize(dpmd)
    for name in ("serialize_dataset", "deserialize_dataset", "file_sha256"):
        assert counts[name] == [{"bytes": size}]
    for name in ("save_checkpoint", "load_checkpoint"):
        assert counts[name] == [{"bytes": os.path.getsize(dpmw)}]
    assert counts["dpm_forward_batch"] == [{"batch": 2}]
    [grad] = counts["dpm_gradients"]
    assert grad == {"batch": 2, "cams": 3, "gflop": spans.step_gflop(net_config, 2)}
    assert np.isfinite(grad["gflop"]) and grad["gflop"] > 0
    assert counts["train"] == [{"stop_reason": "max_iters"}]
