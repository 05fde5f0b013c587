"""The in-process thread map, the BLAS thread pin, and outputs that depend on neither."""

import os
import subprocess
import sys
import threading

import pytest

from crashcast import parallel

from test_config_cli import run_cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class FakeBlas:
    """A stand-in (get, set) pair that records every set call."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def fake_blas(monkeypatch):
    def install(count):
        blas = FakeBlas(count)
        monkeypatch.setattr(parallel, "openblas_threads", lambda: (blas.get, blas.set))
        return blas
    return install


def test_nested_pin_and_pinned_thread_map_set_nothing(fake_blas):
    blas = fake_blas(2)
    with parallel.one_blas_thread():
        assert blas.sets == [1]
        with parallel.one_blas_thread():
            assert parallel.thread_map(lambda x: x * 2, range(5)) == [0, 2, 4, 6, 8]
        assert blas.count == 1
    assert blas.sets == [1, 2]


def test_pin_at_one_thread_sets_nothing(fake_blas):
    blas = fake_blas(1)
    with parallel.one_blas_thread():
        pass
    assert parallel.thread_map(lambda x: x, range(3)) == [0, 1, 2]
    assert blas.sets == []


def test_pin_restores_on_error(fake_blas):
    blas = fake_blas(3)
    with pytest.raises(RuntimeError):
        with parallel.one_blas_thread():
            raise RuntimeError("inside the pin")
    assert blas.sets == [1, 3]
    assert not parallel._pinned


def test_openblas_lookup_is_resolved_once():
    assert parallel.openblas_threads() is parallel.openblas_threads()


def test_thread_map_keeps_order_and_joins_its_threads(fake_blas):
    blas = fake_blas(2)
    seen = []
    cores = len(os.sched_getaffinity(0))
    barrier = threading.Barrier(min(cores, 2), timeout=10)

    def work(x):
        seen.append((threading.get_ident(), blas.count))
        if x < 2:
            barrier.wait()  # with two cores, the first two items must run at once
        return x * x

    before = threading.active_count()
    assert parallel.thread_map(work, range(7)) == [x * x for x in range(7)]
    assert threading.active_count() == before
    assert {count for _tid, count in seen} == {1}  # each item ran on one BLAS thread
    assert blas.sets == [1, 2]
    if cores >= 2:
        assert len({tid for tid, _ in seen}) == 2


def test_thread_map_runs_serially_inside_a_pin():
    with parallel.one_blas_thread():
        tids = parallel.thread_map(lambda _x: threading.get_ident(), range(4))
    assert set(tids) == {threading.get_ident()}


def test_thread_map_raises_the_first_error_in_item_order():
    def work(x):
        if x in (1, 3):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 1"):
        parallel.thread_map(work, range(5))
    assert not parallel._pinned


# train then eval in a fresh process under each setting: OPENBLAS_NUM_THREADS as
# given (None leaves it unset) and the CPU affinity cut to that many cores (None
# keeps it). A batch of 40 spans three blocks.
_CHILD = """
import os, sys
cores = sys.argv[1]
if cores != "-":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(cores)])
from crashcast.cli import main
data, out = sys.argv[2], sys.argv[3]
common = ["--seed", "5", "--data", data, "--set", "sim.image_size=16"]
assert main(["train", *common, "--out", out + "/model.dpmw",
             "--set", "train.batch_size=40", "--set", "train.max_iterations=3",
             "--set", "train.validation_interval=1"]) == 0
assert main(["eval", *common, "--model", out + "/model.dpmw", "--out", out + "/eval.csv"]) == 0
"""
_SETTINGS = [("1", None), ("2", None), (None, 1), (None, 2)]
_OUTPUTS = ("model.dpmw", "model.dpmw.train.csv", "eval.csv")


def test_train_and_eval_bytes_do_not_depend_on_threads_or_cores(tmp_path, capsys):
    cores = len(os.sched_getaffinity(0))
    data = tmp_path / "d.dpmd"
    assert run_cli("gen-data", "--seed", "4", "--out", str(data), "--jobs", "2",
                   "--set", "sim.image_size=16", "--set", "sim.episodes_per_scenario=3",
                   "--set", "data.window_stride=10") == 0
    capsys.readouterr()
    runs = []
    for blas, ncores in _SETTINGS + [_SETTINGS[0]]:  # the last run repeats the first
        if ncores is not None and ncores > cores:
            continue
        out = tmp_path / f"run{len(runs)}"
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                                "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = SRC
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        proc = subprocess.run([sys.executable, "-c", _CHILD, str(ncores or "-"), str(data),
                               str(out)], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        runs.append({name: (out / name).read_bytes() for name in _OUTPUTS})
    assert len(runs) >= 4
    for run in runs[1:]:
        for name in _OUTPUTS:
            assert run[name] == runs[0][name], name
