"""Trainer tests: loss closed forms, optimizer math, early stopping, k-fold."""

import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from crashcast import network, parallel, training
from crashcast.network import init_params, sample_losses
from crashcast.report import read_csv
from crashcast.stats import ConfusionCounts
from crashcast.training import (
    OptimizerState,
    TrainConfig,
    apply_update,
    evaluate,
    fold_assignment,
    run_kfold,
    train,
)

from test_config_cli import FAST_GEN, TRAIN_FAST, run_cli
from test_network import make_samples, tiny_config


def test_cross_entropy_closed_forms():
    def loss(probs, label):
        return sample_losses(np.array([probs]), [label])[0]

    assert loss([1.0, 0.0], 1) == pytest.approx(0.0, abs=1e-12)
    assert loss([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-12)
    assert loss([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-12)
    assert loss([0.9, 0.1], 0) == pytest.approx(2.302585, abs=1e-6)
    # clamping keeps the loss finite
    assert loss([1.0, 0.0], 0) == pytest.approx(-math.log(1e-12))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")


def test_sgd_update():
    config = tiny_config()
    params = init_params(config, seed=0)
    tensors = params.tensors()
    before = {n: t.copy() for n, t in tensors.items()}
    zero = {n: np.zeros_like(t) for n, t in tensors.items()}
    apply_update(params, zero, OptimizerState(), TrainConfig(optimizer="sgd", learning_rate=0.1))
    for n, t in params.tensors().items():
        assert (t == before[n]).all()
    grads = {"head.b_out": np.array([2.0, 0.0])}
    params.tensors()["head.b_out"][...] = [1.0, 1.0]
    apply_update(params, grads, OptimizerState(), TrainConfig(optimizer="sgd", learning_rate=0.1))
    assert np.allclose(params.tensors()["head.b_out"], [0.8, 1.0], atol=1e-15)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_adam_first_step_magnitude_is_lr(scale):
    # bias correction at t=1 gives |step| = lr * g / (|g| + eps) ~ lr, any g scale
    config = tiny_config()
    params = init_params(config, seed=1)
    params.tensors()["head.b_out"][...] = 0.0
    grads = {"head.b_out": np.array([scale, -scale])}
    tc = TrainConfig(optimizer="adam", learning_rate=0.05)
    apply_update(params, grads, OptimizerState(), tc)
    step = params.tensors()["head.b_out"]
    assert np.allclose(np.abs(step), 0.05, rtol=1e-4)
    assert step[0] < 0 < step[1]


def test_adam_state_accumulates():
    config = tiny_config()
    params = init_params(config, seed=2)
    state = OptimizerState()
    tc = TrainConfig(optimizer="adam", learning_rate=0.01)
    g = {"head.b_out": np.array([1.0, 1.0])}
    for _ in range(3):
        params, state = apply_update(params, g, state, tc)
    assert state.step == 3
    assert set(state.m) == {"head.b_out"}


def _labelled(samples, labels):
    for s, lab in zip(samples, labels):
        s.label = lab
    return samples


def test_train_early_stops_when_validation_cannot_improve():
    config = tiny_config()
    params = init_params(config, seed=3)
    rng = np.random.default_rng(4)
    base = make_samples(rng, config, 4)
    trainset = _labelled(base[:2], [1, 1])
    # validation wants the opposite answer on the same inputs: any training
    # step can only hurt, so the first check triggers patience=1
    valset = _labelled(trainset.copy(), [0, 0])
    tc = TrainConfig(batch_size=2, learning_rate=0.05, max_iterations=200,
                     patience=1, validation_interval=5,
                     dropout_in_training=False)
    best, report = train(params, config, tc, trainset, valset, rng_seed=1)
    assert report.stop_reason == "early_stop"
    assert report.final_iteration == 5
    assert report.best_iteration == 0
    # returned parameters are the initial checkpoint
    for name, t in best.tensors().items():
        assert (t == params.tensors()[name]).all()


def test_train_returns_best_checkpoint_not_last():
    config = tiny_config()
    params = init_params(config, seed=5)
    rng = np.random.default_rng(6)
    trainset = make_samples(rng, config, 8)
    valset = make_samples(rng, config, 4)
    tc = TrainConfig(batch_size=4, learning_rate=0.02, max_iterations=60,
                     patience=3, validation_interval=10,
                     dropout_in_training=False)
    best, report = train(params, config, tc, trainset, valset, rng_seed=2)
    from crashcast.training import _mean_val_loss
    got = _mean_val_loss(best, config, valset)
    recorded_best = min(v for _, v in report.val_losses)
    assert got == pytest.approx(recorded_best, abs=1e-12)


def test_train_is_deterministic_without_dropout():
    config = tiny_config()
    rng = np.random.default_rng(7)
    trainset = make_samples(rng, config, 6)
    valset = make_samples(rng, config, 3)
    tc = TrainConfig(batch_size=3, learning_rate=0.01, max_iterations=20,
                     patience=5, validation_interval=10,
                     dropout_in_training=False)
    p1, r1 = train(init_params(config, seed=8), config, tc, trainset, valset, rng_seed=3)
    p2, r2 = train(init_params(config, seed=8), config, tc, trainset, valset, rng_seed=3)
    for name, t in p1.tensors().items():
        assert (t == p2.tensors()[name]).all()
    assert r1.losses == r2.losses
    assert r1.val_losses == r2.val_losses


def test_train_does_not_mutate_input_params():
    config = tiny_config()
    params = init_params(config, seed=9)
    before = {n: t.copy() for n, t in params.tensors().items()}
    rng = np.random.default_rng(10)
    trainset = make_samples(rng, config, 4)
    tc = TrainConfig(batch_size=2, max_iterations=5, dropout_in_training=False)
    train(params, config, tc, trainset, [])
    for n, t in params.tensors().items():
        assert (t == before[n]).all()


@pytest.mark.parametrize("bad", ["loss", "gradient"])
def test_train_stops_on_non_finite_before_the_update(monkeypatch, bad):
    config = tiny_config()
    params = init_params(config, seed=11)
    rng = np.random.default_rng(12)
    trainset = make_samples(rng, config, 4)
    tc = TrainConfig(batch_size=2, max_iterations=10, dropout_in_training=False)
    want, _ = train(params, config, replace(tc, max_iterations=2), trainset, [], rng_seed=4)
    real = training.dpm_gradients
    calls = []

    def poisoned(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            if bad == "loss":
                loss = math.nan
            else:
                name = next(iter(grads))
                grads[name] = grads[name].copy()
                grads[name].flat[0] = math.inf
        return loss, grads

    monkeypatch.setattr(training, "dpm_gradients", poisoned)
    got, report = train(params, config, tc, trainset, [], rng_seed=4)
    assert report.stop_reason == "nonfinite"
    assert report.final_iteration == 2 and len(report.losses) == 2
    # the third step's update was never applied
    for name, t in got.tensors().items():
        assert (t == want.tensors()[name]).all()


def test_fork_map_runs_closures_in_task_order():
    offset = 10

    def add(task):  # a closure: only tasks and results cross the fork
        return task + offset, os.getpid()

    seq = parallel.fork_map(add, range(5), 1)
    par = parallel.fork_map(add, range(5), 2)
    assert [r for r, _ in seq] == [r for r, _ in par] == [10, 11, 12, 13, 14]
    assert {pid for _, pid in seq} == {os.getpid()}
    assert os.getpid() not in {pid for _, pid in par}


def test_fork_map_forks_no_more_workers_than_tasks(monkeypatch):
    sizes = []

    class Recording(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)

    def pid(_task):
        return os.getpid()

    assert parallel.fork_map(pid, [], 4) == []
    assert parallel.fork_map(pid, ["one"], 4) == [os.getpid()]
    assert sizes == []  # a single task runs in this process
    assert os.getpid() not in parallel.fork_map(pid, range(2), 4)
    assert parallel.fork_map(pid, range(5), 3) and sizes == [2, 3]


def test_full_batch_sgd_loss_non_increasing_on_smooth_start():
    config = tiny_config()
    params = init_params(config, seed=11)
    rng = np.random.default_rng(12)
    trainset = make_samples(rng, config, 6)
    tc = TrainConfig(batch_size=6, optimizer="sgd", learning_rate=1e-3,
                     max_iterations=10, dropout_in_training=False)
    _, report = train(params, config, tc, trainset, [])
    losses = [l for _, l in report.losses]
    assert len(losses) == 10
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12


def test_overfit_tiny_trainset():
    config = tiny_config()
    params = init_params(config, seed=13)
    rng = np.random.default_rng(14)
    trainset = make_samples(rng, config, 20)
    for i, s in enumerate(trainset):
        s.label = i % 2
    tc = TrainConfig(batch_size=10, learning_rate=5e-3, max_iterations=500,
                     patience=10**6, validation_interval=10**6,
                     dropout_in_training=False)
    trained, _ = train(params, config, tc, trainset, [], rng_seed=4)
    counts = evaluate(trained, config, trainset)
    from crashcast.stats import accuracy_of
    assert accuracy_of(counts) == 1.0


def test_evaluate_hardwired_and_thresholds():
    config = tiny_config()
    params = init_params(config, seed=15)
    for t in params.tensors().values():
        t[...] = 0.0
    params.tensors()["head.b_out"][...] = [50.0, 0.0]  # always predicts collision
    rng = np.random.default_rng(16)
    testset = make_samples(rng, config, 10)
    labels = [s.label for s in testset]
    counts = evaluate(params, config, testset)
    assert counts.tp + counts.fp == 10  # every sample predicted collision
    assert counts.tn == 0 and counts.fn == 0
    assert counts.tp == sum(labels) and counts.fp == 10 - sum(labels)
    assert counts.total == len(testset)
    # threshold 0 predicts collision regardless of the output
    params.tensors()["head.b_out"][...] = [0.0, 50.0]
    counts = evaluate(params, config, testset, threshold=0.0)
    assert counts.tp + counts.fp == 10
    counts05 = evaluate(params, config, testset, threshold=0.5)
    assert counts05.tp + counts05.fp == 0  # every sample predicted no collision
    assert counts05.total == 10


def test_evaluate_is_pure_and_deterministic():
    config = tiny_config()
    params = init_params(config, seed=21)
    before = {n: t.copy() for n, t in params.tensors().items()}
    rng = np.random.default_rng(22)
    testset = make_samples(rng, config, 6)
    c1 = evaluate(params, config, testset)
    c2 = evaluate(params, config, testset)
    assert c1 == c2
    for n, t in params.tensors().items():
        assert (t == before[n]).all()


def test_fold_assignment_disjoint_and_episode_coherent():
    config = tiny_config()
    rng = np.random.default_rng(17)
    samples = make_samples(rng, config, 24)
    episode_ids = np.arange(len(samples)) // 4
    assign = fold_assignment(episode_ids, 3, rng_seed=5)
    assert assign.shape == (24,)
    by_episode = {}
    for i, eid in enumerate(episode_ids):
        by_episode.setdefault(eid, set()).add(int(assign[i]))
    for folds in by_episode.values():
        assert len(folds) == 1  # windows of one episode never straddle folds
    assign_s = fold_assignment(np.arange(len(samples)), 4, rng_seed=5)
    sizes = np.bincount(assign_s)
    assert sizes.sum() == 24 and max(sizes) - min(sizes) <= 1


def test_fold_assignment_balanced_partition():
    plan = fold_assignment(np.arange(5000), k=10, rng_seed=5)
    sizes = [int((plan == f).sum()) for f in range(10)]
    assert sizes == [500] * 10
    plan = fold_assignment(np.arange(10), k=10, rng_seed=6)
    assert [int((plan == f).sum()) for f in range(10)] == [1] * 10
    plan = fold_assignment(np.arange(23), k=5, rng_seed=7)
    sizes = [int((plan == f).sum()) for f in range(5)]
    assert max(sizes) - min(sizes) <= 1
    all_idx = np.concatenate([np.nonzero(plan == f)[0] for f in range(5)])
    assert sorted(all_idx.tolist()) == list(range(23))
    with pytest.raises(ValueError):
        fold_assignment(np.arange(9), k=10)


def test_fold_assignment_deterministic():
    a = fold_assignment(np.arange(100), 10, rng_seed=8)
    b = fold_assignment(np.arange(100), 10, rng_seed=8)
    assert (a == b).all()
    c = fold_assignment(np.arange(100), 10, rng_seed=9)
    assert not (a == c).all()


@pytest.mark.parametrize("n,k,seed", [(24, 4, 5), (23, 5, 7), (10, 10, 6), (101, 3, 0)])
def test_fold_assignment_of_sample_indices_is_kfold_plan(n, k, seed):
    # the k-fold plan folds.csv records: the seeded permutation of the n
    # indices cut into k runs, the first n % k of them one longer
    perm = np.random.default_rng(seed).permutation(n)
    plan = np.empty(n, dtype=np.int64)
    plan[perm] = np.repeat(np.arange(k), [n // k + (f < n % k) for f in range(k)])
    assert fold_assignment(np.arange(n), k, seed).tobytes() == plan.tobytes()


def test_run_kfold_smoke_and_aggregation():
    config = tiny_config()
    rng = np.random.default_rng(18)
    samples = make_samples(rng, config, 18)
    episode_ids = np.arange(len(samples)) // 3
    samples.label = episode_ids % 2
    tc = TrainConfig(batch_size=4, max_iterations=8, validation_interval=4,
                     patience=2, dropout_in_training=False)
    folds = fold_assignment(episode_ids, 3, rng_seed=6)
    counts = run_kfold(samples, folds, config, tc, rng_seed=6)
    assert len(counts) == 3
    assert all(isinstance(c, ConfusionCounts) for c in counts)
    assert [c.total for c in counts] == np.bincount(folds).tolist()
    with pytest.raises(ValueError):
        run_kfold(samples, fold_assignment(episode_ids, 1), config, tc)


def test_run_kfold_scores_at_the_threshold():
    config = tiny_config()
    rng = np.random.default_rng(24)
    samples = make_samples(rng, config, 12)
    samples.label = np.arange(len(samples)) % 2
    tc = TrainConfig(batch_size=4, max_iterations=2, validation_interval=1,
                     patience=2, dropout_in_training=False)
    folds = fold_assignment(np.arange(len(samples)) // 2, 3, rng_seed=3)
    # every probability is >= 0, so threshold 0 calls every sample a collision
    counts = run_kfold(samples, folds, config, tc, threshold=0.0, rng_seed=3)
    assert all(c.tn == c.fn == 0 for c in counts)
    assert sum(c.tp for c in counts) == sum(c.fp for c in counts) == 6


def test_run_kfold_parallel_matches_sequential():
    config = tiny_config()
    rng = np.random.default_rng(19)
    samples = make_samples(rng, config, 12)
    folds = fold_assignment(np.arange(len(samples)) // 2, 2, rng_seed=7)
    samples.label = np.arange(len(samples)) % 2
    tc = TrainConfig(batch_size=4, max_iterations=6, validation_interval=3,
                     patience=2, dropout_in_training=False)
    seq = run_kfold(samples, folds, config, tc, rng_seed=7, jobs=1)
    par = run_kfold(samples, folds, config, tc, rng_seed=7, jobs=2)
    assert seq == par


def _openblas_threads():
    """The loaded OpenBLAS's thread (get, set) pair, which must be found wherever
    numpy links OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("numpy does not link OpenBLAS")
    found = parallel.openblas_threads()
    assert found is not None, "numpy links OpenBLAS, but no loaded OpenBLAS was found"
    return found


def test_run_kfold_fits_folds_on_one_blas_thread(tmp_path, monkeypatch):
    get, set_ = _openblas_threads()
    log = tmp_path / "threads.log"
    real_train = training.train

    def logging_train(*args, **kwargs):
        with open(log, "a") as fh:  # forked workers append here too
            fh.write(f"{os.getpid()} {get()}\n")
        return real_train(*args, **kwargs)

    def failing_train(*args, **kwargs):
        raise RuntimeError("fold fit failed")

    config = tiny_config()
    rng = np.random.default_rng(23)
    samples = make_samples(rng, config, 8)
    folds = fold_assignment(np.arange(len(samples)) // 2, 2, rng_seed=8)
    samples.label = np.arange(len(samples)) % 2
    tc = TrainConfig(batch_size=4, max_iterations=2, validation_interval=2,
                     patience=1, dropout_in_training=False)
    caller = get()
    set_(2)
    try:
        monkeypatch.setattr(training, "train", logging_train)
        for jobs in (1, 2):
            run_kfold(samples, folds, config, tc, rng_seed=8, jobs=jobs)
            assert get() == 2
        monkeypatch.setattr(training, "train", failing_train)
        with pytest.raises(RuntimeError):
            run_kfold(samples, folds, config, tc, rng_seed=8)
        assert get() == 2
    finally:
        set_(caller)
    fits = [line.split() for line in log.read_text().splitlines()]
    assert [threads for _pid, threads in fits] == ["1"] * 4
    assert {pid for pid, _ in fits[:2]} == {str(os.getpid())}
    assert str(os.getpid()) not in {pid for pid, _ in fits[2:]}


def test_run_kfold_workers_start_no_threads(tmp_path, monkeypatch):
    """At --jobs 2 each forked fold worker holds one of the two cores, so its
    multi-block batches run serially: no thread pool inside fork_map workers."""
    log = tmp_path / "threads.log"
    real_forward = network._forward_batch

    def logging_forward(*args, **kwargs):
        with open(log, "a") as fh:  # forked workers append here too
            fh.write(f"{os.getpid()} {threading.active_count()}\n")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(network, "_forward_batch", logging_forward)
    config = tiny_config()
    rng = np.random.default_rng(24)
    samples = make_samples(rng, config, 48)
    folds = fold_assignment(np.arange(len(samples)), 2, rng_seed=9)
    tc = TrainConfig(batch_size=20, max_iterations=2, validation_interval=1,
                     patience=2, dropout_in_training=False)
    run_kfold(samples, folds, config, tc, rng_seed=9, jobs=2)
    calls = [line.split() for line in log.read_text().splitlines()]
    pids = {pid for pid, _ in calls}
    assert len(pids) == 2 and str(os.getpid()) not in pids
    assert {count for _pid, count in calls} == {"1"}


def test_experiment_folds_do_not_depend_on_jobs(tmp_path, capsys):
    data = tmp_path / "d.dpmd"
    assert run_cli("gen-data", "--seed", "9", "--out", str(data), *FAST_GEN) == 0
    folds = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("experiment", "--data", str(data), "--sweep", "camera", "--seed", "12",
                       "--jobs", jobs, "--out", str(out), *TRAIN_FAST,
                       "--set", "eval.fold_k=2", "--set", "train.max_iterations=4",
                       "--set", "train.validation_interval=2") == 0
        folds.append((out / "folds.csv").read_bytes())
    assert folds[0] == folds[1]
    _prov, _header, rows = read_csv(tmp_path / "jobs2" / "folds.csv")
    assert len(rows) == 8  # 4 camera groups x 2 folds
    capsys.readouterr()


def test_constant_output_model_fold_stability():
    config = tiny_config()
    rng = np.random.default_rng(20)
    samples = make_samples(rng, config, 16)
    for i, s in enumerate(samples):
        s.label = i % 2
    params = init_params(config, seed=20)
    for t in params.tensors().values():
        t[...] = 0.0
    params.tensors()["head.b_out"][...] = [50.0, 0.0]
    # a constant-output model scores exactly the fold's class balance
    counts = evaluate(params, config, samples)
    assert counts.tp == 8 and counts.fp == 8
    assert ConfusionCounts(8, 0, 8, 0).total == 16
