"""Mini-batch training with early stopping, evaluation, and k-fold CV.

Everything is deterministic given the seeds: batch order and training-time
dropout masks derive from the rng_seed argument of train(), and run_kfold
derives every fold's seeds from its own, through the same avalanche mixer
used for stochastic forward passes. train() stops with stop_reason
"nonfinite", before applying the update, when a batch's loss or gradient
holds a NaN or an infinity.

run_kfold takes its folds as one array, which fold_assignment builds from
each sample's group (its episode, or itself). The fold fits are
independent; parallel.fork_map runs them in forked processes that inherit
the fit closure, under the core policy of parallel.py, so fold results do
not depend on the worker count or on the inherited BLAS thread setting.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dropout import mix64, sample_masks
from .network import dpm_forward_batch, dpm_gradients, init_params, sample_losses
from .parallel import fork_map
from .stats import ConfusionCounts


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_iterations: int = 3000
    patience: int = 5
    validation_interval: int = 50
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    dropout_in_training: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.max_iterations < 1:
            raise ValueError("max iterations must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.validation_interval < 1:
            raise ValueError("validation interval must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("Adam epsilon must be positive")


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)       # (iteration, train loss)
    val_losses: list = field(default_factory=list)   # (iteration, validation loss)
    stop_reason: str = "max_iters"
    final_iteration: int = 0
    best_iteration: int = 0
    wall_time: float = 0.0


@dataclass
class OptimizerState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def apply_update(params, grads, state, config):
    """One in-place optimizer step; returns (params, state)."""
    tensors = params.tensors()
    if config.optimizer == "sgd":
        for name, g in grads.items():
            tensors[name] -= config.learning_rate * g
        return params, state
    state.step += 1
    b1, b2 = config.beta1, config.beta2
    correction1 = 1.0 - b1 ** state.step
    correction2 = 1.0 - b2 ** state.step
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        tensors[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return params, state


def _mean_val_loss(params, net_config, valset):
    probs = dpm_forward_batch(params, net_config, valset)
    return float(sample_losses(probs, valset.label).mean())


def train(params, net_config, config, trainset, valset, dropout_spec=None, rng_seed=0):
    """Train to max iterations, early stop or a non-finite loss or gradient;
    returns the best checkpoint.

    The input parameter object is not mutated; training works on a copy and
    the returned parameters come from the best validation checkpoint (the
    final state when no validation set is given).
    """
    if not len(trainset):
        raise ValueError("training set must be non-empty")
    t_start = time.monotonic()
    params = params.copy()
    report = TrainReport()
    state = OptimizerState()
    use_dropout = (dropout_spec is not None and config.dropout_in_training
                   and dropout_spec.rate > 0.0)

    best_params = params.copy()
    best_val = math.inf
    if len(valset):
        best_val = _mean_val_loss(params, net_config, valset)
        report.val_losses.append((0, best_val))
    checks_without_improvement = 0

    order = np.empty(0, dtype=np.int64)
    epoch = 0
    for iteration in range(1, config.max_iterations + 1):
        if len(order) < config.batch_size:
            rng = np.random.default_rng(mix64(rng_seed, 1_000_000 + epoch))
            order = rng.permutation(len(trainset))
            epoch += 1
        take, order = order[: config.batch_size], order[config.batch_size :]
        batch = trainset[take]
        labels = batch.label
        masks = None
        if use_dropout:
            masks = sample_masks(dropout_spec, params,
                                 mix64(mix64(rng_seed, 7), iteration)).masks
        loss, grads = dpm_gradients(params, net_config, batch, labels, masks)
        if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
            report.stop_reason = "nonfinite"
            break
        report.losses.append((iteration, loss))
        params, state = apply_update(params, grads, state, config)
        report.final_iteration = iteration

        if len(valset) and iteration % config.validation_interval == 0:
            val = _mean_val_loss(params, net_config, valset)
            report.val_losses.append((iteration, val))
            if val < best_val:
                best_val = val
                best_params = params.copy()
                report.best_iteration = iteration
                checks_without_improvement = 0
            else:
                checks_without_improvement += 1
                if checks_without_improvement >= config.patience:
                    report.stop_reason = "early_stop"
                    break

    report.wall_time = time.monotonic() - t_start
    if not len(valset):
        return params, report
    return best_params, report


def evaluate(params, net_config, testset, threshold=0.5):
    """ConfusionCounts of a deterministic forward (no dropout) over testset;
    collision iff P(collision) >= threshold."""
    preds = dpm_forward_batch(params, net_config, testset)[:, 0] >= threshold
    hit = testset.label == 1
    return ConfusionCounts(tp=int((hit & preds).sum()), tn=int((~hit & ~preds).sum()),
                           fp=int((~hit & preds).sum()), fn=int((hit & ~preds).sum()))


def fold_assignment(groups, k, rng_seed=0):
    """Sample index -> fold index, keeping each group's samples in one fold.

    groups holds each sample's group: its episode, or its own index. The n
    distinct groups, in sorted order, are permuted with the seed, and the
    permutation is cut into k runs, the first n % k of them one longer.
    """
    unique, group_of_sample = np.unique(groups, return_inverse=True)
    n = len(unique)
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot build {k} folds from {n} items")
    perm = np.random.default_rng(rng_seed).permutation(n)
    fold_of_group = np.empty(n, dtype=np.int64)
    pos = 0
    for fold in range(k):
        size = n // k + (1 if fold < n % k else 0)
        fold_of_group[perm[pos : pos + size]] = fold
        pos += size
    return fold_of_group[group_of_sample]


def run_kfold(samples, folds, net_config, config, dropout_spec=None, val_fraction=0.1,
              threshold=0.5, rng_seed=0, jobs=None):
    """Hold out each fold of the fold array in turn; returns each fold's test
    ConfusionCounts, in fold order.

    Each fit trains on the other folds less a val_fraction share (at least
    one sample) that validates it, and scores its fold at threshold. jobs
    caps the fork_map workers.
    """
    k = int(folds.max()) + 1
    if k < 2:
        raise ValueError("k-fold needs k >= 2")

    def fit(fold):
        test_idx = np.nonzero(folds == fold)[0]
        pool_idx = np.nonzero(folds != fold)[0]
        perm = np.random.default_rng(mix64(rng_seed, 5_000 + fold)).permutation(len(pool_idx))
        n_val = max(1, int(math.floor(len(pool_idx) * val_fraction)))
        params = init_params(net_config, seed=mix64(rng_seed, fold))
        trained, _report = train(params, net_config, config, samples[pool_idx[perm[n_val:]]],
                                 samples[pool_idx[perm[:n_val]]], dropout_spec,
                                 rng_seed=mix64(rng_seed, 100 + fold))
        return evaluate(trained, net_config, samples[test_idx], threshold)

    return fork_map(fit, range(k), jobs)
