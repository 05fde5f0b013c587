"""Monte-Carlo dropout: per-pass weight masks and stochastic forward passes.

Each stochastic forward pass samples one binary mask per eligible weight
tensor of the recurrent layers (input, recurrent, and cell-to-gate
connections; never the dense head, never biases), multiplies the weights
elementwise, and holds that mask set fixed across every time step of the
sequence. Masks are resampled between passes. There is no 1/(1-rate)
rescaling anywhere: a rate of zero is exactly the deterministic forward.

Pass seeds derive from the run seed through a splitmix64-style avalanche
mixer, so distributions are reproducible and individual passes independent.
run_sfp splits its passes into contiguous ranges, one per core of the
process's CPU affinity, and runs them in forked workers with OpenBLAS pinned
to one thread, so its result depends on neither the worker count nor the
inherited BLAS thread setting.
"""

import os
from dataclasses import dataclass

import numpy as np

from .network import MASKABLE_FAMILIES, dpm_forward
from .parallel import fork_map, one_blas_thread

_MASK64 = (1 << 64) - 1


def mix64(seed, index):
    """Avalanche-mix a (seed, index) pair into a fresh 64-bit seed."""
    x = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class DropoutSpec:
    rate: float = 0.01
    targets: tuple = ("inputs", "outputs", "recurrent")

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValueError("dropout rate must lie in [0, 1)")
        for t in self.targets:
            if t not in MASKABLE_FAMILIES:
                raise ValueError(f"unknown dropout target {t!r}")


@dataclass
class MaskSet:
    masks: dict


def _maskable_names(params, spec):
    fields = set()
    for target in spec.targets:
        fields.update(MASKABLE_FAMILIES[target])
    names = []
    for name in params.tensors():
        if name.split(".")[-1] in fields:
            names.append(name)
    return names


def sample_masks(spec, params, rng_seed):
    """Independent Bernoulli(1 - rate) entries per masked weight element."""
    rng = np.random.default_rng(int(rng_seed) & _MASK64)
    tensors = params.tensors()
    masks = {}
    for name in _maskable_names(params, spec):
        masks[name] = (rng.random(tensors[name].shape) >= spec.rate).astype(np.float64)
    return MaskSet(masks=masks)


def stochastic_forward(params, config, sample, spec, rng_seed):
    """One stochastic pass; returns P(collision) with fresh masks."""
    mask_set = sample_masks(spec, params, rng_seed)
    probs = dpm_forward(params, config, sample, mask_set.masks)
    return float(probs[0])


def run_sfp(params, config, sample, spec, n, rng_seed):
    """P(collision) of N stochastic forward passes with seeds split from rng_seed.

    Returns a float64 array, one entry per pass; a value outside [0, 1] or
    NaN is refused.
    """
    if n < 1:
        raise ValueError("need at least one stochastic pass")

    def passes(span):
        return [stochastic_forward(params, config, sample, spec, mix64(rng_seed, i))
                for i in range(*span)]

    jobs = min(len(os.sched_getaffinity(0)), n)
    bounds = [n * w // jobs for w in range(jobs + 1)]
    with one_blas_thread():
        parts = fork_map(passes, list(zip(bounds[:-1], bounds[1:])), jobs)
    values = np.array([p for part in parts for p in part])
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"collision probability {outside[0]} outside [0, 1]")
    return values
