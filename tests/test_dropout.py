"""MC-dropout tests: mask statistics, determinism, and mask constancy in time."""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from crashcast import dropout
from crashcast.dropout import (
    DropoutSpec,
    mix64,
    run_sfp,
    sample_masks,
    stochastic_forward,
)
from crashcast.network import dpm_forward, init_params

from oracles import premasked
from test_network import make_samples, tiny_config
from test_training import _openblas_threads


def test_mix64_is_deterministic_and_spreads():
    assert mix64(42, 0) == mix64(42, 0)
    outs = {mix64(42, i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2**64 for v in outs)
    assert mix64(42, 0) != mix64(43, 0)


def test_dropout_spec_validation():
    with pytest.raises(ValueError):
        DropoutSpec(rate=1.0)
    with pytest.raises(ValueError):
        DropoutSpec(rate=-0.1)
    with pytest.raises(ValueError):
        DropoutSpec(targets=("inputs", "head"))


def test_zero_rate_masks_are_all_ones():
    config = tiny_config()
    params = init_params(config, seed=0)
    ms = sample_masks(DropoutSpec(rate=0.0), params, rng_seed=1)
    assert ms.masks
    for m in ms.masks.values():
        assert (m == 1.0).all()


def test_high_rate_mask_fraction_matches_binomial():
    config = tiny_config(rows=8, cols=8)
    params = init_params(config, seed=1)
    rate = 0.999
    ms = sample_masks(DropoutSpec(rate=rate), params, rng_seed=2)
    total = sum(m.size for m in ms.masks.values())
    zeros = sum(int((m == 0.0).sum()) for m in ms.masks.values())
    se = np.sqrt(rate * (1 - rate) / total)
    assert abs(zeros / total - rate) <= 3 * se


def test_empirical_drop_fraction_over_1e5_elements():
    config = tiny_config(rows=16, cols=16)
    params = init_params(config, seed=2)
    rate = 0.2
    total = 0
    zeros = 0
    i = 0
    while total < 100_000:
        ms = sample_masks(DropoutSpec(rate=rate), params, rng_seed=mix64(3, i))
        total += sum(m.size for m in ms.masks.values())
        zeros += sum(int((m == 0.0).sum()) for m in ms.masks.values())
        i += 1
    se = np.sqrt(rate * (1 - rate) / total)
    assert abs(zeros / total - rate) <= 3 * se


def test_masks_cover_exactly_the_recurrent_weight_families():
    config = tiny_config()  # images_state_action: conv branches plus lstm
    params = init_params(config, seed=3)
    ms = sample_masks(DropoutSpec(rate=0.5), params, rng_seed=4)
    suffixes = {name.split(".")[-1] for name in ms.masks}
    assert suffixes == {"w_xi", "w_xf", "w_xc", "w_xo",
                        "w_hi", "w_hf", "w_hc", "w_ho",
                        "w_ci", "w_cf", "w_co"}
    assert not any(name.startswith("head.") for name in ms.masks)
    assert any(name.startswith("lstm.") for name in ms.masks)
    # target subsets restrict the families
    ms_in = sample_masks(DropoutSpec(rate=0.5, targets=("inputs",)), params, rng_seed=4)
    assert {n.split(".")[-1] for n in ms_in.masks} == {"w_xi", "w_xf", "w_xc", "w_xo"}


def test_same_seed_same_masks():
    config = tiny_config()
    params = init_params(config, seed=4)
    a = sample_masks(DropoutSpec(rate=0.3), params, rng_seed=99)
    b = sample_masks(DropoutSpec(rate=0.3), params, rng_seed=99)
    assert set(a.masks) == set(b.masks)
    for name in a.masks:
        assert (a.masks[name] == b.masks[name]).all()


def test_stochastic_forward_zero_rate_equals_deterministic():
    config = tiny_config()
    params = init_params(config, seed=5)
    rng = np.random.default_rng(6)
    sample = make_samples(rng, config, 1)[0]
    p_det = float(dpm_forward(params, config, sample)[0])
    p_sto = stochastic_forward(params, config, sample, DropoutSpec(rate=0.0), rng_seed=7)
    assert p_sto == p_det


def test_stochastic_forward_seed_behaviour():
    config = tiny_config()
    params = init_params(config, seed=6)
    rng = np.random.default_rng(8)
    sample = make_samples(rng, config, 1)[0]
    spec = DropoutSpec(rate=0.2)
    assert stochastic_forward(params, config, sample, spec, 11) == \
        stochastic_forward(params, config, sample, spec, 11)
    assert stochastic_forward(params, config, sample, spec, 11) != \
        stochastic_forward(params, config, sample, spec, 12)


def test_run_sfp_small_cases():
    config = tiny_config()
    params = init_params(config, seed=7)
    rng = np.random.default_rng(9)
    sample = make_samples(rng, config, 1)[0]
    spec = DropoutSpec(rate=0.0)
    one = run_sfp(params, config, sample, spec, 1, rng_seed=5)
    assert len(one) == 1
    assert one[0] == stochastic_forward(params, config, sample, spec, mix64(5, 0))
    hundred = run_sfp(params, config, sample, spec, 100, rng_seed=5)
    assert len(hundred) == 100
    assert len(set(hundred)) == 1  # degenerate distribution, variance 0
    with pytest.raises(ValueError):
        run_sfp(params, config, sample, spec, 0, rng_seed=5)


def test_run_sfp_deterministic_and_pass_independent():
    config = tiny_config()
    params = init_params(config, seed=8)
    rng = np.random.default_rng(10)
    sample = make_samples(rng, config, 1)[0]
    spec = DropoutSpec(rate=0.2)
    a = run_sfp(params, config, sample, spec, 25, rng_seed=123)
    b = run_sfp(params, config, sample, spec, 25, rng_seed=123)
    assert np.array_equal(a, b)
    # pass i is exactly an independent stochastic pass at the split seed
    for i in (0, 7, 24):
        assert a[i] == stochastic_forward(params, config, sample, spec, mix64(123, i))
    assert len(set(a)) > 1


def _sfp_case(seed):
    config = tiny_config()
    params = init_params(config, seed=seed)
    sample = make_samples(np.random.default_rng(seed + 1), config, 1)[0]
    return params, config, sample, DropoutSpec(rate=0.2)


def test_run_sfp_does_not_depend_on_worker_count():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("needs at least two CPUs")
    params, config, sample, spec = _sfp_case(14)
    serial = np.array([stochastic_forward(params, config, sample, spec, mix64(31, i))
                       for i in range(7)])
    runs = {}
    try:
        for allowed in ({min(cpus)}, set(sorted(cpus)[:2])):
            os.sched_setaffinity(0, allowed)
            runs[len(allowed)] = run_sfp(params, config, sample, spec, 7, rng_seed=31)
    finally:
        os.sched_setaffinity(0, cpus)
    assert runs[1].tobytes() == runs[2].tobytes() == serial.tobytes()


def _log_passes(monkeypatch, log, note=lambda: "-"):
    """Make each stochastic pass append "<pid> <note()>" to log."""
    real_forward = dropout.stochastic_forward

    def logging_forward(*args, **kwargs):
        with open(log, "a") as fh:  # forked workers append here too
            fh.write(f"{os.getpid()} {note()}\n")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(dropout, "stochastic_forward", logging_forward)


def test_run_sfp_does_not_depend_on_blas_threads(tmp_path, monkeypatch):
    get, set_ = _openblas_threads()
    log = tmp_path / "passes.log"
    _log_passes(monkeypatch, log, get)
    params, config, sample, spec = _sfp_case(15)
    caller = get()
    runs = []
    try:
        for threads in (1, 2):
            set_(threads)
            runs.append(run_sfp(params, config, sample, spec, 6, rng_seed=32))
            assert get() == threads
    finally:
        set_(caller)
    assert runs[0].tobytes() == runs[1].tobytes()
    assert [line.split()[1] for line in log.read_text().splitlines()] == ["1"] * 12


def test_run_sfp_workers_exit_and_one_pass_stays_in_process(tmp_path, monkeypatch):
    log = tmp_path / "pids.log"
    _log_passes(monkeypatch, log)
    params, config, sample, spec = _sfp_case(16)
    run_sfp(params, config, sample, spec, 1, rng_seed=33)
    run_sfp(params, config, sample, spec, 4, rng_seed=33)
    assert multiprocessing.active_children() == []
    single, *pids = [line.split()[0] for line in log.read_text().splitlines()]
    assert single == str(os.getpid())  # the one pass forked nothing
    assert len(pids) == 4
    if len(os.sched_getaffinity(0)) >= 2:
        assert str(os.getpid()) not in pids and len(set(pids)) == 2


def _mask_digest(masks, prefix):
    """Digest of the input and recurrent masks of one branch's first layer."""
    return hashlib.sha256(masks[f"{prefix}.w_xi"].tobytes()
                          + masks[f"{prefix}.w_hi"].tobytes()).hexdigest()


@pytest.mark.parametrize("branch", ["camera", "state"])
def test_mask_constancy_across_time_steps(branch):
    """A pass equals, bit for bit, an unmasked forward on its pre-masked weights.

    The pre-masked forward applies one set of masked weights at every step,
    so a pass that matches it holds its masks fixed over the sequence. The
    branch's masks must matter (the pass differs without them, unless every
    head ReLU is dead) and differ between passes.
    """
    config = tiny_config(seq_len=5)
    params = init_params(config, seed=9)
    rng = np.random.default_rng(11)
    sample = make_samples(rng, config, 1)[0]
    spec = DropoutSpec(rate=0.2)
    prefix = f"cam.{config.cameras[0]}.l0" if branch == "camera" else "lstm"
    per_pass = []
    mattered = 0
    for i in range(30):
        seed = mix64(77, i)
        p = stochastic_forward(params, config, sample, spec, seed)
        masks = sample_masks(spec, params, seed).masks
        assert p == float(dpm_forward(premasked(params, masks), config, sample)[0])
        others = {n: m for n, m in masks.items() if not n.startswith(prefix)}
        mattered += p != float(dpm_forward(premasked(params, others), config, sample)[0])
        per_pass.append(_mask_digest(masks, prefix))
    assert mattered >= 27
    pairs = 0
    differing = 0
    for i in range(len(per_pass)):
        for j in range(i + 1, len(per_pass)):
            pairs += 1
            differing += per_pass[i] != per_pass[j]
    assert differing / pairs >= 0.99


def test_default_rate_distribution_is_non_degenerate():
    # the headline use case: many passes at the default 1% rate spread out
    config = tiny_config()
    params = init_params(config, seed=11)
    rng = np.random.default_rng(12)
    sample = make_samples(rng, config, 1)[0]
    dist = run_sfp(params, config, sample, DropoutSpec(rate=0.01), 200, rng_seed=5)
    assert len(set(dist)) > 1
    assert float(np.std(dist)) > 0.0


def test_predictive_distribution_validation():
    config = tiny_config()
    params = init_params(config, seed=12)
    sample = make_samples(np.random.default_rng(13), config, 1)[0]
    spec = DropoutSpec(rate=0.0)
    d = run_sfp(params, config, sample, spec, 2, rng_seed=1)
    assert d.dtype == np.float64 and d.shape == (2,)
    # an infinite logit gives no probability (NaN), which run_sfp refuses
    params.tensors()["head.b_out"][...] = [np.inf, 0.0]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        run_sfp(params, config, sample, spec, 2, rng_seed=1)
