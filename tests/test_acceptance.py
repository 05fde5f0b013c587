"""Acceptance suite: one test per criterion, each printing a pass line.

The desk-scale camera sweep (criterion 4) is marked `sweep` and deselected
by default because it runs for roughly an hour on one core; run it with
`pytest -m sweep`. Everything else runs in the normal suite.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from crashcast.checkpoint import load_checkpoint, save_checkpoint
from crashcast.cli import main as cli_main
from crashcast.data import deserialize_dataset, serialize_dataset
from crashcast.dropout import DropoutSpec, mix64, run_sfp, sample_masks, stochastic_forward
from crashcast.network import (
    NetworkConfig,
    dpm_forward,
    dpm_gradients,
    init_params,
)
from crashcast.report import read_csv
from crashcast.sim import ScenarioSpec, bisect_delay_threshold, run_scenario
from crashcast.stats import (
    ConfusionCounts,
    UncertaintyClass,
    anova_oneway,
    classify_uncertainty,
    f_survival,
    mcc_of,
    mean_std,
)
from crashcast.training import TrainConfig, evaluate, train

from oracles import finite_diff_gradient, premasked
from test_network import make_samples
from test_stats import TABLE_ACC, TABLE_MCC, anova_ss_oracle, mcc_pearson_oracle


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_gradient_correctness():
    """Tiny DPM: every analytic gradient within 1e-4 of central differences."""
    t0 = time.monotonic()
    config = NetworkConfig(
        input_mode="images_state_action", cameras=("dashcam",),
        image_rows=6, image_cols=6, seq_len=3,
        conv_filters=(2, 2), conv_kernels=(3, 3), conv_strides=(1, 2),
        lstm_units=3, merge_units=4,
    )
    params = init_params(config, seed=41)
    rng = np.random.default_rng(42)
    for t in params.tensors().values():
        t += rng.standard_normal(t.shape) * 0.05
    samples = make_samples(rng, config, 2)
    labels = [1, 0]
    _, grads = dpm_gradients(params, config, samples, labels)
    worst = 0.0
    for name, tensor in params.tensors().items():
        original = tensor.copy()

        def loss_with(values, _t=tensor):
            _t[...] = values
            out = dpm_gradients(params, config, samples, labels)[0]
            _t[...] = original
            return out

        fd = finite_diff_gradient(loss_with, original, eps=1e-4)
        rel = np.abs(grads[name] - fd) / (np.abs(grads[name]) + 1e-8)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f} s"
    _ok(1, f"analytic vs finite-difference gradients, worst rel err {worst:.2e} "
           f"in {elapsed:.1f} s")


def test_criterion_2_paper_aggregation_oracle():
    """mean_std reproduces the published k-fold summary rows within 5e-4."""
    acc_mean, acc_std = mean_std(TABLE_ACC)
    mcc_mean, mcc_std = mean_std(TABLE_MCC)
    assert abs(acc_mean - 0.8219) <= 5e-4
    assert abs(acc_std - 0.0790) <= 5e-4
    assert abs(mcc_mean - 0.6484) <= 5e-4
    assert abs(mcc_std - 0.1521) <= 5e-4
    _ok(2, f"fold aggregation reproduces 0.8219/0.0790 and 0.6484/0.1521 "
           f"(got {acc_mean:.4f}/{acc_std:.4f}, {mcc_mean:.4f}/{mcc_std:.4f})")


def test_criterion_3_paper_f_distribution_oracle():
    """f_survival reproduces the published (F, p) pairs."""
    checks = [
        (8.039, 3, 36, 0.0003, 2e-4),
        (8.262, 3, 36, 0.0003, 2e-4),
        (2.238, 2, 27, 0.126, 0.005),
        (1.799, 2, 27, 0.185, 0.005),
    ]
    for f, d1, d2, want, tol in checks:
        got = f_survival(f, d1, d2)
        assert abs(got - want) <= tol, f"f_survival({f},{d1},{d2}) = {got}"
    _ok(3, "F-distribution tail matches all four published (F, p) pairs")


SWEEP_CONFIG = [
    "--set", "sim.episodes_per_scenario=200",
    "--set", "sim.image_size=32",
    "--set", "data.window_stride=10",
    "--set", "net.conv_filters=8,8",
    "--set", "net.conv_strides=2,1",  # downsample first: ~3x faster recurrence
    "--set", "train.batch_size=16",
    "--set", "train.learning_rate=0.002",
    "--set", "train.max_iterations=1500",
    "--set", "train.validation_interval=100",
    "--set", "train.patience=4",
    "--set", "eval.fold_k=5",
    "--set", "eval.val_fraction=0.05",
]


@pytest.mark.sweep
def test_criterion_4_camera_sweep_desk_scale(tmp_path):
    """All-three-cameras beats each single camera on mean MCC; accuracy >= 0.70."""
    t0 = time.monotonic()
    data = tmp_path / "sweep.dpmd"
    rc = cli_main(["gen-data", "--seed", "42", "--jobs", "2", "--out", str(data),
                   *SWEEP_CONFIG])
    assert rc == 0
    out = tmp_path / "camera_sweep"
    rc = cli_main(["experiment", "--data", str(data), "--sweep", "camera", "--jobs", "2",
                   "--seed", "42", "--out", str(out), *SWEEP_CONFIG])
    assert rc == 0
    _prov, _header, rows = read_csv(out / "summary.csv")
    mcc_means = {r[0]: float(r[2]) for r in rows if r[1] == "mcc"}
    acc_means = {r[0]: float(r[2]) for r in rows if r[1] == "accuracy"}
    elapsed = time.monotonic() - t0
    assert set(mcc_means) == {"left_mirror", "dashcam", "right_mirror", "all3"}
    for single in ("left_mirror", "dashcam", "right_mirror"):
        assert mcc_means["all3"] > mcc_means[single], \
            f"all3 mcc {mcc_means['all3']:.4f} not above {single} {mcc_means[single]:.4f}"
    assert acc_means["all3"] >= 0.70, f"all3 accuracy {acc_means['all3']:.4f}"
    assert elapsed < 7200.0, f"sweep took {elapsed / 3600:.2f} h"
    _ok(4, f"camera sweep: all3 mcc {mcc_means['all3']:.4f} strictly highest "
           f"(acc {acc_means['all3']:.4f} >= 0.70) in {elapsed / 60:.0f} min")


ABLATION_CONFIG = [
    "--set", "sim.episodes_per_scenario=8",
    "--set", "sim.image_size=16",
    "--set", "data.window_stride=15",
    "--set", "net.conv_filters=4,4",
    "--set", "net.lstm_units=8",
    "--set", "net.merge_units=16",
    "--set", "train.batch_size=8",
    "--set", "train.max_iterations=40",
    "--set", "train.validation_interval=20",
    "--set", "eval.fold_k=3",
]


def test_criterion_5_input_mode_ablation_report(tmp_path):
    """The input-mode sweep completes and reports ANOVA p-values; no ordering claim."""
    data = tmp_path / "ablation.dpmd"
    assert cli_main(["gen-data", "--seed", "7", "--out", str(data), *ABLATION_CONFIG]) == 0
    out = tmp_path / "input_mode_sweep"
    assert cli_main(["experiment", "--data", str(data), "--sweep", "input_mode",
                     "--seed", "7", "--out", str(out), *ABLATION_CONFIG]) == 0
    _prov, _header, fold_rows = read_csv(out / "folds.csv")
    groups = {r[0] for r in fold_rows}
    assert groups == {"images_only", "images_state", "images_state_action"}
    assert len(fold_rows) == 9  # 3 modes x 3 folds
    _prov, _header, anova_rows = read_csv(out / "anova.csv")
    p_values = {r[0]: float(r[2]) for r in anova_rows}
    assert set(p_values) == {"accuracy", "mcc"}
    for metric, p in p_values.items():
        assert 0.0 <= p <= 1.0, f"ANOVA p for {metric} is {p}"
    _ok(5, f"input-mode sweep completed; ANOVA p-values accuracy={p_values['accuracy']:.3f} "
           f"mcc={p_values['mcc']:.3f}")


def _tiny_net():
    config = NetworkConfig(
        input_mode="images_state_action", cameras=("dashcam",),
        image_rows=8, image_cols=8, seq_len=5,
        conv_filters=(2, 2), conv_kernels=(3, 3), conv_strides=(1, 2),
        lstm_units=4, merge_units=6,
    )
    return config, init_params(config, seed=11)


def test_criterion_6_mc_dropout_invariants():
    """Zero-rate degeneracy, mask constancy in time, drop-fraction statistics."""
    config, params = _tiny_net()
    rng = np.random.default_rng(12)
    sample = make_samples(rng, config, 1)[0]

    p_det = float(dpm_forward(params, config, sample)[0])
    zero = run_sfp(params, config, sample, DropoutSpec(rate=0.0), 50, rng_seed=1)
    assert all(s == p_det for s in zero), "rate 0 must equal the deterministic pass"

    spec = DropoutSpec(rate=0.2)
    digests = []
    for i in range(30):
        seed = mix64(99, i)
        masks = sample_masks(spec, params, seed).masks
        # the pre-masked weights apply unchanged at every step of the sequence
        reference = float(dpm_forward(premasked(params, masks), config, sample)[0])
        assert stochastic_forward(params, config, sample, spec, seed) == reference, \
            "a pass must equal the forward on its pre-masked weights"
        digests.append(hashlib.sha256(masks["cam.dashcam.l0.w_xi"].tobytes()
                                      + masks["cam.dashcam.l0.w_hi"].tobytes()
                                      + masks["cam.dashcam.l0.w_ci"].tobytes()).hexdigest())
    pairs = differing = 0
    for i in range(len(digests)):
        for j in range(i + 1, len(digests)):
            pairs += 1
            differing += digests[i] != digests[j]
    assert differing / pairs >= 0.99

    total = zeros = 0
    i = 0
    while total < 100_000:
        ms = sample_masks(spec, params, mix64(13, i))
        total += sum(m.size for m in ms.masks.values())
        zeros += sum(int((m == 0.0).sum()) for m in ms.masks.values())
        i += 1
    frac = zeros / total
    se = math.sqrt(spec.rate * (1 - spec.rate) / total)
    assert abs(frac - spec.rate) <= 3 * se
    _ok(6, f"r=0 degenerate; each pass equals its pre-masked forward over "
           f"{config.seq_len} steps, {differing}/{pairs} pass pairs differ; "
           f"drop fraction {frac:.4f} within 3 SE of 0.2 over {total} elements")


def test_criterion_7_simulator_labels():
    """Scenario 3 always misses, 4 always collides; 1-2 have a clean delay threshold."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        delay = float(rng.uniform(0.0, 3.0))
        assert run_scenario(ScenarioSpec(3, delay)).label == 0
        assert run_scenario(ScenarioSpec(4, delay)).label == 1
    thresholds = {}
    for sid in (1, 2):
        d_star = bisect_delay_threshold(sid)
        below = max(0.0, d_star - 0.5)
        assert run_scenario(ScenarioSpec(sid, below)).label == 1
        assert run_scenario(ScenarioSpec(sid, d_star + 0.5)).label == 0
        thresholds[sid] = d_star
    _ok(7, f"200 fixed-label episodes correct; delay thresholds "
           f"{thresholds[1]:.3f}/{thresholds[2]:.3f} s with monotone labels +/-0.5 s")


def test_criterion_8_metrics_oracles():
    """MCC against binary Pearson, ANOVA against explicit sums of squares."""
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 1000:
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 60, 4))
        if tp + tn + fp + fn == 0:
            continue
        got = mcc_of(ConfusionCounts(tp, tn, fp, fn))
        want = mcc_pearson_oracle(tp, tn, fp, fn)
        assert abs(got - want) <= 1e-10
        checked += 1
    for trial in range(100):
        g = int(rng.integers(2, 5))
        groups = {
            f"g{i}": list(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0),
                                     int(rng.integers(3, 12))))
            for i in range(g)
        }
        res = anova_oneway(groups)
        want = anova_ss_oracle(groups)
        assert abs(res.f_value - want) <= 1e-10 * max(1.0, abs(want))
    _ok(8, "1000 MCC matrices match Pearson oracle; 100 ANOVA group sets match "
           "sum-of-squares oracle at 1e-10")


def test_criterion_9_uncertainty_taxonomy():
    """The three constructed distributions land in their three classes, 10 times over."""
    rng = np.random.default_rng(29)
    bimodal = np.clip(np.concatenate([rng.normal(0.1, 0.02, 250),
                                      rng.normal(0.9, 0.02, 250)]), 0, 1)
    confident = np.clip(rng.normal(0.9, 0.03, 500), 0, 1)
    diffuse = np.clip(rng.normal(0.5, 0.15, 500), 0, 1)
    for _ in range(10):
        assert classify_uncertainty(bimodal) is UncertaintyClass.CONFLICTING_BIMODAL
        assert classify_uncertainty(confident) is UncertaintyClass.CONFIDENT_UNIMODAL
        assert classify_uncertainty(diffuse) is UncertaintyClass.DIFFUSE_UNIMODAL
    _ok(9, "bimodal/confident/diffuse mixtures classified correctly across 10 reruns")


REPRO_CONFIG = [
    "--set", "sim.episodes_per_scenario=2",
    "--set", "sim.image_size=8",
    "--set", "data.window_stride=25",
    "--set", "net.conv_filters=2,2",
    "--set", "net.lstm_units=4",
    "--set", "net.merge_units=8",
    "--set", "train.batch_size=8",
    "--set", "train.max_iterations=6",
    "--set", "train.validation_interval=3",
    "--set", "eval.fold_k=2",
]


def test_criterion_10_reproducibility_formats_overfit(tmp_path):
    """Byte-identical reruns, bit-exact round trips, and the overfit sanity run."""
    d1, d2 = tmp_path / "r1.dpmd", tmp_path / "r2.dpmd"
    assert cli_main(["gen-data", "--seed", "31", "--out", str(d1), *REPRO_CONFIG]) == 0
    assert cli_main(["gen-data", "--seed", "31", "--out", str(d2), *REPRO_CONFIG]) == 0
    assert d1.read_bytes() == d2.read_bytes(), "gen-data must be byte-identical"

    e1, e2 = tmp_path / "exp1", tmp_path / "exp2"
    for out in (e1, e2):
        assert cli_main(["experiment", "--data", str(d1), "--sweep", "camera",
                         "--seed", "31", "--out", str(out), *REPRO_CONFIG]) == 0
    for name in ("folds.csv", "summary.csv", "anova.csv"):
        assert (e1 / name).read_bytes() == (e2 / name).read_bytes(), \
            f"experiment {name} must be byte-identical"

    loaded = deserialize_dataset(d1)
    again = tmp_path / "again.dpmd"
    serialize_dataset(loaded.samples, again)
    assert again.read_bytes() == d1.read_bytes(), "dataset round trip must be bit-exact"

    config, params = _tiny_net()
    c1 = tmp_path / "m.dpmw"
    save_checkpoint(c1, config, params)
    config2, params2 = load_checkpoint(c1)
    c2 = tmp_path / "m2.dpmw"
    save_checkpoint(c2, config2, params2)
    assert c1.read_bytes() == c2.read_bytes(), "checkpoint round trip must be bit-exact"

    rng = np.random.default_rng(37)
    trainset = make_samples(rng, config, 20)
    for i, s in enumerate(trainset):
        s.label = i % 2
    tc = TrainConfig(batch_size=10, learning_rate=5e-3, max_iterations=500,
                     patience=10**6, validation_interval=10**6,
                     dropout_in_training=False)
    trained, report = train(params, config, tc, trainset, [], rng_seed=5)
    counts = evaluate(trained, config, trainset)
    train_acc = (counts.tp + counts.tn) / counts.total
    assert report.final_iteration <= 500
    assert train_acc == 1.0, f"overfit sanity reached only {train_acc:.3f}"
    _ok(10, f"byte-identical reruns, bit-exact round trips, overfit to 100% "
            f"in {report.final_iteration} iterations")
