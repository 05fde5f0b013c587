"""Metric and statistics tests against closed forms and independent oracles."""

import math

import numpy as np
import pytest

from crashcast.stats import (
    AnovaResult,
    ConfusionCounts,
    GaussianFit,
    UncertaintyClass,
    accuracy_of,
    anova_oneway,
    classify_uncertainty,
    f_survival,
    fit_gaussian,
    histogram,
    mcc_of,
    mean_std,
)

# fold columns of the published i+s+a cross-validation table
TABLE_ACC = [0.8099, 0.8646, 0.8125, 0.8854, 0.9427, 0.7031, 0.7891, 0.8307, 0.6797, 0.9010]
TABLE_MCC = [0.6218, 0.7326, 0.6275, 0.7704, 0.8817, 0.4435, 0.5787, 0.6672, 0.3597, 0.8012]


def mcc_pearson_oracle(tp, tn, fp, fn):
    """Pearson correlation of the expanded binary label/prediction vectors."""
    y_true = [1.0] * tp + [1.0] * fn + [0.0] * fp + [0.0] * tn
    y_pred = [1.0] * tp + [0.0] * fn + [1.0] * fp + [0.0] * tn
    n = len(y_true)
    mt = math.fsum(y_true) / n
    mp = math.fsum(y_pred) / n
    cov = math.fsum((t - mt) * (p - mp) for t, p in zip(y_true, y_pred)) / n
    vt = math.fsum((t - mt) ** 2 for t in y_true) / n
    vp = math.fsum((p - mp) ** 2 for p in y_pred) / n
    if vt == 0.0 or vp == 0.0:
        return 0.0
    return cov / math.sqrt(vt * vp)


def anova_ss_oracle(groups):
    """F via the total-minus-within sum-of-squares decomposition."""
    all_vals = [x for vs in groups.values() for x in vs]
    n = len(all_vals)
    g = len(groups)
    grand = math.fsum(all_vals) / n
    ss_total = math.fsum((x - grand) ** 2 for x in all_vals)
    ss_within = math.fsum(
        (x - math.fsum(vs) / len(vs)) ** 2 for vs in groups.values() for x in vs
    )
    ss_between = ss_total - ss_within
    return (ss_between / (g - 1)) / (ss_within / (n - g))


def t_two_sided_tail(t, df, points=40001):
    """2 P(T_df > t) by Simpson quadrature of the t density on x = t + u/(1-u)."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)
    u = np.linspace(0.0, 1.0, points)[:-1]
    x = t + u / (1.0 - u)
    f = c * (1.0 + x * x / df) ** (-(df + 1) / 2.0) / (1.0 - u) ** 2
    f = np.append(f, 0.0)
    h = 1.0 / (points - 1)
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return 2.0 * h / 3.0 * float(np.dot(w, f))


def test_accuracy_closed_forms():
    assert accuracy_of(ConfusionCounts(50, 50, 0, 0)) == 1.0
    assert accuracy_of(ConfusionCounts(0, 0, 50, 50)) == 0.0
    assert accuracy_of(ConfusionCounts(40, 42, 8, 10)) == pytest.approx(0.82, abs=1e-12)
    with pytest.raises(ValueError):
        accuracy_of(ConfusionCounts())


def test_mcc_closed_forms():
    assert mcc_of(ConfusionCounts(50, 50, 0, 0)) == 1.0
    # all-positive predictor on mixed labels: TN = FN = 0 marginal
    assert mcc_of(ConfusionCounts(tp=30, tn=0, fp=20, fn=0)) == 0.0
    assert mcc_of(ConfusionCounts(47, 49, 1, 3)) == pytest.approx(0.9207368843792509, abs=1e-12)


def test_mcc_symmetries():
    rng = np.random.default_rng(17)
    for _ in range(200):
        tp, tn, fp, fn = (int(x) for x in rng.integers(0, 40, 4))
        if tp + tn + fp + fn == 0:
            continue
        m = mcc_of(ConfusionCounts(tp, tn, fp, fn))
        assert m == pytest.approx(mcc_of(ConfusionCounts(tn, tp, fn, fp)), abs=1e-12)
        assert m == pytest.approx(-mcc_of(ConfusionCounts(fp, fn, tp, tn)), abs=1e-12)


def test_mcc_matches_pearson_oracle():
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


def test_mean_std_constant():
    m, s = mean_std([0.42, 0.42, 0.42])
    assert m == pytest.approx(0.42) and s == 0.0
    with pytest.raises(ValueError):
        mean_std([])


def test_mean_std_reproduces_published_kfold_rows():
    m, s = mean_std(TABLE_ACC)
    assert abs(m - 0.8219) <= 5e-4
    assert abs(s - 0.0790) <= 5e-4
    m, s = mean_std(TABLE_MCC)
    assert abs(m - 0.6484) <= 5e-4
    assert abs(s - 0.1521) <= 5e-4
    # the population form divides by n
    _, s_pop = mean_std([1.0, 2.0, 3.0])
    assert s_pop == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_f_survival_edge_and_paper_values():
    assert f_survival(0.0, 3, 36) == 1.0
    # published (F, p) pairs from the two ANOVA studies
    assert abs(f_survival(8.039, 3, 36) - 0.0003) <= 2e-4
    assert abs(f_survival(8.262, 3, 36) - 0.0003) <= 2e-4
    assert abs(f_survival(2.238, 2, 27) - 0.126) <= 0.005
    assert abs(f_survival(1.799, 2, 27) - 0.185) <= 0.005


def test_f_survival_monotone_in_f():
    prev = 1.0
    for f in np.linspace(0.01, 20, 80):
        p = f_survival(float(f), 3, 36)
        assert p < prev
        prev = p


def test_f_survival_df1_one_matches_t_tail_quadrature():
    for f, df2 in [(2.3, 9), (5.0, 27), (0.7, 36), (10.0, 12)]:
        want = t_two_sided_tail(math.sqrt(f), df2)
        assert f_survival(f, 1, df2) == pytest.approx(want, abs=1e-8)


def test_f_survival_df1_two_closed_form():
    # survival of F(2, d) is (1 + 2F/d)^(-d/2)
    for f, df2 in [(2.238, 27), (1.799, 27), (0.5, 10), (8.0, 40)]:
        want = (1.0 + 2.0 * f / df2) ** (-df2 / 2.0)
        assert f_survival(f, 2, df2) == pytest.approx(want, abs=1e-12)


def test_anova_identical_groups_degenerate():
    res = anova_oneway({"a": [1.0, 1.0, 1.0], "b": [1.0, 1.0, 1.0]})
    assert res.degenerate and res.f_value == 0.0 and res.p_value == 1.0
    res = anova_oneway({"a": [1.0, 1.0], "b": [2.0, 2.0]})
    assert res.degenerate and res.p_value == 0.0


def test_anova_small_example_matches_oracle():
    groups = {"a": [1.0, 2.0, 3.0], "b": [2.0, 3.0, 4.0]}
    res = anova_oneway(groups)
    assert res.f_value == pytest.approx(anova_ss_oracle(groups), rel=1e-12)
    assert res.df_between == 1 and res.df_within == 4


def test_anova_separated_groups_tiny_p():
    rng = np.random.default_rng(31)
    groups = {
        "lo": list(rng.normal(0.0, 1.0, 10)),
        "hi": list(rng.normal(10.0, 1.0, 10)),
    }
    assert anova_oneway(groups).p_value < 1e-6


def test_anova_matches_ss_oracle_on_random_groups():
    rng = np.random.default_rng(37)
    for _ in range(100):
        g = int(rng.integers(2, 5))
        groups = {
            f"g{i}": list(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), int(rng.integers(3, 12))))
            for i in range(g)
        }
        res = anova_oneway(groups)
        want = anova_ss_oracle(groups)
        assert abs(res.f_value - want) <= 1e-10 * max(1.0, abs(want))
        assert res.p_value == pytest.approx(f_survival(want, res.df_between, res.df_within), abs=1e-12)


def test_anova_shift_and_scale_invariance():
    rng = np.random.default_rng(41)
    groups = {f"g{i}": list(rng.normal(i, 1.0, 8)) for i in range(3)}
    base = anova_oneway(groups)
    shifted = anova_oneway({k: [x + 100.0 for x in v] for k, v in groups.items()})
    scaled = anova_oneway({k: [x * 7.5 for x in v] for k, v in groups.items()})
    assert base.f_value == pytest.approx(shifted.f_value, rel=1e-9)
    assert base.f_value == pytest.approx(scaled.f_value, rel=1e-9)


def test_anova_validates_groups():
    with pytest.raises(ValueError):
        anova_oneway({"a": [1.0, 2.0]})
    with pytest.raises(ValueError):
        anova_oneway({"a": [1.0, 2.0], "b": [3.0]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_anova_refuses_non_finite_values_naming_the_group(bad):
    with pytest.raises(ValueError, match="group 'b' holds a NaN or infinite value"):
        anova_oneway({"a": [1.0, 2.0], "b": [3.0, bad]})


def test_f_survival_refuses_nan_naming_the_argument():
    with pytest.raises(ValueError, match="f_value is NaN"):
        f_survival(math.nan, 1, 2)
    for df1, df2 in ((math.nan, 2), (1, math.nan), (math.inf, 2), (1, math.inf)):
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_survival(1.0, df1, df2)
    assert f_survival(math.inf, 1, 2) == 0.0


def test_fit_gaussian():
    fit = fit_gaussian([0.7] * 10)
    assert fit == GaussianFit(0.7, 0.0)
    fit = fit_gaussian([0.0] * 500 + [1.0] * 500)
    assert fit.mean == pytest.approx(0.5, abs=1e-12)
    assert fit.variance == pytest.approx(0.25, abs=1e-12)
    assert fit_gaussian([0.5]) == GaussianFit(0.5, 0.0)
    with pytest.raises(ValueError):
        fit_gaussian([])


def test_fit_gaussian_recovers_sampled_mean():
    rng = np.random.default_rng(43)
    true_mean, true_std, n = 0.5, 0.1, 10_000
    draws = np.clip(rng.normal(true_mean, true_std, n), 0.0, 1.0)
    fit = fit_gaussian(draws)
    stderr = true_std / math.sqrt(n)
    assert abs(fit.mean - true_mean) <= 3 * stderr


def test_histogram_binning_rules():
    counts = histogram([0.5] * 77, 10)
    assert counts[5] == 77 and counts.sum() == 77
    counts = histogram([1.0, 0.999, 0.0], 20)
    assert counts[19] == 2 and counts[0] == 1
    rng = np.random.default_rng(47)
    v = rng.uniform(0, 1, 1234)
    assert histogram(v, 13).sum() == 1234
    with pytest.raises(ValueError):
        histogram([0.5] * 60, 0)


def _mix(rng, centers, stds, counts):
    parts = [rng.normal(c, s, n) for c, s, n in zip(centers, stds, counts)]
    return np.clip(np.concatenate(parts), 0.0, 1.0)


def test_classify_bimodal_mixture():
    rng = np.random.default_rng(53)
    d = _mix(rng, [0.1, 0.9], [0.02, 0.02], [250, 250])
    assert classify_uncertainty(d) is UncertaintyClass.CONFLICTING_BIMODAL


def test_classify_confident_cluster():
    rng = np.random.default_rng(59)
    d = _mix(rng, [0.9], [0.03], [500])
    assert classify_uncertainty(d) is UncertaintyClass.CONFIDENT_UNIMODAL


def test_classify_diffuse_cluster():
    rng = np.random.default_rng(61)
    d = _mix(rng, [0.5], [0.15], [500])
    assert classify_uncertainty(d) is UncertaintyClass.DIFFUSE_UNIMODAL
    assert classify_uncertainty(d, sigma_lo=0.5) is UncertaintyClass.CONFIDENT_UNIMODAL


def test_classify_is_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(67)
    d = _mix(rng, [0.1, 0.9], [0.02, 0.02], [250, 250])
    first = classify_uncertainty(d)
    for i in range(10):
        assert classify_uncertainty(d) is first
        perm = np.random.default_rng(i).permutation(d)
        assert classify_uncertainty(perm) is first


def test_classify_refuses_small_samples():
    assert classify_uncertainty([0.5] * 49) is UncertaintyClass.INSUFFICIENT_SAMPLES
    assert classify_uncertainty([0.5] * 50) is UncertaintyClass.CONFIDENT_UNIMODAL


def test_anova_result_type():
    res = anova_oneway({"a": [1.0, 2.0, 3.0], "b": [2.0, 3.0, 4.0]})
    assert isinstance(res, AnovaResult)
    assert not res.degenerate
