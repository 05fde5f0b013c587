"""Classification metrics, one-way ANOVA, and predictive-distribution analysis.

The F-distribution tail is computed from scratch via the regularized
incomplete beta function (continued fraction, modified Lentz) so the package
carries no stats dependency. All standard deviations use the population
(divide-by-n) convention; see mean_std.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts; the positive class is "collision"."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def accuracy_of(c):
    if c.total <= 0:
        raise ValueError("accuracy undefined for empty confusion counts")
    return (c.tp + c.tn) / c.total


def mcc_of(c):
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    if c.total <= 0:
        raise ValueError("MCC undefined for empty confusion counts")
    tp, tn, fp, fn = float(c.tp), float(c.tn), float(c.fp), float(c.fn)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def mean_std(values):
    """Arithmetic mean and population (divide-by-n) standard deviation.

    The population form reproduces the published k-fold summary rows, which
    the sample (divide-by-n-1) form does not.
    """
    v = np.asarray(list(values), dtype=np.float64)
    if v.size < 1:
        raise ValueError("mean_std needs at least one value")
    return float(v.mean()), float(v.std(ddof=0))


# --- regularized incomplete beta / F survival ------------------------------

_CF_MAX_ITER = 300
_CF_EPS = 1e-14
_CF_FPMIN = 1e-300


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_reg(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log(1.0 - x))
    bt = math.exp(ln_bt)
    # continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def f_survival(f_value, df1, df2):
    """P(F(df1, df2) > f_value), the one-way ANOVA p-value tail."""
    if not (1 <= df1 < math.inf and 1 <= df2 < math.inf):
        raise ValueError("degrees of freedom must be positive integers")
    if math.isnan(f_value):
        raise ValueError("F statistic f_value is NaN")
    if f_value < 0:
        raise ValueError("F statistic cannot be negative")
    if f_value == 0.0:
        return 1.0
    if math.isinf(f_value):
        return 0.0
    x = df2 / (df2 + df1 * f_value)
    return betainc_reg(df2 / 2.0, df1 / 2.0, x)


@dataclass(frozen=True)
class AnovaResult:
    f_value: float
    p_value: float
    df_between: int
    df_within: int
    degenerate: bool = False


def anova_oneway(groups):
    """One-way fixed-effects ANOVA over named groups of per-fold values.

    groups: mapping name -> sequence of >= 2 values; >= 2 groups.
    Zero within-group variance is reported with a degeneracy flag instead
    of a NaN: p=1 when the groups are also identical, p=0 otherwise.
    """
    arrays = {name: np.asarray(list(vs), dtype=np.float64) for name, vs in groups.items()}
    if len(arrays) < 2:
        raise ValueError("ANOVA needs at least two groups")
    for name, v in arrays.items():
        if v.size < 2:
            raise ValueError(f"group {name!r} needs at least two values")
        if not np.isfinite(v).all():
            raise ValueError(f"group {name!r} holds a NaN or infinite value")
    n_total = sum(v.size for v in arrays.values())
    g = len(arrays)
    grand = sum(float(v.sum()) for v in arrays.values()) / n_total
    ss_between = sum(v.size * (float(v.mean()) - grand) ** 2 for v in arrays.values())
    ss_within = sum(float(((v - v.mean()) ** 2).sum()) for v in arrays.values())
    df1 = g - 1
    df2 = n_total - g
    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, 1.0, df1, df2, degenerate=True)
        return AnovaResult(math.inf, 0.0, df1, df2, degenerate=True)
    f_value = (ss_between / df1) / (ss_within / df2)
    return AnovaResult(f_value, f_survival(f_value, df1, df2), df1, df2)


# --- predictive-distribution analysis --------------------------------------

SMOOTH_WINDOW = 3  # bins in the moving average the peak search runs on
MIN_SAMPLES = 50  # passes below which classify_uncertainty gives no verdict


@dataclass(frozen=True)
class GaussianFit:
    mean: float
    variance: float

    @property
    def std(self):
        return math.sqrt(self.variance)


def fit_gaussian(samples):
    """Maximum-likelihood normal fit (mean, population variance).

    A single sample fits with variance 0.
    """
    v = np.asarray(samples, dtype=np.float64)
    if v.size < 1:
        raise ValueError("gaussian fit needs at least one sample")
    return GaussianFit(float(v.mean()), float(v.var(ddof=0)))


def histogram(samples, bins):
    """Counts over equal-width bins of [0, 1]; the final bin is right-closed."""
    if bins < 1:
        raise ValueError("bins must be positive")
    v = np.asarray(samples, dtype=np.float64)
    idx = np.clip((v * bins).astype(np.int64), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return counts


class UncertaintyClass(enum.Enum):
    CONFIDENT_UNIMODAL = "confident_unimodal"
    DIFFUSE_UNIMODAL = "diffuse_unimodal"
    CONFLICTING_BIMODAL = "conflicting_bimodal"
    INSUFFICIENT_SAMPLES = "insufficient_samples"


def _smooth(counts, window):
    """Truncated moving average (edges average over the bins that exist)."""
    half = window // 2
    n = counts.size
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        out[i] = counts[lo:hi].mean()
    return out


def _local_maxima(s):
    """Indices of plateau-aware local maxima of a 1-d signal."""
    maxima = []
    n = s.size
    i = 0
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        left_lower = i == 0 or s[i - 1] < s[i]
        right_lower = j == n - 1 or s[j + 1] < s[j]
        if left_lower and right_lower and s[i] > 0:
            maxima.append((i + j) // 2)
        i = j + 1
    return maxima


def classify_uncertainty(samples, *, bins=20, sigma_lo=0.10, peak_mass_frac=0.10,
                         valley_ratio=0.5):
    """Sort a predictive distribution into the three uncertainty regimes.

    Bimodality is decided first from a smoothed histogram: two peaks that
    each hold at least peak_mass_frac of the samples, separated by a valley
    no higher than valley_ratio of the smaller peak. Otherwise the verdict
    is confident vs diffuse by the sigma_lo threshold on the sample std.
    Fewer than MIN_SAMPLES samples are INSUFFICIENT_SAMPLES.
    """
    v = np.asarray(samples, dtype=np.float64)
    if v.size < MIN_SAMPLES:
        return UncertaintyClass.INSUFFICIENT_SAMPLES
    counts = histogram(v, bins)
    s = _smooth(counts.astype(np.float64), SMOOTH_WINDOW)
    peaks = [i for i in _local_maxima(s) if s[i] >= peak_mass_frac * v.size]
    for a in range(len(peaks)):
        for b in range(a + 1, len(peaks)):
            i, j = peaks[a], peaks[b]
            valley = s[i + 1 : j].min() if j - i > 1 else min(s[i], s[j])
            if valley <= valley_ratio * min(s[i], s[j]):
                return UncertaintyClass.CONFLICTING_BIMODAL
    std = float(v.std(ddof=0))
    if std <= sigma_lo:
        return UncertaintyClass.CONFIDENT_UNIMODAL
    return UncertaintyClass.DIFFUSE_UNIMODAL
