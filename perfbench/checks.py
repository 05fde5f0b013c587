"""Output checks, one function per workload; each returns a list of failures.

Every check is either a computation made apart from the program (a record
dtype decode, NumPy/SciPy statistics, central differences, a reference
forward written from the gate equations) or a property the method must have.
None compares against a stored copy of earlier output.
"""

import math
import os

import numpy as np
from scipy.stats import f as f_dist

from crashcast import data as datamod
from crashcast.checkpoint import load_checkpoint, save_checkpoint
from crashcast.dropout import DropoutSpec, mix64, sample_masks
from crashcast.network import dpm_forward_batch, dpm_gradients
from crashcast.report import read_csv
from reference import decode_dpmd, dpmd_layout, dpmd_size, reference_p_collision

FD_TOLERANCE = 1e-4  # acceptance criterion 1: relative error of each gradient entry


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_gen(dpmd_path):
    errors = []
    blob = _read(dpmd_path)
    count, seq_len, cams, rows, cols = dpmd_layout(blob)
    if len(blob) != dpmd_size(count, seq_len, cams, rows, cols):
        errors.append(f"DPMD size {len(blob)} != header + {count} x per-sample size")
        return errors
    labels, images, _states, _actions = decode_dpmd(blob)
    horizon = rows // 2  # rays of rows >= rows/2 point below the horizon
    sky = np.unique(images[..., :horizon, :])
    ground = np.unique(images[..., horizon:, :])
    ground_level = int(np.rint(0.25 * 255))
    if not set(sky.tolist()) <= {0, 255}:
        errors.append(f"pixels above the horizon outside {{0, 255}}: {sorted(set(sky.tolist()))[:5]}")
    if not set(ground.tolist()) <= {ground_level, 255}:
        errors.append(f"pixels below the horizon outside {{{ground_level}, 255}}: "
                      f"{sorted(set(ground.tolist()))[:5]}")
    episode_ids, scenarios = datamod.read_meta(dpmd_path + ".meta.csv")
    if len(scenarios) != count:
        errors.append("meta.csv does not cover every sample")
        return errors
    if np.any(labels[scenarios == 3] != 0) or np.any(labels[scenarios == 4] != 1):
        errors.append("a scenario-3 sample is labelled collision or a scenario-4 sample is not")
    _prov, header, rows_ = read_csv(dpmd_path + ".gen.csv")
    table = {r[0]: dict(zip(header, r)) for r in rows_}
    total = table.get("total", {})
    if int(total.get("samples", -1)) != count or \
            int(total.get("collision_samples", -1)) != int(labels.sum()):
        errors.append(".gen.csv totals disagree with the decoded file")
    for sid in (1, 2, 3, 4):
        row = table.get(str(sid))
        if row is None or int(row["samples"]) != int((scenarios == sid).sum()):
            errors.append(f".gen.csv scenario {sid} sample count disagrees with meta.csv")
    if int(total.get("episodes", -1)) != len(set(episode_ids.tolist())):
        errors.append(".gen.csv episode total disagrees with meta.csv")
    resaved = dpmd_path + ".resaved"
    datamod.serialize_dataset(datamod.deserialize_dataset(dpmd_path).samples, resaved)
    if _read(resaved) != blob:
        errors.append("deserialize + serialize does not reproduce the DPMD bytes")
    os.remove(resaved)
    return errors


def check_train(data_path, model_path, eval_csv, iterations, seed, n_coords=6):
    errors = []
    prov, _header, rows = read_csv(model_path + ".train.csv")
    losses = [float(r[1]) for r in rows if r[1] != ""]
    if len(losses) != iterations:
        errors.append(f"{len(losses)} loss rows, expected {iterations}")
    if not all(math.isfinite(v) for v in losses):
        errors.append("non-finite training loss")
    if prov.get("stop_reason") != "max_iters":
        errors.append(f"stop_reason {prov.get('stop_reason')!r}, expected 'max_iters'")

    config, params = load_checkpoint(model_path)
    resaved = model_path + ".resaved"
    save_checkpoint(resaved, config, params)
    if _read(resaved) != _read(model_path):
        errors.append("load + save does not reproduce the DPMW bytes")
    os.remove(resaved)

    samples = datamod.deserialize_dataset(data_path).samples
    batch = samples[:2]
    labels = [s.label for s in batch]
    _loss, grads = dpm_gradients(params, config, batch, labels)
    target = np.array([1 - s.label for s in batch])

    def loss():
        probs = dpm_forward_batch(params, config, batch)
        return float(-np.log(np.clip(probs[np.arange(len(batch)), target], 1e-12, None)).mean())

    rng = np.random.default_rng(seed)
    tensors = params.tensors()
    names = sorted(tensors)
    eps = 1e-4
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        flat = tensors[name].reshape(-1)
        g = grads[name].reshape(-1)
        # central differences resolve a gradient entry only where it is not
        # negligible against the tensor's own scale; pick among those
        big = np.nonzero(np.abs(g) >= np.abs(g).max() * 1e-2)[0]
        if big.size == 0:
            continue
        i = int(big[rng.integers(big.size)])
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss()
        flat[i] = orig - eps
        lo = loss()
        flat[i] = orig
        fd = (hi - lo) / (2 * eps)
        rel = abs(g[i] - fd) / (abs(g[i]) + 1e-8)
        if rel > FD_TOLERANCE:
            errors.append(f"gradient {name}[{i}] {g[i]:.6e} vs central difference {fd:.6e}")

    n = len(samples)
    n_test = n - int(np.floor(0.8 * n)) - int(np.floor(0.1 * n))
    _prov, header, rows = read_csv(eval_csv)
    rec = dict(zip(header, rows[0]))
    tp, tn, fp, fn = (int(rec[k]) for k in ("tp", "tn", "fp", "fn"))
    if tp + tn + fp + fn != n_test:
        errors.append(f"eval counts sum to {tp + tn + fp + fn}, test split has {n_test}")
    acc = (tp + tn) / (tp + tn + fp + fn)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
    if abs(acc - float(rec["accuracy"])) > 1e-12 or abs(mcc - float(rec["mcc"])) > 1e-12:
        errors.append("eval accuracy/MCC disagree with the Pearson formula on its counts")
    return errors


def check_predict(data_path, model_path, out_dir, n_passes, seed, bins, zero_rate_dir,
                  zero_rate_passes, n_ref=3):
    errors = []
    _prov, _h, rows = read_csv(os.path.join(out_dir, "distribution.csv"))
    p = np.array([float(r[1]) for r in rows])
    if p.size != n_passes or np.any(p < 0) or np.any(p > 1):
        errors.append(f"{p.size} values (expected {n_passes}) or a value outside [0, 1]")
        return errors
    counts, _edges = np.histogram(p, bins=bins, range=(0.0, 1.0))
    _prov, _h, hist_rows = read_csv(os.path.join(out_dir, "histogram.csv"))
    if [int(r[2]) for r in hist_rows] != counts.tolist():
        errors.append("histogram.csv disagrees with numpy.histogram of distribution.csv")
    _prov, header, stat_rows = read_csv(os.path.join(out_dir, "stats.csv"))
    st = dict(zip(header, stat_rows[0]))
    for key, want in (("mean", p.mean()), ("variance", p.var()), ("std", p.std())):
        if abs(float(st[key]) - want) > 1e-12 * max(1.0, abs(want)):
            errors.append(f"stats.csv {key} {st[key]} != numpy {want!r}")

    config, params = load_checkpoint(model_path)
    tensors = params.tensors()
    _labels, images, states, actions = decode_dpmd(_read(data_path))
    spec = DropoutSpec()  # the default dropout settings predict ran with
    rng = np.random.default_rng(seed)
    for i in sorted(set(rng.integers(0, n_passes, n_ref).tolist())):
        masks = sample_masks(spec, params, mix64(seed, i)).masks
        ref = reference_p_collision(config, tensors, masks, images[0], states[0], actions[0])
        if abs(ref - p[i]) > 1e-9:
            errors.append(f"pass {i}: p {p[i]!r} != reference forward {ref!r}")

    _prov, _h, rows = read_csv(os.path.join(zero_rate_dir, "distribution.csv"))
    p0 = [float(r[1]) for r in rows]
    ref0 = reference_p_collision(config, tensors, {}, images[0], states[0], actions[0])
    if len(p0) != zero_rate_passes or len(set(p0)) != 1 or abs(p0[0] - ref0) > 1e-9:
        errors.append(f"rate-0 passes {p0[:3]} not identical or != unmasked reference {ref0!r}")
    return errors


def check_sweep(out_dir, k, groups, jobs1_dir):
    errors = []
    _prov, _h, rows = read_csv(os.path.join(out_dir, "folds.csv"))
    if len(rows) != groups * k:
        errors.append(f"folds.csv has {len(rows)} rows, expected {groups * k}")
    by_group = {}
    for g, _fold, acc, mcc in rows:
        by_group.setdefault(g, {"accuracy": [], "mcc": []})
        by_group[g]["accuracy"].append(float(acc))
        by_group[g]["mcc"].append(float(mcc))
    _prov, _h, summary = read_csv(os.path.join(out_dir, "summary.csv"))
    for g, metric, mean, std in summary:
        v = np.array(by_group[g][metric])
        if abs(float(mean) - v.mean()) > 1e-12 or abs(float(std) - v.std(ddof=0)) > 1e-12:
            errors.append(f"summary.csv {g}/{metric} disagrees with numpy on folds.csv")
    _prov, header, anova = read_csv(os.path.join(out_dir, "anova.csv"))
    for row in anova:
        rec = dict(zip(header, row))
        vals = [np.array(by_group[g][rec["metric"]]) for g in by_group]
        n = sum(v.size for v in vals)
        grand = np.concatenate(vals).mean()
        ssb = sum(v.size * (v.mean() - grand) ** 2 for v in vals)
        ssw = sum(((v - v.mean()) ** 2).sum() for v in vals)
        df1, df2 = len(vals) - 1, n - len(vals)
        f_val, p_val = float(rec["f_value"]), float(rec["p_value"])
        if ssw == 0.0:
            ok = rec["degenerate"] == "True" and p_val in (0.0, 1.0)
        else:
            want_f = (ssb / df1) / (ssw / df2)
            ok = (math.isclose(f_val, want_f, rel_tol=1e-9, abs_tol=1e-12)
                  and math.isclose(p_val, float(f_dist.sf(want_f, df1, df2)),
                                   rel_tol=1e-7, abs_tol=1e-12))
        if not ok:
            errors.append(f"ANOVA {rec['metric']} F/p disagree with explicit sums of squares "
                          f"and scipy.stats.f.sf")
    if _read(os.path.join(out_dir, "folds.csv")) != _read(os.path.join(jobs1_dir, "folds.csv")):
        errors.append("folds.csv from --jobs 2 differs from --jobs 1")
    return errors
