"""Command line for the collision-risk toolkit.

Subcommands: gen-data, train, eval, experiment, predict, anova, inspect.
Every command is reproducible from (config, seed): outputs embed the seed
and a config hash, and re-running with the same inputs produces
byte-identical primary outputs.

main parses the configuration once, before the command runs, and every
value is checked as it is parsed, so a bad value exits 1 naming its key
before any work starts. A command that reads a dataset opens it through
_open_dataset, which refuses a dataset the command's networks do not fit
(network.check_samples), and its provenance carries that dataset's hash.
Every command uses every core (parallel.py); gen-data and experiment take
--jobs, a positive cap on their worker processes, and --sfp is positive. A
gen-data task is a (scenario, delay) pair; experiment decides its folding
once, from the .meta.csv episode ids or each sample's own index, and every
sweep group is scored on that one fold plan.

Exit codes: 0 success, 1 usage/config error, 2 data/model error or out of memory.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError
from .dropout import mix64, run_sfp
from .network import INPUT_MODES, check_samples, init_params
from .parallel import fork_map
from .report import (
    file_sha256,
    read_csv,
    read_csv_lines,
    svg_bar_chart,
    svg_line_chart,
    write_csv,
)
from .sim import CAMERA_ORDER, ScenarioSpec, bisect_delay_threshold, run_scenario
from .stats import (
    accuracy_of,
    anova_oneway,
    classify_uncertainty,
    fit_gaussian,
    histogram,
    mcc_of,
    mean_std,
)
from .training import evaluate, fold_assignment, run_kfold, train

# each camera alone, then all three
CAMERA_SWEEP = (*((cam, (cam,)) for cam in CAMERA_ORDER), ("all3", CAMERA_ORDER))


class _Parser(argparse.ArgumentParser):
    commands = {}  # subcommand name -> its parser, on the root parser

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_args(self, args=None, namespace=None):
        # a subcommand's unknown options reach the root parser, whose usage
        # does not show that subcommand's options: report them on the subcommand
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
        return args


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(p):
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override one configuration key")


def build_parser():
    parser = _Parser(prog="crashcast",
                     description="collision-risk prediction: simulate, train, analyze")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("gen-data", help="simulate episodes and write a dataset file")
    _add_common(p)
    p.add_argument("--jobs", type=_positive_int,
                   help="worker processes simulating episodes (default one per core); "
                        "the output does not depend on it")
    p.add_argument("--out", required=True, help="output dataset path (.dpmd)")

    p = sub.add_parser("train", help="train a model on a dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path (.dpmw)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="metrics CSV (default: print only)")

    p = sub.add_parser("experiment", help="k-fold sweep over input modes or cameras")
    _add_common(p)
    p.add_argument("--jobs", type=_positive_int,
                   help="worker processes fitting folds (default one per core); "
                        "the output does not depend on it")
    p.add_argument("--data", required=True)
    p.add_argument("--sweep", choices=("input_mode", "camera"), required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("predict", help="stochastic forward passes for one sample")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--index", type=int, required=True, help="sample index in the dataset")
    p.add_argument("--sfp", type=_positive_int,
                   help="number of stochastic passes (default eval.sfp_passes)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("anova", help="mean/std and one-way ANOVA from a per-fold CSV")
    _add_common(p)
    p.add_argument("--folds", required=True, help="CSV with columns group,value")
    p.add_argument("--out", help="output CSV (default: print only)")

    p = sub.add_parser("inspect", help="per-class (and per-scenario) dataset counts")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output CSV (default: print only)")
    return parser


def _provenance(args, cfg, extra=None):
    out = {"seed": args.seed, "config_sha256": cfg.config_hash()}
    if getattr(args, "data", None):
        out["dataset_sha256"] = file_sha256(args.data)
    if extra:
        out.update(extra)
    return out


def _gen_episode(cfg, cams, world, sid, delay):
    """(label, windows) of the episode of scenario sid with the given delay."""
    episode = run_scenario(ScenarioSpec(sid, delay, dt=cfg.sim.dt,
                                        max_duration=cfg.sim.max_duration),
                           cams, world, cfg.data.horizon)
    frames = datamod.truncate_episode(episode)
    return episode.label, datamod.windowize(frames, cfg.data.seq_len, cfg.data.window_stride,
                                            label=episode.label)


def cmd_gen_data(args, cfg):
    world = cfgmod.world_config(cfg)
    cams = cfgmod.camera_specs(cfg)
    d_star = bisect_delay_threshold(1, world, dt=cfg.sim.dt,
                                    max_duration=cfg.sim.max_duration)
    lo = max(0.0, d_star - cfg.sim.delay_window)
    hi = d_star + cfg.sim.delay_window
    tasks = [(sid, float(delay)) for sid in cfg.sim.scenarios
             for delay in np.random.default_rng(mix64(args.seed, sid)).uniform(
                 lo, hi, cfg.sim.episodes_per_scenario)]
    results = fork_map(lambda task: _gen_episode(cfg, cams, world, *task), tasks, args.jobs)
    windows = [w for _label, w in results]
    if not sum(map(len, windows)):
        raise ValueError("generation produced no samples; check episode and window settings")

    samples, episode_ids, window_index = datamod.assemble_dataset(
        windows, rng_seed=mix64(args.seed, 999))
    datamod.serialize_dataset(samples, args.out)
    # per episode: scenario, label and window count
    scenario = np.array([sid for sid, _delay in tasks])
    label = np.array([episode_label for episode_label, _w in results])
    count = np.array([len(w) for w in windows])
    datamod.write_meta(episode_ids, scenario[episode_ids],
                       window_index * cfg.data.window_stride, args.out + ".meta.csv")

    n_coll = int(samples.label.sum())
    rows = []
    for sid in cfg.sim.scenarios:
        pick = scenario == sid
        rows.append([sid, int(pick.sum()), int(label[pick].sum()), int(count[pick].sum()),
                     int(count[pick] @ label[pick])])
    rows.append(["total", len(tasks), int(label.sum()), len(samples), n_coll])
    write_csv(args.out + ".gen.csv",
              ["scenario", "episodes", "collision_episodes", "samples", "collision_samples"],
              rows,
              _provenance(args, cfg, {"delay_threshold": repr(d_star),
                                      "dataset_sha256": file_sha256(args.out)}))
    print(f"wrote {len(samples)} samples ({n_coll} collision, "
          f"{len(samples) - n_coll} no-collision) from {len(tasks)} episodes "
          f"to {args.out}")
    print(f"delay threshold {d_star:.3f} s, sampling window [{lo:.3f}, {hi:.3f}] s")
    return 0


def _open_dataset(path, *net_configs):
    """The dataset at path, refused unless every given network config fits it."""
    dataset = datamod.deserialize_dataset(path)
    for net_config in net_configs:
        check_samples(net_config, dataset.samples.frames)
    return dataset


def cmd_train(args, cfg):
    net_config = cfgmod.network_config(cfg)
    dataset = _open_dataset(args.data, net_config)
    trainset, valset, _testset = datamod.split_samples(dataset.samples, cfg.data.split)
    if not len(trainset):
        raise ValueError("training split is empty; adjust data.split")
    params = init_params(net_config, seed=mix64(args.seed, 1))
    trained, report = train(params, net_config, cfg.train, trainset, valset, cfg.dropout,
                            rng_seed=mix64(args.seed, 2))
    save_checkpoint(args.out, net_config, trained)

    val_by_iter = dict(report.val_losses)
    rows = [[it, loss, val_by_iter.get(it, "")] for it, loss in report.losses]
    if 0 in val_by_iter:
        rows.insert(0, [0, "", val_by_iter[0]])
    write_csv(args.out + ".train.csv", ["iteration", "train_loss", "val_loss"], rows,
              _provenance(args, cfg, {
                  "data_split": _setting(cfg, "data.split"),
                  "stop_reason": report.stop_reason,
                  "final_iteration": report.final_iteration,
                  "best_iteration": report.best_iteration,
              }))
    series = {"train": [(it, loss) for it, loss in report.losses]}
    if report.val_losses:
        series["validation"] = report.val_losses
    svg_line_chart(args.out + ".loss.svg", series, title="cross-entropy loss")
    print(f"stopped by {report.stop_reason} at iteration {report.final_iteration} "
          f"(best validation at {report.best_iteration}); wall time {report.wall_time:.1f} s")
    print(f"checkpoint written to {args.out}")
    return 0


def _setting(cfg, key):
    """The canonical text of one config value, as config_hash() reads it."""
    return dict(cfg.items())[key]


def _check_training_split(args, cfg):
    """Refuse to score a model on a split other than the one it was trained with.

    train records data.split and the dataset hash in <model>.train.csv; when
    that file names the dataset being scored, a different split would mix
    training samples into the test part.
    """
    train_csv = args.model + ".train.csv"
    if not os.path.exists(train_csv):
        return
    prov, _header, _rows = read_csv(train_csv)
    trained = prov.get("data_split")
    split = _setting(cfg, "data.split")
    if (trained is not None and trained != split
            and prov.get("dataset_sha256") == file_sha256(args.data)):
        raise ValueError(f"data.split {split} differs from the data.split {trained} that "
                         f"trained {args.model} on this dataset ({train_csv}): its test "
                         f"part would hold training samples")


def cmd_eval(args, cfg):
    net_config, params = load_checkpoint(args.model)
    dataset = _open_dataset(args.data, net_config)
    _check_training_split(args, cfg)
    _trainset, _valset, testset = datamod.split_samples(dataset.samples, cfg.data.split)
    if not len(testset):
        raise ValueError("test split is empty; adjust data.split")
    counts = evaluate(params, net_config, testset, threshold=cfg.eval.threshold)
    acc = accuracy_of(counts)
    mcc = mcc_of(counts)
    rows = [[counts.tp, counts.tn, counts.fp, counts.fn, acc, mcc]]
    if args.out:
        write_csv(args.out, ["tp", "tn", "fp", "fn", "accuracy", "mcc"], rows,
                  _provenance(args, cfg, {"model": os.path.basename(args.model)}))
    print(f"test samples: {counts.total}  accuracy: {acc:.4f}  mcc: {mcc:.4f}  "
          f"(tp={counts.tp} tn={counts.tn} fp={counts.fp} fn={counts.fn})")
    return 0


def _experiment_groups(cfg, sweep):
    if sweep == "input_mode":
        return [(mode, cfgmod.network_config(cfg, input_mode=mode)) for mode in INPUT_MODES]
    return [(name, cfgmod.network_config(cfg, input_mode="images_only", cameras=cams))
            for name, cams in CAMERA_SWEEP]


def cmd_experiment(args, cfg):
    groups = _experiment_groups(cfg, args.sweep)
    dataset = _open_dataset(args.data, *(net_config for _name, net_config in groups))
    n = len(dataset.samples)
    if cfg.eval.fold_unit == "samples":
        units = np.arange(n)
    else:
        meta_path = args.data + ".meta.csv"
        if not os.path.exists(meta_path):
            raise ValueError(
                f"episode-level folding needs the sidecar {meta_path}; "
                f"regenerate the dataset or set eval.fold_unit=samples")
        units, _scenarios = datamod.read_meta(meta_path, n)
    fold_seed = mix64(args.seed, 3)
    folds = fold_assignment(units, cfg.eval.fold_k, fold_seed)
    os.makedirs(args.out, exist_ok=True)

    fold_rows = []
    summary_rows = []
    scores = {"accuracy": {}, "mcc": {}}  # metric -> group -> per-fold values
    for group, net_config in groups:
        counts = run_kfold(dataset.samples, folds, net_config, cfg.train, cfg.dropout,
                           cfg.eval.val_fraction, cfg.eval.threshold, fold_seed, args.jobs)
        accs = scores["accuracy"][group] = [accuracy_of(c) for c in counts]
        mccs = scores["mcc"][group] = [mcc_of(c) for c in counts]
        fold_rows += [[group, fold, acc, mcc] for fold, (acc, mcc) in enumerate(zip(accs, mccs))]
        acc_mean, acc_std = mean_std(accs)
        mcc_mean, mcc_std = mean_std(mccs)
        summary_rows.append([group, "accuracy", acc_mean, acc_std])
        summary_rows.append([group, "mcc", mcc_mean, mcc_std])
        print(f"{group}: accuracy {acc_mean:.4f} +/- {acc_std:.4f}  "
              f"mcc {mcc_mean:.4f} +/- {mcc_std:.4f}")

    anova_rows = []
    for metric, by_group in scores.items():
        res = anova_oneway(by_group)
        anova_rows.append([metric, res.f_value, res.p_value,
                           res.df_between, res.df_within, res.degenerate])
        print(f"ANOVA {metric}: F={res.f_value:.4f} p={res.p_value:.6f} "
              f"df=({res.df_between},{res.df_within})")

    prov = _provenance(args, cfg, {"sweep": args.sweep, "fold_unit": cfg.eval.fold_unit,
                                   "folds": cfg.eval.fold_k})
    write_csv(os.path.join(args.out, "folds.csv"),
              ["group", "fold", "accuracy", "mcc"], fold_rows, prov)
    write_csv(os.path.join(args.out, "summary.csv"),
              ["group", "metric", "mean", "std"], summary_rows, prov)
    write_csv(os.path.join(args.out, "anova.csv"),
              ["metric", "f_value", "p_value", "df_between", "df_within", "degenerate"],
              anova_rows, prov)
    svg_bar_chart(os.path.join(args.out, "mcc_means.svg"),
                  list(scores["mcc"]), [mean_std(v)[0] for v in scores["mcc"].values()],
                  title=f"mean MCC by {args.sweep}")
    return 0


def cmd_predict(args, cfg):
    net_config, params = load_checkpoint(args.model)
    dataset = _open_dataset(args.data, net_config)
    if not (0 <= args.index < len(dataset.samples)):
        raise ValueError(f"sample index {args.index} out of range "
                         f"[0, {len(dataset.samples)})")
    sample = dataset.samples[args.index]
    n = args.sfp if args.sfp is not None else cfg.eval.sfp_passes
    p = run_sfp(params, net_config, sample, cfg.dropout, n, rng_seed=args.seed)

    os.makedirs(args.out, exist_ok=True)
    prov = _provenance(args, cfg, {"model": os.path.basename(args.model),
                                   "sample_index": args.index, "passes": n})
    write_csv(os.path.join(args.out, "distribution.csv"),
              ["pass_index", "p_collision"],
              list(enumerate(p)), prov)
    counts = histogram(p, cfg.eval.bins)
    hist_rows = [[i / cfg.eval.bins, (i + 1) / cfg.eval.bins, int(c)]
                 for i, c in enumerate(counts)]
    write_csv(os.path.join(args.out, "histogram.csv"),
              ["bin_lo", "bin_hi", "count"], hist_rows, prov)
    fit = fit_gaussian(p)
    klass = classify_uncertainty(p, bins=cfg.eval.bins, sigma_lo=cfg.eval.sigma_lo,
                                 peak_mass_frac=cfg.eval.peak_mass_frac,
                                 valley_ratio=cfg.eval.valley_ratio).value
    write_csv(os.path.join(args.out, "stats.csv"),
              ["mean", "variance", "std", "class"],
              [[fit.mean, fit.variance, fit.std, klass]], prov)
    svg_bar_chart(os.path.join(args.out, "histogram.svg"),
                  [f"{i / cfg.eval.bins:.2f}" for i in range(cfg.eval.bins)],
                  [int(c) for c in counts],
                  title=f"{n} stochastic passes, sample {args.index} "
                        f"(label {sample.label})")
    print(f"sample {args.index} (label {sample.label}): mean p(collision) {fit.mean:.4f}, "
          f"std {fit.std:.4f}, class {klass}")
    return 0


def _read_groups(path):
    """group -> values of a group,value CSV; a bad line fails naming its file and line."""
    _prov, lines = read_csv_lines(path)
    lineno, header = lines[0] if lines else (1, [])
    if header[:2] != ["group", "value"]:
        raise ValueError(f"expected CSV columns group,value at {path}:{lineno}, got {header}")
    groups = {}
    for lineno, row in lines[1:]:
        if not row:
            continue
        try:
            value = float(row[1])
        except (IndexError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"bad row {row!r} at {path}:{lineno}; "
                             f"expected a group and a finite value")
        groups.setdefault(row[0], []).append(value)
    return groups


def cmd_anova(args, cfg):
    groups = _read_groups(args.folds)
    out_rows = []
    for name, values in groups.items():
        mean, std = mean_std(values)
        out_rows.append(["group", name, len(values), mean, std, "", "", "", "", ""])
        print(f"{name}: n={len(values)} mean={mean:.4f} std={std:.4f}")
    if len(groups) >= 2 and all(len(v) >= 2 for v in groups.values()):
        res = anova_oneway(groups)
        out_rows.append(["anova", "", "", "", "", res.f_value, res.p_value,
                         res.df_between, res.df_within, res.degenerate])
        print(f"ANOVA: F={res.f_value:.4f} p={res.p_value:.6f} "
              f"df=({res.df_between},{res.df_within})")
    if args.out:
        write_csv(args.out,
                  ["row_type", "group", "n", "mean", "std",
                   "f_value", "p_value", "df_between", "df_within", "degenerate"],
                  out_rows, _provenance(args, cfg))
    return 0


def cmd_inspect(args, cfg):
    dataset = datamod.deserialize_dataset(args.data)
    labels = dataset.samples.label
    n_coll = int(labels.sum())
    rows = [["all", len(labels), n_coll, len(labels) - n_coll]]
    meta_path = args.data + ".meta.csv"
    if os.path.exists(meta_path):
        _eids, scenarios = datamod.read_meta(meta_path, len(labels))
        for sid in sorted(set(scenarios.tolist())):
            pick = scenarios == sid
            rows.append([f"scenario_{sid}", int(pick.sum()),
                         int(labels[pick].sum()), int((pick & (labels == 0)).sum())])
    for row in rows:
        print(f"{row[0]}: samples={row[1]} collision={row[2]} no_collision={row[3]}")
    if args.out:
        write_csv(args.out, ["subset", "samples", "collision", "no_collision"], rows,
                  _provenance(args, cfg))
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "predict": cmd_predict,
    "anova": cmd_anova,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        cfg = cfgmod.load_config(args.config, args.overrides)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
