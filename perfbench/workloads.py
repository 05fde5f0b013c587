"""The four workloads: their inputs, the commands of one round, and their checks.

A round is a fixed list of CLI subcommands run in one fresh process. Rounds
of train, predict and sweep repeat the same inputs; gen rounds draw new
episode delays from (seed, round), because episode length, and so the cost
of an episode, depends on the delay, and a run should average over many.
"""

import contextlib
import os

import checks
from crashcast import config as cfgmod
from crashcast.checkpoint import save_checkpoint
from crashcast.cli import main as cli_main
from crashcast.dropout import mix64
from crashcast.network import init_params

# criterion-4 data settings: 32x32 images, all three cameras and four
# scenarios (the defaults), windows every 10 frames
C4_DATA = ("sim.image_size=32", "data.window_stride=10")

# at most floor(iterations / interval) validation checks happen, fewer than
# `patience`, so early stopping cannot fire and every run does fixed work
TRAIN_SETTINGS = ("train.max_iterations=2", "train.validation_interval=1", "train.patience=3")
SWEEP_SETTINGS = ("net.conv_filters=8,8", "net.conv_strides=2,1", "train.batch_size=16",
                  "train.learning_rate=0.002", "train.max_iterations=1",
                  "train.validation_interval=1", "train.patience=2", "eval.fold_k=2",
                  "eval.val_fraction=0.05")
SWEEP_GROUPS = 4
SWEEP_K = 2
SWEEP_JOBS = 2
TRAIN_BATCH = 32
TRAIN_ITERS = 2

GEN_EPISODES_PER_SCENARIO = 5
TRAIN_EPISODES_PER_SCENARIO = 3
PREDICT_EPISODES_PER_SCENARIO = 1
SWEEP_EPISODES_PER_SCENARIO = 1
PREDICT_PASSES = 50
ZERO_RATE_PASSES = 5
HIST_BINS = 20  # eval.bins default


def sets(*settings):
    out = []
    for s in settings:
        out += ["--set", s]
    return out


def gen_data_argv(seed, out, episodes_per_scenario):
    return ["gen-data", "--jobs", "1", "--seed", str(seed), "--out", out,
            *sets(*C4_DATA, f"sim.episodes_per_scenario={episodes_per_scenario}")]


def cli(argv):
    """Runs a subcommand in this process with its stdout discarded."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {argv[0]}")


class Command:
    def __init__(self, name, argv, ops, work=0):
        self.name, self.argv, self.ops, self.work = name, argv, ops, work


class Workload:
    name = ""
    outputs = ()  # primary outputs, relative to a round directory
    forks = False  # whether a round's commands start worker processes

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = work_dir
        self.data = os.path.join(work_dir, "input.dpmd")
        self.model = None

    def make_inputs(self):
        pass

    def setup_spec(self):
        return {"overrides": list(C4_DATA), "inputs": "dataset", "data": self.data,
                "model": self.model}

    def config_overrides(self):
        """The --set values of the primary command, for the run record's config hash."""
        return list(C4_DATA)

    def commands(self, r, out):
        raise NotImplementedError

    def check(self, r, out):
        raise NotImplementedError


class Gen(Workload):
    name = "gen"
    outputs = ("data.dpmd", "data.dpmd.meta.csv", "data.dpmd.gen.csv")

    def setup_spec(self):
        return {"overrides": list(C4_DATA), "inputs": "bisect"}

    def config_overrides(self):
        return [*C4_DATA, f"sim.episodes_per_scenario={GEN_EPISODES_PER_SCENARIO}"]

    def round_seed(self, r):
        return self.seed * 1000 + r

    def commands(self, r, out):
        episodes = 4 * GEN_EPISODES_PER_SCENARIO
        argv = gen_data_argv(self.round_seed(r), os.path.join(out, "data.dpmd"),
                             GEN_EPISODES_PER_SCENARIO)
        return [Command("gen-data", argv, ops=episodes, work=episodes)]

    def check(self, r, out):
        return checks.check_gen(os.path.join(out, "data.dpmd"))


class Train(Workload):
    name = "train"
    outputs = ("model.dpmw", "model.dpmw.train.csv", "eval.csv")

    def make_inputs(self):
        cli(gen_data_argv(self.seed, self.data, TRAIN_EPISODES_PER_SCENARIO))

    def config_overrides(self):
        return [*C4_DATA, *TRAIN_SETTINGS]

    def commands(self, r, out):
        model = os.path.join(out, "model.dpmw")
        common = ["--seed", str(self.seed), "--data", self.data, *sets(*C4_DATA)]
        return [
            Command("train", ["train", *common, "--out", model, *sets(*TRAIN_SETTINGS)],
                    ops=TRAIN_ITERS, work=TRAIN_BATCH * TRAIN_ITERS),
            Command("eval", ["eval", *common, "--model", model,
                             "--out", os.path.join(out, "eval.csv")], ops=1),
        ]

    def check(self, r, out):
        return checks.check_train(self.data, os.path.join(out, "model.dpmw"),
                                  os.path.join(out, "eval.csv"), TRAIN_ITERS, self.seed)


class Predict(Workload):
    name = "predict"
    outputs = ("pred/distribution.csv", "pred/histogram.csv", "pred/stats.csv")

    def make_inputs(self):
        cli(gen_data_argv(self.seed, self.data, PREDICT_EPISODES_PER_SCENARIO))
        self.model = os.path.join(self.work, "input.dpmw")
        net_config = cfgmod.network_config(cfgmod.load_config(None, C4_DATA))
        save_checkpoint(self.model, net_config, init_params(net_config, seed=mix64(self.seed, 1)))

    def predict_argv(self, out, passes, *extra):
        return ["predict", "--seed", str(self.seed), "--data", self.data, "--model", self.model,
                "--index", "0", "--sfp", str(passes), "--out", out, *sets(*C4_DATA, *extra)]

    def commands(self, r, out):
        return [Command("predict", self.predict_argv(os.path.join(out, "pred"), PREDICT_PASSES),
                        ops=PREDICT_PASSES, work=PREDICT_PASSES)]

    def check(self, r, out):
        zero = os.path.join(out, "pred-rate0")
        cli(self.predict_argv(zero, ZERO_RATE_PASSES, "dropout.rate=0"))
        return checks.check_predict(self.data, self.model, os.path.join(out, "pred"),
                                    PREDICT_PASSES, self.seed, HIST_BINS, zero, ZERO_RATE_PASSES)


class Sweep(Workload):
    name = "sweep"
    forks = True
    outputs = ("sweep/folds.csv", "sweep/summary.csv", "sweep/anova.csv")

    def make_inputs(self):
        cli(gen_data_argv(self.seed, self.data, SWEEP_EPISODES_PER_SCENARIO))

    def config_overrides(self):
        return [*C4_DATA, *SWEEP_SETTINGS]

    def experiment_argv(self, out, jobs):
        return ["experiment", "--seed", str(self.seed), "--data", self.data, "--sweep", "camera",
                "--jobs", str(jobs), "--out", out, *sets(*C4_DATA, *SWEEP_SETTINGS)]

    def commands(self, r, out):
        fits = SWEEP_GROUPS * SWEEP_K
        return [Command("experiment", self.experiment_argv(os.path.join(out, "sweep"),
                                                           SWEEP_JOBS), ops=fits, work=fits)]

    def check(self, r, out):
        jobs1 = os.path.join(out, "sweep-jobs1")
        cli(self.experiment_argv(jobs1, 1))
        return checks.check_sweep(os.path.join(out, "sweep"), SWEEP_K, SWEEP_GROUPS, jobs1)


WORKLOADS = {w.name: w for w in (Gen, Train, Predict, Sweep)}


class Tail(Workload):
    """Reduced runs of every command, traced after a workload's own round so
    that each per-layer metric is measured on every workload."""

    name = "tail"
    forks = True

    def commands(self, r, out):
        data = os.path.join(out, "tail.dpmd")
        model = os.path.join(out, "tail.dpmw")
        common = ["--seed", str(self.seed), "--data", data, *sets(*C4_DATA)]
        short = ("train.max_iterations=1", "train.validation_interval=1", "train.patience=2")
        return [
            Command("gen-data", gen_data_argv(self.seed, data, 1), ops=4),
            Command("train", ["train", *common, "--out", model, *sets(*short)], ops=1),
            Command("eval", ["eval", *common, "--model", model], ops=1),
            Command("predict", ["predict", *common, "--model", model, "--index", "0",
                                "--sfp", "10", "--out", os.path.join(out, "pred")], ops=10),
            Command("experiment", ["experiment", *common, "--sweep", "camera", "--jobs",
                                   str(SWEEP_JOBS), "--out", os.path.join(out, "sweep"),
                                   *sets(*SWEEP_SETTINGS, *short)], ops=SWEEP_GROUPS * SWEEP_K),
        ]
