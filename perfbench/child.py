"""One fresh process of a benchmark run: a set-up probe or one round of commands.

    python3 perfbench/child.py setup <spec.json>
    python3 perfbench/child.py round <spec.json>

`setup` times what a new process pays before its first unit of work: the
crashcast import, config parsing and loading the workload's inputs (for
gen-data: the delay-threshold bisection). `round` runs CLI subcommands in
this process through `crashcast.cli.main`, timing each, with stdout captured
to files, and writes a JSON result. With a trace directory in the spec the
round runs traced. Only the standard library is imported before the clock
starts, so the numpy import counts as set-up.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_setup(spec):
    from crashcast import config as cfgmod
    from crashcast import data as datamod
    from crashcast.checkpoint import load_checkpoint
    from crashcast.sim import bisect_delay_threshold

    cfg = cfgmod.load_config(None, spec["overrides"])
    if spec["inputs"] == "bisect":
        bisect_delay_threshold(1, cfgmod.world_config(cfg), dt=cfg.sim.dt,
                               max_duration=cfg.sim.max_duration)
    else:
        datamod.deserialize_dataset(spec["data"])
        if spec.get("model"):
            load_checkpoint(spec["model"])
    return {"setup_s": time.perf_counter() - T_START}


def _cpu_s():
    """User + system CPU seconds of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_kb():
    """VmHWM of this process. Unlike ru_maxrss, which keeps the peak of the
    parent that spawned this process, it counts only this program's pages."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(spec):
    from crashcast import cli

    tracer = None
    if spec.get("trace_dir"):
        from spans import Tracer

        tracer = Tracer(spec["trace_dir"], spec["phase"])
        tracer.install()
    walls, cpu, codes = [], [], []
    for i, cmd in enumerate(spec["commands"]):
        with open(os.path.join(spec["out_dir"], f"stdout-{i}.txt"), "w") as out, \
                contextlib.redirect_stdout(out):
            c0 = _cpu_s()
            t0 = time.perf_counter()
            rc = cli.main(cmd["argv"])
            t1 = time.perf_counter()
        walls.append(t1 - t0)
        cpu.append(_cpu_s() - c0)
        codes.append(rc)
        if tracer is not None:
            argv = cmd["argv"]
            jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
            tracer.record(f"command.{cmd['name']}", t0, t1, {"jobs": jobs})
    if tracer is not None:
        tracer.flush("spans-main.jsonl")
    return {"walls": walls, "cpu": cpu, "codes": codes, "maxrss_kb": _peak_rss_kb()}


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_setup(spec) if mode == "setup" else run_round(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
