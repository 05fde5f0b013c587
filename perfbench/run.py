"""crashcast benchmark: gen-data, train/eval, predict and the camera sweep.

    python3 perfbench/run.py --workload gen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 20 [--workload train]

One run builds the workload's inputs from --seed, times set-up in fresh
processes, then runs whole rounds of the workload's CLI commands, each round
in a fresh process, until --seconds have passed. It checks the outputs and
prints, as its last line, one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced round (see
README.md). --steadiness N runs two independent sets of N untraced runs per
workload and reports, per metric, each set's median and quartiles and
whether the two agree within the metric's bound in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
RSS_POLL_S = 0.2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tree_rss_kb(root):
    """Summed resident set of `root` and its descendants, from /proc."""
    parent_of = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent_of[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        kids = [p for p, pp in parent_of.items() if pp in frontier and p not in tree]
        tree.update(kids)
        frontier = kids
    total = 0
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page_kb
        except OSError:
            pass
    return total


def run_child(mode, spec, work, forks=False):
    """Runs child.py in a fresh process; returns (result dict, peak RSS kB).

    The peak is the child's own high-water mark; for commands that fork workers
    (forks=True) it is at least the largest summed resident set of the child
    and its descendants, sampled from /proc while the child runs.
    """
    spec = dict(spec, result=os.path.join(work, f"result-{mode}.json"))
    spec_path = os.path.join(work, f"spec-{mode}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), mode, spec_path],
                            env=child_env(), cwd=ROOT)
    peak = 0
    try:
        while forks and proc.poll() is None:
            peak = max(peak, tree_rss_kb(proc.pid))
            time.sleep(RSS_POLL_S)
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child ({mode}) exited with {proc.returncode}")
    with open(spec["result"]) as fh:
        return json.load(fh), peak


def run_round(wl, tag, r, phase=None, trace_dir=None):
    """One round of wl's commands in a fresh process."""
    out = os.path.join(wl.work, f"round-{tag}")
    os.makedirs(out, exist_ok=True)
    cmds = wl.commands(r, out)
    spec = {"commands": [{"name": c.name, "argv": c.argv} for c in cmds], "out_dir": out,
            "trace_dir": trace_dir, "phase": phase}
    res, peak_kb = run_child("round", spec, out, forks=wl.forks)
    return {"tag": tag, "r": r, "out": out, "cmds": cmds, "walls": res["walls"],
            "cpu": res["cpu"], "codes": res["codes"], "peak_kb": max(peak_kb, res["maxrss_kb"])}


def digest_outputs(wl, rnd):
    h = hashlib.sha256()
    for rel in wl.outputs:
        with open(os.path.join(rnd["out"], rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_rounds(wl, rounds, same_inputs):
    """Output checks on every round (gen) or the first round and a digest
    comparison for the rest (identical inputs must give identical bytes)."""
    errors = []
    ok = [r for r in rounds if all(c == 0 for c in r["codes"])]
    if not ok:
        return ["no round completed"]
    if same_inputs:
        errors += wl.check(ok[0]["r"], ok[0]["out"])
        first = digest_outputs(wl, ok[0])
        if any(digest_outputs(wl, r) != first for r in ok[1:]):
            errors.append("rounds on the same inputs wrote different primary outputs")
    else:
        for r in ok:
            errors += wl.check(r["r"], r["out"])
    return errors


def counts(rounds):
    attempted = failed = 0
    for rnd in rounds:
        for cmd, code in zip(rnd["cmds"], rnd["codes"]):
            attempted += cmd.ops
            failed += cmd.ops if code != 0 else 0
    return attempted, failed


def end_to_end(wl, rounds, setup_times):
    ok = [r for r in rounds if all(c == 0 for c in r["codes"])] or rounds
    work = sum(c.work for r in ok for c in r["cmds"])
    busy = sum(w for r in ok for c, w in zip(r["cmds"], r["walls"]) if c.work)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(r["peak_kb"] for r in ok) / 1024.0, "MB"),
        "work_per_s": (work / busy, "1/s"),
        "round_s": (statistics.median(sum(r["walls"]) for r in ok), "s"),
    }


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_record(wl, args, attempted, failed, rounds):
    import numpy as np
    from crashcast import config as cfgmod

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_version,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(),
        "config_sha256": cfgmod.load_config(None, wl.config_overrides()).config_hash(),
        "attempted": attempted, "failed": failed,
        "rounds": [{"walls": r["walls"], "cpu_s": r["cpu"], "peak_kb": r["peak_kb"]}
                   for r in rounds],
    }


def run_once(args):
    import workloads
    from layers import LAYER_METRICS, OVERHEAD_METRIC, layer_metrics
    from spans import read_spans

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.make_inputs()
        same_inputs = args.workload != "gen"
        errors = []
        if not args.trace:
            setup_times = [run_child("setup", wl.setup_spec(), work)[0]["setup_s"]
                           for _ in range(SETUP_PROBES)]
            rounds = []
            t0 = time.perf_counter()
            while not rounds or time.perf_counter() - t0 < args.seconds:
                rounds.append(run_round(wl, len(rounds), len(rounds)))
            metrics = end_to_end(wl, rounds, setup_times)
        else:
            trace_dir = os.path.join(work, "trace")
            os.makedirs(trace_dir)
            # pairs of an untraced and a traced round on the same inputs, until
            # --seconds have passed; the overhead compares their medians
            plain, traced = [], []
            t0 = time.perf_counter()
            while not plain or time.perf_counter() - t0 < args.seconds:
                plain.append(run_round(wl, f"plain{len(plain)}", 0))
                traced.append(run_round(wl, f"traced{len(traced)}", 0, "main", trace_dir))
            run_round(workloads.Tail(args.seed, work), "tail", 0, "tail", trace_dir)
            rounds = plain + traced
            spans = read_spans(trace_dir)
            stops = {s["stop_reason"] for s in spans if s["name"] == "train"}
            if stops != {"max_iters"}:
                errors.append(f"training runs stopped by {sorted(stops)}, not only max_iters")
            found = layer_metrics(spans)
            metrics = {name: (found[name][0], unit) for name, (unit, _b, _f) in
                       LAYER_METRICS.items() if name in found}
            name, unit, _better = OVERHEAD_METRIC
            ratio = (statistics.median(sum(r["walls"]) for r in traced)
                     / statistics.median(sum(r["walls"]) for r in plain))
            metrics[name] = ((ratio - 1.0) * 100.0, unit)
            missing = [n for n in LAYER_METRICS if n not in found]
            if missing:
                errors.append(f"traced run produced no spans for {missing}")
        attempted, failed = counts(rounds)
        errors += check_rounds(wl, rounds, same_inputs or args.trace)
        for e in errors:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        print("# run-record " + json.dumps(run_record(wl, args, attempted, failed, rounds)))
        return {"correct": not errors, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def steadiness(args):
    """Two independent sets of untraced runs per workload; prints agreement."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    n = args.steadiness
    report = {}
    for wname in names:
        sets = []
        for base in (1, 1001):
            runs = []
            for seed in range(base, base + n):
                proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                                       wname, "--seed", str(seed), "--seconds",
                                       str(args.seconds), "--trace", "0"],
                                      cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"run {wname} seed {seed} exited {proc.returncode}")
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(f"{wname} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                      flush=True)
            sets.append(runs)
        report[wname] = {}
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            rows = []
            for runs in sets:
                q1, med, q3 = statistics.quantiles([r["metrics"][m]["value"] for r in runs], n=4)
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
            drift = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
            worse = drift if metric["better"] == "lower" else -drift
            agree = worse <= bound
            report[wname][m] = {"sets": rows, "drift": drift, "agree": agree, "bound": bound}
            print(f"{wname:8s} {m:14s} " + "  ".join(
                f"set{i + 1} med {r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] "
                f"spread {r['spread']:.3f}" for i, r in enumerate(rows))
                  + f"  drift {drift:+.3f} bound {bound} {'agree' if agree else 'DISAGREE'}",
                  flush=True)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"{wname:8s} failed share per set: {shares} "
              f"{'equal' if shares[0] == shares[1] else 'DIFFERENT'}", flush=True)
    print(json.dumps(report))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run two sets of N runs per workload and compare them")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crashcast", "__init__.py")):
        print(f"error: no crashcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.steadiness:
        return steadiness(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_once(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
