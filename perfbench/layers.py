"""Per-layer metrics from the spans of a traced run.

Each metric is computed from the spans of the workload's own round ("main")
when that round reaches the layer, and otherwise from the reduced runs of
every command that follow it ("tail"). Durations are inclusive of child
spans unless a metric subtracts them.
"""

STATS_FUNCTIONS = ("mean_std", "anova_oneway", "histogram", "fit_gaussian",
                   "classify_uncertainty")


def _dur(s):
    return s["t1"] - s["t0"]


def _total(spans):
    return sum(_dur(s) for s in spans)


class SpanSet:
    def __init__(self, spans, round_pids):
        self.spans = spans
        self.round_pids = round_pids
        self.by_key = {(s["pid"], s["id"]): s for s in spans}

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def parent(self, s):
        return self.by_key.get((s["pid"], s["parent"]))

    def children(self, s, name):
        return [c for c in self.spans if c["pid"] == s["pid"] and c["parent"] == s["id"]
                and c["name"] == name]

    def in_fold(self, s):
        """Spans of a k-fold run: in a pool worker, or under run_kfold."""
        if s["pid"] not in self.round_pids:
            return True
        p = self.parent(s)
        while p is not None:
            if p["name"] == "run_kfold":
                return True
            p = self.parent(p)
        return False


def _ratio(num, den, scale=1.0):
    return None if not den else num / den * scale


def _mean_ms(spans):
    return _ratio(_total(spans), len(spans), 1e3)


def sim_physics(S):
    runs = [s for s in S.named("run_scenario") if s["cams"] == 0]
    return _ratio(_total(runs), sum(s["frames"] for s in runs), 1e3)


def sim_render(S):
    return _mean_ms(S.named("render_camera"))


def _camera_runs(S):
    return [s for s in S.named("run_scenario") if s["cams"] > 0]


def _per_gen_command(total, S):
    # per gen-data invocation, so the count does not grow with the number of rounds
    return _ratio(total, len(S.named("command.gen-data"))) or None


def frames_rendered(S):
    return _per_gen_command(sum(s["frames"] for s in _camera_runs(S)), S)


def frames_kept(S):
    return _per_gen_command(sum(s["kept"] for s in S.named("truncate_episode")), S)


def frame_keep_ratio(S):
    return _ratio(frames_kept(S) or 0, frames_rendered(S))


def window_ms(S):
    cut = S.named("truncate_episode")
    return _ratio(_total(cut) + _total(S.named("windowize")), len(cut), 1e3)


def _mb_per_s(spans):
    return _ratio(sum(s["bytes"] for s in spans) / 1e6, _total(spans))


def dpmd_bytes(S):
    spans = S.named("serialize_dataset") or S.named("deserialize_dataset")
    return spans[-1]["bytes"] if spans else None


def inputs_ms(S):
    return _mean_ms([s for s in S.named("inputs_from_samples")
                     if (S.parent(s) or {}).get("name") == "dpm_gradients"])


def fwd_ms_per_sample(S):
    spans = [s for s in S.named("dpm_forward_batch")
             if (S.parent(s) or {}).get("name") == "evaluate"]
    return _ratio(_total(spans), sum(s["batch"] for s in spans), 1e3)


def fwd_bwd(S, cams=None):
    spans = S.named("dpm_gradients")
    if cams is not None:
        spans = [s for s in spans if s["cams"] == cams]
    return _mean_ms(spans)


def bwd_share(S):
    spans = S.named("dpm_gradients")
    fwd = sum(_total(S.children(s, "_forward_batch")) + _total(S.children(s, "inputs_from_samples"))
              for s in spans)
    return _ratio(_total(spans) - fwd, _total(spans))


def gflop_per_step(S):
    spans = S.named("dpm_gradients")
    return _ratio(sum(s["gflop"] for s in spans), len(spans))


def gflops_achieved(S):
    spans = S.named("dpm_gradients")
    return _ratio(sum(s["gflop"] for s in spans), _total(spans))


def pass_ms(S):
    return _mean_ms([s for s in S.named("dpm_forward")
                     if (S.parent(s) or {}).get("name") == "stochastic_forward"])


def step_ms(S):
    updates = S.named("apply_update")
    masks = [s for s in S.named("sample_masks") if (S.parent(s) or {}).get("name") == "train"]
    return _ratio(_total(masks) + _total(S.named("dpm_gradients")) + _total(updates),
                  len(updates), 1e3)


def _fold_spans(S):
    return ([s for s in S.named("train") if S.in_fold(s)],
            [s for s in S.named("evaluate") if S.in_fold(s)])


def fold_fit_s(S):
    trains, evals = _fold_spans(S)
    return _ratio(_total(trains) + _total(evals), len(evals))


def pool_busy(S):
    trains, evals = _fold_spans(S)
    experiments = S.named("command.experiment")
    return _ratio(_total(trains) + _total(evals),
                  sum(_dur(s) * s["jobs"] for s in experiments))


def analysis_ms(S):
    top = [s for s in S.spans if s["name"] in STATS_FUNCTIONS
           and (S.parent(s) or {}).get("name") not in STATS_FUNCTIONS]
    commands = [s for s in S.spans if s["name"] in ("command.experiment", "command.predict")]
    return _ratio(_total(top), len(commands), 1e3) if top else None


def ckpt_bytes(S):
    spans = S.named("save_checkpoint") or S.named("load_checkpoint")
    return spans[-1]["bytes"] if spans else None


# name -> (unit, better, function of a SpanSet returning a value or None)
LAYER_METRICS = {
    "sim.physics_ms_per_frame": ("ms", "lower", sim_physics),
    "sim.render_ms_per_camera_frame": ("ms", "lower", sim_render),
    "sim.frames_rendered": ("count", "lower", frames_rendered),
    "sim.frames_kept": ("count", "higher", frames_kept),
    "sim.frame_keep_ratio": ("ratio", "higher", frame_keep_ratio),
    "data.window_ms_per_episode": ("ms", "lower", window_ms),
    "data.serialize_mb_per_s": ("MB/s", "higher", lambda S: _mb_per_s(S.named("serialize_dataset"))),
    "data.deserialize_mb_per_s": ("MB/s", "higher",
                                  lambda S: _mb_per_s(S.named("deserialize_dataset"))),
    "data.dpmd_bytes": ("bytes", "lower", dpmd_bytes),
    "network.inputs_ms_per_batch": ("ms", "lower", inputs_ms),
    "network.fwd_ms_per_sample": ("ms", "lower", fwd_ms_per_sample),
    "network.fwd_bwd_ms_per_step": ("ms", "lower", fwd_bwd),
    "network.fwd_bwd_ms_per_step.cams1": ("ms", "lower", lambda S: fwd_bwd(S, 1)),
    "network.fwd_bwd_ms_per_step.cams3": ("ms", "lower", lambda S: fwd_bwd(S, 3)),
    "network.bwd_share": ("ratio", "lower", bwd_share),
    "network.gflop_per_step": ("GFLOP", "lower", gflop_per_step),
    "network.gflops_achieved": ("GFLOP/s", "higher", gflops_achieved),
    "network.pass_ms": ("ms", "lower", pass_ms),
    "dropout.sample_masks_ms": ("ms", "lower", lambda S: _mean_ms(S.named("sample_masks"))),
    "training.adam_ms_per_step": ("ms", "lower", lambda S: _mean_ms(S.named("apply_update"))),
    "training.step_ms": ("ms", "lower", step_ms),
    "training.fold_fit_s": ("s", "lower", fold_fit_s),
    "training.pool_busy_ratio": ("ratio", "higher", pool_busy),
    "checkpoint.save_ms": ("ms", "lower", lambda S: _mean_ms(S.named("save_checkpoint"))),
    "checkpoint.load_ms": ("ms", "lower", lambda S: _mean_ms(S.named("load_checkpoint"))),
    "checkpoint.dpmw_bytes": ("bytes", "lower", ckpt_bytes),
    "stats.analysis_ms": ("ms", "lower", analysis_ms),
    "report.sha256_mb_per_s": ("MB/s", "higher", lambda S: _mb_per_s(S.named("file_sha256"))),
}
OVERHEAD_METRIC = ("trace.overhead_pct", "%", "lower")


def layer_metrics(spans):
    """name -> (value, phase it came from) for every LAYER_METRICS entry."""
    phases = {}
    for ph in ("main", "tail"):
        mine = [s for s in spans if s["phase"] == ph]
        # command spans are recorded by a round's own process, not a pool worker
        pids = {s["pid"] for s in mine if s["name"].startswith("command.")}
        phases[ph] = SpanSet(mine, pids)
    out = {}
    for name, (_unit, _better, fn) in LAYER_METRICS.items():
        for ph in ("main", "tail"):
            value = fn(phases[ph])
            if value is not None:
                out[name] = (value, ph)
                break
    return out
