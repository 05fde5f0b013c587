"""Spans around calls into crashcast's public functions, recorded from outside.

Tracing replaces module attributes with timing wrappers; nothing under
``src/`` changes. Every crashcast module that imported a traced function by
name gets the wrapper too, so calls made inside the package are seen. Spans
stay in memory; a forked worker (the ``--jobs`` pools) appends its finished
top-level spans to ``spans-<pid>.jsonl`` in the trace directory, because pool
workers exit without running ``atexit`` handlers.
"""

import functools
import json
import os
import sys
import time

# (module, function) pairs wrapped in a traced run. `_forward_batch` is the
# one private name: it splits dpm_gradients into forward and backward.
TRACED = {
    "sim": ("run_scenario", "render_camera"),
    "data": ("truncate_episode", "windowize", "serialize_dataset", "deserialize_dataset"),
    "network": ("inputs_from_samples", "dpm_forward_batch", "dpm_forward", "dpm_gradients",
                "_forward_batch"),
    "dropout": ("sample_masks", "stochastic_forward"),
    "training": ("train", "evaluate", "apply_update", "run_kfold"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "stats": ("mean_std", "anova_oneway", "histogram", "fit_gaussian", "classify_uncertainty"),
    "report": ("file_sha256",),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _net_info(config, batch):
    return {"batch": batch, "cams": len(config.cameras), "gflop": step_gflop(config, batch)}


# name -> fn(args, kwargs, result) -> dict of counts stored on the span
_COUNTS = {
    "run_scenario": lambda a, k, r: {"frames": len(r.frames),
                                     "cams": len(_arg(a, k, 1, "cams", ()))},
    "truncate_episode": lambda a, k, r: {"kept": len(r)},
    "serialize_dataset": lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))},
    "deserialize_dataset": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "save_checkpoint": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "load_checkpoint": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "file_sha256": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "dpm_forward_batch": lambda a, k, r: {"batch": len(_arg(a, k, 2, "samples"))},
    "dpm_gradients": lambda a, k, r: _net_info(_arg(a, k, 1, "config"),
                                               len(_arg(a, k, 2, "samples"))),
    "train": lambda a, k, r: {"stop_reason": r[1].stop_reason},
}


def step_gflop(config, batch):
    """GEMM flops of one forward plus backward pass, computed from the config.

    Forward: each ConvLSTM step multiplies an im2col matrix by the stacked
    input and recurrent kernels; the state LSTM and the two dense layers are
    plain matrix products. Backward costs two such products (weights and
    inputs) per forward product. Elementwise gate arithmetic is not counted.
    """
    per_sample = 0
    for li, (q, r) in enumerate(config.layer_dims()):
        c_in = config.image_channels if li == 0 else config.conv_filters[li - 1]
        p = config.conv_filters[li]
        k = config.conv_kernels[li]
        steps = config.seq_len
        if any(not rs for rs in config.conv_return_sequences[:li]):
            steps = 1
        per_sample += len(config.cameras) * steps * 2 * q * r * k * k * (c_in + p) * 4 * p
    if config.has_state_branch:
        u, d = config.lstm_units, config.state_dim
        per_sample += config.seq_len * 2 * (d + u) * 4 * u
    per_sample += 2 * (config.merge_input_dim * config.merge_units + config.merge_units * 2)
    return 3 * per_sample * batch / 1e9


class Tracer:
    """Records spans (name, start, end, parent) for wrapped calls in this process."""

    def __init__(self, trace_dir, phase):
        self.trace_dir = trace_dir
        self.phase = phase
        self.main_pid = self.owner = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0

    def _own(self):
        # a forked worker inherits the parent's list; start afresh there
        pid = os.getpid()
        if pid != self.owner:
            self.owner = pid
            self.spans, self.stack = [], []
        return pid

    def record(self, name, start, end, counts=None):
        """Adds a span measured by the caller (used for whole commands)."""
        pid = self._own()
        self.next_id += 1
        self.spans.append({"id": self.next_id, "parent": self.stack[-1] if self.stack else 0,
                           "name": name, "t0": start, "t1": end, "pid": pid,
                           "phase": self.phase, **(counts or {})})

    def wrap(self, name, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = self._own()
            self.next_id += 1
            span = {"id": self.next_id, "parent": self.stack[-1] if self.stack else 0,
                    "name": name, "pid": pid, "phase": self.phase}
            self.stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span.update(count(args, kwargs, result))
            self.spans.append(span)
            if not self.stack and pid != self.main_pid:
                self.flush(f"spans-{pid}.jsonl")
            return result

        return traced

    def install(self):
        """Wraps every TRACED function in its module and wherever it was imported."""
        import crashcast  # noqa: F401  (loads the package modules)

        pkg = {n: m for n, m in sys.modules.items()
               if n == "crashcast" or n.startswith("crashcast.")}
        for mod_name, names in TRACED.items():
            home = pkg[f"crashcast.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(name, original)
                for module in pkg.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def flush(self, filename):
        with open(os.path.join(self.trace_dir, filename), "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def read_spans(trace_dir):
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans
