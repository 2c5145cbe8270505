"""Span tracing of crossmae from outside the package.

`Tracer.install()` wraps the public functions named in `LAYERS` and patches
each wrapper into every `crossmae.*` namespace that bound the original, so a
call made through `from .model import encode` is seen as well as one made
through `model.encode`. Methods are patched on their class. Every patch is
undone on exit, including after an exception.

A span is (name, start, end, parent), kept in `array` columns so that a
long traced run costs 24 bytes per span.
"""
from array import array
import functools
import sys
from time import perf_counter

import numpy as np

# Public functions per layer. The tape primitives in TAPE_OTHER share one
# span, tape.other.
LAYERS = {
    "tape": ["matmul", "add", "slice_", "concat", "transpose", "scale", "softmax",
             "layernorm", "gelu", "mse"],
    "kernels": ["gelu_fwd", "gelu_bwd", "softmax_fwd", "softmax_bwd", "layernorm_fwd",
                "layernorm_bwd", "adamw_update"],
    "model": ["encode", "decode", "reconstruct", "mae_loss", "init_model",
              "save_checkpoint", "load_checkpoint"],
    "train": ["pretrain", "probe", "class_embeddings", "adamw_step"],
    "imputation": ["task_mask", "impute_model", "impute_linear", "impute_nearest",
                   "impute_chained", "score"],
    "kcca": ["sigma1_experiment", "pca_reduce", "cca_sigma"],
    "windows": ["generate_windows", "splice_augment", "patchify", "standardize",
                "load_dataset", "save_dataset"],
    "masking": ["sample_mask"],
    "cli": ["main"],
    "config": ["load_config"],
}
TAPE_OTHER = ["mul", "mean", "sum_", "log_softmax"]
# (module, class, method) -> span name; timed like functions.
METHODS = {("model", "Binding", "__init__"): "model.Binding",
           ("tape", "Tape", "backward"): "tape.backward"}


def span_names():
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    names += ["tape.other"] + list(METHODS.values())
    return names


def _per_layer_spec():
    """Ordered (name, unit) of every per-layer metric the traced run reports."""
    spec = [("tape.nodes", "count"), ("tape.nodes_per_window", "nodes/window"),
            ("tape.tapes", "count"), ("tape.leaves", "count"), ("tape.matmul.mflop", "Mflop")]
    timed = {layer: [f"{layer}.{fn}" for fn in fns] for layer, fns in LAYERS.items()}
    timed["tape"] += ["tape.other", "tape.backward"]
    timed["model"].append("model.Binding")
    for layer, names in timed.items():
        for name in names:
            spec += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        if layer == "train":
            spec += [("train.step_ms.p50", "ms"), ("train.step_ms.tail", "ms")]
        elif layer == "kcca":
            spec.append(("kcca.pca_reduce.mb_in", "MB"))
        elif layer == "cli":
            spec.append(("cli.out_bytes", "B"))
        spec.append((f"{layer}.self_s", "s"))
    spec += [("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio")]
    return spec


PER_LAYER = _per_layer_spec()
NODE_SPANS = [f"tape.{fn}" for fn in LAYERS["tape"]] + ["tape.other"]


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum, labelled 100, when there are fewer than eleven."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return float(xs[-1]), 100.0
    return float(xs[n - 11]), 100.0 * (n - 10) / n


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"tapes": 0, "leaves": 0}
        self.matmul_flop = 0
        self.pca_bytes_in = 0
        self.step_tail_pct = 0.0  # percentile and sample count of train.step_ms.tail
        self.step_n = 0
        self._patches = []

    # -- recording ------------------------------------------------------
    def _wrap(self, fn, span, on_call=None):
        sid = self._ids[span]
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(rec.name)
            rec.name.append(sid)
            rec.parent.append(rec._stack[-1])
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_matmul(self, args):
        (m, k), n = args[0].data.shape, args[1].data.shape[1]
        self.matmul_flop += 2 * m * k * n

    def _on_pca(self, args):
        self.pca_bytes_in += np.asarray(args[0]).nbytes

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Rebind every crossmae namespace entry that is `original`."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "crossmae" or modname.startswith("crossmae.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{original.__qualname__} is bound in no crossmae namespace")

    def install(self):
        import crossmae.cli  # noqa: F401  (loads every module that binds a name)
        mods = {layer: sys.modules[f"crossmae.{layer}"] for layer in LAYERS}
        hooks = {"tape.matmul": self._on_matmul, "kcca.pca_reduce": self._on_pca}
        for layer, fns in LAYERS.items():
            for fn in fns:
                span = f"{layer}.{fn}"
                original = getattr(mods[layer], fn)
                self._patch_everywhere(original, self._wrap(original, span, hooks.get(span)))
        for fn in TAPE_OTHER:
            original = getattr(mods["tape"], fn)
            self._patch_everywhere(original, self._wrap(original, "tape.other"))
        for (layer, cls_name, meth), span in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self._wrap(getattr(cls, meth), span))
        tape_cls = mods["tape"].Tape
        self._set(tape_cls, "__init__", self._count(tape_cls.__init__, "tapes"))
        self._set(tape_cls, "leaf", self._count(tape_cls.leaf, "leaves"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------
    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    def metrics(self, windows, untraced_round_s, traced_round_s, out_bytes):
        """Per-layer metrics, keyed as in PER_LAYER, from the recorded spans.

        windows: window visits made while tracing (the denominator of
        tape.nodes_per_window); *_round_s: median round time without and
        with tracing."""
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.s"] = float(total[i])
        layer_of = np.array([list(LAYERS).index(s.split(".")[0]) for s in self.names])
        layer_self = np.bincount(layer_of[name], weights=self_s, minlength=len(LAYERS))
        for j, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(layer_self[j])
        nodes = sum(out[f"{s}.calls"] for s in NODE_SPANS)
        out["tape.nodes"] = nodes
        out["tape.nodes_per_window"] = nodes / windows if windows else 0.0
        out["tape.tapes"] = self.counts["tapes"]
        out["tape.leaves"] = self.counts["leaves"]
        out["tape.matmul.mflop"] = self.matmul_flop / 1e6
        out["kcca.pca_reduce.mb_in"] = self.pca_bytes_in / 1e6
        out["cli.out_bytes"] = int(out_bytes)

        # Interval between consecutive adamw_step returns inside one training call.
        steps = np.flatnonzero(name == self._ids["train.adamw_step"])
        same_call = parent[steps][1:] == parent[steps][:-1]
        step_ms = np.diff(end[steps])[same_call] * 1e3
        out["train.step_ms.p50"] = float(np.median(step_ms)) if step_ms.size else 0.0
        out["train.step_ms.tail"], self.step_tail_pct = tail(step_ms)
        self.step_n = int(step_ms.size)

        # The share of cli.main time that a layer below cli accounts for. Time
        # in a function no span wraps is charged to its nearest traced caller,
        # and cli's own self time is where the unattributed time piles up.
        main_s = out["cli.main.s"]
        out["trace.coverage"] = 1.0 - out["cli.self_s"] / main_s if main_s else 0.0
        out["trace.overhead_frac"] = (traced_round_s / untraced_round_s - 1.0
                                      if untraced_round_s else 0.0)
        return {k: out[k] for k, _ in PER_LAYER}
