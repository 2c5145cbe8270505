"""Command-line front end: reproducible runs of the five pipelines.

Every run resolves a flat key=value config against per-command defaults
(unknown keys rejected); a default that sets a dataclass field is that
field's default. A command loads its inputs, builds every object it needs
and runs every check before it creates the output directory: a bad setting
raises a ManifestError `<config path>: key <key>: <message>`. It then writes
the resolved config, a versioned format tag naming the command and the
crossmae, Python and numpy versions there, and outputs that are
byte-identical across reruns of the same resolved config on one host. A
directory whose format tag names another command is refused before anything
is written. Each command declares the files it writes (COMMANDS, RUN_FILES),
and a run removes those an earlier run left before it writes its config. A
command that fails after that writes its error's message to error.txt there
and raises.
Each pipeline gets its dataset whole: one (n, C, L) array of windows and one
(n,) array of labels. The console script runs console, which prints the
message of a failure it can name instead of a traceback.
"""
import argparse
import contextlib
import os
import platform
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import __version__
from .config import (BLOB_NAME, MANIFEST_NAME, ManifestError, array_fault, checked,
                     format_kv_lines, load_config, read_text)
from .imputation import (METHODS, TASKS, MissingnessTask, _sample_mask_array,
                         impute_chained, impute_linear, impute_model,
                         impute_nearest, score, task_mask)
from .kcca import ConditioningError, sigma1_experiment
from .masking import CROSS, SYNC, sample_mask
from .model import (FORWARD_CHUNK, GRADCHECK_MASK_RATIO, ArchSpec, _hold_heap, gradcheck_model,
                    load_checkpoint, param_count, save_checkpoint)
from .train import OptimConfig, PretrainConfig, ProbeConfig, _split_indices, pretrain, probe
from .windows import (SynthSpec, cut_splice, draw_splice, generate_windows, load_dataset,
                      save_dataset, standardize)

RUN_FORMAT = "crossmae-run-v1"
CONFIG_NAME = "config.txt"
FORMAT_NAME = "format.txt"
RUN_NAME = "run.txt"
ERROR_NAME = "error.txt"
CHECKPOINT_DIR = "checkpoint"
# The files every command's run directory holds: the record Run.start writes,
# and the error of a failed run.
RUN_FILES = (CONFIG_NAME, FORMAT_NAME, RUN_NAME, ERROR_NAME)
# The most float64 values (1 GiB) that one array a config sizes may hold (see
# _check_sizes): a run must not outgrow a desk machine's memory.
MAX_ARRAY_VALUES = 2**27
# A window's SeedSequence, spawned one per window or transition, holds about
# 512 B, which _check_sizes counts as 64 float64 values.
SEED_VALUES = 64
# gradcheck fails, after writing gradcheck.txt, unless max_rel_err lies below
# this: acceptance criterion 01's bound
GRADCHECK_TOL = 1e-3


def _keys(cls, prefix: str, **named) -> dict:
    """The config key of each field of cls: prefix + its name, unless named."""
    return {f.name: named.get(f.name, prefix + f.name) for f in fields(cls) if f.init}


SYNTH_KEYS = _keys(SynthSpec, "data.", shared_latent_strength="data.strength", seed="seed")
ARCH_KEYS = _keys(ArchSpec, "arch.")
OPTIM_KEYS = _keys(OptimConfig, "optim.")
PRETRAIN_KEYS = {"policy": "mask.policy", "mask_ratio": "mask.ratio",
                 "augment_prob": "augment.prob", "matched_start": "augment.matched_start",
                 "masked_only_loss": "loss.masked_only"}
PROBE_KEYS = _keys(ProbeConfig, "probe.")
TASK_KEYS = {"ratio": "task.ratio"}


def _defaults(cls, keys: dict) -> dict:
    """{key: default} of every field of cls that keys maps and that has a default."""
    return {keys[f.name]: f.default for f in fields(cls)
            if f.name in keys and f.default is not MISSING}


SYNTH_DEFAULTS = {"data.n_windows": 200, "data.n_modalities": 6, "data.n_samples": 200,
                  "data.n_classes": 4, "data.strength": 0.9, "data.noise_sd": 0.3, "seed": 0}
PRETRAIN_DEFAULTS = {"data.dir": "", "resume": "", "arch.patch_len": 8,
                     **_defaults(ArchSpec, ARCH_KEYS), **_defaults(PretrainConfig, PRETRAIN_KEYS),
                     **_defaults(OptimConfig, OPTIM_KEYS), "seed": 0}
IMPUTE_DEFAULTS = {"data.dir": "", "checkpoint": "", **_defaults(MissingnessTask, TASK_KEYS),
                   "chained.sweeps": 3, "seed": 0}
PROBE_DEFAULTS = {"data.dir": "", "checkpoint": "", **_defaults(ProbeConfig, PROBE_KEYS),
                  "seed": 0}
ANALYZE_DEFAULTS = {**SYNTH_DEFAULTS, "data.noise_sd": 1.0, "exp.n_transitions": 200,
                    "exp.patch_len": 20, "exp.mask_ratio": 0.15, "exp.pca_k": 50,
                    "exp.n_seeds": 5, "exp.encoder": "raw_flatten", "exp.checkpoint": ""}
GRADCHECK_DEFAULTS = {"arch.n_modalities": 3, "arch.n_patches": 4, "arch.patch_len": 6,
                      **_defaults(ArchSpec, ARCH_KEYS), "check.h": 1e-4, "check.max_coords": 6,
                      "seed": 0}


def _fmt(x) -> str:
    return repr(float(x))


@dataclass
class Run:
    """One command's resolved settings, the config they came from (or
    `<defaults>`) and its output directory."""
    command: str
    cfg: dict
    source: str
    out_dir: str
    started: bool = False

    def error(self, key: str, message: str) -> ManifestError:
        """The error of the setting at key; a value left at its default says so."""
        if self.cfg[key] == COMMANDS[self.command][0][key]:
            message += f" ({format_kv_lines({key: self.cfg[key]}).strip()} is the default)"
        return ManifestError(f"{self.source}: key {key}: {message}")

    def check(self, key: str, fn, *args):
        """fn(*args); its ValueError becomes an error of key."""
        try:
            return fn(*args)
        except ValueError as exc:
            raise self.error(key, str(exc)) from None

    def build(self, cls, keys: dict, **fixed):
        """cls built from fixed and from the setting that keys names for each
        other field. A failed check is an error of the key of the field that
        its message starts with; fixed values must be valid already."""
        try:
            return cls(**{name: self.cfg[key] for name, key in keys.items()
                          if key in self.cfg}, **fixed)
        except ValueError as exc:
            raise self.error(keys[str(exc).split()[0]], str(exc)) from None

    def at_least(self, key: str, least: int) -> int:
        if self.cfg[key] < least:
            raise self.error(key, f"must be at least {least}, got {self.cfg[key]}")
        return self.cfg[key]

    def load(self, key: str, loader, *args):
        """loader(path, *args) for the path at key; a path that names
        nothing is an error of key."""
        path = self.cfg[key]
        if not path:
            raise self.error(key, "no path given")
        try:
            return loader(path, *args)
        except FileNotFoundError as exc:
            raise self.error(key, f"no such file or directory: {exc.filename!r}") from None

    def checkpoint(self, key: str, n_modalities: int, n_samples: int, *passes):
        """The model state saved at the path at key, for windows of
        n_modalities x n_samples. A patch grid that does not fit them is an
        error of the checkpoint's manifest. Its arch is bounded for each of
        passes, (per, batch key, windows) as _arch_arrays takes them, with
        every arch factor under key."""
        state = self.load(key, load_checkpoint)
        arch = state.arch
        if n_modalities != arch.n_modalities or n_samples // arch.patch_len != arch.n_patches:
            raise ManifestError(
                f"{os.path.join(self.cfg[key], MANIFEST_NAME)}: dataset {n_modalities}x"
                f"{n_samples} does not fit checkpoint grid {arch.n_modalities}x"
                f"{arch.n_patches}x{arch.patch_len} (n_modalities x n_patches x patch_len)")
        for per, batch_key, n in passes:
            _check_sizes(self, *_arch_arrays(arch, (batch_key, n), per,
                                             **{f.name: key for f in fields(ArchSpec)}))
        return state

    def claim_out(self) -> None:
        """Refuse an output directory that holds another command's run: a
        format.txt there that does not name this command is a ManifestError.
        A rerun of the same command, or a directory with no format.txt, passes;
        a format.txt that is not UTF-8 is a ManifestError (config.read_text)."""
        path = os.path.join(self.out_dir, FORMAT_NAME)
        try:
            lines = read_text(path).splitlines()
        except (FileNotFoundError, NotADirectoryError):
            return
        held = next((line.partition("=")[2] for line in lines if line.startswith("command=")),
                    "unknown")
        if held != self.command:
            raise ManifestError(f"{path}: the directory holds a run of command {held}; "
                                f"{self.command} will not write into it")

    def start(self) -> None:
        """Create the output directory and record the config, the format and
        the versions that ran it. Every file the command declares (RUN_FILES
        and its outputs in COMMANDS) that an earlier run left there is removed
        first, so the directory never mixes two runs' files."""
        os.makedirs(self.out_dir, exist_ok=True)
        self.started = True
        for name in RUN_FILES + COMMANDS[self.command][2]:
            with contextlib.suppress(FileNotFoundError, NotADirectoryError):
                os.remove(os.path.join(self.out_dir, name))
        self.write(CONFIG_NAME, format_kv_lines(self.cfg))
        self.write(FORMAT_NAME, f"{RUN_FORMAT}\ncommand={self.command}\n")
        self.write(RUN_NAME, f"crossmae={__version__}\npython={platform.python_version()}\n"
                             f"numpy={np.__version__}\n")

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write(text)


def _curve(trace: list) -> str:
    return "epoch,loss\n" + "".join(f"{epoch},{_fmt(value)}\n"
                                    for epoch, value in enumerate(trace))


def _n_patches(run: Run, key: str, length: int) -> int:
    """Patches of the patch length at key in a window of length samples."""
    patch_len = run.cfg[key]
    if not 1 <= patch_len <= length:
        raise run.error(key, f"must lie in [1, {length}], got {patch_len}")
    return length // patch_len


def _check_sizes(run: Run, *arrays) -> None:
    """Reject settings that size an array past MAX_ARRAY_VALUES. Each array is
    (what, size, [(key, factor), ...]); the error names the largest factor's key."""
    for what, size, factors in arrays:
        if size > MAX_ARRAY_VALUES:
            key = max(factors, key=lambda kf: kf[1])[0]
            raise run.error(key, f"{size} {what} exceed the limit of {MAX_ARRAY_VALUES}")


def _arch_arrays(arch: ArchSpec, batch: tuple, per: str = "step", **named) -> tuple:
    """For _check_sizes: a window's patch grid, the attention scores, one MLP
    weight and the parameters of arch, and the attention scores and MLP
    activations of one training step or frozen pass (per) of batch, (key,
    windows); each arch factor under its key (arch.<field>, unless named)."""
    keys = _keys(ArchSpec, "arch.", **named)

    def factors(*names):
        return [(keys[name], getattr(arch, name)) for name in names]
    rows = arch.n_tokens + 1
    n = batch[1]
    return (("window values C x P x L_p", arch.n_tokens * arch.patch_len,
             factors("n_modalities", "n_patches", "patch_len")),
            ("attention scores n_heads x (C x P + 1)^2", arch.n_heads * rows ** 2,
             factors("n_modalities", "n_patches", "n_heads")),
            ("MLP weight values d_model x d_model * mlp_ratio",
             arch.d_model ** 2 * arch.mlp_ratio, factors("d_model", "mlp_ratio")),
            ("parameter values", param_count(arch),
             factors("enc_layers", "dec_layers", "d_model", "mlp_ratio", "patch_len")),
            (f"{per} attention scores batch x n_heads x (C x P + 1)^2",
             n * arch.n_heads * rows ** 2,
             [batch, *factors("n_modalities", "n_patches", "n_heads")]),
            (f"{per} MLP activations batch x (C x P + 1) x d_model * mlp_ratio",
             n * rows * arch.d_model * arch.mlp_ratio,
             [batch, *factors("n_modalities", "n_patches", "d_model", "mlp_ratio")]))


def _window_arrays(spec: SynthSpec, *sets) -> tuple:
    """For _check_sizes: the values of each set (what, key, n) of n windows
    shaped as spec's, n set at key, then the sets' seeds, one per window."""
    values = [(f"{what} values {key.split('.')[-1]} x n_modalities x n_samples",
               n * spec.n_modalities * spec.n_samples,
               [(key, n), ("data.n_modalities", spec.n_modalities),
                ("data.n_samples", spec.n_samples)]) for what, key, n in sets]
    seeds = [(f"seed values {key.split('.')[-1]} x {SEED_VALUES}", n * SEED_VALUES, [(key, n)])
             for _, key, n in sets]
    return (*values, *seeds)


def cmd_synth(run: Run) -> None:
    spec = run.build(SynthSpec, SYNTH_KEYS)
    _check_sizes(run, *_window_arrays(spec, ("dataset", "data.n_windows", spec.n_windows)))
    values, labels = generate_windows(spec)
    # save_dataset creates the directory only once the dataset passes its checks;
    # of the settings, only the noise scale can push a value past float32
    run.check("data.noise_sd", save_dataset, run.out_dir, values, labels, spec.n_classes)
    run.start()
    print(f"wrote {len(values)} windows to {run.out_dir}")


def cmd_pretrain(run: Run) -> None:
    cfg = run.cfg
    pcfg = run.build(PretrainConfig, PRETRAIN_KEYS, optim=run.build(OptimConfig, OPTIM_KEYS))
    values, _, _ = run.load("data.dir", load_dataset)
    arch = run.build(ArchSpec, ARCH_KEYS, n_modalities=values.shape[1],
                     n_patches=_n_patches(run, "arch.patch_len", values.shape[2]))
    # a step holds min(batch_size, n) windows: the dataset's size when it is the smaller
    batch_size = pcfg.optim.batch_size
    batch = (("optim.batch_size", batch_size) if batch_size <= len(values)
             else ("data.dir", len(values)))
    _check_sizes(run, *_arch_arrays(arch, batch, n_modalities="data.dir",
                                    n_patches="arch.patch_len"))
    run.check("mask.ratio", sample_mask, pcfg.policy, arch.n_modalities, arch.n_patches,
              pcfg.mask_ratio, 0)
    init_state = run.load("resume", load_checkpoint) if cfg["resume"] else None
    if init_state is not None and init_state.arch != arch:
        raise run.error("resume", f"checkpoint arch {init_state.arch} does not match "
                                  f"run arch {arch}")
    run.start()
    state, trace = pretrain(values, arch, pcfg, cfg["seed"], init_state=init_state)
    # train._step stops a parameter float32 cannot hold; the writer checks again
    checkpoint = os.path.join(run.out_dir, CHECKPOINT_DIR)
    checked(checkpoint, save_checkpoint, state, checkpoint)
    run.write("loss.csv", _curve(trace))
    final = _fmt(trace[-1]) if trace else "nan"
    run.write("summary.txt", f"final_loss={final}\n")
    print(f"pretrained {pcfg.optim.epochs} epochs, final loss {final}")


def cmd_impute(run: Run) -> None:
    cfg = run.cfg
    tasks = [run.build(MissingnessTask, TASK_KEYS, kind=kind) for kind in TASKS]
    raw, _, _ = run.load("data.dir", load_dataset)
    state = run.checkpoint("checkpoint", *raw.shape[1:],
                           ("pass", "data.dir", min(FORWARD_CHUNK, len(raw))))
    arch = state.arch
    for task in tasks:  # one throwaway draw each, for the checks that need the grid
        run.check("task.ratio", task_mask, task, arch.n_modalities, arch.n_patches, 0)
    # impute_chained's own sweeps check, on one fully visible window: it fills nothing
    run.check("chained.sweeps", impute_chained, raw[:1], np.zeros(raw[:1].shape, dtype=bool),
              cfg["chained.sweeps"])
    run.start()
    values = standardize(raw)
    rows = []
    for t_idx, task in enumerate(tasks):
        rng = np.random.default_rng([cfg["seed"], t_idx])
        masks = np.stack([task_mask(task, arch.n_modalities, arch.n_patches, rng)
                          for _ in values])
        smasks = _sample_mask_array(masks, arch.patch_len, raw.shape[2])
        filled = {
            "model": impute_model(state, values, masks),
            "linear": impute_linear(values, smasks),
            "nearest": impute_nearest(values, smasks),
            "chained": impute_chained(values, smasks, sweeps=cfg["chained.sweeps"]),
        }
        ratio_txt = "NA" if task.kind == "sensor" else _fmt(task.ratio)
        for method in METHODS:
            sc = score(filled[method], values, smasks)
            rows.append(f"{task.kind},{method},{ratio_txt},{_fmt(sc.mae)},{_fmt(sc.mse)},"
                        f"{len(values)},{cfg['seed']}\n")
    run.write("report.csv", "task,method,ratio,mae,mse,n_windows,seed\n" + "".join(rows))
    print(f"imputation report: {len(rows)} rows over {len(values)} windows")


def cmd_probe(run: Run) -> None:
    cfg = run.cfg
    pcfg = run.build(ProbeConfig, PROBE_KEYS)
    values, labels, n_classes = run.load("data.dir", load_dataset)
    if (labels < 0).any():
        fault = array_fault("labels", np.flatnonzero(labels < 0)[:1],
                            "-1, an unlabeled window; probe needs a fully labeled dataset")
        raise ManifestError(f"{os.path.join(cfg['data.dir'], BLOB_NAME)}: {fault}")
    tr, va = run.check("data.dir", _split_indices, len(values), pcfg.train_fraction,
                       np.random.default_rng(0))
    if pcfg.mode == "lp":  # every window through the frozen encoder
        passes = [("pass", "data.dir", min(FORWARD_CHUNK, len(values)))]
    else:  # minibatch steps on the training windows, then the validation windows frozen
        passes = [("step", "data.dir", min(pcfg.optim.batch_size, len(tr))),
                  ("pass", "data.dir", min(FORWARD_CHUNK, len(va)))]
    state = run.checkpoint("checkpoint", *values.shape[1:], *passes)
    run.start()
    res = probe(state, values, labels, n_classes, pcfg, cfg["seed"])
    run.write("curve.csv", _curve(res.trace))
    run.write("summary.txt", f"top1={_fmt(res.top1)}\n"
                             f"final_loss={_fmt(res.trace[-1]) if res.trace else 'nan'}\n"
                             f"train_size={res.train_size}\nval_size={res.val_size}\n")
    print(f"{pcfg.mode} top-1 {res.top1:.4f} on {res.val_size} held-out windows")


def _transitions(spec: SynthSpec, rng, n: int) -> np.ndarray:
    """The (n, C, L) transitions of one analyze replicate: n splices drawn
    from rng over spec's base windows (draw_splice), cut from those windows.
    Only the distinct windows the splices read are generated; each equals
    that row of the full set (generate_windows)."""
    plans = [draw_splice(spec.n_windows, spec.n_samples, rng) for _ in range(n)]
    sources, at = np.unique([plan[:2] for plan in plans], return_inverse=True)
    base, _ = generate_windows(spec, sources)
    return np.stack([cut_splice(base[a], base[b], *plan[2:])
                     for (a, b), plan in zip(at.reshape(n, 2).tolist(), plans)])


def cmd_analyze(run: Run) -> None:
    cfg = run.cfg
    # PCA of one transition keeps min(n, q) - 1 = 0 dimensions
    n_trans = run.at_least("exp.n_transitions", 2)
    pca_k = run.at_least("exp.pca_k", 1)
    n_seeds = run.at_least("exp.n_seeds", 1)
    spec = run.build(SynthSpec, SYNTH_KEYS)
    _check_sizes(run, *_window_arrays(spec, ("dataset", "data.n_windows", spec.n_windows),
                                      ("transition", "exp.n_transitions", n_trans)))
    if cfg["exp.encoder"] == "raw_flatten":
        state = None
        n_patches = _n_patches(run, "exp.patch_len", spec.n_samples)
    elif cfg["exp.encoder"] == "model_encoder":
        state = run.checkpoint("exp.checkpoint", spec.n_modalities, spec.n_samples,
                               ("pass", "exp.n_transitions", min(FORWARD_CHUNK, n_trans)))
        n_patches = state.arch.n_patches
        # each view's features; its PCA Gram is no larger
        _check_sizes(run, ("view features n_transitions x d_model", n_trans * state.arch.d_model,
                           [("exp.n_transitions", n_trans),
                            ("exp.checkpoint", state.arch.d_model)]))
    else:
        raise run.error("exp.encoder", f"must be raw_flatten or model_encoder, "
                                       f"got {cfg['exp.encoder']!r}")
    for policy in (CROSS, SYNC):
        run.check("exp.mask_ratio", sample_mask, policy, spec.n_modalities, n_patches,
                  cfg["exp.mask_ratio"], 0)
    # one throwaway splice draw over each replicate's base windows, for its size check
    run.check("data.n_windows", draw_splice, spec.n_windows, spec.n_samples, 0)
    run.start()
    rows = []
    sums = {CROSS: 0.0, SYNC: 0.0}
    for s in range(n_seeds):
        replicate = cfg["seed"] + s
        trans = _transitions(replace(spec, seed=replicate),
                             np.random.default_rng([cfg["seed"] + 1000 + s]), n_trans)
        try:
            sigma1 = sigma1_experiment(trans, state, pca_k=pca_k, seed=cfg["seed"] + 31 + s,
                                       ratio=cfg["exp.mask_ratio"],
                                       patch_len=cfg["exp.patch_len"])
        except (ValueError, ConditioningError) as exc:
            # a channel's variance or a PCA Gram of such windows overflows
            with np.errstate(over="ignore"):
                if np.isfinite(np.einsum("ijk,ijk->", trans, trans)):
                    raise
            raise run.error("data.noise_sd", f"the transitions' sum of squares "
                                             f"overflows: {exc}") from None
        for policy in (CROSS, SYNC):
            sums[policy] += sigma1[policy]
            rows.append(f"{policy},{replicate},{n_trans},{pca_k},"
                        f"{cfg['exp.encoder']},{_fmt(sigma1[policy])}\n")
    run.write("sigma1.csv", "policy,seed,n,pca_k,encoder_kind,sigma1\n" + "".join(rows))
    mean_cross = sums[CROSS] / n_seeds
    mean_sync = sums[SYNC] / n_seeds
    run.write("summary.txt", f"mean_sigma1_cross={_fmt(mean_cross)}\n"
                             f"mean_sigma1_sync={_fmt(mean_sync)}\n"
                             f"mean_gap={_fmt(mean_cross - mean_sync)}\n")
    print(f"sigma1 cross {mean_cross:.4f} vs sync {mean_sync:.4f} "
          f"(gap {mean_cross - mean_sync:+.4f}) over {n_seeds} seeds")


def cmd_gradcheck(run: Run) -> None:
    cfg = run.cfg
    max_coords = run.at_least("check.max_coords", 1)
    if not cfg["check.h"] > 0:
        raise run.error("check.h", f"must be positive, got {cfg['check.h']!r}")
    if not np.isfinite(cfg["check.h"]):
        raise run.error("check.h", f"must be finite, got {cfg['check.h']!r}")
    arch = run.build(ArchSpec, ARCH_KEYS)
    # a group's bumped evaluations run as one pass of two windows per coordinate
    batch = ("check.max_coords", min(2 * max_coords, FORWARD_CHUNK))
    _check_sizes(run, *_arch_arrays(arch, batch, "pass"))
    # gradcheck_model's mask must hide a patch and leave one visible
    run.check("arch.n_patches", sample_mask, CROSS, arch.n_modalities, arch.n_patches,
              GRADCHECK_MASK_RATIO, 0)
    # That pass binds one copy of a group per window, and the largest group is
    # an MLP weight or the embedding's or head's weight; it then reconstructs
    # every window.
    d, patch_len = arch.d_model, arch.patch_len
    mlp_weight, patch_weight = d * d * arch.mlp_ratio, patch_len * d
    if mlp_weight >= patch_weight:
        largest = [("arch.d_model", d), ("arch.mlp_ratio", arch.mlp_ratio)]
    else:
        largest = [("arch.patch_len", patch_len), ("arch.d_model", d)]
    _check_sizes(run, ("bumped parameter values batch x max(d_model x d_model * mlp_ratio, "
                       "patch_len x d_model)", batch[1] * max(mlp_weight, patch_weight),
                       [batch, *largest]),
                 ("pass window values batch x C x P x L_p", batch[1] * arch.n_tokens * patch_len,
                  [batch, ("arch.n_modalities", arch.n_modalities),
                   ("arch.n_patches", arch.n_patches), ("arch.patch_len", patch_len)]))
    run.start()
    err, group = run.check("check.h", gradcheck_model, arch, cfg["seed"], cfg["check.h"],
                           max_coords)
    failed = (f"{run.source}: key check.h: {cfg['check.h']!r} gives "
              f"max_rel_err={_fmt(err)} in group {group}")
    if not np.isfinite(err):
        raise FloatingPointError(failed)
    run.write("gradcheck.txt", f"max_rel_err={_fmt(err)}\nworst_group={group}\n")
    if not err < GRADCHECK_TOL:
        raise FloatingPointError(f"{failed}, not below {GRADCHECK_TOL:g}")
    print(f"max relative error {_fmt(err)}")


# Each command: its defaults, its function, and the files it writes into
# its run directory beside RUN_FILES, which Run.start removes before it
# writes. synth writes its dataset (config.save_arrays: MANIFEST_NAME and
# BLOB_NAME) before Run.start, so those files are never removed.
COMMANDS = {
    "synth": (SYNTH_DEFAULTS, cmd_synth, ()),
    "pretrain": (PRETRAIN_DEFAULTS, cmd_pretrain,
                 (os.path.join(CHECKPOINT_DIR, MANIFEST_NAME),
                  os.path.join(CHECKPOINT_DIR, BLOB_NAME), "loss.csv", "summary.txt")),
    "impute": (IMPUTE_DEFAULTS, cmd_impute, ("report.csv",)),
    "probe": (PROBE_DEFAULTS, cmd_probe, ("curve.csv", "summary.txt")),
    "analyze": (ANALYZE_DEFAULTS, cmd_analyze, ("sigma1.csv", "summary.txt")),
    "gradcheck": (GRADCHECK_DEFAULTS, cmd_gradcheck, ("gradcheck.txt",)),
}


def main(argv=None) -> int:
    # Every subcommand, not only those that bind a model: raw analyze
    # allocates and frees the same SVD buffers on every call too.
    _hold_heap()
    parser = argparse.ArgumentParser(
        prog="crossmae",
        description="Cross-modality masked autoencoding for multi-modal time series.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", required=True, help="run output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    defaults, fn, _ = COMMANDS[args.command]
    cfg = load_config(args.config, defaults) if args.config else dict(defaults)
    if args.seed is not None:
        cfg["seed"] = args.seed
    run = Run(args.command, cfg, args.config or "<defaults>", args.out)
    if cfg["seed"] < 0:
        where = "--seed" if args.seed is not None else run.source
        raise ManifestError(f"{where}: key seed: must be at least 0, got {cfg['seed']}")
    run.claim_out()
    try:
        fn(run)
    except Exception as exc:
        # a run directory holds its results or the reason it has none
        if run.started:
            run.write(ERROR_NAME, " ".join(str(exc).splitlines()) + "\n")
        raise
    return 0


def console(argv=None) -> int:
    """main for a shell: a ManifestError, FloatingPointError, ValueError,
    ConditioningError (kcca) or OSError prints `crossmae: <message>` to
    stderr, with no traceback, and exits 1."""
    try:
        return main(argv)
    except (ManifestError, FloatingPointError, ValueError, ConditioningError, OSError) as exc:
        print(f"crossmae: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(console())
