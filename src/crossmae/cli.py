"""Command-line front end: reproducible runs of the five pipelines.

Every run resolves a flat key=value config against per-command defaults
(unknown keys rejected), writes the resolved copy plus a versioned format tag
into the output directory, and then produces outputs that are byte-identical
across reruns of the same resolved config. Each pipeline gets its dataset
whole: one (n, C, L) array of windows and one (n,) array of labels.
"""
import argparse
import os

import numpy as np

from .config import ManifestError, format_kv_lines, load_config, resolve
from .imputation import (METHODS, TASKS, MissingnessTask, _sample_mask_array,
                         impute_chained, impute_linear, impute_model,
                         impute_nearest, score, task_mask)
from .kcca import sigma1_experiment
from .masking import CROSS, SYNC
from .model import (ArchSpec, _hold_heap, gradcheck_model, load_checkpoint,
                    save_checkpoint)
from .train import OptimConfig, PretrainConfig, ProbeConfig, pretrain, probe
from .windows import (LABELS_NAME, SynthSpec, as_generator, generate_windows,
                      load_dataset, save_dataset, splice_augment, standardize)

RUN_FORMAT = "crossmae-run-v1"
CONFIG_NAME = "config.txt"
FORMAT_NAME = "format.txt"

SYNTH_DEFAULTS = {
    "data.n_windows": 200,
    "data.n_modalities": 6,
    "data.n_samples": 200,
    "data.n_classes": 4,
    "data.strength": 0.9,
    "data.noise_sd": 0.3,
    "data.sample_rate_hz": 50.0,
    "seed": 0,
}

PRETRAIN_DEFAULTS = {
    "data.dir": "",
    "resume": "",
    "arch.patch_len": 8,
    "arch.d_model": 32,
    "arch.enc_layers": 2,
    "arch.dec_layers": 1,
    "arch.n_heads": 4,
    "arch.mlp_ratio": 2,
    "mask.policy": CROSS,
    "mask.ratio": 0.75,
    "augment.prob": 0.5,
    "augment.matched_start": False,
    "loss.masked_only": False,
    "optim.lr": 5e-4,
    "optim.weight_decay": 5e-2,
    "optim.beta1": 0.9,
    "optim.beta2": 0.95,
    "optim.eps": 1e-8,
    "optim.epochs": 200,
    "optim.warmup_epochs": 10,
    "optim.batch_size": 16,
    "optim.min_lr": 0.0,
    "seed": 0,
}

IMPUTE_DEFAULTS = {
    "data.dir": "",
    "checkpoint": "",
    "task.ratio": 0.7,
    "chained.sweeps": 3,
    "seed": 0,
}

PROBE_DEFAULTS = {
    "data.dir": "",
    "checkpoint": "",
    "probe.mode": "lp",
    "probe.epochs": 200,
    "probe.lr": 1e-2,
    "probe.weight_decay": 0.0,
    "probe.train_fraction": 0.7,
    "seed": 0,
}

ANALYZE_DEFAULTS = {
    "data.n_windows": 200,
    "data.n_modalities": 6,
    "data.n_samples": 200,
    "data.n_classes": 4,
    "data.strength": 0.9,
    "data.noise_sd": 1.0,
    "data.sample_rate_hz": 50.0,
    "exp.n_transitions": 200,
    "exp.patch_len": 20,
    "exp.mask_ratio": 0.15,
    "exp.pca_k": 50,
    "exp.n_seeds": 5,
    "exp.encoder": "raw_flatten",
    "exp.checkpoint": "",
    "seed": 0,
}

GRADCHECK_DEFAULTS = {
    "arch.n_modalities": 3,
    "arch.n_patches": 4,
    "arch.patch_len": 6,
    "arch.d_model": 32,
    "arch.enc_layers": 2,
    "arch.dec_layers": 1,
    "arch.n_heads": 4,
    "arch.mlp_ratio": 2,
    "check.h": 1e-4,
    "check.max_coords": 6,
    "seed": 0,
}


def _fmt(x) -> str:
    return repr(float(x))


def _start_run(out_dir: str, command: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, CONFIG_NAME), "w") as fh:
        fh.write(format_kv_lines(cfg))
    with open(os.path.join(out_dir, FORMAT_NAME), "w") as fh:
        fh.write(f"{RUN_FORMAT}\ncommand={command}\n")


def _synth_spec(cfg: dict, seed: int) -> SynthSpec:
    return SynthSpec(n_windows=cfg["data.n_windows"],
                     n_modalities=cfg["data.n_modalities"],
                     n_samples=cfg["data.n_samples"],
                     n_classes=cfg["data.n_classes"],
                     shared_latent_strength=cfg["data.strength"],
                     noise_sd=cfg["data.noise_sd"],
                     seed=seed,
                     sample_rate_hz=cfg["data.sample_rate_hz"])


def cmd_synth(cfg: dict, out_dir: str) -> None:
    values, labels = generate_windows(_synth_spec(cfg, cfg["seed"]))
    save_dataset(out_dir, values, labels, cfg["data.sample_rate_hz"], cfg["data.n_classes"])
    print(f"wrote {len(values)} windows to {out_dir}")


def _section(cfg: dict, prefix: str) -> dict:
    """The keys of one config section with the `prefix.` stripped; each
    suffix is a field name of the dataclass the section configures."""
    return {k[len(prefix) + 1:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def _arch_for_dataset(cfg: dict, meta: dict) -> ArchSpec:
    patch_len = cfg["arch.patch_len"]
    if patch_len > meta["L"]:
        raise ManifestError(
            f"patch_len {patch_len} exceeds window length {meta['L']}")
    return ArchSpec(n_modalities=meta["C"], n_patches=meta["L"] // patch_len,
                    **_section(cfg, "arch"))


def _fitting_checkpoint(path: str, n_modalities: int, n_samples: int):
    """The model state saved at path, or a ManifestError naming path when its
    patch grid does not fit windows of n_modalities x n_samples."""
    state = load_checkpoint(path)
    arch = state.arch
    if n_modalities != arch.n_modalities or n_samples // arch.patch_len != arch.n_patches:
        raise ManifestError(
            f"{path}: dataset {n_modalities}x{n_samples} does not fit checkpoint grid "
            f"{arch.n_modalities}x{arch.n_patches}x{arch.patch_len}")
    return state


def cmd_pretrain(cfg: dict, out_dir: str) -> None:
    values, _, meta = load_dataset(cfg["data.dir"])
    arch = _arch_for_dataset(cfg, meta)
    init_state = None
    if cfg["resume"]:
        init_state = load_checkpoint(cfg["resume"])
        if init_state.arch != arch:
            raise ManifestError(
                f"resume checkpoint arch {init_state.arch} does not match run arch {arch}")
    opt = OptimConfig(**_section(cfg, "optim"))
    pcfg = PretrainConfig(policy=cfg["mask.policy"], mask_ratio=cfg["mask.ratio"],
                          augment_prob=cfg["augment.prob"],
                          matched_start=cfg["augment.matched_start"],
                          masked_only_loss=cfg["loss.masked_only"], optim=opt)
    state, trace = pretrain(values, arch, pcfg, cfg["seed"], init_state=init_state)
    save_checkpoint(state, os.path.join(out_dir, "checkpoint"))
    with open(os.path.join(out_dir, "loss.csv"), "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, value in enumerate(trace):
            fh.write(f"{epoch},{_fmt(value)}\n")
    final = _fmt(trace[-1]) if trace else "nan"
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"final_loss={final}\n")
    print(f"pretrained {opt.epochs} epochs, final loss {final}")


def cmd_impute(cfg: dict, out_dir: str) -> None:
    raw, _, meta = load_dataset(cfg["data.dir"])
    state = _fitting_checkpoint(cfg["checkpoint"], meta["C"], meta["L"])
    arch = state.arch
    values = standardize(raw)
    ratio = cfg["task.ratio"]
    rows = []
    for t_idx, kind in enumerate(TASKS):
        task = MissingnessTask(kind=kind, ratio=ratio)
        rng = as_generator([cfg["seed"], t_idx])
        masks = np.stack([task_mask(task, arch.n_modalities, arch.n_patches, rng)
                          for _ in values])
        smasks = _sample_mask_array(masks, arch.patch_len, meta["L"])
        filled = {
            "model": impute_model(state, values, masks),
            "linear": impute_linear(values, smasks),
            "nearest": impute_nearest(values, smasks),
            "chained": impute_chained(values, smasks, sweeps=cfg["chained.sweeps"]),
        }
        ratio_txt = "NA" if kind == "sensor" else _fmt(ratio)
        for method in METHODS:
            sc = score(filled[method], values, smasks)
            rows.append(f"{kind},{method},{ratio_txt},{_fmt(sc.mae)},{_fmt(sc.mse)},"
                        f"{len(values)},{cfg['seed']}")
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("task,method,ratio,mae,mse,n_windows,seed\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"imputation report: {len(rows)} rows over {len(values)} windows")


def cmd_probe(cfg: dict, out_dir: str) -> None:
    values, labels, meta = load_dataset(cfg["data.dir"])
    state = _fitting_checkpoint(cfg["checkpoint"], meta["C"], meta["L"])
    if (labels < 0).any():
        path = os.path.join(cfg["data.dir"], LABELS_NAME)
        with open(path) as fh:  # blank lines hold no label: count them in
            lineno = next(k for k, line in enumerate(fh, 1) if line.strip() and int(line) < 0)
        raise ManifestError(f"{path}: line {lineno}: label -1 marks an unlabeled window; "
                            "probe needs a fully labeled dataset")
    pcfg = ProbeConfig(**_section(cfg, "probe"))
    res = probe(state, values, labels, meta["n_classes"], pcfg, cfg["seed"])
    with open(os.path.join(out_dir, "curve.csv"), "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, value in enumerate(res.trace):
            fh.write(f"{epoch},{_fmt(value)}\n")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"top1={_fmt(res.top1)}\n")
        fh.write(f"final_loss={_fmt(res.trace[-1]) if res.trace else 'nan'}\n")
        fh.write(f"train_size={res.train_size}\n")
        fh.write(f"val_size={res.val_size}\n")
    print(f"{pcfg.mode} top-1 {res.top1:.4f} on {res.val_size} held-out windows")


def cmd_analyze(cfg: dict, out_dir: str) -> None:
    n_seeds = cfg["exp.n_seeds"]
    if n_seeds < 1:
        raise ManifestError(f"exp.n_seeds must be at least 1, got {n_seeds}")
    if cfg["exp.pca_k"] < 1:
        raise ManifestError(f"exp.pca_k must be at least 1, got {cfg['exp.pca_k']}")
    if cfg["exp.encoder"] == "raw_flatten":
        state = None
    elif cfg["exp.encoder"] == "model_encoder":
        if not cfg["exp.checkpoint"]:
            raise ManifestError("exp.encoder=model_encoder needs exp.checkpoint")
        state = _fitting_checkpoint(cfg["exp.checkpoint"], cfg["data.n_modalities"],
                                    cfg["data.n_samples"])
    else:
        raise ManifestError(f"unknown exp.encoder {cfg['exp.encoder']!r}")
    n_trans = cfg["exp.n_transitions"]
    rows = []
    sums = {CROSS: 0.0, SYNC: 0.0}
    for s in range(n_seeds):
        replicate = cfg["seed"] + s
        base, _ = generate_windows(_synth_spec(cfg, replicate))
        rng = as_generator([cfg["seed"] + 1000 + s])
        trans = np.stack([splice_augment(base, rng).window for _ in range(n_trans)])
        for policy in (CROSS, SYNC):
            sigma1 = sigma1_experiment(trans, policy, state,
                                       pca_k=cfg["exp.pca_k"],
                                       seed=cfg["seed"] + 31 + s,
                                       ratio=cfg["exp.mask_ratio"],
                                       patch_len=cfg["exp.patch_len"])
            sums[policy] += sigma1
            rows.append(f"{policy},{replicate},{n_trans},{cfg['exp.pca_k']},"
                        f"{cfg['exp.encoder']},{_fmt(sigma1)}")
    with open(os.path.join(out_dir, "sigma1.csv"), "w") as fh:
        fh.write("policy,seed,n,pca_k,encoder_kind,sigma1\n")
        for row in rows:
            fh.write(row + "\n")
    mean_cross = sums[CROSS] / n_seeds
    mean_sync = sums[SYNC] / n_seeds
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"mean_sigma1_cross={_fmt(mean_cross)}\n")
        fh.write(f"mean_sigma1_sync={_fmt(mean_sync)}\n")
        fh.write(f"mean_gap={_fmt(mean_cross - mean_sync)}\n")
    print(f"sigma1 cross {mean_cross:.4f} vs sync {mean_sync:.4f} "
          f"(gap {mean_cross - mean_sync:+.4f}) over {n_seeds} seeds")


def cmd_gradcheck(cfg: dict, out_dir: str) -> None:
    if cfg["check.max_coords"] < 1:
        raise ManifestError(f"check.max_coords must be at least 1, got {cfg['check.max_coords']}")
    if not cfg["check.h"] > 0:
        raise ManifestError(f"check.h must be positive, got {cfg['check.h']!r}")
    err = gradcheck_model(ArchSpec(**_section(cfg, "arch")), seed=cfg["seed"],
                          h=cfg["check.h"], max_coords=cfg["check.max_coords"])
    with open(os.path.join(out_dir, "gradcheck.txt"), "w") as fh:
        fh.write(f"max_rel_err={_fmt(err)}\n")
    print(f"max relative error {_fmt(err)}")


COMMANDS = {
    "synth": (SYNTH_DEFAULTS, cmd_synth),
    "pretrain": (PRETRAIN_DEFAULTS, cmd_pretrain),
    "impute": (IMPUTE_DEFAULTS, cmd_impute),
    "probe": (PROBE_DEFAULTS, cmd_probe),
    "analyze": (ANALYZE_DEFAULTS, cmd_analyze),
    "gradcheck": (GRADCHECK_DEFAULTS, cmd_gradcheck),
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
    defaults, fn = COMMANDS[args.command]
    if args.config:
        cfg = load_config(args.config, defaults)
    else:
        cfg = resolve(defaults, {}, source="<defaults>")
    if args.seed is not None:
        cfg["seed"] = args.seed
    _start_run(args.out, args.command, cfg)
    fn(cfg, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
