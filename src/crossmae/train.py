"""Pretraining loop, AdamW with cosine schedule, and the classification probe.

Pretraining: per sample, optionally splice-augment, standardize, patchify,
and draw a fresh mask under the configured policy; then run the whole
minibatch through the model as one graph. A dataset window is standardized
and patchified once per pretrain call; a spliced one each time it is drawn.
Every mask of a policy hides the same number of patches, so the batch loss
(the MSE over all its patches) is the mean of the per-sample losses. All
randomness flows from one seed; reruns are bit-identical. A non-finite loss
or gradient stops training before the optimizer step it would corrupt, and a
step that leaves a parameter or AdamW's second moment non-finite (finite
divergence: the loss grows until the squared gradient overflows) stops it
right after.

Probing: LinearProbe trains a linear head on the frozen class-token latent
(encoder untouched); FineTune trains head and encoder jointly.
"""
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import tape as T
from .masking import CROSS, POLICIES, MaskMatrix, sample_mask
from .model import (ArchSpec, Binding, ModelState, encode, forward_chunks, init_model,
                    mae_loss)
from .windows import as_generator, patchify, splice_augment, standardize


@dataclass
class OptimConfig:
    lr: float = 5e-4
    weight_decay: float = 5e-2
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    epochs: int = 200
    warmup_epochs: int = 10
    batch_size: int = 16
    min_lr: float = 0.0

    def __post_init__(self):
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid optimizer configuration")
        if not 0 <= self.warmup_epochs <= max(self.epochs, 1):
            raise ValueError("warmup must lie within the schedule")


@dataclass
class PretrainConfig:
    policy: str = CROSS
    mask_ratio: float = 0.75
    augment_prob: float = 0.5
    matched_start: bool = False
    masked_only_loss: bool = False
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")
        if not 0.0 <= self.augment_prob <= 1.0:
            raise ValueError("augment_prob must lie in [0, 1]")


@dataclass
class ProbeConfig:
    mode: str = "lp"  # lp | ft
    epochs: int = 200
    lr: float = 1e-2
    weight_decay: float = 0.0
    train_fraction: float = 0.7

    def __post_init__(self):
        if self.mode not in ("lp", "ft"):
            raise ValueError("probe mode must be 'lp' or 'ft'")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


class AdamWState:
    """AdamW state over one flat float64 buffer.

    The constructor copies every parameter into `flat`, in dict order, and
    rebinds each entry of the given dict to a view of its slice, so one
    update of `flat` updates every parameter. `m` and `v` are the flat
    moment buffers and `t` the step counter.
    """

    def __init__(self, params: dict):
        self.params = params
        self.names = list(params)
        self.bounds = np.cumsum([0] + [params[k].size for k in self.names])
        self.flat = np.empty(self.bounds[-1])
        for name, lo, hi in zip(self.names, self.bounds[:-1], self.bounds[1:]):
            shape = np.shape(params[name])
            self.flat[lo:hi] = np.ravel(params[name])
            params[name] = self.flat[lo:hi].reshape(shape)
        self.grad = np.empty_like(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def non_finite_group(self):
        """Name of the first parameter group whose value or second moment is
        not finite, or None when all are finite."""
        if np.isfinite(self.v).all() and np.isfinite(self.flat).all():
            return None
        first = np.flatnonzero(~(np.isfinite(self.v) & np.isfinite(self.flat)))[0]
        return self.names[np.searchsorted(self.bounds, first, side="right") - 1]


def adamw_step(params: dict, grads: dict, opt: AdamWState, lr: float, cfg: OptimConfig):
    """One decoupled-weight-decay Adam update of every parameter, as one
    kernel call over opt.flat. params must be the dict opt was built from."""
    if params is not opt.params:
        raise ValueError("adamw_step needs the parameter dict its AdamWState was built from")
    opt.t += 1
    c1 = 1.0 - cfg.beta1 ** opt.t
    c2 = 1.0 - cfg.beta2 ** opt.t
    np.concatenate([np.ravel(grads[name]) for name in opt.names], out=opt.grad)
    kernels.adamw_update(opt.flat, opt.grad, opt.m, opt.v, lr, cfg.beta1, cfg.beta2,
                         cfg.eps, cfg.weight_decay, c1, c2)


def cosine_lr(step: int, warmup_steps: int, total_steps: int, base_lr: float, min_lr: float) -> float:
    """Linear warmup to base_lr, then cosine decay to min_lr at total_steps."""
    if total_steps < 1 or step < 0 or step > total_steps:
        raise ValueError("step must lie in [0, total_steps]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return base_lr
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * progress))


def _check_finite(step: int, loss, grads: dict):
    """Raise FloatingPointError when the loss or a gradient is not finite,
    naming the step and the first parameter group with a non-finite
    gradient."""
    bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
    if bad is None and np.isfinite(loss.data):
        return
    detail = f"first non-finite gradient in {bad}" if bad else "all gradients finite"
    raise FloatingPointError(f"pretrain step {step}: loss {float(loss.data)!r}, {detail}")


def pretrain(windows, arch: ArchSpec, cfg: PretrainConfig, seed,
             init_state: ModelState | None = None):
    """Train a masked autoencoder on the given windows.

    Returns (state, per-epoch mean loss list). Deterministic per seed.
    """
    if not windows:
        raise ValueError("pretrain needs a nonempty dataset")
    root = np.random.SeedSequence(seed)
    init_seq, loop_seq = root.spawn(2)
    state = init_state.copy() if init_state is not None else init_model(arch, init_seq)
    rng = as_generator(loop_seq)
    opt = AdamWState(state.params)
    o = cfg.optim

    n = len(windows)
    batches_per_epoch = max(1, int(np.ceil(n / o.batch_size)))
    total_steps = o.epochs * batches_per_epoch
    warmup_steps = o.warmup_epochs * batches_per_epoch

    can_augment = len(windows) >= 2
    # Patch grids of the dataset windows, built on first use, then read-only.
    grid_cache = [None] * n
    trace = []
    step = 0
    for _ in range(o.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for b0 in range(0, n, o.batch_size):
            idx = order[b0:b0 + o.batch_size]
            grids, masks = [], []
            for i in idx:
                if can_augment and rng.uniform() < cfg.augment_prob:
                    w = splice_augment(windows, rng, matched_start=cfg.matched_start).window
                    grids.append(patchify(standardize(w), arch.patch_len))
                else:
                    if grid_cache[i] is None:
                        grid_cache[i] = patchify(standardize(windows[i]), arch.patch_len)
                        grid_cache[i].patches.flags.writeable = False
                    grids.append(grid_cache[i])
                masks.append(sample_mask(cfg.policy, arch.n_modalities, arch.n_patches,
                                         cfg.mask_ratio, rng))
            tape_ = T.Tape()
            binding = Binding(state, tape_)
            loss = mae_loss(binding, grids, masks, masked_only=cfg.masked_only_loss)
            tape_.backward(loss)
            grads = binding.grads()
            _check_finite(step, loss, grads)
            lr = cosine_lr(step, warmup_steps, total_steps, o.lr, o.min_lr)
            adamw_step(state.params, grads, opt, lr, o)
            bad = opt.non_finite_group()
            if bad is not None:
                raise FloatingPointError(f"pretrain step {step}: loss {float(loss.data)!r}, "
                                         f"AdamW left {bad} or its second moment non-finite")
            step += 1
            epoch_losses.append(float(loss.data))
        trace.append(float(np.mean(epoch_losses)))
    return state, trace


def _zero_mask(arch: ArchSpec) -> MaskMatrix:
    return MaskMatrix(np.zeros((arch.n_modalities, arch.n_patches), dtype=np.uint8), 0.5)


def class_embeddings(state: ModelState, windows) -> np.ndarray:
    """Frozen class-token latents of fully visible standardized windows."""
    arch = state.arch
    masks = [_zero_mask(arch)] * len(windows)
    binding = Binding(state, T.Tape(), trainable=False)
    out = np.empty((len(windows), arch.d_model))
    for chunk in forward_chunks(masks):
        grids = [patchify(standardize(w), arch.patch_len) for w in windows[chunk]]
        enc = encode(binding, grids, masks[chunk]).data
        out[chunk] = enc[::arch.n_tokens + 1]
    return out


def _split_indices(n: int, train_fraction: float, rng) -> tuple:
    order = rng.permutation(n)
    cut = int(round(train_fraction * n))
    cut = min(max(cut, 1), n - 1)
    return order[:cut], order[cut:]


def _cross_entropy(logits, labels_onehot):
    logp = T.log_softmax(logits)
    picked = T.mul(logp, logits.tape.constant(labels_onehot))
    return T.scale(T.sum_(picked), -1.0 / labels_onehot.shape[0])


@dataclass
class ProbeResult:
    top1: float
    trace: list
    train_size: int
    val_size: int


def probe(state: ModelState, windows, labels, n_classes: int, cfg: ProbeConfig, seed) -> ProbeResult:
    """Train a classification head per cfg.mode and report validation top-1."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(windows) != len(labels):
        raise ValueError("windows and labels length mismatch")
    root = np.random.SeedSequence(seed)
    split_seq, init_seq, loop_seq = root.spawn(3)
    tr, va = _split_indices(len(windows), cfg.train_fraction, as_generator(split_seq))
    arch = state.arch
    rng = as_generator(init_seq)
    head_w = rng.uniform(-1.0 / np.sqrt(arch.d_model), 1.0 / np.sqrt(arch.d_model),
                         size=(arch.d_model, n_classes))
    head_b = np.zeros(n_classes)

    onehot = np.zeros((len(labels), n_classes))
    onehot[np.arange(len(labels)), labels] = 1.0

    ocfg = OptimConfig(lr=cfg.lr, weight_decay=cfg.weight_decay, epochs=cfg.epochs,
                       warmup_epochs=0, batch_size=max(len(tr), 1))
    trace = []

    if cfg.mode == "lp":
        emb = class_embeddings(state, windows)
        params = {"head.W": head_w, "head.b": head_b}
        opt = AdamWState(params)
        for epoch in range(cfg.epochs):
            tape_ = T.Tape()
            w_leaf = tape_.leaf(params["head.W"])
            b_leaf = tape_.leaf(params["head.b"])
            logits = T.add(T.matmul(tape_.constant(emb[tr]), w_leaf), b_leaf)
            loss = _cross_entropy(logits, onehot[tr])
            tape_.backward(loss)
            lr = cosine_lr(epoch, 0, cfg.epochs, cfg.lr, 0.0)
            adamw_step(params, {"head.W": w_leaf.grad, "head.b": b_leaf.grad}, opt, lr, ocfg)
            trace.append(float(loss.data))
        val_logits = emb[va] @ params["head.W"] + params["head.b"]
        top1 = float((val_logits.argmax(axis=1) == labels[va]).mean())
        return ProbeResult(top1, trace, len(tr), len(va))

    # fine-tune: head + encoder end to end, on AdamWState's own copy of the
    # parameters
    work_state = ModelState(arch, {**state.params, "probe.W": head_w, "probe.b": head_b})
    params = work_state.params
    opt = AdamWState(params)
    mask = _zero_mask(arch)
    grids = [patchify(standardize(w), arch.patch_len) for w in windows]
    loop_rng = as_generator(loop_seq)
    batch = 16
    step = 0
    total_steps = cfg.epochs * max(1, int(np.ceil(len(tr) / batch)))
    for _ in range(cfg.epochs):
        order = loop_rng.permutation(len(tr))
        ep = []
        for b0 in range(0, len(tr), batch):
            idx = tr[order[b0:b0 + batch]]
            tape_ = T.Tape()
            binding = Binding(work_state, tape_)
            enc = encode(binding, [grids[i] for i in idx], [mask] * len(idx))
            feat = T.take_rows(enc, np.arange(len(idx)) * (arch.n_tokens + 1))
            logits = T.add(T.matmul(feat, binding.p["probe.W"]), binding.p["probe.b"])
            loss = _cross_entropy(logits, onehot[idx])
            tape_.backward(loss)
            lr = cosine_lr(step, 0, total_steps, cfg.lr, 0.0)
            adamw_step(params, binding.grads(), opt, lr, ocfg)
            step += 1
            ep.append(float(loss.data))
        trace.append(float(np.mean(ep)))
    emb = class_embeddings(work_state, [windows[i] for i in va])
    val_logits = emb @ params["probe.W"] + params["probe.b"]
    top1 = float((val_logits.argmax(axis=1) == labels[va]).mean())
    return ProbeResult(top1, trace, len(tr), len(va))
