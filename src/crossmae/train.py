"""Pretraining loop, AdamW with cosine schedule, and the classification probe.

Every loop takes its dataset as one (n, C, L) array of windows, and the probe
its labels as one (n,) array. Pretraining patchifies the standardized dataset
once into an (n, C, P, L_p) array. A minibatch copies its rows into a
(B, C, P, L_p) array, replaces a row with a spliced window when augmentation
draws one (standardizing and patchifying the batch's spliced windows in one
call), draws a (B, C, P) bool array of fresh masks, and runs as one graph.
Every mask of a policy hides the same number of patches, so the batch loss
(the MSE over all its patches) is the mean of the per-sample losses. All
randomness flows from one seed; reruns are bit-identical.

Pretraining and both probe modes train through one loop, _fit. It keeps the
parameters and their gradients in one AdamWState, owns the step counter and
the cosine schedule, slices each epoch's sample order into minibatches, and
asks its caller only for each minibatch's loss. _step runs one step: it
binds the parameters on a fresh tape, builds the loss, runs backward,
gathers the leaves' gradients into the flat gradient buffer in one copy, and
applies one AdamW step between two checks. A non-finite loss
or gradient stops training before the step it would corrupt, and a step
that leaves AdamW's second moment non-finite (finite divergence: the loss
grows until the squared gradient overflows) or a parameter beyond what a
float32 checkpoint holds stops it right after.

Probing trains one linear head, probe.W and probe.b, on the class-token
latent. Mode "lp" trains the head alone on the frozen latents (encoder
untouched), one full batch per epoch; mode "ft" trains head and encoder
jointly, in shuffled minibatches of OptimConfig.batch_size windows.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from . import tape as T
from .masking import CROSS, POLICIES, sample_mask
from .model import (ArchSpec, Binding, ModelState, encode, forward_frozen, init_model,
                    mae_loss)
from .windows import patchify, splice_augment, standardize

# a checkpoint rounds parameters to float32, which holds no larger magnitude
FLOAT32_MAX = float(np.finfo(np.float32).max)


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
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        if not 0 <= self.warmup_epochs <= max(self.epochs, 1):
            raise ValueError(f"warmup_epochs must lie in [0, {max(self.epochs, 1)}], "
                             f"got {self.warmup_epochs}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be at least 0, got {self.weight_decay!r}")
        if not 0 <= self.min_lr <= self.lr:
            raise ValueError(f"min_lr must lie in [0, {self.lr!r}], got {self.min_lr!r}")
        for name in ("lr", "eps", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


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
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio!r}")
        if not 0.0 <= self.augment_prob <= 1.0:
            raise ValueError(f"augment_prob must lie in [0, 1], got {self.augment_prob!r}")


@dataclass
class ProbeConfig:
    """Probe settings. `optim`, the head's optimizer with no warmup, is
    built from them, so its checks run when the probe is configured."""
    mode: str = "lp"  # lp | ft
    epochs: int = 200
    lr: float = 1e-2
    weight_decay: float = 0.0
    train_fraction: float = 0.7
    optim: OptimConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("lp", "ft"):
            raise ValueError(f"mode must be 'lp' or 'ft', got {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction!r}")
        self.optim = OptimConfig(lr=self.lr, weight_decay=self.weight_decay,
                                 epochs=self.epochs, warmup_epochs=0)


class AdamWState:
    """AdamW state, parameters and gradients over flat float64 buffers.

    The constructor copies every parameter into `flat`, in dict order
    (`names`), and rebinds each entry of the given dict to a view of its
    slice, so one update of `flat` updates every parameter. `grad` is the
    flat gradient buffer, laid out like `flat`, which adamw_step reads. `m`
    and `v` are the flat moment buffers and `t` the step counter.
    """

    def __init__(self, params: dict):
        self.names = list(params)
        self.bounds = np.cumsum([0] + [params[k].size for k in self.names])
        self.flat = np.empty(self.bounds[-1])
        self.grad = np.zeros_like(self.flat)
        for name, lo, hi in zip(self.names, self.bounds[:-1], self.bounds[1:]):
            shape = np.shape(params[name])
            self.flat[lo:hi] = np.ravel(params[name])
            params[name] = self.flat[lo:hi].reshape(shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def group_at(self, i) -> str:
        """Name of the parameter group holding flat index i."""
        return self.names[np.searchsorted(self.bounds, i, side="right") - 1]

    def non_finite_group(self):
        """Name of the first parameter group whose second moment is not
        finite or whose value float32 cannot hold (a checkpoint rounds to
        it), or None when all pass. NaN fails both comparisons."""
        ok = np.isfinite(self.v) & (np.abs(self.flat) <= FLOAT32_MAX)
        return None if ok.all() else self.group_at(np.argmin(ok))


def adamw_step(opt: AdamWState, lr: float, cfg: OptimConfig):
    """One decoupled-weight-decay Adam update of every parameter from the
    gradients in opt.grad, as one kernel call over opt.flat."""
    opt.t += 1
    c1 = 1.0 - cfg.beta1 ** opt.t
    c2 = 1.0 - cfg.beta2 ** opt.t
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


def _step(loop: str, step: int, state: ModelState, opt: AdamWState, lr: float,
          cfg: OptimConfig, build_loss) -> float:
    """Bind state on a fresh tape, backward build_loss(binding), gather the
    leaves' gradients into opt.grad, and take one checked AdamW step; return
    the loss.
    Raises FloatingPointError, naming the loop and the step, when the loss
    or a gradient is not finite (before the update, with the first such
    parameter group) or when the update left a parameter's second moment
    non-finite or its value beyond float32's range."""
    tape_ = T.Tape()
    binding = Binding(state, tape_)
    loss = build_loss(binding)
    tape_.backward(loss)
    # binding.p follows state.params, whose order is opt.names; a leaf that no
    # gradient reached gives zeros through its grad property
    np.concatenate([leaf.grad.ravel() for leaf in binding.p.values()], out=opt.grad)
    finite = np.isfinite(opt.grad)
    bad = None if finite.all() else opt.group_at(np.argmin(finite))
    if bad is None and np.isfinite(loss.data):
        adamw_step(opt, lr, cfg)
        left = opt.non_finite_group()
        if left is None:
            return float(loss.data)
        detail = (f"AdamW left {left} or its second moment non-finite, or past "
                  f"float32's largest value {FLOAT32_MAX:.8g}")
    else:
        detail = f"first non-finite gradient in {bad}" if bad else "all gradients finite"
    raise FloatingPointError(f"{loop} step {step}: loss {float(loss.data)!r}, {detail}")


def _fit(loop: str, state: ModelState, optim: OptimConfig, n: int, rng, batch_loss) -> list:
    """Train state.params in place for optim.epochs passes over n samples and
    return each epoch's mean loss.

    Each epoch visits the samples in rng.permutation(n) order, or in index
    order when rng is None, in minibatches of optim.batch_size. For each
    minibatch, batch_loss(idx) draws what the batch of sample indices idx
    needs and returns its loss builder, and _step takes one AdamW step at the
    cosine schedule's learning rate (warmup over optim.warmup_epochs)."""
    opt = AdamWState(state.params)
    per_epoch = max(1, int(np.ceil(n / optim.batch_size)))
    total_steps = optim.epochs * per_epoch
    warmup_steps = optim.warmup_epochs * per_epoch
    trace = []
    step = 0
    for _ in range(optim.epochs):
        order = np.arange(n) if rng is None else rng.permutation(n)
        losses = []
        for b0 in range(0, n, optim.batch_size):
            build_loss = batch_loss(order[b0:b0 + optim.batch_size])
            lr = cosine_lr(step, warmup_steps, total_steps, optim.lr, optim.min_lr)
            losses.append(_step(loop, step, state, opt, lr, optim, build_loss))
            step += 1
        trace.append(float(np.mean(losses)))
    return trace


def pretrain(values: np.ndarray, arch: ArchSpec, cfg: PretrainConfig, seed,
             init_state: ModelState | None = None):
    """Train a masked autoencoder on the (n, C, L) windows.

    Returns (state, per-epoch mean loss list). Deterministic per seed.
    """
    if len(values) == 0:
        raise ValueError("pretrain needs a nonempty dataset")
    root = np.random.SeedSequence(seed)
    init_seq, loop_seq = root.spawn(2)
    state = init_state.copy() if init_state is not None else init_model(arch, init_seq)
    rng = np.random.default_rng(loop_seq)
    can_augment = len(values) >= 2
    data = patchify(standardize(values), arch.patch_len)

    def batch_loss(idx):
        grids = data[idx]  # a copy: the spliced windows overwrite their rows
        masks = np.empty((len(idx), arch.n_modalities, arch.n_patches), dtype=bool)
        rows, spliced = [], []
        for j in range(len(idx)):
            if can_augment and rng.uniform() < cfg.augment_prob:
                rows.append(j)
                spliced.append(splice_augment(values, rng,
                                              matched_start=cfg.matched_start).window)
            masks[j] = sample_mask(cfg.policy, arch.n_modalities, arch.n_patches,
                                   cfg.mask_ratio, rng)
        if rows:
            grids[rows] = patchify(standardize(np.stack(spliced)), arch.patch_len)
        return lambda b: mae_loss(b, grids, masks, masked_only=cfg.masked_only_loss)

    return state, _fit("pretrain", state, cfg.optim, len(values), rng, batch_loss)


def class_embeddings(state: ModelState, values: np.ndarray) -> np.ndarray:
    """Frozen class-token latents of the fully visible, standardized (n, C, L)
    windows."""
    arch = state.arch
    grids = patchify(standardize(values), arch.patch_len)
    masks = np.zeros(grids.shape[:3], dtype=bool)
    class_row = np.zeros((len(grids), 1), dtype=np.intp)
    return forward_frozen(state, encode, grids, masks, lambda w: w[:, 0], class_row)


def _split_indices(n: int, train_fraction: float, rng) -> tuple:
    """Shuffled (train, validation) indices of range(n), at least one on each side."""
    if n < 2:
        raise ValueError(f"probe needs at least 2 windows, one to train on and one to "
                         f"validate on; got {n}")
    order = rng.permutation(n)
    cut = int(round(train_fraction * n))
    cut = min(max(cut, 1), n - 1)
    return order[:cut], order[cut:]


def _cross_entropy(logits, labels_onehot):
    logp = T.log_softmax(logits)
    picked = T.mul(logp, labels_onehot)
    return T.scale(T.sum_(picked), -1.0 / labels_onehot.shape[0])


@dataclass
class ProbeResult:
    top1: float
    trace: list
    train_size: int
    val_size: int


def probe(state: ModelState, values: np.ndarray, labels: np.ndarray, n_classes: int,
          cfg: ProbeConfig, seed) -> ProbeResult:
    """Train a classification head on the (n, C, L) windows and their (n,)
    labels, each a class in [0, n_classes), per cfg.mode and report
    validation top-1."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(values) != len(labels):
        raise ValueError("windows and labels length mismatch")
    outside = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if len(outside):
        i = outside[0]
        raise ValueError(f"label {labels[i]} at index {i} is not a class in [0, {n_classes})")
    root = np.random.SeedSequence(seed)
    split_seq, init_seq, loop_seq = root.spawn(3)
    tr, va = _split_indices(len(values), cfg.train_fraction, np.random.default_rng(split_seq))
    arch = state.arch
    bound = 1.0 / np.sqrt(arch.d_model)
    head = {"probe.W": np.random.default_rng(init_seq).uniform(-bound, bound,
                                                               size=(arch.d_model, n_classes)),
            "probe.b": np.zeros(n_classes)}
    onehot = np.zeros((len(labels), n_classes))
    onehot[np.arange(len(labels)), labels] = 1.0

    if cfg.mode == "lp":
        # the head alone, on the frozen class-token latents; one full batch
        # per epoch, in order, since shuffling it would only reorder its sums
        emb = class_embeddings(state, values)
        work = ModelState(arch, head)
        optim, loop_rng = replace(cfg.optim, batch_size=len(tr)), None

        def features(b, rows):
            return emb[rows]
    else:
        # head and encoder end to end, on AdamWState's own copy of the parameters
        work = ModelState(arch, {**state.params, **head})
        grids = patchify(standardize(values), arch.patch_len)
        masks = np.zeros(grids.shape[:3], dtype=bool)
        optim, loop_rng = cfg.optim, np.random.default_rng(loop_seq)

        def features(b, rows):
            enc = encode(b, grids[rows], masks[rows])
            return T.take_rows(enc, np.arange(len(rows)) * (arch.n_tokens + 1))

    def batch_loss(idx):
        rows = tr[idx]
        return lambda b: _cross_entropy(
            T.matmul(features(b, rows), b.p["probe.W"], b.p["probe.b"]), onehot[rows])

    trace = _fit("probe", work, optim, len(tr), loop_rng, batch_loss)
    val = emb[va] if cfg.mode == "lp" else class_embeddings(work, values[va])
    val_logits = T.matmul(val, work.params["probe.W"], work.params["probe.b"])
    top1 = float((val_logits.argmax(axis=1) == labels[va]).mean())
    return ProbeResult(top1, trace, len(tr), len(va))
