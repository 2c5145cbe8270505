"""Masked-autoencoder transformer over patch grids.

Desk-scale ViT: patch projection into a D-dim token space, a trainable class
token, fixed 2-D sinusoidal positions (half the channels encode the modality
index, half the patch index), a small pre-norm encoder over visible tokens,
and a decoder that scatters encoder outputs back to their grid slots, fills
hidden slots with a trainable mask token, and reconstructs every patch.

The model runs a minibatch of windows as one graph. Every mask of a policy
or task hides the same number of patches, so the visible tokens of B windows
stack with no padding: activations are (B*T, D) arrays of B row blocks, one
per window, and attention stays inside each block. A batch is two arrays:
grids (B, C, P, L_p) float64, each window's patches (windows.patchify), and
masks (B, C, P) bool, True where a patch is hidden (masking.sample_mask).
Training loops bind the parameters as leaves of one tape per step. Every
forward-only caller (class embeddings, imputation, view features) goes
through forward_frozen, which binds the parameter arrays themselves as
constants, so every primitive returns a plain array, runs FORWARD_CHUNK
windows at a time and returns the concatenation of what the caller keeps of
each chunk.

The forward pass is one ordered chain of stages (_chain), each declaring
the parameter scopes it reads (a scope is a name without its last
component, _scope): embed (embed, cls); per encoder block, encN.attn (its
ln1 and attn: layernorm, attention, residual add) then encN.mlp (its ln2
and mlp: layernorm, MLP, residual add); the encoder's norm (enc.norm); the
decoder entry that scatters the encoder rows and fills the rest with the
mask token (mask_token); decN.attn and decN.mlp per decoder block; the
decoder's norm with the take of the patch rows (dec.norm); and the head
(head). The chain ends at the reconstruction: encode and decode each run a
slice of it, reconstruct runs both, and mae_loss takes the loss (_loss) of
reconstruct's output. Every stage takes the batch's (B, C, P) masks. Only
embed derives the token ids from them, so a pass derives them once; decode,
which may run alone, checks the masks itself. gradcheck_model keeps each
stage's input from one unbumped pass. A group's bumped evaluations differ
only in that group, so they run as one batch of windows from the first
stage that reads it, one bumped copy of the group per window (the tape's
per-block parameters, in a pass that records nothing).

The reconstruction loss is the mean squared error over all patches; a
masked-only variant is available for ablation.

A checkpoint is an array directory (config.save_arrays) of the ArchSpec fields
and the parameters; loading one allocates nothing in proportion to its arch.
"""
import functools
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tape as T
from .config import load_arrays, save_arrays

CHECKPOINT_FORMAT = "crossmae-checkpoint-v3"
# Windows per forward-only graph. Larger chunks cost memory and buy no speed
# at 150 tokens: frozen reconstructions of 64 windows of 6 x 25 patches ran
# at 721 windows/s with a 5.7 MiB peak in chunks of 16, 712 and 10.3 MiB in
# chunks of 32, and 684 and 20.1 MiB in one chunk (one BLAS thread).
FORWARD_CHUNK = 16
# The share of patches gradcheck_model's cross mask hides.
GRADCHECK_MASK_RATIO = 0.5


@dataclass
class ArchSpec:
    n_modalities: int
    n_patches: int
    patch_len: int
    d_model: int = 32
    enc_layers: int = 2
    dec_layers: int = 1
    n_heads: int = 4
    mlp_ratio: int = 2

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be at least 1, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads must divide d_model {self.d_model}, got {self.n_heads}")
        if self.d_model % 4 != 0:
            raise ValueError(f"d_model must be divisible by 4 for 2-D sinusoidal positions, "
                             f"got {self.d_model}")

    @property
    def n_tokens(self):
        return self.n_modalities * self.n_patches


@functools.cache
def positions_2d(n_modalities: int, n_patches: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal position table of shape (C*P + 1, D).

    Row 0 (class token) is zero. For a patch token, the first D/2 channels
    encode its modality index and the last D/2 its patch index, each as
    interleaved sin/cos pairs with frequencies 10000^(-2k/(D/2)). Computed
    once per grid: every caller shares one read-only table.
    """
    half = d_model // 2
    quarter = half // 2

    def axis_table(n):
        idx = np.arange(n)[:, None]
        k = np.arange(quarter)[None, :]
        omega = 1.0 / np.power(10000.0, 2.0 * k / half)
        ang = idx * omega
        out = np.empty((n, half))
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang)
        return out

    table = np.zeros((n_modalities * n_patches + 1, d_model))
    table[1:, :half] = np.repeat(axis_table(n_modalities), n_patches, axis=0)
    table[1:, half:] = np.tile(axis_table(n_patches), (n_modalities, 1))
    table.flags.writeable = False
    return table


class ModelState:
    """Named parameter arrays plus the frozen position table."""

    def __init__(self, arch: ArchSpec, params: dict):
        self.arch = arch
        self.params = params

    @property
    def positions(self):
        """The arch's position table, built at first use."""
        return positions_2d(self.arch.n_modalities, self.arch.n_patches, self.arch.d_model)

    def copy(self):
        return ModelState(self.arch, {k: v.copy() for k, v in self.params.items()})

    def fingerprint(self):
        """Order-stable byte digest of all parameters, for bit-identity checks."""
        import hashlib
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tobytes())
        return h.hexdigest()


def _param_layout(arch: ArchSpec):
    """Yield (name, shape) of every parameter, in init order, lazily: a
    checkpoint's arrays are checked against an arch without building it."""
    d, hidden, lp = arch.d_model, arch.d_model * arch.mlp_ratio, arch.patch_len
    yield from (("embed.W", (lp, d)), ("embed.b", (d,)), ("cls", (1, d)), ("mask_token", (1, d)))
    for stack, n_layers in (("enc", arch.enc_layers), ("dec", arch.dec_layers)):
        for i in range(n_layers):
            p = f"{stack}{i}"
            yield from ((f"{p}.ln1.g", (d,)), (f"{p}.ln1.b", (d,)))
            yield from ((f"{p}.attn.W{x}", (d, d)) for x in "qkvo")
            yield from ((f"{p}.attn.b{x}", (d,)) for x in "qvo")
            yield from ((f"{p}.ln2.g", (d,)), (f"{p}.ln2.b", (d,)),
                        (f"{p}.mlp.W1", (d, hidden)), (f"{p}.mlp.b1", (hidden,)),
                        (f"{p}.mlp.W2", (hidden, d)), (f"{p}.mlp.b2", (d,)))
        yield from ((f"{stack}.norm.g", (d,)), (f"{stack}.norm.b", (d,)))
    yield from (("head.W", (d, lp)), ("head.b", (lp,)))


def param_count(arch: ArchSpec) -> int:
    """The number of parameter values _param_layout lays out, in closed form,
    so that an arch of any depth is sized without walking its layers."""
    d, hidden, lp = arch.d_model, arch.d_model * arch.mlp_ratio, arch.patch_len
    per_layer = 4 * d * d + 2 * d * hidden + 8 * d + hidden
    return (arch.enc_layers + arch.dec_layers) * per_layer + 2 * lp * d + lp + 7 * d


def init_model(arch: ArchSpec, seed) -> ModelState:
    """Uniform(+-1/sqrt(fan_in)) weight matrices (fan_in: first axis), zero
    biases, unit layernorm gains (*.g), Gaussian(sd 0.02) class and mask tokens."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_layout(arch):
        if name in ("cls", "mask_token"):
            params[name] = rng.normal(0.0, 0.02, size=shape)
        elif len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return ModelState(arch, params)


# glibc mallopt parameters (malloc.h) and the values _hold_heap sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 64 << 20
TRIM_THRESHOLD_BYTES = 256 << 20


@functools.cache
def _hold_heap():
    """Keep freed memory in this process's heap, once per process.

    A model pass allocates and frees the same arrays on every call: at 150
    tokens each (rows, D) array of a 16-window chunk takes 0.6 MB. By
    default glibc serves large ones with mmap and returns the top of the
    heap to the kernel whenever a pass frees enough, so the next pass faults
    the same pages back in. Raising both
    thresholds keeps those pages in the heap for reuse. A no-op where the C
    library has no mallopt."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


class Binding:
    """The parameters of one ModelState as the model reads them: p is
    state.params itself when tape is None, else one leaf per parameter on
    tape, in state.params' order.

    Every training and frozen pass starts here, so a Binding holds the heap
    (_hold_heap) for library callers; cli.main holds it first."""

    def __init__(self, state: ModelState, tape: T.Tape | None):
        _hold_heap()
        self.state = state
        self.p = (state.params if tape is None
                  else {k: tape.leaf(v) for k, v in state.params.items()})


def _check_masks(masks: np.ndarray) -> None:
    """Every mask of a batch must leave a patch visible and hide the same number."""
    hidden = masks.reshape(len(masks), -1).sum(axis=1)
    if (hidden == masks[0].size).any():
        raise ValueError("at least one patch must stay visible")
    if (hidden != hidden[0]).any():
        raise ValueError("every mask in a batch must hide the same number of patches, "
                         f"got {sorted(set(hidden.tolist()))}")


def _token_ids(masks: np.ndarray) -> np.ndarray:
    """(B, V+1) position-table rows of each window's encoder tokens: 0 for
    the class token, then 1 + the grid index of each visible patch. The
    masks must pass _check_masks."""
    _check_masks(masks)
    flat = masks.reshape(len(masks), -1)
    visible = np.nonzero(np.logical_not(flat))[1].reshape(len(masks), -1)
    return np.hstack([np.zeros((len(masks), 1), dtype=np.intp), 1 + visible])


class Stage(NamedTuple):
    """One link of the forward chain: run(b, masks, x) maps the previous
    stage's output x to this stage's, for the batch's (B, C, P) masks, and
    reads only the parameters whose scope (_scope) is in reads."""
    name: str
    reads: tuple
    run: Callable


def _scope(name: str) -> str:
    """A parameter's scope: its name without its last component (enc0.attn.Wq
    is in enc0.attn, embed.W in embed), or the name itself when it has one."""
    return name.rpartition(".")[0] or name


def _embed(b: Binding, masks, grids):
    """Project each window's visible patches, put the class token at row 0 of
    its block and add positions: (B*(V+1), D)."""
    arch = b.state.arch
    ids = _token_ids(masks)
    patches = grids.reshape(len(ids), arch.n_tokens, arch.patch_len)
    visible = np.take_along_axis(patches, ids[:, 1:, None] - 1, axis=1)
    vis = T.matmul(visible.reshape(-1, arch.patch_len), b.p["embed.W"], b.p["embed.b"])
    # the class-token rows are the ones at position row 0
    x = T.scatter_rows(vis, np.flatnonzero(ids), ids.size, b.p["cls"])
    return T.add(x, b.state.positions[ids.ravel()])


def _attention_half(prefix: str, b: Binding, masks, x):
    """The first half of a pre-norm block: x + attention(ln1(x)), multi-head
    self-attention within each window. Keys carry no bias: q.bk would add one
    constant to each query's scores, which the softmax takes back out."""
    p = b.p
    y = T.layernorm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
    # the projections' order sets the order in which y's three gradients add
    keys = T.matmul(y, p[f"{prefix}.attn.Wk"])
    queries = T.matmul(y, p[f"{prefix}.attn.Wq"], p[f"{prefix}.attn.bq"])
    values = T.matmul(y, p[f"{prefix}.attn.Wv"], p[f"{prefix}.attn.bv"])
    merged = T.attention(queries, keys, values, len(masks), b.state.arch.n_heads)
    return T.add(x, T.matmul(merged, p[f"{prefix}.attn.Wo"], p[f"{prefix}.attn.bo"]))


def _mlp_half(prefix: str, b: Binding, masks, x):
    """The second half of a pre-norm block: x + mlp(ln2(x))."""
    p = b.p
    y = T.layernorm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
    h = T.gelu(T.matmul(y, p[f"{prefix}.mlp.W1"], p[f"{prefix}.mlp.b1"]))
    return T.add(x, T.matmul(h, p[f"{prefix}.mlp.W2"], p[f"{prefix}.mlp.b2"]))


def _enc_norm(b: Binding, masks, x):
    return T.layernorm(x, b.p["enc.norm.g"], b.p["enc.norm.b"])


def _dec_entry(b: Binding, masks, encoded):
    """Scatter each window's encoder rows to their grid slots (its class row,
    then its visible patches), fill the hidden slots with the mask token and
    add positions: (B*(N+1), D)."""
    n_win = len(masks)
    slots = np.ones((n_win, b.state.arch.n_tokens + 1), dtype=bool)
    slots[:, 1:] = np.logical_not(masks.reshape(n_win, -1))
    x = T.scatter_rows(encoded, np.flatnonzero(slots), slots.size, b.p["mask_token"])
    return T.add(x, np.tile(b.state.positions, (n_win, 1)))


def _dec_norm(b: Binding, masks, x):
    """The decoder's final layernorm, then each window's patch rows: (B*N, D)."""
    n_win, n_rows = len(masks), b.state.arch.n_tokens + 1
    x = T.layernorm(x, b.p["dec.norm.g"], b.p["dec.norm.b"])
    return T.take_rows(x, np.delete(np.arange(n_win * n_rows), np.arange(n_win) * n_rows))


def _head(b: Binding, masks, x):
    return T.matmul(x, b.p["head.W"], b.p["head.b"])


def _blocks(stack: str, n_layers: int) -> list:
    """Two stages per block, each with its layernorm: stackN.attn and stackN.mlp."""
    stages = []
    for p in (f"{stack}{i}" for i in range(n_layers)):
        stages += [Stage(f"{p}.attn", (f"{p}.ln1", f"{p}.attn"),
                         functools.partial(_attention_half, p)),
                   Stage(f"{p}.mlp", (f"{p}.ln2", f"{p}.mlp"), functools.partial(_mlp_half, p))]
    return stages


def _encoder(arch: ArchSpec) -> list:
    """The stages encode runs: grids (B, C, P, L_p) to (B*(V+1), D)."""
    return [Stage("embed", ("embed", "cls"), _embed), *_blocks("enc", arch.enc_layers),
            Stage("enc.norm", ("enc.norm",), _enc_norm)]


def _decoder(arch: ArchSpec) -> list:
    """The stages decode runs: (B*(V+1), D) encoder rows to (B*N, L_p)."""
    return [Stage("dec.entry", ("mask_token",), _dec_entry), *_blocks("dec", arch.dec_layers),
            Stage("dec.norm", ("dec.norm",), _dec_norm), Stage("head", ("head",), _head)]


def _chain(arch: ArchSpec) -> list:
    """The whole forward pass, grids to reconstruction, as one ordered list of stages."""
    return [*_encoder(arch), *_decoder(arch)]


def _run(b: Binding, masks, x, stages, inputs=None):
    """x through stages in order; each stage's input is appended to inputs when given."""
    for stage in stages:
        if inputs is not None:
            inputs.append(x)
        x = stage.run(b, masks, x)
    return x


def forward_frozen(state: ModelState, fn, grids, masks, per_window):
    """Run fn (encode or reconstruct) with every parameter of state a
    constant, over consecutive chunks of at most FORWARD_CHUNK windows, and
    return the concatenation of per_window(out) over the chunks. out is
    fn's plain-array output for the chunk as (B, rows, width): its row
    blocks, one per window. No tape is involved, so nothing outlives a chunk
    but what per_window keeps of it."""
    binding = Binding(state, None)
    kept = []
    for start in range(0, len(masks), FORWARD_CHUNK):
        chunk = slice(start, start + FORWARD_CHUNK)
        out = fn(binding, grids[chunk], masks[chunk])
        kept.append(per_window(out.reshape(len(masks[chunk]), -1, out.shape[1])))
    return np.concatenate(kept)


def encode(b: Binding, grids, masks):
    """Run the encoder stages over the visible tokens of a batch: grids (B,
    C, P, L_p) and masks (B, C, P) that all hide the same number of patches.
    Returns (B*(V+1), D) values in B row blocks: row 0 of a block is the
    class token, rows 1..V the window's visible patches in grid order."""
    arch = b.state.arch
    want = (arch.n_modalities, arch.n_patches, arch.patch_len)
    if grids.shape[1:] != want:
        raise ValueError(f"grid {grids.shape[1:]} does not match arch {want}")
    if masks.shape != grids.shape[:3]:
        raise ValueError(f"masks {masks.shape} do not match grids {grids.shape}")
    return _run(b, masks, grids, _encoder(arch))


def decode(b: Binding, encoded, masks):
    """Run the decoder stages: scatter each window's encoder outputs back to
    its grid slots, fill hidden slots with the mask token, re-add positions
    everywhere, run the decoder, and project every patch token back to patch
    space. Returns (B*N, L_p) values, window by window in grid order. The
    masks must pass _check_masks, checked here without the token ids."""
    _check_masks(masks)
    return _run(b, masks, encoded, _decoder(b.state.arch))


def reconstruct(b: Binding, grids, masks):
    """encode + decode of one batch, returning the (B*N, L_p) reconstruction."""
    return decode(b, encode(b, grids, masks), masks)


def _loss(recon, grids, masks, masked_only: bool = False):
    """MSE of the (B*N, L_p) reconstruction against grids (B, C, P, L_p),
    over every patch or, with masked_only, over the ones masks hides."""
    target = grids.reshape(-1, grids.shape[-1])
    if masked_only:
        masked_ids = np.flatnonzero(masks)
        if len(masked_ids) == 0:
            raise ValueError("masked-only loss needs at least one masked patch")
        recon = T.take_rows(recon, masked_ids)
        target = target[masked_ids]
    return T.mse(recon, target)


def mae_loss(b: Binding, grids, masks, masked_only: bool = False):
    """Reconstruction MSE over a batch, averaged over every patch (default)
    or over masked patches only (ablation). Every window hides the same
    number of patches, so this is also the mean of the per-window losses."""
    return _loss(reconstruct(b, grids, masks), grids, masks, masked_only)


def alignment_identity(u: np.ndarray, v: np.ndarray):
    """For equal-norm vectors: ||u - v||^2 = 2 c^2 - 2 <u, v>.

    Returns (squared distance, inner product, absolute identity gap)."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    c2 = float(u @ u)
    sq = float(((u - v) ** 2).sum())
    inner = float(u @ v)
    return sq, inner, abs(sq - (2.0 * c2 - 2.0 * inner))


def save_checkpoint(state: ModelState, directory):
    """Write the arch, its fields as ints, and every parameter, in name order,
    rounded to float32, as a checkpoint directory (config.save_arrays,
    _check_params); an arch field that is not an integer is a TypeError."""
    header = {name: operator.index(value) for name, value in asdict(state.arch).items()}
    save_arrays(directory, CHECKPOINT_FORMAT, header,
                {name: state.params[name] for name in sorted(state.params)}, _check_params)


def _check_params(header: dict, shapes: dict):
    """The arrays must be the parameters of ArchSpec(**header), each once
    with its shape. The first mismatch raises; nothing is allocated."""
    seen = set()
    for name, shape in _param_layout(ArchSpec(**header)):
        if name not in shapes:
            raise ValueError(f"missing key array.{name}")
        if shapes[name] != shape:
            raise ValueError(f"key array.{name}: shape {shapes[name]}, the arch needs {shape}")
        seen.add(name)
    for name in shapes:
        if name not in seen:
            raise ValueError(f"unknown key array.{name}")


def load_checkpoint(directory) -> ModelState:
    """Read a checkpoint back. The manifest must list every parameter of the
    arch once, with its shape, and every value must be finite; anything else
    raises a ManifestError naming the file and the key or parameter
    (config.load_arrays, _check_params)."""
    header, params = load_arrays(directory, CHECKPOINT_FORMAT,
                                 {f.name: int for f in fields(ArchSpec)}, _check_params)
    return ModelState(ArchSpec(**header), params)


def gradcheck_model(arch: ArchSpec, seed: int, h: float,
                    max_coords: int | None) -> tuple[float, str]:
    """Finite-difference check of mae_loss over every parameter group, on one
    window (tape.finite_diff_check).

    The chain runs once on the unbumped parameters and keeps each stage's
    input. A group's bumped evaluations differ only in that group, so each
    call of build runs them as one pass from the first stage that reads it:
    a batch of windows with the same mask, one per bumped copy, from copies
    of that stage's kept input. The group is bound to the (2k, *shape) array
    of its copies, which the tape reads one copy per window (its per-block
    parameters), and each window's loss is the MSE of its own row block.
    Returns the worst relative error across all sampled coordinates and the
    name of the parameter it was found in, as a pair
    (tape.finite_diff_check)."""
    from .masking import CROSS, sample_mask
    from .windows import patchify

    root = np.random.SeedSequence(seed)
    init_seq, data_seq, mask_seq = root.spawn(3)
    state = init_model(arch, init_seq)
    rng = np.random.default_rng(data_seq)
    values = rng.standard_normal((arch.n_modalities, arch.n_patches * arch.patch_len))
    grid = patchify(values, arch.patch_len)
    mask = sample_mask(CROSS, arch.n_modalities, arch.n_patches, GRADCHECK_MASK_RATIO,
                       np.random.default_rng(mask_seq))

    chain = _chain(arch)
    frozen = Binding(state, None)
    inputs = []
    _run(frozen, mask[None], grid[None], chain, inputs)
    first = {scope: i for i, stage in enumerate(chain) for scope in stage.reads}

    def build(params, name, bumps):
        if name is None:
            return mae_loss(Binding(ModelState(arch, params), None), grid[None], mask[None])
        start = first[_scope(name)]
        # the group is bound to all its copies, one per window of the batch
        bumped = Binding(ModelState(arch, {**params, name: bumps}), None)
        batch = np.repeat(mask[None], len(bumps), axis=0)
        recon = _run(bumped, batch, np.concatenate([inputs[start]] * len(bumps)), chain[start:])
        # _loss's T.mse taken per row block
        diff = recon.reshape(len(bumps), -1) - grid.reshape(1, -1)
        return (diff * diff).mean(axis=1)

    return T.finite_diff_check(build, state.params, h=h, max_coords=max_coords, seed=seed,
                               batch=FORWARD_CHUNK // 2)
