"""Synthetic multi-sensor windows, splice augmentation, patching, and dataset
directories.

A dataset is `values`, an (n, C, L) float64 array of n windows of C sensor
modalities of L samples, `labels`, an (n,) int64 array of classes in [0,
n_classes) with -1 for an unlabeled window, and n_classes. `standardize` and
`patchify` work on the last axes of a (..., C, L) array, so one call handles
one window or a whole dataset. On disk it is an array directory whose one
rule save_dataset runs before writing and load_dataset after reading.

Generated windows share a class-specific base oscillation across modalities;
`shared_latent_strength` interpolates between perfectly coupled channels
(strength 1: every modality is an affine image of one latent) and fully
independent channels (strength 0: each modality gets its own frequency and
phase). Gaussian noise is added on top. Window w depends only on its own
seed, child w of the spec seed's SeedSequence, and on its class w % n_classes,
so any subset of a spec's windows can be generated alone, bit for bit as in
the full set. A splice is drawn (draw_splice) apart from the windows it
cuts (cut_splice), so a caller can draw its splices first and generate only
the windows they read.
"""
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .config import BLOB_NAME, array_fault, checked, load_arrays, save_arrays

# Windows per block of generate_windows' arithmetic (see its docstring).
SYNTH_BLOCK = 32


@dataclass
class SynthSpec:
    n_windows: int
    n_modalities: int
    n_samples: int
    n_classes: int
    shared_latent_strength: float
    noise_sd: float
    seed: int

    def __post_init__(self):
        for name, least in (("n_windows", 1), ("n_modalities", 2), ("n_samples", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 1 <= self.n_classes <= LABEL_LIMIT:
            raise ValueError(f"n_classes must lie in [1, {LABEL_LIMIT}], got {self.n_classes}")
        if not 0.0 <= self.shared_latent_strength <= 1.0:
            raise ValueError(f"shared_latent_strength must lie in [0, 1], "
                             f"got {self.shared_latent_strength!r}")
        # written so that NaN fails too
        if not 0.0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd!r}")


def generate_windows(spec: SynthSpec, which=None) -> tuple[np.ndarray, np.ndarray]:
    """Generate the windows of spec listed in which (all spec.n_windows of
    them by default), in that order, with round-robin labels: the
    (len(which), C, L) values and the (len(which),) labels.

    Window w is drawn from SeedSequence(spec.seed).spawn(spec.n_windows)[w]
    alone and has class k = w % n_classes, so a subset holds exactly the
    full call's rows. Modality c of it:
        gain_c * [ s * sin(2 pi f_k t / L + theta + (1-s) * disp_c)
                 + (1-s) * sin(2 pi f_own_c t / L + phi_c) ] + noise_sd * eps
    with f_k = 1 + k cycles per window, gain_c ~ U[0.5, 1.5],
    disp_c ~ U[0, pi/4], f_own_c ~ U[1, 1 + n_classes), and s the shared
    latent strength. The dispersion term is scaled by (1-s) so that s = 1
    makes every modality an exact affine image of the class oscillation.
    The 1 + 4C uniform parameters (theta, then the gains, dispersions, own
    frequencies and phases) come from one draw of 1 + 4C doubles u, each
    scaled as low + (high - low) * u, as Generator.uniform scales its draws;
    the noise is drawn after them.

    Each window still needs its own generator and its two draws, but the
    arithmetic runs over SYNTH_BLOCK windows at a time: one numpy call per
    step of the formula and block instead of one per window, which saves
    numpy's fixed cost per call on small arrays. Every element goes
    through the same operations in the same order as in the formula above
    (only operands of a + or x swap), so the bits do not depend on the
    block. The work is done in place: the noise is drawn straight into the
    output rows and the sinusoids are built in two block-sized scratch
    arrays, so the call allocates the output plus one block's temporaries.
    Blocks keep that scratch small; they do not save time against one
    block of every window. Timed on one analyze replicate's 173 distinct
    windows at 6 x 200 (one BLAS thread, medians of 25 calls), the
    per-window loop took 13.3 ms, blocks of 8 to 256 windows 10.0 to
    11.3 ms; 32 windows is 0.6 MB of scratch there.
    """
    c_n, length = spec.n_modalities, spec.n_samples
    s = spec.shared_latent_strength
    which = np.arange(spec.n_windows) if which is None else np.asarray(which)
    if which.ndim != 1 or (which.size and which.dtype.kind not in "iu"):
        raise ValueError(f"which must be a 1-D list of window indices, got {which.dtype} "
                         f"of shape {which.shape}")
    which = which.astype(np.int64)
    bad = np.flatnonzero((which < 0) | (which >= spec.n_windows))
    if bad.size:
        raise ValueError(f"which must list windows in [0, {spec.n_windows}), "
                         f"got {which[bad[0]]} at index {bad[0]}")
    t = np.arange(length) / length
    counts = [1] + [c_n] * 4  # theta, then the gains, dispersions, own frequencies, phases
    lows = np.repeat([0.0, 0.5, 0.0, 1.0, 0.0], counts)
    spans = np.repeat([2.0 * np.pi, 1.5, np.pi / 4.0, 1.0 + spec.n_classes, 2.0 * np.pi],
                      counts) - lows
    values = np.empty((len(which), c_n, length))
    labels = which % spec.n_classes
    block = min(SYNTH_BLOCK, len(which))
    u = np.empty((block, 1 + 4 * c_n))
    shared, own = np.empty((2, block, c_n, length))
    for lo in range(0, len(which), SYNTH_BLOCK):
        out = values[lo:lo + SYNTH_BLOCK]
        m = len(out)
        for i, w in enumerate(which[lo:lo + m].tolist()):
            # child w of SeedSequence(spec.seed).spawn(spec.n_windows), built alone
            rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(w,)))
            rng.random(out=u[i])
            rng.standard_normal(out=out[i])
        params = lows + spans * u[:m]
        theta = params[:, :1, None]
        # each (m, C, 1)
        gains, disp, f_own, phi = params[:, 1:].reshape(m, 4, c_n, 1).transpose(1, 0, 2, 3)
        freq = 1.0 + labels[lo:lo + m, None, None]
        a, b = shared[:m], own[:m]
        row = b[:, :1]  # the (m, 1, L) class phase, before b holds the own sinusoids
        np.multiply(2.0 * np.pi * freq, t, out=row)
        row += theta
        np.add(row, (1.0 - s) * disp, out=a)
        np.sin(a, out=a)
        a *= s
        np.multiply(2.0 * np.pi * f_own, t, out=b)
        b += phi
        np.sin(b, out=b)
        b *= 1.0 - s
        a += b
        a *= gains
        out *= spec.noise_sd
        out += a
    return values, labels


@dataclass
class SpliceResult:
    """Output of splice_augment, the spliced (C, L) window, plus the sampled
    parameters, for replay."""

    window: np.ndarray
    source_a: int
    source_b: int
    length: int
    start_a: int
    start_b: int


def draw_splice(n_windows: int, length: int, seed,
                matched_start: bool = False) -> tuple[int, int, int, int, int]:
    """Draw one splice of n_windows windows of length samples: (source_a,
    source_b, segment length, start_a, start_b), in that order from the
    generator that seed gives (np.random.default_rng).

    Both sources are uniform on [0, n_windows), with replacement. Segment
    length is uniform on [ceil(0.2 L), floor(0.5 L)]; both start offsets are
    uniform on [0, L - length]. matched_start forces the destination offset
    to equal the source offset and draws no second start.
    """
    if n_windows < 2:
        raise ValueError(f"a splice needs at least 2 windows, got {n_windows}")
    # L = 1 leaves no segment length: ceil(0.2) = 1 > floor(0.5) = 0
    if length < 2:
        raise ValueError(f"a splice needs windows of at least 2 samples, got length {length}")
    rng = np.random.default_rng(seed)
    i = int(rng.integers(0, n_windows))
    j = int(rng.integers(0, n_windows))
    lam_lo = math.ceil(0.2 * length)
    lam_hi = math.floor(0.5 * length)
    lam = int(rng.integers(lam_lo, lam_hi + 1))
    s1 = int(rng.integers(0, length - lam + 1))
    s2 = s1 if matched_start else int(rng.integers(0, length - lam + 1))
    return i, j, lam, s1, s2


def cut_splice(dest: np.ndarray, source: np.ndarray, length: int, start_a: int,
               start_b: int) -> np.ndarray:
    """A copy of the (C, L) window dest whose samples [start_a, start_a +
    length) are source's [start_b, start_b + length), in every modality."""
    window = dest.copy()
    window[:, start_a:start_a + length] = source[:, start_b:start_b + length]
    return window


def splice_augment(values: np.ndarray, seed, matched_start: bool = False) -> SpliceResult:
    """Draw two of the (n, C, L) windows and splice a random segment of the
    second into the first, jointly across all modalities: draw_splice's
    draw, then cut_splice's cut."""
    i, j, lam, s1, s2 = draw_splice(len(values), values.shape[-1], seed, matched_start)
    return SpliceResult(cut_splice(values[i], values[j], lam, s1, s2), i, j, lam, s1, s2)


def patchify(values: np.ndarray, patch_len: int) -> np.ndarray:
    """Split each modality of (..., C, L) windows into non-overlapping
    length-patch_len patches: a new (..., C, P, L_p) array. Trailing samples
    beyond P * patch_len are dropped."""
    length = values.shape[-1]
    if not 1 <= patch_len <= length:
        raise ValueError(f"patch_len must lie in [1, {length}], got {patch_len}")
    p_n = length // patch_len
    return np.array(values[..., :p_n * patch_len]).reshape(values.shape[:-1] + (p_n, patch_len))


def standardize(values: np.ndarray) -> np.ndarray:
    """Per-channel z-score over the last axis of (..., C, L) windows;
    constant channels map to all zeros. Non-finite input, or a channel whose
    sd overflows, raises a ValueError naming the first bad index or channel."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"standardize needs finite values; index {bad} is not")
    mu = values.mean(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = values.std(axis=-1, keepdims=True)
    # The mean of a constant channel can miss its value by a few ulps (three
    # 0.1s average to 0.1 + 1.4e-17), which leaves an sd of the same size
    # and would map the channel to +-1. Such an sd stays below 4.7 eps |mu|
    # for lengths 2 to 10,000, so the floor is 8 eps |mu|.
    flat = sd <= 8 * np.finfo(np.float64).eps * np.abs(mu)
    # written so that NaN fails too
    overflow = ~(sd < np.inf)
    if overflow.any():
        # a miss of a few ulps of a value near 1e200 overflows when squared
        constant = np.ptp(values, axis=-1, keepdims=True) == 0
        bad = np.argwhere(overflow & ~constant)
        if bad.size:
            at = tuple(bad[0, :-1].tolist())
            raise ValueError(f"standardize needs a finite sd in every channel; channel {at} "
                             f"has sd {sd[at].item()!r}")
        flat |= constant
    return np.where(flat, 0.0, (values - mu) / np.where(flat, 1.0, sd))


DATASET_FORMAT = "crossmae-dataset-v4"
LABEL_LIMIT = 2**24  # float32 holds every integer below it exactly


def save_dataset(directory, values: np.ndarray, labels: np.ndarray, n_classes: int):
    """Write the (n, C, L) values, the (n,) labels and n_classes as an array
    directory (config.save_arrays). A dataset that load_dataset would reject
    raises its ValueError and writes nothing; a non-integer n_classes, a TypeError."""
    def check(header, shapes):
        _check_dataset(header, shapes)
        _check_labels(labels, header["n_classes"])

    save_arrays(directory, DATASET_FORMAT, {"n_classes": operator.index(n_classes)},
                {"values": values, "labels": labels}, check)


def _check_dataset(header: dict, shapes: dict):
    """Arrays values (n, C, L), n >= 1, C >= 2 and L >= 2, then labels (n,);
    n_classes in [0, LABEL_LIMIT] (0: wholly unlabeled)."""
    if (list(shapes) != ["values", "labels"] or len(shapes["values"]) != 3
            or shapes["labels"] != shapes["values"][:1]):
        raise ValueError(f"a dataset has two arrays, values of shape n x C x L, then labels "
                         f"of shape n; got {shapes}")
    for name, size, least in zip(("n_windows", "C", "L"), shapes["values"], (1, 2, 2)):
        if size < least:
            raise ValueError(f"key array.values: {name}={size} must be at least {least}")
    if not 0 <= header["n_classes"] <= LABEL_LIMIT:
        raise ValueError(f"key n_classes: {header['n_classes']} is not in [0, {LABEL_LIMIT}]")


def _check_labels(labels: np.ndarray, n_classes: int):
    """Each label must be -1 (unlabeled) or an integer class in [0, n_classes)."""
    bad = np.flatnonzero((labels < -1) | (labels >= n_classes) | (labels != np.floor(labels)))
    if bad.size:
        raise ValueError(array_fault("labels", bad[:1], f"{float(labels[bad[0]])!r}, which is "
                                     f"neither -1 nor a class in [0, {n_classes})"))


def load_dataset(directory):
    """Read a dataset directory back: (values, int64 labels, n_classes). A
    malformed file, or a label neither -1 nor a class, is a ManifestError
    naming its path and the fault's place."""
    header, arrays = load_arrays(directory, DATASET_FORMAT, {"n_classes": int}, _check_dataset)
    labels = arrays["labels"]
    checked(os.path.join(directory, BLOB_NAME), _check_labels, labels, header["n_classes"])
    return arrays["values"], labels.astype(np.int64), header["n_classes"]
