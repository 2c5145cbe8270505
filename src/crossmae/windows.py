"""Synthetic multi-sensor windows, splice augmentation, patching, and the
on-disk dataset format.

A dataset is two arrays: `values`, an (n, C, L) float64 array of n windows
of C sensor modalities sampled at a common rate, and `labels`, an (n,) int64
array in which -1 marks an unlabeled window. `standardize` and `patchify`
work on the last axes of a (..., C, L) array, so one call handles one window
or a whole dataset.

Generated windows share a class-specific base oscillation across modalities;
`shared_latent_strength` interpolates between perfectly coupled channels
(strength 1: every modality is an affine image of one latent) and fully
independent channels (strength 0: each modality gets its own frequency and
phase). Gaussian noise is added on top.
"""
import os
from dataclasses import dataclass

import numpy as np

from .config import ManifestError, parse_kv_lines


def as_generator(seed):
    """Accept an int seed or a list of ints (SeedSequence entropy), a
    SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass
class SynthSpec:
    n_windows: int
    n_modalities: int
    n_samples: int
    n_classes: int
    shared_latent_strength: float
    noise_sd: float
    seed: int
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        for name, least in (("n_windows", 1), ("n_modalities", 2), ("n_samples", 2),
                            ("n_classes", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0.0 <= self.shared_latent_strength <= 1.0:
            raise ValueError(f"shared_latent_strength must lie in [0, 1], "
                             f"got {self.shared_latent_strength!r}")
        # written so that NaN fails too
        if not 0.0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd!r}")
        if not 0.0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample_rate_hz must be positive and finite, "
                             f"got {self.sample_rate_hz!r}")


def generate_windows(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate spec.n_windows windows with round-robin labels: the
    (n, C, L) values and the (n,) labels.

    Modality c of a window with class k:
        gain_c * [ s * sin(2 pi f_k t / L + theta + (1-s) * disp_c)
                 + (1-s) * sin(2 pi f_own_c t / L + phi_c) ] + noise_sd * eps
    with f_k = 1 + k cycles per window, gain_c ~ U[0.5, 1.5],
    disp_c ~ U[0, pi/4], f_own_c ~ U[1, 1 + n_classes), and s the shared
    latent strength. The dispersion term is scaled by (1-s) so that s = 1
    makes every modality an exact affine image of the class oscillation.
    """
    c_n, length = spec.n_modalities, spec.n_samples
    s = spec.shared_latent_strength
    t = np.arange(length) / length
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_windows)
    values = np.empty((spec.n_windows, c_n, length))
    labels = np.arange(spec.n_windows, dtype=np.int64) % spec.n_classes
    for w, child in enumerate(children):
        rng = as_generator(child)
        freq = 1.0 + labels[w]
        theta = rng.uniform(0.0, 2.0 * np.pi)
        gains = rng.uniform(0.5, 1.5, size=c_n)
        disp = rng.uniform(0.0, np.pi / 4.0, size=c_n)
        f_own = rng.uniform(1.0, 1.0 + spec.n_classes, size=c_n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=c_n)
        noise = rng.standard_normal((c_n, length))
        shared = np.sin(2.0 * np.pi * freq * t[None, :] + theta + (1.0 - s) * disp[:, None])
        own = np.sin(2.0 * np.pi * f_own[:, None] * t[None, :] + phi[:, None])
        values[w] = gains[:, None] * (s * shared + (1.0 - s) * own) + spec.noise_sd * noise
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


def splice_augment(values: np.ndarray, seed, matched_start: bool = False) -> SpliceResult:
    """Draw two of the (n, C, L) windows and splice a random segment of the
    second into the first, jointly across all modalities.

    Segment length is uniform on [ceil(0.2 L), floor(0.5 L)]; both start
    offsets are uniform on [0, L - length]. matched_start forces the
    destination offset to equal the source offset.
    """
    if len(values) < 2:
        raise ValueError(f"splice_augment needs at least 2 windows, got {len(values)}")
    rng = as_generator(seed)
    length = values.shape[-1]
    i = int(rng.integers(0, len(values)))
    j = int(rng.integers(0, len(values)))
    lam_lo = int(np.ceil(0.2 * length))
    lam_hi = int(np.floor(0.5 * length))
    lam = int(rng.integers(lam_lo, lam_hi + 1))
    s1 = int(rng.integers(0, length - lam + 1))
    s2 = s1 if matched_start else int(rng.integers(0, length - lam + 1))
    window = values[i].copy()
    window[:, s1:s1 + lam] = values[j, :, s2:s2 + lam]
    return SpliceResult(window, i, j, lam, s1, s2)


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
    constant channels map to all zeros. Non-finite input raises a
    ValueError naming the first bad index."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"standardize needs finite values; index {bad} is not")
    mu = values.mean(axis=-1, keepdims=True)
    sd = values.std(axis=-1, keepdims=True)
    # The mean of a constant channel can miss its value by a few ulps (three
    # 0.1s average to 0.1 + 1.4e-17), which leaves an sd of the same size
    # and would map the channel to +-1. Such an sd stays below 4.7 eps |mu|
    # for lengths 2 to 10,000, so the floor is 8 eps |mu|.
    flat = sd <= 8 * np.finfo(np.float64).eps * np.abs(mu)
    return np.where(flat, 0.0, (values - mu) / np.where(flat, 1.0, sd))


MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "data.f32"
LABELS_NAME = "labels.txt"


def save_dataset(directory, values: np.ndarray, labels: np.ndarray, sample_rate_hz: float,
                 n_classes: int):
    """Write manifest + float32 blob of the (n, C, L) values (window-major,
    modality-major, time-minor) + one label per line, -1 for unlabeled."""
    n, c_n, length = values.shape
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} windows")
    os.makedirs(directory, exist_ok=True)
    manifest = (
        f"n_windows={n}\n"
        f"C={c_n}\n"
        f"L={length}\n"
        f"sample_rate_hz={sample_rate_hz!r}\n"
        f"n_classes={n_classes}\n"
    )
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        fh.write(manifest)
    values.astype("<f4").tofile(os.path.join(directory, BLOB_NAME))
    with open(os.path.join(directory, LABELS_NAME), "w") as fh:
        fh.write("".join(f"{int(label)}\n" for label in labels))


def load_dataset(directory):
    """Read a dataset directory back. Returns (values, labels, meta dict).
    Malformed files raise a ManifestError naming the file's path and the
    field, window or line at fault: n_windows >= 1, C >= 2, L >= 2,
    n_classes >= 0 (0 for a wholly unlabeled dataset), a positive and finite
    sample_rate_hz, finite values, and labels that are -1 (unlabeled) or a
    class below n_classes."""
    man_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    labels_path = os.path.join(directory, LABELS_NAME)
    with open(man_path) as fh:
        meta = parse_kv_lines(fh.read(), source=man_path)
    required = ("n_windows", "C", "L", "sample_rate_hz", "n_classes")
    for key in required:
        if key not in meta:
            raise ManifestError(f"{man_path}: missing key {key}")
    try:
        n = int(meta["n_windows"])
        c_n = int(meta["C"])
        length = int(meta["L"])
        n_classes = int(meta["n_classes"])
        rate = float(meta["sample_rate_hz"])
    except ValueError as exc:
        raise ManifestError(f"{man_path}: non-numeric field ({exc})") from None
    for key, value, least in (("n_windows", n, 1), ("C", c_n, 2), ("L", length, 2),
                              ("n_classes", n_classes, 0)):
        if value < least:
            raise ManifestError(f"{man_path}: {key}={value} must be at least {least}")
    if not 0.0 < rate < np.inf:
        raise ManifestError(f"{man_path}: sample_rate_hz={rate!r} must be positive and finite")
    expected = n * c_n * length * 4
    actual = os.path.getsize(blob_path)
    if actual != expected:
        raise ManifestError(
            f"{blob_path}: size {actual} does not match manifest "
            f"(n_windows*C*L*4 = {expected})")
    blob = np.fromfile(blob_path, dtype="<f4").reshape(n, c_n, length)
    finite = np.isfinite(blob).all(axis=(1, 2))
    if not finite.all():
        raise ManifestError(f"{blob_path}: window {int(np.argmin(finite))} holds a "
                            "non-finite value")
    labels = []
    with open(labels_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                label = int(line.strip())
            except ValueError:
                raise ManifestError(f"{labels_path}: line {lineno}: label {line.strip()!r} "
                                    "is not an integer") from None
            if not (label == -1 or 0 <= label < n_classes):
                raise ManifestError(f"{labels_path}: line {lineno}: label {label} is neither "
                                    f"-1 nor a class in [0, {n_classes})")
            labels.append(label)
    if len(labels) != n:
        raise ManifestError(f"{labels_path}: {len(labels)} labels for {n} windows")
    return blob.astype(np.float64), np.array(labels, dtype=np.int64), {
        "n_windows": n, "C": c_n, "L": length, "sample_rate_hz": rate, "n_classes": n_classes}
