"""Synthetic multi-sensor windows, splice augmentation, patching, and the
on-disk dataset format.

A window is a C x L array: C sensor modalities sampled at a common rate.
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
class SensorWindow:
    """One multi-modality window: values has shape (C, L)."""

    values: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("SensorWindow values must be 2-D (C, L)")
        c, l = self.values.shape
        if c < 2 or l < 2:
            raise ValueError(f"SensorWindow needs C >= 2 and L >= 2, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SensorWindow values must be finite")


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
        if self.n_windows < 1 or self.n_modalities < 2 or self.n_samples < 2:
            raise ValueError("SynthSpec requires n_windows >= 1, C >= 2, L >= 2")
        if self.n_classes < 1:
            raise ValueError("SynthSpec requires n_classes >= 1")
        if not 0.0 <= self.shared_latent_strength <= 1.0:
            raise ValueError("shared_latent_strength must lie in [0, 1]")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")


def generate_windows(spec: SynthSpec) -> list[SensorWindow]:
    """Generate spec.n_windows windows with round-robin labels.

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
    out = []
    for w, child in enumerate(children):
        rng = as_generator(child)
        label = w % spec.n_classes
        freq = 1.0 + label
        theta = rng.uniform(0.0, 2.0 * np.pi)
        gains = rng.uniform(0.5, 1.5, size=c_n)
        disp = rng.uniform(0.0, np.pi / 4.0, size=c_n)
        f_own = rng.uniform(1.0, 1.0 + spec.n_classes, size=c_n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=c_n)
        noise = rng.standard_normal((c_n, length))
        shared = np.sin(2.0 * np.pi * freq * t[None, :] + theta + (1.0 - s) * disp[:, None])
        own = np.sin(2.0 * np.pi * f_own[:, None] * t[None, :] + phi[:, None])
        values = gains[:, None] * (s * shared + (1.0 - s) * own) + spec.noise_sd * noise
        out.append(SensorWindow(values, label))
    return out


@dataclass
class SpliceResult:
    """Output of splice_augment plus the sampled parameters, for replay."""

    window: SensorWindow
    source_a: int
    source_b: int
    length: int
    start_a: int
    start_b: int


def splice_augment(dataset: list[SensorWindow], seed, matched_start: bool = False) -> SpliceResult:
    """Draw two windows and splice a random segment of the second into the
    first, jointly across all modalities.

    Segment length is uniform on [ceil(0.2 L), floor(0.5 L)]; both start
    offsets are uniform on [0, L - length]. matched_start forces the
    destination offset to equal the source offset.
    """
    if len(dataset) < 2:
        raise ValueError("splice_augment needs at least 2 windows")
    shape = dataset[0].values.shape
    for w in dataset[1:]:
        if w.values.shape != shape:
            raise ValueError("splice_augment windows must share (C, L)")
    rng = as_generator(seed)
    length = shape[1]
    i = int(rng.integers(0, len(dataset)))
    j = int(rng.integers(0, len(dataset)))
    lam_lo = int(np.ceil(0.2 * length))
    lam_hi = int(np.floor(0.5 * length))
    lam = int(rng.integers(lam_lo, lam_hi + 1))
    s1 = int(rng.integers(0, length - lam + 1))
    s2 = s1 if matched_start else int(rng.integers(0, length - lam + 1))
    values = dataset[i].values.copy()
    values[:, s1:s1 + lam] = dataset[j].values[:, s2:s2 + lam]
    return SpliceResult(SensorWindow(values, dataset[i].label), i, j, lam, s1, s2)


def patchify(window: SensorWindow, patch_len: int) -> np.ndarray:
    """Split each modality into non-overlapping length-patch_len patches:
    a new (C, P, L_p) array. Trailing samples beyond P * patch_len are
    dropped."""
    c_n, length = window.values.shape
    if not 1 <= patch_len <= length:
        raise ValueError(f"patch_len must lie in [1, {length}], got {patch_len}")
    p_n = length // patch_len
    trimmed = window.values[:, :p_n * patch_len]
    return trimmed.reshape(c_n, p_n, patch_len).copy()


def standardize(window: SensorWindow) -> SensorWindow:
    """Per-channel z-score; constant channels map to all zeros."""
    mu = window.values.mean(axis=1, keepdims=True)
    sd = window.values.std(axis=1, keepdims=True)
    safe = np.where(sd == 0.0, 1.0, sd)
    out = np.where(sd == 0.0, 0.0, (window.values - mu) / safe)
    return SensorWindow(out, window.label)


MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "data.f32"
LABELS_NAME = "labels.txt"


def save_dataset(directory, windows: list[SensorWindow], sample_rate_hz: float, n_classes: int):
    """Write manifest + float32 blob (window-major, modality-major,
    time-minor) + one label per line."""
    os.makedirs(directory, exist_ok=True)
    shape = windows[0].values.shape
    for w in windows:
        if w.values.shape != shape:
            raise ValueError("all windows in a dataset must share (C, L)")
    c_n, length = shape
    manifest = (
        f"n_windows={len(windows)}\n"
        f"C={c_n}\n"
        f"L={length}\n"
        f"sample_rate_hz={sample_rate_hz!r}\n"
        f"n_classes={n_classes}\n"
    )
    with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
        fh.write(manifest)
    blob = np.stack([w.values for w in windows]).astype("<f4")
    blob.tofile(os.path.join(directory, BLOB_NAME))
    with open(os.path.join(directory, LABELS_NAME), "w") as fh:
        for w in windows:
            fh.write(f"{w.label if w.label is not None else -1}\n")


def load_dataset(directory):
    """Read a dataset directory back. Returns (windows, meta dict). Malformed
    files raise a ManifestError naming the file's path and, for labels, the
    line; a label is -1 (unlabeled) or a class index below n_classes."""
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
    expected = n * c_n * length * 4
    actual = os.path.getsize(blob_path)
    if actual != expected:
        raise ManifestError(
            f"{blob_path}: size {actual} does not match manifest "
            f"(n_windows*C*L*4 = {expected})")
    raw = np.fromfile(blob_path, dtype="<f4").astype(np.float64).reshape(n, c_n, length)
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
    windows = [SensorWindow(raw[i], labels[i] if labels[i] >= 0 else None) for i in range(n)]
    return windows, {"n_windows": n, "C": c_n, "L": length,
                     "sample_rate_hz": rate, "n_classes": n_classes}
