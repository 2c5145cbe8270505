"""Masking policies over the C x P patch grid and unmasked/masked view splits.

Two policies:
- cross-modality: exactly floor(rho * C * P) cells masked, drawn uniformly
  from all cells, so a time column can be hidden in one modality and visible
  in another;
- synchronized: exactly floor(rho * P) whole time columns masked across every
  modality at once.
"""
from dataclasses import dataclass

import numpy as np

from .windows import PatchGrid, as_generator

CROSS = "cross"
SYNC = "sync"
POLICIES = (CROSS, SYNC)


def floor_count(ratio: float, n: int) -> int:
    """floor(ratio * n) with a guard so decimal ratios hit their intended
    integer products (0.7 * 60 must count 42, not 41)."""
    return int(np.floor(ratio * n + 1e-9))


@dataclass
class MaskMatrix:
    """bits: (C, P) uint8 matrix, 1 = masked. ratio: requested mask ratio."""

    bits: np.ndarray
    ratio: float

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        if self.bits.ndim != 2:
            raise ValueError("MaskMatrix bits must be 2-D (C, P)")
        if not ((self.bits == 0) | (self.bits == 1)).all():
            raise ValueError("MaskMatrix bits must be 0/1")
        self.bits = self.bits.astype(np.uint8)

    @property
    def n_masked(self):
        return int(self.bits.sum())


def sample_mask(policy: str, n_modalities: int, n_patches: int, ratio: float, rng) -> MaskMatrix:
    """Draw one mask under the given policy, uniformly over the admissible set."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    rng = as_generator(rng)
    c_n, p_n = n_modalities, n_patches
    bits = np.zeros((c_n, p_n), dtype=np.uint8)
    if policy == CROSS:
        k = floor_count(ratio, c_n * p_n)
        if k < 1:
            raise ValueError(f"cross policy masks zero cells at ratio {ratio} on {c_n}x{p_n}")
        if k >= c_n * p_n:
            raise ValueError("mask would hide every patch")
        chosen = rng.permutation(c_n * p_n)[:k]
        bits.flat[chosen] = 1
    elif policy == SYNC:
        k = floor_count(ratio, p_n)
        if k < 1:
            raise ValueError(f"sync policy masks zero columns at ratio {ratio} on P={p_n}")
        if k >= p_n:
            raise ValueError("mask would hide every column")
        cols = rng.permutation(p_n)[:k]
        bits[:, cols] = 1
    else:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return MaskMatrix(bits, ratio)


@dataclass
class ViewSplit:
    """Partition of a patch grid into visible and hidden patches.

    Each entry is (modality index, patch index, patch values); the two lists
    together cover every (c, p) exactly once.
    """

    unmasked_view: list
    masked_view: list


def split_views(grid: PatchGrid, mask: MaskMatrix) -> ViewSplit:
    c_n, p_n, _ = grid.patches.shape
    if mask.bits.shape != (c_n, p_n):
        raise ValueError(f"mask shape {mask.bits.shape} does not match grid {(c_n, p_n)}")
    unmasked, masked = [], []
    for c in range(c_n):
        for p in range(p_n):
            entry = (c, p, grid.patches[c, p].copy())
            (masked if mask.bits[c, p] else unmasked).append(entry)
    return ViewSplit(unmasked, masked)


def mask_to_lines(mask: MaskMatrix) -> str:
    """Serialize as C lines of P characters '0'/'1'."""
    return "\n".join("".join(str(int(b)) for b in row) for row in mask.bits) + "\n"


def mask_from_lines(text: str, ratio: float) -> MaskMatrix:
    rows = [line for line in text.splitlines() if line]
    if not rows:
        raise ValueError("empty mask serialization")
    width = len(rows[0])
    bits = np.zeros((len(rows), width), dtype=np.uint8)
    for i, row in enumerate(rows):
        if len(row) != width or any(ch not in "01" for ch in row):
            raise ValueError(f"mask line {i + 1} malformed: {row!r}")
        bits[i] = [int(ch) for ch in row]
    return MaskMatrix(bits, ratio)
