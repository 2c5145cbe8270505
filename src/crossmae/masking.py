"""Masking policies over the C x P patch grid.

A mask is a (C, P) bool array, True where a patch is hidden; a batch of
masks is a (B, C, P) bool array. Two policies:
- cross-modality: exactly floor(rho * C * P) cells masked, drawn uniformly
  from all cells, so a time column can be hidden in one modality and visible
  in another;
- synchronized: exactly floor(rho * P) whole time columns masked across every
  modality at once.
"""
import numpy as np

CROSS = "cross"
SYNC = "sync"
POLICIES = (CROSS, SYNC)


def floor_count(ratio: float, n: int) -> int:
    """floor(ratio * n) with a guard so decimal ratios hit their intended
    integer products (0.7 * 60 must count 42, not 41)."""
    return int(np.floor(ratio * n + 1e-9))


def sample_mask(policy: str, n_modalities: int, n_patches: int, ratio: float, rng) -> np.ndarray:
    """Draw one (C, P) bool mask (True = hidden) under the given policy,
    uniformly over the admissible set."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(rng)
    c_n, p_n = n_modalities, n_patches
    mask = np.zeros((c_n, p_n), dtype=bool)
    if policy == CROSS:
        k = floor_count(ratio, c_n * p_n)
        if k < 1:
            raise ValueError(f"ratio {ratio} hides no patch of a {c_n}x{p_n} grid")
        if k >= c_n * p_n:
            raise ValueError(f"ratio {ratio} hides every patch of a {c_n}x{p_n} grid")
        chosen = rng.permutation(c_n * p_n)[:k]
        mask.flat[chosen] = True
    elif policy == SYNC:
        k = floor_count(ratio, p_n)
        if k < 1:
            raise ValueError(f"ratio {ratio} hides no column of {p_n} patches")
        if k >= p_n:
            raise ValueError(f"ratio {ratio} hides every column of {p_n} patches")
        cols = rng.permutation(p_n)[:k]
        mask[:, cols] = True
    else:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return mask
