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
    uniformly over the admissible set: sample_masks with the one generator
    that rng gives (np.random.default_rng)."""
    return sample_masks(policy, n_modalities, n_patches, ratio, [np.random.default_rng(rng)])[0]


def sample_masks(policy: str, n_modalities: int, n_patches: int, ratio: float,
                 rngs) -> np.ndarray:
    """Draw one (C, P) mask from each Generator of rngs, in order: a
    (len(rngs), C, P) bool array (True = hidden). Each generator draws one
    permutation of the C * P cells (cross) or of the P columns (sync) and
    hides its first floor_count(ratio, ...) entries."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    c_n, p_n = n_modalities, n_patches
    if policy == CROSS:
        cells = c_n * p_n
        k = floor_count(ratio, cells)
        if k < 1:
            raise ValueError(f"ratio {ratio} hides no patch of a {c_n}x{p_n} grid")
        if k >= cells:
            raise ValueError(f"ratio {ratio} hides every patch of a {c_n}x{p_n} grid")
    elif policy == SYNC:
        cells = p_n
        k = floor_count(ratio, cells)
        if k < 1:
            raise ValueError(f"ratio {ratio} hides no column of {p_n} patches")
        if k >= cells:
            raise ValueError(f"ratio {ratio} hides every column of {p_n} patches")
    else:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    n = len(rngs)
    # row i is rngs[i].permutation(cells): a shuffle of arange(cells)
    order = np.empty((n, cells), dtype=np.int64)
    order[:] = np.arange(cells)
    for row, rng in zip(order, rngs):
        rng.shuffle(row)
    hidden = np.zeros((n, cells), dtype=bool)
    np.put_along_axis(hidden, order[:, :k], True, axis=1)
    if policy == CROSS:
        return hidden.reshape(n, c_n, p_n)
    return np.repeat(hidden[:, None, :], c_n, axis=1)
