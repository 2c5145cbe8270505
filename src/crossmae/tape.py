"""Reverse-mode automatic differentiation over numpy arrays.

A constant is a plain ndarray, and a DiffArray is a value that depends on a
leaf of a Tape. Every primitive takes either for each operand. It records a
node on its tracked operands' one tape, and when every operand is a constant
it returns a plain array and records nothing, so a pass over constants alone
never touches a tape. backward walks the record once in reverse, so each
node's gradient is fully accumulated before its own backward rule fires, and
then drops the record and every node's operands and backward rule: the graph
is freed as soon as backward ends, and a tape runs backward at most once.
Only scalar losses that depend on a leaf may be differentiated.

A backward rule maps its node's gradient to one gradient per operand, in
operand order, tracked or not (None for an absent matmul bias); it neither
tests an operand's type nor adds into one. backward alone adds them into the
operands that are DiffArrays: an operand adopts its first gradient as its own
array, without a copy, and adds any later one into it. So every rule hands
each operand memory that no other operand holds: a fresh result; the
upstream gradient itself, to at most one operand (add gives its second
operand a copy); or, in transpose and concat, views of it that do not
overlap. backward takes each node's gradient off the node before its rule
fires, so after backward only the leaves hold gradients.

A batch of windows travels as one 2-D array of stacked row blocks, one block
per window. take_rows, scatter_rows and attention are the primitives that
know about that structure. attention's queries may hold fewer rows per
block than its keys and values, T_q against T, so a pass that keeps only
some rows of each window queries with just those. In a call that records nothing, the parameters
that matmul, layernorm and scatter_rows read may also hold one copy per row
block, stacked on a leading axis of B copies: a (B, k, n) matmul weight, a
(B, n) matmul bias, a (B, d) layernorm gain or bias, and a (B, 1, D)
scatter_rows fill. The rows then split into B equal blocks, and block j
reads copy j, so B windows that differ only in one parameter run as one
batch. B must divide the rows. A recording call takes only shared
parameters, and rejects a per-block one as it rejects any other shape.

attention normalizes its softmax after the value product, and no pass forms
the softmax weights: the forward divides the value products by the row
sums, and the backward divides the upstream gradient by them. A pass that
records nothing makes no pass over the scores but their matmul, exp, row
sums and value product, plus a row-max shift when the scores are not
provably small.

attention runs its blocks in tiles of whole blocks whose scores fit in
ATTENTION_TILE_BYTES (at least one block, and whole groups of 4 score rows),
so each of those passes reads a tile that a core's L2 holds instead of
streaming the whole batch's scores from L3: 11.1 MiB for 16 windows of 4
heads x 151 tokens. The tiling moves no bit of any output or gradient.

Why 512 KiB: on a host with 2 MiB of L2 per core, one BLAS thread, medians of
40 interleaved rounds, a call at 16 x 151 that records nothing took 15.0 ms
untiled, 10.7 ms in 2 MiB tiles (two windows each) and 10.2 ms in 1 MiB
tiles (one window, as 512 KiB gives); a recorded call and its backward took
42.8, 27.3 and 24.8 ms. At 16 x 49, pretraining's decoder, a recorded call
and its backward read medians of 1.21-1.27 ms in 512 KiB tiles of 6 + 6 + 4
windows against 1.30-1.36 ms in 1 MiB tiles of 13 + 3, over three runs of
200 interleaved rounds.
"""
import numpy as np

from . import kernels

LAYERNORM_EPS = 1e-5
# attention skips the softmax's row-max shift when no |score| can exceed this
SHIFT_FREE_BOUND = 64.0
# attention's most score bytes per tile of blocks: a quarter of a core's 2 MiB
# L2 on the host measured (see above)
ATTENTION_TILE_BYTES = 1 << 19


class DiffArray:
    """A value that depends on a leaf of a tape, carrying its gradient after backward."""

    __slots__ = ("data", "tape", "_grad", "_backward", "_operands", "__weakref__")

    def __init__(self, data, tape):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self._grad = None
        self._backward = None
        self._operands = None

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad


class Tape:
    """Ordered record of the primitive applications that depend on a leaf."""

    def __init__(self):
        self._nodes = []

    def leaf(self, data):
        """A leaf of the graph."""
        return DiffArray(data, self)

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into every leaf's grad, then release the
        graph and every other node's gradient. A second call on the same tape
        raises."""
        if self._nodes is None:
            raise ValueError("backward already ran on this tape")
        if not isinstance(loss, DiffArray):
            raise ValueError("loss depends on no leaf: a primitive of constants alone "
                             "returns a plain array, which has no gradient")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        loss._grad = np.ones_like(loss.data)
        nodes, self._nodes = self._nodes, None
        for node in reversed(nodes):
            # the node lets go of its gradient, so its rule may hand it on
            g, node._grad = node._grad, None
            if g is not None:
                for p, pg in zip(node._operands, node._backward(g)):
                    if not isinstance(p, DiffArray):
                        continue
                    if p._grad is None:
                        # adopted, not copied: a rule hands each operand its own array
                        p._grad = pg
                    else:
                        p._grad += pg
            node._backward = node._operands = None


def _data(x):
    """The array of an operand: a DiffArray's data, or the constant as a leaf would hold it."""
    return x.data if isinstance(x, DiffArray) else np.asarray(x, dtype=np.float64)


def _tracked(*operands):
    """Whether an operand is a DiffArray, so that the call records a node."""
    return any(isinstance(p, DiffArray) for p in operands)


def _n_blocks(rows, n):
    """n, the number of per-block copies an operand holds, when n equal row
    blocks make up rows."""
    if n < 1 or rows % n:
        raise ValueError(f"{n} per-block copies cannot split {rows} rows into equal blocks")
    return n


def _record(data, operands, backward):
    """data as a node on its tracked operands' one tape, keeping the operands
    and their backward rule, or data itself when every operand is a constant."""
    tape = None
    for p in operands:
        if isinstance(p, DiffArray):
            if tape is None:
                tape = p.tape
            elif p.tape is not tape:
                raise ValueError("operands recorded on different tapes")
    if tape is None:
        return data
    out = DiffArray(data, tape)
    out._backward = backward
    out._operands = operands
    tape._nodes.append(out)
    return out


def add(a, b):
    """Elementwise sum of equal shapes."""
    ad, bd = _data(a), _data(b)
    if ad.shape != bd.shape:
        raise ValueError(f"add shapes incompatible: {ad.shape} vs {bd.shape}")
    out_data = ad + bd

    def backward(g):
        # a adopts g, and a's later gradients add into it
        return g, g.copy()

    return _record(out_data, (a, b), backward)


def mul(a, b):
    """Elementwise product of equal shapes."""
    ad, bd = _data(a), _data(b)
    if ad.shape != bd.shape:
        raise ValueError(f"mul shapes incompatible: {ad.shape} vs {bd.shape}")
    out_data = ad * bd

    def backward(g):
        return g * bd, g * ad

    return _record(out_data, (a, b), backward)


def matmul(a, b, bias=None):
    """a @ b of 2-D operands, plus the 1-D bias row, when given, on each row.

    In a call that records nothing, b may be (B, k, n) and the bias (B, n),
    one copy per row block: block j of B equal row blocks of a is multiplied
    by b[j] and gets bias[j]. A 2-D b is one product over all the rows."""
    ad, bd = _data(a), _data(b)
    cd = None if bias is None else _data(bias)
    if (bd.ndim == 3 or cd is not None and cd.ndim == 2) and not _tracked(a, b, bias):
        return _matmul_per_block(ad, bd, cd)
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError("matmul requires 2-D operands")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    out_data = ad @ bd
    if cd is not None:
        if cd.shape != (bd.shape[1],):
            raise ValueError(f"matmul bias must have shape ({bd.shape[1]},), got {cd.shape}")
        out_data += cd

    def backward(g):
        return g @ bd.T, ad.T @ g, None if bias is None else kernels.col_sums(g)

    return _record(out_data, (a, b, bias), backward)


def _matmul_per_block(ad, bd, cd):
    """matmul's product when b or the bias holds one copy per row block."""
    if ad.ndim != 2 or bd.ndim not in (2, 3) or ad.shape[1] != bd.shape[-2]:
        raise ValueError(f"matmul cannot take {ad.shape} @ {bd.shape} block by block")
    (rows, k), n = ad.shape, bd.shape[-1]
    n_blocks = _n_blocks(rows, len(bd) if bd.ndim == 3 else len(cd))
    if cd is not None and cd.shape not in ((n,), (n_blocks, n)):
        raise ValueError(f"matmul bias must have shape ({n},) or ({n_blocks}, {n}), "
                         f"got {cd.shape}")
    if bd.ndim == 3:
        out_data = np.matmul(ad.reshape(n_blocks, rows // n_blocks, k), bd).reshape(rows, n)
    else:
        out_data = ad @ bd
    if cd is not None:
        by_block = out_data.reshape(n_blocks, rows // n_blocks, n)
        by_block += cd.reshape(len(cd) if cd.ndim == 2 else 1, 1, n)
    return out_data


def transpose(a):
    ad = _data(a)
    if ad.ndim != 2:
        raise ValueError("transpose requires a 2-D operand")
    out_data = np.ascontiguousarray(ad.T)

    def backward(g):
        return (g.T,)

    return _record(out_data, (a,), backward)


def slice_(a, key):
    """Basic slicing with a slice or tuple of slices (no steps)."""
    ad = _data(a)
    if isinstance(key, slice):
        key = (key,)
    for k in key:
        if not isinstance(k, slice) or k.step not in (None, 1):
            raise ValueError("slice_ supports contiguous slices only")
    out_data = np.ascontiguousarray(ad[key])

    def backward(g):
        ga = np.zeros_like(ad)
        ga[key] += g
        return (ga,)

    return _record(out_data, (a,), backward)


def concat(parts, axis=0):
    if not parts:
        raise ValueError("concat of zero arrays")
    datas = [_data(p) for p in parts]
    out_data = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        return [np.moveaxis(moved[lo:hi], 0, axis) for lo, hi in zip(offsets[:-1], offsets[1:])]

    return _record(out_data, parts, backward)


def take_rows(a, idx):
    """Rows idx of a 2-D array, in order. The indices must be distinct, so the
    backward writes each gradient row into its row by one indexed assignment."""
    ad = _data(a)
    idx = np.asarray(idx, dtype=np.intp)
    if ad.ndim != 2 or idx.ndim != 1:
        raise ValueError("take_rows needs a 2-D operand and 1-D row indices")
    out_data = ad[idx]
    taken = np.zeros(len(ad), dtype=bool)
    taken[idx] = True
    if np.count_nonzero(taken) != idx.size:
        raise ValueError("take_rows indices must be distinct")

    def backward(g):
        ga = np.zeros_like(ad)
        ga[idx] = g
        return (ga,)

    return _record(out_data, (a,), backward)


def scatter_rows(a, idx, n_rows, fill):
    """An (n_rows, D) array whose rows idx are the rows of a, in order, and
    whose other rows each hold the single row of fill, shape (1, D). The
    indices must be distinct. In a call that records nothing, fill may be
    (B, 1, D), one copy per row block: the other rows of block j of B equal
    row blocks of the output hold fill[j]."""
    ad, fd = _data(a), _data(fill)
    idx = np.asarray(idx, dtype=np.intp)
    if ad.ndim != 2 or idx.shape != ad.shape[:1]:
        raise ValueError("scatter_rows needs a 2-D operand and one index per row")
    d = ad.shape[1]
    if fd.shape != (1, d):
        if fd.shape[1:] != (1, d) or fd.ndim != 3 or _tracked(a, fill):
            raise ValueError(f"scatter_rows fill must have shape (1, {d}), got {fd.shape}")
        _n_blocks(n_rows, len(fd))
    rest = np.ones(n_rows, dtype=bool)
    rest[idx] = False
    if np.count_nonzero(rest) != n_rows - idx.size:
        raise ValueError("scatter_rows indices must be distinct")
    out_data = np.empty((n_rows, d))
    if fd.ndim == 3:
        # every row of a block takes its fill, and rows idx are then overwritten
        out_data.reshape(len(fd), n_rows // len(fd), d)[:] = fd
    else:
        out_data[rest] = fd
    out_data[idx] = ad

    def backward(g):
        return g[idx], kernels.col_sums(g[rest])[None]

    return _record(out_data, (a, fill), backward)


def attention(q, k, v, n_blocks, n_heads):
    """Multi-head scaled dot-product attention within each of n_blocks
    blocks: (n_blocks * T_q, D) queries against (n_blocks * T, D) keys and
    values, so block j's T_q query rows attend to block j's T key and value
    rows. A self-attention pass has T_q = T; a pass that keeps only some of
    each block's rows queries with just those.

    Heads come from a reshape to (blocks, heads, rows, D / heads); each head
    computes softmax(q k^T / sqrt(D / heads)) v over its own block, and the
    heads are merged back to (n_blocks * T_q, D) in head order.

    Only the two matmuls, exp and the row sums pass over the (T_q, T)
    scores of a block and head, in this order: the queries are scaled,
    qs = c q with c = 1 / sqrt(D / heads); the scores are s = qs k^T;
    e = exp(s), taken in place; the output is (e v) / e.sum(row), the row
    sums dividing the (T_q, D / heads) value products instead of the
    scores (the deferred normalization of Milakov and Gimelshein,
    arXiv:1805.02867, and of FlashAttention, Dao et al., arXiv:2205.14135).
    The softmax's row-max shift is skipped when Cauchy-Schwarz bounds every
    |s| by c max_i ||q_i|| max_j ||k_j||, over full rows of the queries and
    keys given, and that bound is at most SHIFT_FREE_BOUND (64): every exp
    then lies in [e^-64, e^64], a normal float, and even T e^64 |v| stays
    finite. A larger or NaN bound subtracts each row's max from s first.

    The blocks run in tiles of as many whole blocks as keep a tile's
    heads x T_q x T scores within ATTENTION_TILE_BYTES, at least one, and a
    number that makes a tile's score rows, heads x T_q a block, a multiple
    of 4, so the scores of a tile are computed, exponentiated, summed and
    multiplied into the values while they sit in cache. Each matmul works on
    one block and head, each row sum adds its row in the order a call over
    the whole batch would, and the shift is decided once for the batch, so
    the tiling moves no bit of the output or of the gradients. A recording
    call keeps each tile's e and row sums r; backward walks the same tiles
    and writes each tile's gradients into its rows. It never forms the
    weights e / r: it divides the upstream gradient instead, g' = g / r, in
    the (n_blocks * T_q, D) layout with each (row, head)'s r repeated over
    the head's columns. Then dv = e^T g'; the row term
    delta = rowdot(g' v^T, e) / r, a sum of e (g' v^T) products taken row
    by row with no score-sized temporary; and gs = e (g' v^T - delta),
    formed in place in the one score-sized array a tile allocates, g' v^T.
    The gradients are dq = c (gs k) and dk = c (gs^T q).

    Raises ValueError when the keys and values differ in shape, when the
    query or key rows or the columns are empty, when the queries and keys
    differ in width, when n_blocks or n_heads is below 1, or when n_blocks
    does not divide the query or the key rows or n_heads the width."""
    qd, kd, vd = _data(q), _data(k), _data(v)
    if qd.ndim != 2 or kd.ndim != 2 or vd.shape != kd.shape:
        raise ValueError("attention needs 2-D queries, keys and values, the keys and values "
                         "of one shape")
    (q_rows, d), (rows, kd_width) = qd.shape, kd.shape
    if (n_blocks < 1 or n_heads < 1 or not q_rows or not rows or not d or kd_width != d
            or q_rows % n_blocks or rows % n_blocks or d % n_heads):
        raise ValueError(f"attention cannot split {qd.shape} queries and {kd.shape} keys "
                         f"into {n_blocks} blocks of {n_heads} heads")
    t_q, t, dh = q_rows // n_blocks, rows // n_blocks, d // n_heads
    c = 1.0 / np.sqrt(dh)
    # A row sum is a GEMV, and OpenBLAS sums rows four at a time, so a row's
    # sum depends on its place in the call modulo 4: every tile starts on a
    # multiple of 4 score rows, as in a call over the whole batch. group is
    # the fewest blocks whose score rows, n_heads * T_q a block, add up to a
    # multiple of 4.
    group = (1, 4, 2, 4)[n_heads * t_q % 4]
    per_tile = max(1, ATTENTION_TILE_BYTES // (8 * n_heads * t_q * t) // group) * group
    recording = _tracked(q, k, v)

    def split(x, n):
        """The (blocks, heads, n, D / heads) view of (rows, D) rows, n a block."""
        return x.reshape(-1, n, n_heads, dh).transpose(0, 2, 1, 3)

    # Row dot products, so no second (rows, D) array is live at the score
    # matmuls; a NaN bound fails the test below and takes the shifted path.
    bound = c * np.sqrt(np.einsum("ij,ij->i", qd, qd).max() * np.einsum("ij,ij->i", kd, kd).max())
    shifted = not bound <= SHIFT_FREE_BOUND
    qh, kh, vh = split(qd, t_q), split(kd, t), split(vd, t)
    out_data = np.empty((q_rows, d))
    out_heads = split(out_data, t_q)
    saved = []
    for b in range(0, n_blocks, per_tile):
        blocks = slice(b, b + per_tile)
        # the scaled queries die with the score matmul
        e = split(qd[b * t_q:(b + per_tile) * t_q] * c, t_q) @ kh[blocks].transpose(0, 1, 3, 2)
        # matmul returns a C-contiguous array, so the reshape is a view
        e_rows = e.reshape(-1, t)
        if shifted:
            e_rows -= e_rows.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        sums = kernels.row_sums(e_rows).reshape(e.shape[:3] + (1,))
        # the head products go through split's view, so merging copies nothing
        tile_out = out_heads[blocks]
        np.matmul(e, vh[blocks], out=tile_out)
        np.divide(tile_out, sums, out=tile_out)
        if recording:
            saved.append((blocks, e, e_rows, sums))

    def backward(g):
        gq = np.empty((q_rows, d))
        gk, gv = np.empty((rows, d)), np.empty((rows, d))
        gqh, gkh, gvh = split(gq, t_q), split(gk, t), split(gv, t)
        for blocks, e, e_rows, sums in saved:
            # g' = g / r in the (rows, D) layout, each (row, head)'s sum
            # repeated over the head's columns
            r = np.repeat(sums.reshape(e.shape[:3]).transpose(0, 2, 1), dh, axis=2)
            gp = split(g[blocks.start * t_q:blocks.stop * t_q] / r.reshape(-1, d), t_q)
            np.matmul(e.transpose(0, 1, 3, 2), gp, out=gvh[blocks])
            # g' v^T, the tile's one score-sized array, becomes gs in place
            gs = gp @ vh[blocks].transpose(0, 1, 3, 2)
            gs_rows = gs.reshape(-1, t)
            delta = np.einsum("ij,ij->i", gs_rows, e_rows)
            delta /= sums.reshape(-1)
            gs_rows -= delta[:, None]
            gs_rows *= e_rows
            np.matmul(gs, kh[blocks], out=gqh[blocks])
            np.matmul(gs.transpose(0, 1, 3, 2), qh[blocks], out=gkh[blocks])
        gq *= c
        gk *= c
        return gq, gk, gv

    return _record(out_data, (q, k, v), backward)


def mean(a):
    ad = _data(a)
    if ad.size == 0:
        raise ValueError("mean of empty array")
    out_data = np.asarray(ad.mean())
    inv_n = 1.0 / ad.size

    def backward(g):
        return (np.full_like(ad, g * inv_n),)

    return _record(out_data, (a,), backward)


def sum_(a):
    ad = _data(a)
    out_data = np.asarray(ad.sum())

    def backward(g):
        return (np.full_like(ad, g),)

    return _record(out_data, (a,), backward)


def scale(a, c):
    c = float(c)
    out_data = _data(a) * c

    def backward(g):
        return (g * c,)

    return _record(out_data, (a,), backward)


def gelu(a):
    ad = _data(a)
    out_data, cdf = kernels.gelu_fwd(ad)

    def backward(g):
        return (kernels.gelu_bwd(ad, cdf, g),)

    return _record(out_data, (a,), backward)


def softmax(a):
    """Row softmax over the last axis of a 2-D array."""
    ad = _data(a)
    if ad.ndim != 2 or ad.shape[1] == 0:
        raise ValueError("softmax requires a 2-D array with nonempty rows")
    y = kernels.softmax_fwd(ad)

    def backward(g):
        return (kernels.softmax_bwd(y, g),)

    return _record(y, (a,), backward)


def log_softmax(a):
    """Row log-softmax; the stable companion of softmax for likelihood losses."""
    ad = _data(a)
    if ad.ndim != 2 or ad.shape[1] == 0:
        raise ValueError("log_softmax requires a 2-D array with nonempty rows")
    shifted = ad - ad.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _record(out_data, (a,), backward)


def layernorm(x, gain, bias):
    """Row layernorm of a 2-D array, with LAYERNORM_EPS added to the row
    variance, followed by affine scale/shift. In a call that records
    nothing, the gain and bias may be (B, d), one copy per row block: block
    j of B equal row blocks is scaled by gain[j] and shifted by bias[j]."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    if xd.ndim != 2:
        raise ValueError("layernorm requires a 2-D operand")
    rows, d = xd.shape
    if gd.shape != (d,) or bd.shape != (d,):
        copies = [len(p) for p in (gd, bd) if p.ndim == 2]
        if not copies or {gd.shape, bd.shape} - {(d,), (copies[0], d)} or _tracked(x, gain, bias):
            raise ValueError("layernorm gain/bias must match the row width")
        n_blocks = _n_blocks(rows, copies[0])
        # each copy repeated over its block's rows: the affine step stays elementwise
        gd, bd = (np.repeat(p, rows // n_blocks, axis=0) if p.ndim == 2 else p for p in (gd, bd))
    y, xhat, inv_std = kernels.layernorm_fwd(xd, gd, bd, LAYERNORM_EPS)

    def backward(g):
        return kernels.layernorm_bwd(xhat, inv_std, gd, g)

    return _record(y, (x, gain, bias), backward)


def mse(a, b):
    """Mean squared error over all elements, as a scalar."""
    ad, bd = _data(a), _data(b)
    if ad.shape != bd.shape:
        raise ValueError(f"mse shapes differ: {ad.shape} vs {bd.shape}")
    diff = ad - bd
    out_data = np.asarray((diff * diff).mean())
    coef = 2.0 / diff.size

    def backward(g):
        return g * coef * diff, -g * coef * diff

    return _record(out_data, (a, b), backward)


def finite_diff_check(build, params, h=1e-4, max_coords=None, seed=0, batch=None):
    """Compare backward grads against central finite differences.

    build(params, name, bumps) is called once with the parameters as leaves
    of a fresh tape and name and bumps None, and returns the scalar loss, for
    the analytic gradients. Every later call evaluates bumped copies of one
    group: params holds plain arrays, name names the group, and bumps is a
    (2k, *shape) array of copies of params[name], each with one coordinate
    moved: by +h in row 2j and by -h in row 2j + 1, for the j-th of k
    coordinates. build returns the 2k losses in row order, each with every
    other parameter as given here, so it may reuse whatever does not depend
    on the group. Both losses of a coordinate come from one call.

    params: dict name -> ndarray. Checks every coordinate, or a seeded subset
    of max_coords per parameter, in params order, at most batch coordinates
    per call (all of a group's when None). Returns the maximum relative error
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|) and the name of
    the group it was found in, as a pair.
    Raises ValueError when a bump of h leaves a checked coordinate unchanged:
    its numeric gradient would read 0 whatever the loss.
    """
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    tape.backward(build(leaves, None, None))

    rng = np.random.default_rng(seed)
    worst, worst_group = 0.0, None
    for name, base in params.items():
        flat_n = base.size
        if max_coords is not None and flat_n > max_coords:
            coords = rng.choice(flat_n, size=max_coords, replace=False)
        else:
            coords = np.arange(flat_n)
        step = batch or max(len(coords), 1)
        for at in range(0, len(coords), step):
            chunk = coords[at:at + step]
            orig = base.flat[chunk]
            stuck = (orig + h == orig) | (orig - h == orig)
            if stuck.any():
                i = np.argmax(stuck)
                raise ValueError(f"a step of {h!r} leaves {name}.flat[{chunk[i]}] = "
                                 f"{float(orig[i])!r} unchanged")
            bumps = np.repeat(base[None], 2 * len(chunk), axis=0)
            flat = bumps.reshape(len(bumps), -1)
            rows = np.arange(len(chunk))
            flat[2 * rows, chunk] += h
            flat[2 * rows + 1, chunk] -= h
            losses = np.asarray(build(params, name, bumps), dtype=np.float64)
            numeric = (losses[0::2] - losses[1::2]) / (2 * h)
            analytic = leaves[name].grad.flat[chunk]
            rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
            top = float(rel.max())
            # a NaN error is kept: no comparison can pass it
            if worst_group is None or top > worst or np.isnan(top):
                worst, worst_group = top, name
    return worst, worst_group
