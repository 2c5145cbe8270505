"""Reverse-mode automatic differentiation over numpy arrays.

A Tape records, in creation order, every primitive application that needs a
gradient; applications on constants alone are computed but not recorded, so
a forward-only tape holds nothing. backward walks the record once in reverse,
so each node's gradient is fully accumulated before its own backward rule
fires, and then drops the record and every node's backward rule: the graph
is freed as soon as backward ends, and a tape runs backward at most once.
Only scalar losses may be differentiated. A node allocates its gradient on
the first contribution; a leaf may instead be given a caller-owned, zeroed
array to add its gradient into (a training loop passes views of the
optimizer's flat gradient buffer).

Supported broadcasting is deliberately narrow: add takes a 1-D bias row as
its second operand, added to each row of a 2-D first operand. Everything else
must shape-match exactly, which keeps every VJP an exact mirror of its
forward.

A batch of windows travels as one 2-D array of stacked row blocks, one block
per window. take_rows, scatter_rows and attention are the primitives that
know about that structure.
"""
import numpy as np

from . import kernels


class DiffArray:
    """A tensor tracked on a tape, carrying its gradient after backward."""

    __slots__ = ("data", "tape", "requires_grad", "_grad", "_backward", "__weakref__")

    def __init__(self, data, tape, requires_grad, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.requires_grad = requires_grad
        self._grad = grad
        self._backward = None

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def accumulate(self, g):
        if self._grad is None:
            # The first gradient is copied, not added to zeros: one pass, and
            # a -0.0 stays -0.0, which no later use tells from +0.0.
            self._grad = np.empty_like(self.data)
            np.copyto(self._grad, g)
        else:
            self._grad += g


class Tape:
    """Ordered record of the primitive applications that need a gradient."""

    def __init__(self):
        self._nodes = []

    def leaf(self, data, requires_grad=True, grad=None):
        """A leaf of the graph. Given grad, an array of data's shape that
        the caller has zeroed, backward adds the leaf's gradient into it
        instead of allocating one."""
        if grad is not None and np.shape(grad) != np.shape(data):
            raise ValueError(f"leaf gradient shape {np.shape(grad)} does not match "
                             f"data shape {np.shape(data)}")
        return DiffArray(data, self, requires_grad, grad)

    def constant(self, data):
        return self.leaf(data, requires_grad=False)

    def _record(self, data, parents, backward):
        out = DiffArray(data, self, any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._backward = backward
            self._nodes.append(out)
        return out

    def backward(self, loss):
        """Accumulate d(loss)/d(node) into every reachable node's grad, then
        release the graph. A second call on the same tape raises."""
        if self._nodes is None:
            raise ValueError("backward already ran on this tape")
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        loss.accumulate(np.ones_like(loss.data))
        nodes, self._nodes = self._nodes, None
        for node in reversed(nodes):
            if node._grad is not None:
                node._backward(node._grad)
            node._backward = None


def _same_tape(*arrs):
    tape = arrs[0].tape
    for a in arrs[1:]:
        if a.tape is not tape:
            raise ValueError("operands recorded on different tapes")
    return tape


def add(a, b):
    """Elementwise sum of equal shapes, or a 2-D a plus a 1-D bias row b
    added to each of its rows."""
    tape = _same_tape(a, b)
    ash, bsh = a.data.shape, b.data.shape
    row = ash != bsh
    if row and not (len(ash) == 2 and bsh == (ash[1],)):
        raise ValueError(f"add shapes incompatible: {ash} vs {bsh}")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0) if row else g)

    return tape._record(out_data, (a, b), backward)


def mul(a, b):
    """Elementwise product of equal shapes."""
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shapes incompatible: {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return tape._record(out_data, (a, b), backward)


def matmul(a, b):
    tape = _same_tape(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul requires 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return tape._record(out_data, (a, b), backward)


def transpose(a):
    if a.data.ndim != 2:
        raise ValueError("transpose requires a 2-D operand")
    out_data = np.ascontiguousarray(a.data.T)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return a.tape._record(out_data, (a,), backward)


def slice_(a, key):
    """Basic slicing with a slice or tuple of slices (no steps)."""
    if isinstance(key, slice):
        key = (key,)
    for k in key:
        if not isinstance(k, slice) or k.step not in (None, 1):
            raise ValueError("slice_ supports contiguous slices only")
    out_data = np.ascontiguousarray(a.data[key])

    def backward(g):
        if a.requires_grad:
            if a._grad is None:
                a._grad = np.zeros_like(a.data)
            a._grad[key] += g

    return a.tape._record(out_data, (a,), backward)


def concat(parts, axis=0):
    if not parts:
        raise ValueError("concat of zero arrays")
    tape = _same_tape(*parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(np.moveaxis(moved[lo:hi], 0, axis))

    return tape._record(out_data, tuple(parts), backward)


def take_rows(a, idx):
    """Rows idx of a 2-D array, in order and repeats allowed. The backward
    scatter-adds each gradient row into the row it came from."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ValueError("take_rows needs a 2-D operand and 1-D row indices")
    out_data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            if a._grad is None:
                a._grad = np.zeros_like(a.data)
            np.add.at(a._grad, idx, g)

    return a.tape._record(out_data, (a,), backward)


def scatter_rows(a, idx, n_rows, fill):
    """An (n_rows, D) array whose rows idx are the rows of a, in order, and
    whose other rows each hold the single row of fill, shape (1, D). The
    indices must be distinct."""
    tape = _same_tape(a, fill)
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 2 or idx.shape != a.data.shape[:1]:
        raise ValueError("scatter_rows needs a 2-D operand and one index per row")
    d = a.data.shape[1]
    if fill.data.shape != (1, d):
        raise ValueError(f"scatter_rows fill must have shape (1, {d}), got {fill.data.shape}")
    rest = np.ones(n_rows, dtype=bool)
    rest[idx] = False
    if np.count_nonzero(rest) != n_rows - idx.size:
        raise ValueError("scatter_rows indices must be distinct")
    out_data = np.empty((n_rows, d))
    out_data[rest] = fill.data
    out_data[idx] = a.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[idx])
        if fill.requires_grad:
            fill.accumulate(g[rest].sum(axis=0, keepdims=True))

    return tape._record(out_data, (a, fill), backward)


def attention(q, k, v, n_blocks, n_heads):
    """Multi-head scaled dot-product attention within each of n_blocks equal
    row blocks of (rows, D) queries, keys and values.

    Heads come from a reshape to (blocks, heads, T, D / heads); each head
    computes softmax(q k^T / sqrt(D / heads)) v over its own block, and the
    heads are merged back to (rows, D) in head order."""
    tape = _same_tape(q, k, v)
    if q.data.ndim != 2 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ValueError("attention needs 2-D queries, keys and values of one shape")
    rows, d = q.data.shape
    if n_blocks < 1 or rows % n_blocks or d % n_heads:
        raise ValueError(f"attention cannot split {q.data.shape} into {n_blocks} blocks "
                         f"of {n_heads} heads")
    t, dh = rows // n_blocks, d // n_heads
    c = 1.0 / np.sqrt(dh)

    def split(x):
        return x.reshape(n_blocks, t, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn *= c
    # The scores become the weights in place, so the pass holds one
    # (blocks*heads*T, T) array, not two. matmul returns a C-contiguous
    # array, so the reshape is a view.
    score_rows = attn.reshape(-1, t)
    kernels.softmax_fwd(score_rows, out=score_rows)
    out_data = merge(attn @ vh)

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v.accumulate(merge(attn.transpose(0, 1, 3, 2) @ gh))
        if q.requires_grad or k.requires_grad:
            ga = (gh @ vh.transpose(0, 1, 3, 2)).reshape(-1, t)
            gs = kernels.softmax_bwd(attn.reshape(-1, t), ga).reshape(attn.shape)
            gs *= c
            if q.requires_grad:
                q.accumulate(merge(gs @ kh))
            if k.requires_grad:
                k.accumulate(merge(gs.transpose(0, 1, 3, 2) @ qh))

    return tape._record(out_data, (q, k, v), backward)


def mean(a):
    if a.data.size == 0:
        raise ValueError("mean of empty array")
    out_data = np.asarray(a.data.mean())
    inv_n = 1.0 / a.data.size

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, g * inv_n))

    return a.tape._record(out_data, (a,), backward)


def sum_(a):
    out_data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, g))

    return a.tape._record(out_data, (a,), backward)


def scale(a, c):
    c = float(c)
    out_data = a.data * c

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return a.tape._record(out_data, (a,), backward)


def gelu(a):
    out_data, cdf = kernels.gelu_fwd(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(kernels.gelu_bwd(a.data, cdf, g))

    return a.tape._record(out_data, (a,), backward)


def softmax(a):
    """Row softmax over the last axis of a 2-D array."""
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ValueError("softmax requires a 2-D array with nonempty rows")
    y = kernels.softmax_fwd(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(kernels.softmax_bwd(y, g))

    return a.tape._record(y, (a,), backward)


def log_softmax(a):
    """Row log-softmax; the stable companion of softmax for likelihood losses."""
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ValueError("log_softmax requires a 2-D array with nonempty rows")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g - soft * g.sum(axis=1, keepdims=True))

    return a.tape._record(out_data, (a,), backward)


def layernorm(x, gain, bias, eps=1e-5):
    """Row layernorm of a 2-D array followed by affine scale/shift."""
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    if x.data.ndim != 2:
        raise ValueError("layernorm requires a 2-D operand")
    if gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise ValueError("layernorm gain/bias must match the row width")
    tape = _same_tape(x, gain, bias)
    y, xhat, inv_std = kernels.layernorm_fwd(x.data, gain.data, bias.data, eps)

    def backward(g):
        gx, ggain, gbias = kernels.layernorm_bwd(xhat, inv_std, gain.data, g)
        if x.requires_grad:
            x.accumulate(gx)
        if gain.requires_grad:
            gain.accumulate(ggain)
        if bias.requires_grad:
            bias.accumulate(gbias)

    return tape._record(y, (x, gain, bias), backward)


def mse(a, b):
    """Mean squared error over all elements, as a scalar node."""
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mse shapes differ: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    out_data = np.asarray((diff * diff).mean())
    coef = 2.0 / diff.size

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * coef * diff)
        if b.requires_grad:
            b.accumulate(-g * coef * diff)

    return tape._record(out_data, (a, b), backward)


def finite_diff_check(build, params, h=1e-4, max_coords=None, seed=0):
    """Compare backward grads against central finite differences.

    build: callable taking a dict name -> DiffArray of leaves (on a fresh tape)
    and returning a scalar DiffArray loss. params: dict name -> ndarray.
    Checks every coordinate, or a seeded subset of max_coords per parameter.
    Returns the maximum relative error |analytic - numeric| /
    max(1e-8, |analytic| + |numeric|).
    """
    def evaluate(values, requires_grad=False):
        tape = Tape()
        leaves = {k: tape.leaf(v, requires_grad) for k, v in values.items()}
        loss = build(leaves)
        return tape, leaves, loss

    tape, leaves, loss = evaluate(params, requires_grad=True)
    tape.backward(loss)
    analytic = {k: leaves[k].grad.copy() for k in params}

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    worst = 0.0
    for name, base in params.items():
        flat_n = base.size
        if max_coords is not None and flat_n > max_coords:
            coords = rng.choice(flat_n, size=max_coords, replace=False)
        else:
            coords = np.arange(flat_n)
        # One copy of the bumped group; each coordinate is put back after use.
        work = base.copy()
        bumped = {**params, name: work}
        for idx in coords:
            x = work.flat[idx]
            work.flat[idx] += h
            _, _, lp = evaluate(bumped)
            work.flat[idx] -= 2 * h
            _, _, lm = evaluate(bumped)
            work.flat[idx] = x
            numeric = (float(lp.data) - float(lm.data)) / (2 * h)
            a = analytic[name].flat[idx]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
