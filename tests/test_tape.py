"""Reverse-mode tape: forward values, exact gradients, finite differences."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from crossmae import kernels
from crossmae import tape as T
from crossmae.model import ArchSpec, Binding, init_model, mae_loss
from crossmae.windows import patchify


def _leaf(rng, shape):
    t = T.Tape()
    return t, t.leaf(rng.standard_normal(shape))


def test_softmax_rows_normalized_and_shift_invariant():
    rng = np.random.default_rng(0)
    t = T.Tape()
    x = rng.standard_normal((5, 7))
    y = T.softmax(t.leaf(x)).data
    assert np.all(y > 0)
    assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12
    y2 = T.softmax(t.leaf(x + 13.5)).data
    assert np.max(np.abs(y2 - y)) <= 1e-12


def test_layernorm_constant_row_is_zero_before_affine():
    t = T.Tape()
    x = t.leaf(np.full((3, 8), 4.2))
    out = T.layernorm(x, np.ones(8), np.zeros(8))
    assert np.max(np.abs(out.data)) < 1e-6


def test_mse_identity_is_zero_with_zero_grad():
    t = T.Tape()
    a = t.leaf(np.arange(6, dtype=float).reshape(2, 3))
    loss = T.mse(a, a.data.copy())
    t.backward(loss)
    assert loss.data == 0.0
    assert np.array_equal(a.grad, np.zeros((2, 3)))


def test_backward_sum_gives_ones():
    t = T.Tape()
    x = t.leaf(np.random.default_rng(1).standard_normal((4, 3)))
    t.backward(T.sum_(x))
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_backward_mean_square_gives_two_x_over_n():
    t = T.Tape()
    x = t.leaf(np.random.default_rng(2).standard_normal(10))
    t.backward(T.mean(T.mul(x, x)))
    assert np.max(np.abs(x.grad - 2.0 * x.data / 10.0)) < 1e-12


def test_backward_requires_scalar_and_same_tape():
    t = T.Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward(T.add(x, x))
    other = T.Tape()
    with pytest.raises(ValueError):
        T.add(x, other.leaf(np.ones((2, 2))))
    with pytest.raises(ValueError):
        other.backward(T.mean(x))


def test_shape_mismatch_rejected():
    t = T.Tape()
    with pytest.raises(ValueError):
        T.add(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2))))
    for a, b in (((2, 3), ()), ((), (2, 3)), ((3,), (2, 3)), ((2, 3), (3,))):
        with pytest.raises(ValueError):
            T.add(t.leaf(np.ones(a)), t.leaf(np.ones(b)))
    for a, b in (((2, 3), ()), ((), (2, 3))):
        with pytest.raises(ValueError):
            T.mul(t.leaf(np.ones(a)), t.leaf(np.ones(b)))
    with pytest.raises(ValueError):
        T.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))
    for bias in ((2,), (3,), (1, 4)):
        with pytest.raises(ValueError, match="matmul bias"):
            T.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 4))), t.leaf(np.ones(bias)))
    with pytest.raises(ValueError):
        T.mse(t.leaf(np.ones(3)), np.ones(4))


def test_matmul_bias_gradient_is_the_column_sum():
    t = T.Tape()
    x = t.leaf(np.random.default_rng(3).standard_normal((4, 5)))
    w = t.leaf(np.random.default_rng(4).standard_normal((5, 3)))
    b = t.leaf(np.random.default_rng(5).standard_normal(3))
    y = T.matmul(x, w, b)
    t.backward(T.mean(T.mul(y, y)))
    assert b.grad.shape == (3,)
    want = 2.0 * (x.data @ w.data + b.data).sum(axis=0) / 12.0
    assert np.max(np.abs(b.grad - want)) < 1e-12


def test_biased_matmul_matches_its_formula_bit_for_bit():
    rng = np.random.default_rng(6)
    x, w, b, g = (rng.standard_normal(s) for s in ((7, 5), (5, 3), (3,), (7, 3)))
    t = T.Tape()
    xl, wl, bl = t.leaf(x), t.leaf(w), t.leaf(b)
    y = T.matmul(xl, wl, bl)
    t.backward(T.sum_(T.mul(y, g)))  # y's gradient is g itself
    for got, want in ((y.data, x @ w + b), (bl.grad, kernels.col_sums(g)),
                      (xl.grad, g @ w.T), (wl.grad, x.T @ g)):
        assert got.tobytes() == want.tobytes()


PRIMITIVES = {
    "add": lambda p: T.mean(T.add(p["a"], p["b"])),
    "mul": lambda p: T.mean(T.mul(p["a"], p["b"])),
    "matmul": lambda p: T.mean(T.matmul(p["a"], p["m"], p["r"])),
    "transpose": lambda p: T.mean(T.mul(T.transpose(p["a"]), T.transpose(p["a"]))),
    "slice": lambda p: T.mean(T.slice_(p["a"], (slice(1, 3), slice(None)))),
    "concat": lambda p: T.mean(T.concat([p["a"], p["b"]], axis=0)),
    "sum": lambda p: T.sum_(T.mul(p["a"], p["a"])),
    "scale": lambda p: T.mean(T.scale(p["a"], 2.5)),
    "gelu": lambda p: T.mean(T.gelu(p["a"])),
    "softmax": lambda p: T.mean(T.mul(T.softmax(p["a"]), p["b"])),
    "log_softmax": lambda p: T.mean(T.mul(T.log_softmax(p["a"]), p["b"])),
    "layernorm": lambda p: T.mean(T.layernorm(p["a"], p["g"], p["c"])),
    "mse": lambda p: T.mse(p["a"], p["b"]),
    "take_rows": lambda p: T.mean(T.mul(T.take_rows(p["a"], [3, 0, 2]),
                                           T.slice_(p["b"], (slice(0, 3), slice(None))))),
    "scatter_rows": lambda p: T.mean(T.mul(T.scatter_rows(p["a"], [5, 0, 2, 3], 7, p["f"]),
                                              np.arange(35.0).reshape(7, 5))),
    "attention": lambda p: T.mean(T.mul(T.attention(p["q"], p["k"], p["v"], 2, 2), p["w"])),
    # two query rows a block against three key rows
    "attention_kept_rows": lambda p: T.mean(T.mul(T.attention(p["q2"], p["k"], p["v"], 2, 2),
                                                  p["w2"])),
}


def _operands():
    rng = np.random.default_rng(17)
    return {"a": rng.standard_normal((4, 5)), "b": rng.standard_normal((4, 5)),
            "m": rng.standard_normal((5, 3)), "g": rng.standard_normal(5) + 2.0,
            "c": rng.standard_normal(5), "f": rng.standard_normal((1, 5)),
            "q": rng.standard_normal((6, 4)), "k": rng.standard_normal((6, 4)),
            "v": rng.standard_normal((6, 4)), "w": rng.standard_normal((6, 4)),
            "r": rng.standard_normal(3), "q2": rng.standard_normal((4, 4)),
            "w2": rng.standard_normal((4, 4))}


def _each_bump(loss):
    """A finite_diff_check build of loss(params): one evaluation per bumped array."""
    def build(p, name, bumps):
        if name is None:
            return loss(p)
        return [float(loss({**p, name: bumped})) for bumped in bumps]
    return build


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_matches_finite_differences(name):
    err, _ = T.finite_diff_check(_each_bump(PRIMITIVES[name]), _operands(), h=1e-4)
    assert err < 1e-5, f"{name}: {err:.2e}"


# One call of each public primitive, with every array operand passed
# through w: the identity for constants, a tape's leaf for tracked operands.
CALLS = {
    "add": lambda w, p: T.add(w(p["a"]), w(p["b"])),
    "mul": lambda w, p: T.mul(w(p["a"]), w(p["b"])),
    "matmul": lambda w, p: T.matmul(w(p["a"]), w(p["m"]), w(p["r"])),
    "transpose": lambda w, p: T.transpose(w(p["a"])),
    "slice_": lambda w, p: T.slice_(w(p["a"]), (slice(1, 3), slice(None))),
    "concat": lambda w, p: T.concat([w(p["a"]), w(p["b"])], axis=1),
    "take_rows": lambda w, p: T.take_rows(w(p["a"]), [3, 0, 2]),
    "scatter_rows": lambda w, p: T.scatter_rows(w(p["a"]), [5, 0, 2, 3], 7, w(p["f"])),
    "attention": lambda w, p: T.attention(w(p["q"]), w(p["k"]), w(p["v"]), 2, 2),
    "mean": lambda w, p: T.mean(w(p["a"])),
    "sum_": lambda w, p: T.sum_(w(p["a"])),
    "scale": lambda w, p: T.scale(w(p["a"]), 2.5),
    "gelu": lambda w, p: T.gelu(w(p["a"])),
    "softmax": lambda w, p: T.softmax(w(p["a"])),
    "log_softmax": lambda w, p: T.log_softmax(w(p["a"])),
    "layernorm": lambda w, p: T.layernorm(w(p["a"]), w(p["g"]), w(p["c"])),
    "mse": lambda w, p: T.mse(w(p["a"]), w(p["b"])),
}


def _public_primitives():
    return sorted(name for name, fn in vars(T).items()
                  if inspect.isfunction(fn) and fn.__module__ == T.__name__
                  and not name.startswith("_") and name != "finite_diff_check")


@pytest.mark.parametrize("name", _public_primitives())
def test_each_primitive_of_constants_returns_the_array_a_leaf_would_carry(name):
    const = CALLS[name](lambda x: x, _operands())
    t = T.Tape()
    tracked = CALLS[name](t.leaf, _operands())
    assert type(const) is np.ndarray and isinstance(tracked, T.DiffArray)
    assert const.dtype == tracked.data.dtype and const.shape == tracked.data.shape
    assert const.tobytes() == tracked.data.tobytes()


def _operand_grads(name, tracked):
    """The gradients of the call CALLS[name] hands its operands when the
    positions in tracked are leaves and the rest constants (every operand
    when tracked is None), and the output's gradient is a fixed array."""
    t = T.Tape()
    operands = []

    def w(x):
        operands.append(t.leaf(x) if tracked is None or len(operands) in tracked else x)
        return operands[-1]

    out = CALLS[name](w, _operands())
    weights = np.random.default_rng(18).standard_normal(out.data.shape)
    t.backward(T.sum_(T.mul(out, weights)))
    return [x.grad if isinstance(x, T.DiffArray) else None for x in operands]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_an_operand_tracked_alone_gets_the_gradient_it_gets_among_tracked_operands(name):
    # a backward rule returns every operand's gradient whichever are tracked,
    # and the tape adds each into its operand only when that one is
    every = _operand_grads(name, None)
    for i, want in enumerate(every):
        alone = _operand_grads(name, {i})
        assert [g is None for g in alone] == [j != i for j in range(len(every))]
        assert alone[i].dtype == want.dtype and alone[i].shape == want.shape
        assert alone[i].tobytes() == want.tobytes(), f"{name} operand {i}"


def test_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = {"w1": rng.standard_normal((6, 8)), "b1": rng.standard_normal(8),
              "w2": rng.standard_normal((8, 8)), "g": np.abs(rng.standard_normal(8)) + 0.5,
              "c": rng.standard_normal(8), "w3": rng.standard_normal((8, 2))}
    x = rng.standard_normal((5, 6))
    target = rng.standard_normal((5, 2))

    def loss(p):
        h1 = T.gelu(T.matmul(x, p["w1"], p["b1"]))
        h2 = T.layernorm(T.matmul(h1, p["w2"]), p["g"], p["c"])
        return T.mse(T.matmul(T.softmax(h2), p["w3"]), target)

    assert T.finite_diff_check(_each_bump(loss), params, h=1e-4)[0] < 1e-3


def test_finite_diff_quadratic_and_constant():
    def quad(p):
        return T.sum_(T.mul(p["x"], p["x"]))

    assert T.finite_diff_check(_each_bump(quad), {"x": np.array([1.0, -2.0, 0.5])},
                               h=1e-4)[0] < 1e-8

    def const(p):
        return T.scale(T.sum_(T.mul(p["x"], np.zeros(3))), 1.0)

    assert T.finite_diff_check(_each_bump(const), {"x": np.array([1.0, 2.0, 3.0])},
                               h=1e-4)[0] == 0.0


def test_finite_diff_reports_a_nan_error_and_its_group():
    def build(p, name, bumps):
        if name is None:
            return T.sum_(T.mul(T.mul(p["x"], p["x"]), p["y"]))
        return [np.nan if name == "x" else 0.0 for _ in bumps]

    err, group = T.finite_diff_check(build, {"x": np.array([1.0, -2.0]),
                                             "y": np.array([0.5, 1.5])})
    assert np.isnan(err) and group == "x"


def test_finite_diff_rejects_a_step_that_leaves_a_coordinate_unchanged():
    def quad(p):
        return T.sum_(T.mul(p["x"], p["x"]))

    # 0.0 moves by 1e-300, but 1e-300 is below half an ulp of -2.0
    params = {"x": np.array([0.0, -2.0, 0.5])}
    with pytest.raises(ValueError, match=r"^a step of 1e-300 leaves x\.flat\[1\] = -2\.0 "
                                         "unchanged$"):
        T.finite_diff_check(_each_bump(quad), params, h=1e-300)


def test_backward_deterministic():
    def run():
        t = T.Tape()
        x = t.leaf(np.linspace(-2, 2, 12).reshape(3, 4))
        w = t.leaf(np.linspace(0.5, 1.5, 16).reshape(4, 4))
        loss = T.mean(T.gelu(T.matmul(T.softmax(x), w)))
        t.backward(loss)
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_grad_accumulates_across_reuse():
    t = T.Tape()
    x = t.leaf(np.array([3.0]))
    y = T.add(T.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    t.backward(T.sum_(y))
    assert np.allclose(x.grad, [7.0])


def test_attention_blocks_do_not_mix():
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
    both = T.attention(q, k, v, 2, 2)
    for rows in (slice(0, 3), slice(3, 6)):
        one = T.attention(q[rows], k[rows], v[rows], 1, 2)
        assert np.max(np.abs(one - both[rows])) < 1e-15


def test_scatter_rows_rejects_repeated_indices():
    t = T.Tape()
    with pytest.raises(ValueError):
        T.scatter_rows(t.leaf(np.ones((2, 3))), [1, 1], 4, t.leaf(np.zeros((1, 3))))


@pytest.mark.parametrize("idx", [[3, 0, 3], [3, -1]], ids=["repeat", "negative-alias"])
def test_take_rows_rejects_repeated_indices(idx):
    t = T.Tape()
    with pytest.raises(ValueError, match="distinct"):
        T.take_rows(t.leaf(np.ones((4, 3))), idx)


def test_forward_only_tape_records_nothing():
    # Constants alone give a plain array and record nothing; a leaf is
    # recorded only where it enters.
    t = T.Tape()
    hidden = T.gelu(T.matmul(np.ones((3, 4)), np.ones((4, 2))))
    assert type(T.mean(hidden)) is np.ndarray
    assert t._nodes == []
    out = T.add(t.leaf(np.ones((3, 2))), hidden)
    assert isinstance(out, T.DiffArray) and t._nodes == [out]


def test_backward_rejects_a_loss_that_depends_on_no_leaf():
    t = T.Tape()
    t.leaf(np.ones(3))
    with pytest.raises(ValueError, match="depends on no leaf"):
        t.backward(T.sum_(np.ones(3)))


def test_graph_is_freed_when_backward_ends():
    gc.disable()
    try:
        t = T.Tape()
        x = t.leaf(np.linspace(-1.0, 1.0, 6).reshape(3, 2))
        hidden = T.gelu(x)
        ref = weakref.ref(hidden)
        loss = T.sum_(hidden)
        del hidden
        assert ref() is not None
        t.backward(loss)
        assert ref() is None
        assert x.grad.shape == (3, 2)
    finally:
        gc.enable()


def test_second_backward_raises():
    t = T.Tape()
    x = t.leaf(np.ones(3))
    loss = T.sum_(T.mul(x, x))
    t.backward(loss)
    with pytest.raises(ValueError, match="already"):
        t.backward(loss)


def _attention_taped(q, k, v, w, n_blocks, n_heads):
    """attention's output and its q, k and v gradients when the output's
    gradient is w."""
    t = T.Tape()
    ql, kl, vl = t.leaf(q), t.leaf(k), t.leaf(v)
    out = T.attention(ql, kl, vl, n_blocks, n_heads)
    t.backward(T.sum_(T.mul(out, w)))
    return out.data, ql.grad, kl.grad, vl.grad


def _heads(n_blocks, n_heads, t_len, d):
    def split(x):
        return x.reshape(n_blocks, t_len, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n_blocks * t_len, d)

    return split, merge


def _score_bound(q, k, n_heads):
    """The Cauchy-Schwarz bound on every |score|, from full-row norms."""
    c = 1.0 / np.sqrt(q.shape[1] // n_heads)
    return c * np.linalg.norm(q, axis=1).max() * np.linalg.norm(k, axis=1).max()


def test_attention_matches_its_formula_bit_for_bit(monkeypatch):
    # The formula runs on the whole batch at once, so every tiling that
    # matches it bit for bit matches every other. Blocks x T: 3 x 5 is one
    # tile at every budget but 1; 16 x 49 is tiles of 6 + 6 + 4 blocks at the
    # default 512 KiB; 3 x 151 is one block per tile at the default. With one
    # or three heads and an odd T, a block holds a number of score rows that
    # is not a multiple of 4, which a tile must not split the row sums at.
    # The rest query with T_q < T rows a block, as a pass that keeps only
    # some rows does: the class row alone, or a window's hidden patches.
    rng = np.random.default_rng(9)
    for n_blocks, n_heads, t_q, t_len, d in (
            (3, 2, 5, 5, 8), (16, 4, 49, 49, 32), (3, 4, 151, 151, 32), (6, 1, 151, 151, 8),
            (7, 3, 31, 31, 12),
            (16, 4, 1, 13, 32), (16, 4, 6, 13, 32), (16, 4, 1, 49, 32), (16, 4, 24, 49, 32),
            (3, 4, 1, 151, 32), (3, 4, 75, 151, 32), (6, 1, 75, 151, 8), (7, 3, 1, 31, 12)):
        q, w = (rng.standard_normal((n_blocks * t_q, d)) for _ in range(2))
        k, v = (rng.standard_normal((n_blocks * t_len, d)) for _ in range(2))
        split_q, merge_q = _heads(n_blocks, n_heads, t_q, d)
        split, merge = _heads(n_blocks, n_heads, t_len, d)
        c = 1.0 / np.sqrt(d // n_heads)
        # the scores' bound is at most about 35 at scale 1 and 16,000 at scale 40
        for scale, shifted in ((1.0, False), (40.0, True)):
            qx, kx = q * scale, k * scale
            assert (_score_bound(qx, kx, n_heads) > T.SHIFT_FREE_BOUND) == shifted
            qh, kh, vh = split_q(qx), split(kx), split(v)
            s = (split_q(qx * c) @ kh.transpose(0, 1, 3, 2)).reshape(-1, t_len)
            if shifted:
                s = s - s.max(axis=1, keepdims=True)
            e = np.exp(s).reshape(n_blocks, n_heads, t_q, t_len)
            sums = kernels.row_sums(e.reshape(-1, t_len)).reshape(n_blocks, n_heads, t_q, 1)
            # backward: g' = g / r with each (row, head)'s sum r over its
            # head's columns, dv = e^T g', delta = rowdot(g' v^T, e) / r and
            # gs = e (g' v^T - delta)
            r = np.repeat(sums[..., 0].transpose(0, 2, 1), d // n_heads, axis=2)
            gph = split_q(w / r.reshape(-1, d))
            ga = (gph @ vh.transpose(0, 1, 3, 2)).reshape(-1, t_len)
            e_rows = e.reshape(-1, t_len)
            delta = np.einsum("ij,ij->i", ga, e_rows) / sums.reshape(-1)
            gs = ((ga - delta[:, None]) * e_rows).reshape(e.shape)
            want = (merge_q(e @ vh / sums), merge_q(gs @ kh) * c,
                    merge(gs.transpose(0, 1, 3, 2) @ qh) * c,
                    merge(e.transpose(0, 1, 3, 2) @ gph))
            for budget in (1, T.ATTENTION_TILE_BYTES, 2**40):
                monkeypatch.setattr(T, "ATTENTION_TILE_BYTES", budget)
                got = _attention_taped(qx, kx, v, w, n_blocks, n_heads)
                monkeypatch.undo()
                for g, w_ in zip(got, want):
                    assert g.tobytes() == w_.tobytes()


def test_frozen_attention_keeps_one_tile_of_scores(peak_traced_bytes):
    # 16 blocks of 4 heads x 151 rows: the whole batch's scores take 11.1 MiB,
    # a tile of one block 0.7 MiB
    rng = np.random.default_rng(10)
    n_blocks, n_heads, t_len, d = 16, 4, 151, 32
    q, k, v = (rng.standard_normal((n_blocks * t_len, d)) for _ in range(3))
    peak = peak_traced_bytes(T.attention, q, k, v, n_blocks, n_heads)
    assert peak < 8 * n_blocks * n_heads * t_len**2 / 4


@pytest.mark.parametrize("t_len", [5, 49, 151])
@pytest.mark.parametrize("scale", [1.0, 2.0, 3.0, 10.0, 40.0])
def test_attention_matches_the_normalized_softmax_formula(t_len, scale):
    # The plain formula softmax_fwd(c q k^T) @ v scales the scores and
    # normalizes them before the value product; the two orders round apart
    # by a few ulps of the largest score's exp argument.
    rng = np.random.default_rng(t_len)
    n_blocks, n_heads, d = 2, 2, 8
    q, k, v, w = (rng.standard_normal((n_blocks * t_len, d)) for _ in range(4))
    q, k = q * scale, k * scale
    got = _attention_taped(q, k, v, w, n_blocks, n_heads)

    split, merge = _heads(n_blocks, n_heads, t_len, d)
    c = 1.0 / np.sqrt(d // n_heads)
    qh, kh, vh, gh = split(q), split(k), split(v), split(w)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    attn = kernels.softmax_fwd(scores.reshape(-1, t_len)).reshape(scores.shape)
    ga = (gh @ vh.transpose(0, 1, 3, 2)).reshape(-1, t_len)
    gs = kernels.softmax_bwd(attn.reshape(-1, t_len), ga).reshape(attn.shape) * c
    want = (merge(attn @ vh), merge(gs @ kh), merge(gs.transpose(0, 1, 3, 2) @ qh),
            merge(attn.transpose(0, 1, 3, 2) @ gh))
    eps = np.finfo(np.float64).eps
    tol = 8 * eps * (1 + np.abs(scores).max())
    for g, w_ in zip(got, want):
        assert np.max(np.abs(g - w_)) <= tol * np.abs(w_).max()


def test_attention_stays_finite_at_extreme_scores_and_values():
    rng = np.random.default_rng(13)
    n_blocks, n_heads, t_len, d = 2, 2, 6, 8
    # scores near +-1000: the row-max shift keeps every exp finite
    q = rng.choice([-1.0, 1.0], size=(n_blocks * t_len, d)) * np.sqrt(1000.0 / 2)
    k = np.tile(q[:1], (n_blocks * t_len, 1))
    v = rng.standard_normal((n_blocks * t_len, d))
    assert _score_bound(q, k, n_heads) > T.SHIFT_FREE_BOUND
    out = T.attention(q, k, v, n_blocks, n_heads)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) <= np.max(np.abs(v)) * (1 + 1e-12)
    # a bound just under the threshold, every first-head score at it, and
    # |v| = 1e200: T e^64 |v| is still finite, so the unshifted exp cannot
    # overflow
    dh = d // n_heads
    q = np.zeros((n_blocks * t_len, d))
    q[:, :dh] = np.sqrt(0.999 * T.SHIFT_FREE_BOUND / np.sqrt(dh))
    v = np.full((n_blocks * t_len, d), 1e200)
    assert 0.99 * T.SHIFT_FREE_BOUND < _score_bound(q, q, n_heads) < T.SHIFT_FREE_BOUND
    out = T.attention(q, q, v, n_blocks, n_heads)
    assert np.allclose(out, 1e200, rtol=1e-12, atol=0)


@pytest.mark.parametrize("q_shape, shape, n_blocks, n_heads", [
    ((4, 8), (4, 8), 2, 0), ((4, 8), (4, 8), 2, -2), ((0, 8), (0, 8), 1, 2),
    ((4, 0), (4, 0), 2, 2), ((4, 8), (4, 8), 0, 2), ((5, 8), (5, 8), 2, 2),
    ((4, 6), (4, 6), 2, 4), ((3, 8), (4, 8), 2, 2), ((0, 8), (4, 8), 2, 2),
    ((2, 8), (4, 6), 2, 2),
], ids=["no-heads", "negative-heads", "no-rows", "no-columns", "no-blocks",
        "uneven-blocks", "uneven-heads", "uneven-query-blocks", "no-query-rows",
        "query-width"])
@pytest.mark.filterwarnings("error")
def test_attention_rejects_a_split_it_cannot_make(q_shape, shape, n_blocks, n_heads):
    x = np.ones(shape)
    with pytest.raises(ValueError, match=r"^attention cannot split "):
        T.attention(np.ones(q_shape), x, x, n_blocks, n_heads)


def test_first_gradient_is_a_private_copy():
    t = T.Tape()
    a, b = t.leaf(np.arange(3.0)), t.leaf(np.ones(3))
    t.backward(T.sum_(T.add(a, b)))  # a and b get the same upstream array
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0] = 5.0
    assert b.grad.tolist() == [1.0, 1.0, 1.0]

    t = T.Tape()
    x = t.leaf(np.array([2.0, -1.0]))
    t.backward(T.sum_(T.add(x, x)))  # a second gradient adds to the copy
    assert x.grad.tolist() == [2.0, 2.0]


# Each primitive with one leaf as every operand, and the plain formula of
# that leaf's gradient when the output's gradient is w.
ALIASED = {
    "add": (lambda x: T.add(x, x), lambda x, w: 2.0 * w),
    "mul": (lambda x: T.mul(x, x), lambda x, w: 2.0 * x * w),
    "matmul": (lambda x: T.matmul(x, x), lambda x, w: w @ x.T + x.T @ w),
    "attention": (lambda x: T.attention(x, x, x, 2, 2), None),
}


@pytest.mark.parametrize("name", sorted(ALIASED))
def test_a_leaf_used_as_every_operand_gets_the_formula_gradient(name):
    rng = np.random.default_rng(11)
    x, w = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    op, formula = ALIASED[name]
    t = T.Tape()
    leaf = t.leaf(x)
    t.backward(T.sum_(T.mul(op(leaf), w)))
    if formula is None:
        # attention's gradient is the sum of its three operands' gradients,
        # each taken with the other two held at the same values
        t = T.Tape()
        q, k, v = t.leaf(x), t.leaf(x), t.leaf(x)
        t.backward(T.sum_(T.mul(T.attention(q, k, v, 2, 2), w)))
        want = q.grad + k.grad + v.grad
    else:
        want = formula(x, w)
    assert np.allclose(leaf.grad, want, rtol=1e-13, atol=1e-15)


def test_no_two_leaves_of_a_model_backward_share_gradient_memory():
    arch = ArchSpec(n_modalities=3, n_patches=4, patch_len=4, d_model=8, n_heads=2)
    rng = np.random.default_rng(12)
    grids = patchify(rng.standard_normal((2, 3, 16)), 4)
    masks = np.zeros((2, 3, 4), dtype=bool)
    masks[:, 0, :2] = True
    t = T.Tape()
    b = Binding(init_model(arch, 0), t)
    loss = mae_loss(b, grids, masks)
    t.backward(loss)
    grads = [leaf.grad for leaf in b.p.values()]
    assert all(g.any() for g in grads)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
    assert loss._grad is None  # only leaves keep their gradients


def test_finite_diff_bumps_one_coordinate_and_restores_it():
    params = {"x": np.array([1.0, -2.0, 0.5]), "y": np.array([0.25, 3.0])}
    before = {k: v.copy() for k, v in params.items()}
    calls = []

    def loss(p):
        return T.sum_(T.mul(T.mul(p["x"], p["x"]), p["x"]))

    def build(p, name, bumps):
        calls.append((name, [isinstance(v, T.DiffArray) for v in p.values()],
                      {k: T._data(v).copy() for k, v in p.items()},
                      None if bumps is None else bumps.copy()))
        return _each_bump(loss)(p, name, bumps)

    h = 1e-3
    T.finite_diff_check(build, params, h=h, batch=2)
    # None for the analytic pass, then each group in params order, at most
    # two coordinates (four bumped arrays) per call
    assert [name for name, *_ in calls] == [None, "x", "x", "y"]
    # leaves for the analytic pass only; every call sees the given values
    assert [tracked for _, tracked, *_ in calls] == [[True, True]] + [[False, False]] * 3
    for _, _, seen, _ in calls:
        assert all(np.array_equal(seen[k], before[k]) for k in params)
    assert all(np.array_equal(params[k], before[k]) for k in params)
    # +h then -h on one coordinate at a time, so a coordinate's two bumps share a call
    got = {"x": np.concatenate([calls[1][3], calls[2][3]]), "y": calls[3][3]}
    for name, bumped in got.items():
        want = []
        for i in range(before[name].size):
            for step in (h, -h):
                moved = before[name].copy()
                moved[i] += step
                want.append(moved)
        assert bumped.tobytes() == np.array(want).tobytes(), name


# The five parameters a call that records nothing may hold one copy per row
# block of: each case is (the call, given the per-block operand, and that
# operand's copies for n_blocks blocks of 13 rows of width 32). The widths
# are the model's, multiples of 8, where OpenBLAS sums a product's terms in
# one order whatever the number of rows.
def _per_block_case(name, n_blocks, rng):
    rows = 13 * n_blocks
    x = rng.standard_normal((rows, 32))
    w, bias, gain, shift = (rng.standard_normal(s) for s in ((32, 32), (32,), (32,), (32,)))
    # three rows of x land in each block of 13 output rows, the rest take the fill
    idx = (13 * np.arange(n_blocks)[:, None] + [0, 5, 7]).ravel()
    a = rng.standard_normal((len(idx), 32))
    calls = {"matmul weight": (lambda p: T.matmul(x, p, bias), (32, 32)),
             "matmul bias": (lambda p: T.matmul(x, w, p), (32,)),
             "layernorm gain": (lambda p: T.layernorm(x, p, shift), (32,)),
             "layernorm bias": (lambda p: T.layernorm(x, gain, p), (32,)),
             "scatter fill": (lambda p: T.scatter_rows(a, idx, rows, p), (1, 32))}
    call, shape = calls[name]
    return call, rng.standard_normal((n_blocks, *shape))


PER_BLOCK = ["matmul weight", "matmul bias", "layernorm gain", "layernorm bias", "scatter fill"]


@pytest.mark.parametrize("name", PER_BLOCK)
@pytest.mark.parametrize("n_blocks", [1, 3, 16])
def test_each_block_reads_its_own_copy_bit_for_bit(name, n_blocks):
    call, copies = _per_block_case(name, n_blocks, np.random.default_rng(n_blocks))
    out = call(copies)
    assert isinstance(out, np.ndarray) and out.shape == (13 * n_blocks, 32)
    for j, copy in enumerate(copies):
        shared = call(copy)
        assert out[13 * j:13 * (j + 1)].tobytes() == shared[13 * j:13 * (j + 1)].tobytes(), j


@pytest.mark.parametrize("m, k, n", [(1, 64, 3), (2, 64, 3), (13, 32, 6), (5, 6, 1)])
def test_a_per_block_weight_is_each_block_s_own_product_bit_for_bit(m, k, n):
    # One product over all the rows need not match a product over one block
    # bit for bit: OpenBLAS takes one row as a GEMV, and orders the sums of
    # the last few columns by the row count. Each block's own product does.
    rng = np.random.default_rng(m + n)
    x = rng.standard_normal((4 * m, k))
    w, bias = rng.standard_normal((4, k, n)), rng.standard_normal((4, n))
    out = T.matmul(x, w, bias)
    for j in range(4):
        own = T.matmul(x[m * j:m * (j + 1)], w[j], bias[j])
        assert out[m * j:m * (j + 1)].tobytes() == own.tobytes(), j


@pytest.mark.parametrize("name", PER_BLOCK)
def test_a_recording_call_rejects_a_per_block_operand(name):
    call, copies = _per_block_case(name, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        call(T.Tape().leaf(copies))


@pytest.mark.parametrize("name", PER_BLOCK)
@pytest.mark.parametrize("n_copies", [0, 5])
def test_copies_that_do_not_divide_the_rows_are_rejected(name, n_copies):
    # 3 blocks of 13 rows: 39 rows, which 0 or 5 copies cannot split
    call, copies = _per_block_case(name, 3, np.random.default_rng(1))
    with pytest.raises(ValueError, match="per-block copies cannot split"):
        call(np.resize(copies, (n_copies, *copies.shape[1:])))


@pytest.mark.parametrize("first, second", [("matmul weight", "matmul bias"),
                                           ("layernorm gain", "layernorm bias")])
def test_per_block_operands_of_one_call_must_hold_as_many_copies(first, second):
    # 4 blocks of 13 rows, which 2 and 4 copies both split: 2 copies of the
    # first operand, then 4 of the second
    rng = np.random.default_rng(2)
    x, w, gain = (rng.standard_normal(s) for s in ((52, 32), (2, 32, 32), (2, 32)))
    bias = rng.standard_normal((4, 32))
    call = {"matmul weight": lambda: T.matmul(x, w, bias),
            "layernorm gain": lambda: T.layernorm(x, gain, bias)}[first]
    with pytest.raises(ValueError, match=rf"^{second} must have shape \(32,\) or \(2, 32\), "):
        call()


@pytest.mark.parametrize("name", ["matmul bias", "layernorm gain", "layernorm bias",
                                  "scatter fill"])
def test_per_block_copies_of_the_wrong_shape_are_rejected(name):
    # two copies whose last axis is one short
    call, copies = _per_block_case(name, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match=" must have shape "):
        call(copies[..., :-1])
