"""Reverse-mode tape: forward values, exact gradients, finite differences."""

import gc
import weakref

import numpy as np
import pytest

from crossmae import kernels
from crossmae import tape as T


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
    out = T.layernorm(x, t.constant(np.ones(8)), t.constant(np.zeros(8)))
    assert np.max(np.abs(out.data)) < 1e-6


def test_mse_identity_is_zero_with_zero_grad():
    t = T.Tape()
    a = t.leaf(np.arange(6, dtype=float).reshape(2, 3))
    loss = T.mse(a, t.constant(a.data.copy()))
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
    with pytest.raises(ValueError):
        T.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))
    with pytest.raises(ValueError):
        T.mse(t.leaf(np.ones(3)), t.constant(np.ones(4)))


def test_bias_row_broadcast_gradient():
    t = T.Tape()
    x = t.leaf(np.random.default_rng(3).standard_normal((4, 5)))
    b = t.leaf(np.random.default_rng(4).standard_normal(5))
    t.backward(T.mean(T.mul(T.add(x, b), T.add(x, b))))
    assert b.grad.shape == (5,)
    assert np.max(np.abs(b.grad - 2.0 * (x.data + b.data).sum(axis=0) / 20.0)) < 1e-12


PRIMITIVES = {
    "add": lambda t, p: T.mean(T.add(p["a"], p["b"])),
    "mul": lambda t, p: T.mean(T.mul(p["a"], p["b"])),
    "matmul": lambda t, p: T.mean(T.matmul(p["a"], p["m"])),
    "transpose": lambda t, p: T.mean(T.mul(T.transpose(p["a"]), T.transpose(p["a"]))),
    "slice": lambda t, p: T.mean(T.slice_(p["a"], (slice(1, 3), slice(None)))),
    "concat": lambda t, p: T.mean(T.concat([p["a"], p["b"]], axis=0)),
    "sum": lambda t, p: T.sum_(T.mul(p["a"], p["a"])),
    "scale": lambda t, p: T.mean(T.scale(p["a"], 2.5)),
    "gelu": lambda t, p: T.mean(T.gelu(p["a"])),
    "softmax": lambda t, p: T.mean(T.mul(T.softmax(p["a"]), p["b"])),
    "log_softmax": lambda t, p: T.mean(T.mul(T.log_softmax(p["a"]), p["b"])),
    "layernorm": lambda t, p: T.mean(T.layernorm(p["a"], p["g"], p["c"])),
    "mse": lambda t, p: T.mse(p["a"], p["b"]),
    "take_rows": lambda t, p: T.mean(T.mul(T.take_rows(p["a"], [3, 0, 3]),
                                           T.slice_(p["b"], (slice(0, 3), slice(None))))),
    "scatter_rows": lambda t, p: T.mean(T.mul(T.scatter_rows(p["a"], [5, 0, 2, 3], 7, p["f"]),
                                              t.constant(np.arange(35.0).reshape(7, 5)))),
    "attention": lambda t, p: T.mean(T.mul(T.attention(p["q"], p["k"], p["v"], 2, 2), p["w"])),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_matches_finite_differences(name):
    rng = np.random.default_rng(17)
    params = {"a": rng.standard_normal((4, 5)), "b": rng.standard_normal((4, 5)),
              "m": rng.standard_normal((5, 3)), "g": rng.standard_normal(5) + 2.0,
              "c": rng.standard_normal(5), "f": rng.standard_normal((1, 5)),
              "q": rng.standard_normal((6, 4)), "k": rng.standard_normal((6, 4)),
              "v": rng.standard_normal((6, 4)), "w": rng.standard_normal((6, 4))}

    def build(leaves):
        t = next(iter(leaves.values())).tape
        return PRIMITIVES[name](t, leaves)

    err = T.finite_diff_check(build, params, h=1e-4)
    assert err < 1e-5, f"{name}: {err:.2e}"


def test_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = {"w1": rng.standard_normal((6, 8)), "b1": rng.standard_normal(8),
              "w2": rng.standard_normal((8, 8)), "g": np.abs(rng.standard_normal(8)) + 0.5,
              "c": rng.standard_normal(8), "w3": rng.standard_normal((8, 2))}
    x = rng.standard_normal((5, 6))
    target = rng.standard_normal((5, 2))

    def build(p):
        t = p["w1"].tape
        h1 = T.gelu(T.add(T.matmul(t.constant(x), p["w1"]), p["b1"]))
        h2 = T.layernorm(T.matmul(h1, p["w2"]), p["g"], p["c"])
        return T.mse(T.matmul(T.softmax(h2), p["w3"]), t.constant(target))

    assert T.finite_diff_check(build, params, h=1e-4) < 1e-3


def test_finite_diff_quadratic_and_constant():
    def quad(p):
        return T.sum_(T.mul(p["x"], p["x"]))

    assert T.finite_diff_check(quad, {"x": np.array([1.0, -2.0, 0.5])}, h=1e-4) < 1e-8

    def const(p):
        return T.scale(T.sum_(T.mul(p["x"], p["x"].tape.constant(np.zeros(3)))), 1.0)

    assert T.finite_diff_check(const, {"x": np.array([1.0, 2.0, 3.0])}, h=1e-4) == 0.0


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
    t = T.Tape()
    both = T.attention(t.constant(q), t.constant(k), t.constant(v), 2, 2).data
    for rows in (slice(0, 3), slice(3, 6)):
        one = T.attention(t.constant(q[rows]), t.constant(k[rows]), t.constant(v[rows]), 1, 2)
        assert np.max(np.abs(one.data - both[rows])) < 1e-15


def test_scatter_rows_rejects_repeated_indices():
    t = T.Tape()
    with pytest.raises(ValueError):
        T.scatter_rows(t.leaf(np.ones((2, 3))), [1, 1], 4, t.leaf(np.zeros((1, 3))))


def test_forward_only_tape_records_nothing():
    t = T.Tape()
    x = t.leaf(np.ones((3, 4)), requires_grad=False)
    T.mean(T.gelu(T.matmul(x, t.constant(np.ones((4, 2))))))
    assert t._nodes == []


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


def test_attention_matches_its_formula_bit_for_bit():
    rng = np.random.default_rng(9)
    n_blocks, n_heads, t_len, d = 3, 2, 5, 8
    q, k, v, w = (rng.standard_normal((n_blocks * t_len, d)) for _ in range(4))
    t = T.Tape()
    ql, kl, vl = t.leaf(q), t.leaf(k), t.leaf(v)
    out = T.attention(ql, kl, vl, n_blocks, n_heads)
    t.backward(T.sum_(T.mul(out, t.constant(w))))  # the output gradient is w

    def split(x):
        return x.reshape(n_blocks, t_len, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n_blocks * t_len, d)

    c = 1.0 / np.sqrt(d // n_heads)
    qh, kh, vh, gh = split(q), split(k), split(v), split(w)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    attn = kernels.softmax_fwd(scores.reshape(-1, t_len)).reshape(scores.shape)
    ga = (gh @ vh.transpose(0, 1, 3, 2)).reshape(-1, t_len)
    gs = kernels.softmax_bwd(attn.reshape(-1, t_len), ga).reshape(attn.shape) * c
    for got, want in ((out.data, merge(attn @ vh)),
                      (vl.grad, merge(attn.transpose(0, 1, 3, 2) @ gh)),
                      (ql.grad, merge(gs @ kh)),
                      (kl.grad, merge(gs.transpose(0, 1, 3, 2) @ qh))):
        assert got.tobytes() == want.tobytes()


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


def test_finite_diff_bumps_one_coordinate_and_restores_it():
    params = {"x": np.array([1.0, -2.0, 0.5]), "y": np.array([0.25, 3.0])}
    before = {k: v.copy() for k, v in params.items()}
    seen = []

    def build(p):
        seen.append({k: leaf.data.copy() for k, leaf in p.items()})
        return T.sum_(T.mul(T.mul(p["x"], p["x"]), p["x"]))

    h = 1e-3
    T.finite_diff_check(build, params, h=h)
    assert all(np.array_equal(params[k], before[k]) for k in params)
    assert len(seen) == 1 + 2 * (3 + 2)
    for j, (name, i) in enumerate([("x", 0), ("x", 1), ("x", 2), ("y", 0), ("y", 1)]):
        plus, minus = seen[1 + 2 * j], seen[2 + 2 * j]
        x = before[name][i]
        assert plus[name][i] == x + h and minus[name][i] == (x + h) - 2 * h
        for vals in (plus, minus):
            vals[name][i] = x
            assert all(np.array_equal(vals[k], before[k]) for k in params)
