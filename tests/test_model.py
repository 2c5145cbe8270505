"""Encoder/decoder assembly: positions, shapes, loss, checkpoints, gradients."""

import re
from dataclasses import replace

import numpy as np
import pytest

from crossmae import tape as T
from crossmae.config import ManifestError
from crossmae.masking import CROSS, SYNC, sample_mask
from crossmae.model import (FORWARD_CHUNK, ArchSpec, Binding, ModelState, _attention_half,
                            _chain, _dec_entry, _param_layout, _run, _scope, _token_ids,
                            alignment_identity, decode, encode, forward_frozen,
                            gradcheck_model, init_model,
                            load_checkpoint, mae_loss, param_count, positions_2d, reconstruct,
                            save_checkpoint)
from crossmae.windows import patchify

TINY = ArchSpec(n_modalities=2, n_patches=3, patch_len=4, d_model=8,
                enc_layers=1, dec_layers=1, n_heads=2, mlp_ratio=2)


def _grid(arch, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((arch.n_modalities, arch.n_patches * arch.patch_len))
    return patchify(w, arch.patch_len)


def _mask(arch, ratio=0.5, seed=1):
    return sample_mask(CROSS, arch.n_modalities, arch.n_patches, ratio,
                       np.random.default_rng(seed))


def test_positions_shape_and_zero_class_row():
    tab = positions_2d(6, 10, 32)
    assert tab.shape == (61, 32)
    assert np.array_equal(tab[0], np.zeros(32))
    # row 1 + c * P + p: modality c in the first half, patch p in the second
    omega = 1.0 / np.power(10000.0, 2.0 * np.arange(8) / 16)
    for c in range(6):
        for p in range(10):
            row = tab[1 + c * 10 + p]
            for half, idx in ((row[:16], c), (row[16:], p)):
                assert np.max(np.abs(half[0::2] - np.sin(idx * omega))) < 1e-15
                assert np.max(np.abs(half[1::2] - np.cos(idx * omega))) < 1e-15


def test_positions_origin_row_is_sin0_cos1_interleaved():
    tab = positions_2d(3, 4, 8)
    expected = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert np.max(np.abs(tab[1] - expected)) < 1e-15  # (c=0, p=0)


def test_positions_deterministic_and_distinct():
    a = positions_2d(64, 64, 32)
    b = positions_2d(64, 64, 32)
    assert np.array_equal(a, b)
    assert np.unique(a, axis=0).shape[0] == a.shape[0]


def test_positions_are_computed_once_per_grid_and_read_only():
    tab = positions_2d(3, 4, 8)
    assert positions_2d(3, 4, 8) is tab
    with pytest.raises(ValueError):
        tab[0, 0] = 1.0


def test_positions_require_d_model_multiple_of_four():
    with pytest.raises(ValueError):
        ArchSpec(n_modalities=2, n_patches=2, patch_len=2, d_model=6, n_heads=2)


@pytest.mark.parametrize("field, value", [("d_model", 0), ("d_model", -32),
                                          ("n_heads", 0), ("n_heads", -1)])
def test_arch_rejects_a_width_or_head_count_below_one(field, value):
    kwargs = {"n_modalities": 2, "n_patches": 2, "patch_len": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
        ArchSpec(**kwargs)


def test_init_model_deterministic_per_seed():
    a = init_model(TINY, seed=3)
    b = init_model(TINY, seed=3)
    c = init_model(TINY, seed=4)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.params["embed.W"].shape == (TINY.patch_len, TINY.d_model)
    assert a.params["head.W"].shape == (TINY.d_model, TINY.patch_len)


def test_encode_token_count_example():
    arch = ArchSpec(n_modalities=6, n_patches=10, patch_len=4)
    state = init_model(arch, seed=0)
    mask = _mask(arch, ratio=0.75)
    b = Binding(state, None)
    out = encode(b, _grid(arch)[None], mask[None])
    assert out.shape == (16, arch.d_model)  # 15 visible patches + class token


def test_attention_is_permutation_equivariant():
    state = init_model(TINY, seed=5)
    b = Binding(state, None)
    x = np.random.default_rng(6).standard_normal((7, TINY.d_model))
    perm = np.random.default_rng(7).permutation(7)
    # one window: the layernorm and the residual add work row by row
    masks = np.zeros((1, TINY.n_modalities, TINY.n_patches), dtype=bool)
    base = _attention_half("enc0", b, masks, x)
    moved = _attention_half("enc0", b, masks, x[perm])
    assert np.max(np.abs(moved - base[perm])) < 1e-10


def test_all_zero_window_stays_finite():
    state = init_model(TINY, seed=0)
    grid = patchify(np.zeros((2, 12)), TINY.patch_len)
    b = Binding(state, None)
    recon = reconstruct(b, grid[None], _mask(TINY)[None])
    assert np.all(np.isfinite(recon))


def test_decode_shape_and_determinism():
    state = init_model(TINY, seed=1)
    grid = _grid(TINY)
    for ratio in (0.2, 0.5, 0.8):
        mask = _mask(TINY, ratio=ratio)
        out1 = reconstruct(Binding(state, None), grid[None], mask[None])
        out2 = reconstruct(Binding(state, None), grid[None], mask[None])
        assert out1.shape == (TINY.n_tokens, TINY.patch_len)
        assert np.array_equal(out1, out2)


def test_shape_mismatch_rejected():
    state = init_model(TINY, seed=0)
    wrong = patchify(np.zeros((3, 12)), TINY.patch_len)
    with pytest.raises(ValueError):
        encode(Binding(state, None), wrong[None], _mask(TINY)[None])


def test_mask_token_receives_gradient():
    state = init_model(TINY, seed=2)
    t = T.Tape()
    b = Binding(state, t)
    loss = mae_loss(b, _grid(TINY)[None], _mask(TINY)[None])
    t.backward(loss)
    assert np.max(np.abs(b.p["mask_token"].grad)) > 0.0


def test_zero_head_gives_mean_square_loss():
    state = init_model(TINY, seed=3).copy()
    state.params["head.W"][:] = 0.0
    state.params["head.b"][:] = 0.0
    grid = _grid(TINY, seed=9)
    loss = mae_loss(Binding(state, None), grid[None], _mask(TINY)[None])
    assert abs(float(loss) - float((grid ** 2).mean())) < 1e-12


def test_masked_only_loss_restricts_to_hidden_patches():
    state = init_model(TINY, seed=4)
    grid = _grid(TINY, seed=10)
    mask = _mask(TINY, ratio=0.5)
    full = mae_loss(Binding(state, None), grid[None], mask[None])
    part = mae_loss(Binding(state, None), grid[None], mask[None], masked_only=True)
    recon = reconstruct(Binding(state, None), grid[None], mask[None])
    flat = grid.reshape(TINY.n_tokens, TINY.patch_len)
    ids = np.flatnonzero(mask.ravel() == 1)
    manual = float(((recon[ids] - flat[ids]) ** 2).mean())
    assert abs(float(part) - manual) < 1e-12
    assert float(part) != float(full)
    with pytest.raises(ValueError):
        mae_loss(Binding(state, None), grid[None],
                 np.zeros((1, 2, 3), dtype=bool), masked_only=True)


def test_alignment_identity_examples():
    u = np.zeros(10)
    u[0] = 1.0
    v = np.zeros(10)
    v[0], v[1] = 0.3, np.sqrt(1 - 0.09)
    sq, inner, gap = alignment_identity(u, v)
    assert abs(sq - 1.4) < 1e-12 and abs(inner - 0.3) < 1e-12 and gap < 1e-12

    sq, inner, gap = alignment_identity(u, u)
    assert sq == 0.0 and abs(inner - 1.0) < 1e-12 and gap < 1e-12


def test_alignment_identity_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        assert alignment_identity(u, v)[2] < 1e-10


def test_checkpoint_round_trip(tmp_path):
    state = init_model(TINY, seed=7)
    save_checkpoint(state, tmp_path)
    back = load_checkpoint(tmp_path)
    assert back.arch == TINY
    for name, val in state.params.items():
        assert np.array_equal(back.params[name],
                              val.astype(np.float32).astype(np.float64))
    save_checkpoint(back, tmp_path / "again")
    assert (tmp_path / "data.f32").read_bytes() == \
        (tmp_path / "again" / "data.f32").read_bytes()
    assert (tmp_path / "manifest.txt").read_text() == \
        (tmp_path / "again" / "manifest.txt").read_text()


def test_checkpoint_corrupt_manifest_rejected(tmp_path):
    state = init_model(TINY, seed=8)
    save_checkpoint(state, tmp_path)
    man = tmp_path / "manifest.txt"
    text = man.read_text()
    # v2 checkpoints carry attn.bk; v1 laid out their parameters differently
    for old in ("crossmae-checkpoint-v1", "crossmae-checkpoint-v2"):
        man.write_text(text.replace("crossmae-checkpoint-v3", old))
        with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}: key format: expected "
                                                f"crossmae-checkpoint-v3, got '{old}'"):
            load_checkpoint(tmp_path)


def test_checkpoint_blob_size_mismatch_rejected(tmp_path):
    state = init_model(TINY, seed=9)
    save_checkpoint(state, tmp_path)
    blob = tmp_path / "data.f32"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ManifestError):
        load_checkpoint(tmp_path)


def test_checkpoint_non_finite_parameter_rejected(tmp_path):
    state = init_model(TINY, seed=13)
    save_checkpoint(state, tmp_path)
    # the blob holds the parameters in name order
    offset = sum(state.params[name].size for name in sorted(state.params) if name < "mask_token")
    blob = np.fromfile(tmp_path / "data.f32", dtype="<f4")
    blob[offset + 1] = np.nan
    blob.tofile(tmp_path / "data.f32")
    path = re.escape(str(tmp_path / "data.f32"))
    with pytest.raises(ManifestError, match=f"^{path}: array mask_token holds a non-finite "
                                            r"value at index \(0, 1\)$"):
        load_checkpoint(tmp_path)


def test_save_checkpoint_refuses_what_load_checkpoint_rejects(tmp_path):
    state = init_model(TINY, seed=13)
    state.params["mask_token"][0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^array mask_token holds a non-finite value at "
                                         r"index \(0, 1\)$"):
        save_checkpoint(state, tmp_path / "nan")
    del state.params["mask_token"]
    with pytest.raises(ValueError, match="^missing key array.mask_token$"):
        save_checkpoint(state, tmp_path / "missing")
    # the manifest line n_modalities=2.0 would not parse as an int
    with pytest.raises(TypeError):
        save_checkpoint(init_model(replace(TINY, n_modalities=2.0), seed=13), tmp_path / "float")
    assert not any(tmp_path.iterdir())


def _edit_manifest_line(directory, key, value):
    man = directory / "manifest.txt"
    lines = man.read_text().splitlines()
    lines = [f"{key}={value}" if line.startswith(key + "=") else line for line in lines]
    man.write_text("\n".join(lines) + "\n")


def test_checkpoint_transposed_shape_rejected(tmp_path):
    save_checkpoint(init_model(TINY, seed=11), tmp_path)
    _edit_manifest_line(tmp_path, "array.embed.W", "8x4")
    with pytest.raises(ManifestError, match=r"manifest\.txt: key array\.embed\.W: "
                                            r"shape \(8, 4\), the arch needs \(4, 8\)$"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("key, value, message", [
    ("d_model", "abc", "key d_model: cannot parse 'abc' as int"),
    ("d_model", "0", "d_model must be at least 1, got 0"),
    ("d_model", "16", "key array.embed.W: shape (4, 8), the arch needs (4, 16)"),
    ("enc_layers", "100000", "missing key array.enc1.ln1.g"),
    ("array.enc0.ln1.g", "8x1", "key array.enc0.ln1.g: shape (8, 1), the arch needs (8,)"),
    ("array.head.b", "4x", "key array.head.b: expected a shape such as 3x4, got '4x'"),
], ids=["text-width", "zero-width", "other-width", "many-layers", "extra-axis", "bad-shape"])
def test_checkpoint_manifest_errors_name_the_file_and_key(tmp_path, key, value, message):
    save_checkpoint(init_model(TINY, seed=12), tmp_path)
    _edit_manifest_line(tmp_path, key, value)
    man = re.escape(str(tmp_path / "manifest.txt"))
    with pytest.raises(ManifestError, match=f"^{man}: {re.escape(message)}$"):
        load_checkpoint(tmp_path)


def test_checkpoint_unknown_and_missing_arrays_rejected(tmp_path):
    save_checkpoint(init_model(TINY, seed=12), tmp_path)
    man = tmp_path / "manifest.txt"
    text = man.read_text()
    man.write_text(text + "array.enc9.ln1.g=8\n")
    with pytest.raises(ManifestError, match=r"manifest\.txt: unknown key array\.enc9\.ln1\.g$"):
        load_checkpoint(tmp_path)
    man.write_text(text.replace("array.head.W=8x4\n", ""))
    with pytest.raises(ManifestError, match=r"manifest\.txt: missing key array\.head\.W$"):
        load_checkpoint(tmp_path)


def test_checkpoint_loads_without_building_a_model(tmp_path, monkeypatch):
    from crossmae import model

    state = init_model(TINY, seed=14)
    save_checkpoint(state, tmp_path)

    def fail(*args):
        raise AssertionError("loading a checkpoint built a model or a position table")

    monkeypatch.setattr(model, "init_model", fail)
    monkeypatch.setattr(model, "positions_2d", fail)
    back = load_checkpoint(tmp_path)
    assert back.arch == TINY and list(back.params) == sorted(state.params)


@pytest.mark.parametrize("changes", [{}, {"enc_layers": 3, "dec_layers": 2},
                                     {"d_model": 12, "n_heads": 3, "mlp_ratio": 3},
                                     {"patch_len": 7, "mlp_ratio": 1}])
def test_param_count_is_the_layout_size(changes):
    arch = replace(TINY, **changes)
    assert param_count(arch) == sum(int(np.prod(shape)) for _, shape in _param_layout(arch))


def test_forward_frozen_matches_a_pass_on_leaves_bit_for_bit():
    state = init_model(TINY, seed=6)
    # one chunk, and three chunks whose last is partial
    for n in (5, 2 * FORWARD_CHUNK + 3):
        grids, masks = _batch(TINY, n, CROSS, seed=7)
        got = forward_frozen(state, reconstruct, grids, masks, lambda w: w)
        want = reconstruct(Binding(state, T.Tape()), grids, masks).data
        assert type(got) is np.ndarray and got.shape == (n, TINY.n_tokens, TINY.patch_len)
        assert got.tobytes() == want.tobytes()


def test_attention_tiles_move_no_bit_of_a_frozen_pass_or_a_step(monkeypatch):
    # 6 x 25 patches: 151 tokens, one window per attention tile at the
    # default budget. 6 x 8 patches: 49 decoder tokens, tiles of 6 + 6 + 4 windows.
    wide = ArchSpec(n_modalities=6, n_patches=25, patch_len=8)
    wide_state = init_model(wide, seed=18)
    wide_grids, wide_masks = _batch(wide, 20, CROSS, seed=19)
    step = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)
    step_state = init_model(step, seed=20)
    step_grids, step_masks = _batch(step, 16, CROSS, seed=21)
    runs = []
    for budget in (1, T.ATTENTION_TILE_BYTES, 2**40):
        monkeypatch.setattr(T, "ATTENTION_TILE_BYTES", budget)
        frozen = forward_frozen(wide_state, reconstruct, wide_grids, wide_masks, lambda w: w)
        loss, grads = _loss_and_grads(step_state,
                                      lambda b: mae_loss(b, step_grids, step_masks))
        monkeypatch.undo()
        runs.append([frozen.tobytes(), np.float64(loss).tobytes(),
                     *(grads[k].tobytes() for k in step_state.params)])
    assert runs[0] == runs[1] == runs[2]


def _one_order(*row_counts):
    """Whether OpenBLAS sums each row of a GEMV over row_counts rows in one
    order, wherever the row falls: a call of one row takes a dot product,
    and the two rows after the last multiple of 4 in a call of 4k + 2 or
    4k + 3 rows take a two-row kernel, and both may round otherwise.
    layernorm's row sums are such GEMVs."""
    return all(n > 1 and n % 4 < 2 for n in row_counts)


def _same_rows(got, want, *row_counts):
    """got equals want bit for bit when the row-wise calls of both passes,
    over row_counts rows, sum each row in one order (_one_order), and within
    1e-12 of want's largest value otherwise."""
    assert got.shape == want.shape
    if _one_order(*row_counts):
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# 3 x 4 and 6 x 25 patches: 13 and 151 tokens. The full pass (no rows) of
# each consumer is the reference; a kept-row pass runs only the kept rows
# through the last block's queries, its MLP, the final norm and the head.
@pytest.mark.parametrize("policy", [CROSS, SYNC])
@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("grid", [(3, 4), (6, 25)], ids=["13-tokens", "151-tokens"])
def test_each_frozen_consumer_keeps_the_rows_of_the_full_pass(policy, n, grid):
    from crossmae.imputation import impute_model
    from crossmae.kcca import _model_view_features
    from crossmae.train import class_embeddings
    from crossmae.windows import standardize

    arch = ArchSpec(n_modalities=grid[0], n_patches=grid[1], patch_len=8)
    state = init_model(arch, seed=22)
    grids, masks = _batch(arch, n, policy, seed=23)
    values = grids.reshape(n, arch.n_modalities, -1)
    rows = arch.n_tokens + 1

    # impute: the hidden patches of the reconstruction
    full = forward_frozen(state, reconstruct, grids, masks, lambda w: w)
    filled = patchify(impute_model(state, values, masks), arch.patch_len)
    _same_rows(filled[masks], full.reshape(grids.shape)[masks], n * rows,
               np.count_nonzero(masks))

    # class embeddings: the class row of fully visible windows
    visible = np.zeros_like(masks)
    full = forward_frozen(state, encode, patchify(standardize(values), arch.patch_len),
                          visible, lambda w: w[:, 0])
    got = class_embeddings(state, values)
    assert got.shape == full.shape
    assert np.abs(got - full).max() <= 1e-12 * np.abs(full).max()

    # sigma1's model-encoder features: each view's mean patch-token latent
    for hides in (masks, ~masks):
        full = forward_frozen(state, encode, grids, hides, lambda w: w[:, 1:].mean(axis=1))
        shown = np.count_nonzero(~hides)
        _same_rows(_model_view_features(state, grids, hides), full, shown + n, shown)


def test_a_kept_row_pass_needs_a_kept_row():
    state = init_model(TINY, seed=24)
    grids, masks = _batch(TINY, 2, CROSS, seed=25)
    hidden = np.nonzero(masks.reshape(2, -1))[1].reshape(2, -1)
    kept = forward_frozen(state, reconstruct, grids, masks, lambda w: w, hidden)
    assert kept.shape == (2, hidden.shape[1], TINY.patch_len)
    with pytest.raises(ValueError, match="attention cannot split"):
        forward_frozen(state, reconstruct, grids, masks, lambda w: w, hidden[:, :0])


def test_gradcheck_tiny_model():
    err, _ = gradcheck_model(TINY, seed=0, h=1e-4, max_coords=3)
    assert err < 1e-3


# gradcheck's own arch (cli.GRADCHECK_DEFAULTS), and a deeper one
GRADCHECK_ARCHS = [ArchSpec(n_modalities=3, n_patches=4, patch_len=6),
                   ArchSpec(n_modalities=3, n_patches=4, patch_len=6, enc_layers=3,
                            dec_layers=2)]


# A batched bumped loss may differ from a one-window pass's only in the order
# of the short row sums that OpenBLAS takes as GEMVs: where a row falls in the
# call changes the order. Over these four cases that moved a loss by at most
# 4.5e-16 relative, about 2 eps; 8 eps leaves room for other hosts. A fault in
# the batching, such as a loss read from another window's rows, moves a loss
# by a whole bump's effect, orders of magnitude more.
BUMPED_LOSS_RTOL = 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("arch", GRADCHECK_ARCHS)
@pytest.mark.parametrize("seed", [0, 1009])
def test_batched_bumped_losses_match_whole_model_reruns(monkeypatch, arch, seed):
    # gradcheck_model's inputs, rebuilt here; the oracle reruns mae_loss whole
    # on one window for every bumped array
    init_seq, data_seq, mask_seq = np.random.SeedSequence(seed).spawn(3)
    state = init_model(arch, init_seq)
    values = np.random.default_rng(data_seq).standard_normal(
        (arch.n_modalities, arch.n_patches * arch.patch_len))
    grid = patchify(values, arch.patch_len)
    mask = sample_mask(CROSS, arch.n_modalities, arch.n_patches, 0.5,
                       np.random.default_rng(mask_seq))
    checked = []
    real = T.finite_diff_check

    def recording(build, params, **kwargs):
        assert params.keys() == state.params.keys()

        def build_and_compare(p, name, bumps):
            got = build(p, name, bumps)
            if name is not None:
                want = [mae_loss(Binding(ModelState(arch, {**p, name: bumped}), None),
                                 grid[None], mask[None]) for bumped in bumps]
                assert len(got) == len(bumps) == 2 * min(6, state.params[name].size)
                np.testing.assert_allclose(got, want, rtol=BUMPED_LOSS_RTOL, atol=0)
                checked.append(name)
            return got
        return real(build_and_compare, params, **kwargs)

    monkeypatch.setattr(T, "finite_diff_check", recording)
    gradcheck_model(arch, seed=seed, h=1e-4, max_coords=6)
    assert checked == list(state.params)  # one batch per group at these sizes


@pytest.mark.parametrize("max_coords", [6, 20])
def test_gradcheck_runs_each_batch_of_bumped_copies_as_one_pass(monkeypatch, max_coords):
    from crossmae import model
    arch = GRADCHECK_ARCHS[1]
    real_run, real_chain = model._run, model._chain
    runs, stage_calls = [], []

    def counted(stage):
        def run(b, masks, x):
            stage_calls.append(stage.name)
            return stage.run(b, masks, x)
        return stage._replace(run=run)

    def run(b, masks, x, stages, inputs=None):
        runs.append((len(masks), [stage.name for stage in stages]))
        return real_run(b, masks, x, stages, inputs)

    monkeypatch.setattr(model, "_chain", lambda a: [counted(stage) for stage in real_chain(a)])
    monkeypatch.setattr(model, "_run", run)
    gradcheck_model(arch, seed=0, h=1e-4, max_coords=max_coords)

    chain = [stage.name for stage in real_chain(arch)]
    first = {scope: i for i, stage in enumerate(real_chain(arch)) for scope in stage.reads}
    dec = chain.index("dec.entry")
    # the unbumped pass that keeps each stage's input, then mae_loss's encode
    # and decode on the leaves
    want = [(1, chain), (1, chain[:dec]), (1, chain[dec:])]
    for name, shape in _param_layout(arch):
        coords = min(max_coords, int(np.prod(shape)))
        # one pass per batch of at most 8 coordinates, from the group's first stage
        want += [(2 * min(8, coords - at), chain[first[_scope(name)]:])
                 for at in range(0, coords, 8)]
    assert runs == want
    # every stage call is one of the chain's passes: none runs per bumped copy
    assert stage_calls == chain + [stage for _, stages in want[3:] for stage in stages]


@pytest.mark.parametrize("arch", GRADCHECK_ARCHS)
@pytest.mark.parametrize("seed", [0, 1009])
def test_gradcheck_reads_every_group_below_1e5(arch, seed):
    # no group has a structurally zero gradient, so none reads loss rounding
    err, group = gradcheck_model(arch, seed=seed, h=1e-4, max_coords=6)
    assert err < 1e-5, f"{group}: {err:.2e}"


@pytest.mark.parametrize("enc_layers", [1, 3])
@pytest.mark.parametrize("dec_layers", [1, 2])
def test_every_parameter_is_read_by_exactly_one_stage(enc_layers, dec_layers):
    arch = replace(TINY, enc_layers=enc_layers, dec_layers=dec_layers)
    chain = _chain(arch)
    assert len({stage.name for stage in chain}) == len(chain)
    for name, _ in _param_layout(arch):
        assert sum(_scope(name) in stage.reads for stage in chain) == 1, name
    # every scope a stage reads holds a parameter, and no two stages share one
    scopes = {_scope(name) for name, _ in _param_layout(arch)}
    reads = [scope for stage in chain for scope in stage.reads]
    assert sorted(reads) == sorted(scopes)
    # a block is two stages, each reading its layernorm and its sub-layer
    reads_of = {stage.name: stage.reads for stage in chain}
    for stack, n_layers in (("enc", enc_layers), ("dec", dec_layers)):
        for p in (f"{stack}{i}" for i in range(n_layers)):
            assert reads_of[f"{p}.attn"] == (f"{p}.ln1", f"{p}.attn")
            assert reads_of[f"{p}.mlp"] == (f"{p}.ln2", f"{p}.mlp")


def test_scope_drops_the_last_name_component():
    assert [_scope(n) for n in ("enc0.attn.Wq", "enc0.ln1.g", "dec.norm.b", "embed.W",
                                "cls", "mask_token")] == \
        ["enc0.attn", "enc0.ln1", "dec.norm", "embed", "cls", "mask_token"]


@pytest.mark.parametrize("enc_layers", [1, 3])
@pytest.mark.parametrize("dec_layers", [1, 2])
def test_a_bump_moves_no_earlier_stage_input_and_resuming_is_exact(enc_layers, dec_layers):
    arch = replace(TINY, enc_layers=enc_layers, dec_layers=dec_layers)
    state = init_model(arch, seed=3)
    grids, masks = _batch(arch, 2, CROSS, seed=4)
    chain = _chain(arch)
    base = []
    _run(Binding(state, None), masks, grids, chain, base)
    for name in state.params:
        params = {**state.params, name: state.params[name] + 0.5}
        b = Binding(ModelState(arch, params), None)
        inputs = []
        recon = _run(b, masks, grids, chain, inputs)
        start = next(i for i, stage in enumerate(chain) if _scope(name) in stage.reads)
        for before, after in zip(base[:start + 1], inputs[:start + 1]):
            assert after.tobytes() == before.tobytes(), name
        resumed = _run(b, masks, base[start], chain[start:])
        assert resumed.tobytes() == recon.tobytes() == reconstruct(b, grids, masks).tobytes()


def test_decode_alone_matches_reconstruct_and_ids_are_derived_once_per_pass(monkeypatch):
    from crossmae import model

    state = init_model(TINY, seed=5)
    grids, masks = _batch(TINY, 3, CROSS, seed=6)
    b = Binding(state, None)
    alone = decode(b, encode(b, grids, masks), masks)
    assert alone.tobytes() == reconstruct(b, grids, masks).tobytes()
    calls = []
    real = model._token_ids
    monkeypatch.setattr(model, "_token_ids", lambda m: calls.append(1) or real(m))
    mae_loss(b, grids, masks)
    reconstruct(b, grids, masks)
    assert len(calls) == 2


def _batch(arch, n, policy, seed):
    rng = np.random.default_rng(seed)
    grids = np.stack([_grid(arch, seed=int(s)) for s in rng.integers(0, 2**31, size=n)])
    masks = np.stack([sample_mask(policy, arch.n_modalities, arch.n_patches, 0.5, rng)
                      for _ in range(n)])
    return grids, masks


def _loss_and_grads(state, build):
    t = T.Tape()
    b = Binding(state, t)
    loss = build(b)
    t.backward(loss)
    return float(loss.data), {k: leaf.grad for k, leaf in b.p.items()}


@pytest.mark.parametrize("policy", ["cross", "sync"])
@pytest.mark.parametrize("masked_only", [False, True])
def test_batch_loss_is_mean_of_single_window_losses(policy, masked_only):
    arch = ArchSpec(n_modalities=3, n_patches=4, patch_len=4, d_model=8,
                    enc_layers=2, dec_layers=1, n_heads=2, mlp_ratio=2)
    state = init_model(arch, seed=11)
    grids, masks = _batch(arch, 5, policy, seed=12)
    singles = [_loss_and_grads(state, lambda b, g=g, m=m: mae_loss(b, g[None], m[None],
                                                                  masked_only=masked_only))
               for g, m in zip(grids, masks)]
    mean_loss = float(np.mean([loss for loss, _ in singles]))
    mean_grads = {k: np.mean([grads[k] for _, grads in singles], axis=0) for k in state.params}
    new_loss, new_grads = _loss_and_grads(
        state, lambda b: mae_loss(b, grids, masks, masked_only=masked_only))
    assert abs(new_loss - mean_loss) <= 1e-10 * abs(mean_loss)
    # every group is held against the largest gradient anywhere, so that a
    # group with small gradients is not held to its own rounding
    scale = max(np.abs(g).max() for g in mean_grads.values())
    worst = max(np.abs(new_grads[k] - mean_grads[k]).max() for k in mean_grads)
    assert worst <= 1e-10 * scale


def test_batched_loss_matches_finite_differences():
    state = init_model(TINY, seed=13)
    grids, masks = _batch(TINY, 3, CROSS, seed=14)

    def loss(params):
        return mae_loss(Binding(ModelState(TINY, params), None), grids, masks)

    def build(params, name, bumps):
        if name is None:
            return loss(params)
        return [loss({**params, name: bumped}) for bumped in bumps]

    assert T.finite_diff_check(build, state.params, h=1e-4, max_coords=3)[0] < 1e-3


def test_loss_at_the_pretraining_benchmark_shape_matches_finite_differences():
    # 16 windows of 6 x 8 patches of 8 at d_model 32: the decoder's 49-token
    # attention spans more than one tile, as in a pretraining step
    arch = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)
    n = 16
    assert 8 * n * arch.n_heads * (arch.n_tokens + 1) ** 2 > T.ATTENTION_TILE_BYTES
    state = init_model(arch, seed=22)
    grids, masks = _batch(arch, n, CROSS, seed=23)

    def loss(params):
        return mae_loss(Binding(ModelState(arch, params), None), grids, masks)

    def build(params, name, bumps):
        if name is None:
            return loss(params)
        return [loss({**params, name: bumped}) for bumped in bumps]

    err, group = T.finite_diff_check(build, state.params, h=1e-4, max_coords=2, seed=24)
    assert err < 1e-5, f"{group}: {err:.2e}"


def test_batch_rejects_unequal_visible_counts():
    state = init_model(TINY, seed=15)
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 0] = True
    masks = np.stack([_mask(TINY, ratio=0.5), bits])
    with pytest.raises(ValueError, match="same number"):
        encode(Binding(state, None), np.stack([_grid(TINY)] * 2), masks)
    # decode alone: rows of a valid batch, and masks that hide 2 and 4 of 6
    # patches, so the grid slots still number as many as the rows
    b = Binding(state, None)
    encoded = encode(b, np.stack([_grid(TINY)] * 2), np.stack([_mask(TINY, ratio=0.5)] * 2))
    unequal = np.zeros((2, 6), dtype=bool)
    unequal[0, :2] = unequal[1, :4] = True
    with pytest.raises(ValueError, match="same number"):
        decode(b, encoded, unequal.reshape(2, 2, 3))


@pytest.mark.parametrize("policy", [CROSS, SYNC])
@pytest.mark.parametrize("n", [1, 3, 16])
def test_decoder_entry_puts_each_window_s_rows_at_its_token_ids(monkeypatch, policy, n):
    arch = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)
    _, masks = _batch(arch, n, policy, seed=n)
    ids = _token_ids(masks)
    slots = []
    real = T.scatter_rows
    monkeypatch.setattr(T, "scatter_rows", lambda a, idx, *rest: slots.append(idx) or
                        real(a, idx, *rest))
    _dec_entry(Binding(init_model(arch, seed=0), None), masks,
               np.zeros((ids.size, arch.d_model)))
    want = (np.arange(n)[:, None] * (arch.n_tokens + 1) + ids).ravel()
    assert len(slots) == 1 and slots[0].tolist() == want.tolist()


def test_step_node_count_does_not_depend_on_batch_size():
    state = init_model(TINY, seed=0)
    counts = []
    for n_windows in (1, 4, 16):
        t = T.Tape()
        grids, masks = _batch(TINY, n_windows, CROSS, seed=16)
        mae_loss(Binding(state, t), grids, masks)
        counts.append(len(t._nodes))
    assert counts[0] == counts[1] == counts[2]


# TINY, and the benchmark's pretraining shape: 6 x 8 patches of 8 samples
@pytest.mark.parametrize("arch", [TINY, ArchSpec(n_modalities=6, n_patches=8, patch_len=8)],
                         ids=["tiny", "pretrain"])
def test_step_records_ten_nodes_plus_twelve_per_block(arch):
    # per block: ln1, q, k, v, attention, o, residual add, ln2, W1, gelu, W2,
    # residual add. The 10: embed 3 (matmul, scatter, positions), enc.norm 1,
    # decoder entry 2 (scatter, positions), dec.norm 2 (layernorm, take),
    # head 1 and the loss 1.
    t = T.Tape()
    grids, masks = _batch(arch, 16, CROSS, seed=17)
    mae_loss(Binding(init_model(arch, seed=0), t), grids, masks)
    assert len(t._nodes) == 10 + 12 * (arch.enc_layers + arch.dec_layers)


class _FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_heap_is_held_once_per_process(monkeypatch):
    import ctypes
    from crossmae import model

    libc = _FakeLibc()
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
    model._hold_heap.cache_clear()
    try:
        state = init_model(TINY, seed=0)
        Binding(state, None)
        Binding(state, T.Tape())
        assert opened == [None]
        assert libc.calls == [(model.M_MMAP_THRESHOLD, 64 << 20),
                              (model.M_TRIM_THRESHOLD, 256 << 20)]
    finally:
        model._hold_heap.cache_clear()


def test_heap_hold_is_a_no_op_without_mallopt(monkeypatch):
    import ctypes
    from crossmae import model

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    model._hold_heap.cache_clear()
    try:
        b = Binding(init_model(TINY, seed=0), None)
        assert encode(b, _grid(TINY)[None], _mask(TINY)[None]).shape == (4, TINY.d_model)
    finally:
        model._hold_heap.cache_clear()
