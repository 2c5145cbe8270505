"""Synthetic windows, splice augmentation, patch grids, dataset files."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmae.config import ManifestError
from crossmae.windows import (SYNTH_BLOCK, SynthSpec, cut_splice, draw_splice,
                              generate_windows, load_dataset, patchify, save_dataset,
                              splice_augment, standardize)


def _spec(**kw):
    base = dict(n_windows=4, n_modalities=2, n_samples=16, n_classes=2,
                shared_latent_strength=1.0, noise_sd=0.0, seed=7)
    base.update(kw)
    return SynthSpec(**base)


def test_generate_deterministic_per_seed():
    a, a_labels = generate_windows(_spec())
    b, b_labels = generate_windows(_spec())
    assert len(a) == 4
    for i in range(4):
        assert np.array_equal(a[i], b[i])
        assert a_labels[i] == b_labels[i]
    c, _ = generate_windows(_spec(seed=8))
    assert not np.array_equal(a[0], c[0])


def _generate_windows_formula(spec):
    """generate_windows written out with one Generator.uniform call per
    parameter group, as the windows were first drawn."""
    c_n, length = spec.n_modalities, spec.n_samples
    s = spec.shared_latent_strength
    t = np.arange(length) / length
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_windows)
    values = np.empty((spec.n_windows, c_n, length))
    labels = np.arange(spec.n_windows, dtype=np.int64) % spec.n_classes
    for w, child in enumerate(children):
        rng = np.random.default_rng(child)
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


def _random_spec(rng):
    return SynthSpec(n_windows=int(rng.integers(1, 24)), n_modalities=int(rng.integers(2, 8)),
                     n_samples=int(rng.integers(2, 90)), n_classes=int(rng.integers(1, 9)),
                     shared_latent_strength=float(rng.uniform()),
                     noise_sd=float(rng.uniform(0.0, 3.0)), seed=int(rng.integers(0, 2**32)))


def test_one_parameter_draw_per_window_matches_the_uniform_calls_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        spec = _random_spec(rng)
        values, labels = generate_windows(spec)
        ref_values, ref_labels = _generate_windows_formula(spec)
        assert values.tobytes() == ref_values.tobytes()
        assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)


def test_a_subset_of_windows_equals_the_matching_rows_of_the_full_set():
    rng = np.random.default_rng(11)
    for _ in range(30):
        spec = _random_spec(rng)
        full, full_labels = generate_windows(spec)
        # any order, repeats allowed, possibly empty
        which = rng.integers(0, spec.n_windows, size=int(rng.integers(0, 2 * spec.n_windows)))
        values, labels = generate_windows(spec, which)
        assert values.shape == (len(which), spec.n_modalities, spec.n_samples)
        assert values.tobytes() == full[which].tobytes()
        assert np.array_equal(labels, full_labels[which])
        assert generate_windows(spec, which.tolist())[0].tobytes() == values.tobytes()


@pytest.mark.parametrize("n_windows", [SYNTH_BLOCK - 1, SYNTH_BLOCK, SYNTH_BLOCK + 1,
                                       2 * SYNTH_BLOCK + 3])
def test_windows_around_a_block_boundary_match_the_formula_bit_for_bit(n_windows):
    rng = np.random.default_rng(n_windows)
    for _ in range(4):
        spec = SynthSpec(**{**vars(_random_spec(rng)), "n_windows": n_windows})
        values, labels = generate_windows(spec)
        ref_values, ref_labels = _generate_windows_formula(spec)
        assert values.tobytes() == ref_values.tobytes()
        assert np.array_equal(labels, ref_labels)
        # repeats, in any order, that fill several blocks and end inside one
        for size in (SYNTH_BLOCK + 1, 3 * SYNTH_BLOCK - 5):
            which = rng.integers(0, n_windows, size=size)
            sub, sub_labels = generate_windows(spec, which)
            assert sub.tobytes() == ref_values[which].tobytes()
            assert np.array_equal(sub_labels, ref_labels[which])


def test_generating_windows_holds_the_output_and_one_block_of_scratch(peak_traced_bytes):
    # A broadcast over all the windows would hold several output-sized
    # temporaries; a block holds two (block, C, L) sinusoid arrays and
    # small index arrays.
    spec = SynthSpec(n_windows=2000, n_modalities=6, n_samples=200, n_classes=4,
                     shared_latent_strength=0.9, noise_sd=0.3, seed=0)
    generate_windows(_spec())  # numpy's first-use allocations stay out of the count
    output = spec.n_windows * (spec.n_modalities * spec.n_samples + 1) * 8
    block = SYNTH_BLOCK * spec.n_modalities * spec.n_samples * 8
    assert peak_traced_bytes(generate_windows, spec) < output + 3 * block


@pytest.mark.parametrize("which, message", [
    ([0, 4], r"^which must list windows in \[0, 4\), got 4 at index 1$"),
    ([-1], r"^which must list windows in \[0, 4\), got -1 at index 0$"),
    ([[0, 1]], r"^which must be a 1-D list of window indices, got int64 of shape \(1, 2\)$"),
    ([1.0], r"^which must be a 1-D list of window indices, got float64 of shape \(1,\)$")])
def test_a_subset_outside_the_spec_is_rejected(which, message):
    with pytest.raises(ValueError, match=message):
        generate_windows(_spec(), which)


def test_full_strength_noiseless_channels_are_affine():
    for w in generate_windows(_spec(n_modalities=4, n_samples=64))[0]:
        base = w[0]
        design = np.stack([base, np.ones_like(base)], axis=1)
        for c in range(1, 4):
            _, res, _, _ = np.linalg.lstsq(design, w[c], rcond=None)
            assert res.size == 0 or res[0] <= 1e-10
            r = np.corrcoef(base, w[c])[0, 1]
            assert abs(abs(r) - 1.0) < 1e-10


def test_partial_strength_keeps_strong_cross_modal_correlation():
    ws, _ = generate_windows(SynthSpec(n_windows=200, n_modalities=6, n_samples=200,
                                       n_classes=4, shared_latent_strength=0.9,
                                       noise_sd=0.3, seed=1))
    cors = []
    for w in ws:
        r = np.corrcoef(w)
        iu = np.triu_indices(6, k=1)
        cors.append(np.abs(r[iu]).mean())
    assert np.mean(cors) >= 0.5


def test_labels_round_robin():
    _, labels = generate_windows(_spec(n_windows=7, n_classes=3))
    assert labels.tolist() == [0, 1, 2, 0, 1, 2, 0]


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        _spec(n_windows=0)
    with pytest.raises(ValueError):
        _spec(n_modalities=1)
    with pytest.raises(ValueError):
        _spec(shared_latent_strength=1.5)
    with pytest.raises(ValueError):
        _spec(noise_sd=-0.1)
    for field, value in (("noise_sd", float("inf")), ("noise_sd", float("nan")),
                         ("n_classes", 2**24 + 1)):
        with pytest.raises(ValueError, match=f"^{field} must .*, got {value!r}$"):
            _spec(**{field: value})


def test_standardize_rejects_non_finite_values():
    values = np.zeros((3, 2, 4))
    values[1, 0, 2] = np.inf
    with pytest.raises(ValueError, match=r"finite values; index \(1, 0, 2\)"):
        standardize(values)


def test_standardize_names_the_first_channel_whose_sd_overflows():
    values = np.ones((3, 2, 4))
    values[0, 1] = 1e200  # constant: its sd overflows but it still maps to zeros
    values[1, 1] = [0.0, 1e200, -1e200, 0.0]
    values[2, 0] = [1e200, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"finite sd in every channel; channel \(1, 1\) "
                                         r"has sd inf$"):
        standardize(values)


@pytest.mark.parametrize("value", [1e200, -7.7e180, 1e300])
@pytest.mark.parametrize("length", [7, 200])
def test_standardize_maps_a_huge_constant_channel_to_zeros(value, length):
    # the mean misses each of these values by an ulp, whose square overflows
    w = np.ones((2, length))
    w[1] = value
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.std(w[1]))
    out = standardize(w)
    assert np.array_equal(out, np.zeros((2, length)))


def test_splice_length_range_and_bounds():
    ws, _ = generate_windows(_spec(n_windows=6, n_samples=200, noise_sd=0.1))
    lengths = set()
    for s in range(300):
        r = splice_augment(ws, seed=s)
        lengths.add(r.length)
        assert 40 <= r.length <= 100
        assert 0 <= r.start_a <= 200 - r.length
        assert 0 <= r.start_b <= 200 - r.length
    assert min(lengths) == 40 and max(lengths) == 100


def test_splice_identical_windows_matched_start_is_identity():
    w = generate_windows(_spec(n_windows=1, n_samples=50, noise_sd=0.2))[0][0]
    twin = np.stack([w, w])
    for s in range(20):
        out = splice_augment(twin, seed=s, matched_start=True)
        assert np.array_equal(out.window, w)
        assert out.start_a == out.start_b


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_splice_span_matches_source_and_rest_matches_dest(seed):
    ws, _ = generate_windows(_spec(n_windows=5, n_modalities=3, n_samples=60, noise_sd=0.5))
    before = ws.copy()
    r = splice_augment(ws, seed=seed)
    a, b, lam, s1, s2 = r.source_a, r.source_b, r.length, r.start_a, r.start_b
    out = r.window
    assert out.shape == (3, 60)
    assert np.array_equal(out[:, s1:s1 + lam], before[b][:, s2:s2 + lam])
    rest = np.ones(60, dtype=bool)
    rest[s1:s1 + lam] = False
    assert np.array_equal(out[:, rest], before[a][:, rest])
    assert np.array_equal(ws, before)  # inputs untouched


def test_splice_rejects_degenerate_datasets():
    ws, _ = generate_windows(_spec(n_windows=1))
    with pytest.raises(ValueError):
        splice_augment(ws, seed=0)
    with pytest.raises(ValueError, match="at least 2 windows, got 1"):
        draw_splice(1, 16, 0)


@pytest.mark.parametrize("length", [1, 0, -3])
def test_a_splice_of_windows_shorter_than_two_samples_names_the_length(length):
    with pytest.raises(ValueError, match=rf"^a splice needs windows of at least 2 samples, "
                                         rf"got length {length}$"):
        draw_splice(4, length, 0)


class _RecordedBounds(np.random.Generator):
    """A Generator that records the (low, high) of each integers call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.bounds = []

    def integers(self, low, high=None, *args, **kwargs):
        self.bounds.append((low, high))
        return super().integers(low, high, *args, **kwargs)


def test_splice_length_bounds_are_the_ceil_and_floor_of_the_length_fractions():
    rng = _RecordedBounds(0)
    for length in range(2, 10_001):
        del rng.bounds[:]
        lam = draw_splice(3, length, rng)[2]
        lo, hi = rng.bounds[2]
        assert (lo, hi) == (int(np.ceil(0.2 * length)), int(np.floor(0.5 * length)) + 1)
        assert type(lo) is int and type(hi) is int and lo <= lam < hi


@pytest.mark.parametrize("matched_start", [False, True])
def test_a_splice_is_its_draw_then_its_cut(matched_start):
    ws, _ = generate_windows(_spec(n_windows=7, n_modalities=3, n_samples=50, noise_sd=0.5))
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        r = splice_augment(ws, rng_a, matched_start=matched_start)
        plan = draw_splice(len(ws), ws.shape[-1], rng_b, matched_start=matched_start)
        assert plan == (r.source_a, r.source_b, r.length, r.start_a, r.start_b)
        assert all(type(x) is int for x in plan)
        assert np.array_equal(cut_splice(ws[plan[0]], ws[plan[1]], *plan[2:]), r.window)
    # both generators stand at the same point of their streams
    assert rng_a.random() == rng_b.random()


def test_patchify_counts():
    w = generate_windows(_spec(n_modalities=6, n_samples=200, noise_sd=0.1))[0][0]
    g = patchify(w, 20)
    assert g.shape == (6, 10, 20)
    assert np.array_equal(g[2, 3], w[2, 60:80])
    assert np.array_equal(g.reshape(6, -1), w)


def test_patchify_single_patch_and_remainder_drop():
    w = np.arange(20, dtype=float).reshape(2, 10)
    g = patchify(w, 10)
    assert g.shape == (2, 1, 10)
    assert np.array_equal(g[:, 0, :], w)

    w2 = np.arange(22, dtype=float).reshape(2, 11)
    g2 = patchify(w2, 5)
    assert g2.shape == (2, 2, 5)
    assert np.array_equal(g2.reshape(2, -1), w2[:, :10])
    with pytest.raises(ValueError):
        patchify(w2, 12)


def test_standardize_examples_and_idempotence():
    w = np.array([[2.0, 4.0, 6.0], [5.0, 5.0, 5.0]])
    out = standardize(w)
    assert abs(out[0].mean()) < 1e-12
    assert abs(out[0].std() - 1.0) < 1e-12
    assert np.array_equal(out[1], np.zeros(3))
    twice = standardize(out)
    assert np.max(np.abs(twice - out)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e100, max_value=1e100), st.integers(min_value=2, max_value=600))
def test_standardize_maps_a_constant_channel_to_zeros(value, length):
    # A constant channel is what a stuck sensor records. Its mean can miss
    # the value by a few ulps: three 0.1s average to 0.1 + 1.4e-17.
    w = np.random.default_rng(length).standard_normal((2, 2, length))
    w[1, 0] = value
    out = standardize(w)
    assert np.array_equal(out[1, 0], np.zeros(length))
    assert np.array_equal(np.delete(out.reshape(4, length), 2, axis=0),
                          standardize(np.delete(w.reshape(4, length), 2, axis=0)))


def test_dataset_save_load_round_trip(tmp_path):
    ws, labels = generate_windows(_spec(n_windows=5, n_modalities=3, n_samples=24,
                                        n_classes=3, noise_sd=0.4))
    save_dataset(tmp_path, ws, labels, n_classes=3)
    (tmp_path / "data.f32").stat()
    back, back_labels, n_classes = load_dataset(tmp_path)
    assert back.shape == (5, 3, 24) and n_classes == 3
    for i in range(5):
        assert np.array_equal(back[i], ws[i].astype(np.float32).astype(np.float64))
        assert back_labels[i] == labels[i]


def test_dataset_labels_round_trip_exactly(tmp_path):
    labels = np.array([0, -1, 2**24 - 1, 5, -1])
    save_dataset(tmp_path, np.zeros((5, 2, 4)), labels, n_classes=2**24)
    _, back_labels, _ = load_dataset(tmp_path)
    assert back_labels.dtype == np.int64 and back_labels.tolist() == labels.tolist()


def test_save_dataset_rejects_a_label_float32_cannot_hold(tmp_path):
    for label in (2**24, -2):
        with pytest.raises(ValueError, match=rf"^array labels holds {float(label)!r}, which is "
                                             r"neither -1 nor a class in \[0, 16777216\) at "
                                             r"index \(1,\)$"):
            save_dataset(tmp_path, np.zeros((2, 2, 4)), np.array([0, label]), n_classes=2**24)
    assert not any(tmp_path.iterdir())


def test_dataset_unlabeled_round_trip(tmp_path):
    ws = np.stack([np.random.default_rng(0).standard_normal((2, 8)) for _ in range(2)])
    save_dataset(tmp_path, ws, np.full(2, -1), n_classes=np.int64(0))
    _, back_labels, n_classes = load_dataset(tmp_path)
    assert all(label == -1 for label in back_labels) and n_classes == 0


def test_dataset_corrupt_manifest_names_line(tmp_path):
    ws, labels = generate_windows(_spec())
    save_dataset(tmp_path, ws, labels, n_classes=2)
    man = tmp_path / "manifest.txt"
    lines = man.read_text().splitlines()
    lines[1] = "garbage with no equals"
    man.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="line 2"):
        load_dataset(tmp_path)


def test_dataset_blob_size_mismatch_rejected(tmp_path):
    ws, labels = generate_windows(_spec())
    save_dataset(tmp_path, ws, labels, n_classes=2)
    blob = tmp_path / "data.f32"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ValueError):
        load_dataset(tmp_path)


@pytest.mark.parametrize("index, label, message", [
    (1, 0.5, "0.5"), (2, -2, "-2.0"), (0, 2, "2.0"),
], ids=["non-integer", "negative", "beyond-n-classes"])
def test_dataset_bad_label_names_blob_array_and_index(tmp_path, index, label, message):
    save_dataset(tmp_path, *generate_windows(_spec(n_windows=3)), n_classes=2)
    blob = np.fromfile(tmp_path / "data.f32", dtype="<f4")
    blob[3 * 2 * 16 + index] = label  # the labels follow the (3, 2, 16) values
    blob.tofile(tmp_path / "data.f32")
    path = tmp_path / "data.f32"
    with pytest.raises(ManifestError, match=f"^{re.escape(f'{path}: array labels holds ')}"
                                            f"{re.escape(message)}, which is neither -1 nor a "
                                            rf"class in \[0, 2\) at index \({index},\)$"):
        load_dataset(tmp_path)


def test_dataset_errors_name_the_full_path(tmp_path):
    ws, labels = generate_windows(_spec())
    save_dataset(tmp_path, ws, labels, n_classes=2)
    man = tmp_path / "manifest.txt"
    text = man.read_text()
    man.write_text(text.replace("n_classes=2\n", ""))
    with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}: missing key n_classes"):
        load_dataset(tmp_path)
    man.write_text(text.replace("array.values=4x2x16", "array.values=4xtwox16"))
    with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}: key array.values: "):
        load_dataset(tmp_path)
    man.write_text(text)
    blob = tmp_path / "data.f32"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ManifestError, match=f"^{re.escape(str(blob))}: size"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("fault, name, message", [
    ("NaN in window 2", "data.f32", "array values holds a non-finite value at index (2, 0, 5)"),
    ("array.values=0x2x16;array.labels=0", "manifest.txt",
     "key array.values: n_windows=0 must be at least 1"),
    ("array.values=-4x2x16", "manifest.txt",
     "key array.values: expected a shape such as 3x4, got '-4x2x16'"),
    ("array.values=4x1x16", "manifest.txt", "key array.values: C=1 must be at least 2"),
    ("array.values=4x-2x16", "manifest.txt",
     "key array.values: expected a shape such as 3x4, got '4x-2x16'"),
    ("array.values=4x2x1", "manifest.txt", "key array.values: L=1 must be at least 2"),
    ("n_classes=-3", "manifest.txt", "key n_classes: -3 is not in [0, 16777216]"),
    ("n_classes=16777217", "manifest.txt", "key n_classes: 16777217 is not in [0, 16777216]"),
    ("n_classes=2.0", "manifest.txt", "key n_classes: cannot parse '2.0' as int"),
    ("C=2", "manifest.txt", "unknown key 'C'"),
    ("array.extra=4", "manifest.txt", "a dataset has two arrays, values of shape n x C x L, "
     "then labels of shape n; got {'values': (4, 2, 16), 'labels': (4,), "
     "'extra': (4,)}"),
    ("array.values=", "manifest.txt", "key array.values: expected a shape such as 3x4, got ''"),
    ("array.values=4x32", "manifest.txt", "a dataset has two arrays, values of shape n x C x L, "
     "then labels of shape n; got {'values': (4, 32), 'labels': (4,)}"),
    ("array.labels=4x1", "manifest.txt", "a dataset has two arrays, values of shape n x C x L, "
     "then labels of shape n; got {'values': (4, 2, 16), 'labels': (4, 1)}"),
    ("array.labels=3", "manifest.txt", "a dataset has two arrays, values of shape n x C x L, "
     "then labels of shape n; got {'values': (4, 2, 16), 'labels': (3,)}"),
], ids=["nan-blob", "no-windows", "negative-windows", "one-modality", "negative-modalities",
        "one-sample", "negative-classes", "too-many-classes", "float-classes", "unknown-key",
        "unknown-array", "empty-shape", "two-dimensions", "two-dimensional-labels",
        "labels-for-fewer-windows"])
def test_dataset_bad_dimensions_and_values_name_the_file(tmp_path, fault, name, message):
    save_dataset(tmp_path, *generate_windows(_spec()), n_classes=2)
    if fault.startswith("NaN"):
        blob = np.fromfile(tmp_path / "data.f32", dtype="<f4")
        blob[2 * 2 * 16 + 5] = np.nan  # window 2 of (4, 2, 16)
        blob.tofile(tmp_path / "data.f32")
    else:  # replace the line of each edit's key in place, keeping the arrays' order, or add one
        man = tmp_path / "manifest.txt"
        lines = man.read_text().splitlines()
        for edit in fault.split(";"):
            key = edit.split("=")[0]
            at = next((i for i, line in enumerate(lines) if line.startswith(key + "=")),
                      len(lines))
            lines[at:at + 1] = [edit]
        man.write_text("\n".join(lines) + "\n")
    path = tmp_path / name
    with pytest.raises(ManifestError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_dataset(tmp_path)


def test_dataset_in_the_untagged_older_format_rejected(tmp_path):
    save_dataset(tmp_path, *generate_windows(_spec()), n_classes=2)
    man = tmp_path / "manifest.txt"
    man.write_text("n_windows=4\nC=2\nL=16\nsample_rate_hz=50.0\nn_classes=2\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}: key format: expected "
                                            "crossmae-dataset-v4, got None$"):
        load_dataset(tmp_path)


def test_failed_save_leaves_the_old_dataset(tmp_path, monkeypatch):
    from crossmae import config

    old, labels = generate_windows(_spec())
    save_dataset(tmp_path, old, labels, n_classes=2)
    real = config.write_atomic

    def blob_write_fails(path, chunks):
        if not str(path).endswith("data.f32"):
            return real(path, chunks)

        def chunks_then_fail():
            yield from chunks
            raise OSError("no space left on device")
        return real(path, chunks_then_fail())

    monkeypatch.setattr(config, "write_atomic", blob_write_fails)
    with pytest.raises(OSError, match="no space left"):
        save_dataset(tmp_path, old[:3] + 1.0, labels[:3], n_classes=3)
    values, back_labels, n_classes = load_dataset(tmp_path)
    assert np.array_equal(values, old.astype(np.float32).astype(np.float64))
    assert np.array_equal(back_labels, labels) and n_classes == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.f32", "manifest.txt"]


def _with(value, index):
    values = np.zeros((3, 2, 4))
    values[index] = value
    return values


LABELS = np.array([0, 1, 1])


# Each dataset that an earlier save_dataset wrote and load_dataset then
# rejected: the writer now raises the reader's error and creates nothing.
@pytest.mark.parametrize("values, labels, n_classes, message", [
    (_with(np.nan, (1, 0, 2)), LABELS, 2,
     "array values holds a non-finite value at index (1, 0, 2)"),
    (_with(1e39, (2, 1, 3)), LABELS, 2,  # float32 rounds it to inf
     "array values holds a non-finite value at index (2, 1, 3)"),
    (np.zeros((3, 1, 4)), LABELS, 2, "key array.values: C=1 must be at least 2"),
    (np.zeros((0, 2, 4)), np.zeros(0), 2, "key array.values: n_windows=0 must be at least 1"),
    (np.zeros((3, 2, 4)), np.array([0, 0.5, 1]), 2,
     "array labels holds 0.5, which is neither -1 nor a class in [0, 2) at index (1,)"),
    (np.zeros((3, 2, 4)), np.array([0, 5, 1]), 2,
     "array labels holds 5.0, which is neither -1 nor a class in [0, 2) at index (1,)"),
    (np.zeros((3, 2, 4)), np.full(3, -1), -1, "key n_classes: -1 is not in [0, 16777216]"),
], ids=["nan-value", "float32-overflow", "one-modality", "no-windows", "half-label",
        "label-beyond-n-classes", "negative-classes"])
def test_save_dataset_refuses_what_load_dataset_rejects(tmp_path, values, labels, n_classes,
                                                        message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_dataset(tmp_path / "d", values, labels, n_classes)
    assert not (tmp_path / "d").exists()


def test_save_dataset_takes_no_sample_rate(tmp_path):
    """The calls of the earlier signature, (values, labels, sample_rate_hz,
    n_classes), write nothing."""
    with pytest.raises(TypeError):
        save_dataset(tmp_path / "d", np.zeros((3, 2, 4)), LABELS, 0.0, 2)
    with pytest.raises(TypeError):  # the rate would land in n_classes
        save_dataset(tmp_path / "d", np.zeros((3, 2, 4)), np.full(3, -1), 50.0)
    assert not (tmp_path / "d").exists()


def test_refused_save_leaves_the_old_dataset_byte_identical(tmp_path):
    save_dataset(tmp_path, *generate_windows(_spec()), n_classes=2)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="non-finite value at index"):
        save_dataset(tmp_path, _with(np.nan, (0, 0, 0)), LABELS, 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


EXTREMES = [np.nan, np.inf, -np.inf, 1e39, -1e39, 0.5, -2.0, 2.0**24, 2.0**24 - 1]


def _draw_with_one_extreme(data, elements, size):
    """size drawn elements, one of them replaced by an extreme one time in three."""
    out = np.array(data.draw(st.lists(elements, min_size=size, max_size=size)), dtype=np.float64)
    if size and data.draw(st.integers(0, 2)) == 0:
        out[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from(EXTREMES))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_save_dataset_refuses_or_the_dataset_loads_back(data):
    """A drawn dataset either is refused with a ValueError that leaves the
    target as it was, or loads back as the float32 rounding of its values,
    its labels and its n_classes, exactly."""
    # every size in 0-3, most of them ones a dataset may have
    n, c_n, length, n_labels = (data.draw(st.one_of(st.integers(2, 3), st.integers(0, 3)))
                                for _ in range(4))
    if data.draw(st.integers(0, 3)):
        n_labels = n
    values = _draw_with_one_extreme(data, st.floats(-1e3, 1e3), n * c_n * length)
    values = values.reshape(n, c_n, length)
    labels = _draw_with_one_extreme(data, st.integers(-1, 1), n_labels)
    n_classes = data.draw(st.one_of(st.integers(-2, 5), st.integers(2**24 - 2, 2**24 + 2)))
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "dataset"
        if data.draw(st.booleans()):  # over an existing dataset
            save_dataset(target, np.ones((2, 2, 2)), np.array([0, -1]), 1)
        before = {p.name: p.read_bytes() for p in target.iterdir()} if target.exists() else None
        try:
            save_dataset(target, values, labels, n_classes)
        except ValueError:
            after = {p.name: p.read_bytes() for p in target.iterdir()} if target.exists() else None
            assert after == before
            return
        back, back_labels, back_classes = load_dataset(target)
        assert np.array_equal(back, values.astype(np.float32).astype(np.float64))
        assert back_labels.dtype == np.int64 and np.array_equal(back_labels, labels)
        assert back_classes == n_classes
