"""Flat key=value config parsing, formatting, and typed resolution."""

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossmae.config import (ManifestError, format_kv_lines, load_config,
                             parse_kv_lines, resolve)
from crossmae.model import ArchSpec, init_model, load_checkpoint, save_checkpoint
from crossmae.windows import load_dataset, save_dataset

DEFAULTS = {"optim.lr": 5e-4, "optim.epochs": 200, "mask.policy": "cross",
            "augment.matched_start": False}


def test_round_trip_through_text():
    text = format_kv_lines(DEFAULTS)
    parsed = parse_kv_lines(text)
    assert resolve(DEFAULTS, parsed) == DEFAULTS


def test_comments_and_blank_lines_skipped():
    parsed = parse_kv_lines("# header\n\noptim.lr = 1e-3  # trailing\n")
    assert parsed == {"optim.lr": "1e-3"}


def test_missing_equals_reports_line_number():
    with pytest.raises(ManifestError, match=r"cfg: line 2"):
        parse_kv_lines("a=1\nnot a pair\n", source="cfg")


def test_duplicate_key_reports_line_number():
    with pytest.raises(ManifestError, match=r"line 3: duplicate key 'a'"):
        parse_kv_lines("a=1\nb=2\na=3\n")


def test_empty_key_rejected():
    with pytest.raises(ManifestError, match="empty key"):
        parse_kv_lines("=5\n")


def test_unknown_key_lists_known_keys():
    with pytest.raises(ManifestError, match="unknown key 'optim.lrr'.*optim.lr"):
        resolve(DEFAULTS, {"optim.lrr": "1"})


def test_type_coercion_follows_defaults():
    out = resolve(DEFAULTS, {"optim.lr": "1e-2", "optim.epochs": "7",
                             "augment.matched_start": "true", "mask.policy": "sync"})
    assert out == {"optim.lr": 1e-2, "optim.epochs": 7, "mask.policy": "sync",
                   "augment.matched_start": True}
    assert isinstance(out["optim.epochs"], int)


@pytest.mark.parametrize("raw,expected", [
    ("true", True), ("1", True), ("YES", True),
    ("false", False), ("0", False), ("No", False),
])
def test_bool_spellings(raw, expected):
    assert resolve({"f": False}, {"f": raw})["f"] is expected


def test_bad_bool_and_bad_int_rejected():
    with pytest.raises(ManifestError, match="cannot parse 'maybe' as bool"):
        resolve({"f": True}, {"f": "maybe"})
    with pytest.raises(ManifestError, match="cannot parse 'x' as int"):
        resolve({"n": 1}, {"n": "x"})


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("optim.epochs=3\n")
    out = load_config(path, DEFAULTS)
    assert out["optim.epochs"] == 3
    assert out["optim.lr"] == DEFAULTS["optim.lr"]
    with pytest.raises(ManifestError, match=str(path)):
        path.write_text("bogus\n")
        load_config(path, DEFAULTS)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_values_round_trip_exactly(x):
    text = format_kv_lines({"v": x})
    back = resolve({"v": 0.0}, parse_kv_lines(text))["v"]
    assert back == x and math.copysign(1, back) == math.copysign(1, x)


@given(st.integers(min_value=-10**12, max_value=10**12))
def test_int_values_round_trip_exactly(n):
    back = resolve({"v": 0}, parse_kv_lines(format_kv_lines({"v": n})))["v"]
    assert back == n


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A saved dataset and a saved checkpoint, with the loader of each."""
    root = tmp_path_factory.mktemp("arrays")
    rng = np.random.default_rng(0)
    save_dataset(root / "dataset", rng.standard_normal((3, 2, 8)), np.array([0, 1, -1]),
                 n_classes=2)
    arch = ArchSpec(n_modalities=2, n_patches=2, patch_len=4, d_model=8, enc_layers=1,
                    dec_layers=1, n_heads=2)
    save_checkpoint(init_model(arch, 0), root / "checkpoint")
    return {"dataset": (root / "dataset", load_dataset),
            "checkpoint": (root / "checkpoint", load_checkpoint)}


VALUES = st.one_of(st.integers(-3, 10**4).map(str),
                   st.sampled_from(["", "x", "2x", "3.5", "nan", "inf", "1e3"]))
# values written into one element of a blob: a dataset's label must be -1 or a class
ELEMENTS = st.one_of(st.sampled_from([0.5, -2.0, 7.0, 1e9, -1.0, 1.0]), st.floats(width=32))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["dataset", "checkpoint"]), data=st.data())
def test_any_one_mutation_of_an_array_directory_is_a_manifest_error(saved, kind, data):
    """One edit of a saved manifest or blob either loads or raises a
    ManifestError that starts with the path of a file of the directory: the
    blob's after a blob edit; after a manifest edit, the manifest's, or the
    blob's once n_classes no longer covers the labels. Never an IndexError, a
    reshape error or an allocation the size of the edit."""
    source, load = saved[kind]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(shutil.copytree(source, Path(tmp) / kind))
        man, blob = directory / "manifest.txt", directory / "data.f32"
        lines = man.read_text().splitlines()
        mutation = data.draw(st.sampled_from(["replace", "drop", "truncate", "extend", "nan",
                                              "value"]))
        if mutation in ("replace", "drop"):
            i = data.draw(st.integers(0, len(lines) - 1))
            if mutation == "replace":
                lines[i] = lines[i].split("=")[0] + "=" + data.draw(VALUES)
            else:
                del lines[i]
            man.write_text("\n".join(lines) + "\n")
            at_fault = (man, blob)
        else:
            values = np.fromfile(blob, dtype="<f4")
            if mutation == "truncate":
                values = values[:-1]
            elif mutation == "extend":
                values = np.append(values, np.float32(0.0))
            else:
                values[data.draw(st.integers(0, values.size - 1))] = (
                    np.nan if mutation == "nan" else data.draw(ELEMENTS))
            values.tofile(blob)
            at_fault = (blob,)
        try:
            load(directory)
        except ManifestError as exc:
            assert str(exc).startswith(tuple(f"{path}:" for path in at_fault)), str(exc)
        else:
            assert mutation in ("replace", "value")


LINES = st.one_of(st.text(max_size=30), st.sampled_from(["optim.lr", "=", "a=b=c", "#x=1"]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_one_edit_of_a_config_file_is_a_manifest_error(data):
    """One edit of one line of a config file either loads or raises a
    ManifestError that starts with that file's path: never a
    UnicodeDecodeError, an int() or float() error or a KeyError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(format_kv_lines(DEFAULTS))
        lines = path.read_bytes().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        mutation = data.draw(st.sampled_from(["text", "value", "bytes", "drop", "repeat"]))
        if mutation == "text":
            lines[i] = data.draw(LINES).encode()
        elif mutation == "value":
            lines[i] = lines[i].split(b"=")[0] + b"=" + data.draw(LINES).encode()
        elif mutation == "bytes":
            lines[i] = data.draw(st.binary(max_size=8))
        elif mutation == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            load_config(path, DEFAULTS)
        except ManifestError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
