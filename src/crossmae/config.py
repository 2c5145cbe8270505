"""Flat key=value configuration and manifest parsing; the one array format.

One syntax everywhere: `key=value`, one per line, `#` starts a comment,
sections are expressed with dotted key prefixes (optim.lr=5e-4). No nesting,
no quoting. Parse errors always carry the source name and line number.

Datasets and checkpoints are array directories: manifest.txt holds a
format= tag, typed header keys and one array.<name>=<d0>x<d1>x... line per
array, data.f32 their values as little-endian float32, in manifest order.
save_arrays and load_arrays both run a format's check and need finite values.
"""
import math
import os

import numpy as np

MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "data.f32"
BOOL_SPELLINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ManifestError(ValueError):
    """Raised for malformed manifests, configs, or checkpoints."""


def parse_kv_lines(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into an ordered dict of strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"{source}: line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ManifestError(f"{source}: line {lineno}: empty key")
        if key in out:
            raise ManifestError(f"{source}: line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _render(key, val) -> str:
    if isinstance(val, bool):
        val = "true" if val else "false"
    elif isinstance(val, float):  # numpy floats too: repr(np.float64(1.0)) names its type
        val = repr(float(val))
    return f"{key}={val}\n"


def format_kv_lines(values: dict) -> str:
    """Serialize a flat dict, sorted by key, floats in full round-trip form."""
    return "".join(_render(key, values[key]) for key in sorted(values))


def _parse(kind: type, raw: str, key: str, source: str):
    """raw as a value of kind: bool (a spelling in BOOL_SPELLINGS), int, float or str."""
    try:
        return BOOL_SPELLINGS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ManifestError(
            f"{source}: key {key}: cannot parse {raw!r} as {kind.__name__}") from None


def resolve(defaults: dict, overrides: dict, source: str = "<config>") -> dict:
    """Merge string overrides onto typed defaults.

    Unknown keys are rejected; every override is coerced to the type of its
    default value.
    """
    out = dict(defaults)
    for key, raw in overrides.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise ManifestError(f"{source}: unknown key {key!r} (known: {known})")
        out[key] = _parse(type(defaults[key]), raw, key, source)
    return out


def read_text(path) -> str:
    """The UTF-8 text of the file at path, newlines translated as open()
    translates them; a file that is not UTF-8 is a ManifestError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_config(path, defaults: dict) -> dict:
    overrides = parse_kv_lines(read_text(path), source=str(path))
    return resolve(defaults, overrides, source=str(path))


def write_atomic(path, chunks) -> None:
    """Write the bytes-like chunks to path.tmp, then rename it to path, so
    that path holds either its old content or all of the new."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        try:
            fh.writelines(chunks)
        except BaseException:
            os.unlink(tmp)
            raise
    os.replace(tmp, path)


def save_arrays(directory, fmt: str, header: dict, arrays: dict, check) -> None:
    """Write an array directory: format fmt, then the header's keys and the
    arrays, each in order, values rounded to float32. A save that load_arrays
    would refuse (check(header, shapes), a non-finite value) raises its
    ValueError and creates nothing; a failed write leaves the old pair."""
    check(header, {name: a.shape for name, a in arrays.items()})
    _check_finite(arrays)
    os.makedirs(directory, exist_ok=True)
    write_atomic(os.path.join(directory, BLOB_NAME),
                 (np.ascontiguousarray(a, dtype="<f4") for a in arrays.values()))
    lines = [f"format={fmt}\n"] + [_render(key, val) for key, val in header.items()]
    lines += [f"array.{name}={'x'.join(map(str, a.shape))}\n" for name, a in arrays.items()]
    write_atomic(os.path.join(directory, MANIFEST_NAME), ["".join(lines).encode()])


def load_arrays(directory, fmt: str, header_types: dict, check) -> tuple[dict, dict]:
    """Read an array directory of format fmt: the header, each key parsed as
    its type in header_types, and {name: float64 array} in manifest order.
    check(header, shapes) sees the manifest alone, before the blob is read;
    its ValueError is an error of the manifest. Every fault is a
    ManifestError that starts with the path of the file at fault and names
    the key, or the array and its first non-finite index."""
    man = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    meta = parse_kv_lines(read_text(man), source=man)
    got = meta.pop("format", None)
    if got != fmt:
        raise ManifestError(f"{man}: key format: expected {fmt}, got {got!r}")
    header, shapes = {}, {}
    for key, raw in meta.items():
        if key in header_types:
            header[key] = _parse(header_types[key], raw, key, man)
        elif key.startswith("array."):
            try:
                shape = tuple(int(d) for d in raw.split("x"))
                if min(shape) < 0:
                    raise ValueError
            except ValueError:
                raise ManifestError(f"{man}: key {key}: expected a shape such as 3x4, "
                                    f"got {raw!r}") from None
            shapes[key[len("array."):]] = shape
        else:
            raise ManifestError(f"{man}: unknown key {key!r}")
    for key in header_types:
        if key not in header:
            raise ManifestError(f"{man}: missing key {key}")
    checked(man, check, header, shapes)
    total = sum(math.prod(shape) for shape in shapes.values())
    size = os.path.getsize(blob_path)
    if size != 4 * total:
        raise ManifestError(f"{blob_path}: size {size} does not match the manifest's "
                            f"{total} float32 values ({4 * total} bytes)")
    blob = np.fromfile(blob_path, dtype="<f4")
    arrays, start = {}, 0
    for name, shape in shapes.items():
        arrays[name] = blob[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    checked(blob_path, _check_finite, arrays)
    return header, {name: a.astype(np.float64) for name, a in arrays.items()}


def checked(path, fn, *args):
    """fn(*args); its ValueError becomes a ManifestError of the file at path."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def array_fault(name: str, index, what: str) -> str:
    """The fault of the value (what) at index of the array name."""
    return f"array {name} holds {what} at index {tuple(int(i) for i in index)}"


def _check_finite(arrays: dict) -> None:
    """Raise the fault of the first value, in order, that float32 holds as inf or NaN."""
    for name, a in arrays.items():
        with np.errstate(over="ignore"):  # the overflow is the fault raised
            bad = ~np.isfinite(np.asarray(a, dtype="<f4"))
        if bad.any():
            raise ValueError(array_fault(name, np.argwhere(bad)[0], "a non-finite value"))
