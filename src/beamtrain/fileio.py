"""Atomic file writes, the versioned npz archive of every artifact file and
its schema check, and the reader and rules that check config keys."""

import dataclasses
import numbers
import os
import secrets
import sys
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a new temp file next to `path` for writing; on a clean exit it
    replaces `path`, and on an exception it is removed and `path` is left
    as it was.

    A text file's line ends are written as given on every platform (its
    `newline` is `"\\n"`). Each call gets its own temp name, so concurrent
    writers to one path do not share a temp file. The file gets the mode a
    plain `open()` gives (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    # a random name; O_EXCL makes a clash an error, never a shared file
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, newline=None if "b" in mode else "\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_npz(path: str, arrays: dict, version: int) -> None:
    """Write `format_version` and then `arrays`, in their order, as one
    compressed npz archive, atomically."""
    with atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, format_version=np.array([version]), **arrays)


# A schema maps each key of an artifact file to a kind, `f` (finite floats),
# `c` (finite complex numbers), `i` (integers) or `U` (strings), and one
# dimension per axis: a size, or a name that takes one size in every key
# that uses it. "f N 2" is finite floats of shape (N, 2). An empty array
# passes any kind.
_KINDS = {"f": ("finite floats", np.floating), "c": ("finite complex numbers", np.complexfloating),
          "i": ("integers", np.integer), "U": ("strings", np.str_)}


def load_npz(path: str, what: str, version: int, schema: dict) -> tuple[dict, dict]:
    """Every array of an archive written by `save_npz`, and the size of each
    named dimension of `schema`. An unreadable archive, another version, a
    missing key and an array that breaks its rule raise a ValueError naming
    the file (`what` is its kind), the key and what was found."""
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            data = {name: npz[name] for name in npz.files}
    except Exception as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from exc
    if not np.array_equal(data.get("format_version"), [version]):
        raise ValueError(f"unsupported {what} file version in {path!r}")
    bound = {}      # dimension -> (size, the key that set it); a size binds itself
    for key, rule in schema.items():
        if key not in data:
            raise ValueError(f"{what} file {path!r} lacks key {key!r}")
        a, (kind, *dims) = data[key], rule.split()
        for d, n in zip(dims, a.shape):
            bound.setdefault(d, (int(d) if d.isdigit() else n, key))
        ok = (a.ndim == len(dims) and all(n == bound[d][0] for d, n in zip(dims, a.shape))
              and (a.size == 0 or np.issubdtype(a.dtype, _KINDS[kind][1])))
        found = f"{a.dtype} of shape {a.shape}"
        if ok and kind in "fc" and not np.isfinite(a).all():
            at = np.unravel_index(np.argmin(np.isfinite(a)), a.shape)
            found = f"{a[at].item()} at {tuple(map(int, at))} in {found}"
        elif ok:
            continue
        named = ", ".join(f"{d} = {bound[d][0]} from {bound[d][1]}" for d in dict.fromkeys(dims)
                          if d.isalpha() and d in bound and bound[d][1] != key)
        raise ValueError(f"{what} file {path!r}: {key} must be {_KINDS[kind][0]} of shape "
                         f"({', '.join(dims)}{',' * (len(dims) == 1)}), got {found}"
                         + f" ({named})" * bool(named))
    return data, {d: n for d, (n, _) in bound.items() if d.isalpha()}


# A rule is a (test, text) pair; `check` raises the ValueError
# `<where><key> must be <text>, got <value!r>` for a value that fails the
# test. A bool never passes as a number.

def check(key: str, value, rule, where: str = "") -> None:
    if not rule[0](value):
        raise ValueError(f"{where}{key} must be {rule[1]}, got {value!r}")


def check_fields(obj, rules: dict) -> None:
    """Check each field of the dataclass `obj` by its rule in `rules`; a
    field without a rule is a KeyError."""
    for f in dataclasses.fields(obj):
        check(f.name, getattr(obj, f.name), rules[f.name])


def from_table(cls, raw, key: str, **given):
    """The dataclass `cls` built from `raw`, a table read from a file, and
    the fields in `given`. A list becomes a tuple, and a table under a
    field of dataclass type is read by this function in turn. `key` is the
    table's path, "" for the config itself. A non-table, a key of `raw`
    that is not a field of `cls` (or is given) and a ValueError of `cls`
    each raise a ValueError that begins with the key's path."""
    check(key or "config", raw, (lambda v: isinstance(v, dict), "a table of keys"))
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in given}
    prefix = key + "." if key else ""
    values = dict(given)
    for name, value in raw.items():
        if name not in fields:
            raise ValueError(f"{prefix}{name} is an unknown key; the known keys are "
                             f"{sorted(fields)}")
        values[name] = (from_table(fields[name], value, prefix + name)
                        if dataclasses.is_dataclass(fields[name])
                        else tuple(value) if isinstance(value, list) else value)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(prefix + str(exc)) from exc


def integer(low: int, high: float = float("inf")):
    """Rule: an integer in [low, high]."""
    return (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and low <= v <= high,
            f"an integer >= {low}" if high == float("inf") else f"an integer in [{low}, {high}]")


def real(interval: str):
    """Rule: a real in `interval`, written as in "(0, 1]". NaN lies in no
    interval, and an open end at inf keeps the value finite."""
    low, high = map(float, interval[1:-1].split(","))
    return (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (low < v if interval[0] == "(" else low <= v)
            and (v < high if interval[-1] == ")" else v <= high), f"in {interval}")


def listof(rule, sizes=range(sys.maxsize)):
    """Rule: a list or tuple of a length in `sizes`, each entry passing `rule`."""
    count = "" if not sizes.start else f"{sizes.start} " if len(sizes) == 1 else f"{sizes.start}+ "
    return (lambda v: isinstance(v, (list, tuple)) and len(v) in sizes and all(map(rule[0], v)),
            f"a list of {count}values, each {rule[1]}")
