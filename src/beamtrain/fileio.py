"""Atomic file writes, the versioned npz archive every artifact file uses,
and the reader and rules that check config keys."""

import dataclasses
import numbers
import os
import secrets
import sys
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_write(path: str, mode: str = "w", newline: str | None = None):
    """Open a new temp file next to `path` for writing; on a clean exit it
    replaces `path`, and on an exception it is removed and `path` is left
    as it was.

    Each call gets its own temp name, so concurrent writers to one path do
    not share a temp file. The file gets the mode a plain `open()` gives
    (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    # a random name; O_EXCL makes a clash an error, never a shared file
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, newline=newline) as fh:
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


def load_npz(path: str, what: str, version: int, keys) -> dict:
    """Read every array of an archive written by `save_npz`.

    An unreadable archive, another `format_version` and the first of `keys`
    that the archive lacks each raise a ValueError naming the file; `what`
    names the kind of file in the message."""
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            data = {name: npz[name] for name in npz.files}
    except Exception as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from exc
    if not np.array_equal(data.get("format_version"), [version]):
        raise ValueError(f"unsupported {what} file version in {path!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} file {path!r} lacks key {key!r}")
    return data


# A rule is a (test, text) pair; `check` raises the ValueError
# `<key> must be <text>, got <value!r>` for a value that fails the test.
# A bool never passes as a number.

def check(key: str, value, rule) -> None:
    if not rule[0](value):
        raise ValueError(f"{key} must be {rule[1]}, got {value!r}")


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
