"""The JSON file format of every payload file, and the loader contract.

Payload files hold one JSON object with sorted keys, a one-space indent and a
trailing newline, so equal payloads are equal bytes.  A loader turns a parsed
payload into a library object; whatever the payload holds, it either returns
or raises FormatError.

The bytes are exactly those of ``json.dump(payload, f, sort_keys=True,
indent=1, allow_nan=False)`` plus a newline, but an indent makes the stdlib
run its pure-Python encoder over every value.  The writer walks in Python
only the containers that hold containers and encodes every leaf container,
every list of number rows and every list of scalar dicts in one call of a
compact C-speed encoder whose item separator already carries the newline and
the indent of the leaf's items; see ``_chunks``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from itertools import chain

import numpy as np

from .errors import FormatError

_SCALARS = (str, int, float, type(None))  # bool is an int
_ROWS = frozenset((list, tuple))
_NUMBERS = frozenset((int, float))
_INT = frozenset((int,))  # a JSON integer; bool is not one


def write_json(payload, path: str) -> None:
    """Write ``payload`` to ``path`` as the bytes of ``json.dump(payload, f,
    sort_keys=True, indent=1, allow_nan=False)`` and a newline, or raise
    what that call raises.

    Pieces are written as they are encoded, so a large sample file is never
    held in memory a second time as one string.  They go to a temporary file
    beside ``path`` that replaces it only once complete, so a payload that
    fails part-way leaves ``path`` as it was and no temporary file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.writelines(_pieces(payload))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def dumps(payload) -> str:
    """The text write_json writes for ``payload``."""
    return "".join(_pieces(payload))


def _pieces(payload):
    """The text of ``payload`` and a newline, in pieces.  A NaN or an
    infinity raises the stdlib's own error: before Python 3.13 the message
    of the C encoder's does not name the value."""
    try:
        yield from _chunks(payload, 0)
    except ValueError:
        json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
        raise
    yield "\n"


@functools.cache
def _encoder(depth: int):
    """Compact encoding whose items start on their own line at ``depth + 1``.

    Without an indent the stdlib encodes in C, and its item separator is
    ``",\n"`` plus the indent, so a container of scalars encodes to what the
    indented encoder writes for it, except for the newline and indent after
    the opening bracket and before the closing one.
    """
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + " " * (depth + 1), ": ")).encode


def _only_scalars(values) -> bool:
    return all(issubclass(t, _SCALARS) for t in set(map(type, values)))


def _number_rows(items) -> bool:
    """A list of non-empty lists of int and float: neither a number nor the
    row separator holds a bracket, so rows can be split by text."""
    return (_ROWS.issuperset(map(type, items)) and all(items)
            and _NUMBERS.issuperset(map(type, chain.from_iterable(items))))


def _scalar_dicts(items) -> bool:
    """A list of non-empty dicts of scalars: no encoded scalar holds a raw
    newline, so dicts can be split by text."""
    return (set(map(type, items)) == {dict} and all(items)
            and _only_scalars(chain.from_iterable(d.values() for d in items)))


def _chunks(obj, depth: int):
    """The text of ``obj`` indented as at nesting ``depth``, in pieces.

    Follows the stdlib's indented encoder: tuples are lists, dict items are
    sorted by the original key and keys converted as ``json`` converts them.
    """
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        yield _encoder(depth)(obj)
        return
    outer = "\n" + " " * depth
    inner = outer + " "
    if _only_scalars(values):
        text = _encoder(depth)(obj)
        yield text[0] + inner + text[1:-1] + outer + text[-1] if obj else text
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not isinstance(key, _SCALARS):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _encoder(0)(key)  # the text json makes of the key
            yield sep + _encoder(0)(key) + ": "
            yield from _chunks(value, depth + 1)
            sep = "," + inner
        yield outer + "}"
    elif _number_rows(obj) or _scalar_dicts(obj):
        # rows of numbers or dicts of scalars in one call, their items at
        # depth + 2; the boundaries "],<newline><indent>[" or
        # "},<newline><indent>{" then move to depth + 1
        start, end = "{}" if isinstance(obj[0], dict) else "[]"
        deep = inner + " "
        body = _encoder(depth + 1)(obj)[2:-2].replace(
            end + "," + deep + start, inner + end + "," + inner + start + deep)
        yield "[" + inner + start + deep + body + inner + end + outer + "]"
    else:
        sep = "[" + inner
        for item in obj:
            yield sep
            yield from _chunks(item, depth + 1)
            sep = "," + inner
        yield outer + "]"


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def read_json(path: str) -> dict:
    """The JSON object in the file at ``path``; FormatError when the file is
    not UTF-8, not JSON (``NaN`` and ``Infinity`` included, which the stdlib
    parses, and a number such as ``1e400`` that it parses to infinity), or
    holds something other than an object."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f, parse_constant=_finite_float, parse_float=_finite_float)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"{path} is not a UTF-8 JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def integer(value) -> int:
    """``value`` if it is a JSON integer, else TypeError: ``int()`` would
    truncate a float, take a bool as 0 or 1 and parse a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# streams take their seed modulo 2**64, so a seed outside 0..SEED_MAX would
# draw what one inside draws, under a different recorded seed
SEED_MAX = 2**64 - 1


def seed(value) -> int:
    """``value`` if it is a JSON integer in 0..SEED_MAX, else TypeError or
    ValueError."""
    if not 0 <= integer(value) <= SEED_MAX:
        raise ValueError(f"a seed must lie in 0..{SEED_MAX}, got {value}")
    return value


def integers(values) -> list:
    """``values`` if it is a JSON list of integers, else TypeError; checked
    by the types of its items, so a long id list costs one C-level pass."""
    if not isinstance(values, (list, tuple)) or not _INT.issuperset(map(type, values)):
        raise TypeError(f"expected a list of integers, got {values!r:.60}")
    return values


def numbers(values) -> list:
    """``values`` as a list if each is a JSON number, else TypeError:
    ``float()`` would take a bool as 0 or 1 and parse a string."""
    values = list(values)
    if not _NUMBERS.issuperset(map(type, values)):
        raise TypeError(f"expected numbers, got {values!r:.60}")
    return values


def index_keys(keys, width: int = 1) -> list:
    """The indices in object keys of ``width`` comma-separated decimals
    each, flat in key order; ValueError unless each key reads as its indices
    print, ``str(int(k)) == k`` for each part, so ``"01"``, ``" 1"`` and
    ``"1_0"`` are refused and no two keys name one index or pair."""
    keys = list(keys)
    ints = list(map(int, ",".join(keys).split(","))) if keys else []
    printed = map(",".join(["{}"] * width).format, *(ints[i::width] for i in range(width)))
    if list(printed) != keys:
        raise ValueError(f"keys {keys!r:.60} are not {width} canonical decimal indices each")
    return ints


def integer_rows(rows, width: int) -> np.ndarray:
    """``rows``, a JSON list of lists of ``width`` integers such as edge
    pairs, as a (len, width) int64 array; TypeError for anything else and
    OverflowError for an integer outside int64."""
    if (not isinstance(rows, (list, tuple)) or not _ROWS.issuperset(map(type, rows))
            or not {width}.issuperset(map(len, rows))):
        raise TypeError(f"expected a list of {width}-integer rows, got {rows!r:.60}")
    flat = integers(list(chain.from_iterable(rows)))
    return np.array(flat, dtype=np.int64).reshape(len(rows), width)


def loader(kind: str, keys=None):
    """Decorate a ``*_from_dict`` with the loader contract.

    The payload (first argument) must be a dict, and a lookup, type, value,
    attribute or overflow error raised while reading it becomes FormatError
    naming ``kind``.  Contract errors the body raises pass through unchanged.
    With ``keys``, a top-level key outside them is a FormatError too, so a
    file of another kind or a misspelt field is refused rather than ignored.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def load(data, *args, **kwargs):
            if not isinstance(data, dict):
                raise FormatError(
                    f"{kind} payload must be a JSON object, got {type(data).__name__}")
            unknown = sorted(set(data) - set(keys)) if keys is not None else ()
            if unknown:
                raise FormatError(f"unknown {kind} keys {unknown}; "
                                  f"known keys are {sorted(keys)}")
            try:
                return fn(data, *args, **kwargs)
            except (LookupError, TypeError, ValueError, AttributeError,
                    OverflowError) as exc:
                raise FormatError(f"malformed {kind} payload: {exc!r}") from exc
        return load
    return decorate
