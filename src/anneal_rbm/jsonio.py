"""The JSON file format of every payload file, and the loader contract.

Payload files hold one JSON object with sorted keys, a one-space indent and a
trailing newline, so equal payloads are equal bytes.  A loader turns a parsed
payload into a library object; whatever the payload holds, it either returns
or raises FormatError.

The bytes are exactly those of ``json.dump(payload, f, sort_keys=True,
indent=1)`` plus a newline, but an indent makes the stdlib run its
pure-Python encoder over every value.  The writer walks in Python only the
containers that hold containers and encodes every leaf container, every list
of number rows and every list of scalar dicts in one call of a compact C-speed
encoder whose item separator already carries the newline and the indent of
the leaf's items; see ``_chunks``.
"""

from __future__ import annotations

import functools
import json
from itertools import chain

from .errors import FormatError

_SCALARS = (str, int, float, type(None))  # bool is an int
_ROWS = frozenset((list, tuple))
_NUMBERS = frozenset((int, float))


def write_json(payload, path: str) -> None:
    """Write ``payload`` to ``path`` as the bytes of ``json.dump(payload, f,
    sort_keys=True, indent=1)`` and a newline.

    Pieces are written as they are encoded, so a large sample file is never
    held in memory a second time as one string.
    """
    with open(path, "w") as f:
        f.writelines(_chunks(payload, 0))
        f.write("\n")


def dumps(payload) -> str:
    """The text write_json writes for ``payload``."""
    return "".join(chain(_chunks(payload, 0), "\n"))


@functools.cache
def _encoder(depth: int):
    """Compact encoding whose items start on their own line at ``depth + 1``.

    Without an indent the stdlib encodes in C, and its item separator is
    ``",\n"`` plus the indent, so a container of scalars encodes to what the
    indented encoder writes for it, except for the newline and indent after
    the opening bracket and before the closing one.
    """
    return json.JSONEncoder(sort_keys=True,
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


def read_json(path: str) -> dict:
    """The JSON object in the file at ``path``; FormatError when the file is
    not UTF-8, not JSON, or holds something other than an object."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise FormatError(f"{path} is not a UTF-8 JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def loader(kind: str):
    """Decorate a ``*_from_dict`` with the loader contract.

    The payload (first argument) must be a dict, and a lookup, type, value or
    attribute error raised while reading it becomes FormatError naming
    ``kind``.  Contract errors the body raises pass through unchanged.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def load(data, *args, **kwargs):
            if not isinstance(data, dict):
                raise FormatError(
                    f"{kind} payload must be a JSON object, got {type(data).__name__}")
            try:
                return fn(data, *args, **kwargs)
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                raise FormatError(f"malformed {kind} payload: {exc!r}") from exc
        return load
    return decorate
