"""The JSON file format of every payload file, and the loader contract.

Payload files hold one JSON object with sorted keys, a one-space indent and a
trailing newline, so equal payloads are equal bytes.  A loader turns a parsed
payload into a library object; whatever the payload holds, it either returns
or raises FormatError.
"""

from __future__ import annotations

import functools
import json

from .errors import FormatError


def write_json(payload, path: str) -> None:
    """Write ``payload`` to ``path``; streamed, so a large sample file is
    never held in memory a second time as one string."""
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def dumps(payload) -> str:
    """The text write_json writes for ``payload``."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


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
