"""The decimal-string JSON convention every coverlab file follows.

Data files and reports alike are written by `encode`: integers as decimal
strings, so that bigints survive any JSON reader, and bools as "true" or
"false".  On reading, a JSON integer is accepted too, but never a bool, a
float or a string that is not plain decimal.  Every format failure --
invalid JSON, a missing field, a value of the wrong type -- raises one
FormatError naming the file and the JSON path of the offending field.  An
input rule raises a `Refusal`, which carries the path of the field it
refuses but no file; `refuse` names the file.
"""

from __future__ import annotations

import json
import re

_DECIMAL = re.compile(r"-?[0-9]+")
_CHUNK_DIGITS = 4000    # fewer than the 4300 digits str(int) writes at most
_CHUNK = 10**_CHUNK_DIGITS


class FormatError(ValueError):
    """A data file is not valid JSON or does not match its layout."""


class Refusal(ValueError):
    """An input rule refuses a value: `why` is the message, and `where` the
    JSON path of the field that holds the value."""

    def __init__(self, where: str, why: str):
        super().__init__(why)
        self.where = where


class Field:
    """A JSON value together with the file and the JSON path it came from."""

    __slots__ = ("value", "file", "path")

    def __init__(self, value, file: str, path: str = "$"):
        self.value = value
        self.file = file
        self.path = path

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self.file}: {self.path}: {message}")

    def _object(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.error(f"expected an object, got {_kind(self.value)}")
        return self.value

    def __getitem__(self, key: str) -> "Field":
        obj = self._object()
        child = Field(obj.get(key), self.file, f"{self.path}.{key}")
        if key not in obj:
            raise child.error("missing field")
        return child

    def get(self, key: str, default) -> "Field":
        """The field `key`, or `default` standing in for it when absent."""
        obj = self._object()
        return Field(obj.get(key, default), self.file, f"{self.path}.{key}")

    def list(self) -> list["Field"]:
        if not isinstance(self.value, list):
            raise self.error(f"expected a list, got {_kind(self.value)}")
        return [Field(v, self.file, f"{self.path}[{i}]")
                for i, v in enumerate(self.value)]

    def int(self) -> int:
        v = self.value
        if isinstance(v, int) and not isinstance(v, bool):
            return v
        if isinstance(v, str) and _DECIMAL.fullmatch(v):
            try:
                return int(v)
            except ValueError as exc:        # beyond the int-string digit limit
                raise self.error(str(exc)) from exc
        raise self.error(f"expected an integer as a decimal string, got {_kind(v)}")

    def str(self) -> str:
        if not isinstance(self.value, str):
            raise self.error(f"expected a string, got {_kind(self.value)}")
        return self.value


def _kind(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value)[:40]


def load(path) -> Field:
    """Parse a JSON data file; the root Field carries the file name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bad UTF-8, a huge literal, or nesting too deep to parse
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return Field(raw, str(path))


def refuse(path, call, *args):
    """call(*args), with a Refusal it raises turned into the FormatError
    that names the file `path` and the refused field."""
    try:
        return call(*args)
    except Refusal as exc:
        raise Field(None, str(path), exc.where).error(str(exc)) from None


def decimal(n: int) -> str:
    """n in decimal, however many digits it has: str(n) refuses more than
    4300, so a longer n is written _CHUNK_DIGITS digits at a time."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def encode(value):
    """Ints become decimal strings and bools "true" or "false", at any depth;
    None, floats and strings stay as they are."""
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return decimal(value)
    return value


def dump(value, path) -> None:
    """Write `value`, encoded, to a JSON data file or report file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(encode(value), fh, indent=2)
        fh.write("\n")
