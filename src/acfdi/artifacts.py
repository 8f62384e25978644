"""Artifact text: the one JSON writer of every artifact the package writes,
and the checked reading of input files.

`to_json(doc, sort_keys)` returns exactly `json.dumps(doc, indent=2,
sort_keys=sort_keys)`, which runs the standard library's pure-Python
encoder: its C encoder is used only when `indent` is None. Here a container
whose members are all scalars, and a list of such containers, goes through
the C encoder in one call, with the item separator ",\\n" plus the indent of
the members, and only the containers above them are walked in Python. An
encoded string never holds a raw newline (it is written as \\n), so every
raw newline of the C encoding is a separator.

Input files are read through `read_text`, and their fields through `member`,
`typed` and `known`, which raise `ConfigError` naming the file or the field at
fault; `typed_column` tests a table's column in one pass.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

_INDENT = "  "
_CONTAINERS = (list, tuple, dict)
# the stdlib's error for an object it cannot encode
_default = json.JSONEncoder().default


class ConfigError(ValueError):
    """An input file or flag that does not hold what it should (CLI exit 2)."""


def read_text(path: str, what: str, error: type[Exception] = ConfigError) -> str:
    """The text of a UTF-8 input file. A file that is missing, is a directory,
    cannot be read or is not UTF-8 text raises error naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc.strerror or exc}") from None


_FLOAT_MAX = sys.float_info.max
NUMBER = (int, float)
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a finite number", NUMBER: "a number", bool: "true or false"}


def typed(value, kind: type, label: str):
    """value, checked to be of kind: dict, list, str, bool, int (not a bool),
    NUMBER (a float, or an int within float range, not a bool, returned as
    given) or float (a finite int or float, returned as float)."""
    valid = isinstance(value, NUMBER if kind is float else kind)
    if isinstance(value, bool) and kind is not bool:
        valid = False
    elif valid and kind is float:
        value = float(value) if abs(value) <= _FLOAT_MAX else math.inf
        valid = math.isfinite(value)
    elif valid and kind is NUMBER and isinstance(value, int):
        valid = abs(value) <= _FLOAT_MAX  # no float holds a larger int
    if not valid:
        raise ConfigError(f"{label} must be {_KIND_NAMES[kind]}")
    return value


# the value types that `typed` takes as each kind, by exact type
_TYPES = {int: {int}, str: {str}, bool: {bool}, NUMBER: {int, float}}


def typed_column(values, kind: type) -> bool:
    """Whether `typed` takes each of values as kind (int, str, bool or
    NUMBER), tested over the whole column at once. A value of a subclass
    reads as False, so a False only says that `typed` must look row by row."""
    types = set(map(type, values))
    if not types <= _TYPES[kind]:
        return False
    if kind is NUMBER and int in types:
        ints = [v for v in values if type(v) is int]
        return -_FLOAT_MAX <= min(ints) and max(ints) <= _FLOAT_MAX  # as `typed` bounds them
    return True


def known(doc: dict, keys, where: str) -> None:
    """Raise ConfigError naming the first key of doc that keys lacks."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where} field '{key}' is unknown")


def member(doc, key: str, kind: type, where: str):
    """doc[key], of kind (see `typed`), where doc is an object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in doc:
        raise ConfigError(f"{where} field '{key}' is missing")
    return typed(doc[key], kind, f"{where} field '{key}'")


def to_json(doc, sort_keys: bool = False) -> str:
    """`json.dumps(doc, indent=2, sort_keys=sort_keys)`, byte for byte."""
    if not isinstance(doc, _CONTAINERS):
        return _scalar(doc)
    out: list[str] = []
    _container(doc, 0, sort_keys, out, {})
    return "".join(out)


def _scalar(value) -> str:
    """A scalar as the stdlib writes it. Floats are tested first, as the most
    common; bool is tested before int, of which it is a subclass."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return _default(value)  # raises TypeError


def _key(key) -> str:
    """A dict key, with the separator that follows it."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float) or key is True or key is False or key is None:
        key = _scalar(key)
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        name = key.__class__.__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {name}")
    return encode_basestring_ascii(key) + ": "


@functools.cache
def _breaks(level: int) -> tuple[str, str, str]:
    """For a container opened at this level: the break before its first
    member, the one between members, and the one before its closing bracket."""
    inner = "\n" + _INDENT * (level + 1)
    return inner, "," + inner, "\n" + _INDENT * level


@functools.cache
def _flat(level: int, sort_keys: bool):
    """The C encoder's `encode` for a flat container opened at this level."""
    return json.JSONEncoder(separators=_breaks(level)[1:2] + (": ",), sort_keys=sort_keys).encode


def _any_container(types) -> bool:
    return any(issubclass(t, _CONTAINERS) for t in types)


def _rows(doc, level: int, sort_keys: bool, out: list) -> bool:
    """Append a list of non-empty flat dicts, or of non-empty flat lists, as
    one C encoding with the separators of its rows' members, and tell whether
    it was one. Every raw newline of that text is a separator, and the one
    between two rows is the only one that follows a closing bracket, so
    one replace gives the rows their own separator and indents."""
    kinds = set(map(type, doc))
    if all(issubclass(t, dict) for t in kinds):
        open_, close, members = "{", "}", dict.values
    elif all(issubclass(t, (list, tuple)) for t in kinds):
        open_, close, members = "[", "]", iter
    else:
        return False
    inner: set = set()
    for row in doc:
        if not row:
            return False
        inner.update(map(type, members(row)))
    if _any_container(inner):
        return False
    first, separator, end = _breaks(level)
    row_first, row_separator, row_end = _breaks(level + 1)
    text = _flat(level + 1, sort_keys)(doc)[2:-2]
    boundary = close + row_separator + open_
    text = text.replace(boundary, row_end + close + separator + open_ + row_first)
    out += ("[", first, open_, row_first, text, row_end, close, end, "]")
    return True


def _container(doc, level: int, sort_keys: bool, out: list, markers: dict) -> None:
    """Append the chunks of a list, tuple or dict opened at this level."""
    is_dict = isinstance(doc, dict)
    if not doc:
        out.append("{}" if is_dict else "[]")
        return
    first, separator, end = _breaks(level)
    if not _any_container(set(map(type, doc.values() if is_dict else doc))):
        text = _flat(level, sort_keys)(doc)
        out += (text[0], first, text[1:-1], end, text[-1])
        return
    if not is_dict and _rows(doc, level, sort_keys, out):
        return
    if id(doc) in markers:
        raise ValueError("Circular reference detected")
    markers[id(doc)] = doc
    out.append("{" if is_dict else "[")
    brk = first
    if is_dict:
        for key, value in sorted(doc.items()) if sort_keys else doc.items():
            out += (brk, _key(key))
            if isinstance(value, _CONTAINERS):
                _container(value, level + 1, sort_keys, out, markers)
            else:
                out.append(_scalar(value))
            brk = separator
    else:
        for value in doc:
            out.append(brk)
            if isinstance(value, _CONTAINERS):
                _container(value, level + 1, sort_keys, out, markers)
            else:
                out.append(_scalar(value))
            brk = separator
    out += (end, "}" if is_dict else "]")
    del markers[id(doc)]
