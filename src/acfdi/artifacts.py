"""Artifact text: the one JSON writer of every artifact the package writes,
and the checked reading of input files.

`to_json(doc, sort_keys)` returns exactly `json.dumps(doc, indent=2,
sort_keys=sort_keys)`. orjson writes the document in one call, with the same
shortest round-trip digits as `repr` (Ryu where `repr` runs Gay's dtoa), and
three substitutions put each number in `repr`'s notation: orjson writes
`1e16`, `1e-7` and `0.0000123` where `repr` writes `1e+16`, `1e-07` and
`1.23e-05`. With `indent` set, every number is the last token of its line,
and an encoded string ends in a quote, so each pattern is anchored to a line
end and the two common ones take a constant replacement. A document that
orjson refuses or writes otherwise goes to `json.dumps` itself: one with a
value that is not exactly of a JSON builtin type (orjson refuses a
dataclass, a datetime, a subclass instance, a non-str key, an int beyond 64
bits and nesting deeper than 255, and writes an Enum and a UUID, which
`json.dumps` refuses), a NaN or an infinity (orjson writes `null`), or a
non-ASCII character or DEL (orjson writes them raw, `json.dumps` escapes
them). One walk over the containers checks the types and counts the Nones
against the `null` tokens, so a document with None stays on orjson's path.

Per document (best of 30, one BLAS thread, 2-core Xeon guest), the shipped
study's estimate takes 175 µs where the hand-written walker this replaced
took 640 µs, its impact report 175 µs (670) and `base.json` 72 µs (300);
the tile4 focal study's estimate 0.72 ms (2.45) and `base.json` 0.31 ms
(1.17).

Input files are read through `read_text`, and their fields through `member`,
`typed` and `known`, which raise `ConfigError` naming the file or the field at
fault; `typed_column` tests a table's column in one pass.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import chain

import orjson

# orjson then refuses, where it would write them its own way, a dataclass, a
# datetime and an instance of a subclass
_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_PASSTHROUGH_DATACLASS
            | orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS)
_DICT = frozenset({dict})
_SEQUENCES = frozenset({list, tuple})
_NESTED = _SEQUENCES | _DICT
_JSON_TYPES = _NESTED | {str, int, float, bool, type(None)}
# repr writes an exponent with a sign and at least two digits
_POSITIVE_EXPONENT = re.compile(r"e(?=\d+,?$)", re.MULTILINE)
_ONE_DIGIT_EXPONENT = re.compile(r"e-(?=\d,?$)", re.MULTILINE)
# a number in [1e-05, 1e-04), which repr writes with an exponent
_FIXED = re.compile(r"0\.0000([1-9])(\d*)(?=,?$)", re.MULTILINE)
_NULL = re.compile(rb"null,?$", re.MULTILINE)


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
    try:
        raw = orjson.dumps(doc, option=_OPTIONS | orjson.OPT_SORT_KEYS if sort_keys else _OPTIONS)
    except TypeError:  # orjson.JSONEncodeError
        raw = None
    # orjson writes non-ASCII and DEL raw, and a NaN or an infinity as a null
    # without a None
    if (raw is None or not raw.isascii() or b"\x7f" in raw
            or _nones(doc) != len(_NULL.findall(raw))):
        return json.dumps(doc, indent=2, sort_keys=sort_keys)
    text = _ONE_DIGIT_EXPONENT.sub("e-0", _POSITIVE_EXPONENT.sub("e+", raw.decode()))
    return _FIXED.sub(_exponent, text)


def _nones(doc) -> int:
    """The count of Nones in doc, or -1 when one of its values is not exactly
    of a JSON builtin type. The members of a list of dicts, or of a list of
    lists, are gathered into one list, so rows cost no Python step each."""
    count = 0
    stack = [[doc]]
    while stack:
        members = stack.pop()
        if type(members) is dict:
            members = list(members.values())
        types = set(map(type, members))
        if not types <= _JSON_TYPES:
            return -1
        if type(None) in types:
            count += members.count(None)
        if types == _DICT:
            stack.append(list(chain.from_iterable(map(dict.values, members))))
        elif types and types <= _SEQUENCES:
            stack.append(list(chain.from_iterable(members)))
        elif not types.isdisjoint(_NESTED):
            stack += [m for m in members if type(m) in _NESTED]
    return count


def _exponent(match: re.Match) -> str:
    """repr's notation of a number that orjson wrote as 0.0000d..., unless the
    match is the tail of a larger number such as 527656600000.00006."""
    start = match.start()
    if start and match.string[start - 1] not in " -":
        return match[0]
    digits = match[2]
    return f"{match[1]}.{digits}e-05" if digits else f"{match[1]}e-05"
