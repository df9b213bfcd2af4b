"""Number parsing, canonical JSON emission and the result base class.

Model files and reports carry probabilities and rewards either as JSON
numbers or as strings ("0.25", "1/3").  Exact mode keeps every quantity a
`fractions.Fraction` so downstream arithmetic stays rational; float mode
converts to machine floats.  The emitter is deterministic: dict insertion
order is preserved, floats are printed with 17 significant digits, and
Fractions serialize as ratio strings, so serializing the same document
twice yields byte-identical text.

Result types (certificate reports, sampled values, traces, stopping rules,
validation violations) inherit `Record`, whose ``to_obj`` writes their
dataclass fields in declaration order; the CLI prefixes its own keys
(``"schema"``, ``"kind"``, ...) and emits the rest as the record gives it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Any

from .errors import ModelFormatError, PreconditionError

Number = int | float | Fraction
# the exponent ending a decimal literal, as ``Fraction(str)`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_INDENT = 2


def parse_number(value: Any, *, rational: bool = False) -> Number:
    """Parse a scalar from a JSON document into the active arithmetic mode.

    Accepts ints, floats, and strings holding decimal ("0.25") or ratio
    ("1/3") literals.  In rational mode floats go through their shortest
    decimal form, so a JSON ``0.1`` becomes exactly 1/10; in float mode
    every literal becomes a float, integers included, so a float model
    whose numbers happen to be integral is still solved in floats, and a
    literal beyond float range is refused as non-finite.

    Model documents hold mostly integer and ratio literals, so those skip
    ``Fraction(str)``'s regular expression: digits (``str.isdecimal``: any
    Unicode ``Nd`` digit, as ``Fraction``'s ``\\d`` accepts) after at most one
    leading ``-``, optionally followed by ``/`` and unsigned digits, are read
    with ``int``.  This gives what ``Fraction(str)`` gives: exact mode builds
    the ``Fraction`` from the two integers, which normalizes them alike, and
    float mode divides them, since integer true division is correctly rounded
    as ``float(Fraction)`` is, and a zero denominator gets the same refusal;
    a numeral past ``int``'s digit limit is read by ``read_int``, so every
    number ``exact_text`` writes reads back.  Every other string (decimals,
    exponents, ``+``, whitespace, underscores, malformed text) still goes
    through ``Fraction(str)``, which builds 10**exponent: an exponent whose
    power would have more digits than that limit allows is refused with the
    same message before the power is built.
    """
    kind = type(value)
    if kind is str:
        num, slash, den = value.partition("/")
        try:
            if (num[1:] if num[:1] == "-" else num).isdecimal() and (den.isdecimal() or not slash):
                try:
                    n, d = int(num), int(den or 1)
                except ValueError:  # past the digit limit
                    n, d = read_int(num), read_int(den or "1")
                return Fraction(n, d) if rational else n / d
            exponent = _EXPONENT.search(value)
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent[1])) >= limit:
                raise ValueError("exponent beyond the int digit limit")
            number: int | Fraction = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse number literal {value!r}") from exc
        except OverflowError as exc:
            raise ModelFormatError(f"non-finite number {value!r} in float mode") from exc
    elif kind is int:
        number = value
    elif kind is float:
        if not math.isfinite(value):
            raise ModelFormatError(f"non-finite number {value!r}")
        return Fraction(str(value)) if rational else value
    elif kind is bool:
        raise ModelFormatError(f"expected a number, got boolean {value!r}")
    else:
        raise ModelFormatError(f"expected a number, got {kind.__name__}")
    if rational:
        return number
    try:
        return float(number)
    except OverflowError as exc:
        raise ModelFormatError(f"non-finite number {long_repr(value)} in float mode") from exc


def read_int(digits: str) -> int:
    """``int`` of an optionally signed numeral at any length, the inverse of
    ``exact_text``: a numeral past the interpreter's digit limit is split in
    half, each part read alike."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not limit or len(digits) <= limit:  # malformed
            raise
    k = len(digits) // 2
    low = read_int(digits[-k:])
    return read_int(digits[:-k]) * 10**k + (-low if digits[0] == "-" else low)


def exact_text(value: int | Fraction) -> str:
    """``str`` of an int or a Fraction, at any length: an int past the
    interpreter's digit limit (left as it is, for ``parse_number``) is split
    at a power of ten near half its digits, each part written alike."""
    try:
        return str(value)
    except ValueError:  # more digits than the limit allows
        pass
    if isinstance(value, Fraction):
        den = value.denominator
        return exact_text(value.numerator) + ("" if den == 1 else "/" + exact_text(den))
    if value < 0:
        return "-" + exact_text(-value)
    k = value.bit_length() * 3 // 20  # 3/10 < log10(2), so 10**k has under half the digits
    high, low = divmod(value, 10**k)
    return exact_text(high) + exact_text(low).zfill(k)


def long_repr(value: Any) -> str:
    """``repr(value)``, for messages; an int or a Fraction that the digit
    limit stops ``repr`` from writing gets the same form by ``exact_text``."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, Fraction):
            return f"Fraction({exact_text(value.numerator)}, {exact_text(value.denominator)})"
        return exact_text(value)


def format_number(value: Number) -> int | float | str:
    """Map a number to the JSON-ready scalar used by the canonical emitter."""
    if isinstance(value, bool):
        raise ModelFormatError("booleans are not numeric fields")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else exact_text(value)
    return value


class Record:
    """Base of the frozen dataclasses whose fields are a JSON document.

    ``to_obj`` maps each field to its key in declaration order, the field
    ``passed`` to ``"pass"``; nested records and tuples are converted
    alike, and a frozenset becomes a sorted list.
    """

    __slots__ = ()

    def to_obj(self) -> dict:
        return {
            "pass" if name == "passed" else name: _plain(getattr(self, name))
            for name in self.__dataclass_fields__  # type: ignore[attr-defined]
        }


def _plain(value: Any) -> Any:
    if isinstance(value, Record):
        return value.to_obj()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _emit(obj: Any, parts: list[str], level: int) -> None:
    pad = " " * (_INDENT * level)
    pad_in = " " * (_INDENT * (level + 1))
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, Fraction)):  # a whole Fraction prints as its int
        text = exact_text(obj)
        parts.append(text if obj.denominator == 1 else f'"{text}"')
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            # parsing refuses such input, so a computed value left float range
            raise PreconditionError(f"cannot serialize {obj!r}: a value beyond float range")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            parts.append(pad_in + json.dumps(str(key)) + ": ")
            _emit(val, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, val in enumerate(obj):
            parts.append(pad_in)
            _emit(val, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise ModelFormatError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    """Serialize to deterministic JSON text, indented by ``_INDENT`` spaces
    per level (trailing newline included)."""
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)
