"""Number parsing and canonical JSON emission.

Model files and reports carry probabilities and rewards either as JSON
numbers or as strings ("0.25", "1/3").  Exact mode keeps every quantity a
`fractions.Fraction` so downstream arithmetic stays rational; float mode
converts to machine floats.  The emitter is deterministic: dict insertion
order is preserved, floats are printed with 17 significant digits, and
Fractions serialize as ratio strings, so serializing the same document
twice yields byte-identical text.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .errors import ModelFormatError

Number = int | float | Fraction
_INDENT = 2


def parse_number(value: Any, *, rational: bool = False) -> Number:
    """Parse a scalar from a JSON document into the active arithmetic mode.

    Accepts ints, floats, and strings holding decimal ("0.25") or ratio
    ("1/3") literals.  In rational mode floats go through their shortest
    decimal form, so a JSON ``0.1`` becomes exactly 1/10; in float mode
    every literal becomes a float, integers included, so a float model
    whose numbers happen to be integral is still solved in floats.
    """
    if isinstance(value, bool):
        raise ModelFormatError(f"expected a number, got boolean {value!r}")
    if isinstance(value, int):
        return value if rational else float(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ModelFormatError(f"non-finite number {value!r}")
        return Fraction(str(value)) if rational else value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse number literal {value!r}") from exc
        if rational:
            return frac
        return float(frac)
    raise ModelFormatError(f"expected a number, got {type(value).__name__}")


def format_number(value: Number) -> int | float | str:
    """Map a number to the JSON-ready scalar used by the canonical emitter."""
    if isinstance(value, bool):
        raise ModelFormatError("booleans are not numeric fields")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return str(value)
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
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, Fraction):
        parts.append(json.dumps(str(format_number(obj))) if obj.denominator != 1 else str(int(obj)))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ModelFormatError(f"cannot serialize non-finite float {obj!r}")
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
