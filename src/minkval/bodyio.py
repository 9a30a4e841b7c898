"""JSON wire formats read and written by the CLI: bodies and directions.

Rationals travel as decimal-integer or "p/q" strings; decimal-point input is
rejected so nothing rounds at the boundary.  Emitted polytope JSON is
canonical: vertices sorted lexicographically, rationals reduced.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .cplx import DualPolytope
from .polytope import Polytope, convex_hull
from .valuations import ValuationOp

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class FormatError(ValueError):
    """Malformed input payload; the CLI maps this to exit code 2."""


def parse_rational(x) -> Fraction:
    # bool is an int subclass, but JSON true/false is not a number
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RATIONAL_RE.match(s):
            raise FormatError(
                f"bad rational {x!r}: use an integer or 'p/q' (decimals are rejected)"
            )
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise FormatError(f"bad rational {x!r}: zero denominator") from None
    raise FormatError(f"bad rational {x!r}: expected string or integer")


def parse_point(entry, dim: int) -> tuple:
    if not isinstance(entry, (list, tuple)):
        raise FormatError(f"bad point {entry!r}: expected a coordinate array")
    pt = tuple(parse_rational(x) for x in entry)
    if len(pt) != dim:
        raise FormatError(f"point {entry!r} has dimension {len(pt)}, expected {dim}")
    return pt


def polytope_to_json(P: Polytope | DualPolytope) -> dict:
    body = P.body if isinstance(P, DualPolytope) else P
    return {
        "ambient_dim": body.ambient_dim,
        "vertices": [[str(x) for x in v] for v in body.vertices],
    }


def polytope_from_json(data) -> Polytope:
    if not isinstance(data, dict):
        raise FormatError("polytope payload must be a JSON object")
    try:
        dim = data["ambient_dim"]
        raw = data["vertices"]
    except KeyError as e:
        raise FormatError(f"polytope payload missing field {e.args[0]!r}") from None
    if not isinstance(dim, int) or not 2 <= dim <= 4:
        raise FormatError(f"bad ambient_dim {dim!r}: expected 2, 3 or 4")
    if not isinstance(raw, list) or not raw:
        raise FormatError("polytope payload needs a nonempty vertex list")
    pts = [parse_point(v, dim) for v in raw]
    return convex_hull(pts)


def read_json(path: str):
    """The JSON value in the file at path; unreadable or malformed files raise FormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise FormatError(f"{path} is not valid JSON: nested too deeply") from None


def load_polytope(path: str) -> Polytope:
    data = read_json(path)
    try:
        return polytope_from_json(data)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def write_text(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e}") from None


def save_json(path: str, payload: dict):
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def build_op(kind: str, M: Polytope | None, N: Polytope | None) -> ValuationOp:
    """Build an operator from a kind token; a rejected token raises FormatError."""
    try:
        return ValuationOp(kind, M=M, N=N)
    except ValueError as e:
        raise FormatError(str(e)) from None


def parse_inline_direction(text: str, dim: int = 4) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise FormatError(f"direction {text!r} needs {dim} comma-separated rationals")
    return tuple(parse_rational(p) for p in parts)


def dirs_from_json(data) -> list[tuple]:
    if not isinstance(data, list) or not data:
        raise FormatError("directions payload must be a nonempty JSON array")
    return [parse_point(d, 4) for d in data]
