"""Command-line front end.

All numeric output is exact rational text except `sample`, which emits
decimal for external plotting and says so in its header.  Exit codes:
0 success, 1 verification failure, 2 malformed input or usage error,
3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import product

from .bodyio import (
    FormatError,
    build_op,
    dirs_from_json,
    load_polytope,
    parse_inline_direction,
    polytope_to_json,
    read_json,
    save_json,
    write_text,
)
from .cplx import DualPolytope
from .harness import CHECKS, homogeneous_decomposition, run_suite
from .linalg import primitive
from .mixed import mixed_volume
from .valuations import OPERATORS, SupportEvaluator, apply_valuation


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call only: a build takes about a millisecond, an
    # in-process caller may make many calls, and parsing leaves no state in
    # the parser
    parser = argparse.ArgumentParser(
        prog="minkval",
        description="Exact convex geometry: polytopes, mixed volumes, Minkowski valuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hull", help="canonicalize a vertex list into a minimal polytope")
    p.add_argument("input", help="polytope JSON file (vertices may be redundant)")

    p = sub.add_parser("volume", help="exact volume of a body")
    p.add_argument("input")

    p = sub.add_parser("support", help="exact support value in one direction")
    p.add_argument("input")
    p.add_argument("--dir", required=True, help='direction as "a,b,c,d" rationals')

    p = sub.add_parser("mixed", help="exact mixed volume of four bodies")
    p.add_argument("bodies", nargs=4, metavar="K")

    # the operator and its bodies, shared by op, decompose and sample
    op_args = argparse.ArgumentParser(add_help=False)
    op_args.add_argument("kind", help=", ".join(OPERATORS) + " or cov_of:<contravariant kind>")
    op_args.add_argument("--body", required=True)
    op_args.add_argument("--M", dest="m_file")
    op_args.add_argument("--N", dest="n_file")

    p = sub.add_parser("op", parents=[op_args], help="apply a valuation operator")
    p.add_argument("--out", help="write the output body as canonical JSON")
    p.add_argument("--dir", help="print the exact support value in this direction")

    p = sub.add_parser("decompose", parents=[op_args],
                       help="homogeneity coefficients per direction")
    p.add_argument("--dirs", required=True, help="JSON file with an array of directions")

    p = sub.add_parser("verify", help="run the property-verification suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--only", help=f"run one check: {', '.join(sorted(CHECKS))}")

    p = sub.add_parser("sample", parents=[op_args],
                       help="CSV of support values on a sphere grid (lossy)")
    p.add_argument("--sphere-grid", type=int, required=True, metavar="G")
    p.add_argument("--csv", required=True)

    return parser


def _load_op(args):
    M = _load_body(args.m_file, 2, "--M needs") if args.m_file else None
    N = _load_body(args.n_file, 2, "--N needs") if args.n_file else None
    return build_op(args.kind, M, N)


def _sphere_grid(g: int) -> list[tuple]:
    """Primitive integer directions on the boundary of the cube [-G, G]^4."""
    if g < 1:
        raise FormatError("--sphere-grid must be at least 1")
    if g > 12:
        # the rows grow as G^3: 110,784 at G = 12, a few seconds of evaluation
        raise FormatError("--sphere-grid must be at most 12")
    # a boundary point is the one multiple of its primitive direction on
    # the boundary, so no direction comes twice
    return sorted(primitive(d) for d in product(range(-g, g + 1), repeat=4)
                  if max(abs(x) for x in d) == g)


def _cmd_hull(args) -> int:
    P = load_polytope(args.input)
    print(json.dumps(polytope_to_json(P), sort_keys=True))
    return 0


def _cmd_volume(args) -> int:
    print(load_polytope(args.input).volume())
    return 0


def _cmd_support(args) -> int:
    P = load_polytope(args.input)
    xi = parse_inline_direction(args.dir, P.ambient_dim)
    print(P.support(xi))
    return 0


def _load_body(path, dim: int, needs: str):
    """The body at path, refused unless it lives in ambient dimension dim;
    the message names the file and who needs dim (needs, e.g. "operators
    need")."""
    K = load_polytope(path)
    if K.ambient_dim != dim:
        raise FormatError(f"{path}: field ambient_dim is {K.ambient_dim}, {needs} {dim}")
    return K


def _cmd_mixed(args) -> int:
    print(mixed_volume(*(_load_body(f, 4, "mixed volume needs") for f in args.bodies)))
    return 0


def _cmd_op(args) -> int:
    if not args.out and not args.dir:
        raise FormatError("op needs --out and/or --dir")
    op = _load_op(args)
    K = _load_body(args.body, 4, "operators need")
    w = parse_inline_direction(args.dir, 4) if args.dir else None
    # write --out before printing, so that a failed write leaves stdout empty
    if args.out:
        out = apply_valuation(op, K)
        payload = polytope_to_json(out)
        payload["space"] = "W_dual" if isinstance(out, DualPolytope) else "W"
        payload["operator"] = op.kind
        save_json(args.out, payload)
    if w is not None:
        print(SupportEvaluator(op, K).at(w))
    return 0


def _cmd_decompose(args) -> int:
    op = _load_op(args)
    K = _load_body(args.body, 4, "operators need")
    dirs = dirs_from_json(read_json(args.dirs))
    table = homogeneous_decomposition(op, K, dirs)
    payload = {
        "op": op.kind,
        "dirs": [[str(x) for x in d] for d in dirs],
        "coefficients": [
            [str(c) for c in row] for row in table.coefficients
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(seed=args.seed, trials=args.trials, only=args.only)
    for rep in reports:
        print(rep.to_json())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sample(args) -> int:
    op = _load_op(args)
    K = _load_body(args.body, 4, "operators need")
    grid = _sphere_grid(args.sphere_grid)
    values = SupportEvaluator(op, K).at_many(grid)
    lines = [
        "# lossy decimal output (IEEE double, 17 significant digits);"
        " all other commands are exact",
        "w1,w2,w3,w4,h",
    ]
    for d, value in zip(grid, values):
        norm = math.sqrt(sum(x * x for x in d))
        try:
            h = float(value)
        except OverflowError:
            raise FormatError(f"support value at {d} is outside the double range") from None
        row = [x / norm for x in d] + [h / norm]
        lines.append(",".join(repr(x) for x in row))
    write_text(args.csv, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "hull": _cmd_hull,
    "volume": _cmd_volume,
    "support": _cmd_support,
    "mixed": _cmd_mixed,
    "op": _cmd_op,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    # exact rationals of any size cross the CLI boundary as text; the
    # caller's limit comes back when main returns
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
