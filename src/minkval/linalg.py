"""Exact linear algebra over the rationals and integers.

Vectors are plain tuples of Fraction (or int), matrices are tuples of row
tuples.  Everything here is exact; nothing ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def mat_apply(A: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in A)


def _gauss_jordan(A: Sequence[Sequence]) -> tuple[Fraction, Matrix | None]:
    """(det A, A^-1) by one exact Gauss-Jordan pass on [A | I]; A^-1 is None
    when A is singular."""
    n = len(A)
    m = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(A)]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        p = m[col][col]
        d *= p
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d, tuple(tuple(row[n:]) for row in m)


def det(A: Sequence[Sequence]) -> Fraction:
    """Determinant by exact elimination (small matrices)."""
    return _gauss_jordan(A)[0]


def mat_inverse(A: Sequence[Sequence]) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises ValueError on singular input."""
    inv = _gauss_jordan(A)[1]
    if inv is None:
        raise ValueError("singular matrix")
    return inv


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)
