"""The exact elimination behind det and mat_inverse."""

from fractions import Fraction
import random

import pytest

import minkval.harness as harness
from minkval.linalg import det, mat_inverse

F = Fraction


def identity(n):
    return [[F(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def rand_matrix(rng, n):
    return [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]


def regular_matrices():
    rng = random.Random(25)
    out = []
    for n in range(1, 6):
        for k in range(6):
            A = rand_matrix(rng, n)
            if n > 1 and k % 2:
                # a zero leading pivot: the elimination must swap rows
                A[0][0] = F(0)
            if det(A) != 0:
                out.append(A)
    return out


@pytest.mark.parametrize("A", regular_matrices(), ids=lambda A: f"{len(A)}x{len(A)}")
def test_inverse_and_determinant_agree(A):
    n = len(A)
    inv = mat_inverse(A)
    assert matmul(inv, A) == identity(n) and matmul(A, inv) == identity(n)
    assert det(A) * det(inv) == 1
    if n > 1:
        swapped = [A[1], A[0], *A[2:]]
        assert det(swapped) == -det(A)


def singular_matrices():
    rng = random.Random(52)
    out = [[[F(0)]], [[F(0), F(1)], [F(0), F(3, 2)]]]
    for n in range(2, 6):
        A = rand_matrix(rng, n)
        # the last row a combination of the others
        A[-1] = [sum(F(j + 1, 3) * A[j][c] for j in range(n - 1)) for c in range(n)]
        out.append(A)
    return out


@pytest.mark.parametrize("A", singular_matrices(), ids=lambda A: f"{len(A)}x{len(A)}")
def test_singular_matrix(A):
    assert det(A) == 0
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inverse(A)


def test_vandermonde_inverse_is_exact():
    V = [[F(lam) ** j for j in range(5)] for lam in harness.LAMBDA_NODES]
    assert matmul(harness._VANDERMONDE_INV, V) == identity(5)
