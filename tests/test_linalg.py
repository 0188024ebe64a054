import random
from fractions import Fraction
from math import gcd

import pytest

from polybound.errors import InputError
from polybound.linalg import dot, inverse, kernel_line, nullspace, rank, solve_linear_system


def test_solve_identity():
    assert solve_linear_system([[1, 0], [0, 1]], [3, 5]) == (3, 5)


def test_solve_inconsistent():
    assert solve_linear_system([[1, 1], [1, 1]], [1, 2]) is None
    # full column rank, but the extra equation contradicts the others
    assert solve_linear_system([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None
    assert solve_linear_system([[1, 0], [0, 1], [1, 1]], [1, 1, 2]) == (1, 1)


def test_solve_diagonal():
    assert solve_linear_system([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


def test_solve_underdetermined_returns_none():
    # one equation, two unknowns: a line of solutions, so no unique one
    assert solve_linear_system([[1, 1]], [5]) is None


def test_solve_row_count_mismatch():
    with pytest.raises(InputError):
        solve_linear_system([[1, 0]], [1, 2])


def test_solutions_satisfy_system_random():
    # square, over- and underdetermined systems A x = A x0: the solution is
    # x0 exactly when A has full column rank, and there is none otherwise
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x0 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        b = [dot(row, x0) for row in a]
        x = solve_linear_system(a, b)
        if rank(a) == n:
            assert x == x0
        else:
            assert x is None


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        r = rank(a)
        kernel = nullspace(a)
        assert r + len(kernel) == n
        for v in kernel:
            assert all(dot(row, v) == 0 for row in a)


def test_inverse_swaps_rows_and_rejects_singular():
    # a zero in the leading position forces a row swap
    assert inverse([[0, 2], [4, 0]]) == [(0, Fraction(1, 4)), (Fraction(1, 2), 0)]
    with pytest.raises(InputError, match="singular"):
        inverse([[1, 2], [2, 4]])
    with pytest.raises(InputError, match="square"):
        inverse([[1, 2]])


def test_inverse_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rank(a) < n:
            with pytest.raises(InputError):
                inverse(a)
            continue
        inv = inverse(a)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[dot(row, col) for col in zip(*inv)] for row in a] == identity
        assert [[dot(row, col) for col in zip(*a)] for row in inv] == identity


def test_kernel_line_spans_the_nullspace():
    rng = random.Random(13)
    full = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        a = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(k + 1)] for _ in range(k)]
        if rng.random() < 0.2:
            a[-1] = [2 * x for x in a[0]] if k > 1 else [0, 0]  # rank below k
        v = kernel_line(a, k + 1)
        kernel = nullspace(a)
        if len(kernel) != 1:
            assert v is None
            continue
        full += 1
        (w,) = kernel
        assert gcd(*v) == 1
        # v and w span the same line: every 2x2 minor of [v; w] vanishes
        assert all(v[i] * w[j] == v[j] * w[i] for i in range(k + 1) for j in range(k + 1))
        assert any(v)
    assert full > 100


def test_kernel_line_rank_deficient_and_zero_pivot():
    assert kernel_line([[1, 2, 3], [2, 4, 6]], 3) is None
    assert kernel_line([[0, 0, 0], [0, 0, 0]], 3) is None
    assert kernel_line([[1, 2, 3]], 3) is None
    # a zero in the leading position forces a row swap
    v = kernel_line([[0, 2, 4], [3, 0, 3]], 3)
    assert v in ((1, 2, -1), (-1, -2, 1))
    # a column without a pivot is the free one
    assert kernel_line([[0, 5, 0], [0, 0, 7]], 3) in ((1, 0, 0), (-1, 0, 0))
    # the kernel of no rows in one column is the whole line
    assert kernel_line([], 1) == (1,)
