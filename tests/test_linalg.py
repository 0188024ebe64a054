import random
from fractions import Fraction
from math import gcd

from oracles import dot, reference_inverse, reference_nullspace, reference_rref
from polybound.linalg import (_echelon, integer_row, kernel_line, kernel_vector, nullspace,
                              rank, scaled_inverse)


def test_solutions_satisfy_system_random():
    # square, over- and underdetermined systems A x = A x0: the kernel line
    # of [A | -b] reads off x0 exactly when A has full column rank; below
    # it, (x0, 1) and the kernel of A span a kernel of dimension 2 or more
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x0 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        b = [dot(row, x0) for row in a]
        v = kernel_line([integer_row([*row, -bi]) for row, bi in zip(a, b)], n + 1)
        if rank(a) == n:
            assert tuple(Fraction(x, v[n]) for x in v[:n]) == x0
        else:
            assert v is None


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


def echelon_inverse(a):
    """The inverse as `scaled_inverse` reads it, for rational A: the integer
    elimination of [A | I] ends in [det*I | det*A^-1] exactly when A is
    invertible; None otherwise."""
    n = len(a)
    aug, pivots, det = _echelon([integer_row([*row, *(int(i == j) for j in range(n))])
                                 for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    assert all(row[:n] == [det * (i == j) for j in range(n)] for i, row in enumerate(aug))
    return [tuple(Fraction(x, det) for x in row[n:]) for row in aug]


def test_inverse_swaps_rows_and_rejects_singular():
    # a zero in the leading position forces a row swap
    assert echelon_inverse([[0, 2], [4, 0]]) == [(0, Fraction(1, 4)), (Fraction(1, 2), 0)]
    assert echelon_inverse([[1, 2], [2, 4]]) is None


def test_inverse_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rank(a) < n:
            assert echelon_inverse(a) is None
            continue
        inv = echelon_inverse(a)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[dot(row, col) for col in zip(*inv)] for row in a] == identity
        assert [[dot(row, col) for col in zip(*a)] for row in inv] == identity


def random_rational_matrix(rng, m, n):
    """Entries p/q with small p and q, many zeros; a row is sometimes a
    rational combination of the others (rank-deficient) and the first
    column is sometimes zero in the first row (a leading pivot needs a
    row swap) or in every row (no pivot in column 0)."""
    a = [[Fraction(rng.choice((0, rng.randint(-5, 5))), rng.randint(1, 4)) for _ in range(n)]
         for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
        a[-1] = [s * x + t * y for x, y in zip(a[0], a[m // 2])]
    lead = rng.random()
    if lead < 0.2:
        a[0][0] = Fraction(0)
    elif lead < 0.3:
        for row in a:
            row[0] = Fraction(0)
    return a


def test_rank_nullspace_inverse_match_fraction_reference():
    rng = random.Random(19)
    seen = {"deficient": 0, "swap": 0, "inverse": 0, "singular": 0}
    for _ in range(400):
        m = rng.randint(1, 5)
        n = m if rng.random() < 0.5 else rng.randint(1, 5)
        a = random_rational_matrix(rng, m, n)
        ref_rows, ref_pivots = reference_rref(a)
        assert rank(a) == len(ref_pivots)
        assert nullspace(a) == reference_nullspace(a, n)
        seen["deficient"] += len(ref_pivots) < min(m, n)
        seen["swap"] += a[0][0] == 0 and any(row[0] for row in a)
        if m != n:
            continue
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        aug_rows, aug_pivots = reference_rref([row + e for row, e in zip(a, identity)])
        if aug_pivots[:n] == list(range(n)):
            seen["inverse"] += 1
            assert echelon_inverse(a) == [tuple(row[n:]) for row in aug_rows]
        else:
            seen["singular"] += 1
            assert echelon_inverse(a) is None
    assert min(seen.values()) >= 20, seen


def test_scaled_inverse_matches_fraction_reference():
    assert scaled_inverse([[-3]]) == ([[-1]], 3)
    # a zero in the leading position forces a row swap
    assert scaled_inverse([[0, 2], [4, 0]]) == ([[0, 2], [4, 0]], 8)
    assert scaled_inverse([[1, 2], [2, 4]]) is None
    rng = random.Random(29)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-7, 7), rng.randint(-7, 7))) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.15:
            # the last row a combination of two others
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            a[-1] = [s * x + t * y for x, y in zip(a[0], a[(n - 1) // 2])]
        result = scaled_inverse(a)
        _, pivots = reference_rref(a)
        if len(pivots) < n:
            singular += 1
            assert result is None
            continue
        m, delta = result
        assert delta > 0
        assert [tuple(Fraction(x, delta) for x in row) for row in m] == reference_inverse(a)
    assert 20 <= singular <= 280, singular


def test_kernel_line_spans_the_nullspace():
    rng = random.Random(13)
    full = 0
    for _ in range(300):
        k = rng.randint(1, 6)
        a = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(k + 1)] for _ in range(k)]
        if rng.random() < 0.2:
            a[-1] = [2 * x for x in a[0]] if k > 1 else [0, 0]  # rank below k
        v = kernel_line(a, k + 1)
        kernel = reference_nullspace(a, k + 1)
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


def test_kernel_vector_is_a_positive_multiple_of_the_first_nullspace_vector():
    rng = random.Random(47)
    nullities = set()
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(1, 5)
        a = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(m)]
        v, nullity = kernel_vector(a, n)
        kernel = reference_nullspace(a, n)
        assert nullity == len(kernel)
        nullities.add(nullity)
        if not kernel:
            assert v is None
            continue
        assert gcd(*v) == 1
        w = kernel[0]
        ratios = {Fraction(x) / y for x, y in zip(v, w) if y}
        assert len(ratios) == 1 and ratios.pop() > 0
        assert all(x == 0 for x, y in zip(v, w) if not y)
    assert nullities >= {0, 1, 2, 3}
