import math

import pytest

from flagcodes import MatrixFq, Flag, SandwichParams, build_code, field_new, rowspace
from flagcodes.construction import flag_from_generator
from flagcodes.linalg import rank

# (p, m) of the fields every field-level test runs over.
SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]

# Every small field, F_16, and a field of the largest supported order.
ORDERS = SMALL_ORDERS + [(2, 4), (2, 8)]


def oracle_rref_rows(field, rows):
    """Gauss-Jordan elimination with scalar field operations."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
    return rows, r, tuple(pivots)


@pytest.fixture(scope="session")
def F2():
    return field_new(2)


@pytest.fixture(scope="session")
def F3():
    return field_new(3)


@pytest.fixture(scope="session")
def F4():
    return field_new(2, 2)


def _code(q, k1, r):
    field = field_new(2) if q == 2 else field_new(3)
    return build_code(SandwichParams(field, k1, r))


@pytest.fixture(scope="session")
def code_220():
    return _code(2, 2, 0)


@pytest.fixture(scope="session")
def code_221():
    return _code(2, 2, 1)


@pytest.fixture(scope="session")
def code_232():
    return _code(2, 3, 2)


@pytest.fixture(scope="session")
def code_321():
    return _code(3, 2, 1)


@pytest.fixture(scope="session")
def code_f4_21():
    return build_code(SandwichParams(field_new(2, 2), 2, 1))


def point_int(vector, q):
    """A point's normalized vector as the integer `linalg.points` lists, folded
    without it: each entry's base-p digits d_0 .. d_{m-1} (q = p^m) sit in
    slots of s bits, s = 1 for p = 2 and bit_length(p - 1) + 1 for odd p,
    d_j at slot j of the entry, and the first entry is most significant."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = round(math.log(q, p))
    s = 1 if p == 2 else (p - 1).bit_length() + 1
    x = 0
    for a in vector:
        for j in reversed(range(m)):
            x = x << s | (a // p**j) % p
    return x


def _unit(n, *positions):
    v = [0] * n
    for pos in positions:
        v[pos - 1] ^= 1
    return v


def three_flags_f2_7():
    """Three handcrafted full flags in F_2^7 with pairwise distances
    (18, 18, 24): a code at deficit l = (n-1)/2 whose extreme projected
    codes collapse to cardinality 2."""
    field = field_new(2)
    e = lambda *pos: _unit(7, *pos)

    def flag(levels):
        return Flag(
            rowspace(MatrixFq.from_rows(field, vectors)) for vectors in levels
        )

    f1 = flag(
        [[e(1)], [e(1), e(2)], [e(1), e(2), e(3)], [e(1), e(2), e(3), e(4)],
         [e(1), e(2), e(3), e(4), e(5)], [e(1), e(2), e(3), e(4), e(5), e(6)]]
    )
    f2 = flag(
        [[e(1)], [e(1), e(5)], [e(1), e(5), e(6)], [e(1), e(5), e(6), e(7)],
         [e(1), e(4), e(5), e(6), e(7)], [e(1), e(3), e(4), e(5), e(6), e(7)]]
    )
    f3 = flag(
        [[e(6, 7)], [e(6, 7), e(3, 5)], [e(6, 7), e(3, 5), e(3, 4, 7)],
         [e(1), e(6, 7), e(3, 5), e(3, 4, 7)],
         [e(1), e(3), e(5), e(4, 7), e(6, 7)],
         [e(1), e(3), e(4), e(5), e(6), e(7)]]
    )
    return [f1, f2, f3]


@pytest.fixture(scope="session")
def example_flags():
    return three_flags_f2_7()


# -- seeded flag lists with shared subspaces ------------------------------------


def _random_invertible(field, n, rng, allowed=lambda r, c: True):
    """A uniformly random invertible n x n matrix with zeros wherever
    `allowed(row, col)` is false."""
    while True:
        entries = [
            rng.randrange(field.q) if allowed(r, c) else 0
            for r in range(n)
            for c in range(n)
        ]
        A = MatrixFq(field, n, n, entries)
        if rank(A) == n:
            return A


def shared_level_flags(field, n, count, levels, rng):
    """Up to `count` distinct flags T·G of F_q^n for one random generator G.

    Each T is random, invertible and block lower triangular with a block
    boundary after each level of a random subset of `levels`: the first b
    rows of T·G span the first b rows of G at each boundary b, so the flag
    keeps G's V_b there and its other levels are random.
    """
    G = _random_invertible(field, n, rng)
    flags = []
    for _ in range(count):
        bounds = [b for b in levels if rng.random() < 0.5] + [n]
        end = [next(b for b in bounds if b > r) for r in range(n)]
        T = _random_invertible(field, n, rng, lambda r, c: c < end[r])
        flags.append(flag_from_generator(T.matmul(G)))
    return list(dict.fromkeys(flags))


def perturbed_flags(field, n, count, rng, steps=2):
    """Up to `count` distinct flags of F_q^n, each from one random generator
    after `steps` random row operations row_i += c row_j: most of their
    subspaces equal or meet those of the others."""
    G = _random_invertible(field, n, rng).row_lists()
    flags = []
    for _ in range(count):
        rows = [list(r) for r in G]
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(1, field.q)
            rows[i] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])]
        flags.append(flag_from_generator(MatrixFq.from_rows(field, rows)))
    return list(dict.fromkeys(flags))
