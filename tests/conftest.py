import pytest

from flagcodes import MatrixFq, Flag, SandwichParams, build_code, field_new, rowspace

# (p, m) of the fields every field-level test runs over.
SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


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
    """A point's normalized vector as its base-q integer, first entry most
    significant: the oracle for `linalg.points`, folded without it."""
    return sum(x * q ** (len(vector) - 1 - c) for c, x in enumerate(vector))


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
