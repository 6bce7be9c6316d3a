import random

import pytest

from flagcodes.fields import field_new
from flagcodes.linalg import (
    EnumerationCapExceeded,
    LinAlgError,
    MatrixFq,
    Subspace,
    contains,
    dump_matrix,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_dim,
    nests,
    orthogonal_complement,
    parse_matrix,
    points,
    rank,
    rowspace,
    rref,
    subspace_sum,
    sum_dim,
)
from conftest import ORDERS, SMALL_ORDERS, point_int


def _random_matrix(field, rows, cols, rng):
    return MatrixFq(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def _random_invertible(field, n, rng):
    while True:
        T = _random_matrix(field, n, n, rng)
        if rank(T) == n:
            return T


def test_rref_identity(F2):
    I3 = MatrixFq.identity(F2, 3)
    R, r, pivots = rref(I3)
    assert (R, r, pivots) == (I3, 3, (0, 1, 2))


def test_rref_duplicate_rows(F2):
    A = MatrixFq.from_rows(F2, [[1, 1], [1, 1]])
    R, r, pivots = rref(A)
    assert R.row_lists() == [[1, 1], [0, 0]]
    assert (r, pivots) == (1, (0,))


@pytest.mark.parametrize("qname", ["F2", "F3", "F4"])
def test_rref_idempotent_random(qname, request):
    field = request.getfixturevalue(qname)
    rng = random.Random(7)
    for _ in range(400):
        A = _random_matrix(field, rng.randint(1, 5), rng.randint(1, 6), rng)
        R, r, _ = rref(A)
        R2, r2, _ = rref(R)
        assert R2 == R and r2 == r


def test_rowspace_zero_matrix(F2):
    sub = rowspace(MatrixFq.zero(F2, 2, 5))
    assert sub == Subspace.zero(F2, 5)
    assert sub.dim == 0


def test_rowspace_invariant_under_row_ops(F2, F3):
    rng = random.Random(11)
    for field in (F2, F3):
        for _ in range(300):
            rows = rng.randint(1, 4)
            A = _random_matrix(field, rows, 5, rng)
            T = _random_invertible(field, rows, rng)
            assert rowspace(T.matmul(A)) == rowspace(A)


def test_subspace_requires_rref(F2):
    with pytest.raises(LinAlgError):
        Subspace(MatrixFq.from_rows(F2, [[1, 1], [1, 0]]))


def test_sum_and_intersection_dims(F2):
    U = rowspace(MatrixFq.from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    assert sum_dim(U, U) == 2
    assert intersect_dim(U, U) == 2
    V = rowspace(MatrixFq.from_rows(F2, [[0, 0, 1]]))
    assert sum_dim(U, V) == 3
    assert intersect_dim(U, V) == 0


def test_ambient_mismatch(F2):
    U = Subspace.zero(F2, 3)
    V = Subspace.zero(F2, 4)
    with pytest.raises(LinAlgError):
        sum_dim(U, V)
    with pytest.raises(LinAlgError):
        contains(U, V)
    with pytest.raises(LinAlgError):
        subspace_sum(U, V)


def test_contains(F2):
    U = rowspace(MatrixFq.from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    assert contains(U, Subspace.zero(F2, 3))
    assert contains(U, rowspace(MatrixFq.from_rows(F2, [[1, 0, 0]])))
    assert not contains(U, rowspace(MatrixFq.from_rows(F2, [[0, 0, 1]])))


@pytest.mark.parametrize("p,m", ORDERS)
def test_nests_is_contains_with_a_one_dimension_step(p, m):
    # The rank rule of a flag step against `contains`: random subspaces of
    # an upper space (nested at one step down, wrong steps at the others)
    # and random subspaces of F_q^5 (mostly not inside it).
    field, n = field_new(p, m), 5
    rng = random.Random(p * 1000 + m)
    seen = set()
    for _ in range(12):
        upper = rowspace(_random_matrix(field, rng.randrange(1, n + 1), n, rng))
        d = upper.dim
        inside = [_random_matrix(field, k, d, rng).matmul(upper.basis) for k in range(d + 1)]
        outside = [_random_matrix(field, k, n, rng) for k in range(n + 1)]
        for lower in map(rowspace, inside + outside):
            step, inner = lower.dim + 1 == upper.dim, contains(upper, lower)
            assert nests(lower, upper) == (step and inner)
            seen.add((step, inner))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_nests_refuses_two_spaces_as_contains_does(F2, F3):
    # Another field, another n, and F_8 under another modulus.
    def span(field, *rows):
        return rowspace(MatrixFq.from_rows(field, rows))

    F8, F8_other = field_new(2, 3), field_new(2, 3, (1, 1, 0, 1))
    for point, line in (
        (span(F3, [1, 0, 0]), span(F2, [1, 0, 0], [0, 1, 0])),
        (span(F2, [1, 0, 0, 0]), span(F2, [1, 0, 0], [0, 1, 0])),
        (span(F8_other, [1, 0, 0]), span(F8, [1, 0, 0], [0, 1, 0])),
    ):
        with pytest.raises(LinAlgError) as by_contains:
            contains(line, point)
        with pytest.raises(LinAlgError) as by_nests:
            nests(point, line)
        assert str(by_nests.value) == str(by_contains.value)
        assert type(by_nests.value) is type(by_contains.value)


def test_modularity_all_pairs_f2_4_2(F2):
    subs = list(enumerate_subspaces(F2, 4, 2))
    assert len(subs) == 35
    for U in subs:
        for V in subs:
            assert sum_dim(U, V) + intersect_dim(U, V) == U.dim + V.dim


@pytest.mark.parametrize(
    "n,k,expected",
    [(4, 2, 35), (5, 2, 155), (5, 0, 1), (3, 3, 1), (4, 1, 15)],
)
def test_enumeration_counts_f2(F2, n, k, expected):
    subs = list(enumerate_subspaces(F2, n, k))
    assert len(subs) == expected
    assert len(set(subs)) == expected
    assert expected == gaussian_binomial(n, k, 2)


def test_enumeration_counts_f3(F3):
    assert len(list(enumerate_subspaces(F3, 4, 2))) == gaussian_binomial(4, 2, 3) == 130


def _points_inside(U):
    """U's points by brute force: the 1-dim subspaces of PG(n-1, q) that U
    contains, each folded from its normalized basis vector."""
    q = U.field.q
    pg = enumerate_subspaces(U.field, U.ambient, 1)
    return {point_int(P.basis.entries, q) for P in pg if contains(U, P)}


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_normalized_vectors_are_the_points_of_the_subspace(p, m):
    # A point is its normalized vector (leading entry 1) as a base-q
    # integer; `points(U)` lists each point U contains once, and every RREF
    # row of U, as `packed` holds it, is one of them.
    field, n = field_new(p, m), 4
    rng = random.Random(p * 10 + m)
    for k in range(n + 1):
        U = rowspace(_random_matrix(field, k, n, rng)) if k else Subspace.zero(field, n)
        found = points(U)
        assert len(found) == len(set(found)) == gaussian_binomial(U.dim, 1, field.q)
        assert set(found) == _points_inside(U)
        assert U.packed == tuple(point_int(row, field.q) for row in U.basis.row_lists())
        assert set(U.packed) <= set(found)


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_orthogonal_complement(p, m):
    field, n = field_new(p, m), 5
    rng = random.Random(p * 10 + m)
    for k in range(n + 1):
        for _ in range(4):
            U = rowspace(_random_matrix(field, k, n, rng)) if k else Subspace.zero(field, n)
            W = orthogonal_complement(U)
            assert W.dim == n - U.dim
            for u in U.basis.row_lists():
                for w in W.basis.row_lists():
                    dot = 0
                    for x, y in zip(u, w):
                        dot = field.add(dot, field.mul(x, y))
                    assert dot == 0
            assert orthogonal_complement(W) == U


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_distance_points_are_the_points_of_the_smaller_side(p, m):
    field, n = field_new(p, m), 5
    rng = random.Random(p * 10 + m)
    for k in range(n + 1):
        U = rowspace(_random_matrix(field, k, n, rng)) if k else Subspace.zero(field, n)
        side = orthogonal_complement(U) if 2 * U.dim > n else U
        expected = _points_inside(side)
        assert U.distance_points == expected
        assert len(expected) == gaussian_binomial(min(U.dim, n - U.dim), 1, field.q)


def test_enumeration_cap(F2):
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_subspaces(F2, 30, 15, max_count=100))


def test_matrix_text_round_trip(F3):
    A = MatrixFq.from_rows(F3, [[0, 1, 2], [2, 2, 0]])
    text = dump_matrix(A)
    assert text.splitlines()[0] == "3 2 3"
    assert parse_matrix(text) == A


def test_matrix_text_zero_rows(F2):
    A = MatrixFq(F2, 0, 4, ())
    assert parse_matrix(dump_matrix(A)) == A


def test_matrix_text_zero_columns(F2):
    # Rows with no entries are empty lines, which parse back as those rows.
    # A row line that is not blank, or a negative row count, is still an error.
    A = MatrixFq(F2, 3, 0, ())
    assert dump_matrix(A) == dump_matrix(MatrixFq._from_packed(F2, 0, (0, 0, 0))) == "2 3 0\n\n\n"
    assert parse_matrix(dump_matrix(A)) == A
    with pytest.raises(LinAlgError, match="^expected 3 rows, got 1$"):
        parse_matrix("2 3 0\n0\n\n")
    with pytest.raises(LinAlgError, match="^expected -3 rows, got 0$"):
        parse_matrix("2 -3 0")


def test_parse_matrix_rejects_garbage():
    with pytest.raises(LinAlgError):
        parse_matrix("not a matrix")


def test_parse_matrix_reads_any_integer_token(F3):
    # A token `dump_matrix` would not write is read by int(): same value.
    A = MatrixFq.from_rows(F3, [[0, 1, 2], [2, 2, 0]])
    assert parse_matrix("3 2 3\n00 +1 02\n2 2 -0", F3) == A


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2 2\n1 0\n0 x", "row 2 has the non-integer entry 'x'"),
        ("2 2 2\n1.0 0\n0 1", "row 1 has the non-integer entry '1.0'"),
        ("2 2 2\n1 0\n0 2", "entry out of field range"),
        ("2 2 2\n1 0\n-1 1", "entry out of field range"),
        ("2 2 2\n1 0\n0 1 1", "row '0 1 1' has wrong length"),
    ],
    ids=["x", "1.0", "2", "-1", "length"],
)
def test_parse_matrix_names_a_bad_entry(F2, text, message):
    with pytest.raises(LinAlgError) as info:
        parse_matrix(text, F2)
    assert str(info.value) == message
