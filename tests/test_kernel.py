"""The table-driven kernel of linalg against scalar-method oracles.

The oracles are the textbook algorithms written with the field's scalar
methods only (`add`, `sub`, `mul`, `inv`), never its lookup tables.
"""

import copy
import itertools
import pickle
import random

import pytest

from flagcodes.construction import (
    ConstructionError,
    companion_matrix,
    find_primitive_poly,
    flag_from_generator,
)
from flagcodes.decoder import ReceivedSequence, _row_filter, accumulate, random_subspace_of
from flagcodes.fields import MAX_ORDER, FieldError, field_new
from flagcodes.linalg import (
    LinAlgError,
    MatrixFq,
    Subspace,
    _digits,
    _F2Space,
    _SlotSpace,
    _space,
    _text_digits,
    _token_row,
    _XorSpace,
    contains,
    dump_matrix,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_dim,
    orthogonal_complement,
    parse_matrices,
    parse_matrix,
    points,
    prefix_rowspaces,
    rank,
    rowspace,
    rref,
    subspace_from_draw,
    subspace_sum,
    sum_dim,
)
from conftest import ORDERS, oracle_rref_rows, perturbed_flags, point_int, shared_level_flags


def oracle_matmul(A, B):
    """Triple-loop product with scalar field operations."""
    F = A.field
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = 0
            for k in range(A.cols):
                acc = F.add(acc, F.mul(A.entries[i * A.cols + k], B.entries[k * B.cols + j]))
            out.append(acc)
    return out


def _random_matrix(field, rows, cols, rng):
    return MatrixFq(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def _rank_deficient(field, rows, cols, rng):
    """rows x cols of rank at most 2: random combinations of two rows."""
    base = _random_matrix(field, 2, cols, rng)
    coeffs = _random_matrix(field, rows, 2, rng)
    return coeffs.matmul(base)


def _shapes(field, rng):
    """0-row, all-zero, tall, wide, square and rank-deficient matrices."""
    yield MatrixFq(field, 0, 5, ())
    yield MatrixFq.zero(field, 3, 4)
    for rows, cols in [(7, 3), (3, 7), (5, 5), (1, 6), (6, 1)]:
        yield _random_matrix(field, rows, cols, rng)
    yield _rank_deficient(field, 5, 6, rng)
    yield _rank_deficient(field, 6, 4, rng)


@pytest.fixture(scope="module", params=ORDERS, ids=lambda pm: f"F{pm[0] ** pm[1]}")
def field(request):
    return field_new(*request.param)


def test_orders_include_the_largest():
    assert max(p**m for p, m in ORDERS) == MAX_ORDER


def oracle_points(field, rows):
    """The normalised combinations of RREF rows r_j: sum_j c_j r_j whose
    first nonzero c_t is 1, formed with the scalar methods and folded by
    `point_int`."""
    q = field.q
    scaled = [[[field.mul(c, x) for x in row] for c in range(q)] for row in rows]
    found = []
    for t in range(len(rows)):
        for tail in itertools.product(range(q), repeat=len(rows) - t - 1):
            v = rows[t]
            for c, multiples in zip(tail, scaled[t + 1 :]):
                v = [field.add(a, b) for a, b in zip(v, multiples[c])]
            assert next(x for x in v if x) == 1
            found.append(point_int(v, q))
    return found


# Every field of characteristic 2 in ORDERS, and F_16 by x^4 + x^3 + 1.
CHAR2_FIELDS = [(p, m, None) for p, m in ORDERS if p == 2] + [(2, 4, (1, 0, 0, 1, 1))]


@pytest.mark.parametrize("p,m,modulus", CHAR2_FIELDS, ids=str)
def test_characteristic_2_points_match_oracle(p, m, modulus):
    # points(U) forms the span by XOR of each row's scalar multiples, also
    # on the same subspace built from its packed rows, whose `rows` come
    # from the chunk tables and whose `multiples` are built afresh.
    field, n = field_new(p, m, modulus), 5
    rng = random.Random(field.q)
    for k in (2, 3):
        U = Subspace.zero(field, n)
        while U.dim != k:
            U = rowspace(_random_matrix(field, k, n, rng))
        want = set(oracle_points(field, [list(r) for r in U.rows]))
        for S in (U, Subspace._from_packed(U.space, U.packed, U.pivots)):
            found = points(S)
            assert len(found) == len(set(found)) == gaussian_binomial(k, 1, field.q)
            assert set(found) == want


@pytest.mark.parametrize("p,m,modulus", CHAR2_FIELDS, ids=str)
def test_rows_from_packed_integers_are_the_rref_rows(p, m, modulus):
    # Ambients of one chunk, several chunks and a partial top chunk, every
    # dimension from 0 up: the packed constructor gives back the rows, the
    # pivots and the same subspace, and passes the RREF check.
    field = field_new(p, m, modulus)
    rng = random.Random(field.q + 13)
    for n in (1, 2, 3, 7, 8, 9, 16, 17):
        for k in range(min(n, 4) + 1):
            U = rowspace(_random_matrix(field, k, n, rng))
            S = Subspace._from_packed(U.space, U.packed, U.pivots)
            assert (S, S.rows, S.pivots, S.dim) == (U, U.rows, U.pivots, U.dim)
            assert Subspace._check_rref(S.rows) == S.pivots


def test_each_field_gets_its_kernel():
    # F_2 alone gets the single-bit kernel; F_4 and F_8 by x^3 + x + 1 keep
    # the characteristic-2 one, and odd p the digit-slot one.
    assert type(_space(field_new(2), 5)) is _F2Space
    assert type(_space(field_new(2, 2), 5)) is _XorSpace
    assert type(_space(field_new(2, 3, (1, 1, 0, 1)), 5)) is _XorSpace
    assert type(_space(field_new(3), 5)) is _SlotSpace


def _f2_batches(n, rng):
    """Seeded batches of packed rows of F_2^n: random rows, some of them
    with zero rows and repeats mixed in, rows in the span of two rows, and
    the RREF rows of the random batch, which are already reduced."""
    randoms = [rng.getrandbits(n) for _ in range(n + 2)]
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    spanned = [a, b, a ^ b, a, 0, b, a ^ b]
    mixed = randoms[:4] + [0, randoms[1], 0, randoms[0] ^ randoms[2], randoms[-1]]
    rng.shuffle(mixed)
    reduced, pivots = [], []
    _XorSpace(field_new(2), n).insert(reduced, pivots, randoms)
    return [[], randoms, spanned, mixed, reduced, reduced[::-1]]


@pytest.mark.parametrize("n", [*range(1, 10), 64, 65, 130])
def test_f2_kernel_matches_the_characteristic_2_kernel(n):
    # insert, echelon and reduce of `_F2Space` against `_XorSpace` over
    # F_2, into the empty rows and into the RREF of every other batch: the
    # same rows and pivots in place, the same count added, and the same
    # echelon rows and their RREF, of the batch alone and stacked under the
    # RREF, as `sum_dim` ranks it.
    f2, xor = _space(field_new(2), n), _XorSpace(field_new(2), n)
    assert type(f2) is _F2Space
    rng = random.Random(f"f2:{n}")
    batches = _f2_batches(n, rng)
    for start, batch in itertools.product(batches, repeat=2):
        rows, pivots = [], []
        xor.insert(rows, pivots, start)
        for stacked in (rows + batch, batch):
            echelon = f2.echelon(stacked)
            assert sorted(echelon.values()) == sorted(xor.echelon(stacked).values())
            assert f2.reduce(echelon) == xor.reduce(xor.echelon(stacked))
        want_rows, want_pivots = list(rows), list(pivots)
        want = xor.insert(want_rows, want_pivots, batch)
        assert f2.insert(rows, pivots, batch) == want
        assert (rows, pivots) == (want_rows, want_pivots)


def test_axpy_add_and_scale_match_the_field_tables(field):
    # Entry by entry against sub_table and mul_table, for every c in F_q
    # (0, 1 and p - 1 included): axpy(v, u, c) = v - c·u with c in slot
    # form, add(v, u) = v + u and scale(u, c) = c·u. The rows mix random
    # entries with all-zero, all-one and all-(q - 1) rows, over one chunk
    # and several.
    sub, mul, neg1 = field.sub_table, field.mul_table, field.p - 1
    rng = random.Random(field.q + 35)
    for n in (1, 5, 17):
        space = _space(field, n)
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(4)]
        rows += [[0] * n, [1] * n, [neg1] * n, [field.q - 1] * n]
        for v, u in itertools.product(rows, repeat=2):
            pv, pu = space.fold(v), space.fold(u)
            assert space.unfold(space.add(pv, pu)) == tuple(
                sub[x][mul[neg1][y]] for x, y in zip(v, u)
            )
            for c in range(field.q):
                axpy = space.axpy(pv, pu, space.slot[c])
                assert space.unfold(axpy) == tuple(sub[x][mul[c][y]] for x, y in zip(v, u))
                assert space.unfold(space.scale(pu, c)) == tuple(mul[c][y] for y in u)


def test_multiples_are_the_scalar_multiples_of_each_row(field):
    # Row i's multiple by c, folded to base q with the scalar `mul`.
    rng = random.Random(field.q + 12)
    n = 6
    for k in range(n + 1):
        U = rowspace(_random_matrix(field, k, n, rng))
        want = tuple(
            tuple(point_int([field.mul(c, x) for x in row], field.q) for c in range(field.q))
            for row in U.rows
        )
        assert tuple(map(U.space.multiples, U.packed)) == want


# Every field of ORDERS and F_8 by x^3 + x + 1.
HARNESS_FIELDS = [(p, m, None) for p, m in ORDERS] + [(2, 3, (1, 1, 0, 1))]


def _field_id(spec):
    p, m, modulus = spec
    return f"F{p ** m}" + ("" if modulus is None else "-" + "".join(map(str, modulus)))


def _both_ways(A):
    """A built afresh from its entries and from its packed rows, each
    matrix holding that one form until a reader unfolds or folds it."""
    return MatrixFq(A.field, A.rows, A.cols, A.entries), MatrixFq._from_packed(
        A.space, A.packed
    )


def _readings(M, other):
    """What every reader of M gives, slices and stacks with `other` too."""
    rows = M.rows
    parts = [M.first_rows(t) for t in range(rows + 1)] + [M.last_rows(t) for t in range(rows + 1)]
    parts += [M.stack(other), other.stack(M)]
    return (
        M.rows, M.cols, [M.row(i) for i in range(rows)], M.row_lists(), M.is_zero(),
        dump_matrix(M), M.entries, M.packed, [(S.rows, S.row_lists(), S.packed) for S in parts],
    )


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_rref_rank_rowspace_match_oracle(spec):
    # Each input also built from its packed rows: the two agree on every
    # reader and under `==` and `hash`, and give the same rref, rank and
    # rowspace. The rref, built from packed rows, equals the oracle's rows
    # built from entries.
    field = field_new(*spec)
    rng = random.Random(field.q)
    for A in _shapes(field, rng):
        for way in (0, 1):  # stacked with a matrix built from entries, then packed rows
            E, P = _both_ways(A)
            assert _readings(E, _both_ways(A)[way]) == _readings(P, _both_ways(A)[way])
        E, P = _both_ways(A)
        assert E == P and P == E and hash(E) == hash(P)
        rows, r, pivots = oracle_rref_rows(field, A.row_lists())
        want = MatrixFq(field, A.rows, A.cols, itertools.chain.from_iterable(rows))
        for M in _both_ways(A):
            R, rank_, pivots_ = rref(M)
            assert R.row_lists() == rows
            assert R == want and hash(R) == hash(want)
            assert (rank_, pivots_) == (r, pivots)
            assert rank(M) == r
            assert rowspace(M).basis.row_lists() == rows[:r]


def _deficient_rows(field, rng):
    """Row lists of low rank: a row repeated, the row scaled by every
    nonzero scalar, and lists led by a zero row or by a row that is zero in
    the first column, so that a column's pivot must be swapped up."""
    row = [rng.randrange(field.q) for _ in range(5)]
    row[0] = rng.randrange(1, field.q)
    other = [0] + [rng.randrange(field.q) for _ in range(4)]
    yield [row, row, row]
    yield [[field.mul(c, x) for x in row] for c in range(1, field.q)]
    yield [[0] * 5, row, [0] * 5, other, [field.mul(field.q - 1, x) for x in row]]
    yield [other, [field.add(x, y) for x, y in zip(row, other)], row]
    yield [[0] * 4, [0] * 4]


def test_rank_rows_matches_rref_rows(field):
    # Forward elimination counts the pivots the Gauss-Jordan oracle finds,
    # on random, rank-deficient, zero, 0-row and 1-row inputs: by `rank` on
    # a matrix of entries and on one of packed rows only.
    rng = random.Random(field.q + 8)
    cases = [A.row_lists() for A in _shapes(field, rng)]
    cases += list(_deficient_rows(field, rng))
    cases += [[], [[0] * 4], [[0, 0, rng.randrange(1, field.q)]]]
    cases += [[[rng.randrange(field.q) for _ in range(4)] for _ in range(k)] for k in range(6)]
    for rows in cases:
        want = oracle_rref_rows(field, rows)[1]
        assert rank(MatrixFq.from_rows(field, rows)) == want
        cols = len(rows[0]) if rows else 0
        space = _space(field, cols)
        assert rank(MatrixFq._from_packed(space, tuple(map(space.fold, rows)))) == want


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_reduce_of_the_echelon_rows_is_the_oracle_rref(spec):
    # `_Space.echelon` leaves one row per lead, each led by a 1, as many as
    # the oracle's rank; `_Space.reduce` back-substitutes them into the
    # oracle's RREF rows and pivots. Inputs: 0-row, zero, rank-deficient
    # and full-rank (square, wide and tall) matrices.
    field = field_new(*spec)
    rng = random.Random(field.q + 36)
    matrices = list(_shapes(field, rng))
    matrices += [MatrixFq.from_rows(field, rows) for rows in _deficient_rows(field, rng)]
    matrices += [_full_rank(field, n, rng, rows) for n, rows in [(1, 1), (4, 4), (7, 3)]]
    matrices.append(_full_rank(field, 3, rng).stack(_full_rank(field, 3, rng)))
    for M in matrices:
        space = M.space
        want_rows, r, want_pivots = oracle_rref_rows(field, M.row_lists())
        echelon = space.echelon(M.packed)
        assert len(echelon) == r
        for row in echelon.values():
            assert next(x for x in space.unfold(row) if x) == 1
        packed, pivots = space.reduce(echelon)
        assert [list(space.unfold(x)) for x in packed] == want_rows[:r]
        assert pivots == want_pivots


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_rank_keeps_the_echelon_rows_and_changes_nothing_else(spec):
    # `rank` eliminates once and keeps A's echelon rows: a second call gives
    # the same rank from the same rows, and A's `==`, `hash`, `entries` and
    # `dump_matrix` are those of a twin of A that was never ranked.
    field = field_new(*spec)
    rng = random.Random(field.q + 37)
    for A in _shapes(field, rng):
        for M in _both_ways(A):
            twin = MatrixFq._from_packed(M.space, M.packed)
            r = rank(M)
            echelon = M.echelon
            assert rank(M) == r == len(echelon) and M.echelon is echelon
            assert M == twin and twin == M and hash(M) == hash(twin)
            assert M.entries == twin.entries == A.entries
            assert dump_matrix(M) == dump_matrix(twin)


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_a_pickled_or_copied_matrix_keeps_its_space(spec):
    # Matrices compare their spaces by identity, so a pickle or a deep copy
    # must come back on the one `_space(field, n)`, equal to the original;
    # a subspace, which holds the space too, round-trips the same way.
    field = field_new(*spec)
    A = _full_rank(field, 4, random.Random(field.q + 38), 3)
    U = rowspace(A)  # A was ranked, so its echelon rows travel with it
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        B, V = clone(A), clone(U)
        assert B.space is A.space and B == A and rank(B) == 3
        assert V.space is U.space and V == U


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_parse_matrix_folds_each_row_into_its_packed_integer(spec):
    # The text of every shape parses to a matrix that holds only packed
    # rows: the folds of the rows, unfolding to the same entries, and
    # dumping back to the same text byte for byte.
    field = field_new(*spec)
    rng = random.Random(field.q + 14)
    for A in _shapes(field, rng):
        text = dump_matrix(A)
        M = parse_matrix(text, field)
        assert M._entries is None
        assert M.packed == tuple(map(_space(field, A.cols).fold, A.row_lists()))
        assert (M.rows, M.cols, M.entries) == (A.rows, A.cols, A.entries)
        assert dump_matrix(parse_matrix(text, field)) == text


def _token_loop(text, field):
    """The packed rows of matrix text with every row read by `_token_row`,
    the token loop `parse_matrix` falls back to; its header is trusted."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    ncols = int(lines[0].split()[2])
    tokens = {str(a): x for a, x in enumerate(_digits(field).slot)}
    packed = []
    for i, ln in enumerate(lines[1:], start=1):
        row = ln.split()
        if len(row) != ncols:
            raise LinAlgError(f"row {ln!r} has wrong length")
        packed.append(_token_row(row, i, tokens, _digits(field).e, field.q))
    return tuple(packed)


def _parsed_or_error(parse, text, field):
    try:
        return parse(text, field)
    except LinAlgError as exc:
        return f"error: {exc}"


# Every field of ORDERS, F_9 among them, and F_16 by x^4 + x^3 + 1, whose
# tokens 10 .. 15 take two characters and so always the token loop.
TEXT_FIELDS = [(p, m, None) for p, m in ORDERS] + [(2, 4, (1, 0, 0, 1, 1))]


@pytest.mark.parametrize("spec", TEXT_FIELDS, ids=_field_id)
def test_parse_fast_path_matches_the_token_loop(spec):
    # Seeded matrices round-trip through `dump_matrix`, their rows the folds
    # of the tokens read by `int()`. Then one token of row 2, or the text's
    # layout, is rewritten: `parse_matrix` gives the token loop's rows or its
    # exact error text, and a rewritten row that repeats gives the same rows.
    field = field_new(*spec)
    rng = random.Random(f"text:{field.spec()}")
    A = _random_matrix(field, 4, 5, rng)
    for M in list(_shapes(field, rng)) + [A]:
        text = dump_matrix(M)
        assert parse_matrix(text, field).packed == M.packed
        if M.rows and M.cols:
            space = _space(field, M.cols)
            want = tuple(space.fold(map(int, ln.split())) for ln in text.split("\n")[1:])
            assert _token_loop(text, field) == want == M.packed
    lines = dump_matrix(A).split("\n")
    tokens = ["01", "+1", "-0", "1_0", "_", "3", "2", "\u0661", "x", str(field.q - 1)]
    texts = []
    for token in tokens:
        row = lines[2].split()
        row[0] = token
        texts.append("\n".join(lines[:2] + [" ".join(row)] + lines[3:]))
        texts.append("\n".join(lines[:2] + [" ".join(row)] * 2 + lines[4:]))
    texts.append("\n".join(lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:]))  # short row
    merged = lines[2].replace(" ", "", 1)  # ncols characters in ncols - 1 tokens
    texts.append("\n".join(lines[:2] + [merged] + lines[3:]))
    texts.append("\n".join(lines[:2] + ["", "  ", lines[2], "\t"] + lines[3:]))  # blank lines
    texts.append("\r\n".join(lines) + "\r\n")  # CRLF
    texts.append("\n".join(lines[:2] + ["\t".join(lines[2].split())] + lines[3:]))  # tabs
    texts.append("\n".join(lines[:2] + [lines[2].replace(" ", "  ")] + lines[3:]))  # wide gaps
    for text in texts:
        want = _parsed_or_error(_token_loop, text, field)
        assert _parsed_or_error(lambda t, f: parse_matrix(t, f).packed, text, field) == want, text


def test_a_row_line_read_once_is_still_checked_per_width(F2):
    # One call's texts share the read rows of each width only: "1 0 1" read
    # in a 3-column matrix is a row of wrong length in a 2-column one.
    texts = ["2 2 3\n1 0 1\n0 1 1", "2 1 3\n1 0 1", "2 1 2\n1 0 1"]
    found = parse_matrices(texts, F2, "matrix")
    assert [M.packed for M in itertools.islice(found, 2)] == [(0b101, 0b011), (0b101,)]
    with pytest.raises(LinAlgError, match="^matrix 3: row '1 0 1' has wrong length$"):
        next(found)


def test_a_header_line_read_once_is_still_checked_per_matrix(F2):
    # The second "2 1 2" comes from the call's memo, and its row count is
    # checked against the second matrix's own rows.
    found = parse_matrices(["2 1 2\n1 0", "2 1 2\n1 0\n0 1"], F2, "matrix")
    assert next(found).packed == (0b10,)
    with pytest.raises(LinAlgError, match="^matrix 2: expected 1 rows, got 2$"):
        next(found)


@pytest.mark.parametrize("n", list(range(1, 10)) + [64, 65, 130])
def test_f2_span_by_doubling_is_the_points(n):
    # `_F2Space.span`, by doubling, against the generic characteristic-2
    # span on the same RREF rows: the same 2^d - 1 points, d = 0 included.
    F2 = field_new(2)
    rng = random.Random(f"span:{n}")
    fast, generic = _space(F2, n), _XorSpace(F2, n)
    assert type(fast) is _F2Space
    for d in sorted({0, 1, min(2, n), min(5, n), min(9, n)}):
        U = Subspace.zero(F2, n)
        while U.dim != d:
            U = rowspace(_random_matrix(F2, d, n, rng))
        found = fast.span(U.packed)
        assert len(found) == len(set(found)) == 2**d - 1
        assert set(found) == set(generic.span(U.packed))


def _oracle_draw_digits(x, q, size):
    """The lowest `size` base-q digits of x, low digit first, one `%` each."""
    out = []
    for _ in range(size):
        out.append(x % q)
        x //= q
    return out


def _draw_of(C):
    """The channel's draw x of the coefficient matrix C: its entries, row
    by row, as the base-q digits of x, low digit first."""
    return sum(a * C.field.q**i for i, a in enumerate(C.entries))


# Per field: (dim, dim U) pairs whose draws are all tried. Rows wider than
# one chunk table: 3 digits of F_8, 5 of F_3, 3 of F_5 and 2 of F_9.
DRAW_SHAPES = {
    (2, 1): [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)],
    (2, 2): [(1, 2), (2, 2), (1, 3), (2, 3)],
    (2, 3): [(1, 2), (2, 2), (1, 3)],
    (3, 1): [(1, 2), (2, 2), (1, 3), (2, 3), (1, 6)],
    (5, 1): [(1, 2), (2, 2), (1, 3), (1, 4)],
    (3, 2): [(1, 2), (2, 2), (1, 3)],
}


@pytest.mark.parametrize("p,m", list(DRAW_SHAPES))
def test_a_draw_is_refused_or_is_the_rowspace_of_its_product(p, m):
    # Every draw x of each shape, C the rows of x's base-q digits: the drawn
    # rows are the packed rows of C·B, of the oracle's rank of C; the draw is
    # refused iff that rank is below dim, and is otherwise rowspace(C·B),
    # pivots and space included.
    field = field_new(p, m)
    rng = random.Random(field.q + 15)
    for dim, k in DRAW_SHAPES[p, m]:
        U = Subspace.zero(field, 7)
        while U.dim != k:
            U = rowspace(_random_matrix(field, k, 7, rng))
        for x in range(field.q ** (dim * k)):
            entries = _oracle_draw_digits(x, field.q, dim * k)
            rows = [entries[i * k : (i + 1) * k] for i in range(dim)]
            product = MatrixFq.from_rows(field, rows).matmul(U.basis)
            drawn = MatrixFq._from_packed(U.space, tuple(U.space.draw(U.chunks, x, dim, k)))
            want_rank = oracle_rref_rows(field, rows)[1]
            assert drawn.packed == product.packed and rank(drawn) == want_rank
            got = subspace_from_draw(U, dim, x)
            if want_rank < dim:
                assert got is None
                continue
            want = rowspace(product)
            assert (got, got.pivots, got.space) == (want, want.pivots, want.space)


@pytest.mark.parametrize("spec", HARNESS_FIELDS, ids=_field_id)
def test_chunk_tables_are_the_sums_of_their_rows(spec):
    # In F^(t + 2), t = `draw_digits`, every dim U from 0 up: below t, t, and
    # above t but not a multiple of it when t > 1. Entry r of group j is
    # sum_i r_i·B[jt + i] by the scalar methods, r_i the base-q digits of r,
    # and the tables hold at most ceil(dim U / t)·q^t entries.
    field = field_new(*spec)
    q, t = field.q, _digits(field).draw_digits
    n = t + 2
    rng = random.Random(f"chunks:{field.spec()}")
    for k in range(n + 1):
        U = Subspace.zero(field, n)
        while U.dim != k:
            U = rowspace(_random_matrix(field, k, n, rng))
        tables = U.chunks
        assert U.chunks is tables
        assert len(tables) == -(-k // t)
        assert sum(map(len, tables)) <= len(tables) * q**t
        for j, table in enumerate(tables):
            group = U.rows[j * t : (j + 1) * t]
            assert len(table) == q ** len(group)
            for r, entry in enumerate(table):
                v = [0] * n
                for c, row in zip(_oracle_draw_digits(r, q, len(group)), group):
                    v = [field.add(a, field.mul(c, b)) for a, b in zip(v, row)]
                assert entry == point_int(v, q)


def test_subspace_from_coordinates_is_the_dense_product(field):
    # The rows of U combined by R, the RREF of full-rank coordinates given
    # as the channel's draw, are the rowspace of the product coeffs·B,
    # entries and pivots both.
    rng = random.Random(field.q + 9)
    n = 6
    for d in range(2, n + 1):
        for _ in range(2):
            U = rowspace(_random_matrix(field, d, n, rng))
            for k in range(1, U.dim):
                C = _full_rank(field, U.dim, rng, rows=k)
                S = subspace_from_draw(U, k, _draw_of(C))
                want = rowspace(C.matmul(U.basis))
                assert S.basis.entries == want.basis.entries
                assert S.pivots == want.pivots
                assert S.dim == k


def _subspaces(field, rng, n=6):
    """Random subspaces of F^n of every dimension, rank-deficient spans, {0},
    F^n, and a random subspace of each, so that all pairs include V ⊆ U,
    V = U, U = {0} and V = {0}."""
    out = [rowspace(A) for A in _shapes(field, rng) if A.cols == n]
    out += [rowspace(_random_matrix(field, k, n, rng)) for k in range(n)]
    out += [rowspace(_rank_deficient(field, 4, n, rng))]
    out += [Subspace.zero(field, n), Subspace.full(field, n)]
    out += [random_subspace_of(U, rng.randint(0, U.dim), rng) for U in out]
    return out


def test_sum_and_intersect_dim_match_oracle(field):
    rng = random.Random(field.q + 1)
    subspaces = _subspaces(field, rng)
    for U in subspaces:
        for V in subspaces:
            stacked = U.basis.row_lists() + V.basis.row_lists()
            want = oracle_rref_rows(field, stacked)[1]
            assert sum_dim(U, V) == want
            assert intersect_dim(U, V) == U.dim + V.dim - want
            assert contains(U, V) == (want == U.dim)


def test_subspace_sum_is_the_rowspace_of_the_stacked_bases(field):
    rng = random.Random(field.q + 3)
    subspaces = _subspaces(field, rng)
    for U in subspaces:
        for V in subspaces:
            S = subspace_sum(U, V)
            rows, r, pivots = oracle_rref_rows(field, U.basis.row_lists() + V.basis.row_lists())
            assert S.basis.row_lists() == rows[:r]
            assert S.pivots == pivots


def test_trusted_constructions_are_in_rref(field):
    # Every subspace the kernel builds without `_check_rref` passes it, with
    # exactly the stored pivots.
    rng = random.Random(field.q + 4)
    n = 6
    subspaces = _subspaces(field, rng, n)
    built = list(subspaces)
    built += [rowspace(A) for A in _shapes(field, rng)]
    for U in subspaces:
        built += [random_subspace_of(U, d, rng) for d in range(U.dim + 1)]
        built += [subspace_sum(U, V) for V in rng.sample(subspaces, 4)]
        built += [
            subspace_from_draw(U, k, _draw_of(_full_rank(field, U.dim, rng, rows=k)))
            for k in range(1, U.dim + 1)
        ]
        built.append(orthogonal_complement(U))
    for k1 in (0, 2):
        shots = [rng.choice([S for S in subspaces if S.dim <= i]) for i in range(1, n)]
        built += tuple(accumulate(ReceivedSequence(n, shots), k1))
    for _ in range(3):
        built += flag_from_generator(_full_rank(field, n, rng)).subspaces
    for S in built:
        assert S.rows == tuple(S.basis.row(i) for i in range(S.dim))
        assert Subspace._check_rref(S.rows) == S.pivots


def test_every_construction_of_a_subspace_is_equal_and_hashes_equal(field):
    # One space U = rowspace(C·B) of V = rowspace(B), built by the checked
    # constructor, `rowspace`, `subspace_sum` of two row blocks and the
    # channel's `subspace_from_draw` of C, at every dimension from 0 up.
    # Then `Subspace.full`, `Subspace.zero` and a member of
    # `enumerate_subspaces`, each against the checked constructor of the
    # same rows.
    rng = random.Random(field.q + 10)
    n = 6
    for k in range(n):
        V = rowspace(_full_rank(field, n, rng).first_rows(n - 1))
        C = _full_rank(field, V.dim, rng, rows=k)
        A = C.matmul(V.basis)
        U = rowspace(A)
        built = [
            Subspace(MatrixFq(field, k, n, itertools.chain.from_iterable(U.rows))),
            subspace_sum(rowspace(A.first_rows(k // 2)), rowspace(A.last_rows(k - k // 2))),
            subspace_from_draw(V, k, _draw_of(C)),
        ]
        if not k:
            built.append(Subspace.zero(field, n))
        for S in built:
            assert S == U and hash(S) == hash(U)
            assert (S.dim, S.rows, S.pivots) == (k, U.rows, U.pivots)
    q = field.q
    # Member 2q - 1 of the 2-spaces of F_q^3: pivots (0, 1), the free
    # entries at column 2 the base-q digits 1, q - 1 of 2q - 1.
    member = next(itertools.islice(enumerate_subspaces(field, 3, 2), 2 * q - 1, None))
    cases = [
        (Subspace.full(field, n), MatrixFq.identity(field, n).row_lists()),
        (Subspace.zero(field, n), []),
        (member, [[1, 0, 1], [0, 1, q - 1]]),
    ]
    for S, rows in cases:
        cols = len(rows[0]) if rows else n
        checked = Subspace(MatrixFq(field, len(rows), cols, itertools.chain.from_iterable(rows)))
        assert S == checked and hash(S) == hash(checked)
        assert (S.dim, S.rows, S.pivots) == (checked.dim, checked.rows, checked.pivots)


def test_basis_is_the_rows_as_a_matrix(field):
    # Built on first read from `rows`, then kept; the checked constructor
    # keeps the matrix it was given.
    rng = random.Random(field.q + 11)
    for U in _subspaces(field, rng):
        B = U.basis
        assert (B.field, B.rows, B.cols) == (U.field, U.dim, U.ambient)
        assert B.row_lists() == [list(r) for r in U.rows]
        if U.dim:
            assert B == MatrixFq.from_rows(field, U.rows)
        assert U.basis is B
        M = MatrixFq(field, U.dim, U.ambient, B.entries)
        assert Subspace(M).basis is M


def _other_modulus(field):
    """F_q over another monic irreducible modulus of the same degree, or
    None if there is none (prime fields and F_4)."""
    if field.m == 1:
        return None
    for low in itertools.product(range(field.p), repeat=field.m):
        if (*low, 1) != field.modulus:
            try:
                return field_new(field.p, field.m, (*low, 1))
            except FieldError:
                pass  # reducible
    return None


def test_subspaces_differ_by_ambient_and_by_modulus(field):
    zeros = [Subspace.zero(field, 3), Subspace.zero(field, 4)]
    zeros += [rowspace(MatrixFq(field, 0, 3, ())), rowspace(MatrixFq(field, 0, 4, ()))]
    assert zeros[0] == zeros[2] != zeros[1] == zeros[3]
    assert Subspace.zero(field, 4) is Subspace.zero(field, 4) is zeros[1]
    other = _other_modulus(field)
    if other is None:
        assert field.m == 1 or field.q == 4
        return
    rows = [[1, 0, field.q - 1], [0, 1, 1]]
    U, V = rowspace(MatrixFq.from_rows(field, rows)), rowspace(MatrixFq.from_rows(other, rows))
    assert U.rows == V.rows and hash(U) == hash(V)
    assert U != V and Subspace.zero(field, 3) != Subspace.zero(other, 3)


def test_slices_and_stacks_are_the_checked_matrices(field):
    # Built without the entry-range check, from a matrix of entries only and
    # from one of packed rows only, they equal what the checked constructor
    # makes of the same rows, and hold one packed row a row, the fold of
    # that row.
    rng = random.Random(field.q + 7)
    A, B = _random_matrix(field, 4, 6, rng), _random_matrix(field, 2, 6, rng)
    a, b = A.row_lists(), B.row_lists()
    fold = _space(field, 6).fold
    for A, B in ((A, B), (parse_matrix(dump_matrix(A), field), parse_matrix(dump_matrix(B), field))):
        parts = [(A.first_rows(0), []), (A.first_rows(3), a[:3]), (A.last_rows(0), [])]
        for M, rows in parts + [(A.last_rows(2), a[2:]), (A.stack(B), a + b)]:
            assert M == MatrixFq(field, len(rows), 6, itertools.chain.from_iterable(rows))
            assert M.rows == len(M.packed)
            assert M.packed == tuple(map(fold, rows))
        assert A.first_rows(1).stack(A.last_rows(3)) == A


def _full_rank(field, n, rng, rows=None):
    """A random full-rank matrix with n columns, and n rows unless given."""
    while True:
        S = _random_matrix(field, n if rows is None else rows, n, rng)
        if rank(S) == S.rows:
            return S


def _deficient_at(field, n, j, rng):
    """A generator whose rows 0 .. j - 1 are independent and whose row j is
    a random combination of them (zero at j = 0)."""
    rows = _full_rank(field, n, rng).row_lists()
    coeffs = [rng.randrange(field.q) for _ in range(j)]
    rows[j] = [0] * n
    for c, row in zip(coeffs, rows):
        rows[j] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[j], row)]
    return MatrixFq.from_rows(field, rows)


def test_flag_levels_are_the_prefix_rowspaces(field):
    # One insertion pass gives every level exactly as a separate elimination
    # of the leading j rows would: same entries, same pivots.
    rng = random.Random(field.q + 5)
    n = 6
    generators = [_full_rank(field, n, rng) for _ in range(4)]
    # Pivots arriving right to left: each row is inserted before the others.
    reverse = [[0] * p + [1] + [rng.randrange(field.q) for _ in range(n - 1 - p)]
               for p in reversed(range(n))]
    generators.append(MatrixFq.from_rows(field, reverse))
    # Rank-deficient only in the last row: that row is never inserted.
    generators.append(_deficient_at(field, n, n - 1, rng))
    for S in generators:
        flag = flag_from_generator(S)
        assert len(flag) == n - 1
        for j in range(1, n):
            rows, r, pivots = oracle_rref_rows(field, S.first_rows(j).row_lists())
            assert flag[j].basis.row_lists() == rows[:r]
            assert flag[j].pivots == pivots
            assert flag[j].dim == j


def test_flag_from_a_rank_deficient_generator_raises(field):
    rng = random.Random(field.q + 6)
    n = 6
    for j in range(n - 1):
        with pytest.raises(ConstructionError, match=f"rows 1..{j + 1} have rank {j}"):
            flag_from_generator(_deficient_at(field, n, j, rng))


def test_prefix_rowspaces_stop_before_the_first_row_adding_no_pivot(field):
    # The levels are the rowspaces of the leading rows, up to `count` of
    # them, and the list ends before the first row in the span of the rows
    # before it, even where a later row would add a pivot again.
    rng = random.Random(field.q + 7)
    n = 5
    for j in range(n):
        S = _deficient_at(field, n, j, rng)
        for count in range(n + 1):
            levels = prefix_rowspaces(S, count)
            assert levels == [rowspace(S.first_rows(i)) for i in range(1, min(j, count) + 1)]


def test_insert_with_levels_records_each_level_and_stops(field):
    # Into the RREF of the first s rows, an insertion that records levels
    # appends the rowspace of every longer prefix, returns how many rows it
    # added and ends at the first row in the span of those before it, with
    # the rows and pivots of an insertion of only the rows before that one.
    rng = random.Random(field.q + 8)
    n = 5
    space = _space(field, n)
    for j in range(n):
        S = _deficient_at(field, n, j, rng)
        want_rows, want_pivots = [], []
        space.insert(want_rows, want_pivots, S.packed[:j])
        for s in range(j + 1):
            rows, pivots, levels = [], [], []
            space.insert(rows, pivots, S.packed[:s])
            assert space.insert(rows, pivots, S.packed[s:], levels) == j - s
            prefixes = [S.first_rows(i) for i in range(s + 1, j + 1)]
            assert levels == list(map(rowspace, prefixes))
            assert [U.pivots for U in levels] == [rref(A)[2] for A in prefixes]
            assert (rows, pivots) == (want_rows, want_pivots)


def test_matmul_matches_oracle(field):
    rng = random.Random(field.q + 2)
    for rows, inner, cols in [(0, 3, 4), (3, 0, 2), (4, 4, 4), (2, 5, 3), (5, 1, 6)]:
        A = _random_matrix(field, rows, inner, rng)
        B = _random_matrix(field, inner, cols, rng)
        assert A.matmul(B).entries == tuple(oracle_matmul(A, B))
    Z = MatrixFq.zero(field, 3, 3)
    A = _random_matrix(field, 3, 3, rng)
    assert A.matmul(Z) == Z and Z.matmul(A) == Z


def _row_list_matmul(A, B):
    """The product on entry lists, row by row: row i is sum_k a_ik times
    row k of B, accumulated as acc - (-a_ik)·(row k of B) by the field's
    tables. This is how `MatrixFq.matmul` formed it before it ran on packed
    rows."""
    F = A.field
    mul, sub = F.mul_table, F.sub_table
    neg = sub[0]
    right = [B.row(k) for k in range(B.rows)]
    out = []
    for i in range(A.rows):
        acc = [0] * B.cols
        for a, row in zip(A.row(i), right):
            if a:
                m = mul[neg[a]]
                acc = [sub[x][m[y]] for x, y in zip(acc, row)]
        out.extend(acc)
    return MatrixFq(F, A.rows, B.cols, out)


MATMUL_SHAPES = [(4, 4, 4), (1, 1, 1), (2, 5, 3), (5, 2, 6), (6, 6, 1), (0, 3, 4), (3, 0, 2), (3, 4, 0), (0, 0, 0)]


@pytest.mark.parametrize("spec", TEXT_FIELDS, ids=_field_id)
def test_packed_matmul_matches_the_row_list_product(spec):
    # Square and non-square operands, 0-row and 0-column ones and a 0 inner
    # dimension: the product on packed rows is the row-list product on every
    # reader, and holds packed rows only. Powers of a companion matrix
    # commute, so M·P is P·M, the step `SandwichParams.powers` takes.
    field = field_new(*spec)
    rng = random.Random(f"matmul:{field.spec()}")
    for rows, inner, cols in MATMUL_SHAPES:
        A = _random_matrix(field, rows, inner, rng)
        B = _random_matrix(field, inner, cols, rng)
        C, want = A.matmul(B), _row_list_matmul(A, B)
        assert C._entries is None
        assert (C.rows, C.cols, C.packed, C.entries) == (rows, cols, want.packed, want.entries)
        assert C == want and hash(C) == hash(want)
    M = companion_matrix(find_primitive_poly(field, 3), field)
    P = M
    for _ in range(12):
        assert M.matmul(P) == P.matmul(M) == _row_list_matmul(M, P)
        P = M.matmul(P)


def _unfolded_text(A):
    """The matrix text of A with each packed row unfolded into its tokens,
    what `dump_matrix` writes where its digit path does not apply."""
    rows = map(_space(A.field, A.cols).unfold, A.packed) if A.cols else [()] * A.rows
    return "\n".join([f"{A.field.q} {A.rows} {A.cols}"] + [" ".join(map(str, r)) for r in rows])


@pytest.mark.parametrize("spec", TEXT_FIELDS, ids=_field_id)
def test_dump_by_digits_is_the_unfolded_text(spec):
    # F_2, F_3, F_5, F_7 and F_8 write a row by one `format()` of its packed
    # integer; every field's text, 0-column matrices and a row holding every
    # element included, is the unfolded text byte for byte, and parses back
    # to the same matrix: the 3 x 0 matrix's empty row lines are blank lines.
    field = field_new(*spec)
    rng = random.Random(f"dump:{field.spec()}")
    assert bool(_text_digits(field)[3]) == (field.q in (2, 3, 5, 7, 8))
    shapes = list(_shapes(field, rng)) + [_random_matrix(field, 4, 9, rng)]
    shapes += [MatrixFq(field, 3, 0, ()), MatrixFq(field, 0, 0, ())]
    shapes.append(MatrixFq(field, 1, field.q, range(field.q)))
    for A in shapes:
        text = dump_matrix(A)
        assert text == _unfolded_text(A)
        assert parse_matrix(text, field) == A
        assert dump_matrix(parse_matrix(text, field)) == text


# -- the differential harness ---------------------------------------------------
# Each fast path of the kernel against a brute-force oracle, over every field of
# ORDERS and F_8 by x^3 + x + 1, on seeded random subspaces of every dimension
# and on every level of seeded flags whose subspaces share, contain and meet
# each other.

@pytest.fixture(scope="module", params=HARNESS_FIELDS, ids=_field_id)
def harness(request):
    """(field, subspaces of F^6, flags): random spans of every dimension and
    the levels of two `shared_level_flags` and two `perturbed_flags`."""
    field, n = field_new(*request.param), 6
    rng = random.Random(f"harness:{field.spec()}")
    flags = shared_level_flags(field, n, 2, (2, 3), rng) + perturbed_flags(field, n, 2, rng)
    subspaces = [rowspace(_random_matrix(field, k, n, rng)) for k in range(n + 1)]
    subspaces += [S for flag in flags for S in flag.subspaces]
    return field, list(dict.fromkeys(subspaces)), flags


def _listable(field, dim):
    """Whether a dim-dimensional space has few enough points to list."""
    return gaussian_binomial(dim, 1, field.q) <= 1000


def test_harness_points_match_oracle(harness):
    field, subspaces, _ = harness
    for S in subspaces:
        if not _listable(field, S.dim):
            continue
        found = points(S)
        assert len(found) == len(set(found)) == gaussian_binomial(S.dim, 1, field.q)
        assert set(found) == set(oracle_points(field, [list(r) for r in S.rows]))


def test_harness_sums_match_the_stacked_rowspace(harness):
    # sum_dim, contains and subspace_sum of every ordered pair against one
    # scalar elimination of the stacked bases; the subspace of its rows is
    # built by the checked constructor.
    field, subspaces, _ = harness
    for U in subspaces:
        for V in subspaces:
            rows, r, pivots = oracle_rref_rows(field, U.basis.row_lists() + V.basis.row_lists())
            want = Subspace(MatrixFq(field, r, U.ambient, itertools.chain.from_iterable(rows[:r])))
            assert sum_dim(U, V) == r
            assert contains(U, V) == (r == U.dim)
            S = subspace_sum(U, V)
            assert (S, S.pivots, S.basis.row_lists()) == (want, pivots, rows[:r])


def test_harness_orthogonal_complement_is_orthogonal(harness):
    # Every basis row of U⊥ has scalar dot product 0 with every row of U.
    field, subspaces, _ = harness
    for U in subspaces:
        W = orthogonal_complement(U)
        assert W.dim == U.ambient - U.dim
        for u in U.rows:
            for w in W.rows:
                dot = 0
                for x, y in zip(u, w):
                    dot = field.add(dot, field.mul(x, y))
                assert dot == 0


def test_harness_covering_masks_match_the_scan(harness):
    # The decoder's row filter at every flag level with few enough points to
    # list: for each subspace S, the flags it keeps include every flag whose
    # subspace at that level contains S by one scalar elimination, and the
    # flags holding every row of S are exactly those. The point tables are
    # folded from the oracle's points, not from `points`.
    field, subspaces, flags = harness
    everyone = (1 << len(flags)) - 1
    for level in range(1, flags[0].ambient):
        if not _listable(field, level):
            break
        table = {}
        for bit, flag in enumerate(flags):
            for x in oracle_points(field, [list(r) for r in flag[level].rows]):
                table[x] = table.get(x, 0) | 1 << bit
        for S in subspaces:
            want = 0
            for bit, flag in enumerate(flags):
                stacked = flag[level].basis.row_lists() + S.basis.row_lists()
                if oracle_rref_rows(field, stacked)[1] == level:
                    want |= 1 << bit
            found = _row_filter(table, S, everyone)
            assert found & want == want, (level, S)
            assert bin(found).count("1") <= 1 or found == want, (level, S)
            for row in S.rows:
                found &= table.get(point_int(row, field.q), 0)
            assert found == want, (level, S)


def test_harness_rows_pass_the_rref_check(harness):
    # Every subspace the kernel builds, its `rows` read only now: in RREF with
    # exactly the stored pivots, the rows of `basis`, and `packed` their fold.
    field, subspaces, _ = harness
    rng = random.Random(f"rows:{field.spec()}")
    built = list(subspaces)
    for U in subspaces:
        built += [subspace_sum(U, V) for V in rng.sample(subspaces, 3)]
        built += [random_subspace_of(U, d, rng) for d in range(U.dim + 1)]
        built.append(orthogonal_complement(U))
    for S in built:
        assert Subspace._check_rref(S.rows) == S.pivots
        assert S.rows == tuple(S.basis.row(i) for i in range(S.dim))
        assert S.packed == tuple(point_int(row, field.q) for row in S.rows)
