import hashlib
import itertools

import pytest

from flagcodes.construction import (
    ConstructionError,
    Flag,
    SandwichParams,
    build_code,
    code_from_json,
    code_to_json,
    companion_matrix,
    field_power,
    find_primitive_poly,
    flag_from_generator,
    is_primitive,
    layer_A,
    layer_B,
    layer_S,
    matrix_order,
    matrix_power,
)
from flagcodes.fields import FieldError, field_from_order, field_new
from flagcodes.linalg import MatrixFq, dump_matrix, intersect_dim, rank, rowspace
from conftest import oracle_rref_rows

X2_X_1 = (1, 1, 1)  # x^2 + x + 1
X3_X_1 = (1, 1, 0, 1)  # x^3 + x + 1


def test_companion_quadratic(F2):
    M = companion_matrix(X2_X_1, F2)
    assert M.row_lists() == [[0, 1], [1, 1]]


def test_companion_cubic(F2):
    M = companion_matrix(X3_X_1, F2)
    assert M.row_lists() == [[0, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_companion_linear(F2):
    assert companion_matrix((1, 1), F2).row_lists() == [[1]]


def test_companion_signs(F3):
    # last row carries the negated coefficients
    M = companion_matrix((2, 1, 1), F3)
    assert M.row_lists() == [[0, 1], [1, 2]]


def test_companion_rejects_non_monic(F2):
    with pytest.raises(ConstructionError):
        companion_matrix((1, 1, 0), F2)


def test_matrix_order_examples(F2):
    assert matrix_order(companion_matrix(X2_X_1, F2)) == 3
    assert matrix_order(companion_matrix(X3_X_1, F2)) == 7
    assert matrix_order(MatrixFq.identity(F2, 3)) == 1


def test_matrix_order_rejects_singular(F2):
    with pytest.raises(ConstructionError):
        matrix_order(MatrixFq.zero(F2, 2, 2))


def test_find_primitive_poly(F2, F3):
    assert find_primitive_poly(F2, 3) == X3_X_1
    assert find_primitive_poly(F2, 2) == X2_X_1
    assert find_primitive_poly(F3, 1) == (1, 1)  # x + 1: companion [2] generates F_3^*


# (p, m) -> the largest degree whose monic polynomials are all tried.
PRIMITIVE_DEGREES = {(2, 1): 7, (3, 1): 4, (2, 2): 3, (5, 1): 3, (7, 1): 2, (2, 3): 2, (3, 2): 2}


def _companion_is_primitive(poly, field):
    """The companion matrix of poly has order q^deg - 1, by `matrix_order`."""
    if poly[0] == 0:
        return False
    try:
        return matrix_order(companion_matrix(poly, field)) == field.q ** (len(poly) - 1) - 1
    except ConstructionError:
        return False


@pytest.mark.parametrize("p,m", list(PRIMITIVE_DEGREES))
def test_is_primitive_agrees_with_the_companion_order(p, m):
    # Every monic polynomial of degree 1 up to the cap, the reducible ones
    # and those with constant term 0 included.
    field = field_new(p, m)
    found = 0
    for k in range(1, PRIMITIVE_DEGREES[p, m] + 1):
        for tail in itertools.product(range(field.q), repeat=k):
            poly = (*tail, 1)
            assert is_primitive(poly, field) == _companion_is_primitive(poly, field), poly
            found += is_primitive(poly, field)
    assert found > 0


def test_is_primitive_refuses_a_polynomial_it_cannot_read(F2, F4):
    for poly, field in [((1, 1, 0), F2), ((1,), F2), ((1, 5, 1), F4), ((1, 3, 0, 1), F2)]:
        with pytest.raises(ConstructionError):
            is_primitive(poly, field)
    assert not is_primitive((0, 1, 1), F2)


def test_field_power_zero_is_zero_matrix(F2):
    M = companion_matrix(X2_X_1, F2)
    assert field_power(M, 0).is_zero()


def test_field_power_top_is_identity(F2):
    M = companion_matrix(X2_X_1, F2)
    assert field_power(M, 3).is_identity()
    M = companion_matrix(X3_X_1, F2)
    assert field_power(M, 7).is_identity()


def test_field_power_square(F2):
    M = companion_matrix(X3_X_1, F2)
    assert field_power(M, 2).row_lists() == [[0, 0, 1], [1, 1, 0], [0, 1, 1]]


def test_field_power_exponent_range(F2):
    M = companion_matrix(X2_X_1, F2)
    with pytest.raises(ConstructionError):
        field_power(M, 4)
    with pytest.raises(ConstructionError):
        field_power(M, -1)


def test_companion_power_row_structure(F2):
    # rows of M^i are v, vM, ..., vM^(k-1) with v the first row of M^i
    M = companion_matrix(X3_X_1, F2)
    for i in range(1, 7):
        P = matrix_power(M, i)
        v = MatrixFq.from_rows(F2, [list(P.row(0))])
        for j in range(3):
            assert list(v.matmul(matrix_power(M, j)).row(0)) == list(P.row(j))


@pytest.fixture(scope="module")
def p221(F2):
    return SandwichParams(F2, 2, 1)


def test_params_derived(p221):
    assert (p221.k2, p221.n, p221.num_generators) == (3, 5, 9)


def test_params_validation(F2):
    with pytest.raises(ConstructionError):
        SandwichParams(F2, 2, 2)  # r >= k1
    with pytest.raises(ConstructionError):
        SandwichParams(F2, 1, 0)  # k1 < 2
    with pytest.raises(ConstructionError):
        SandwichParams(F2, 2, 1, (1, 0, 0, 1))  # x^3 + 1 is not primitive


@pytest.mark.parametrize("k1, r", [(2.0, 1), (2, 1.0), (True, 0), (2, False), ("2", 1)])
def test_params_must_be_integers(F2, k1, r):
    # A float that equals an integer is refused too: it would index tuples
    # and size lists later on.
    with pytest.raises(ConstructionError, match="is not an integer"):
        SandwichParams(F2, k1, r)


@pytest.mark.parametrize("poly", [(1.5, 1, 0, 1), (1, 1, 0, 1.0), (True, 1, 0, 1)])
def test_prim_poly_coefficients_must_be_integers(F2, poly):
    # Each would truncate to the primitive x^3 + x + 1.
    with pytest.raises(ConstructionError, match="prim_poly coefficient .* is not an integer"):
        SandwichParams(F2, 2, 1, poly)


def test_layer_A_examples(p221):
    assert layer_A(p221, 1).row_lists() == [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    # exponent 0 hits the zero-matrix convention: right block is zero
    assert layer_A(p221, 2).row_lists() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    # top index: M^7 = I, right block is the first 2 rows of I_3
    assert layer_A(p221, 9).row_lists() == [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]


def test_layer_A_rowspaces_disjoint(p221):
    U = rowspace(layer_A(p221, 1))
    V = rowspace(layer_A(p221, 2))
    assert tuple(c for c, x in enumerate(U.basis.row(0)) if x)[0] == 2
    assert intersect_dim(U, V) == 0
    assert rank(layer_A(p221, 1).stack(layer_A(p221, 2))) == 4


def test_layer_B_examples(p221):
    assert layer_B(p221, 1).row_lists() == [[0, 0, 0, 0, 1]]
    assert layer_B(p221, 2).row_lists() == [[0, 0, 1, 0, 0]]


def test_layer_B_absent_when_r_zero(F2):
    params = SandwichParams(F2, 2, 0)
    for i in range(1, params.num_generators + 1):
        assert layer_B(params, i) is None


def test_layer_B_rank(code_232):
    params = code_232.params
    for i in range(1, params.num_generators + 1):
        assert rank(layer_B(params, i)) == params.r


def test_layer_index_range(p221):
    with pytest.raises(ConstructionError):
        layer_A(p221, 0)
    with pytest.raises(ConstructionError):
        layer_S(p221, 10)


def test_layer_S_221_first(p221):
    assert layer_S(p221, 1).row_lists() == [
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
    ]


def test_layer_S_double_decker_when_r_zero(F2):
    params = SandwichParams(F2, 2, 0)
    S1 = layer_S(params, 1)
    assert (S1.rows, S1.cols) == (4, 4)
    assert rank(S1) == 4


def test_layer_S_full_rank_all_indices(code_232):
    params = code_232.params
    for i in range(1, params.num_generators + 1):
        assert rank(layer_S(params, i)) == 8


@pytest.mark.parametrize(
    "k1,r,expected", [(2, 0, 5), (2, 1, 9), (3, 2, 33)]
)
def test_build_code_cardinality(F2, k1, r, expected):
    code = build_code(SandwichParams(F2, k1, r))
    assert len(code) == expected
    assert len(set(code.flags)) == expected


def test_flag_nesting_strict(code_221):
    for flag in code_221.flags:
        for j in range(1, len(flag)):
            assert flag[j + 1].dim == flag[j].dim + 1


def test_spread_pairwise_disjoint(code_221):
    k1 = code_221.params.k1
    subs = [flag[k1] for flag in code_221.flags]
    for a in range(len(subs)):
        for b in range(a + 1, len(subs)):
            assert intersect_dim(subs[a], subs[b]) == 0


def test_serialization_round_trip(code_221):
    rebuilt = code_from_json(code_to_json(code_221))
    assert rebuilt.params == code_221.params
    assert rebuilt.generators == code_221.generators
    assert rebuilt.flags == code_221.flags


# (p, m, modulus, k1, r): the benchmark grid, F_5, F_8 by x^3 + x + 1, F_9
# (two 3-bit slots an entry, read through base 2) and F_16, whose entries
# 10 .. 15 are two-character tokens.
ROUND_TRIP_CODES = [
    (2, 1, None, 3, 2),
    (2, 1, None, 4, 2),
    (3, 1, None, 3, 1),
    (2, 2, None, 3, 0),
    (5, 1, None, 2, 1),
    (2, 3, (1, 1, 0, 1), 2, 1),
    (3, 2, None, 2, 1),
    (2, 4, None, 2, 0),
]


@pytest.mark.parametrize("p,m,modulus,k1,r", ROUND_TRIP_CODES)
def test_a_code_file_loads_back_to_the_same_code(p, m, modulus, k1, r):
    code = build_code(SandwichParams(field_new(p, m, modulus), k1, r))
    rebuilt = code_from_json(code_to_json(code))
    assert rebuilt == code
    assert rebuilt.flags == code.flags
    assert [S.packed for S in rebuilt.generators] == [S.packed for S in code.generators]
    for flag, again in zip(code.flags, rebuilt.flags):
        assert [U.pivots for U in flag.subspaces] == [U.pivots for U in again.subspaces]


def test_a_code_file_with_a_rank_deficient_prefix_fails_to_load(code_221):
    # Row 3 of generator 2 repeated as row 4: the flag stops at level 4.
    texts = [dump_matrix(S) for S in code_221.generators]
    lines = texts[1].split("\n")
    texts[1] = "\n".join(lines[:4] + [lines[3]] + lines[5:])
    with pytest.raises(ConstructionError, match="^generator rows 1..4 have rank 3, want 4$"):
        code_from_json(_with_generators(code_221, texts))


def test_serialization_detects_wrong_generator_count(code_221):
    import json

    doc = json.loads(code_to_json(code_221))
    doc["generators"].pop()
    with pytest.raises(ConstructionError):
        code_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["5", "null", "true", "[]", '"x"'])
def test_a_document_that_is_not_an_object_fails_to_load(text):
    with pytest.raises(ConstructionError, match="^the top level is not a JSON object$"):
        code_from_json(text)


def _with_generators(code, texts):
    import json

    doc = json.loads(code_to_json(code))
    doc["generators"] = texts
    return json.dumps(doc)


def test_serialization_rejects_generators_of_the_wrong_shape(code_221):
    # n = 5 on (2,2,1): a square 4x4 generator would load as a code in F^4,
    # and a 3x5 one fails only inside flag building.
    square = "2 4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1"
    short = "2 3 5\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0"
    count = len(code_221.generators)
    for text, shape in ((square, "4x4"), (short, "3x5")):
        with pytest.raises(ConstructionError, match=f"generator 1 is {shape}, want 5x5"):
            code_from_json(_with_generators(code_221, [text] * count))
    texts = [dump_matrix(S) for S in code_221.generators]
    texts[3] = short
    with pytest.raises(ConstructionError, match="generator 4 is 3x5"):
        code_from_json(_with_generators(code_221, texts))


def test_a_parse_error_names_its_generator(code_221):
    # Counted from 1: an entry out of range in generator 3, and a header
    # over F_3 in generator 9, the last, which stays a FieldError.
    texts = [dump_matrix(S) for S in code_221.generators]
    bad = list(texts)
    bad[2] = bad[2].replace("\n1", "\n2", 1)
    with pytest.raises(
        ConstructionError, match="^malformed code document: generator 3: entry out of field range$"
    ):
        code_from_json(_with_generators(code_221, bad))
    bad = list(texts)
    bad[8] = "3" + bad[8][1:]
    with pytest.raises(FieldError, match="^generator 9: matrix header q=3 does not match field q=2$"):
        code_from_json(_with_generators(code_221, bad))


def test_public_flag_refuses_a_chain_that_is_not_nested(F2):
    # Levels of the right dimensions that are not nested: <e2> is not in <e0, e1>.
    e = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    levels = [rowspace(MatrixFq.from_rows(F2, rows)) for rows in ([e[2]], e[:2], e[:3])]
    with pytest.raises(ConstructionError, match="not nested"):
        Flag(levels)
    Flag(rowspace(MatrixFq.from_rows(F2, e[:j])) for j in range(1, 4))


def test_flag_from_generator_prefixes(code_221):
    for S, flag in zip(code_221.generators, code_221.flags):
        assert flag_from_generator(S) == flag
        for j in range(1, code_221.ambient):
            rows, r, pivots = oracle_rref_rows(S.field, S.first_rows(j).row_lists())
            assert (flag[j].basis.row_lists(), flag[j].pivots) == (rows[:r], pivots)


def test_build_deterministic(F2, code_221):
    again = build_code(SandwichParams(F2, 2, 1))
    assert again.generators == code_221.generators


def _paper_layers(params, i):
    """(A[i], B[i]) as row lists, straight from the per-index formula with
    every power taken by field_power."""
    k1, k2, r = params.k1, params.k2, params.r
    eye = lambda size, a: [1 if j == a else 0 for j in range(size)]
    if i == 1:
        A = [[0] * k1 + eye(k1, a) + [0] * r for a in range(k1)]
        B = [[0] * (2 * k1) + eye(r, a) for a in range(r)]
        return A, B
    P = field_power(params.companion(), i - 2).row_lists()
    A = [eye(k1, a) + P[a] for a in range(k1)]
    if i == 2:
        middle = [[1] + [0] * (k2 - 1)] if r else []
        middle += [[0] * (k1 + 1) + eye(r - 1, a) for a in range(r - 1)]
    else:
        middle = P[k1:]
    return A, [[0] * k1 + row for row in middle]


# Every (q, k1, r) with k1 <= 4 and at most 128 codewords beyond the first:
# all r < k1 over F_2, and the small ones over F_3, F_4 and F_5.
DIFFERENTIAL_PARAMS = [
    (q, k1, r)
    for q in (2, 3, 4, 5)
    for k1 in (2, 3, 4)
    for r in range(k1)
    if q ** (k1 + r) <= 128
]


@pytest.mark.parametrize("q,k1,r", DIFFERENTIAL_PARAMS)
def test_layers_match_the_paper_formula(q, k1, r):
    params = SandwichParams(field_from_order(q), k1, r)
    M = params.companion()
    assert len(params.powers) == q**params.k2
    for e, power in enumerate(params.powers):
        assert power == field_power(M, e)
    N = params.num_generators
    paper = {i: _paper_layers(params, i) for i in range(1, N + 1)}
    # build_code builds each upper block once and stacks it twice.
    generators = build_code(params).generators
    for i, (A, B) in paper.items():
        assert layer_A(params, i).row_lists() == A
        if r:
            assert layer_B(params, i).row_lists() == B
        else:
            assert layer_B(params, i) is None
        A_next = paper[i % N + 1][0]
        assert layer_S(params, i).row_lists() == A + B + A_next
        assert generators[i - 1] == layer_S(params, i)


def test_layers_take_no_matrix_power(F3, monkeypatch):
    import flagcodes.construction as construction

    params = SandwichParams(F3, 2, 1)

    def forbidden(*args):
        raise AssertionError("per-index power")

    monkeypatch.setattr(construction, "field_power", forbidden)
    monkeypatch.setattr(construction, "matrix_power", forbidden)
    for i in range(1, params.num_generators + 1):
        layer_A(params, i)
        layer_B(params, i)
        layer_S(params, i)


# sha256 of code_to_json for (p, m, modulus, k1, r): the benchmark grid, an
# r = 3 code, and F_8 over x^3 + x + 1 (the default modulus is x^3 + x^2 + 1).
CODE_JSON_SHA256 = {
    (2, 1, None, 3, 2): "7d5201d58628032696cdbaec95ede24d3461ce8176ba581c7f91f702e3e1f115",
    (2, 1, None, 4, 2): "e474a7d235d5bf0b4b1e0b72a70232534d69d922c781d42eb5c77b3bfc194515",
    (3, 1, None, 3, 1): "c6c17c77644c01466344c77010a58458e5cff951ac17ce76f9e188474f44f2b3",
    (2, 2, None, 3, 0): "077906b32974526eaacf79b2a7f70e95216b971f7e249c6e1249c80ac8e454bc",
    (2, 1, None, 4, 3): "97220a1031cbf5df6a36c2119b78c8618cb072f713c4a36e2acb71d3cdac24ae",
    (2, 3, (1, 1, 0, 1), 2, 0): "befeab99bdb180f156d251ffce223690a9302c54ee8b74411f2bf782637ce685",
}


@pytest.mark.parametrize("p,m,modulus,k1,r", list(CODE_JSON_SHA256))
def test_construction_is_pinned(p, m, modulus, k1, r):
    code = build_code(SandwichParams(field_new(p, m, modulus), k1, r))
    digest = hashlib.sha256(code_to_json(code).encode()).hexdigest()
    assert digest == CODE_JSON_SHA256[p, m, modulus, k1, r]
