"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import random
import time

from flagcodes import (
    MatrixFq,
    SandwichParams,
    build_code,
    classify,
    correctable_budget,
    decode,
    enumerate_subspaces,
    erase,
    field_new,
    flag_distance,
    gaussian_binomial,
    intersect_dim,
    max_distance,
    min_flag_distance,
    projected_code,
    projected_min_distance,
    rank,
    rowspace,
    rref,
    sum_dim,
    verify_code,
)
from flagcodes.decoder import DECODED, _trial_rng, random_erasure_vector
from flagcodes.fields import field_from_order
from flagcodes.metrics import aq_exact, partial_spread_bound
from flagcodes.verify import PASS, spread_holes
from conftest import three_flags_f2_7


def _report(name, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


# criterion 2 build matrix: (q, k1, r) -> expected classification
MATRIX = [
    (2, 2, 0, "ODFC"),
    (2, 2, 1, "ODFC"),
    (2, 3, 0, "ODFC"),
    (2, 3, 1, "ODFC"),
    (2, 3, 2, "QODFC"),
    (2, 4, 0, "ODFC"),
    (2, 4, 1, "ODFC"),
    (2, 4, 2, "QODFC"),
    (2, 4, 3, "OTHER"),
    (3, 2, 0, "ODFC"),
    (3, 2, 1, "ODFC"),
]

# The matrix and the rest of the north-star grid: (3,3,1) and F_4 with (3,0).
GRID = [(q, k1, r) for q, k1, r, _ in MATRIX] + [(3, 3, 1), (4, 3, 0)]

_codes = {}


def _get_code(q, k1, r):
    key = (q, k1, r)
    if key not in _codes:
        _codes[key] = build_code(SandwichParams(field_from_order(q), k1, r))
    return _codes[key]


def test_criterion_1_example_regression():
    started = time.time()
    f1, f2, f3 = three_flags_f2_7()
    assert flag_distance(f1, f2) == 18
    assert flag_distance(f2, f3) == 18
    assert flag_distance(f1, f3) == 24
    assert min_flag_distance([f1, f2, f3]) == 18
    assert max_distance(7) == 24
    assert len(projected_code([f1, f2, f3], 1)) == 2
    assert len(projected_code([f1, f2, f3], 6)) == 2
    _report("criterion 1: worked three-flag example in F_2^7", started, 1.0)


def test_criterion_2_construction_matrix():
    started = time.time()
    for q, k1, r, expected_class in MATRIX:
        code = _get_code(q, k1, r)
        n = 2 * k1 + r
        k2 = k1 + r
        assert len(code) == q**k2 + 1, (q, k1, r)
        report = classify(code)
        assert report.d_f == (n * n - r * r) // 2, (q, k1, r)
        assert report.classification == expected_class, (q, k1, r)
        assert report.l == (max_distance(n) - report.d_f) // 2
    largest = _get_code(2, 4, 3)
    assert len(largest) == 129
    assert largest.ambient == 11
    assert min_flag_distance(largest) == 56
    _report("criterion 2: construction matrix (11 parameter sets)", started, 60.0)


def test_criterion_3_partial_spread_oracle():
    started = time.time()
    code = _get_code(2, 2, 1)
    members = {flag[2] for flag in code.flags}
    assert len(members) == 9
    all_planes = list(enumerate_subspaces(field_new(2), 5, 2))
    assert len(all_planes) == 155
    for plane in all_planes:
        if plane in members:
            assert all(
                intersect_dim(plane, m) == 0 for m in members if m != plane
            )
        else:
            assert any(intersect_dim(plane, m) > 0 for m in members)
    _report("criterion 3: maximal partial spread over all 155 planes", started, 1.0)


def test_spread_holes_closed_form():
    started = time.time()
    for q, k1, r in GRID:
        # q^k1 (q^r - 1)/(q - 1): none when r = 0, where the spread is full.
        assert len(spread_holes(_get_code(q, k1, r))) == q**k1 * (q**r - 1) // (q - 1)
    _report("hole count q^k1 (q^r - 1)/(q - 1) on the grid", started, 10.0)


def test_verify_all_pass_on_the_grid():
    started = time.time()
    for q, k1, r in GRID:
        code_started = time.time()
        results = verify_code(_get_code(q, k1, r))
        assert all(c.status == PASS for c in results), ((q, k1, r), results)
        _report(f"verify_code on ({q},{k1},{r})", code_started, 10.0)
    _report("verify_code all PASS, none SKIPPED, on the grid", started, 60.0)


def test_criterion_4_projected_distance_profile():
    started = time.time()
    code = _get_code(2, 3, 2)
    profile = tuple(
        projected_min_distance(projected_code(code, i)) for i in range(1, 8)
    )
    assert profile == (2, 4, 6, 6, 6, 4, 2)
    assert sum(profile) == 30 == min_flag_distance(code)
    _report("criterion 4: projected distance profile and distance-sum identity", started, 10.0)


def test_criterion_5_bounds():
    started = time.time()
    assert aq_exact(2, 5, 2) == 9 == len(_get_code(2, 2, 1))
    assert aq_exact(2, 10, 4) == 65 == len(_get_code(2, 4, 2))
    code_232 = _get_code(2, 3, 2)
    bound = partial_spread_bound(2, 8, 3)
    assert bound == 36
    assert len(code_232) == 33 <= bound
    assert bound - len(code_232) <= 2**2 - 1
    _report("criterion 5: cardinality bounds and equalities", started, 5.0)


def test_criterion_6_decoder_exhaustive():
    started = time.time()
    code = _get_code(2, 2, 1)
    budget = correctable_budget(code)
    assert budget == 5
    vectors = [
        e
        for e in itertools.product(range(2), range(3), range(4), range(5))
        if sum(e) <= budget
    ]
    failures = 0
    for idx, flag in enumerate(code.flags, start=1):
        for vec in vectors:
            received = erase(flag, vec, seed=idx * 7919 + sum(vec))
            outcome = decode(code, received)
            if outcome.status != DECODED or outcome.flag_index != idx:
                failures += 1
    assert failures == 0
    _report(
        f"criterion 6: exhaustive round-trip, {len(code.flags) * len(vectors)} cases",
        started,
        120.0,
    )


def test_criterion_7_decoder_randomized():
    started = time.time()
    code = _get_code(2, 3, 2)
    budget = correctable_budget(code)
    assert budget == 14
    trials = 1000
    successes = 0
    step3_trials = 0
    for trial in range(trials):
        rng = _trial_rng(20250823, trial)
        sent_idx = rng.randrange(len(code.flags))
        vec = random_erasure_vector(code.ambient, budget, rng)
        received = erase(code.flags[sent_idx], vec, rng)
        outcome = decode(code, received)
        if outcome.status == DECODED and outcome.flag_index == sent_idx + 1:
            successes += 1
        if outcome.step == 3:
            # a trial past steps 1-2 found its triggering index, as promised
            step3_trials += 1
            assert outcome.shot_index > code.params.k2
    assert successes == trials
    _report(
        f"criterion 7: {trials} randomized trials ({step3_trials} via step 3)",
        started,
        30.0,
    )


def test_criterion_8_property_suites():
    started = time.time()
    # field axioms, exhaustive for every prime power q <= 9
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        F = field_new(p, m)
        els = list(F.elements())
        for a in els:
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    # RREF idempotence and row-space canonicity over random matrices
    rng = random.Random(2024)
    fields = [field_new(2), field_new(3), field_new(2, 2)]
    for _ in range(1000):
        F = rng.choice(fields)
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        A = MatrixFq(F, rows, cols, [rng.randrange(F.q) for _ in range(rows * cols)])
        R, rk, _ = rref(A)
        R2, rk2, _ = rref(R)
        assert R2 == R and rk2 == rk
        while True:
            T = MatrixFq(F, rows, rows, [rng.randrange(F.q) for _ in range(rows * rows)])
            if rank(T) == rows:
                break
        assert rowspace(T.matmul(A)) == rowspace(A)

    # modularity over all pairs of 2-subspaces of F_2^4
    planes = list(enumerate_subspaces(field_new(2), 4, 2))
    assert len(planes) == 35 == gaussian_binomial(4, 2, 2)
    for U in planes:
        for V in planes:
            assert sum_dim(U, V) + intersect_dim(U, V) == U.dim + V.dim
    _report("criterion 8: field axioms, RREF properties, dimension formula", started, 60.0)
