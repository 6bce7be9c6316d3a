import itertools
import math
import random

import pytest

import flagcodes.metrics
from flagcodes import MatrixFq, SandwichParams, build_code, field_new
from flagcodes.construction import flag_from_generator
from flagcodes.linalg import (
    LinAlgError,
    Subspace,
    enumerate_subspaces,
    intersect_dim,
    sum_dim,
)
from flagcodes.metrics import (
    MetricsError,
    _below_by_incidence,
    aq_exact,
    cardinality_bound_check,
    classify,
    flag_distance,
    max_distance,
    min_flag_distance,
    pairwise_sweep,
    partial_spread_bound,
    projected_code,
    projected_min_distance,
    subspace_distance,
)
from flagcodes.verify import (
    PASS,
    check_distance_profile,
    check_distance_sum_identity,
    check_spread_disjoint,
    verify_code,
)
from conftest import perturbed_flags, shared_level_flags, three_flags_f2_7


def test_subspace_distance_equal(example_flags):
    f1 = example_flags[0]
    assert subspace_distance(f1[2], f1[2]) == 0


def test_subspace_distance_example_levels(example_flags):
    f1, f2, _ = example_flags
    # per-level distances of the first flag pair: 0, 2, 4, 6, 4, 2
    per_level = [subspace_distance(f1[i], f2[i]) for i in range(1, 7)]
    assert per_level == [0, 2, 4, 6, 4, 2]


def test_flag_distances_example(example_flags):
    f1, f2, f3 = example_flags
    assert flag_distance(f1, f2) == 18
    assert flag_distance(f2, f3) == 18
    assert flag_distance(f1, f3) == 24
    assert flag_distance(f1, f1) == 0


def test_min_flag_distance_example(example_flags):
    assert min_flag_distance(example_flags) == 18


def test_min_flag_distance_singleton(example_flags):
    assert min_flag_distance(example_flags[:1]) == 0


def test_min_flag_distance_empty():
    with pytest.raises(MetricsError):
        min_flag_distance([])


def test_projected_code_and_the_sweep_reject_an_empty_flag_list():
    with pytest.raises(MetricsError, match="empty flag list"):
        projected_code([], 1)
    with pytest.raises(MetricsError, match="empty flag list"):
        pairwise_sweep([])


def test_max_distance_full():
    assert max_distance(7) == 24
    assert max_distance(5) == 12
    assert max_distance(8) == 32


def test_max_distance_full_type_is_the_closed_form():
    # The sum over the full type, for small n; a huge n takes no loop.
    for n in range(40):
        assert max_distance(n) == 2 * sum(min(t, n - t) for t in range(1, n))
    assert max_distance(10**100) == 10**200 // 2


def test_example_projected_cardinalities(example_flags):
    cards = [len(projected_code(example_flags, i)) for i in range(1, 7)]
    assert cards == [2, 3, 3, 3, 3, 2]


def test_projected_code_index_range(example_flags):
    with pytest.raises(MetricsError):
        projected_code(example_flags, 7)


def test_sandwich_projected_spread_distance(code_221):
    pc = projected_code(code_221, 2)
    assert len(pc) == 9
    assert projected_min_distance(pc) == 4


def test_sandwich_232_projected_distance_profile(code_232):
    profile = [
        projected_min_distance(projected_code(code_232, i)) for i in range(1, 8)
    ]
    assert profile == [2, 4, 6, 6, 6, 4, 2]
    assert sum(profile) == 30 == min_flag_distance(code_232)


def test_classify_221_is_odfc(code_221):
    rep = classify(code_221)
    assert rep.classification == "ODFC"
    assert (rep.d_f, rep.D_n, rep.l) == (12, 12, 0)
    assert (rep.L, rep.R) == (2, 3)
    assert rep.projected_cardinalities == (9, 9, 9, 9)
    assert rep.bound_checks["odfc_criterion_agrees"]
    assert rep.bound_checks["projected_distances_maximal"]
    assert rep.bound_checks["projected_cardinalities_full"]


def test_classify_232_is_qodfc(code_232):
    rep = classify(code_232)
    assert rep.classification == "QODFC"
    assert (rep.d_f, rep.D_n, rep.l) == (30, 32, 1)
    assert rep.bound_checks["odfc_criterion_agrees"]


def test_classify_example_flags(example_flags):
    rep = classify(example_flags)
    assert rep.d_f == 18
    assert rep.D_n == 24
    assert rep.l == 3
    assert rep.classification == "OTHER"
    # the deficit sits exactly at l = (n-1)/2, so the full-cardinality
    # check is out of range and reported as None
    assert rep.bound_checks["projected_cardinalities_full"] is None


def test_classify_needs_two_flags(example_flags):
    with pytest.raises(MetricsError):
        classify(example_flags[:1])


def test_partial_spread_bound():
    assert partial_spread_bound(2, 5, 2) == 10
    assert partial_spread_bound(2, 4, 2) == 5
    assert partial_spread_bound(2, 8, 3) == 36


def test_aq_exact():
    assert aq_exact(2, 5, 2) == 9
    assert aq_exact(2, 10, 4) == 65
    assert aq_exact(2, 8, 3) is None  # boundary: k = (q^rem - 1)/(q - 1)


def test_cardinality_bound_equality(code_221):
    report = cardinality_bound_check(code_221)
    assert report["applicable"]
    assert report["bound"] == 9
    assert report["equality"]


def test_cardinality_bound_fallback(code_232):
    # k1 = 3 <= q + 1 = 3: exact bound route inapplicable, partial spread
    # bound 36 holds with slack at most q^2 - 1
    report = cardinality_bound_check(code_232)
    assert report["lemma22_bound"] is None
    assert report["bound"] == 36
    assert report["satisfied"]
    assert 36 - report["cardinality"] <= 3


def test_flag_distance_symmetry_and_triangle(code_221):
    rng = random.Random(3)
    flags = code_221.flags
    for _ in range(50):
        f, g, h = (flags[rng.randrange(len(flags))] for _ in range(3))
        assert flag_distance(f, g) == flag_distance(g, f)
        assert flag_distance(f, h) <= flag_distance(f, g) + flag_distance(g, h)


def _sum_dim_distance(U, V):
    """The oracle: d_S = 2 dim(U + V) - dim U - dim V, by one rank."""
    return 2 * sum_dim(U, V) - U.dim - V.dim


@pytest.mark.parametrize("p,m,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3)])
def test_subspace_distance_matches_the_rank_oracle_on_every_pair(p, m, n):
    # Every pair of subspaces of F_q^n, all dimensions 0..n: equal and
    # unequal, below, at and above n/2 (the point sets of U⊥ above it).
    field = field_new(p, m)
    subs = [U for k in range(n + 1) for U in enumerate_subspaces(field, n, k)]
    for a, U in enumerate(subs):
        for V in subs[a:]:
            assert subspace_distance(U, V) == _sum_dim_distance(U, V), (U.basis, V.basis)


def test_subspace_distance_rejects_mixed_ambients(F2, F4):
    with pytest.raises(LinAlgError):
        subspace_distance(Subspace.zero(F2, 3), Subspace.zero(F2, 4))
    with pytest.raises(LinAlgError):
        subspace_distance(Subspace.full(F2, 2), Subspace.full(F4, 2))


def _shared_level_flags():
    """Flags of F_3^4 from reordered unit vectors, so that several share
    their 1- and 2-dimensional subspaces."""
    field = field_new(3)
    e = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    orders = [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (3, 2, 1, 0)]
    flags = [
        flag_from_generator(MatrixFq.from_rows(field, [e[i] for i in o])) for o in orders
    ]
    skew = MatrixFq.from_rows(field, [[1, 2, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2], e[3]])
    return flags + [flag_from_generator(skew)]


def _second_holder_flags():
    """Flags A, B, C of F_2^4 from reordered unit vectors. A and B share V_2,
    and C's V_2 meets it in a point; B and C share V_1 and V_3. So the
    closest pair (B, C), at distance 2, owes a below-maximum deficit at
    level 2 through the second flag holding V_2."""
    field = field_new(2)
    e = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    orders = [(1, 0, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3)]
    return [flag_from_generator(MatrixFq.from_rows(field, [e[i] for i in o])) for o in orders]


# Seeded flag lists in which many pairs of i-th subspaces are equal or meet:
# name -> (field order (p, m), n, the levels whose V_i some flags share).
GENERATED = {
    "shared-F2": ((2, 1), 6, (2, 3, 5)),
    "shared-F3": ((3, 1), 5, (1, 3)),
    "shared-F4": ((2, 2), 4, (2,)),
    "perturbed-F2": ((2, 1), 6, None),
    "perturbed-F3": ((3, 1), 5, None),
    "perturbed-F4": ((2, 2), 4, None),
}


def _generated_flags(name):
    (p, m), n, levels = GENERATED[name]
    rng = random.Random(name)
    if levels is None:
        return perturbed_flags(field_new(p, m), n, 16, rng)
    return shared_level_flags(field_new(p, m), n, 16, levels, rng)


def _shared_v2_flags():
    """The 31 flags of F_2^7 with V_1 = <e1> and V_2 = <e1, e2> whose V_3 is
    V_2 + <v> for each nonzero v of <e3, ..., e7>: all 31 level-3 members
    hold the 3 points of V_2, so the pairs within the points' holder lists
    (3 C(31, 2)) outnumber the members' pairs."""
    field = field_new(2)
    e = [[int(j == i) for j in range(7)] for i in range(7)]
    flags = []
    for x in range(1, 32):
        v = [0, 0] + [x >> (4 - j) & 1 for j in range(5)]
        lead = v.index(1)
        rows = [e[0], e[1], v] + [e[j] for j in range(2, 7) if j != lead]
        flags.append(flag_from_generator(MatrixFq.from_rows(field, rows)))
    return flags


def _case_flags(case):
    if case == "example":
        return three_flags_f2_7()
    if case == "shared-V2":
        return _shared_v2_flags()
    if case == "shared-levels":
        return _shared_level_flags()
    if case == "second-holder":
        return _second_holder_flags()
    if case in GENERATED:
        return _generated_flags(case)
    q, k1, r = case
    return build_code(SandwichParams(field_new(q), k1, r)).flags


def _oracle_projected(flags, i):
    """(below, of_flag, maximum) of level i, by one subspace_distance per
    pair of distinct i-th subspaces."""
    distinct = list(dict.fromkeys(f[i] for f in flags))
    n = flags[0].ambient
    maximum = 2 * min(i, n - i)
    below = {}
    for (a, U), (b, V) in itertools.combinations(enumerate(distinct), 2):
        d = subspace_distance(U, V)
        if d < maximum:
            below[a, b] = d
    return below, tuple(distinct.index(f[i]) for f in flags), maximum


def _apart(flags, i):
    """Whether every flag has its own i-th subspace and no pair of them is
    below the level maximum, by the pair oracle."""
    below, of_flag, _ = _oracle_projected(flags, i)
    return not below and len(set(of_flag)) == len(flags)


def _outward_levels(flags):
    """The levels pairwise_sweep should hand to projected_code: on each side
    of the middle, outward up to and including the first apart level."""
    n = flags[0].ambient
    levels = []
    for side in (range(n // 2, 0, -1), range((n + 1) // 2, n)):
        for i in side:
            if i not in levels:
                levels.append(i)
            if _apart(flags, i):
                break
    return levels


def _path(flags, i):
    """The path projected_code should take at level i: "pairs" when the
    point entries reach the members' pairs, else "index"."""
    sets = [U.distance_points for U in dict.fromkeys(f[i] for f in flags)]
    return "pairs" if sum(map(len, sets)) >= math.comb(len(sets), 2) else "index"


# Levels whose path is pinned: (2,2,0) level 2 has 15 point entries against
# 10 pairs; shared-V2 level 3 and (2,3,2) level 4 take the index.
PINNED_PATHS = {(2, 2, 0): {2: "pairs"}, "shared-V2": {3: "index"}, (2, 3, 2): {4: "index"}}

# Levels whose computation is pinned: (2,3,2) level 4 meets while levels 3
# and 5 are apart, so levels 1, 2, 6 and 7 skip projected_code; no level of
# shared-F2 or perturbed-F3 is apart before the last of its side.
PINNED_LEVELS = {
    (2, 3, 2): [4, 3, 5],
    "shared-F2": [3, 2, 1, 4, 5],
    "perturbed-F3": [2, 1, 3, 4],
}


def _record_levels(monkeypatch):
    """The levels handed to metrics.projected_code, in order."""
    levels = []
    real = flagcodes.metrics.projected_code

    def recording(code, i):
        levels.append(i)
        return real(code, i)

    monkeypatch.setattr(flagcodes.metrics, "projected_code", recording)
    return levels


def _count_distance_calls(monkeypatch):
    calls = []
    real = flagcodes.metrics.subspace_distance

    def counting(U, V):
        calls.append(1)
        return real(U, V)

    monkeypatch.setattr(flagcodes.metrics, "subspace_distance", counting)
    return calls


@pytest.mark.parametrize(
    "case",
    [
        (2, 2, 0),
        (2, 2, 1),
        (2, 3, 2),
        (3, 2, 1),
        "example",
        "shared-levels",
        "second-holder",
        "shared-V2",
        *GENERATED,
    ],
    ids=str,
)
def test_pairwise_sweep_matches_the_oracles(case, monkeypatch):
    flags = _case_flags(case)
    n = flags[0].ambient
    for i, path in PINNED_PATHS.get(case, {}).items():
        assert _path(flags, i) == path
    calls = _count_distance_calls(monkeypatch)
    levels = _record_levels(monkeypatch)
    sweep = pairwise_sweep(flags)
    monkeypatch.undo()
    assert levels == PINNED_LEVELS.get(case, levels) == _outward_levels(flags)
    # On a computed level the pair loop makes one subspace_distance per
    # pair, the index none; a level beyond an apart one makes none.
    assert len(calls) == sum(
        math.comb(len(sweep.projected[i - 1]), 2) for i in levels if _path(flags, i) == "pairs"
    )
    pairs = list(itertools.combinations(range(len(flags)), 2))
    assert sweep.d_f == min(flag_distance(flags[a], flags[b]) for a, b in pairs)
    for i in range(1, n):
        swept = sweep.projected[i - 1]
        assert swept.index == i
        assert (dict(swept.below), swept.of_flag, swept.maximum) == _oracle_projected(flags, i)
        distinct = list(dict.fromkeys(f[i] for f in flags))
        brute = min(
            (subspace_distance(U, V) for U, V in itertools.combinations(distinct, 2)),
            default=0,
        )
        pc = projected_code(flags, i)
        assert sweep.projected_distances[i - 1] == projected_min_distance(pc) == brute
        assert len(swept) == len(pc) == len(distinct)
        for a, b in pairs:
            d = swept.distance(swept.of_flag[a], swept.of_flag[b])
            assert d == subspace_distance(flags[a][i], flags[b][i])
            assert d == _sum_dim_distance(flags[a][i], flags[b][i])
        meeting = next(
            ((a + 1, b + 1) for a, b in pairs if intersect_dim(flags[a][i], flags[b][i])),
            None,
        )
        assert swept.meeting_pair() == meeting


def test_the_incidence_index_keeps_every_sharing_pair():
    # Every two and three of the 35 lines of PG(3, 2): skew lines share no
    # point and meeting lines exactly one, so some families share nothing
    # and some share a single point. The pairs kept are those below the
    # maximum 4 by subspace_distance.
    lines = list(enumerate_subspaces(field_new(2), 4, 2))
    for size in (2, 3):
        for family in itertools.combinations(lines, size):
            want = {}
            for (a, U), (b, V) in itertools.combinations(enumerate(family), 2):
                if (d := subspace_distance(U, V)) < 4:
                    want[a, b] = d
            assert _below_by_incidence([U.distance_points for U in family], 2, 2) == want


@pytest.mark.parametrize("name", GENERATED)
def test_generated_flags_owe_every_kind_of_deficit(name):
    # Each list has flags sharing an i-th subspace, members below the level
    # maximum, and such a member held by more than one flag, so that every
    # term of the deficit sum in pairwise_sweep is exercised.
    flags = _generated_flags(name)
    assert len(flags) >= 8
    sweep = pairwise_sweep(flags)
    assert any(len(pc) < len(flags) for pc in sweep.projected)
    assert any(pc.below for pc in sweep.projected)
    assert any(
        pc.of_flag.count(a) > 1 or pc.of_flag.count(b) > 1
        for pc in sweep.projected
        for a, b in pc.below
    )


def test_an_apart_level_up_to_the_middle_compares_no_pair(code_232, monkeypatch):
    # (2,3,2), n = 8: levels 1 .. 3 and 5 .. 7 have every flag its own
    # member and no pair below the maximum. Up to the middle that maximum is
    # 2i, so no pair meets and none is compared; above it every pair is at
    # 2(n - i) < 2i, and the first pair meets.
    projected = pairwise_sweep(code_232).projected
    calls = []
    distance = flagcodes.metrics.ProjectedCode.distance
    monkeypatch.setattr(
        flagcodes.metrics.ProjectedCode,
        "distance",
        lambda pc, a, b: calls.append((a, b)) or distance(pc, a, b),
    )
    for i in (1, 2, 3):
        assert projected[i - 1].meeting_pair() is None
    assert calls == []
    for i in (5, 6, 7):
        assert projected[i - 1].meeting_pair() == (1, 2)
    assert len(calls) == 3


def test_shared_level_flags_have_short_projections():
    cards = [len(projected_code(_shared_level_flags(), i)) for i in range(1, 4)]
    assert cards == [4, 3, 4]


def test_min_flag_distance_rejects_mixed_ambients(example_flags, code_221):
    with pytest.raises(MetricsError):
        min_flag_distance([example_flags[0], code_221.flags[0]])


def test_min_flag_distance_rejects_mixed_fields(code_221, code_321):
    # Point integers of F_2^5 and F_3^5 may coincide, so on the index path
    # only the one-space check keeps them apart.
    flags = code_221.flags + code_321.flags
    assert all(_path(flags, i) == "index" for i in range(1, 5))
    with pytest.raises(LinAlgError, match="different ambient spaces"):
        min_flag_distance(flags)


def test_report_and_verify_share_one_sweep(monkeypatch):
    code = build_code(SandwichParams(field_new(2), 2, 1))
    levels = _record_levels(monkeypatch)
    classify(code)
    # n = 5: the middle levels 2 and 3 are apart, so levels 1 and 4 are built
    # without a projected_code call
    assert levels == [2, 3]
    checks = [check_spread_disjoint, check_distance_profile, check_distance_sum_identity]
    assert all(check(code).status == PASS for check in checks)
    assert all(r.status == PASS for r in verify_code(code))
    assert min_flag_distance(code) == 12
    assert levels == [2, 3]


@pytest.mark.parametrize(
    "p, m, k1, r, levels",
    [
        (2, 1, 3, 2, [4, 3, 5]),
        (2, 1, 4, 2, [5, 4, 6]),
        (3, 1, 3, 1, [3, 4]),
        (2, 2, 3, 0, [3]),
        (2, 1, 2, 0, [2]),
        (2, 1, 2, 1, [2, 3]),
    ],
    ids=["2-3-2", "2-4-2", "3-3-1", "F4-3-0", "2-2-0", "2-2-1"],
)
def test_pairwise_sweep_computes_levels_outward_from_the_middle(
    p, m, k1, r, levels, monkeypatch
):
    code = build_code(SandwichParams(field_new(p, m), k1, r))
    computed = _record_levels(monkeypatch)
    sweep = pairwise_sweep(code)
    monkeypatch.undo()
    assert computed == levels
    # A level built without projected_code is the one it would return.
    n = code.flags[0].ambient
    assert sweep.projected == tuple(projected_code(code, i) for i in range(1, n))
