import gc
import itertools

import pytest

from flagcodes import MatrixFq, SandwichParams, build_code, field_new, rowspace
from flagcodes.construction import ConstructionError, Flag, FlagCode
from flagcodes.linalg import (
    Subspace,
    contains,
    enumerate_subspaces,
    intersect_dim,
    line_points,
    points,
    subspace_sum,
)
from flagcodes.verify import (
    FAIL,
    PASS,
    SKIPPED,
    _find_hole_subspace,
    check_flag_nesting,
    check_spread_maximal,
    expected_projected_distances,
    spread_holes,
    verify_code,
)


def _statuses(results):
    return {r.name: r.status for r in results}


def oracle_spread_maximal(code):
    """Maximality by brute force over every k1-subspace of F_q^n: PASS iff
    none but a member is disjoint from every member."""
    p = code.params
    members = {flag[p.k1] for flag in code.flags}
    for cand in enumerate_subspaces(p.field, p.n, p.k1):
        if cand not in members and all(intersect_dim(m, cand) == 0 for m in members):
            return FAIL
    return PASS


def _without_last_flag(code):
    return FlagCode(code.params, code.generators[:-1], code.flags[:-1])


def _with_duplicate_codeword(code):
    return FlagCode(
        code.params,
        code.generators[:-1] + code.generators[:1],
        code.flags[:-1] + code.flags[:1],
    )


# (p, m, k1, r) over F_{p^m}, named q-k1-r.
HOLE_SET_CODES = [
    (2, 1, 2, 1),
    (2, 1, 3, 1),
    (3, 1, 2, 0),
    (3, 1, 2, 1),
    (2, 1, 3, 2),
    (2, 2, 2, 0),
    (5, 1, 2, 0),
    (7, 1, 2, 0),
    (2, 3, 2, 0),
    (3, 2, 2, 0),
]


@pytest.mark.parametrize(
    "p, m, k1, r", HOLE_SET_CODES, ids=[f"{p**m}-{k1}-{r}" for p, m, k1, r in HOLE_SET_CODES]
)
def test_hole_set_maximality_matches_the_oracle(p, m, k1, r):
    code = build_code(SandwichParams(field_new(p, m), k1, r))
    assert check_spread_maximal(code).status == oracle_spread_maximal(code) == PASS
    for broken in (_without_last_flag(code), _with_duplicate_codeword(code)):
        result = check_spread_maximal(broken)
        assert result.status == oracle_spread_maximal(broken) == FAIL
        assert result.detail == "found an extendable k1-subspace"
        # The subspace found lies in the holes: it meets no member.
        field, n = code.params.field, code.params.n
        basis = _find_hole_subspace(field, n, spread_holes(broken), k1)
        found = rowspace(MatrixFq._from_packed(field, n, tuple(basis)))
        assert found.dim == k1
        assert all(intersect_dim(found, flag[k1]) == 0 for flag in broken.flags)


@pytest.mark.parametrize(
    "p, m, k1, r", HOLE_SET_CODES, ids=[f"{p**m}-{k1}-{r}" for p, m, k1, r in HOLE_SET_CODES]
)
def test_hole_lines_are_the_points_of_each_pair_span(p, m, k1, r):
    # The holes of a spread short of one member: those of the code and the
    # points of the member taken out, so a code with r = 0 has holes too.
    code = _without_last_flag(build_code(SandwichParams(field_new(p, m), k1, r)))
    field, n = code.params.field, code.params.n
    holes = spread_holes(code)
    point = {P.packed[0]: P for P in enumerate_subspaces(field, n, 1)}
    lines = list(line_points(field, n, holes))
    assert len(lines) == len(holes) * (len(holes) - 1) // 2
    for (a, b), line in zip(itertools.combinations(holes, 2), lines):
        assert len(line) == field.q - 1
        assert set(line) == set(points(subspace_sum(point[a], point[b]))) - {a, b}


def test_a_hole_search_leaves_no_reference_cycle():
    # With the collector off, one maximality check of (2,4,2), which finds
    # no hole subspace among its 48 holes, and one of the code short of a
    # member, which finds one, leave nothing for a collection to free.
    code = build_code(SandwichParams(field_new(2), 4, 2))
    gc.collect()
    gc.disable()
    try:
        assert check_spread_maximal(code).status == PASS
        assert gc.collect() == 0
        assert check_spread_maximal(_without_last_flag(code)).status == FAIL
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_verify_221_all_pass(code_221):
    statuses = _statuses(verify_code(code_221))
    assert all(s == PASS for s in statuses.values()), statuses


def test_verify_232_within_default_cap(code_232):
    # [8,1]_2 = 255 points of PG(7,2), inside the default cap
    statuses = _statuses(verify_code(code_232))
    assert statuses["spread_maximal"] == PASS
    assert all(s == PASS for s in statuses.values())


def test_verify_cap_skips_maximality(code_232):
    statuses = _statuses(verify_code(code_232, max_enumeration=100))
    assert statuses["spread_maximal"] == SKIPPED
    others = {k: v for k, v in statuses.items() if k != "spread_maximal"}
    assert all(s == PASS for s in others.values())


def test_expected_profile(code_232):
    assert expected_projected_distances(code_232) == (2, 4, 6, 6, 6, 4, 2)


def test_verify_flags_duplicate_codeword(code_221):
    doctored = FlagCode(
        code_221.params,
        code_221.generators[:-1] + code_221.generators[:1],
        code_221.flags[:-1] + code_221.flags[:1],
    )
    results = {r.name: r for r in verify_code(doctored)}
    assert results["cardinality"].status == FAIL
    assert results["spread_disjoint"].status == FAIL
    assert results["spread_disjoint"].detail == "members 1 and 9 intersect"


def test_verify_fails_a_flag_with_a_level_from_another_flag(code_221):
    # The trusted flag path checks no nesting, so verify must: flag 1 with
    # flag 2's point at level 1 is not nested, as the two level-2 spread
    # members are disjoint.
    swapped = Flag._nested((code_221.flags[1][1],) + code_221.flags[0].subspaces[1:])
    doctored = FlagCode(
        code_221.params, code_221.generators, (swapped,) + code_221.flags[1:]
    )
    results = {r.name: r for r in verify_code(doctored)}
    assert results["flag_nesting"].status == FAIL
    assert results["flag_nesting"].detail == "flag 1 breaks nesting at level 1"
    assert _statuses(verify_code(code_221))["flag_nesting"] == PASS


@pytest.mark.parametrize("code_name", ["code_321", "code_f4_21"])
def test_verify_fails_a_flag_broken_at_each_level(code_name, request):
    # Level j of flag 1 becomes level j - 1 plus a point outside level
    # j + 1: the pair (j - 1, j) stays nested, so the first break is at j.
    code = request.getfixturevalue(code_name)
    field, n = code.params.field, code.params.n
    flag = code.flags[0]
    assert check_flag_nesting(code).status == PASS
    for j in range(1, n - 1):
        outside = next(P for P in enumerate_subspaces(field, n, 1) if not contains(flag[j + 1], P))
        below = flag[j - 1] if j > 1 else Subspace.zero(field, n)
        levels = flag.subspaces[: j - 1] + (subspace_sum(below, outside),) + flag.subspaces[j:]
        doctored = FlagCode(code.params, code.generators, (Flag._nested(levels),) + code.flags[1:])
        result = check_flag_nesting(doctored)
        assert (result.status, result.detail) == (FAIL, f"flag 1 breaks nesting at level {j}")
        with pytest.raises(ConstructionError, match="flag subspaces are not nested"):
            Flag(levels)
