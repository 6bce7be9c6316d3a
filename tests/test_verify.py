from flagcodes.construction import FlagCode
from flagcodes.verify import (
    FAIL,
    PASS,
    SKIPPED,
    expected_projected_distances,
    verify_code,
)


def _statuses(results):
    return {r.name: r.status for r in results}


def test_verify_221_all_pass(code_221):
    statuses = _statuses(verify_code(code_221))
    assert all(s == PASS for s in statuses.values()), statuses


def test_verify_232_within_default_cap(code_232):
    # [8,3]_2 = 1395 candidate subspaces, inside the default cap
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
