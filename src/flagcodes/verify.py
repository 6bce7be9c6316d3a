"""Invariant suite for built codes: everything the construction promises,
checked by brute force at desk scale."""

from __future__ import annotations

from dataclasses import dataclass

from .construction import FlagCode
from .linalg import (
    EnumerationCapExceeded,
    contains,
    enumerate_subspaces,
    intersect_dim,
    rank,
)
from .metrics import pairwise_sweep

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _result(name, ok, detail=""):
    return CheckResult(name, PASS if ok else FAIL, detail)


def expected_projected_distances(code: FlagCode) -> tuple:
    """The constructed profile: 2l rising to 2*k1, a 2*k1 plateau across the
    middle band, then 2*(n-l) falling."""
    p = code.params
    out = []
    for l in range(1, p.n):
        if l <= p.k1:
            out.append(2 * l)
        elif l < p.k2:
            out.append(2 * p.k1)
        else:
            out.append(2 * (p.n - l))
    return tuple(out)


def check_generator_ranks(code: FlagCode) -> CheckResult:
    bad = [i for i, S in enumerate(code.generators, start=1) if rank(S) != code.ambient]
    return _result(
        "generator_ranks", not bad, f"rank-deficient generators at indices {bad}" if bad else ""
    )


def check_flag_nesting(code: FlagCode) -> CheckResult:
    for idx, flag in enumerate(code.flags, start=1):
        for j in range(1, len(flag)):
            lower, upper = flag[j], flag[j + 1]
            if upper.dim != lower.dim + 1 or not contains(upper, lower):
                return CheckResult(
                    "flag_nesting", FAIL, f"flag {idx} breaks nesting at level {j}"
                )
    return CheckResult("flag_nesting", PASS)


def check_spread_disjoint(code: FlagCode) -> CheckResult:
    """Pairwise trivial intersection of the k1-th projected subspaces."""
    pair = pairwise_sweep(code).projected[code.params.k1 - 1].meeting_pair()
    detail = f"members {pair[0]} and {pair[1]} intersect" if pair else ""
    return _result("spread_disjoint", pair is None, detail)


def check_spread_maximal(code: FlagCode, max_enumeration: int = 10**6) -> CheckResult:
    """No k1-subspace of the ambient space is disjoint from every member."""
    p = code.params
    members = {flag[p.k1] for flag in code.flags}
    try:
        candidates = enumerate_subspaces(p.field, p.n, p.k1, max_enumeration)
        for cand in candidates:
            if cand in members:
                continue
            if all(intersect_dim(cand, m) == 0 for m in members):
                return CheckResult(
                    "spread_maximal", FAIL, "found an extendable k1-subspace"
                )
    except EnumerationCapExceeded as exc:
        return CheckResult("spread_maximal", SKIPPED, str(exc))
    return CheckResult("spread_maximal", PASS)


def check_distance_profile(code: FlagCode) -> CheckResult:
    expected = expected_projected_distances(code)
    actual = pairwise_sweep(code).projected_distances
    return _result(
        "distance_profile",
        actual == expected,
        f"expected {expected}, got {actual}" if actual != expected else "",
    )


def check_distance_sum_identity(code: FlagCode) -> CheckResult:
    """Code distance equals the sum of projected-code distances."""
    sweep = pairwise_sweep(code)
    d_f, total = sweep.d_f, sum(sweep.projected_distances)
    return _result(
        "distance_sum_identity",
        d_f == total,
        f"d_f={d_f} but projected sum={total}" if d_f != total else "",
    )


def check_cardinality(code: FlagCode) -> CheckResult:
    want = code.params.num_generators
    distinct = len(set(code.flags))
    ok = len(code.flags) == want == distinct
    return _result(
        "cardinality", ok, f"want {want}, have {len(code.flags)} ({distinct} distinct)"
    )


def verify_code(code: FlagCode, max_enumeration: int = 10**6) -> list:
    """Run the whole suite; PASS/FAIL/SKIPPED per check."""
    return [
        check_cardinality(code),
        check_generator_ranks(code),
        check_flag_nesting(code),
        check_spread_disjoint(code),
        check_spread_maximal(code, max_enumeration),
        check_distance_profile(code),
        check_distance_sum_identity(code),
    ]
