"""Invariant suite for built codes: everything the construction promises,
checked by brute force at desk scale.

Public entry points: `verify_code`, which returns one `CheckResult` (PASS,
FAIL or SKIPPED) a check; the checks themselves (`check_cardinality`,
`check_generator_ranks`, `check_flag_nesting`, `check_spread_disjoint`,
`check_spread_maximal`, `check_distance_profile`,
`check_distance_sum_identity`); `spread_holes`; and
`expected_projected_distances`.

Shared work. Spread disjointness, the distance profile and the
distance-sum identity read the cached `metrics.pairwise_sweep`, the one
`classify` reads, so a loaded code is swept once however many of them run.
`check_spread_disjoint` reads the first meeting pair of the level-k1
projected code, which on a partial spread the point index finds empty with
no per-pair call. `check_flag_nesting` applies `linalg.nests` to each level
pair of each flag: one elimination of the two levels' packed rows stacked.

Spread maximality. The partial spread is maximal iff no k1-subspace
consists of holes, the points of PG(n - 1, q) that no member covers.
`spread_holes` enumerates the points and tests each point integer against
the keys of `construction.level_points(code, k1)`, the decoder's level-k1
table. A pruned search then grows spans of holes one hole at a time
(`_find_hole_subspace`); its table of the q - 1 other points on the line
through each pair of holes comes from `linalg.line_points`. The
enumeration cap bounds the [n, 1]_q points; above it the check is SKIPPED.

The brute-force oracles stay in the tests: a per-pair `subspace_distance`
loop for every projected code, and the Gr_q(n, k1) enumeration for spread
maximality.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

from .construction import FlagCode, level_points
from .fields import FiniteField
from .linalg import EnumerationCapExceeded, enumerate_subspaces, line_points, nests, rank
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
        return asdict(self)


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
            if not nests(flag[j], flag[j + 1]):
                return CheckResult(
                    "flag_nesting", FAIL, f"flag {idx} breaks nesting at level {j}"
                )
    return CheckResult("flag_nesting", PASS)


def check_spread_disjoint(code: FlagCode) -> CheckResult:
    """Pairwise trivial intersection of the k1-th projected subspaces."""
    pair = pairwise_sweep(code).projected[code.params.k1 - 1].meeting_pair()
    detail = f"members {pair[0]} and {pair[1]} intersect" if pair else ""
    return _result("spread_disjoint", pair is None, detail)


def spread_holes(code: FlagCode, max_enumeration: int = 10**6) -> list:
    """The holes of the k1-level partial spread: the points of PG(n-1, q)
    that no member covers, as their packed integers in enumeration order.

    A point P is covered iff its integer `P.packed[0]` is a key of
    `construction.level_points` at level k1, the table the decoder looks
    its level-k1 triggers up in.
    Raises EnumerationCapExceeded when the [n,1]_q points exceed the cap.
    """
    p = code.params
    covered = level_points(code, p.k1)
    points = enumerate_subspaces(p.field, p.n, 1, max_enumeration)
    return [x for P in points if (x := P.packed[0]) not in covered]


def _find_hole_subspace(field: FiniteField, n: int, holes: list, k: int):
    """Packed rows of some k-subspace of F_q^n whose points are all holes, or None.

    A span grows one hole at a time, and only by a hole h with a larger
    index than the last one chosen whose new points are all holes with an
    index of at least h's. Then h is the first point of the grown span
    outside the old one, so each span is reached by one sequence of choices
    and visited once. A hole is tried only while enough holes follow it to
    complete a k-subspace.
    """
    q = field.q
    index = {v: i for i, v in enumerate(holes)}
    # others[i][j]: the q - 1 points on the line through holes i and j other
    # than those two, as hole indices in increasing order (-1, first, for a
    # point that is no hole), so its lowest index is its first. The diagonal
    # reads as no hole, so a hole already in a span cannot extend it.
    others = [[(-1,)] * len(holes) for _ in holes]
    pairs, no_hole = itertools.combinations(range(len(holes)), 2), itertools.repeat(-1)
    for (i, j), line in zip(pairs, line_points(field, n, holes)):
        others[i][j] = others[j][i] = tuple(sorted(map(index.get, line, no_hole)))

    def grow(points, chosen):
        # The points of span(chosen) + <h> outside span(chosen) are h and
        # the others on the lines from h to each point of span(chosen).
        needed = (q**k - q ** len(chosen)) // (q - 1)  # points still missing
        for h in range(chosen[-1] + 1 if chosen else 0, len(holes) - needed + 1):
            row, new = others[h], [h]
            for s in points:
                if row[s][0] < h:
                    break
                new.extend(row[s])
            else:
                if len(chosen) + 1 == k:
                    return chosen + [h]
                found = grow(points + new, chosen + [h])
                if found:
                    return found
        return None

    found = grow([], [])
    del grow  # its closure holds grow itself, a cycle that would keep `others` alive
    return [holes[i] for i in found] if found else None


def check_spread_maximal(code: FlagCode, max_enumeration: int = 10**6) -> CheckResult:
    """No k1-subspace of the ambient space is disjoint from every member,
    i.e. the holes (the points no member covers) contain no k1-subspace.

    `max_enumeration` caps the points of PG(n-1, q) enumerated; above it
    the check is SKIPPED.
    """
    try:
        holes = spread_holes(code, max_enumeration)
    except EnumerationCapExceeded as exc:
        return CheckResult("spread_maximal", SKIPPED, str(exc))
    if _find_hole_subspace(code.params.field, code.params.n, holes, code.params.k1):
        return CheckResult("spread_maximal", FAIL, "found an extendable k1-subspace")
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
