"""Distances, projected codes, ODFC/QODFC classification, and size bounds."""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .construction import Flag, FlagCode
from .linalg import Subspace, check_same_ambient, sum_dim


class MetricsError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _dims_by_point_count(q: int, top: int) -> dict:
    """log_q((q - 1) c + 1) for the point counts c = [j,1]_q, j <= top."""
    return {(q**j - 1) // (q - 1): j for j in range(top + 1)}


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """d_S(U, V) = dim(U+V) - dim(U ∩ V); always even for equal dimensions.

    For equal dimensions k it is 2 m - 2 dim(U ∩ V) with m = min(k, n - k),
    where the intersection is that of U and V when 2k <= n and of U⊥ and V⊥
    otherwise (d_S(U, V) = d_S(U⊥, V⊥)); a j-space has [j,1]_q points, so
    j is read off the size of the intersection of the `distance_points`.
    """
    check_same_ambient(U, V)
    k = U.dim
    if k != V.dim:
        return 2 * sum_dim(U, V) - k - V.dim
    m = k if 2 * k <= U.ambient else U.ambient - k
    P, Q = U.distance_points, V.distance_points
    if P.isdisjoint(Q):
        return 2 * m
    return 2 * (m - _dims_by_point_count(U.field.q, m)[len(P & Q)])


def flag_distance(F: Flag, G: Flag) -> int:
    """Sum of per-level subspace distances."""
    if F.ambient != G.ambient or len(F) != len(G):
        raise MetricsError("flags have different ambient/type")
    return sum(subspace_distance(u, v) for u, v in zip(F.subspaces, G.subspaces))


def _flags_of(code) -> tuple:
    if isinstance(code, FlagCode):
        return code.flags
    return tuple(code)


def max_distance(n: int) -> int:
    """Largest achievable flag distance of the full type (1, ..., n-1) on
    F_q^n: (n^2 - 1)/2 for odd n and n^2/2 for even n, i.e. floor(n^2 / 2),
    read off that closed form.
    """
    return max(n, 0) ** 2 // 2


@dataclass(frozen=True)
class ProjectedCode:
    """The distinct i-th subspaces of a flag code and the pairs of them that
    lie below the level maximum 2 min(i, n - i); every other pair is at it.

    `projected_code` finds those pairs among the members that share a point
    of their `distance_points`, or, on a level with no more pairs than point
    entries, makes one `subspace_distance` per pair. `pairwise_sweep` builds
    the levels beyond an apart one directly: every flag its own member, in
    flag order, and no pair below the maximum."""

    index: int
    subspaces: tuple
    below: Mapping  # below[(a, b)] = d_S(subspaces[a], subspaces[b]) < maximum, a < b
    of_flag: tuple  # of_flag[f] = position of flag f's i-th subspace
    maximum: int

    def __len__(self):
        return len(self.subspaces)

    def distance(self, a: int, b: int) -> int:
        """d_S between members a and b."""
        if a == b:
            return 0
        return self.below.get((a, b) if a < b else (b, a), self.maximum)

    def meeting_pair(self):
        """The first pair of flags (1-based, in order) whose i-th subspaces
        meet beyond {0}, i.e. d_S = 2i - 2 dim(U ∩ V) < 2i; None if none do.
        Up to the middle level the maximum is 2i, so a level with no pair
        below it and every flag its own member has none."""
        of = self.of_flag
        if self.maximum == 2 * self.index and not self.below and len(self.subspaces) == len(of):
            return None
        for a, b in itertools.combinations(range(len(of)), 2):
            if self.distance(of[a], of[b]) < 2 * self.index:
                return a + 1, b + 1
        return None


def projected_code(code, i: int) -> ProjectedCode:
    """Projected code of level i: its distinct i-th subspaces, in order of
    first appearance, and the pairs of them below the level maximum.

    The pairs are read off the points the members share (see
    `_below_by_incidence`). A level whose point entries sum_a |P_a| reach
    its C(N, 2) member pairs, such as level 2 of the (2,2,0) code, makes one
    `subspace_distance` per pair instead. That rule is not a cost threshold
    (the index is the faster path on all but the smallest levels); it keeps
    `subspace_distance`, whose calls perfbench's tracer counts, on the path
    of small codes. Members of different `_Space`s raise LinAlgError, as
    `check_same_ambient` does.
    """
    flags = _flags_of(code)
    if not flags:
        raise MetricsError("empty flag list")
    n = flags[0].ambient
    if not (1 <= i <= n - 1):
        raise MetricsError(f"projected index {i} out of range for n={n}")
    position = {}
    of_flag = tuple(position.setdefault(f.subspaces[i - 1], len(position)) for f in flags)
    subs = tuple(position)
    for U in subs:
        check_same_ambient(subs[0], U)
    maximum = 2 * min(i, n - i)
    points = [U.distance_points for U in subs]
    if sum(map(len, points)) < math.comb(len(subs), 2):
        below = _below_by_incidence(points, subs[0].field.q, maximum // 2)
    else:
        below = {}
        for a, b in itertools.combinations(range(len(subs)), 2):
            d = subspace_distance(subs[a], subs[b])
            if d < maximum:
                below[a, b] = d
    return ProjectedCode(i, subs, MappingProxyType(below), of_flag, maximum)


def _below_by_incidence(point_sets, q: int, m: int) -> dict:
    """`below` of the distinct m-spaces with these point sets, read off the
    points they share.

    Two members sharing c = [j,1]_q > 0 points meet in a j-space and lie
    2 (m - j) apart; members sharing none are at the maximum 2m and are
    never visited. Each point is indexed by the members holding it, and
    shared points are counted only within each point's list, sum_p C(m_p, 2)
    steps with m_p members holding point p: the sum over pairs of the
    points they share, no more than the pair loop's set work on them.
    """
    if len(frozenset().union(*point_sets)) == sum(map(len, point_sets)):
        return {}  # no point is held twice
    holders = {}
    for a, P in enumerate(point_sets):
        for x in P:
            holders.setdefault(x, []).append(a)
    common = Counter(
        pair for group in holders.values() for pair in itertools.combinations(group, 2)
    )
    dims = _dims_by_point_count(q, m)
    return {pair: 2 * (m - dims[c]) for pair, c in common.items()}


def projected_min_distance(pc: ProjectedCode) -> int:
    """Minimum distance between distinct members; 0 for a single member."""
    if len(pc) < 2:
        return 0
    return min(pc.below.values(), default=pc.maximum)


@dataclass(frozen=True)
class PairwiseSweep:
    """d_f and the projected code and its distance at each level 1..n-1."""

    d_f: int
    projected: tuple
    projected_distances: tuple


_NONE_BELOW = MappingProxyType({})


def pairwise_sweep(code) -> PairwiseSweep:
    """The only O(N^2) pass over a code, cached on a FlagCode; see projected_code.

    The levels are computed outward from the middle, one side at a time:
    n//2 down to 1, then ceil(n/2) up to n - 1, with the middle level of an
    even n computed once for both sides. A level is apart when every flag
    has its own subspace there and no pair of them is below the level
    maximum. Once a level is apart, so is every level further out on its
    side, and those levels are built without a point set or a complement.
    The rule is exact because every `Flag` is nested (`Flag(...)` checks
    it, and `Flag._nested` is fed only the prefix row spaces that
    `flag_from_generator` builds). Below the middle, a pair at the maximum
    meets in {0}, and U_i ⊂ U_{i+1} gives U_i ∩ V_i ⊂ U_{i+1} ∩ V_{i+1}:
    the pair meets in {0}, and so differs, at every lower level too. Above
    it, the complements meet in {0}, and U_{i+1}⊥ ⊂ U_i⊥: going up, the
    complements only shrink. This is the lemma behind `classify`'s ODFC
    criterion (Alonso-González, Navarro-Pérez and Soler-Escrivà, "Optimum
    distance flag codes from spreads via perfect matchings in graphs").

    d_f is max_distance(n) less the largest total deficit of a pair of
    flags. At each level, two flags that share their subspace owe the whole
    level maximum, and a pair of members below it owes maximum - d to every
    pair of flags mapped onto those two members; pairs at the maximum owe
    nothing, so only the kept pairs are visited, and an apart level owes
    nothing at all and is skipped.
    """
    cache = code._cache if isinstance(code, FlagCode) else {}
    if "pairwise" in cache:
        return cache["pairwise"]
    flags = _flags_of(code)
    if not flags:
        raise MetricsError("empty flag list")
    n = flags[0].ambient
    if any(f.ambient != n for f in flags):
        raise MetricsError("flags have different ambient/type")
    identity = tuple(range(len(flags)))
    projected = {}
    for side in (range(n // 2, 0, -1), range((n + 1) // 2, n)):
        apart = False
        for i in side:
            if apart:
                subs = tuple(f.subspaces[i - 1] for f in flags)
                projected[i] = ProjectedCode(i, subs, _NONE_BELOW, identity, 2 * min(i, n - i))
            elif i not in projected:
                projected[i] = projected_code(flags, i)
            apart = len(projected[i]) == len(flags) and not projected[i].below
    projected = tuple(projected[i] for i in range(1, n))
    deficit = {}  # (f, g) with f < g -> total deficit of flags f and g
    for pc in projected:
        if len(pc) == len(flags) and not pc.below:
            continue  # apart: no two flags share a member or meet below the maximum
        holders = [[] for _ in pc.subspaces]  # flags in increasing order
        for f, a in enumerate(pc.of_flag):
            holders[a].append(f)
        for group in holders:
            for pair in itertools.combinations(group, 2):
                deficit[pair] = deficit.get(pair, 0) + pc.maximum
        for (a, b), d in pc.below.items():
            owed = pc.maximum - d
            for f in holders[a]:
                for g in holders[b]:
                    pair = (f, g) if f < g else (g, f)
                    deficit[pair] = deficit.get(pair, 0) + owed
    d_f = max_distance(n) - max(deficit.values(), default=0) if len(flags) > 1 else 0
    distances = tuple(projected_min_distance(pc) for pc in projected)
    cache["pairwise"] = PairwiseSweep(d_f, projected, distances)
    return cache["pairwise"]


def min_flag_distance(code) -> int:
    """Minimum pairwise flag distance; 0 for a single flag."""
    return pairwise_sweep(code).d_f


def partial_spread_bound(q: int, n: int, k: int) -> int:
    """Upper bound floor((q^n - 1)/(q^k - 1)) on a partial k-spread's size."""
    if not (1 <= k < n):
        raise MetricsError(f"need 1 <= k < n, got k={k}, n={n}")
    return (q**n - 1) // (q**k - 1)


def aq_exact(q: int, n: int, k: int):
    """Exact maximum size of a k-dim code at distance 2k, when known.

    Applicable iff k > (q^rem - 1)/(q - 1) with rem = n mod k; returns None
    otherwise.
    """
    if not (1 <= k < n):
        raise MetricsError(f"need 1 <= k < n, got k={k}, n={n}")
    rem = n % k
    if k <= (q**rem - 1) // (q - 1):
        return None
    return (q**n - q ** (k + rem)) // (q**k - 1) + 1


@dataclass(frozen=True)
class CodeReport:
    cardinality: int
    d_f: int
    D_n: int
    l: int
    classification: str
    projected_distances: tuple
    projected_cardinalities: tuple
    L: int
    R: int
    bound_checks: dict

    def to_dict(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "d_f": self.d_f,
            "D_n": self.D_n,
            "l": self.l,
            "classification": self.classification,
            "projected_distances": list(self.projected_distances),
            "projected_cardinalities": list(self.projected_cardinalities),
            "L": self.L,
            "R": self.R,
            "bound_checks": self.bound_checks,
        }


def bound_verdict(size: int, q: int, n: int, k: int) -> dict:
    """Compare a size against the exact bound (when applicable) or the
    partial spread bound."""
    exact = aq_exact(q, n, k)
    bound = exact if exact is not None else partial_spread_bound(q, n, k)
    return {"bound": bound, "satisfied": size <= bound, "equality": size == bound}


def cardinality_bound_check(code: FlagCode) -> dict:
    """The bounds on |C| and, for sandwich codes with r in {0, 1, 2}, its
    bound_verdict."""
    p = code.params
    q, n, k1 = p.q, p.n, p.k1
    report = {"applicable": p.r in (0, 1, 2), "cardinality": len(code)}
    report["lemma21_bound"] = partial_spread_bound(q, n, k1)
    report["lemma22_bound"] = aq_exact(q, n, k1)
    if report["applicable"]:
        report.update(bound_verdict(len(code), q, n, k1))
    return report


def classify(code) -> CodeReport:
    """Full distance/classification report for a flag code.

    Works for built codes and for user-supplied flag lists; the projected
    consistency checks are reported, never asserted (arbitrary inputs may
    legitimately violate them).
    """
    flags = _flags_of(code)
    if len(flags) < 2:
        raise MetricsError("classification needs at least 2 flags")
    n = flags[0].ambient
    sweep = pairwise_sweep(code)
    D_n = max_distance(n)
    l2 = D_n - sweep.d_f
    if l2 % 2:
        raise MetricsError(f"odd distance deficit {l2} (corrupt input)")
    l = l2 // 2
    classification = {0: "ODFC", 1: "QODFC"}.get(l, "OTHER")

    proj_dist = sweep.projected_distances
    proj_card = tuple(len(pc) for pc in sweep.projected)

    L = n // 2  # max i with 2i <= n
    R = (n + 1) // 2  # min i with 2i >= n

    # Equivalent ODFC criterion: the L-th and R-th projected codes have
    # maximum distance and the same cardinality as the code. By the lemma
    # behind pairwise_sweep's apart rule, those two levels being apart
    # makes every level apart.
    odfc_criterion = (
        proj_dist[L - 1] == min(2 * L, 2 * (n - L))
        and proj_dist[R - 1] == min(2 * R, 2 * (n - R))
        and proj_card[L - 1] == len(flags)
        and proj_card[R - 1] == len(flags)
    )

    # Deficit-l consistency: projected distances maximal away from the middle
    # band, and (strictly below the l = (n-1)/2 edge case) full projected
    # cardinalities everywhere.
    maximal_indices = [i for i in range(1, n) if i <= L - l or i >= R + l]
    dist_maximal = all(
        proj_dist[i - 1] == min(2 * i, 2 * (n - i)) for i in maximal_indices
    )
    card_check = None
    if 2 * l < n - 1:
        card_check = all(c == len(flags) for c in proj_card)

    bound_checks = {
        "odfc_criterion": odfc_criterion,
        "odfc_criterion_agrees": odfc_criterion == (classification == "ODFC"),
        "projected_distances_maximal": dist_maximal,
        "projected_cardinalities_full": card_check,
    }
    if isinstance(code, FlagCode):
        bound_checks["cardinality"] = cardinality_bound_check(code)

    return CodeReport(
        cardinality=len(flags),
        d_f=sweep.d_f,
        D_n=D_n,
        l=l,
        classification=classification,
        projected_distances=proj_dist,
        projected_cardinalities=proj_card,
        L=L,
        R=R,
        bound_checks=bound_checks,
    )
