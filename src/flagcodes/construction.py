"""Construction of sandwich full flag codes from partial spreads.

A code with parameters (q, k1, r) lives in F_q^n with n = 2*k1 + r and
k2 = k1 + r. Its q^k2 + 1 generator matrices S[i] stack three layers: a
partial-spread layer A[i], a middle layer B[i] of r rows, and the next
partial-spread layer A[i+1] (wrapping around at the last index). Flag i is
the chain of row spaces of the leading j-row slices of S[i].
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field as dc_field

from .fields import FiniteField, field_new
from .linalg import (
    LinAlgError,
    MatrixFq,
    Subspace,
    dump_matrix,
    nests,
    parse_matrices,
    points,
    prefix_rowspaces,
    rank,
)


class ConstructionError(ValueError):
    pass


def companion_matrix(poly, field: FiniteField) -> MatrixFq:
    """Companion matrix of a monic polynomial.

    poly is the full coefficient tuple (p_0, ..., p_{k-1}, 1), low-to-high.
    The result has 1s on the superdiagonal and (-p_0, ..., -p_{k-1}) as the
    last row.
    """
    poly = tuple(poly)
    k = len(poly) - 1
    if k < 1 or poly[k] != 1:
        raise ConstructionError(f"polynomial {poly} is not monic of degree >= 1")
    rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]
    rows.append([field.neg(c) for c in poly[:k]])
    return MatrixFq.from_rows(field, rows)


def matrix_power(M: MatrixFq, e: int) -> MatrixFq:
    """Ordinary matrix power by repeated squaring (e >= 0)."""
    if M.rows != M.cols:
        raise ConstructionError("matrix power of a non-square matrix")
    result = MatrixFq.identity(M.field, M.rows)
    base = M
    while e:
        if e & 1:
            result = result.matmul(base)
        base = base.matmul(base)
        e >>= 1
    return result


def _prime_factors(n: int):
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def matrix_order(M: MatrixFq) -> int:
    """Multiplicative order of M, assuming it divides q^k - 1.

    That holds for companion matrices of irreducible polynomials; anything
    else raises.
    """
    k = M.rows
    q = M.field.q
    if rank(M) < k:
        raise ConstructionError("singular matrix has no multiplicative order")
    n = q**k - 1
    if not matrix_power(M, n).is_identity():
        raise ConstructionError(f"matrix order does not divide q^k - 1 = {n}")
    e = n
    for p in _prime_factors(n):
        while e % p == 0 and matrix_power(M, e // p).is_identity():
            e //= p
    return e


def _x_power(poly, field: FiniteField, e: int) -> tuple:
    """x^e modulo the monic poly of degree k, low coefficient first, by
    square-and-multiply on the field's tables: k^2 steps a square, times x
    by a shift, and k^2 to reduce by x^k = x^k - poly."""
    k, mul, sub = len(poly) - 1, field.mul_table, field.sub_table
    tail, r = poly[:k], [1] + [0] * (k - 1)
    for bit in map(int, bin(e)[2:]):
        acc = [0] * (2 * k - 1 + bit)  # r^2·x^bit, accumulated as acc - (-a)·r
        for i, a in enumerate(r, start=bit):
            if a:
                m = mul[sub[0][a]]
                for j, b in enumerate(r, start=i):
                    acc[j] = sub[acc[j]][m[b]]
        for d in range(len(acc) - 1, k - 1, -1):
            c = acc.pop()
            if c:
                for j, f in enumerate(tail, start=d - k):
                    acc[j] = sub[acc[j]][mul[c][f]]
        r = acc
    return tuple(r)


def is_primitive(poly, field: FiniteField) -> bool:
    """True iff the companion matrix of poly has order q^k - 1, k = deg: iff
    x^(q^k - 1) is 1 modulo poly and no x^((q^k - 1)/p) is, p a prime factor
    (then x's powers are every nonzero residue, so poly is irreducible)."""
    poly = tuple(poly)
    if poly[0] == 0:
        return False
    k = len(poly) - 1
    if k < 1 or poly[k] != 1 or not all(0 <= c < field.q for c in poly):
        raise ConstructionError(f"polynomial {poly} is not monic of degree >= 1 over F_{field.q}")
    n = field.q**k - 1
    one = (1,) + (0,) * (k - 1)
    if _x_power(poly, field, n) != one:
        return False
    return all(_x_power(poly, field, n // p) != one for p in _prime_factors(n))


def find_primitive_poly(field: FiniteField, k2: int):
    """Lexicographically smallest monic primitive polynomial of degree k2.

    Ordered by the coefficient tuple read from the highest degree down, so
    e.g. x^3+x+1 precedes x^3+x^2+1 over F_2; deterministic for a given
    field.
    """
    if k2 < 1:
        raise ConstructionError(f"degree k2 = {k2} must be >= 1")
    for tail in itertools.product(range(field.q), repeat=k2):
        poly = tuple(reversed(tail)) + (1,)
        if is_primitive(poly, field):
            return poly
    raise ConstructionError(
        f"no primitive polynomial of degree {k2} over F_{field.q}"
    )  # unreachable


def field_power(M: MatrixFq, e: int) -> MatrixFq:
    """Power of a companion matrix under the field-enumeration convention.

    The powers e = 0, 1, ..., q^k - 1 enumerate the field F_q[M] with the
    zero element standing first: e = 0 yields the ZERO matrix, not the
    identity, and e = q^k - 1 yields the identity.
    """
    k = M.rows
    top = M.field.q**k - 1
    if not (0 <= e <= top):
        raise ConstructionError(f"exponent {e} outside [0, {top}]")
    if e == 0:
        return MatrixFq.zero(M.field, k, k)
    return matrix_power(M, e)


@dataclass(frozen=True)
class SandwichParams:
    """Code parameters: field, spread dimension k1 >= 2, middle size 0 <= r < k1.

    Derived: k2 = k1 + r, ambient n = 2*k1 + r, cardinality q^k2 + 1.
    """

    field: FiniteField
    k1: int
    r: int
    prim_poly: tuple = None  # degree-k2 primitive polynomial, defaulted if None

    def __post_init__(self):
        for name in ("k1", "r"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConstructionError(f"{name} = {value!r} is not an integer")
        if self.k1 < 2:
            raise ConstructionError(f"k1 = {self.k1} must be >= 2")
        if not (0 <= self.r < self.k1):
            raise ConstructionError(f"r = {self.r} violates 0 <= r < k1 = {self.k1}")
        if self.prim_poly is None:
            object.__setattr__(
                self, "prim_poly", find_primitive_poly(self.field, self.k2)
            )
        else:
            poly = tuple(self.prim_poly)
            for c in poly:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ConstructionError(f"prim_poly coefficient {c!r} is not an integer")
            if len(poly) != self.k2 + 1:
                raise ConstructionError(
                    f"prim_poly must have degree k2 = {self.k2}"
                )
            if not is_primitive(poly, self.field):
                raise ConstructionError(f"polynomial {poly} is not primitive")
            object.__setattr__(self, "prim_poly", poly)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k2(self) -> int:
        return self.k1 + self.r

    @property
    def n(self) -> int:
        return 2 * self.k1 + self.r

    @property
    def num_generators(self) -> int:
        return self.q**self.k2 + 1

    def companion(self) -> MatrixFq:
        return companion_matrix(self.prim_poly, self.field)

    @functools.cached_property
    def powers(self) -> tuple:
        """The field F_q[M] of the companion matrix M in walk order:
        powers[e] == field_power(M, e) for e = 0 .. q^k2 - 1, so the zero
        matrix, M, M^2, ..., and the identity last. One matmul a step, M on
        the left: M's rows are unit rows but the last, so a step copies
        k2 - 1 rows of the previous power and forms one combination of
        them. Computed once per params."""
        M = self.companion()
        powers = [MatrixFq.zero(self.field, self.k2, self.k2), M]
        while len(powers) < self.q**self.k2:
            powers.append(M.matmul(powers[-1]))
        return tuple(powers)


def _check_index(params: SandwichParams, i: int):
    if not (1 <= i <= params.num_generators):
        raise ConstructionError(
            f"index {i} outside [1, {params.num_generators}]"
        )


def _upper_block(params: SandwichParams, i: int) -> MatrixFq:
    """[A[i]; B[i]], the k2 x n top of S[i], on packed rows.

    [O | I_k2] at i = 1, else [I_k1 over O | R] with R = M^(i-2) for i >= 3.
    At i = 2, R is zero in its first k1 rows (field_power's zero at e = 0),
    over the fixed rank-r middle block: first row (1 0 ... 0), then
    [O_{(r-1) x (k1+1)} | I_{r-1}]. A packed row of R is already its low k2
    entries in F_q^n, so row a is R's row a OR-ed with row a of I_n for a < k1.
    """
    _check_index(params, i)
    k1, k2 = params.k1, params.k2
    unit = MatrixFq.identity(params.field, params.n).packed
    if i == 1:
        rows = unit[k1:]
    else:
        right = params.powers[i - 2].packed
        if i == 2:
            right = right[:k1] + tuple(unit[k1 + (t if t > k1 else 0)] for t in range(k1, k2))
        rows = tuple(u | x for u, x in zip(unit[:k1] + (0,) * params.r, right))
    return MatrixFq._from_packed(params.field, params.n, rows)


def layer_A(params: SandwichParams, i: int) -> MatrixFq:
    """First/third layer: k1 x n partial-spread generator.

    A[1] = [O | I | O]; A[i] = [I | first k1 rows of M^(i-2)] for i >= 2,
    with the zero-matrix convention at exponent 0 (so A[2]'s right block is
    zero).
    """
    return _upper_block(params, i).first_rows(params.k1)


def layer_B(params: SandwichParams, i: int) -> MatrixFq | None:
    """Middle layer: r x n matrix, or None when r = 0 (no middle layer).

    B[1] = [O | I_r] (rightmost columns); B[2] = [O | fixed rank-r block];
    B[i] = [O | last r rows of M^(i-2)] for i >= 3.
    """
    block = _upper_block(params, i)
    return block.last_rows(params.r) if params.r else None


def layer_S(params: SandwichParams, i: int) -> MatrixFq:
    """Full n x n generator: A[i] over B[i] over A[i+1], wrapping A[1] in at
    the last index. Always full rank; anything else is an internal error."""
    nxt = 1 if i == params.num_generators else i + 1
    return _generator(params, i, _upper_block(params, i), _upper_block(params, nxt))


def _generator(
    params: SandwichParams, i: int, upper: MatrixFq, next_upper: MatrixFq
) -> MatrixFq:
    """S[i] from the upper blocks of i and of the next index, rank-checked."""
    S = upper.stack(next_upper.first_rows(params.k1))
    if rank(S) != params.n:
        raise ConstructionError(
            f"generator S[{i}] is rank-deficient (internal error):\n{dump_matrix(S)}"
        )
    return S


class Flag:
    """A full flag: strictly nested subspaces of dimensions 1 .. n-1. `Flag(...)`
    checks both; `Flag._nested`, for `flag_from_generator` only, trusts them,
    and `verify.check_flag_nesting` re-checks the nesting."""

    __slots__ = ("ambient", "subspaces")

    def __init__(self, subspaces):
        subspaces = tuple(subspaces)
        if not subspaces:
            raise ConstructionError("empty flag")
        ambient = subspaces[0].ambient
        if len(subspaces) != ambient - 1:
            raise ConstructionError(
                f"full flag in F^{ambient} needs {ambient - 1} subspaces"
            )
        for j, sub in enumerate(subspaces, start=1):
            if sub.ambient != ambient or sub.dim != j:
                raise ConstructionError(f"subspace {j} has dim {sub.dim}, want {j}")
        for lower, upper in zip(subspaces, subspaces[1:]):
            if not nests(lower, upper):
                raise ConstructionError("flag subspaces are not nested")
        self.ambient = ambient
        self.subspaces = subspaces

    @classmethod
    def _nested(cls, subspaces: tuple) -> "Flag":
        flag = cls.__new__(cls)
        flag.ambient, flag.subspaces = subspaces[0].ambient, subspaces
        return flag

    def __getitem__(self, j: int) -> Subspace:
        """1-based access: flag[j] is the j-dimensional subspace."""
        if not (1 <= j <= len(self.subspaces)):
            raise IndexError(j)
        return self.subspaces[j - 1]

    def __len__(self):
        return len(self.subspaces)

    def __eq__(self, other):
        return isinstance(other, Flag) and self.subspaces == other.subspaces

    def __hash__(self):
        return hash(self.subspaces)


def flag_from_generator(S: MatrixFq) -> Flag:
    """Flag of the row spaces of the leading j-row slices of a square
    generator, from one elimination pass (`linalg.prefix_rowspaces`) over its
    packed rows. A row that adds no pivot raises; row n is never inserted, so
    only `verify`'s rank check sees it."""
    levels = prefix_rowspaces(S, S.cols - 1)
    if len(levels) < S.cols - 1:
        j = len(levels) + 1
        raise ConstructionError(f"generator rows 1..{j} have rank {j - 1}, want {j}")
    return Flag._nested(tuple(levels))


@dataclass(frozen=True)
class FlagCode:
    """A built sandwich code: parameters, generators S[1..q^k2+1], flags."""

    params: SandwichParams
    generators: tuple
    flags: tuple
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.flags)

    @property
    def ambient(self) -> int:
        return self.params.n


def build_code(params: SandwichParams) -> FlagCode:
    """Construct the full flag code for the given parameters.

    Deterministic; validates cardinality and flag distinctness. Each upper
    block is built once: S[i] is block i over the first k1 rows of block
    i + 1, as `layer_S` stacks them.
    """
    count = params.num_generators
    blocks = [_upper_block(params, i) for i in range(1, count + 1)]
    generators = tuple(
        _generator(params, i, blocks[i - 1], blocks[i % count]) for i in range(1, count + 1)
    )
    flags = tuple(flag_from_generator(S) for S in generators)
    if len(set(flags)) != params.num_generators:
        raise ConstructionError("constructed flags are not pairwise distinct")
    return FlagCode(params, generators, flags)


def level_points(code: FlagCode, level: int) -> dict:
    """Point -> bitmask of the codewords whose level-`level` subspace
    covers it.

    Points are the integers of `linalg.points`, so a 1-dim subspace P, or
    any RREF row, is looked up as its packed integer; bit i - 1 of a mask
    stands for codeword i. At level k1 of a partial spread every mask has
    one bit. Built on first use by visiting N·[level, 1]_q points, for N
    codewords; it has at most [n, 1]_q keys. Cached on the code per level.
    """
    key = ("level_points", level)
    table = code._cache.get(key)
    if table is None:
        table = {}
        for bit, flag in enumerate(code.flags):
            mask = 1 << bit
            for x in points(flag[level]):
                table[x] = table.get(x, 0) | mask
        code._cache[key] = table
    return table


# -- code serialization --------------------------------------------------------


def code_to_dict(code: FlagCode) -> dict:
    p = code.params
    return {
        "params": {
            "p": p.field.p,
            "m": p.field.m,
            "modulus": list(p.field.modulus),
            "k1": p.k1,
            "r": p.r,
            "prim_poly": list(p.prim_poly),
        },
        "generators": [dump_matrix(S) for S in code.generators],
    }


def code_to_json(code: FlagCode) -> str:
    return json.dumps(code_to_dict(code), indent=2)


def code_from_dict(doc: dict) -> FlagCode:
    if not isinstance(doc, dict):
        raise ConstructionError("the top level is not a JSON object")
    try:
        pd = doc["params"]
        if not isinstance(pd, dict):
            raise TypeError("params is not an object")
        fld = field_new(pd["p"], pd["m"], tuple(pd["modulus"]) or None)
        params = SandwichParams(fld, pd["k1"], pd["r"], tuple(pd["prim_poly"]))
        if not isinstance(doc["generators"], list):
            raise TypeError("generators is not a list")
        generators = tuple(parse_matrices(doc["generators"], fld, "generator"))
    except (KeyError, TypeError, LinAlgError) as exc:
        raise ConstructionError(f"malformed code document: {exc}") from exc
    if len(generators) != params.num_generators:
        raise ConstructionError(
            f"expected {params.num_generators} generators, found {len(generators)}"
        )
    n = params.n
    for i, S in enumerate(generators, start=1):
        if (S.rows, S.cols) != (n, n):
            raise ConstructionError(f"generator {i} is {S.rows}x{S.cols}, want {n}x{n}")
    flags = tuple(flag_from_generator(S) for S in generators)
    return FlagCode(params, generators, flags)


def code_from_json(text: str) -> FlagCode:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"invalid JSON: {exc}") from exc
    return code_from_dict(doc)
