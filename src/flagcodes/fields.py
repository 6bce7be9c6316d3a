"""Exact arithmetic in the finite field F_q, q = p^m.

Elements are plain ints in [0, q) encoding the coefficient vector
c_0 + c_1*p + ... + c_{m-1}*p^(m-1) of the element in the polynomial basis.
All operations go through a FiniteField instance; ints are never interpreted
without one. The scalar methods define the arithmetic; each field also
carries lookup tables derived from them, which the row operations of
linalg use, so q is limited to MAX_ORDER.
"""

from __future__ import annotations

import itertools


class FieldError(ValueError):
    """Invalid field construction or illegal field operation."""


# Largest supported field order: every field carries q x q kernel tables.
MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_deg(poly):
    for i in range(len(poly) - 1, -1, -1):
        if poly[i]:
            return i
    return -1


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial, coefficients low-to-high mod p."""
    a = list(a)
    dm = _poly_deg(mod)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return tuple(c % p for c in a[:dm])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _has_factor_of_degree(poly, d, p):
    """Trial-divide poly (monic, coeffs low-to-high) by all monic degree-d polynomials."""
    for tail in itertools.product(range(p), repeat=d):
        divisor = tuple(tail) + (1,)
        if _poly_deg(_poly_mod(poly, divisor, p)) < 0:
            return True
    return False


def _is_irreducible(poly, p):
    """Exhaustive trial division; poly monic with coefficients low-to-high."""
    m = _poly_deg(poly)
    if m < 1:
        return False
    if poly[0] == 0:
        return m == 1
    for d in range(1, m // 2 + 1):
        if _has_factor_of_degree(poly, d, p):
            return False
    return True


class FiniteField:
    """F_q with q = p^m; see the module docstring for the element encoding.

    Instances are immutable and safe to share across threads.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        for name, value in (("p", p), ("m", m)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise FieldError(f"{name} = {value!r} is not an integer")
        # Before the trial division of p, unbounded for a huge p. For p >= 2,
        # m > 8 means q > 256, so p**m is never formed for a huge m.
        if p >= 2 and (m > 8 or p**m > MAX_ORDER):
            raise FieldError(
                f"q = {p}^{m} exceeds the largest supported field order {MAX_ORDER}"
            )
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if m < 1:
            raise FieldError(f"extension degree m = {m} must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if m == 1:
            if modulus:
                raise FieldError("prime field takes no modulus")
            self.modulus = ()
        else:
            if modulus is None:
                modulus = _smallest_irreducible(p, m)
            for c in modulus:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise FieldError(f"modulus coefficient {c!r} is not an integer")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise FieldError(
                    f"modulus must be monic of degree {m} "
                    f"(length {m + 1}, low-to-high coefficients)"
                )
            if not _is_irreducible(modulus, p):
                raise FieldError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self.mul_table, self.sub_table, self.inv_table = self._kernel_tables()
        # Hashed once: the field is a key of every `functools.cache` of linalg.
        self._hash = hash((self.p, self.m, self.modulus))

    def _kernel_tables(self):
        """The lookup tables that row operations in linalg index, derived
        from the scalar methods: mul_table[a][b] = a*b, sub_table[a][b] = a-b
        and inv_table[a] = 1/a (inv_table[0] is None).

        An a with p^j <= a < p^(j+1) is x^j + a', where x^j is encoded p^j and
        a' = a - p^j < a. So a row of the addition table is the row of a'
        shifted by x^j, and a*b = a*b' + a*x^j for b = x^j + b': each entry is
        one lookup, and scalar methods are called m times a row.
        """
        p, q = self.p, self.q
        add = [list(range(q))]
        for j in range(self.m):
            e = p**j
            add_e = [self.add(e, c) for c in range(q)]
            for a in range(e, p * e):
                add.append([add_e[x] for x in add[a - e]])
        mul = []
        for a in range(q):
            row = [0]
            for j in range(self.m):
                e = p**j
                ae = self.mul(a, e)
                for b in range(e, p * e):
                    row.append(add[row[b - e]][ae])
            mul.append(row)
        neg = [self.neg(b) for b in range(q)]
        sub = [[row[b] for b in neg] for row in add]
        inv = [None] + [self.inv(a) for a in range(1, q)]
        return mul, sub, inv

    # -- element <-> coefficient vector ------------------------------------

    def to_coeffs(self, a: int):
        coeffs = []
        for _ in range(self.m):
            coeffs.append(a % self.p)
            a //= self.p
        return tuple(coeffs)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_coeffs(
            (x + y) % self.p for x, y in zip(self.to_coeffs(a), self.to_coeffs(b))
        )

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.from_coeffs((-x) % self.p for x in self.to_coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.to_coeffs(a), self.to_coeffs(b), self.p)
        return self.from_coeffs(_poly_mod(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square-and-multiply; fine at desk scale.
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        return range(self.q)

    # -- identity/serialization ----------------------------------------------

    def spec(self) -> str:
        """Serialized form: "p m modulus_coeffs..."."""
        return " ".join(str(x) for x in (self.p, self.m, *self.modulus))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.m}, modulus={self.modulus})"


def _smallest_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    for tail in itertools.product(range(p), repeat=m):
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


def field_new(p: int, m: int = 1, modulus=None) -> FiniteField:
    """Build F_{p^m}; deterministic for given (p, m) when modulus is omitted."""
    return FiniteField(p, m, modulus)


def field_from_order(q: int) -> FiniteField:
    """Build the field of order q (with the default modulus) from q alone."""
    if q < 2:
        raise FieldError(f"q = {q} is not a prime power")
    if q > MAX_ORDER:
        raise FieldError(f"q = {q} exceeds the largest supported field order {MAX_ORDER}")
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise FieldError(f"q = {q} is not a prime power")
            return field_new(p, m)
    raise FieldError(f"q = {q} is not a prime power")


def parse_field_spec(text: str) -> FiniteField:
    """Inverse of FiniteField.spec()."""
    parts = [int(x) for x in text.split()]
    if len(parts) < 2:
        raise FieldError(f"bad field spec {text!r}")
    p, m = parts[0], parts[1]
    modulus = tuple(parts[2:]) or None
    return field_new(p, m, modulus)
