"""Dense linear algebra over F_q: RREF, rank, row spaces, subspace lattice ops.

Matrices are immutable; subspaces are kept in canonical reduced row echelon
form so that equality and hashing are structural.
"""

from __future__ import annotations

import bisect
import functools
import itertools

from .fields import FieldError, FiniteField, field_from_order


class LinAlgError(ValueError):
    pass


class EnumerationCapExceeded(LinAlgError):
    """Requested subspace enumeration exceeds the configured cap."""


class MatrixFq:
    """Dense rows x cols matrix over a FiniteField, kept as `packed`: each
    row one integer of `_space(field, cols)` (see `_Space`). The row-major
    `entries` are unfolded from it on first read. `MatrixFq(...)` checks the
    shape and every entry and folds them once; the kernel's own results
    (`parse_matrix`, `rref`, `matmul`, slices, stacks, `Subspace.basis`) go
    through `_from_packed`, which checks nothing.
    """

    __slots__ = ("field", "rows", "cols", "packed", "_entries")

    def __init__(self, field: FiniteField, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise LinAlgError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        if entries and not (0 <= min(entries) and max(entries) < field.q):
            raise LinAlgError("entry out of field range")
        fold = _space(field, cols).fold
        self.field, self.rows, self.cols, self._entries = field, rows, cols, None
        self.packed = tuple(fold(entries[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def _from_packed(cls, field: FiniteField, cols: int, packed: tuple) -> "MatrixFq":
        """The matrix of the kernel's packed rows of `_space(field, cols)`,
        one row each: neither the shape nor the range is checked."""
        A = cls.__new__(cls)
        A.field, A.rows, A.cols, A.packed, A._entries = field, len(packed), cols, packed, None
        return A

    @classmethod
    def from_rows(cls, field: FiniteField, row_lists) -> "MatrixFq":
        row_lists = [list(r) for r in row_lists]
        cols = len(row_lists[0]) if row_lists else 0
        return cls(field, len(row_lists), cols, itertools.chain.from_iterable(row_lists))

    @classmethod
    def zero(cls, field: FiniteField, rows: int, cols: int) -> "MatrixFq":
        return cls._from_packed(field, cols, (0,) * rows)

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixFq":
        # Row c: 1, its own slot form, at entry c's shift.
        return cls._from_packed(field, n, tuple(1 << s for s in _space(field, n).shifts))

    @property
    def entries(self) -> tuple:
        """The row-major entries, unfolded from `packed` on first read."""
        if self._entries is None:
            rows = map(_space(self.field, self.cols).unfold, self.packed) if self.cols else ()
            self._entries = tuple(itertools.chain.from_iterable(rows))
        return self._entries

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # Slices and stacks of checked matrices need no range check: 0 <= t <= rows.
    def first_rows(self, t: int) -> "MatrixFq":
        return MatrixFq._from_packed(self.field, self.cols, self.packed[:t])

    def last_rows(self, t: int) -> "MatrixFq":
        return MatrixFq._from_packed(self.field, self.cols, self.packed[self.rows - t :])

    def stack(self, other: "MatrixFq") -> "MatrixFq":
        if other.cols != self.cols or other.field != self.field:
            raise LinAlgError("stack shape/field mismatch")
        return MatrixFq._from_packed(self.field, self.cols, self.packed + other.packed)

    def matmul(self, other: "MatrixFq") -> "MatrixFq":
        """self·other on packed rows: row i of the product is the sum over
        k of a_ik times row k of other, one `_Space.add` a nonzero a_ik,
        the row scaled through the digit tables only when a_ik is not 1."""
        if self.cols != other.rows or self.field != other.field:
            raise LinAlgError("matmul shape/field mismatch")
        space = _space(self.field, other.cols)
        add, scale, right = space.add, space.digits.scale, other.packed
        out = []
        for i in range(self.rows):
            acc = 0
            for a, u in zip(self.row(i), right):
                if a:
                    acc = add(acc, u if a == 1 else scale(u, a))
            out.append(acc)
        return MatrixFq._from_packed(self.field, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.packed)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == MatrixFq.identity(self.field, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.cols == other.cols
            and self.packed == other.packed
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.cols, self.packed))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"MatrixFq({self.rows}x{self.cols} over q={self.field.q}: {body})"


class _Digits:
    """The digit-slot form of the elements of one field F_{p^m}.

    An element is m base-p digits, the coefficients of the polynomial basis
    of `fields`; each digit gets a slot of s bits, low digit lowest: s = 1
    for p = 2 and bit_length(p - 1) + 1 for odd p, one guard bit above the
    digit, so an element takes e = m·s bits. Over characteristic 2 that is
    the element's own integer. `slot[a]` is the slot form of a, `element`
    maps a slot form back (None elsewhere), and `negated` maps the slot form
    of a to that of -a.

    An integer of several slot-form entries is read t = max(1, 8 // e)
    entries, one chunk of t·e bits, at a time: `high[v]` is the t elements
    of chunk v, high entry first, and `scaled(a)`, built on first use of a,
    maps each chunk to the same entries times a, so `scale` multiplies a
    whole chunk by one lookup.

    A channel draw is read t = `draw_digits` base-q coefficient digits at
    a time, t the most with q^t <= 256: each group of t rows of the subspace
    drawn from has a table of its q^t combinations (`Subspace.chunks`), so
    one lookup adds a whole group (see `_Space.draw`).
    """

    __slots__ = (
        "field", "s", "e", "slot", "element", "negated", "width", "high", "_scaled",
        "draw_digits",
    )

    def __init__(self, field: FiniteField):
        p, m, q = field.p, field.m, field.q
        self.field = field
        self.s = s = 1 if p == 2 else (p - 1).bit_length() + 1
        self.e = e = m * s
        self.slot = [sum(d << (j * s) for j, d in enumerate(field.to_coeffs(a))) for a in range(q)]
        self.element = [None] * (1 << e)
        for a, x in enumerate(self.slot):
            self.element[x] = a
        neg = field.sub_table[0]
        self.negated = [None if a is None else self.slot[neg[a]] for a in self.element]
        t = max(1, 8 // e)
        self.width = t * e
        self.high = [None] * (1 << self.width)
        for digits in itertools.product(range(q), repeat=t):
            v = 0
            for a in digits:
                v = v << e | self.slot[a]
            self.high[v] = digits
        self._scaled = {}
        t = 1
        while q ** (t + 1) <= 256:
            t += 1
        self.draw_digits = t

    def scaled(self, a: int) -> list:
        table = self._scaled.get(a)
        if table is None:
            mul, slot = self.field.mul_table[a], self.slot
            table = [None] * len(self.high)
            for v, digits in enumerate(self.high):
                if digits is not None:
                    x = 0
                    for d in digits:
                        x = x << self.e | slot[mul[d]]
                    table[v] = x
            self._scaled[a] = table
        return table

    def scale(self, v: int, a: int) -> int:
        """v, an integer of slot-form entries, with each entry times a."""
        table, width = self.scaled(a), self.width
        mask = (1 << width) - 1
        out = shift = 0
        while v:
            out |= table[v & mask] << shift
            v >>= width
            shift += width
        return out


@functools.cache
def _digits(field: FiniteField) -> _Digits:
    return _Digits(field)


class _Space:
    """F_q^n with each vector packed into one integer of slot-form entries
    (see `_Digits`), the first entry most significant: entry c sits at bit
    (n - 1 - c)·e. Over characteristic 2 this is the vector's base-q
    integer. One object per field and n, from `_space`.

    This is the one kernel of row operations on packed rows. `insert`,
    `rank`, `add` and `scale` are written once, here, on `axpy(v, u, c)` =
    v - c·u, which `_XorSpace` and `_SlotSpace` each build in `__init__` as
    a closure over their constants. c is in slot form, read raw off a packed
    row: 0, 1 and p - 1 are their own slot forms in every field, so only a
    scale by another c looks up `element`. `_F2Space` keeps its own
    `insert`, `rank` and `span`, which never scale; `span`, `draw` and
    `sums` are written out in each subclass with its addition inline, and
    `multiples` and `chunk_tables` are built on `sums`. `sum_dim`
    and `nests` each take one `rank` of two subspaces' packed RREF rows
    stacked. A one-off scalar multiple comes from the `_Digits` chunk
    tables, except that 1 and p - 1 = -1 need none, and a row's q multiples
    are sums of its multiples by the powers of x.
    """

    def __init__(self, field: FiniteField, n: int):
        self.field, self.n = field, n
        self.p, self.m, self.inv = field.p, field.m, field.inv_table
        self.digits = digits = _digits(field)
        self.e, self.slot, self.element = digits.e, digits.slot, digits.element
        self.negated = digits.negated
        self.emask = (1 << digits.e) - 1
        self.top = (n - 1) * digits.e  # the shift of entry 0
        self.shifts = tuple(range(self.top, -1, -digits.e))  # entry c's, top - c·e

    def fold(self, row) -> int:
        """The packed integer of a row of field elements."""
        e, slot = self.e, self.slot
        x = 0
        for a in row:
            x = x << e | slot[a]
        return x

    def unfold(self, x: int) -> tuple:
        """The row of field elements of a packed integer, a chunk at a time."""
        digits = self.digits
        high, width = digits.high, digits.width
        t = width // self.e
        chunks = -(-self.n // t)
        mask = (1 << width) - 1
        shift = (chunks - 1) * width
        row = high[x >> shift]
        for s in range(shift - width, -1, -width):
            row += high[(x >> s) & mask]
        return row[chunks * t - self.n :]

    def add(self, a: int, b: int) -> int:
        """a + b, as a - (p - 1)·b."""
        return self.axpy(a, b, self.p - 1)

    def scale(self, x: int, a: int) -> int:
        """x times the field element a."""
        if a == 1:
            return x
        if a == self.p - 1:
            return self.axpy(0, x, 1)
        return self.digits.scale(x, a)

    def insert(self, rows: list, pivots: list, vectors, levels=None) -> int:
        """Add packed `vectors` one at a time to the packed RREF `rows` with
        pivot columns `pivots`, lists kept in RREF in place; returns how
        many were added. Each vector is reduced against the rows and skipped
        if nothing is left, else scaled to a leading 1, cleared from the
        earlier rows and inserted at its pivot's place. Given a list
        `levels`, each insertion appends the `Subspace` of the rows so far,
        and the first vector that adds nothing ends the pass."""
        top, e, emask, element, inv = self.top, self.e, self.emask, self.element, self.inv
        axpy, start = self.axpy, len(rows)
        for v in vectors:
            for u, p in zip(rows, pivots):
                c = (v >> (top - p * e)) & emask
                if c:
                    v = axpy(v, u, c)
            if not v:
                if levels is None:
                    continue
                break
            k = (v.bit_length() - 1) // e  # the lead's shift is k·e
            a = (v >> (k * e)) & emask
            if a != 1:
                v = self.scale(v, inv[element[a]])
            for i, u in enumerate(rows):
                c = (u >> (k * e)) & emask
                if c:
                    rows[i] = axpy(u, v, c)
            lead = self.n - 1 - k
            at = bisect.bisect(pivots, lead)
            rows.insert(at, v)
            pivots.insert(at, lead)
            if levels is not None:
                levels.append(Subspace._from_packed(self, tuple(rows), tuple(pivots)))
        return len(rows) - start

    def rank(self, rows) -> int:
        """Rank of packed rows by forward elimination on their leading
        entry, as M4RI eliminates packed words: a row is reduced by the
        pivot row of its leading entry until it is zero or leads a new one,
        kept scaled to a leading 1."""
        e, emask, element, inv, axpy = self.e, self.emask, self.element, self.inv, self.axpy
        found = {}
        for v in rows:
            while v:
                k = (v.bit_length() - 1) // e
                a = (v >> (k * e)) & emask
                u = found.get(k)
                if u is None:
                    found[k] = v if a == 1 else self.scale(v, inv[element[a]])
                    break
                v = axpy(v, u, a)
        return len(found)

    def _copies(self, b: int) -> list:
        """c·b for c = 0 .. p - 1, each a sum of c copies of b."""
        out = [0, b]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], b))
        return out

    def multiples(self, x: int) -> tuple:
        """c·x for c = 0 .. q - 1: c = sum_j c_j p^j is sum_j c_j (x^j·x),
        with x^j·x from the chunk tables."""
        out = self._copies(x)
        for j in range(1, self.m):
            out = self.sums(out, self._copies(self.digits.scale(x, self.p**j)))
        return tuple(out)

    def chunk_tables(self, rows) -> tuple:
        """For each group of t = `draw_digits` consecutive packed rows, the
        table of the group's combinations, summed from each row's
        `multiples`: entry r is sum_i r_i·(row i of the group), r_i the
        base-q digits of r, low digit first. A last group of fewer than t
        rows has a smaller table. This is the method of four Russians
        (Albrecht, Bard and Hart, ACM TOMS 2010) over F_q: one lookup adds t
        rows."""
        t = self.digits.draw_digits
        tables = []
        for j in range(0, len(rows), t):
            table = [0]
            for row in rows[j : j + t]:
                table = self.sums(table, self.multiples(row))
            tables.append(table)
        return tuple(tables)


class _XorSpace(_Space):
    """Characteristic 2: one bit a digit, so rows add by XOR."""

    def __init__(self, field: FiniteField, n: int):
        super().__init__(field, n)
        scale = self.digits.scale

        def axpy(v: int, u: int, c: int) -> int:
            return v ^ (u if c == 1 else scale(u, c))

        self.axpy = axpy

    def draw(self, tables, x: int, dim: int, k: int) -> list:
        """The dim packed rows of C·B for the channel's draw x, read as the
        base-q digits of a dim x k coefficient matrix C, low digit first,
        row by row, and `tables` the `chunk_tables` of the k rows of B: each
        row of C is k·m bits of x, and each t digits of it one lookup, so a
        row of at most t digits is one lookup and no sum."""
        m = self.m
        bits, width = k * m, self.digits.draw_digits * m
        row_mask, mask = (1 << bits) - 1, (1 << width) - 1
        if len(tables) == 1:
            table = tables[0]
            return [table[(x >> shift) & row_mask] for shift in range(0, dim * bits, bits)]
        out = []
        for shift in range(0, dim * bits, bits):
            y = (x >> shift) & row_mask
            v = 0
            for table in tables:
                v ^= table[y & mask]
                y >>= width
            out.append(v)
        return out

    @staticmethod
    def sums(vectors, others) -> list:
        """w + c for each c of `others` and each w of `vectors`, w varying
        fastest."""
        return [w ^ c for c in others for w in vectors]

    def span(self, rows) -> list:
        """The points of the span of packed RREF rows: each combination
        whose first nonzero coefficient is 1, that row's pivot then carrying
        the leading 1."""
        span = [0]  # the span of the rows below row i
        out = []
        for i in reversed(range(len(rows))):
            row = rows[i]
            out += [w ^ row for w in span]
            if i:
                span = [w ^ c for c in self.multiples(row) for w in span]
        return out


class _F2Space(_XorSpace):
    """F_2: an entry is one bit, so no row is scaled, and v's coefficient at a
    pivot is its bit at the pivot row's top bit. The rest is `_XorSpace`'s."""

    def insert(self, rows: list, pivots: list, vectors, levels=None) -> int:
        """As `_Space.insert`, XORing in each row whose top bit is set in v."""
        top, start = self.top, len(rows)
        for v in vectors:
            for u in rows:
                if v >> (u.bit_length() - 1) & 1:
                    v ^= u
            if not v:
                if levels is None:
                    continue
                break
            k = v.bit_length() - 1
            for i, u in enumerate(rows):
                if u >> k & 1:
                    rows[i] = u ^ v
            at = bisect.bisect(pivots, top - k)
            rows.insert(at, v)
            pivots.insert(at, top - k)
            if levels is not None:
                levels.append(Subspace._from_packed(self, tuple(rows), tuple(pivots)))
        return len(rows) - start

    def rank(self, rows) -> int:
        """As `_Space.rank`, keyed by bit length: v is XORed with the row
        filed under its lead until it is zero or is filed there itself."""
        found = {}
        for v in rows:
            while v and (u := found.setdefault(v.bit_length(), v)) != v:
                v ^= u
        return len(found)

    def span(self, rows) -> list:
        """Every nonzero vector of the span of packed rows, each a point over
        F_2: the span is doubled by each row in turn."""
        span = [0]
        for row in rows:
            span += [w ^ row for w in span]
        return span[1:]


class _SlotSpace(_Space):
    """Odd p: bit_length(p - 1) + 1 bits a digit. Rows add slot by slot as
    x = a + b, then x - p·(((x + K) >> v) & ONES), v = bit_length(p - 1)
    the guard bit, ONES the lowest bit of every slot and K = (2^v - p)·ONES:
    a slot holds at most 2p - 1 < 2^(v+1), and carries into its guard bit
    iff it is >= p (Warren, Hacker's Delight, ch. 2). a - b is
    a + p·ONES - b, reduced the same way."""

    def __init__(self, field: FiniteField, n: int):
        super().__init__(field, n)
        s, p, element, scale = self.digits.s, self.p, self.element, self.digits.scale
        self.guard = guard = s - 1
        self.ones = ones = sum(1 << (i * s) for i in range(n * self.m))
        self.carry = carry = ((1 << guard) - p) * ones
        pones, minus = p * ones, p - 1

        def axpy(v: int, u: int, c: int) -> int:
            if c == minus:
                x = v + u
            else:
                x = v + pones - (u if c == 1 else scale(u, element[c]))
            return x - p * (((x + carry) >> guard) & ones)

        self.axpy = axpy

    def draw(self, tables, x: int, dim: int, k: int) -> list:
        """As `_XorSpace.draw`, a row of C one `divmod` by q^k and t of its
        digits one `divmod` by q^t, adding slot by slot."""
        q, p, guard, ones, carry = self.field.q, self.p, self.guard, self.ones, self.carry
        row_base, base = q**k, q**self.digits.draw_digits
        if len(tables) == 1:
            table = tables[0]
            out = []
            for _ in range(dim):
                x, y = divmod(x, row_base)
                out.append(table[y])
            return out
        out = []
        for _ in range(dim):
            x, y = divmod(x, row_base)
            v = 0
            for table in tables:
                y, r = divmod(y, base)
                v = (z := v + table[r]) - p * (((z + carry) >> guard) & ones)
            out.append(v)
        return out

    def sums(self, vectors, others) -> list:
        """As `_XorSpace.sums`, adding slot by slot."""
        p, guard, ones, carry = self.p, self.guard, self.ones, self.carry
        return [
            (x := w + c) - p * (((x + carry) >> guard) & ones) for c in others for w in vectors
        ]

    def span(self, rows) -> list:
        """As `_XorSpace.span`, adding slot by slot."""
        p, guard, ones, carry = self.p, self.guard, self.ones, self.carry
        span = [0]  # the span of the rows below row i
        out = []
        for i in reversed(range(len(rows))):
            row = rows[i]
            out += [(x := w + row) - p * (((x + carry) >> guard) & ones) for w in span]
            if i:
                span = [
                    (x := w + c) - p * (((x + carry) >> guard) & ones)
                    for c in self.multiples(row)
                    for w in span
                ]
        return out


@functools.cache
def _space(field: FiniteField, n: int) -> _Space:
    """The packed rows of F_q^n, one object per field (by equality) and n:
    `_F2Space` for F_2, `_XorSpace` for F_{2^m}, m > 1, `_SlotSpace` for odd p."""
    return (_F2Space if field.q == 2 else _XorSpace if field.p == 2 else _SlotSpace)(field, n)


def rref(A: MatrixFq):
    """Reduced row echelon form of A: (rref_matrix, rank, pivot_columns).

    A's packed rows are inserted one at a time by `_Space.insert`; the
    result keeps its packed rows, the nonzero ones first, and unfolds its
    entries only if they are read."""
    rows, pivots = [], []
    _space(A.field, A.cols).insert(rows, pivots, A.packed)
    R = MatrixFq._from_packed(A.field, A.cols, (*rows, *(0,) * (A.rows - len(rows))))
    return R, len(rows), tuple(pivots)


def rank(A: MatrixFq) -> int:
    """`_Space.rank` of A's packed rows."""
    return _space(A.field, A.cols).rank(A.packed)


class Subspace:
    """A k-dimensional subspace of F_q^n, kept as its canonical RREF rows.

    `packed` holds each RREF row as one integer of digit-slot entries (see
    `_Digits` and `_Space`): over characteristic 2 its base-q integer, over
    odd p each F_p digit in bit_length(p - 1) + 1 bits. `pivots` are the
    rows' pivot columns, and `space` the `_Space` of the field and n that
    every row operation goes through. An RREF row has leading entry 1, so
    its integer is its point, in the form `points` lists. Equality and
    hashing are on `packed` and the space.

    `rows`, the RREF rows as tuples of field elements (none for {0}),
    `basis`, the dim x n matrix of `rows`, `chunks`, the channel's tables of
    combinations of the rows, and `distance_points` are built on first read
    and kept; the kernel reads none but `chunks`, so a subspace it builds
    never forms `rows` unless a caller reads them.

    `Subspace(basis)` checks that the basis is in RREF and keeps it; the
    kernel's own results go through `Subspace._from_packed`, from packed
    rows, which checks nothing.
    """

    __slots__ = (
        "space", "field", "ambient", "dim", "packed", "pivots",
        "_rows", "_basis", "_points", "_chunks",
    )

    def __init__(self, basis: MatrixFq):
        rows = tuple(basis.row(i) for i in range(basis.rows))
        pivots = self._check_rref(rows)
        self.space = space = _space(basis.field, basis.cols)
        self.field, self.ambient, self.dim = space.field, space.n, len(rows)
        self.packed, self.pivots = tuple(map(space.fold, rows)), pivots
        self._rows, self._basis = rows, basis
        self._points = None

    @classmethod
    def _from_packed(cls, space: _Space, packed: tuple, pivots: tuple) -> "Subspace":
        """The subspace of the packed RREF rows `packed` with these pivot
        columns: for the kernel's own results only, so no entry or RREF
        check."""
        U = cls.__new__(cls)
        U.space, U.field, U.ambient = space, space.field, space.n
        U.packed, U.pivots, U.dim = packed, pivots, len(packed)
        U._rows = U._basis = U._points = None
        return U

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(map(self.space.unfold, self.packed))
        return self._rows

    @property
    def basis(self) -> MatrixFq:
        if self._basis is None:
            self._basis = MatrixFq._from_packed(self.field, self.ambient, self.packed)
        return self._basis

    @property
    def chunks(self) -> tuple:
        """`_Space.chunk_tables` of the rows, what the channel draws from:
        built on first read and kept. No constructor sets the slot, so a
        subspace that is never drawn from pays nothing for it."""
        try:
            return self._chunks
        except AttributeError:
            self._chunks = self.space.chunk_tables(self.packed)
            return self._chunks

    @property
    def distance_points(self) -> frozenset:
        """The points of U, or of U⊥ when 2 dim U > n, as packed integers.

        d_S(U, V) = d_S(U⊥, V⊥), so equal-dimension distances may use either
        side, and no set is larger than that of a floor(n/2)-space.
        """
        if self._points is None:
            side = orthogonal_complement(self) if 2 * self.dim > self.ambient else self
            self._points = frozenset(points(side))
        return self._points

    @staticmethod
    def _check_rref(rows) -> tuple:
        """The pivot columns of `rows`; raises LinAlgError unless they are in RREF."""
        pivots = []
        prev_pivot = -1
        for i, row in enumerate(rows):
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is None or pivot <= prev_pivot or row[pivot] != 1:
                raise LinAlgError("basis is not in RREF")
            for j, other in enumerate(rows):
                if j != i and other[pivot]:
                    raise LinAlgError("basis is not in RREF (pivot column not cleared)")
            pivots.append(pivot)
            prev_pivot = pivot
        return tuple(pivots)

    @classmethod
    @functools.cache
    def zero(cls, field: FiniteField, ambient: int) -> "Subspace":
        """{0}, one shared object per field and ambient."""
        return cls._from_packed(_space(field, ambient), (), ())

    @classmethod
    def full(cls, field: FiniteField, ambient: int) -> "Subspace":
        space = _space(field, ambient)
        # Row c of the identity: 1, its own slot form, at entry c's shift.
        rows = tuple(1 << shift for shift in space.shifts)
        return cls._from_packed(space, rows, tuple(range(ambient)))

    def __eq__(self, other):
        # One `_Space` per field (by equality) and n: `is` compares both.
        return (
            isinstance(other, Subspace)
            and self.packed == other.packed
            and self.space is other.space
        )

    def __hash__(self):
        return hash((self.ambient, self.packed))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"


def rowspace(A: MatrixFq) -> Subspace:
    """Canonical Subspace spanned by the rows of A: the packed rows of its
    `rref`, never unfolded."""
    R, r, pivots = rref(A)
    return Subspace._from_packed(_space(A.field, A.cols), R.packed[:r], pivots)


def check_same_ambient(U: Subspace, V: Subspace):
    if U.space is not V.space:
        raise LinAlgError("subspaces live in different ambient spaces")


def sum_dim(U: Subspace, V: Subspace) -> int:
    """dim(U + V): one `_Space.rank` of U's and V's packed RREF rows
    stacked, the rule `nests` uses. Every step is an integer operation on
    digit-slot rows (see `_Space`); neither `rows` is built."""
    check_same_ambient(U, V)
    return U.space.rank(U.packed + V.packed)


def subspace_from_draw(U: Subspace, dim: int, x: int) -> Subspace | None:
    """The subspace of U that the channel's draw x selects, or None if the
    draw is rank-deficient.

    x, below q ** (dim * dim U), is read as the base-q digits of a dim x
    dim U coefficient matrix C, low digit first, row by row: the coordinates
    of the target's basis in U's RREF rows B. `_Space.draw` forms the rows
    of C·B on packed rows from the chunk tables `U.chunks`, and `rank` of
    those rows decides whether the draw is accepted: B's rows are
    independent, so rank(C·B) = rank(C). One `_Space.insert` puts an
    accepted draw in RREF, which is R·B for R the RREF of C, so the result
    carries `packed` and `pivots` and no `rows`.
    """
    space = U.space
    rows = tuple(space.draw(U.chunks, x, dim, U.dim))
    if rank(MatrixFq._from_packed(U.field, U.ambient, rows)) != dim:
        return None
    packed, pivots = [], []
    space.insert(packed, pivots, rows)
    return Subspace._from_packed(space, tuple(packed), tuple(pivots))


def intersect_dim(U: Subspace, V: Subspace) -> int:
    return U.dim + V.dim - sum_dim(U, V)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    """U + V in RREF, the rowspace of U's and V's bases stacked, without
    reducing U again: V's packed rows are inserted into U's by
    `_Space.insert`."""
    check_same_ambient(U, V)
    if not U.dim:
        return V
    rows, pivots = list(U.packed), list(U.pivots)
    if not U.space.insert(rows, pivots, V.packed):
        return U
    return Subspace._from_packed(U.space, tuple(rows), tuple(pivots))


def contains(U: Subspace, V: Subspace) -> bool:
    """True iff V is a subspace of U."""
    return sum_dim(U, V) == U.dim


def nests(lower: Subspace, upper: Subspace) -> bool:
    """True iff lower ⊂ upper and dim upper = dim lower + 1: the dimensions,
    then one `_Space.rank` of both packed RREFs stacked, as `sum_dim` ranks
    them. A pair from two spaces raises `check_same_ambient`'s LinAlgError."""
    if upper.dim != lower.dim + 1:
        return False
    check_same_ambient(upper, lower)
    return upper.space.rank(upper.packed + lower.packed) == upper.dim


def orthogonal_complement(U: Subspace) -> Subspace:
    """U⊥ = {v : u·v = 0 for all u in U}, of dimension n - dim U.

    A basis is read off U's RREF R: for each non-pivot column j, the vector
    with 1 at j and -R[i][j] at row i's pivot is orthogonal to every row of
    R, and these n - dim U vectors are independent. Each vector is packed
    by shifts: R[i][j] is read off `packed` at entry j's shift and its
    negative written at entry p_i's. One `rowspace` makes the basis
    canonical.
    """
    space = U.space
    shifts, negated, emask = space.shifts, space.negated, space.emask
    pivot_shifts = [shifts[p] for p in U.pivots]
    vectors = []
    for j, sj in enumerate(shifts):
        if j not in U.pivots:
            v = 1 << sj  # 1 is its own slot form
            for row, sp in zip(U.packed, pivot_shifts):
                v |= negated[(row >> sj) & emask] << sp
            vectors.append(v)
    if not vectors:
        return Subspace.zero(U.field, U.ambient)
    return rowspace(MatrixFq._from_packed(U.field, U.ambient, tuple(vectors)))


def points(U: Subspace) -> list:
    """The points of U, one per 1-dim subspace, as the packed integers of
    their vectors with leading entry 1: the digit-slot form of `packed`
    (1 bit a digit over characteristic 2, where it is the base-q integer,
    bit_length(p - 1) + 1 bits over odd p), so a 1-dim subspace P is the
    point `P.packed[0]`. They are the combinations of U's packed RREF rows
    whose first nonzero coefficient is 1, formed by `_Space.span` from each
    row's scalar multiples; U's `rows` are neither read nor built.
    """
    return U.space.span(U.packed)


def line_points(field: FiniteField, n: int, pts):
    """For each pair a, b of the distinct points `pts` of PG(n - 1, q), as
    `points` lists them, in `itertools.combinations` order: the q - 1 other
    points of their line, a + c·b for c = 1 .. q - 1 by `_Space.sums` of a and
    b's `multiples`, each scaled to a leading 1 (over F_2 a ^ b, which has one)."""
    space = _space(field, n)
    e, emask, element, inv = space.e, space.emask, space.element, space.inv
    q1 = field.q - 1
    multiples = [x for b in pts for x in space.multiples(b)[1:]]
    for i, a in enumerate(pts):
        line = space.sums((a,), multiples[(i + 1) * q1 :])  # each b after a
        leads = [element[(v >> (v.bit_length() - 1) // e * e) & emask] for v in line]
        line = [v if c == 1 else space.digits.scale(v, inv[c]) for v, c in zip(line, leads)]
        yield from zip(*[iter(line)] * q1)  # q - 1 points a pair


def prefix_rowspaces(A: MatrixFq, count: int) -> list:
    """rowspace(A.first_rows(j)) for j = 1 .. count, from one `_Space.insert`
    of A's first `count` packed rows that records every level. The list
    stops before the first row that adds no pivot, so it is shorter than
    `count` exactly when some prefix of j <= count rows has dimension below j."""
    levels = []
    _space(A.field, A.cols).insert([], [], A.packed[:count], levels)
    return levels


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n choose k]_q by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_subspaces(field: FiniteField, n: int, k: int, max_count: int = 10**6):
    """Yield every k-dim subspace of F_q^n exactly once, as canonical RREFs.

    Iterates over pivot-column patterns and the free entries to their right.
    """
    if not (0 <= k <= n):
        raise LinAlgError(f"dimension k={k} out of range for n={n}")
    total = gaussian_binomial(n, k, field.q)
    if total > max_count:
        raise EnumerationCapExceeded(
            f"[{n},{k}]_{field.q} = {total} subspaces exceeds cap {max_count}"
        )
    if k == 0:
        yield Subspace.zero(field, n)
        return
    space = _space(field, n)
    shifts, slot = space.shifts, space.slot
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        # Free positions: to the right of each row's pivot, excluding later pivots.
        free = [
            (i, shifts[c])
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        leads = [1 << shifts[p] for p in pivots]  # 1 is its own slot form
        for values in itertools.product(range(field.q), repeat=len(free)):
            rows = leads.copy()
            for (i, shift), v in zip(free, values):
                rows[i] |= slot[v] << shift
            yield Subspace._from_packed(space, tuple(rows), pivots)


# -- matrix text format ------------------------------------------------------
# First line: "q n_rows n_cols"; then one line of space-separated entry
# representatives per row.


def dump_matrix(A: MatrixFq) -> str:
    """The matrix text of A (a matrix with rows and no columns has empty row
    lines). Where each element's token is its own digit of base 2, 8 or 16
    (see `_text_digits`), a packed row is written by one `format()`, its
    digits spaced; otherwise it is unfolded straight into its tokens."""
    lines = [f"{A.field.q} {A.rows} {A.cols}"]
    spec = _text_digits(A.field)[3]
    if not A.cols:
        lines.extend([""] * A.rows)
    elif spec:
        fmt = f"0{A.cols}{spec}"
        lines.extend(" ".join(format(x, fmt)) for x in A.packed)
    else:
        unfold = _space(A.field, A.cols).unfold
        lines.extend(" ".join(map(str, unfold(x))) for x in A.packed)
    return "\n".join(lines)


@functools.cache
def _text_digits(field: FiniteField) -> tuple:
    """(tokens, chars, base, spec) for the field's matrix text: `tokens`
    maps each element's token as `dump_matrix` writes it to its slot form.
    A row of the one-character tokens `chars` alone is read by one
    `int(row, base)`, base = 2^e: `chars` are 0 .. min(q, 10) - 1 when each
    such token's slot form is its own value and 2^e <= 36 (F_2, F_3, F_4,
    F_5, F_7, F_8), and empty otherwise (F_9, F_16, ...). When `chars`
    name every element and the base is 2, 8 or 16 (F_2, F_3, F_5, F_7,
    F_8), `spec` is the `format()` type that writes a packed row's digits
    ("b", "o" or "x"), else empty."""
    digits = _digits(field)
    e, slot = digits.e, digits.slot
    chars = "0123456789"[: min(field.q, 10)]
    if 2**e > 36 or any(slot[a] != a for a in range(len(chars))):
        chars = ""
    spec = {2: "b", 8: "o", 16: "x"}.get(2**e, "") if len(chars) == field.q else ""
    return {str(a): x for a, x in enumerate(slot)}, chars, 2**e, spec


def _token_row(row: list, i: int, tokens: dict, e: int, q: int) -> int:
    """Row i of matrix text, split into its tokens `row`, read token by
    token: a token as `dump_matrix` writes it is one lookup in `tokens`,
    any other is read by `int()` and range-checked, so "01" is 1."""
    v = 0
    for t in row:
        x = tokens.get(t)
        if x is None:
            try:
                a = int(t)
            except ValueError:
                raise LinAlgError(f"row {i} has the non-integer entry {t!r}") from None
            if not 0 <= a < q:
                raise LinAlgError("entry out of field range")
            x = tokens[str(a)]
        v = v << e | x
    return v


def _parse_matrix(text: str, field: FiniteField | None, memo: dict) -> MatrixFq:
    if not isinstance(text, str):
        raise LinAlgError(f"matrix text must be a string, not {type(text).__name__}")
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise LinAlgError("empty matrix text")
    try:  # each distinct header line is read once a call, and unpacked per matrix
        head = memo.get(lines[0]) or memo.setdefault(lines[0], tuple(map(int, lines[0].split())))
        q, nrows, ncols = head
    except ValueError as exc:
        raise LinAlgError(f"bad matrix header {lines[0]!r}") from exc
    if field is None:
        field = field_from_order(q)
    elif field.q != q:
        raise FieldError(f"matrix header q={q} does not match field q={field.q}")
    if len(lines) - 1 != nrows:
        if ncols == 0 and nrows > 0 and len(lines) == 1:  # r blank row lines, as dumped
            return MatrixFq._from_packed(field, 0, (0,) * nrows)
        raise LinAlgError(f"expected {nrows} rows, got {len(lines) - 1}")
    tokens, chars, base, _ = _text_digits(field)
    e = base.bit_length() - 1
    # One call's texts share a field, or each has field_from_order(q): q names it.
    known = memo.setdefault((q, ncols), {})
    packed = []
    for i, ln in enumerate(lines[1:], start=1):
        v = known.get(ln)
        if v is None:
            row = ln.split()
            if len(row) != ncols:
                raise LinAlgError(f"row {ln!r} has wrong length")
            if chars and len(s := "".join(row)) == ncols and not s.strip(chars):
                v = int(s, base)
            else:
                v = _token_row(row, i, tokens, e, q)
            known[ln] = v
        packed.append(v)
    return MatrixFq._from_packed(field, ncols, tuple(packed))


def parse_matrix(text: str, field: FiniteField | None = None) -> MatrixFq:
    """The packed-row matrix of `dump_matrix` text (over the header's q by
    default); under ncols = 0, blank row lines alone are r rows of no entries.
    A row of exactly ncols one-character tokens, what `dump_matrix`
    writes over F_2 .. F_8, is read by one `int()` (see `_text_digits`); any
    other row goes through `_token_row`, so "01" is 1 and a bad token is
    named. Each distinct row line is read once."""
    return _parse_matrix(text, field, {})


def parse_matrices(texts, field: FiniteField | None, name: str):
    """`parse_matrix` of each text in turn, every distinct header and row
    line of the texts read once, an error naming the matrix by `name` and its
    index from 1: "generator 4: row 2 has the non-integer entry 'x'"."""
    memo = {}  # header line -> its ints; (q, ncols) -> {row line: packed row}
    for i, text in enumerate(texts, start=1):
        try:
            yield _parse_matrix(text, field, memo)
        except (LinAlgError, FieldError) as exc:
            raise type(exc)(f"{name} {i}: {exc}") from exc
