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
    """Dense rows x cols matrix over a FiniteField, entries row-major ints."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FiniteField, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise LinAlgError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        if entries and not (0 <= min(entries) and max(entries) < field.q):
            raise LinAlgError("entry out of field range")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _trusted(cls, field: FiniteField, rows: int, cols: int, entries: tuple) -> "MatrixFq":
        """A matrix the kernel computed, its entries a tuple already in range:
        neither the shape nor the range is checked."""
        A = cls.__new__(cls)
        A.field, A.rows, A.cols, A.entries = field, rows, cols, entries
        return A

    @classmethod
    def from_rows(cls, field: FiniteField, row_lists) -> "MatrixFq":
        row_lists = [list(r) for r in row_lists]
        cols = len(row_lists[0]) if row_lists else 0
        return cls(field, len(row_lists), cols, itertools.chain.from_iterable(row_lists))

    @classmethod
    def zero(cls, field: FiniteField, rows: int, cols: int) -> "MatrixFq":
        return cls(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "MatrixFq":
        return cls(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # Slices and stacks of checked matrices need no range check: 0 <= t <= rows.
    def first_rows(self, t: int) -> "MatrixFq":
        return MatrixFq._trusted(self.field, t, self.cols, self.entries[: t * self.cols])

    def last_rows(self, t: int) -> "MatrixFq":
        return MatrixFq._trusted(
            self.field, t, self.cols, self.entries[(self.rows - t) * self.cols :]
        )

    def stack(self, other: "MatrixFq") -> "MatrixFq":
        if other.cols != self.cols or other.field != self.field:
            raise LinAlgError("stack shape/field mismatch")
        return MatrixFq._trusted(
            self.field, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def matmul(self, other: "MatrixFq") -> "MatrixFq":
        if self.cols != other.rows or self.field != other.field:
            raise LinAlgError("matmul shape/field mismatch")
        F = self.field
        mul, sub = F.mul_table, F.sub_table
        neg = sub[0]
        other_rows = [other.row(k) for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            # Row i of the product is sum_k a_k * other_row_k, accumulated
            # as acc - (-a_k) * other_row_k: the elimination step of RREF.
            acc = [0] * other.cols
            for a, row in zip(self.row(i), other_rows):
                if a:
                    m = mul[neg[a]]
                    acc = [sub[x][m[y]] for x, y in zip(acc, row)]
            out.extend(acc)
        return MatrixFq._trusted(F, self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == MatrixFq.identity(self.field, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"MatrixFq({self.rows}x{self.cols} over q={self.field.q}: {body})"


def _rref_rows(field: FiniteField, rows):
    """Gauss-Jordan elimination to RREF on a list of rows, by table lookups.

    Rows are replaced, never mutated, so they may be any sequences of
    elements. Returns (rows, rank, pivots).
    """
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        if pivot[c] != 1:
            m = mul[inv[pivot[c]]]
            pivot = rows[r] = [m[x] for x in pivot]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                m = mul[f]
                rows[i] = [sub[x][m[y]] for x, y in zip(rows[i], pivot)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, tuple(pivots)


def _rank_rows(field: FiniteField, rows) -> int:
    """Rank of a list of rows by forward elimination, by table lookups.

    Each pivot clears only the rows below it, each scaled by the pivot's
    inverse on the fly: no row is normalised and nothing above a pivot is
    cleared, since only the count of pivots is read. Rows are replaced,
    never mutated, as in `_rref_rows`.
    """
    nrows = len(rows)
    if nrows < 2:
        return sum(1 for row in rows if any(row))
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        scale = mul[inv[pivot[c]]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                m = mul[scale[f]]
                rows[i] = [sub[x][m[y]] for x, y in zip(rows[i], pivot)]
        r += 1
        if r == nrows:
            break
    return r


def _base_q(digits, q: int) -> int:
    """A row as its base-q integer, first entry most significant."""
    x = 0
    for d in digits:
        x = x * q + d
    return x


@functools.cache
def _chunk_digits(m: int):
    """Digit tables for integers whose base-2^m digits are their m-bit
    fields: t = max(1, 8 // m) digits are read at a time as one chunk of
    t·m bits, and each chunk value maps to its t digits, low digit first
    and high digit first. Returns (t, low_first, high_first)."""
    t = max(1, 8 // m)
    w = (1 << m) - 1
    low = [tuple((v >> (i * m)) & w for i in range(t)) for v in range(1 << (t * m))]
    return t, low, [d[::-1] for d in low]


@functools.cache
def _scaled_chunks(field: FiniteField):
    """For a field of characteristic 2: the chunk width of
    `_chunk_digits(field.m)` in bits, and for each scalar a a table from each
    chunk value to the integer of the same digits, each multiplied by a."""
    m = field.m
    t, low, _ = _chunk_digits(m)
    tables = [
        [sum(row[d] << (i * m) for i, d in enumerate(digits)) for digits in low]
        for row in field.mul_table
    ]
    return t * m, tables


def _scale_digits(v: int, table: list, width: int) -> int:
    """v, an integer of base-2^m digits, with every digit multiplied by the
    scalar of `table` (one of `_scaled_chunks`), one `width`-bit chunk at a
    time."""
    mask = (1 << width) - 1
    out = shift = 0
    while v:
        out |= table[v & mask] << shift
        v >>= width
        shift += width
    return out


def _rank_packed(packed) -> int:
    """Rank of F_2 rows as base-2 integers, by XOR on their leading bit, as
    M4RI eliminates packed words."""
    pivots = {}
    for row in packed:
        while row:
            lead = row.bit_length()
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = row
                break
            row ^= p
    return len(pivots)


def rref(A: MatrixFq):
    """Reduced row echelon form of A: (rref_matrix, rank, pivot_columns)."""
    rows, rank, pivots = _rref_rows(A.field, A.row_lists())
    R = MatrixFq._trusted(A.field, A.rows, A.cols, tuple(itertools.chain.from_iterable(rows)))
    return R, rank, pivots


# F_2 entries 0 and 1 as the bytes of the digits "0" and "1".
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def rank(A: MatrixFq) -> int:
    """The one rank entry point: packed rows over F_2, forward elimination
    otherwise. Over F_2 all entries are read as one binary numeral, whose
    cols-bit slices are the rows (last row lowest)."""
    if A.field.q == 2:
        if not A.entries:
            return 0
        bits, c = int(bytes(A.entries).translate(_BINARY_DIGITS), 2), A.cols
        mask = (1 << c) - 1
        return _rank_packed((bits >> s) & mask for s in range(0, A.rows * c, c))
    return _rank_rows(A.field, A.row_lists())


class Subspace:
    """A k-dimensional subspace of F_q^n, kept as its canonical RREF rows.

    `rows` are tuples, none for the zero subspace, and `pivots` their pivot
    columns, which `sum_dim` and `subspace_sum` reduce against. Equality is
    on the ambient, `rows` and the field; hashing on the first two. `basis`,
    the dim x n matrix of `rows`, `packed`, each row as its base-q integer,
    `multiples`, each row's q scalar multiples as base-q integers, and
    `distance_points` are built on first read and kept. An RREF row has
    leading entry 1, so its integer is its point, in the form `points`
    lists; over F_2 it is also the form `sum_dim` ranks.

    `Subspace(basis)` checks that the basis is in RREF and keeps it; the
    kernel's own results go through `Subspace._reduced`, which does not,
    or, as packed rows over characteristic 2, through
    `Subspace._from_packed`.
    """

    __slots__ = (
        "field", "ambient", "dim", "rows", "pivots", "_basis", "_packed", "_multiples", "_points",
    )

    def __init__(self, basis: MatrixFq):
        rows = tuple(basis.row(i) for i in range(basis.rows))
        self._set(basis.field, basis.cols, rows, self._check_rref(rows), basis)

    @classmethod
    def _reduced(cls, field: FiniteField, ambient: int, rows, pivots) -> "Subspace":
        """The subspace of `rows`, already in RREF with these pivot columns:
        for the kernel's own results only, so no entry or RREF check."""
        U = cls.__new__(cls)
        U._set(field, ambient, tuple(map(tuple, rows)), tuple(pivots))
        return U

    @classmethod
    def _from_packed(cls, field: FiniteField, ambient: int, packed: tuple, pivots) -> "Subspace":
        """The subspace of the RREF rows `packed`, as base-q integers, with
        these pivot columns, over a field of characteristic 2: for the
        kernel's own results only, as `_reduced`. Each base-q digit is an
        m-bit field, so `rows` is filled once by looking the integers up in
        `_chunk_digits` a chunk at a time."""
        t, _, high = _chunk_digits(field.m)
        width = t * field.m
        mask = (1 << width) - 1
        chunks = -(-ambient // t)
        top = (chunks - 1) * width
        pad = chunks * t - ambient
        rows = []
        for v in packed:
            row = high[v >> top]
            for s in range(top - width, -1, -width):
                row += high[(v >> s) & mask]
            rows.append(row[pad:])
        U = cls.__new__(cls)
        U._set(field, ambient, tuple(rows), tuple(pivots))
        U._packed = packed
        return U

    def _set(self, field: FiniteField, ambient: int, rows: tuple, pivots: tuple, basis=None):
        self.field, self.ambient, self.rows, self.pivots = field, ambient, rows, pivots
        self.dim, self._basis, self._packed, self._points = len(rows), basis, None, None
        self._multiples = None

    @property
    def basis(self) -> MatrixFq:
        if self._basis is None:
            entries = tuple(itertools.chain.from_iterable(self.rows))
            self._basis = MatrixFq._trusted(self.field, self.dim, self.ambient, entries)
        return self._basis

    @property
    def packed(self) -> tuple:
        if self._packed is None:
            q = self.field.q
            self._packed = tuple(_base_q(row, q) for row in self.rows)
        return self._packed

    @property
    def multiples(self) -> tuple:
        """For each row, its q scalar multiples c·row, c = 0 .. q - 1, as
        base-q integers, built on first read and kept.

        Over characteristic 2 base-q digits add by XOR, so these are what
        `points` and the channel's R·B combine, and c·row is the XOR of
        2^j·row over the bits j of c: only the m - 1 rows 2^j·row, j >= 1,
        are scaled, a chunk of digits at a time (`_scaled_chunks`), and the
        rest is filled in by XOR.
        """
        if self._multiples is None:
            field = self.field
            if field.p == 2:
                width, tables = _scaled_chunks(field)
                out = []
                for v in self.packed:
                    multiples = [0, v]
                    for j in range(1, field.m):
                        b = _scale_digits(v, tables[1 << j], width)
                        multiples += [w ^ b for w in multiples]
                    out.append(tuple(multiples))
                self._multiples = tuple(out)
            else:
                q, mul = field.q, field.mul_table
                self._multiples = tuple(
                    tuple(_base_q([m[x] for x in row], q) for m in mul) for row in self.rows
                )
        return self._multiples

    @property
    def distance_points(self) -> frozenset:
        """The points of U, or of U⊥ when 2 dim U > n, as base-q integers.

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
        return cls._reduced(field, ambient, (), ())

    @classmethod
    def full(cls, field: FiniteField, ambient: int) -> "Subspace":
        rows = MatrixFq.identity(field, ambient).row_lists()
        return cls._reduced(field, ambient, rows, range(ambient))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rows == other.rows and (
            self.ambient == other.ambient
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"


def rowspace(A: MatrixFq) -> Subspace:
    """Canonical Subspace spanned by the rows of A."""
    R, r, pivots = rref(A)
    return Subspace._reduced(A.field, A.cols, map(R.row, range(r)), pivots)


def check_same_ambient(U: Subspace, V: Subspace):
    if U.ambient != V.ambient or (U.field is not V.field and U.field != V.field):
        raise LinAlgError("subspaces live in different ambient spaces")


def _reduce_rows(field: FiniteField, rows, pivots, vectors) -> list:
    """The nonzero residuals v - sum_j v[p_j] * u_j of `vectors` against RREF
    rows u_j with pivot columns p_j.

    Each u_j is zero at every other pivot, so one pass clears all of them: a
    residual is zero at every p_j, and is zero iff v lies in the rows' span.
    """
    mul, sub = field.mul_table, field.sub_table
    out = []
    for v in vectors:
        for u, p in zip(rows, pivots):
            c = v[p]
            if c:
                m = mul[c]
                v = [sub[x][m[y]] for x, y in zip(v, u)]
        if any(v):
            out.append(v)
    return out


def sum_dim(U: Subspace, V: Subspace) -> int:
    """dim(U + V): dim U plus the rank of V's rows reduced against U's
    pivots. U is already in RREF, so it is not reduced again, and V ⊆ U
    leaves no residual to rank.

    Over F_2 the packed rows go to `_rank_packed` together: U's rows have
    distinct leading bits, so they enter its pivot table as they are, and
    each of V's rows is reduced against them, and then against the earlier
    residuals, by XOR. Otherwise the residuals are ranked by forward
    elimination alone.
    """
    check_same_ambient(U, V)
    if U.field.q == 2:
        return _rank_packed(U.packed + V.packed)
    residuals = _reduce_rows(U.field, U.rows, U.pivots, V.rows)
    return U.dim + _rank_rows(U.field, residuals)


def subspace_from_coordinates(U: Subspace, coeffs) -> Subspace:
    """The subspace of U whose basis has the full-rank coefficient rows
    `coeffs` as its coordinates in U's RREF rows B: the rowspace of
    coeffs·B, with no product formed and one reduction of the small matrix.

    Reduce the coefficients to their RREF R with pivot columns c_t. Then
    R·B is in RREF already: B's pivot columns hold the identity, so they
    carry R's pivot columns into R·B, and B's rows are zero left of their
    pivots. Row t of R·B is B's row c_t plus R[t][f] times B's row f for
    each column f > c_t; R is zero at its other pivot columns, so those add
    nothing.

    This is the list route, on rows of field elements, that
    `subspace_from_draw` takes over odd p; over characteristic 2 it forms
    the same R·B on packed rows instead, from `U.multiples`.
    """
    field = U.field
    mul, sub = field.mul_table, field.sub_table
    neg = sub[0]
    R, _, pivots = _rref_rows(field, list(coeffs))
    rows = []
    for r, c in zip(R, pivots):
        row = U.rows[c]
        for f in range(c + 1, U.dim):
            a = r[f]
            if a:
                # row + a*B_f, computed as row - (-a)*B_f.
                m = mul[neg[a]]
                row = [sub[x][m[y]] for x, y in zip(row, U.rows[f])]
        rows.append(row)
    return Subspace._reduced(field, U.ambient, rows, (U.pivots[c] for c in pivots))


def _xor_rref(field: FiniteField, rows: list):
    """RREF of independent rows of base-2^m digits, entry c the m-bit field
    at bit c·m (low digit first), by XOR: each row is reduced at its lowest
    nonzero digit against the pivot rows found so far, then scaled to a
    leading 1 and kept; then each pivot column is cleared from the rows of
    smaller pivot. Returns the reduced rows and their pivot columns, both
    ascending by pivot. Over F_2 every digit is 1, so nothing is scaled."""
    m, w, inv = field.m, field.q - 1, field.inv_table
    width, tables = _scaled_chunks(field) if m > 1 else (0, None)
    found = {}
    for v in rows:
        while True:
            c = ((v & -v).bit_length() - 1) // m
            a = (v >> (c * m)) & w
            p = found.get(c)
            if p is None:
                break
            v ^= p if a == 1 else _scale_digits(p, tables[a], width)
        found[c] = v if a == 1 else _scale_digits(v, tables[inv[a]], width)
    cols = sorted(found)
    R = [found[c] for c in cols]
    for j in range(1, len(R)):
        shift, p = cols[j] * m, R[j]
        for i in range(j):
            a = (R[i] >> shift) & w
            if a:
                R[i] ^= p if a == 1 else _scale_digits(p, tables[a], width)
    return R, cols


def subspace_from_draw(U: Subspace, dim: int, x: int) -> Subspace | None:
    """The subspace of U that the channel's draw x selects, or None if the
    draw is rank-deficient.

    x, below q ** (dim * dim U), is read as the base-q digits of a dim x
    dim U coefficient matrix, low digit first, row by row: the coordinates
    of the target's basis in U's RREF rows B. `rank` of that matrix decides
    whether the draw is accepted. Over odd p the digits go to
    `subspace_from_coordinates` as row lists. Over characteristic 2 each
    digit is an m-bit field of x, so coefficient row i is a bit slice of x:
    `_xor_rref` reduces those slices to R, and row t of R·B, which is in
    RREF (see `subspace_from_coordinates`), is the XOR over the columns f of
    `U.multiples[f][R[t][f]]`. Its base-q integers are the result's
    `packed` rows and its pivots those of B at R's pivot columns.
    """
    field, k = U.field, U.dim
    size = dim * k
    if field.p != 2:
        q, digits = field.q, []
        for _ in range(size):
            x, digit = divmod(x, q)
            digits.append(digit)
        coeffs = MatrixFq._trusted(field, dim, k, tuple(digits))
        if rank(coeffs) != dim:
            return None
        return subspace_from_coordinates(U, map(coeffs.row, range(dim)))
    m = field.m
    t, low, _ = _chunk_digits(m)
    width = t * m
    mask = (1 << width) - 1
    digits = low[x & mask]
    for s in range(width, size * m, width):
        digits += low[(x >> s) & mask]
    if rank(MatrixFq._trusted(field, dim, k, digits[:size])) != dim:
        return None
    row_bits, w = k * m, field.q - 1
    mask = (1 << row_bits) - 1
    R, cols = _xor_rref(field, [(x >> (i * row_bits)) & mask for i in range(dim)])
    packed = []
    for r in R:
        v = 0
        for multiples in U.multiples:
            if not r:
                break
            if r & w:
                v ^= multiples[r & w]
            r >>= m
        packed.append(v)
    return Subspace._from_packed(field, U.ambient, tuple(packed), [U.pivots[c] for c in cols])


def intersect_dim(U: Subspace, V: Subspace) -> int:
    return U.dim + V.dim - sum_dim(U, V)


def _insert_rows(field: FiniteField, rows: list, pivots: list, vectors) -> int:
    """Add `vectors` one at a time to the RREF `rows` with pivot columns
    `pivots`, lists kept in RREF in place; returns how many were added. Each
    vector is reduced and skipped if nothing is left, else scaled to a
    leading 1, cleared from the earlier rows and inserted at its pivot's
    place. Rows are replaced by tuples, never mutated."""
    mul, sub, inv = field.mul_table, field.sub_table, field.inv_table
    start = len(rows)
    for v in vectors:
        residual = _reduce_rows(field, rows, pivots, (v,))
        if not residual:
            continue
        v = residual[0]
        lead = next(c for c, x in enumerate(v) if x)
        m = mul[inv[v[lead]]]
        v = tuple([m[x] for x in v])
        for i, u in enumerate(rows):
            if u[lead]:
                m = mul[u[lead]]
                rows[i] = tuple([sub[x][m[y]] for x, y in zip(u, v)])
        at = bisect.bisect(pivots, lead)
        rows.insert(at, v)
        pivots.insert(at, lead)
    return len(rows) - start


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    """U + V in RREF, the rowspace of U's and V's bases stacked, without
    reducing U again: V's rows are inserted into U's by `_insert_rows`."""
    check_same_ambient(U, V)
    if not U.dim:
        return V
    rows, pivots = list(U.rows), list(U.pivots)
    if not _insert_rows(U.field, rows, pivots, V.rows):
        return U
    return Subspace._reduced(U.field, U.ambient, rows, pivots)


def contains(U: Subspace, V: Subspace) -> bool:
    """True iff V is a subspace of U."""
    return sum_dim(U, V) == U.dim


def orthogonal_complement(U: Subspace) -> Subspace:
    """U⊥ = {v : u·v = 0 for all u in U}, of dimension n - dim U.

    A basis is read off U's RREF R: for each non-pivot column j, the vector
    with 1 at j and -R[i][j] at row i's pivot is orthogonal to every row of
    R, and these n - dim U vectors are independent. One `rowspace` makes it
    canonical.
    """
    neg = U.field.sub_table[0]
    free = [j for j in range(U.ambient) if j not in U.pivots]
    vectors = []
    for j in free:
        v = [0] * U.ambient
        v[j] = 1
        for row, p in zip(U.rows, U.pivots):
            v[p] = neg[row[j]]
        vectors.append(v)
    if not vectors:
        return Subspace.zero(U.field, U.ambient)
    return rowspace(MatrixFq.from_rows(U.field, vectors))


def points(U: Subspace) -> list:
    """The points of U, one per 1-dim subspace, as the base-q integers of
    their vectors with leading entry 1: the form of `packed`, so a 1-dim
    subspace P is the point `P.packed[0]`.

    Over F_2 vectors add by XOR of their integers, so the points are the
    nonzero XOR combinations of `packed`; with at most one row there is no
    sum to form, so every field takes that path. Otherwise they are the
    combinations of U's RREF rows whose first nonzero coefficient is 1 (that
    row's pivot then carries the leading 1). Over any other field of
    characteristic 2 base-q digits still add by XOR, so each row's q scalar
    multiples are folded to integers once and the span is formed by XOR;
    over odd q each combination is formed as a vector and folded to base q.
    """
    q = U.field.q
    if q == 2 or U.dim < 2:
        span = [0]
        for row in U.packed:
            span += [x ^ row for x in span]
        return span[1:]
    if U.field.p == 2:
        span = [0]  # the span of the rows below row i
        out = []
        for i in reversed(range(U.dim)):
            row = U.packed[i]
            out += [w ^ row for w in span]
            if i:
                span = [w ^ c for c in U.multiples[i] for w in span]
        return out
    mul, sub = U.field.mul_table, U.field.sub_table
    neg = sub[0]
    span = [(0,) * U.ambient]  # the span of the rows below row i
    out = []
    for i in reversed(range(U.dim)):
        # w + c*row, computed as w - (-c*row) for every multiplier c.
        negated = [[neg[m[x]] for x in U.rows[i]] for m in mul]
        out.extend(_base_q([sub[a][b] for a, b in zip(w, negated[1])], q) for w in span)
        if i:
            span = [[sub[a][b] for a, b in zip(w, nc)] for nc in negated for w in span]
    return out


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
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        # Free positions: to the right of each row's pivot, excluding later pivots.
        free = [
            (i, c)
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        for values in itertools.product(range(field.q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield Subspace._reduced(field, n, rows, pivots)


# -- matrix text format ------------------------------------------------------
# First line: "q n_rows n_cols"; then one line of space-separated entry
# representatives per row.


def dump_matrix(A: MatrixFq) -> str:
    lines = [f"{A.field.q} {A.rows} {A.cols}"]
    lines.extend(" ".join(str(e) for e in A.row(i)) for i in range(A.rows))
    return "\n".join(lines)


def parse_matrix(text: str, field: FiniteField | None = None) -> MatrixFq:
    if not isinstance(text, str):
        raise LinAlgError(f"matrix text must be a string, not {type(text).__name__}")
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise LinAlgError("empty matrix text")
    try:
        q, nrows, ncols = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise LinAlgError(f"bad matrix header {lines[0]!r}") from exc
    if field is None:
        field = field_from_order(q)
    elif field.q != q:
        raise FieldError(f"matrix header q={q} does not match field q={field.q}")
    if len(lines) - 1 != nrows:
        raise LinAlgError(f"expected {nrows} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != ncols:
            raise LinAlgError(f"row {ln!r} has wrong length")
        rows.append(row)
    return MatrixFq.from_rows(field, rows) if nrows else MatrixFq(field, 0, ncols, ())
