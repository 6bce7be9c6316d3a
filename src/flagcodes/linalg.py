"""Dense linear algebra over F_q: RREF, rank, row spaces, subspace lattice ops.

Matrices are immutable; subspaces are kept in canonical reduced row echelon
form so that equality and hashing are structural.
"""

from __future__ import annotations

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
        if any(not (0 <= e < field.q) for e in entries):
            raise LinAlgError("entry out of field range")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

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

    def first_rows(self, t: int) -> "MatrixFq":
        return MatrixFq(self.field, t, self.cols, self.entries[: t * self.cols])

    def last_rows(self, t: int) -> "MatrixFq":
        return MatrixFq(self.field, t, self.cols, self.entries[(self.rows - t) * self.cols :])

    def stack(self, other: "MatrixFq") -> "MatrixFq":
        if other.cols != self.cols or other.field != self.field:
            raise LinAlgError("stack shape/field mismatch")
        return MatrixFq(
            self.field, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def matmul(self, other: "MatrixFq") -> "MatrixFq":
        if self.cols != other.rows or self.field != other.field:
            raise LinAlgError("matmul shape/field mismatch")
        F = self.field
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        acc = F.add(acc, F.mul(a, other.entries[k * other.cols + j]))
                out.append(acc)
        return MatrixFq(F, self.rows, other.cols, out)

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
    """In-place Gaussian elimination to RREF; returns (rows, rank, pivots)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, tuple(pivots)


def rref(A: MatrixFq):
    """Reduced row echelon form of A: (rref_matrix, rank, pivot_columns)."""
    rows, rank, pivots = _rref_rows(A.field, A.row_lists())
    R = MatrixFq(A.field, A.rows, A.cols, itertools.chain.from_iterable(rows))
    return R, rank, pivots


def _pack_gf2_row(row) -> int:
    acc = 0
    for x in row:
        acc = (acc << 1) | x
    return acc


def _rank_gf2_packed(packed_rows) -> int:
    pivots = {}
    rank = 0
    for row in packed_rows:
        while row:
            msb = row.bit_length()
            p = pivots.get(msb)
            if p is None:
                pivots[msb] = row
                rank += 1
                break
            row ^= p
    return rank


def rank(A: MatrixFq) -> int:
    if A.field.q == 2:
        return _rank_gf2_packed(_pack_gf2_row(A.row(i)) for i in range(A.rows))
    _, r, _ = rref(A)
    return r


class Subspace:
    """A k-dimensional subspace of F_q^n, canonically an RREF basis matrix.

    The zero subspace is the 0 x n basis. Equality and hashing are entry-wise
    on the canonical basis.
    """

    __slots__ = ("ambient", "dim", "basis", "_packed")

    def __init__(self, basis: MatrixFq):
        self.ambient = basis.cols
        self.dim = basis.rows
        self.basis = basis
        self._packed = None
        self._check_rref()

    def _check_rref(self):
        prev_pivot = -1
        for i in range(self.dim):
            row = self.basis.row(i)
            pivot = next((c for c, x in enumerate(row) if x), None)
            if pivot is None or pivot <= prev_pivot or row[pivot] != 1:
                raise LinAlgError("basis is not in RREF")
            for j in range(self.dim):
                if j != i and self.basis.entries[j * self.ambient + pivot]:
                    raise LinAlgError("basis is not in RREF (pivot column not cleared)")
            prev_pivot = pivot

    @property
    def field(self) -> FiniteField:
        return self.basis.field

    def packed_rows(self):
        """Bit-packed basis rows; only meaningful for q = 2."""
        if self._packed is None:
            self._packed = tuple(
                _pack_gf2_row(self.basis.row(i)) for i in range(self.dim)
            )
        return self._packed

    @classmethod
    def zero(cls, field: FiniteField, ambient: int) -> "Subspace":
        return cls(MatrixFq(field, 0, ambient, ()))

    @classmethod
    def full(cls, field: FiniteField, ambient: int) -> "Subspace":
        return cls(MatrixFq.identity(field, ambient))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, q={self.field.q})"


def rowspace(A: MatrixFq) -> Subspace:
    """Canonical Subspace spanned by the rows of A."""
    R, r, _ = rref(A)
    return Subspace(R.first_rows(r))


def _check_same_ambient(U: Subspace, V: Subspace):
    if U.ambient != V.ambient or U.field != V.field:
        raise LinAlgError("subspaces live in different ambient spaces")


def sum_dim(U: Subspace, V: Subspace) -> int:
    """dim(U + V), the rank of the vertically stacked bases."""
    _check_same_ambient(U, V)
    if U.field.q == 2:
        return _rank_gf2_packed(itertools.chain(U.packed_rows(), V.packed_rows()))
    return rank(U.basis.stack(V.basis))


def intersect_dim(U: Subspace, V: Subspace) -> int:
    return U.dim + V.dim - sum_dim(U, V)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    return rowspace(U.basis.stack(V.basis))


def contains(U: Subspace, V: Subspace) -> bool:
    """True iff V is a subspace of U."""
    return sum_dim(U, V) == U.dim


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
            yield Subspace(MatrixFq.from_rows(field, rows))


# -- matrix text format ------------------------------------------------------
# First line: "q n_rows n_cols"; then one line of space-separated entry
# representatives per row.


def dump_matrix(A: MatrixFq) -> str:
    lines = [f"{A.field.q} {A.rows} {A.cols}"]
    lines.extend(" ".join(str(e) for e in A.row(i)) for i in range(A.rows))
    return "\n".join(lines)


def parse_matrix(text: str, field: FiniteField | None = None) -> MatrixFq:
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
