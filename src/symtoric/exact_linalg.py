"""Exact integer linear algebra on dense matrices.

Determinants use fraction-free Bareiss elimination, adjugates come from
signed cofactors, and the Smith normal form routine returns the full
decomposition U @ M @ V == S with unimodular transform witnesses.  It
eliminates on one block matrix [[M, I], [I, 0]], which ends as
[[S, U], [V, 0]], so each row and column operation is written once.
Everything runs on Python's arbitrary-precision integers; no floating
point appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "DimensionError",
    "IntegerMatrix",
    "SmithDecomposition",
    "determinant",
    "adjugate",
    "smith_normal_form",
]


class DimensionError(ValueError):
    """A matrix or vector has the wrong shape for the requested operation."""


def _is_integer(entry: object) -> bool:
    """An ``int`` that is not a ``bool``: a matrix entry or lattice coordinate."""
    return isinstance(entry, int) and not isinstance(entry, bool)


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix with entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntegerMatrix":
        data = [tuple(row) for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise DimensionError("rows have unequal lengths")
            if bad := [entry for entry in row if not _is_integer(entry)]:
                raise TypeError(f"non-integer entry {bad[0]!r}")
        flat = tuple(entry for row in data for entry in row)
        return cls(len(data), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        columns = zip(*map(self.row, range(self.rows)))
        return IntegerMatrix(self.cols, self.rows, tuple(x for column in columns for x in column))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise DimensionError(f"vector length {len(vector)} != {self.cols} columns")
        return tuple(sum(map(mul, self.row(i), vector)) for i in range(self.rows))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = [other.column(j) for j in range(other.cols)]
        out = tuple(sum(map(mul, self.row(i), c)) for i in range(self.rows) for c in columns)
        return IntegerMatrix(self.rows, other.cols, out)


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form S of a matrix M with witnesses U @ M @ V == S.

    U and V are unimodular, S is diagonal with nonnegative entries, and
    each diagonal entry divides the next.  ``invariant_factors`` lists the
    diagonal of S (nonzero entries first, then any zeros).
    """

    U: IntegerMatrix
    S: IntegerMatrix
    V: IntegerMatrix
    invariant_factors: tuple[int, ...]


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    The 0x0 determinant is 1 (empty product), matching the convention
    that the trivial cone has trivial parallelotope volume.
    """
    if m.rows != m.cols:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees prev divides the product
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: IntegerMatrix) -> IntegerMatrix:
    """Adjugate matrix: m @ adjugate(m) == determinant(m) * identity."""
    if m.rows != m.cols:
        raise DimensionError(f"adjugate needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return m
    if n == 1:
        return IntegerMatrix.from_rows([[1]])
    rows = m.to_rows()
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(rows) if k != j]
            cof = determinant(IntegerMatrix.from_rows(minor))
            out[i][j] = -cof if (i + j) % 2 else cof
    return IntegerMatrix.from_rows(out)


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, deterministically.

    Pivot rule: the entry of smallest nonzero absolute value in the
    remaining submatrix, ties broken by lowest (row, col) position.  The
    elimination runs on the block matrix [[M, I], [I, 0]]: a row
    operation on its first rows changes M and U together, a column
    operation on its first columns changes M and V together, so it ends
    as [[S, U], [V, 0]] and U @ M @ V == S holds exactly on return.
    """
    nrows, ncols = m.rows, m.cols
    # [[M, I], [I, 0]] with the zero block left out: nothing reads it
    a = [[*m.row(i), *(int(i == k) for k in range(nrows))] for i in range(nrows)]
    a += [[int(j == k) for k in range(ncols)] for j in range(ncols)]

    def add_row(src: int, dst: int, k: int) -> None:
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in a:
            row[dst] += k * row[src]

    limit = min(nrows, ncols)
    for t in range(limit):
        while True:
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    val = abs(a[i][j])
                    if val and (best is None or val < best):
                        best, pi, pj = val, i, j
            if best is None:
                break
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            clean = True
            for i in range(t + 1, nrows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // p))
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, ncols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // p))
                    if a[t][j]:
                        clean = False
            if not clean:
                # a remainder smaller than the pivot appeared; re-pivot
                continue
            for i in range(t + 1, nrows):
                if any(a[i][j] % p for j in range(t + 1, ncols)):
                    # pull the non-divisible row up so the next pivot shrinks
                    add_row(i, t, 1)
                    break
            else:
                break
    return SmithDecomposition(
        U=IntegerMatrix(nrows, nrows, tuple(x for row in a[:nrows] for x in row[ncols:])),
        S=IntegerMatrix(nrows, ncols, tuple(x for row in a[:nrows] for x in row[:ncols])),
        V=IntegerMatrix(ncols, ncols, tuple(x for row in a[nrows:] for x in row)),
        invariant_factors=tuple(a[i][i] for i in range(limit)),
    )
