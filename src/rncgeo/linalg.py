"""Exact dense linear algebra over Q.

Rows are cleared of denominators by `scalars.integerize` (or, where the
scale matters, `scalars.clear_denominators`).  Ranks and determinants use
one fraction-free (Bareiss) forward pass: every intermediate entry is a
minor of the integer matrix, so there is no coefficient explosion beyond
what the minors themselves require and no division error anywhere.
Kernels and solves use integer cross-elimination with content reduction,
rationalizing only in the final normalization pass.
All n + 1 signed maximal minors of an n x (n+1) integer matrix come from
one Bareiss forward pass and one exact back substitution.

The public operations accept either a `Matrix` or a plain sequence of rows
of scalars and never mutate them; `signed_maximal_minors` takes integer
rows and consumes them.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .scalars import QQ, clear_denominators, integerize

Vector = list  # list[QQ]


class Matrix:
    """Immutable dense matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(tuple(QQ(x) for x in row) for row in entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows")
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[QQ(int(i == j)) for j in range(n)] for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries))) if self.entries else Matrix([])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.entries))
            return Matrix(
                [[_dot(row, col) for col in cols] for row in self.entries]
            )
        return self.apply(other)

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return [_dot(row, vec) for row in self.entries]

    def det(self) -> QQ:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rows, scale = [], 1
        for row in self.entries:
            ints, d = clear_denominators(row)
            rows.append(ints)
            scale *= d
        pivots, sign = _bareiss_forward(rows, n)
        if len(pivots) < n:
            return QQ(0)
        return QQ(sign * rows[n - 1][n - 1], scale) if n else QQ(1)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = _int_rows(
            [list(self.entries[i]) + [QQ(int(i == j)) for j in range(n)] for i in range(n)]
        )
        rref_rows, pivots = _rref(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Matrix([row[n:] for row in rref_rows])


def _dot(a, b):
    total = QQ(0)
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


# -- integer kernels ---------------------------------------------------------


def _int_rows(m) -> list[list[int]]:
    """Primitive integer rows, as new lists, of a `Matrix` or of rows."""
    return [integerize(r) for r in getattr(m, "entries", m)]


def _content_reduce(row: list[int]) -> None:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for j, x in enumerate(row):
            row[j] = x // g


def _bareiss_forward(rows: list[list[int]], ncols: int):
    """In-place fraction-free forward elimination; returns the pivot
    columns and the sign of the row permutation.

    First-nonzero pivoting, no tolerances: entries stay exact minors.
    Pivot row i ends up holding, in column j, the minor of the permuted
    matrix on rows 0..i and columns pivots[:i] + [j].
    """
    m = len(rows)
    pivots = []
    sign = 1
    rank = 0
    prev = 1
    for c in range(ncols):
        if rank == m:
            break
        piv = None
        for i in range(rank, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        prow = rows[rank]
        pv = prow[c]
        for i in range(rank + 1, m):
            row = rows[i]
            x = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pv - x * prow[j]) // prev
            row[c] = 0
        prev = pv
        pivots.append(c)
        rank += 1
    return pivots, sign


def signed_maximal_minors(rows: list[list[int]]) -> list[int]:
    """The signed maximal minors of an n x (n+1) integer matrix A, from one
    fraction-free elimination (rows are consumed).

    Entry k is (-1)^k det A_{-k}, A_{-k} being A without column k; the
    vector spans the kernel of A whenever it is nonzero.  Rank < n makes
    every minor 0.  Otherwise the pivot columns P leave one free column q,
    det A[:, P] = sign * U[n-1][P[n-1]] for the eliminated matrix U, and
    back substitution from x_q = det A[:, P] gives the kernel vector x with
    x_k = (-1)^(k+q) det A_{-k} (Cramer), so every division is exact.
    """
    n = len(rows)
    pivots, sign = _bareiss_forward(rows, n + 1)
    if len(pivots) < n:
        return [0] * (n + 1)
    q = next(c for c in range(n + 1) if c not in pivots)
    x = [0] * (n + 1)
    x[q] = sign * rows[n - 1][pivots[n - 1]]
    for i in range(n - 1, -1, -1):
        row = rows[i]
        total = row[q] * x[q]
        for c in pivots[i + 1:]:
            total += row[c] * x[c]
        quot, rem = divmod(-total, row[pivots[i]])
        if rem:
            raise ArithmeticError("inexact back substitution: not a Cramer minor")
        x[pivots[i]] = quot
    return [-v for v in x] if q % 2 else x


def _rref(rows: list[list[int]], ncols: int):
    """Reduced row echelon form over Q computed integer-first.

    Returns (rational rows with pivot 1, pivot column list); zero rows are
    dropped.  Cross-multiplication elimination with content reduction keeps
    entries small without the Bareiss exact-division constraint.
    """
    work = [r for r in rows if any(r)]
    m = len(work)
    pivots = []
    rank = 0
    for c in range(ncols):
        if rank == m:
            break
        piv = None
        for i in range(rank, m):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        pv = prow[c]
        for i in range(rank + 1, m):
            row = work[i]
            x = row[c]
            if x:
                for j in range(c, ncols):
                    row[j] = row[j] * pv - x * prow[j]
                _content_reduce(row)
        pivots.append(c)
        rank += 1
    # clear above the pivots (still integer)
    for r in range(rank - 1, -1, -1):
        c = pivots[r]
        prow = work[r]
        pv = prow[c]
        for i in range(r):
            row = work[i]
            x = row[c]
            if x:
                for j in range(ncols):
                    row[j] = row[j] * pv - x * prow[j]
                _content_reduce(row)
    out = []
    for r in range(rank):
        pv = work[r][pivots[r]]
        out.append([QQ(x, pv) for x in work[r]])
    return out, pivots


# -- public operations -------------------------------------------------------


def ff_rank(m) -> int:
    """Rank over Q by fraction-free elimination (exact, no tolerances)."""
    rows = _int_rows(m)
    if not rows or not rows[0]:
        return 0
    return len(_bareiss_forward(rows, len(rows[0]))[0])


def nullspace(m) -> list[Vector]:
    """Basis of the right kernel; empty list iff full column rank.

    The basis is canonical: vector k-th has 1 at the k-th free column and 0
    at the other free columns.
    """
    rows = _int_rows(m)
    if not rows:
        return []
    ncols = len(rows[0])
    rref_rows, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [QQ(0)] * ncols
        vec[f] = QQ(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref_rows[r][f]
        basis.append(vec)
    return basis


def linsolve(m, b) -> Vector | None:
    """One exact solution of m x = b, or None if inconsistent.

    Free variables are set to zero, making the answer deterministic.
    """
    raw = list(getattr(m, "entries", m))
    bvec = [QQ(x) for x in b]
    if len(raw) != len(bvec):
        raise ValueError("shape mismatch")
    if not raw:
        return []
    ncols = len(raw[0])
    aug = _int_rows([*row, rhs] for row, rhs in zip(raw, bvec))
    rref_rows, pivots = _rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = [QQ(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = rref_rows[r][ncols]
    return sol


def canonical_rowspace(rows) -> tuple:
    """Unique RREF representation of the row space, for exact subspace
    equality tests.  Returns a tuple of tuples of scalars."""
    ints = _int_rows(rows)
    if not ints:
        return ()
    rref_rows, _ = _rref(ints, len(ints[0]))
    return tuple(tuple(r) for r in rref_rows)
