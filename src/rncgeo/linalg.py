"""Exact dense linear algebra over Q.

Rows are cleared of denominators by `scalars.integerize` (or, where the
scale matters, `scalars.clear_denominators`).  Determinants use one
fraction-free (Bareiss) forward pass: every intermediate entry is a minor
of the integer matrix, so there is no coefficient explosion beyond what
the minors themselves require and no division error anywhere.
Kernels and inverses use integer cross-elimination with content
reduction, rationalizing only in the final normalization pass; they are
the only reduced row echelon forms the library takes (the canonical stack
of a pencil has a closed form, `projective.canonical_stack`).
All n + 1 signed maximal minors of an n x (n+1) integer matrix come from
one Bareiss forward pass and one exact back substitution.

Ranks are certified modular ranks (`ff_rank`).  For an m x k integer
matrix A with m <= k (a taller one is transposed first):

- Lower bound.  Elimination modulo a fixed prime p finds r pivots.  A
  nonzero r x r minor mod p is a nonzero integer, so rank A >= r.
- Upper bound.  For each of the m - r non-pivot rows a, Dixon lifting
  (Numer. Math. 40, 1982) through the same LU factors solves
  y B = a_Q, where B is the pivot block, and rational reconstruction turns
  the p-adic solution into d a = sum_t n_t A_t in integers.  That
  identity is checked exactly on every column.  The m - r verified
  dependencies have d != 0 in distinct non-pivot rows and 0 in the
  others, so they are independent and rank A <= m - (m - r) = r.

No answer is probabilistic: a dependency is accepted only after the exact
check, and every rank rests on both bounds.  A prime that divides every
r' x r' minor for the true rank r' > r leaves rows that are dependent only
mod p; their lifted combinations fail the check, the lift gives up once
the modulus passes the Hadamard bound on the Cramer numerators and
denominators, and the next prime in `RANK_PRIMES` is tried.  When the
primes run out, the rank is that of the Bareiss forward pass (Math. Comp.
22, 1968).

The public operations accept either a `Matrix` or a plain sequence of rows
of scalars and never mutate them; `signed_maximal_minors` takes integer
rows and consumes them.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .scalars import QQ, as_qq, clear_denominators, integerize

Vector = list  # list[QQ]


class Matrix:
    """Immutable dense matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(tuple(as_qq(x) for x in row) for row in entries)
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


# -- certified modular rank ----------------------------------------------------

# Primes for `ff_rank`, tried in order.  A prime that divides a pivot minor
# costs a retry, never a wrong rank.
RANK_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)


def _lu_mod(rows: list[list[int]], p: int):
    """PA = LU modulo p with first-nonzero pivoting; `rows` is not mutated.

    Returns the row order (perm[t] is the row at position t), the pivot
    columns, the pivot rows of U as residue lists, and the multipliers:
    lower[t] holds L[t][0..t-1] for the pivot position t.

    Each row is packed into one integer, one residue per fixed-width slot,
    so a row operation is a single big-integer multiply-add.  Slots stay
    non-negative (row += (p - f) * pivot row, pivot row reduced mod p) and
    grow by less than p^2 per operation; a row meets at most min(m, k)
    operations before it is reduced, so no slot carries into the next.
    """
    m, k = len(rows), len(rows[0])
    size = ((min(m, k) + 1) * p * p).bit_length() // 8 + 1
    width, span = 8 * size, size * k
    mask = (1 << width) - 1

    def pack(values):
        return int.from_bytes(
            b"".join([v.to_bytes(size, "little") for v in values]), "little"
        )

    packed = [pack([x % p for x in row]) for row in rows]
    lower: list[list[int]] = [[] for _ in range(m)]
    perm = list(range(m))
    pivots, upper = [], []
    rank = 0
    for c in range(k):
        if rank == m:
            break
        shift = width * c
        piv = None
        for i in range(rank, m):
            if ((packed[i] >> shift) & mask) % p:
                piv = i
                break
        if piv is None:
            continue
        for seq in (packed, lower, perm):
            seq[rank], seq[piv] = seq[piv], seq[rank]
        raw = packed[rank].to_bytes(span, "little")
        urow = [
            int.from_bytes(raw[s:s + size], "little") % p for s in range(0, span, size)
        ]
        prow = pack(urow)
        inv = pow(urow[c], -1, p)
        for i in range(rank + 1, m):
            f = ((packed[i] >> shift) & mask) * inv % p
            lower[i].append(f)
            if f:
                packed[i] += (p - f) * prow
        upper.append(urow)
        pivots.append(c)
        rank += 1
    return perm, pivots, upper, lower[:rank]


def _rational_reconstruction(v: int, modulus: int, bound: int):
    """(n, d) with n = d v mod modulus, |n| <= bound and 0 < d <= bound, by
    the half extended Euclid (Wang); None if the remainder sequence finds
    no such pair.  Unique when 2 bound^2 < modulus."""
    r0, r1, s0, s1 = modulus, v % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _common_denominator(y: list[int], modulus: int):
    """(d, numerators) with numerators = d y mod modulus (symmetric
    residues), d > 0, every value at most isqrt(modulus // 2); None if y is
    not yet such a rational vector.  One reconstruction per denominator
    factor: a component already small under the current d is accepted."""
    bound = isqrt(modulus // 2)
    half = modulus // 2
    d = 1
    for v in y:
        s = (d * v + half) % modulus - half
        if abs(s) > bound:
            pair = _rational_reconstruction(s, modulus, bound)
            if pair is None:
                return None
            d *= pair[1]
            if d > bound:
                return None
    nums = [(d * v + half) % modulus - half for v in y]
    if any(abs(s) > bound for s in nums):
        return None
    return d, nums


def _certified_rank(rows: list[list[int]], p: int) -> int | None:
    """The rank of integer rows (m <= k) if the rank r mod p is certified
    by m - r exact dependencies, else None.

    With B = A[perm[:r], pivots] = L1 U1 mod p, a non-pivot row a needs y
    with y B = a_Q: w U1 = a_Q by forward substitution, then y L1 = w by
    back substitution, one p-adic digit per step (Dixon).  By Cramer every
    y_t is a ratio of r x r minors of [B; a_Q], each at most the product H
    of those rows' Euclidean norms (Hadamard), so reconstruction is
    exact once the modulus passes 2 H^2.  Solutions are usually far
    smaller, so it is tried early too: after digits 1 to 4 and then
    whenever the digit count has grown by about a quarter, which keeps the
    quadratic-cost attempts within a constant factor of the last one.  A
    result is accepted only if d a = sum_t n_t A[perm[t]] holds exactly on
    all columns.
    """
    m, k = len(rows), len(rows[0])
    perm, pivots, upper, lower = _lu_mod(rows, p)
    r = len(pivots)
    if r == m:
        return r
    up = [[upper[t][q] for t in range(j)] for j, q in enumerate(pivots)]
    low = [[lower[t][j] for t in range(j + 1, r)] for j in range(r)]
    inv_diag = [pow(upper[j][q], -1, p) for j, q in enumerate(pivots)]
    basis = [rows[perm[t]] for t in range(r)]
    block_cols = [[row[q] for row in basis] for q in pivots]
    all_cols = list(zip(*basis)) if r else [()] * k
    hadamard_sq = 1
    for row in basis:
        hadamard_sq *= max(1, sum(row[q] * row[q] for q in pivots))

    def solve_mod(c):
        y = [0] * r
        for j in range(r):
            y[j] = (c[j] - sum(map(mul, up[j], y))) * inv_diag[j] % p
        for j in range(r - 2, -1, -1):
            y[j] = (y[j] - sum(map(mul, low[j], y[j + 1:]))) % p
        return y

    for a in (rows[perm[i]] for i in range(r, m)):
        residual = [a[q] for q in pivots]
        limit = 2 * hadamard_sq * max(1, sum(x * x for x in residual))
        y, modulus, digits, next_try = [0] * r, 1, 0, 1
        while True:
            digit = solve_mod([x % p for x in residual])
            y = [v + modulus * z for v, z in zip(y, digit)]
            modulus *= p
            digits += 1
            residual = [
                (x - sum(map(mul, col, digit))) // p
                for x, col in zip(residual, block_cols)
            ]
            if digits < next_try and modulus <= limit:
                continue
            next_try = digits + 1 + digits // 4
            found = _common_denominator(y, modulus)
            if found is not None:
                d, nums = found
                if all(d * x == sum(map(mul, nums, col)) for x, col in zip(a, all_cols)):
                    break
            if modulus > limit:
                return None
    return r


# -- public operations -------------------------------------------------------


def ff_rank(m) -> int:
    """Rank over Q, certified exactly from a rank modulo a fixed prime and
    verified integer row dependencies (see the module docstring); the
    Bareiss rank is the fallback when every prime in `RANK_PRIMES` fails."""
    rows = _int_rows(m)
    if not rows or not rows[0]:
        return 0
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    for p in RANK_PRIMES:
        rank = _certified_rank(rows, p)
        if rank is not None:
            return rank
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
