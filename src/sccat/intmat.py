"""Exact integer matrix arithmetic: Smith normal form, kernels, solving.

Invariant factors and kernels are computed on sparse columns, each a
``{row: value}`` dict, so a caller that builds them (homology) never
makes a dense matrix.  Boundary and relator matrices have a +-1 pivot
almost everywhere, and each splits off a summand 1 by unimodular column
operations (Kaczynski, Mrozek and Slusarek 1998; Dumas, Heckenbach,
Saunders and Welker 2003).  Only the block left without a unit is put
through the one dense Smith normal form.  A `Reduction` holds both
stages, so a caller that caches it reads invariant factors and kernel
off one pass; it logs its column operations and builds the transform
from the log only when a kernel is read.

Dense matrices are lists of rows of Python ints; `invariant_factors`,
`rank` and `kernel_basis` convert one once with `sparse_columns`.  The dense
Smith normal form keeps both transforms, for the residual kernel, for
`solve`, and so tests can re-check it by multiplication as the
reduction's oracle; its pivot rule (smallest absolute value, then lowest
row, then lowest column) is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Matrix = list  # list[list[int]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    m, p = shape(a)
    p2, n = shape(b)
    if p != p2:
        # allow the degenerate 0-column / 0-row case where either factor is empty
        if p == 0 or p2 == 0:
            return zeros(m, n)
        raise ValueError(f"shape mismatch {shape(a)} x {shape(b)}")
    out = zeros(m, n)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for k in range(p):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def determinant(a: Matrix) -> int:
    """Bareiss fraction-free determinant (exact)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_rational(a: Matrix) -> int:
    """Rank over Q by plain fraction elimination.

    Kept deliberately independent of the Smith normal form code so the two
    can cross-check each other.
    """
    m, n = shape(a)
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, m):
            f = rows[i][col] / pv
            if f:
                for j in range(col, n):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class SnfResult:
    """left * input * right == diagonal, transforms unimodular."""
    left: Matrix
    diagonal: Matrix
    right: Matrix

    def diagonal_entries(self) -> list:
        m, n = shape(self.diagonal)
        return [self.diagonal[i][i] for i in range(min(m, n))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal_entries() if d != 0)

    def invariant_factors(self) -> list:
        return [d for d in self.diagonal_entries() if d != 0]

    def kernel_basis(self) -> list:
        """Basis of the input's integer kernel, as column vectors: the
        columns of the right transform whose diagonal entry vanishes."""
        m = len(self.diagonal)
        return [[row[j] for row in self.right] for j in range(len(self.right))
                if j >= m or self.diagonal[j][j] == 0]

    def validate(self, original: Matrix) -> list:
        """Return a list of violated invariants (empty when sound)."""
        bad = []
        if matmul(matmul(self.left, original), self.right) != self.diagonal:
            bad.append("left*input*right != diagonal")
        if abs(determinant(self.left)) != 1:
            bad.append("left transform not unimodular")
        if abs(determinant(self.right)) != 1:
            bad.append("right transform not unimodular")
        diag = self.diagonal_entries()
        m, n = shape(self.diagonal)
        for i in range(m):
            for j in range(n):
                if i != j and self.diagonal[i][j] != 0:
                    bad.append("diagonal has off-diagonal entries")
                    break
        if any(d < 0 for d in diag):
            bad.append("negative diagonal entry")
        facs = [d for d in diag if d != 0]
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                bad.append(f"divisibility broken: {a} does not divide {b}")
        if any(d != 0 for d in diag[len(facs):]) :
            bad.append("zero diagonal entry before a nonzero one")
        return bad


def _pivot(a: Matrix, start: int) -> tuple | None:
    """Smallest |entry| > 0 in the trailing submatrix; ties by row then column."""
    m, n = shape(a)
    best = None
    for i in range(start, m):
        row = a[i]
        for j in range(start, n):
            v = row[j]
            if v:
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(a: Matrix) -> SnfResult:
    m, n = shape(a)
    d = copy(a)
    left = identity(m)
    right = identity(n)

    def row_sub(i, k, q):  # row_i -= q * row_k
        di, dk, li, lk = d[i], d[k], left[i], left[k]
        for j in range(n):
            di[j] -= q * dk[j]
        for j in range(m):
            li[j] -= q * lk[j]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for i in range(m):
            d[i][j] -= q * d[i][k]
        for i in range(n):
            right[i][j] -= q * right[i][k]

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        left[i], left[k] = left[k], left[i]

    def col_swap(j, k):
        for i in range(m):
            d[i][j], d[i][k] = d[i][k], d[i][j]
        for i in range(n):
            right[i][j], right[i][k] = right[i][k], right[i][j]

    for l in range(min(m, n)):
        while True:
            pos = _pivot(d, l)
            if pos is None:
                break
            pi, pj = pos
            if pi != l:
                row_swap(l, pi)
            if pj != l:
                col_swap(l, pj)
            # euclidean clearing of column l and row l
            dirty = False
            for i in range(l + 1, m):
                if d[i][l]:
                    q = d[i][l] // d[l][l]
                    row_sub(i, l, q)
                    if d[i][l]:
                        dirty = True
            for j in range(l + 1, n):
                if d[l][j]:
                    q = d[l][j] // d[l][l]
                    col_sub(j, l, q)
                    if d[l][j]:
                        dirty = True
            if dirty:
                continue  # remainders left; re-pick pivot (strictly smaller now)
            # divisibility: pivot must divide the whole trailing block
            fixed = True
            for i in range(l + 1, m):
                if not fixed:
                    break
                for j in range(l + 1, n):
                    if d[i][j] % d[l][l] != 0:
                        row_sub(l, i, -1)  # row_l += row_i, then re-clear
                        fixed = False
                        break
            if fixed:
                break
        if d[l][l] < 0:
            row_sub(l, l, 2)  # row_l -= 2*row_l, i.e. negate
    return SnfResult(left=left, diagonal=d, right=right)


def _sub_multiple(dst: dict, q: int, src: dict) -> None:
    """dst -= q * src, on sparse vectors."""
    for i, v in src.items():
        w = dst.get(i, 0) - q * v
        if w:
            dst[i] = w
        else:
            dst.pop(i, None)


def _column_reduce(columns: list) -> tuple:
    """Eliminate the +-1 pivots of the matrix with sparse `columns` (no
    entry zero) by sparse unimodular column operations.

    Passes visit the live columns in index order; each takes its unit in
    the row with the fewest live entries, then the lowest, and clears that
    row from every other live column.  So the matrix is equivalent to
    1^units + L, L the live block.  Returns (units, [(live column, its
    input index), ...], steps): each step (c, q, j) took q times column j
    from column c, in order, and `_replay` turns them into the transform.
    """
    cols = [dict(col) for col in columns]
    steps = []
    where = {}  # row -> live columns, for the rows that occur
    for j, col in enumerate(cols):
        for i in col:
            where.setdefault(i, set()).add(j)
    live = [True] * len(cols)
    units, progress = 0, True
    while progress:
        progress = False
        for j, col in enumerate(cols):
            r = best = None
            for i, v in col.items() if live[j] else ():
                if (v == 1 or v == -1) and (best is None or (len(where[i]), i) < best):
                    r, best = i, (len(where[i]), i)
            if r is None:
                continue
            live[j], units, progress = False, units + 1, True
            for i in col:
                where[i].remove(j)
            for c in sorted(where[r]):
                other = cols[c]
                q = other[r] * col[r]
                for i, v in col.items():  # other -= q * col, and where follows
                    w = other.get(i, 0) - q * v
                    if w:
                        other[i] = w
                        where[i].add(c)
                    else:
                        del other[i]
                        where[i].remove(c)
                steps.append((c, q, j))
    return units, [(col, j) for j, (col, keep) in enumerate(zip(cols, live)) if keep], steps


def _replay(n: int, steps: list) -> list:
    """The transform columns of `_column_reduce` on n columns: the identity,
    with each step (c, q, j) taking q times column j from column c, in the
    order logged.  The input matrix times transform column j is column j as
    the reduction left it."""
    trans = [{j: 1} for j in range(n)]
    for c, q, j in steps:
        _sub_multiple(trans[c], q, trans[j])
    return trans


class Reduction:
    """The matrix with sparse `columns` (no entry zero), reduced once: its
    +-1 pivots split off sparsely, then the live block put through the
    dense Smith normal form.  Invariant factors and kernel basis are both
    read off it.  `live` holds the (live column, input index) pairs;
    `snf` is None when no live column is nonzero.  The unimodular column
    transform is not kept: `steps` logs the eliminations, and
    `kernel_basis`, the only reader of the transform, replays them on the
    identity in the same order, so only a kernel read pays for it.
    """
    __slots__ = ("units", "live", "steps", "snf")

    def __init__(self, columns: list):
        self.units, self.live, self.steps = _column_reduce(columns)
        nonzero = [col for col, _ in self.live if col]
        rows = sorted({i for col in nonzero for i in col})
        self.snf = (smith_normal_form([[col.get(i, 0) for col in nonzero] for i in rows])
                    if nonzero else None)

    def invariant_factors(self) -> list:
        return [1] * self.units + (self.snf.invariant_factors() if self.snf else [])

    def kernel_basis(self) -> list:
        """Sparse vectors over the input columns.  The transform T is
        unimodular, so ker a = T (0 + ker L): the transforms of the zero
        live columns, then the dense kernel of the others through T."""
        trans = _replay(self.units + len(self.live), self.steps)  # each column is one or the other
        basis = [trans[j] for col, j in self.live if not col]
        if self.snf:
            residual = [{i: v for i, v in enumerate(vec) if v} for vec in self.snf.kernel_basis()]
            basis += mul_columns([trans[j] for col, j in self.live if col], residual)
        return basis


def sparse_columns(a: Matrix) -> list:
    """The columns of a dense matrix as sparse {row: value} dicts."""
    m, n = shape(a)
    return [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)]


def mul_columns(a: list, b: list) -> list:
    """The product a b of two matrices given by sparse columns, as sparse columns."""
    out = []
    for col in b:
        vec = {}
        for j, v in col.items():
            _sub_multiple(vec, -v, a[j])
        out.append(vec)
    return out


def invariant_factors(a: Matrix) -> list:
    """The nonzero diagonal of the Smith normal form of `a`, in order."""
    return Reduction(sparse_columns(a)).invariant_factors()


def rank(a: Matrix) -> int:
    return len(invariant_factors(a))


def kernel_basis(a: Matrix) -> list:
    """Saturated basis of the integer kernel, as column vectors (lists of ints)."""
    basis = Reduction(sparse_columns(a)).kernel_basis()
    return [[vec.get(j, 0) for j in range(shape(a)[1])] for vec in basis]


def solve(a: Matrix, b: list) -> list | None:
    """One integral solution x of a x = b, or None if none exists."""
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    snf = smith_normal_form(a)
    lb = [sum(snf.left[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = snf.diagonal[i][i] if i < n else 0
        if di == 0:
            if lb[i] != 0:
                return None
        else:
            if lb[i] % di != 0:
                return None
            y[i] = lb[i] // di
    return [sum(snf.right[i][k] * y[k] for k in range(n)) for i in range(n)]


def from_columns(cols: list, nrows: int) -> Matrix:
    """The dense matrix with these columns, each a list or a sparse {row: value} dict."""
    cols = [col if isinstance(col, dict) else dict(enumerate(col)) for col in cols]
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]
