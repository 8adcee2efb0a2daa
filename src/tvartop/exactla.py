"""Exact rational and integer linear algebra.

Everything runs over ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator) or plain python ints; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix of rationals with a declared shape."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        data = tuple(tuple(_q(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)


def _bitsize(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def rref(rows, pivot: str = "bits"):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column indices).  ``pivot`` selects the
    strategy: "bits" picks the entry of least bit complexity in the current
    column (keeps coefficients small), "first" takes the first nonzero one.
    """
    mat = [[_q(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not candidates:
            continue
        if pivot == "bits":
            best = min(candidates, key=lambda i: _bitsize(mat[i][c]))
        else:
            best = candidates[0]
        mat[r], mat[best] = mat[best], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank_and_kernel(m, pivot: str = "bits"):
    """Rank and a basis of the right kernel of a rational matrix.

    ``m`` may be a QMatrix or an iterable of rows.  Kernel vectors are tuples
    of Fractions; rank + len(kernel) == number of columns.
    """
    if isinstance(m, QMatrix):
        rows, ncols = m.entries, m.cols
    else:
        rows = [tuple(_q(x) for x in row) for row in m]
        ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows, pivot=pivot)
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return rank, basis


def int_rref(rows):
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (rows, pivot columns) like ``rref``, but each row is the
    primitive integer multiple of the RREF row with a positive pivot; zero
    rows are dropped.  A row is eliminated against the pivot row by
    cross-multiplying with the two entries divided by their gcd, then divided
    by its content, so every entry stays a small integer.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return [], []
    nrows = len(mat)
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        best = None
        for i in range(r, nrows):
            x = mat[i][c]
            if x and (best is None or abs(x) < abs(mat[best][c])):
                best = i
        if best is None:
            continue
        mat[r], mat[best] = mat[best], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(nrows):
            row = mat[i]
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a < 0:
                a, b = -a, -b
            new = [a * x - b * y for x, y in zip(row, prow)]
            g = gcd(*new)
            mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(mat, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(x // g for x in row))
    return out, pivots


def solve(rows, rhs):
    """One solution of ``rows @ x = rhs`` or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(aug)
    for r in range(len(red)):
        if all(red[r][c] == 0 for c in range(ncols)) and red[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return tuple(x)


def int_det(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """diag = left @ input @ right with unimodular transforms.

    The diagonal is nonnegative with each entry dividing the next (zeros
    last); it realizes the cokernel of the input as Z^a (+) torsion.
    """

    diagonal: tuple
    left: tuple
    right: tuple

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _imat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> SmithForm:
    """Smith normal form of an integer matrix, with transforms."""
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    left = _imat_identity(nr)
    right = _imat_identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # row dst += f * row src
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in right:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(nr, nc):
        # move a minimal nonzero entry of the working block to (t, t)
        pos = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the remaining block for the chain
                piv = a[t][t]
                stop = False
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if a[i][j] % piv:
                            add_row(i, t, 1)
                            dirty = True
                            stop = True
                            break
                    if stop:
                        break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithForm(diag, tuple(tuple(r) for r in left), tuple(tuple(r) for r in right))


def minor_gcds(m, k: int) -> int:
    """gcd of all k x k minors of an integer matrix (0 if all vanish)."""
    rows = [list(map(int, r)) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nr), k):
        for ci in combinations(range(nc), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(int_det(sub)))
    return g


def saturated_basis(vectors, n: int):
    """Basis of the saturation Z^n ∩ span_Q(vectors).

    Rows of the inverse of the right SNF transform give a Z-basis of Z^n
    whose first ``rank`` members span the saturation.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        return []
    snf = smith_normal_form(vecs)
    r = snf.rank
    if r == 0:
        return []
    right_inv = _int_inverse(snf.right)
    return [tuple(right_inv[i]) for i in range(r)]


def _int_inverse(m):
    """Inverse of a unimodular integer matrix, exactly."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = [[red[i][n + j] for j in range(n)] for i in range(n)]
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([x.numerator for x in row])
    return out
