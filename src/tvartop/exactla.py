"""Exact integer linear algebra.

Everything runs over plain python ints; there is no floating point
anywhere in the package.  Rational input is scaled to integer rows by the
caller.  Elimination is fraction free: ``rref`` keeps every row a
primitive integer vector, and ``rank_and_kernel`` reads a primitive integer
kernel basis off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm


def rref(rows):
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (rows, pivot columns).  Each row is the primitive integer
    multiple of the RREF row with a positive pivot; zero rows are dropped.
    A row is eliminated against the pivot row by cross-multiplying with the
    two entries divided by their gcd, then divided by its content, so every
    entry stays a small integer.
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


def rank_and_kernel(rows, ncols):
    """(pivot columns, kernel basis) of an integer matrix with ``ncols`` columns.

    The rank is the number of pivot columns.  The kernel basis has one
    primitive integer vector per free column f, positive at f and zero at
    the other free columns, so the free columns' unit vectors span a
    complement of the kernel.
    """
    red, piv = rref(rows)
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        hits = [(row[f], row[pc], pc) for row, pc in zip(red, piv) if row[f]]
        m = lcm(*(p for _, p, _ in hits))
        v = [0] * ncols
        v[f] = m
        for a, p, pc in hits:
            v[pc] = -a * (m // p)
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return piv, basis


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
    """Inverse of a unimodular integer matrix, exactly.

    The integer RREF of [M | I] is [I | M^-1] up to positive row multiples:
    M is unimodular iff its pivots are 0..n-1 and every pivot entry is 1.
    """
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    if any(row[i] != 1 for i, row in enumerate(red)):
        raise ValueError("matrix is not unimodular")
    return [list(row[n:]) for row in red]
