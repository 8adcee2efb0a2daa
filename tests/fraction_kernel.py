"""Fraction reference kernels, kept as brute-force oracles.

``rref``, ``rank_and_kernel`` and ``solve`` are the dense elimination over
``fractions.Fraction`` that the library ran before its integer kernel; the
differential tests check ``tvartop.exactla`` against them.  The subset-kernel
ray enumerator below is the polyhedral kernel from before the integer
rewrite: every step (kernels, ranks, the lineality split, the orthogonal
projection off the lineality space) runs over Fractions.  It is the
reference for the library's double-description enumerator: it finds each
extreme ray as the kernel of d-1 independent rows, with no adjacency test,
and the differential tests check that ``tvartop.polyhedron.rays_of_hcone``
returns the same canonical (lineality, rays) pair.  Nothing here imports
``tvartop.exactla``, the code under test.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm



def rref(rows):
    """Reduced row echelon form over Q: (reduced rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        best = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if best is None:
            continue
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


def rank_and_kernel(rows):
    """(rank, kernel basis) over Q; the basis vector of free column f is 1
    at f and 0 at the other free columns."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return len(pivots), basis


def solve(rows, rhs):
    """One solution of ``rows @ x = rhs`` or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def qvec(xs):
    return tuple(Fraction(x) for x in xs)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(u):
    return all(a == 0 for a in u)


def primitive(v):
    w = [Fraction(x) for x in v]
    m = reduce(lcm, (x.denominator for x in w), 1)
    ints = [int(x * m) for x in w]
    g = reduce(gcd, (abs(x) for x in ints), 0)
    return tuple(x // g for x in ints)


def _kernel_basis(rows, dim):
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    _, basis = rank_and_kernel(rows)
    return basis


def _rank(rows):
    if not rows:
        return 0
    r, _ = rank_and_kernel(rows)
    return r


def _canonical_subspace_basis(vectors):
    if not vectors:
        return ()
    red, pivots = rref(vectors)
    return tuple(primitive(red[i]) for i in range(len(pivots)))


def _project_off(v, basis):
    """v minus its orthogonal projection onto span(basis)."""
    out = list(v)
    ortho = []
    for b in basis:
        w = list(b)
        for o in ortho:
            c = dot(w, o) / dot(o, o)
            w = [x - c * y for x, y in zip(w, o)]
        if not is_zero(w):
            ortho.append(w)
    for o in ortho:
        c = dot(out, o) / dot(o, o)
        out = [x - c * y for x, y in zip(out, o)]
    return tuple(out)


def pointed_rays(mat, d):
    """Extreme rays of the pointed cone {x in Q^d : mat @ x >= 0}."""
    if d == 0:
        return []
    if d == 1:
        if all(row[0] >= 0 for row in mat):
            return [(Fraction(1),)]
        if all(row[0] <= 0 for row in mat):
            return [(Fraction(-1),)]
        return []
    found = {}
    m = len(mat)
    for sub in combinations(range(m), d - 1):
        rows = [mat[i] for i in sub]
        r, ker = rank_and_kernel(rows)
        if r != d - 1:
            continue
        u = ker[0]
        vals = [dot(row, u) for row in mat]
        if all(x >= 0 for x in vals):
            pass
        elif all(x <= 0 for x in vals):
            u = tuple(-x for x in u)
            vals = [-x for x in vals]
        else:
            continue
        tight = [mat[i] for i, x in enumerate(vals) if x == 0]
        if _rank(tight) != d - 1:
            continue
        found[primitive(u)] = None
    return [qvec(r) for r in found]


def rays_of_hcone(ineqs, eqs, dim):
    """(lineality basis, rays) of {x : <a,x> >= 0, <e,x> = 0}, over Fractions."""
    ineqs = [qvec(a) for a in ineqs]
    w_basis = _kernel_basis([qvec(e) for e in eqs], dim)
    if not w_basis:
        return (), ()
    w = len(w_basis)
    mat = [[dot(a, wj) for wj in w_basis] for a in ineqs]
    lin_y = _kernel_basis([r for r in mat if not is_zero(r)], w) if mat else \
        [tuple(Fraction(int(i == j)) for j in range(w)) for i in range(w)]
    if lin_y:
        _, piv = rref(lin_y)
        comp_idx = [j for j in range(w) if j not in piv]
    else:
        comp_idx = list(range(w))
    proj_rows = [[row[c] for c in comp_idx] for row in mat]
    rays_c = pointed_rays(proj_rows, len(comp_idx))

    def to_ambient(y):
        out = [Fraction(0)] * dim
        for coef, wv in zip(y, w_basis):
            out = [o + coef * x for o, x in zip(out, wv)]
        return tuple(out)

    lin_amb = _canonical_subspace_basis([to_ambient(y) for y in lin_y])
    rays_amb = []
    for rc in rays_c:
        y = [Fraction(0)] * w
        for coef, c in zip(rc, comp_idx):
            y[c] = coef
        r = to_ambient(y)
        if lin_amb:
            r = _project_off(r, lin_amb)
        rays_amb.append(primitive(r))
    return lin_amb, tuple(sorted(set(rays_amb)))
