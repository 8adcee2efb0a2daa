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
returns the same canonical (lineality, rays) pair.

``_SparseRREF`` and ``_quotient`` at the end are the Chow elimination from
before the integer rewrite of ``tvartop.chow``: the degree-d piece of
Q[x]/(I + J) as a Fraction reduced row echelon form over all monomials in
all generators, with the nonface monomials and every linear relation times
every monomial of degree d - 1 as rows.  The differential tests check the
library's Hilbert functions and normal forms against it.  ``_quotient``
caches its result in ``pres._quotients``, so it needs a presentation of its
own.  Nothing here imports ``tvartop.exactla`` or ``tvartop.chow``, the code
under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
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


class _SparseRREF:
    """Incremental reduced row echelon form over Q with dict rows."""

    def __init__(self):
        self.pivots = {}  # col -> row dict (normalized, reduced)

    def reduce(self, row):
        row = dict(row)
        for col in sorted(row):
            if row.get(col, 0) == 0:
                continue
            piv = self.pivots.get(col)
            if piv is None:
                continue
            f = row[col]
            for c, v in piv.items():
                row[c] = row.get(c, 0) - f * v
        return {c: v for c, v in row.items() if v != 0}

    def add(self, row) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in self.pivots.values():
            f = other.get(col, 0)
            if f:
                for c, v in row.items():
                    other[c] = other.get(c, 0) - f * v
                for c in [c for c, v in other.items() if v == 0]:
                    del other[c]
        self.pivots[col] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _quotient(pres: ChowPresentation, d: int):
    """(monomials, rref, basis monomial ids) of degree-d piece of the quotient."""
    if d in pres._quotients:
        return pres._quotients[d]
    m = len(pres.generators)
    monos = list(combinations_with_replacement(range(m), d))
    mono_id = {mo: i for i, mo in enumerate(monos)}
    rref_ = _SparseRREF()
    nonface = [set(nf) for nf in pres.nonface_sets]
    for mo in monos:
        sup = set(mo)
        if any(nf <= sup for nf in nonface):
            rref_.add({mono_id[mo]: Fraction(1)})
    if d >= 1:
        lower = list(combinations_with_replacement(range(m), d - 1))
        for rel in pres.linear_relations:
            for lo in lower:
                row = {}
                for g, cg in enumerate(rel):
                    if cg == 0:
                        continue
                    mo = tuple(sorted(lo + (g,)))
                    row[mono_id[mo]] = row.get(mono_id[mo], 0) + cg
                rref_.add(row)
    basis = [i for i in range(len(monos)) if i not in rref_.pivots]
    pres._quotients[d] = (monos, rref_, basis)
    return pres._quotients[d]
