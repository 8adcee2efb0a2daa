"""Polyhedral complexes: face counts, shellings, Cayley fans, bouquets.

A complex keeps its maximal cells, found by comparing cells only with
cells of at least their dimension.  Its cells must meet in common faces; a
pair is first offered to ``polyhedron.facet_separates`` (a facet of one
cell that the other lies behind), and only a pair that no facet settles is
intersected exactly.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import comb

from .errors import (
    FanInvalid,
    IndexOutOfRange,
    NotShellable,
    SearchBudgetExceeded,
)
from .exactla import smith_normal_form
from .polyhedron import (
    Cone,
    Polyhedron,
    dot,
    facet_separates,
    intersect,
    is_face_of,
    qvec,
    vsub,
)

BACKTRACK_CELL_CAP = 9


class ComplexFace:
    """One face of a complex: its polyhedron, dimension, and incident cells."""

    __slots__ = ("polyhedron", "dim", "cells")

    def __init__(self, polyhedron, dim, cells):
        self.polyhedron = polyhedron
        self.dim = dim
        self.cells = frozenset(cells)

    @property
    def key(self):
        return self.polyhedron.key

    def __repr__(self):
        return f"ComplexFace(dim={self.dim}, {self.polyhedron!r})"


class PolyhedralComplex:
    """A finite polyhedral complex given by its maximal cells.

    Cells contained in another cell are dropped; the remaining ones must
    pairwise intersect in common faces (FanInvalid otherwise).

    A cell can only lie in a cell of at least its dimension, so cells are
    taken from the largest dimension down and each is compared with the
    kept cells of larger dimension (a cell inside a dropped one is inside
    the kept cell that holds it) and with the other cells of its own
    dimension, as a cell can lie in another of equal dimension.  A pair of
    kept cells is first offered to ``facet_separates``; only a pair no
    facet settles is intersected exactly.
    """

    def __init__(self, ambient_rank, cells, check=True):
        self.ambient_rank = ambient_rank
        by_dim = {}
        for c in {c for c in cells if not c.is_empty}:
            by_dim.setdefault(c.dim(), []).append(c)
        kept = []
        for dim in sorted(by_dim, reverse=True):
            same = by_dim[dim]
            kept += [c for c in same
                     if not any(d.contains_polyhedron(c) for d in kept)
                     and not any(d is not c and d.contains_polyhedron(c) for d in same)]
        if not kept:
            raise ValueError("a complex needs at least one nonempty cell")
        self.maximal_cells = tuple(sorted(kept, key=lambda p: p.key))
        self._poset = None
        self.key = tuple(c.key for c in self.maximal_cells)
        if check:
            self._check_pairwise()

    def _check_pairwise(self):
        cells = self.maximal_cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if facet_separates(cells[i], cells[j]) or facet_separates(cells[j], cells[i]):
                    continue
                common = intersect(cells[i], cells[j])
                if common.is_empty:
                    continue
                if not (is_face_of(common, cells[i]) and is_face_of(common, cells[j])):
                    raise FanInvalid(
                        f"cells {i} and {j} do not intersect in a common face"
                    )

    def faces(self):
        """Face poset entries, sorted by (dim, canonical key)."""
        if self._poset is None:
            seen = {}
            for ci, cell in enumerate(self.maximal_cells):
                for desc in cell.faces():
                    fp = cell.face_polyhedron(desc)
                    entry = seen.get(fp.key)
                    if entry is None:
                        seen[fp.key] = [fp, desc.dim, {ci}]
                    else:
                        entry[2].add(ci)
            self._poset = sorted(
                (ComplexFace(p, d, cs) for p, d, cs in seen.values()),
                key=lambda f: (f.dim, f.key),
            )
        return self._poset

    def vertices(self):
        return [f.polyhedron.vertices[0] for f in self.faces() if f.dim == 0]

    def dim(self) -> int:
        return max(c.dim() for c in self.maximal_cells)

    def __eq__(self, other):
        return isinstance(other, PolyhedralComplex) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"PolyhedralComplex(rank={self.ambient_rank}, cells={len(self.maximal_cells)})"


def face_counts(faces, n):
    """(f_0, ..., f_n): number of the given faces of each dimension."""
    out = [0] * (n + 1)
    for f in faces:
        out[f.dim] += 1
    return tuple(out)


def h_from_f_vector(fv, k: int) -> int:
    """h^k = sum_{l >= k} (-1)^(l-k) C(l,k) f_{n-l} for n = len(fv) - 1.

    Zero for k outside 0..n, which the Betti formula's k-1 and n+1 terms use.
    """
    n = len(fv) - 1
    if not 0 <= k <= n:
        return 0
    return sum((-1) ** (l - k) * comb(l, k) * fv[n - l] for l in range(k, n + 1))


def f_vector(t: PolyhedralComplex):
    """(f_0, ..., f_n): number of faces of each dimension."""
    return face_counts(t.faces(), t.ambient_rank)


def h_number(t: PolyhedralComplex, k: int) -> int:
    """Alternating binomial count over the dimension-indexed f-vector.

    Equals the 2k-th Betti number of the bouquet for complete simplicial
    complexes.
    """
    n = t.ambient_rank
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"h_number index {k} outside 0..{n}")
    return h_from_f_vector(f_vector(t), k)


def h_vector(t: PolyhedralComplex):
    return tuple(h_number(t, k) for k in range(t.ambient_rank + 1))


def is_complete(t: PolyhedralComplex) -> bool:
    """Support covers N_Q: pure of top dimension, every ridge in exactly
    two maximal cells, and the dual graph connected."""
    n = t.ambient_rank
    cells = t.maximal_cells
    if any(c.dim() != n for c in cells):
        return False
    ridge_cells = [f.cells for f in t.faces() if f.dim == n - 1]
    if any(len(cs) != 2 for cs in ridge_cells):
        return False
    if n == 0:
        return len(cells) == 1
    adj = {i: set() for i in range(len(cells))}
    for cs in ridge_cells:
        a, b = sorted(cs)
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(cells)


def is_simplicial(t: PolyhedralComplex) -> bool:
    """Cell-wise simpliciality via the homogenization cones of the cells.

    A cell needs exactly dim+1 generators there (vertices plus tail rays);
    a square cell lifts to a 4-ray cone in rank 3 and fails.
    """
    return all(len(cell.hcone.rays) == cell.dim() + 1 for cell in t.maximal_cells)


class ShellingData:
    """A verified shelling: cell order, the G_i, and the index map i(F)."""

    __slots__ = ("order", "minimal_new_faces", "face_index")

    def __init__(self, order, minimal_new_faces, face_index):
        self.order = tuple(order)
        self.minimal_new_faces = tuple(minimal_new_faces)
        self.face_index = face_index


def _cell_face_data(t):
    """Per maximal cell: list of (face polyhedron, generator index set, descriptor)."""
    return [[(cell.face_polyhedron(desc), frozenset(desc.generators), desc)
             for desc in cell.faces()]
            for cell in t.maximal_cells]


def _new_face_check(t, face_data, order_prefix, i):
    """Faces of cell order_prefix[i] not inside earlier cells; returns the
    unique minimal one or None."""
    cell_idx = order_prefix[i]
    earlier = [t.maximal_cells[j] for j in order_prefix[:i]]
    new = []
    for entry in face_data[cell_idx]:
        if not any(c.contains_polyhedron(entry[0]) for c in earlier):
            new.append(entry)
    if not new:
        return None
    minimal = [a for a in new if not any(b is not a and b[1] <= a[1] for b in new)]
    if len(minimal) != 1:
        return None
    return minimal[0]


def verify_shelling(t: PolyhedralComplex, order):
    """Re-check the unique-minimal-new-face condition from scratch.

    Returns the list of (cell index, G_i polyhedron, face descriptor) or
    None when the order is not a shelling.
    """
    face_data = _cell_face_data(t)
    if sorted(order) != list(range(len(t.maximal_cells))):
        return None
    out = []
    for i in range(len(order)):
        got = _new_face_check(t, face_data, order, i)
        if got is None:
            return None
        out.append((order[i], got[0], got[2]))
    return out


def _sweep_orders(t, tries):
    seed = os.environ.get("TVARTOP_SEED")
    rng = random.Random(int(seed) if seed is not None else 0)
    n = t.ambient_rank
    points = []
    for cell in t.maximal_cells:
        c = [Fraction(0)] * n
        for v in cell.vertices:
            c = [a + b for a, b in zip(c, v)]
        c = [a / len(cell.vertices) for a in c]
        for r in cell.tail.rays:
            c = [a + b for a, b in zip(c, r)]
        points.append(tuple(c))
    for _ in range(tries):
        w = tuple(Fraction(rng.randint(-997, 997), rng.randint(1, 31)) for _ in range(n))
        scores = [dot(w, p) for p in points]
        if len(set(scores)) == len(scores):
            yield sorted(range(len(points)), key=lambda i: scores[i])


def find_shelling(t: PolyhedralComplex) -> ShellingData:
    """Shelling order search: generic sweeps first, then backtracking.

    Raises NotShellable when the exhaustive search fails, and
    SearchBudgetExceeded for complexes too large to backtrack over.
    """
    k = len(t.maximal_cells)
    face_data = _cell_face_data(t)

    def package(order):
        checked = verify_shelling(t, order)
        if checked is None:
            return None
        gs = [(ci, gp, desc) for ci, gp, desc in checked]
        face_index = {}
        for f in t.faces():
            for pos, ci in enumerate(order):
                if t.maximal_cells[ci].contains_polyhedron(f.polyhedron):
                    face_index[f.key] = pos
                    break
        return ShellingData(order, gs, face_index)

    for order in _sweep_orders(t, tries=12):
        data = package(order)
        if data is not None:
            return data

    if k > BACKTRACK_CELL_CAP:
        raise SearchBudgetExceeded(
            f"{k} maximal cells exceeds the backtracking cap of {BACKTRACK_CELL_CAP}"
        )

    order = []
    used = [False] * k

    def backtrack():
        if len(order) == k:
            return True
        for c in range(k):
            if used[c]:
                continue
            order.append(c)
            if _new_face_check(t, face_data, order, len(order) - 1) is not None:
                used[c] = True
                if backtrack():
                    return True
                used[c] = False
            order.pop()
        return False

    if backtrack():
        data = package(order)
        if data is not None:
            return data
    raise NotShellable("no shelling order exists")


class CayleyFan:
    """Fan in rank n+1 generated by (tail(F), 0) and (F, 1) over all faces."""

    __slots__ = ("ambient_rank", "cones", "maximal_cones")

    def __init__(self, ambient_rank, cones):
        self.ambient_rank = ambient_rank
        self.cones = tuple(sorted(cones, key=lambda c: (c.dim, c.key)))
        maximal = [
            c for c in self.cones
            if not any(d is not c and d.contains_cone(c) for d in self.cones)
        ]
        self.maximal_cones = tuple(maximal)


def cayley_cone_of_polyhedron(p: Polyhedron) -> Cone:
    """Cone over (p, 1) and (tail(p), 0) in one extra rank."""
    return Cone.from_generators(p.ambient_rank + 1, p.cayley_generators())


def cayley_fan(t: PolyhedralComplex) -> CayleyFan:
    n1 = t.ambient_rank + 1
    cones = {}
    for f in t.faces():
        c = cayley_cone_of_polyhedron(f.polyhedron)
        cones[c.key] = c
        # close under faces of the cone
        cp = c.as_polyhedron()
        for desc in cp.faces():
            sub = cp.face_polyhedron(desc).tail
            cones[sub.key] = sub
    return CayleyFan(n1, cones.values())


def _cone_is_unimodular(c: Cone) -> bool:
    rays = c.rays
    if not c.is_pointed or len(rays) != c.dim:
        return False
    snf = smith_normal_form([list(r) for r in rays])
    return all(d == 1 for d in snf.diagonal)


def is_smooth(t: PolyhedralComplex) -> bool:
    """Every maximal Cayley cone simplicial with unimodular generators.

    The maximal Cayley cones are those of the maximal cells: the Cayley cone
    of a face of a cell is a face of the cell's, and faces of unimodular
    cones are unimodular.
    """
    return all(_cone_is_unimodular(cayley_cone_of_polyhedron(c)) for c in t.maximal_cells)


def bouquet_components(t: PolyhedralComplex):
    """One fan per vertex v: the cones Q>=0 (cell - v) over cells at v."""
    out = []
    for face in t.faces():
        if face.dim != 0:
            continue
        v = face.polyhedron.vertices[0]
        cells = []
        for ci in sorted(face.cells):
            cell = t.maximal_cells[ci]
            gens = [vsub(w, v) for w in cell.vertices if w != v]
            gens += [qvec(r) for r in cell.tail.rays]
            cells.append(Cone.from_generators(t.ambient_rank, gens).as_polyhedron())
        out.append((v, PolyhedralComplex(t.ambient_rank, cells, check=False)))
    return out

