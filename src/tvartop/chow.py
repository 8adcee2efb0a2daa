"""Chow-ring presentation of the toroidal model and its Hilbert function.

Generators are the horizontal divisors (rays of the tail fan) and vertical
divisors (slice vertices over supporting points plus two generic fibers).
The ideal combines the divisors of character functions with the squarefree
monomials whose divisor sets have empty intersection: the ring is
Q[x]/(I + J), with J the linear relations and I the nonface monomials
(Danilov 1978; Fulton 1993, §5.2).

The linear relations are solved once (``exactla.rref``); each dependent
generator is a linear form in the free ones modulo J, so the ring is the
quotient of the polynomial ring in the free generators by the images of
the nonface monomials.  Each degree is eliminated in an incremental integer
echelon form over the free monomials, and the basis and normal forms are
those of the elimination over all monomials (see ``_quotient``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from math import gcd

from .complexes import find_shelling, is_simplicial
from .divfan import (
    DivisorialFan,
    slice_at,
    slice_support,
    tail_fan,
    validate,
)
from .errors import (
    BudgetExceeded,
    GenusNotZero,
    NotShellable,
    NotSimplicial,
    SearchBudgetExceeded,
    ValidationFailed,
)
from .exactla import rref
from .polyhedron import mu

GENERATOR_CAP = 16


@dataclass(frozen=True)
class Generator:
    kind: str                  # "horizontal" | "vertical"
    ray: tuple = None          # primitive ray, horizontal only
    point: str = None          # label, vertical only
    vertex: tuple = None       # slice vertex, vertical only

    @property
    def name(self) -> str:
        if self.kind == "horizontal":
            return "D[%s]" % ",".join(str(x) for x in self.ray)
        vtx = ",".join(str(Fraction(x)) for x in self.vertex)
        return "D[%s;%s]" % (self.point, vtx)


class ChowPresentation:
    def __init__(self, fan, generators, linear_relations, nonface_sets,
                 generic_points, supp):
        self.fan = fan
        self.generators = tuple(generators)
        self.linear_relations = linear_relations
        self.nonface_sets = tuple(tuple(sorted(s)) for s in nonface_sets)
        self.generic_points = generic_points
        self.supp = supp
        named = {"tail fan": tail_fan(fan), **{f"slice at {p!r}": slice_at(fan, p) for p in supp}}
        self.nonsimplicial = tuple(name for name, c in named.items() if not is_simplicial(c))
        self._quotients = {}
        self._substitution = None

    @property
    def ambient_rank(self):
        return self.fan.ambient_rank


def _generic_labels(curve):
    base = ["g1", "g2"]
    taken = set(curve.marked_points)
    out = []
    for b in base:
        label = b
        while label in taken:
            label = "_" + label
        taken.add(label)
        out.append(label)
    return tuple(out)


def presentation(s: DivisorialFan) -> ChowPresentation:
    """Generators, linear relations, and minimal nonface monomial supports.

    Two generic fibers are always carried: with empty support a single one
    cannot express that the generic fiber squares to zero.
    """
    if s.curve.genus != 0:
        raise GenusNotZero("the presentation is defined over a rational curve")
    report = validate(s)
    if not report.ok:
        raise ValidationFailed(report)
    n = s.ambient_rank
    tf = tail_fan(s)
    supp = slice_support(s)
    g1, g2 = _generic_labels(s.curve)

    rays = sorted({f.polyhedron.tail.rays[0] for f in tf.faces() if f.dim == 1})
    gens = [Generator("horizontal", ray=r) for r in rays]
    slice_vertices = {}
    for p in supp:
        slice_vertices[p] = sorted(slice_at(s, p).vertices())
        gens += [Generator("vertical", point=p, vertex=v) for v in slice_vertices[p]]
    for g in (g1, g2):
        slice_vertices[g] = sorted(tf.vertices())
        gens += [Generator("vertical", point=g, vertex=v) for v in slice_vertices[g]]
    index = {(g.kind, g.ray, g.point, g.vertex): i for i, g in enumerate(gens)}

    def hidx(ray):
        return index[("horizontal", ray, None, None)]

    def vidx(point, vertex):
        return index[("vertical", None, point, vertex)]

    rows = []
    for i in range(n):
        row = [0] * len(gens)
        for r in rays:
            row[hidx(r)] = r[i]
        for p, verts in slice_vertices.items():
            for v in verts:
                row[vidx(p, v)] = int(mu(v) * v[i])
        rows.append(tuple(row))
    for p in list(supp) + [g2]:
        row = [0] * len(gens)
        for v in slice_vertices[p]:
            row[vidx(p, v)] = mu(v)
        for v in slice_vertices[g1]:
            row[vidx(g1, v)] -= mu(v)
        rows.append(tuple(row))

    face_supports = set()
    for f in tf.faces():
        face_supports.add(frozenset(hidx(r) for r in f.polyhedron.tail.rays))
    for p in list(supp) + [g1, g2]:
        complex_ = slice_at(s, p) if p in supp else tf
        for f in complex_.faces():
            sup = {hidx(r) for r in f.polyhedron.tail.rays}
            sup |= {vidx(p, v) for v in f.polyhedron.vertices}
            face_supports.add(frozenset(sup))

    nonfaces = _minimal_nonfaces(face_supports, len(gens))
    return ChowPresentation(s, gens, tuple(rows), nonfaces, (g1, g2), supp)


def _minimal_nonfaces(face_supports, m):
    """Minimal subsets that are not face supports (level-wise search)."""
    out = []
    current = {frozenset()}
    while current:
        next_faces = set()
        seen = set()
        for f in current:
            for x in range(m):
                if x in f:
                    continue
                cand = f | {x}
                if cand in seen:
                    continue
                seen.add(cand)
                if any(cand - {y} not in current for y in cand):
                    continue  # some subset already a nonface
                if cand in face_supports:
                    next_faces.add(cand)
                else:
                    out.append(cand)
        current = next_faces
    return sorted(out, key=lambda f: (len(f), sorted(f)))


class _IntEchelon:
    """Incremental echelon form over Z with sparse dict rows.

    The pivot of a row is its smallest column.  A row is cleared against a
    pivot row by cross-multiplying with the two entries divided by their
    gcd, and divided by its content after every scaling, so the entries
    stay small integers (the elimination of ``exactla.rref``).
    """

    def __init__(self):
        self.pivots = {}  # col -> primitive row dict, smallest column col, positive there

    def reduce(self, row, full=True):
        """(r, m): r is congruent to m * row modulo the pivot rows, m is a
        nonzero Fraction.  A full reduction leaves no pivot column in r; a
        partial one stops at the first column that has no pivot."""
        row = {c: v for c, v in row.items() if v}
        num = den = 1
        heap = list(row)
        heapify(heap)
        while heap:
            col = heappop(heap)
            f = row.get(col)
            if f is None:
                continue
            piv = self.pivots.get(col)
            if piv is None:
                if full:
                    continue
                break
            g = gcd(piv[col], f)
            a, b = piv[col] // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
                num *= a
            for c, v in piv.items():
                x = row.get(c, 0) - b * v
                if x:
                    if c not in row:
                        heappush(heap, c)
                    row[c] = x
                else:
                    row.pop(c, None)
            if a != 1 and row:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
                    den *= g
        return row, Fraction(num, den)

    def add(self, row) -> bool:
        row, _ = self.reduce(row, full=False)
        if not row:
            return False
        col = min(row)
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        self.pivots[col] = {c: v // g for c, v in row.items()}
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _check_budget(pres: ChowPresentation, dmax: int):
    n = pres.ambient_rank
    if len(pres.generators) > GENERATOR_CAP:
        raise BudgetExceeded(
            f"{len(pres.generators)} generators exceeds the cap of {GENERATOR_CAP}"
        )
    if dmax > n + 2:
        raise BudgetExceeded(f"degree {dmax} exceeds the cap of {n + 2}")


def _substitution(pres: ChowPresentation):
    """(free generators, images of the generators, images of the nonfaces).

    ``rref`` of the linear relations has one row c_p x_p + sum a_f x_f per
    dependent (pivot) generator p, with c_p > 0 and f over the free
    generators.  Modulo the relations, x_p = -(1/c_p) sum a_f x_f: the image
    of generator g is an integer linear form {f: coefficient} over the free
    generators and a positive denominator.  A nonface's image is the integer
    product of its generators' forms, over free monomials; its denominator
    does not change the row space, so it is dropped.
    """
    if pres._substitution is None:
        rows, piv = rref(pres.linear_relations)
        m = len(pres.generators)
        dependent = set(piv)
        free = tuple(g for g in range(m) if g not in dependent)
        images = {g: ({g: 1}, 1) for g in free}
        for row, p in zip(rows, piv):
            images[p] = ({f: -row[f] for f in free if row[f]}, row[p])
        nonfaces = [(len(nf), _image(images, nf)[0]) for nf in pres.nonface_sets]
        nonfaces = sorted(((k, poly) for k, poly in nonfaces if poly), key=lambda x: len(x[1]))
        pres._substitution = (free, images, nonfaces)
    return pres._substitution


def _image(images, mono):
    """(integer polynomial {free monomial: coefficient}, denominator) of a
    monomial modulo the linear relations."""
    poly, den = {(): 1}, 1
    for g in mono:
        form, c = images[g]
        den *= c
        out = {}
        for mo, v in poly.items():
            for f, w in form.items():
                key = tuple(sorted(mo + (f,)))
                out[key] = out.get(key, 0) + v * w
        poly = {k: v for k, v in out.items() if v}
    return poly, den


def _quotient(pres: ChowPresentation, d: int):
    """(monomials, echelon form, basis monomial ids) of the degree-d piece.

    Modulo the linear relations every monomial is congruent to its image in
    the free generators, so the piece is the quotient of the degree-d free
    monomials by the images of the nonface monomials times every free
    monomial of the complementary degree.  Monomials are ordered as sorted
    tuples of generator indices and a row's leading term is its smallest
    monomial.  Each relation row leads with its dependent generator, so every
    monomial with a dependent generator leads some row of the linear part:
    the basis and the normal forms are those of the elimination over all
    monomials in all generators.
    """
    if d in pres._quotients:
        return pres._quotients[d]
    free, _, nonfaces = _substitution(pres)
    monos = list(combinations_with_replacement(free, d))
    mono_id = {mo: i for i, mo in enumerate(monos)}
    ech = _IntEchelon()
    for k, poly in nonfaces:
        if k > d:
            continue
        for lo in combinations_with_replacement(free, d - k):
            if ech.rank == len(monos):
                break
            ech.add({mono_id[tuple(sorted(mo + lo))]: v for mo, v in poly.items()})
    basis = [i for i in range(len(monos)) if i not in ech.pivots]
    pres._quotients[d] = (monos, ech, basis)
    return pres._quotients[d]


def hilbert_function(s_or_pres, dmax: int):
    """Dimensions of the graded pieces of the quotient ring, degrees 0..dmax.

    The ring is generated in degree 1, so R_d = 0 forces R_{d+1} = 0: the
    degrees above the first zero one are not eliminated.
    """
    pres = s_or_pres if isinstance(s_or_pres, ChowPresentation) else presentation(s_or_pres)
    _check_budget(pres, dmax)
    out = []
    for d in range(dmax + 1):
        _, _, basis = _quotient(pres, d)
        out.append(len(basis))
        if not basis:
            break
    return tuple(out) + (0,) * (dmax + 1 - len(out))


def product_in_quotient(s_or_pres, monomials):
    """Reduce a product of monomials to coordinates in the quotient basis.

    Each monomial is an iterable of generator indices (repetition allowed).
    Returns (coords dict basis-monomial -> Fraction, basis monomial list).
    """
    pres = s_or_pres if isinstance(s_or_pres, ChowPresentation) else presentation(s_or_pres)
    combined = tuple(sorted(i for mo in monomials for i in mo))
    d = len(combined)
    _check_budget(pres, d)
    monos, ech, basis = _quotient(pres, d)
    mono_id = {mo: i for i, mo in enumerate(monos)}
    _, images, _ = _substitution(pres)
    poly, den = _image(images, combined)
    vec, mult = ech.reduce({mono_id[mo]: v for mo, v in poly.items()})
    coords = {monos[i]: v / (mult * den) for i, v in vec.items()}
    return coords, [monos[i] for i in basis]


@dataclass
class SpecializationMap:
    """Degeneration of generic-fiber classes into a special slice."""

    source_basis: tuple   # shelling faces of the tail fan
    target_basis: tuple   # shelling faces of the slice
    matrix: tuple         # int rows = target, cols = source, entries mu(v(G))

    def has_full_column_rank(self) -> bool:
        return len(rref(self.matrix)[1]) == len(self.source_basis)


def _shelling_faces(complex_):
    """The poset entries of the G_i of a shelling of ``complex_``."""
    return [f for _, _, f in find_shelling(complex_).minimal_new_faces]


def specialization_matrix(s: DivisorialFan, p) -> SpecializationMap:
    """Matrix of the specialization map over the shelling bases.

    Entry at (target face G, source face F) is mu of G's unique vertex when
    G and F share tail cone and dimension, zero otherwise.
    """
    tf = tail_fan(s)
    source = _shelling_faces(tf)
    sp = slice_at(s, p)
    target = source if sp == tf else _shelling_faces(sp)
    rows = []
    for g in target:
        verts = g.polyhedron.vertices
        if len(verts) != 1:
            raise NotSimplicial(f"slice face over {p!r} has {len(verts)} vertices")
        v = mu(verts[0])
        rows.append(tuple(v if (g.dim, g.polyhedron.tail) == (f.dim, f.polyhedron.tail) else 0
                          for f in source))
    return SpecializationMap(tuple(f.polyhedron for f in source),
                             tuple(g.polyhedron for g in target), tuple(rows))


@dataclass
class ShellabilityReport:
    ok: bool
    reasons: list

    def __bool__(self):
        return self.ok


def is_shellable_divfan(s: DivisorialFan) -> ShellabilityReport:
    """Tail fan and every supporting slice shellable, all specialization
    maps injective (full column rank)."""
    reasons = []
    try:
        _shelling_faces(tail_fan(s))
    except (NotShellable, SearchBudgetExceeded) as exc:
        return ShellabilityReport(False, [f"tail fan: {exc}"])
    for p in slice_support(s):
        try:
            m = specialization_matrix(s, p)
        except (NotShellable, SearchBudgetExceeded, NotSimplicial) as exc:
            reasons.append(f"slice at {p!r}: {exc}")
            continue
        if not m.has_full_column_rank():
            reasons.append(f"specialization map at {p!r} is not injective")
    return ShellabilityReport(not reasons, reasons)
