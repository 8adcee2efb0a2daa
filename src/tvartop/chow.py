"""Chow-ring presentation of the toroidal model and its Hilbert function.

Generators are the horizontal divisors (rays of the tail fan) and vertical
divisors (slice vertices over supporting points plus two generic fibers).
The ideal combines the divisors of character functions with the squarefree
monomials whose divisor sets have empty intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

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
    NotShellableSlice,
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

    @property
    def ambient_rank(self):
        return self.fan.ambient_rank

    def generator_index(self, kind, **fields):
        for i, g in enumerate(self.generators):
            if g.kind != kind:
                continue
            if all(getattr(g, k) == v for k, v in fields.items()):
                return i
        raise KeyError(f"no {kind} generator with {fields}")


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


def _check_budget(pres: ChowPresentation, dmax: int):
    n = pres.ambient_rank
    if len(pres.generators) > GENERATOR_CAP:
        raise BudgetExceeded(
            f"{len(pres.generators)} generators exceeds the cap of {GENERATOR_CAP}"
        )
    if dmax > n + 2:
        raise BudgetExceeded(f"degree {dmax} exceeds the cap of {n + 2}")


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


def hilbert_function(s_or_pres, dmax: int):
    """Dimensions of the graded pieces of the quotient ring, degrees 0..dmax.

    The ring is generated in degree 1, so R_d = 0 forces R_{d+1} = 0: the
    degrees above the first zero one are not eliminated.
    """
    pres = s_or_pres if isinstance(s_or_pres, ChowPresentation) else presentation(s_or_pres)
    _check_budget(pres, dmax)
    out = []
    for d in range(dmax + 1):
        monos, rref_, basis = _quotient(pres, d)
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
    monos, rref_, basis = _quotient(pres, d)
    mono_id = {mo: i for i, mo in enumerate(monos)}
    vec = rref_.reduce({mono_id[combined]: Fraction(1)})
    coords = {monos[i]: v for i, v in vec.items()}
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
    try:
        data = find_shelling(complex_)
    except (NotShellable, SearchBudgetExceeded) as exc:
        raise NotShellableSlice(str(exc)) from exc
    return [g for _, g, _ in data.minimal_new_faces]


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
        if len(g.vertices) != 1:
            raise NotSimplicial(
                f"slice face over {p!r} has {len(g.vertices)} vertices"
            )
        row = []
        for f in source:
            if g.tail == f.tail and g.dim() == f.dim():
                row.append(mu(g.vertices[0]))
            else:
                row.append(0)
        rows.append(tuple(row))
    return SpecializationMap(tuple(source), tuple(target), tuple(rows))


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
    except NotShellableSlice as exc:
        return ShellabilityReport(False, [f"tail fan: {exc}"])
    for p in slice_support(s):
        try:
            m = specialization_matrix(s, p)
        except (NotShellableSlice, NotSimplicial) as exc:
            reasons.append(f"slice at {p!r}: {exc}")
            continue
        if not m.has_full_column_rank():
            reasons.append(f"specialization map at {p!r} is not injective")
    return ShellabilityReport(not reasons, reasons)
