"""p-divisors and divisorial fans on a marked rational curve.

Marked points are opaque labels; only the multiset of points ever matters.
A coefficient may be a polyhedron with the common tail cone, the trivial
coefficient (the tail cone itself, the default for unlisted labels), or
the empty polyhedron (the point is removed from the locus).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .complexes import PolyhedralComplex
from .errors import (
    EmptyCoefficient,
    FanInvalid,
    GenusNotZero,
    NotApplicable,
    NotComplete,
    NotInDualCone,
    PointNotCovered,
)
from .polyhedron import (
    Cone,
    Polyhedron,
    cone_meets_polyhedron,
    dot,
    intersect,
    is_face_of,
    minkowski_sum,
    qvec,
    rays_of_hcone,
)


class _Generic:
    def __repr__(self):
        return "GENERIC"


GENERIC = _Generic()


@dataclass(frozen=True)
class CurveData:
    genus: int
    marked_points: tuple

    def __post_init__(self):
        if len(set(self.marked_points)) != len(self.marked_points):
            raise ValueError("marked point labels must be distinct")


class PDivisor:
    """A polyhedral divisor: tail cone plus coefficients over marked points."""

    __slots__ = ("tail", "coefficients", "key", "_degree")

    def __init__(self, tail: Cone, coefficients):
        if not tail.is_pointed:
            raise ValueError("tail cone must be pointed")
        self.tail = tail
        coeffs = {}
        for label, poly in coefficients.items():
            if not poly.is_empty and poly.tail != tail:
                raise ValueError(f"coefficient at {label!r} has a different tail cone")
            coeffs[label] = poly
        self.coefficients = coeffs
        trivial = tail.as_polyhedron()
        nontrivial = tuple(sorted(
            (label, poly.key) for label, poly in coeffs.items() if poly != trivial
        ))
        self.key = (tail.key, nontrivial)
        self._degree = None

    @property
    def ambient_rank(self):
        return self.tail.ambient_rank

    def coefficient(self, label) -> Polyhedron:
        """Coefficient at a label; unlisted labels default to the tail cone."""
        got = self.coefficients.get(label)
        return self.tail.as_polyhedron() if got is None else got

    def has_complete_locus(self) -> bool:
        return not any(p.is_empty for p in self.coefficients.values())

    def empty_labels(self):
        return sorted(l for l, p in self.coefficients.items() if p.is_empty)

    def nontrivial_labels(self):
        trivial = self.tail.as_polyhedron()
        return sorted(l for l, p in self.coefficients.items()
                      if not p.is_empty and p != trivial)

    def __eq__(self, other):
        return isinstance(other, PDivisor) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"PDivisor(tail={self.tail!r}, coeffs={self.coefficients})"


class DivisorialFan:
    """Finite intersection-closed set of p-divisors over a marked curve."""

    def __init__(self, curve: CurveData, pdivisors):
        self.curve = curve
        seen = {}
        for d in pdivisors:
            if not set(d.coefficients) <= set(curve.marked_points):
                raise ValueError("a coefficient sits at a label that is not a marked point")
            seen[d.key] = d
        self.pdivisors = tuple(seen.values())
        if not self.pdivisors:
            raise ValueError("a divisorial fan needs at least one p-divisor")
        ranks = {d.ambient_rank for d in self.pdivisors}
        if len(ranks) != 1:
            raise ValueError("mixed ambient ranks")
        self.ambient_rank = ranks.pop()
        if self.ambient_rank < 1:
            raise ValueError("ambient rank must be at least 1")
        self._slices = {}
        self._validation = None
        self._partition = None

    def members_with(self, label) -> list:
        return [d for d in self.pdivisors if not d.coefficient(label).is_empty]

    def __repr__(self):
        return (f"DivisorialFan(genus={self.curve.genus}, "
                f"points={list(self.curve.marked_points)}, members={len(self.pdivisors)})")


def evaluate(d: PDivisor, u, points=None, on_locus=True):
    """Per-label minimum of <u, .> over the coefficients (the divisor D(u)).

    ``u`` must lie in the dual of the tail cone.  ``points`` defaults to the
    labels explicitly carried by the p-divisor; labels with empty coefficient
    are skipped when ``on_locus`` and raise EmptyCoefficient otherwise.
    """
    u = qvec(u)
    if any(dot(u, r) < 0 for r in d.tail.rays):
        raise NotInDualCone(f"{u} is not in the dual of the tail cone")
    if points is None:
        points = sorted(d.coefficients)
    out = {}
    for label in points:
        poly = d.coefficient(label)
        if poly.is_empty:
            if on_locus:
                continue
            raise EmptyCoefficient(f"coefficient at {label!r} is empty")
        out[label] = min(dot(u, v) for v in poly.vertices)
    return out


def degree(d: PDivisor) -> Polyhedron:
    """Minkowski sum of the coefficients; empty absorbs, no support gives
    the trivial polyhedron on the tail cone."""
    if d._degree is None:
        if not d.has_complete_locus():
            d._degree = Polyhedron.empty(d.ambient_rank)
        else:
            trivial = d.tail.as_polyhedron()
            parts = [poly for _, poly in sorted(d.coefficients.items()) if poly != trivial]
            d._degree = reduce(minkowski_sum, parts) if parts else trivial
    return d._degree


@dataclass
class CheckReport:
    ok: bool
    reasons: list

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.reasons)


def is_pdivisor(d: PDivisor, curve: CurveData) -> CheckReport:
    """Properness test.  Affine locus always passes; complete locus on a
    rational curve needs deg inside the tail cone and away from the origin.
    """
    if not d.has_complete_locus():
        return CheckReport(True, [])
    if curve.genus != 0:
        raise GenusNotZero("complete-locus properness is only decided on genus 0")
    deg = degree(d)
    reasons = []
    if not all(d.tail.contains(v) for v in deg.vertices):
        reasons.append("degree polyhedron is not contained in the tail cone")
    zero = tuple(Fraction(0) for _ in range(d.ambient_rank))
    if deg.contains(zero):
        reasons.append("origin lies in the degree polyhedron (bigness fails)")
    return CheckReport(not reasons, reasons)


@dataclass
class LociReport:
    excluded: tuple   # labels outside the locus
    supp: tuple       # labels in the locus with nontrivial coefficient
    loc: str
    triv: str


def loci(obj, curve: CurveData) -> LociReport:
    """loc/supp/triv for a p-divisor or a divisorial fan.

    For fans: union of loci, union of supports, intersection of trivial loci.
    """
    if isinstance(obj, PDivisor):
        excluded = set(obj.empty_labels())
        supp = set(obj.nontrivial_labels())
    else:
        excluded = None
        supp = set()
        for d in obj.pdivisors:
            ex = set(d.empty_labels())
            excluded = ex if excluded is None else (excluded & ex)
            supp |= set(d.nontrivial_labels()) - ex
        excluded = excluded or set()
    supp -= excluded
    exc = tuple(sorted(excluded))
    loc = "P1" if not exc else "P1 minus {%s}" % ", ".join(exc)
    nontriv = tuple(sorted(set(exc) | supp))
    triv = "P1" if not nontriv else "P1 minus {%s}" % ", ".join(nontriv)
    return LociReport(exc, tuple(sorted(supp)), loc, triv)


def excluded_points(s: DivisorialFan):
    """Marked points outside loc(S), i.e. empty in every member."""
    return tuple(p for p in s.curve.marked_points if not s.members_with(p))


def tail_fan(s: DivisorialFan) -> PolyhedralComplex:
    """Fan of tail cones (FanInvalid if they do not meet in faces)."""
    if "tail" not in s._slices:
        cells = [d.tail.as_polyhedron() for d in s.pdivisors]
        s._slices["tail"] = PolyhedralComplex(s.ambient_rank, cells)
    return s._slices["tail"]


def slice_at(s: DivisorialFan, p) -> PolyhedralComplex:
    """The polyhedral complex of coefficients over the point p.

    ``p`` is a marked point label or GENERIC (the tail fan).  A marked point
    excluded from every locus raises PointNotCovered.
    """
    if p is GENERIC:
        return tail_fan(s)
    if p not in s.curve.marked_points:
        raise KeyError(f"unknown marked point {p!r}")
    if p not in s._slices:
        members = s.members_with(p)
        if not members:
            raise PointNotCovered(f"point {p!r} is excluded from every locus")
        cells = [d.coefficient(p) for d in members]
        s._slices[p] = PolyhedralComplex(s.ambient_rank, cells)
    return s._slices[p]


def slice_support(s: DivisorialFan):
    """Marked points whose slice differs from the tail fan.

    This is the r that enters the class and Betti formulas.
    """
    tf = tail_fan(s)
    out = []
    for p in s.curve.marked_points:
        if not s.members_with(p):
            continue
        if slice_at(s, p) != tf:
            out.append(p)
    return tuple(out)


@dataclass
class SlicePartition:
    contracted: list
    noncontracted: list


def _contracted_tail_keys(s: DivisorialFan):
    """Keys of tail-fan cones collapsed by the contraction map."""
    complete = [(d.tail, degree(d)) for d in s.pdivisors if d.has_complete_locus()]
    contracted = {}
    for face in tail_fan(s).faces():
        cone = face.polyhedron.tail
        hit = any(
            tail.contains_cone(cone) and cone_meets_polyhedron(cone, deg)
            for tail, deg in complete
        )
        contracted[cone.key] = hit
    return contracted


def contracted_partition(s: DivisorialFan):
    """Split the tail fan and every slice into contracted / non-contracted.

    A face is contracted iff some complete-locus member's degree meets its
    tail cone inside that member's tail.
    """
    if s._partition is not None:
        return s._partition
    ckeys = _contracted_tail_keys(s)
    tf = tail_fan(s)

    def split(complex_):
        con, non = [], []
        for face in complex_.faces():
            (con if ckeys[face.polyhedron.tail.key] else non).append(face)
        return SlicePartition(con, non)

    per_slice = {}
    for p in s.curve.marked_points:
        if s.members_with(p):
            per_slice[p] = split(slice_at(s, p))
    s._partition = (split(tf), per_slice)
    return s._partition


def pdiv_intersect(a: PDivisor, b: PDivisor) -> PDivisor:
    """Coefficient-wise intersection."""
    tail_poly = intersect(a.tail.as_polyhedron(), b.tail.as_polyhedron())
    tail = tail_poly.tail
    coeffs = {}
    for label in sorted(set(a.coefficients) | set(b.coefficients)):
        coeffs[label] = intersect(a.coefficient(label), b.coefficient(label))
    return PDivisor(tail, coeffs)


def closure_under_intersection(members, max_rounds=12):
    """Close a member list under pairwise intersection (fixture builder)."""
    pool = {d.key: d for d in members}
    for _ in range(max_rounds):
        fresh = {}
        items = list(pool.values())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                got = pdiv_intersect(items[i], items[j])
                if got.key not in pool:
                    fresh[got.key] = got
        if not fresh:
            return list(pool.values())
        pool.update(fresh)
    raise FanInvalid("intersection closure did not stabilize")


@dataclass
class ValidationReport:
    ok: bool
    issues: list

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.issues)


def _face_signatures(members, labels):
    """Per member, the ray set of the tail and, per label, the vertex set of
    the coefficient (empty for an empty coefficient), each as a bit mask
    over the rays and vertices that occur.  The canonical tail and
    coefficients are built from exactly these sets, so two members are
    equal iff their signatures are."""
    bits = {}

    def mask(slot, items):
        out = 0
        for x in items:
            out |= 1 << bits.setdefault((slot, x), len(bits))
        return out

    return [(mask(None, d.tail.rays),) + tuple(mask(p, d.coefficient(p).vertices) for p in labels)
            for d in members]


def _signature_meet(a, b):
    """Signature of the coefficient-wise intersection of two members whose
    tails, and whose coefficients at each label, meet in common faces."""
    return tuple(map(int.__and__, a, b))


def validate(s: DivisorialFan) -> ValidationReport:
    """Full fan check: properness, intersection closure, the coefficient-wise
    face condition, and slice well-formedness.

    The tails, or the cells of one label, meet pairwise in common faces iff
    the maximal cells do (building the slice complexes checks it) and each
    cell is a face of some, hence every, maximal cell containing it.  Proof:
    if a is a face of M, a ∩ (M ∩ M′) is a face of M, a and M ∩ M′; and
    a ∩ b = (a ∩ F) ∩ (b ∩ F) for F = M ∩ M′.  The face condition checked
    here is the necessary combinatorial one; the open-embedding condition
    itself has no coefficient-level criterion.

    Closure is then decided on face signatures (``_face_signatures``), with
    no polyhedral intersection.  If two cells a and b of a complex meet in a
    common face, a ∩ b is a face of both: its vertices are the vertices of
    a that are also vertices of b, and its recession cone, rec a ∩ rec b, is
    the common face of the tail fan with rays R_a ∩ R_b.  It is empty iff
    V_a ∩ V_b is, since every nonempty pointed polyhedron has a vertex.
    So the intersection of two members has the meet of their signatures as
    its signature (``_signature_meet``), and it is a member iff that meet is
    a member's signature.  When a slice is not a complex or some cell is
    not a face, closure falls back to the exact ``pdiv_intersect``, so its
    issues stay true on fans that are already invalid.  Issues are listed
    as properness, closure, then face and slice.
    """
    if s._validation is not None:
        return s._validation
    issues = []
    for i, d in enumerate(s.pdivisors):
        rep = is_pdivisor(d, s.curve)
        if not rep.ok:
            issues.append(f"member {i} is not a p-divisor: {rep}")
    face_issues = []
    try:
        groups = [(tail_fan(s), [(d.tail.as_polyhedron(), f"tail of member {i}")
                                 for i, d in enumerate(s.pdivisors)])]
        for p in s.curve.marked_points:
            cells = [(c, f"coefficient of member {i} at {p!r}")
                     for i, c in enumerate(d.coefficient(p) for d in s.pdivisors)
                     if not c.is_empty]
            if cells:
                groups.append((slice_at(s, p), cells))
        for complex_, cells in groups:
            maximal = {m: m for m in complex_.maximal_cells}
            for c, what in cells:
                # no other cell of the complex contains a maximal one
                outer = maximal.get(c)
                if outer is None:
                    outer = next(m for m in complex_.maximal_cells if m.contains_polyhedron(c))
                if not is_face_of(c, outer):
                    face_issues.append(f"{what} is not a face of a maximal cell containing it")
    except FanInvalid as exc:
        face_issues.append(f"slice is not a polyhedral complex: {exc}")
    if face_issues:
        operands = s.pdivisors
        present = {d.key for d in operands}

        def meet(a, b):
            return pdiv_intersect(a, b).key
    else:
        operands = _face_signatures(s.pdivisors, s.curve.marked_points)
        present = set(operands)
        meet = _signature_meet
    for i in range(len(operands)):
        for j in range(i + 1, len(operands)):
            if meet(operands[i], operands[j]) not in present:
                issues.append(f"intersection of members {i} and {j} is missing (closure)")
    issues += face_issues
    report = ValidationReport(not issues, issues)
    s._validation = report
    return report


def toric_downgrade(f: PolyhedralComplex) -> DivisorialFan:
    """Divisorial fan of a complete fan under the last-coordinate projection.

    Every cone of the fan yields a member: its height 0 section is the tail,
    the sections at heights +1 and -1 are the coefficients at "0" and "inf".
    The result is closed under intersections because the input fan is.
    """
    from .complexes import is_complete

    if f.ambient_rank < 2:
        raise NotApplicable("toric downgrade needs a fan of rank at least 2")
    if not is_complete(f):
        raise NotComplete("toric downgrade needs a complete fan")
    n1 = f.ambient_rank
    n = n1 - 1
    members = {}
    for face in f.faces():
        cone = face.polyhedron.tail
        eqs, ineqs = cone.hrep()
        tail_lin, tail_rays = rays_of_hcone(
            [a[:n] for a in ineqs], [e[:n] for e in eqs], n
        )
        if tail_lin:
            raise FanInvalid("downgraded tail cone is not pointed")
        tail = Cone(n, tail_rays, ())
        coeffs = {}
        for label, h in (("0", 1), ("inf", -1)):
            heqs = [(h * e[n],) + e[:n] for e in eqs]
            hineqs = [(h * a[n],) + a[:n] for a in ineqs]
            coeffs[label] = Polyhedron._from_hrep_data(n, heqs, hineqs)
        d = PDivisor(tail, coeffs)
        members[d.key] = d
    return DivisorialFan(CurveData(0, ("0", "inf")), members.values())


def product_with_line(t: PolyhedralComplex) -> PolyhedralComplex:
    """Complete fan in one extra rank: cones of t times the fan of the line."""
    cells = []
    for cell in t.maximal_cells:
        rays = [tuple(r) + (0,) for r in cell.tail.rays]
        for e in (1, -1):
            cells.append(
                Cone.from_generators(t.ambient_rank + 1, rays + [(0,) * t.ambient_rank + (e,)])
                .as_polyhedron()
            )
    return PolyhedralComplex(t.ambient_rank + 1, cells)


def r0_fan(t: PolyhedralComplex) -> DivisorialFan:
    """Empty-support divisorial fan whose tail fan is the given complete fan."""
    return toric_downgrade(product_with_line(t))
