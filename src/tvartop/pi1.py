"""Fundamental groups: lattice quotient times the fundamental group of the locus."""

from __future__ import annotations

from dataclasses import dataclass

from .divfan import DivisorialFan, PDivisor, excluded_points
from .exactla import saturated_basis, smith_normal_form
from .polyhedron import is_zero, primitive, qvec, vsub


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be at least 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LocPart:
    kind: str            # "trivial" | "free" | "surface"
    rank: int = 0        # free rank, or genus for surface groups

    @property
    def is_trivial(self) -> bool:
        return self.kind == "trivial" or (self.kind == "free" and self.rank == 0)

    def render(self) -> str:
        if self.is_trivial:
            return "trivial"
        if self.kind == "free":
            return "Z" if self.rank == 1 else f"F_{self.rank}"
        return f"pi1(Sigma_{self.rank})"


@dataclass(frozen=True)
class Pi1Description:
    abelian_part: FGAbelianGroup
    loc_part: LocPart
    log_terminal_attested: bool = False

    @property
    def is_trivial(self) -> bool:
        return self.abelian_part.is_trivial and self.loc_part.is_trivial

    def render(self) -> str:
        if self.is_trivial:
            return "trivial"
        if self.loc_part.is_trivial:
            return self.abelian_part.render()
        if self.abelian_part.is_trivial:
            return self.loc_part.render()
        return f"{self.abelian_part.render()} x {self.loc_part.render()}"


def lattice_ND(d: PDivisor, strict: bool = False):
    """Basis of the saturated sublattice spanned by coefficient differences.

    Every nonempty coefficient contributes its vertex differences and ray
    directions.  By default the trivial coefficient sitting over generic
    points contributes the span of the tail cone as well (the literal
    reading over all points of the curve); ``strict`` restricts to the
    explicitly listed coefficients.
    """
    diffs = []
    if not strict:
        diffs += [qvec(r) for r in d.tail.rays]
    for label in sorted(d.coefficients):
        poly = d.coefficients[label]
        if poly.is_empty:
            continue
        v0 = poly.vertices[0]
        diffs += [vsub(v, v0) for v in poly.vertices[1:]]
        diffs += [qvec(r) for r in poly.tail.rays]
    ints = [primitive(v) for v in diffs if not is_zero(v)]
    return saturated_basis(ints, d.ambient_rank)


def group_NS(s: DivisorialFan, strict: bool = False) -> FGAbelianGroup:
    """Quotient of the lattice by the span of all members' difference lattices.

    The member lattices are saturated but their sum need not be, so torsion
    can appear.
    """
    rows = []
    for d in s.pdivisors:
        rows += lattice_ND(d, strict=strict)
    n = s.ambient_rank
    if not rows:
        return FGAbelianGroup(n)
    snf = smith_normal_form(rows)
    torsion = tuple(x for x in snf.diagonal if x > 1)
    return FGAbelianGroup(n - snf.rank, torsion)


def pi1_loc(s: DivisorialFan) -> LocPart:
    """Fundamental group of the locus: a genus-g curve minus k points."""
    g = s.curve.genus
    k = len(excluded_points(s))
    if k >= 1:
        return LocPart("free", 2 * g + k - 1)
    if g == 0:
        return LocPart("trivial")
    return LocPart("surface", g)


def fundamental_group(s: DivisorialFan, log_terminal_attested: bool = False) -> Pi1Description:
    """Direct-product description N(S) x pi1(loc(S)).

    Valid for log-terminal varieties; the attestation is caller-supplied
    metadata and recorded, never verified.
    """
    return Pi1Description(group_NS(s), pi1_loc(s), log_terminal_attested)
