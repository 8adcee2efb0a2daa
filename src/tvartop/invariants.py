"""Grothendieck-ring classes, Betti numbers, and consistency checks.

The class of the affine line is L = uv; a genus-g curve has class
uv - g*u - g*v + 1.  On genus-0 input every class below is a polynomial
in uv and its uv-coefficients are Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    PolyhedralComplex,
    cayley_cone_of_polyhedron,
    _cone_is_unimodular,
    face_counts,
    h_from_f_vector,
    h_number,
    is_complete,
    is_simplicial,
)
from .divfan import (
    DivisorialFan,
    contracted_partition,
    excluded_points,
    slice_at,
    slice_support,
    tail_fan,
    validate,
)
from .errors import (
    GenusNotZero,
    NegativeBetti,
    NotComplete,
    NotSimplicial,
    ValidationFailed,
)
from .polyhedron import Cone


class EPolynomial:
    """Integer polynomial in (u, v); L = uv is the class of the affine line."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def constant(cls, c) -> "EPolynomial":
        return cls({(0, 0): int(c)})

    @classmethod
    def line(cls) -> "EPolynomial":
        return cls({(1, 1): 1})

    @classmethod
    def curve(cls, genus: int) -> "EPolynomial":
        return cls({(1, 1): 1, (1, 0): -genus, (0, 1): -genus, (0, 0): 1})

    @classmethod
    def from_uv_coefficients(cls, cs) -> "EPolynomial":
        return cls({(k, k): int(c) for k, c in enumerate(cs)})

    def __add__(self, other):
        other = _as_epoly(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return EPolynomial(out)

    def __sub__(self, other):
        other = _as_epoly(other)
        return self + EPolynomial({k: -c for k, c in other.coeffs.items()})

    def __rsub__(self, other):
        return _as_epoly(other) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_epoly(other)
        out = {}
        for (i, j), c in self.coeffs.items():
            for (k, l), d in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        return EPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = EPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, EPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def evaluate(self, u, v):
        return sum(c * u**i * v**j for (i, j), c in self.coeffs.items())

    def is_uv_polynomial(self) -> bool:
        return all(i == j for i, j in self.coeffs)

    def uv_coefficients(self):
        """Coefficients of powers of uv, lowest first (pure classes only)."""
        if not self.is_uv_polynomial():
            raise ValueError("class has mixed terms; not a polynomial in uv")
        top = max((i for i, _ in self.coeffs), default=0)
        return tuple(self.coeffs.get((k, k), 0) for k in range(top + 1))

    def as_pairs(self):
        return [[i, j, c] for (i, j), c in sorted(self.coeffs.items())]

    def __str__(self):
        if not self.coeffs:
            return "0"
        if self.is_uv_polynomial():
            terms = []
            for k in sorted({i for i, _ in self.coeffs}, reverse=True):
                c = self.coeffs[(k, k)]
                if k == 0:
                    body = str(abs(c))
                else:
                    base = "L" if k == 1 else f"L^{k}"
                    body = base if abs(c) == 1 else f"{abs(c)}{base}"
                terms.append(("- " if c < 0 else "+ ") + body)
            out = " ".join(terms)
            return out[2:] if out.startswith("+ ") else "-" + out[2:]
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), reverse=True):
            parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*u^{i}*v^{j}")
        return " ".join(parts).lstrip("+ ")

    def __repr__(self):
        return f"EPolynomial({self})"


def _as_epoly(x):
    return x if isinstance(x, EPolynomial) else EPolynomial.constant(x)


def _require_valid(s: DivisorialFan):
    report = validate(s)
    if not report.ok:
        raise ValidationFailed(report)


def _class_of_open_curve(s: DivisorialFan):
    """[U]: the curve minus the points outside the locus and the support."""
    removed = len(excluded_points(s)) + len(slice_support(s))
    return EPolynomial.curve(s.curve.genus) - EPolynomial.constant(removed)


def grothendieck_class(s: DivisorialFan) -> EPolynomial:
    """Class of X(S) in the Grothendieck ring.

    Orbit count: non-contracted tail cones sweep over the open curve,
    contracted ones appear once, and non-contracted slice faces once per
    supporting point; a face of dimension k contributes (L-1)^(n-k).
    """
    _require_valid(s)
    n = s.ambient_rank
    u_class = _class_of_open_curve(s)
    tail_part, slice_parts = contracted_partition(s)
    f_nc = face_counts(tail_part.noncontracted, n)
    f_c = face_counts(tail_part.contracted, n)
    slice_nc = [face_counts(slice_parts[p].noncontracted, n) for p in slice_support(s)]
    lm1 = EPolynomial.line() - 1
    total = EPolynomial()
    for k in range(n + 1):
        inner = u_class * f_nc[k] + f_c[k] + sum(fs[k] for fs in slice_nc)
        total = total + inner * lm1 ** (n - k)
    return total


def grothendieck_class_resolution(s: DivisorialFan) -> EPolynomial:
    """Class of the toroidal model: same count without the contraction split."""
    _require_valid(s)
    n = s.ambient_rank
    u_class = _class_of_open_curve(s)
    f_tail = face_counts(tail_fan(s).faces(), n)
    f_slices = [face_counts(slice_at(s, p).faces(), n) for p in slice_support(s)]
    lm1 = EPolynomial.line() - 1
    total = EPolynomial()
    for k in range(n + 1):
        inner = u_class * f_tail[k] + sum(fs[k] for fs in f_slices)
        total = total + inner * lm1 ** (n - k)
    return total


def _chart_cone(d) -> Cone:
    """The toric chart cone of a complete-locus member with at most two
    nontrivial coefficients: they sit at heights +1 and -1 (with fewer than
    two, the trivial coefficient takes height -1) over the tail at height 0."""
    special = d.nontrivial_labels()
    heights = {}
    if special:
        heights[special[0]] = 1
    if len(special) == 2:
        heights[special[1]] = -1
    else:
        heights[None] = -1  # no label: the trivial coefficient
    # each coefficient's generators include the rays of d.tail at height 0
    gens = [g for label, h in heights.items() for g in d.coefficient(label).cayley_generators(h)]
    return Cone.from_generators(d.ambient_rank + 1, gens)


def chart_smoothness(s: DivisorialFan):
    """Per-chart smoothness certificate for X(S).

    Affine-locus members are toroidal: the tail cone and each coefficient's
    height-one cone must be unimodular.  A complete-locus member with at
    most two nontrivial coefficients is a toric chart (coefficients placed
    at heights +1 and -1); more than two cannot be certified here.
    """
    warnings = []
    certified = True
    for idx, d in enumerate(s.pdivisors):
        if d.has_complete_locus():
            special = d.nontrivial_labels()
            if len(special) > 2:
                warnings.append(
                    f"member {idx}: complete locus with {len(special)} nontrivial "
                    "coefficients; smoothness not certified"
                )
                certified = False
                continue
            if not _cone_is_unimodular(_chart_cone(d)):
                warnings.append(f"member {idx}: chart cone is singular")
                certified = False
        else:
            if not _cone_is_unimodular(d.tail):
                warnings.append(f"member {idx}: tail cone is singular")
                certified = False
            for label, poly in sorted(d.coefficients.items()):
                if poly.is_empty:
                    continue
                if not _cone_is_unimodular(cayley_cone_of_polyhedron(poly)):
                    warnings.append(f"member {idx}: chart over {label!r} is singular")
                    certified = False
    return certified, warnings


@dataclass(frozen=True)
class BettiVector:
    """Even Betti numbers b_0, b_2, ..., top; odd cohomology vanishes."""

    values: tuple
    warnings: tuple = ()

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self.values == other.values
        return self.values == tuple(other)


def _check_completeness(s: DivisorialFan):
    if not is_complete(tail_fan(s)):
        raise NotComplete("tail fan is not complete")
    for p in s.curve.marked_points:
        if s.members_with(p) and not is_complete(slice_at(s, p)):
            raise NotComplete(f"slice at {p!r} is not complete")
    if excluded_points(s):
        raise NotComplete("some marked points lie outside the locus")


def betti_numbers(s: DivisorialFan) -> BettiVector:
    """Even Betti numbers of a smooth complete X(S) on a rational curve.

    b_2k = h^k(tail) - r h^k(tail^nc) + h^{k-1}(tail^nc) + sum_p h^k(S_p^nc);
    the smoothness certificate failing only adds a warning, a negative
    entry raises NegativeBetti.
    """
    _require_valid(s)
    if s.curve.genus != 0:
        raise GenusNotZero("Betti numbers are computed for genus 0 only")
    _check_completeness(s)
    certified, warnings = chart_smoothness(s)
    n = s.ambient_rank
    supp = slice_support(s)
    tail_part, slice_parts = contracted_partition(s)
    f_tail = face_counts(tail_fan(s).faces(), n)
    f_nc = face_counts(tail_part.noncontracted, n)
    f_slice_nc = [face_counts(slice_parts[p].noncontracted, n) for p in supp]
    r = len(supp)
    values = []
    for k in range(n + 2):
        b = (
            h_from_f_vector(f_tail, k)
            - r * h_from_f_vector(f_nc, k)
            + h_from_f_vector(f_nc, k - 1)
            + sum(h_from_f_vector(fs, k) for fs in f_slice_nc)
        )
        values.append(b)
    if any(b < 0 for b in values):
        raise NegativeBetti(f"negative Betti entry in {values}")
    return BettiVector(tuple(values), tuple(warnings))


def bouquet_betti(t: PolyhedralComplex) -> BettiVector:
    """Betti numbers of a complete simplicial toric bouquet: b_2k = h^k."""
    if not is_complete(t):
        raise NotComplete("bouquet Betti numbers need a complete complex")
    if not is_simplicial(t):
        raise NotSimplicial("bouquet Betti numbers need a simplicial complex")
    return BettiVector(tuple(h_number(t, k) for k in range(t.ambient_rank + 1)))


@dataclass
class ConsistencyReport:
    passed: bool
    certified_smooth: bool
    values_agree: bool
    odd_vanish: bool
    betti: tuple
    class_coefficients: tuple
    warnings: tuple

    def verdict(self) -> str:
        if self.passed:
            return "PASS"
        return "UNVERIFIED" if (self.values_agree and self.odd_vanish) else "FAIL"


def consistency_check(s: DivisorialFan) -> ConsistencyReport:
    """Betti numbers against uv-coefficients of the class, entry by entry."""
    betti = betti_numbers(s)
    cls = grothendieck_class(s)
    odd_vanish = cls.is_uv_polynomial()
    coeffs = cls.uv_coefficients() if odd_vanish else ()
    padded = tuple(coeffs) + (0,) * (len(betti.values) - len(coeffs))
    agree = odd_vanish and padded[: len(betti.values)] == betti.values
    certified = not betti.warnings
    return ConsistencyReport(
        passed=agree and certified,
        certified_smooth=certified,
        values_agree=agree,
        odd_vanish=odd_vanish,
        betti=betti.values,
        class_coefficients=tuple(coeffs),
        warnings=betti.warnings,
    )
