"""Fan and complex documents: JSON objects to and from fans and complexes.

Rationals are encoded as integers or "p/q" strings.  Serialization is
canonical (sorted members, reduced rationals, trivial coefficients
omitted), so equal objects give equal documents.

A fan document is read in full before any cone is built.  Its tails, and
the homogenization cones of its coefficients, then go to
``polyhedron.cones_from_generators``: in a divisorial fan each member is,
coefficient by coefficient, a face of a maximal member, so most of them are
read off the tight rows of a cone already enumerated, with the same keys as
an enumeration of each.
"""

from __future__ import annotations

from fractions import Fraction

from . import complexes, divfan
from .errors import BudgetExceeded, ParseError
from .polyhedron import Polyhedron, cones_from_generators

RANK_CAP = 16


def _rat(x) -> Fraction:
    if isinstance(x, bool):
        raise ParseError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {x!r}") from exc
    raise ParseError(f"not a rational: {x!r}")


def rat_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_vec(v, n, what):
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"{what} must be a length-{n} list")
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError(f"{what} entries must be integers")
        out.append(x)
    return tuple(out)


def _rat_vec(v, n, what):
    if not isinstance(v, list) or len(v) != n:
        raise ParseError(f"{what} must be a length-{n} list")
    return tuple(_rat(x) for x in v)


def _capped_rank(doc, key):
    """doc[key], a positive integer no larger than ``RANK_CAP``."""
    n = doc.get(key)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"{key} must be a positive integer")
    if n > RANK_CAP:
        raise BudgetExceeded(f"{key} {n} exceeds the rank cap of {RANK_CAP}")
    return n


def _field(obj, key, kind, default, what):
    """obj[key] (default when absent), which must be of type ``kind``."""
    v = obj.get(key, default)
    if not isinstance(v, kind):
        raise ParseError(f"{what} must be {'a list' if kind is list else 'an object'}")
    return v


def _member_generators(pd, i, n, points):
    """(tail generators, {label: homogenization cone generators, or None
    for an empty coefficient}) of the member ``pd``, i its index."""
    if not isinstance(pd, dict):
        raise ParseError(f"pdivisors[{i}] must be an object")
    tail = [_int_vec(r, n, f"pdivisors[{i}] tail ray")
            for r in _field(pd, "tail", list, [], f"pdivisors[{i}].tail")]
    coeffs = {}
    for label, body in _field(pd, "coefficients", dict, {},
                              f"pdivisors[{i}].coefficients").items():
        if label not in points:
            raise ParseError(f"pdivisors[{i}] uses unknown point {label!r}")
        if body == "empty":
            coeffs[label] = None
            continue
        if not isinstance(body, dict):
            raise ParseError(f"pdivisors[{i}] coefficient at {label!r} malformed")
        what = f"pdivisors[{i}] coefficient at {label!r}"
        verts = [_rat_vec(v, n, "vertex")
                 for v in _field(body, "vertices", list, [], f"{what} vertices")]
        rays = [_int_vec(r, n, "ray") for r in _field(body, "rays", list, [], f"{what} rays")]
        if not verts:
            raise ParseError(f"{what} has no vertices")
        coeffs[label] = [(1,) + v for v in verts] + [(0,) + r for r in rays]
    return tail, coeffs


def parse_fan_document(doc):
    """FanDocument -> (DivisorialFan, flags dict)."""
    if not isinstance(doc, dict):
        raise ParseError("fan document must be an object")
    if doc.get("schema_version") != "1":
        raise ParseError("unsupported schema_version")
    n = _capped_rank(doc, "lattice_rank")
    curve = _field(doc, "curve", dict, {}, "curve")
    genus = curve.get("genus", 0)
    points = curve.get("points", [])
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 0:
        raise ParseError("curve.genus must be a nonnegative integer")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ParseError("curve.points must be a list of labels")
    try:
        curve_data = divfan.CurveData(genus, tuple(points))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raw, error = [], None
    try:
        for i, pd in enumerate(_field(doc, "pdivisors", list, [], "pdivisors")):
            raw.append(_member_generators(pd, i, n, points))
    except ParseError as exc:
        error = exc
    # a malformed member is reported after the members before it are built
    # and checked, as when each member was built as it was read
    tails = iter(cones_from_generators(n, [tail for tail, _ in raw]))
    hcones = iter(cones_from_generators(
        n + 1, [gens for _, coeffs in raw for gens in coeffs.values() if gens is not None]))
    members = []
    for i, (_, coeffs) in enumerate(raw):
        coeffs = {label: Polyhedron.empty(n) if gens is None else Polyhedron(next(hcones))
                  for label, gens in coeffs.items()}
        try:
            members.append(divfan.PDivisor(next(tails), coeffs))
        except ValueError as exc:
            raise ParseError(f"pdivisors[{i}]: {exc}") from exc
    if error is not None:
        raise error
    if not members:
        raise ParseError("document has no p-divisors")
    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ParseError("flags must be an object")
    return divfan.DivisorialFan(curve_data, members), flags


def serialize_fan_document(s, flags=None):
    """Canonical FanDocument for a divisorial fan (trivial coefficients omitted)."""
    members = []
    for d in sorted(s.pdivisors, key=lambda d: d.key):
        coeffs = {}
        trivial = d.tail.as_polyhedron()
        for label in sorted(d.coefficients):
            poly = d.coefficients[label]
            if poly == trivial:
                continue
            if poly.is_empty:
                coeffs[label] = "empty"
            else:
                coeffs[label] = {
                    "vertices": [[rat_out(x) for x in v] for v in poly.vertices],
                    "rays": [list(r) for r in poly.tail.rays],
                }
        members.append({"tail": [list(r) for r in d.tail.rays], "coefficients": coeffs})
    return {
        "schema_version": "1",
        "lattice_rank": s.ambient_rank,
        "curve": {"genus": s.curve.genus, "points": list(s.curve.marked_points)},
        "pdivisors": members,
        "flags": dict(flags or {"log_terminal": False}),
    }


def parse_complex_document(doc):
    """ComplexDocument -> PolyhedralComplex.  Cells default to cones at 0."""
    if not isinstance(doc, dict):
        raise ParseError("complex document must be an object")
    if doc.get("schema_version") != "1":
        raise ParseError("unsupported schema_version")
    n = _capped_rank(doc, "ambient_rank")
    cells = []
    for i, body in enumerate(_field(doc, "cells", list, [], "cells")):
        if not isinstance(body, dict):
            raise ParseError(f"cells[{i}] must be an object")
        verts = [_rat_vec(v, n, "vertex")
                 for v in _field(body, "vertices", list, [], f"cells[{i}].vertices")]
        rays = [_int_vec(r, n, "ray") for r in _field(body, "rays", list, [], f"cells[{i}].rays")]
        if not verts:
            verts = [tuple(Fraction(0) for _ in range(n))]
        cell = Polyhedron.from_points_rays(n, verts, rays)
        if not cell.tail.is_pointed:
            raise ParseError(f"cells[{i}]: recession cone must be pointed")
        cells.append(cell)
    if not cells:
        raise ParseError("document has no cells")
    return complexes.PolyhedralComplex(n, cells)


def serialize_complex_document(t):
    cells = []
    for c in t.maximal_cells:
        cells.append({
            "vertices": [[rat_out(x) for x in v] for v in c.vertices],
            "rays": [list(r) for r in c.tail.rays],
        })
    return {"schema_version": "1", "ambient_rank": t.ambient_rank, "cells": cells}
