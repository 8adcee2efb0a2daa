"""Command-line front end: parse fan/complex files, run computations, report.

Documents are JSON; rationals are encoded as integers or "p/q" strings.
Output is canonical (sorted keys, reduced rationals) so identical inputs
give byte-identical reports up to the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import chow, complexes, divfan, invariants, pi1
from .errors import (
    BudgetExceeded,
    NotComplete,
    NotShellable,
    NotSimplicial,
    ParseError,
    SearchBudgetExceeded,
    TvartopError,
)
from .polyhedron import Cone, Polyhedron

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


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


def _rat_out(x: Fraction):
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


def _field(obj, key, kind, default, what):
    """obj[key] (default when absent), which must be of type ``kind``."""
    v = obj.get(key, default)
    if not isinstance(v, kind):
        raise ParseError(f"{what} must be {'a list' if kind is list else 'an object'}")
    return v


def parse_fan_document(doc):
    """FanDocument -> (DivisorialFan, flags dict)."""
    if not isinstance(doc, dict):
        raise ParseError("fan document must be an object")
    if doc.get("schema_version") != "1":
        raise ParseError("unsupported schema_version")
    n = doc.get("lattice_rank")
    if not isinstance(n, int) or n < 1:
        raise ParseError("lattice_rank must be a positive integer")
    curve = _field(doc, "curve", dict, {}, "curve")
    genus = curve.get("genus", 0)
    points = curve.get("points", [])
    if not isinstance(genus, int) or genus < 0:
        raise ParseError("curve.genus must be a nonnegative integer")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ParseError("curve.points must be a list of labels")
    try:
        curve_data = divfan.CurveData(genus, tuple(points))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    members = []
    for i, pd in enumerate(_field(doc, "pdivisors", list, [], "pdivisors")):
        if not isinstance(pd, dict):
            raise ParseError(f"pdivisors[{i}] must be an object")
        tail_rays = _field(pd, "tail", list, [], f"pdivisors[{i}].tail")
        tail = Cone.from_generators(n, [_int_vec(r, n, f"pdivisors[{i}] tail ray")
                                        for r in tail_rays])
        coeffs = {}
        coefficients = _field(pd, "coefficients", dict, {}, f"pdivisors[{i}].coefficients")
        for label, body in coefficients.items():
            if label not in points:
                raise ParseError(f"pdivisors[{i}] uses unknown point {label!r}")
            if body == "empty":
                coeffs[label] = Polyhedron.empty(n)
                continue
            if not isinstance(body, dict):
                raise ParseError(f"pdivisors[{i}] coefficient at {label!r} malformed")
            what = f"pdivisors[{i}] coefficient at {label!r}"
            verts = [_rat_vec(v, n, "vertex")
                     for v in _field(body, "vertices", list, [], f"{what} vertices")]
            rays = [_int_vec(r, n, "ray") for r in _field(body, "rays", list, [], f"{what} rays")]
            if not verts:
                raise ParseError(f"{what} has no vertices")
            coeffs[label] = Polyhedron.from_points_rays(n, verts, rays)
        try:
            members.append(divfan.PDivisor(tail, coeffs))
        except ValueError as exc:
            raise ParseError(f"pdivisors[{i}]: {exc}") from exc
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
        trivial = divfan.trivial_polyhedron(d.tail)
        for label in sorted(d.coefficients):
            poly = d.coefficients[label]
            if poly == trivial:
                continue
            if poly.is_empty:
                coeffs[label] = "empty"
            else:
                coeffs[label] = {
                    "vertices": [[_rat_out(x) for x in v] for v in poly.vertices],
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
    n = doc.get("ambient_rank")
    if not isinstance(n, int) or n < 1:
        raise ParseError("ambient_rank must be a positive integer")
    cells = []
    for i, body in enumerate(_field(doc, "cells", list, [], "cells")):
        if not isinstance(body, dict):
            raise ParseError(f"cells[{i}] must be an object")
        verts = [_rat_vec(v, n, "vertex")
                 for v in _field(body, "vertices", list, [], f"cells[{i}].vertices")]
        rays = [_int_vec(r, n, "ray") for r in _field(body, "rays", list, [], f"cells[{i}].rays")]
        if not verts:
            verts = [tuple(Fraction(0) for _ in range(n))]
        cells.append(Polyhedron.from_points_rays(n, verts, rays))
    if not cells:
        raise ParseError("document has no cells")
    return complexes.PolyhedralComplex(n, cells)


def serialize_complex_document(t):
    cells = []
    for c in t.maximal_cells:
        cells.append({
            "vertices": [[_rat_out(x) for x in v] for v in c.vertices],
            "rays": [list(r) for r in c.tail.rays],
        })
    return {"schema_version": "1", "ambient_rank": t.ambient_rank, "cells": cells}


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (ValueError, UnicodeDecodeError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _report(command, digest, results, warnings, started):
    return {
        "command": command,
        "input_digest": digest,
        "results": results,
        "warnings": list(warnings),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    out.write(f"# {report['command']}\n")
    for key in sorted(report["results"]):
        out.write(f"{key}: {_text_value(report['results'][key])}\n")
    for w in report["warnings"]:
        out.write(f"warning: {w}\n")


def _text_value(v):
    if isinstance(v, list):
        return ", ".join(str(x) for x in v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def cmd_validate(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    report = divfan.validate(fan)
    results = {
        "valid": report.ok,
        "members": len(fan.pdivisors),
        "violations": list(report.issues),
    }
    _emit(_report("validate", digest, results, [], started), args.format, out)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_invariants(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    cls = invariants.grothendieck_class(fan)
    res = invariants.grothendieck_class_resolution(fan)
    check = invariants.consistency_check(fan)
    results = {
        "class": str(cls),
        "class_pairs": cls.as_pairs(),
        "resolution_class": str(res),
        "resolution_class_pairs": res.as_pairs(),
        "betti": list(check.betti),
        "consistency": check.verdict(),
    }
    _emit(_report("invariants", digest, results, check.warnings, started),
          args.format, out)
    return EXIT_OK


def cmd_chow(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, _ = parse_fan_document(doc)
    pres = chow.presentation(fan)
    dmax = args.max_degree if args.max_degree is not None else fan.ambient_rank + 2
    hilbert = chow.hilbert_function(pres, dmax)
    shell = chow.is_shellable_divfan(fan)
    results = {
        "generators": [g.name for g in pres.generators],
        "linear_relations": [[_rat_out(x) for x in row]
                             for row in pres.linear_relations.entries],
        "nonface_count": len(pres.nonface_sets),
        "nonfaces": [[pres.generators[i].name for i in nf] for nf in pres.nonface_sets],
        "hilbert": list(hilbert),
        "shellable": shell.ok,
        "shellability_issues": list(shell.reasons),
    }
    _emit(_report("chow", digest, results, [], started), args.format, out)
    return EXIT_OK


def cmd_pi1(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    fan, flags = parse_fan_document(doc)
    attested = bool(flags.get("log_terminal", False))
    group = pi1.Pi1Description(
        pi1.group_NS(fan, strict=args.strict_nd),
        pi1.pi1_loc(fan),
        attested,
    )
    results = {
        "pi1": group.render(),
        "abelian": {"rank": group.abelian_part.free_rank,
                    "torsion": list(group.abelian_part.torsion)},
        "loc": {"kind": group.loc_part.kind, "rank": group.loc_part.rank},
        "log_terminal_attested": attested,
    }
    _emit(_report("pi1", digest, results, [], started), args.format, out)
    return EXIT_OK


def cmd_bouquet(args, out):
    started = time.perf_counter()
    doc, digest = _load_json(args.path)
    t = parse_complex_document(doc)
    warnings = []
    results = {
        "f_vector": list(complexes.f_vector(t)),
        "h_numbers": list(complexes.h_vector(t)),
        "complete": complexes.is_complete(t),
        "simplicial": complexes.is_simplicial(t),
        "smooth": complexes.is_smooth(t),
        "components": len(complexes.bouquet_components(t)),
    }
    try:
        results["betti"] = list(invariants.bouquet_betti(t))
    except (NotComplete, NotSimplicial) as exc:
        results["betti"] = None
        warnings.append(f"betti unavailable: {exc}")
    try:
        shelling = complexes.find_shelling(t)
        results["shelling_order"] = list(shelling.order)
    except (NotShellable, SearchBudgetExceeded) as exc:
        results["shelling_order"] = None
        warnings.append(f"shelling unavailable: {exc}")
    _emit(_report("bouquet", digest, results, warnings, started), args.format, out)
    return EXIT_OK


def cmd_downgrade(args, out):
    doc, _ = _load_json(args.path)
    t = parse_complex_document(doc)
    fan = divfan.toric_downgrade(t)
    out.write(json.dumps(serialize_fan_document(fan), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvartop",
        description="Invariants of complexity-one torus varieties from divisorial fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("invariants", cmd_invariants)
    add("chow", cmd_chow,
        **{"--max-degree": dict(type=int, default=None, dest="max_degree")})
    add("pi1", cmd_pi1,
        **{"--strict-ND": dict(action="store_true", dest="strict_nd")})
    add("bouquet", cmd_bouquet)
    add("downgrade", cmd_downgrade)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TvartopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
