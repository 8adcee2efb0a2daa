#!/usr/bin/env python3
"""Regenerate the bundled fixture JSON files from first principles.

Usage: make_fixtures.py [OUTDIR]; OUTDIR defaults to src/tvartop/fixtures.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tvartop.complexes import PolyhedralComplex
from tvartop.divfan import (
    CurveData,
    DivisorialFan,
    PDivisor,
    closure_under_intersection,
    toric_downgrade,
    validate,
)
from tvartop.io import serialize_complex_document, serialize_fan_document
from tvartop.polyhedron import Cone, Polyhedron

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "tvartop" / "fixtures"


def dump(outdir, name, obj):
    path = pathlib.Path(outdir) / name
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print("wrote", path)


def fan2(rayss):
    return PolyhedralComplex(
        2, [Cone.from_generators(2, rs).as_polyhedron() for rs in rayss]
    )


def main(outdir=OUT):
    # complete fans (complex documents): Hirzebruch F2, P1 x P1, P2
    f2_fan = fan2([[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)], [(0, -1), (1, 0)]])
    p1p1_fan = fan2([[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    p2_fan = fan2([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]])
    dump(outdir, "fan_f2.json", serialize_complex_document(f2_fan))
    dump(outdir, "fan_p1p1.json", serialize_complex_document(p1p1_fan))
    dump(outdir, "fan_p2.json", serialize_complex_document(p2_fan))

    # chain complex in Q^1: (-inf,0], [0,1], [1,inf)
    chain = PolyhedralComplex(1, [
        Polyhedron.from_points_rays(1, [(0,)], [(-1,)]),
        Polyhedron.from_points_rays(1, [(0,), (1,)], []),
        Polyhedron.from_points_rays(1, [(1,)], [(1,)]),
    ])
    dump(outdir, "fix_chain.json", serialize_complex_document(chain))

    # affine plane with the diagonal one-torus action
    a2 = DivisorialFan(CurveData(0, ("0",)), [
        PDivisor(Cone.from_generators(1, [(1,)]),
                 {"0": Polyhedron.from_points_rays(1, [(1,)], [(1,)])}),
    ])
    assert validate(a2).ok
    dump(outdir, "fix_a2.json", serialize_fan_document(a2))

    # C* x A^1 and its two-puncture variant
    zero1 = Cone.from_generators(1, [])
    cstar = DivisorialFan(CurveData(0, ("p", "q")), [
        PDivisor(zero1, {"p": Polyhedron.from_points_rays(1, [(0,)], []),
                         "q": Polyhedron.empty(1)}),
    ])
    assert validate(cstar).ok
    dump(outdir, "fix_cstar.json", serialize_fan_document(cstar))
    cstar2 = DivisorialFan(CurveData(0, ("p", "q", "r")), [
        PDivisor(zero1, {"p": Polyhedron.from_points_rays(1, [(0,)], []),
                         "q": Polyhedron.empty(1), "r": Polyhedron.empty(1)}),
    ])
    assert validate(cstar2).ok
    dump(outdir, "fix_cstar2.json", serialize_fan_document(cstar2))

    # two segment coefficients whose difference lattices sum to an index-2 sublattice
    zero2 = Cone.from_generators(2, [])
    d1 = PDivisor(zero2, {"p": Polyhedron.from_points_rays(2, [(0, 0), (1, 1)], []),
                          "q": Polyhedron.empty(2)})
    d2 = PDivisor(zero2, {"p": Polyhedron.from_points_rays(2, [(0, 0), (1, -1)], []),
                          "q": Polyhedron.empty(2)})
    torsion = DivisorialFan(CurveData(0, ("p", "q")),
                            closure_under_intersection([d1, d2]))
    assert validate(torsion).ok
    dump(outdir, "fix_torsion.json", serialize_fan_document(torsion))

    # downgrades
    fix_f2 = toric_downgrade(f2_fan)
    assert validate(fix_f2).ok
    dump(outdir, "fix_f2.json", serialize_fan_document(fix_f2))
    fix_p1p1 = toric_downgrade(p1p1_fan)
    assert validate(fix_p1p1).ok
    dump(outdir, "fix_p1p1.json", serialize_fan_document(fix_p1p1))

    # the four-dimensional quadric under its three-torus action
    def facet_cone(axis, sign):
        gens = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = [0, 0, 0]
                v[axis] = sign
                v[(axis + 1) % 3] = s1
                v[(axis + 2) % 3] = s2
                gens.append(tuple(v))
        return Cone.from_generators(3, gens)

    def unit(axis, s=1):
        v = [0, 0, 0]
        v[axis] = s
        return tuple(v)

    points = ("p1", "p2", "p3")

    def slice_cell(cut_axis, cone_key):
        ax, sign = cone_key
        cone = facet_cone(ax, sign)
        if ax == cut_axis:
            return Polyhedron.from_points_rays(3, [unit(ax, sign)], list(cone.rays))
        return Polyhedron.from_points_rays(
            3, [unit(cut_axis, 1), unit(cut_axis, -1)], list(cone.rays)
        )

    members = []
    for key in [(ax, s) for ax in range(3) for s in (1, -1)]:
        coeffs = {points[cut]: slice_cell(cut, key) for cut in range(3)}
        members.append(PDivisor(facet_cone(*key), coeffs))
    quadric = DivisorialFan(CurveData(0, points), closure_under_intersection(members))
    assert validate(quadric).ok
    dump(outdir, "fix_quadric.json", serialize_fan_document(quadric))


if __name__ == "__main__":
    main(*sys.argv[1:2])
