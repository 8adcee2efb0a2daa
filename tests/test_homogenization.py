"""Cayley and chart cones from the stored homogenization cone, against the
generator lists built vertex by vertex with ``mu(v) * v``.

The references below are the generator loops that ``cayley_cone_of_polyhedron``
and ``chart_smoothness`` ran before they read the generators of
``Polyhedron.hcone``; the new cones must have the same canonical key on every
cell of the fan fixtures' slice complexes, on toric-stream downgrades and on
random rational polyhedra.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import perfbench_module
from test_polyhedron import _polyhedron_pairs
from tvartop import fixtures
from tvartop.complexes import cayley_cone_of_polyhedron
from tvartop.divfan import PDivisor, slice_at, tail_fan, toric_downgrade
from tvartop.invariants import _chart_cone
from tvartop.io import parse_complex_document
from tvartop.polyhedron import Cone, Polyhedron, intersect, mu

FAN_FIXTURES = ("fix_a2", "fix_cstar", "fix_cstar2", "fix_f2", "fix_p1p1", "fix_quadric",
                "fix_torsion")


def reference_cayley_cone(p):
    gens = []
    for v in p.vertices:
        m = mu(v)
        gens.append(tuple(int(x * m) for x in v) + (m,))
    for r in p.tail.rays:
        gens.append(tuple(r) + (0,))
    return Cone.from_generators(p.ambient_rank + 1, gens)


def reference_chart_cone(d):
    n = d.ambient_rank
    special = d.nontrivial_labels()
    gens = []
    heights = {}
    if special:
        heights[special[0]] = 1
    if len(special) == 2:
        heights[special[1]] = -1
    else:
        heights[None] = -1  # trivial coefficient on the opposite side
    for label, h in heights.items():
        poly = d.coefficient(label) if label is not None else d.tail.as_polyhedron()
        for v in poly.vertices:
            m = mu(v)
            gens.append(tuple(int(x * m) for x in v) + (m * h,))
        for r in poly.tail.rays:
            gens.append(tuple(r) + (0,))
    for r in d.tail.rays:
        gens.append(tuple(r) + (0,))
    return Cone.from_generators(n + 1, gens)


def _check_fan(s):
    """Compare on every face of the tail fan and of every slice, and on the
    chart cone of every member that has one; returns the counts checked."""
    complexes_ = [tail_fan(s)] + [slice_at(s, p) for p in s.curve.marked_points
                                  if s.members_with(p)]
    cells = charts = 0
    for t in complexes_:
        for face in t.faces():
            p = face.polyhedron
            assert cayley_cone_of_polyhedron(p).key == reference_cayley_cone(p).key
            cells += 1
    for d in s.pdivisors:
        if d.has_complete_locus() and len(d.nontrivial_labels()) <= 2:
            assert _chart_cone(d).key == reference_chart_cone(d).key
            charts += 1
    return cells, charts


@pytest.mark.parametrize("name", FAN_FIXTURES)
def test_cones_match_mu_reference_on_fan_fixtures(name):
    cells, _ = _check_fan(fixtures.load_fan(f"{name}.json"))
    assert cells > 0


def test_cones_match_mu_reference_on_toric_stream_downgrades():
    charts = 0
    for text, _ in perfbench_module("toricgen").stream(13, 8):
        charts += _check_fan(toric_downgrade(parse_complex_document(json.loads(text))))[1]
    # complete fans: members with coefficients at both heights +1 and -1
    assert charts > 0


def _translate(p, shift):
    return Polyhedron.from_points_rays(
        p.ambient_rank, [(v[0] + shift,) + v[1:] for v in p.vertices], p.tail.rays)


@given(_polyhedron_pairs())
@settings(max_examples=150, deadline=None)
def test_cones_match_mu_reference_on_rational_polyhedra(pair):
    p, q = pair
    for x in (p, q, intersect(p, q)):
        if not x.is_empty:
            assert cayley_cone_of_polyhedron(x).key == reference_cayley_cone(x).key
    if p.tail.is_pointed:
        for coeffs in ({"0": p}, {"0": p, "inf": _translate(p, F(1, 2))}):
            d = PDivisor(p.tail, coeffs)
            assert _chart_cone(d).key == reference_chart_cone(d).key
