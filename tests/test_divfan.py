import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_complete_fan
from pairwise_validate import validate as pairwise_validate
from tvartop import fixtures
from tvartop.complexes import PolyhedralComplex, f_vector, is_complete
from tvartop.divfan import (
    GENERIC,
    CurveData,
    DivisorialFan,
    PDivisor,
    _face_signatures,
    _signature_meet,
    closure_under_intersection,
    contracted_partition,
    degree,
    evaluate,
    excluded_points,
    is_pdivisor,
    loci,
    pdiv_intersect,
    r0_fan,
    slice_at,
    slice_support,
    tail_fan,
    toric_downgrade,
    validate,
)
from tvartop.errors import (
    EmptyCoefficient,
    FanInvalid,
    GenusNotZero,
    NotComplete,
    NotInDualCone,
    PointNotCovered,
)
from tvartop.polyhedron import Cone, Polyhedron, intersect, is_face_of


def poly(verts, rays=(), n=1):
    return Polyhedron.from_points_rays(n, verts, rays)


# --- evaluation -------------------------------------------------------------

def test_evaluate_a2(fix_a2):
    d = fix_a2.pdivisors[0]
    assert evaluate(d, (1,)) == {"0": F(1)}
    assert evaluate(d, (0,)) == {"0": F(0)}


def test_evaluate_f2_complete_member(fix_f2):
    d = next(m for m in fix_f2.pdivisors if m.has_complete_locus())
    assert evaluate(d, (-1,), points=("0", "inf")) == {"0": F(1, 2), "inf": F(0)}


def test_evaluate_not_in_dual_cone(fix_a2):
    with pytest.raises(NotInDualCone):
        evaluate(fix_a2.pdivisors[0], (-1,))


def test_evaluate_empty_coefficient(fix_cstar):
    d = fix_cstar.pdivisors[0]
    assert evaluate(d, (0,), points=("p", "q")) == {"p": F(0)}
    with pytest.raises(EmptyCoefficient):
        evaluate(d, (0,), points=("q",), on_locus=False)


def test_a2_graded_dimension_oracle(fix_a2):
    # sections of the evaluated divisor count like homogeneous polynomials
    d = fix_a2.pdivisors[0]
    for m in range(7):
        vals = evaluate(d, (m,), points=fix_a2.curve.marked_points)
        deg = sum(vals.values())
        assert deg == m
        assert int(deg) + 1 == m + 1


# --- degree -------------------------------------------------------------------

def test_degree_a2(fix_a2):
    deg = degree(fix_a2.pdivisors[0])
    assert deg.vertices == ((F(1),),) and deg.tail.rays == ((1,),)


def test_degree_f2(fix_f2):
    d = next(m for m in fix_f2.pdivisors if m.has_complete_locus())
    deg = degree(d)
    assert deg.vertices == ((F(-1, 2),),) and deg.tail.rays == ((-1,),)


def test_degree_empty_for_affine_locus(fix_cstar):
    assert degree(fix_cstar.pdivisors[0]).is_empty


def test_degree_trivial_when_no_support():
    d = PDivisor(Cone.from_generators(1, [(1,)]), {})
    deg = degree(d)
    assert deg.vertices == ((F(0),),) and deg.tail.rays == ((1,),)


def test_degree_and_contracted_partition_are_computed_once(monkeypatch):
    from tvartop import divfan, fixtures

    fan = fixtures.load_fan("fix_quadric.json")
    counts = {"minkowski_sum": 0, "_contracted_tail_keys": 0}
    for name in counts:
        real = getattr(divfan, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(divfan, name, counted)
    d = next(m for m in fan.pdivisors if m.has_complete_locus())
    assert len(d.nontrivial_labels()) == 3
    assert degree(d) is degree(d)
    assert counts["minkowski_sum"] == 2
    assert contracted_partition(fan) is contracted_partition(fan)
    assert counts["_contracted_tail_keys"] == 1


# --- p-divisor test -------------------------------------------------------------

def test_is_pdivisor_a2(fix_a2):
    assert is_pdivisor(fix_a2.pdivisors[0], fix_a2.curve).ok


def test_is_pdivisor_degree_outside_tail():
    tail = Cone.from_generators(1, [(1,)])
    d = PDivisor(tail, {"0": poly([(-1,)], [(1,)])})
    rep = is_pdivisor(d, CurveData(0, ("0",)))
    assert not rep.ok and any("tail cone" in r for r in rep.reasons)


def test_is_pdivisor_origin_in_degree():
    d = PDivisor(Cone.from_generators(1, []), {"0": poly([(0,)])})
    rep = is_pdivisor(d, CurveData(0, ("0",)))
    assert not rep.ok and any("bigness" in r for r in rep.reasons)


def test_is_pdivisor_genus_guard():
    d = PDivisor(Cone.from_generators(1, [(1,)]), {"0": poly([(1,)], [(1,)])})
    with pytest.raises(GenusNotZero):
        is_pdivisor(d, CurveData(1, ("0",)))
    # affine locus accepted in any genus
    dd = PDivisor(Cone.from_generators(1, [(1,)]), {"0": Polyhedron.empty(1)})
    assert is_pdivisor(dd, CurveData(1, ("0",))).ok


# --- loci -------------------------------------------------------------------------

def test_loci_a2(fix_a2):
    rep = loci(fix_a2.pdivisors[0], fix_a2.curve)
    assert rep.excluded == () and rep.supp == ("0",)
    assert rep.loc == "P1" and rep.triv == "P1 minus {0}"


def test_loci_cstar(fix_cstar):
    rep = loci(fix_cstar.pdivisors[0], fix_cstar.curve)
    assert rep.excluded == ("q",) and rep.supp == ()
    assert rep.loc == "P1 minus {q}" and rep.triv == "P1 minus {q}"


def test_loci_p1p1(fix_p1p1):
    rep = loci(fix_p1p1, fix_p1p1.curve)
    assert rep.excluded == () and rep.supp == ()
    assert rep.loc == "P1" and rep.triv == "P1"


# --- slices ------------------------------------------------------------------------

def test_slice_f2_at_zero(fix_f2):
    s0 = slice_at(fix_f2, "0")
    keys = {c.key for c in s0.maximal_cells}
    assert keys == {
        poly([(F(-1, 2),)], [(-1,)]).key,
        poly([(F(-1, 2),), (0,)]).key,
        poly([(0,)], [(1,)]).key,
    }


def test_slice_f2_at_inf_is_trivial(fix_f2):
    assert slice_at(fix_f2, "inf") == tail_fan(fix_f2)


def test_slice_generic_is_tail_fan(fix_p1p1, fix_f2, fix_a2):
    for fan in (fix_p1p1, fix_f2, fix_a2):
        assert slice_at(fan, GENERIC) == tail_fan(fan)


def test_slice_point_not_covered(fix_cstar):
    with pytest.raises(PointNotCovered):
        slice_at(fix_cstar, "q")


def test_slice_unknown_label(fix_a2):
    with pytest.raises(KeyError):
        slice_at(fix_a2, "nope")


def test_tail_fans(fix_a2, fix_f2, fix_p1p1):
    assert f_vector(tail_fan(fix_a2)) == (1, 1)
    assert is_complete(tail_fan(fix_f2))
    assert is_complete(tail_fan(fix_p1p1))


def test_slice_support_convention(fix_a2, fix_f2, fix_p1p1, fix_cstar):
    assert slice_support(fix_a2) == ("0",)
    assert slice_support(fix_f2) == ("0",)   # trivial slice at inf not counted
    assert slice_support(fix_p1p1) == ()
    assert slice_support(fix_cstar) == ()
    assert excluded_points(fix_cstar) == ("q",)


# --- contracted partition -------------------------------------------------------------

def test_contracted_a2(fix_a2):
    tail_part, slices = contracted_partition(fix_a2)
    assert [f.polyhedron.tail.rays for f in tail_part.contracted] == [((1,),)]
    assert [f.polyhedron.tail.rays for f in tail_part.noncontracted] == [()]
    s0 = slices["0"]
    assert [f.polyhedron.key for f in s0.contracted] == [poly([(1,)], [(1,)]).key]
    assert [f.polyhedron.key for f in s0.noncontracted] == [poly([(1,)]).key]


def test_contracted_f2(fix_f2):
    tail_part, slices = contracted_partition(fix_f2)
    assert {f.polyhedron.tail.rays for f in tail_part.contracted} == {((-1,),)}
    s0 = slices["0"]
    contracted_keys = {f.polyhedron.key for f in s0.contracted}
    assert contracted_keys == {poly([(F(-1, 2),)], [(-1,)]).key}


def test_contracted_p1p1_empty(fix_p1p1):
    tail_part, slices = contracted_partition(fix_p1p1)
    assert tail_part.contracted == []
    assert all(part.contracted == [] for part in slices.values())


def test_slice_face_contracted_iff_tail_contracted(fix_a2, fix_f2, fix_quadric):
    for fan in (fix_a2, fix_f2, fix_quadric):
        tail_part, slices = contracted_partition(fan)
        ckeys = {f.polyhedron.tail.key for f in tail_part.contracted}
        nkeys = {f.polyhedron.tail.key for f in tail_part.noncontracted}
        for part in slices.values():
            assert all(f.polyhedron.tail.key in ckeys for f in part.contracted)
            assert all(f.polyhedron.tail.key in nkeys for f in part.noncontracted)


# --- toric downgrade -------------------------------------------------------------------

def test_downgrade_p1p1(fan_p1p1, fix_p1p1):
    got = toric_downgrade(fan_p1p1)
    assert sorted(d.key for d in got.pdivisors) == sorted(d.key for d in fix_p1p1.pdivisors)
    assert slice_support(got) == ()


def test_downgrade_f2(fan_f2, fix_f2):
    got = toric_downgrade(fan_f2)
    assert sorted(d.key for d in got.pdivisors) == sorted(d.key for d in fix_f2.pdivisors)
    s0 = slice_at(got, "0")
    assert {c.key for c in s0.maximal_cells} == {
        poly([(F(-1, 2),)], [(-1,)]).key,
        poly([(F(-1, 2),), (0,)]).key,
        poly([(0,)], [(1,)]).key,
    }


def test_downgrade_trivially_fibered_charts(fix_p1p1):
    # the zero-tail members are the charts of a trivial fibration: affine
    # loci, trivial or empty coefficients only
    members = [d for d in fix_p1p1.pdivisors if d.tail.rays == ()]
    assert members
    for d in members:
        assert not d.has_complete_locus()
        assert d.nontrivial_labels() == []


def test_downgrade_point_times_line_incomplete():
    from tvartop.divfan import product_with_line

    prod = product_with_line(PolyhedralComplex(1, [poly([(0,)])]))
    with pytest.raises(NotComplete):
        toric_downgrade(prod)


def test_downgrade_not_complete():
    t = PolyhedralComplex(2, [Cone.from_generators(2, [(1, 0), (0, 1)]).as_polyhedron()])
    with pytest.raises(NotComplete):
        toric_downgrade(t)


def test_downgrade_round_trip_cayley(fan_p1p1, fan_f2):
    # the Cayley fan of the generic slice matches the input cones at heights 0/1
    from tvartop.complexes import cayley_fan

    for fan3 in (fan_p1p1, fan_f2):
        dd = toric_downgrade(fan3)
        tf = tail_fan(dd)
        cf = cayley_fan(tf)
        input_rays = {r for c in fan3.maximal_cells for r in c.tail.rays}
        height0 = {r for c in cf.cones for r in c.rays if r[-1] == 0}
        assert height0 <= {(r[0], 0) for r in input_rays} | set()


# --- validation ------------------------------------------------------------------------

def test_validate_fixtures(fix_a2, fix_f2, fix_p1p1, fix_cstar, fix_torsion, fix_quadric):
    for fan in (fix_a2, fix_f2, fix_p1p1, fix_cstar, fix_torsion, fix_quadric):
        assert validate(fan).ok


def _moved_vertex(rng, fan):
    """Move one coefficient vertex of one member by a unit or half step, then
    close the members under intersection again; None when that fails."""
    members = list(fan.pdivisors)
    i = rng.randrange(len(members))
    d = members[i]
    labels = [l for l, c in sorted(d.coefficients.items()) if not c.is_empty]
    if not labels:
        return None
    label = rng.choice(labels)
    c = d.coefficients[label]
    verts = list(c.vertices)
    k = rng.randrange(len(verts))
    step = [F(0)] * fan.ambient_rank
    step[rng.randrange(fan.ambient_rank)] = F(rng.choice((-1, 1)), rng.choice((1, 2)))
    verts[k] = tuple(a + b for a, b in zip(verts[k], step))
    members[i] = PDivisor(d.tail, {**d.coefficients,
                                   label: Polyhedron.from_points_rays(
                                       fan.ambient_rank, verts, c.tail.rays)})
    try:
        return DivisorialFan(fan.curve, closure_under_intersection(members, max_rounds=4))
    except FanInvalid:
        return None


def test_validate_matches_pairwise_oracle():
    """Same verdict as the pairwise check on the fixtures, on seeded
    downgrade and r0 fans with and without one member, and on closed
    mutants; the mutants include fans that fail only the face condition."""
    rng = random.Random(7)
    names = ("fix_a2.json", "fix_cstar.json", "fix_cstar2.json", "fix_f2.json",
             "fix_p1p1.json", "fix_torsion.json")
    bases = [fixtures.load_fan(name) for name in names]
    seeded = [toric_downgrade(rand_complete_fan(rng, 3, pairs=3, bound=2)),
              r0_fan(rand_complete_fan(rng, 2))]
    cases = bases + seeded
    for fan in seeded:
        members = list(fan.pdivisors)
        del members[rng.randrange(len(members))]
        cases.append(DivisorialFan(fan.curve, members))
    for fan in bases + seeded:
        cases += [m for m in (_moved_vertex(rng, fan) for _ in range(4)) if m is not None]
    face_only = 0
    for fan in cases:
        # each check gets its own fan object, so no cached slice or report is shared
        old = pairwise_validate(DivisorialFan(fan.curve, fan.pdivisors))
        new = validate(DivisorialFan(fan.curve, fan.pdivisors))
        assert old.ok == new.ok, (old, new)
        assert _closure_issues(old) == _closure_issues(new), (old, new)
        face_only += not old.ok and all("meet in a common face" in i for i in old.issues)
    assert face_only >= 1


def _closure_issues(report):
    return [i for i in report.issues if "(closure)" in i]


def test_closure_of_a_valid_fan_needs_no_intersection(monkeypatch):
    """Closure of a fan whose slices pass the face check is read off the face
    lattices; a fan that fails only the face condition takes the exact path."""
    from tvartop import divfan

    mutant = _moved_vertex(random.Random(1), fixtures.load_fan("fix_f2.json"))
    oracle = pairwise_validate(DivisorialFan(mutant.curve, mutant.pdivisors))
    assert not oracle.ok and all("meet in a common face" in i for i in oracle.issues)
    calls = []

    def counted(a, b, _real=divfan.pdiv_intersect):
        calls.append(1)
        return _real(a, b)

    monkeypatch.setattr(divfan, "pdiv_intersect", counted)
    assert validate(fixtures.load_fan("fix_quadric.json")).ok
    assert len(calls) == 0
    report = validate(mutant)
    assert not report.ok and len(calls) >= 1
    assert _closure_issues(report) == _closure_issues(oracle)


@st.composite
def _two_faces_of_pointed_polyhedra(draw):
    """A pointed polyhedron of rank <= 3 and two of its faces."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    pts = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=5))
    directions = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                               max_size=3))
    # directions with a positive coordinate sum span a pointed cone
    p = Polyhedron.from_points_rays(n, pts, [r for r in directions if sum(r) > 0])
    faces = p.faces()
    pick = st.sampled_from(faces)
    return p, draw(pick), draw(pick)


@given(_two_faces_of_pointed_polyhedra())
@settings(max_examples=200, deadline=None)
def test_face_meet_matches_intersect(case):
    p, f, g = case
    pairs = [(f, g)]
    vertices = [x for x in p.faces() if x.dim == 0]
    if len(vertices) > 1:
        pairs.append((vertices[0], vertices[-1]))  # distinct vertices: an empty meet
    for f, g in pairs:
        a, b = p.face_polyhedron(f), p.face_polyhedron(g)
        da, db = PDivisor(a.tail, {"p": a}), PDivisor(b.tail, {"p": b})
        exact = intersect(a, b)
        # an empty exact meet has the zero tail: only its coefficient compares
        x = PDivisor(exact.tail, {"p": exact})
        sig_a, sig_b, sig_x, sig_ab = _face_signatures([da, db, x, pdiv_intersect(da, db)], ("p",))
        meet = _signature_meet(sig_a, sig_b)
        assert meet == sig_ab
        assert meet[1] == sig_x[1] and (exact.is_empty or meet[0] == sig_x[0])


def test_coefficient_at_unmarked_label_is_rejected():
    # the pairwise check saw such a label, the slices of the curve do not
    zero = Cone.from_generators(1, [])
    d = PDivisor(zero, {"x": poly([(0,), (2,)]), "y": Polyhedron.empty(1)})
    with pytest.raises(ValueError, match="not a marked point"):
        DivisorialFan(CurveData(0, ("y",)), [d])


def test_validate_closure_violation(fix_f2):
    # drop a member that arises as an intersection of two others
    keys_needed = set()
    members = list(fix_f2.pdivisors)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            k = pdiv_intersect(members[i], members[j]).key
            if k != members[i].key and k != members[j].key:
                keys_needed.add(k)
    victim = next(d for d in members if d.key in keys_needed)
    smaller = DivisorialFan(fix_f2.curve, [d for d in members if d.key != victim.key])
    rep = validate(smaller)
    assert not rep.ok
    assert any("closure" in issue for issue in rep.issues)


def test_validate_reports_bad_member():
    tail = Cone.from_generators(1, [(1,)])
    bad = PDivisor(tail, {"0": poly([(-1,)], [(1,)])})
    fan = DivisorialFan(CurveData(0, ("0",)), [bad])
    rep = validate(fan)
    assert not rep.ok and any("not a p-divisor" in i for i in rep.issues)


def test_pdiv_intersect_coefficientwise(fix_f2):
    a = next(d for d in fix_f2.pdivisors if d.tail.rays == ((1,),) and not d.coefficient("0").is_empty)
    b = next(d for d in fix_f2.pdivisors if d.tail.rays == ((-1,),))
    c = pdiv_intersect(a, b)
    assert c.tail.rays == ()
    for label in ("0", "inf"):
        assert is_face_of(c.coefficient(label), a.coefficient(label)) or c.coefficient(label).is_empty


def test_degree_of_intersection_inside_intersection_of_degrees(fix_f2, fix_quadric):
    from tvartop.polyhedron import intersect

    for fan in (fix_f2, fix_quadric):
        members = list(fan.pdivisors)[:6]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                c = pdiv_intersect(members[i], members[j])
                dc = degree(c)
                if dc.is_empty:
                    continue
                both = intersect(degree(members[i]), degree(members[j]))
                assert both.contains_polyhedron(dc)


def test_closure_under_intersection_fixture():
    zero2 = Cone.from_generators(2, [])
    d1 = PDivisor(zero2, {"p": poly([(0, 0), (1, 1)], n=2), "q": Polyhedron.empty(2)})
    d2 = PDivisor(zero2, {"p": poly([(0, 0), (1, -1)], n=2), "q": Polyhedron.empty(2)})
    closed = closure_under_intersection([d1, d2])
    assert len(closed) == 3
    fan = DivisorialFan(CurveData(0, ("p", "q")), closed)
    assert validate(fan).ok


# --- r = 0 fans --------------------------------------------------------------------------

def test_r0_fan_matches_p1p1(fix_p1p1):
    fan1 = PolyhedralComplex(1, [
        Cone.from_generators(1, [(1,)]).as_polyhedron(),
        Cone.from_generators(1, [(-1,)]).as_polyhedron(),
    ])
    got = r0_fan(fan1)
    assert sorted(d.key for d in got.pdivisors) == sorted(d.key for d in fix_p1p1.pdivisors)


def test_r0_fan_random():
    rng = random.Random(12)
    t = rand_complete_fan(rng, 2)
    fan = r0_fan(t)
    assert validate(fan).ok
    assert slice_support(fan) == ()
    assert tail_fan(fan) == t
