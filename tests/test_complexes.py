from fractions import Fraction as F

import pytest

import json

from conftest import perfbench_module
from tvartop import fixtures
from tvartop.complexes import (
    PolyhedralComplex,
    _cone_is_unimodular,
    bouquet_components,
    cayley_fan,
    f_vector,
    find_shelling,
    h_number,
    h_vector,
    is_complete,
    is_simplicial,
    is_smooth,
    verify_shelling,
)
from tvartop.errors import FanInvalid, IndexOutOfRange, SearchBudgetExceeded
from tvartop.polyhedron import Cone, Polyhedron


def poly(verts, rays=(), n=1):
    return Polyhedron.from_points_rays(n, verts, rays)


def fan1():
    return PolyhedralComplex(1, [poly([(0,)], [(1,)]), poly([(0,)], [(-1,)])])


def p2_fan():
    return PolyhedralComplex(2, [
        Cone.from_generators(2, [(1, 0), (0, 1)]).as_polyhedron(),
        Cone.from_generators(2, [(0, 1), (-1, -1)]).as_polyhedron(),
        Cone.from_generators(2, [(-1, -1), (1, 0)]).as_polyhedron(),
    ])


# --- construction ---------------------------------------------------------

def test_invalid_complex_rejected():
    # [0,2] and [1,3] overlap in a segment that is a face of neither
    with pytest.raises(FanInvalid):
        PolyhedralComplex(1, [poly([(0,), (2,)]), poly([(1,), (3,)])])


def test_contained_cells_dropped():
    t = PolyhedralComplex(1, [poly([(0,), (1,)]), poly([(0,)])])
    assert len(t.maximal_cells) == 1


# --- f-vector and h-numbers ------------------------------------------------

def test_f_vector_complete_fan():
    assert f_vector(fan1()) == (1, 2)


def test_f_vector_chain(fix_chain):
    assert f_vector(fix_chain) == (2, 3)


def test_f_vector_p2():
    assert f_vector(p2_fan()) == (1, 3, 3)


def test_h_numbers_complete_fan():
    assert h_vector(fan1()) == (1, 1)


def test_h_numbers_chain(fix_chain):
    assert h_vector(fix_chain) == (1, 2)


def test_h_numbers_p2():
    assert h_vector(p2_fan()) == (1, 1, 1)


def test_h_number_out_of_range(fix_chain):
    with pytest.raises(IndexOutOfRange):
        h_number(fix_chain, 2)


def test_h_sum_equals_top_f_random(random_complete_pool):
    # alternating binomial sums telescope to the top face count
    for t in random_complete_pool[:50]:
        fv = f_vector(t)
        assert sum(h_number(t, k) for k in range(t.ambient_rank + 1)) == fv[-1]


def test_h_numbers_match_toric_betti_on_standard_fans(fan_p1p1, fan_f2):
    # independent oracle: even Betti numbers of a smooth complete toric
    # variety from codimension-indexed cone counts
    from math import comb

    known = {
        "p1": (fan1(), (1, 1)),
        "p2": (p2_fan(), (1, 1, 1)),
        "p1p1": (fan_p1p1, (1, 2, 1)),
        "f2": (fan_f2, (1, 2, 1)),
    }
    for name, (t, betti) in known.items():
        n = t.ambient_rank
        codim_counts = [0] * (n + 1)
        for f in t.faces():
            codim_counts[n - f.dim] += 1
        oracle = tuple(
            sum((-1) ** (i - k) * comb(i, k) * codim_counts[i] for i in range(k, n + 1))
            for k in range(n + 1)
        )
        assert oracle == betti, name
        assert h_vector(t) == betti, name


# --- completeness ----------------------------------------------------------

def test_complete_fan_is_complete():
    assert is_complete(fan1())


def test_chain_is_complete(fix_chain):
    assert is_complete(fix_chain)


def test_single_cell_not_complete():
    assert not is_complete(PolyhedralComplex(1, [poly([(0,), (1,)])]))


# --- simpliciality ----------------------------------------------------------

def test_rank1_always_simplicial(fix_chain):
    assert is_simplicial(fix_chain)
    assert is_simplicial(fan1())


def test_square_cell_not_simplicial():
    sq = PolyhedralComplex(2, [poly([(0, 0), (1, 0), (0, 1), (1, 1)], n=2)])
    assert not is_simplicial(sq)


def test_p2_simplicial():
    assert is_simplicial(p2_fan())


# --- shelling ----------------------------------------------------------------

def test_shelling_of_complete_fan():
    sd = find_shelling(fan1())
    checked = verify_shelling(fan1(), sd.order)
    assert checked is not None
    gs = [g.key for _, g, _ in sd.minimal_new_faces]
    origin = poly([(0,)]).key
    assert gs[0] == origin
    # the second cell contributes itself
    assert gs[1] == fan1().maximal_cells[sd.order[1]].key


def test_shelling_of_chain(fix_chain):
    sd = find_shelling(fix_chain)
    assert verify_shelling(fix_chain, sd.order) is not None
    dims = sorted(g.dim() for _, g, _ in sd.minimal_new_faces)
    assert dims == [0, 0, 1]


def test_shelling_of_p1p1_fan(fan_p1p1):
    sd = find_shelling(fan_p1p1)
    assert verify_shelling(fan_p1p1, sd.order) is not None


def test_bad_order_rejected_by_verifier(fix_chain):
    # starting with the bounded middle segment leaves two minimal new faces
    cells = fix_chain.maximal_cells
    middle = next(i for i, c in enumerate(cells) if not c.tail.rays)
    order = [middle] + [i for i in range(len(cells)) if i != middle]
    assert verify_shelling(fix_chain, order) is None


def test_face_index_is_first_cover(fix_chain):
    sd = find_shelling(fix_chain)
    for face in fix_chain.faces():
        i = sd.face_index[face.key]
        cell = fix_chain.maximal_cells[sd.order[i]]
        assert cell.contains_polyhedron(face.polyhedron)
        for j in range(i):
            other = fix_chain.maximal_cells[sd.order[j]]
            assert not other.contains_polyhedron(face.polyhedron)


def test_shelling_random_complete(random_complete_pool):
    for t in random_complete_pool[:25]:
        if len(t.maximal_cells) > 9:
            continue
        sd = find_shelling(t)
        assert verify_shelling(t, sd.order) is not None


def test_search_budget_exceeded(monkeypatch):
    # 11 segments plus 2 rays: backtracking would be needed if sweeps fail
    verts = [(i,) for i in range(11)]
    cells = [poly([verts[0]], [(-1,)]), poly([verts[-1]], [(1,)])]
    cells += [poly([a, b]) for a, b in zip(verts, verts[1:])]
    t = PolyhedralComplex(1, cells)
    from tvartop import complexes as cx

    monkeypatch.setattr(cx, "_sweep_orders", lambda t, tries: iter(()))
    with pytest.raises(SearchBudgetExceeded):
        find_shelling(t)


# --- cayley fans ---------------------------------------------------------------

def test_cayley_fan_of_point():
    t = PolyhedralComplex(1, [poly([(0,)])])
    cf = cayley_fan(t)
    keys = {c.key for c in cf.cones}
    assert keys == {Cone.from_generators(2, []).key, Cone.from_generators(2, [(0, 1)]).key}


def test_cayley_fan_of_chain_slices_back(fix_chain):
    cf = cayley_fan(fix_chain)
    assert cf.ambient_rank == 2
    assert len(cf.maximal_cones) == 3
    # support projects into the upper half plane
    for c in cf.cones:
        assert all(r[-1] >= 0 for r in c.rays)
    # height-one slice reproduces the complex
    cells = []
    for c in cf.maximal_cones:
        eqs, ineqs = c.hrep()
        heqs = [(F(e[1]), F(e[0])) for e in eqs]
        hineqs = [(F(a[1]), F(a[0])) for a in ineqs]
        cells.append(Polyhedron._from_hrep_data(1, heqs, hineqs))
    assert PolyhedralComplex(1, cells) == fix_chain
    # height-zero slice reproduces the tail fan
    tails = []
    for c in cf.cones:
        eqs, ineqs = c.hrep()
        heqs = [(F(0), F(e[0])) for e in eqs]
        hineqs = [(F(0), F(a[0])) for a in ineqs]
        got = Polyhedron._from_hrep_data(1, heqs, hineqs)
        if not got.is_empty:
            tails.append(got)
    expected_tails = PolyhedralComplex(1, [poly([(0,)], [(1,)]), poly([(0,)], [(-1,)])])
    assert PolyhedralComplex(1, tails) == expected_tails


def test_cayley_fan_of_complete_fan():
    cf = cayley_fan(fan1())
    rays = {r for c in cf.cones for r in c.rays}
    assert rays == {(1, 0), (-1, 0), (0, 1)}


def test_cayley_pairwise_faces(fix_chain):
    from tvartop.polyhedron import intersect, is_face_of

    cf = cayley_fan(fix_chain)
    polys = [c.as_polyhedron() for c in cf.cones]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            common = intersect(polys[i], polys[j])
            assert is_face_of(common, polys[i]) and is_face_of(common, polys[j])


# --- smoothness -----------------------------------------------------------------

def test_chain_smooth(fix_chain):
    assert is_smooth(fix_chain)


def test_shifted_halfline_not_smooth():
    t = PolyhedralComplex(1, [poly([(F(1, 2),)], [(1,)])])
    assert not is_smooth(t)


def test_p2_fan_smooth():
    assert is_smooth(p2_fan())


def test_is_smooth_matches_cayley_fan(random_complete_pool):
    # the maximal cones of the whole Cayley fan, closed under faces
    from tvartop.divfan import slice_at
    from tvartop.io import parse_complex_document

    pool = list(random_complete_pool)
    pool += [fixtures.load_complex(f"{name}.json")
             for name in ("fix_chain", "fan_f2", "fan_p1p1", "fan_p2")]
    pool += [parse_complex_document(json.loads(text))
             for text, _ in perfbench_module("toricgen").stream(14, 6)]
    pool += [slice_at(fixtures.load_fan("fix_quadric.json"), p) for p in ("p1", "p2", "p3")]
    verdicts = []
    for t in pool:
        verdicts.append(is_smooth(t))
        assert verdicts[-1] == all(_cone_is_unimodular(c) for c in cayley_fan(t).maximal_cones)
    assert True in verdicts and False in verdicts


# --- bouquet components -----------------------------------------------------------

def test_components_of_segment():
    t = PolyhedralComplex(1, [poly([(0,), (1,)])])
    comps = bouquet_components(t)
    assert len(comps) == 2
    for _, fanc in comps:
        assert len(fanc.maximal_cells) == 1
        assert len(fanc.maximal_cells[0].tail.rays) == 1


def test_components_of_chain(fix_chain):
    comps = bouquet_components(fix_chain)
    assert len(comps) == 2
    for _, fanc in comps:
        assert is_complete(fanc)
        assert f_vector(fanc) == (1, 2)


def test_components_of_complete_fan():
    comps = bouquet_components(fan1())
    assert len(comps) == 1
    assert comps[0][1] == fan1()
