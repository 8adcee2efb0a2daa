import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernel
from conftest import rand_cone, rand_polytope
from tvartop import polyhedron
from tvartop.errors import EmptyInput, RankMismatch
from tvartop.polyhedron import (
    Cone,
    Polyhedron,
    cone_meets_polyhedron,
    dot,
    dual_cone,
    intersect,
    is_face_of,
    minkowski_sum,
    mu,
    normal_fan,
    rays_of_hcone,
    tail_cone,
)


def poly(verts, rays=(), n=1):
    return Polyhedron.from_points_rays(n, verts, rays)


def cone(rays, n=1):
    return Cone.from_generators(n, rays)


# --- tail cone ---------------------------------------------------------

def test_tail_cone_of_segment():
    assert tail_cone(poly([(0,), (1,)])).rays == ()


def test_tail_cone_of_shifted_ray():
    assert tail_cone(poly([(1,)], [(1,)])).rays == ((1,),)


def test_tail_cone_of_sum():
    square = poly([(0, 0), (1, 0), (0, 1), (1, 1)], n=2)
    quad = cone([(1, 0), (0, 1)], n=2).as_polyhedron()
    assert tail_cone(minkowski_sum(square, quad)) == cone([(1, 0), (0, 1)], n=2)


def test_tail_cone_empty_input():
    with pytest.raises(EmptyInput):
        tail_cone(Polyhedron.empty(1))


def test_vertex_irredundancy_at_construction():
    p = poly([(1,), (2,)], [(1,)])
    assert p.vertices == ((F(1),),)


# --- minkowski sum -----------------------------------------------------

def test_minkowski_intervals():
    s = minkowski_sum(poly([(0,), (1,)]), poly([(0,), (1,)]))
    assert s.vertices == ((F(0),), (F(2),))


def test_minkowski_hirzebruch_degree():
    a = poly([(F(-1, 2),)], [(-1,)])
    b = poly([(0,)], [(-1,)])
    s = minkowski_sum(a, b)
    assert s.vertices == ((F(-1, 2),),)
    assert s.tail.rays == ((-1,),)


def test_minkowski_empty_absorbs():
    assert minkowski_sum(Polyhedron.empty(1), poly([(0,)])).is_empty


def test_minkowski_rank_mismatch():
    with pytest.raises(RankMismatch):
        minkowski_sum(poly([(0,)]), poly([(0, 0)], n=2))


def test_minkowski_support_function_additivity():
    rng = random.Random(3)
    for _ in range(25):
        p = rand_polytope(rng, 2)
        q = rand_polytope(rng, 2)
        s = minkowski_sum(p, q)
        for _ in range(6):
            u = (rng.randint(-4, 4), rng.randint(-4, 4))
            mp = min(dot(u, v) for v in p.vertices)
            mq = min(dot(u, v) for v in q.vertices)
            assert min(dot(u, v) for v in s.vertices) == mp + mq


# --- dual cones --------------------------------------------------------

def test_dual_of_halfline():
    assert dual_cone(cone([(1,)])).rays == ((1,),)


def test_dual_of_origin_is_everything():
    assert set(dual_cone(cone([])).rays) == {(1,), (-1,)}


def test_dual_of_plane_cone():
    d = dual_cone(cone([(1, 0), (1, 2)], n=2))
    assert set(d.rays) == {(0, 1), (2, -1)}


def test_double_dual_random():
    rng = random.Random(17)
    for _ in range(100):
        rank = rng.randint(1, 3)
        c = rand_cone(rng, rank)
        assert dual_cone(dual_cone(c)) == c


# --- faces and normal fans ---------------------------------------------

def test_faces_of_segment():
    p = poly([(0,), (1,)])
    descs = p.faces()
    polys = {q.key for q in p.face_polyhedra()}
    assert len(descs) == 3
    assert polys == {poly([(0,)]).key, poly([(1,)]).key, p.key}


def test_faces_of_halfline():
    p = poly([(1,)], [(1,)])
    assert {q.key for q in p.face_polyhedra()} == {poly([(1,)]).key, p.key}


def test_faces_of_slice_segment():
    p = poly([(F(-1, 2),), (0,)])
    keys = {q.key for q in p.face_polyhedra()}
    assert keys == {poly([(F(-1, 2),)]).key, poly([(0,)]).key, p.key}


def test_normal_fan_of_segment():
    p = poly([(0,), (1,)])
    fans = {c.key for c in normal_fan(p)}
    assert fans == {cone([(1,)]).key, cone([(-1,)]).key, cone([]).key}


def test_normal_fan_of_point_is_whole_space():
    p = poly([(0, 0)], n=2)
    fans = normal_fan(p)
    assert len(fans) == 1
    assert not fans[0].is_pointed and fans[0].dim == 2


def test_normal_fan_of_shifted_halfline():
    p = poly([(1,)], [(1,)])
    cones = {c.key for c in normal_fan(p)}
    assert cones == {cone([(1,)]).key, cone([]).key}


def test_face_normal_fan_duality_random():
    rng = random.Random(23)
    for _ in range(20):
        p = rand_polytope(rng, 2)
        faces = p.faces()
        cones = normal_fan(p)
        assert len(faces) == len(cones)
        n = p.ambient_rank
        for f, c in zip(faces, cones):
            assert f.dim + c.dim == n


# --- intersection ------------------------------------------------------

def test_intersect_intervals():
    s = intersect(poly([(0,), (2,)]), poly([(1,), (3,)]))
    assert s.vertices == ((F(1),), (F(2),))


def test_intersect_opposite_rays():
    s = intersect(poly([(0,)], [(1,)]), poly([(0,)], [(-1,)]))
    assert s.vertices == ((F(0),),) and s.tail.rays == ()


def test_intersect_disjoint():
    assert intersect(poly([(0,), (1,)]), poly([(2,), (3,)])).is_empty


def test_intersect_rank_mismatch():
    with pytest.raises(RankMismatch):
        intersect(poly([(0,)]), poly([(0, 0)], n=2))


# --- face relation ------------------------------------------------------

def test_is_face_of_vertex():
    assert is_face_of(poly([(0,)]), poly([(0,), (1,)]))


def test_is_face_of_subsegment_fails():
    assert not is_face_of(poly([(0,), (1,)]), poly([(0,), (2,)]))


def test_is_face_of_apex():
    assert is_face_of(poly([(1,)]), poly([(1,)], [(1,)]))


def test_is_face_of_self():
    p = poly([(0,), (1,)])
    assert is_face_of(p, p)


# --- mu ------------------------------------------------------------------

def test_mu_values():
    assert mu((0,)) == 1
    assert mu((F(-1, 2),)) == 2
    assert mu((F(1, 3), F(1, 2))) == 6


# --- cone meets polyhedron ----------------------------------------------

def test_cone_meets_examples():
    halfline = poly([(1,)], [(1,)])
    assert cone_meets_polyhedron(cone([(1,)]), halfline)
    assert not cone_meets_polyhedron(cone([]), halfline)
    assert cone_meets_polyhedron(cone([(-1,)]), poly([(F(-1, 2),)], [(-1,)]))
    assert not cone_meets_polyhedron(cone([(1,)]), Polyhedron.empty(1))


def _fm_feasible(rows):
    """Fourier-Motzkin feasibility for {x : a0 + <a,x> >= 0} (independent oracle)."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    for col in range(width - 1, 0, -1):
        pos = [r for r in rows if r[col] > 0]
        neg = [r for r in rows if r[col] < 0]
        zero = [r for r in rows if r[col] == 0]
        new = [r[:col] for r in zero]
        for p in pos:
            for q in neg:
                comb = [p[i] * (-q[col]) + q[i] * p[col] for i in range(col)]
                new.append(comb)
        rows = new if new else [[F(0)]]
    return all(r[0] >= 0 for r in rows)


def test_cone_meets_against_fourier_motzkin():
    rng = random.Random(31)
    for _ in range(100):
        rank = rng.randint(1, 2)
        c = rand_cone(rng, rank)
        p = rand_polytope(rng, rank, npts=rng.randint(1, 4))
        got = cone_meets_polyhedron(c, p)
        peq, pin = p.hrep()
        ceq, cin = c.hrep()
        rows = [list(a) for a in pin]
        rows += [list(e) for e in peq] + [[-x for x in e] for e in peq]
        rows += [[F(0)] + list(a) for a in cin]
        rows += [[F(0)] + list(e) for e in ceq]
        rows += [[F(0)] + [-x for x in e] for e in ceq]
        assert got == _fm_feasible(rows)
        # certificate direction: any vertex of p inside c forces contact
        if any(c.contains(v) for v in p.vertices):
            assert got


def test_cone_meets_rank_mismatch():
    with pytest.raises(RankMismatch):
        cone_meets_polyhedron(cone([(1,)]), poly([(0, 0)], n=2))


# --- intersect against the V-path and the union H-rep ----------------------

@st.composite
def _polyhedron_pairs(draw):
    """Two rational polyhedra of one rank <= 3, with rays and some lineality."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    direction = st.lists(st.integers(-2, 2), min_size=n, max_size=n)

    def one():
        pts = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=4))
        rays = draw(st.lists(direction, max_size=3))
        for l in draw(st.lists(direction, max_size=1)):
            rays += [l, [-x for x in l]]
        return Polyhedron.from_points_rays(n, pts, rays)

    return one(), one()


@given(_polyhedron_pairs())
@settings(max_examples=200, deadline=None)
def test_intersect_matches_canonical_rebuild_and_union_hrep(pair):
    p, q = pair
    n = p.ambient_rank
    polyhedron._intersect_cache.clear()
    r = intersect(p, q)
    polyhedron._intersect_cache.clear()
    assert intersect(q, p).key == r.key
    peq, pin = p.hrep()
    qeq, qin = q.hrep()
    rows = list(pin) + list(qin)
    for e in list(peq) + list(qeq):
        rows += [e, tuple(-x for x in e)]
    assert r.is_empty == (not _fm_feasible(rows))
    if r.is_empty:
        return
    if r is not p:
        assert r._hrep is None  # the union H-rep is not stored on the result
    assert Polyhedron.from_points_rays(n, r.vertices, r.tail.rays).key == r.key
    union = Polyhedron._from_hrep_data(n, list(peq) + list(qeq), list(pin) + list(qin))
    assert union.contains_polyhedron(r) and r.contains_polyhedron(union)


# --- integer kernel against the Fraction oracle ----------------------------

def _rows(dim, max_rows):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=max_rows)


@st.composite
def _hcones(draw):
    dim = draw(st.integers(1, 5))
    ineqs = draw(_rows(dim, 7))
    eqs = draw(_rows(dim, 2))
    return ineqs, eqs, dim


@given(_hcones())
@settings(max_examples=300, deadline=None)
def test_rays_of_hcone_matches_fraction_oracle(case):
    ineqs, eqs, dim = case
    got = rays_of_hcone(ineqs, eqs, dim)
    assert got == fraction_kernel.rays_of_hcone(ineqs, eqs, dim)
    lin, rays = got
    assert all(type(x) is int for v in lin + rays for x in v)


def test_rays_of_hcone_oracle_cases_with_lineality_and_equalities():
    cases = [
        ([(1, 0, 0)], [], 3),
        ([(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], 3),
        ([(1, 1, 0), (F(1, 2), -1, 0)], [(1, 1, 1)], 3),
        ([(F(1, 2), 1, 0)], [(1, 1, 1)], 3),
        ([(1, 0, 0, 0), (-1, 0, 0, 0)], [], 4),
        ([], [(1, 2, 3)], 3),
    ]
    with_lineality = 0
    for ineqs, eqs, dim in cases:
        got = rays_of_hcone(ineqs, eqs, dim)
        assert got == fraction_kernel.rays_of_hcone(ineqs, eqs, dim)
        with_lineality += bool(got[0])
    assert with_lineality == 4


def _degenerate_hcones(rng, count, max_points=7):
    """H-cones of cones over random points of {-1,0,1}^n, n <= 3.

    The rows are the facets of the cone over the points plus up to three
    sums of facet pairs, which are redundant and tight wherever both facets
    are; the equalities of a lower-dimensional cone come either as
    equalities or as pairs of opposite inequalities.  Vertex sets of such
    polytopes are far from simple, so many rays share their tight rows.
    """
    for _ in range(count):
        n = rng.randint(1, 3)
        pts = [(1,) + tuple(rng.randint(-1, 1) for _ in range(n))
               for _ in range(rng.randint(1, max_points))]
        eqs, facets = rays_of_hcone(pts, [], n + 1)
        rows = list(facets)
        if len(facets) > 1:
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(facets, 2)
                rows.append(tuple(x + y for x, y in zip(a, b)))
        eqs = list(eqs)
        if eqs and rng.random() < 0.5:
            rows += [r for e in eqs for r in (e, tuple(-x for x in e))]
            eqs = []
        rng.shuffle(rows)
        yield rows, eqs, n + 1


def test_rays_of_hcone_on_degenerate_polytope_cones(monkeypatch):
    # double description decides adjacency by tight sets; these cones have
    # many rays on each face, where a wrong adjacency test adds non-extreme
    # rays or drops extreme ones
    cases = list(_degenerate_hcones(random.Random(20261018), 120))
    cases += [([(1,), (2,)], [], 1), ([(-3,)], [], 1), ([(1,), (-1,)], [], 1)]
    shapes = []
    pointed_rays = polyhedron._pointed_rays

    def spy(mat, d):
        shapes.append((len(mat), d))
        return pointed_rays(mat, d)

    monkeypatch.setattr(polyhedron, "_pointed_rays", spy)
    for ineqs, eqs, dim in cases:
        assert rays_of_hcone(ineqs, eqs, dim) == fraction_kernel.rays_of_hcone(ineqs, eqs, dim)
    assert any(d == 1 for _, d in shapes)
    assert any(m == d >= 3 for m, d in shapes)
    assert any(m - d >= 4 and d == 4 for m, d in shapes)
