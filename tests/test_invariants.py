import importlib.util
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_complete_fan
from tvartop.complexes import PolyhedralComplex, f_vector, is_simplicial
from tvartop.divfan import CurveData, DivisorialFan, PDivisor, r0_fan, toric_downgrade
from tvartop.errors import NotComplete, NotSimplicial, ValidationFailed
from tvartop.io import parse_complex_document
from tvartop.invariants import (
    BettiVector,
    EPolynomial,
    betti_numbers,
    bouquet_betti,
    chart_smoothness,
    consistency_check,
    grothendieck_class,
    grothendieck_class_resolution,
)
from tvartop.polyhedron import Cone, Polyhedron

L = EPolynomial.line()


def lpoly(*coeffs):
    """lpoly(c0, c1, ...) = c0 + c1 L + c2 L^2 + ..."""
    return EPolynomial.from_uv_coefficients(coeffs)


# --- EPolynomial --------------------------------------------------------------

def test_curve_classes():
    assert EPolynomial.curve(0) == lpoly(1, 1)
    g2 = EPolynomial.curve(2)
    assert g2.coeffs == {(1, 1): 1, (1, 0): -2, (0, 1): -2, (0, 0): 1}
    assert not g2.is_uv_polynomial()


def test_epoly_strings():
    assert str(lpoly(1, 2, 1)) == "L^2 + 2L + 1"
    assert str(lpoly(0, -1, 1)) == "L^2 - L"
    assert str(EPolynomial()) == "0"


small_epolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5), max_size=4,
).map(EPolynomial)


@given(small_epolys, small_epolys, small_epolys)
@settings(max_examples=50, deadline=None)
def test_epoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


# --- classes of the fixtures ----------------------------------------------------

def test_class_a2(fix_a2):
    assert grothendieck_class(fix_a2) == lpoly(0, 0, 1)


def test_class_f2(fix_f2):
    assert grothendieck_class(fix_f2) == lpoly(1, 2, 1)


def test_class_p1p1(fix_p1p1):
    assert grothendieck_class(fix_p1p1) == lpoly(1, 2, 1)


def test_class_cstar(fix_cstar):
    # C* x A^1
    assert grothendieck_class(fix_cstar) == lpoly(0, -1, 1)


def test_resolution_class_a2(fix_a2):
    # blow-up of the plane at the origin
    assert grothendieck_class_resolution(fix_a2) == lpoly(0, 1, 1)


def test_resolution_class_f2(fix_f2):
    assert grothendieck_class_resolution(fix_f2) == lpoly(1, 3, 1)


def test_resolution_class_p1p1(fix_p1p1):
    assert grothendieck_class_resolution(fix_p1p1) == lpoly(1, 2, 1)


def test_resolution_equals_class_without_contraction(fix_p1p1, fix_cstar):
    for fan in (fix_p1p1, fix_cstar):
        assert grothendieck_class(fan) == grothendieck_class_resolution(fan)


def test_class_requires_valid_fan(fix_f2):
    from tvartop.divfan import pdiv_intersect

    members = list(fix_f2.pdivisors)
    inter_keys = set()
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            k = pdiv_intersect(members[i], members[j]).key
            inter_keys.add(k)
    victim = next(d for d in members if d.key in inter_keys)
    broken = DivisorialFan(fix_f2.curve, [d for d in members if d.key != victim.key])
    with pytest.raises(ValidationFailed):
        grothendieck_class(broken)


def test_euler_characteristic_specialization(fix_f2, fix_p1p1, fix_quadric):
    # E(1,1) is the Euler characteristic.  Poincare duality makes the Betti
    # vector palindromic on the smooth fixtures and on downgrades of
    # simplicial (rationally smooth) fans; a non-simplicial one is exempt.
    rng = random.Random(7)
    tails = [rand_complete_fan(rng, 3) for _ in range(3)]
    cases = [(fan, True) for fan in (fix_f2, fix_p1p1, fix_quadric)]
    cases += [(toric_downgrade(t), is_simplicial(t)) for t in tails]
    for fan, dual in cases:
        betti = list(betti_numbers(fan))
        assert grothendieck_class(fan).evaluate(1, 1) == sum(betti)
        if dual:
            assert betti == betti[::-1]


def test_r0_betti_is_surface_betti_times_line():
    # r0_fan(t) gives X(t) x P^1, and a complete fan of rank 2 with k rays
    # gives a surface with Betti (1, k - 2, 1); times (1, 1) that is
    # (1, k - 1, k - 1, 1), palindromic
    rng = random.Random(31)
    seen = set()
    for _ in range(6):
        t = rand_complete_fan(rng, 2)
        k = len({r for c in t.maximal_cells for r in c.tail.rays})
        betti = consistency_check(r0_fan(t)).betti
        assert betti == (1, k - 1, k - 1, 1)
        seen.add(k)
    assert seen == {4, 6}


def _load_toricgen():
    # the benchmark's generator, loaded by path and left unedited
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "toricgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_toricgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toric_stream_betti_is_palindromic_h_vector():
    # the generator's fans are smooth and complete, so the even Betti
    # numbers of the toric variety and of its downgrade are its h-vector,
    # which Poincare duality makes palindromic; fans alternate between the
    # P^3 and (P^1)^3 starts
    stream = _load_toricgen().stream(5, 4)
    assert len({tuple(h) for _, h in stream}) == 2
    for text, h in stream:
        t = parse_complex_document(json.loads(text))
        report = consistency_check(toric_downgrade(t))
        assert report.certified_smooth
        assert bouquet_betti(t) == tuple(h)
        assert report.betti == tuple(h)
        assert h == h[::-1]


def test_r0_product_law_random():
    # class = (uv + 1) * sum_k f_k (uv - 1)^(n - k) when the support is empty
    rng = random.Random(77)
    fans = [rand_complete_fan(rng, 1) for _ in range(3)]
    fans += [rand_complete_fan(rng, 2) for _ in range(7)]
    for t in fans:
        fan = r0_fan(t)
        got = grothendieck_class(fan)
        fv = f_vector(t)
        n = t.ambient_rank
        expect = EPolynomial()
        for k in range(n + 1):
            expect = expect + fv[k] * (L - 1) ** (n - k)
        expect = (L + 1) * expect
        assert got == expect


# --- smoothness certificate ------------------------------------------------------

def test_chart_smoothness_fixtures(fix_a2, fix_f2, fix_p1p1):
    for fan in (fix_a2, fix_f2, fix_p1p1):
        ok, warnings = chart_smoothness(fan)
        assert ok and not warnings


def test_chart_smoothness_rejects_singular_chart():
    # tail Q>=0 with coefficient vertex 1/2 makes a non-unimodular chart cone
    from fractions import Fraction as F

    tail = Cone.from_generators(1, [(1,)])
    d = PDivisor(tail, {"0": Polyhedron.from_points_rays(1, [(F(1, 2),)], [(1,)]),
                        "inf": Polyhedron.empty(1)})
    fan = DivisorialFan(CurveData(0, ("0", "inf")), [d])
    ok, warnings = chart_smoothness(fan)
    assert not ok and warnings


def test_chart_smoothness_unverified_for_quadric(fix_quadric):
    ok, warnings = chart_smoothness(fix_quadric)
    assert not ok
    assert any("not certified" in w for w in warnings)


# --- Betti numbers ------------------------------------------------------------------

def test_betti_f2(fix_f2):
    assert betti_numbers(fix_f2) == (1, 2, 1)


def test_betti_p1p1(fix_p1p1):
    assert betti_numbers(fix_p1p1) == (1, 2, 1)


def test_betti_r0_fan():
    fan1 = PolyhedralComplex(1, [
        Cone.from_generators(1, [(1,)]).as_polyhedron(),
        Cone.from_generators(1, [(-1,)]).as_polyhedron(),
    ])
    assert betti_numbers(r0_fan(fan1)) == (1, 2, 1)


def test_betti_not_complete(fix_a2, fix_cstar):
    for fan in (fix_a2, fix_cstar):
        with pytest.raises(NotComplete):
            betti_numbers(fan)


def test_betti_warning_preserved_for_uncertified(fix_quadric):
    bv = betti_numbers(fix_quadric)
    assert tuple(bv) == (1, 1, 2, 1, 1)
    assert bv.warnings


# --- bouquet Betti --------------------------------------------------------------------

def test_bouquet_betti_chain(fix_chain):
    assert bouquet_betti(fix_chain) == (1, 2)


def test_bouquet_betti_complete_fans(fan_p2):
    fan1 = PolyhedralComplex(1, [
        Cone.from_generators(1, [(1,)]).as_polyhedron(),
        Cone.from_generators(1, [(-1,)]).as_polyhedron(),
    ])
    assert bouquet_betti(fan1) == (1, 1)
    assert bouquet_betti(fan_p2) == (1, 1, 1)


def _square_with_flaps():
    """Complete rank-2 complex whose bounded cell is the unit square."""
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cells = [Polyhedron.from_points_rays(2, corners, [])]
    sides = [
        ([(0, 0), (1, 0)], (0, -1)),
        ([(0, 1), (1, 1)], (0, 1)),
        ([(0, 0), (0, 1)], (-1, 0)),
        ([(1, 0), (1, 1)], (1, 0)),
    ]
    for pts, ray in sides:
        cells.append(Polyhedron.from_points_rays(2, pts, [ray]))
    quadrants = [
        ((0, 0), [(-1, 0), (0, -1)]),
        ((1, 0), [(1, 0), (0, -1)]),
        ((0, 1), [(-1, 0), (0, 1)]),
        ((1, 1), [(1, 0), (0, 1)]),
    ]
    for pt, rays in quadrants:
        cells.append(Polyhedron.from_points_rays(2, [pt], rays))
    return PolyhedralComplex(2, cells)


def test_bouquet_betti_guards(fix_chain):
    incomplete = PolyhedralComplex(1, [Polyhedron.from_points_rays(1, [(0,), (1,)], [])])
    with pytest.raises(NotComplete):
        bouquet_betti(incomplete)
    squared = _square_with_flaps()
    from tvartop.complexes import is_complete

    assert is_complete(squared)
    with pytest.raises(NotSimplicial):
        bouquet_betti(squared)


def test_bouquet_betti_sum_is_top_face_count(random_complete_pool):
    for t in random_complete_pool:
        if not is_simplicial(t):
            continue
        bv = bouquet_betti(t)
        assert bv[0] >= 1
        assert sum(bv) == f_vector(t)[-1]


# --- consistency -------------------------------------------------------------------------

def test_consistency_fixtures(fix_f2, fix_p1p1):
    for fan in (fix_f2, fix_p1p1):
        rep = consistency_check(fan)
        assert rep.verdict() == "PASS"
        assert rep.odd_vanish and rep.values_agree and rep.certified_smooth


def test_consistency_quadric_unverified(fix_quadric):
    rep = consistency_check(fix_quadric)
    assert rep.verdict() == "UNVERIFIED"
    assert rep.values_agree and not rep.certified_smooth


def test_consistency_detects_broken_convention(fix_f2, monkeypatch):
    # mutate the vertical multiplicities: Betti formula inputs unchanged but
    # the class recomputed with a wrong face-count convention must mismatch
    import tvartop.invariants as inv

    real = inv.grothendieck_class
    monkeypatch.setattr(inv, "grothendieck_class",
                        lambda s: real(s) + EPolynomial.line())
    rep = inv.consistency_check(fix_f2)
    assert rep.verdict() == "FAIL"
    assert not rep.values_agree
