import json
import random
from fractions import Fraction as F

import pytest

import fraction_kernel
from conftest import perfbench_module, rand_complete_fan

from tvartop.chow import (
    hilbert_function,
    is_shellable_divfan,
    presentation,
    product_in_quotient,
    specialization_matrix,
)
from tvartop import fixtures
from tvartop.chow import GENERATOR_CAP
from tvartop.divfan import CurveData, DivisorialFan, PDivisor, r0_fan, toric_downgrade
from tvartop.errors import BudgetExceeded, GenusNotZero
from tvartop.invariants import grothendieck_class_resolution
from tvartop.io import parse_complex_document
from tvartop.polyhedron import Cone, Polyhedron, mu


def _row_strs(matrix):
    return [[str(x) for x in row] for row in matrix]


# --- presentation -----------------------------------------------------------

def test_presentation_p1p1(fix_p1p1):
    pres = presentation(fix_p1p1)
    names = [g.name for g in pres.generators]
    assert names == ["D[-1]", "D[1]", "D[g1;0]", "D[g2;0]"]
    assert _row_strs(pres.linear_relations) == [
        ["-1", "1", "0", "0"],
        ["0", "0", "-1", "1"],
    ]
    assert pres.nonface_sets == ((0, 1), (2, 3))


def test_presentation_f2(fix_f2):
    pres = presentation(fix_f2)
    names = [g.name for g in pres.generators]
    assert names == ["D[-1]", "D[1]", "D[0;-1/2]", "D[0;0]", "D[g1;0]", "D[g2;0]"]
    b, a, s, t, u, u2 = range(6)
    rows = _row_strs(pres.linear_relations)
    # div(chi^1) = a - b - s, with mu(-1/2) <.,1> = -1
    assert rows[0] == ["-1", "1", "-1", "0", "0", "0"]
    # order-one function at the supporting point: 2s + t - u
    assert rows[1] == ["0", "0", "2", "1", "-1", "0"]
    # second generic point: u' - u
    assert rows[2] == ["0", "0", "0", "0", "-1", "1"]
    expected_nonfaces = {
        (b, a), (b, t), (a, s), (s, u), (s, u2), (t, u), (t, u2), (u, u2),
    }
    assert {tuple(sorted(nf)) for nf in pres.nonface_sets} == {
        tuple(sorted(nf)) for nf in expected_nonfaces
    }


def test_presentation_requires_genus_zero(fix_p1p1):
    fan = DivisorialFan(CurveData(1, fix_p1p1.curve.marked_points),
                        fix_p1p1.pdivisors)
    with pytest.raises(GenusNotZero):
        presentation(fan)


def test_presentation_generic_labels_avoid_collision():
    tail = Cone.from_generators(1, [(1,)])
    d = PDivisor(tail, {"g1": Polyhedron.from_points_rays(1, [(1,)], [(1,)])})
    fan = DivisorialFan(CurveData(0, ("g1",)), [d])
    pres = presentation(fan)
    assert pres.generic_points[0] not in fan.curve.marked_points


# --- hilbert function ----------------------------------------------------------

def test_hilbert_p1p1(fix_p1p1):
    assert hilbert_function(fix_p1p1, 3) == (1, 2, 1, 0)


def test_hilbert_f2(fix_f2):
    assert hilbert_function(fix_f2, 3) == (1, 3, 1, 0)


def test_hilbert_degree_zero_is_one(fix_f2, fix_p1p1):
    for fan in (fix_f2, fix_p1p1):
        assert hilbert_function(fan, 0) == (1,)


def test_hilbert_stops_at_first_zero_degree(fix_torsion):
    # generated in degree 1: R_2 = 0 forces R_3 = R_4 = 0 without elimination
    pres = presentation(fix_torsion)
    assert hilbert_function(pres, 4) == (1, 1, 0, 0, 0)
    assert max(pres._quotients) == 2


def test_hilbert_budget_generators():
    # synthetic presentation with 17 generators trips the cap
    tail = Cone.from_generators(1, [(1,)])
    d = PDivisor(tail, {"0": Polyhedron.from_points_rays(1, [(1,)], [(1,)])})
    fan = DivisorialFan(CurveData(0, ("0",)), [d])
    pres = presentation(fan)
    from tvartop.chow import ChowPresentation, Generator

    fat = ChowPresentation(
        fan,
        list(pres.generators) + [
            Generator("vertical", point=f"x{i}", vertex=(0,)) for i in range(17)
        ][: 17 - len(pres.generators)],
        pres.linear_relations,
        pres.nonface_sets,
        pres.generic_points,
        pres.supp,
    )
    assert len(fat.generators) == 17
    with pytest.raises(BudgetExceeded):
        hilbert_function(fat, 1)


def test_hilbert_budget_degree(fix_p1p1):
    with pytest.raises(BudgetExceeded):
        hilbert_function(fix_p1p1, fix_p1p1.ambient_rank + 3)


def test_hilbert_matches_resolution_class(fix_f2, fix_p1p1):
    # graded dimensions match the uv-coefficients of the toroidal class,
    # top degree first
    for fan in (fix_f2, fix_p1p1):
        n = fan.ambient_rank
        hilb = hilbert_function(fan, n + 1)
        coeffs = grothendieck_class_resolution(fan).uv_coefficients()
        padded = tuple(coeffs) + (0,) * (n + 2 - len(coeffs))
        for d in range(n + 2):
            assert hilb[d] == padded[n + 1 - d]


def test_hilbert_symmetry(fix_f2, fix_p1p1):
    for fan in (fix_f2, fix_p1p1):
        n = fan.ambient_rank
        hilb = hilbert_function(fan, n + 1)
        for d in range(n + 2):
            assert hilb[d] == hilb[n + 1 - d]


def _reference_hilbert(pres, dmax):
    out = []
    for d in range(dmax + 1):
        _, _, basis = fraction_kernel._quotient(pres, d)
        out.append(len(basis))
        if not basis:
            break
    return tuple(out) + (0,) * (dmax + 1 - len(out))


def _reference_product(pres, monomial):
    monos, rref_, basis = fraction_kernel._quotient(pres, len(monomial))
    mono_id = {mo: i for i, mo in enumerate(monos)}
    vec = rref_.reduce({mono_id[monomial]: F(1)})
    return {monos[i]: v for i, v in vec.items()}, [monos[i] for i in basis]


_CHOW_INPUTS = ["fix_a2", "fix_cstar", "fix_cstar2", "fix_torsion", "fix_f2", "fix_p1p1",
                "fix_quadric", *(f"toric-stream-{k}" for k in range(6)),
                *(f"r0-{k}" for k in range(4))]


def _chow_input(name):
    """A valid fan fixture, a toric-stream downgrade (seed 5) or an r0 fan."""
    kind, _, k = name.rpartition("-")
    if kind == "toric-stream":
        text, _ = perfbench_module("toricgen").stream(5, int(k) + 1)[int(k)]
        return toric_downgrade(parse_complex_document(json.loads(text)))
    if kind == "r0":
        rng = random.Random(4077 + int(k))
        return r0_fan(rand_complete_fan(rng, 2, pairs=2))
    return fixtures.load_fan(f"{name}.json")


@pytest.mark.parametrize("name", _CHOW_INPUTS)
def test_integer_elimination_matches_fraction_reference(name):
    fan = _chow_input(name)
    # the reference caches in pres._quotients: it gets a presentation of its own
    pres, ref = presentation(fan), presentation(fan)
    m = len(pres.generators)
    assert m <= GENERATOR_CAP
    dmax = fan.ambient_rank + 1
    assert hilbert_function(pres, dmax) == _reference_hilbert(ref, dmax)
    for i in range(m):
        for j in range(i, m):
            assert product_in_quotient(pres, [[i], [j]]) == _reference_product(ref, (i, j))


# --- products ---------------------------------------------------------------------

def test_products_p1p1(fix_p1p1):
    pres = presentation(fix_p1p1)
    a = pres.generator_index("horizontal", ray=(1,))
    b = pres.generator_index("horizontal", ray=(-1,))
    g1, g2 = pres.generic_points
    t = pres.generator_index("vertical", point=g1)
    t2 = pres.generator_index("vertical", point=g2)
    at, _ = product_in_quotient(pres, [[a], [t]])
    assert len(at) == 1 and all(v != 0 for v in at.values())
    assert product_in_quotient(pres, [[a], [b]])[0] == {}
    assert product_in_quotient(pres, [[t], [t2]])[0] == {}


def test_product_with_unit(fix_p1p1):
    pres = presentation(fix_p1p1)
    a = pres.generator_index("horizontal", ray=(1,))
    coords, _ = product_in_quotient(pres, [[a], []])
    assert coords == {(a,): F(1)}


def test_product_f2_nonface(fix_f2):
    pres = presentation(fix_f2)
    a = pres.generator_index("horizontal", ray=(1,))
    b = pres.generator_index("horizontal", ray=(-1,))
    assert product_in_quotient(pres, [[a], [b]])[0] == {}


def test_product_bilinear_on_squares(fix_f2):
    # a*a reduces through the relations to the same class as a*(b+s)
    pres = presentation(fix_f2)
    a = pres.generator_index("horizontal", ray=(1,))
    b = pres.generator_index("horizontal", ray=(-1,))
    s = pres.generator_index("vertical", vertex=(F(-1, 2),))
    aa, _ = product_in_quotient(pres, [[a], [a]])
    ab, _ = product_in_quotient(pres, [[a], [b]])
    as_, _ = product_in_quotient(pres, [[a], [s]])
    combined = dict(ab)
    for k, v in as_.items():
        combined[k] = combined.get(k, 0) + v
    combined = {k: v for k, v in combined.items() if v}
    assert aa == combined


def test_linear_relations_die_in_quotient(fix_f2):
    # multiplying any linear relation by a degree-1 monomial lands in zero
    pres = presentation(fix_f2)
    m = len(pres.generators)
    for rel in pres.linear_relations:
        for g in range(m):
            total = {}
            for h, coeff in enumerate(rel):
                if coeff == 0:
                    continue
                coords, _ = product_in_quotient(pres, [[g], [h]])
                for k, v in coords.items():
                    total[k] = total.get(k, 0) + coeff * v
            assert all(v == 0 for v in total.values())


# --- specialization ------------------------------------------------------------------

def test_specialization_f2(fix_f2):
    m = specialization_matrix(fix_f2, "0")
    assert _row_strs(m.matrix) in ([["2", "0"], ["1", "0"], ["0", "1"]],
                                   [["1", "0"], ["2", "0"], ["0", "1"]])
    assert m.has_full_column_rank()
    # entries are nonnegative integers; ones exactly at lattice vertices
    for g, row in zip(m.target_basis, m.matrix):
        for x in row:
            assert type(x) is int and x >= 0
            if x == 1:
                assert mu(g.vertices[0]) == 1


def test_specialization_trivial_slice_identity(fix_f2, fix_p1p1):
    m = specialization_matrix(fix_f2, "inf")
    n = len(m.source_basis)
    assert m.matrix == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    m2 = specialization_matrix(fix_p1p1, "0")
    n2 = len(m2.source_basis)
    assert m2.matrix == tuple(tuple(int(i == j) for j in range(n2)) for i in range(n2))


def test_shellable_divfan(fix_f2, fix_p1p1):
    assert is_shellable_divfan(fix_f2).ok
    assert is_shellable_divfan(fix_p1p1).ok


def test_shellable_divfan_detects_rank_drop(fix_f2, monkeypatch):
    import tvartop.chow as chow_mod

    real = chow_mod.specialization_matrix

    def degenerate(s, p):
        m = real(s, p)
        zero = tuple((0,) * len(m.source_basis) for _ in m.target_basis)
        return chow_mod.SpecializationMap(m.source_basis, m.target_basis, zero)

    monkeypatch.setattr(chow_mod, "specialization_matrix", degenerate)
    rep = chow_mod.is_shellable_divfan(fix_f2)
    assert not rep.ok and any("not injective" in r for r in rep.reasons)
