import random
from fractions import Fraction as F

import pytest
from fraction_kernel import rank_and_kernel, rref, solve

from tvartop.divfan import CurveData, DivisorialFan, PDivisor
from tvartop.pi1 import (
    FGAbelianGroup,
    LocPart,
    fundamental_group,
    group_NS,
    lattice_ND,
    pi1_loc,
)
from tvartop.polyhedron import Cone, Polyhedron


# --- brute-force coset enumeration oracle ------------------------------------

def _subgroup_of_Z(generators):
    """Subgroup of Z generated by integers, by bounded closure (1-d case)."""
    gens = [abs(g) for g in generators if g]
    if not gens:
        return set()
    bound = 4 * max(gens) * len(gens) + 50
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (x + g, x - g):
                if abs(y) <= bound and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return {x for x in reach if x}


def _frac_pair(x):
    return (x - int(x)) if x >= 0 else (x - int(x) + 1) % 1


def _coset_quotient_bruteforce(rows):
    """Invariant factors of Z^2 / <rows> by coset enumeration.

    Rank-2 case: a Q-basis of the row span identifies cosets with pairs of
    fractional coordinates; the remaining rows cut the finite group down.
    """
    rows = [tuple(r) for r in rows if any(r)]
    rank, _ = rank_and_kernel(rows) if rows else (0, [])
    if rank == 0:
        return (2, ())
    if rank == 1:
        # primitive direction and the subgroup of multipliers along it
        red, _ = rref(rows)
        from tvartop.polyhedron import primitive

        d = primitive(red[0])
        idx = next(i for i in range(2) if d[i])
        mults = []
        for r in rows:
            m = F(r[idx], d[idx])
            assert tuple(m * x for x in d) == tuple(F(x) for x in r)
            assert m.denominator == 1
            mults.append(int(m))
        nonzero = _subgroup_of_Z(mults)
        g = min(x for x in nonzero if x > 0)
        torsion = (g,) if g > 1 else ()
        return (1, torsion)

    # rank 2: pick two independent rows as reference basis
    basis = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            r, _ = rank_and_kernel([rows[i], rows[j]])
            if r == 2:
                basis = (rows[i], rows[j])
                break
        if basis:
            break

    def key(x):
        sol = solve(list(zip(*basis)), x)
        return (_frac_pair(sol[0]), _frac_pair(sol[1]))

    def add(a, b):
        return (_frac_pair(a[0] + b[0]), _frac_pair(a[1] + b[1]))

    # enumerate Z^2 / span_Z(basis) as closure of the unit vector keys
    gens0 = [key((1, 0)), key((0, 1))]
    group = {(F(0), F(0))}
    frontier = [(F(0), F(0))]
    while frontier:
        x = frontier.pop()
        for g in gens0:
            y = add(x, g)
            if y not in group:
                group.add(y)
                frontier.append(y)
    # quotient further by the keys of the remaining rows
    sub = {(F(0), F(0))}
    frontier = [(F(0), F(0))]
    extra = [key(r) for r in rows]
    while frontier:
        x = frontier.pop()
        for g in extra:
            y = add(x, g)
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    cosets = {}
    for x in group:
        rep = min(sorted(add(x, h) for h in sub))
        cosets[rep] = None
    order = len(cosets)
    if order == 1:
        return (0, ())

    def coset_order(x):
        m = 1
        y = x
        zero_rep = min(sorted(h for h in sub))
        while True:
            rep = min(sorted(add(y, h) for h in sub))
            if rep == zero_rep:
                return m
            y = add(y, x)
            m += 1

    exponent = max(coset_order(x) for x in group)
    d2 = exponent
    d1 = order // exponent
    torsion = tuple(d for d in (d1, d2) if d > 1)
    return (0, torsion)


def test_brute_force_oracle_matches_snf():
    # acceptance: coset enumeration agrees with the Smith-form answer
    from tvartop.exactla import smith_normal_form

    rng = random.Random(4242)
    for _ in range(60):
        k = rng.randint(0, 3)
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(k)]
        rows = [r for r in rows if any(r)]
        if rows:
            snf = smith_normal_form(rows)
            free = 2 - snf.rank
            torsion = tuple(d for d in snf.diagonal if d > 1)
        else:
            free, torsion = 2, ()
        assert _coset_quotient_bruteforce(rows) == (free, torsion)


def test_torsion_fixture_against_bruteforce():
    assert _coset_quotient_bruteforce([(1, 1), (1, -1)]) == (0, (2,))


# --- lattice_ND ---------------------------------------------------------------

def test_nd_a2(fix_a2):
    assert lattice_ND(fix_a2.pdivisors[0]) == [(1,)]


def test_nd_cstar(fix_cstar):
    assert lattice_ND(fix_cstar.pdivisors[0]) == []


def test_nd_segment_saturated():
    zero2 = Cone.from_generators(2, [])
    d = PDivisor(zero2, {"p": Polyhedron.from_points_rays(2, [(0, 0), (2, 2)], []),
                         "q": Polyhedron.empty(2)})
    basis = lattice_ND(d)
    assert len(basis) == 1 and basis[0] in ((1, 1), (-1, -1))


# --- group_NS --------------------------------------------------------------------

def test_ns_fixtures(fix_a2, fix_cstar, fix_torsion):
    assert group_NS(fix_a2) == FGAbelianGroup(0)
    assert group_NS(fix_cstar) == FGAbelianGroup(1)
    assert group_NS(fix_torsion) == FGAbelianGroup(0, (2,))


def test_ns_strict_flag_equal_on_fixtures(fix_a2, fix_cstar, fix_torsion, fix_f2):
    for fan in (fix_a2, fix_cstar, fix_torsion, fix_f2):
        assert group_NS(fan, strict=True) == group_NS(fan, strict=False)


def test_ns_unimodular_transport_invariance(fix_torsion, fix_a2):
    rng = random.Random(7)

    def transports():
        for _ in range(20):
            a = rng.randint(-3, 3)
            yield ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))

    for u in transports():
        members = []
        for d in fix_torsion.pdivisors:
            coeffs = {}
            for label, poly in d.coefficients.items():
                if poly.is_empty:
                    coeffs[label] = poly
                    continue
                verts = [(u[0][0] * v[0] + u[0][1] * v[1],
                          u[1][0] * v[0] + u[1][1] * v[1]) for v in poly.vertices]
                rays = [(u[0][0] * r[0] + u[0][1] * r[1],
                         u[1][0] * r[0] + u[1][1] * r[1]) for r in poly.tail.rays]
                coeffs[label] = Polyhedron.from_points_rays(2, verts, rays)
            tail_rays = [(u[0][0] * r[0] + u[0][1] * r[1],
                          u[1][0] * r[0] + u[1][1] * r[1]) for r in d.tail.rays]
            members.append(PDivisor(Cone.from_generators(2, tail_rays), coeffs))
        moved = DivisorialFan(fix_torsion.curve, members)
        assert group_NS(moved) == group_NS(fix_torsion)


def test_ns_monotone_under_new_members(fix_torsion):
    partial = DivisorialFan(fix_torsion.curve, list(fix_torsion.pdivisors)[:1])
    g_small = group_NS(partial)
    g_full = group_NS(fix_torsion)
    assert g_full.free_rank <= g_small.free_rank


def test_ns_torsion_monotonicity_bruteforce():
    # enlarging the sublattice never grows free rank, and without a rank
    # drop the torsion only shrinks (checked by coset enumeration)
    rng = random.Random(515)
    for _ in range(40):
        base = [[rng.randint(-5, 5) for _ in range(2)]
                for _ in range(rng.randint(0, 2))]
        extra = [[rng.randint(-5, 5) for _ in range(2)]]
        base = [r for r in base if any(r)]
        bigger = base + [r for r in extra if any(r)]
        f0, t0 = _coset_quotient_bruteforce(base)
        f1, t1 = _coset_quotient_bruteforce(bigger)
        assert f1 <= f0
        if f1 == f0:
            order0 = 1
            for d in t0:
                order0 *= d
            order1 = 1
            for d in t1:
                order1 *= d
            assert order0 % order1 == 0
            if t0 and t1:
                assert t0[-1] % t1[-1] == 0


# --- pi1_loc ------------------------------------------------------------------------

def test_loc_parts(fix_a2, fix_cstar, fix_cstar2):
    assert pi1_loc(fix_a2) == LocPart("trivial")
    assert pi1_loc(fix_cstar) == LocPart("free", 0)
    assert pi1_loc(fix_cstar2) == LocPart("free", 1)


def test_loc_part_surface():
    d = PDivisor(Cone.from_generators(1, [(1,)]),
                 {"0": Polyhedron.empty(1), "1": Polyhedron.from_points_rays(1, [(0,)], [(1,)])})
    d2 = PDivisor(Cone.from_generators(1, [(1,)]),
                  {"1": Polyhedron.empty(1), "0": Polyhedron.from_points_rays(1, [(0,)], [(1,)])})
    from tvartop.divfan import closure_under_intersection

    fan = DivisorialFan(CurveData(2, ("0", "1")),
                        closure_under_intersection([d, d2]))
    assert pi1_loc(fan) == LocPart("surface", 2)


# --- fundamental group ----------------------------------------------------------------

def test_pi1_fixtures(fix_a2, fix_cstar, fix_cstar2, fix_torsion):
    assert fundamental_group(fix_a2).render() == "trivial"
    assert fundamental_group(fix_cstar).render() == "Z"
    assert fundamental_group(fix_cstar2).render() == "Z x Z"
    assert fundamental_group(fix_torsion).render() == "Z/2"


def test_pi1_records_attestation(fix_a2):
    assert fundamental_group(fix_a2, log_terminal_attested=True).log_terminal_attested


# --- fixed point criterion ---------------------------------------------------------------

def _has_fixed_point_member(s):
    """A member with complete locus and full-dimensional tail cone: the
    unique-fixed-point criterion then forces simple connectedness."""
    return any(d.has_complete_locus() and d.tail.dim == s.ambient_rank for d in s.pdivisors)


def test_fixed_point_a2(fix_a2):
    assert _has_fixed_point_member(fix_a2)
    assert fundamental_group(fix_a2).is_trivial


def test_fixed_point_not_applicable(fix_cstar):
    assert not _has_fixed_point_member(fix_cstar)


def test_fixed_point_f2_member_alone(fix_f2):
    d = next(m for m in fix_f2.pdivisors if m.has_complete_locus())
    fan = DivisorialFan(fix_f2.curve, [d])
    assert _has_fixed_point_member(fan)
    assert fundamental_group(fan).is_trivial


def test_group_render():
    assert FGAbelianGroup(0).render() == "0"
    assert FGAbelianGroup(2, (2, 4)).render() == "Z^2 + Z/2 + Z/4"
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
