"""``Cone.from_generators`` against the two-enumeration reference.

``from_generators`` runs one ray enumeration for the H-rep and reads the
extreme generators off their facet incidences.  The reference below is the
V -> H -> V version it replaced, which enumerated the cone again from its
H-rep.  Both must give the same canonical key and the same stored H-rep on
random generator lists (duplicates, scaled rational copies, redundant sums,
lower-dimensional and non-pointed cones, the empty list) and on every cone
that the fan fixtures and toric-stream downgrades build.
"""

import io
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_module
from test_cli import fixture_path
from test_homogenization import FAN_FIXTURES
from tvartop import cli, polyhedron
from tvartop.polyhedron import Cone, rays_of_hcone


def reference_from_generators(ambient_rank, generators):
    hrep = rays_of_hcone(generators, [], ambient_rank)
    lin, rays = rays_of_hcone(hrep[1], hrep[0], ambient_rank)
    return Cone(ambient_rank, rays, lin, hrep)


def assert_matches_reference(n, gens):
    got = Cone.from_generators(n, gens)
    want = reference_from_generators(n, gens)
    assert got.key == want.key
    assert got._hrep == want._hrep
    return got


def _image(matrix, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)


def _random_generators(rng):
    """(rank, generators): random vectors, sometimes mapped into a lower-rank
    sublattice or given a line, then extended by duplicates, scaled rational
    copies and sums of pairs."""
    n = rng.randint(1, 5)
    m = rng.randint(1, n) if rng.random() < 0.4 else n
    base = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(0, 6))]
    if m < n:
        matrix = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        base = [_image(matrix, g) for g in base]
    base = [g for g in base if any(g)]
    if base and rng.random() < 0.25:
        base.append(tuple(-x for x in rng.choice(base)))
    gens = list(base)
    for g in base:
        r = rng.random()
        if r < 0.25:
            gens.append(g)
        elif r < 0.5:
            gens.append(tuple(F(x * rng.randint(1, 6), rng.randint(1, 5)) for x in g))
    for _ in range(rng.randint(0, 2) if len(base) >= 2 else 0):
        a, b = rng.sample(base, 2)
        gens.append(tuple(x + y for x, y in zip(a, b)))
    rng.shuffle(gens)
    return n, gens


def test_matches_reference_on_seeded_generator_lists():
    rng = random.Random(20261020)
    kinds = {"pointed": 0, "lineality": 0, "empty": 0, "lower-dimensional": 0}
    for _ in range(2000):
        n, gens = _random_generators(rng)
        c = assert_matches_reference(n, gens)
        kinds["pointed" if c.is_pointed else "lineality"] += 1
        kinds["empty"] += not gens
        kinds["lower-dimensional"] += 0 < c.dim < n
    assert min(kinds.values()) >= 50, kinds


@st.composite
def _generator_lists(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    vec = st.lists(st.integers(-3, 3), min_size=m, max_size=m).map(tuple)
    base = draw(st.lists(vec, max_size=6))
    matrix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                           min_size=n, max_size=n))
    base = [_image(matrix, g) for g in base]
    gens = list(base)
    if base:
        pick = st.integers(0, len(base) - 1)
        gens += [base[i] for i in draw(st.lists(pick, max_size=2))]
        for i, num, den in draw(st.lists(st.tuples(pick, st.integers(1, 6), st.integers(1, 5)),
                                         max_size=2)):
            gens.append(tuple(F(x * num, den) for x in base[i]))
        for i, j in draw(st.lists(st.tuples(pick, pick), max_size=2)):
            gens.append(tuple(x + y for x, y in zip(base[i], base[j])))
        for i in draw(st.lists(pick, max_size=1)):
            gens.append(tuple(-x for x in base[i]))
    return n, draw(st.permutations(gens))


@given(_generator_lists())
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_generated_lists(case):
    assert_matches_reference(*case)


def _recorded_inputs(monkeypatch, run):
    """The distinct (rank, generators) inputs of every ``Cone.from_generators``
    call that ``run()`` makes."""
    seen = {}
    build = Cone.from_generators.__func__

    def spy(cls, ambient_rank, generators):
        generators = [tuple(g) for g in generators]
        seen[(ambient_rank, tuple(generators))] = None
        return build(cls, ambient_rank, generators)

    with monkeypatch.context() as patch:
        patch.setattr(Cone, "from_generators", classmethod(spy))
        run()
    return list(seen)


def _cli(*argv):
    polyhedron._intersect_cache.clear()
    out = io.StringIO()
    cli.main(list(argv), out=out)
    return out.getvalue()


@pytest.mark.parametrize("name", FAN_FIXTURES)
def test_matches_reference_on_fan_fixture_cones(name, monkeypatch):
    def run():
        for command in ("validate", "invariants", "chow", "pi1"):
            _cli(command, fixture_path(f"{name}.json"))

    inputs = _recorded_inputs(monkeypatch, run)
    assert inputs
    for n, gens in inputs:
        assert_matches_reference(n, gens)


def test_matches_reference_on_toric_stream_downgrade_cones(monkeypatch, tmp_path):
    def run():
        for k, (text, _) in enumerate(perfbench_module("toricgen").stream(13, 8)):
            src, fan = tmp_path / f"fan{k}.json", tmp_path / f"fan{k}.down.json"
            src.write_bytes(text)
            fan.write_text(_cli("downgrade", str(src)), encoding="utf-8")
            assert json.loads(fan.read_text(encoding="utf-8"))["lattice_rank"] == 2
            _cli("validate", str(fan))

    inputs = _recorded_inputs(monkeypatch, run)
    assert inputs
    for n, gens in inputs:
        assert_matches_reference(n, gens)


@pytest.mark.parametrize("n,gens,enumerations", [
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 2, 0)], 1),
    (3, [(1, 0, 1), (0, 1, 1), (1, 1, 2), (F(1, 2), F(1, 2), 1)], 1),
    (2, [(1, 2), (F(1, 3), F(2, 3))], 1),
    (2, [], 1),
    (1, [(1,), (-1,)], 2),
    (2, [(1, 0), (-1, 0), (0, 1)], 2),
    (2, [(1, 0), (-1, 1), (0, -1)], 2),
], ids=["redundant", "lower-dimensional", "ray", "zero", "line", "half-plane", "plane"])
def test_only_a_cone_with_lineality_is_enumerated_twice(monkeypatch, n, gens, enumerations):
    calls = []
    enumerate_rays = polyhedron.rays_of_hcone

    def spy(*args):
        calls.append(args)
        return enumerate_rays(*args)

    monkeypatch.setattr(polyhedron, "rays_of_hcone", spy)
    c = Cone.from_generators(n, gens)
    assert len(calls) == enumerations
    assert c.is_pointed == (enumerations == 1)
    monkeypatch.undo()
    assert c.key == reference_from_generators(n, gens).key
