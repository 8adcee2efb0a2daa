import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tvartop import fixtures
from tvartop.complexes import PolyhedralComplex
from tvartop.polyhedron import Polyhedron


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """A benchmark module loaded by path, the file left unchanged.  It is
    registered under its bare name, as the benchmark's modules import one
    another."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    assert Path(sys.modules[name].__file__).resolve().parent == PERFBENCH
    return sys.modules[name]


def rand_complete_fan(rng, rank, pairs=None, bound=3):
    """Face fan of the hull of random antipodal lattice point pairs."""
    pairs = pairs if pairs is not None else rank + 1
    while True:
        pts = set()
        while len(pts) < 2 * pairs:
            v = tuple(rng.randint(-bound, bound) for _ in range(rank))
            if any(v):
                pts.add(v)
                pts.add(tuple(-x for x in v))
        hull = Polyhedron.from_points_rays(rank, sorted(pts), [])
        if hull.dim() != rank:
            continue
        eqs, ineqs = hull.hrep()
        if eqs or any(a[0] <= 0 for a in ineqs):
            continue
        cells = []
        for a in ineqs:
            tight = [v for v in hull.vertices
                     if a[0] + sum(x * y for x, y in zip(a[1:], v)) == 0]
            cells.append(Polyhedron.from_points_rays(rank, [(0,) * rank], tight))
        return PolyhedralComplex(rank, cells)


def rand_chain_complex(rng, max_vertices=4, denom=4):
    """Complete complex in rank 1: two rays and the segments between."""
    k = rng.randint(1, max_vertices)
    verts = sorted({Fraction(rng.randint(-8, 8), rng.randint(1, denom)) for _ in range(k)})
    cells = [Polyhedron.from_points_rays(1, [(verts[0],)], [(-1,)])]
    for a, b in zip(verts, verts[1:]):
        cells.append(Polyhedron.from_points_rays(1, [(a,), (b,)], []))
    cells.append(Polyhedron.from_points_rays(1, [(verts[-1],)], [(1,)]))
    return PolyhedralComplex(1, cells)


def rand_cone(rng, rank, max_rays=4, bound=4):
    from tvartop.polyhedron import Cone

    gens = []
    for _ in range(rng.randint(1, max_rays)):
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(v):
            gens.append(v)
    return Cone.from_generators(rank, gens)


def rand_polytope(rng, rank, npts=5, bound=4):
    pts = {tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(npts)}
    return Polyhedron.from_points_rays(rank, sorted(pts), [])


@pytest.fixture(scope="session")
def fix_a2():
    return fixtures.load_fan("fix_a2.json")


@pytest.fixture(scope="session")
def fix_f2():
    return fixtures.load_fan("fix_f2.json")


@pytest.fixture(scope="session")
def fix_p1p1():
    return fixtures.load_fan("fix_p1p1.json")


@pytest.fixture(scope="session")
def fix_cstar():
    return fixtures.load_fan("fix_cstar.json")


@pytest.fixture(scope="session")
def fix_cstar2():
    return fixtures.load_fan("fix_cstar2.json")


@pytest.fixture(scope="session")
def fix_torsion():
    return fixtures.load_fan("fix_torsion.json")


@pytest.fixture(scope="session")
def fix_quadric():
    return fixtures.load_fan("fix_quadric.json")


@pytest.fixture(scope="session")
def fix_chain():
    return fixtures.load_complex("fix_chain.json")


@pytest.fixture(scope="session")
def fan_f2():
    return fixtures.load_complex("fan_f2.json")


@pytest.fixture(scope="session")
def fan_p1p1():
    return fixtures.load_complex("fan_p1p1.json")


@pytest.fixture(scope="session")
def fan_p2():
    return fixtures.load_complex("fan_p2.json")


@pytest.fixture(scope="session")
def random_complete_pool():
    """Shared pool of random complete complexes in rank <= 2."""
    rng = random.Random(20240817)
    pool = [rand_chain_complex(rng) for _ in range(20)]
    pool += [rand_complete_fan(rng, 2) for _ in range(20)]
    from tvartop.divfan import slice_at, toric_downgrade

    for _ in range(5):
        fan3 = rand_complete_fan(rng, 3, pairs=3, bound=2)
        dd = toric_downgrade(fan3)
        pool.append(slice_at(dd, "0"))
        pool.append(slice_at(dd, "inf"))
    return pool
