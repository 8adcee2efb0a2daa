"""The face-lattice-first fan core against the enumerating code it replaced.

Parsing reads a generator list as a face of a cone already enumerated
(``polyhedron.cones_from_generators`` and ``Cone.face_spanned_by``).  Such a
cone must have the key ``Cone.from_generators`` gives, and ray enumeration of
its stored H-rep must give back its generators.  ``PolyhedralComplex``
compares each cell for containment only with cells of at least its
dimension, and lets ``facet_separates`` settle pairs of cells before the
exact ``intersect`` + ``is_face_of``.  The O(k^2) containment scan and the
exact pairwise check are kept below as references.
"""

import io as _io
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_module, rand_complete_fan, rand_polytope
from test_cli import fixture_path
from test_homogenization import FAN_FIXTURES
from tvartop import cli, io, polyhedron
from tvartop.complexes import PolyhedralComplex
from tvartop.divfan import slice_at, tail_fan
from tvartop.errors import FanInvalid, ParseError
from tvartop.polyhedron import (
    Cone,
    Polyhedron,
    cones_from_generators,
    facet_separates,
    intersect,
    is_face_of,
    rays_of_hcone,
)


def assert_same_as_enumerated(n, gens, cone):
    assert cone.key == Cone.from_generators(n, gens).key
    eqs, ineqs = cone.hrep()
    assert rays_of_hcone(ineqs, eqs, n) == (cone.lineality, cone._pointed_rays)


def _parse_recorded(monkeypatch, docs):
    """Parse each fan document; every (rank, generator list, cone) that
    ``cones_from_generators`` handled, and how many cones it read as faces."""
    seen = []
    faces = []
    build = polyhedron.cones_from_generators
    match = Cone.face_spanned_by

    def spy(n, lists):
        out = build(n, lists)
        seen.extend((n, gens, cone) for gens, cone in zip(lists, out))
        return out

    def spy_match(self, gens):
        face = match(self, gens)
        faces.append(face is not None)
        return face

    with monkeypatch.context() as patch:
        patch.setattr(io, "cones_from_generators", spy)
        patch.setattr(Cone, "face_spanned_by", spy_match)
        for doc in docs:
            io.parse_fan_document(doc)
    return seen, sum(faces)


def _load(name):
    with open(fixture_path(f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_face_matcher_on_fan_fixtures(monkeypatch):
    seen, matched = _parse_recorded(monkeypatch, [_load(name) for name in FAN_FIXTURES])
    assert matched >= 50
    for n, gens, cone in seen:
        assert_same_as_enumerated(n, gens, cone)


def test_face_matcher_on_toric_stream_downgrades(monkeypatch, tmp_path):
    docs = []
    for k, (text, _) in enumerate(perfbench_module("toricgen").stream(13, 8)):
        src = tmp_path / f"fan{k}.json"
        src.write_bytes(text)
        out = _io.StringIO()
        assert cli.main(["downgrade", str(src)], out=out) == 0
        docs.append(json.loads(out.getvalue()))
    seen, matched = _parse_recorded(monkeypatch, docs)
    assert matched >= 20
    for n, gens, cone in seen:
        assert_same_as_enumerated(n, gens, cone)


def _restate(rng, gens):
    """The generators, shuffled, with duplicates, positive rational
    multiples and sums of pairs added."""
    out = list(gens)
    for g in gens:
        r = rng.random()
        if r < 0.3:
            out.append(g)
        elif r < 0.6:
            out.append(tuple(F(x * rng.randint(1, 5), rng.randint(1, 4)) for x in g))
    for _ in range(rng.randint(0, 2) if len(gens) >= 2 else 0):
        a, b = rng.sample(gens, 2)
        out.append(tuple(x + y for x, y in zip(a, b)))
    rng.shuffle(out)
    return out


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_face_matcher_on_restated_faces_of_polytopes(seed, rank):
    rng = random.Random(seed)
    p = rand_polytope(rng, rank, npts=rng.randint(1, 7), bound=3)
    gens = p.hcone.rays
    lists = [list(gens)]
    lists += [_restate(rng, [gens[i] for i in f.generators]) for f in p.faces()]
    # generator subsets that mostly span no face: enumerated after all
    lists += [rng.sample(gens, rng.randint(1, len(gens))) for _ in range(2)]
    for gl, cone in zip(lists, cones_from_generators(rank + 1, lists)):
        assert_same_as_enumerated(rank + 1, gl, cone)


def test_face_spanned_by_reads_the_face_off_the_tight_rows():
    square = Cone.from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    edge = square.face_spanned_by([(1, 0, 0), (1, 0, 1), (2, 0, 1)])
    assert edge.key == Cone.from_generators(3, [(1, 0, 0), (1, 0, 1)]).key
    assert square.face_spanned_by(square.rays) is square
    assert square.face_spanned_by([]).key == (3, (), ())
    # an interior point stands for no ray of its face, and the diagonal
    # and a point outside span no face
    assert square.face_spanned_by([(1, 0, 0), (2, 1, 1)]) is None
    assert square.face_spanned_by([(1, 0, 0), (1, 1, 1)]) is None
    assert square.face_spanned_by([(1, 2, 0)]) is None


def test_parsing_the_quadric_enumerates_few_cones(monkeypatch):
    doc = _load("fix_quadric")
    calls = []
    enumerate_rays = polyhedron.rays_of_hcone

    def spy(*args):
        calls.append(args)
        return enumerate_rays(*args)

    monkeypatch.setattr(polyhedron, "rays_of_hcone", spy)
    io.parse_fan_document(doc)
    assert 0 < len(calls) <= 40


def test_parse_errors_keep_document_order():
    # cones are built after the whole document is read; a member that is
    # no p-divisor is still reported before a malformed later member
    doc = {"schema_version": "1", "lattice_rank": 2, "curve": {"points": ["0"]},
           "pdivisors": [{"tail": [[1, 0], [-1, 0]]}, 5]}
    with pytest.raises(ParseError, match=r"pdivisors\[0\]: tail cone must be pointed"):
        io.parse_fan_document(doc)
    doc["pdivisors"][0] = {"tail": [[1, 0]]}
    with pytest.raises(ParseError, match=r"pdivisors\[1\] must be an object"):
        io.parse_fan_document(doc)


# --- the separating-facet certificate against the exact pairwise check -----

def exact_common_face(p, q):
    common = intersect(p, q)
    return common.is_empty or (is_face_of(common, p) and is_face_of(common, q))


def exact_pairwise(cells):
    """The message of the first pair of cells that the exact check rejects."""
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if not exact_common_face(cells[i], cells[j]):
                return f"cells {i} and {j} do not intersect in a common face"
    return None


def _valid_complexes(random_complete_pool):
    out = list(random_complete_pool)
    for name in ("fix_chain", "fan_f2", "fan_p1p1", "fan_p2"):
        with open(fixture_path(f"{name}.json"), encoding="utf-8") as fh:
            out.append(io.parse_complex_document(json.load(fh)))
    for name in FAN_FIXTURES:
        fan, _ = io.parse_fan_document(_load(name))
        out.append(tail_fan(fan))
        out += [slice_at(fan, p) for p in fan.curve.marked_points if fan.members_with(p)]
    return out


def _invalid_cell_lists(rng, count):
    """Cell lists whose cells overlap or meet in something that is not a
    face of both: random polytopes, a polytope and its shift, a cell of a
    complete fan and a cone cutting across it."""
    for _ in range(count):
        rank = rng.randint(1, 3)
        cells = [rand_polytope(rng, rank, npts=rng.randint(2, 6), bound=2) for _ in range(3)]
        shift = tuple(F(rng.randint(-2, 2), 2) for _ in range(rank))
        cells.append(Polyhedron.from_points_rays(
            rank, [tuple(a + b for a, b in zip(v, shift)) for v in cells[0].vertices], []))
        if rank >= 2:
            fan = rand_complete_fan(rng, rank, bound=2)
            across = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank)]
            cells += list(fan.maximal_cells)
            cells.append(Polyhedron.from_points_rays(rank, [(0,) * rank],
                                                     [r for r in across if any(r)]))
        yield [c for c in cells if not c.is_empty]


def test_certificate_never_accepts_a_pair_the_exact_check_rejects(random_complete_pool):
    certified = rejected = 0
    cell_lists = [list(t.maximal_cells) for t in _valid_complexes(random_complete_pool)]
    cell_lists += _invalid_cell_lists(random.Random(20261022), 60)
    for cells in cell_lists:
        for i, p in enumerate(cells):
            for q in cells[i + 1:]:
                exact = exact_common_face(p, q)
                rejected += not exact
                for a, b in ((p, q), (q, p)):
                    if facet_separates(a, b):
                        certified += 1
                        assert exact, (a, b)
    assert certified >= 500 and rejected >= 100, (certified, rejected)


def test_invalid_complexes_fail_on_the_same_pair_as_the_exact_check():
    failures = 0
    for cells in _invalid_cell_lists(random.Random(20261023), 40):
        kept = PolyhedralComplex(cells[0].ambient_rank, cells, check=False).maximal_cells
        want = exact_pairwise(kept)
        if want is None:
            PolyhedralComplex(cells[0].ambient_rank, cells)
            continue
        failures += 1
        with pytest.raises(FanInvalid) as err:
            PolyhedralComplex(cells[0].ambient_rank, cells)
        assert str(err.value) == want
    assert failures >= 20


# --- containment scan against the O(k^2) reference -------------------------

def reference_maximal_cells(cells):
    unique = sorted({c for c in cells if not c.is_empty}, key=lambda p: p.key)
    return tuple(c for c in unique
                 if not any(d != c and d.contains_polyhedron(c) for d in unique))


def _nested_cell_lists(rng, count):
    """Cells with duplicates, faces of other cells, and full-dimensional
    polytopes nested in others (the hull of some vertices and the midpoint
    of two)."""
    for _ in range(count):
        rank = rng.randint(1, 3)
        cells = [rand_polytope(rng, rank, npts=rng.randint(1, 6), bound=3) for _ in range(3)]
        for p in list(cells):
            faces = p.faces()
            cells += [p.face_polyhedron(f) for f in rng.sample(faces, min(3, len(faces)))]
            vs = list(p.vertices)
            if len(vs) >= 2:
                a, b = rng.sample(vs, 2)
                mid = tuple((x + y) / 2 for x, y in zip(a, b))
                keep = rng.sample(vs, rng.randint(1, len(vs)))
                cells.append(Polyhedron.from_points_rays(rank, keep + [mid], []))
        cells += rng.sample(cells, 3)
        if rank >= 2 and rng.random() < 0.5:
            cells += list(rand_complete_fan(rng, rank, bound=2).maximal_cells)
        rng.shuffle(cells)
        yield rank, cells


def test_maximal_cells_match_the_quadratic_scan(random_complete_pool):
    nested = dropped = 0
    for rank, cells in _nested_cell_lists(random.Random(20261024), 150):
        got = PolyhedralComplex(rank, cells, check=False).maximal_cells
        want = reference_maximal_cells(cells)
        assert got == want
        assert [c.key for c in got] == sorted(c.key for c in got)
        dropped += len(set(cells)) - len(got)
        nested += any(c.dim() == d.dim() and c != d and d.contains_polyhedron(c)
                      for c in cells for d in cells)
    assert nested >= 30 and dropped >= 300, (nested, dropped)
    for t in random_complete_pool:
        cells = list(t.maximal_cells)
        faces = [c.face_polyhedron(f) for c in cells[:2] for f in c.faces()]
        assert PolyhedralComplex(t.ambient_rank, cells + faces + cells).maximal_cells \
            == reference_maximal_cells(cells + faces)
