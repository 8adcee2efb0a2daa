"""``verify_shelling`` and ``find_shelling`` against the geometric oracle.

Every order is tried on complexes with at most ``ALL_ORDERS_CELLS`` cells,
and ``SAMPLED_ORDERS`` seeded random orders on larger ones.
"""

import random
from itertools import permutations

import pytest

import shelling_oracle
from conftest import rand_chain_complex, rand_complete_fan
from tvartop import fixtures
from tvartop.complexes import find_shelling, verify_shelling
from tvartop.divfan import slice_at, slice_support, tail_fan
from tvartop.errors import NotShellable, SearchBudgetExceeded

ALL_ORDERS_CELLS = 5
SAMPLED_ORDERS = 60
FAN_FIXTURES = ["fix_a2", "fix_cstar", "fix_cstar2", "fix_f2", "fix_p1p1", "fix_quadric",
                "fix_torsion"]
COMPLEX_FIXTURES = ["fix_chain", "fan_f2", "fan_p1p1", "fan_p2"]


def _summary(checked):
    return None if checked is None else [(ci, g.key, f.dim) for ci, g, f in checked]


def _agrees_with_oracle(t, rng):
    k = len(t.maximal_cells)
    if k <= ALL_ORDERS_CELLS:
        orders = [list(o) for o in permutations(range(k))]
    else:
        orders = [rng.sample(range(k), k) for _ in range(SAMPLED_ORDERS)]
    shellings = 0
    for order in orders:
        want = shelling_oracle.verify(t, order)
        assert _summary(verify_shelling(t, order)) == want, order
        shellings += want is not None
    try:
        data = find_shelling(t)
    except (NotShellable, SearchBudgetExceeded):
        assert k > ALL_ORDERS_CELLS or not shellings
        return
    assert shelling_oracle.verify(t, list(data.order)) == _summary(data.minimal_new_faces)
    assert data.face_index == shelling_oracle.first_cover(t, data.order)


def _fixture_complexes(name):
    s = fixtures.load_fan(f"{name}.json")
    return [tail_fan(s)] + [slice_at(s, p) for p in slice_support(s)]


@pytest.mark.parametrize("name", FAN_FIXTURES)
def test_fan_fixture_slices_match_oracle(name):
    rng = random.Random(name)
    for t in _fixture_complexes(name):
        _agrees_with_oracle(t, rng)


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_complex_fixture_matches_oracle(name):
    _agrees_with_oracle(fixtures.load_complex(f"{name}.json"), random.Random(name))


@pytest.mark.parametrize("rank", [1, 2])
def test_random_complete_fans_match_oracle(rank):
    rng = random.Random(5 + rank)
    for _ in range(20):
        _agrees_with_oracle(rand_complete_fan(rng, rank, pairs=rng.randint(rank + 1, 2 * rank)), rng)


def test_random_chain_complexes_match_oracle():
    rng = random.Random(5)
    for _ in range(20):
        _agrees_with_oracle(rand_chain_complex(rng, max_vertices=5), rng)
