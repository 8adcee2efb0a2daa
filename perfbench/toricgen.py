"""Seeded smooth complete rank-3 toric fans, built without calling tvartop.

Fans alternate between the fan of P^3 with two random star subdivisions
(6 rays) and the fan of (P^1)^3 with one (7 rays); a star subdivision blows
up a 2-cone or a 3-cone, which keeps the fan smooth and complete.  Each fan
is then moved by a random matrix of GL_3(Z).  The answers are known in
advance: the h-vector (1, n-3, n-3, 1) of a fan with n rays equals its even
Betti numbers, and the variety is simply connected.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

RANK = 3

P3 = ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
      [frozenset(c) for c in combinations(range(4), 3)])
P1_CUBED = ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
            [frozenset((a, b, c)) for a in (0, 1) for b in (2, 3) for c in (4, 5)])


def _vadd(*vs):
    return tuple(sum(xs) for xs in zip(*vs))


def star_subdivide(rays, cones, sigma):
    """Add the ray sum(sigma) and replace every maximal cone containing sigma."""
    rays = rays + [_vadd(*(rays[i] for i in sigma))]
    new = len(rays) - 1
    out = []
    for tau in cones:
        if sigma <= tau:
            out.extend((tau - {r}) | {new} for r in sigma)
        else:
            out.append(tau)
    return rays, out


def _unimodular(rng):
    """A random element of GL_3(Z): signed permutation times elementary moves."""
    perm = rng.sample(range(RANK), RANK)
    m = [[(rng.choice((1, -1)) if j == perm[i] else 0) for j in range(RANK)]
         for i in range(RANK)]
    for _ in range(2):
        i, j = rng.sample(range(RANK), 2)
        k = rng.choice((-1, 1))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def _apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(RANK)) for i in range(RANK))


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def random_fan(rng, start, subdivisions):
    """(rays, maximal cones) of a smooth complete fan."""
    rays, cones = list(start[0]), list(start[1])
    for _ in range(subdivisions):
        tau = rng.choice(cones)
        sigma = frozenset(rng.sample(sorted(tau), rng.choice((2, 3))))
        rays, cones = star_subdivide(rays, cones, sigma)
    m = _unimodular(rng)
    return [_apply(m, r) for r in rays], cones


def check_fan(rays, cones):
    """Smooth and complete in the combinatorial sense (raises on a generator bug)."""
    n = len(rays)
    if len(cones) != 2 * n - 4:
        raise AssertionError("a complete simplicial 3-fan has 2n - 4 maximal cones")
    facets = {}
    for c in cones:
        if abs(_det([rays[i] for i in sorted(c)])) != 1:
            raise AssertionError("cone is not unimodular")
        for f in combinations(sorted(c), 2):
            facets[f] = facets.get(f, 0) + 1
    if any(k != 2 for k in facets.values()):
        raise AssertionError("every 2-cone must lie in exactly two maximal cones")


def h_vector(rays):
    return [1, len(rays) - 3, len(rays) - 3, 1]


def complex_document(rays, cones):
    cells = [{"rays": [list(rays[i]) for i in sorted(c)], "vertices": [[0] * RANK]}
             for c in sorted(cones, key=sorted)]
    return {"ambient_rank": RANK, "cells": cells, "schema_version": "1"}


def stream(seed, count):
    """count (document bytes, expected h-vector) pairs, deterministic in seed."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rays, cones = random_fan(rng, *((P3, 2), (P1_CUBED, 1))[k % 2])
        check_fan(rays, cones)
        text = json.dumps(complex_document(rays, cones), sort_keys=True, indent=2) + "\n"
        out.append((text.encode("utf-8"), h_vector(rays)))
    return out
