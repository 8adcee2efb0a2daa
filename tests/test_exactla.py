import random
from fractions import Fraction
from math import gcd

import fraction_kernel
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvartop.exactla import (
    _int_inverse,
    int_det,
    minor_gcds,
    rank_and_kernel,
    rref,
    saturated_basis,
    smith_normal_form,
)


def test_rank_kernel_identity():
    pivots, kernel = rank_and_kernel([[1, 0], [0, 1]], 2)
    assert len(pivots) == 2
    assert kernel == []


def test_rank_kernel_proportional_rows():
    pivots, kernel = rank_and_kernel([[1, 1], [2, 2]], 2)
    assert len(pivots) == 1
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_rank_kernel_two_by_three():
    pivots, kernel = rank_and_kernel([[1, 1, 0], [0, 1, 1]], 3)
    assert len(pivots) == 2
    assert len(kernel) == 1
    a = kernel[0]
    # span of (1, -1, 1)
    assert a[0] == a[2] and a[1] == -a[0] and a[0] != 0


def test_rank_plus_kernel_is_cols():
    rng = random.Random(5)
    for _ in range(60):
        rows = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        pivots, kernel = rank_and_kernel(rows, width)
        assert len(pivots) + len(kernel) == width
        for v in kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_consistency():
    x = fraction_kernel.solve([[2, 1], [1, -1]], [5, 1])
    assert x == (Fraction(2), Fraction(1))
    assert fraction_kernel.solve([[1, 1], [1, 1]], [0, 1]) is None


def _check_snf(m):
    snf = smith_normal_form(m)
    nr, nc = len(m), len(m[0])
    # left and right unimodular
    assert abs(int_det(snf.left)) == 1
    assert abs(int_det(snf.right)) == 1
    # left @ m @ right equals the diagonal form
    lm = [[sum(snf.left[i][k] * m[k][j] for k in range(nr)) for j in range(nc)]
          for i in range(nr)]
    lmr = [[sum(lm[i][k] * snf.right[k][j] for k in range(nc)) for j in range(nc)]
           for i in range(nr)]
    for i in range(nr):
        for j in range(nc):
            want = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert lmr[i][j] == want
    # divisibility chain, zeros last, nonnegative
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return snf


def test_snf_identity():
    snf = _check_snf([[1, 0], [0, 1]])
    assert snf.diagonal == (1, 1)


def test_snf_example_two():
    snf = _check_snf([[1, 1], [1, -1]])
    assert snf.diagonal == (1, 2)


def test_snf_single_row():
    snf = _check_snf([[2, 0]])
    assert snf.diagonal == (2,)


def test_snf_vs_minor_gcd_brute_force():
    # acceptance: products of leading invariants equal gcds of k x k minors
    rng = random.Random(99)
    for _ in range(100):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        snf = _check_snf(m)
        prod = 1
        for k, d in enumerate(snf.diagonal, start=1):
            if d == 0:
                assert minor_gcds(m, k) == 0
                continue
            prod *= d
            assert minor_gcds(m, k) == prod


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_snf_properties_hypothesis(rows):
    _check_snf(rows)


def test_saturated_basis_recovers_full_lattice():
    basis = saturated_basis([(2, 0), (0, 3)], 2)
    # saturation of a finite-index sublattice is everything
    snf = smith_normal_form(basis)
    assert snf.diagonal == (1, 1)


def test_saturated_basis_of_diagonal_line():
    basis = saturated_basis([(2, 2)], 2)
    assert len(basis) == 1
    assert basis[0] in ((1, 1), (-1, -1))



# --- integer kernel against the Fraction reference -------------------------------

@st.composite
def _int_matrices(draw):
    ncols = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))


@given(_int_matrices())
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_fraction_reference(rows):
    ncols = len(rows[0])
    red, pivots = rref(rows)
    red_q, pivots_q = fraction_kernel.rref(rows)
    assert pivots == pivots_q
    # each integer row is the positive primitive multiple of the RREF row
    for row, row_q, c in zip(red, red_q, pivots):
        k = row[c]
        assert k > 0 and gcd(*row) == 1
        assert list(row) == [k * x for x in row_q]
    # each kernel vector is v[f] times the Fraction one of the same free column
    piv, kernel = rank_and_kernel(rows, ncols)
    rank_q, kernel_q = fraction_kernel.rank_and_kernel(rows)
    assert piv == pivots and len(piv) == rank_q
    free = [f for f in range(ncols) if f not in piv]
    assert len(kernel) == len(kernel_q) == len(free)
    for v, v_q, f in zip(kernel, kernel_q, free):
        assert v[f] > 0 and gcd(*v) == 1
        assert list(v) == [v[f] * x for x in v_q]


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            f = rng.randint(-3, 3)
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def test_int_inverse_of_unimodular_matrices():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = _random_unimodular(rng, n)
        assert abs(int_det(m)) == 1
        inv = _int_inverse(m)
        prod = [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_int_inverse_refuses_non_unimodular():
    with pytest.raises(ValueError):
        _int_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        _int_inverse([[1, 2], [2, 4]])


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(314)
    for _ in range(100):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        want = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        assert smith_normal_form(m).diagonal == tuple(
            int(want[i, i]) for i in range(min(nr, nc)))
