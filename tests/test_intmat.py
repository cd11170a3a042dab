from math import gcd, prod

import hypothesis.strategies as st
from hypothesis import example, given
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from coidem import intmat
from coidem.lattice import enumerate_submodules
from coidem.modules import FinModule
from coidem.rings import ModularRing

from oracles import det


def entries(lo=-9, hi=9):
    return st.integers(min_value=lo, max_value=hi)


def matrices(max_dim=4, lo=-9, hi=9):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda k: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries(lo, hi), min_size=k, max_size=k),
                min_size=m,
                max_size=m,
            ).map(lambda rows: tuple(tuple(r) for r in rows))
        )
    )


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_xgcd(a, b):
    g, u, v = intmat.xgcd(a, b)
    assert g == gcd(a, b)
    assert u * a + v * b == g


@given(matrices())
def test_hnf_is_canonical_and_spans(mat):
    k = len(mat[0])
    h = intmat.hnf(mat, k)
    # echelon shape with positive pivots and reduced columns above them
    last_pivot = -1
    for row in h:
        pc = next(i for i, v in enumerate(row) if v)
        assert pc > last_pivot
        last_pivot = pc
        assert row[pc] > 0
    for i, row in enumerate(h):
        pc = next(c for c, v in enumerate(row) if v)
        for j in range(i):
            assert 0 <= h[j][pc] < row[pc]
    # same row span: generators lie in each other's span
    for row in mat:
        assert intmat.in_rowspan(h, row)
    double = intmat.hnf(h, k)
    assert double == h


@given(matrices())
def test_smith_normal_form(mat):
    s = intmat.smith_normal_form(mat)
    m, k = len(mat), len(mat[0])
    assert len(s) == m and all(len(row) == k for row in s)
    diag = [s[i][i] for i in range(min(m, k))]
    for i in range(m):
        for j in range(k):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # invariants of Z^k / rowspan(mat) that unimodular row and column
    # operations keep: the rank, the gcd of all entries and, at full rank,
    # the index (the product of the Hermite pivots)
    h = intmat.hnf(mat, k)
    assert sum(1 for d in diag if d) == len(h)
    assert diag[0] == gcd(*(x for row in mat for x in row))
    if len(h) == k:
        assert prod(diag) == prod(h[i][i] for i in range(k))


def _smith_diagonal_matches_sympy(mat):
    s = intmat.smith_normal_form(mat)
    assert len(s) == len(mat) and all(len(row) == len(mat[0]) for row in s)
    ours = [s[i][i] for i in range(min(len(mat), len(mat[0]))) if s[i][i]]
    theirs = [abs(int(d)) for d in invariant_factors(Matrix(mat), domain=ZZ) if d]
    assert ours == theirs


@given(matrices())
@example(((0, 0, 0), (0, 0, 0)))  # all zero
@example(((4, -6, 10),))  # 1×k
@example(((0, 0, 7),))
@example(((4,), (-6,), (10,)))  # k×1
@example(((0,), (0,), (9,)))
@example(((2, 4, 6), (1, 2, 3)))  # rank-deficient, wide and tall
@example(((2, 4), (-1, -2), (3, 6)))
@example(((0, 2, 4, 0), (0, 3, 6, 0), (0, 0, 0, 0)))
@example(((1, 2, 3), (4, 5, 6), (7, 8, 9), (2, 4, 6)))
def test_smith_diagonal_matches_sympy(mat):
    _smith_diagonal_matches_sympy(mat)


def test_smith_diagonal_matches_sympy_on_submodule_bases():
    # the Hermite bases `_invariant_factors` is handed for quotients M/N
    for ring, factors in ((ModularRing(4), (2, 2, 4)), (ModularRing(36), (6, 36))):
        for n in enumerate_submodules(FinModule(ring, factors)).all:
            _smith_diagonal_matches_sympy(n.basis)


@given(matrices())
def test_hnf_matches_sympy(mat):
    k = len(mat[0])
    # sympy's HNF is column-style: its columns span the rows of mat
    h = hermite_normal_form(Matrix(mat).T)
    cols = [tuple(int(x) for x in h.col(j)) for j in range(h.cols)]
    assert intmat.hnf(mat, k) == intmat.hnf(cols, k)


@given(st.data())
def test_multiple_order_is_least_by_search(data):
    # a random square HNF: pivots d_j, entries above pivot j in [0, d_j)
    k = data.draw(st.integers(1, 3))
    d = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    h = tuple(
        tuple(
            d[j] if j == i else data.draw(st.integers(0, d[j] - 1)) if j > i else 0
            for j in range(k)
        )
        for i in range(k)
    )
    assert intmat.hnf_square(h, k) == h
    v = data.draw(st.lists(entries(), min_size=k, max_size=k))
    least = next(
        c for c in range(1, det(h) + 1) if intmat.in_rowspan(h, [c * x for x in v])
    )
    assert intmat.multiple_order(h, v) == least


def test_lattice_intersect_examples():
    assert intmat.lattice_intersect(((4,),), ((6,),), 1) == ((12,),)
    a = ((2, 0), (0, 2))
    b = ((1, 1), (0, 4))
    inter = intmat.lattice_intersect(a, b, 2)
    for row in inter:
        assert intmat.in_rowspan(a, row) and intmat.in_rowspan(b, row)


@given(st.integers(1, 30), st.integers(1, 30))
def test_lattice_intersect_rank_one(a, b):
    from math import lcm

    assert intmat.lattice_intersect(((a,),), ((b,),), 1) == ((lcm(a, b),),)


def test_multiple_order():
    h = ((2, 0), (0, 4))
    assert intmat.multiple_order(h, (1, 1)) == 4
    assert intmat.multiple_order(h, (1, 0)) == 2
    assert intmat.multiple_order(h, (0, 0)) == 1


def test_hnf_empty_and_zero_rows():
    assert intmat.hnf([], 3) == ()
    assert intmat.hnf([(0, 0, 0)], 3) == ()
    assert intmat.hnf_square([(1, 0), (0, 1), (5, 7)], 2) == ((1, 0), (0, 1))
