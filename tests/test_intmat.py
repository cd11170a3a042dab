from math import gcd

import hypothesis.strategies as st
from hypothesis import given

from coidem import intmat

from oracles import det, mat_mul


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
    u, s, v = intmat.smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    m, k = len(mat), len(mat[0])
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


@given(matrices(max_dim=3, lo=-4, hi=4))
def test_unimodular_inverse_roundtrip(mat):
    u, _, v = intmat.smith_normal_form(mat)
    for w in (u, v):
        winv = intmat.unimodular_inverse(w)
        assert mat_mul(w, winv) == intmat.identity(len(w))


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
