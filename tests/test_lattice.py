from math import lcm

import pytest

from coidem import lattice
from coidem.lattice import (
    LatticeCapExceeded,
    ci_decomposition,
    completely_irreducibles,
    enumerate_submodules,
)
from coidem.modules import (
    FinModule,
    full_submodule,
    module_from_factors,
    product_module,
    sub_intersect,
    sub_leq,
    submodule_from_generators,
)
from coidem.rings import ModularRing
from coidem.theorems import factor_lists

from oracles import naive_oracle

Z12 = ModularRing(12)
Z4 = ModularRing(4)
Z2 = ModularRing(2)


def test_counts_examples():
    assert len(enumerate_submodules(module_from_factors(Z2, [2, 2]))) == 5
    assert len(enumerate_submodules(module_from_factors(Z12, [12]))) == 6
    assert len(enumerate_submodules(module_from_factors(Z4, [4, 2]))) == 8


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_counts_closed_forms():
    # d(n) submodules for Z/n; 8198 (d = 4) and 75600 (d = 120) are beyond
    # the element oracle's 4096 guard
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 30, 8198, 75600):
        m = module_from_factors(ModularRing(n), [n])
        divisor_count = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(enumerate_submodules(m)) == divisor_count
    # p + 3 submodules for Z/p + Z/p
    for p in (2, 3, 5):
        m = module_from_factors(ModularRing(p), [p, p])
        assert len(enumerate_submodules(m)) == p + 3
    # multiplicative across coprime components
    m66 = module_from_factors(ModularRing(6), [6, 6])
    assert len(enumerate_submodules(m66)) == 5 * 6
    # (Z/p)^r has [r choose k]_p subspaces of dimension k, and each of them
    # is covered by the [r-k choose 1]_p subspaces one dimension up
    for p, r, subs, covers in ((2, 5, 374, 2077), (3, 4, 212, 1120), (5, 3, 64, 248)):
        lat = enumerate_submodules(FinModule(ModularRing(p), (p,) * r))
        dims = range(r + 1)
        assert len(lat) == subs == sum(_gaussian_binomial(r, k, p) for k in dims)
        assert len(lat.covers) == covers == sum(
            _gaussian_binomial(r, k, p) * _gaussian_binomial(r - k, 1, p) for k in dims
        )


def test_lattice_contains_extremes_and_closure():
    m = module_from_factors(Z4, [4, 2])
    lat = enumerate_submodules(m)
    assert lat.all[0].order == 1 and lat.all[-1].order == m.order
    from coidem.modules import sub_sum

    for a in lat.all:
        for b in lat.all:
            assert sub_sum(a, b) in lat.index
            assert sub_intersect(a, b) in lat.index


def test_oracle_matches_enumeration_small():
    for n, facs in [(12, (12,)), (2, (2, 2)), (4, (4, 2)), (6, (6,)), (9, (3, 3)),
                    (8, (2, 2, 2)), (16, (4, 4)), (6, (2, 3))]:
        m = module_from_factors(ModularRing(n), facs)
        lat = enumerate_submodules(m)
        oracle = naive_oracle(m)
        assert {frozenset(s.elements()) for s in lat.all} == set(oracle)


def test_oracle_guard():
    with pytest.raises(LatticeCapExceeded):
        naive_oracle(module_from_factors(ModularRing(16), [16] * 4), max_order=4096)


def test_cap_guard():
    with pytest.raises(LatticeCapExceeded):
        enumerate_submodules(FinModule(Z2, (2,) * 5), cap=10)


def test_cap_is_honoured_above_the_default(monkeypatch):
    monkeypatch.setattr(lattice, "_memory_cache", {})
    monkeypatch.setattr(lattice, "DEFAULT_CAP", 10)
    m = FinModule(Z2, (2,) * 4)
    assert len(enumerate_submodules(m, cap=1000)) == 67
    lattice._memory_cache.clear()
    with pytest.raises(LatticeCapExceeded):
        enumerate_submodules(m, cap=10)


def test_completely_irreducibles_examples():
    m12 = module_from_factors(Z12, [12])
    gens = sorted(ci.basis[0][0] for ci in completely_irreducibles(m12))
    assert gens == [2, 3, 4]
    m4 = module_from_factors(Z4, [4])
    assert sorted(c.order for c in completely_irreducibles(m4)) == [1, 2]
    m22 = module_from_factors(Z2, [2, 2])
    cis = completely_irreducibles(m22)
    assert sorted(c.order for c in cis) == [2, 2, 2]


def test_ci_decomposition_examples():
    m12 = module_from_factors(Z12, [12])
    n6 = submodule_from_generators(m12, [(6,)])
    assert sorted(d.basis[0][0] for d in ci_decomposition(n6)) == [2, 3]
    ci0 = completely_irreducibles(module_from_factors(Z4, [4]))[0]
    assert ci_decomposition(ci0) == (ci0,)
    assert ci_decomposition(full_submodule(m12)) == ()


def test_every_submodule_is_meet_of_its_ci_decomposition():
    for n, facs in [(12, (12,)), (2, (2, 2, 2)), (4, (4, 2)), (6, (6, 2)), (16, (16,)),
                    (8, (2, 4)), (9, (3, 3))]:
        m = module_from_factors(ModularRing(n), facs)
        for sub in enumerate_submodules(m).all:
            dec = ci_decomposition(sub)
            acc = full_submodule(m)
            for d in dec:
                acc = sub_intersect(acc, d)
                assert sub_leq(sub, d)
            assert acc == sub
            # irredundant: dropping any member grows the intersection
            for skip in range(len(dec)):
                acc2 = full_submodule(m)
                for j, d in enumerate(dec):
                    if j != skip:
                        acc2 = sub_intersect(acc2, d)
                assert acc2 != sub


def _covers_by_scan(lat):
    # the cubic definition: all[i] ⊂ all[j] with nothing strictly between
    leq = lat.leq
    k = len(lat.all)
    return {
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j
        and leq[i][j]
        and not any(l != i and l != j and leq[i][l] and leq[l][j] for l in range(k))
    }


def test_covers_consistency_by_scan():
    shapes = sorted({f for n in range(2, 33) for f in factor_lists(n, 32)})
    assert len(shapes) == 77  # every factor shape of order <= 32
    modules = [FinModule(ModularRing(lcm(*f)), f) for f in shapes]
    modules.append(
        product_module(
            module_from_factors(Z4, [4, 2]), module_from_factors(ModularRing(3), [3])
        )
    )
    for m in modules:
        lat = enumerate_submodules(m)
        assert set(lat.covers) == _covers_by_scan(lat), m


def test_product_lattice():
    ma = module_from_factors(Z2, [2])
    mb = module_from_factors(ModularRing(3), [3])
    mp = product_module(ma, mb)
    lat = enumerate_submodules(mp)
    assert len(lat) == 4
    oracle = naive_oracle(mp)
    assert {frozenset(s.elements()) for s in lat.all} == set(oracle)
