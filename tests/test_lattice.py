import itertools
from math import lcm

import pytest
from sympy import divisor_count

from coidem import cli, intmat, lattice, modules
from coidem.lattice import LatticeCapExceeded, enumerate_submodules
from coidem.modules import (
    FinModule,
    full_submodule,
    module_from_factors,
    product_module,
    quotient_module,
    sub_intersect,
    sub_leq,
)
from coidem.rings import ModularRing, factorize
from coidem.theorems import factor_lists

from oracles import (
    closure_bases,
    leq_by_pairs,
    naive_oracle,
    submodule_elements,
    upper_covers_by_colon,
)

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


def _rank_two_count(p, a, b):
    """Subgroups of Z/p^a + Z/p^b, a <= b (L. Tóth, Tatra Mt. Math. Publ. 59, 2014)."""
    num = (
        (b - a + 1) * p ** (a + 2) - (b - a - 1) * p ** (a + 1) - (a + b + 3) * p + (a + b + 1)
    )
    return num // (p - 1) ** 2


def test_counts_closed_forms():
    # d(n) submodules for Z/n; from 8198 on beyond the element oracle's 4096
    # guard, and 5^9, the prime 10^9 + 7 and 10^9 beyond any element scan
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 30, 8198, 75600, 5**9, 10**9 + 7, 10**9):
        m = module_from_factors(ModularRing(n), [n])
        assert len(enumerate_submodules(m)) == divisor_count(n)
    # p + 3 submodules for Z/p + Z/p
    for p in (2, 3, 5):
        m = module_from_factors(ModularRing(p), [p, p])
        assert len(enumerate_submodules(m)) == p + 3
    # multiplicative across coprime components
    m66 = module_from_factors(ModularRing(6), [6, 6])
    assert len(enumerate_submodules(m66)) == 5 * 6
    # (Z/p)^r has [r choose k]_p subspaces of dimension k, and each of them
    # is covered by the [r-k choose 1]_p subspaces one dimension up
    cases = ((2, 5, 374, 2077), (3, 4, 212, 1120), (5, 3, 64, 248), (2, 6, 2825, 23562))
    for p, r, subs, covers in cases:
        lat = enumerate_submodules(FinModule(ModularRing(p), (p,) * r))
        dims = range(r + 1)
        assert len(lat) == subs == sum(_gaussian_binomial(r, k, p) for k in dims)
        assert len(lat.covers) == covers == sum(
            _gaussian_binomial(r, k, p) * _gaussian_binomial(r - k, 1, p) for k in dims
        )
    # rank two: Z/p^a + Z/p^b in either coordinate order, and glued across primes
    cases = [(p, a, b) for p in (2, 3, 5, 7) for b in range(1, 7) for a in range(1, b + 1)]
    cases = [c for c in cases if c[0] ** (c[1] + c[2]) <= 10**6] + [(2, 10, 12)]
    assert len(cases) == 70
    for p, a, b in cases:
        for factors in {(p**a, p**b), (p**b, p**a)}:
            m = FinModule(ModularRing(p**b), factors)
            assert len(enumerate_submodules(m)) == _rank_two_count(p, a, b), factors
    assert _rank_two_count(2, 6, 6) == 367 and _rank_two_count(2, 10, 12) == 10213
    m = FinModule(ModularRing(4 * 27), (2 * 9, 4 * 27))
    assert len(enumerate_submodules(m)) == _rank_two_count(2, 1, 2) * _rank_two_count(3, 2, 3)


def test_generator_matches_closure_fixpoint():
    """Row-by-row bases equal the closure fixpoint's, on every prime-power
    shape of order <= 50 in every coordinate order, and each is already its
    own Hermite form modulo the relations (so the lattice wraps it as is)."""
    shapes = {
        tuple(p**e for e in exps)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        for k in range(1, 6)
        for exps in itertools.product(range(1, 6), repeat=k)
        if p ** sum(exps) <= 50
    }
    assert len(shapes) == 55
    for factors in sorted(shapes):
        bases = lattice._p_component_bases_cached(factors, lattice.DEFAULT_CAP)
        assert sorted(bases) == closure_bases(factors, lattice.DEFAULT_CAP), factors
        relations = intmat.diagonal(factors)
        assert all(intmat.hnf_square([*b, *relations], len(factors)) == b for b in bases), factors


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
        assert {frozenset(submodule_elements(s)) for s in lat.all} == set(oracle)


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
    lat = enumerate_submodules(m, cap=1000)
    # the covers index the bases the lattice was built from, under its own cap
    assert len(lat) == 67 and len(lat.covers) == 240
    lattice._memory_cache.clear()
    with pytest.raises(LatticeCapExceeded):
        enumerate_submodules(m, cap=10)


def _completely_irreducibles(m):
    return enumerate_submodules(m).completely_irreducibles()


def test_completely_irreducibles_examples():
    m12 = module_from_factors(Z12, [12])
    gens = sorted(ci.basis[0][0] for ci in _completely_irreducibles(m12))
    assert gens == [2, 3, 4]
    m4 = module_from_factors(Z4, [4])
    assert sorted(c.order for c in _completely_irreducibles(m4)) == [1, 2]
    m22 = module_from_factors(Z2, [2, 2])
    cis = _completely_irreducibles(m22)
    assert sorted(c.order for c in cis) == [2, 2, 2]


def test_every_submodule_is_meet_of_its_ci_decomposition():
    """Every N is the intersection of the completely irreducibles above it,
    and the full module (the empty intersection) lies under none of them."""
    for n, facs in [(12, (12,)), (2, (2, 2, 2)), (4, (4, 2)), (6, (6, 2)), (16, (16,)),
                    (8, (2, 4)), (9, (3, 3))]:
        m = module_from_factors(ModularRing(n), facs)
        cis = _completely_irreducibles(m)
        for sub in enumerate_submodules(m).all:
            acc = full_submodule(m)
            for ci in cis:
                if sub_leq(sub, ci):
                    acc = sub_intersect(acc, ci)
            assert acc == sub
        assert not any(sub_leq(full_submodule(m), ci) for ci in cis)


def test_covers_make_no_pairwise_containment_test(monkeypatch):
    """Covers are read off the row-by-row enumeration, so enumerating (Z/2)^5
    and building its covers asks `sub_leq` nothing and makes no HNF: neither
    the n² containment table nor one HNF per edge can come back unnoticed."""
    monkeypatch.setattr(lattice, "_memory_cache", {})
    lattice._p_component_covers_cached.cache_clear()
    calls = []
    for mod in (modules, lattice):
        if hasattr(mod, "sub_leq"):
            monkeypatch.setattr(mod, "sub_leq", lambda n, k: calls.append("sub_leq") or True)
    hnf = intmat.hnf
    monkeypatch.setattr(intmat, "hnf", lambda *args: calls.append("hnf") or hnf(*args))
    assert len(enumerate_submodules(FinModule(Z2, (2,) * 5)).covers) == 2077
    assert not calls


def test_upper_covers_match_the_colon_route(monkeypatch):
    """The covers read off the enumeration equal the ones found by linear
    algebra in (N :_M p)/N, on every single-prime shape of order <= 256 with
    at most 1000 submodules and on (Z/2)^6, each over two rings."""
    monkeypatch.setattr(lattice, "_memory_cache", {})
    shapes = sorted({f for n in range(2, 257) for f in factor_lists(n, 256)})
    shapes = [f for f in shapes if len(factorize(lcm(*f))) == 1]
    assert len(shapes) == 147
    checked = set()
    for f, cap in [*((f, 1000) for f in shapes), ((2,) * 6, lattice.DEFAULT_CAP)]:
        for n in (lcm(*f), 6 * lcm(*f)):
            try:
                lat = enumerate_submodules(FinModule(ModularRing(n), f), cap=cap)
            except LatticeCapExceeded:
                continue
            assert [set(up) for up in lat.upper_covers] == upper_covers_by_colon(lat), (f, n)
            checked.add(f)
    assert len(checked) == 134 and (3,) * 4 in checked and (2,) * 6 in checked


def test_elementary_abelian_cover_counts():
    """(Z/p)^k has [k choose j]_p subspaces of dimension j, each covered by
    [k-j choose 1]_p, for p in {2, 3, 5} and k <= 5."""
    for p in (2, 3, 5):
        for k in range(6):
            covers = lattice._p_component_covers_cached((p,) * k, lattice.DEFAULT_CAP)
            assert sum(map(len, covers)) == sum(
                _gaussian_binomial(k, j, p) * _gaussian_binomial(k - j, 1, p) for j in range(k)
            ), (p, k)
    lattice._p_component_covers_cached.cache_clear()  # (Z/5)^5 has 874,720 covers


def test_lattice_path_leaves_the_colon_memo_alone(capsys, cold_caches):
    """`enumerate --hasse` computes no colon, sum, intersection or Smith form,
    so it adds nothing to those memos: the lattice path used to fill the colon
    memo with entries it never read, and the glued mixed-prime module Z/6+Z/36
    builds its Hermite bases with `hnf_square`, once each, off the sum memo."""
    memos = (modules._colon_basis, modules._hermite_basis, modules._intersect_basis,
             modules._invariant_factors)
    before = [memo.cache_info() for memo in memos]
    for ring, module in (
        ("Z/2", "+".join(["Z/2"] * 6)), ("Z/4096", "Z/1024+Z/4096"), ("Z/36", "Z/6+Z/36"),
    ):
        assert cli.main(["enumerate", "--ring", ring, "--module", module, "--hasse", "--json"]) == 0
    capsys.readouterr()
    assert [memo.cache_info() for memo in memos] == before


def test_covers_are_built_once_per_shape(cold_caches):
    """The shape (2, 2, 2) over Z/2, Z/4 and Z/6 builds its covers once: one
    miss for it and one for each of its tails (2, 2), (2,) and ()."""
    for n in (2, 4, 6):
        lat = enumerate_submodules(FinModule(ModularRing(n), (2, 2, 2)))
        assert len(lat.covers) == 1 * 7 + 7 * 3 + 7 * 1
    info = lattice._p_component_covers_cached.cache_info()
    assert (info.misses, info.hits) == (4, 2)


def _pair_modules():
    shapes = sorted({f for n in range(2, 33) for f in factor_lists(n, 32)})
    assert len(shapes) == 77  # every factor shape of order <= 32
    mods = [FinModule(ModularRing(lcm(*f)), f) for f in shapes]
    mods.append(
        product_module(
            module_from_factors(Z4, [4, 2]), module_from_factors(ModularRing(3), [3])
        )
    )
    mods.append(
        product_module(
            module_from_factors(ModularRing(6), [6, 2]), module_from_factors(Z2, [2, 2])
        )
    )
    return mods


def test_leq_bits_match_pairwise_containment():
    for m in _pair_modules():
        lat = enumerate_submodules(m)
        by_pairs = leq_by_pairs(lat)
        k = len(lat)
        assert all(
            (lat.leq[i] >> j & 1) == by_pairs[i][j] for i in range(k) for j in range(k)
        ), m
        assert all(row >> k == 0 for row in lat.leq), m


def _covers_by_scan(lat):
    # the cubic definition: all[i] ⊂ all[j] with nothing strictly between
    leq = leq_by_pairs(lat)
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
    for m in _pair_modules():
        lat = enumerate_submodules(m)
        assert lat.covers == tuple(sorted(_covers_by_scan(lat))), m


def test_completely_irreducibles_are_the_cocyclic_quotients():
    """N is completely irreducible iff M/N is a nonzero cyclic p-group
    (Fuchs, Heinzer, Olberding, Trans. AMS 358, 2006): checked against the
    unique-cover count on every shape of order <= 64, over two rings."""
    shapes = sorted({f for n in range(2, 65) for f in factor_lists(n, 64)})
    assert len(shapes) == 197
    for f in shapes:
        for n in (lcm(*f), 2 * lcm(*f)):
            m = FinModule(ModularRing(n), f)
            lat = enumerate_submodules(m)
            cocyclic = set()
            for i, sub in enumerate(lat.all):
                q = quotient_module(m, sub).factors
                if len(q) == 1 and len(factorize(q[0])) == 1:
                    cocyclic.add(i)
            assert set(lat.completely_irreducible_indexes) == cocyclic, m


def test_product_lattice():
    ma = module_from_factors(Z2, [2])
    mb = module_from_factors(ModularRing(3), [3])
    mp = product_module(ma, mb)
    lat = enumerate_submodules(mp)
    assert len(lat) == 4
    oracle = naive_oracle(mp)
    assert {frozenset(submodule_elements(s)) for s in lat.all} == set(oracle)


def test_enumerate_reaches_every_layer_the_lattice_benchmark_traces(
    capsys, cold_caches, bench_tracing
):
    """`enumerate --hasse` calls each function the benchmark's `lattice`
    workload must trace, so dropping one from the lattice path fails here."""
    tracing = bench_tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["enumerate", "--ring", "Z/12", "--module", "Z/2+Z/12", "--hasse", "--json"]
        )
    finally:
        tracer.uninstall()
    assert code == 0 and '"count": 16' in capsys.readouterr().out
    summary = tracer.summary()
    missed = [n for n in tracing.EXERCISED["lattice"] if not summary.get(n, {}).get("calls")]
    assert not missed
