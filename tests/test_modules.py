import random
from dataclasses import replace
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import given

from coidem import modules
from coidem.lattice import enumerate_submodules
from coidem.modules import (
    FinModule,
    ProductModule,
    ProductSubmodule,
    annihilator,
    colon_into,
    colon_ring,
    full_submodule,
    ideal_action,
    localize_module,
    module_from_factors,
    product_module,
    quotient_module,
    s_torsion,
    scalar_submodule,
    sub_intersect,
    sub_leq,
    sub_sum,
    submodule_as_module,
    submodule_from_generators,
    zero_submodule,
)
from coidem.multsets import MultSet, closure_in_ring, product_multset, satisfies_max_multiple
from coidem.rings import (
    ModularRing,
    ProductRing,
    Z,
    all_ideals,
    ideal,
    ideal_intersect,
    ideal_product,
    unit_ideal,
)
from coidem.theorems import factor_lists, s_choices

from oracles import (
    _additive_closure,
    ideal_leq,
    submodule_elements,
    torsion_by_scan,
    z_multset_contains,
)

Z12 = ModularRing(12)
Z4 = ModularRing(4)
Z6 = ModularRing(6)
Z2 = ModularRing(2)

M12 = module_from_factors(Z12, [12])
M4 = module_from_factors(Z4, [4])
M42 = module_from_factors(Z4, [4, 2])
M22 = module_from_factors(Z2, [2, 2])


def small_modules(max_order=16, moduli=(2, 3, 4, 6, 8, 9, 12)):
    out = []
    for n in moduli:
        ring = ModularRing(n)
        divs = [d for d in range(2, n + 1) if n % d == 0]
        lists = [()]
        for _ in range(3):
            lists = lists + [
                t + (d,) for t in lists for d in divs if (not t or d >= t[-1])
            ]
        seen = set()
        for t in lists:
            if t and t not in seen:
                seen.add(t)
                m = FinModule(ring, t)
                if 2 <= m.order <= max_order:
                    out.append(m)
    return out


def test_module_from_factors():
    assert module_from_factors(Z4, [2, 4]).factors == (2, 4)
    rebased = module_from_factors(Z, [2, 2])
    assert rebased.ring == Z2 and rebased.factors == (2, 2)
    assert module_from_factors(Z6, [1, 6]).factors == (6,)
    with pytest.raises(ValueError):
        module_from_factors(Z4, [3])


def test_submodule_from_generators_examples():
    n2 = submodule_from_generators(M4, [(2,)])
    assert sorted(submodule_elements(n2)) == [(0,), (2,)]
    line = submodule_from_generators(M22, [(1, 0)])
    assert sorted(submodule_elements(line)) == [(0, 0), (1, 0)]
    cyc = submodule_from_generators(M42, [(1, 1)])
    assert sorted(submodule_elements(cyc)) == sorted([(0, 0), (1, 1), (2, 0), (3, 1)])
    with pytest.raises(ValueError):
        submodule_from_generators(M4, [(1, 0)])


def test_sum_intersect_examples():
    m6 = module_from_factors(Z6, [6])
    assert sub_sum(
        submodule_from_generators(m6, [(2,)]), submodule_from_generators(m6, [(3,)])
    ) == full_submodule(m6)
    a4 = submodule_from_generators(M12, [(4,)])
    a6 = submodule_from_generators(M12, [(6,)])
    assert sub_intersect(a4, a6) == zero_submodule(M12)
    assert sub_sum(a4, a4) == a4


def test_ideal_action_examples():
    n3 = submodule_from_generators(M12, [(3,)])
    assert ideal_action(ideal(Z12, 2), n3) == submodule_from_generators(M12, [(6,)])
    assert ideal_action(ideal(Z12, 0), n3) == zero_submodule(M12)
    assert ideal_action(unit_ideal(Z12), n3) == n3


def test_colon_into_examples():
    assert colon_into(zero_submodule(M12), ideal(Z12, 2)) == submodule_from_generators(
        M12, [(6,)]
    )
    n2 = submodule_from_generators(M12, [(2,)])
    assert colon_into(n2, ideal(Z12, 3)) == n2
    assert colon_into(n2, ideal(Z12, 0)) == full_submodule(M12)


def test_colon_ring_and_annihilator_examples():
    n2 = submodule_from_generators(M4, [(2,)])
    assert colon_ring(n2, full_submodule(M4)) == ideal(Z4, 2)
    m24 = module_from_factors(Z4, [2, 4])
    assert annihilator(full_submodule(m24)) == ideal(Z4, 0)
    assert annihilator(zero_submodule(m24)) == unit_ideal(Z4)
    line = submodule_from_generators(M22, [(1, 0)])
    assert annihilator(line) == ideal(Z2, 0)
    assert colon_ring(n2, n2) == unit_ideal(Z4)


def test_scalar_submodule_examples():
    assert scalar_submodule(3, full_submodule(M4)) == full_submodule(M4)
    assert scalar_submodule(2, full_submodule(M4)) == submodule_from_generators(
        M4, [(2,)]
    )
    assert scalar_submodule(0, full_submodule(M4)) == zero_submodule(M4)


def test_quotient_examples():
    assert quotient_module(M12, submodule_from_generators(M12, [(4,)])).factors == (4,)
    diag = submodule_from_generators(M22, [(1, 1)])
    assert quotient_module(M22, diag).factors == (2,)
    assert quotient_module(M22, full_submodule(M22)).factors == ()
    # (Z/2 ⊕ Z/3) / 0 ≅ Z/6: the quotient comes back in invariant-factor form
    m23 = FinModule(Z6, (2, 3))
    assert quotient_module(m23, zero_submodule(m23)).factors == (6,)


def test_s_torsion_examples():
    s2 = closure_in_ring(Z12, [2])
    assert s_torsion(M12, s2) == submodule_from_generators(M12, [(3,)])
    s_units = MultSet(Z12, frozenset({1, 5, 7, 11}))
    assert s_torsion(M12, s_units) == zero_submodule(M12)
    s0 = closure_in_ring(Z12, [0])
    assert s_torsion(M12, s0) == full_submodule(M12)


def test_s_torsion_matches_element_scan():
    # every module over Z/n (n <= 64) of order <= 64, under every corpus S
    for n in range(2, 65):
        ring = ModularRing(n)
        sets = s_choices(ring)
        for factors in factor_lists(n, 64):
            m = FinModule(ring, factors)
            for s in sets:
                torsion = s_torsion(m, s)
                scan = torsion_by_scan(m, s)
                assert len(scan) == torsion.order, (m, s)
                assert scan <= set(submodule_elements(torsion)), (m, s)


def test_localize_module_examples():
    s2 = closure_in_ring(Z12, [2])
    lm = localize_module(M12, s2)
    assert lm.ring == ModularRing(3)
    assert lm.module.factors == (3,)
    s13 = MultSet(Z4, frozenset({1, 3}))
    assert localize_module(M4, s13).module == M4
    s0 = closure_in_ring(Z6, [0])
    assert localize_module(module_from_factors(Z6, [6]), s0).trivial
    # s* = 4 kills the Z/4 coordinate of Z/4 ⊕ Z/3; the Z/3 one survives
    m43 = FinModule(Z12, (4, 3))
    lm = localize_module(m43, s2)
    assert lm.module == FinModule(ModularRing(3), (3,))
    n = submodule_from_generators(m43, [(1, 0)])
    assert lm.map_submodule(n) == zero_submodule(lm.module)
    assert lm.map_submodule(full_submodule(m43)) == full_submodule(lm.module)
    assert lm.map_ideal(ideal(Z12, 4)) == unit_ideal(lm.ring)


def test_localize_product_with_a_collapsing_component():
    # S = {0, 1} × units kills the Z/2 factor of Z/2 × Z/3 and keeps Z/3
    z3 = ModularRing(3)
    mp = product_module(FinModule(Z2, (2,)), FinModule(z3, (3,)))
    s = product_multset(closure_in_ring(Z2, [0]), MultSet(z3, frozenset({1, 2})))
    assert satisfies_max_multiple(s) == (0, 1)
    loc = localize_module(mp, s)
    assert not loc.trivial
    assert loc.ring == ProductRing((z3,))
    assert loc.module == ProductModule(loc.ring, (FinModule(z3, (3,)),))
    assert loc.map_ideal(ideal(mp.ring, (1, 3))) == ideal(loc.ring, (0,))
    assert loc.map_ideal(ideal(mp.ring, (2, 1))) == unit_ideal(loc.ring)
    line = submodule_from_generators(mp, [((1,), (0,))])
    assert loc.map_submodule(line) == zero_submodule(loc.module)
    assert loc.map_submodule(full_submodule(mp)) == full_submodule(loc.module)
    # both components collapse when S contains 0
    s00 = product_multset(closure_in_ring(Z2, [0]), closure_in_ring(z3, [0]))
    assert localize_module(mp, s00).trivial


def test_localize_closed_form_matches_smith_quotient():
    # every module over Z/n with |M| <= 32 under every corpus S: the closed
    # form against the Smith-form quotient of M by its S-torsion.  The
    # torsion is (0 :_M s*), so the sweep over N runs once per distinct s*.
    for n in range(2, 33):
        ring = ModularRing(n)
        sets = s_choices(ring)
        for factors in factor_lists(n, 32):
            m = FinModule(ring, factors)
            subs = enumerate_submodules(m).all
            swept = set()
            for s in sets:
                star = satisfies_max_multiple(s)
                torsion = s_torsion(m, s)
                quotient = quotient_module(m, torsion)
                loc = localize_module(m, s)
                kept = n // gcd(n, star)
                if kept == 1:
                    assert loc.trivial and quotient.factors == (), (m, s)
                    continue
                assert loc.ring == ModularRing(kept), (m, s)
                assert quotient_module(loc.module, zero_submodule(loc.module)).factors == (
                    quotient.factors
                ), (m, s)
                if star in swept:
                    continue
                swept.add(star)
                for sub in subs:
                    image = loc.map_submodule(sub).order
                    assert image == sub_sum(sub, torsion).order // torsion.order, (m, s, sub)


# -- laws ---------------------------------------------------------------------


def test_galois_adjunction_exhaustive_small():
    for m in small_modules(max_order=12):
        subs = enumerate_submodules(m).all
        for i in all_ideals(m.ring):
            for n in subs:
                action = ideal_action(i, n)
                for k in subs:
                    lhs = sub_leq(action, k)
                    mid = ideal_leq(i, colon_ring(k, n))
                    rhs = sub_leq(n, colon_into(k, i))
                    assert lhs == mid == rhs


def test_automatic_inclusions_and_annihilator_laws():
    for m in small_modules(max_order=12):
        subs = enumerate_submodules(m).all
        full = full_submodule(m)
        zero = zero_submodule(m)
        for n in subs:
            ann = annihilator(n)
            ann2 = ideal_product(ann, ann)
            assert sub_leq(n, colon_into(zero, ann2))
            c = colon_ring(n, full)
            assert sub_leq(ideal_action(ideal_product(c, c), full), n)
            for k in subs:
                assert annihilator(sub_sum(n, k)) == ideal_intersect(
                    annihilator(n), annihilator(k)
                )
                assert ideal_leq(
                    ideal_product(annihilator(n), annihilator(k)),
                    annihilator(sub_sum(n, k)),
                )


@given(st.sampled_from([(2, (2,) * 5), (8, (2, 8)), (12, (2, 2, 3)), (16, (4, 4))]),
       st.integers(0, 10**6))
def test_adjunction_sampled_midsize(spec, seed):
    n, factors = spec
    m = FinModule(ModularRing(n), factors)
    rng = random.Random(seed)
    subs = enumerate_submodules(m).all
    ideals = all_ideals(m.ring)
    i = rng.choice(ideals)
    a, b = rng.choice(subs), rng.choice(subs)
    assert sub_leq(ideal_action(i, a), b) == ideal_leq(i, colon_ring(b, a))
    assert sub_leq(ideal_action(i, a), b) == sub_leq(a, colon_into(b, i))


def _killed_counts(m, n, q):
    """For each d: the cosets of N in M that d kills, and the elements of Q."""
    elements = set(submodule_elements(n))
    quotient = list(q.elements())
    for d in range(1, m.order + 1):
        cosets = sum(1 for x in m.elements() if m.scale(d, x) in elements) // len(elements)
        yield d, cosets, sum(1 for y in quotient if not any(q.scale(d, y)))


def test_quotient_module_is_isomorphic():
    # M/N and quotient_module(M, N) kill the same number of elements for
    # every d, which pins a finite abelian group up to isomorphism; the
    # correspondence theorem fixes the size of the quotient's lattice
    for m in small_modules(max_order=16):
        lat = enumerate_submodules(m)
        for n in lat.all:
            q = quotient_module(m, n)
            assert q.ring == m.ring
            for d, cosets, killed in _killed_counts(m, n, q):
                assert cosets == killed, (m, n, d)
            over = [s for s in lat.all if sub_leq(n, s)]
            assert len(enumerate_submodules(q)) == len(over)


def test_quotient_correspondence_sampled_jumbo():
    m = FinModule(Z2, (2,) * 5)
    lat = enumerate_submodules(m)
    rng = random.Random(7)
    for _ in range(5):
        n = rng.choice(lat.all)
        q = quotient_module(m, n)
        assert q.order == m.order // n.order
        over = [s for s in lat.all if sub_leq(n, s)]
        assert len(enumerate_submodules(q)) == len(over)


def test_submodule_as_module_is_isomorphic():
    # a finite abelian group is determined up to isomorphism by how many
    # elements each d kills; count those by brute force on both sides
    for m in small_modules(max_order=16):
        lat = enumerate_submodules(m)
        for n in lat.all:
            abstract = submodule_as_module(n)
            elements = submodule_elements(n)
            images = list(abstract.elements())
            for d in range(1, m.order + 1):
                in_n = sum(1 for x in elements if not any(m.scale(d, x)))
                in_a = sum(1 for y in images if not any(abstract.scale(d, y)))
                assert in_n == in_a, (m, n, d)
            inside = [s for s in lat.all if sub_leq(s, n)]
            assert len(enumerate_submodules(abstract)) == len(inside)


def test_product_module_ops_are_componentwise():
    ma = module_from_factors(Z2, [2, 2])
    mb = module_from_factors(ModularRing(3), [3])
    mp = product_module(ma, mb)
    np = submodule_from_generators(mp, [((1, 0), (0,)), ((0, 0), (1,))])
    assert np.order == 6
    assert annihilator(np).data == (2, 3)  # kills the (1,0) line, kills Z/3 never
    q = quotient_module(mp, np)
    assert q.order == mp.order // np.order
    lat = enumerate_submodules(mp)
    assert len(lat) == len(enumerate_submodules(ma)) * len(enumerate_submodules(mb))


def test_memoized_operators_match_element_scans(cold_caches):
    """`colon_into`, `colon_ring`, `ideal_action`, `sub_sum` and
    `sub_intersect` are memoized on integer keys (factors, Hermite bases,
    generators reduced mod the exponent e); on every module over Z/n of order
    at most 16 and two product modules, each agrees with an element scan for
    all N, K and every ideal I (a sum is the additive closure of N ∪ K, an
    intersection the common elements), and a repeated call with an equal (not
    identical) key returns the very basis first built, or for `colon_ring` is
    a hit of the generator memo with no new miss.  The same shape over Z/2,
    Z/4 and Z/8 shares those stored values."""
    # from cold caches, (2, 2) over Z/2, Z/4 and Z/8: an ideal (d) acts as
    # (gcd(d, 2)), so equal keys across the rings return the identical stored
    # basis, and every lifted colon_ring is a generator-memo hit, no new miss
    base, *others = (FinModule(ModularRing(n), (2, 2)) for n in (2, 4, 8))
    subs = enumerate_submodules(base).all
    for m in others:
        for n in subs:
            lifted = replace(n, module=m)
            for d in (1, 2, 4, 8):
                i, i_base = ideal(m.ring, d), ideal(base.ring, gcd(d, 2))
                assert colon_into(lifted, i).basis is colon_into(n, i_base).basis
                assert ideal_action(i, lifted).basis is ideal_action(i_base, n).basis
            for k in subs:
                expected = colon_ring(n, k).data
                found = _memo_hit(modules._colon_generator, colon_ring, lifted, replace(k, module=m))
                assert found.ring == m.ring and found.data == expected

    products = [
        product_module(FinModule(Z4, (2, 4)), FinModule(ModularRing(3), (3,))),
        product_module(FinModule(Z2, (2, 2)), FinModule(ModularRing(5), (5,))),
    ]
    mods = [FinModule(ModularRing(n), f) for n in range(2, 17) for f in factor_lists(n, 16)]
    assert len(mods) == 87
    for m in mods + products:
        ring = m.ring
        subs = enumerate_submodules(m).all
        elems = {n: frozenset(submodule_elements(n)) for n in subs}
        ideal_elems = {
            i: frozenset(ring.mul(i.data, r) for r in ring.elements()) for i in all_ideals(ring)
        }
        # every r·K and I·x as element sets, built once
        scaled = {
            k: [(r, frozenset(m.scale(r, x) for x in elems[k])) for r in ring.elements()]
            for k in subs
        }
        orbits = {
            i: [(x, frozenset(m.scale(r, x) for r in ie)) for x in m.elements()]
            for i, ie in ideal_elems.items()
        }
        for n in subs:
            in_n = elems[n]
            twin = replace(n)
            assert twin == n and twin is not n
            for i, i_elems in ideal_elems.items():
                colon = colon_into(n, i)
                scan = frozenset(x for x, ix in orbits[i] if ix <= in_n)
                assert elems.get(colon) == scan, (m, n, i)
                action = ideal_action(i, n)
                seed = frozenset().union(*(rn for r, rn in scaled[n] if r in i_elems))
                assert elems.get(action) == _additive_closure(m, seed), (m, n, i)
                assert _shares_bases(colon_into(twin, i), colon)
                assert _shares_bases(ideal_action(i, twin), action)
            for k in subs:
                found = colon_ring(n, k)
                scan = frozenset(r for r, rk in scaled[k] if rk <= in_n)
                assert ideal_elems[found] == scan, (m, n, k)
                assert _memo_hit(modules._colon_generator, colon_ring, twin, k) == found
                total, meet = sub_sum(n, k), sub_intersect(n, k)
                assert elems.get(total) == _additive_closure(m, in_n | elems[k]), (m, n, k)
                assert elems.get(meet) == in_n & elems[k], (m, n, k)
                assert _shares_bases(_memo_hit(modules._hermite_basis, sub_sum, twin, k), total)
                assert _shares_bases(_memo_hit(modules._intersect_basis, sub_intersect, twin, k), meet)


def _memo_hit(memo, f, *args):
    """f(*args), asserting that `memo` answered it: more hits, no new miss."""
    before = memo.cache_info()
    out = f(*args)
    after = memo.cache_info()
    assert after.hits > before.hits and after.misses == before.misses, (memo, args)
    return out


def _shares_bases(a, b) -> bool:
    """a and b hold the identical stored basis, part by part over a product ring."""
    if isinstance(a, ProductSubmodule):
        return all(map(_shares_bases, a.parts, b.parts))
    return a.basis is b.basis


def test_z_declared_reduction_soundness():
    # evaluating the coidempotency inclusion with explicit integer scalars
    # agrees with the reduced computation over Z/e
    from coidem.multsets import reduce_presentation, ZComplementOfPrimes, ZGeneratedBy
    from coidem.predicates import coidempotent

    for factors in [(2, 2), (4,), (2, 4), (6,)]:
        m = module_from_factors(Z, factors)
        e = m.ring.n
        for pres in (ZComplementOfPrimes((2,)), ZGeneratedBy((2,)), ZGeneratedBy((3,))):
            reduced = reduce_presentation(pres, e)
            for n in enumerate_submodules(m).all:
                verdict = coidempotent(m, n, pres)
                ann = annihilator(n)
                x = colon_into(zero_submodule(m), ideal_product(ann, ann))
                # search explicit integer scalars t in S with |t| bounded
                found = None
                for t in range(-4 * e, 4 * e + 1):
                    if z_multset_contains(pres, t) and sub_leq(
                        scalar_submodule(t % e, x), n
                    ):
                        found = t
                        break
                if found is not None:
                    assert verdict.holds  # an explicit integer scalar witnesses it
                if verdict.holds:
                    assert verdict.witness in reduced.elements
