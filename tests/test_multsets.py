import itertools
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import given

from coidem.multsets import (
    MAX_FINITE_S,
    MultSet,
    MultSetTooLarge,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
    closure_in_ring,
    meets_ideal,
    one_multset,
    product_multset,
    reduce_presentation,
    satisfies_max_multiple,
    saturation,
)
from coidem.modules import FinModule, localize_module
from coidem.theorems import CorpusConfig, generate_corpus, s_choices
from coidem.rings import (
    ModularRing,
    RingMismatchError,
    UnsupportedRingError,
    Z,
    ideal,
    ideal_contains,
    product_ring,
)

from oracles import (
    closed_by_pairs,
    closure_by_frontier,
    divides,
    max_multiple_by_scan,
    multset_contains,
    saturation_by_scan,
    z_multset_contains,
)

Z12 = ModularRing(12)
Z4 = ModularRing(4)


def small_rings():
    return st.integers(2, 16).map(ModularRing)


def multsets(ring_strategy=None):
    ring_strategy = ring_strategy or small_rings()
    return ring_strategy.flatmap(
        lambda r: st.lists(st.integers(0, r.n - 1), max_size=3).map(
            lambda gens: closure_in_ring(r, gens)
        )
    )


def test_closure_examples():
    assert closure_in_ring(Z12, [2]).elements == frozenset({1, 2, 4, 8})
    assert closure_in_ring(Z4, [3]).elements == frozenset({1, 3})
    assert closure_in_ring(ModularRing(6), []).elements == frozenset({1})
    with pytest.raises(UnsupportedRingError):
        closure_in_ring(Z, [2])


@given(multsets())
def test_closure_is_closed_and_contains_generators(s):
    ring = s.ring
    for a in s.elements:
        for b in s.elements:
            assert ring.mul(a, b) in s.elements
    assert ring.one in s.elements


def _accepts(ring, elements) -> bool:
    try:
        MultSet(ring, frozenset(elements))
    except ValueError as exc:
        assert "closed" in str(exc) or "contain 1" in str(exc), exc
        return False
    return True


def test_closure_check_matches_pairs_on_every_subset():
    # the check by generators against the pairwise one, on all 8,188 subsets
    # of Z/n for 2 <= n <= 12
    checked = 0
    for n in range(2, 13):
        ring = ModularRing(n)
        for mask in range(1 << n):
            elements = frozenset(x for x in range(n) if mask >> x & 1)
            expected = 1 in elements and closed_by_pairs(ring, elements)
            assert _accepts(ring, elements) == expected, (n, sorted(elements))
            checked += 1
    assert checked == 8188


def test_closure_check_matches_pairs_one_element_off_a_closure():
    # every closure of at most two generators, with one element added or
    # (other than 1) removed: the sets that are nearly closed
    rings = (
        ModularRing(16),
        ModularRing(36),
        product_ring(ModularRing(2), ModularRing(4)),
        product_ring(ModularRing(3), ModularRing(4)),
    )
    checked = accepted = 0
    for ring in rings:
        elems = list(ring.elements())
        closures = {closure_by_frontier(ring, g) for g in itertools.combinations(elems, 2)}
        for c in closures:
            for y in elems:
                if y == ring.one:
                    continue
                near = c - {y} if y in c else c | {y}
                closed = closed_by_pairs(ring, near)
                assert _accepts(ring, near) == closed, (ring, y)
                checked += 1
                accepted += closed
    assert (checked, accepted) == (12550, 2315)


@given(
    st.sampled_from([ModularRing(12), ModularRing(36), ModularRing(64), ModularRing(97)])
    | st.sampled_from([(2, 4), (3, 4), (4, 6)]).map(
        lambda ns: product_ring(*(ModularRing(n) for n in ns))
    ),
    st.lists(st.integers(-200, 200), max_size=4),
)
def test_closure_matches_frontier_closure(ring, raw):
    if isinstance(ring, ModularRing):
        gens = raw
    else:
        gens = [(a, a // 7) for a in raw]
    assert closure_in_ring(ring, gens).elements == closure_by_frontier(ring, gens)


def _count_mul(monkeypatch) -> list:
    calls = [0]
    mul = ModularRing.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(ModularRing, "mul", counted)
    return calls


def test_closure_and_check_make_few_products(monkeypatch):
    # at most |S|·|G| products per pass, not |S|^2 (6,250,000 and 3,087,349
    # pairwise): Z/2500 is adjoined from G = {0, 2, 3, 5, 11}, and the closure
    # of 2 in Z/2503 (1,251 elements) takes one pass to build, one to check
    calls = _count_mul(monkeypatch)
    MultSet(ModularRing(2500), frozenset(range(2500)))
    assert calls[0] <= 2500 * 5
    calls[0] = 0
    assert len(closure_in_ring(ModularRing(2503), [2]).elements) == 1251
    assert calls[0] <= 2 * 1251


def test_non_canonical_elements_are_rejected():
    with pytest.raises(ValueError, match="canonical"):
        MultSet(Z4, frozenset({1, 5}))
    with pytest.raises(ValueError, match="canonical"):
        MultSet(Z4, frozenset({1, -3}))
    with pytest.raises(RingMismatchError):
        MultSet(product_ring(ModularRing(2), ModularRing(3)), frozenset({(1, 1), (1, 1, 1)}))


def test_finite_s_bound_is_checked_before_building(memory_cap):
    # n and n·∏(1 - 1/q) against the bound, before any element is stored
    big = 1_000_000_007
    assert MAX_FINITE_S == 1_000_000
    for p in (ZNonZero(), ZComplementOfPrimes((2, big))):
        with pytest.raises(MultSetTooLarge, match="1,000,000"):
            reduce_presentation(p, big)
    span = product_ring(ModularRing(1000), ModularRing(1009))  # lcm 1,009,000
    with pytest.raises(MultSetTooLarge):
        reduce_presentation(ZNonZero(), span)


def test_finite_s_bound_is_exact(monkeypatch):
    # the sizes are counted exactly: with a bound of 8, sets of 8 are built
    # and sets of 9 are refused
    monkeypatch.setattr("coidem.multsets.MAX_FINITE_S", 8)
    fits = [
        (ZNonZero(), 8),
        (ZComplementOfPrimes((2,)), 16),
        (ZComplementOfPrimes((2, 3, 5)), 30),
        (ZNonZero(), product_ring(ModularRing(2), ModularRing(8))),
    ]
    for p, target in fits:
        assert len(reduce_presentation(p, target).elements) == 8
    over = [
        (ZNonZero(), 9),
        (ZComplementOfPrimes((2,)), 18),
        (ZComplementOfPrimes((7,)), 9),
        (ZNonZero(), product_ring(ModularRing(3), ModularRing(4))),
    ]
    for p, target in over:
        with pytest.raises(MultSetTooLarge, match="at most 8 elements"):
            reduce_presentation(p, target)


def test_closure_stops_at_the_bound(monkeypatch):
    # 3 generates the 1,012 units of Z/1013 and 9 the 506 squares
    monkeypatch.setattr("coidem.multsets.MAX_FINITE_S", 600)
    assert len(closure_in_ring(ModularRing(1013), [9]).elements) == 506
    with pytest.raises(MultSetTooLarge, match="at most 600 elements"):
        closure_in_ring(ModularRing(1013), [3])


def test_reduce_presentation_examples():
    assert reduce_presentation(ZComplementOfPrimes((2,)), 4).elements == frozenset({1, 3})
    assert reduce_presentation(ZNonZero(), 4).elements == frozenset({0, 1, 2, 3})
    assert reduce_presentation(ZGeneratedBy((2,)), 2).elements == frozenset({0, 1})
    assert reduce_presentation(ZUnits(), 12).elements == frozenset({1, 11})
    # a prime not dividing the modulus imposes no constraint
    assert reduce_presentation(ZComplementOfPrimes((5,)), 4).elements == frozenset(
        {0, 1, 2, 3}
    )


@given(st.integers(2, 30), st.integers(-50, 50), st.integers(-50, 50))
def test_reduction_is_multiplicative(n, a, b):
    assert (a * b) % n == ((a % n) * (b % n)) % n


def test_meets_ideal_examples():
    s13 = MultSet(Z4, frozenset({1, 3}))
    assert meets_ideal(s13, ideal(Z4, 2)) is None
    assert meets_ideal(ZNonZero(), ideal(Z, 7)) == 7
    assert meets_ideal(ZGeneratedBy((2,)), ideal(Z, 6)) is None
    assert meets_ideal(ZNonZero(), ideal(Z, 0)) is None
    assert meets_ideal(ZUnits(), ideal(Z, 1)) == 1
    assert meets_ideal(ZComplementOfPrimes((2,)), ideal(Z, 15)) == 15
    assert meets_ideal(ZComplementOfPrimes((3, 5)), ideal(Z, 15)) is None
    assert meets_ideal(ZGeneratedBy((0,)), ideal(Z, 5)) == 0


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3), st.integers(0, 400))
def test_meets_ideal_generated_soundness(gens, c):
    s = ZGeneratedBy(tuple(gens))
    w = meets_ideal(s, ideal(Z, c))
    if w is not None:
        assert ideal_contains(ideal(Z, c), w)
        assert z_multset_contains(s, w)


@given(multsets(), st.integers(0, 60))
def test_meets_ideal_finite_soundness_and_minimality(s, d):
    i = __import__("coidem.rings", fromlist=["ideal_from_generators"]).ideal_from_generators(
        s.ring, [d % s.ring.n]
    )
    w = meets_ideal(s, i)
    members = [x for x in sorted(s.elements) if ideal_contains(i, x)]
    if w is None:
        assert not members
    else:
        assert w == members[0]


def test_saturation_examples():
    s13 = MultSet(Z4, frozenset({1, 3}))
    assert saturation(s13).elements == frozenset({1, 3})
    # s* = 4 in {1, 2, 4, 8} ⊂ Z/12: the saturation is the divisors of 4
    assert saturation(closure_in_ring(Z12, [2])).elements == frozenset(
        {1, 2, 4, 5, 7, 8, 10, 11}
    )


@given(multsets())
def test_saturation_idempotent_and_extensive(s):
    sat = saturation(s)
    assert s.elements <= sat.elements
    assert saturation(sat).elements == sat.elements


def test_satisfies_max_multiple_examples():
    s13 = MultSet(Z4, frozenset({1, 3}))
    w = satisfies_max_multiple(s13)
    assert w == 1  # least witness; 3 is also one (3 | 1 since 3 is a unit)
    assert all(divides(Z4, t, w) for t in s13.elements)
    s2 = closure_in_ring(Z12, [2])
    assert satisfies_max_multiple(s2) == 4


@given(multsets())
def test_finite_sets_always_have_max_multiple(s):
    w = satisfies_max_multiple(s)
    assert w in s.elements
    assert all(divides(s.ring, t, w) for t in s.elements)


def _corpus_sets():
    for n in range(2, 33):
        yield from s_choices(ModularRing(n))
    for inst in generate_corpus(CorpusConfig(moduli=(), include_products=True)):
        yield inst.multset


def test_max_multiple_and_saturation_match_pairwise_scans():
    # s* through one meets_ideal query and S* read off s*, against the
    # pairwise divisibility scans over S they replaced
    checked = 0
    for s in _corpus_sets():
        assert satisfies_max_multiple(s) == max_multiple_by_scan(s), s
        assert saturation(s).elements == saturation_by_scan(s), s
        checked += 1
    assert checked > 300


def test_localize_examples():
    # S⁻¹R as the localization of the cyclic module R: the kernel Ann(s*)
    # maps to the zero ideal of Z/(n / gcd(n, s*))
    loc = localize_module(FinModule(Z12, (12,)), closure_in_ring(Z12, [2]))
    assert loc.ring == ModularRing(3)
    assert loc.map_ideal(ideal(Z12, 3)) == ideal(loc.ring, 0)
    loc2 = localize_module(FinModule(Z4, (4,)), MultSet(Z4, frozenset({1, 3})))
    assert loc2.ring == Z4  # zero kernel
    assert loc2.map_ideal(ideal(Z4, 2)) == ideal(Z4, 2)
    z6 = ModularRing(6)
    assert localize_module(FinModule(z6, (6,)), closure_in_ring(z6, [0])).trivial


@given(multsets())
def test_localize_images_are_units(s):
    loc = localize_module(FinModule(s.ring, (s.ring.n,)), s)
    if loc.trivial:
        assert 0 in s.elements
    else:
        assert all(gcd(t, loc.ring.n) == 1 for t in s.elements)


def test_product_multset():
    a = one_multset(ModularRing(2))
    b = closure_in_ring(ModularRing(3), [2])
    p = product_multset(a, b)
    assert p.ring == product_ring(ModularRing(2), ModularRing(3))
    assert p.elements == frozenset({(1, 1), (1, 2)})


def test_generated_membership():
    assert z_multset_contains(ZGeneratedBy((2,)), 8)
    assert not z_multset_contains(ZGeneratedBy((2,)), 6)
    assert z_multset_contains(ZGeneratedBy((-2, 3)), -24)
    assert z_multset_contains(ZGeneratedBy(()), 1)
    assert multset_contains(MultSet(Z4, frozenset({1, 3})), 3)
