import pytest
import hypothesis.strategies as st
from hypothesis import given

from coidem.rings import (
    FACTOR_TRIAL_BOUND,
    FactorizationTooLarge,
    ModularRing,
    RingMismatchError,
    UnsupportedRingError,
    Z,
    all_ideals,
    divisors,
    factorize,
    ideal,
    ideal_contains,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    maximal_ideals,
    product_ring,
    unit_ideal,
    units,
)

from oracles import divides, ideal_leq

Z12 = ModularRing(12)
Z4 = ModularRing(4)
Z49 = product_ring(ModularRing(4), ModularRing(9))


def test_zero_ring_rejected():
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        ModularRing(0)


def test_ideal_from_generators_examples():
    assert ideal_from_generators(Z, [6, 10]) == ideal(Z, 2)
    assert ideal_from_generators(Z12, [8]) == ideal(Z12, 4)
    assert ideal_from_generators(Z49, [(2, 3)]) == ideal(Z49, (2, 3))
    assert ideal_from_generators(Z12, []) == ideal(Z12, 12)  # zero ideal


def test_ideal_product_examples():
    assert ideal_product(ideal(Z, 2), ideal(Z, 3)) == ideal(Z, 6)
    two = ideal(Z4, 2)
    assert ideal_product(two, two) == ideal(Z4, 0)
    z6 = ModularRing(6)
    assert ideal_product(ideal(z6, 2), ideal(z6, 2)) == ideal(z6, 2)


def test_ideal_intersect_examples():
    assert ideal_intersect(ideal(Z, 4), ideal(Z, 6)) == ideal(Z, 12)
    assert ideal_intersect(ideal(Z12, 2), ideal(Z12, 3)) == ideal(Z12, 6)
    i = ideal(Z12, 4)
    assert ideal_intersect(i, unit_ideal(Z12)) == i


def test_divides_examples():
    # the oracle and the engine's route, s ∈ tR, on the same cases
    cases = (
        (Z12, 8, 4, True), (Z, 2, 5, False), (Z12, 1, 7, True), (Z, 0, 0, True), (Z, 0, 3, False)
    )
    for ring, t, s, expected in cases:
        assert divides(ring, t, s) == expected
        assert ideal_contains(ideal(ring, t), s) == expected


def test_units_examples():
    assert units(Z4) == frozenset({1, 3})
    assert units(Z12) == frozenset({1, 5, 7, 11})
    assert units(product_ring(ModularRing(2), ModularRing(3))) == frozenset(
        {(1, 1), (1, 2)}
    )
    with pytest.raises(UnsupportedRingError):
        units(Z)


def test_prime_and_maximal_ideals():
    # finite rings are artinian, so the prime ideals are the maximal ones
    assert [i.data for i in maximal_ideals(Z12)] == [2, 3]
    assert [i.data for i in maximal_ideals(Z4)] == [2]
    p22 = product_ring(ModularRing(2), ModularRing(2))
    assert [i.data for i in maximal_ideals(p22)] == [(2, 1), (1, 2)]
    for ring in (Z12, Z4, p22, Z49):
        whole = unit_ideal(ring)
        proper = [i for i in all_ideals(ring) if i != whole]
        maximal = [
            i for i in proper if not any(j != i and ideal_leq(i, j) for j in proper)
        ]
        assert sorted(maximal_ideals(ring), key=str) == sorted(maximal, key=str)
    with pytest.raises(UnsupportedRingError):
        maximal_ideals(Z)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_product(ideal(Z12, 2), ideal(Z4, 2))
    with pytest.raises(RingMismatchError):
        ideal_from_generators(Z12, [(1, 2)])


@given(st.integers(2, 40), st.lists(st.integers(-40, 40), max_size=4))
def test_canonicality_regeneration(n, gens):
    ring = ModularRing(n)
    i = ideal_from_generators(ring, gens)
    assert ideal_from_generators(ring, [i.data]) == i
    assert 1 <= i.data <= n and n % i.data == 0


@given(st.integers(2, 40), st.integers(0, 39), st.integers(0, 39))
def test_divides_vs_ideal_inclusion(n, t, s):
    # t | s exactly when (s) is inside (t)
    ring = ModularRing(n)
    t, s = t % n, s % n
    left = divides(ring, t, s)
    right = ideal_leq(
        ideal_from_generators(ring, [s]), ideal_from_generators(ring, [t])
    )
    assert left == right


def test_divisors_match_scan():
    for n in range(1, 3000):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_factorize_bound():
    assert FACTOR_TRIAL_BOUND == 10**6
    # past the bound, a cofactor below the next prime's square is prime
    assert factorize(999_999_999_989) == {999_999_999_989: 1}
    assert factorize(2**40 * 999_983**2) == {2: 40, 999_983: 2}
    assert factorize(999_983 * 999_999_999_989) == {999_983: 1, 999_999_999_989: 1}
    for n in (1_000_003 * 1_000_033, 10**18 + 3):
        with pytest.raises(FactorizationTooLarge):
            factorize(n)


def test_ideal_count_matches_divisor_count():
    for n in range(2, 65):
        assert len(all_ideals(ModularRing(n))) == len(divisors(n))


@given(st.integers(2, 30))
def test_units_closed_under_multiplication(n):
    ring = ModularRing(n)
    u = units(ring)
    assert 1 in u
    assert all(ring.mul(a, b) in u for a in u for b in u)


@given(st.integers(2, 20), st.integers(2, 20))
def test_ideal_contains_product_ring(n1, n2):
    ring = product_ring(ModularRing(n1), ModularRing(n2))
    i = ideal_from_generators(ring, [(2 % n1, 3 % n2)])
    assert ideal_contains(i, ring.zero)
    for x in list(ring.elements())[:50]:
        member = ideal_contains(i, x)
        brute = any(
            ring.mul(x2, (2 % n1, 3 % n2)) == x for x2 in ring.elements()
        )
        assert member == brute
