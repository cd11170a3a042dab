import itertools
import sys

import pytest

import coidem.predicates as predicates
from coidem.lattice import enumerate_submodules
from coidem.modules import (
    FinModule,
    ZModule,
    annihilator,
    full_submodule,
    module_from_factors,
    product_module,
    submodule_from_generators,
    zero_submodule,
)
from coidem.multsets import (
    MultSet,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
    closure_in_ring,
    meets_ideal,
    one_multset,
    satisfies_max_multiple,
)
from coidem.predicates import (
    Verdict,
    coidempotent,
    comultiplication,
    copure,
    direct_summand,
    fully,
    fully_coidempotent_z,
    idempotent,
    multiplication,
    pure,
    s_finite,
    s_noetherian,
    semisimple,
    witness_is_sound,
)
from coidem.rings import ModularRing, UnsupportedRingError, Z, all_ideals, ideal_contains
from coidem.specs import parse_module, parse_ring
from coidem.theorems import CorpusConfig, factor_lists, generate_corpus, s_choices

from oracles import (
    copure_witness_ideal_over_all_ideals,
    direct_summand_by_intersection,
    fully_coidempotent_z_by_kind,
    pointwise_by_scan,
    pure_witness_ideal_over_all_ideals,
    submodule_elements,
    witness_is_sound_by_scan,
)

Z2, Z4, Z6, Z12 = ModularRing(2), ModularRing(4), ModularRing(6), ModularRing(12)
M4 = module_from_factors(Z4, [4])
M6 = module_from_factors(Z6, [6])
M22 = module_from_factors(Z2, [2, 2])
N2_4 = submodule_from_generators(M4, [(2,)])
N2_6 = submodule_from_generators(M6, [(2,)])
S13 = MultSet(Z4, frozenset({1, 3}))


def small_cases(max_order=16, moduli=(2, 3, 4, 6, 8, 9, 12)):
    for n in moduli:
        ring = ModularRing(n)
        divs = [d for d in range(2, n + 1) if n % d == 0]
        lists = [()]
        for _ in range(3):
            lists = lists + [
                t + (d,) for t in lists for d in divs if (not t or d >= t[-1])
            ]
        for t in sorted(set(t for t in lists if t)):
            m = FinModule(ring, t)
            if m.order <= max_order:
                yield m


# -- spec example verdicts ----------------------------------------------------


def test_coidempotent_examples():
    assert not coidempotent(M4, N2_4, S13).holds
    assert coidempotent(M6, N2_6, one_multset(Z6)).holds
    v = coidempotent(M4, full_submodule(M4), one_multset(Z4))
    assert v.holds and v.witness == 1


def test_idempotent_examples():
    assert not idempotent(M4, N2_4, one_multset(Z4)).holds
    assert idempotent(M6, N2_6, one_multset(Z6)).holds
    assert idempotent(M4, zero_submodule(M4), one_multset(Z4)).holds


def test_pure_copure_examples():
    for n in enumerate_submodules(M22).all:
        assert pure(M22, n, one_multset(Z2)).holds
    assert not pure(M4, N2_4, one_multset(Z4)).holds
    for n in (zero_submodule(M4), full_submodule(M4)):
        assert pure(M4, n, one_multset(Z4)).holds
        assert copure(M4, n, one_multset(Z4)).holds
    with pytest.raises(UnsupportedRingError):
        pure(ZModule(), 2, ZNonZero())


def test_comultiplication_examples():
    assert comultiplication(M4, S13).holds
    v = comultiplication(M22, one_multset(Z2))
    assert not v.holds and v.counterexample.order == 2
    zero_mod = module_from_factors(Z2, [])
    assert comultiplication(zero_mod, one_multset(Z2)).holds
    assert multiplication(zero_mod, one_multset(Z2)).holds


def test_direct_summand_examples():
    v = direct_summand(M6, N2_6, one_multset(Z6))
    assert v.holds and v.witness == 1
    assert v.complement == submodule_from_generators(M6, [(3,)])
    assert not direct_summand(M4, N2_4, S13).holds
    v0 = direct_summand(M4, zero_submodule(M4), one_multset(Z4))
    assert v0.holds and v0.complement == full_submodule(M4) and v0.witness == 1


def test_direct_summand_tries_each_sm_once(monkeypatch):
    # over Z/12, (1) and (3) are distinct ideals with the same sM = Z/4
    ring = ModularRing(12)
    m = FinModule(ring, (4,))
    n = submodule_from_generators(m, [(2,)])
    s = closure_in_ring(ring, [3])
    assert s.elements == frozenset({1, 3, 9})
    sums = []

    def counted(*args, _real=predicates.sub_sum):
        sums.append(args)
        return _real(*args)

    monkeypatch.setattr(predicates, "sub_sum", counted)
    v = direct_summand(m, n, s)
    assert v == direct_summand_by_intersection(m, n, s) and not v.holds
    assert len(sums) == 1


def test_s_finite_examples():
    assert s_finite(M4, N2_4, one_multset(Z4)).holds
    assert s_finite(ZModule(), 5, ZNonZero()).holds
    assert s_noetherian(module_from_factors(Z2, []), one_multset(Z2)).holds


def test_fully_examples():
    m22z = module_from_factors(Z, [2, 2])
    assert fully("coidempotent", m22z, ZGeneratedBy((2,))).holds
    v = fully("coidempotent", m22z, one_multset(Z2))
    assert not v.holds
    assert v.counterexample == submodule_from_generators(m22z, [(1, 0)])
    assert fully("coidempotent", M6, one_multset(Z6)).holds


def test_fully_coidempotent_z_examples():
    assert fully_coidempotent_z(ZNonZero()).holds
    v = fully_coidempotent_z(ZUnits())
    assert not v.holds and v.counterexample == 2
    v = fully_coidempotent_z(ZGeneratedBy((2,)))
    assert not v.holds and v.counterexample == 3
    assert fully_coidempotent_z(ZGeneratedBy((0,))).holds
    assert fully("coidempotent", ZModule(), ZNonZero()).holds
    with pytest.raises(UnsupportedRingError):
        fully("pure", ZModule(), ZNonZero())


def _z_sets():
    yield ZUnits()
    yield ZNonZero()
    for primes in ((2,), (3,), (5, 2), (3, 7), (2, 3, 5), (1000003,)):
        yield ZComplementOfPrimes(primes)
    gens = range(-30, 31)
    for g in gens:
        yield ZGeneratedBy((g,))
    for pair in itertools.combinations(gens, 2):
        yield ZGeneratedBy(pair)
    for triple in ((2, 3, 5), (-6, 10, 15), (0, 7, 11), (1, -1, 4), (6, 10, 21)):
        yield ZGeneratedBy(triple)
    yield ZGeneratedBy(())


def test_fully_coidempotent_z_matches_per_kind_closed_forms():
    # "0 in S" and the least missed tZ through meets_ideal, against the
    # per-kind closed forms they replaced
    for s in _z_sets():
        assert fully_coidempotent_z(s) == fully_coidempotent_z_by_kind(s), s


# -- invariants ---------------------------------------------------------------


def element_oracle_classical(prop, m, n_set):
    """Textbook definition of the classical property, by raw element scans."""
    ring = m.ring
    elems = list(m.elements())
    zero = m.zero_element

    def ann(target):
        return [r for r in ring.elements() if all(m.scale(r, x) == zero for x in target)]

    def additive_closure(seed):
        cur = {zero}
        frontier = [g for g in set(seed) if g != zero]
        cur.update(frontier)
        while frontier:
            fresh = []
            for g in frontier:
                for a in list(cur):
                    c = m.add(a, g)
                    if c not in cur:
                        cur.add(c)
                        fresh.append(c)
            frontier = fresh
        return cur

    def ideal_sets():
        from coidem.rings import all_ideals, ideal_contains

        for i in all_ideals(ring):
            yield [r for r in ring.elements() if ideal_contains(i, r)]

    if prop == "coidempotent":
        a = ann(n_set)
        x = {
            y
            for y in elems
            if all(m.scale(ring.mul(r, t), y) == zero for r in a for t in a)
        }
        return x == set(n_set)
    if prop == "idempotent":
        c = [r for r in ring.elements() if all(m.scale(r, y) in n_set for y in elems)]
        target = additive_closure(
            [m.scale(ring.mul(a, b), y) for a in c for b in c for y in elems]
        )
        return target == set(n_set)
    if prop == "pure":
        for i_elems in ideal_sets():
            i_n = additive_closure([m.scale(a, y) for a in i_elems for y in n_set])
            i_m = additive_closure([m.scale(a, y) for a in i_elems for y in elems])
            if i_n != (set(n_set) & i_m):
                return False
        return True
    if prop == "copure":
        for i_elems in ideal_sets():
            colon = {y for y in elems if all(m.scale(a, y) in n_set for a in i_elems)}
            torsion = [y for y in elems if all(m.scale(a, y) == zero for a in i_elems)]
            target = additive_closure(list(n_set) + torsion)
            if colon != target:
                return False
        return True
    if prop == "comultiplication":
        for i_elems in ideal_sets():
            torsion = {y for y in elems if all(m.scale(a, y) == zero for a in i_elems)}
            if torsion == set(n_set):
                return True
        return False
    if prop == "multiplication":
        for i_elems in ideal_sets():
            i_m = additive_closure([m.scale(a, y) for a in i_elems for y in elems])
            if i_m == set(n_set):
                return True
        return False
    raise ValueError(prop)


def test_classical_specialization_matches_element_oracle():
    for m in small_cases(max_order=12):
        one = one_multset(m.ring)
        lat = enumerate_submodules(m)
        comult_all = True
        mult_all = True
        for n in lat.all:
            n_set = frozenset(submodule_elements(n))
            assert coidempotent(m, n, one).holds == element_oracle_classical(
                "coidempotent", m, n_set
            )
            assert idempotent(m, n, one).holds == element_oracle_classical(
                "idempotent", m, n_set
            )
            assert pure(m, n, one).holds == element_oracle_classical("pure", m, n_set)
            assert copure(m, n, one).holds == element_oracle_classical(
                "copure", m, n_set
            )
            comult_all = comult_all and element_oracle_classical(
                "comultiplication", m, n_set
            )
            mult_all = mult_all and element_oracle_classical(
                "multiplication", m, n_set
            )
        assert comultiplication(m, one).holds == comult_all
        assert multiplication(m, one).holds == mult_all


def multset_pool(ring):
    pool = [one_multset(ring)]
    from coidem.rings import units

    pool.append(MultSet(ring, units(ring)))
    for g in range(2, ring.n):
        pool.append(closure_in_ring(ring, [g]))
    pool.append(closure_in_ring(ring, [0]))
    seen = {}
    for s in pool:
        seen.setdefault(s.elements, s)
    return list(seen.values())


def test_monotonicity_in_s():
    for m in small_cases(max_order=12, moduli=(4, 6, 12)):
        pool = multset_pool(m.ring)
        lat = enumerate_submodules(m)
        for s1, s2 in itertools.permutations(pool, 2):
            if not s1.elements <= s2.elements:
                continue
            for prop in ("coidempotent", "idempotent", "pure", "copure"):
                for n in lat.all[:4]:
                    if predicates._pointwise(prop, m, n, s1).holds:
                        assert predicates._pointwise(prop, m, n, s2).holds
            if comultiplication(m, s1).holds:
                assert comultiplication(m, s2).holds


def test_zero_in_s_triviality():
    for m in (M4, M6, M22):
        s0 = closure_in_ring(m.ring, [0])
        assert 0 in s0.elements
        for prop in ("coidempotent", "idempotent", "pure", "copure"):
            v = fully(prop, m, s0, uniform=True)
            assert v.holds and v.witness == m.ring.zero
        assert comultiplication(m, s0).holds
        assert multiplication(m, s0).holds
    # direct summands are exempt: sM = N + K with s = 0 forces N = 0
    s0 = closure_in_ring(Z4, [0])
    assert not direct_summand(M4, N2_4, s0).holds
    assert direct_summand(M4, zero_submodule(M4), s0).holds


def test_annihilator_meets_triviality():
    ring = Z12
    m = module_from_factors(ring, [2])
    s = closure_in_ring(ring, [4])
    w = meets_ideal(s, annihilator(full_submodule(m)))
    assert w == 4
    for prop in ("coidempotent", "idempotent", "pure", "copure"):
        assert fully(prop, m, s).holds
        for n in enumerate_submodules(m).all:
            assert ideal_contains(predicates._WITNESS_IDEALS[prop](n), w)


def test_witness_soundness_and_determinism():
    for m in small_cases(max_order=12, moduli=(4, 6, 9)):
        for s in multset_pool(m.ring)[:4]:
            for n in enumerate_submodules(m).all:
                for prop in ("coidempotent", "idempotent", "pure", "copure"):
                    v1 = predicates._pointwise(prop, m, n, s)
                    v2 = predicates._pointwise(prop, m, n, s)
                    assert v1 == v2
                    if v1.holds:
                        assert v1.witness in s.elements
                        assert witness_is_sound(prop, m, n, v1)
                ds1 = direct_summand(m, n, s)
                ds2 = direct_summand(m, n, s)
                assert ds1 == ds2
                if ds1.holds:
                    assert witness_is_sound("direct_summand", m, n, ds1)


# -- the element-level validator against its scan twin ----------------------

POINTWISE = (
    "coidempotent", "idempotent", "pure", "copure", "comultiplication", "multiplication",
)


def _validator_modules():
    """Every module over Z/n with n <= 8 and |M| <= 8, and two product modules."""
    for n in range(2, 9):
        for factors in factor_lists(n, 8):
            yield FinModule(ModularRing(n), factors)
    for ring, module in (("Z/4 x Z/3", "Z/2 x Z/3"), ("Z/2 x Z/4", "Z/2+Z/2 x Z/4")):
        yield parse_module(parse_ring(ring), module)


def test_witness_validator_matches_scan():
    """Every N, every ring element as s, every property and complement K."""
    outcomes = {True: 0, False: 0}
    for m in _validator_modules():
        lattice = enumerate_submodules(m).all
        for n in lattice:
            for s in m.ring.elements():
                cases = [(prop, Verdict(True, witness=s)) for prop in POINTWISE]
                cases += [
                    ("direct_summand", Verdict(True, witness=s, complement=k)) for k in lattice
                ]
                for prop, verdict in cases:
                    want = witness_is_sound_by_scan(prop, m, n, verdict)
                    assert witness_is_sound(prop, m, n, verdict) == want, (prop, m, n, verdict)
                    outcomes[want] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes


def test_witness_ideals_are_the_validated_certificates():
    """W(N) holds exactly the r that the element-level validator accepts as s,
    on every module over Z/n with n <= 24 and |M| <= 16 and two product
    modules.  Most have exponent e < n, where W(N) is computed over Z/e and
    read back over Z/n, while the validator works over Z/n itself."""
    mods = [FinModule(ModularRing(n), f) for n in range(2, 25) for f in factor_lists(n, 16)]
    mods += [
        parse_module(parse_ring(ring), module)
        for ring, module in (("Z/4 x Z/3", "Z/2 x Z/3"), ("Z/12 x Z/2", "Z/2+Z/2 x Z/2"))
    ]
    checks = 0
    for m in mods:
        ring = list(m.ring.elements())
        for n in enumerate_submodules(m).all:
            for prop in POINTWISE:
                w = predicates._WITNESS_IDEALS[prop](n)
                for r in ring:
                    sound = witness_is_sound(prop, m, n, Verdict(True, witness=r))
                    assert ideal_contains(w, r) == sound, (prop, m, n, r)
                checks += len(ring)
    assert (len(mods), checks) == (137, 140310)


def test_witness_memo_keeps_bad_witness_false():
    """A memoized good certificate does not vouch for a bad one on the same (prop, N)."""
    n = submodule_from_generators(M4, [(2,)])
    assert witness_is_sound("coidempotent", M4, n, Verdict(True, witness=2))
    assert not witness_is_sound("coidempotent", M4, n, Verdict(True, witness=1))
    assert witness_is_sound("coidempotent", M4, n, Verdict(True, witness=2))
    k = submodule_from_generators(M22, [(0, 1)])
    n = submodule_from_generators(M22, [(1, 0)])
    assert witness_is_sound("direct_summand", M22, n, Verdict(True, witness=1, complement=k))
    assert not witness_is_sound("direct_summand", M22, n, Verdict(True, witness=1, complement=n))


def test_witness_validator_calls_no_intmat(monkeypatch):
    """The validator rebuilds N from its basis rows, never from canonical forms."""
    from coidem import intmat

    m = parse_module(parse_ring("Z/4 x Z/3"), "Z/2+Z/4 x Z/3")
    lattice = enumerate_submodules(m).all
    verdicts = [
        (prop, n, Verdict(True, witness=s, complement=lattice[0]))
        for n in lattice
        for s in m.ring.elements()
        for prop in POINTWISE + ("direct_summand",)
    ]
    want = [witness_is_sound_by_scan(prop, m, n, v) for prop, n, v in verdicts]
    for name in (
        "_element_table", "_submodule_mask", "_ideal_masks", "_certificate_pairs",
        "witness_is_sound",
    ):
        getattr(predicates, name).cache_clear()

    def forbidden(*args):
        raise AssertionError("the validator called intmat")

    packages = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "coidem"]
    for mod in packages:  # intmat itself and every name imported from it
        for name, value in list(vars(mod).items()):
            if callable(value) and getattr(value, "__module__", None) == intmat.__name__:
                monkeypatch.setattr(mod, name, forbidden)
    got = [witness_is_sound(prop, m, n, v) for prop, n, v in verdicts]
    assert got == want and True in got and False in got


def test_scan_oracle_agreement():
    for m in (M4, M6, M22):
        for s in multset_pool(m.ring)[:5]:
            for n in enumerate_submodules(m).all:
                for prop in (
                    "coidempotent",
                    "idempotent",
                    "pure",
                    "copure",
                    "comultiplication",
                    "multiplication",
                ):
                    scan = pointwise_by_scan(prop, m, n, s).holds
                    ideal_route = (
                        meets_ideal(s, predicates._WITNESS_IDEALS[prop](n)) is not None
                    )
                    assert scan == ideal_route


def test_pure_copure_ideals_over_primary_ideals_match_all_ideals():
    # the witness ideals intersect over the primary ideals only; the
    # references intersect over every ideal of R.  Every module of order at
    # most 12 and every cyclic module over Z/n, n <= 36 (|M| <= 64 takes minutes)
    modules = [
        FinModule(ModularRing(n), t)
        for n in range(2, 37)
        for t in sorted({*factor_lists(n, 12), (n,)})
    ]
    modules += [
        product_module(FinModule(ModularRing(a), fa), FinModule(ModularRing(b), fb))
        for a, fa, b, fb in ((4, (2, 4), 6, (6,)), (12, (12,), 9, (3, 9)), (2, (2, 2), 8, (8,)))
    ]
    for m in modules:
        for n in enumerate_submodules(m).all:
            assert predicates.pure_witness_ideal(n) == pure_witness_ideal_over_all_ideals(n)
            assert predicates.copure_witness_ideal(n) == copure_witness_ideal_over_all_ideals(n)


def test_uniform_equals_pointwise_under_max_multiple():
    # every finite S satisfies the maximal multiple condition, so the single
    # query on the intersected witness ideals agrees with asking per submodule
    for m in small_cases(max_order=12, moduli=(4, 6, 8)):
        subs = enumerate_submodules(m).all
        for s in multset_pool(m.ring):
            assert satisfies_max_multiple(s) is not None
            for prop in predicates._WITNESS_IDEALS:
                table = predicates._WITNESS_IDEALS[prop]
                misses = [n for n in subs if meets_ideal(s, table(n)) is None]
                if prop in ("comultiplication", "multiplication"):
                    plain = getattr(predicates, prop)(m, s)
                    uniform = getattr(predicates, prop)(m, s, uniform=True)
                else:
                    plain = fully(prop, m, s)
                    uniform = fully(prop, m, s, uniform=True)
                assert plain.holds == uniform.holds == (not misses)
                if misses:
                    assert plain.counterexample == uniform.counterexample == misses[0]
                else:
                    assert plain.witness is None
                    assert uniform.witness in s.elements
                    assert all(ideal_contains(table(n), uniform.witness) for n in subs)


def test_comultiplication_wlog_soundness():
    # if any ideal I gives s(0:_M I) ⊆ N ⊆ (0:_M I), then I = Ann(N) does too
    from coidem.modules import colon_into, scalar_submodule, sub_leq

    cases = list(small_cases(max_order=16, moduli=(4, 6, 8, 12)))
    cases.append(FinModule(Z2, (2,) * 5))  # one order-32 lattice
    for m in cases:
        zero = zero_submodule(m)
        for s in multset_pool(m.ring)[:4]:
            for n in enumerate_submodules(m).all:
                by_scan = False
                for i in all_ideals(m.ring):
                    torsion = colon_into(zero, i)
                    if not sub_leq(n, torsion):
                        continue
                    if any(
                        sub_leq(scalar_submodule(t, torsion), n)
                        for t in s.elements
                    ):
                        by_scan = True
                        break
                canonical = (
                    meets_ideal(
                        s, predicates._WITNESS_IDEALS["comultiplication"](n)
                    )
                    is not None
                )
                assert by_scan == canonical


def test_strict_vs_loose_direct_summand():
    # loose reading only needs sM = N + K
    m = M4
    s13 = S13
    assert not direct_summand(m, N2_4, s13, strict_ds=True).holds
    loose = direct_summand(m, N2_4, s13, strict_ds=False)
    assert loose.holds and loose.witness == 1 and loose.complement == full_submodule(m)
    # strict implies loose everywhere
    for n in enumerate_submodules(M6).all:
        strict = direct_summand(M6, n, one_multset(Z6), strict_ds=True)
        if strict.holds:
            assert direct_summand(M6, n, one_multset(Z6), strict_ds=False).holds


def test_direct_summand_matches_intersection_oracle():
    # every module over Z/n, n <= 12, of order <= 16 under every s_choices
    # set, and the product corpus: same verdict, witness and complement,
    # strict and loose.  The two lattices above 16 submodules, (Z/2)^4 and
    # Z/2+Z/2+Z/4, run over Z/2 and Z/4 only; over every ring they take more
    # than half of the sweep.
    modules = [
        FinModule(ModularRing(n), factors)
        for n in range(2, 13)
        for factors in factor_lists(n, 16)
    ]
    cases = [
        (m, s)
        for m in modules
        if len(enumerate_submodules(m)) <= 16 or m.ring.n == m.factors[-1]
        for s in s_choices(m.ring)
    ]
    cases += [
        (inst.module, inst.multset)
        for inst in generate_corpus(CorpusConfig(moduli=(), include_products=True))
    ]
    for m, s in cases:
        for n in enumerate_submodules(m).all:
            for strict in (True, False):
                assert direct_summand(m, n, s, strict) == direct_summand_by_intersection(
                    m, n, s, strict
                ), (m, s, n, strict)


def test_semisimple():
    assert semisimple(M6, one_multset(Z6)).holds
    assert semisimple(M22, one_multset(Z2)).holds
    v = semisimple(M4, one_multset(Z4))
    assert not v.holds and v.counterexample == N2_4
