"""Independent routes to answers the engine computes, used only by the tests.

Each helper here decides by brute force or by a different algorithm what
`coidem` decides through canonical forms and witness ideals, so agreement
between the two is a real check.  None of them is used by the package.
"""

import itertools
from functools import reduce
from math import gcd

from coidem import theorems
from coidem.intmat import hnf_square, in_rowspan
from coidem.lattice import LatticeCapExceeded, enumerate_submodules
from coidem.modules import (
    ZModule,
    annihilator,
    colon_into,
    colon_ring,
    full_submodule,
    ideal_action,
    scalar_submodule,
    sub_intersect,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from coidem.multsets import (
    MultSet,
    meets_ideal,
    one_multset,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
)
from coidem.predicates import (
    Verdict,
    coidempotent_witness_ideal,
    direct_summand,
    resolve_multset,
)
from coidem.rings import (
    IntegerRing,
    ProductRing,
    RingMismatchError,
    UnsupportedRingError,
    all_ideals,
    element_of,
    ideal_contains,
    ideal_intersect,
    ideal_product,
    is_prime,
    unit_ideal,
    units,
)


# -- integer matrices -----------------------------------------------------------


def det(mat) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            piv = next((r for r in range(i + 1, n) if a[r][i]), None)
            if piv is None:
                return 0
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


# -- ideals -----------------------------------------------------------------------


def ideal_leq(i, j) -> bool:
    """i ⊆ j, decided via divisibility of the canonical generators."""
    if i.ring != j.ring:
        raise RingMismatchError(f"operands over {i.ring} and {j.ring}")
    if isinstance(i.ring, ProductRing):
        return all(a % b == 0 for a, b in zip(i.data, j.data))
    if isinstance(i.ring, IntegerRing):
        return i.data == 0 if j.data == 0 else i.data % j.data == 0
    return i.data % j.data == 0


# -- multiplicative sets ----------------------------------------------------------


def _gen_products_contain(gens: tuple[int, ...], x: int) -> bool:
    """Is x a product of generators (the empty product 1 included)?"""
    if x == 1:
        return True
    if x == 0:
        return 0 in gens
    bound = abs(x)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v * g
                if w == x:
                    return True
                if w == 0 or abs(w) > bound or w in seen:
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return False


def z_multset_contains(s, x: int) -> bool:
    """Membership in a symbolic subset of Z, straight from its definition."""
    if isinstance(s, ZUnits):
        return x in (1, -1)
    if isinstance(s, ZNonZero):
        return x != 0
    if isinstance(s, ZComplementOfPrimes):
        return all(x % p != 0 for p in s.primes)
    if isinstance(s, ZGeneratedBy):
        return _gen_products_contain(s.gens, x)
    raise TypeError(f"not a symbolic multiplicative set: {s!r}")


def multset_contains(s, x) -> bool:
    if isinstance(s, MultSet):
        return x in s.elements
    return z_multset_contains(s, x)


def divides(ring, t, s) -> bool:
    """t | s, i.e. s lies in tR, straight from the ring's modulus."""
    if isinstance(ring, ProductRing):
        return all(divides(c, a, b) for c, a, b in zip(ring.components, t, s))
    if isinstance(ring, IntegerRing):
        return s == 0 if t == 0 else s % t == 0
    g = gcd(t, ring.n)
    return s % (ring.n if g == 0 else g) == 0


def closed_by_pairs(ring, elements) -> bool:
    """Closure under multiplication by testing every pair of elements."""
    for a in elements:
        for b in elements:
            if ring.mul(a, b) not in elements:
                return False
    return True


def closure_by_frontier(ring, gens) -> frozenset:
    """Least closed set containing gens and 1: each new element times every
    element found so far, frontier by frontier."""
    current = {ring.one}
    frontier = [element_of(ring, g) for g in gens]
    current.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(current):
                c = ring.mul(a, b)
                if c not in current:
                    current.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(current)


def max_multiple_by_scan(s: MultSet):
    """The least s* ∈ S divisible by every element of S, by pairwise scan."""
    for cand in s.sorted_elements():
        if all(divides(s.ring, t, cand) for t in s.elements):
            return cand
    return None


def saturation_by_scan(s: MultSet) -> frozenset:
    """S* = {x : x divides some element of S}, by scanning R against S."""
    return frozenset(
        x for x in s.ring.elements() if any(divides(s.ring, x, t) for t in s.elements)
    )


def _least_prime_outside(gens) -> int:
    supports = [abs(g) for g in gens if g not in (0, 1, -1)]
    p = 2
    while not (is_prime(p) and all(g % p for g in supports)):
        p += 1
    return p


def fully_coidempotent_z_by_kind(s) -> Verdict:
    """Z is fully S-coidempotent, read per symbolic kind.

    Nonzero meets every tZ; units miss 2Z; the complement of primes misses pZ
    for its least prime; a generated S holds when 0 is a generator and
    otherwise misses pZ for the least prime dividing no generator.
    """
    if isinstance(s, ZNonZero):
        return Verdict(True)
    if isinstance(s, ZUnits):
        return Verdict(False, counterexample=2)
    if isinstance(s, ZComplementOfPrimes):
        return Verdict(False, counterexample=min(s.primes))
    if 0 in s.gens:
        return Verdict(True, witness=0)
    return Verdict(False, counterexample=_least_prime_outside(s.gens))


# -- submodules as element sets ---------------------------------------------------


def naive_oracle(m, max_order: int = 4096):
    """Every submodule as a frozen set of elements, by raw element arithmetic.

    Closes element sets under scalar action and addition only; no lattice or
    canonical-form machinery is involved, so this is an independent route to
    the same answer as `enumerate_submodules`.
    """
    if m.order > max_order:
        raise LatticeCapExceeded(f"oracle guard: |M| = {m.order} > {max_order}")
    elements = list(m.elements())
    ring_elements = list(m.ring.elements())
    zero = m.zero_element
    bottom = frozenset({zero})

    def adjoin(subgroup, x):
        # submodule generated by subgroup ∪ {x}: shift by the cyclic module Rx
        shifts = {m.scale(r, x) for r in ring_elements}
        return frozenset(m.add(a, t) for a in subgroup for t in shifts)

    found = {bottom}
    frontier = [bottom]
    while frontier:
        fresh = []
        for sub in frontier:
            for x in elements:
                if x in sub:
                    continue
                bigger = adjoin(sub, x)
                if bigger not in found:
                    found.add(bigger)
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def closure_bases(factors: tuple[int, ...], cap: int):
    """All sublattice bases of ⊕ Z/f_i by closure fixpoint (any factor list).

    Starts from the relation lattice and adjoins every element to every basis
    found, deduplicating by Hermite basis: a different route to the bases
    `lattice._p_component_bases_cached` builds row by row.
    """
    k = len(factors)
    if k == 0:
        return [()]  # the empty basis of Z^0
    relations = tuple(
        tuple(factors[i] if j == i else 0 for j in range(k)) for i in range(k)
    )
    zero = hnf_square(relations, k)
    found = {zero}
    frontier = [zero]
    elements = list(itertools.product(*(range(f) for f in factors)))

    while frontier:
        fresh = []
        for base in frontier:
            for m in elements:
                if in_rowspan(base, m):
                    continue
                b2 = hnf_square(base + (m,), k)
                if b2 not in found:
                    found.add(b2)
                    fresh.append(b2)
                    if len(found) > cap:
                        raise LatticeCapExceeded(
                            f"more than {cap} submodules; raise the cap to proceed"
                        )
        frontier = fresh
    return sorted(found)


def torsion_by_scan(m, s: MultSet) -> set:
    """{x : t·x = 0 for some t in S}, element by element."""
    zero = m.zero_element
    return {x for x in m.elements() if any(m.scale(t, x) == zero for t in s.elements)}


# -- predicates by scanning a finite S --------------------------------------------


def pointwise_by_scan(prop: str, m, n, s) -> Verdict:
    """Evaluate the defining inclusions per element of a finite S directly."""
    s = resolve_multset(m, s)
    if not isinstance(s, MultSet):
        raise UnsupportedRingError("the scan oracle needs a finite S")
    ring = m.ring
    zero = zero_submodule(m)
    full = full_submodule(m)
    for elem in s.sorted_elements():
        if prop == "coidempotent":
            ann = annihilator(n)
            x = colon_into(zero, ideal_product(ann, ann))
            ok = sub_leq(scalar_submodule(elem, x), n)
        elif prop == "idempotent":
            c = colon_ring(n, full)
            target = ideal_action(ideal_product(c, c), full)
            ok = sub_leq(scalar_submodule(elem, n), target) and sub_leq(target, n)
        elif prop == "pure":
            ok = all(
                sub_leq(
                    scalar_submodule(elem, sub_intersect(n, ideal_action(i, full))),
                    ideal_action(i, n),
                )
                for i in all_ideals(ring)
            )
        elif prop == "copure":
            ok = all(
                sub_leq(
                    scalar_submodule(elem, colon_into(n, i)),
                    sub_sum(n, colon_into(zero, i)),
                )
                for i in all_ideals(ring)
            )
        elif prop == "comultiplication":
            torsion = colon_into(zero, annihilator(n))
            ok = sub_leq(scalar_submodule(elem, torsion), n) and sub_leq(n, torsion)
        elif prop == "multiplication":
            target = ideal_action(colon_ring(n, full), full)
            ok = sub_leq(scalar_submodule(elem, n), target) and sub_leq(target, n)
        else:
            raise ValueError(f"unknown property {prop!r}")
        if ok:
            return Verdict(True, witness=elem)
    return Verdict(False)


def pure_witness_ideal_over_all_ideals(n):
    """∩_I (IN :_R N ∩ IM) with I over every ideal of R, not only the primary ones."""
    m = full_submodule(n.module)
    acc = unit_ideal(n.module.ring)
    for i in all_ideals(n.module.ring):
        right = sub_intersect(n, ideal_action(i, m))
        acc = ideal_intersect(acc, colon_ring(ideal_action(i, n), right))
    return acc


def copure_witness_ideal_over_all_ideals(n):
    """∩_I ((N + (0:_M I)) :_R (N :_M I)) with I over every ideal of R."""
    zero = zero_submodule(n.module)
    acc = unit_ideal(n.module.ring)
    for i in all_ideals(n.module.ring):
        left = sub_sum(n, colon_into(zero, i))
        acc = ideal_intersect(acc, colon_ring(left, colon_into(n, i)))
    return acc


# -- certificates by element scans -------------------------------------------------


def _elements_of(sub) -> frozenset:
    return frozenset(sub.elements())


def _ann_set(m, elems) -> list:
    zero = m.zero_element
    return [r for r in m.ring.elements() if all(m.scale(r, x) == zero for x in elems)]


def _additive_closure(m, seed) -> frozenset:
    zero = m.zero_element
    current = {zero}
    frontier = list(set(seed) - current)
    current.update(frontier)
    while frontier:
        fresh = []
        for g in frontier:
            for a in list(current):
                c = m.add(a, g)
                if c not in current:
                    current.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(current)


def witness_is_sound_by_scan(prop: str, m, n, verdict) -> bool:
    """The element-scan validator that `predicates.witness_is_sound` replaced.

    Element sets are frozensets from `Submodule.elements()`, and every
    annihilator, colon and closure is a direct scan over M and R.
    """
    if not verdict.holds or m.order > 4096:
        return True
    s_elem = verdict.witness
    n_set = _elements_of(n)
    ring = m.ring
    m_elems = list(m.elements())
    if prop == "coidempotent":
        ann = _ann_set(m, n_set)
        x = [
            y
            for y in m_elems
            if all(m.scale(ring.mul(a, b), y) == m.zero_element for a in ann for b in ann)
        ]
        return all(m.scale(s_elem, y) in n_set for y in x)
    if prop == "comultiplication":
        ann = _ann_set(m, n_set)
        x = [
            y
            for y in m_elems
            if all(m.scale(a, y) == m.zero_element for a in ann)
        ]
        return set(n_set) <= set(x) and all(m.scale(s_elem, y) in n_set for y in x)
    if prop == "idempotent":
        c = [r for r in ring.elements() if all(m.scale(r, y) in n_set for y in m_elems)]
        prod_seed = [
            m.scale(ring.mul(a, b), y) for a in c for b in c for y in m_elems
        ]
        target = _additive_closure(m, prod_seed)
        return target <= n_set and all(m.scale(s_elem, y) in target for y in n_set)
    if prop == "multiplication":
        c = [r for r in ring.elements() if all(m.scale(r, y) in n_set for y in m_elems)]
        target = _additive_closure(m, [m.scale(a, y) for a in c for y in m_elems])
        return target <= n_set and all(m.scale(s_elem, y) in target for y in n_set)
    if prop == "pure":
        for i in all_ideals(ring):
            i_elems = [r for r in ring.elements() if ideal_contains(i, r)]
            im = _additive_closure(m, [m.scale(a, y) for a in i_elems for y in m_elems])
            i_n = _additive_closure(m, [m.scale(a, y) for a in i_elems for y in n_set])
            if not all(m.scale(s_elem, y) in i_n for y in (n_set & im)):
                return False
        return True
    if prop == "copure":
        zero = m.zero_element
        for i in all_ideals(ring):
            i_elems = [r for r in ring.elements() if ideal_contains(i, r)]
            colon = [
                y for y in m_elems if all(m.scale(a, y) in n_set for a in i_elems)
            ]
            torsion = [
                y for y in m_elems if all(m.scale(a, y) == zero for a in i_elems)
            ]
            target = _additive_closure(m, list(n_set) + torsion)
            if not all(m.scale(s_elem, y) in target for y in colon):
                return False
        return True
    if prop == "direct_summand":
        k_set = _elements_of(verdict.complement)
        sm = {m.scale(s_elem, y) for y in m_elems}
        summed = {m.add(a, b) for a in n_set for b in k_set}
        if sm != summed:
            return False
        return (n_set & k_set) == {m.zero_element}
    raise ValueError(f"no validator for {prop!r}")


# -- lattice laws by recomputation ------------------------------------------------


def direct_summand_by_intersection(m, n, s, strict_ds: bool = True) -> Verdict:
    """sM = N + K (with N ∩ K = 0 in the strict reading), every s tried.

    The strict reading builds N ∩ K and compares it with the zero submodule,
    where `predicates.direct_summand` compares orders and skips repeated (s).
    """
    if isinstance(m, ZModule):
        raise UnsupportedRingError("direct summands are decided on finite modules")
    s = resolve_multset(m, s)
    lattice = enumerate_submodules(m)
    zero = zero_submodule(m)
    n_order = n.order
    for elem in s.sorted_elements():
        sm = scalar_submodule(elem, full_submodule(m))
        if not sub_leq(n, sm):
            continue
        sm_order = sm.order
        for k in lattice.all:
            if strict_ds:
                if n_order * k.order != sm_order:
                    continue
                if sub_sum(n, k) == sm and sub_intersect(n, k) == zero:
                    return Verdict(True, witness=elem, complement=k)
            else:
                if sm_order % k.order:
                    continue
                if sub_sum(n, k) == sm:
                    return Verdict(True, witness=elem, complement=k)
    return Verdict(False)


def t16_by_index_families(inst):
    """T16 over families of lattice indexes, every meet and join recomputed.

    The hypothesis is read through `theorems._fully`, so a test that patches
    it reaches this route and `theorems._t16` alike.
    """
    m, s = inst.module, inst.multset
    if not theorems._fully("coidempotent", m, s).holds:
        return theorems._outcome(True, False, {})
    subs = enumerate_submodules(m).all
    families = [
        combo
        for size in (1, 2, 3)
        for combo in itertools.combinations(range(len(subs)), size)
    ]
    families.append(tuple(range(len(subs))))
    inter_ns = [reduce(sub_intersect, (subs[i] for i in fam)) for fam in families]
    for k in subs:
        sums = [sub_sum(n, k) for n in subs]
        for fam, inter_n in zip(families, inter_ns):
            inter_sums = reduce(sub_intersect, (sums[i] for i in fam))
            target = sub_sum(inter_n, k)
            if meets_ideal(s, colon_ring(target, inter_sums)) is None:
                return theorems._outcome(
                    False,
                    True,
                    {"k": str(k), "family": [str(subs[i]) for i in fam[:4]]},
                )
    return theorems._outcome(True, True, {"family_sizes": "1..3 plus the full lattice"})


# -- law bodies case by case -------------------------------------------------------
#
# The theorem bodies as they read before `theorems._implications` and
# `predicates.first_miss`: every one-way law keeps its own ok / applicable /
# details bookkeeping, and every list of ideals is scanned one `meets_ideal` at
# a time.  Hypotheses and (co)multiplication verdicts are read through
# `theorems._fully`, `_comult`, `_mult` and `_semisimple`, so a test that
# patches those reaches these routes and the registry's bodies alike.


def t01_by_cases(inst):
    m, s = inst.module, inst.multset
    classical = theorems._fully("coidempotent", m, one_multset(m.ring))
    with_s = theorems._fully("coidempotent", m, s)
    details = {}
    ok = True
    applicable = False
    if classical.holds:
        applicable = True
        if not with_s.holds:
            ok = False
            details["forward_counterexample"] = str(with_s.counterexample)
    if set(s.elements) <= units(m.ring) and with_s.holds:
        applicable = True
        if not classical.holds:
            ok = False
            details["converse_counterexample"] = str(classical.counterexample)
    return theorems._outcome(ok, applicable, details)


def t02_by_cases(inst):
    m, s = inst.module, inst.multset
    if not theorems._fully("coidempotent", m, s).holds:
        return theorems._outcome(True, False, {})
    concl = theorems._comult(m, s)
    det = {} if concl.holds else {"counterexample": str(concl.counterexample)}
    return theorems._outcome(concl.holds, True, det)


def t03_by_scans(inst):
    m, s = inst.module, inst.multset
    lattice = enumerate_submodules(m)
    a = theorems._fully("coidempotent", m, s).holds
    b = all(
        meets_ideal(s, coidempotent_witness_ideal(ci)) is not None
        for ci in lattice.completely_irreducibles()
    )
    c = all(
        meets_ideal(s, theorems._pair_sum_colon_ideal(n, k)) is not None
        for n, k in itertools.combinations_with_replacement(lattice.all, 2)
    )
    ok = a == b == c
    det = {} if ok else {"fully": a, "completely_irreducible": b, "pairwise": c}
    return theorems._outcome(ok, True, det)


def t04_by_cases(inst):
    m, s = inst.module, inst.multset
    if not theorems._comult(m, s).holds:
        return theorems._outcome(True, False, {})
    lattice = enumerate_submodules(m)
    ci_ds = all(direct_summand(m, ci, s).holds for ci in lattice.completely_irreducibles())
    details = {}
    ok = True
    applicable = False
    if ci_ds:
        applicable = True
        concl = theorems._fully("coidempotent", m, s)
        if not concl.holds:
            ok = False
            details["part_a_counterexample"] = str(concl.counterexample)
    if theorems._semisimple(m, s).holds:
        applicable = True
        concl = theorems._fully("coidempotent", m, s)
        if not concl.holds:
            ok = False
            details["part_b_counterexample"] = str(concl.counterexample)
    return theorems._outcome(ok, applicable, details)


def t15_by_cases(inst):
    m, s = inst.module, inst.multset
    coid = theorems._fully("coidempotent", m, s)
    copure_v = theorems._fully("copure", m, s)
    details = {}
    ok = True
    applicable = False
    if coid.holds:
        applicable = True
        if not copure_v.holds:
            ok = False
            details["copure_counterexample"] = str(copure_v.counterexample)
    if theorems._comult(m, s).holds and copure_v.holds:
        applicable = True
        if not coid.holds:
            ok = False
            details["coidempotent_counterexample"] = str(coid.counterexample)
    return theorems._outcome(ok, applicable, details)


def t18_by_cases(inst):
    m, s = inst.module, inst.multset
    comult_h = theorems._comult(m, s).holds
    mult_h = theorems._mult(m, s).holds
    parts = {
        "a": (mult_h and theorems._fully("copure", m, s).holds, "pure"),
        "b": (comult_h and theorems._fully("pure", m, s).holds, "copure"),
        "c": (mult_h and theorems._fully("coidempotent", m, s).holds, "idempotent"),
        "d": (comult_h and theorems._fully("idempotent", m, s).holds, "coidempotent"),
    }
    ok = True
    applicable = False
    details = {}
    for name, (hyp, concl_prop) in parts.items():
        if not hyp:
            continue
        applicable = True
        v = theorems._fully(concl_prop, m, s)
        if not v.holds:
            ok = False
            details[f"part_{name}_counterexample"] = str(v.counterexample)
    return theorems._outcome(ok, applicable, details)


def t19_by_scans(inst):
    m, s = inst.module, inst.multset
    if not theorems._comult(m, s).holds:
        return theorems._outcome(True, False, {})
    zero = zero_submodule(m)
    full = full_submodule(m)
    ideals = all_ideals(m.ring)
    torsions = {i: colon_into(zero, i) for i in ideals}
    actions = {i: ideal_action(i, full) for i in ideals}
    for i in ideals:
        for j in ideals:
            if not sub_leq(torsions[i], torsions[j]):
                continue
            if meets_ideal(s, colon_ring(actions[i], actions[j])) is None:
                return theorems._outcome(False, True, {"i": str(i), "j": str(j)})
    return theorems._outcome(True, True, {})
