"""Independent routes to answers the engine computes, used only by the tests.

Each helper here decides by brute force or by a different algorithm what
`coidem` decides through canonical forms and witness ideals, so agreement
between the two is a real check.  None of them is used by the package.
"""

import itertools
from math import prod

from coidem.intmat import hnf_square, in_rowspan
from coidem.lattice import LatticeCapExceeded
from coidem.modules import (
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
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
)
from coidem.predicates import Verdict, resolve_multset
from coidem.rings import (
    IntegerRing,
    ProductRing,
    RingMismatchError,
    UnsupportedRingError,
    all_ideals,
    ideal_contains,
    ideal_product,
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
    # x divides a product of the gens iff it divides a power of their product
    # with exponent at least its largest prime exponent
    if x == 0:
        return 0 in s.gens
    return pow(prod(s.gens), abs(x).bit_length(), abs(x)) == 0


def multset_contains(s, x) -> bool:
    if isinstance(s, MultSet):
        return x in s.elements
    return z_multset_contains(s, x)


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
