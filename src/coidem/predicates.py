"""Decision procedures for every supported submodule/module property.

Each "there exists s in S" condition is decided through a closed-form witness
ideal followed by `meets_ideal`, so symbolic subsets of Z and explicit finite
subsets share one code path:

    property                 witness ideal W(N)  (condition: S ∩ W ≠ ∅)
    --------                 -------------------------------------------
    coidempotent             (N :_R (0 :_M Ann²(N)))
    idempotent               ((N:_R M)²M :_R N)
    pure                     ∩_I (IN :_R N ∩ IM)
    copure                   ∩_I ((N + (0:_M I)) :_R (N :_M I))
    comultiplication (per N) (N :_R (0 :_M Ann(N)))
    multiplication   (per N) ((N:_R M)M :_R N)

For comultiplication and multiplication the ideal quantifier is eliminated:
I = Ann(N) (resp. I = (N :_R M)) is a without-loss-of-generality choice, since
any ideal witnessing the sandwich forces the canonical one to witness it too.

The classical notions are exactly the S = {1} cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .lattice import enumerate_submodules
from .modules import (
    AnyModule,
    AnySubmodule,
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
from .multsets import (
    AnyMultSet,
    MultSet,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZMultSet,
    ZNonZero,
    ZSaturatedGeneratedBy,
    ZUnits,
    meets_ideal,
    reduce_presentation,
)
from .rings import (
    Ideal,
    IntegerRing,
    UnsupportedRingError,
    all_ideals,
    ideal,
    ideal_intersect,
    ideal_product,
    unit_ideal,
)

POINTWISE_PROPERTIES = ("coidempotent", "idempotent", "pure", "copure")
MODULE_PROPERTIES = ("comultiplication", "multiplication", "semisimple")


@dataclass(frozen=True)
class Verdict:
    """A decision with a re-checkable certificate.

    `witness` is the element s (and `complement` the summand K where one is
    part of the certificate); a failing "fully ..." decision instead carries
    the first offending submodule in canonical lattice order.
    """

    holds: bool
    witness: object = None
    complement: object = None
    counterexample: object = None


def resolve_multset(m: AnyModule, s: AnyMultSet) -> AnyMultSet:
    """Reduce a symbolic Z-side S into the module's finite ring when needed."""
    if isinstance(m, ZModule):
        if isinstance(s, MultSet):
            raise UnsupportedRingError("the Z-module Z needs a symbolic subset of Z")
        return s
    if isinstance(s, MultSet):
        if s.ring != m.ring:
            raise UnsupportedRingError(f"S lives over {s.ring}, module over {m.ring}")
        return s
    return reduce_presentation(s, m.ring)


def multset_has_zero(s: AnyMultSet) -> bool:
    if isinstance(s, MultSet):
        return s.ring.zero in s.elements
    if isinstance(s, (ZGeneratedBy, ZSaturatedGeneratedBy)):
        return 0 in s.gens
    return False


# -- witness ideals (cached per submodule; independent of S) -----------------


@cache
def coidempotent_witness_ideal(n: AnySubmodule) -> Ideal:
    ann = annihilator(n)
    torsion = colon_into(zero_submodule(n.module), ideal_product(ann, ann))
    return colon_ring(n, torsion)


@cache
def idempotent_witness_ideal(n: AnySubmodule) -> Ideal:
    m = full_submodule(n.module)
    c = colon_ring(n, m)
    target = ideal_action(ideal_product(c, c), m)
    return colon_ring(target, n)


@cache
def pure_witness_ideal(n: AnySubmodule) -> Ideal:
    ring = n.module.ring
    m = full_submodule(n.module)
    acc = unit_ideal(ring)
    for i in all_ideals(ring):
        left = ideal_action(i, n)
        right = sub_intersect(n, ideal_action(i, m))
        acc = ideal_intersect(acc, colon_ring(left, right))
    return acc


@cache
def copure_witness_ideal(n: AnySubmodule) -> Ideal:
    ring = n.module.ring
    zero = zero_submodule(n.module)
    acc = unit_ideal(ring)
    for i in all_ideals(ring):
        left = sub_sum(n, colon_into(zero, i))
        right = colon_into(n, i)
        acc = ideal_intersect(acc, colon_ring(left, right))
    return acc


@cache
def comultiplication_witness_ideal(n: AnySubmodule) -> Ideal:
    torsion = colon_into(zero_submodule(n.module), annihilator(n))
    return colon_ring(n, torsion)


@cache
def multiplication_witness_ideal(n: AnySubmodule) -> Ideal:
    m = full_submodule(n.module)
    target = ideal_action(colon_ring(n, m), m)
    return colon_ring(target, n)


_WITNESS_IDEALS = {
    "coidempotent": coidempotent_witness_ideal,
    "idempotent": idempotent_witness_ideal,
    "pure": pure_witness_ideal,
    "copure": copure_witness_ideal,
    "comultiplication": comultiplication_witness_ideal,
    "multiplication": multiplication_witness_ideal,
}


def _pointwise(prop: str, m: AnyModule, n: AnySubmodule, s: AnyMultSet) -> Verdict:
    s = resolve_multset(m, s)
    w = _WITNESS_IDEALS[prop](n)
    witness = meets_ideal(s, w)
    return Verdict(witness is not None, witness=witness)


def coidempotent(m: AnyModule, n, s: AnyMultSet) -> Verdict:
    """s·(0 :_M Ann²(N)) ⊆ N for some s ∈ S (N ⊆ that colon holds always)."""
    if isinstance(m, ZModule):
        return z_coidempotent(n, s)
    return _pointwise("coidempotent", m, n, s)


def idempotent(m: AnyModule, n, s: AnyMultSet) -> Verdict:
    """sN ⊆ (N:_R M)²M for some s ∈ S (the right inclusion ⊆ N is automatic)."""
    if isinstance(m, ZModule):
        raise UnsupportedRingError("only coidempotency has a closed form over Z")
    return _pointwise("idempotent", m, n, s)


def pure(m: AnyModule, n, s: AnyMultSet) -> Verdict:
    """One s with s(N ∩ IM) ⊆ IN for every ideal I."""
    if isinstance(m, ZModule):
        raise UnsupportedRingError("purity needs an enumerable ideal lattice")
    return _pointwise("pure", m, n, s)


def copure(m: AnyModule, n, s: AnyMultSet) -> Verdict:
    """One s with s(N :_M I) ⊆ N + (0 :_M I) for every ideal I."""
    if isinstance(m, ZModule):
        raise UnsupportedRingError("copurity needs an enumerable ideal lattice")
    return _pointwise("copure", m, n, s)


def _per_submodule_all(prop: str, m: AnyModule, s: AnyMultSet, uniform: bool) -> Verdict:
    s = resolve_multset(m, s)
    lattice = enumerate_submodules(m)
    table = _WITNESS_IDEALS[prop]
    if uniform:
        acc = unit_ideal(m.ring)
        for n in lattice.all:
            acc = ideal_intersect(acc, table(n))
        witness = meets_ideal(s, acc)
        if witness is None:
            for n in lattice.all:
                if meets_ideal(s, table(n)) is None:
                    return Verdict(False, counterexample=n)
            return Verdict(False)
        return Verdict(True, witness=witness)
    for n in lattice.all:
        if meets_ideal(s, table(n)) is None:
            return Verdict(False, counterexample=n)
    return Verdict(True)


def comultiplication(m: AnyModule, s: AnyMultSet, uniform: bool = False) -> Verdict:
    """Every N fits s(0:_M I) ⊆ N ⊆ (0:_M I) for some s and ideal I."""
    if isinstance(m, ZModule):
        raise UnsupportedRingError("no closed form for comultiplication over Z")
    return _per_submodule_all("comultiplication", m, s, uniform)


def multiplication(m: AnyModule, s: AnyMultSet, uniform: bool = False) -> Verdict:
    """Every N fits sN ⊆ IM ⊆ N for some s and ideal I."""
    if isinstance(m, ZModule):
        raise UnsupportedRingError("no closed form for multiplication over Z")
    return _per_submodule_all("multiplication", m, s, uniform)


def direct_summand(m: AnyModule, n, s: AnyMultSet, strict_ds: bool = True) -> Verdict:
    """sM = N + K (with N ∩ K = 0 in the strict reading) for some s, K.

    Deterministic witnesses: the least s in canonical element order admitting
    a complement, then the least complement K in lattice order.
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


def semisimple(m: AnyModule, s: AnyMultSet, strict_ds: bool = True) -> Verdict:
    if isinstance(m, ZModule):
        raise UnsupportedRingError("semisimplicity is decided on finite modules")
    s = resolve_multset(m, s)
    for n in enumerate_submodules(m).all:
        if not direct_summand(m, n, s, strict_ds=strict_ds).holds:
            return Verdict(False, counterexample=n)
    return Verdict(True)


def s_finite(m: AnyModule, n, s: AnyMultSet) -> Verdict:
    """sN ⊆ K ⊆ N with K finitely generated: trivial here (K = N, s = 1).

    Every supported module is noetherian, so the verdict is always positive;
    the operation exists so that finiteness hypotheses stay explicit.
    """
    if isinstance(m, ZModule):
        return Verdict(True, witness=1, complement=n)
    s = resolve_multset(m, s)
    return Verdict(True, witness=m.ring.one, complement=n)


def s_noetherian(m: AnyModule, s: AnyMultSet) -> Verdict:
    return Verdict(True, witness=1 if isinstance(m, ZModule) else m.ring.one)


def fully(prop: str, m: AnyModule, s: AnyMultSet, uniform: bool = False) -> Verdict:
    """Every submodule has the property; first failure is the counterexample.

    Pointwise by default (each submodule may use its own s); `uniform` asks
    for a single s serving the whole lattice, which is equivalent whenever S
    satisfies the maximal multiple condition (always true for finite S).
    """
    if prop not in POINTWISE_PROPERTIES:
        raise ValueError(f"'fully' applies to {POINTWISE_PROPERTIES}")
    if isinstance(m, ZModule):
        if prop != "coidempotent":
            raise UnsupportedRingError("over Z only fully-coidempotent has a closed form")
        return fully_coidempotent_z(s)
    return _per_submodule_all(prop, m, s, uniform)


# -- the Z-module Z: closed forms --------------------------------------------


def z_coidempotent(t: int, s: ZMultSet) -> Verdict:
    """tZ is S-coidempotent iff t <= 1 or S meets tZ.

    For t >= 2: Ann(tZ) = 0, so (0 :_Z Ann²(tZ)) = Z and the condition reads
    s·Z ⊆ tZ, i.e. t | s for some s ∈ S.
    """
    if t < 0:
        raise ValueError("submodules of Z are tZ with t >= 0")
    if isinstance(s, MultSet):
        raise UnsupportedRingError("the Z-module Z needs a symbolic subset of Z")
    if t <= 1:
        return Verdict(True, witness=1)
    witness = meets_ideal(s, ideal(IntegerRing(), t))
    return Verdict(witness is not None, witness=witness)


def _least_prime_outside(gens) -> int:
    supports = [abs(g) for g in gens if g not in (0, 1, -1)]
    p = 2
    while True:
        from .rings import is_prime

        if is_prime(p) and all(g % p for g in supports):
            return p
        p += 1


def fully_coidempotent_z(s: ZMultSet) -> Verdict:
    """Z is fully S-coidempotent iff S meets tZ for every t > 0.

    t = 0 and t = 1 hold automatically; the per-kind closed forms are spelled
    out case by case, with the least failing tZ as counterexample.
    """
    if isinstance(s, MultSet):
        raise UnsupportedRingError("the Z-module Z needs a symbolic subset of Z")
    if isinstance(s, ZNonZero):
        return Verdict(True)
    if isinstance(s, ZUnits):
        return Verdict(False, counterexample=2)
    if isinstance(s, ZComplementOfPrimes):
        return Verdict(False, counterexample=min(s.primes))
    if multset_has_zero(s):
        return Verdict(True, witness=0)
    return Verdict(False, counterexample=_least_prime_outside(s.gens))


# -- element-level certificate validation ------------------------------------


def _elements_of(sub: AnySubmodule) -> frozenset:
    return frozenset(sub.elements())


def _ann_set(m: AnyModule, elems) -> list:
    zero = m.zero_element
    return [r for r in m.ring.elements() if all(m.scale(r, x) == zero for x in elems)]


def _additive_closure(m: AnyModule, seed) -> frozenset:
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


def witness_is_sound(prop: str, m: AnyModule, n: AnySubmodule, verdict: Verdict) -> bool:
    """Re-validate a positive certificate from scratch, at the element level."""
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
            i_elems = [r for r in ring.elements() if _ideal_contains_elem(i, r)]
            im = _additive_closure(m, [m.scale(a, y) for a in i_elems for y in m_elems])
            i_n = _additive_closure(m, [m.scale(a, y) for a in i_elems for y in n_set])
            if not all(m.scale(s_elem, y) in i_n for y in (n_set & im)):
                return False
        return True
    if prop == "copure":
        zero = m.zero_element
        for i in all_ideals(ring):
            i_elems = [r for r in ring.elements() if _ideal_contains_elem(i, r)]
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


def _ideal_contains_elem(i: Ideal, r) -> bool:
    from .rings import ideal_contains

    return ideal_contains(i, r)
