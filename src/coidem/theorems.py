"""Registry of executable law checks (T01–T20), corpus generation, reports.

Each entry states a law about the supported predicates, evaluates it on one
instance (ring, module, multiplicative set), and returns pass / violation /
inapplicable.  Laws are checked as material implications (hypotheses are
evaluated, never assumed) and a pass with a failed hypothesis is flagged
vacuous so it never counts as real coverage.  Equivalence-style entries
(iff chains) are never vacuous.

Quadratic-in-lattice checks carry per-entry lattice-size gates so the default
corpus stays inside its time budget; gated instances report as inapplicable
with a size_gate detail.  Witness ideals that do not depend on S are built
once: those of one submodule (or of one pair, for T03) are cached per
submodule, and each list that a single s must serve (T03, T16, T19 and every
fully-* or (co)multiplication check) is cached per module as its intersection
by `predicates.meet_of`.  Re-checking the same module under another S costs one
`meets_ideal` per list; only a miss walks its list again.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from functools import cache, partial, reduce

from .lattice import enumerate_submodules
from .modules import (
    AnyModule,
    AnySubmodule,
    FinModule,
    ProductModule,
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
    sub_intersect,
    sub_leq,
    sub_sum,
    submodule_as_module,
    zero_submodule,
)
from .multsets import (
    MultSet,
    closure_in_ring,
    meets_ideal,
    one_multset,
    product_multset,
    reduce_presentation,
    saturation,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
)
from .predicates import (
    Verdict,
    comultiplication,
    coidempotent,
    direct_summand,
    first_miss,
    fully,
    fully_coidempotent_z,
    multiplication,
    semisimple,
    witness_is_sound,
    _WITNESS_IDEALS,
)
from .rings import (
    Ideal,
    Z,
    ModularRing,
    all_ideals,
    divisors,
    ideal_contains,
    ideal_meet,
    ideal_product,
    maximal_ideals,
    prime_factors,
    units,
)
from .specs import SpecError


# -- cached predicate layer (everything is hashable) --------------------------


@cache
def _fully(prop: str, m: AnyModule, s: MultSet) -> Verdict:
    return fully(prop, m, s)


@cache
def _comult(m: AnyModule, s: MultSet) -> Verdict:
    return comultiplication(m, s)


@cache
def _mult(m: AnyModule, s: MultSet) -> Verdict:
    return multiplication(m, s)


@cache
def _semisimple(m: AnyModule, s: MultSet) -> Verdict:
    return semisimple(m, s)


@cache
def _ann(n: AnySubmodule) -> Ideal:
    return annihilator(n)


@cache
def _pair_sum_colon_ideal(n: AnySubmodule, k: AnySubmodule) -> Ideal:
    """The T03(c) witness ideal ((N + K) :_R (0 :_M Ann(N)Ann(K)))."""
    m = n.module
    torsion = colon_into(zero_submodule(m), ideal_product(_ann(n), _ann(k)))
    return colon_ring(sub_sum(n, k), torsion)


@cache
def _copure_c_ideal(n: AnySubmodule) -> Ideal:
    """The T14(c) witness ideal: meet over K containing N of (K :_R (N :_M Ann(K)))."""
    subs = enumerate_submodules(n.module).all
    colons = (colon_ring(k, colon_into(n, _ann(k))) for k in subs if sub_leq(n, k))
    return ideal_meet(n.module.ring, colons)


@cache
def _copure_d_ideal(n: AnySubmodule) -> Ideal:
    """The T14(d) witness ideal: meet over all K of ((N :_M (N :_R K)) :_R (N :_M Ann(K)))."""
    subs = enumerate_submodules(n.module).all
    colons = (colon_ring(colon_into(n, colon_ring(n, k)), colon_into(n, _ann(k))) for k in subs)
    return ideal_meet(n.module.ring, colons)


# -- instances and results ----------------------------------------------------


@dataclass(frozen=True)
class Instance:
    module: AnyModule
    multset: MultSet
    label: str
    component_instances: tuple["Instance", ...] = ()


@dataclass
class CheckResult:
    theorem_id: str
    anchor: str
    instance: str
    status: str  # pass | violation | inapplicable
    vacuous: bool = False
    details: dict = field(default_factory=dict)
    millis: float | None = None

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "anchor": self.anchor,
            "instance": self.instance,
            "status": self.status,
            "vacuous": self.vacuous,
            "details": self.details,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class Theorem:
    id: str
    anchor: str
    max_lattice: int | None
    run: object  # callable(Instance) -> (status, vacuous, details)


def _lattice_size(m: AnyModule) -> int:
    return len(enumerate_submodules(m))


def _outcome(ok: bool, applicable: bool, details: dict):
    if not ok:
        return "violation", False, details
    return "pass", (not applicable), details


def _implications(*parts):
    """One-way laws, each part (hypothesis, conclusion thunk, detail key): a
    conclusion is evaluated only where its hypothesis holds, and a failing one
    records its counterexample under its key."""
    details = {}
    applicable = False
    for hypothesis, conclusion, key in parts:
        if hypothesis:
            applicable = True
            verdict = conclusion()
            if not verdict.holds:
                details[key] = str(verdict.counterexample)
    return _outcome(not details, applicable, details)


# -- the twenty checks --------------------------------------------------------


def _t01(inst: Instance):
    m, s = inst.module, inst.multset
    classical = _fully("coidempotent", m, one_multset(m.ring))
    with_s = _fully("coidempotent", m, s)
    converse = set(s.elements) <= units(m.ring) and with_s.holds
    return _implications(
        (classical.holds, lambda: with_s, "forward_counterexample"),
        (converse, lambda: classical, "converse_counterexample"),
    )


def _t02(inst: Instance):
    m, s = inst.module, inst.multset
    return _implications(
        (_fully("coidempotent", m, s).holds, partial(_comult, m, s), "counterexample")
    )


def _ci_coidempotent_ideals(m: AnyModule):
    """T03(b)'s list: the coidempotent witness ideal of each completely irreducible."""
    cis = enumerate_submodules(m).completely_irreducibles()
    return ((ci, _WITNESS_IDEALS["coidempotent"](ci)) for ci in cis)


def _pair_ideals(m: AnyModule):
    """T03(c)'s list: the witness ideal of each unordered pair of submodules."""
    pairs = itertools.combinations_with_replacement(enumerate_submodules(m).all, 2)
    return ((pair, _pair_sum_colon_ideal(*pair)) for pair in pairs)


def _t03(inst: Instance):
    m, s = inst.module, inst.multset
    a = _fully("coidempotent", m, s).holds
    b = first_miss(s, _ci_coidempotent_ideals, m) is None
    c = first_miss(s, _pair_ideals, m) is None
    ok = a == b == c
    det = {} if ok else {"fully": a, "completely_irreducible": b, "pairwise": c}
    return _outcome(ok, True, det)


def _t04(inst: Instance):
    m, s = inst.module, inst.multset
    comult = _comult(m, s).holds
    cis = enumerate_submodules(m).completely_irreducibles
    ci_ds = comult and all(direct_summand(m, ci, s).holds for ci in cis())
    coid = partial(_fully, "coidempotent", m, s)
    return _implications(
        (ci_ds, coid, "part_a_counterexample"),
        (comult and _semisimple(m, s).holds, coid, "part_b_counterexample"),
    )


def _t05(inst: Instance):
    m, s = inst.module, inst.multset
    if not _fully("coidempotent", m, s).holds:
        return _outcome(True, False, {})
    ring = m.ring
    supersets = [saturation(s)]
    extras = [x for x in sorted(ring.elements()) if x not in s.elements][:2]
    for x in extras:
        supersets.append(closure_in_ring(ring, list(s.elements) + [x]))
    ok = True
    details = {}
    for s2 in supersets:
        if not set(s.elements) <= set(s2.elements):
            continue
        v = _fully("coidempotent", m, s2)
        if not v.holds:
            ok = False
            details["superset"] = str(s2)
            details["counterexample"] = str(v.counterexample)
            break
    return _outcome(ok, True, details)


def _t06(inst: Instance):
    m, s = inst.module, inst.multset
    a = _fully("coidempotent", m, s).holds
    b = _fully("coidempotent", m, saturation(s)).holds
    det = {} if a == b else {"plain": a, "saturated": b}
    return _outcome(a == b, True, det)


def _t07(inst: Instance):
    m, s = inst.module, inst.multset
    if not _fully("coidempotent", m, s).holds:
        return _outcome(True, False, {})
    for n in enumerate_submodules(m).all:
        v = _fully("coidempotent", quotient_module(m, n), s)
        if not v.holds:
            return _outcome(
                False,
                True,
                {"by": str(n), "counterexample": str(v.counterexample)},
            )
    return _outcome(True, True, {})


def _complement_multset(ring, maximal: Ideal) -> MultSet:
    elems = frozenset(
        x for x in ring.elements() if not ideal_contains(maximal, x)
    )
    return MultSet(ring, elems)


def _t08(inst: Instance):
    m = inst.module
    ring = m.ring
    one = one_multset(ring)
    a = _fully("coidempotent", m, one).holds
    stmts = {"classical": a}
    b = True
    c = True
    d = True
    for mx in maximal_ideals(ring):
        comp = _complement_multset(ring, mx)
        holds = _fully("coidempotent", m, comp).holds
        b = b and holds
        c = c and holds
        supported = s_torsion(m, comp) != full_submodule(m)
        if supported:
            d = d and holds
    stmts.update({"primes": b, "maximals": c, "supported_maximals": d})
    ok = a == b == c == d
    return _outcome(ok, True, {} if ok else stmts)


def _t09(inst: Instance):
    m, s = inst.module, inst.multset
    if isinstance(m, ProductModule):
        return "inapplicable", False, {"reason": "componentwise module"}
    lattice = enumerate_submodules(m)
    hyp_m = _fully("coidempotent", m, s).holds
    details = {"under_approximation": True}
    ok = True
    applicable = False
    full = full_submodule(m)
    for n in lattice.all:
        sub_fully = _fully("coidempotent", submodule_as_module(n), s).holds
        if hyp_m:
            applicable = True
            if not sub_fully:
                ok = False
                details["closure_counterexample"] = str(n)
                break
        transfer = meets_ideal(s, colon_ring(n, full))
        if transfer is not None and sub_fully:
            applicable = True
            if not hyp_m:
                ok = False
                details["transfer_counterexample"] = str(n)
                details["transfer_witness"] = str(transfer)
                break
    return _outcome(ok, applicable, details)


def _t10(inst: Instance):
    if not inst.component_instances:
        return "inapplicable", False, {"reason": "not a product instance"}
    m, s = inst.module, inst.multset
    whole = _fully("coidempotent", m, s).holds
    parts = [
        _fully("coidempotent", ci.module, ci.multset).holds
        for ci in inst.component_instances
    ]
    ok = whole == all(parts)
    det = {} if ok else {"product": whole, "factors": parts}
    return _outcome(ok, True, det)


def _t11(inst: Instance):
    m, s = inst.module, inst.multset
    loc = localize_module(m, s)
    if loc.trivial:
        return _outcome(True, True, {"trivial": True})
    ring = m.ring
    zero_src = zero_submodule(m)
    zero_dst = zero_submodule(loc.module)
    for i in all_ideals(ring):
        lhs = loc.map_submodule(colon_into(zero_src, i))
        rhs = colon_into(zero_dst, loc.map_ideal(i))
        if lhs != rhs:
            return _outcome(False, True, {"ideal": str(i)})
    for n in enumerate_submodules(m).all:
        lhs = loc.map_ideal(_ann(n))
        rhs = annihilator(loc.map_submodule(n))
        if lhs != rhs:
            return _outcome(False, True, {"submodule": str(n)})
    return _outcome(True, True, {})


def _t12(inst: Instance):
    m, s = inst.module, inst.multset
    a = _fully("coidempotent", m, s).holds
    loc = localize_module(m, s)
    if loc.trivial:
        ok = a  # S ∋ 0, so both sides must hold (the localized module is zero)
        return _outcome(ok, True, {} if ok else {"trivial_but_not_fully": True})
    b = _fully("coidempotent", loc.module, one_multset(loc.ring)).holds
    ok = a == b
    det = {} if ok else {"source": a, "localized": b}
    return _outcome(ok, True, det)


def _t13(inst: Instance):
    m, s = inst.module, inst.multset
    if not _fully("coidempotent", m, s).holds:
        return _outcome(True, False, {})
    loc = localize_module(m, s)
    if loc.trivial:
        return _outcome(True, True, {"trivial": True})
    b = _fully("coidempotent", loc.module, one_multset(loc.ring)).holds
    return _outcome(b, True, {} if b else {"localized_fails": True})


def _t14(inst: Instance):
    m, s = inst.module, inst.multset
    if not _comult(m, s).holds:
        return _outcome(True, False, {})
    for n in enumerate_submodules(m).all:
        q_comult = _comult(quotient_module(m, n), s).holds
        a = meets_ideal(s, _WITNESS_IDEALS["copure"](n)) is not None
        b = q_comult and meets_ideal(s, _WITNESS_IDEALS["coidempotent"](n)) is not None
        c = q_comult and meets_ideal(s, _copure_c_ideal(n)) is not None
        d = q_comult and meets_ideal(s, _copure_d_ideal(n)) is not None
        if not (a == b == c == d):
            return _outcome(
                False,
                True,
                {"submodule": str(n), "a": a, "b": b, "c": c, "d": d},
            )
    return _outcome(True, True, {})


def _t15(inst: Instance):
    m, s = inst.module, inst.multset
    coid, copure_v = _fully("coidempotent", m, s), _fully("copure", m, s)
    converse = _comult(m, s).holds and copure_v.holds
    return _implications(
        (coid.holds, lambda: copure_v, "copure_counterexample"),
        (converse, lambda: coid, "coidempotent_counterexample"),
    )


def _t16_ideals(m: AnyModule):
    """T16's list: ((⋂N) + K :_R ⋂(N + K)) for each K and each family of
    one to three submodules or the whole lattice."""
    subs = enumerate_submodules(m).all
    # the lattice is closed under meet and join: at most n² distinct pairs each
    meet, join, colon = cache(sub_intersect), cache(sub_sum), cache(colon_ring)
    families = [fam for r in (1, 2, 3) for fam in itertools.combinations(subs, r)]
    families.append(subs)
    for k in subs:
        for fam in families:
            inter_sums = reduce(meet, (join(n, k) for n in fam))
            yield (k, fam), colon(join(reduce(meet, fam), k), inter_sums)


def _t16(inst: Instance):
    m, s = inst.module, inst.multset
    if not _fully("coidempotent", m, s).holds:
        return _outcome(True, False, {})
    miss = first_miss(s, _t16_ideals, m)
    if miss is None:
        return _outcome(True, True, {"family_sizes": "1..3 plus the full lattice"})
    k, fam = miss
    return _outcome(False, True, {"k": str(k), "family": [str(n) for n in fam[:4]]})


def _t17(inst: Instance):
    m, s = inst.module, inst.multset
    if not _comult(m, s).holds:
        return _outcome(True, False, {})
    applicable = False
    for n in enumerate_submodules(m).all:
        if meets_ideal(s, _WITNESS_IDEALS["pure"](n)) is None:
            continue
        applicable = True
        if meets_ideal(s, _WITNESS_IDEALS["coidempotent"](n)) is None:
            return _outcome(False, True, {"submodule": str(n)})
    return _outcome(True, applicable, {})


def _t18(inst: Instance):
    m, s = inst.module, inst.multset
    comult, mult = _comult(m, s).holds, _mult(m, s).holds
    parts = [
        (on and _fully(hyp, m, s).holds, partial(_fully, concl, m, s), key)
        for key, on, hyp, concl in (
            ("part_a_counterexample", mult, "copure", "pure"),
            ("part_b_counterexample", comult, "pure", "copure"),
            ("part_c_counterexample", mult, "coidempotent", "idempotent"),
            ("part_d_counterexample", comult, "idempotent", "coidempotent"),
        )
    ]
    return _implications(*parts)


def _t19_ideals(m: AnyModule):
    """T19's list: (IM :_R JM) for each pair of ideals with (0 :_M I) ⊆ (0 :_M J)."""
    ideals = all_ideals(m.ring)
    torsions = {i: colon_into(zero_submodule(m), i) for i in ideals}
    actions = {i: ideal_action(i, full_submodule(m)) for i in ideals}
    for i, j in itertools.product(ideals, repeat=2):
        if sub_leq(torsions[i], torsions[j]):
            yield (i, j), colon_ring(actions[i], actions[j])


def _t19(inst: Instance):
    m, s = inst.module, inst.multset
    if not _comult(m, s).holds:
        return _outcome(True, False, {})
    miss = first_miss(s, _t19_ideals, m)
    det = {} if miss is None else {"i": str(miss[0]), "j": str(miss[1])}
    return _outcome(miss is None, True, det)


def _t20(inst: Instance):
    m, s = inst.module, inst.multset
    a = _fully("coidempotent", m, s).holds
    b = _fully("idempotent", m, s).holds
    ok = a == b
    det = {} if ok else {"coidempotent": a, "idempotent": b}
    return _outcome(ok, True, det)


def theorem_registry() -> tuple[Theorem, ...]:
    return (
        Theorem("T01", "fully coidempotent implies fully S-coidempotent; converse when S consists of units", None, _t01),
        Theorem("T02", "fully S-coidempotent implies S-comultiplication", None, _t02),
        Theorem("T03", "with a maximal multiple: fully S-coidempotent iff every completely irreducible submodule is S-coidempotent iff all pairs satisfy s(0 : Ann(N)Ann(K)) inside N+K", 36, _t03),
        Theorem("T04", "with a maximal multiple: an S-comultiplication module whose completely irreducible submodules are S-direct summands is fully S-coidempotent; likewise if S-semisimple", 64, _t04),
        Theorem("T05", "fully S1-coidempotent implies fully S2-coidempotent for any larger S2", None, _t05),
        Theorem("T06", "fully S-coidempotent iff fully coidempotent for the saturation of S", None, _t06),
        Theorem("T07", "every quotient of a fully S-coidempotent module is fully S-coidempotent", 48, _t07),
        Theorem("T08", "fully coidempotent iff fully coidempotent at the complement of every prime (equivalently maximal, equivalently supporting maximal) ideal", 200, _t08),
        Theorem("T09", "submodules of a fully S-coidempotent module are fully S-coidempotent; conversely along an inclusion with tM inside N for some t in S", 48, _t09),
        Theorem("T10", "a product module is fully S-coidempotent iff each factor is, componentwise", None, _t10),
        Theorem("T11", "localization commutes with torsion colons and annihilators", 200, _t11),
        Theorem("T12", "with a maximal multiple: fully S-coidempotent iff the localized module is fully coidempotent", 200, _t12),
        Theorem("T13", "over an S-noetherian ring, fully S-coidempotent carries to the localized module", 200, _t13),
        Theorem("T14", "in an S-comultiplication module: S-copure iff (quotient S-comultiplication and S-coidempotent) iff the two colon characterizations", 36, _t14),
        Theorem("T15", "fully S-coidempotent implies fully S-copure; with S-comultiplication, fully S-copure implies fully S-coidempotent", None, _t15),
        Theorem("T16", "with a maximal multiple, in a fully S-coidempotent module finite and full families satisfy s·inter(N+K) inside inter(N)+K", 12, _t16),
        Theorem("T17", "an S-pure submodule of an S-comultiplication module is S-coidempotent", 120, _t17),
        Theorem("T18", "multiplication/comultiplication transfer between fully S-pure, S-copure, S-idempotent and S-coidempotent", 64, _t18),
        Theorem("T19", "in an S-comultiplication module torsion-colon reversal forces sJM inside IM", 120, _t19),
        Theorem("T20", "for S-finite modules fully S-coidempotent and fully S-idempotent agree (S-noetherian for the converse)", None, _t20),
    )


# -- corpus -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    moduli: tuple[int, ...] = tuple(range(2, 17))
    max_order: int = 32
    include_products: bool = True
    fuzz: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "max_order": self.max_order,
            "include_products": self.include_products,
            "fuzz": self.fuzz,
            "seed": self.seed,
        }


def factor_lists(n: int, max_order: int):
    """Nondecreasing divisor tuples with product bounded by max_order."""
    divs = divisors(n)[1:]
    out = []

    def rec(prefix, smallest, budget):
        for d in divs:
            if d < smallest or d > budget:
                continue
            cur = prefix + (d,)
            out.append(cur)
            rec(cur, d, budget // d)

    rec((), 2, max_order)
    return out


def s_choices(ring: ModularRing):
    """Deterministic pool of multiplicative subsets of Z/n.

    The named pool is {1}, all units, the reduced complement of each prime
    divisor, the closure of each single generator, and the zero closure; when
    that yields fewer than six distinct sets, two-generator closures are added
    (small rings may not have six multiplicatively closed subsets at all).
    """
    n = ring.n
    pool: list[MultSet] = [one_multset(ring)]
    pool.append(MultSet(ring, units(ring)))
    for p in prime_factors(n):
        pool.append(reduce_presentation(ZComplementOfPrimes((p,)), n))
    for g in range(2, n):
        pool.append(closure_in_ring(ring, [g]))
    pool.append(closure_in_ring(ring, [0]))
    seen = {}
    for s in pool:
        seen.setdefault(s.elements, s)
    if len(seen) < 6:
        for g, h in itertools.combinations(range(2, n), 2):
            s = closure_in_ring(ring, [g, h])
            seen.setdefault(s.elements, s)
    return list(seen.values())


def _instance(m: AnyModule, s: MultSet, components=()) -> Instance:
    label = f"ring={m.ring}|module={m}|S={s}"
    return Instance(m, s, label, components)


def generate_corpus(config: CorpusConfig = CorpusConfig()) -> list[Instance]:
    instances: list[Instance] = []
    for n in config.moduli:
        shapes = factor_lists(n, config.max_order)
        if not shapes:
            continue  # s_choices closes every element of Z/n: skip it when unused
        ring = ModularRing(n)
        sets = s_choices(ring)
        for factors in shapes:
            m = FinModule(ring, factors)
            for s in sets:
                instances.append(_instance(m, s))
    if config.include_products:
        pool = [
            _instance(module_from_factors(ModularRing(2), (2,)), one_multset(ModularRing(2))),
            _instance(
                module_from_factors(ModularRing(2), (2, 2)),
                MultSet(ModularRing(2), frozenset({1})),
            ),
            _instance(
                module_from_factors(ModularRing(3), (3,)),
                MultSet(ModularRing(3), units(ModularRing(3))),
            ),
            _instance(
                module_from_factors(ModularRing(4), (4,)),
                reduce_presentation(ZComplementOfPrimes((2,)), 4),
            ),
            _instance(
                module_from_factors(ModularRing(6), (6,)),
                closure_in_ring(ModularRing(6), [0]),
            ),
        ]
        for a, b in itertools.combinations_with_replacement(pool, 2):
            m = product_module(a.module, b.module)
            s = product_multset(a.multset, b.multset)
            instances.append(_instance(m, s, (a, b)))
        a, b, c = pool[0], pool[2], pool[3]
        m = product_module(a.module, b.module, c.module)
        s = product_multset(a.multset, b.multset, c.multset)
        instances.append(_instance(m, s, (a, b, c)))
    if config.fuzz:
        import random

        moduli = [n for n in config.moduli if factor_lists(n, config.max_order)]
        if not moduli:
            raise SpecError(
                f"--fuzz needs a modulus with a module of order <= {config.max_order}"
            )
        rng = random.Random(config.seed)
        for _ in range(config.fuzz):
            n = rng.choice(moduli)
            ring = ModularRing(n)
            factors = rng.choice(factor_lists(n, config.max_order))
            gens = [rng.randrange(n) for _ in range(rng.randint(1, 2))]
            s = closure_in_ring(ring, gens)
            inst = _instance(FinModule(ring, factors), s)
            instances.append(
                Instance(inst.module, inst.multset, inst.label + f"|fuzz-seed={config.seed}")
            )
    return instances


# -- harness ------------------------------------------------------------------


@dataclass
class Report:
    schema: int
    config: dict
    results: list[CheckResult]
    summary: dict
    probes: dict
    witness_checks: dict

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
            "probes": self.probes,
            "witness_checks": self.witness_checks,
        }

    @property
    def violations(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "violation"]


def run_check(theorem: Theorem, inst: Instance, timings: bool = False) -> CheckResult:
    start = time.perf_counter() if timings else None
    if theorem.max_lattice is not None and _lattice_size(inst.module) > theorem.max_lattice:
        result = CheckResult(
            theorem.id,
            theorem.anchor,
            inst.label,
            "inapplicable",
            False,
            {"size_gate": theorem.max_lattice},
        )
    else:
        status, vacuous, details = theorem.run(inst)
        result = CheckResult(theorem.id, theorem.anchor, inst.label, status, vacuous, details)
    if timings:
        result.millis = round((time.perf_counter() - start) * 1000.0, 3)
    return result


def _validate_instance_witnesses(inst: Instance) -> tuple[int, int]:
    """Re-validate pointwise certificates at the element level.

    The coidempotency, comultiplication, multiplication and idempotency
    witnesses are checked on every corpus instance; the (co)purity validators
    walk ideal-by-ideal element closures and run on modules of order <= 16.
    `witness_is_sound` works on bitmasks over M's elements, independently of
    `intmat`, and is memoized on (property, N, witness): `checked` counts
    every certificate asked about, repeated ones included.
    """
    m, s = inst.module, inst.multset
    checked = failed = 0
    props = ["coidempotent", "comultiplication", "multiplication", "idempotent"]
    if m.order <= 16:
        props += ["pure", "copure"]
    for n in enumerate_submodules(m).all:
        for prop in props:
            witness = meets_ideal(s, _WITNESS_IDEALS[prop](n))
            if witness is None:
                continue
            checked += 1
            if not witness_is_sound(prop, m, n, Verdict(True, witness=witness)):
                failed += 1
    return checked, failed


def _probe_flags(inst: Instance) -> dict:
    m, s = inst.module, inst.multset
    coid = _fully("coidempotent", m, s).holds
    return {
        "comultiplication_not_fully_coidempotent": _comult(m, s).holds and not coid,
        "s_coidempotent_not_classical": coid
        and not _fully("coidempotent", m, one_multset(m.ring)).holds,
        "s_copure_not_s_coidempotent": _fully("copure", m, s).holds and not coid,
    }


def verify_all(
    corpus,
    theorem_ids=None,
    jobs: int = 1,
    validate_witnesses: bool = True,
    timings: bool = False,
    config: CorpusConfig | None = None,
) -> Report:
    registry = [
        t for t in theorem_registry() if theorem_ids is None or t.id in theorem_ids
    ]
    tasks = [(inst, [t.id for t in registry], validate_witnesses, timings) for inst in corpus]
    # the report does not depend on the job count: more workers than usable
    # CPUs or than instances only add processes
    jobs = min(jobs, len(os.sched_getaffinity(0)), len(tasks))
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            chunks = pool.map(_worker, tasks)
    else:
        chunks = [_worker(task) for task in tasks]
    results = [r for chunk, _, _, _ in chunks for r in chunk]
    probe_list = [p for _, p, _, _ in chunks]
    checked = sum(c for _, _, c, _ in chunks)
    failed = sum(f for _, _, _, f in chunks)
    summary: dict = {}
    for t in registry:
        rows = [r for r in results if r.theorem_id == t.id]
        summary[t.id] = {
            "pass": sum(r.status == "pass" for r in rows),
            "vacuous": sum(r.status == "pass" and r.vacuous for r in rows),
            "violation": sum(r.status == "violation" for r in rows),
            "inapplicable": sum(r.status == "inapplicable" for r in rows),
        }
        summary[t.id]["applicable"] = (
            summary[t.id]["pass"]
            - summary[t.id]["vacuous"]
            + summary[t.id]["violation"]
        )
    probes = {}
    for name in (
        "comultiplication_not_fully_coidempotent",
        "s_coidempotent_not_classical",
        "s_copure_not_s_coidempotent",
    ):
        hits = [label for label, flags in probe_list if flags[name]]
        probes[name] = {"count": len(hits), "examples": hits[:3]}
    return Report(
        schema=1,
        config=(config or CorpusConfig()).to_dict(),
        results=results,
        summary=summary,
        probes=probes,
        witness_checks={"checked": checked, "failed": failed},
    )


def _worker(args):
    inst, ids, validate_witnesses, timings = args
    registry = [t for t in theorem_registry() if t.id in ids]
    results = [run_check(t, inst, timings=timings) for t in registry]
    probe = (inst.label, _probe_flags(inst))
    checked = failed = 0
    if validate_witnesses:
        checked, failed = _validate_instance_witnesses(inst)
    return results, probe, checked, failed


# -- golden examples ----------------------------------------------------------


@dataclass
class GoldenResult:
    name: str
    description: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "detail": self.detail,
        }


def reproduce_examples() -> list[GoldenResult]:
    """The five bundled golden instances with their known exact verdicts."""
    out = []

    def record(name, description, ok, detail=""):
        out.append(GoldenResult(name, description, bool(ok), detail))

    # 1. Z as a Z-module with S the nonzero integers.
    v_s = fully_coidempotent_z(ZNonZero())
    v_plain = fully_coidempotent_z(ZGeneratedBy(()))
    record(
        "integers-nonzero",
        "Z over Z: fully S-coidempotent for S = nonzero, not fully coidempotent",
        v_s.holds and not v_plain.holds and v_plain.counterexample == 2,
        f"S verdict={v_s.holds}, classical counterexample={v_plain.counterexample}Z",
    )

    # 2. Z/2 + Z/2 declared over Z with S the powers of two.
    m22 = module_from_factors(Z, (2, 2))
    v_s = fully("coidempotent", m22, ZGeneratedBy((2,)))
    v_plain = fully("coidempotent", m22, one_multset(m22.ring))
    from .modules import submodule_from_generators

    lines = (
        submodule_from_generators(m22, [(1, 0)]),
        submodule_from_generators(m22, [(0, 1)]),
    )
    record(
        "two-copies-of-two",
        "Z/2+Z/2 over Z with S = powers of 2: fully S-coidempotent, classically a coordinate line fails",
        v_s.holds and not v_plain.holds and v_plain.counterexample in lines,
        f"counterexample={v_plain.counterexample}",
    )

    # 3. Z/4 over Z with S the odd integers.
    m4 = module_from_factors(Z, (4,))
    s_odd = ZComplementOfPrimes((2,))
    comult_v = comultiplication(m4, reduce_presentation(s_odd, m4.ring))
    v = fully("coidempotent", m4, s_odd)
    n2 = submodule_from_generators(m4, [(2,)])
    record(
        "four-odd",
        "Z/4 over Z with S = odd integers: S-comultiplication but not fully S-coidempotent (2·Z/4 fails)",
        comult_v.holds and not v.holds and v.counterexample == n2,
        f"counterexample={v.counterexample}",
    )

    # 4. Z/p + Z/p with S the integers prime to p, p in {2, 3, 5}.
    ok4 = True
    details = []
    for p in (2, 3, 5):
        mpp = module_from_factors(Z, (p, p))
        sp = ZComplementOfPrimes((p,))
        copure_v = fully("copure", mpp, sp)
        coid_v = fully("coidempotent", mpp, sp)
        second_line = submodule_from_generators(mpp, [(0, 1)])
        point = coidempotent(mpp, second_line, sp)
        ok4 = ok4 and copure_v.holds and not coid_v.holds and not point.holds
        details.append(f"p={p}: copure={copure_v.holds}, coidempotent={coid_v.holds}")
    record(
        "p-square-prime-to-p",
        "Z/p+Z/p over Z with S prime to p: fully S-copure, not fully S-coidempotent (0+Z/p fails)",
        ok4,
        "; ".join(details),
    )

    # 5. The annihilator-meets pattern: Ann(M) ∩ S nonempty forces everything.
    ring12 = ModularRing(12)
    m2 = FinModule(ring12, (2,))
    s14 = closure_in_ring(ring12, [4])
    witness = meets_ideal(s14, annihilator(full_submodule(m2)))
    v = fully("coidempotent", m2, s14)
    per_point = all(
        witness is not None
        and ideal_contains(_WITNESS_IDEALS["coidempotent"](n), witness)
        for n in enumerate_submodules(m2).all
    )
    record(
        "annihilator-meets",
        "Z/2 over Z/12 with S = {1,4}: S meets Ann(M), so fully S-coidempotent with that same witness everywhere",
        witness == 4 and v.holds and per_point,
        f"witness={witness}",
    )
    return out
