"""Registry of executable law checks (T01–T20), corpus generation, reports.

Each entry states a law about the supported predicates, evaluates it on one
instance (ring, module, multiplicative set), and returns pass / violation /
inapplicable.  Laws are checked as material implications (hypotheses are
evaluated, never assumed) and a pass with a failed hypothesis is flagged
vacuous so it never counts as real coverage.  Equivalence-style entries
(iff chains) are never vacuous.

A law whose outcome depends only on module-level facts is a row of parts in
`THEOREMS`, read off the named facts of `_FACTS`: `Implies(hypotheses,
conclusion, key, probe)` or `Agree(facts, keys)`.  A fact is a `Verdict`; one
over a list of ideals or a family of modules or sets fails with the details of
its first miss, and a dict of details is recorded under its own keys.  To add
a law, name any new fact in `_FACTS` and list the row's parts.  Six laws keep
a body, as their outcome carries what a part cannot: inapplicability (T09 on
products, T10 off them), a note on passing rows (T09, T11, T13, T16) or a key
for the trivial case (T12).  A part with a probe name also counts, on every
instance, where its converse fails: the report's three probes are the
converses of T01's forward part, of T02 and of T15's forward part.

Checks quadratic in the lattice size, and T16's pair list, cubic, carry
lattice-size gates so the default corpus stays inside its time budget; gated
instances report as inapplicable with a size_gate detail.  Witness ideals that
do not depend on S are built once per shape, on the module re-based onto Z/e:
those of one submodule (or pair, for T03) are cached per submodule, and each
list that a single s must serve (T03, T16, T19 and every fully-* or
(co)multiplication check) is cached as its intersection by
`predicates.meet_of`.  Re-checking a shape under another S or ring costs one
`meets_ideal` per list; only a miss walks the instance's own list, and the
colons it repeats are answered from the memoized `modules` operators.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

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
    submodule_from_generators,
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
    _over_exponent_ring,
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


_fully, _comult, _mult, _semisimple, _ann = map(
    cache, (fully, comultiplication, multiplication, semisimple, annihilator))


@_over_exponent_ring
def _pair_sum_colon_ideal(n: AnySubmodule, k: AnySubmodule) -> Ideal:
    """The T03(c) witness ideal ((N + K) :_R (0 :_M Ann(N)Ann(K)))."""
    torsion = colon_into(zero_submodule(n.module), ideal_product(_ann(n), _ann(k)))
    return colon_ring(sub_sum(n, k), torsion)


@_over_exponent_ring
def _copure_c_ideal(n: AnySubmodule) -> Ideal:
    """The T14(c) witness ideal: meet over K containing N of (K :_R (N :_M Ann(K)))."""
    subs = enumerate_submodules(n.module).all
    colons = (colon_ring(k, colon_into(n, _ann(k))) for k in subs if sub_leq(n, k))
    return ideal_meet(n.module.ring, colons)


@_over_exponent_ring
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
        return dict(vars(self))  # the fields, in order


class Implies(NamedTuple):
    """The hypotheses, ANDed in order, imply the conclusion, whose failure is
    recorded under `key` (a dict of details under its own keys); `probe` names
    the report probe of the converse."""

    hypotheses: tuple[str, ...]
    conclusion: str
    key: str | None = None
    probe: str | None = None


class Agree(NamedTuple):
    """The facts all hold or all fail; a disagreement records each under its key."""

    facts: tuple[str, ...]
    keys: tuple[str, ...]


@dataclass(frozen=True)
class Theorem:
    id: str
    anchor: str
    max_lattice: int | None
    law: tuple | object  # parts, or a body: Instance -> (status, vacuous, details)

    def run(self, inst: Instance):
        return _evaluate(self.law, inst) if isinstance(self.law, tuple) else self.law(inst)


def _outcome(ok: bool, applicable: bool, details: dict):
    if not ok:
        return "violation", False, details
    return "pass", (not applicable), details


# -- the lists and families the facts read ------------------------------------


def _ci_coidempotent_ideals(m: AnyModule):
    """T03(b)'s list: the coidempotent witness ideal of each completely irreducible."""
    cis = enumerate_submodules(m).completely_irreducibles()
    return ((ci, _WITNESS_IDEALS["coidempotent"](ci)) for ci in cis)


def _pair_ideals(m: AnyModule):
    """T03(c)'s list: the witness ideal of each unordered pair of submodules,
    less the pairs N ⊊ K (the lattice is in order, so N sorts first): there
    Ann(K)² ⊆ Ann(N)Ann(K), so the pair's ideal contains (K, K)'s and never
    changes the meet."""
    pairs = itertools.combinations_with_replacement(enumerate_submodules(m).all, 2)
    return ((pair, _pair_sum_colon_ideal(*pair)) for pair in pairs if pair[0] == pair[1] or not sub_leq(*pair))


def _t19_ideals(m: AnyModule):
    """T19's list: (IM :_R JM) for each pair of ideals with (0 :_M I) ⊆ (0 :_M J).
    Every entry is R, so the law cannot fail for any S and tests only the
    torsion, ideal-action and colon arithmetic: a finite Z/n-module is self-dual
    (M ≅ M^ = Hom(M, Q/Z), under which (0 :_M^ I) = (IM)^⊥), so the hypothesis
    reads (IM)^⊥ ⊆ (JM)^⊥, i.e. JM ⊆ IM; products go component by component."""
    ideals = all_ideals(m.ring)
    torsions = {i: colon_into(zero_submodule(m), i) for i in ideals}
    actions = {i: ideal_action(i, full_submodule(m)) for i in ideals}
    for i, j in itertools.product(ideals, repeat=2):
        if sub_leq(torsions[i], torsions[j]):
            yield (i, j), colon_ring(actions[i], actions[j])


@cache
def _prime_complements(ring):
    """R ∖ P for each prime P (over Z/n and finite products of such rings, every prime is maximal)."""
    return tuple(MultSet(ring, frozenset(x for x in ring.elements() if not ideal_contains(mx, x)))
                 for mx in maximal_ideals(ring))


def _none_of(counterexamples) -> Verdict:
    """Holds unless `counterexamples` yields one; the first is the verdict's."""
    first = next(iter(counterexamples), None)
    return Verdict(first is None, counterexample=first)


def _coidempotent_at_supersets(m: AnyModule, s: MultSet) -> Verdict:
    """T05's conclusion at S* and at the closures of S with each of the two
    least ring elements outside S."""
    extras = [x for x in sorted(m.ring.elements()) if x not in s.elements][:2]
    larger = [saturation(s), *(closure_in_ring(m.ring, list(s.elements) + [x]) for x in extras)]
    return _none_of(
        {"superset": str(s2), "counterexample": str(v.counterexample)}
        for s2 in larger if not (v := _fully("coidempotent", m, s2)).holds
    )


def _copure_disagreements(m: AnyModule, s: MultSet):
    """T14's readings of "N is S-copure" at each N where they disagree: (a) as
    defined, (b) quotient S-comultiplication and N S-coidempotent, (c) and (d)
    quotient S-comultiplication and S meeting the two colon ideals."""
    for n in enumerate_submodules(m).all:
        q_comult = _comult(quotient_module(m, n), s).holds
        a = meets_ideal(s, _WITNESS_IDEALS["copure"](n)) is not None
        b = q_comult and meets_ideal(s, _WITNESS_IDEALS["coidempotent"](n)) is not None
        c = q_comult and meets_ideal(s, _copure_c_ideal(n)) is not None
        d = q_comult and meets_ideal(s, _copure_d_ideal(n)) is not None
        if not a == b == c == d:
            yield {"submodule": str(n), "a": a, "b": b, "c": c, "d": d}


# the facts the law table reads; each looks `_fully`, `_comult`, `_mult` and
# `_semisimple` up at call time, so a test that patches one reaches every row
_FACTS = {
    "coidempotent": lambda m, s: _fully("coidempotent", m, s),
    "idempotent": lambda m, s: _fully("idempotent", m, s),
    "pure": lambda m, s: _fully("pure", m, s),
    "copure": lambda m, s: _fully("copure", m, s),
    "coidempotent@1": lambda m, s: _fully("coidempotent", m, one_multset(m.ring)),
    "coidempotent@S*": lambda m, s: _fully("coidempotent", m, saturation(s)),
    "coidempotent@S2⊇S": _coidempotent_at_supersets,
    "coidempotent@R∖P": lambda m, s: Verdict(all(
        _fully("coidempotent", m, c).holds for c in _prime_complements(m.ring))),
    "coidempotent@R∖P, M_P≠0": lambda m, s: Verdict(all(
        _fully("coidempotent", m, c).holds for c in _prime_complements(m.ring)
        if s_torsion(m, c) != full_submodule(m))),
    "coidempotent M/N": lambda m, s: _none_of(
        {"by": str(n), "counterexample": str(v.counterexample)}
        for n in enumerate_submodules(m).all if not (v := _fully("coidempotent", quotient_module(m, n), s)).holds
    ),
    "comultiplication": lambda m, s: _comult(m, s),
    "multiplication": lambda m, s: _mult(m, s),
    "semisimple": lambda m, s: _semisimple(m, s),
    "S⊆U(R)": lambda m, s: Verdict(set(s.elements) <= units(m.ring)),
    "CI are S-summands": lambda m, s: Verdict(all(
        direct_summand(m, ci, s).holds for ci in enumerate_submodules(m).completely_irreducibles())),
    "CI coidempotent": lambda m, s: Verdict(first_miss(s, _ci_coidempotent_ideals, m) is None),
    "pairwise": lambda m, s: Verdict(first_miss(s, _pair_ideals, m) is None),
    "copure readings agree": lambda m, s: _none_of(_copure_disagreements(m, s)),
    "S-pure N S-coidempotent": lambda m, s: _none_of(
        n for n in enumerate_submodules(m).all
        if meets_ideal(s, _WITNESS_IDEALS["pure"](n)) is not None
        and meets_ideal(s, _WITNESS_IDEALS["coidempotent"](n)) is None),
    "sJM ⊆ IM": lambda m, s: _none_of(
        {"i": str(i), "j": str(j)} for i, j in filter(None, [first_miss(s, _t19_ideals, m)])),
}


def _hold(facts, m: AnyModule, s: MultSet) -> bool:
    return all(_FACTS[f](m, s).holds for f in facts)


def _evaluate(parts, inst: Instance):
    """A row's (status, vacuous, details): a conclusion is evaluated only where
    its hypotheses hold; a pass is vacuous where none held and no part is `Agree`.
    An `Agree` part reads each distinct fact once."""
    m, s = inst.module, inst.multset
    details, applicable = {}, False
    for part in parts:
        if isinstance(part, Agree):
            applicable = True
            holds = {f: _FACTS[f](m, s).holds for f in dict.fromkeys(part.facts)}
            values = [holds[f] for f in part.facts]
            if len(set(values)) > 1:
                details.update(zip(part.keys, values))
        elif _hold(part.hypotheses, m, s):
            applicable = True
            verdict = _FACTS[part.conclusion](m, s)
            if not verdict.holds:
                cx = verdict.counterexample
                details.update(cx if isinstance(cx, dict) else {part.key: str(cx)})
    return _outcome(not details, applicable, details)


def _given(*facts):
    """A body's hypotheses: where one fails, the law passes vacuously."""

    def gate(body):
        return lambda inst: body(inst) if _hold(facts, inst.module, inst.multset) else _outcome(True, False, {})

    return gate


# -- the checks with bodies ---------------------------------------------------


def _t09(inst: Instance):
    m, s = inst.module, inst.multset
    if isinstance(m, ProductModule):
        return "inapplicable", False, {"reason": "componentwise module"}
    hyp_m = _fully("coidempotent", m, s).holds
    details = {"under_approximation": True}
    applicable = hyp_m
    for n in enumerate_submodules(m).all:
        sub_fully = _fully("coidempotent", submodule_as_module(n), s).holds
        if hyp_m and not sub_fully:
            return _outcome(False, True, {**details, "closure_counterexample": str(n)})
        transfer = meets_ideal(s, colon_ring(n, full_submodule(m)))
        if transfer is not None and sub_fully:
            applicable = True
            if not hyp_m:
                counterexample = {"transfer_counterexample": str(n), "transfer_witness": str(transfer)}
                return _outcome(False, True, {**details, **counterexample})
    return _outcome(True, applicable, details)


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
    zero_src, zero_dst = zero_submodule(m), zero_submodule(loc.module)
    for i in all_ideals(m.ring):
        if loc.map_submodule(colon_into(zero_src, i)) != colon_into(zero_dst, loc.map_ideal(i)):
            return _outcome(False, True, {"ideal": str(i)})
    for n in enumerate_submodules(m).all:
        if loc.map_ideal(_ann(n)) != annihilator(loc.map_submodule(n)):
            return _outcome(False, True, {"submodule": str(n)})
    return _outcome(True, True, {})


def _t12(inst: Instance):
    m, s = inst.module, inst.multset
    a = _fully("coidempotent", m, s).holds
    loc = localize_module(m, s)
    if loc.trivial:  # S ∋ 0, so both sides must hold (the localized module is zero)
        return _outcome(a, True, {} if a else {"trivial_but_not_fully": True})
    b = _fully("coidempotent", loc.module, one_multset(loc.ring)).holds
    ok = a == b
    det = {} if ok else {"source": a, "localized": b}
    return _outcome(ok, True, det)


@_given("coidempotent")
def _t13(inst: Instance):
    m, s = inst.module, inst.multset
    loc = localize_module(m, s)
    if loc.trivial:
        return _outcome(True, True, {"trivial": True})
    b = _fully("coidempotent", loc.module, one_multset(loc.ring)).holds
    return _outcome(b, True, {} if b else {"localized_fails": True})


def _t16_ideals(m: AnyModule):
    """T16's list: ((⋂N) + K :_R ⋂(N + K)) for each K and each pair N1, N2
    outside K.  No other family decides the law: the entry is R with one member
    or one inside K, and a triple's contains the product of the (N1, N2) and
    (N1 ∩ N2, N3) pair ideals; S meets W ⇔ s* ∈ W, and s*² ∈ S, so the pairs,
    which sort before every triple at that K, give its verdict and first miss.
    On the 44 modules of the `--moduli 2-10 --max-order 16` corpus with at
    most 12 submodules this leaves 2,506 of 23,464 entries, 2,266 of them R."""
    subs = enumerate_submodules(m).all
    # the lattice is closed under meet and join: at most n² distinct pairs each
    meet, join, colon = cache(sub_intersect), cache(sub_sum), cache(colon_ring)
    for k in subs:
        outside = [n for n in subs if not sub_leq(n, k)]
        for n1, n2 in itertools.combinations(outside, 2):
            yield (k, (n1, n2)), colon(join(meet(n1, n2), k), meet(join(n1, k), join(n2, k)))


@_given("coidempotent")
def _t16(inst: Instance):
    miss = first_miss(inst.multset, _t16_ideals, inst.module)
    if miss is None:
        return _outcome(True, True, {"family_sizes": "1..3 plus the full lattice"})
    k, pair = miss
    return _outcome(False, True, {"k": str(k), "family": [str(n) for n in pair]})


# -- the law table --------------------------------------------------------------
#
# A law is evidence about S unless its comment calls it engine consistency:
# N ↦ N^⊥ under the Q/Z pairing reverses a finite Z/n-module's lattice and swaps
# the coidempotent, copure and comultiplication witness ideals with the
# idempotent, pure and multiplication ones, so such a law holds whenever the
# engine's paired ideals agree.

THEOREMS = (
    Theorem("T01", "fully coidempotent implies fully S-coidempotent; converse when S consists of units", None, (
        Implies(("coidempotent@1",), "coidempotent", "forward_counterexample", "s_coidempotent_not_classical"),
        Implies(("S⊆U(R)", "coidempotent"), "coidempotent@1", "converse_counterexample"),
    )),
    Theorem("T02", "fully S-coidempotent implies S-comultiplication", None, (
        Implies(("coidempotent",), "comultiplication", "counterexample", "comultiplication_not_fully_coidempotent"),
    )),
    # part (c) is engine consistency: over Z/n, Ann(N) = (a) and Ann(K) = (b),
    # and in every p-part M[ab] ⊆ M[a²] + M[b²], as v_p(a) + v_p(b) ≤
    # 2·max(v_p(a), v_p(b)); so the pair list's meet is its diagonal's, and the
    # diagonal entry (N, N) is N's coidempotent witness ideal
    Theorem("T03", "with a maximal multiple: fully S-coidempotent iff every completely irreducible submodule is S-coidempotent iff all pairs satisfy s(0 : Ann(N)Ann(K)) inside N+K", 36, (
        Agree(("coidempotent", "CI coidempotent", "pairwise"), ("fully", "completely_irreducible", "pairwise")),
    )),
    Theorem("T04", "with a maximal multiple: an S-comultiplication module whose completely irreducible submodules are S-direct summands is fully S-coidempotent; likewise if S-semisimple", 64, (
        Implies(("comultiplication", "CI are S-summands"), "coidempotent", "part_a_counterexample"),
        Implies(("comultiplication", "semisimple"), "coidempotent", "part_b_counterexample"),
    )),
    Theorem("T05", "fully S1-coidempotent implies fully S2-coidempotent for any larger S2", None, (
        Implies(("coidempotent",), "coidempotent@S2⊇S"),
    )),
    Theorem("T06", "fully S-coidempotent iff fully coidempotent for the saturation of S", None, (
        Agree(("coidempotent", "coidempotent@S*"), ("plain", "saturated")),
    )),
    Theorem("T07", "every quotient of a fully S-coidempotent module is fully S-coidempotent", 48, (
        Implies(("coidempotent",), "coidempotent M/N"),
    )),
    Theorem("T08", "fully coidempotent iff fully coidempotent at the complement of every prime (equivalently maximal, equivalently supporting maximal) ideal", 200, (
        Agree(("coidempotent@1", "coidempotent@R∖P", "coidempotent@R∖P", "coidempotent@R∖P, M_P≠0"),
              ("classical", "primes", "maximals", "supported_maximals")),
    )),
    Theorem("T09", "submodules of a fully S-coidempotent module are fully S-coidempotent; conversely along an inclusion with tM inside N for some t in S", 48, _t09),
    Theorem("T10", "a product module is fully S-coidempotent iff each factor is, componentwise", None, _t10),
    Theorem("T11", "localization commutes with torsion colons and annihilators", 200, _t11),
    Theorem("T12", "with a maximal multiple: fully S-coidempotent iff the localized module is fully coidempotent", 200, _t12),
    Theorem("T13", "over an S-noetherian ring, fully S-coidempotent carries to the localized module", 200, _t13),
    Theorem("T14", "in an S-comultiplication module: S-copure iff (quotient S-comultiplication and S-coidempotent) iff the two colon characterizations", 36, (
        Implies(("comultiplication",), "copure readings agree"),
    )),
    Theorem("T15", "fully S-coidempotent implies fully S-copure; with S-comultiplication, fully S-copure implies fully S-coidempotent", None, (
        Implies(("coidempotent",), "copure", "copure_counterexample", "s_copure_not_s_coidempotent"),
        Implies(("comultiplication", "copure"), "coidempotent", "coidempotent_counterexample"),
    )),
    Theorem("T16", "with a maximal multiple, in a fully S-coidempotent module finite and full families satisfy s·inter(N+K) inside inter(N)+K", 12, _t16),
    # vacuous exactly where M is not S-comultiplication: 0 is S-pure for every S
    Theorem("T17", "an S-pure submodule of an S-comultiplication module is S-coidempotent", 120, (
        Implies(("comultiplication",), "S-pure N S-coidempotent", "submodule"),
    )),
    # engine consistency: by duality fully S-pure iff fully S-copure, and fully
    # S-idempotent iff fully S-coidempotent, whatever (co)multiplication says
    Theorem("T18", "multiplication/comultiplication transfer between fully S-pure, S-copure, S-idempotent and S-coidempotent", 64, (
        Implies(("multiplication", "copure"), "pure", "part_a_counterexample"),
        Implies(("comultiplication", "pure"), "copure", "part_b_counterexample"),
        Implies(("multiplication", "coidempotent"), "idempotent", "part_c_counterexample"),
        Implies(("comultiplication", "idempotent"), "coidempotent", "part_d_counterexample"),
    )),
    # engine consistency: cannot fail for any S, by self-duality (`_t19_ideals`)
    Theorem("T19", "in an S-comultiplication module torsion-colon reversal forces sJM inside IM", 120, (
        Implies(("comultiplication",), "sJM ⊆ IM"),
    )),
    # engine consistency: by duality, as T18's parts (c) and (d)
    Theorem("T20", "for S-finite modules fully S-coidempotent and fully S-idempotent agree (S-noetherian for the converse)", None, (
        Agree(("coidempotent", "idempotent"), ("coidempotent", "idempotent")),
    )),
)

# the implication parts whose converse the report counts, on every instance
_PROBED = tuple(part for t in THEOREMS if isinstance(t.law, tuple) for part in t.law if isinstance(part, Implies) and part.probe)


# -- corpus -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    moduli: tuple[int, ...] = tuple(range(2, 17))
    max_order: int = 32
    include_products: bool = True
    fuzz: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {**vars(self), "moduli": list(self.moduli)}


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
        return {**vars(self), "results": [r.to_dict() for r in self.results]}

    @property
    def violations(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "violation"]


def run_check(theorem: Theorem, inst: Instance, timings: bool = False) -> CheckResult:
    start = time.perf_counter() if timings else None
    if theorem.max_lattice is not None and len(enumerate_submodules(inst.module)) > theorem.max_lattice:
        status, vacuous, details = "inapplicable", False, {"size_gate": theorem.max_lattice}
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
    `witness_is_sound` works on bitmasks over M's elements and R itself (not
    Z/e, where the witness ideals are computed), without `intmat`, memoized
    per (property, N, s): `checked` counts every certificate, repeats too.
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


def verify_all(
    corpus,
    theorem_ids=None,
    jobs: int = 1,
    validate_witnesses: bool = True,
    timings: bool = False,
    config: CorpusConfig | None = None,
) -> Report:
    registry = [t for t in THEOREMS if theorem_ids is None or t.id in theorem_ids]
    tasks = [(inst, [t.id for t in registry], validate_witnesses, timings) for inst in corpus]
    # the report does not depend on the job count: more workers than usable
    # CPUs or than instances only add processes
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, cpus, len(tasks))
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
        row = summary[t.id] = {
            "pass": sum(r.status == "pass" for r in rows),
            "vacuous": sum(r.status == "pass" and r.vacuous for r in rows),
            "violation": sum(r.status == "violation" for r in rows),
            "inapplicable": sum(r.status == "inapplicable" for r in rows),
        }
        row["applicable"] = row["pass"] - row["vacuous"] + row["violation"]
    probes = {}
    for name in sorted(part.probe for part in _PROBED):  # by name, as the text report lists them
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
    results = [run_check(t, inst, timings=timings) for t in THEOREMS if t.id in ids]
    m, s = inst.module, inst.multset
    # each probed part's converse fails: its conclusion holds, its hypotheses do not
    flags = {p.probe: _FACTS[p.conclusion](m, s).holds and not _hold(p.hypotheses, m, s) for p in _PROBED}
    probe = (inst.label, flags)
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
        return dict(vars(self))


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
