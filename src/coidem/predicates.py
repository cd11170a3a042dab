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
For purity and copurity the quantifier runs over the primary ideals only: M,
N and both colon ideals split over the p-primary parts of each ring
component, and an I that is the whole ring off one part leaves the colon
whole there, so the intersection over every I equals the one over the I that
are (p^j) in one component and the whole ring in the others.

R acts on M = ⊕ Z/d_i through Z/e = R/Ann_R(M), e = lcm(d_i), so each W(N) is
computed on N re-based onto Z/e (per component; the zero module keeps its ring)
and pulled back as `ideal(ring, c)`: c | e | n, and (e) pulls back to (e).

The classical notions are exactly the S = {1} cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, wraps

from .lattice import enumerate_submodules
from .modules import (
    AnyModule,
    AnySubmodule,
    FinModule,
    ProductSubmodule,
    Submodule,
    ZModule,
    annihilator,
    colon_into,
    colon_ring,
    full_submodule,
    ideal_action,
    module_from_factors,
    product_module,
    sub_intersect,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from .multsets import (
    AnyMultSet,
    MultSet,
    ZComplementOfPrimes,
    ZMultSet,
    ZNonZero,
    meets_ideal,
    reduce_presentation,
)
from .rings import (
    Ideal,
    IntegerRing,
    UnsupportedRingError,
    all_ideals,
    factorize,
    ideal,
    ideal_contains,
    ideal_meet,
    ideal_product,
)

POINTWISE_PROPERTIES = ("coidempotent", "idempotent", "pure", "copure")


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


# -- witness ideals (cached per submodule over Z/e; independent of S) ---------


_exponent_module = cache(partial(module_from_factors, IntegerRing()))  # one per factor tuple


def _rebased(n: AnySubmodule) -> AnySubmodule:
    """N in its module re-based onto Z/e; the zero module keeps its ring."""
    if isinstance(n, ProductSubmodule):
        parts = tuple(map(_rebased, n.parts))
        return ProductSubmodule(product_module(*(p.module for p in parts)), parts)
    factors = n.module.factors
    return Submodule(_exponent_module(factors), n.basis) if factors else n


def _over_exponent_ring(body):
    """`body` cached, run once per module shape on its submodules re-based onto Z/e."""
    @cache
    @wraps(body)
    def witness_ideal(*subs: AnySubmodule) -> Ideal:
        base = tuple(map(_rebased, subs))
        return body(*subs) if base == subs else ideal(subs[0].module.ring, witness_ideal(*base).data)

    return witness_ideal


@_over_exponent_ring
def coidempotent_witness_ideal(n: AnySubmodule) -> Ideal:
    ann = annihilator(n)
    torsion = colon_into(zero_submodule(n.module), ideal_product(ann, ann))
    return colon_ring(n, torsion)


@_over_exponent_ring
def idempotent_witness_ideal(n: AnySubmodule) -> Ideal:
    m = full_submodule(n.module)
    c = colon_ring(n, m)
    target = ideal_action(ideal_product(c, c), m)
    return colon_ring(target, n)


@cache
def _primary(i: Ideal) -> bool:
    """I is (p^j), j >= 1, in one ring component and the whole ring elsewhere."""
    proper = [d for d in (i.data if isinstance(i.data, tuple) else (i.data,)) if d != 1]
    return len(proper) == 1 and len(factorize(proper[0])) == 1


@_over_exponent_ring
def pure_witness_ideal(n: AnySubmodule) -> Ideal:
    ring, m = n.module.ring, full_submodule(n.module)
    primaries = filter(_primary, all_ideals(ring))
    return ideal_meet(
        ring,
        (colon_ring(ideal_action(i, n), sub_intersect(n, ideal_action(i, m))) for i in primaries),
    )


@_over_exponent_ring
def copure_witness_ideal(n: AnySubmodule) -> Ideal:
    ring, zero = n.module.ring, zero_submodule(n.module)
    primaries = filter(_primary, all_ideals(ring))
    return ideal_meet(
        ring, (colon_ring(sub_sum(n, colon_into(zero, i)), colon_into(n, i)) for i in primaries)
    )


@_over_exponent_ring
def comultiplication_witness_ideal(n: AnySubmodule) -> Ideal:
    torsion = colon_into(zero_submodule(n.module), annihilator(n))
    return colon_ring(n, torsion)


@_over_exponent_ring
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


# -- one s for a list of S-independent ideals ---------------------------------


@cache
def meet_of(ideals_of, m: AnyModule) -> Ideal:
    """The intersection of the (label, ideal) pairs `ideals_of(m)` lists, once per
    shape: a `FinModule`'s is taken over Z/e and pulled back, as witness ideals are."""
    if isinstance(m, FinModule) and m.factors and m != (base := _exponent_module(m.factors)):
        return ideal(m.ring, meet_of(ideals_of, base).data)
    return ideal_meet(m.ring, (w for _, w in ideals_of(m)))


def first_miss(s: MultSet, ideals_of, m: AnyModule):
    """The first label of `ideals_of(m)` whose ideal S misses, or None.

    A finite S has a maximal multiple s*, which every element of S divides,
    so S meets each ideal of the list exactly when it meets their
    intersection.  Only a miss walks the list again, for its first label.
    """
    if meets_ideal(s, meet_of(ideals_of, m)) is not None:
        return None
    return next(label for label, w in ideals_of(m) if meets_ideal(s, w) is None)


@cache
def _lattice_witness_ideals(prop: str):
    """The list of `prop`'s witness ideal at each submodule, labelled by the submodule."""
    return lambda m: ((n, _WITNESS_IDEALS[prop](n)) for n in enumerate_submodules(m).all)


def _per_submodule_all(prop: str, m: AnyModule, s: AnyMultSet, uniform: bool) -> Verdict:
    """Every submodule has the property; `uniform` reports the least s that
    meets the intersection of the witness ideals."""
    s = resolve_multset(m, s)
    ideals_of = _lattice_witness_ideals(prop)
    miss = first_miss(s, ideals_of, m)
    if miss is not None:
        return Verdict(False, counterexample=miss)
    return Verdict(True, witness=meets_ideal(s, meet_of(ideals_of, m)) if uniform else None)


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

    N + K has order |N|·|K|/|N ∩ K|, so once N + K = sM the strict reading
    holds exactly when |N|·|K| = |sM|.  sM = (s)M, so each ideal (s) is read
    once, and each sM is tried once: a later s with the same sM cannot succeed
    where an earlier one failed.  Deterministic witnesses: the least s in
    canonical element order admitting a complement, then the least complement
    K in lattice order.
    """
    if isinstance(m, ZModule):
        raise UnsupportedRingError("direct summands are decided on finite modules")
    s = resolve_multset(m, s)
    lattice = enumerate_submodules(m)
    ideals, tried = set(), set()
    for elem in s.sorted_elements():
        i = ideal(m.ring, elem)
        if i in ideals:
            continue
        ideals.add(i)
        sm = ideal_action(i, full_submodule(m))
        if sm in tried:
            continue
        tried.add(sm)
        if not sub_leq(n, sm):
            continue
        for k in lattice.all:
            fits = n.order * k.order == sm.order if strict_ds else sm.order % k.order == 0
            if fits and sub_sum(n, k) == sm:
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

    Each submodule may use its own s, which for a finite S (it always has a
    maximal multiple) is the same as one s serving the whole lattice;
    `uniform` reports that single s as the witness.
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


def fully_coidempotent_z(s: ZMultSet) -> Verdict:
    """Z is fully S-coidempotent iff S meets tZ for every t > 0.

    t = 0 and t = 1 hold automatically.  With 0 ∈ S every tZ is met, and so
    is every tZ for nonzero; otherwise the least t > 1 that S misses is the
    counterexample.  For the complement of primes that is the least listed
    prime, read off directly since a scan would cost O(min P) queries.  For
    units and generated S the scan stops at the least prime that divides no
    generator: every smaller t is a product of primes that do.
    """
    if isinstance(s, MultSet):
        raise UnsupportedRingError("the Z-module Z needs a symbolic subset of Z")
    if meets_ideal(s, ideal(IntegerRing(), 0)) is not None:
        return Verdict(True, witness=0)
    if isinstance(s, ZNonZero):
        return Verdict(True)
    if isinstance(s, ZComplementOfPrimes):
        return Verdict(False, counterexample=min(s.primes))
    t = 2
    while meets_ideal(s, ideal(IntegerRing(), t)) is not None:
        t += 1
    return Verdict(False, counterexample=t)


# -- element-level certificate validation ------------------------------------
#
# The validator re-decides a certificate on element sets, without `intmat` or
# the Hermite forms: a set of elements of M is a Python int whose bit i stands
# for the i-th element of `m.elements()`, and every submodule, annihilator and
# colon is rebuilt from the module's own `add` and `scale`, over the instance's
# own ring R, so it checks the witness ideals' Z/e route instead of repeating it.


@dataclass(frozen=True)
class _ElementTable:
    """M's elements with their index, and the action of every ring element.

    `image[r][i]` is the index of r·y_i, `rm[r]` the mask of rM and `kill[r]`
    the mask of {y : r·y = 0}.
    """

    elements: tuple
    index: dict
    zero: int
    ring: tuple
    image: dict
    rm: dict
    kill: dict


@cache
def _element_table(m: AnyModule) -> _ElementTable:
    elements = tuple(m.elements())
    index = {x: i for i, x in enumerate(elements)}
    zero = index[m.zero_element]
    ring = tuple(m.ring.elements())
    image, rm, kill = {}, {}, {}
    for r in ring:
        row = tuple(index[m.scale(r, y)] for y in elements)
        image[r] = row
        rm[r] = _mask(row)
        kill[r] = _mask(i for i, j in enumerate(row) if j == zero)
    return _ElementTable(elements, index, zero, ring, image, rm, kill)


def _mask_union(masks) -> int:
    out = 0
    for x in masks:
        out |= x
    return out


def _mask(indexes) -> int:
    return _mask_union(1 << i for i in indexes)


def _bits(mask: int) -> list:
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


def _image(row, mask: int) -> int:
    return _mask(row[i] for i in _bits(mask))


def _maps_into(row, mask: int, target: int) -> bool:
    """r·X ⊆ Y, with `row` the image row of r."""
    return all(target >> row[i] & 1 for i in _bits(mask))


def _killed_by(t: _ElementTable, elems) -> int:
    """(0 :_M I) for the ring elements of I."""
    out = (1 << len(t.elements)) - 1
    for r in elems:
        out &= t.kill[r]
    return out


def _ann(t: _ElementTable, mask: int) -> list:
    return [r for r in t.ring if not mask & ~t.kill[r]]


def _colon(t: _ElementTable, mask: int) -> list:
    """(N :_R M): the ring elements r with rM ⊆ N."""
    return [r for r in t.ring if not t.rm[r] & ~mask]


def _products(ring, elems) -> set:
    return {ring.mul(a, b) for a in elems for b in elems}


def _additive_closure(m: AnyModule, t: _ElementTable, seed: int) -> int:
    """The subgroup generated by `seed`, grown one cyclic step at a time.

    For each generator g outside H, H becomes the union of the cosets H + k·g,
    so each new element costs one `m.add`.
    """
    h = 1 << t.zero
    for g in _bits(seed):
        if h >> g & 1:
            continue
        members = [t.elements[i] for i in _bits(h)]
        step = shift = t.elements[g]
        grown = h
        while not h >> t.index[shift] & 1:
            grown |= _mask(t.index[m.add(x, shift)] for x in members)
            shift = m.add(shift, step)
        h = grown
    return h


@cache
def _submodule_mask(n: AnySubmodule) -> int:
    """N's elements: the subgroup of M generated by its basis rows, read mod d_i."""
    m = n.module
    if isinstance(n, ProductSubmodule):
        zeros = [c.zero_element for c in m.components]
        gens = [
            tuple(_reduce(part.module, row) if j == c else z for j, z in enumerate(zeros))
            for c, part in enumerate(n.parts)
            for row in part.basis
        ]
    else:
        gens = [_reduce(m, row) for row in n.basis]
    t = _element_table(m)
    return _additive_closure(m, t, _mask(t.index[g] for g in gens))


def _reduce(m, row) -> tuple:
    return tuple(v % d for v, d in zip(row, m.factors))


@cache
def _ideal_masks(m: AnyModule, i: Ideal) -> tuple[list, int, int]:
    """I's ring elements, IM and (0 :_M I), built once per (M, I)."""
    t = _element_table(m)
    i_elems = [r for r in t.ring if ideal_contains(i, r)]
    im = _additive_closure(m, t, _mask_union(t.rm[a] for a in i_elems))
    return i_elems, im, _killed_by(t, i_elems)


@cache
def _certificate_pairs(prop: str, m: AnyModule, n: AnySubmodule) -> tuple | None:
    """Pairs (X, Y) of element sets such that s certifies `prop` at N exactly
    when s·X ⊆ Y for each, or None when an inclusion without s fails."""
    t, ring, n_set = _element_table(m), m.ring, _submodule_mask(n)
    if prop == "coidempotent":
        return ((_killed_by(t, _products(ring, _ann(t, n_set))), n_set),)
    if prop == "comultiplication":
        x = _killed_by(t, _ann(t, n_set))
        return None if n_set & ~x else ((x, n_set),)
    if prop in ("idempotent", "multiplication"):
        c = _colon(t, n_set)
        if prop == "idempotent":
            c = _products(ring, c)
        target = _additive_closure(m, t, _mask_union(t.rm[r] for r in c))
        return None if target & ~n_set else ((n_set, target),)
    if prop not in ("pure", "copure"):
        raise ValueError(f"no validator for {prop!r}")
    pairs = []
    for i in all_ideals(ring):
        i_elems, im, killed = _ideal_masks(m, i)
        if prop == "pure":  # s(N ∩ IM) ⊆ IN
            i_n = _mask_union(_image(t.image[a], n_set) for a in i_elems)
            pairs.append((n_set & im, _additive_closure(m, t, i_n)))
        else:  # s(N :_M I) ⊆ N + (0 :_M I)
            colon = _mask(
                y
                for y in range(len(t.elements))
                if all(n_set >> t.image[a][y] & 1 for a in i_elems)
            )
            pairs.append((colon, _additive_closure(m, t, n_set | killed)))
    return tuple(pairs)


@cache
def witness_is_sound(prop: str, m: AnyModule, n: AnySubmodule, verdict: Verdict) -> bool:
    """Re-validate a positive certificate from scratch, at the element level.

    Memoized on the certificate, and the s-free sets per (property, N): the
    harness asks about the same (property, N) under many s, many times.
    """
    if not verdict.holds or m.order > 4096:
        return True
    t = _element_table(m)
    s_elem = m.ring.normalize(verdict.witness)
    if prop == "direct_summand":
        n_set, k_set = _submodule_mask(n), _submodule_mask(verdict.complement)
        sums_to_sm = t.rm[s_elem] == _additive_closure(m, t, n_set | k_set)
        return sums_to_sm and n_set & k_set == 1 << t.zero
    pairs = _certificate_pairs(prop, m, n)
    return pairs is not None and all(_maps_into(t.image[s_elem], x, y) for x, y in pairs)
