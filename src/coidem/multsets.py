"""Multiplicatively closed subsets: symbolic over Z, explicit in finite rings.

A multiplicative set always contains 1 and is closed under multiplication; it
may legally contain 0 (then localizing at it collapses everything, and every
"exists s" predicate downstream holds with the honest witness 0).

Over Z four symbolic presentations are supported; inside a finite ring a set
is stored in full as canonical elements, at most MAX_FINITE_S of them (larger
`nonzero`/`comp-primes` images are refused before they are built, closures
as they pass the bound).  Closing and checking go by generators, not pairs
(Froidure-Pin): `_adjoin` grows <G> to <G, x> by multiplying each new element
by each generator once.  The check adjoins the elements of S in order and
fails at the first product outside S, else S = <G>: exact, in |S|·|G| steps.

The one decision primitive everything else reduces to is `meets_ideal`: does
S meet a given ideal, and if so at which canonical witness.  The maximal
multiple s* of a finite S is one such query (S against the common multiples
of its elements), and the saturation S* is read off s*: every element of S
divides s*, so x divides some element of S iff x divides s*.  Localization
reads nothing else of a finite S either: s* inverts exactly what S inverts
(see `modules.localize_module`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import prod

from .rings import (
    Ideal,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    RingMismatchError,
    UnsupportedRingError,
    element_of,
    factorize,
    ideal,
    ideal_contains,
    ideal_meet,
    is_prime,
)

# the most elements a finite S may have: a stored S of 10^6 residues takes
# about 4 s and 230 MB to build and check
MAX_FINITE_S = 1_000_000


@dataclass(frozen=True)
class ZUnits:
    """S = {1, -1}."""

    def __str__(self) -> str:
        return "units"


@dataclass(frozen=True)
class ZNonZero:
    """S = Z minus {0}."""

    def __str__(self) -> str:
        return "nonzero"


@dataclass(frozen=True)
class ZComplementOfPrimes:
    """S = Z minus the union of pZ over the listed primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("at least one prime is required")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    def __str__(self) -> str:
        return "comp-primes:" + ",".join(map(str, self.primes))


@dataclass(frozen=True)
class ZGeneratedBy:
    """Multiplicative closure of the generators together with 1.

    A generator 0 is legal and kept: then 0 lies in S.
    """

    gens: tuple[int, ...]

    def __str__(self) -> str:
        return "gen:" + ",".join(map(str, self.gens))


ZMultSet = ZUnits | ZNonZero | ZComplementOfPrimes | ZGeneratedBy


@dataclass(frozen=True)
class MultSet:
    """A multiplicatively closed subset of a finite ring, stored in full."""

    ring: Ring
    elements: frozenset

    def __post_init__(self):
        if not self.ring.is_finite:
            raise UnsupportedRingError("explicit multiplicative sets need a finite ring")
        if any(element_of(self.ring, x) != x for x in self.elements):
            raise ValueError("elements must be given in canonical form")
        if self.ring.one not in self.elements:
            raise ValueError("a multiplicative set must contain 1")
        closed, gens = {self.ring.one}, []
        for x in sorted(self.elements):
            if x not in closed:  # saves a call per element already reached
                _adjoin(self.ring, closed, gens, x, self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in sorted(self.elements)) + "}"

    def sorted_elements(self):
        return sorted(self.elements)


AnyMultSet = MultSet | ZMultSet


class MultSetTooLarge(RuntimeError):
    pass


def _check_size(size: int) -> None:
    if size > MAX_FINITE_S:
        raise MultSetTooLarge(f"a finite S may have at most {MAX_FINITE_S:,} elements")


def _adjoin(ring: Ring, closed: set, gens: list, x, inside) -> None:
    """Grow closed = <gens> in place to <gens, x>, appending x to gens if new.

    Each new element, x first, is multiplied by each generator once; a walk
    x·g1···gm that enters <gens> stays there (R is commutative), so none is
    missed.  Products outside `inside` raise; inside None caps the size.
    """
    if x in closed:
        return
    gens.append(x)
    queue = [x]
    while queue:
        y = queue.pop()
        if y in closed:
            continue
        if inside is None:
            _check_size(len(closed) + 1)
        elif y not in inside:
            raise ValueError("set is not closed under multiplication")
        closed.add(y)
        queue.extend([ring.mul(y, g) for g in gens])


def closure_in_ring(ring: Ring, gens) -> MultSet:
    """Least multiplicatively closed subset containing gens and 1."""
    if not ring.is_finite:
        raise UnsupportedRingError("closure needs a finite ring")
    closed, done = {ring.one}, []
    for g in gens:
        _adjoin(ring, closed, done, element_of(ring, g), None)
    return MultSet(ring, frozenset(closed))


def product_multset(*sets: MultSet) -> MultSet:
    """Cartesian product of finite multiplicative sets over the product ring."""
    from .rings import product_ring

    ring = product_ring(*(s.ring for s in sets))
    elems = set()
    for combo in itertools.product(*(s.sorted_elements() for s in sets)):
        flat: list[int] = []
        for s, part in zip(sets, combo):
            flat.extend(part if isinstance(part, tuple) else (part,))
        elems.add(tuple(flat))
    return MultSet(ring, frozenset(elems))


def reduce_presentation(p: ZMultSet, target: int | Ring) -> MultSet:
    """Image of the symbolic Z-set under Z -> Z/n (or a finite product ring)."""
    if isinstance(target, int):
        target = ModularRing(target)
    if isinstance(target, ProductRing):
        from math import lcm

        span = lcm(*(c.n for c in target.components))  # >= 2: components are >= 2
        inner = reduce_presentation(p, ModularRing(span))
        elems = frozenset(
            tuple(x % c.n for c in target.components) for x in inner.elements
        )
        return MultSet(target, elems)
    if not isinstance(target, ModularRing):
        raise UnsupportedRingError("reduction targets a finite ring")
    n = target.n
    if isinstance(p, ZUnits):
        return MultSet(target, frozenset({1 % n, (n - 1) % n}))
    if isinstance(p, ZNonZero):
        _check_size(n)
        return MultSet(target, frozenset(range(n)))
    if isinstance(p, ZComplementOfPrimes):
        relevant = [q for q in p.primes if n % q == 0]
        _check_size(n // prod(relevant) * prod(q - 1 for q in relevant))
        elems = frozenset(
            x for x in range(n) if all(x % q != 0 for q in relevant)
        )
        return MultSet(target, elems)
    if isinstance(p, ZGeneratedBy):
        return closure_in_ring(target, [g % n for g in p.gens])
    raise TypeError(f"not a symbolic multiplicative set: {p!r}")


def _meets_ideal_z(p: ZMultSet, i: Ideal):
    c = i.data
    if isinstance(p, ZNonZero):
        return c if c != 0 else None
    if isinstance(p, ZUnits):
        return 1 if c == 1 else None
    if isinstance(p, ZComplementOfPrimes):
        if c == 0 or any(c % q == 0 for q in p.primes):
            return None
        return c
    if isinstance(p, ZGeneratedBy):
        gens = p.gens
        if 0 in gens:
            return 0
        if c == 0:
            return None
        if c == 1:
            return 1
        # pick one generator per prime of c and raise it far enough
        chosen: dict[int, int] = {}
        for q, e in factorize(c).items():
            g = next((g for g in gens if g != 0 and g % q == 0), None)
            if g is None:
                return None
            vq = 0
            gg = g
            while gg % q == 0:
                vq += 1
                gg //= q
            need = -(-e // vq)  # ceil
            chosen[g] = max(chosen.get(g, 0), need)
        w = 1
        for g, e in chosen.items():
            w *= g**e
        return w
    raise TypeError(f"not a symbolic multiplicative set: {p!r}")


def meets_ideal(s: AnyMultSet, i: Ideal):
    """Some witness in S ∩ I (canonically least for finite sets), else None."""
    if isinstance(s, MultSet):
        if s.ring != i.ring:
            raise RingMismatchError("set and ideal over different rings")
        for x in s.sorted_elements():
            if ideal_contains(i, x):
                return x
        return None
    if not isinstance(i.ring, IntegerRing):
        raise RingMismatchError("symbolic sets pair with ideals of Z")
    return _meets_ideal_z(s, i)


def satisfies_max_multiple(s: MultSet):
    """The maximal multiple s* of a finite S: a witness divisible by all of S.

    S always meets the common multiples ⋂_{t ∈ S} tR (the product of all
    elements lies there); the least witness in canonical element order is
    returned.
    """
    star = meets_ideal(s, ideal_meet(s.ring, (ideal(s.ring, t) for t in s.elements)))
    if star is None:
        raise AssertionError("finite multiplicative sets always have a witness")
    return star


def saturation(s: MultSet) -> MultSet:
    """S* = {x : xR meets S} = {x : s* ∈ xR} for a finite S."""
    ring = s.ring
    star = satisfies_max_multiple(s)
    return MultSet(
        ring, frozenset(x for x in ring.elements() if ideal_contains(ideal(ring, x), star))
    )


@cache
def one_multset(ring: Ring) -> MultSet:
    return MultSet(ring, frozenset({ring.one}))
