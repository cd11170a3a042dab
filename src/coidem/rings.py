"""Supported base rings (Z, Z/nZ, finite products of Z/nZ), elements, ideals.

Every ring here is a principal ideal ring, so an ideal is a single canonical
generator per coordinate:

  * over Z:    cZ with c >= 0 (c = 0 is the zero ideal);
  * over Z/n:  dZ/n with d | n and 1 <= d <= n (d = n encodes the zero ideal,
               d = 1 the whole ring);
  * over a product: one canonical generator per component.

Elements are plain ints (Z and Z/n) or tuples of ints (products), stored
reduced; equality is structural.  All values are immutable and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from math import gcd, lcm


class RingMismatchError(ValueError):
    """Operands live over different rings."""


class UnsupportedRingError(ValueError):
    """The operation needs enumeration (or finiteness) that Z cannot offer."""


FACTOR_TRIAL_BOUND = 10**6


class FactorizationTooLarge(RuntimeError):
    """Trial division up to FACTOR_TRIAL_BOUND cannot factor the integer."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to FACTOR_TRIAL_BOUND.

    Once every prime up to the bound is divided out, a cofactor below the
    square of the next prime is 1 or prime; a larger one raises.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > FACTOR_TRIAL_BOUND:
            raise FactorizationTooLarge(
                f"cannot factor: the cofactor {n} has no prime factor up to"
                f" {FACTOR_TRIAL_BOUND:,} and is too large to be known prime"
            )
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


@dataclass(frozen=True)
class IntegerRing:
    """The ring of integers.  Symbolic only: no element or ideal enumeration."""

    def __str__(self) -> str:
        return "Z"

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def one(self) -> int:
        return 1

    @property
    def zero(self) -> int:
        return 0

    def normalize(self, x: int) -> int:
        return int(x)

    def mul(self, a: int, b: int) -> int:
        return a * b


@dataclass(frozen=True)
class ModularRing:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus must be >= 2 (the zero ring is rejected)")

    def __str__(self) -> str:
        return f"Z/{self.n}"

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def one(self) -> int:
        return 1

    @property
    def zero(self) -> int:
        return 0

    def normalize(self, x: int) -> int:
        return int(x) % self.n

    def elements(self):
        return range(self.n)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n


@dataclass(frozen=True)
class ProductRing:
    components: tuple[ModularRing, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a product ring needs at least one component")
        if not all(isinstance(c, ModularRing) for c in self.components):
            raise ValueError("product components must be modular rings")

    def __str__(self) -> str:
        return " x ".join(str(c) for c in self.components)

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def one(self):
        return tuple(1 for _ in self.components)

    @property
    def zero(self):
        return tuple(0 for _ in self.components)

    def normalize(self, x):
        return tuple(c.normalize(v) for c, v in zip(self.components, x))

    def elements(self):
        return itertools.product(*(c.elements() for c in self.components))

    def mul(self, a, b):
        return tuple(c.mul(x, y) for c, x, y in zip(self.components, a, b))


Ring = IntegerRing | ModularRing | ProductRing

Z = IntegerRing()


def product_ring(*rings: Ring) -> ProductRing:
    """Build a product ring, flattening nested products."""
    comps: list[ModularRing] = []
    for r in rings:
        if isinstance(r, ModularRing):
            comps.append(r)
        elif isinstance(r, ProductRing):
            comps.extend(r.components)
        else:
            raise UnsupportedRingError("only finite rings can be multiplied")
    return ProductRing(tuple(comps))


@dataclass(frozen=True)
class Ideal:
    """Canonical principal ideal; `data` is the generator (per component)."""

    ring: Ring
    data: int | tuple[int, ...]

    def __str__(self) -> str:
        if isinstance(self.ring, IntegerRing):
            return f"{self.data}Z"
        if isinstance(self.ring, ModularRing):
            return f"({self.data}) in {self.ring}"
        return "(" + ", ".join(str(d) for d in self.data) + f") in {self.ring}"


def _canonical_generator(ring: Ring, g: int) -> int:
    if isinstance(ring, IntegerRing):
        return abs(g)
    n = ring.n
    g = gcd(g, n)
    return n if g == 0 else g


def ideal(ring: Ring, data) -> Ideal:
    """Internal constructor normalizing a raw generator (tuple for products)."""
    if isinstance(ring, ProductRing):
        data = tuple(
            _canonical_generator(c, d) for c, d in zip(ring.components, data)
        )
        return Ideal(ring, data)
    return Ideal(ring, _canonical_generator(ring, data))


def element_of(ring: Ring, x):
    """Normalize x into ring, raising RingMismatchError on shape mismatch."""
    if isinstance(ring, ProductRing):
        if not isinstance(x, tuple) or len(x) != len(ring.components):
            raise RingMismatchError(f"{x!r} is not an element shape for {ring}")
        return ring.normalize(x)
    if not isinstance(x, int):
        raise RingMismatchError(f"{x!r} is not an element shape for {ring}")
    return ring.normalize(x)


def ideal_from_generators(ring: Ring, gens) -> Ideal:
    norm = [element_of(ring, g) for g in gens]
    if isinstance(ring, ProductRing):
        per = []
        for i, comp in enumerate(ring.components):
            g = 0
            for e in norm:
                g = gcd(g, e[i])
            per.append(_canonical_generator(comp, g))
        return Ideal(ring, tuple(per))
    g = 0
    for e in norm:
        g = gcd(g, e)
    return ideal(ring, g)


def unit_ideal(ring: Ring) -> Ideal:
    one = ring.one
    return ideal_from_generators(ring, [one])


def _require_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"operands over {a.ring} and {b.ring}")


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    _require_same_ring(i, j)
    if isinstance(i.ring, ProductRing):
        return ideal(i.ring, tuple(a * b for a, b in zip(i.data, j.data)))
    return ideal(i.ring, i.data * j.data)


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    _require_same_ring(i, j)
    if isinstance(i.ring, ProductRing):
        return ideal(i.ring, tuple(lcm(a, b) for a, b in zip(i.data, j.data)))
    return ideal(i.ring, lcm(i.data, j.data))


def ideal_meet(ring: Ring, ideals) -> Ideal:
    """The intersection of `ideals`, the whole ring when there are none."""
    return reduce(ideal_intersect, ideals, unit_ideal(ring))


def ideal_contains(i: Ideal, x) -> bool:
    """Membership x in the ideal (x must already be reduced)."""
    if isinstance(i.ring, ProductRing):
        return all(x[t] % d == 0 for t, d in enumerate(i.data))
    if isinstance(i.ring, IntegerRing):
        return x == 0 if i.data == 0 else x % i.data == 0
    return x % i.data == 0


def all_ideals(ring: Ring) -> tuple[Ideal, ...]:
    """Every ideal of a finite ring, canonical generators in ascending order."""
    if isinstance(ring, ModularRing):
        return tuple(Ideal(ring, d) for d in divisors(ring.n))
    if isinstance(ring, ProductRing):
        per = [divisors(c.n) for c in ring.components]
        return tuple(Ideal(ring, combo) for combo in itertools.product(*per))
    raise UnsupportedRingError("Z has infinitely many ideals")


@cache
def units(ring: Ring) -> frozenset:
    if isinstance(ring, ModularRing):
        return frozenset(x for x in range(ring.n) if gcd(x, ring.n) == 1)
    if isinstance(ring, ProductRing):
        return frozenset(
            itertools.product(*(sorted(units(c)) for c in ring.components))
        )
    raise UnsupportedRingError("use the symbolic Units presentation over Z")


def maximal_ideals(ring: Ring) -> tuple[Ideal, ...]:
    # Supported finite rings are artinian: primes and maximals coincide.
    if isinstance(ring, ModularRing):
        return tuple(Ideal(ring, p) for p in prime_factors(ring.n))
    if isinstance(ring, ProductRing):
        out = []
        for idx, comp in enumerate(ring.components):
            for p in prime_factors(comp.n):
                data = tuple(
                    p if t == idx else 1 for t in range(len(ring.components))
                )
                out.append(Ideal(ring, data))
        return tuple(out)
    raise UnsupportedRingError("maximal ideals of Z are not enumerable")
