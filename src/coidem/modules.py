"""Finite modules over Z/n and product rings, plus the rank-1 module Z over Z.

A finite module M = Z/d_1 ⊕ ... ⊕ Z/d_k over Z/n (each d_i | n) is handled
through integer lattices: a submodule corresponds to the preimage lattice L
with D·Z^k ⊆ L ⊆ Z^k, D = diag(d_1, ..., d_k), stored as its unique Hermite
basis.  Sums, intersections, ideal action, both colon operators, annihilators,
quotients and torsion all become exact integer linear algebra; localization
is a closed form in the maximal multiple of S (see `LocalizedModule`).

R acts on M through Z/e, e = lcm(d_i), so the operators are memoized on
integer keys shared over every ring: both colons on (factors, basis of N,
gcd(d, e)) and (basis of N, basis of K), `scalar_submodule` (hence
`ideal_action`, `annihilator`) on (gcd(s, e), factors, basis of N), the
Hermite basis of `_submodule` (sums, localized images) on (factors, rows),
`sub_intersect` on (basis of N, basis of K, rank) and invariant factors on
their rows.  `intmat.hnf` is not memoized (+40 % RSS on the lattice path,
which builds its glued bases, each once, with `hnf_square` directly).

Over a product ring a module is a tuple of component modules and every
submodule decomposes componentwise, so the operators act coordinatewise.

The only infinite module supported is Z itself (submodules are tZ with
t >= 0); its predicates are closed forms in `predicates`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm, prod

from . import intmat
from .intmat import Matrix
from .multsets import MultSet, satisfies_max_multiple
from .rings import (
    Ideal,
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    RingMismatchError,
    UnsupportedRingError,
    ideal,
    ideal_from_generators,
)


@dataclass(frozen=True)
class FinModule:
    """M = ⊕ Z/d_i over a modular ring; coordinates follow `factors`."""

    ring: ModularRing
    factors: tuple[int, ...]

    def __post_init__(self):
        for d in self.factors:
            if d < 2:
                raise ValueError("factors must be >= 2 after normalization")
            if self.ring.n % d != 0:
                raise ValueError(
                    f"factor {d} does not divide the characteristic {self.ring.n}"
                )

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    def elements(self):
        return itertools.product(*(range(d) for d in self.factors))

    @property
    def zero_element(self):
        return (0,) * len(self.factors)

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def scale(self, r: int, a):
        return tuple((r * x) % d for x, d in zip(a, self.factors))


@dataclass(frozen=True)
class ProductModule:
    ring: ProductRing
    components: tuple[FinModule, ...]

    def __post_init__(self):
        if len(self.components) != len(self.ring.components):
            raise ValueError("one module component per ring component")
        for comp, rc in zip(self.components, self.ring.components):
            if comp.ring != rc:
                raise RingMismatchError("component module over the wrong ring")

    def __str__(self) -> str:
        return " x ".join(f"({c})" for c in self.components)

    @property
    def order(self) -> int:
        return prod(c.order for c in self.components)

    def elements(self):
        return itertools.product(*(c.elements() for c in self.components))

    @property
    def zero_element(self):
        return tuple(c.zero_element for c in self.components)

    def add(self, a, b):
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))

    def scale(self, r, a):
        return tuple(c.scale(ri, x) for c, ri, x in zip(self.components, r, a))


@dataclass(frozen=True)
class ZModule:
    """The Z-module Z; submodules are encoded as integers t >= 0 (meaning tZ)."""

    def __str__(self) -> str:
        return "Z"

    @property
    def ring(self) -> IntegerRing:
        return IntegerRing()


AnyModule = FinModule | ProductModule | ZModule


def module_from_factors(ring: Ring, factors) -> FinModule:
    """Build a finite module, normalizing away trivial factors.

    A declaration over Z (finite factors as a Z-module) is re-based over Z/e
    with e the exponent, so symbolic multiplicative subsets of Z reduce
    consistently mod e downstream.  (The Z-declared zero module has exponent 1
    and is re-based over Z/2; every zero module behaves identically anyway.)
    """
    cleaned = tuple(int(d) for d in factors if int(d) != 1)
    if any(d < 1 for d in cleaned):
        raise ValueError("factors must be positive")
    if isinstance(ring, IntegerRing):
        e = lcm(*cleaned) if cleaned else 1
        return FinModule(ModularRing(max(e, 2)), cleaned)
    if isinstance(ring, ModularRing):
        return FinModule(ring, cleaned)
    raise UnsupportedRingError("use product_module for product rings")


def product_module(*components: FinModule) -> ProductModule:
    from .rings import product_ring

    return ProductModule(product_ring(*(c.ring for c in components)), tuple(components))


@dataclass(frozen=True)
class Submodule:
    """Canonical Hermite basis of the preimage lattice of a submodule."""

    module: FinModule
    basis: Matrix

    def __str__(self) -> str:
        gens = ",".join("(" + ",".join(map(str, r)) + ")" for r in self.basis)
        return f"<{gens}>"

    @property
    def order(self) -> int:
        covol = prod(self.basis[i][i] for i in range(len(self.basis)))
        return self.module.order // covol


@dataclass(frozen=True)
class ProductSubmodule:
    module: ProductModule
    parts: tuple[Submodule, ...]

    def __str__(self) -> str:
        return " x ".join(str(p) for p in self.parts)

    @property
    def order(self) -> int:
        return prod(p.order for p in self.parts)


AnySubmodule = Submodule | ProductSubmodule


def _submodule(m: FinModule, rows) -> Submodule:
    return Submodule(m, _hermite_basis(m.factors, tuple(rows)))


@cache
def _hermite_basis(factors, rows) -> Matrix:
    """The Hermite basis of rows + diag(factors), once per integer key."""
    return intmat.hnf_square([*rows, *intmat.diagonal(factors)], len(factors))


def submodule_from_generators(m: AnyModule, gens) -> AnySubmodule:
    if isinstance(m, ProductModule):
        per = tuple(
            submodule_from_generators(comp, [g[i] for g in gens])
            for i, comp in enumerate(m.components)
        )
        return ProductSubmodule(m, per)
    rows = []
    for g in gens:
        if len(g) != m.rank:
            raise ValueError(f"generator {g!r} has the wrong length for {m}")
        rows.append(tuple(int(v) for v in g))
    return _submodule(m, rows)


@cache
def zero_submodule(m: AnyModule) -> AnySubmodule:
    if isinstance(m, ProductModule):
        return ProductSubmodule(m, tuple(zero_submodule(c) for c in m.components))
    return _submodule(m, [])


@cache
def full_submodule(m: AnyModule) -> AnySubmodule:
    if isinstance(m, ProductModule):
        return ProductSubmodule(m, tuple(full_submodule(c) for c in m.components))
    return _submodule(m, intmat.diagonal([1] * m.rank))


def _require_same_parent(n: AnySubmodule, k: AnySubmodule):
    if n.module != k.module:
        raise RingMismatchError("submodules of different parent modules")


def sub_sum(n: AnySubmodule, k: AnySubmodule) -> AnySubmodule:
    _require_same_parent(n, k)
    if isinstance(n, ProductSubmodule):
        return ProductSubmodule(
            n.module, tuple(sub_sum(a, b) for a, b in zip(n.parts, k.parts))
        )
    return _submodule(n.module, n.basis + k.basis)


def sub_intersect(n: AnySubmodule, k: AnySubmodule) -> AnySubmodule:
    _require_same_parent(n, k)
    if isinstance(n, ProductSubmodule):
        return ProductSubmodule(
            n.module, tuple(sub_intersect(a, b) for a, b in zip(n.parts, k.parts))
        )
    return Submodule(n.module, _intersect_basis(n.basis, k.basis, n.module.rank))


@cache
def _intersect_basis(n_basis, k_basis, k: int) -> Matrix:
    """Looks `intmat.lattice_intersect` up per miss, so a tracer wrapping it sees each."""
    return intmat.lattice_intersect(n_basis, k_basis, k)


def sub_leq(n: AnySubmodule, k: AnySubmodule) -> bool:
    _require_same_parent(n, k)
    if isinstance(n, ProductSubmodule):
        return all(sub_leq(a, b) for a, b in zip(n.parts, k.parts))
    return all(intmat.in_rowspan(k.basis, row) for row in n.basis)


def _check_ideal_ring(i: Ideal, m: AnyModule):
    if i.ring != m.ring:
        raise RingMismatchError("ideal over a different ring than the module")


def ideal_action(i: Ideal, n: AnySubmodule) -> AnySubmodule:
    """The submodule IN = dN, d the canonical generator (one per component)."""
    _check_ideal_ring(i, n.module)
    return scalar_submodule(i.data, n)


def scalar_submodule(s, n: AnySubmodule) -> AnySubmodule:
    """The submodule sN for a ring element s."""
    if isinstance(n, ProductSubmodule):
        comps = tuple(scalar_submodule(si, part) for si, part in zip(s, n.parts))
        return ProductSubmodule(n.module, comps)
    m = n.module
    return Submodule(m, _scaled_basis(gcd(s, lcm(*m.factors)), m.factors, n.basis))


@cache
def _scaled_basis(g: int, factors, basis) -> Matrix:
    """sN with g = gcd(s, e): sN = (s)N, and (s) acts on M as (g) does."""
    rows = [tuple(g * v for v in row) for row in basis]
    return intmat.hnf_square([*rows, *intmat.diagonal(factors)], len(factors))


def colon_into(n: AnySubmodule, i: Ideal) -> AnySubmodule:
    """(N :_M I) = {m : Im ⊆ N}; for I = (d) this is {x : d·x ∈ L_N}."""
    _check_ideal_ring(i, n.module)
    if isinstance(n, ProductSubmodule):
        comps = tuple(colon_into(p, ideal(p.module.ring, d)) for p, d in zip(n.parts, i.data))
        return ProductSubmodule(n.module, comps)
    m = n.module
    return Submodule(m, _colon_basis(m.factors, n.basis, gcd(i.data, lcm(*m.factors))))


@cache
def _colon_basis(factors, basis, d: int) -> Matrix:
    """(N :_M (d)) with d = gcd(d, e), the generator that acts on M as (d) does."""
    if d == 1:
        return basis
    k = len(factors)
    scaled = intmat.lattice_intersect(intmat.diagonal([d] * k), basis, k)
    rows = [tuple(v // d for v in row) for row in scaled]
    return intmat.hnf_square([*rows, *intmat.diagonal(factors)], k)


def colon_ring(n: AnySubmodule, k: AnySubmodule) -> Ideal:
    """(N :_R K) = {r : rK ⊆ N}, canonical generator per coordinate."""
    _require_same_parent(n, k)
    if isinstance(n, ProductSubmodule):
        data = tuple(colon_ring(a, b).data for a, b in zip(n.parts, k.parts))
        return ideal(n.module.ring, data)
    c = _colon_generator(n.basis, k.basis)
    if n.module.ring.n % c:
        raise AssertionError("colon generator must divide the characteristic")
    return ideal(n.module.ring, c)


@cache
def _colon_generator(n_basis, k_basis) -> int:
    """The least c with cK ⊆ N, a divisor of e (it kills M)."""
    return lcm(*(intmat.multiple_order(n_basis, row) for row in k_basis))


def annihilator(n: AnySubmodule) -> Ideal:
    return colon_ring(zero_submodule(n.module), n)


@cache
def _invariant_factors(rows) -> tuple[int, ...]:
    """Invariant factors of Z^k / rowspan(rows), rows a full-rank k×k matrix."""
    s = intmat.smith_normal_form(rows)
    return tuple(row[i] for i, row in enumerate(s) if row[i] >= 2)


def quotient_module(m: AnyModule, n: AnySubmodule) -> AnyModule:
    """M/N in invariant-factor form, componentwise over a product ring."""
    if n.module != m:
        raise RingMismatchError("submodule of a different module")
    if isinstance(m, ProductModule):
        comps = tuple(quotient_module(c, p) for c, p in zip(m.components, n.parts))
        return ProductModule(m.ring, comps)
    return FinModule(m.ring, _invariant_factors(n.basis))


def submodule_as_module(n: Submodule) -> FinModule:
    """N as a module in its own right, in invariant-factor form.

    In coordinates w.r.t. its basis H_N, N is Z^k / span(C), where the rows
    of C express the relation rows D in the H_N basis.
    """
    m = n.module
    c_rows = tuple(tuple(intmat.rowspan_coords(n.basis, rel)) for rel in intmat.diagonal(m.factors))
    return FinModule(m.ring, _invariant_factors(c_rows))


def s_torsion(m: AnyModule, s: MultSet) -> AnySubmodule:
    """{x : sx = 0 for some s in S} = (0 :_M <s*>) with s* the maximal multiple."""
    if s.ring != m.ring:
        raise RingMismatchError("multiplicative set over a different ring")
    star = satisfies_max_multiple(s)
    return colon_into(zero_submodule(m), ideal_from_generators(m.ring, [star]))


class LocalizedModule:
    """S⁻¹M in closed form through the maximal multiple s* of S.

    Every s in S divides s*, so over a ring component Z/n the kernel of
    R → S⁻¹R is Ann(s*) and S⁻¹R = Z/(n/g) with g = gcd(s*, n).  The
    S-torsion (0 :_M s*) of M = ⊕ Z/d_i is ⊕ (d_i/g_i)Z/d_i with
    g_i = gcd(d_i, s*), so S⁻¹M = M/(S-torsion) = ⊕ Z/(d_i/g_i), coordinate
    by coordinate.  Factors 1 and ring components of modulus 1 drop out;
    `trivial` flags the zero ring (0 ∈ S).  `map_submodule` sends N ≤ M to
    S⁻¹N and `map_ideal` sends an ideal of R to its image in S⁻¹R.
    """

    def __init__(self, m: AnyModule, s: MultSet):
        if s.ring != m.ring:
            raise RingMismatchError("multiplicative set over a different ring")
        self.source = m
        star = satisfies_max_multiple(s)
        product = isinstance(m, ProductModule)
        comps, stars = (m.components, star) if product else ((m,), (star,))
        elems = s.elements if product else [(x,) for x in s.elements]
        self._kept = []  # (ring component, kept coordinates) per surviving component
        mods = []
        for t, (c, x) in enumerate(zip(comps, stars)):
            modulus = c.ring.n // gcd(x, c.ring.n)
            if modulus == 1:
                continue
            if any(gcd(e[t], modulus) != 1 for e in elems):
                raise AssertionError("localized image of S must consist of units")
            local = tuple(d // gcd(d, x) for d in c.factors)
            cols = tuple(i for i, d in enumerate(local) if d > 1)
            mods.append(FinModule(ModularRing(modulus), tuple(local[i] for i in cols)))
            self._kept.append((t, cols))
        self.trivial = not mods
        if self.trivial:
            self.ring = self.module = None
        elif product:
            self.ring = ProductRing(tuple(c.ring for c in mods))
            self.module = ProductModule(self.ring, tuple(mods))
        else:
            self.module = mods[0]
            self.ring = self.module.ring

    def map_submodule(self, n: AnySubmodule) -> AnySubmodule:
        if self.trivial:
            raise ValueError("localization collapsed to the zero module")
        if n.module != self.source:
            raise RingMismatchError("submodule of a different module")
        product = isinstance(self.module, ProductModule)
        parts = n.parts if product else (n,)
        mods = self.module.components if product else (self.module,)
        images = tuple(
            _submodule(c, [tuple(row[i] for i in cols) for row in parts[t].basis])
            for c, (t, cols) in zip(mods, self._kept)
        )
        return ProductSubmodule(self.module, images) if product else images[0]

    def map_ideal(self, i: Ideal) -> Ideal:
        if self.trivial:
            raise ValueError("localization collapsed to the zero ring")
        if i.ring != self.source.ring:
            raise RingMismatchError("ideal over a different ring")
        if isinstance(self.ring, ProductRing):
            return ideal(self.ring, tuple(i.data[t] for t, _ in self._kept))
        return ideal(self.ring, i.data)


def localize_module(m: AnyModule, s: MultSet) -> LocalizedModule:
    return LocalizedModule(m, s)

