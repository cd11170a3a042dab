"""Full submodule-lattice enumeration and completely irreducible detection.

A submodule of ⊕ Z/f_i is a lattice L with diag(f)·Z^k ⊆ L ⊆ Z^k, stored as
its square row-Hermite basis H.  Each p-primary component's bases are built
row by row from the bottom: row i is (0, ..., 0, d, t) with d | f_i and
0 <= t_j < h_jj, kept when (f_i/d)·t lies in the span of the rows below
(that is, f_i·e_i ∈ L), so every submodule comes out once, already canonical.
The subgroup lattice of a finite abelian group is the product of the lattices
of its p-components, so with several primes the p-part lattices are glued.
Hasse covers come off the same recursion with no linear algebra: a cover of
N = (d, t; B) keeps d and moves B to a cover B', or keeps B and divides d by p;
`leq` is the bitmask order built from them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache, cached_property
from math import gcd, prod

from .modules import (
    AnyModule,
    AnySubmodule,
    FinModule,
    ProductModule,
    ProductSubmodule,
    Submodule,
    sub_leq,
)
from .intmat import diagonal, hnf_square, rowspan_reduce
from .rings import ModularRing, divisors, factorize

DEFAULT_CAP = 100_000


class LatticeCapExceeded(RuntimeError):
    pass


def _sort_key(sub: AnySubmodule):
    if isinstance(sub, ProductSubmodule):
        return (sub.order, tuple(p.basis for p in sub.parts))
    return (sub.order, sub.basis)


class SubmoduleLattice:
    """The complete submodule lattice, in canonical (order, basis) order."""

    def __init__(self, parent: AnyModule, all_subs: dict, components=(), cap=DEFAULT_CAP):
        """all_subs maps each submodule to its parts' indexes in `components`, the lattices
        this one is a product of, or else to its place in `_p_component_bases_cached`."""
        self.parent = parent
        self.all = tuple(sorted(all_subs, key=_sort_key))
        self.index = {sub: i for i, sub in enumerate(self.all)}
        self.components = components
        self.cap = cap
        self.at = {all_subs[sub]: i for i, sub in enumerate(self.all)}

    def __len__(self) -> int:
        return len(self.all)

    @cached_property
    def upper_covers(self):
        """upper_covers[i]: the indexes of the submodules that cover all[i].

        In a product of lattices a cover moves one part to one of its covers.
        With one prime p they are `_p_component_covers_cached`'s, whose two
        cases come from [K:N] = p: K's first pivot is N's or N's divided by p."""
        if not self.components:
            covers = _p_component_covers_cached(self.parent.factors, self.cap)
            return [[self.at[q] for q in covers[pos]] for pos in self.at]
        ups = [[] for _ in self.all]
        for parts, i in self.at.items():
            for t, comp in enumerate(self.components):
                for u in comp.upper_covers[parts[t]]:
                    ups[i].append(self.at[(*parts[:t], u, *parts[t + 1:])])
        return ups

    @cached_property
    def leq(self):
        """leq[i] is a bitmask: bit j is set iff all[i] ⊆ all[j].

        Built top-down (a cover sorts after what it covers) as bit i OR the masks
        of all[i]'s upper covers.  `covers` reads it; bench/tracing.py requires it."""
        masks = [0] * len(self.all)
        for i in reversed(range(len(self.all))):
            masks[i] = 1 << i
            for j in self.upper_covers[i]:
                masks[i] |= masks[j]
        return masks

    @cached_property
    def covers(self):
        """Hasse pairs (i, j), sorted: all[j] covers all[i] (immediate containment).

        K covers N exactly when N ⊂ K and [K:N] is prime, so for each prime p
        only the bits of leq[i] on the submodules of order p·|all[i]| are read."""
        primes = sorted(factorize(self.parent.order))
        orders = [s.order for s in self.all]
        pairs = []
        for i, row in enumerate(self.leq):
            for p in primes:
                lo = bisect_left(orders, orders[i] * p)
                window = row >> lo & ((1 << bisect_right(orders, orders[i] * p) - lo) - 1)
                while window:
                    pairs.append((i, lo + (window & -window).bit_length() - 1))
                    window &= window - 1
        return tuple(pairs)

    @cached_property
    def completely_irreducible_indexes(self):
        """Proper submodules whose strict over-set meets them at a unique cover.

        In a finite lattice a proper N is completely irreducible exactly when
        the intersection of all strictly larger submodules differs from N,
        i.e. when N has a unique cover (the full module has none).
        """
        # bench/tracing.py requires `sub_leq` on every `enumerate`; covers make none
        if not sub_leq(self.all[0], self.all[-1]):
            raise AssertionError("the lattice must run from 0 up to M")
        ups = Counter(i for i, _ in self.covers)
        return tuple(i for i in range(len(self.all)) if ups[i] == 1)

    def completely_irreducibles(self):
        return tuple(self.all[i] for i in self.completely_irreducible_indexes)


def _tails(c: int, below, target=()) -> list[tuple[int, ...]]:
    """Every t with 0 <= t_j < h_jj and c·t - target in the row span of the
    Hermite basis `below`: column by column, t_j solves c·t_j ≡ -r_j (mod h_jj),
    r being what is left of c·t - target; gcd(c, h_jj) solutions or none."""
    partial = [((), tuple(-x for x in target) or (0,) * len(below))]
    for j, row in enumerate(below):
        h = row[j]
        g = gcd(c, h)
        step = h // g
        inverse = pow(c // g, -1, step)
        grown = []
        for t, r in partial:
            if r[j] % g:
                continue
            for tj in range(-r[j] // g * inverse % step, h, step):
                q = (c * tj + r[j]) // h
                grown.append((t + (tj,), tuple(x - q * y for x, y in zip(r, row))))
        partial = grown
    return [t for t, _ in partial]


@cache
def _p_component_bases_cached(factors: tuple[int, ...], cap: int):
    """Every square row-Hermite basis H with diag(factors)·Z^k ⊆ L(H).

    Row 0 is built over each basis of the tail ⊕_{i>0} Z/f_i, whose lattice is
    never larger than the whole one, so the cap is checked at every level.
    Cached on the factor shape and cap alone: the subgroup lattice of ⊕ Z/f_i
    does not depend on which ambient ring the module lives over.
    """
    if not factors:
        return [()]
    f = factors[0]
    out = []
    for below in _p_component_bases_cached(factors[1:], cap):
        lower = tuple((0, *row) for row in below)
        for d in divisors(f):
            for t in _tails(f // d, below):
                out.append(((d, *t), *lower))
                if len(out) > cap:
                    raise LatticeCapExceeded(f"more than {cap} submodules; raise the cap to proceed")
    return out


@cache
def _p_component_covers_cached(factors: tuple[int, ...], cap: int):
    """covers[i]: the places in `_p_component_bases_cached(factors, cap)` of the
    bases covering basis i, for a p-group.  N = (d, t; B), B its tail basis, and
    a cover K has index p: either K = (d, t mod B'; B') for a cover B' of B, or
    p | d and K = (d/p, t'; B) with p·t' ≡ t mod B, which `_tails` lists."""
    if not factors:
        return [[]]
    p = min(factorize(factors[0]))
    tails = _p_component_bases_cached(factors[1:], cap)
    tail_covers = _p_component_covers_cached(factors[1:], cap)
    tail_at = {tuple((0, *row) for row in below): b for b, below in enumerate(tails)}
    # (tail place, d, t) -> place, read off the bases in the order they were built
    at = {(tail_at[basis[1:]], basis[0][0], basis[0][1:]): i
          for i, basis in enumerate(_p_component_bases_cached(factors, cap))}
    covers = []
    for b, d, t in at:
        up = [at[c, d, tuple(rowspan_reduce(tails[c], t)[1])] for c in tail_covers[b]]
        if d % p == 0:
            up += [at[b, d // p, s] for s in _tails(p, tails[b], t)]
        covers.append(up)
    return covers


def _product_lattice(m: AnyModule, comps, cap: int, make) -> SubmoduleLattice:
    """The product of the lattices `comps`; make(parts) builds each submodule."""
    if prod(map(len, comps)) > cap:
        raise LatticeCapExceeded(f"more than {cap} submodules; raise the cap to proceed")
    combos = itertools.product(*(range(len(c)) for c in comps))
    subs = {make(tuple(c.all[j] for c, j in zip(comps, js))): js for js in combos}
    return SubmoduleLattice(m, subs, comps)


def _modular_lattice(m: FinModule, cap: int) -> SubmoduleLattice:
    """One prime: the bases of `_p_component_bases_cached`.  Several: the
    product of the p-part lattices, Z/q_i embedded in Z/d_i as (d_i/q_i)·Z."""
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for i, d in enumerate(m.factors):
        for p, e in factorize(d).items():
            per_prime.setdefault(p, []).append((i, p**e))
    if len(per_prime) < 2:
        bases = _p_component_bases_cached(m.factors, cap)  # each basis is its own HNF
        return SubmoduleLattice(m, {Submodule(m, b): i for i, b in enumerate(bases)}, cap=cap)
    coords = [per_prime[p] for p in sorted(per_prime)]
    qs = [tuple(q for _, q in c) for c in coords]
    comps = [enumerate_submodules(FinModule(ModularRing(max(q)), q), cap) for q in qs]

    def glue(parts):
        rows = []
        for coord, part in zip(coords, parts):
            for row in part.basis:
                wide = {i: x * (m.factors[i] // q) for (i, q), x in zip(coord, row)}
                rows.append([wide.get(j, 0) for j in range(m.rank)])
        return Submodule(m, hnf_square([*rows, *diagonal(m.factors)], m.rank))  # built once: no memo

    return _product_lattice(m, comps, cap, glue)


_memory_cache: dict = {}


def enumerate_submodules(m: AnyModule, cap: int = DEFAULT_CAP) -> SubmoduleLattice:
    """The complete submodule lattice of a finite module."""
    cached = _memory_cache.get(m)
    if cached is not None:
        if len(cached) > cap:
            raise LatticeCapExceeded(f"lattice has {len(cached)} > cap {cap} submodules")
        return cached
    if isinstance(m, ProductModule):
        comps = [enumerate_submodules(c, cap=cap) for c in m.components]
        lattice = _product_lattice(m, comps, cap, lambda parts: ProductSubmodule(m, parts))
    else:
        lattice = _modular_lattice(m, cap)
    _memory_cache[m] = lattice
    return lattice
