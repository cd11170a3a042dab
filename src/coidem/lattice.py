"""Full submodule-lattice enumeration and completely irreducible detection.

A submodule of ⊕ Z/f_i is a lattice L with diag(f)·Z^k ⊆ L ⊆ Z^k, stored as
its square row-Hermite basis H.  Each p-primary component's bases are built
row by row from the bottom: row i is (0, ..., 0, d, t) with d | f_i and
0 <= t_j < h_jj, kept when (f_i/d)·t lies in the span of the rows below
(that is, f_i·e_i ∈ L), so every submodule comes out once, already canonical.
The components are glued across primes via CRT lifts: the subgroup lattice of
a finite abelian group is the product of the lattices of its p-components.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, cached_property
from math import gcd

from .modules import (
    AnyModule,
    AnySubmodule,
    FinModule,
    ProductModule,
    ProductSubmodule,
    Submodule,
    _submodule,
    sub_leq,
)
from .rings import divisors, factorize

DEFAULT_CAP = 100_000


class LatticeCapExceeded(RuntimeError):
    pass


def _sort_key(sub: AnySubmodule):
    if isinstance(sub, ProductSubmodule):
        return (sub.order, tuple(p.basis for p in sub.parts))
    return (sub.order, sub.basis)


class SubmoduleLattice:
    """The complete submodule lattice, in canonical (order, basis) order."""

    def __init__(self, parent: AnyModule, all_subs):
        self.parent = parent
        self.all = tuple(sorted(all_subs, key=_sort_key))
        self.index = {sub: i for i, sub in enumerate(self.all)}

    def __len__(self) -> int:
        return len(self.all)

    @cached_property
    def leq(self):
        """leq[i][j] is True iff all[i] ⊆ all[j]."""
        n = len(self.all)
        orders = [s.order for s in self.all]
        table = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    table[i][j] = True
                elif orders[j] % orders[i] == 0 and sub_leq(self.all[i], self.all[j]):
                    table[i][j] = True
        return table

    @cached_property
    def covers(self):
        """Hasse pairs (i, j): all[j] covers all[i] (immediate containment).

        In a finite module K covers N exactly when N ⊂ K and [K:N] is prime;
        every index divides |M|, so the primes of |M| are the only candidates.
        """
        primes = set(factorize(self.parent.order))
        orders = [s.order for s in self.all]
        return tuple(
            (i, j)
            for i, row in enumerate(self.leq)
            for j, above in enumerate(row)
            if above and orders[j] // orders[i] in primes
        )

    @cached_property
    def completely_irreducible_indexes(self):
        """Proper submodules whose strict over-set meets them at a unique cover.

        In a finite lattice a proper N is completely irreducible exactly when
        the intersection of all strictly larger submodules differs from N,
        i.e. when N has a unique cover (the full module has none).
        """
        ups = Counter(i for i, _ in self.covers)
        return tuple(i for i in range(len(self.all)) if ups[i] == 1)

    def completely_irreducibles(self):
        return tuple(self.all[i] for i in self.completely_irreducible_indexes)


def _tails(c: int, below) -> list[tuple[int, ...]]:
    """Every t with 0 <= t_j < h_jj and c·t in the row span of the Hermite basis
    `below`: column by column, t_j solves c·t_j ≡ -r_j (mod h_jj), r being what
    the rows chosen so far leave of c·t; gcd(c, h_jj) solutions or none."""
    partial = [((), (0,) * len(below))]
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
                    raise LatticeCapExceeded(
                        f"more than {cap} submodules; raise the cap to proceed"
                    )
    return out


def _crt_lift(residue: int, q: int, m: int) -> int:
    """The x mod qm with x ≡ residue (mod q) and x ≡ 0 (mod m), gcd(q, m) = 1."""
    inv = pow(m % q, -1, q)
    return (residue * m * inv) % (q * m)


def _modular_lattice_bases(m: FinModule, cap: int):
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for i, d in enumerate(m.factors):
        for p, e in factorize(d).items():
            per_prime.setdefault(p, []).append((i, p**e))
    component_bases = []
    total = 1
    for p in sorted(per_prime):
        coords, pparts = zip(*per_prime[p])
        bases = _p_component_bases_cached(pparts, cap)
        total *= len(bases)
        if total > cap:
            raise LatticeCapExceeded(
                f"more than {cap} submodules; raise the cap to proceed"
            )
        component_bases.append((coords, pparts, bases))
    out = []
    for combo in itertools.product(*(b for _, _, b in component_bases)):
        rows = []
        for (coords, pparts, _), base in zip(component_bases, combo):
            for row in base:
                wide = [0] * m.rank
                for i, q, x in zip(coords, pparts, row):
                    wide[i] = _crt_lift(x, q, m.factors[i] // q)
                rows.append(tuple(wide))
        out.append(_submodule(m, rows).basis)
    return out


_memory_cache: dict = {}


def enumerate_submodules(m: AnyModule, cap: int = DEFAULT_CAP) -> SubmoduleLattice:
    """The complete submodule lattice of a finite module."""
    cached = _memory_cache.get(m)
    if cached is not None:
        if len(cached) > cap:
            raise LatticeCapExceeded(f"lattice has {len(cached)} > cap {cap} submodules")
        return cached
    if isinstance(m, ProductModule):
        comp_lattices = [enumerate_submodules(c, cap=cap) for c in m.components]
        count = 1
        for cl in comp_lattices:
            count *= len(cl)
        if count > cap:
            raise LatticeCapExceeded(f"lattice has {count} > cap {cap} submodules")
        subs = [
            ProductSubmodule(m, parts)
            for parts in itertools.product(*(cl.all for cl in comp_lattices))
        ]
        lattice = SubmoduleLattice(m, subs)
    else:
        bases = _modular_lattice_bases(m, cap)
        lattice = SubmoduleLattice(m, [Submodule(m, b) for b in bases])
    _memory_cache[m] = lattice
    return lattice
