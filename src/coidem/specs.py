"""Text specs for rings, modules, multiplicative sets and submodules.

Grammar (whitespace is ignored everywhere):

  ring:       Z | Z/12 | Z/4 x Z/9
  module:     Z | Z/4 + Z/2 | Z/2+Z/2 x Z/3        (product components join with x)
  mult set:   units | nonzero | comp-primes:2,3 | gen:2,6     (symbolic, over Z)
              fgen:1,3 | fgen:(1,2),(0,1)                     (inside the finite ring)
  submodule:  gens: | gens:2 | gens:(2,0),(0,1) | gens:(1,0;2)  (; splits product parts)

Symbolic mult-set specs given alongside a finite module are reduced into its
ring; `fgen` is rejected over Z.
"""

from __future__ import annotations

from .modules import (
    AnyModule,
    ProductModule,
    ZModule,
    module_from_factors,
    product_module,
    submodule_from_generators,
    zero_submodule,
)
from .multsets import (
    AnyMultSet,
    ZComplementOfPrimes,
    ZGeneratedBy,
    ZNonZero,
    ZUnits,
    closure_in_ring,
)
from .rings import (
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    Z,
    product_ring,
)


class SpecError(ValueError):
    """A malformed ring/module/S/submodule spec string."""


def _squash(text: str) -> str:
    return "".join(text.split())


def parse_ring(text: str) -> Ring:
    squashed = _squash(text)
    if not squashed:
        raise SpecError("empty ring spec")
    parts = squashed.split("x")
    rings = []
    for part in parts:
        if part == "Z":
            rings.append(Z)
        elif part.startswith("Z/"):
            try:
                n = int(part[2:])
            except ValueError:
                raise SpecError(f"bad modulus in {part!r}") from None
            if n < 2:
                raise SpecError("modulus must be >= 2 (the zero ring is rejected)")
            rings.append(ModularRing(n))
        else:
            raise SpecError(f"unrecognized ring component {part!r}")
    if len(rings) == 1:
        return rings[0]
    if any(isinstance(r, IntegerRing) for r in rings):
        raise SpecError("products must be products of finite rings")
    return product_ring(*rings)


def _parse_factors(text: str) -> tuple[int, ...]:
    factors = []
    for part in text.split("+"):
        if not part.startswith("Z/"):
            raise SpecError(f"module summands look like Z/d, got {part!r}")
        try:
            factors.append(int(part[2:]))
        except ValueError:
            raise SpecError(f"bad summand {part!r}") from None
    return tuple(factors)


def parse_module(ring: Ring, text: str) -> AnyModule:
    squashed = _squash(text)
    if not squashed:
        raise SpecError("empty module spec")
    if squashed == "Z":
        if not isinstance(ring, IntegerRing):
            raise SpecError("the module Z needs the ring Z")
        return ZModule()
    if isinstance(ring, ProductRing):
        comps = squashed.split("x")
        if len(comps) != len(ring.components):
            raise SpecError(
                f"{len(ring.components)} module components expected, got {len(comps)}"
            )
        parts = list(zip(ring.components, comps))
    elif "x" in squashed:
        raise SpecError("product module spec over a non-product ring")
    else:
        parts = [(ring, squashed)]
    try:
        built = [module_from_factors(rc, _parse_factors(part)) for rc, part in parts]
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return product_module(*built) if isinstance(ring, ProductRing) else built[0]


def _parse_int_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise SpecError(f"expected comma-separated integers in {text!r}") from None


def _parse_tuple_list(text: str) -> list[tuple]:
    """Parse squashed "(a,b),(c;d)" into tuples; ';' splits a body into
    product parts, and bare integers become 1-tuples.  Tuples do not nest."""
    import re

    if "(" not in text:
        return [(v,) for v in _parse_int_list(text)]
    if not re.fullmatch(r"\([^()]*\)(,\([^()]*\))*", text):
        raise SpecError(f"expected parenthesized tuples like (2,0),(0,1), got {text!r}")
    return [
        tuple(tuple(_parse_int_list(p)) for p in body.split(";"))
        if ";" in body
        else tuple(_parse_int_list(body))
        for body in re.findall(r"\(([^()]*)\)", text)
    ]


def _is_flat(g: tuple) -> bool:
    """No ';'-separated parts: every coordinate is a plain integer."""
    return all(isinstance(v, int) for v in g)


def parse_multset(ring: Ring, text: str) -> AnyMultSet:
    squashed = _squash(text)
    if squashed == "units":
        return ZUnits()
    if squashed == "nonzero":
        return ZNonZero()
    if squashed.startswith("comp-primes:"):
        primes = _parse_int_list(squashed[len("comp-primes:"):])
        if not primes:
            raise SpecError("comp-primes needs at least one prime")
        try:
            return ZComplementOfPrimes(tuple(primes))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    if squashed.startswith("gen:"):
        return ZGeneratedBy(tuple(sorted(set(_parse_int_list(squashed[len("gen:"):])))))
    if squashed.startswith("fgen:"):
        if isinstance(ring, IntegerRing):
            raise SpecError("fgen needs a finite ring; use gen:/units/nonzero over Z")
        body = squashed[len("fgen:"):]
        if isinstance(ring, ProductRing):
            gens = _parse_tuple_list(body)
            for g in gens:
                if len(g) != len(ring.components) or not _is_flat(g):
                    raise SpecError(f"generator {g!r} has the wrong arity for {ring}")
            return closure_in_ring(ring, gens)
        return closure_in_ring(ring, _parse_int_list(body))
    raise SpecError(
        f"unrecognized multiplicative set spec {text!r} "
        "(try units, nonzero, comp-primes:..., gen:..., fgen:...)"
    )


def parse_submodule(module: AnyModule, text: str):
    squashed = _squash(text)
    if not squashed.startswith("gens:"):
        raise SpecError("submodule specs look like gens:(2,0),(0,1)")
    body = squashed[len("gens:"):]
    if isinstance(module, ZModule):
        from math import gcd

        return gcd(*_parse_int_list(body))
    if not body:
        return zero_submodule(module)
    if isinstance(module, ProductModule):
        raw = _parse_tuple_list(body)
        gens = []
        for g in raw:
            if not g or not isinstance(g[0], tuple):
                raise SpecError(
                    "product submodule generators separate components with ';', e.g. gens:(1,0;2)"
                )
            if len(g) != len(module.components) or any(
                len(part) != comp.rank for part, comp in zip(g, module.components)
            ):
                raise SpecError(f"generator {g!r} has the wrong arity for {module}")
            gens.append(tuple(g))
        return submodule_from_generators(module, gens)
    gens = _parse_tuple_list(body)
    for g in gens:
        if len(g) != module.rank or not _is_flat(g):
            raise SpecError(f"generator {g!r} has the wrong length for {module}")
    return submodule_from_generators(module, gens)
