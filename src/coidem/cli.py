"""Command-line front end; the parser is built once, at import, and `main(argv)` is reentrant.

Commands:
  check               decide one property for (ring, module[, submodule], S)
  enumerate           list the submodule lattice (orders, irreducibility, Hasse)
  verify              run the law-check harness over a generated corpus
  reproduce-examples  assert the five bundled golden verdicts

Exit codes: 0 = holds / no violations, 1 = property fails, violations found or
a witness fails re-validation, 2 = spec or usage errors.  JSON output uses
canonical key order so reports are byte-identical across runs for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lattice import LatticeCapExceeded, enumerate_submodules
from .modules import ZModule
from .multsets import MultSetTooLarge
from .predicates import (
    POINTWISE_PROPERTIES,
    Verdict,
    coidempotent,
    comultiplication,
    copure,
    direct_summand,
    fully,
    idempotent,
    multiplication,
    pure,
    s_finite,
    s_noetherian,
    semisimple,
)
from .rings import FactorizationTooLarge, UnsupportedRingError
from .specs import SpecError, parse_module, parse_multset, parse_ring, parse_submodule
from .theorems import THEOREMS, CorpusConfig, generate_corpus, reproduce_examples, verify_all

# property -> (reads --sub, decide(module, submodule, S, parsed args)), in listing order
DECIDE = {
    "coidempotent": (True, lambda m, n, s, a: coidempotent(m, n, s)),
    "idempotent": (True, lambda m, n, s, a: idempotent(m, n, s)),
    "pure": (True, lambda m, n, s, a: pure(m, n, s)),
    "copure": (True, lambda m, n, s, a: copure(m, n, s)),
    "direct-summand": (True, lambda m, n, s, a: direct_summand(m, n, s, strict_ds=a.strict_ds)),
    "finite": (True, lambda m, n, s, a: s_finite(m, n, s)),
    "comultiplication": (
        False, lambda m, n, s, a: comultiplication(m, s, uniform=a.uniform_witness)
    ),
    "multiplication": (False, lambda m, n, s, a: multiplication(m, s, uniform=a.uniform_witness)),
    "semisimple": (False, lambda m, n, s, a: semisimple(m, s, strict_ds=a.strict_ds)),
    "noetherian": (False, lambda m, n, s, a: s_noetherian(m, s)),
    **{
        f"fully-{p}": (False, lambda m, n, s, a, p=p: fully(p, m, s, uniform=a.uniform_witness))
        for p in POINTWISE_PROPERTIES
    },
}
POINTWISE = tuple(prop for prop, (reads_sub, _) in DECIDE.items() if reads_sub)
MODULE_LEVEL = tuple(prop for prop, (reads_sub, _) in DECIDE.items() if not reads_sub)
VALID_PROPERTIES = POINTWISE + MODULE_LEVEL
Z_PROPERTIES = ("coidempotent", "fully-coidempotent", "finite", "noetherian")

_ALIASES = {}
for _name in VALID_PROPERTIES:
    _ALIASES[_name] = _name
    if _name.startswith("fully-"):
        _ALIASES["fully-s-" + _name[len("fully-"):]] = _name
    else:
        _ALIASES["s-" + _name] = _name


def _resolve_property(name: str) -> str:
    if name in _ALIASES:
        return _ALIASES[name]
    import difflib  # only a miss pays for the import

    near = difflib.get_close_matches(name, _ALIASES, n=1)
    hint = f"; did you mean {near[0]!r}?" if near else ""
    raise SpecError(
        f"unknown property {name!r}{hint} valid names: {', '.join(sorted(set(_ALIASES)))}"
    )


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _verdict_payload(v: Verdict) -> dict:
    return {
        "holds": v.holds,
        "witness": None if v.witness is None else str(v.witness),
        "complement": None if v.complement is None else str(v.complement),
        "counterexample": None if v.counterexample is None else str(v.counterexample),
    }


def cmd_check(args) -> int:
    ring = parse_ring(args.ring)
    module = parse_module(ring, args.module)
    s = parse_multset(ring, args.s)
    prop = _resolve_property(args.property)
    if isinstance(module, ZModule) and prop not in Z_PROPERTIES:
        raise SpecError(
            f"over the module Z only {', '.join(Z_PROPERTIES)} are decidable"
        )
    reads_sub, decide = DECIDE[prop]
    sub = None
    if reads_sub:
        if not args.sub:
            raise SpecError(f"property {prop!r} needs --sub")
        sub = parse_submodule(module, args.sub)
    try:
        verdict = decide(module, sub, s, args)
    except UnsupportedRingError as exc:
        raise SpecError(str(exc)) from None
    payload = {
        "schema": 1,
        "command": "check",
        "ring": str(ring),
        "module": str(module),
        "submodule": None if sub is None else str(sub),
        "s": str(s),
        "property": prop,
        "strict_ds": args.strict_ds,
        "uniform_witness": args.uniform_witness,
        **_verdict_payload(verdict),
    }
    if args.json:
        print(_dump(payload))
    else:
        print(f"{prop} on {module} over {ring} with S={s}: holds={verdict.holds}")
        if verdict.witness is not None:
            print(f"  witness s = {verdict.witness}")
        if verdict.complement is not None:
            print(f"  complement K = {verdict.complement}")
        if verdict.counterexample is not None:
            print(f"  counterexample = {verdict.counterexample}")
    return 0 if verdict.holds else 1


def cmd_enumerate(args) -> int:
    if args.lattice_cap < 1:
        raise SpecError(f"--lattice-cap must be at least 1, got {args.lattice_cap}")
    ring = parse_ring(args.ring)
    module = parse_module(ring, args.module)
    if isinstance(module, ZModule):
        raise SpecError("the lattice of Z (all tZ) is infinite; enumerate finite modules")
    lat = enumerate_submodules(module, cap=args.lattice_cap)
    ci = set(lat.completely_irreducible_indexes)
    rows = []
    for i, sub in enumerate(lat.all):
        rows.append(
            {
                "index": i,
                "generators": str(sub),
                "order": sub.order,
                "completely_irreducible": i in ci,
            }
        )
    payload = {
        "schema": 1,
        "command": "enumerate",
        "ring": str(ring),
        "module": str(module),
        "count": len(rows),
        "submodules": rows,
    }
    if args.hasse:
        payload["hasse"] = [list(pair) for pair in lat.covers]
    if args.json:
        print(_dump(payload))
    else:
        print(f"{module} over {ring}: {len(rows)} submodules")
        for row in rows:
            flag = " CI" if row["completely_irreducible"] else ""
            print(f"  [{row['index']:>3}] order {row['order']:>4}  {row['generators']}{flag}")
        if args.hasse:
            print("covers (lower, upper):")
            for i, j in lat.covers:
                print(f"  {i} < {j}")
    return 0


def _parse_moduli(text: str) -> tuple[int, ...]:
    out = []
    try:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo, hi = chunk.split("-", 1)
                out.extend(range(int(lo), int(hi) + 1))
            elif chunk:
                out.append(int(chunk))
    except ValueError:
        raise SpecError(f"bad moduli spec {text!r}") from None
    if not out or any(n < 2 for n in out):
        raise SpecError(f"bad moduli spec {text!r}")
    return tuple(out)


def _parse_theorem_ids(text: str) -> set[str]:
    ids = {tid.strip() for tid in text.split(",") if tid.strip()}
    valid = [t.id for t in THEOREMS]
    unknown = sorted(ids - set(valid))
    if unknown or not ids:
        what = f"unknown theorem id(s) {', '.join(unknown)}" if unknown else "no theorem id"
        raise SpecError(f"{what} in {text!r}; valid ids: {', '.join(valid)}")
    return ids


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
    if args.fuzz < 0:
        raise SpecError(f"--fuzz must be at least 0, got {args.fuzz}")
    if args.max_order < 1:
        raise SpecError(f"--max-order must be at least 1, got {args.max_order}")
    config = CorpusConfig(
        moduli=_parse_moduli(args.moduli),
        max_order=args.max_order,
        include_products=not args.no_products,
        fuzz=args.fuzz,
        seed=args.seed,
    )
    theorem_ids = _parse_theorem_ids(args.theorems) if args.theorems is not None else None
    if args.out is not None:
        if not args.out:
            raise SpecError("--out needs a file name, got ''")
        parent = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise SpecError(f"cannot write --out {args.out}: not a file in a writable directory")
    corpus = generate_corpus(config)
    report = verify_all(
        corpus,
        theorem_ids=theorem_ids,
        jobs=args.jobs,
        validate_witnesses=not args.no_validate_witnesses,
        timings=args.timings,
        config=config,
    )
    blob = _dump(report.to_dict())
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            raise SpecError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    if args.json:
        print(blob)
    else:
        print(f"instances: {len(corpus)}")
        for tid, row in report.summary.items():
            print(
                f"  {tid}: pass={row['pass']} (vacuous={row['vacuous']}) "
                f"violation={row['violation']} inapplicable={row['inapplicable']} "
                f"applicable={row['applicable']}"
            )
        for name, probe in report.probes.items():
            print(f"  probe {name}: {probe['count']}")
        wc = report.witness_checks
        print(f"  witness checks: {wc['checked']} ({wc['failed']} failed)")
        print(f"  violations: {len(report.violations)}")
        for v in report.violations[:10]:
            print(f"    {v.theorem_id} {v.instance} {v.details}")
    return 0 if not report.violations and not report.witness_checks["failed"] else 1


def cmd_reproduce(args) -> int:
    results = reproduce_examples()
    if args.json:
        print(_dump({"schema": 1, "command": "reproduce-examples",
                     "results": [r.to_dict() for r in results]}))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.description}")
            if r.detail:
                print(f"      {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed and not args.json:
        print(f"{len(failed)} golden example(s) failed", file=sys.stderr)
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coidem",
        description="Exact decision procedures for coidempotent-style submodule properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide one property")
    p.add_argument("--ring", required=True, help='e.g. "Z", "Z/12", "Z/4 x Z/9"')
    p.add_argument("--module", required=True, help='e.g. "Z", "Z/4 + Z/2"')
    p.add_argument("--sub", default=None, help='e.g. "gens:(2,0),(0,1)" or "gens:2"')
    p.add_argument("--s", required=True, help='e.g. "nonzero", "comp-primes:2", "fgen:1,3"')
    p.add_argument("--property", required=True, help="property name (s- prefixes accepted)")
    p.add_argument("--loose-ds", dest="strict_ds", action="store_false",
                   help="read direct summands as sM = N + K without N ∩ K = 0")
    p.add_argument("--uniform-witness", action="store_true",
                   help="ask for one s serving every submodule in 'fully' checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check, strict_ds=True)

    p = sub.add_parser("enumerate", help="list the submodule lattice")
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--hasse", action="store_true", help="also print the cover relation")
    p.add_argument("--lattice-cap", type=int, default=100_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the law-check harness")
    p.add_argument("--moduli", default="2-16", help='e.g. "2-16" or "4,6,9"')
    p.add_argument("--max-order", type=int, default=32)
    p.add_argument("--theorems", default=None, help="comma list, e.g. T02,T12")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-products", action="store_true")
    p.add_argument("--no-validate-witnesses", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="fill the millis field (reports stop being byte-stable)")
    p.add_argument("--fuzz", type=int, default=0, help="extra random instances")
    p.add_argument("--seed", type=int, default=0, help="seed for --fuzz (logged in labels)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-examples", help="assert the bundled golden verdicts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, LatticeCapExceeded, MultSetTooLarge, FactorizationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
