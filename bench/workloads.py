"""The benchmark's three workloads: a fixed population of operations run in
an order drawn from the seed, one timed call per operation, and the answer
checks that hold for any seed.

Each workload is a class with

  FRESH_HEAP       -> True for workloads of separate CLI calls: between
                      operations (off the clock) rep.py collects and freezes
                      the heap, so an operation's garbage collections do not
                      depend on what ran before it
  build(seed)      -> the operations, in run order (this is set-up)
  run(op)          -> (digest, problem, value) for one timed operation;
                      problem is None when the answer passed its checks
  finish(results)  -> off-clock checks over all answers; returns
                      {op_id: failure detail} and the number of independent
                      re-validations made (the `witness_checks` metric)

Nothing here is imported by the engine; these modules import `coidem` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random

from coidem import cli
from coidem.modules import ZModule
from coidem.predicates import Verdict, witness_is_sound
from coidem.rings import factorize, is_prime
from coidem.specs import parse_module, parse_ring, parse_submodule
from coidem.theorems import CorpusConfig, Report, generate_corpus, verify_all


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call_cli(argv):
    """cli.main with stdout and stderr captured; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- harness ------------------------------------------------------------------

# sha256 of `coidem verify --moduli 2-10 --max-order 16 --out FILE` at the
# first benchmarked commit, without the trailing newline the CLI appends.
HARNESS_REPORT_SHA256 = {
    "full": "95e3f88631a2e90053733652438811a93f03e273d540028beec2214405513019",
    "tiny": "9c8bcbb7a0f4206cc058d914ea7ee7a777db319de7386bfb924b6da8cf0c89b3",
}


def merge_reports(parts: list[Report], config: CorpusConfig) -> Report:
    """The report `verify_all` gives for the concatenated corpus.

    Every field of a report is a concatenation or a sum over instances, and
    the probe examples are the first three hits in corpus order.
    """
    results = [r for p in parts for r in p.results]
    summary = {
        tid: {key: sum(p.summary[tid][key] for p in parts) for key in row}
        for tid, row in parts[0].summary.items()
    }
    probes = {
        name: {
            "count": sum(p.probes[name]["count"] for p in parts),
            "examples": [x for p in parts for x in p.probes[name]["examples"]][:3],
        }
        for name in parts[0].probes
    }
    witness_checks = {
        key: sum(p.witness_checks[key] for p in parts) for key in ("checked", "failed")
    }
    return Report(1, config.to_dict(), results, summary, probes, witness_checks)


class Harness:
    """verify_all over the 2..10 corpus, one corpus instance per operation.

    The corpus and its order are fixed, so this workload ignores the seed:
    permuting the corpus moved peak_rss_mb by up to 16 % between seeds, and
    the order decides which instance pays each module's cold cache fills,
    which reshapes the latency distribution.  The merged report's digest is
    checked on every run.
    """

    FRESH_HEAP = False  # one verify run: collections carry across instances
    SIZES = {
        "full": CorpusConfig(moduli=tuple(range(2, 11)), max_order=16, include_products=True),
        "tiny": CorpusConfig(moduli=(2, 3, 4), max_order=8, include_products=False),
    }

    def __init__(self, size: str):
        self.size = size
        self.config = self.SIZES[size]

    def build(self, seed: int):
        self.corpus = generate_corpus(self.config)
        return [(f"{i:04d} {inst.label}", i) for i, inst in enumerate(self.corpus)]

    def run(self, op):
        part = verify_all([self.corpus[op]], jobs=1, validate_witnesses=True, config=self.config)
        problem = None
        if part.violations or part.witness_checks["failed"]:
            problem = (
                f"{len(part.violations)} violations, "
                f"{part.witness_checks['failed']} unsound witnesses"
            )
        return sha256(json.dumps(part.to_dict(), sort_keys=True)), problem, part

    def finish(self, results):
        parts = sorted(results, key=lambda r: r["op"])
        report = merge_reports([r["value"] for r in parts], self.config)
        blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        failures = {}
        if sha256(blob) != HARNESS_REPORT_SHA256[self.size]:
            failures["report"] = f"merged report sha256 {sha256(blob)} differs from the anchor"
        return failures, report.witness_checks["checked"]


# -- lattice ------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_counts(p: int, k: int) -> tuple[int, int]:
    """(subgroups, Hasse pairs) of (Z/p)^k: a j-dimensional subspace is covered
    by the [k-j choose 1]_p subspaces of dimension j+1 that contain it."""
    subs = sum(gaussian_binomial(k, j, p) for j in range(k + 1))
    covers = sum(
        gaussian_binomial(k, j, p) * gaussian_binomial(k - j, 1, p) for j in range(k)
    )
    return subs, covers


# p-parts the mixed modules are glued from, so mixed modules repeat p-parts.
# Each is enumerated first by an anchor or costs under 1 ms to enumerate
# ((4,4), (2,2,2), (2,2,4) and (7,7) cost 2-7 ms, as much as a typical
# operation, so the run order would decide which operation pays them).
_P_PARTS = {
    2: ((2,), (4,), (8,), (2, 2), (2, 4)),
    3: ((3,), (9,), (3, 3), (3, 9)),
    5: ((5,), (25,), (5, 5)),
    7: ((7,), (49,)),
}


def _glue(parts: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Invariant factors of the module whose p-part of type parts[p] is given."""
    width = max(len(v) for v in parts.values())
    factors = [1] * width
    for p, part in parts.items():
        for i, q in enumerate(sorted(part, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def _mixed_modules(size: str) -> list[tuple[int, ...]]:
    """Every module glued from p-parts of two to four primes, |M| <= 600."""
    out = []
    for r in (2, 3, 4):
        for primes in itertools.combinations(sorted(_P_PARTS), r):
            for parts in itertools.product(*(_P_PARTS[p] for p in primes)):
                factors = _glue(dict(zip(primes, parts)))
                if math.prod(factors) <= 600:
                    out.append(factors)
    out.sort()
    return out[:: (1 if size == "full" else 12)]


def _spec(factors) -> tuple[str, str]:
    return f"Z/{max(factors)}", "+".join(f"Z/{f}" for f in factors)


class Lattice:
    """cli `enumerate --hasse --json` on anchor lattices plus mixed modules.

    Anchors: three elementary abelian groups (checked against closed forms),
    the 681-submodule 2-group, two long chains (the closure scan over every
    element), and mixed-prime modules whose p-parts repeat.  The glued mixed
    modules give the workload enough operations for a p90.  The anchors run
    first, in a fixed order, so the large allocations land at the same point
    of every run (permuting them moved peak_rss_mb by up to 17 %); the seed
    permutes the mixed modules, which decides which one pays each p-component
    fill that the anchors did not make.
    """

    FRESH_HEAP = True
    ANCHORS = {
        "full": (
            (2, 2, 2, 2, 2), (3, 3, 3, 3), (5, 5, 5), (2, 2, 2, 2, 4),
            (15625,), (78125,), (2, 2, 4, 12), (30, 30), (3, 9, 9), (2, 4, 8), (6, 36),
        ),
        "tiny": ((2, 2, 2), (3, 3), (25,), (2, 6)),
    }

    def __init__(self, size: str):
        self.size = size

    def build(self, seed: int):
        anchors = self.ANCHORS[self.size]
        mixed = [f for f in _mixed_modules(self.size) if f not in anchors]
        random.Random(seed).shuffle(mixed)
        ops = []
        for factors in (*anchors, *mixed):
            ring, module = _spec(factors)
            argv = ["enumerate", "--ring", ring, "--module", module, "--hasse", "--json"]
            ops.append((f"{ring} {module}", (factors, argv)))
        return ops

    def run(self, op):
        _, argv = op
        code, out, err = _call_cli(argv)
        if code != 0 or err:
            return sha256(f"{code}\n{out}"), f"exit {code}: {err.strip()}", None
        return sha256(f"{code}\n{out}"), None, out

    def finish(self, results):
        failures = {}
        checks = 0
        for r in results:
            factors, _ = r["op"]
            payload = json.loads(r["value"])
            orders = [row["order"] for row in payload["submodules"]]
            problems = []
            if payload["count"] != len(orders):
                problems.append("count differs from the submodule list")
            for i, j in payload["hasse"]:
                checks += 1
                if orders[j] % orders[i] or not is_prime(orders[j] // orders[i]):
                    problems.append(f"Hasse pair {i}<{j} has order ratio {orders[j]}/{orders[i]}")
            p = factors[0]
            if is_prime(p) and all(f == p for f in factors):
                checks += 1
                want = elementary_abelian_counts(p, len(factors))
                got = (payload["count"], len(payload["hasse"]))
                if got != want:
                    problems.append(f"(Z/{p})^{len(factors)}: {got} != Gaussian-binomial {want}")
            if problems:
                failures[r["id"]] = "; ".join(problems[:3])
        return failures, checks


# -- check --------------------------------------------------------------------

SHAPES = ((1,), (1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 1, 1))
S_KINDS = ("units", "nonzero", "comp-primes", "gen", "fgen")
# element-level validation is cubic in |M| for some properties (idempotent at
# |M| = 240 takes 17 s), so only modules up to this order are re-validated
VALIDATE_MAX_ORDER = 128
# the CLI properties witness_is_sound validates (it spells them with "_")
VALIDATED = ("coidempotent", "idempotent", "pure", "copure", "direct-summand")


def _shape(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n).values(), reverse=True))


def _roles(n: int) -> list[int]:
    """The primes of n by descending exponent, ties in ascending order; the
    templates name primes by this position."""
    f = factorize(n)
    return sorted(f, key=lambda p: -f[p])


class Check:
    """cli `check` calls, each on Z/n with a distinct n.

    A fixed template gives call i its prime-power shape, target size
    (log-spaced over [60, 2500]), multiplicative set, property, ring mode and
    submodule; n is the unused number of that shape nearest the target.  The
    seed permutes the calls.  Drawing a new population of moduli per seed made
    wall_s spread 10 % and op_p90_ms 26 % over five seeds (the cost of a call
    is quadratic in |S|, which the drawn primes move), so the population is
    fixed and the seed only decides which call pays each shared cache fill.
    """

    FRESH_HEAP = True
    SIZES = {"full": (200, 60, 2500), "tiny": (12, 60, 200)}

    def __init__(self, size: str):
        self.size = size
        self.count, self.lo, self.hi = self.SIZES[size]

    def _templates(self):
        rng = random.Random(0xC01DE)
        out = []
        for i in range(self.count):
            shape = SHAPES[i % len(SHAPES)]
            mode = "Z" if i % 8 == 7 else "Z-fin" if i % 8 == 3 else "fin"
            kinds = S_KINDS if mode == "fin" else S_KINDS[:4]
            props = cli.Z_PROPERTIES if mode == "Z" else cli.VALID_PROPERTIES
            out.append({
                "target": self.lo * (self.hi / self.lo) ** (i / max(1, self.count - 1)),
                "shape": shape,
                "mode": mode,
                "kind": kinds[i % len(kinds)],
                "property": props[rng.randrange(len(props))],
                "sub_exps": tuple(rng.randint(0, e) for e in shape),
                "s_role": rng.randrange(len(shape)),
                "gen_exps": tuple(rng.randint(0, 1) for _ in shape),
            })
        return out

    def build(self, seed: int):
        by_shape: dict[tuple, list[int]] = {}
        for n in range(self.lo, self.hi + 1):
            by_shape.setdefault(_shape(n), []).append(n)
        used: set[int] = set()
        ops = []
        for i, t in enumerate(self._templates()):
            n = min(
                (n for n in by_shape[t["shape"]] if n not in used),
                key=lambda n: (abs(n - t["target"]), n),
            )
            used.add(n)
            roles = _roles(n)
            d = 1
            for p, e in zip(roles, t["sub_exps"]):
                d *= p**e
            g = 1
            for p, e in zip(roles, t["gen_exps"]):
                g *= p**e
            if g == 1:
                g = roles[t["s_role"]]
            s = {
                "units": "units",
                "nonzero": "nonzero",
                "comp-primes": f"comp-primes:{roles[t['s_role']]}",
                "gen": f"gen:{g}",
                "fgen": f"fgen:{g}",
            }[t["kind"]]
            ring, module = {
                "fin": (f"Z/{n}", f"Z/{n}"),
                "Z-fin": ("Z", f"Z/{n}"),
                "Z": ("Z", "Z"),
            }[t["mode"]]
            argv = ["check", "--ring", ring, "--module", module, "--s", s,
                    "--property", t["property"]]
            if t["property"] in cli.POINTWISE:
                argv += ["--sub", f"gens:{d}"]
            argv.append("--json")
            ops.append((f"{i:03d} " + " ".join(argv[1:]), argv))
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, op):
        code, out, err = _call_cli(op)
        if code not in (0, 1) or err:
            return sha256(f"{code}\n{out}"), f"exit {code}: {err.strip()}", None
        problem = None
        if json.loads(out)["holds"] != (code == 0):
            problem = f"exit {code} disagrees with holds={json.loads(out)['holds']}"
        return sha256(f"{code}\n{out}"), problem, out

    def finish(self, results):
        """Re-validate positive pointwise verdicts at the element level."""
        failures = {}
        checks = 0
        for r in results:
            argv = r["op"]
            payload = json.loads(r["value"])
            prop = payload["property"]
            if not payload["holds"] or prop not in VALIDATED:
                continue
            spec = dict(zip(argv[1:-1:2], argv[2:-1:2]))
            ring = parse_ring(spec["--ring"])
            module = parse_module(ring, spec["--module"])
            if isinstance(module, ZModule) or module.order > VALIDATE_MAX_ORDER:
                continue
            sub = parse_submodule(module, spec["--sub"])
            complement = None
            if payload["complement"] is not None:
                complement = parse_submodule(module, "gens:" + payload["complement"][1:-1])
            verdict = Verdict(True, witness=int(payload["witness"]), complement=complement)
            checks += 1
            if not witness_is_sound(prop.replace("-", "_"), module, sub, verdict):
                failures[r["id"]] = f"witness {payload['witness']} fails element-level validation"
        return failures, checks


WORKLOADS = {"harness": Harness, "lattice": Lattice, "check": Check}
