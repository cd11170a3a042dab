import hashlib
import itertools
import json
import multiprocessing
import sys
from math import gcd, lcm

from coidem import lattice, modules, predicates, theorems
from coidem.modules import (
    FinModule,
    ProductSubmodule,
    module_from_factors,
    sub_intersect,
    sub_leq,
    submodule_from_generators,
)
from coidem.multsets import (
    MultSet,
    ZComplementOfPrimes,
    closure_in_ring,
    meets_ideal,
    reduce_presentation,
)
from coidem.predicates import Verdict
from coidem.rings import ModularRing, ideal, ideal_meet, ideal_product, unit_ideal
from coidem.theorems import (
    THEOREMS,
    CorpusConfig,
    Instance,
    factor_lists,
    generate_corpus,
    reproduce_examples,
    run_check,
    s_choices,
    verify_all,
)

import oracles
from oracles import (
    probe_flags,
    t01_by_cases,
    t02_by_cases,
    t03_by_cases,
    t03_by_scans,
    t04_by_cases,
    t05_by_cases,
    t06_by_cases,
    t07_by_cases,
    t08_by_cases,
    t14_by_cases,
    t15_by_cases,
    t16_by_index_families,
    t17_by_cases,
    t18_by_cases,
    t19_by_cases,
    t19_by_scans,
    t20_by_cases,
)

SMALL = CorpusConfig(moduli=(2, 3, 4, 6), max_order=8, include_products=True)


def test_registry_shape():
    assert [t.id for t in THEOREMS] == [f"T{i:02d}" for i in range(1, 21)]
    assert all(t.anchor for t in THEOREMS)


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
    registry = {t.id: t for t in THEOREMS}
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
    registry = {t.id: t for t in THEOREMS}
    result = run_check(registry["T10"], inst)
    assert result.status == "pass" and not result.vacuous


def test_size_gate_reports_inapplicable():
    m = FinModule(ModularRing(2), (2,) * 5)
    inst = Instance(m, closure_in_ring(m.ring, [0]), "jumbo")
    registry = {t.id: t for t in THEOREMS}
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
    t16 = {t.id: t for t in THEOREMS}["T16"]
    result = run_check(t16, Instance(m, closure_in_ring(ring, [0]), "z60"))
    assert result.status == "pass" and not result.vacuous
    assert set(calls) == {"sub_intersect", "sub_sum", "colon_ring"}
    assert all(count <= n * n for count in calls.values()), calls
    # the module's list is built once: another S reads only its intersection
    calls.clear()
    result = run_check(t16, Instance(m, closure_in_ring(ring, [2]), "z60 powers of 2"))
    assert result.status == "pass" and not result.vacuous
    assert not calls, calls


def test_t16_triple_ideal_holds_the_product_of_two_pair_ideals():
    """The lemma behind T16's pair list, with no S: at each K, the ideal of a
    triple outside K contains W(N1, N2)·W(N1 ∩ N2, N3), so s*² lies in it
    wherever s* lies in both pair ideals."""
    triples = 0
    for m in {inst.module for inst in _gated("T16")}:
        ideals = dict(oracles.t16_ideals_with_triples(m))
        for (k, fam), w in ideals.items():
            if len(fam) < 3:
                continue
            n1, n2, n3 = fam
            n12 = sub_intersect(n1, n2)
            w2 = ideals.get((k, (n12, n3)), ideals.get((k, (n3, n12))))
            if w2 is None:
                # not listed: N1 ∩ N2 ⊆ K or N1 ∩ N2 = N3, and then the ideal is R
                assert n12 == n3 or sub_leq(n12, k), (m, k, fam)
                w2 = unit_ideal(m.ring)
            assert oracles.ideal_leq(ideal_product(ideals[k, (n1, n2)], w2), w), (m, k, fam)
            triples += 1
    assert triples


def test_t16_pair_list_first_miss_matches_the_triple_list():
    """On every module and S of the small corpus, the pairs-only list misses
    first where the list with the triples does, and both miss somewhere."""
    sets = {}
    for inst in generate_corpus(SMALL):
        sets.setdefault(inst.module, []).append(inst.multset)
    misses = 0
    for m, multsets_of_m in sets.items():
        for s in multsets_of_m:
            miss = predicates.first_miss(s, theorems._t16_ideals, m)
            assert miss == predicates.first_miss(s, oracles.t16_ideals_with_triples, m), (m, str(s))
            misses += miss is not None
    assert misses


def _gated(theorem_id: str):
    """The small corpus's instances inside the theorem's lattice-size gate."""
    gate = {t.id: t.max_lattice for t in THEOREMS}[theorem_id]
    return [
        inst
        for inst in generate_corpus(SMALL)
        if gate is None or len(lattice.enumerate_submodules(inst.module)) <= gate
    ]


def test_first_miss_matches_the_in_order_scan():
    """Every list of ideals a law reads, on every module and S of the small
    corpus: the query on the intersection names the scan's first miss."""
    gates = {t.id: t.max_lattice for t in THEOREMS}
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
    # is also forced to pass every pair of ideals, in both routes (after T03,
    # whose pair list reads the true order to skip comparable pairs), and the
    # per-module intersections built meanwhile are dropped afterwards
    monkeypatch.setattr(theorems, "_fully", lambda prop, m, s: Verdict(True))
    monkeypatch.setattr(theorems, "_comult", lambda m, s: Verdict(True))
    predicates.meet_of.cache_clear()
    request.addfinalizer(predicates.meet_of.cache_clear)
    rows = {t.id: t for t in THEOREMS}
    for theorem_id, oracle in (("T03", t03_by_scans), ("T19", t19_by_scans)):
        if theorem_id == "T19":
            _force_t19_torsion_test(monkeypatch, oracles)
        violations = 0
        for inst in _gated(theorem_id):
            outcome = rows[theorem_id].run(inst)
            assert outcome == oracle(inst), (theorem_id, inst.label)
            violations += outcome[0] == "violation"
        assert violations > 0, theorem_id


def _force_t19_torsion_test(monkeypatch, *more):
    """Make T19's hypothesis (0 :_M I) ⊆ (0 :_M J) pass every pair of ideals
    in `theorems` and in each module of `more`, and drop the per-module
    intersections built before (the finalizer of the caller drops the rest)."""
    for mod in (theorems, *more):
        monkeypatch.setattr(mod, "sub_leq", lambda n, k: True)
    predicates.meet_of.cache_clear()


def _patterned(name: str):
    """A stand-in verdict that holds or fails by a sha256 of its arguments."""

    def verdict(*args):
        digest = hashlib.sha256("|".join(map(str, (name, *args))).encode()).hexdigest()
        holds = int(digest, 16) % 3 != 0
        return Verdict(holds, counterexample=None if holds else f"{name}-{digest[:8]}")

    return verdict


def test_one_way_laws_match_case_by_case_oracles(monkeypatch, request):
    """Every row of the law table against its hand-written bookkeeping, and
    the probes read off the table against the hand-written flags, with every
    module-level verdict the rows read holding or failing by a fixed
    pattern, so that each law meets each of its cases."""
    for name in ("_fully", "_comult", "_mult", "_semisimple"):
        monkeypatch.setattr(theorems, name, _patterned(name))
    oracle_of = {
        "T01": t01_by_cases,
        "T02": t02_by_cases,
        "T03": t03_by_cases,
        "T04": t04_by_cases,
        "T05": t05_by_cases,
        "T06": t06_by_cases,
        "T07": t07_by_cases,
        "T08": t08_by_cases,
        "T14": t14_by_cases,
        "T15": t15_by_cases,
        "T17": t17_by_cases,
        "T18": t18_by_cases,
        "T19": t19_by_cases,
        "T20": t20_by_cases,
    }
    rows = [t for t in THEOREMS if isinstance(t.law, tuple)]
    assert [t.id for t in rows] == list(oracle_of)
    corpus = generate_corpus(SMALL)
    violations = dict.fromkeys(oracle_of, 0)
    probes = 0
    for inst in corpus:
        for row in rows:
            outcome = row.run(inst)
            assert outcome == oracle_of[row.id](inst), (row.id, inst.label)
            violations[row.id] += outcome[0] == "violation"
        _, (_, flags), _, _ = theorems._worker((inst, [], False, False))
        assert flags == probe_flags(inst), inst.label
        probes += any(flags.values())
    # T19 cannot fail while its torsion test is true (see the scan-oracle
    # test above): forced to pass every pair, its list misses for some S
    request.addfinalizer(predicates.meet_of.cache_clear)
    _force_t19_torsion_test(monkeypatch)
    t19 = rows[list(oracle_of).index("T19")]
    for inst in corpus:
        outcome = t19.run(inst)
        assert outcome == t19_by_cases(inst), inst.label
        violations["T19"] += outcome[0] == "violation"
    assert all(violations.values()), violations
    assert probes


def test_bodies_violate_where_their_facts_are_forced(monkeypatch):
    """T09, T10, T12 and T13 with fully S-coidempotent holding or failing by
    a fixed pattern on each module and S: every violation return of each
    body is reached on the small corpus, and nothing else is returned."""
    monkeypatch.setattr(theorems, "_fully", _patterned("_fully"))
    expected = {
        "T09": {
            ("under_approximation", "closure_counterexample"),
            ("under_approximation", "transfer_counterexample", "transfer_witness"),
        },
        "T10": {("product", "factors")},
        "T12": {("source", "localized"), ("trivial_but_not_fully",)},
        "T13": {("localized_fails",)},
    }
    rows = {t.id: t for t in THEOREMS}
    seen = {theorem_id: set() for theorem_id in expected}
    for inst in generate_corpus(SMALL):
        for theorem_id, keys in seen.items():
            status, _, details = rows[theorem_id].run(inst)
            if status == "violation":
                keys.add(tuple(details))
    assert seen == expected


def test_t11_violates_where_the_localization_is_forced(monkeypatch):
    """T11 with a localization that sends every ideal to the unit ideal
    fails its torsion-colon part, and with an annihilator that is always R
    on the localized side its annihilator part, on the small corpus."""
    t11 = {t.id: t for t in THEOREMS}["T11"]
    corpus = generate_corpus(SMALL)
    real = theorems.localize_module

    def unit_images(m, s):
        loc = real(m, s)
        if not loc.trivial:
            loc.map_ideal = lambda i: unit_ideal(loc.ring)
        return loc

    for name, forced, key in (
        ("localize_module", unit_images, "ideal"),
        ("annihilator", lambda n: unit_ideal(n.module.ring), "submodule"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(theorems, name, forced)
            outcomes = [t11.run(inst) for inst in corpus]
        violations = [details for status, _, details in outcomes if status == "violation"]
        assert violations and all(list(details) == [key] for details in violations), name


def test_probes_read_off_the_table_match_the_hand_written_flags():
    """The report's probes, from the table's probed parts, against
    `oracles.probe_flags` on every instance, whatever `theorem_ids` says."""
    corpus = generate_corpus(SMALL)
    flags = [(inst.label, probe_flags(inst)) for inst in corpus]
    expected = {}
    for name in flags[0][1]:
        hits = [label for label, f in flags if f[name]]
        expected[name] = {"count": len(hits), "examples": hits[:3]}
    assert all(probe["count"] for probe in expected.values())
    for theorem_ids in (None, {"T03"}):
        report = verify_all(corpus, theorem_ids=theorem_ids, validate_witnesses=False)
        assert report.probes == expected
        assert list(report.probes) == list(expected)  # the text report's order


def test_pair_list_meet_equals_the_full_pair_scan():
    """T03(c)'s list leaves out the comparable pairs N ⊊ K, whose ideal holds
    the (K, K) entry's: its meet is the meet over all n(n+1)/2 pairs, and
    that of the n diagonal entries (N, N) too (the T03 row's comment)."""
    skipped = 0
    for m in {inst.module for inst in _gated("T03")}:
        subs = lattice.enumerate_submodules(m).all
        pairs = list(itertools.combinations_with_replacement(subs, 2))
        every = ideal_meet(m.ring, (theorems._pair_sum_colon_ideal(n, k) for n, k in pairs))
        assert predicates.meet_of(theorems._pair_ideals, m) == every, m
        # the list is exactly the pairs N = K or N ⊄ K, in lattice order: its
        # meet alone cannot tell a list without the incomparable ones
        elements = {n: oracles._elements_of(n) for n in subs}
        kept = [(n, k) for n, k in pairs if n == k or not elements[n] <= elements[k]]
        assert [label for label, _ in theorems._pair_ideals(m)] == kept, m
        # and so is the diagonal's, the meet of the coidempotent witness ideals
        diagonal = [theorems._pair_sum_colon_ideal(n, n) for n in subs]
        assert diagonal == [predicates.coidempotent_witness_ideal(n) for n in subs], m
        assert ideal_meet(m.ring, diagonal) == every, m
        skipped += len(pairs) - len(list(theorems._pair_ideals(m)))
    assert skipped


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
    # raising=False: os has no sched_getaffinity on macOS and Windows
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    corpus = generate_corpus(TINY)
    report = verify_all(corpus, jobs=5000, config=TINY)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == TINY_REPORT_SHA256
    assert sizes == [3]
    verify_all(corpus[:2], theorem_ids={"T01"}, jobs=5000)
    assert sizes == [3, 2]
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    verify_all(corpus, theorem_ids={"T01"}, jobs=5000)
    assert sizes == [3, 2]  # one usable CPU: no pool at all
    # no affinity call (macOS, Windows): the CPU count caps the pool
    monkeypatch.delattr(theorems.os, "sched_getaffinity")
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    report = verify_all(corpus, jobs=5000, config=TINY)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == TINY_REPORT_SHA256
    assert sizes == [3, 2, 3]


def test_verify_reaches_every_layer_the_harness_benchmark_traces(cold_caches, bench_tracing):
    """`verify_all` with witness validation calls each function the
    benchmark's `harness` workload must trace, so dropping one from the
    harness path fails here."""
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


def test_colon_into_computes_each_canonical_key_once(monkeypatch, cold_caches):
    """From cold caches, `verify_all` on TINY runs the memoized bodies of
    `colon_into` and `colon_ring` once per distinct shape key, (factors,
    Hermite basis, gcd(d, e)) and (basis of N, basis of K): a caller that
    passes a non-canonical submodule, a lost memo or one keyed on the ring
    runs them again.  Z/4 repeats modules of Z/2, so there are fewer shape
    keys than distinct (N, I) and (N, K) over their rings."""

    def canonical(n):
        if isinstance(n, ProductSubmodule):
            return ProductSubmodule(n.module, tuple(map(canonical, n.parts)))
        return submodule_from_generators(n.module, n.basis)

    into_ring, into_shape, ring_ring, ring_shape = set(), set(), set(), set()
    into, colon = modules.colon_into, modules.colon_ring

    def recorded_into(n, i):
        into_ring.add((canonical(n), ideal(i.ring, i.data)))
        parts = zip(n.parts, i.data) if isinstance(n, ProductSubmodule) else [(n, i.data)]
        for part, d in parts:
            factors = part.module.factors
            into_shape.add((factors, canonical(part).basis, gcd(d, lcm(*factors))))
        return into(n, i)

    def recorded_colon(n, k):
        ring_ring.add((canonical(n), canonical(k)))
        parts = zip(n.parts, k.parts) if isinstance(n, ProductSubmodule) else [(n, k)]
        ring_shape.update((canonical(a).basis, canonical(b).basis) for a, b in parts)
        return colon(n, k)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "coidem":
            for attr, value in list(vars(mod).items()):
                for real, wrapper in ((into, recorded_into), (colon, recorded_colon)):
                    if value is real:
                        monkeypatch.setattr(mod, attr, wrapper)
    report = verify_all(generate_corpus(TINY), config=TINY)
    assert not report.violations
    assert modules._colon_basis.cache_info().misses == len(into_shape) < len(into_ring)
    assert modules._colon_generator.cache_info().misses == len(ring_shape) < len(ring_ring)


def test_module_memos_compute_each_integer_key_once(monkeypatch, cold_caches):
    """From cold caches, `verify_all` on TINY misses the sum, intersection and
    Smith memos once per distinct integer key: (factors, rows) for the Hermite
    basis every `_submodule` builds, (basis of N, basis of K, rank) for
    `sub_intersect` and the relation rows for `quotient_module` and
    `submodule_as_module`.  Z/4 repeats modules of Z/2, so each memo misses
    fewer times than there are distinct calls over their rings."""
    sums, sum_keys, meets, meet_keys, smiths, smith_keys = (set() for _ in range(6))
    build, intersect, factors_of = modules._submodule, modules.sub_intersect, modules._invariant_factors
    quotient, as_module = modules.quotient_module, modules.submodule_as_module

    def recorded_build(m, rows):
        sums.add((m, tuple(rows)))
        sum_keys.add((m.factors, tuple(rows)))
        return build(m, rows)

    def recorded_intersect(n, k):
        meets.add((n, k))
        parts = zip(n.parts, k.parts) if isinstance(n, ProductSubmodule) else [(n, k)]
        meet_keys.update((a.basis, b.basis, a.module.rank) for a, b in parts)
        return intersect(n, k)

    def recorded_factors(rows):
        smith_keys.add(rows)
        return factors_of(rows)

    def recorded_quotient(m, n):
        smiths.add((m, n))
        return quotient(m, n)

    def recorded_as_module(n):
        smiths.add(n)
        return as_module(n)

    wrappers = (
        (build, recorded_build), (intersect, recorded_intersect), (factors_of, recorded_factors),
        (quotient, recorded_quotient), (as_module, recorded_as_module),
    )
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "coidem":
            for attr, value in list(vars(mod).items()):
                for real, wrapper in wrappers:
                    if value is real:
                        monkeypatch.setattr(mod, attr, wrapper)
    report = verify_all(generate_corpus(TINY), config=TINY)
    assert not report.violations
    assert modules._hermite_basis.cache_info().misses == len(sum_keys) < len(sums)
    assert modules._intersect_basis.cache_info().misses == len(meet_keys) < len(meets)
    assert factors_of.cache_info().misses == len(smith_keys) < len(smiths)


def test_theorem_ideal_memos_run_once_per_shape(cold_caches):
    """T03's pair colon, T14's two copure ideals and `meet_of` run their
    bodies once per module shape: (2, 2) over Z/2, Z/4 and Z/6 acts through
    Z/2, so each key over Z/4 or Z/6 is one miss answered by a hit on the
    Z/2 entry, and a list is built only over Z/2."""
    mods = [FinModule(ModularRing(n), (2, 2)) for n in (4, 2, 6)]
    subs = [lattice.enumerate_submodules(m).all for m in mods]
    pairs = [list(itertools.combinations_with_replacement(ss, 2)) for ss in subs]
    for memo, keys in (
        (theorems._pair_sum_colon_ideal, pairs),
        (theorems._copure_c_ideal, [[(n,) for n in ss] for ss in subs]),
        (theorems._copure_d_ideal, [[(n,) for n in ss] for ss in subs]),
    ):
        found = [[memo(*key) for key in per_ring] for per_ring in keys]
        for m, ideals in zip(mods, found):
            assert [i.data for i in ideals] == [i.data for i in found[1]] and ideals[0].ring == m.ring
        k = len(keys[0])
        assert (memo.cache_info().misses, memo.cache_info().hits) == (3 * k, 2 * k), memo
    built = []
    for ideals_of in (theorems._pair_ideals, theorems._t16_ideals, theorems._t19_ideals):
        def counted(m):
            built.append(m)
            return ideals_of(m)

        meets = [predicates.meet_of(counted, m) for m in mods]
        assert [w.ring for w in meets] == [m.ring for m in mods]
        assert len({w.data for w in meets}) == 1
    assert built == [mods[1]] * 3


def test_exponent_ring_meets_equal_the_instance_ring_meets():
    """On every `SMALL` module, each list `meet_of` serves has the same meet
    over the instance's ring as the Z/e meet that `meet_of` pulls back; seven
    of the 15 modules over Z/n have exponent e < n, such as (2, 2, 2) over Z/6."""
    lists = [predicates._lattice_witness_ideals(prop) for prop in predicates._WITNESS_IDEALS]
    lists += [
        theorems._ci_coidempotent_ideals, theorems._pair_ideals, theorems._t16_ideals,
        theorems._t19_ideals,
    ]
    mods = {inst.module for inst in generate_corpus(SMALL)}
    rebased = 0
    for m in mods:
        for ideals_of in lists:
            direct = ideal_meet(m.ring, (w for _, w in ideals_of(m)))
            assert predicates.meet_of(ideals_of, m) == direct, (m, ideals_of)
        rebased += isinstance(m, FinModule) and m.ring.n != lcm(*m.factors)
    assert (len(mods), rebased) == (31, 7)


# the same corpus with its 16 product instances, which TINY leaves out: their
# 48 T11–T13 rows are the ones that localize over a product ring
TINY_PRODUCTS = CorpusConfig(moduli=(2, 3, 4), max_order=8, include_products=True)
TINY_PRODUCTS_REPORT_SHA256 = "f82f2b35e4d63bb28fefa0d3e0d4196505e450bf62037c002c377cdfd66fdf66"


def test_report_hash_with_products():
    corpus = generate_corpus(TINY_PRODUCTS)
    report = verify_all(corpus, config=TINY_PRODUCTS)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == TINY_PRODUCTS_REPORT_SHA256
