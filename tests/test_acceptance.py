"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The harness criteria shell
out to the installed CLI so the two report runs are genuinely independent
processes (fresh caches), which is what the byte-identity requirement is
about.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from coidem.lattice import enumerate_submodules
from coidem.modules import (
    FinModule,
    annihilator,
    colon_into,
    colon_ring,
    full_submodule,
    ideal_action,
    module_from_factors,
    sub_leq,
    sub_sum,
    zero_submodule,
)
from coidem.multsets import one_multset
from coidem.rings import ModularRing, all_ideals, ideal_intersect, ideal_product
from coidem.theorems import factor_lists, reproduce_examples

from conftest import child_env
from oracles import ideal_leq, naive_oracle, submodule_elements

MODULI = tuple(range(2, 17))


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _modules_with_order_at_most(bound):
    for n in MODULI:
        ring = ModularRing(n)
        for factors in factor_lists(n, bound):
            yield FinModule(ring, factors)


@pytest.fixture(scope="module")
def harness_runs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("reports")
    paths = []
    elapsed = []
    for tag in ("first", "second"):
        out = outdir / f"report-{tag}.json"
        start = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "coidem.cli",
                "verify",
                "--moduli",
                "2-16",
                "--max-order",
                "32",
                "--jobs",
                "2",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=660,
            env=child_env(),
        )
        elapsed.append(time.monotonic() - start)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        paths.append(out)
    return paths, elapsed


def test_criterion_1_golden_examples():
    start = time.monotonic()
    results = reproduce_examples()
    elapsed = time.monotonic() - start
    ok = len(results) == 5 and all(r.passed for r in results) and elapsed < 1.0
    _report(
        "1 (golden examples)",
        ok,
        f"{sum(r.passed for r in results)}/5 matched in {elapsed:.3f}s (< 1s required)",
    )


def test_criterion_2_theorem_harness(harness_runs):
    paths, elapsed = harness_runs
    blob = json.loads(paths[0].read_text())
    violations = sum(row["violation"] for row in blob["summary"].values())
    zero_applicable = [t for t, row in blob["summary"].items() if row["applicable"] == 0]
    missing_probes = [k for k, v in blob["probes"].items() if v["count"] == 0]
    ok = (
        violations == 0
        and not zero_applicable
        and not missing_probes
        and len(blob["summary"]) == 20
        and elapsed[0] <= 600.0
    )
    _report(
        "2 (theorem harness)",
        ok,
        f"20 checks, {violations} violations, zero-applicable={zero_applicable or 'none'}, "
        f"converse probes all found, runtime {elapsed[0]:.0f}s (<= 600s required)",
    )


def test_criterion_3_oracle_equivalence():
    checked = 0
    for m in _modules_with_order_at_most(16):
        lat = enumerate_submodules(m)
        oracle = naive_oracle(m)
        assert {frozenset(submodule_elements(s)) for s in lat.all} == set(oracle), m
        checked += 1
    # closed-form counts
    for n in MODULI:
        m = module_from_factors(ModularRing(n), [n])
        divisor_count = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(enumerate_submodules(m)) == divisor_count
    for p in (2, 3, 5):
        m = module_from_factors(ModularRing(p), [p, p])
        assert len(enumerate_submodules(m)) == p + 3
    for a, b in [(2, 3), (4, 3), (2, 9), (8, 3), (4, 9)]:
        m = module_from_factors(ModularRing(a * b), [a * b, a * b])
        la = module_from_factors(ModularRing(a), [a, a])
        lb = module_from_factors(ModularRing(b), [b, b])
        assert len(enumerate_submodules(m)) == len(enumerate_submodules(la)) * len(
            enumerate_submodules(lb)
        )
    # 50 deterministically sampled modules with |M| <= 64
    pool = sorted(
        ((n, f) for n in MODULI for f in factor_lists(n, 64)),
    )
    rng = random.Random(20260810)
    sample = rng.sample(pool, 50)
    for n, factors in sample:
        m = FinModule(ModularRing(n), factors)
        lat = enumerate_submodules(m)
        oracle = naive_oracle(m)
        assert {frozenset(submodule_elements(s)) for s in lat.all} == set(oracle), (n, factors)
    _report(
        "3 (oracle equivalence)",
        True,
        f"exhaustive on {checked} modules (|M| <= 16), 50 samples (|M| <= 64), counts exact",
    )


def test_criterion_4_operator_algebra_laws():
    modules = 0
    triples = 0
    for m in _modules_with_order_at_most(16):
        modules += 1
        lat = enumerate_submodules(m).all
        ideals = all_ideals(m.ring)
        full = full_submodule(m)
        zero = zero_submodule(m)
        actions = {}
        colon_rings = {}
        colon_intos = {}
        for i in ideals:
            for n in lat:
                actions[i, n] = ideal_action(i, n)
                colon_intos[n, i] = colon_into(n, i)
        for n in lat:
            for k in lat:
                colon_rings[n, k] = colon_ring(n, k)
        for i in ideals:
            for n in lat:
                for k in lat:
                    triples += 1
                    lhs = sub_leq(actions[i, n], k)
                    assert lhs == ideal_leq(i, colon_rings[k, n])
                    assert lhs == sub_leq(n, colon_intos[k, i])
        for n in lat:
            ann_n = annihilator(n)
            assert sub_leq(n, colon_into(zero, ideal_product(ann_n, ann_n)))
            c = colon_rings[n, full]
            assert sub_leq(ideal_action(ideal_product(c, c), full), n)
            for k in lat:
                assert annihilator(sub_sum(n, k)) == ideal_intersect(
                    ann_n, annihilator(k)
                )
    _report(
        "4 (operator algebra laws)",
        True,
        f"adjunction + annihilator + automatic inclusions exact on {modules} modules, "
        f"{triples} (I,N,K) triples",
    )


# sha256 of the default `coidem verify --out` report (the behaviour contract)
DEFAULT_REPORT_SHA256 = "5ceb89faadcc5dcdca7b4f58a1864a4e45035499fad71a4839909543ede8d9e4"


def test_criterion_5_witness_soundness_and_determinism(harness_runs):
    paths, _ = harness_runs
    blob = json.loads(paths[0].read_text())
    wc = blob["witness_checks"]
    byte_identical = paths[0].read_bytes() == paths[1].read_bytes()
    digest = hashlib.sha256(paths[0].read_bytes()).hexdigest()
    anchored = digest == DEFAULT_REPORT_SHA256
    ok = wc["failed"] == 0 and wc["checked"] > 0 and byte_identical and anchored
    _report(
        "5 (witness soundness + determinism)",
        ok,
        f"{wc['checked']} witnesses re-validated, {wc['failed']} failed; "
        f"byte-identical reports: {byte_identical}; sha256 {digest[:8]}... "
        f"matches the anchor: {anchored}",
    )


def test_criterion_6_classical_specialization():
    from test_predicates import element_oracle_classical

    from coidem.predicates import (
        coidempotent,
        comultiplication,
        copure,
        direct_summand,
        idempotent,
        multiplication,
        pure,
        s_finite,
        s_noetherian,
        semisimple,
    )

    modules = 0
    for m in _modules_with_order_at_most(16):
        modules += 1
        one = one_multset(m.ring)
        lat = enumerate_submodules(m)
        subgroup_sets = {frozenset(submodule_elements(n)): n for n in lat.all}
        comult_all = True
        mult_all = True
        semi_all = True
        zero = m.zero_element
        for n in lat.all:
            n_set = frozenset(submodule_elements(n))
            assert coidempotent(m, n, one).holds == element_oracle_classical(
                "coidempotent", m, n_set
            )
            assert idempotent(m, n, one).holds == element_oracle_classical(
                "idempotent", m, n_set
            )
            assert pure(m, n, one).holds == element_oracle_classical("pure", m, n_set)
            assert copure(m, n, one).holds == element_oracle_classical(
                "copure", m, n_set
            )
            comult_all &= element_oracle_classical("comultiplication", m, n_set)
            mult_all &= element_oracle_classical("multiplication", m, n_set)
            # classical direct summand: some subgroup K with N + K = M, N ∩ K = 0
            ds_oracle = any(
                {m.add(a, b) for a in n_set for b in k_set} == set(map(tuple, m.elements()))
                and n_set & k_set == {zero}
                for k_set in subgroup_sets
            )
            assert direct_summand(m, n, one).holds == ds_oracle
            semi_all &= ds_oracle
            assert s_finite(m, n, one).holds
        assert comultiplication(m, one).holds == comult_all
        assert multiplication(m, one).holds == mult_all
        assert semisimple(m, one).holds == semi_all
        assert s_noetherian(m, one).holds
    _report(
        "6 (classical specialization)",
        True,
        f"S = {{1}} verdicts equal the element-level textbook oracle on {modules} modules",
    )
