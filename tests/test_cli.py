import argparse
import errno
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from coidem import cli, predicates, specs, theorems
from coidem.cli import VALID_PROPERTIES, main
from coidem.modules import ZModule
from coidem.specs import SpecError, parse_module, parse_multset, parse_ring, parse_submodule
from conftest import child_env
from oracles import parse_tuple_list_by_depth


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--ring", "Z/4", "--module", "Z/4", "--sub", "gens:2",
        "--s", "fgen:3", "--property", "s-coidempotent",
    )
    assert code == 1 and "holds=False" in out
    code, out, _ = run_cli(
        capsys,
        "check", "--ring", "Z", "--module", "Z",
        "--s", "nonzero", "--property", "fully-s-coidempotent",
    )
    assert code == 0 and "holds=True" in out
    code, out, _ = run_cli(
        capsys,
        "check", "--ring", "Z/6", "--module", "Z/6", "--sub", "gens:2",
        "--s", "fgen:1", "--property", "coidempotent", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True and payload["witness"] == "1"


def test_check_json_is_deterministic(capsys):
    args = (
        "check", "--ring", "Z/12", "--module", "Z/12", "--sub", "gens:2",
        "--s", "comp-primes:2", "--property", "s-coidempotent", "--json",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_spec_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z/1", "--module", "Z/1",
        "--s", "units", "--property", "coidempotent",
    )
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z/4", "--module", "Z/4", "--sub", "gens:2",
        "--s", "fgen:3", "--property", "s-coidempotnt",
    )
    assert code == 2 and "did you mean 's-coidempotent'" in err
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z/4", "--module", "Z/4", "--s", "fgen:3", "--property", "fuly-pure",
    )
    assert code == 2 and "did you mean 'fully-pure'" in err
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z", "--module", "Z", "--s", "nonzero",
        "--property", "semisimple",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z", "--module", "Z", "--s", "fgen:1",
        "--property", "coidempotent", "--sub", "gens:2",
    )
    assert code == 2 and "fgen" in err


def test_property_needs_sub(capsys):
    code, _, err = run_cli(
        capsys,
        "check", "--ring", "Z/4", "--module", "Z/4",
        "--s", "fgen:1", "--property", "pure",
    )
    assert code == 2 and "--sub" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "Z/12", "--module", "Z/12")
    assert code == 0
    assert "6 submodules" in out
    assert out.count(" CI") == 3
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Z/2", "--module", "Z/2+Z/2", "--hasse", "--json"
    )
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["hasse"]) == 6  # 3 atoms with 2 covers each
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "Z/3", "--module", "Z/3", "--json")
    # the zero module row is present for the zero submodule only when factors exist
    assert json.loads(out)["count"] == 2


def test_enumerate_hasse_on_a_large_rank_two_lattice(capsys):
    """10,213 submodules: covers come from (N :_M p)/N, one HNF per edge, so
    this takes about a second instead of an n² containment table's minutes."""
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Z/4096", "--module", "Z/1024+Z/4096", "--hasse", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 10213 and len(payload["hasse"]) == 20402


def test_enumerate_zero_module(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Z/2", "--module", "Z/1", "--json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_enumerate_lattice_cap_below_one_exits_2(capsys):
    for module in ("Z/1", "Z/2"):
        for cap in ("0", "-5"):
            code, out, err = run_cli(
                capsys, "enumerate", "--ring", "Z/2", "--module", module, "--lattice-cap", cap
            )
            assert code == 2 and not out and "--lattice-cap must be at least 1" in err
    code, out, _ = run_cli(
        capsys, "enumerate", "--ring", "Z/2", "--module", "Z/1", "--lattice-cap", "1"
    )
    assert code == 0 and "1 submodules" in out


def test_fully_coidempotent_z_comp_primes_answers_fast(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys,
        "check", "--ring", "Z", "--module", "Z", "--s", "comp-primes:1000003",
        "--property", "fully-coidempotent", "--json",
    )
    elapsed = time.monotonic() - start
    payload = json.loads(out)
    assert code == 1 and payload["holds"] is False
    assert payload["counterexample"] == "1000003"
    assert elapsed < 1.0, elapsed


def test_finite_s_over_the_bound_exits_2(capsys, memory_cap):
    # refused from n (or the lcm span) and n·∏(1 - 1/q) before any element
    # is stored; never run with the bound lifted, these sets are 10^9 large
    cases = (
        ("Z/1000000007", "Z/1000000007", "nonzero", "gens:2"),
        ("Z/1000 x Z/1009", "Z/1000 x Z/1009", "nonzero", "gens:(1;1)"),
        ("Z/1000000007", "Z/1000000007", "comp-primes:2,1000000007", "gens:2"),
    )
    for ring, module, s, sub in cases:
        code, out, err = run_cli(
            capsys, "check", "--ring", ring, "--module", module, "--s", s,
            "--property", "coidempotent", "--sub", sub,
        )
        assert (code, out) == (2, ""), (ring, s)
        assert "a finite S may have at most 1,000,000 elements" in err


def test_closure_over_the_bound_exits_2(capsys, monkeypatch):
    # fgen:3 closes to the 1,012 units of Z/1013, over a bound lowered to 600
    monkeypatch.setattr("coidem.multsets.MAX_FINITE_S", 600)
    code, _, err = run_cli(
        capsys, "check", "--ring", "Z/1013", "--module", "Z/1013", "--s", "fgen:3",
        "--property", "coidempotent", "--sub", "gens:1",
    )
    assert code == 2 and "at most 600 elements" in err


def test_unfactorable_modulus_exits_2_fast():
    # 10^18 + 3 has no prime factor up to the trial-division bound of 10^6;
    # the timeout stops a regression to unbounded trial division
    big = "1000000000000000003"
    refused = (
        ("enumerate", "--ring", f"Z/{big}", "--module", f"Z/{big}"),
        ("check", "--ring", f"Z/{big}", "--module", f"Z/{big}", "--s", "units",
         "--property", "fully-coidempotent"),
        ("check", "--ring", "Z", "--module", f"Z/{big}", "--s", "units",
         "--property", "fully-coidempotent"),
        ("check", "--ring", "Z", "--module", "Z", "--s", f"comp-primes:{big}",
         "--property", "fully-coidempotent"),
        ("check", "--ring", "Z", "--module", "Z", "--s", "gen:2",
         "--property", "coidempotent", "--sub", f"gens:{big}"),
    )
    answered = (
        "check", "--ring", f"Z/{big}", "--module", f"Z/{big}", "--s", "units",
        "--property", "coidempotent", "--sub", "gens:1",
    )
    for argv in refused + (answered,):
        proc = subprocess.run(
            [sys.executable, "-m", "coidem.cli", *argv],
            capture_output=True, text=True, timeout=2, env=child_env(),
        )
        if argv is answered:
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            continue
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr.startswith("error: cannot factor"), argv
        assert proc.stderr.count("\n") == 1, proc.stderr


def test_check_reaches_every_layer_the_check_benchmark_traces(capsys, cold_caches, bench_tracing):
    """A few `check` calls reach each function the benchmark's `check`
    workload must trace, so dropping one from the check path fails here."""
    tracer = bench_tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["check", "--ring", "Z/12", "--module", "Z/12", "--s", s,
                      "--property", prop, "--sub", "gens:2"])
            for s, prop in (("gen:2", "coidempotent"), ("fgen:5", "pure"))
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 1], capsys.readouterr()
    summary = tracer.summary()
    missed = [n for n in bench_tracing.EXERCISED["check"] if not summary.get(n, {}).get("calls")]
    assert not missed


def test_verify_small_and_exit_code(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--moduli", "2-4", "--max-order", "6", "--no-products",
        "--theorems", "T02,T12,T20", "--out", str(out_path),
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["schema"] == 1
    assert all(r["millis"] is None for r in blob["results"])
    assert set(blob["summary"]) == {"T02", "T12", "T20"}


def test_verify_exits_1_when_a_witness_fails_revalidation(capsys, monkeypatch):
    """A certificate that fails element-level re-validation breaks the run,
    as a violation does, though every law passes."""
    monkeypatch.setattr(theorems, "witness_is_sound", lambda *args: False)
    code, out, _ = run_cli(
        capsys, "verify", "--moduli", "2", "--max-order", "2", "--no-products", "--theorems", "T02"
    )
    checks = re.search(r"witness checks: (\d+) \((\d+) failed\)", out)
    assert code == 1 and "violations: 0" in out
    assert checks and checks[1] == checks[2] != "0", out


def test_verify_unwritable_out_exits_2_before_any_instance_runs(tmp_path, capsys, monkeypatch):
    """A missing parent directory, an existing directory or an empty name is
    refused before the corpus is built; a write that fails anyway is an error,
    not a traceback."""

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    argv = ("verify", "--moduli", "2", "--max-order", "2", "--no-products", "--theorems", "T02")
    with monkeypatch.context() as m:
        m.setattr(cli, "generate_corpus", never)
        m.setattr(cli, "verify_all", never)
        for out_path in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
            assert code == 2 and out == "" and err.count("\n") == 1, err
            assert err.startswith(f"error: cannot write --out {out_path}: "), err
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out) == (2, "") and err == "error: --out needs a file name, got ''\n"

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    out_path = tmp_path / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "") and not out_path.exists()
    assert err == f"error: cannot write --out {out_path}: {os.strerror(errno.ENOSPC)}\n"


def test_verify_empty_corpus(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--moduli", "2", "--max-order", "1", "--no-products"
    )
    assert code == 0 and "instances: 0" in out


def test_verify_argument_errors_exit_2(capsys):
    """Unknown or no theorem ids (an empty --theorems is not "all"), --jobs,
    --max-order or --fuzz out of range, a fuzz draw with no module."""
    code, out, err = run_cli(capsys, "verify", "--moduli", "2", "--theorems", "T02,T99")
    assert code == 2 and not out and "T99" in err and "T01" in err and "T20" in err
    for ids in (",", ""):
        code, out, err = run_cli(capsys, "verify", "--moduli", "2", "--theorems", ids)
        assert code == 2 and not out and "no theorem id" in err and "valid ids" in err
    for flag, value in (
        ("--jobs", "0"), ("--jobs", "-1"), ("--fuzz", "-1"), ("--max-order", "-4"),
        ("--max-order", "0"),
    ):
        code, out, err = run_cli(capsys, "verify", "--moduli", "2", flag, value)
        assert code == 2 and not out and flag in err
    code, out, err = run_cli(
        capsys, "verify", "--moduli", "3-3", "--max-order", "2", "--fuzz", "1"
    )
    assert code == 2 and not out and "--fuzz" in err


def test_verify_fuzz_draws_only_moduli_with_a_module(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify", "--moduli", "3,2,5", "--max-order", "2", "--no-products",
        "--theorems", "T02", "--fuzz", "4", "--out", str(out_path),
    )
    assert code == 0
    fuzzed = [r["instance"] for r in json.loads(out_path.read_text())["results"]]
    fuzzed = [label for label in fuzzed if "fuzz-seed" in label]
    assert len(fuzzed) == 4 and all(label.startswith("ring=Z/2|") for label in fuzzed)


def test_reproduce_examples_cli(capsys):
    code, out, _ = run_cli(capsys, "reproduce-examples")
    assert code == 0
    assert out.count("PASS") == 5
    code, out, _ = run_cli(capsys, "reproduce-examples", "--json")
    payload = json.loads(out)
    assert [r["passed"] for r in payload["results"]] == [True] * 5


def test_product_ring_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--ring", "Z/2 x Z/3", "--module", "Z/2 x Z/3",
        "--sub", "gens:(1;0)", "--s", "fgen:(1,1)", "--property", "direct-summand",
    )
    assert code == 0


# (ring, module, submodules, S specs, sha256): inputs whose module exponent e is
# below the ring's characteristic (or a Z-declared module, re-based onto Z/e),
# where witness ideals are computed over Z/e and read back over the ring; the
# digests were recorded while they were still computed over the ring itself
EXPONENT_BELOW_RING = [
    ("Z/4", "Z/1", ("gens:",), ("fgen:2", "fgen:3"),
     "c3d18810f935e6a8bdba54559208f67bfeb567ef31ed99e6052463d14ce3dfe2"),
    ("Z/6", "Z/2", ("gens:", "gens:1"), ("fgen:2", "fgen:3", "units"),
     "5cc895166ccdf62d3db101fb9fd00b7b55c2e8e95a1c011fe6c90ee5741744ec"),
    # the atoms' witness ideals are Ann(M) = (2), met by 2 in S = {1, 2, 4}
    ("Z/6", "Z/2+Z/2", ("gens:", "gens:(1,0)", "gens:(1,1)", "gens:(1,0),(0,1)"),
     ("fgen:2", "fgen:3", "fgen:5"),
     "0a5bd7a9c7786d0713578fcc00861a07b26d8040c430f33f9d938e58d8a6bc28"),
    ("Z/8", "Z/2+Z/2", ("gens:", "gens:(1,0)", "gens:(1,1)", "gens:(1,0),(0,1)"),
     ("fgen:2", "fgen:3", "fgen:4"),
     "6fc1a1f177e21e3932dbf39f9df352be3b3290b5bb18d1b64059870ebcc82e96"),
    ("Z/4 x Z/3", "Z/2 x Z/3", ("gens:(0;0)", "gens:(1;0)", "gens:(0;1)", "gens:(1;1)"),
     ("fgen:(2,1)", "fgen:(1,0)", "fgen:(3,2)"),
     "69e268b252a4c5a92a9b29bef03301586e3cad13aee3d72285c2984a059847f0"),
    ("Z/6 x Z/3", "Z/2+Z/2 x Z/3", ("gens:(0,0;0)", "gens:(1,0;0)", "gens:(1,1;1)"),
     ("fgen:(2,1)", "fgen:(4,2)", "fgen:(5,1)"),
     "e6c1b2522a94e55d45a5458d72b840b96bcc13d6f9a9b4c960221080e24829d1"),
    ("Z", "Z/2+Z/4", ("gens:(0,2)", "gens:(1,0)", "gens:(1,1)"),
     ("gen:2", "comp-primes:2", "units"),
     "46bc0a5f1d4dcd620b46a50e49a9355f1bfcd0c6ceb41fa2c567bdc07a827f93"),
]


def _check_json_digest(capsys, ring, module, subs, multsets) -> str:
    """sha256 over `check --json` for every property, submodule and S (module-level
    properties with and without --uniform-witness); every call must be accepted."""
    blob = hashlib.sha256()
    for s in multsets:
        for prop in VALID_PROPERTIES:
            if prop in cli.POINTWISE:
                extras = [("--sub", sub) for sub in subs]
            else:
                extras = [(), ("--uniform-witness",)]
            for extra in extras:
                argv = ("check", "--ring", ring, "--module", module, "--s", s,
                        "--property", prop, "--json", *extra)
                code, out, err = run_cli(capsys, *argv)
                assert code in (0, 1), (argv, err)
                blob.update(f"{argv}\n{code}\n{out}".encode())
    return blob.hexdigest()


def test_check_json_is_pinned_where_the_exponent_is_below_the_ring(capsys):
    for ring, module, subs, multsets, digest in EXPONENT_BELOW_RING:
        assert _check_json_digest(capsys, ring, module, subs, multsets) == digest, (ring, module)


def test_property_tables_keep_their_order():
    # the `check` benchmark picks each call's property by index into these
    # tuples, so a reorder would change what it runs
    assert cli.POINTWISE == (
        "coidempotent", "idempotent", "pure", "copure", "direct-summand", "finite",
    )
    assert cli.MODULE_LEVEL == (
        "comultiplication", "multiplication", "semisimple", "noetherian",
        "fully-coidempotent", "fully-idempotent", "fully-pure", "fully-copure",
    )
    assert cli.VALID_PROPERTIES == cli.POINTWISE + cli.MODULE_LEVEL
    assert cli.Z_PROPERTIES == ("coidempotent", "fully-coidempotent", "finite", "noetherian")


def _decide_directly(prop, m, n, s, strict_ds, uniform):
    p = predicates
    return {
        "coidempotent": lambda: p.coidempotent(m, n, s),
        "idempotent": lambda: p.idempotent(m, n, s),
        "pure": lambda: p.pure(m, n, s),
        "copure": lambda: p.copure(m, n, s),
        "direct-summand": lambda: p.direct_summand(m, n, s, strict_ds=strict_ds),
        "finite": lambda: p.s_finite(m, n, s),
        "comultiplication": lambda: p.comultiplication(m, s, uniform=uniform),
        "multiplication": lambda: p.multiplication(m, s, uniform=uniform),
        "semisimple": lambda: p.semisimple(m, s, strict_ds=strict_ds),
        "noetherian": lambda: p.s_noetherian(m, s),
        "fully-coidempotent": lambda: p.fully("coidempotent", m, s, uniform=uniform),
        "fully-idempotent": lambda: p.fully("idempotent", m, s, uniform=uniform),
        "fully-pure": lambda: p.fully("pure", m, s, uniform=uniform),
        "fully-copure": lambda: p.fully("copure", m, s, uniform=uniform),
    }[prop]()


def test_every_decide_row_matches_its_predicate():
    cases = (
        ("Z/12", "Z/12", "gens:2", "comp-primes:3"),
        ("Z/4 x Z/2", "Z/4 x Z/2", "gens:(2;1)", "fgen:(2,1)"),
        ("Z", "Z", "gens:2", "nonzero"),
    )
    for ring_text, module_text, sub_text, s_text in cases:
        ring = parse_ring(ring_text)
        m = parse_module(ring, module_text)
        s = parse_multset(ring, s_text)
        props = cli.Z_PROPERTIES if isinstance(m, ZModule) else cli.VALID_PROPERTIES
        for prop, strict_ds, uniform in itertools.product(props, (True, False), (True, False)):
            reads_sub, decide = cli.DECIDE[prop]
            n = parse_submodule(m, sub_text) if reads_sub else None
            args = argparse.Namespace(strict_ds=strict_ds, uniform_witness=uniform)
            got = cli._verdict_payload(decide(m, n, s, args))
            want = cli._verdict_payload(_decide_directly(prop, m, n, s, strict_ds, uniform))
            assert got == want, (module_text, prop, strict_ds, uniform)


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "coidem.cli", "reproduce-examples", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1


def _main_outcome(capsys, argv):
    """main(argv) as (raised SystemExit, exit code, stdout, stderr)."""
    try:
        raised, code = False, main(list(argv))
    except SystemExit as exc:
        raised, code = True, exc.code
    captured = capsys.readouterr()
    return raised, code, captured.out, captured.err


def _outcome_matches_a_fresh_parser(capsys, monkeypatch, argv):
    """Runs argv through the import-time parser, then through a freshly built
    one, asserts both give the same outcome and returns it."""
    reused = _main_outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "PARSER", cli.build_parser())
        fresh = _main_outcome(capsys, argv)
    assert reused == fresh, argv
    return reused


def test_the_reused_parser_carries_nothing_between_calls(capsys, monkeypatch):
    check = ("check", "--ring", "Z/12", "--module", "Z/12", "--s", "fgen:5",
             "--property", "fully-coidempotent", "--json")
    _, code, out, _ = _outcome_matches_a_fresh_parser(
        capsys, monkeypatch, check + ("--loose-ds", "--uniform-witness")
    )
    payload = json.loads(out)
    assert code in (0, 1) and payload["strict_ds"] is False and payload["uniform_witness"] is True
    _, code, out, _ = _outcome_matches_a_fresh_parser(capsys, monkeypatch, check)
    payload = json.loads(out)
    assert code in (0, 1) and payload["strict_ds"] is True and payload["uniform_witness"] is False
    raised, code, out, err = _outcome_matches_a_fresh_parser(
        capsys, monkeypatch, ("check", "--ring", "Z/4", "--module", "Z/4", "--property", "pure")
    )
    assert (raised, code, out) == (True, 2, "") and "--s" in err
    _, code, out, _ = _outcome_matches_a_fresh_parser(
        capsys, monkeypatch, ("enumerate", "--ring", "Z/4", "--module", "Z/4", "--hasse", "--json")
    )
    assert code == 0 and json.loads(out)["hasse"] == [[0, 1], [1, 2]]
    raised, code, out, err = _outcome_matches_a_fresh_parser(
        capsys, monkeypatch,
        ("check", "--ring", "Z/6", "--module", "Z/6", "--sub", "gens:2", "--s", "fgen:1",
         "--property", "coidempotent"),
    )
    assert (raised, code, err) == (False, 0, "") and "holds=True" in out


def test_help_and_usage_text_match_a_fresh_parser(capsys, monkeypatch):
    for argv in (
        ("--help",), ("check", "--help"), ("enumerate", "--help"), ("verify", "--help"),
        ("reproduce-examples", "--help"), ("frobnicate",),
    ):
        raised, code, out, err = _outcome_matches_a_fresh_parser(capsys, monkeypatch, argv)
        if argv == ("frobnicate",):
            assert (raised, code, out) == (True, 2, "") and "invalid choice" in err
        else:
            assert (raised, code, err) == (True, 0, "") and out.startswith("usage: coidem")


# -- fuzzing the spec grammar ------------------------------------------------
#
# Every number stays <= 64 and every module of order <= 64 (enumerating
# Z/64+Z/64 alone takes ~30 s); junk text carries at most one number, so it
# never spells a larger modulus.

_NUM = st.integers(0, 64).map(str)
_NUMS = st.lists(_NUM, max_size=3).map(",".join)
_TUPLES = st.lists(  # "(1,2)", "(1;2,0)": flat tuples and ';'-split product parts
    st.lists(_NUMS, min_size=1, max_size=2).map(lambda parts: "(" + ";".join(parts) + ")"),
    max_size=2,
).map(",".join)
_JUNK = st.text(alphabet="Z/x+,;:() -gensfutcop", max_size=6)


def _junk(number):
    return st.tuples(_JUNK, st.none() | number, _JUNK).map(lambda t: t[0] + (t[1] or "") + t[2])


_GARBAGE = _junk(_NUM)


@st.composite
def _ring_and_module(draw):
    """A ring spec and a module spec that mostly fits it, so checks get past parsing."""
    # -1 spells Z; product factors stay <= 16, because S over Z/m x Z/n is built
    # as an element set with a quadratic closure check (8 s at Z/40 x Z/53)
    moduli = draw(
        st.tuples(st.sampled_from(range(-1, 65)))
        | st.tuples(st.sampled_from(range(-1, 17)), st.sampled_from(range(-1, 17)))
    )
    ring = " x ".join("Z" if n < 0 else f"Z/{n}" for n in moduli)
    kind = draw(st.sampled_from(["fit"] * 4 + ["Z", "junk module", "junk ring"]))
    if kind == "Z":
        return ring, "Z"
    if kind == "junk module":
        return ring, draw(_GARBAGE)
    budget = 64
    comps = []
    for n in moduli:
        comp = []
        for _ in range(draw(st.integers(1, 2))):
            fits = [d for d in range(1, budget + 1) if n <= 0 or n % d == 0]
            d = draw(st.sampled_from(fits) if draw(st.integers(0, 3)) else st.integers(0, budget))
            budget //= max(d, 1)
            comp.append(f"Z/{d}")
        comps.append("+".join(comp))
    module = " x ".join(comps)
    return (draw(_GARBAGE) if kind == "junk ring" else ring), module


_MULTSET = st.one_of(
    st.sampled_from(["units", "nonzero"]),
    st.tuples(st.sampled_from(["comp-primes:", "gen:", "fgen:"]), st.one_of(_NUMS, _TUPLES))
    .map("".join),
    _GARBAGE,
)
_SUB = st.one_of(st.one_of(_NUMS, _TUPLES).map(lambda body: "gens:" + body), _GARBAGE)
_PROPERTY = st.one_of(
    st.sampled_from(VALID_PROPERTIES + ("s-coidempotent", "fully-s-pure")), _GARBAGE
)
# verify moduli stay <= 16: it builds every multiplicative set of each Z/n, and
# `verify --moduli 4-51` with this test's other flags took 7 s
_SMALL = st.integers(0, 16).map(str)
_MODULI = st.one_of(
    st.lists(
        st.one_of(_SMALL, st.tuples(_SMALL, _SMALL).map("-".join)), min_size=1, max_size=2
    ).map(",".join),
    _junk(_SMALL),
)

_ARGV = st.one_of(
    st.builds(
        lambda rm, s, prop, sub: [
            "check", "--ring", rm[0], "--module", rm[1], "--s", s, "--property", prop,
            "--sub", sub,
        ],
        _ring_and_module(), _MULTSET, _PROPERTY, _SUB,
    ),
    st.builds(
        lambda rm, cap: [
            "enumerate", "--ring", rm[0], "--module", rm[1], "--hasse", "--lattice-cap", str(cap),
        ],
        _ring_and_module(), st.integers(-1, 200),
    ),
    st.builds(
        lambda moduli, fuzz: [
            "verify", "--moduli", moduli, "--max-order", "2", "--no-products",
            "--theorems", "T02", "--fuzz", str(fuzz),
        ],
        _MODULI, st.integers(0, 2),
    ),
    st.just(["reproduce-examples", "--json"]),
)


@settings(max_examples=200)
@given(_ARGV)
def test_cli_never_raises(argv):
    """Every spec string ends in exit 0, 1 or 2; argparse's own exit 2 is allowed."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv


# -- the generator-list grammar against the depth scanner it replaced --------


def _parse_both(text):
    """Both parsers on `text` squashed as every spec parser squashes it;
    SpecError stands for a rejection, whatever its message."""
    text = specs._squash(text)
    out = []
    for parse in (specs._parse_tuple_list, parse_tuple_list_by_depth):
        try:
            out.append(parse(text))
        except SpecError:
            out.append(SpecError)
    return out


def test_tuple_grammar_hand_cases():
    accepted = {"()": [()], "(;)": [((), ())], "(1;2,0)": [((1,), (2, 0))], "1,2": [(1,), (2,)]}
    for text in ("()", "(;)", "(1;2,0)", "((1))", "(1,(2))", ")(", "(1,2),", "(1,2),(3",
                 "1),(2", "1,2"):
        assert _parse_both(text) == [accepted.get(text, SpecError)] * 2, text


@settings(max_examples=300)
@given(st.lists(_TUPLES | _JUNK, max_size=3).map("".join))
def test_tuple_grammar_matches_the_depth_scanner(text):
    new, reference = _parse_both(text)
    assert new == reference, text
