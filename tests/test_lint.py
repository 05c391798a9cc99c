"""Tests for the repro.lint subsystem: determinism linter + model checker.

Covers, per ISSUE acceptance criteria:

* the self-check — ``src/repro`` itself is clean under the code engine;
* per-rule fixture violations with stable IDs (D1xx from the fixture files
  under ``tests/fixtures/lint``, C2xx/T3xx/S4xx from hand-built artifacts);
* inline and argument-level suppression;
* the JSON payload round-trip against the documented schema;
* the CLI gate (``python -m repro lint``) exit codes;
* the RNG compatibility shim that backs the determinism fixes.
"""

import json
import os
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.circuits.bench_parser import BenchParseError, parse_bench
from repro.circuits.benchmarks import load_benchmark
from repro.circuits.library import GateType
from repro.circuits.netlist import Circuit, Edge
from repro.core.cache import DictionaryStore
from repro.lint import (
    LintReport,
    REPORT_SCHEMA,
    RULES,
    Severity,
    check_cache,
    check_circuit,
    check_library,
    check_suspects,
    check_timing,
    lint_circuit,
    lint_code,
    lint_models,
    run_lint,
    validate_report_payload,
)
from repro.lint.determinism import lint_file, lint_source
from repro.rng import CompatRandom, GeneratorAdapter, coerce_rng, spawn_generator
from repro.timing.celllib import CellLibrary
from repro.timing.instance import CircuitTiming
from repro.timing.randvars import SampleSpace

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def rule_counts(findings):
    counts = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


# ----------------------------------------------------------------------
# rule catalog sanity
# ----------------------------------------------------------------------
def test_rule_ids_are_stable_and_namespaced():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule_id[0] in "DCTSRFPK"
    assert {r.engine for r in RULES.values()} == {"code", "model", "flow"}
    # the IDs promised by the issues all exist
    for rule_id in (
        "D101", "D105", "C201", "C208", "T301", "T304", "S403", "R601",
        "F701", "F702", "F703", "P801", "P802", "K901", "K902",
    ):
        assert rule_id in RULES


# ----------------------------------------------------------------------
# determinism engine (D1xx) on fixtures
# ----------------------------------------------------------------------
def test_bad_determinism_fixture_hits_every_rule():
    findings = lint_file(os.path.join(FIXTURES, "bad_determinism.py"))
    assert rule_counts(findings) == {"D101": 1, "D102": 2, "D103": 1, "D104": 1}
    d101 = next(f for f in findings if f.rule == "D101")
    assert d101.line == 11
    assert d101.severity is Severity.ERROR


def test_seeded_but_unthreaded_entry_point_is_caught():
    findings = lint_file(os.path.join(FIXTURES, "atpg", "bad_entry.py"))
    assert rule_counts(findings) == {"D105": 1}
    assert "simulate_population" in findings[0].message
    assert "threaded" not in findings[0].message


def test_inline_suppressions_silence_fixture():
    assert lint_file(os.path.join(FIXTURES, "suppressed_ok.py")) == []


def test_argument_suppression_with_globs():
    report = lint_code(paths=[FIXTURES], suppress=["D1*", "S4*"])
    assert report.ok
    assert report.diagnostics == []
    assert report.suppressed >= 6


def test_entry_point_rule_only_applies_in_scope_dirs():
    source = "def run_sim(circuit, seed=0):\n    return seed\n"
    assert lint_source(source, path="src/repro/experiments/driver.py") == []
    findings = lint_source(source, path="src/repro/atpg/driver.py")
    assert rule_counts(findings) == {"D105": 1}


def test_reference_kernel_flagged_outside_timing_and_tests():
    source = (
        "from repro.timing import simulate_transition_reference\n"
        "result = simulate_transition_reference(timing, v1, v2)\n"
    )
    findings = lint_source(source, path="src/repro/core/dictionary.py")
    assert rule_counts(findings) == {"D106": 2}
    assert "REPRO_TIMING_KERNEL" in findings[0].message


def test_compiled_replay_flagged_outside_timing_and_tests():
    """Hard-wiring the compiled fused replay ignores REPRO_TIMING_KERNEL
    just as hard-wiring the reference kernel does."""
    source = (
        "from repro.timing.kernel import replay_chunk_compiled\n"
        "rows = replay_chunk_compiled(bases, requests, sizes)\n"
    )
    findings = lint_source(source, path="src/repro/core/dictionary.py")
    assert rule_counts(findings) == {"D106": 2}
    assert "REPRO_TIMING_KERNEL" in findings[0].message
    assert lint_source(source, path="src/repro/timing/dynamic.py") == []
    dispatching = (
        "from repro.timing.dynamic import replay_chunk\n"
        "rows = replay_chunk(bases, requests, sizes)\n"
    )
    assert lint_source(dispatching, path="src/repro/core/dictionary.py") == []
    assert lint_source(dispatching, path="src/repro/service/engine.py") == []


def test_sampling_fixture_flags_unthreaded_generators():
    findings = lint_file(os.path.join(FIXTURES, "sampling", "bad_sampler.py"))
    assert rule_counts(findings) == {"S406": 3, "D103": 1}
    s406 = next(f for f in findings if f.rule == "S406")
    assert s406.severity is Severity.ERROR
    assert "spawn_generator" in s406.message


def test_sampler_rng_rule_only_applies_under_sampling_dirs():
    # a *seeded* default_rng is fine elsewhere but banned in sampling/:
    # there, every stream must come from the spawn-key protocol
    source = "import numpy as np\nrng = np.random.default_rng(5)\n"
    assert lint_source(source, path="src/repro/core/helper.py") == []
    findings = lint_source(source, path="src/repro/sampling/estimator.py")
    assert rule_counts(findings) == {"S406": 1}


def test_reference_kernel_allowed_in_timing_and_tests():
    source = (
        "from repro.timing import resimulate_with_extra_reference\n"
        "resimulate_with_extra_reference(base, extra)\n"
    )
    assert lint_source(source, path="src/repro/timing/kernel.py") == []
    assert lint_source(source, path="tests/test_kernel.py") == []


def test_dispatching_entry_points_are_not_flagged():
    source = (
        "from repro.timing import simulate_transition\n"
        "simulate_transition(timing, v1, v2)\n"
    )
    assert lint_source(source, path="src/repro/core/dictionary.py") == []


def test_repro_package_is_clean():
    """The acceptance self-check: the shipped code passes its own linter."""
    report = lint_code()
    assert report.ok, report.format_text()
    assert report.diagnostics == []


# ----------------------------------------------------------------------
# model engine: C2xx
# ----------------------------------------------------------------------
def build_observable_circuit():
    circuit = Circuit("obs")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("y", GateType.NAND, ["a", "b"])
    circuit.mark_output("y")
    return circuit.freeze()


def test_clean_circuit_has_no_findings():
    assert lint_circuit(build_observable_circuit()).ok


def test_unfrozen_circuit_c201():
    circuit = Circuit("raw")
    circuit.add_input("a")
    counts = rule_counts(check_circuit(circuit))
    assert counts == {"C201": 1}


def test_no_inputs_no_outputs_c202_c203():
    circuit = Circuit("empty").freeze()
    counts = rule_counts(check_circuit(circuit))
    assert counts == {"C202": 1, "C203": 1}


def test_dff_in_scan_view_c204():
    s27 = parse_bench(
        "INPUT(a)\nOUTPUT(y)\nd = DFF(y)\ny = NAND(a, d)\n", name="mini"
    )
    counts = rule_counts(check_circuit(s27))
    assert counts.get("C204") == 1
    assert rule_counts(check_circuit(s27, allow_dffs=True)).get("C204") is None
    assert lint_circuit(s27.unroll_scan()).ok


def test_duplicate_xor_fanins_c205_is_warning():
    circuit = Circuit("dup")
    circuit.add_input("a")
    circuit.add_gate("y", GateType.XOR, ["a", "a"])
    circuit.mark_output("y")
    findings = check_circuit(circuit.freeze())
    counts = rule_counts(findings)
    assert counts == {"C205": 1}
    report = LintReport()
    report.extend(findings)
    assert report.ok and report.warnings == 1


def test_unobservable_and_uncontrollable_cones_c206_c207():
    circuit = Circuit("cones")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("dead", GateType.AND, ["a", "b"])  # reaches no output
    circuit.add_gate("y", GateType.OR, ["a", "b"])
    circuit.mark_output("y")
    counts = rule_counts(check_circuit(circuit.freeze()))
    assert counts == {"C207": 1}
    # require_observable=False skips the cone analysis entirely
    assert check_circuit(circuit, require_observable=False) == []


def test_combinational_cycle_c208():
    circuit = Circuit("loop")
    circuit.add_input("a")
    circuit.add_gate("g1", GateType.NAND, ["a", "g2"])
    circuit.add_gate("g2", GateType.NOT, ["g1"])
    circuit.mark_output("g2")
    counts = rule_counts(check_circuit(circuit))
    assert counts.get("C208") == 1
    # a DFF in the loop breaks it: next-state fanins are not combinational
    sequential = Circuit("dff-loop")
    sequential.add_input("a")
    sequential.add_gate("g1", GateType.NAND, ["a", "d"])
    sequential.add_gate("d", GateType.DFF, ["g1"])
    sequential.mark_output("g1")
    assert rule_counts(check_circuit(sequential)).get("C208") is None


def test_dangling_fanin_c209():
    circuit = Circuit("dangling")
    circuit.add_input("a")
    circuit.add_gate("y", GateType.AND, ["a", "ghost"])
    counts = rule_counts(check_circuit(circuit))
    assert counts.get("C209") == 1


# ----------------------------------------------------------------------
# model engine: T3xx
# ----------------------------------------------------------------------
def test_library_negative_parameters_t302():
    circuit = build_observable_circuit()
    findings = check_library(circuit, CellLibrary(sigma_global=-0.1))
    assert "T302" in rule_counts(findings)


def test_zero_variance_library_t303_is_warning():
    circuit = build_observable_circuit()
    findings = check_library(
        circuit, CellLibrary(sigma_global=0.0, sigma_local=0.0)
    )
    counts = rule_counts(findings)
    assert counts.get("T303") == 1
    assert all(f.severity is Severity.WARNING for f in findings)


def test_heavy_tail_library_t304():
    circuit = build_observable_circuit()
    findings = check_library(circuit, CellLibrary(sigma_global=0.5))
    assert "T304" in rule_counts(findings)


def test_missing_characterization_t301():
    circuit = build_observable_circuit()
    findings = check_library(circuit, CellLibrary(base_delays={}))
    t301 = [f for f in findings if f.rule == "T301"]
    assert t301 and any("nand" in f.message for f in t301)


def test_default_library_is_clean_on_benchmarks():
    for name in ("c17", "s27"):
        assert check_library(load_benchmark(name)) == []


def test_timing_matrix_t305_and_t304():
    circuit = build_observable_circuit()
    n_edges = len(circuit.edges)
    bad = SimpleNamespace(
        circuit=circuit, delays=np.full((n_edges, 4), np.nan)
    )
    assert rule_counts(check_timing(bad)) == {"T305": 1}
    negative = SimpleNamespace(
        circuit=circuit, delays=np.full((n_edges, 4), -1.0)
    )
    assert "T305" in rule_counts(check_timing(negative))
    heavy = SimpleNamespace(
        circuit=circuit,
        delays=np.array([[0.01, 2.0, 0.01, 2.0]] * n_edges),
    )
    assert rule_counts(check_timing(heavy)) == {"T304": 1}


def test_materialized_benchmark_timing_is_clean():
    circuit = load_benchmark("c17")
    timing = CircuitTiming(circuit, SampleSpace(n_samples=16, seed=3))
    assert check_timing(timing) == []


# ----------------------------------------------------------------------
# model engine: S4xx
# ----------------------------------------------------------------------
def test_suspect_set_s401_s402():
    circuit = build_observable_circuit()
    good = circuit.edges[0]
    phantom = Edge("ghost", "y", 7)
    findings = check_suspects(circuit, [good, phantom, good])
    counts = rule_counts(findings)
    assert counts == {"S401": 1, "S402": 1}
    assert check_suspects(circuit, list(circuit.edges)) == []


def test_cache_audit_s403_s404_s405(tmp_path, write_legacy_blob):
    m_crt = np.zeros((4, 2))
    signatures = [np.ones((4, 2))]
    stored = write_legacy_blob(tmp_path, "good" * 16, m_crt, signatures)
    assert check_cache(DictionaryStore(tmp_path)) == []
    assert check_cache(str(tmp_path)) == []

    # S405: leftover writer temp file + foreign file
    (tmp_path / ".tmp_dict_zzz.npz").write_bytes(b"partial")
    (tmp_path / "README.txt").write_text("not a cache entry")
    # S403: truncated/garbage entry
    (tmp_path / "dict_corrupt.npz").write_bytes(b"\x00\x01\x02")
    # S404: valid payload filed under the wrong key
    os.rename(stored, str(tmp_path / "dict_renamed.npz"))
    findings = check_cache(str(tmp_path))
    counts = rule_counts(findings)
    assert counts == {"S403": 1, "S404": 1, "S405": 2}
    # the audit is read-only: nothing was deleted or repaired
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".tmp_dict_zzz.npz", "README.txt", "dict_corrupt.npz", "dict_renamed.npz",
    ]


def test_cache_audit_flags_format_drift(tmp_path):
    meta = json.dumps({
        "format": "repro-dictionary-cache-v0",
        "key": "k",
        "n_suspects": 0,
        "checksum": "",
    })
    with open(tmp_path / "dict_k.npz", "wb") as handle:
        np.savez(handle, meta=np.array(meta), m_crt=np.zeros((1, 1)))
    counts = rule_counts(check_cache(str(tmp_path)))
    assert counts == {"S404": 1}


# ----------------------------------------------------------------------
# wire-error taxonomy (R605)
# ----------------------------------------------------------------------
def test_live_wire_taxonomy_is_clean_and_fully_pinned():
    from repro.lint import WIRE_TAXONOMY_BASELINE, check_wire_taxonomy
    from repro.service.errors import WIRE_TYPES

    assert "R605" in RULES
    assert check_wire_taxonomy() == []
    # every shipped tag is pinned — appending to WIRE_TYPES must append
    # to the baseline in the same commit
    assert WIRE_TAXONOMY_BASELINE == tuple(
        (tag, cls.__name__) for tag, cls in WIRE_TYPES.items()
    )


def test_wire_taxonomy_mutations_fixture_regressions():
    from repro.lint import check_wire_taxonomy

    with open(os.path.join(FIXTURES, "wire_taxonomy_mutated.json")) as handle:
        fixture = json.load(handle)
    assert fixture["format"] == "repro-wire-taxonomy-fixture-v1"
    for name, case in fixture["cases"].items():
        wire_types = {tag: cls for tag, cls in case["wire_types"]}
        findings = check_wire_taxonomy(wire_types)
        assert [f.rule for f in findings] == case["expect_rules"], (
            f"case {name}: {[f.message for f in findings]}"
        )
        if case["expect_message"]:
            assert case["expect_message"] in findings[0].message, name
        for finding in findings:
            assert finding.severity is Severity.ERROR
            assert finding.engine == "model"


def test_wire_taxonomy_gate_runs_in_models_mode(monkeypatch):
    from repro.service import errors as service_errors

    mutated = dict(service_errors.WIRE_TYPES)
    mutated.pop("timeout")
    monkeypatch.setattr(service_errors, "WIRE_TYPES", mutated)
    report = run_lint(mode="models", circuits=["c17"])
    assert not report.ok
    assert report.by_rule().get("R605") == 1


# ----------------------------------------------------------------------
# orchestration, JSON schema, CLI
# ----------------------------------------------------------------------
def test_lint_models_clean_on_shipped_benchmarks():
    report = lint_models(circuits=["c17", "s27", "s1196"])
    assert report.ok, report.format_text()


def test_run_lint_all_includes_cache_audit(tmp_path):
    (tmp_path / ".tmp_dict_x").write_bytes(b"")
    report = run_lint(
        mode="models", circuits=["c17"], cache_dir=str(tmp_path)
    )
    assert report.ok  # S405 is a warning, not an error
    assert report.by_rule().get("S405") == 1
    with pytest.raises(ValueError):
        run_lint(mode="everything")


def test_json_payload_round_trips_and_validates():
    report = run_lint(mode="code", paths=[FIXTURES])
    assert not report.ok
    payload = json.loads(json.dumps(report.to_payload()))
    validate_report_payload(payload)
    assert payload["version"] == REPORT_SCHEMA["properties"]["version"]["const"]
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert {"D101", "D102", "D103", "D104", "D105"} <= rules
    # Schema v2 pin: diagnostics are ordered by (path, line, rule) so CI
    # report diffs are deterministic across Python versions and runs.
    anchors = [
        (d.get("path", "~"), d.get("line", 0), d["rule"])
        for d in payload["diagnostics"]
    ]
    assert anchors == sorted(anchors)
    assert len(anchors) > 1  # the pin is vacuous on a singleton report


def test_payload_validator_rejects_malformed_documents():
    report = lint_code(paths=[FIXTURES])
    good = report.to_payload()
    validate_report_payload(good)
    for mutate in (
        lambda p: p.pop("summary"),
        lambda p: p.__setitem__("version", 999),
        lambda p: p["summary"].__setitem__("errors", -1),
        lambda p: p["diagnostics"][0].__setitem__("rule", "X999"),
        lambda p: p["diagnostics"][0].__setitem__("severity", "fatal"),
        lambda p: p.__setitem__("ok", True),  # inconsistent with errors>0
    ):
        broken = json.loads(json.dumps(good))
        mutate(broken)
        with pytest.raises(ValueError):
            validate_report_payload(broken)


def test_text_rendering_format():
    findings = lint_file(os.path.join(FIXTURES, "bad_determinism.py"))
    report = LintReport()
    report.extend(findings)
    text = report.format_text()
    assert "[D101] error:" in text
    assert text.splitlines()[-1].startswith("lint: 5 error(s)")


def test_cli_lint_clean_code_exits_zero(capsys):
    assert cli_main(["lint", "--code", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate_report_payload(payload)
    assert payload["ok"] is True


def test_cli_lint_fixture_violations_exit_nonzero(capsys):
    code = cli_main([
        "lint", "--code", "--path",
        os.path.join(FIXTURES, "bad_determinism.py"),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "[D101]" in out and "[D104]" in out


def test_cli_lint_models_subset(capsys):
    assert cli_main(["lint", "--models", "--circuits", "c17", "s27"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_lint_rules_catalog(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "C204", "T304", "S403"):
        assert rule_id in out


# ----------------------------------------------------------------------
# RNG shim backing the determinism fixes
# ----------------------------------------------------------------------
def test_compat_random_matches_stdlib_stream():
    ours, stdlib = CompatRandom(5), random.Random(5)
    assert [ours.random() for _ in range(20)] == [
        stdlib.random() for _ in range(20)
    ]
    assert ours.randint(0, 99) == stdlib.randint(0, 99)
    items_a, items_b = list(range(30)), list(range(30))
    ours.shuffle(items_a)
    stdlib.shuffle(items_b)
    assert items_a == items_b


def test_compat_random_refuses_entropy_seeding():
    with pytest.raises(ValueError):
        CompatRandom(None)
    rng = CompatRandom(1)
    with pytest.raises(ValueError):
        rng.seed(None)


def test_coerce_rng_dispatch():
    assert isinstance(coerce_rng(None, seed=3), CompatRandom)
    adapter = coerce_rng(np.random.default_rng(3))
    assert isinstance(adapter, GeneratorAdapter)
    assert 0.0 <= adapter.random() < 1.0
    assert adapter.randint(2, 4) in (2, 3, 4)
    assert adapter.choice(["x"]) == "x"
    passthrough = CompatRandom(9)
    assert coerce_rng(passthrough) is passthrough


def test_spawn_generator_streams_are_deterministic_and_distinct():
    a1 = spawn_generator(7, 0).random(4)
    a2 = spawn_generator(7, 0).random(4)
    b = spawn_generator(7, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_generated_circuits_unchanged_by_shim():
    """CompatRandom must preserve the exact pre-shim generator streams."""
    circuit = load_benchmark("s1196")
    assert len(circuit.gates) == 561
    assert lint_circuit(circuit).ok


def test_pattern_generation_accepts_explicit_generator():
    from repro.atpg.patterns import generate_path_tests

    circuit = load_benchmark("c17")
    timing = CircuitTiming(circuit, SampleSpace(n_samples=8, seed=0))
    site = circuit.edges[0]
    set_a, tests_a = generate_path_tests(
        timing, site, n_paths=3, rng=timing.space.child_rng(11, 0)
    )
    set_b, tests_b = generate_path_tests(
        timing, site, n_paths=3, rng=timing.space.child_rng(11, 0)
    )
    assert len(set_a) == len(set_b)
    assert all(
        np.array_equal(p1[0], p2[0]) and np.array_equal(p1[1], p2[1])
        for p1, p2 in zip(set_a, set_b)
    )


# ----------------------------------------------------------------------
# migrated callers
# ----------------------------------------------------------------------
def test_parse_bench_validate_gate():
    good = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
    assert parse_bench(good, validate=True).frozen
    no_inputs = "OUTPUT(y)\ny = DFF(q)\nq = NOT(y)\n"
    with pytest.raises(BenchParseError, match="no primary inputs"):
        parse_bench(no_inputs, validate=True)


def test_benchmark_generator_sanity_gate_passes_profiles():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the gate must not warn either
        circuit = load_benchmark("s1488")
    assert circuit.frozen
