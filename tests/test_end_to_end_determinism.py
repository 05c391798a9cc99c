"""End-to-end determinism and cross-simulator consistency checks.

The reproducibility guarantees EXPERIMENTS.md advertises, enforced:
identical seeds produce identical tables, and the independent simulators
agree wherever their models coincide.
"""

import numpy as np
import pytest


@pytest.mark.slow
class TestHarnessDeterminism:
    def test_table1_circuit_bitwise_reproducible(self):
        from repro.experiments import run_table1_circuit

        a = run_table1_circuit("s1196", n_trials=3, n_samples=120, seed=5)
        b = run_table1_circuit("s1196", n_trials=3, n_samples=120, seed=5)
        assert a.rows() == b.rows()
        records_a = [(r.defect_edge, r.ranks) for r in a.evaluation.records]
        records_b = [(r.defect_edge, r.ranks) for r in b.evaluation.records]
        assert records_a == records_b

    def test_different_seed_changes_trials(self):
        from repro.experiments import run_table1_circuit

        a = run_table1_circuit("s1196", n_trials=3, n_samples=120, seed=5)
        b = run_table1_circuit("s1196", n_trials=3, n_samples=120, seed=6)
        edges_a = [r.defect_edge for r in a.evaluation.records]
        edges_b = [r.defect_edge for r in b.evaluation.records]
        assert edges_a != edges_b

    def test_figures_deterministic(self):
        from repro.experiments import figure1_case_a, figure2_data

        a = figure1_case_a(n_samples=300, seed=1)
        b = figure1_case_a(n_samples=300, seed=1)
        assert a == b
        assert figure2_data() == figure2_data()

    def test_quick_demo_deterministic(self):
        from repro import quick_diagnosis_demo

        a = quick_diagnosis_demo("s1238", seed=4, n_samples=100)
        b = quick_diagnosis_demo("s1238", seed=4, n_samples=100)
        assert a == b


@pytest.mark.slow
class TestKernelDeterminism:
    """The compiled timing kernel must not perturb the protocol.

    ``REPRO_TIMING_KERNEL`` is a pure performance knob: a full Section I
    evaluation round under the compiled levelized kernel reproduces the
    reference (gate-by-gate Python) round record for record, rank for
    rank.  This is the end-to-end half of the bit-identity contract that
    ``tests/test_kernel.py`` pins at the simulation level.
    """

    def test_full_evaluate_round_matches_reference_kernel(
        self, bench_timing, monkeypatch
    ):
        from repro.core import EvaluationConfig, evaluate_circuit

        config = EvaluationConfig(n_trials=2, n_paths=5, seed=9)
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "reference")
        reference = evaluate_circuit(bench_timing, config)
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "compiled")
        compiled = evaluate_circuit(bench_timing, config)

        assert [r.defect_edge for r in reference.records] == [
            r.defect_edge for r in compiled.records
        ]
        assert [r.ranks for r in reference.records] == [
            r.ranks for r in compiled.records
        ]
        assert reference.table() == compiled.table()


@pytest.mark.slow
class TestParallelBackendDeterminism:
    """The parallel dictionary backend must not perturb the protocol.

    Worker-order float reductions are the classic way a parallel Monte-
    Carlo run drifts from its serial twin; the builder sidesteps them by
    assembling per-suspect results in suspect order, and this test pins
    that guarantee at the highest level: a full Section I evaluation round
    under the process backend produces the *identical* per-trial rankings
    (hence identical top-K success rates) as the serial run.
    """

    def test_full_evaluate_round_matches_serial(self, bench_timing):
        from repro.core import EvaluationConfig, ParallelConfig, evaluate_circuit

        serial_config = EvaluationConfig(n_trials=2, n_paths=5, seed=9)
        parallel_config = EvaluationConfig(
            n_trials=2,
            n_paths=5,
            seed=9,
            parallel=ParallelConfig(backend="process", n_workers=2, chunk_size=4),
        )
        serial = evaluate_circuit(bench_timing, serial_config)
        parallel = evaluate_circuit(bench_timing, parallel_config)

        assert [r.defect_edge for r in serial.records] == [
            r.defect_edge for r in parallel.records
        ]
        assert [r.ranks for r in serial.records] == [
            r.ranks for r in parallel.records
        ]
        for k in serial_config.k_values:
            for function in serial_config.error_functions:
                assert serial.success_rate(function.name, k) == parallel.success_rate(
                    function.name, k
                )

    def test_cached_evaluate_round_matches_serial(self, bench_timing, tmp_cache):
        """Second evaluation round served from the cache is bit-identical
        (and actually hits: same seed -> same patterns -> same key)."""
        from repro.core import EvaluationConfig, evaluate_circuit

        config = EvaluationConfig(n_trials=2, n_paths=5, seed=9, cache=tmp_cache)
        first = evaluate_circuit(bench_timing, config)
        assert tmp_cache.stats.hits == 0
        second = evaluate_circuit(bench_timing, config)
        assert tmp_cache.stats.hits > 0
        assert [r.ranks for r in first.records] == [r.ranks for r in second.records]

    def test_interrupted_resumed_round_matches_uninterrupted(
        self, bench_timing, tmp_path
    ):
        """Checkpoint/resume must not perturb the protocol either: a round
        killed mid-campaign and resumed from its trial-boundary checkpoint
        reproduces the uninterrupted run's records exactly (the resumed
        trials continue the restored RNG stream bit for bit)."""
        from repro.core import EvaluationConfig, evaluate_circuit
        from repro.resilience import TransientChaosError
        from repro.resilience.chaos import ChaosEvent, ChaosPlan, chaos_active

        baseline = evaluate_circuit(
            bench_timing, EvaluationConfig(n_trials=3, n_paths=5, seed=9)
        )
        checkpoint = str(tmp_path / "round.json")
        config = EvaluationConfig(
            n_trials=3, n_paths=5, seed=9, checkpoint=checkpoint
        )
        plan = ChaosPlan([ChaosEvent("evaluate.trial", "transient", index=1)])
        with chaos_active(plan):
            with pytest.raises(TransientChaosError):
                evaluate_circuit(bench_timing, config)
        resumed = evaluate_circuit(
            bench_timing,
            EvaluationConfig(
                n_trials=3, n_paths=5, seed=9, checkpoint=checkpoint, resume=True
            ),
        )
        assert [r.defect_edge for r in baseline.records] == [
            r.defect_edge for r in resumed.records
        ]
        assert [r.ranks for r in baseline.records] == [
            r.ranks for r in resumed.records
        ]
        assert baseline.table() == resumed.table()


@pytest.mark.slow
class TestInstrumentationDeterminism:
    """Observability must be a pure observer.

    The :mod:`repro.obs` recorder sits inside every hot path of the
    protocol (dynamic simulation, dictionary construction, evaluation
    trials); this pins the layer's core contract — recording reads
    results, never draws from or reorders an RNG stream — at the highest
    level: a fully instrumented Section I round reproduces the
    uninstrumented one record for record.
    """

    def test_instrumented_evaluate_round_matches_uninstrumented(
        self, bench_timing
    ):
        from repro import obs
        from repro.core import EvaluationConfig, evaluate_circuit

        config = EvaluationConfig(n_trials=2, n_paths=5, seed=9)
        plain = evaluate_circuit(bench_timing, config)

        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            instrumented = evaluate_circuit(bench_timing, config)

        assert [r.defect_edge for r in plain.records] == [
            r.defect_edge for r in instrumented.records
        ]
        assert [r.ranks for r in plain.records] == [
            r.ranks for r in instrumented.records
        ]
        assert [r.sample_index for r in plain.records] == [
            r.sample_index for r in instrumented.records
        ]
        # and the recorder actually saw the round it did not perturb
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["evaluate.trials"] == 2
        assert snapshot["counters"]["dictionary.builds"] == 2
        assert any(node["name"] == "evaluate.trial" for node in snapshot["spans"])

    def test_instrumented_dictionary_bit_identical(self, bench_timing):
        """Sharper (array-level) version of the same guarantee, on one
        dictionary build rather than a whole evaluation round."""
        from repro import obs
        from repro.atpg import random_pattern_pairs
        from repro.core import build_dictionary
        from repro.defects import DefectSizeModel
        from repro.timing import diagnosis_clock, simulate_pattern_set

        patterns = random_pattern_pairs(bench_timing.circuit, 3, seed=2)
        sims = simulate_pattern_set(bench_timing, list(patterns))
        clk = diagnosis_clock(bench_timing, list(patterns), 0.8, simulations=sims)
        suspects = bench_timing.circuit.edges[::40]
        sizes = DefectSizeModel().size_variable(
            2.0, bench_timing.space, rng=np.random.default_rng(4)
        ).samples

        plain = build_dictionary(
            bench_timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        with obs.use_recorder(obs.Recorder()):
            instrumented = build_dictionary(
                bench_timing, patterns, clk, suspects, sizes,
                base_simulations=sims,
            )
        assert np.array_equal(plain.m_crt, instrumented.m_crt)
        for edge in suspects:
            assert np.array_equal(
                plain.signatures[edge], instrumented.signatures[edge]
            )


class TestCrossSimulatorConsistency:
    def test_sta_upper_bounds_dynamic_on_benchmark(self, bench_timing):
        """Static arrival >= dynamic settle for every net and pattern."""
        from repro.timing import analyze, simulate_transition

        sta = analyze(bench_timing)
        rng = np.random.default_rng(3)
        for _ in range(3):
            v1 = rng.integers(0, 2, len(bench_timing.circuit.inputs))
            v2 = rng.integers(0, 2, len(bench_timing.circuit.inputs))
            sim = simulate_transition(bench_timing, v1, v2)
            for net in bench_timing.circuit.outputs:
                assert (sim.stable[net] <= sta.arrivals[net] + 1e-9).all()

    def test_event_behavior_never_misses_settled_failures(self, bench_timing):
        """The waveform-accurate matrix is a superset of the fast one on
        outputs whose fanin cones are glitch-free."""
        from repro.atpg import generate_path_tests
        from repro.defects import SingleDefectModel, behavior_matrix
        from repro.timing import diagnosis_clock, simulate_pattern_set
        from repro.timing.events import event_behavior_matrix, simulate_events

        model = SingleDefectModel(bench_timing)
        edge = bench_timing.circuit.edges[120]
        patterns, _ = generate_path_tests(bench_timing, edge, n_paths=3, rng_seed=0)
        if not len(patterns):
            pytest.skip("no tests at this site")
        sims = simulate_pattern_set(bench_timing, list(patterns))
        clk = diagnosis_clock(
            bench_timing, list(patterns), 0.85,
            simulations=sims, targets=patterns.target_observations(),
        )
        defect = model.defect_at(edge, size_mean=4.0)
        sample = 5
        fast = behavior_matrix(bench_timing, patterns, clk, defect, sample)
        accurate = event_behavior_matrix(
            bench_timing, patterns, clk, defect, sample
        )
        extra = {defect.edge_index: defect.size_on_instance(sample)}
        circuit = bench_timing.circuit
        for column, (v1, v2) in enumerate(patterns):
            events = simulate_events(
                bench_timing, v1, v2, sample, extra_delay=extra
            )
            tainted = set()
            for net in events.glitchy_nets():
                tainted.update(circuit.fanout_cone(net))
            for row, output in enumerate(circuit.outputs):
                if output in tainted:
                    continue  # glitch effects: the models legitimately differ
                assert accurate[row, column] >= fast[row, column] or (
                    fast[row, column] == accurate[row, column]
                )

    def test_instance_and_population_views_agree(self, bench_timing):
        """Averaging per-instance behavior reproduces the population error
        matrix (the two views are the same array sliced differently)."""
        from repro.atpg import random_pattern_pairs
        from repro.defects import behavior_matrix, population_error_matrix
        from repro.timing import simulate_pattern_set

        patterns = random_pattern_pairs(bench_timing.circuit, 3, seed=2)
        sims = simulate_pattern_set(bench_timing, list(patterns))
        clk = 20.0
        population = population_error_matrix(bench_timing, patterns, clk, None)
        sampled = np.zeros_like(population)
        n = bench_timing.space.n_samples
        for sample in range(n):
            sampled += behavior_matrix(bench_timing, patterns, clk, None, sample)
        sampled /= n
        assert np.allclose(population, sampled, atol=1e-12)
