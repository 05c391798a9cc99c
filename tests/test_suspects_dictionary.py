"""Unit tests for suspect pruning and the probabilistic fault dictionary."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.atpg import generate_path_tests, random_pattern_pairs
from repro.core import (
    ParallelConfig,
    build_dictionary,
    build_multi_clock_dictionary,
    suspect_edges,
    trace_sensitized_edges,
)
from repro.defects import SingleDefectModel, behavior_matrix
from repro.timing import (
    diagnosis_clock,
    resimulate_with_extra,
    simulate_pattern_set,
    simulate_transition,
)


@pytest.fixture(scope="module")
def flow(bench_timing):
    """A defect that actually fires plus its pattern set and clock."""
    rng = np.random.default_rng(8)
    model = SingleDefectModel(bench_timing)
    for _ in range(30):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            bench_timing, defect.edge, n_paths=6, rng_seed=2
        )
        if not len(patterns):
            continue
        sims = simulate_pattern_set(bench_timing, list(patterns))
        clk = diagnosis_clock(
            bench_timing, list(patterns), 0.85,
            simulations=sims, targets=patterns.target_observations(),
        )
        # pick a big defect so the behavior is certainly defect-caused
        big = model.defect_at(defect.edge, size_mean=5.0)
        matrix = behavior_matrix(bench_timing, patterns, clk, big, 3)
        healthy = behavior_matrix(bench_timing, patterns, clk, None, 3)
        if (matrix & ~healthy).any():
            return model, big, patterns, sims, clk, matrix
    pytest.fail("no firing defect found")


class TestTracing:
    def test_no_transition_no_edges(self, bench_timing):
        circuit = bench_timing.circuit
        v = np.zeros(len(circuit.inputs), int)
        sim = simulate_transition(bench_timing, v, v)
        assert trace_sensitized_edges(sim, circuit.outputs[0]) == []

    def test_traced_edges_all_transition(self, flow, bench_timing):
        _model, _defect, patterns, sims, _clk, matrix = flow
        for sim in sims:
            for output in bench_timing.circuit.outputs:
                for edge in trace_sensitized_edges(sim, output):
                    assert sim.val1[edge.source] != sim.val2[edge.source]

    def test_defect_edge_traced_when_it_causes_failure(self, flow):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)
        assert defect.edge in suspects

    def test_suspects_deterministic_order(self, flow, bench_timing):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        a = suspect_edges(sims, matrix)
        b = suspect_edges(sims, matrix)
        assert a == b
        order = {e: i for i, e in enumerate(bench_timing.circuit.edges)}
        positions = [order[e] for e in a]
        assert positions == sorted(positions)

    def test_no_failures_no_suspects(self, flow, bench_timing):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        empty = np.zeros_like(matrix)
        assert suspect_edges(sims, empty) == []

    def test_shape_mismatch_rejected(self, flow):
        _model, _defect, _patterns, sims, _clk, matrix = flow
        with pytest.raises(ValueError):
            suspect_edges(sims, matrix[:, :1])


class TestDictionary:
    def test_m_crt_matches_error_matrix(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        from repro.timing import error_matrix

        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        assert np.allclose(
            dictionary.m_crt,
            error_matrix(bench_timing, list(patterns), clk, simulations=sims),
        )

    def test_signatures_nonnegative_and_bounded(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        for edge in suspects:
            signature = dictionary.signatures[edge]
            assert (signature >= -1e-12).all()
            assert (dictionary.m_crt + signature <= 1 + 1e-12).all()

    def test_e_crt_is_m_plus_s(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        suspects = suspect_edges(sims, matrix)[:5]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        edge = suspects[0]
        assert np.allclose(
            dictionary.e_crt(edge),
            dictionary.m_crt + dictionary.signatures[edge],
        )

    def test_signature_zero_outside_fanout_cone(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        circuit = bench_timing.circuit
        suspects = suspect_edges(sims, matrix)[:10]
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects,
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        for edge in suspects:
            cone_outputs = set(circuit.outputs_reachable_from(edge.sink))
            for row, output in enumerate(circuit.outputs):
                if output not in cone_outputs:
                    assert (dictionary.signatures[edge][row] == 0).all()

    def test_signature_matches_direct_resimulation(self, flow, bench_timing):
        """Spot-check one signature column against a from-scratch E - M."""
        model, defect, patterns, sims, clk, matrix = flow
        from repro.defects import population_error_matrix

        size = model.dictionary_size_variable().samples
        dictionary = build_dictionary(
            bench_timing, patterns, clk, [defect.edge], size,
            base_simulations=sims,
        )
        from repro.defects.model import InjectedDefect

        as_defect = InjectedDefect(
            defect.edge, bench_timing.edge_index[defect.edge], float(size.mean()), size
        )
        e_direct = population_error_matrix(bench_timing, patterns, clk, as_defect)
        m_direct = population_error_matrix(bench_timing, patterns, clk, None)
        assert np.allclose(
            dictionary.signatures[defect.edge], e_direct - m_direct, atol=1e-12
        )

    def test_size_sample_shape_validated(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        with pytest.raises(ValueError):
            build_dictionary(
                bench_timing, patterns, clk, [defect.edge], np.ones(3),
                base_simulations=sims,
            )

    def test_len(self, flow, bench_timing):
        model, defect, patterns, sims, clk, matrix = flow
        dictionary = build_dictionary(
            bench_timing, patterns, clk, [defect.edge],
            model.dictionary_size_variable().samples, base_simulations=sims,
        )
        assert len(dictionary) == 1


# ----------------------------------------------------------------------
# per-sink batched replay: bit-identical to one replay per suspect
# ----------------------------------------------------------------------
def _per_suspect_dictionary(timing, sims, clks, suspects, sizes):
    """``(m_crt, signatures)`` the unbatched way: one
    ``resimulate_with_extra`` per (suspect, pattern) over the suspect's
    whole fanout cone, and ``E - M`` over every entry."""
    circuit = timing.circuit
    n_patterns = len(sims)
    m_crt = np.zeros((len(circuit.outputs), n_patterns * len(clks)))
    for block, clk in enumerate(clks):
        for column, sim in enumerate(sims):
            m_crt[:, block * n_patterns + column] = sim.error_vector(clk)
    signatures = {}
    for edge in suspects:
        signature = np.zeros_like(m_crt)
        cone = circuit.fanout_cone(edge.sink)
        for column, sim in enumerate(sims):
            patched = resimulate_with_extra(
                sim, {timing.edge_index[edge]: sizes}, affected=cone
            )
            for block, clk in enumerate(clks):
                col = block * n_patterns + column
                signature[:, col] = patched.error_vector(clk) - m_crt[:, col]
        signatures[edge] = signature
    return m_crt, signatures


def _assert_matches(dictionary, reference):
    m_crt, signatures = reference
    assert np.array_equal(dictionary.m_crt, m_crt)
    for edge, signature in signatures.items():
        assert np.array_equal(dictionary.signatures[edge], signature), edge


def _shared_sink_suspects(timing, sims, max_sinks=12):
    """Every fanin edge of up to ``max_sinks`` sinks with 2-4 fanins that
    some pattern toggles, sink by sink."""
    circuit = timing.circuit
    by_sink = {}
    for edge in circuit.edges:
        by_sink.setdefault(edge.sink, []).append(edge)
    groups = [
        edges for sink, edges in by_sink.items()
        if 2 <= len(edges) <= 4 and any(sim.transitioned(sink) for sim in sims)
    ]
    return [edge for edges in groups[:max_sinks] for edge in edges]


@pytest.fixture(scope="module")
def replay_case(bench_timing):
    """Random two-vector tests on s1196: many sinks toggle in many
    columns.  The clock is half the usual diagnosis clock, so many short
    paths sit near it and many suspects get non-zero signatures."""
    patterns = random_pattern_pairs(bench_timing.circuit, 12, seed=5)
    sims = simulate_pattern_set(bench_timing, list(patterns))
    clk = 0.5 * diagnosis_clock(
        bench_timing, list(patterns), 0.8, simulations=sims
    )
    sizes = SingleDefectModel(bench_timing).dictionary_size_variable().samples
    return patterns, sims, clk, sizes


class TestBatchedSinkReplay:
    def test_shared_sinks_match_per_suspect_path(self, replay_case, bench_timing):
        patterns, sims, clk, sizes = replay_case
        suspects = _shared_sink_suspects(bench_timing, sims)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            dictionary = build_dictionary(
                bench_timing, patterns, clk, suspects, sizes,
                base_simulations=sims,
            )
        _assert_matches(
            dictionary,
            _per_suspect_dictionary(bench_timing, sims, [clk], suspects, sizes),
        )
        assert sum(bool(dictionary.signatures[e].any()) for e in suspects) > 4
        # some suspects are non-candidate pins in some columns
        assert recorder.counter_value("kernel.replays_skipped") > 0

    def test_multi_clock(self, replay_case, bench_timing):
        patterns, sims, clk, sizes = replay_case
        suspects = _shared_sink_suspects(bench_timing, sims)
        clks = [clk * 0.95, clk, clk * 1.05]
        dictionary = build_multi_clock_dictionary(
            bench_timing, patterns, clks, suspects, sizes,
            base_simulations=sims,
        )
        _assert_matches(
            dictionary,
            _per_suspect_dictionary(bench_timing, sims, clks, suspects, sizes),
        )

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends(self, replay_case, bench_timing, backend):
        """Explicit 3-suspect chunks reach the pool and split sink groups
        across chunks (and workers)."""
        patterns, sims, clk, sizes = replay_case
        suspects = _shared_sink_suspects(bench_timing, sims)
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects, sizes,
            base_simulations=sims,
            parallel=ParallelConfig(backend=backend, n_workers=2, chunk_size=3),
        )
        _assert_matches(
            dictionary,
            _per_suspect_dictionary(bench_timing, sims, [clk], suspects, sizes),
        )

    def test_reference_kernel(self, replay_case, bench_timing, monkeypatch):
        patterns, _sims, clk, sizes = replay_case
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "reference")
        sims = simulate_pattern_set(bench_timing, list(patterns))
        assert all(sim.kernel_state is None for sim in sims)
        suspects = _shared_sink_suspects(bench_timing, sims, max_sinks=3)
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects, sizes,
            base_simulations=sims,
        )
        _assert_matches(
            dictionary,
            _per_suspect_dictionary(bench_timing, sims, [clk], suspects, sizes),
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_suspect_subsets(self, replay_case, bench_timing, data):
        """Any suspect subset of s1196, in any order: whole sink groups
        plus loose edges, so some sinks carry one suspect and some many."""
        patterns, sims, clk, sizes = replay_case
        grouped = _shared_sink_suspects(bench_timing, sims, max_sinks=40)
        picked = data.draw(
            st.lists(st.sampled_from(grouped), min_size=1, max_size=12,
                     unique=True)
        )
        loose = data.draw(
            st.lists(st.sampled_from(bench_timing.circuit.edges), max_size=4,
                     unique=True)
        )
        sinks = {edge.sink for edge in picked}
        suspects = [edge for edge in grouped if edge.sink in sinks]
        suspects += [edge for edge in loose if edge not in suspects]
        suspects = data.draw(st.permutations(suspects))
        dictionary = build_dictionary(
            bench_timing, patterns, clk, suspects, sizes,
            base_simulations=sims,
        )
        _assert_matches(
            dictionary,
            _per_suspect_dictionary(bench_timing, sims, [clk], suspects, sizes),
        )
