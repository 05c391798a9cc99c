"""Bit-identity suite for the compiled levelized timing kernel.

The compiled kernel (``repro.timing.kernel``) is a pure performance
transformation of the reference gate-by-gate simulator: every test here
pins ``np.array_equal`` (not ``allclose``) equality between the two
kernels — settle times, error vectors, whole fault dictionaries — across
ISCAS benches, random netlists, the instance (``sample_index``) path and
every parallel backend.  A kernel that is fast but drifts by one ULP
fails this file.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.circuits import GeneratorConfig, generate_circuit, load_benchmark
from repro.core import ParallelConfig, build_dictionary, build_multi_clock_dictionary
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    active_kernel,
    compile_circuit,
    resimulate_with_extra,
    resimulate_with_extra_reference,
    simulate_transition,
    simulate_transition_reference,
)
from repro.timing.kernel import ConeStableTimes, StableTimes


def _vectors(circuit, seed, count=1):
    rng = np.random.default_rng(seed)
    pairs = [
        (
            rng.integers(0, 2, len(circuit.inputs)),
            rng.integers(0, 2, len(circuit.inputs)),
        )
        for _ in range(count)
    ]
    return pairs if count > 1 else pairs[0]


def _assert_same_sim(reference, compiled):
    assert reference.val1 == compiled.val1
    assert reference.val2 == compiled.val2
    assert reference.width == compiled.width
    assert set(reference.stable) == set(compiled.stable)
    for net in reference.stable:
        assert np.array_equal(reference.stable[net], compiled.stable[net]), net


# ----------------------------------------------------------------------
# kernel selection / dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_compiled_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMING_KERNEL", raising=False)
        assert active_kernel() == "compiled"

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "reference")
        assert active_kernel() == "reference"

    def test_unknown_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "vectorized")
        with pytest.raises(ValueError, match="REPRO_TIMING_KERNEL"):
            active_kernel()

    def test_dispatch_reaches_each_kernel(self, c17_timing, monkeypatch):
        v1, v2 = _vectors(c17_timing.circuit, 0)
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "compiled")
        assert simulate_transition(c17_timing, v1, v2).kernel_state is not None
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "reference")
        assert simulate_transition(c17_timing, v1, v2).kernel_state is None


# ----------------------------------------------------------------------
# settle-time bit-identity
# ----------------------------------------------------------------------
class TestSettleTimesIdentical:
    @pytest.mark.parametrize("seed", range(6))
    def test_c17(self, c17_timing, seed):
        v1, v2 = _vectors(c17_timing.circuit, seed)
        _assert_same_sim(
            simulate_transition_reference(c17_timing, v1, v2),
            simulate_transition(c17_timing, v1, v2),
        )

    @pytest.mark.parametrize("name", ["c432", "s1196"])
    def test_iscas_benches(self, name):
        circuit = load_benchmark(name, seed=0)
        timing = CircuitTiming(circuit, SampleSpace(n_samples=40, seed=3))
        for v1, v2 in _vectors(circuit, 11, count=4):
            _assert_same_sim(
                simulate_transition_reference(timing, v1, v2),
                simulate_transition(timing, v1, v2),
            )

    @pytest.mark.parametrize("gen_seed", range(4))
    def test_random_netlists(self, gen_seed):
        circuit = generate_circuit(
            GeneratorConfig(
                n_inputs=8, n_outputs=4, n_gates=60,
                target_depth=7, seed=gen_seed,
            )
        )
        timing = CircuitTiming(circuit, SampleSpace(n_samples=32, seed=5))
        for v1, v2 in _vectors(circuit, gen_seed, count=3):
            _assert_same_sim(
                simulate_transition_reference(timing, v1, v2),
                simulate_transition(timing, v1, v2),
            )

    def test_extra_delay_at_simulation_time(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 2)
        extra = {3: 1.5, 7: np.full(small_timing.space.n_samples, 0.25)}
        _assert_same_sim(
            simulate_transition_reference(small_timing, v1, v2, extra_delay=extra),
            simulate_transition(small_timing, v1, v2, extra_delay=extra),
        )

    def test_sample_index_path(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 4)
        for sample_index in (0, 17, 99):
            reference = simulate_transition_reference(
                small_timing, v1, v2, sample_index=sample_index
            )
            compiled = simulate_transition(
                small_timing, v1, v2, sample_index=sample_index
            )
            assert compiled.width == 1
            _assert_same_sim(reference, compiled)

    def test_error_vectors_identical(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 6)
        reference = simulate_transition_reference(small_timing, v1, v2)
        compiled = simulate_transition(small_timing, v1, v2)
        for clk in (0.5, 2.0, 5.0):
            assert np.array_equal(
                reference.error_vector(clk), compiled.error_vector(clk)
            )
            assert np.array_equal(
                reference.output_failures(clk), compiled.output_failures(clk)
            )

    def test_error_vector_fast_path_matches_instrumented_loop(self, small_timing):
        """The vectorized gather in ``error_vector`` and the recorded
        per-net loop are the same numbers."""
        v1, v2 = _vectors(small_timing.circuit, 8)
        compiled = simulate_transition(small_timing, v1, v2)
        fast = compiled.error_vector(2.0)
        with obs.use_recorder(obs.Recorder()):
            slow = compiled.error_vector(2.0)
        assert np.array_equal(fast, slow)


# ----------------------------------------------------------------------
# cone-restricted re-simulation
# ----------------------------------------------------------------------
class TestResimulationIdentical:
    @pytest.mark.parametrize("edge_index", [0, 5, 23])
    def test_single_edge(self, small_timing, edge_index):
        v1, v2 = _vectors(small_timing.circuit, 3)
        extra = {edge_index: np.full(small_timing.space.n_samples, 0.8)}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, v1, v2), extra
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), extra
        )
        _assert_same_sim(reference, compiled)

    def test_precomputed_affected_cone(self, small_timing):
        circuit = small_timing.circuit
        edge = circuit.edges[9]
        cone = circuit.fanout_cone(edge.sink)
        extra = {9: 1.25}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, *_vectors(circuit, 5)),
            extra, affected=cone,
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, *_vectors(circuit, 5)),
            extra, affected=cone,
        )
        _assert_same_sim(reference, compiled)

    def test_multi_edge_defect(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 7)
        extra = {2: 0.5, 11: 0.75, 19: np.full(small_timing.space.n_samples, 1.1)}
        reference = resimulate_with_extra_reference(
            simulate_transition_reference(small_timing, v1, v2), extra
        )
        compiled = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), extra
        )
        _assert_same_sim(reference, compiled)

    def test_replay_of_replay_falls_back_to_reference_path(self, small_timing):
        """A compiled replay result carries no schedule; re-resimulating it
        must still match the reference end to end."""
        v1, v2 = _vectors(small_timing.circuit, 9)
        first = resimulate_with_extra(
            simulate_transition(small_timing, v1, v2), {4: 0.5}
        )
        assert first.kernel_state is None
        second = resimulate_with_extra(first, {4: 0.5})
        reference = resimulate_with_extra_reference(
            resimulate_with_extra_reference(
                simulate_transition_reference(small_timing, v1, v2), {4: 0.5}
            ),
            {4: 0.5},
        )
        _assert_same_sim(reference, second)

    def test_base_result_untouched_by_replay(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 1)
        base = simulate_transition(small_timing, v1, v2)
        before = {net: base.stable[net].copy() for net in base.stable}
        resimulate_with_extra(base, {6: 2.0})
        for net, values in before.items():
            assert np.array_equal(base.stable[net], values)


# ----------------------------------------------------------------------
# fused chunk replay (the dictionary builder's inner loop)
# ----------------------------------------------------------------------
def _sink_cases(timing, n_vectors, seed, sample_index=None):
    """``(bases, requests)``: one fused chunk over ``n_vectors`` patterns,
    one ``(column, edge_indices, cone, nets)`` request per (pattern, sink
    with 2-4 fanin edges that the pattern toggles)."""
    circuit = timing.circuit
    outputs = set(circuit.outputs)
    by_sink = {}
    for edge in circuit.edges:
        by_sink.setdefault(edge.sink, []).append(timing.edge_index[edge])
    groups = {sink: edges for sink, edges in by_sink.items()
              if 2 <= len(edges) <= 4}
    bases = []
    requests = []
    for column, (v1, v2) in enumerate(_vectors(circuit, seed, n_vectors)):
        base = simulate_transition(timing, v1, v2, sample_index=sample_index)
        bases.append(base)
        for sink, edges in groups.items():
            if not base.transitioned(sink):
                continue
            cone = circuit.fanout_cone(sink)
            nets = [net for net in cone if net in outputs]
            requests.append((column, edges, cone, nets + [sink]))
    return bases, requests


def _rows(stable, nets):
    take = getattr(stable, "take_rows", None)
    if take is not None:
        return take(nets)
    return np.stack([stable[net] for net in nets])


def _per_suspect(bases, requests, sizes):
    """The oracle: one ``resimulate_with_extra`` per (suspect, request)."""
    blocks = [
        _rows(
            resimulate_with_extra(
                bases[column], {edge: sizes}, affected=cone
            ).stable,
            nets,
        )
        for column, edges, cone, nets in requests
        for edge in edges
    ]
    return np.concatenate(blocks)


class TestSinkReplayIdentical:
    """``replay_chunk`` == one ``resimulate_with_extra`` per (suspect,
    pattern), for a whole chunk of sinks and patterns at once."""

    @pytest.mark.parametrize("timing_name", ["small_timing", "bench_timing"])
    def test_matches_per_suspect_replays(self, request, timing_name):
        from repro.timing.dynamic import replay_chunk

        timing = request.getfixturevalue(timing_name)
        sizes = np.random.default_rng(4).uniform(
            0.0, 2.0, timing.space.n_samples
        )
        bases, requests = _sink_cases(timing, 3, seed=11)
        assert requests
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            fused = replay_chunk(bases, requests, sizes)
        want = _per_suspect(bases, requests, sizes)
        assert fused.shape == want.shape == (
            sum(len(edges) * len(nets) for _c, edges, _cone, nets in requests),
            timing.space.n_samples,
        )
        assert fused.tobytes() == want.tobytes()
        # one request at a time gives the same rows as the fused chunk
        single = np.concatenate([
            replay_chunk(bases, [one], sizes) for one in requests
        ])
        assert single.tobytes() == want.tobytes()
        # some (suspect, pattern) pairs are non-candidate pins: their rows
        # came from the base simulation without a replay, still identical
        assert recorder.counter_value("kernel.replays_skipped") > 0
        assert recorder.counter_value("dynamic.resimulations") > 0

    def test_non_candidate_pins_return_base_rows(self, small_timing):
        from repro.timing.kernel import replay_chunk_compiled

        sizes = np.full(small_timing.space.n_samples, 1.5)
        bases, requests = _sink_cases(small_timing, 4, seed=2)
        fused = replay_chunk_compiled(bases, requests, sizes)
        skipped = 0
        offset = 0
        for column, edges, cone, nets in requests:
            base = bases[column]
            candidates = base.kernel_state.cone_for(cone).edge_pos
            for edge in edges:
                block = fused[offset : offset + len(nets)]
                offset += len(nets)
                if edge in candidates:
                    continue
                skipped += 1
                assert block.tobytes() == base.stable.take_rows(nets).tobytes()
        assert offset == len(fused)
        assert skipped

    def test_reference_kernel(self, small_timing, monkeypatch):
        from repro.timing.dynamic import replay_chunk

        sizes = np.full(small_timing.space.n_samples, 0.7)
        compiled = replay_chunk(*_sink_cases(small_timing, 2, 5), sizes)
        monkeypatch.setenv("REPRO_TIMING_KERNEL", "reference")
        bases, requests = _sink_cases(small_timing, 2, 5)
        assert all(base.kernel_state is None for base in bases)
        reference = replay_chunk(bases, requests, sizes)
        assert reference.tobytes() == compiled.tobytes()

    @pytest.mark.parametrize("cells", [1, 2_000])
    def test_row_budget_splits_passes(self, bench_timing, monkeypatch, cells):
        """A chunk split into many passes (one instance each, or a few)
        reads out exactly what one pass does."""
        from repro.timing import kernel
        from repro.timing.dynamic import replay_chunk

        sizes = np.random.default_rng(6).uniform(
            0.0, 2.0, bench_timing.space.n_samples
        )
        bases, requests = _sink_cases(bench_timing, 2, seed=3)
        one_pass = replay_chunk(bases, requests, sizes)
        monkeypatch.setattr(kernel, "_FUSED_PASS_CELLS", cells)
        calls = []
        fused_pass = kernel._fused_pass
        monkeypatch.setattr(
            kernel, "_fused_pass",
            lambda *args: calls.append(len(args[3])) or fused_pass(*args),
        )
        split = replay_chunk(bases, requests, sizes)
        assert len(calls) > 1
        if cells == 1:
            assert set(calls) == {1}
        assert split.tobytes() == one_pass.tobytes()

    def test_instance_width_and_empty_inputs(self, small_timing):
        from repro.timing.dynamic import replay_chunk

        for sample_index in (None, 4):
            bases, requests = _sink_cases(
                small_timing, 3, seed=11, sample_index=sample_index
            )
            width = bases[0].width
            sizes = np.full(width, 0.6)
            # read out the whole cone, not only its outputs
            requests = [(column, edges, cone, list(cone))
                        for column, edges, cone, _nets in requests]
            assert (
                replay_chunk(bases, requests, sizes).tobytes()
                == _per_suspect(bases, requests, sizes).tobytes()
            )
            column, _edges, cone, nets = requests[0]
            assert replay_chunk(
                bases, [(column, [], cone, nets)], sizes
            ).shape == (0, width)
            assert replay_chunk(bases, [], sizes).shape == (0, width)


# ----------------------------------------------------------------------
# fused chunk replay: property tests
# ----------------------------------------------------------------------
def _chunk_requests(timing, n_columns, rng):
    """A random dictionary chunk over ``n_columns`` patterns.

    Sinks share requests with every (or a prefix of their) fanin edges;
    a path of sinks downstream of the first one nests and overlaps cones;
    read-outs mix cone outputs, internal cone nets (some of which no
    suspect effect reaches) and nets outside the cone.
    """
    circuit = timing.circuit
    outputs = set(circuit.outputs)
    by_sink = {}
    for edge in circuit.edges:
        by_sink.setdefault(edge.sink, []).append(timing.edge_index[edge])
    sinks = sorted(by_sink)
    chosen = [sinks[i] for i in rng.choice(len(sinks), 3, replace=False)]
    sink = chosen[0]
    for _ in range(3):
        downstream = [net for net in circuit.fanout_cone(sink)
                      if net != sink and net in by_sink]
        if not downstream:
            break
        sink = downstream[int(rng.integers(len(downstream)))]
        chosen.append(sink)
    every_net = circuit.topological_order
    requests = []
    for column in range(n_columns):
        for sink in chosen:
            cone = circuit.fanout_cone(sink)
            nets = [net for net in cone if net in outputs and rng.random() < 0.7]
            picks = rng.choice(len(cone), min(len(cone), 2), replace=False)
            nets += [cone[i] for i in picks]
            if rng.random() < 0.3:
                nets.append(every_net[int(rng.integers(len(every_net)))])
            edges = by_sink[sink]
            if rng.random() < 0.3:
                edges = edges[: int(rng.integers(1, len(edges) + 1))]
            requests.append((column, edges, cone, nets))
    return requests


def _random_bases(timing, rng, n_columns, sample_index):
    circuit = timing.circuit
    return [
        simulate_transition(
            timing,
            rng.integers(0, 2, len(circuit.inputs)),
            rng.integers(0, 2, len(circuit.inputs)),
            sample_index=sample_index,
        )
        for _ in range(n_columns)
    ]


def _assert_fused_matches_oracle(timing, seed, kernel, instance):
    """``replay_chunk`` under ``kernel`` is byte-equal to the compiled
    per-(suspect, pattern) ``resimulate_with_extra`` oracle."""
    from repro.timing.dynamic import replay_chunk

    rng = np.random.default_rng(seed)
    n_columns = int(rng.integers(1, 4))
    sample_index = (
        int(rng.integers(timing.space.n_samples)) if instance else None
    )
    vector_seed = int(rng.integers(2**31))
    bases = _random_bases(
        timing, np.random.default_rng(vector_seed), n_columns, sample_index
    )
    requests = _chunk_requests(timing, n_columns, rng)
    sizes = rng.uniform(0.0, 3.0, bases[0].width)
    want = _per_suspect(bases, requests, sizes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TIMING_KERNEL", kernel)
        bases = _random_bases(
            timing, np.random.default_rng(vector_seed), n_columns,
            sample_index,
        )
        got = replay_chunk(bases, requests, sizes)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_fused_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_fused_settings
@given(
    st.integers(0, 10_000),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["compiled", "reference"]),
    st.booleans(),
)
def test_fused_chunk_replay_on_generated_circuits(
    circuit_seed, seed, kernel, instance
):
    circuit = generate_circuit(
        GeneratorConfig(n_inputs=6, n_outputs=4, n_gates=45, target_depth=7,
                        seed=circuit_seed % 64)
    )
    timing = CircuitTiming(circuit, SampleSpace(n_samples=24, seed=3))
    _assert_fused_matches_oracle(timing, seed, kernel, instance)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["compiled", "reference"]),
    st.booleans(),
)
def test_fused_chunk_replay_on_bench_timing(bench_timing, seed, kernel,
                                            instance):
    _assert_fused_matches_oracle(bench_timing, seed, kernel, instance)


def test_chunk_cases_cover_slab_shapes(bench_timing):
    """The random chunks above exercise every slab shape: non-candidate
    pins, candidate pins whose slab reaches no read-out net, slabs pruned
    below their cone, slabs with controlled-min groups, and instances from
    several patterns and sinks in one chunk."""
    net_rows = compile_circuit(bench_timing.circuit).net_rows
    shapes = {"skipped": 0, "empty": 0, "pruned": 0, "min": 0}
    columns = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        bases = _random_bases(bench_timing, rng, 3, None)
        for column, edges, cone, nets in _chunk_requests(bench_timing, 3, rng):
            schedule = bases[column].kernel_state.cone_for(cone)
            for edge in edges:
                pos = schedule.edge_pos.get(edge, -1)
                slab = schedule.slab(pos, tuple(nets), net_rows)
                if pos < 0:
                    shapes["skipped"] += 1
                elif not slab.n_groups:
                    shapes["empty"] += 1
                else:
                    columns.add(column)
                    shapes["pruned"] += slab.n_groups < schedule.n_overlay
                    shapes["min"] += bool(slab.is_min.any())
    assert all(shapes.values()), shapes
    assert len(columns) > 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 10_000),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["compiled", "reference"]),
)
def test_fused_multi_clock_dictionary_matches_per_suspect_loop(
    circuit_seed, seed, kernel
):
    """Multi-clock dictionaries built through fused chunks (of random
    size) equal the one-replay-per-(suspect, pattern) construction."""
    from repro.timing import simulate_pattern_set

    circuit = generate_circuit(
        GeneratorConfig(n_inputs=6, n_outputs=4, n_gates=45, target_depth=7,
                        seed=circuit_seed % 64)
    )
    timing = CircuitTiming(circuit, SampleSpace(n_samples=32, seed=5))
    rng = np.random.default_rng(seed)
    pairs = [
        (rng.integers(0, 2, len(circuit.inputs)),
         rng.integers(0, 2, len(circuit.inputs)))
        for _ in range(4)
    ]
    edges = list(circuit.edges)
    suspects = [edges[i] for i in sorted(
        rng.choice(len(edges), min(len(edges), 14), replace=False)
    )]
    sizes = rng.uniform(0.0, 3.0, timing.space.n_samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TIMING_KERNEL", kernel)
        sims = simulate_pattern_set(timing, pairs)
        settle = np.concatenate([
            _rows(sim.stable, circuit.outputs).ravel() for sim in sims
        ])
        clks = sorted(float(c) for c in np.quantile(settle, [0.5, 0.8, 0.95]))
        dictionary = build_multi_clock_dictionary(
            timing, pairs, clks, suspects, sizes, base_simulations=sims,
            parallel=ParallelConfig(
                "serial", chunk_size=int(rng.integers(1, 8))
            ),
        )
        n_patterns = len(sims)
        for edge in suspects:
            cone = circuit.fanout_cone(edge.sink)
            want = np.zeros_like(dictionary.m_crt)
            for column, sim in enumerate(sims):
                patched = resimulate_with_extra(
                    sim, {timing.edge_index[edge]: sizes}, affected=cone
                )
                for block, clk in enumerate(clks):
                    col = block * n_patterns + column
                    want[:, col] = (
                        patched.error_vector(clk) - dictionary.m_crt[:, col]
                    )
            got = dictionary.signatures[edge]
            assert got.tobytes() == want.tobytes(), edge


# ----------------------------------------------------------------------
# whole-dictionary bit-identity (the workload the kernel exists for)
# ----------------------------------------------------------------------
def _dictionary_case(timing, seed=0):
    from repro.atpg import generate_path_tests
    from repro.timing import diagnosis_clock, simulate_pattern_set

    circuit = timing.circuit
    patterns = None
    for site in circuit.edges[::19]:
        extra, _ = generate_path_tests(timing, site, n_paths=3, rng_seed=seed)
        if patterns is None:
            patterns = extra
        else:
            for index in range(len(extra)):
                try:
                    patterns.append(
                        extra.pairs[index][0],
                        extra.pairs[index][1],
                        extra.sources[index],
                    )
                except ValueError:
                    pass
        if len(patterns) >= 8:
            break
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    sizes = np.full(timing.space.n_samples, 0.9)
    return patterns, clk, list(circuit.edges), sizes


def _same_dictionary(a, b):
    return np.array_equal(a.m_crt, b.m_crt) and all(
        np.array_equal(a.signatures[e], b.signatures[e]) for e in a.suspects
    )


class TestDictionaryIdentical:
    def _build(self, timing, kernel, monkeypatch, multi=False, **kwargs):
        from repro.timing import simulate_pattern_set

        monkeypatch.setenv("REPRO_TIMING_KERNEL", kernel)
        patterns, clk, suspects, sizes = _dictionary_case(timing)
        sims = simulate_pattern_set(timing, list(patterns))
        if multi:
            return build_multi_clock_dictionary(
                timing, patterns, [clk, clk * 1.05], suspects, sizes,
                base_simulations=sims, **kwargs,
            )
        return build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, **kwargs,
        )

    def test_single_clock(self, small_timing, monkeypatch):
        reference = self._build(small_timing, "reference", monkeypatch)
        compiled = self._build(small_timing, "compiled", monkeypatch)
        assert _same_dictionary(reference, compiled)

    def test_multi_clock(self, small_timing, monkeypatch):
        reference = self._build(small_timing, "reference", monkeypatch, multi=True)
        compiled = self._build(small_timing, "compiled", monkeypatch, multi=True)
        assert _same_dictionary(reference, compiled)

    @pytest.mark.slow
    def test_benchmark_circuit(self, bench_timing, monkeypatch):
        reference = self._build(bench_timing, "reference", monkeypatch, multi=True)
        compiled = self._build(bench_timing, "compiled", monkeypatch, multi=True)
        assert _same_dictionary(reference, compiled)

    @pytest.mark.slow
    def test_parallel_backends(self, small_timing, monkeypatch):
        """Compiled kernel inside thread/process workers == serial reference."""
        serial = self._build(small_timing, "reference", monkeypatch)
        for backend in ("thread", "process"):
            parallel = self._build(
                small_timing, "compiled", monkeypatch,
                parallel=ParallelConfig(backend=backend, n_workers=2),
            )
            assert _same_dictionary(serial, parallel), backend

    def test_signature_storage_invariants(self, small_timing, monkeypatch):
        """Dead suspects share one read-only zero matrix; live suspects get
        private (arena-view) rows that never alias one another."""
        compiled = self._build(small_timing, "compiled", monkeypatch)
        live_keys = set()
        for edge in compiled.suspects:
            signature = compiled.signatures[edge]
            if not signature.flags.writeable:
                assert not signature.any()
                continue
            key = (
                signature.__array_interface__["data"][0]
                if signature.base is None
                else (id(signature.base),
                      signature.__array_interface__["data"][0])
            )
            assert key not in live_keys
            live_keys.add(key)


# ----------------------------------------------------------------------
# memoization (the satellite caches) — one computation per circuit
# ----------------------------------------------------------------------
class TestMemoization:
    def test_compile_circuit_runs_once(self, small_synth):
        first = compile_circuit(small_synth)
        assert compile_circuit(small_synth) is first

    def test_edge_offsets_memoized(self, small_synth):
        from repro.timing import edge_offsets

        assert edge_offsets(small_synth) is edge_offsets(small_synth)

    def test_fanout_cone_memoized(self, small_synth):
        sink = small_synth.edges[4].sink
        assert small_synth.fanout_cone(sink) is small_synth.fanout_cone(sink)

    def test_topological_index_memoized_and_consistent(self, small_synth):
        index = small_synth.topological_index
        assert small_synth.topological_index is index
        order = small_synth.topological_order
        assert [order[index[name]] for name in order] == list(order)

    def test_fanout_cone_is_topologically_sorted(self, small_synth):
        index = small_synth.topological_index
        for edge in small_synth.edges[::7]:
            cone = small_synth.fanout_cone(edge.sink)
            positions = [index[net] for net in cone]
            assert positions == sorted(positions)

    def test_schedule_and_cone_reuse_counted(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 12)
        with obs.use_recorder(obs.Recorder()) as recorder:
            base = simulate_transition(small_timing, v1, v2)
            simulate_transition(small_timing, v1, v2)
            assert recorder.counter_value("kernel.schedules_built") == 1
            assert recorder.counter_value("kernel.schedule_reuse") == 1
            cone = small_timing.circuit.fanout_cone(
                small_timing.circuit.edges[3].sink
            )
            resimulate_with_extra(base, {3: 0.5}, affected=cone)
            resimulate_with_extra(base, {3: 0.7}, affected=cone)
            assert recorder.counter_value("kernel.cone_schedules") == 1
            assert recorder.counter_value("kernel.cone_reuse") == 1


# ----------------------------------------------------------------------
# compiled result containers
# ----------------------------------------------------------------------
class TestStableContainers:
    def test_stable_mapping_protocol(self, c17_timing):
        v1, v2 = _vectors(c17_timing.circuit, 0)
        compiled = simulate_transition(c17_timing, v1, v2)
        assert isinstance(compiled.stable, StableTimes)
        assert len(compiled.stable) == len(c17_timing.circuit.topological_order)
        for net in compiled.stable:
            assert compiled.stable[net].shape == (c17_timing.space.n_samples,)

    def test_take_rows_matches_stack(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 13)
        compiled = simulate_transition(small_timing, v1, v2)
        nets = list(small_timing.circuit.outputs)
        assert np.array_equal(
            compiled.stable.take_rows(nets),
            np.stack([compiled.stable[net] for net in nets]),
        )
        replay = resimulate_with_extra(compiled, {5: 0.5})
        assert isinstance(replay.stable, ConeStableTimes)
        assert np.array_equal(
            replay.stable.take_rows(nets),
            np.stack([replay.stable[net] for net in nets]),
        )

    def test_schedule_transitions_vector(self, small_timing):
        v1, v2 = _vectors(small_timing.circuit, 14)
        compiled = simulate_transition(small_timing, v1, v2)
        schedule = compiled.kernel_state
        order = small_timing.circuit.topological_order
        expected = np.array(
            [compiled.val1[n] != compiled.val2[n] for n in order]
        )
        assert np.array_equal(schedule.transitions, expected)
        assert schedule.n_net_transitions == int(expected.sum())

    def test_transition_matrix_fast_path_matches_fallback(self, small_timing):
        from repro.core.dictionary import _transition_matrix

        circuit = small_timing.circuit
        pairs = _vectors(circuit, 15, count=3)
        compiled = [simulate_transition(small_timing, v1, v2) for v1, v2 in pairs]
        reference = [
            simulate_transition_reference(small_timing, v1, v2)
            for v1, v2 in pairs
        ]
        assert np.array_equal(
            _transition_matrix(circuit, compiled),
            _transition_matrix(circuit, reference),
        )
