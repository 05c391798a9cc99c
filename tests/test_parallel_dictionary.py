"""Serial/parallel equivalence of dictionary construction.

Parallel Monte-Carlo is notoriously easy to get silently wrong: seed
reuse across workers, worker-order float reductions, results keyed by
completion order.  These tests pin the contract that makes the parallel
layer safe to default to — for any backend, worker count and chunk size,
``m_crt`` and every suspect signature are **bit-identical**
(``np.array_equal``, not ``allclose``) to the serial build.
"""

import numpy as np
import pytest

from repro.atpg import generate_path_tests, random_pattern_pairs
from repro.core import (
    MIN_CHUNK_WORK,
    POOL_BREAK_EVEN_WORK,
    ParallelConfig,
    build_dictionary,
    build_sweep_dictionary,
    chunk_indices,
    map_chunked,
    resolve_parallel,
    suspect_edges,
)
from repro.defects import DefectSizeModel, SingleDefectModel, behavior_matrix
from repro.timing import diagnosis_clock, simulate_pattern_set


# ----------------------------------------------------------------------
# shared problem instances
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bench_case(request):
    """A realistic diagnosis case on the ISCAS89-class benchmark."""
    timing = request.getfixturevalue("bench_timing")
    model = SingleDefectModel(timing)
    defect = model.defect_at(timing.circuit.edges[120], size_mean=3.0)
    patterns, _ = generate_path_tests(timing, defect.edge, n_paths=6, rng_seed=0)
    assert len(patterns), "fixture fault site must be testable"
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    behavior = behavior_matrix(timing, patterns, clk, defect, 5)
    suspects = suspect_edges(sims, behavior)
    if not suspects:
        suspects = timing.circuit.edges[100:140]
    sizes = model.dictionary_size_variable().samples
    return timing, patterns, clk, suspects, sizes, sims


@pytest.fixture(scope="module")
def generated_case(request):
    """A random generated circuit with random two-vector patterns."""
    timing = request.getfixturevalue("small_timing_module")
    patterns = random_pattern_pairs(timing.circuit, 5, seed=3)
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(timing, list(patterns), 0.8, simulations=sims)
    suspects = timing.circuit.edges[::3]
    sizes = DefectSizeModel().size_variable(
        2.0, timing.space, rng=np.random.default_rng(9)
    ).samples
    return timing, patterns, clk, suspects, sizes, sims


@pytest.fixture(scope="module")
def small_timing_module(small_synth):
    from repro.timing import CircuitTiming, SampleSpace

    return CircuitTiming(small_synth, SampleSpace(n_samples=80, seed=0))


def _assert_identical(reference, candidate):
    assert np.array_equal(reference.m_crt, candidate.m_crt)
    assert reference.suspects == candidate.suspects
    for edge in reference.suspects:
        assert np.array_equal(
            reference.signatures[edge], candidate.signatures[edge]
        ), f"signature mismatch at {edge}"


# ----------------------------------------------------------------------
# the equivalence property
# ----------------------------------------------------------------------
class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("case", ["bench_case", "generated_case"])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 10_000])
    def test_process_backend_bit_identical(
        self, request, case, n_workers, chunk_size
    ):
        timing, patterns, clk, suspects, sizes, sims = request.getfixturevalue(case)
        assert chunk_size == 1 or chunk_size > len(suspects)
        serial = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        parallel = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            parallel=ParallelConfig(
                backend="process", n_workers=n_workers, chunk_size=chunk_size
            ),
        )
        _assert_identical(serial, parallel)

    @pytest.mark.parametrize("backend", ["thread"])
    def test_other_backends_bit_identical(self, request, backend, bench_case):
        timing, patterns, clk, suspects, sizes, sims = bench_case
        serial = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        parallel = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            parallel=ParallelConfig(backend=backend, n_workers=2, chunk_size=3),
        )
        _assert_identical(serial, parallel)

    def test_sweep_dictionary_parallel_identical(self, bench_case):
        timing, patterns, clk, suspects, sizes, sims = bench_case
        clks = [clk * 0.95, clk, clk * 1.05]
        serial = build_sweep_dictionary(
            timing, patterns, clks, suspects, sizes, base_simulations=sims
        )
        parallel = build_sweep_dictionary(
            timing, patterns, clks, suspects, sizes, base_simulations=sims,
            parallel=ParallelConfig(backend="process", n_workers=2, chunk_size=2),
        )
        _assert_identical(serial, parallel)

    def test_parallel_pattern_simulation_matches_serial(self, bench_case):
        timing, patterns, _clk, _suspects, _sizes, sims = bench_case
        fanned = simulate_pattern_set(
            timing, list(patterns),
            parallel=ParallelConfig(backend="process", n_workers=2, chunk_size=1),
        )
        assert len(fanned) == len(sims)
        for serial_sim, parallel_sim in zip(sims, fanned):
            assert serial_sim.val2 == parallel_sim.val2
            for net in timing.circuit.outputs:
                assert np.array_equal(
                    serial_sim.stable[net], parallel_sim.stable[net]
                )


# ----------------------------------------------------------------------
# executor plumbing
# ----------------------------------------------------------------------
def _double_chunk(payload, indices):
    return [payload * index for index in indices]


class TestExecutor:
    def test_chunk_indices_cover_in_order(self):
        for n_items in (0, 1, 7, 16):
            for chunk_size in (1, 3, 100):
                chunks = chunk_indices(n_items, chunk_size, n_workers=4)
                flat = [index for chunk in chunks for index in chunk]
                assert flat == list(range(n_items))

    def test_chunk_indices_auto_size(self):
        chunks = chunk_indices(100, None, n_workers=4)
        assert [index for chunk in chunks for index in chunk] == list(range(100))
        assert len(chunks) >= 4

    def test_map_chunked_preserves_order(self):
        for backend in ("serial", "process", "thread"):
            config = ParallelConfig(backend=backend, n_workers=2, chunk_size=2)
            result = map_chunked(_double_chunk, 3, 9, config)
            assert result == [3 * index for index in range(9)]

    def test_resolve_from_environment(self, monkeypatch):
        assert resolve_parallel(None).backend == "serial"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_CHUNK", "5")
        config = resolve_parallel(None)
        assert config.backend == "process"
        assert config.workers == 3
        assert config.chunk_size == 5
        # explicit config beats environment
        assert resolve_parallel(ParallelConfig()).is_serial
        assert resolve_parallel("thread").backend == "thread"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(backend="gpu")
        with pytest.raises(ValueError):
            ParallelConfig(n_workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(chunk_size=0)

    def test_futures_is_an_unknown_backend(self, monkeypatch):
        """The retired ``futures`` alias of ``process`` fails exactly like
        any other unknown backend name."""
        messages = {}
        for name in ("futures", "gpu"):
            monkeypatch.setenv("REPRO_PARALLEL_BACKEND", name)
            with pytest.raises(ValueError) as caught:
                resolve_parallel(None)
            messages[name] = str(caught.value).replace(repr(name), "NAME")
        assert messages["futures"] == messages["gpu"]


class TestWorkAwareChunking:
    """The auto chunk size must scale with per-item work, not item count.

    A dictionary build over S suspects does S × patterns × samples units
    of simulation; chunking purely by suspect count sends microscopic
    chunks through the pool and the IPC overhead eats the speedup
    (BENCH_parallel.json documents the losses).  The ``work_per_item``
    hint floors the auto chunk size at ``MIN_CHUNK_WORK`` units per
    chunk.  These counts are pinned: a change here silently shifts every
    parallel build's granularity.
    """

    def _n_chunks(self, n_items, work_per_item):
        return len(
            chunk_indices(
                n_items, None, n_workers=4, work_per_item=work_per_item
            )
        )

    def test_no_hint_keeps_the_oversubscription_split(self):
        # ceil(100 / (4 workers * 4)) = 7 items/chunk -> 15 chunks
        assert self._n_chunks(100, None) == 15

    def test_tiny_items_coalesce_into_one_chunk(self):
        # floor = ceil(32768/16) = 2048 items, capped at n_items -> 1 chunk
        assert self._n_chunks(100, 16) == 1

    def test_moderate_items_coalesce_partially(self):
        # floor = ceil(32768/4096) = 8 > base 7 -> 13 chunks of <= 8
        assert self._n_chunks(100, 4096) == 13

    def test_heavy_items_keep_the_fine_split(self):
        # floor = 1: a single item already exceeds MIN_CHUNK_WORK, so the
        # latency-balancing split wins unchanged
        assert self._n_chunks(100, MIN_CHUNK_WORK) == 15
        assert self._n_chunks(100, 10 * MIN_CHUNK_WORK) == 15

    def test_explicit_chunk_size_overrides_the_hint(self):
        chunks = chunk_indices(100, 5, n_workers=4, work_per_item=16)
        assert len(chunks) == 20
        assert all(len(chunk) == 5 for chunk in chunks)

    def test_hint_covers_all_items_in_order(self):
        for work in (None, 1, 100, MIN_CHUNK_WORK):
            chunks = chunk_indices(37, None, n_workers=4, work_per_item=work)
            flat = [index for chunk in chunks for index in chunk]
            assert flat == list(range(37))

    def test_map_chunked_results_identical_with_and_without_hint(self):
        config = ParallelConfig(backend="thread", n_workers=2)
        plain = map_chunked(_double_chunk, 3, 9, config)
        hinted = map_chunked(_double_chunk, 3, 9, config, work_per_item=10)
        assert plain == hinted == [3 * index for index in range(9)]


class _PoolConstructed(Exception):
    """Raised by the patched ``ProcessPoolExecutor``: a pool was built."""


class TestWorkAwareDispatch:
    """A hinted, auto-chunked map below ``POOL_BREAK_EVEN_WORK`` runs
    in-process; every other call still reaches the configured pool."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise _PoolConstructed

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    def _build(self, bench_case, parallel):
        timing, patterns, clk, suspects, sizes, sims = bench_case
        return build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            parallel=parallel,
        )

    def test_small_process_build_never_constructs_a_pool(
        self, bench_case, no_pool
    ):
        from repro import obs

        timing, patterns, _clk, suspects, _sizes, _sims = bench_case
        work = len(suspects) * len(patterns) * timing.space.n_samples
        assert work < POOL_BREAK_EVEN_WORK
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            built = self._build(
                bench_case, ParallelConfig(backend="process", n_workers=2)
            )
        _assert_identical(self._build(bench_case, None), built)
        assert recorder.counter_value("parallel.dispatch.below_break_even") == 1
        assert recorder.counter_value("parallel.process.chunks") == 0

    def test_serial_backend_is_not_counted_as_a_dispatch(self):
        from repro import obs

        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            map_chunked(_double_chunk, 3, 9, "serial", work_per_item=1)
        assert recorder.counter_value("parallel.dispatch.below_break_even") == 0

    def test_build_above_break_even_reaches_the_pool(
        self, bench_case, no_pool, monkeypatch
    ):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "POOL_BREAK_EVEN_WORK", 1)
        with pytest.raises(_PoolConstructed):
            self._build(
                bench_case, ParallelConfig(backend="process", n_workers=2)
            )

    def test_build_above_break_even_is_bit_identical(
        self, bench_case, monkeypatch
    ):
        import repro.core.parallel as parallel_module
        from repro import obs

        monkeypatch.setattr(parallel_module, "POOL_BREAK_EVEN_WORK", 1)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            pooled = self._build(
                bench_case, ParallelConfig(backend="process", n_workers=2)
            )
        _assert_identical(self._build(bench_case, None), pooled)
        assert recorder.counter_value("parallel.process.chunks") >= 1
        assert recorder.counter_value("parallel.dispatch.below_break_even") == 0

    def test_explicit_chunk_size_reaches_the_pool(self, no_pool):
        config = ParallelConfig(backend="process", n_workers=2, chunk_size=100)
        with pytest.raises(_PoolConstructed):
            map_chunked(_double_chunk, 3, 9, config, work_per_item=1)

    def test_hintless_restore_probe_reaches_the_pool(self, no_pool):
        from repro import obs
        from repro.service import DiagnosisService
        from repro.service.supervision import (
            ServiceSupervisor,
            SupervisorConfig,
        )

        supervisor = ServiceSupervisor(
            DiagnosisService(parallel="process"),
            SupervisorConfig(auto_restore=False),
        )
        supervisor._rung = "serial"  # as after a plane degradation
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            assert supervisor.restore_plane() is False
        assert recorder.counter_value("service.supervision.restore_failed") == 1


# ----------------------------------------------------------------------
# worker seed independence (the latent parallel-MC hazard)
# ----------------------------------------------------------------------
class TestWorkerSeedIndependence:
    def test_two_workers_never_see_identical_defect_size_draws(self, space):
        """Worker streams derived by spawn key must not collide — the
        classic bug is every worker re-seeding ``default_rng(seed)`` and
        drawing the *same* defect sizes."""
        model = DefectSizeModel()
        draws = [
            model.size_variable(2.0, space, rng=space.child_rng(worker)).samples
            for worker in range(4)
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_same_spawn_key_reproduces(self, space):
        a = space.child_rng(7).normal(size=32)
        b = space.child_rng(7).normal(size=32)
        assert np.array_equal(a, b)

    def test_child_rng_independent_of_space_stream_consumption(self, space):
        before = space.child_rng(1).normal(size=8)
        space.rng.normal(size=1000)  # consume the shared stream
        after = space.child_rng(1).normal(size=8)
        assert np.array_equal(before, after)

    def test_spawn_matches_child_rng(self, space):
        spawned = space.spawn(3)
        for index, generator in enumerate(spawned):
            assert np.array_equal(
                generator.normal(size=4), space.child_rng(index).normal(size=4)
            )

    def test_explicit_delay_rng_decouples_from_space_stream(self, c17):
        from repro.timing import CircuitTiming, SampleSpace

        space_a = SampleSpace(n_samples=50, seed=0)
        space_a.rng.normal(size=123)  # perturb the shared stream
        space_b = SampleSpace(n_samples=50, seed=0)
        timing_a = CircuitTiming(c17, space_a, rng=space_a.child_rng(0))
        timing_b = CircuitTiming(c17, space_b, rng=space_b.child_rng(0))
        assert np.array_equal(timing_a.delays, timing_b.delays)
