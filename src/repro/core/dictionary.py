"""The probabilistic fault dictionary (paper Sections C-1, E; Definition E.1).

For the defect-free model the dictionary holds ``M_crt = Err_M(C, TP, clk)``;
for every suspect fault ``i`` it holds the signature probability matrix

    ``S_crt(i) = Err_M(D_i(C), TP, clk) - M_crt``

the suspect's *additional contribution* to each output/pattern critical
probability.  Construction cost is dominated by the per-suspect dynamic
re-simulations; two structural facts keep it tractable:

* logic values never change under a delay defect, so only settle times in
  the suspect edge's fanout cone need re-evaluation
  (:func:`repro.timing.dynamic.resimulate_with_extra`),
* a suspect can only affect patterns that launch a transition through its
  edge, and only outputs in its fanout cone — other entries are copied
  from ``M_crt`` without simulation.

On top of that, construction exploits three scaling levers (all
preserving bit-exact results):

* **cone batching** — suspects sharing a sink net share their fanout
  cone, their affected-output set, and the per-pattern transition gating;
  that per-sink activity plan is computed once and reused by every
  suspect (and every clock of a sweep) on the cone,
* **parallel fan-out** — suspects are independent, so signature chunks
  fan out across worker processes (:mod:`repro.core.parallel`); results
  reassemble in suspect order, making parallel builds bit-identical to
  serial ones,
* **content-addressed caching** — the finished ``M_crt`` + signatures
  can be persisted keyed on everything they depend on
  (:mod:`repro.core.cache`), so clock sweeps, repeated diagnoses and the
  Section I protocol skip rebuilds entirely.

The monotonicity ``err_ij >= crt_ij`` noted in the paper holds *exactly*
per Monte-Carlo sample here (extra delay can only increase settle times),
so signatures are non-negative by construction.

Construction is instrumented through :mod:`repro.obs` (spans
``dictionary.build`` > ``dictionary.signatures`` > ``parallel.map``,
``dictionary.*`` counters and convergence meters); with no recorder
installed every hook is a no-op and the build is bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Circuit, Edge
from ..timing.critical import simulate_pattern_set
from ..timing.dynamic import (
    TransitionSimResult,
    replay_chunk,
    replay_sizes,
)
from ..timing.instance import CircuitTiming
from ..atpg.patterns import PatternPairSet
from ..sampling import (
    CellAllocator,
    SamplerConfig,
    SizeDistribution,
    resolve_sampler,
)
from .. import obs
from .cache import DictionaryStore, dictionary_cache_key, resolve_cache
from .error_functions import live_rows
from .parallel import ParallelConfig, map_chunked, resolve_parallel

__all__ = [
    "ProbabilisticFaultDictionary",
    "build_dictionary",
    "build_multi_clock_dictionary",
]


@dataclass
class ProbabilisticFaultDictionary:
    """Per-suspect signature matrices plus the defect-free error matrix.

    ``m_crt`` is ``|O| x |TP|``; ``signatures[edge]`` has the same shape.
    ``size_samples`` records the defect-size population assumed while
    building (the diagnosis has to guess the unknown size distribution;
    Definition D.8's discussion, point 4).
    """

    timing: CircuitTiming
    clk: float
    m_crt: np.ndarray
    suspects: List[Edge]
    signatures: Dict[Edge, np.ndarray]
    size_samples: np.ndarray
    #: Per-suspect allocation accounting when built with a non-plain
    #: sampler (mode, round size, samples/rounds per suspect, degeneracy
    #: events); ``None`` for plain builds and cache-served results.
    sampling_report: Optional[Dict] = None
    #: Prebuilt ``(n_suspects, n_outputs, n_cols)`` signature stack —
    #: populated zero-copy when the dictionary was served from an mmap
    #: :class:`~repro.core.cache.DictionaryStore`; lazily stacked
    #: otherwise.  Batched diagnosis reads suspects through this.
    _signature_stack: Optional[np.ndarray] = None
    #: Memoized ``m_crt + signature_stack()`` and its live-row mask (see
    #: :meth:`error_stack` / :meth:`live_rows`).
    _error_stack: Optional[np.ndarray] = None
    _live_rows: Optional[np.ndarray] = None

    @property
    def circuit(self) -> Circuit:
        return self.timing.circuit

    def signature(self, edge: Edge) -> np.ndarray:
        return self.signatures[edge]

    def e_crt(self, edge: Edge) -> np.ndarray:
        """``Err_M(D_s(C), TP, clk)`` for one suspect."""
        return self.m_crt + self.signatures[edge]

    def signature_stack(self) -> np.ndarray:
        """All signatures as one ``(n_suspects, n_out, n_cols)`` array.

        Row ``i`` is bit-identical to ``signatures[suspects[i]]``.  The
        stack is what the vectorized batch scorer
        (:func:`repro.core.diagnosis.diagnose_batch`) broadcasts against;
        store-served dictionaries return the mmapped pages themselves
        (zero copy), built ones stack once and memoize.
        """
        if self._signature_stack is None:
            if self.suspects:
                stack = np.stack(
                    [self.signatures[edge] for edge in self.suspects]
                )
            else:
                stack = np.zeros((0,) + self.m_crt.shape, self.m_crt.dtype)
            stack.setflags(write=False)
            self._signature_stack = stack
        return self._signature_stack

    def error_stack(self) -> np.ndarray:
        """All ``E_crt`` matrices as one ``(n_suspects, n_out, n_cols)`` array.

        Row ``i`` is bit-identical to ``e_crt(suspects[i])`` (the
        broadcast add performs the same elementwise additions).  Built
        once and memoized, like :meth:`signature_stack`; the service
        builds it at warm-up and reload, so queries only score.
        """
        if self._error_stack is None:
            stack = self.m_crt[None, :, :] + self.signature_stack()
            stack.setflags(write=False)
            self._error_stack = stack
        return self._error_stack

    def live_rows(self) -> np.ndarray:
        """``(n_out,)`` mask of the outputs some suspect's ``E`` can fail.

        The rows outside it are zero for every suspect; the row-product
        error functions skip them exactly
        (:func:`repro.core.error_functions.batched_scores`).
        """
        if self._live_rows is None:
            live = live_rows(self.error_stack())
            live.setflags(write=False)
            self._live_rows = live
        return self._live_rows

    def __len__(self) -> int:
        return len(self.suspects)


# ----------------------------------------------------------------------
# the signature kernel
# ----------------------------------------------------------------------
#: Per-sink activity plan: the fanout-cone net list plus, per pattern
#: column that toggles the sink, the (output rows, output nets) that can
#: carry the suspect's effect.  Shared by every suspect on the sink.
_SinkPlan = Tuple[List[str], List[Tuple[int, np.ndarray, List[str]]]]


@dataclass
class _SignatureJob:
    """Everything a worker needs to compute signature chunks.

    Shipped to each worker process once (pool initializer), after which
    task messages carry only suspect-index ranges.
    """

    base_simulations: Sequence[TransitionSimResult]
    clks: Tuple[float, ...]
    size_samples: np.ndarray
    suspects: List[Edge]
    edge_indices: List[int]
    m_crt: np.ndarray
    plan_by_sink: Dict[str, _SinkPlan]


def _transition_matrix(
    circuit: Circuit, base_simulations: Sequence[TransitionSimResult]
) -> np.ndarray:
    """``(n_sims, n_nets)`` bool: did net (topological index) toggle?"""
    names = circuit.topological_order
    n = len(names)
    matrix = np.empty((len(base_simulations), n), dtype=bool)
    for row, sim in enumerate(base_simulations):
        # Compiled-kernel results carry the per-net transition vector in
        # net-row (= topological) order already; reuse it instead of
        # re-deriving from the value dicts.
        precomputed = getattr(
            getattr(sim, "kernel_state", None), "transitions", None
        )
        if precomputed is not None and len(precomputed) == n:
            matrix[row] = precomputed
            continue
        val1, val2 = sim.val1, sim.val2
        v1 = np.fromiter((val1[name] for name in names), np.int8, count=n)
        v2 = np.fromiter((val2[name] for name in names), np.int8, count=n)
        np.not_equal(v1, v2, out=matrix[row])
    return matrix


def _sink_plan(
    circuit: Circuit,
    transitioned: np.ndarray,
    output_row: Dict[str, int],
    sink: str,
) -> _SinkPlan:
    """Compute the shared activity plan for all suspects into ``sink``.

    ``transitioned`` is the :func:`_transition_matrix` of the base
    simulations — one vectorized row probe per (sink, pattern) instead of
    a Python loop over every reachable output.
    """
    cone = circuit.fanout_cone(sink)
    affected = [(output_row[net], net) for net in cone if net in output_row]
    activity: List[Tuple[int, np.ndarray, List[str]]] = []
    if affected:
        topo_index = circuit.topological_index
        affected_cols = np.array(
            [topo_index[net] for _row, net in affected], dtype=np.int64
        )
        # The defect only matters when the test launches a transition
        # through the defective segment's sink gate; extra delay never
        # changes logic values, so an output that does not transition
        # under the base simulation cannot transition under the defect.
        for column in np.flatnonzero(transitioned[:, topo_index[sink]]):
            live = np.flatnonzero(transitioned[column, affected_cols])
            if live.size:
                activity.append(
                    (
                        int(column),
                        np.array([affected[i][0] for i in live]),
                        [affected[i][1] for i in live],
                    )
                )
    return cone, activity


def _signatures_for_chunk(
    job: _SignatureJob, indices: Sequence[int]
) -> List[np.ndarray]:
    """Signature matrices for one chunk of suspect indices (worker body).

    Every (sink, active pattern column) of the chunk's suspects becomes
    one request of a single :func:`~repro.timing.dynamic.replay_chunk`
    call: the suspects on a sink share its cone and activity plan, and
    the compiled kernel replays every (suspect, column) pair of the chunk
    in one fused, level-synchronous pass.  The error rows of all of them
    come from one vectorized comparison per clock and land in a per-chunk
    signature arena through one scatter.
    """
    n_patterns = len(job.base_simulations)
    results: List[Optional[np.ndarray]] = [None] * len(indices)
    shared_zero: Optional[np.ndarray] = None
    by_sink: Dict[str, List[int]] = {}
    for slot, index in enumerate(indices):
        by_sink.setdefault(job.suspects[index].sink, []).append(slot)
    requests = []
    # Per request: its suspects' first arena row and count, its pattern
    # column and the output rows its read-out nets land on.
    first_live: List[int] = []
    n_suspects: List[int] = []
    columns: List[int] = []
    out_rows: List[np.ndarray] = []
    live_slots: List[int] = []
    for sink, slots in by_sink.items():
        cone, activity = job.plan_by_sink[sink]
        if not activity:
            # No pattern toggles this sink: the signature is identically
            # zero.  All such suspects in a chunk share one read-only
            # matrix — a dictionary over every edge of a large circuit is
            # mostly dead suspects, so this dominates allocation.
            if shared_zero is None:
                shared_zero = np.zeros(job.m_crt.shape, dtype=job.m_crt.dtype)
                shared_zero.setflags(write=False)
            for slot in slots:
                results[slot] = shared_zero
            continue
        edge_indices = [job.edge_indices[indices[slot]] for slot in slots]
        for column, rows, nets in activity:
            requests.append((column, edge_indices, cone, nets))
            first_live.append(len(live_slots))
            n_suspects.append(len(slots))
            columns.append(column)
            out_rows.append(rows)
        live_slots.extend(slots)
    if not requests:
        return results

    # Live suspects are rows of one zeroed arena: a view per suspect
    # instead of an allocate-and-memset of a mostly unwritten matrix.
    arena = np.zeros((len(live_slots),) + job.m_crt.shape, dtype=job.m_crt.dtype)
    for row, slot in enumerate(live_slots):
        results[slot] = arena[row]
    settle = replay_chunk(job.base_simulations, requests, job.size_samples)

    # Settle row q belongs to request r = request[q]; within r it is
    # suspect e and read-out net j, with q - start[r] = e * n_nets[r] + j.
    n_nets = np.array([len(rows) for rows in out_rows], dtype=np.int64)
    per_request = n_nets * np.array(n_suspects, dtype=np.int64)
    request = np.repeat(np.arange(len(requests)), per_request)
    start = np.cumsum(per_request) - per_request
    suspect, net = np.divmod(
        np.arange(len(settle), dtype=np.int64) - start[request],
        n_nets[request],
    )
    net_start = np.cumsum(n_nets) - n_nets
    arena_row = np.array(first_live, dtype=np.int64)[request] + suspect
    out_row = np.concatenate(out_rows)[net_start[request] + net]
    column = np.array(columns, dtype=np.int64)[request]
    for block, clk in enumerate(job.clks):
        col = block * n_patterns + column
        arena[arena_row, out_row, col] = (
            (settle > clk).mean(axis=1) - job.m_crt[out_row, col]
        )
    return results


@dataclass
class _SampledSignatureJob:
    """The plain signature job plus everything the sampled path adds."""

    job: _SignatureJob
    sampler: SamplerConfig
    distribution: SizeDistribution
    seed: int
    round_size: int


@dataclass
class _SampledSignature:
    """One suspect's sampled signature plus its allocation accounting."""

    signature: np.ndarray
    samples_spent: int
    rounds: int
    degenerate_rounds: int
    min_ess_fraction: float
    converged: bool


def _sampled_signatures_for_chunk(
    sampled_job: _SampledSignatureJob, indices: Sequence[int]
) -> List[_SampledSignature]:
    """Importance-sampled signatures for one chunk of suspect indices.

    One :class:`~repro.sampling.CellAllocator` per (suspect, clock) cell
    group covers every entry the suspect can touch at that clock; all
    entries of a cell share each round's defect-size draw (common random
    numbers across patterns, exactly like the plain path shares
    ``size_samples``).  RNG streams are keyed by global suspect index,
    clock index and round, so chunking and backend never change a draw.

    Sampled signatures are clipped at 0: the plain path's structural
    invariant ``err >= crt`` holds per sample there, and projecting the
    noisy estimate onto that constraint only reduces its error.
    """
    job = sampled_job.job
    sampler = sampled_job.sampler
    distribution = sampled_job.distribution
    n_patterns = len(job.base_simulations)
    fixed_rounds = sampler.is_rounds if sampler.mode == "is" else None
    results: List[_SampledSignature] = []
    shared_zero: Optional[np.ndarray] = None
    for index in indices:
        edge = job.suspects[index]
        edge_index = job.edge_indices[index]
        cone, activity = job.plan_by_sink[edge.sink]
        if not activity:
            if shared_zero is None:
                shared_zero = np.zeros(job.m_crt.shape, dtype=job.m_crt.dtype)
                shared_zero.setflags(write=False)
            results.append(
                _SampledSignature(shared_zero, 0, 0, 0, 1.0, True)
            )
            continue
        signature = np.zeros(job.m_crt.shape, dtype=job.m_crt.dtype)
        # Median base settle per tracked entry (clock-independent): the
        # proposal shift for a clock targets the defect size a median
        # chip instance needs to push the cell's hardest entry past it.
        median_settles: List[np.ndarray] = []
        for column, _rows, nets in activity:
            stable = job.base_simulations[column].stable
            take = getattr(stable, "take_rows", None)
            stacked = (
                take(nets)
                if take is not None
                else np.stack([stable[net] for net in nets])
            )
            median_settles.append(np.median(stacked, axis=1))
        min_median = min(float(row.min()) for row in median_settles)
        n_entries = sum(len(rows) for _column, rows, _nets in activity)

        samples_spent = 0
        rounds = 0
        degenerate_rounds = 0
        min_ess = 1.0
        converged = True
        for clk_index, clk in enumerate(job.clks):
            allocator = CellAllocator(
                sampler,
                distribution,
                clk - min_median,
                seed=sampled_job.seed,
                suspect_index=index,
                clk_index=clk_index,
                n_entries=n_entries,
                round_size=sampled_job.round_size,
            )
            if fixed_rounds is not None:
                # Fixed-round IS: the proposal never changes mid-build,
                # so all rounds draw upfront and each (pattern) cone
                # replays the whole batch at once.
                draws = [allocator.draw(r) for r in range(fixed_rounds)]
                blocks = [
                    replay_sizes(
                        job.base_simulations[column],
                        edge_index,
                        [x for x, _w in draws],
                        cone,
                        nets,
                    )
                    for column, _rows, nets in activity
                ]
                for round_index, (_x, weights) in enumerate(draws):
                    allocator.commit(
                        weights,
                        np.concatenate(
                            [block[round_index] > clk for block in blocks],
                            axis=0,
                        ),
                    )
            else:
                while True:
                    x, weights = allocator.draw(allocator.rounds)
                    parts = [
                        replay_sizes(
                            job.base_simulations[column],
                            edge_index,
                            [x],
                            cone,
                            nets,
                        )[0]
                        > clk
                        for column, _rows, nets in activity
                    ]
                    allocator.commit(weights, np.concatenate(parts, axis=0))
                    if allocator.should_stop():
                        break
            estimates = allocator.estimates()
            offset = 0
            for column, rows, _nets in activity:
                col = clk_index * n_patterns + column
                signature[rows, col] = np.maximum(
                    estimates[offset : offset + len(rows)]
                    - job.m_crt[rows, col],
                    0.0,
                )
                offset += len(rows)
            report = allocator.report()
            samples_spent += report.samples_spent
            rounds += report.rounds
            degenerate_rounds += report.degenerate_rounds
            min_ess = min(min_ess, report.ess_fraction)
            converged = converged and report.converged
        results.append(
            _SampledSignature(
                signature,
                samples_spent,
                rounds,
                degenerate_rounds,
                min_ess,
                converged,
            )
        )
    return results


def build_multi_clock_dictionary(
    timing: CircuitTiming,
    patterns: Union[PatternPairSet, Sequence],
    clks: Sequence[float],
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    clk_attribute: Optional[float] = None,
    sampler: Optional[Union[SamplerConfig, str]] = None,
    size_distribution: Optional[SizeDistribution] = None,
) -> ProbabilisticFaultDictionary:
    """The shared construction kernel behind single-clock dictionaries and
    clock sweeps.

    ``m_crt`` and every signature are laid out clock-major: column block
    ``b`` holds all patterns thresholded at ``clks[b]``.  ``clk_attribute``
    sets the metadata ``clk`` field of the result (defaults to the
    tightest clock).  ``parallel`` picks the execution backend
    (:func:`repro.core.parallel.resolve_parallel` semantics) and ``cache``
    an optional dictionary cache (:func:`repro.core.cache.resolve_cache`
    semantics); both default to the ``REPRO_*`` environment.

    ``sampler`` selects the signature estimator
    (:func:`repro.sampling.resolve_sampler` semantics — a config, a mode
    name, or the ``REPRO_SAMPLER`` environment; default ``plain``).  The
    plain path is untouched — same code, same cache keys, bit-identical
    results.  Non-plain modes estimate signatures by importance sampling
    with adaptive per-suspect allocation and require
    ``size_distribution``, the nominal defect-size law the likelihood
    ratios are exact against; ``m_crt`` is computed exactly either way
    (it never depends on defect sizes).  Non-plain cache keys include the
    sampler configuration; cache-served results drop the
    ``sampling_report``.
    """
    circuit = timing.circuit
    sampler_config = resolve_sampler(sampler)
    sampled = not sampler_config.is_plain
    if sampled and size_distribution is None:
        raise ValueError(
            "sampler mode %r requires a size_distribution (the nominal "
            "defect-size law the likelihood ratios are exact against); "
            "pass e.g. SingleDefectModel.dictionary_size_distribution()"
            % sampler_config.mode
        )
    size_samples = np.asarray(size_samples, dtype=float)
    if size_samples.shape != (timing.space.n_samples,):
        raise ValueError("size_samples must cover the full sample space")
    if not clks:
        raise ValueError("need at least one clock")
    clks = tuple(float(clk) for clk in clks)
    if clk_attribute is None:
        clk_attribute = min(clks)
    suspects = list(suspects)
    pattern_list = list(patterns)

    def _assemble(
        m_crt: np.ndarray,
        signature_list: Sequence[np.ndarray],
        sampling_report: Optional[Dict] = None,
        signature_stack: Optional[np.ndarray] = None,
    ) -> ProbabilisticFaultDictionary:
        return ProbabilisticFaultDictionary(
            timing=timing,
            clk=clk_attribute,
            m_crt=m_crt,
            suspects=suspects,
            signatures=dict(zip(suspects, signature_list)),
            size_samples=size_samples,
            sampling_report=sampling_report,
            _signature_stack=signature_stack,
        )

    recorder = obs.get_recorder()
    with recorder.span("dictionary.build"):
        store = resolve_cache(cache)
        key = None
        if store is not None:
            with recorder.span("dictionary.cache_lookup"):
                key = dictionary_cache_key(
                    timing,
                    pattern_list,
                    clks,
                    suspects,
                    size_samples,
                    sampler_token=(
                        sampler_config.cache_token(size_distribution)
                        if sampled
                        else None
                    ),
                )
                payload = store.load(key)
            if payload is not None:
                recorder.count("dictionary.cache_served")
                # The store hands the signature stack over zero-copy
                # (rows 1.. of its payload array); batch diagnosis then
                # scores straight off the shared pages.
                return _assemble(
                    payload["m_crt"],
                    payload["signatures"],
                    signature_stack=payload["stack"][1:],
                )

        if base_simulations is None:
            with recorder.span("dictionary.base_simulation"):
                base_simulations = simulate_pattern_set(timing, pattern_list)
        if len(base_simulations) != len(pattern_list):
            raise ValueError("one base simulation per pattern required")

        n_patterns = len(pattern_list)
        with recorder.span("dictionary.m_crt"):
            m_crt = np.zeros((len(circuit.outputs), n_patterns * len(clks)))
            for block, clk in enumerate(clks):
                for column, sim in enumerate(base_simulations):
                    m_crt[:, block * n_patterns + column] = sim.error_vector(clk)

        recorder.count("dictionary.builds")
        recorder.count("dictionary.suspects", len(suspects))
        recorder.count("dictionary.patterns", n_patterns)
        recorder.count("dictionary.clocks", len(clks))

        output_row = {net: row for row, net in enumerate(circuit.outputs)}
        transitioned = _transition_matrix(circuit, base_simulations)
        plan_by_sink = {
            sink: _sink_plan(circuit, transitioned, output_row, sink)
            for sink in {edge.sink for edge in suspects}
        }
        job = _SignatureJob(
            base_simulations=base_simulations,
            clks=clks,
            size_samples=size_samples,
            suspects=suspects,
            edge_indices=[timing.edge_index[edge] for edge in suspects],
            m_crt=m_crt,
            plan_by_sink=plan_by_sink,
        )
        sampling_report: Optional[Dict] = None
        if sampled:
            sampled_job = _SampledSignatureJob(
                job=job,
                sampler=sampler_config,
                distribution=size_distribution,
                seed=timing.space.seed,
                round_size=timing.space.n_samples,
            )
            with recorder.span("dictionary.signatures"):
                records = map_chunked(
                    _sampled_signatures_for_chunk, sampled_job, len(suspects),
                    resolve_parallel(parallel),
                    work_per_item=n_patterns * timing.space.n_samples,
                )
            signature_list = [record.signature for record in records]
            samples_per_suspect = [record.samples_spent for record in records]
            sampling_report = {
                "mode": sampler_config.mode,
                "round_size": timing.space.n_samples,
                "samples_per_suspect": samples_per_suspect,
                "rounds_per_suspect": [record.rounds for record in records],
                "total_samples": int(sum(samples_per_suspect)),
                "degenerate_rounds": int(
                    sum(record.degenerate_rounds for record in records)
                ),
                "min_ess_fraction": float(
                    min(
                        (record.min_ess_fraction for record in records),
                        default=1.0,
                    )
                ),
                "all_converged": all(record.converged for record in records),
            }
            if recorder.enabled:
                recorder.count(
                    "sampling.samples_spent", sampling_report["total_samples"]
                )
                recorder.count(
                    "sampling.rounds",
                    sum(sampling_report["rounds_per_suspect"]),
                )
                recorder.count(
                    "sampling.degenerate_rounds",
                    sampling_report["degenerate_rounds"],
                )
                recorder.gauge(
                    "sampling.round_size", timing.space.n_samples
                )
                if samples_per_suspect:
                    recorder.observe(
                        "sampling.samples_per_suspect",
                        np.array(samples_per_suspect, dtype=float),
                    )
        else:
            with recorder.span("dictionary.signatures"):
                # The cost hint makes auto-chunking work-aware: chunks
                # carry at least MIN_CHUNK_WORK of suspects × patterns ×
                # samples, fixing the small-granularity pool loss
                # BENCH_parallel.json recorded.
                signature_list = map_chunked(
                    _signatures_for_chunk, job, len(suspects),
                    resolve_parallel(parallel),
                    work_per_item=n_patterns * timing.space.n_samples,
                )
        if recorder.enabled:
            # Estimator-quality meters: the distribution of the per-entry
            # critical-probability estimates and of the per-suspect extra
            # signature mass, plus the sample count behind each entry.
            recorder.observe("dictionary.m_crt", m_crt.ravel())
            if signature_list:
                recorder.observe(
                    "dictionary.signature_mass",
                    np.array([s.sum() for s in signature_list]),
                )
            recorder.gauge("dictionary.n_samples", timing.space.n_samples)
        if store is not None and key is not None:
            with recorder.span("dictionary.cache_store"):
                store.store(key, m_crt, signature_list)
        return _assemble(m_crt, signature_list, sampling_report)


def build_dictionary(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clk: float,
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    sampler: Optional[Union[SamplerConfig, str]] = None,
    size_distribution: Optional[SizeDistribution] = None,
) -> ProbabilisticFaultDictionary:
    """Build the dictionary for the given suspect set.

    ``size_samples`` is the Monte-Carlo materialization of the assumed
    defect-size random variable (shared across suspects: common random
    numbers keep the suspect comparison noise-free).  Pass precomputed
    ``base_simulations`` (from :func:`simulate_pattern_set`) to reuse the
    defect-free runs.  ``parallel`` / ``cache`` opt into the worker-pool
    and on-disk-cache layers; both produce bit-identical dictionaries to
    a plain serial build.  ``sampler`` / ``size_distribution`` select the
    variance-reduced signature estimator
    (:func:`build_multi_clock_dictionary` semantics for all of them).
    """
    return build_multi_clock_dictionary(
        timing,
        patterns,
        [clk],
        suspects,
        size_samples,
        base_simulations=base_simulations,
        parallel=parallel,
        cache=cache,
        clk_attribute=clk,
        sampler=sampler,
        size_distribution=size_distribution,
    )
