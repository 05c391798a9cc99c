"""Cross-cutting property-based tests (hypothesis).

These exercise the system-level invariants that tie the subsystems
together — the statements the reproduction's correctness actually rests
on, checked over randomized circuits, patterns and defects.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import GeneratorConfig, generate_circuit
from repro.timing import CircuitTiming, SampleSpace, analyze, simulate_transition


def small_circuit(seed):
    return generate_circuit(
        GeneratorConfig(
            n_inputs=5, n_outputs=3, n_gates=30, target_depth=5, seed=seed % 50
        )
    )


common = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_dynamic_settle_bounded_by_static_arrival(circuit_seed, vector_seed):
    """Sensitized (dynamic) settle times never exceed topological (static)
    arrival times: the induced circuit is a subcircuit."""
    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(30, 1))
    sta = analyze(timing)
    rng = np.random.default_rng(vector_seed)
    v1 = rng.integers(0, 2, len(circuit.inputs))
    v2 = rng.integers(0, 2, len(circuit.inputs))
    sim = simulate_transition(timing, v1, v2)
    for net in circuit.gates:
        assert (sim.stable[net] <= sta.arrivals[net] + 1e-9).all(), net


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_error_vector_monotone_in_clk_and_defect(circuit_seed, seed):
    """crt(clk) is non-increasing in clk and non-decreasing in defect size."""
    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(40, 2))
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, len(circuit.inputs))
    v2 = rng.integers(0, 2, len(circuit.inputs))
    edge_index = int(rng.integers(len(circuit.edges)))

    base = simulate_transition(timing, v1, v2)
    clks = sorted(rng.uniform(0.0, 10.0, size=3))
    vectors = [base.error_vector(clk) for clk in clks]
    for earlier, later in zip(vectors, vectors[1:]):
        assert (later <= earlier + 1e-12).all()

    small = simulate_transition(timing, v1, v2, extra_delay={edge_index: 0.5})
    large = simulate_transition(timing, v1, v2, extra_delay={edge_index: 2.5})
    clk = float(clks[1])
    assert (small.error_vector(clk) >= base.error_vector(clk) - 1e-12).all()
    assert (large.error_vector(clk) >= small.error_vector(clk) - 1e-12).all()


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_signature_consistency_between_builders(circuit_seed, seed):
    """The dictionary's E_crt equals a from-scratch population simulation."""
    from repro.core import build_dictionary
    from repro.defects.faultsim import population_error_matrix
    from repro.defects.model import InjectedDefect
    from repro.atpg import PatternPairSet
    from repro.timing import simulate_pattern_set

    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(30, 3))
    rng = np.random.default_rng(seed)
    patterns = PatternPairSet(circuit)
    patterns.extend_random(3, rng)
    sims = simulate_pattern_set(timing, list(patterns))
    edge = circuit.edges[int(rng.integers(len(circuit.edges)))]
    size = np.full(30, float(rng.uniform(0.5, 3.0)))
    clk = float(rng.uniform(1.0, 8.0))

    dictionary = build_dictionary(
        timing, patterns, clk, [edge], size, base_simulations=sims
    )
    defect = InjectedDefect(edge, timing.edge_index[edge], float(size[0]), size)
    direct = population_error_matrix(timing, patterns, clk, defect)
    assert np.allclose(dictionary.e_crt(edge), direct, atol=1e-12)


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_suspect_tracing_covers_firing_defects(circuit_seed, seed):
    """Any edge whose injected defect changes the behavior matrix must be
    found by the cause-effect tracing of that behavior."""
    from repro.core import suspect_edges
    from repro.defects import behavior_matrix
    from repro.defects.model import InjectedDefect
    from repro.atpg import PatternPairSet
    from repro.timing import simulate_pattern_set

    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(25, 4))
    rng = np.random.default_rng(seed)
    patterns = PatternPairSet(circuit)
    patterns.extend_random(4, rng)
    sims = simulate_pattern_set(timing, list(patterns))
    edge = circuit.edges[int(rng.integers(len(circuit.edges)))]
    size = np.full(25, 25.0)  # huge: fires wherever it is sensitized
    defect = InjectedDefect(edge, timing.edge_index[edge], 25.0, size)
    sample = int(rng.integers(25))
    clk = 6.0
    with_defect = behavior_matrix(timing, patterns, clk, defect, sample)
    healthy = behavior_matrix(timing, patterns, clk, None, sample)
    caused = with_defect & ~healthy
    if not caused.any():
        return  # defect never surfaced; nothing to assert
    suspects = suspect_edges(sims, caused)
    assert edge in suspects


@common
@given(st.integers(0, 10_000))
def test_scoap_finite_iff_reachable(circuit_seed):
    """SCOAP observability is finite exactly for output-reaching nets."""
    from repro.logic import INFINITY, compute_scoap

    circuit = small_circuit(circuit_seed)
    scoap = compute_scoap(circuit)
    observable = set()
    for output in circuit.outputs:
        observable.update(circuit.fanin_cone(output))
    for net in circuit.gates:
        if net in observable:
            assert scoap.co[net] < INFINITY
        else:
            assert scoap.co[net] >= INFINITY


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_collapsed_fault_classes_share_detection(circuit_seed, seed):
    """Faults merged by structural collapsing have identical detection rows."""
    from repro.logic import (
        StuckAtFault,
        all_stuck_at_faults,
        collapse_stuck_at_faults,
        detection_matrix,
    )

    circuit = small_circuit(circuit_seed)
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(48, len(circuit.inputs)))
    full_faults = all_stuck_at_faults(circuit)
    full, _ = detection_matrix(circuit, patterns, full_faults)
    full_rows = {row.tobytes() for row in full}
    collapsed_faults = collapse_stuck_at_faults(circuit)
    collapsed, _ = detection_matrix(circuit, patterns, collapsed_faults)
    assert {row.tobytes() for row in collapsed} == full_rows


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_event_and_transition_agree_on_final_values(circuit_seed, seed):
    """Both simulators settle every net to the second vector's logic value."""
    from repro.timing import simulate_events

    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(10, 5))
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, len(circuit.inputs))
    v2 = rng.integers(0, 2, len(circuit.inputs))
    events = simulate_events(timing, v1, v2, 3)
    transition = simulate_transition(timing, v1, v2, sample_index=3)
    for net in circuit.gates:
        assert events.waveforms[net].final == transition.val2[net]


@common
@given(st.integers(0, 10_000), st.integers(1, 10))
def test_pattern_pair_roundtrip_through_bench_and_verilog(circuit_seed, n):
    """Netlist serialization never changes simulated behavior."""
    from repro.circuits import parse_bench, parse_verilog, write_bench, write_verilog
    from repro.logic import simulate

    circuit = small_circuit(circuit_seed)
    rng = np.random.default_rng(circuit_seed)
    patterns = rng.integers(0, 2, size=(n, len(circuit.inputs)))
    reference = simulate(circuit, patterns).output_matrix()
    via_bench = simulate(parse_bench(write_bench(circuit)), patterns).output_matrix()
    via_verilog = simulate(
        parse_verilog(write_verilog(circuit)), patterns
    ).output_matrix()
    assert (reference == via_bench).all()
    assert (reference == via_verilog).all()


@common
@given(
    st.floats(0.1, 5.0),
    st.floats(0.05, 2.0),
    st.floats(0.01, 1.0),
    st.integers(0, 2**31 - 1),
)
def test_identity_likelihood_ratio_exactly_one(mean, sigma, alpha, seed):
    """When the proposal degenerates to the nominal law the likelihood
    ratio is *exactly* 1.0 — bit-equal, not within float noise — for any
    (mean, sigma, alpha) and any draw."""
    from repro.sampling import MixtureProposal, SizeDistribution

    dist = SizeDistribution(mean=mean, sigma=sigma, floor=0.0)
    proposal = MixtureProposal(dist, mean, alpha)
    assert proposal.is_identity
    x, w = proposal.draw(np.random.default_rng(seed), 64)
    assert (w == 1.0).all()
    assert (proposal.weights(x) == 1.0).all()


@common
@given(st.integers(0, 2**31 - 1), st.floats(1.2, 3.5), st.floats(0.01, 0.08))
def test_adaptive_allocation_monotone_in_ci_target(seed, threshold, ci_abs):
    """Tightening the CI target can only extend the round sequence: the
    draws are a pure function of (seed, suspect, clk, round), so a
    stricter target spends at least as many samples and replays the
    looser run's rounds verbatim."""
    from repro.sampling import SamplerConfig, SizeDistribution
    from repro.sampling import estimate_tail_probabilities

    dist = SizeDistribution(mean=1.0, sigma=0.5, floor=0.0)
    loose = SamplerConfig(mode="adaptive", ci_abs=ci_abs, ci_rel=0.2)
    tight = SamplerConfig(mode="adaptive", ci_abs=ci_abs / 4.0, ci_rel=0.05)
    _, loose_alloc = estimate_tail_probabilities(
        loose, dist, [threshold], seed=seed, round_size=50
    )
    _, tight_alloc = estimate_tail_probabilities(
        tight, dist, [threshold], seed=seed, round_size=50
    )
    assert tight_alloc.samples_spent >= loose_alloc.samples_spent
    # the shared prefix of rounds is literally the same draws
    shared = min(loose_alloc.rounds, tight_alloc.rounds)
    for round_index in range(shared):
        x_loose, w_loose = loose_alloc.draw(round_index)
        x_tight, w_tight = tight_alloc.draw(round_index)
        if loose_alloc.alpha == tight_alloc.alpha:
            assert np.array_equal(x_loose, x_tight)
            assert np.array_equal(w_loose, w_tight)


@common
@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_convergence_stat_merge_equals_one_shot(seed, n_rounds):
    """Folding per-round batches into one ConvergenceStat reproduces the
    single-batch computation on the concatenated draws — the identity the
    allocator's incremental CI tracking rests on."""
    from repro.obs.convergence import ConvergenceStat

    rng = np.random.default_rng(seed)
    rounds = [rng.uniform(0.0, 2.0, 40) for _ in range(n_rounds)]
    merged = ConvergenceStat()
    for batch in rounds:
        merged.update(batch)
    one_shot = ConvergenceStat()
    one_shot.update(np.concatenate(rounds))
    assert merged.count == one_shot.count
    assert np.isclose(merged.mean, one_shot.mean, rtol=1e-12, atol=1e-13)
    assert np.isclose(
        merged.std_error, one_shot.std_error, rtol=1e-9, atol=1e-12
    )


def _diagnosis_case(circuit_seed, seed, n_suspects=4):
    """A small dictionary plus an RNG, shared by the batching properties."""
    from repro.core import build_dictionary
    from repro.atpg import PatternPairSet
    from repro.timing import diagnosis_clock, simulate_pattern_set

    circuit = small_circuit(circuit_seed)
    timing = CircuitTiming(circuit, SampleSpace(25, 5))
    rng = np.random.default_rng(seed)
    patterns = PatternPairSet(circuit)
    patterns.extend_random(3, rng)
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(timing, list(patterns), 0.85, simulations=sims)
    picks = rng.choice(len(circuit.edges), size=n_suspects, replace=False)
    suspects = [circuit.edges[int(index)] for index in sorted(picks)]
    sizes = np.full(25, float(rng.uniform(0.5, 3.0)))
    dictionary = build_dictionary(
        timing, patterns, clk, suspects, sizes, base_simulations=sims
    )
    return dictionary, rng


@common
@given(
    st.integers(0, 10_000),
    st.integers(0, 2**31 - 1),
    st.integers(1, 5),
    st.sampled_from(
        ["method_I", "method_II", "method_III", "alg_rev",
         "log_likelihood", "euclidean_sb"]
    ),
)
def test_batch_diagnosis_equals_one_shot(circuit_seed, seed, n_queries, name):
    """Batching invariance: ``diagnose_batch([a, b, ...])`` is the list
    ``[diagnose(a), diagnose(b), ...]`` bit-for-bit, for every error
    function — the contract the service's micro-batching dispatcher
    rests on."""
    from repro.core import diagnose, diagnose_batch
    from repro.core.error_functions import by_name

    dictionary, rng = _diagnosis_case(circuit_seed, seed)
    function = by_name(name)
    behaviors = [
        (rng.random(dictionary.m_crt.shape) < 0.4).astype(float)
        for _ in range(n_queries)
    ]
    batched = diagnose_batch(dictionary, behaviors, error_function=function)
    for behavior, answer in zip(behaviors, batched):
        reference = diagnose(dictionary, behavior, error_function=function)
        assert answer.method == reference.method
        assert answer.ranking == reference.ranking  # exact, scores included


@common
@given(st.integers(0, 10_000), st.integers(0, 2**31 - 1))
def test_batch_ranking_stable_under_query_permutation(circuit_seed, seed):
    """Permuting the request order permutes the answers and nothing else:
    each query's ranking is independent of its co-batched neighbors."""
    from repro.core import diagnose_batch

    dictionary, rng = _diagnosis_case(circuit_seed, seed)
    behaviors = [
        (rng.random(dictionary.m_crt.shape) < 0.4).astype(float)
        for _ in range(4)
    ]
    order = rng.permutation(len(behaviors))
    forward = diagnose_batch(dictionary, behaviors)
    shuffled = diagnose_batch(dictionary, [behaviors[i] for i in order])
    for position, original in enumerate(order):
        assert shuffled[position].ranking == forward[original].ranking


#: Entries the scoring kernels must treat exactly, mixed into the random
#: stacks: signed zeros, the probability end points and a subnormal.
_EXACT_ENTRIES = np.array([0.0, -0.0, 1.0, 0.5, 5e-324])


def _error_stack_case(rng, n_suspects, n_rows, n_cols):
    """A random ``E`` stack with dead rows (zero for every suspect) and
    rows that are zero for only some suspects."""
    shape = (n_suspects, n_rows, n_cols)
    stack = np.where(
        rng.random(shape) < 0.5,
        rng.random(shape),
        rng.choice(_EXACT_ENTRIES, size=shape),
    )
    stack[rng.random((n_suspects, n_rows)) < 0.3] = 0.0
    stack[:, rng.random(n_rows) < 0.5] = rng.choice([0.0, -0.0])
    return stack


def _behavior_case(rng, kind, n_rows, n_cols):
    """One query; ``binary``/``fractional`` queries fail at a random row
    subset of their own, so the queries of a batch differ in rows."""
    shape = (n_rows, n_cols)
    if kind == "zeros":
        return np.full(shape, rng.choice([0.0, -0.0]))
    if kind == "ones":
        return np.ones(shape)
    if kind == "binary":
        values = (rng.random(shape) < 0.5).astype(float)
    else:
        values = np.where(
            rng.random(shape) < 0.5,
            rng.random(shape),
            rng.choice(_EXACT_ENTRIES, size=shape),
        )
    values[rng.random(n_rows) < 0.6] = 0.0
    return values


_BEHAVIOR_KINDS = ["zeros", "ones", "binary", "fractional"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.integers(1, 24),
    st.integers(0, 5),
    st.integers(1, 4),
    st.sampled_from(_BEHAVIOR_KINDS),
    st.booleans(),
)
def test_batched_scores_equal_scalar_loop(
    seed, n_suspects, n_rows, n_cols, n_queries, first_kind, pass_live
):
    """Every batched kernel, row pruning included, equals the scalar
    ``ErrorFunction`` loop bit for bit — on stacks with dead rows,
    partially dead rows and exact 0.0 / -0.0 / 1.0 entries, against
    binary, non-binary, all-zero and all-one queries batched together."""
    from repro.core.error_functions import (
        ALL_ERROR_FUNCTIONS,
        batched_scores,
        live_rows,
    )

    rng = np.random.default_rng(seed)
    e_stack = _error_stack_case(rng, n_suspects, n_rows, n_cols)
    kinds = [first_kind] + list(rng.choice(_BEHAVIOR_KINDS, n_queries - 1))
    behaviors = np.stack(
        [_behavior_case(rng, kind, n_rows, n_cols) for kind in kinds]
    )
    live = live_rows(e_stack) if pass_live else None
    for function in ALL_ERROR_FUNCTIONS:
        batched = batched_scores(function, e_stack, behaviors, live)
        scalar = np.array([
            [function(signature, behavior) for signature in e_stack]
            for behavior in behaviors
        ]).reshape(batched.shape)
        assert np.array_equal(batched, scalar), function.name
        assert batched.tobytes() == scalar.tobytes(), function.name
