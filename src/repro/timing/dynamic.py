"""Statistical *dynamic* timing simulation (Definition D.5, dynamic half).

Given a two-vector delay test ``(v1, v2)`` this module computes, for every
net, the time at which the net settles to its final value — simultaneously
for all Monte-Carlo samples (all circuit instances).  The per-output settle
times of transitioning outputs are exactly the arrival-time random variables
``Ar(o_i)`` on the induced circuit ``Induced(Path_v)`` of Definition D.7:
outputs without a sensitized transition are never at risk and get critical
probability 0, matching the paper's convention.

Model (standard transition-mode timed simulation):

* every net makes at most one transition between the settled ``v1`` state
  and the settled ``v2`` state; static hazards/glitches on nets whose two
  logic values coincide are ignored (documented simplification),
* a gate whose final output value is *controlled* settles when its earliest
  controlling-final input settles: ``min`` over those inputs of
  (input settle time + pin-to-pin delay),
* otherwise the gate settles with its latest *transitioning* input:
  ``max`` over transitioning inputs of (settle + delay); if no input
  transitions the output cannot transition either and is stable from t=0.

Because logic values are sample-independent, a delay defect (extra delay on
one edge) changes settle times only inside the defect's fanout cone —
:func:`resimulate_with_extra` exploits this to make probabilistic fault
dictionary construction (hundreds of suspects) cheap.

Two interchangeable evaluation kernels implement these rules:

* the **reference** kernel (:func:`simulate_transition_reference` /
  :func:`resimulate_with_extra_reference`) — the original gate-by-gate
  Python walk, kept as the obviously-correct oracle,
* the **compiled** kernel (:mod:`repro.timing.kernel`) — a one-time
  lowering of the circuit into flat integer arrays plus a per-pattern
  reduction schedule evaluated level-by-level with segment min/max
  reductions across all Monte-Carlo samples at once.

:func:`simulate_transition` and :func:`resimulate_with_extra` dispatch on
``REPRO_TIMING_KERNEL`` (``compiled``, the default, or ``reference``); the
two kernels are bit-identical (``tests/test_kernel.py`` pins this), so the
switch is purely a performance knob.  Callers outside ``timing/`` must use
the dispatching entry points — lint rule ``D106`` enforces it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.library import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Circuit
from .. import obs
from .instance import CircuitTiming
from .randvars import RandomVariable

__all__ = [
    "TransitionSimResult",
    "simulate_transition",
    "simulate_transition_reference",
    "resimulate_with_extra",
    "resimulate_with_extra_reference",
    "replay_sizes",
    "replay_chunk",
    "ReplayRequest",
    "edge_offsets",
    "active_kernel",
    "KERNEL_ENV",
]

ExtraDelay = Mapping[int, Union[float, np.ndarray]]

#: One :func:`replay_chunk` request: ``(pattern column, suspect edge
#: indices on one sink, the sink's fanout cone, read-out nets)``.
ReplayRequest = Tuple[int, Sequence[int], Iterable[str], Sequence[str]]

#: Environment variable selecting the dynamic-simulation kernel.
KERNEL_ENV = "REPRO_TIMING_KERNEL"

#: Recognized kernel names, in default-first order.
KERNELS = ("compiled", "reference")


def active_kernel() -> str:
    """The kernel :func:`simulate_transition` will dispatch to right now."""
    value = os.environ.get(KERNEL_ENV, "").strip() or KERNELS[0]
    if value not in KERNELS:
        raise ValueError(
            f"{KERNEL_ENV}={value!r} is not a known timing kernel; "
            f"expected one of {', '.join(KERNELS)}"
        )
    return value


def _compute_edge_offsets(circuit: Circuit) -> Dict[str, int]:
    offsets: Dict[str, int] = {}
    offset = 0
    for name in circuit.topological_order:
        offsets[name] = offset
        offset += len(circuit.gates[name].fanins)
    return offsets


def edge_offsets(circuit: Circuit) -> Dict[str, int]:
    """First edge index of each gate's fanin block in ``circuit.edges`` order.

    Memoized on the (frozen, hence immutable) circuit: both simulation
    kernels and the event simulator ask for the same table on every call,
    so it is computed at most once per circuit.  Treat it as read-only.
    """
    cached = getattr(circuit, "_edge_offsets_cache", None)
    if cached is None:
        cached = _compute_edge_offsets(circuit)
        circuit._edge_offsets_cache = cached  # type: ignore[attr-defined]
    return cached


@dataclass
class TransitionSimResult:
    """Settle times and logic values for one two-vector test.

    ``stable[net]`` has shape ``(width,)`` where ``width`` is the number of
    simulated samples (the full sample space, or 1 for an instance-level
    simulation).  ``val1``/``val2`` are the settled logic values — identical
    across samples since delays never change logic.

    ``stable`` is a mapping from net name to settle-time vector; the
    reference kernel materializes a plain dict of per-net arrays while the
    compiled kernel backs the same mapping with one ``(n_nets, width)``
    matrix (:class:`repro.timing.kernel.StableTimes`).  ``kernel_state``
    carries the compiled kernel's pattern schedule so cone-restricted
    re-simulation can replay it; it is ``None`` for reference results.
    """

    timing: CircuitTiming
    v1: np.ndarray
    v2: np.ndarray
    val1: Dict[str, int]
    val2: Dict[str, int]
    stable: Mapping[str, np.ndarray]
    width: int
    sample_index: Optional[int] = None
    kernel_state: Optional[object] = field(default=None, repr=False, compare=False)

    def transitioned(self, net: str) -> bool:
        """True iff the test launches a transition onto ``net``."""
        return self.val1[net] != self.val2[net]

    def arrival(self, net: str) -> RandomVariable:
        """``Ar(net)`` on the induced circuit (full-width results only)."""
        if self.width != self.timing.space.n_samples:
            raise ValueError("arrival() requires a full-sample-space simulation")
        return RandomVariable(self.stable[net], self.timing.space)

    def error_vector(self, clk: float) -> np.ndarray:
        """``Err(C, v, clk)`` of Definition D.7: per-output critical probability."""
        outputs = self.timing.circuit.outputs
        recorder = obs.get_recorder()
        vector = np.zeros(len(outputs))
        take = getattr(self.stable, "take_rows", None)
        if take is not None and not recorder.enabled:
            # Matrix-backed (compiled-kernel) results: one gather of the
            # transitioning output rows and one vectorized threshold pass.
            # Bit-identical to the per-net loop — the bool sums along
            # axis 1 are exact integers, divided by the same width.
            val1, val2 = self.val1, self.val2
            live = [i for i, net in enumerate(outputs) if val1[net] != val2[net]]
            if live:
                stacked = take([outputs[i] for i in live])
                vector[live] = (stacked > clk).mean(axis=1)
            return vector
        for index, net in enumerate(outputs):
            if self.transitioned(net):
                vector[index] = float(np.mean(self.stable[net] > clk))
                if recorder.enabled:
                    # The raw Monte-Carlo samples behind this estimate:
                    # the meter tracks running mean/variance/SE/ESS of the
                    # output settle-time population.
                    recorder.observe("dynamic.settle", self.stable[net])
        return vector

    def output_failures(self, clk: float) -> np.ndarray:
        """Boolean ``(|O|, width)``: which outputs fail on which sample."""
        outputs = self.timing.circuit.outputs
        failures = np.zeros((len(outputs), self.width), dtype=bool)
        for index, net in enumerate(outputs):
            if self.transitioned(net):
                failures[index] = self.stable[net] > clk
        return failures


def _gate_settle_time(
    gate_type: GateType,
    fanins: Sequence[str],
    val1: Dict[str, int],
    val2: Dict[str, int],
    stable_of,
    delay_of,
) -> np.ndarray:
    """Apply the controlled-min / transitioning-max settle rule for one gate."""
    controlling = CONTROLLING_VALUE[gate_type]
    if controlling is not None:
        controlled = [
            (fanin, pin)
            for pin, fanin in enumerate(fanins)
            if val2[fanin] == controlling
        ]
        if controlled:
            candidates = [stable_of(f) + delay_of(p) for f, p in controlled]
            return np.minimum.reduce(candidates)
    transitioning = [
        (fanin, pin)
        for pin, fanin in enumerate(fanins)
        if val1[fanin] != val2[fanin]
    ]
    if not transitioning:
        # The output transition must then come from nowhere — callers only
        # invoke this for transitioning outputs, which implies at least one
        # transitioning input except in degenerate const-redundant cases.
        transitioning = list((fanin, pin) for pin, fanin in enumerate(fanins))
    candidates = [stable_of(f) + delay_of(p) for f, p in transitioning]
    return np.maximum.reduce(candidates)


def simulate_transition(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """Timed simulation of the two-vector test ``(v1, v2)``.

    ``extra_delay`` maps edge indices to additional delay (scalar or
    per-sample vector) — the defect-injection hook.  ``sample_index``
    restricts the simulation to one Monte-Carlo sample, i.e. simulates a
    single :class:`CircuitInstance`; the result then has ``width == 1``.

    Dispatches to the kernel selected by ``REPRO_TIMING_KERNEL`` (the
    compiled levelized kernel by default); both kernels are bit-identical.
    """
    if active_kernel() == "compiled":
        from .kernel import simulate_transition_compiled

        return simulate_transition_compiled(
            timing, v1, v2, extra_delay=extra_delay, sample_index=sample_index
        )
    return simulate_transition_reference(
        timing, v1, v2, extra_delay=extra_delay, sample_index=sample_index
    )


def simulate_transition_reference(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """The reference (gate-by-gate Python) kernel behind
    :func:`simulate_transition`; kept as the bit-exact oracle the compiled
    kernel is validated against."""
    circuit = timing.circuit
    v1 = np.asarray(v1).astype(int).ravel()
    v2 = np.asarray(v2).astype(int).ravel()
    if v1.shape[0] != len(circuit.inputs) or v2.shape[0] != len(circuit.inputs):
        raise ValueError("test vectors must cover every primary input")

    val1 = circuit.evaluate({net: int(v1[i]) for i, net in enumerate(circuit.inputs)})
    val2 = circuit.evaluate({net: int(v2[i]) for i, net in enumerate(circuit.inputs)})

    if sample_index is None:
        delays = timing.delays
        width = timing.space.n_samples
    else:
        delays = timing.delays[:, sample_index : sample_index + 1]
        width = 1

    # One conversion per extra edge, not one per (gate, pin) closure call.
    extra = {
        int(index): np.asarray(value)
        for index, value in (extra_delay or {}).items()
    }
    offsets = edge_offsets(circuit)
    zeros = np.zeros(width)
    stable: Dict[str, np.ndarray] = {}

    for name in circuit.topological_order:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT or val1[name] == val2[name]:
            stable[name] = zeros
            continue
        base = offsets[name]

        def delay_of(pin: int, _base: int = base) -> np.ndarray:
            edge_index = _base + pin
            d = delays[edge_index]
            if edge_index in extra:
                d = d + extra[edge_index]
            return d

        stable[name] = _gate_settle_time(
            gate.gate_type, gate.fanins, val1, val2, stable.__getitem__, delay_of
        )
    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.transition_sims")
        recorder.count(
            "dynamic.net_transitions",
            sum(1 for name in val1 if val1[name] != val2[name]),
        )
    return TransitionSimResult(
        timing, v1, v2, val1, val2, stable, width, sample_index
    )


def resimulate_with_extra(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """Re-evaluate settle times after adding delay to a few edges.

    Only the union of the affected edges' sink fanout cones is recomputed;
    every other net shares the base result's arrays.  Logic values are
    reused verbatim (a delay defect never changes settled logic).  The base
    must be a full-width simulation of the same timing model.

    ``affected`` optionally supplies that cone union precomputed — the
    dictionary builder re-simulates every suspect of a sink against many
    patterns and amortizes the cone traversal across all of them.  It must
    cover (at least) the fanout cones of every edge in ``extra_delay``.

    When the base carries a compiled-kernel schedule and the compiled
    kernel is active, the replay runs the cone-restricted slice of that
    schedule; otherwise the reference per-gate path runs.  Both are
    bit-identical.
    """
    if base.kernel_state is not None and active_kernel() == "compiled":
        from .kernel import resimulate_with_extra_compiled

        return resimulate_with_extra_compiled(base, extra_delay, affected)
    return resimulate_with_extra_reference(base, extra_delay, affected)


def _stable_rows(stable: Mapping[str, np.ndarray],
                 nets: Sequence[str]) -> np.ndarray:
    """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
    take = getattr(stable, "take_rows", None)
    if take is not None:
        return take(nets)
    return np.stack([stable[net] for net in nets])


def replay_sizes(
    base: TransitionSimResult,
    edge_index: int,
    size_vectors: Sequence[np.ndarray],
    affected: Iterable[str],
    nets: Sequence[str],
) -> np.ndarray:
    """Batched :func:`resimulate_with_extra` for one suspect edge.

    Returns the ``(len(size_vectors), len(nets), width)`` settle rows of
    ``nets`` after adding each vector of ``size_vectors`` to the edge —
    the sampling subsystem replays the same (suspect, pattern) cone once
    per allocation round, and the compiled kernel hoists the cone
    schedule and delay gathers across the whole batch.  Bit-identical to
    the per-vector loop on either kernel.
    """
    size_vectors = list(size_vectors)
    if base.kernel_state is not None and active_kernel() == "compiled":
        from .kernel import replay_cone_sizes_compiled

        return replay_cone_sizes_compiled(
            base, edge_index, size_vectors, affected, nets
        )
    nets = list(nets)
    out = np.empty((len(size_vectors), len(nets), base.width))
    for index, sizes in enumerate(size_vectors):
        patched = resimulate_with_extra(
            base, {int(edge_index): sizes}, affected=affected
        )
        out[index] = _stable_rows(patched.stable, nets)
    return out


def replay_chunk(
    base_simulations: Sequence[TransitionSimResult],
    requests: Sequence[ReplayRequest],
    sizes: np.ndarray,
) -> np.ndarray:
    """:func:`resimulate_with_extra` for a whole dictionary chunk.

    Each request ``(column, edge_indices, affected, nets)`` replays every
    edge of ``edge_indices`` in turn, with ``sizes`` added to it, over the
    cone ``affected`` against ``base_simulations[column]``.  Returns one
    ``(n_rows, width)`` array: request by request and edge by edge,
    ``len(nets)`` settle rows each.  The compiled kernel plans each
    (edge, request) pair down to the part of its cone that can change a
    read-out net and replays all of them level-synchronously in one fused
    pass (:func:`repro.timing.kernel.replay_chunk_compiled`); otherwise
    this loops over :func:`resimulate_with_extra`.  Bit-identical either
    way.
    """
    if requests and active_kernel() == "compiled" and all(
        base_simulations[request[0]].kernel_state is not None
        for request in requests
    ):
        from .kernel import replay_chunk_compiled

        return replay_chunk_compiled(base_simulations, requests, sizes)
    blocks = []
    for column, edge_indices, affected, nets in requests:
        base = base_simulations[column]
        nets = list(nets)
        if not nets:
            continue
        for edge_index in edge_indices:
            patched = resimulate_with_extra(
                base, {int(edge_index): sizes}, affected=affected
            )
            blocks.append(_stable_rows(patched.stable, nets))
    if not blocks:
        width = base_simulations[0].width if base_simulations else 0
        return np.empty((0, width))
    return np.concatenate(blocks)


def resimulate_with_extra_reference(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """The reference cone re-simulation behind :func:`resimulate_with_extra`."""
    timing = base.timing
    circuit = timing.circuit
    edges = circuit.edges

    if affected is None:
        affected = set()
        for edge_index in extra_delay:
            affected.update(circuit.fanout_cone(edges[edge_index].sink))
    elif not isinstance(affected, set):
        affected = set(affected)
    if not affected:
        return base
    recorder = obs.get_recorder()
    if recorder.enabled:
        # The dictionary builder's hottest loop: one resimulation per
        # (suspect, live pattern).  Guarded so the disabled path costs one
        # attribute read.
        recorder.count("dynamic.resimulations")
        recorder.count("dynamic.nets_recomputed", len(affected))

    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    offsets = edge_offsets(circuit)
    zeros = np.zeros(base.width)
    stable = dict(base.stable)
    # One conversion per extra edge, not one per recomputed gate: the
    # dictionary builder passes the same size-sample vector for every
    # affected gate of every resimulation.
    extra = {int(index): np.asarray(value) for index, value in extra_delay.items()}

    for name in circuit.topological_order:
        if name not in affected:
            continue
        gate = circuit.gates[name]
        if gate.gate_type is GateType.INPUT or base.val1[name] == base.val2[name]:
            stable[name] = zeros
            continue
        base_offset = offsets[name]

        def delay_of(pin: int, _base: int = base_offset) -> np.ndarray:
            edge_index = _base + pin
            d = delays[edge_index]
            if edge_index in extra:
                d = d + extra[edge_index]
            return d

        stable[name] = _gate_settle_time(
            gate.gate_type, gate.fanins, base.val1, base.val2,
            stable.__getitem__, delay_of,
        )
    return TransitionSimResult(
        timing, base.v1, base.v2, base.val1, base.val2, stable, base.width,
        base.sample_index,
    )
