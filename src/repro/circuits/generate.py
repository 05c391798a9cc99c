"""Deterministic synthetic circuit generation.

The paper's evaluation uses ISCAS89 netlists that are not redistributable
here, so the experiments run on synthetic circuits generated to each
benchmark's published *profile* (primary inputs, primary outputs, flip-flops,
gate count, approximate logic depth).  See the substitution table in
DESIGN.md: the diagnosis algorithms consume only DAG structure plus
statistical edge delays, so a structure-matched random circuit exercises the
same code paths and produces the same qualitative Table I shape.

Generation is deterministic in ``seed``.  Circuits are generated directly in
their **full-scan combinational view**: flip-flops appear as extra
pseudo-primary inputs and pseudo-primary outputs, matching what
:meth:`Circuit.unroll_scan` would produce from a sequential netlist.

Structural guarantees:

* acyclic by construction (fanins always come from lower levels),
* every gate lies on some input->output path (dangling nets are merged into
  the output stage), so every edge is a meaningful defect site,
* logic depth is close to ``target_depth``,
* the gate-type mix is configurable (default approximates the ISCAS89 mix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..rng import CompatRandom
from .library import GateType
from .netlist import Circuit

__all__ = ["GeneratorConfig", "generate_circuit", "s38417_profile_config"]

#: Pinned default seed of the s38417-profile preset, so every checkout
#: generates the identical large-scale circuit.
S38417_PRESET_SEED = 38417

#: Default gate-type mix (probability weights), loosely matching the ISCAS89
#: suite: NAND/NOR-heavy with inverters and occasional XORs.
DEFAULT_TYPE_WEIGHTS: Dict[GateType, float] = {
    GateType.NAND: 0.28,
    GateType.AND: 0.14,
    GateType.NOR: 0.12,
    GateType.OR: 0.14,
    GateType.NOT: 0.18,
    GateType.BUF: 0.04,
    GateType.XOR: 0.06,
    GateType.XNOR: 0.04,
}

#: Fanin-count weights for multi-input gate types.
_FANIN_WEIGHTS: Sequence[Tuple[int, float]] = ((2, 0.62), (3, 0.25), (4, 0.13))


@dataclass
class GeneratorConfig:
    """Parameters for :func:`generate_circuit`.

    ``n_inputs``/``n_outputs`` are counts in the full-scan view (primary plus
    pseudo-primary).  ``n_gates`` counts combinational cells, including the
    final output-stage gates.
    """

    n_inputs: int
    n_outputs: int
    n_gates: int
    target_depth: int = 12
    seed: int = 0
    name: str = "synthetic"
    type_weights: Dict[GateType, float] = field(
        default_factory=lambda: dict(DEFAULT_TYPE_WEIGHTS)
    )
    #: Probability that a gate anchors one fanin to the immediately
    #: preceding level.  1.0 yields perfectly level-balanced circuits where
    #: every input-output path has nearly the same length — unrealistic and
    #: hostile to delay diagnosis (every path masks every other).  Lower
    #: values mix in "express" connections from shallower levels, giving the
    #: dispersed path-length profile of real netlists.
    locality: float = 0.5

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError("need at least one input")
        if self.n_outputs < 1:
            raise ValueError("need at least one output")
        if self.n_gates < self.n_outputs:
            raise ValueError("n_gates must cover at least the output stage")
        if self.target_depth < 2:
            raise ValueError("target_depth must be >= 2")


def s38417_profile_config(
    seed: int = S38417_PRESET_SEED, scale: float = 1.0
) -> GeneratorConfig:
    """Generator preset matching the published s38417 profile.

    The largest ISCAS89 circuit (28 PI, 106 PO, 1636 DFFs, ~23.8k
    combinational gates — a 1664-in / 1742-out scan view): a stress input
    for scale work on the flat dictionary build beyond Table I.  The
    default seed is pinned so every checkout generates the identical
    ~20k+ gate circuit; ``scale`` shrinks the gate count proportionally
    for smoke tests (the scan interface keeps its full width either way,
    exactly like :class:`BenchmarkProfile` scaling).
    """
    from .benchmarks import PROFILES

    return PROFILES["s38417"].generator_config(seed=seed, scale=scale)


def _choose_type(rng: CompatRandom, weights: Dict[GateType, float]) -> GateType:
    types = list(weights)
    cumulative = []
    total = 0.0
    for gate_type in types:
        total += weights[gate_type]
        cumulative.append(total)
    pick = rng.random() * total
    for gate_type, bound in zip(types, cumulative):
        if pick <= bound:
            return gate_type
    return types[-1]


def _choose_fanin_count(rng: CompatRandom, gate_type: GateType) -> int:
    if gate_type in (GateType.NOT, GateType.BUF):
        return 1
    if gate_type in (GateType.XOR, GateType.XNOR):
        return 2
    pick = rng.random()
    acc = 0.0
    for count, weight in _FANIN_WEIGHTS:
        acc += weight
        if pick <= acc:
            return count
    return _FANIN_WEIGHTS[-1][0]


def _signal_probability(gate_type: GateType, input_probs: Sequence[float]) -> float:
    """Output 1-probability under an input-independence approximation."""
    if gate_type in (GateType.BUF, GateType.OUTPUT):
        return input_probs[0]
    if gate_type is GateType.NOT:
        return 1.0 - input_probs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        p = 1.0
        for q in input_probs:
            p *= q
        return 1.0 - p if gate_type is GateType.NAND else p
    if gate_type in (GateType.OR, GateType.NOR):
        p = 1.0
        for q in input_probs:
            p *= 1.0 - q
        return p if gate_type is GateType.NOR else 1.0 - p
    # XOR / XNOR
    p = 0.0
    for q in input_probs:
        p = p * (1.0 - q) + (1.0 - p) * q
    return 1.0 - p if gate_type is GateType.XNOR else p


def _pick_balanced_type(
    rng: CompatRandom,
    weights: Dict[GateType, float],
    fanin_probs: Sequence[float],
    attempts: int = 6,
) -> GateType:
    """Draw a gate type, preferring ones that keep the output near p=0.5.

    Unconstrained random composition drives signal probabilities to the
    rails within a few logic levels, which makes the circuit untestable
    (everything masked by near-constant side inputs).  Accept the first
    draw whose estimated output probability lands in [0.2, 0.8]; otherwise
    keep the closest-to-centre candidate seen.
    """
    best: GateType = GateType.NAND
    best_score = 2.0
    for _ in range(attempts):
        candidate = _choose_type(rng, weights)
        probs = fanin_probs
        if candidate in (GateType.NOT, GateType.BUF):
            probs = fanin_probs[:1]
        elif candidate in (GateType.XOR, GateType.XNOR):
            probs = fanin_probs[:2]
        p_out = _signal_probability(candidate, probs)
        score = abs(p_out - 0.5)
        if score <= 0.3:
            return candidate
        if score < best_score:
            best, best_score = candidate, score
    return best


def generate_circuit(config: GeneratorConfig) -> Circuit:
    """Generate a frozen synthetic circuit matching ``config``.

    The construction works level by level.  Internal gates are spread across
    ``target_depth - 1`` levels; each gate draws at least one fanin from the
    immediately preceding level (pinning its logic level) and the rest from
    any earlier level, preferring nets that are not yet consumed so that the
    output stage stays small.  A final output stage of ``n_outputs`` gates
    absorbs every remaining unconsumed net, guaranteeing full observability.
    """
    rng = CompatRandom(config.seed)
    circuit = Circuit(config.name)

    level_nets: List[List[str]] = [[]]
    prob: Dict[str, float] = {}
    for index in range(config.n_inputs):
        net = f"pi{index}"
        circuit.add_input(net)
        level_nets[0].append(net)
        prob[net] = 0.5

    n_internal = config.n_gates - config.n_outputs
    n_levels = max(1, config.target_depth - 1)
    per_level = _spread(n_internal, n_levels)

    unconsumed: List[str] = list(level_nets[0])
    gate_index = 0
    for level in range(1, n_levels + 1):
        current_level: List[str] = []
        previous_level = level_nets[level - 1] or _flatten(level_nets)
        earlier = _flatten(level_nets)
        for _ in range(per_level[level - 1]):
            fanin_count = _choose_fanin_count(rng, GateType.NAND)
            if rng.random() < config.locality:
                fanins = [rng.choice(previous_level)]
            else:
                fanins = [rng.choice(earlier)]
            while len(fanins) < fanin_count:
                pool = unconsumed if unconsumed and rng.random() < 0.6 else earlier
                candidate = rng.choice(pool)
                if candidate not in fanins:
                    fanins.append(candidate)
                elif len(earlier) <= fanin_count:
                    break
            gate_type = _pick_balanced_type(
                rng, config.type_weights, [prob[f] for f in fanins]
            )
            if gate_type in (GateType.NOT, GateType.BUF):
                fanins = fanins[:1]
            elif gate_type in (GateType.XOR, GateType.XNOR):
                fanins = fanins[:2]
            net = f"g{gate_index}"
            gate_index += 1
            circuit.add_gate(net, gate_type, fanins)
            prob[net] = _signal_probability(gate_type, [prob[f] for f in fanins])
            current_level.append(net)
            for fanin in fanins:
                if fanin in unconsumed:
                    unconsumed.remove(fanin)
            unconsumed.append(net)
        level_nets.append(current_level)

    _build_output_stage(circuit, rng, config, unconsumed, _flatten(level_nets), prob)
    return circuit.freeze()


def _build_output_stage(
    circuit: Circuit,
    rng: CompatRandom,
    config: GeneratorConfig,
    unconsumed: List[str],
    all_nets: List[str],
    prob: Dict[str, float],
) -> None:
    """Create ``n_outputs`` gates absorbing every unconsumed net.

    If the dangling set is larger than the output stage can take directly
    (fanin capped at 3), intermediate merge gates soak up the excess first;
    they count against the configured gate budget only loosely, which keeps
    the generator simple — profile gate counts are approximate targets.
    Merge and output gate types are chosen to keep signal probabilities
    centred, preserving observability through the merge trees.
    """

    def balanced_merge_type(fanins: List[str]) -> GateType:
        candidates = [GateType.NAND, GateType.NOR, GateType.AND, GateType.OR]
        if len(fanins) == 2:
            candidates.append(GateType.XOR)
        probs = [prob[f] for f in fanins]
        scored = [
            (abs(_signal_probability(t, probs) - 0.5), rng.random(), t)
            for t in candidates
        ]
        return min(scored)[2]

    merge_index = 0
    pool = list(unconsumed)
    rng.shuffle(pool)
    capacity = config.n_outputs * 3
    while len(pool) > capacity:
        group = [pool.pop() for _ in range(min(3, len(pool)))]
        net = f"m{merge_index}"
        merge_index += 1
        gate_type = balanced_merge_type(group)
        if gate_type in (GateType.XOR, GateType.XNOR):
            group = group[:2]
        circuit.add_gate(net, gate_type, group)
        prob[net] = _signal_probability(gate_type, [prob[f] for f in group])
        pool.append(net)

    buckets: List[List[str]] = [[] for _ in range(config.n_outputs)]
    for index, net in enumerate(pool):
        buckets[index % config.n_outputs].append(net)
    for index, bucket in enumerate(buckets):
        while len(bucket) < 2:
            candidate = rng.choice(all_nets)
            if candidate not in bucket:
                bucket.append(candidate)
        bucket = bucket[:3]
        net = f"po{index}"
        gate_type = balanced_merge_type(bucket)
        if gate_type in (GateType.XOR, GateType.XNOR):
            bucket = bucket[:2]
        circuit.add_gate(net, gate_type, bucket)
        prob[net] = _signal_probability(gate_type, [prob[f] for f in bucket])
        circuit.mark_output(net)


def _spread(total: int, buckets: int) -> List[int]:
    """Split ``total`` into ``buckets`` near-equal non-negative parts."""
    base = total // buckets
    remainder = total % buckets
    return [base + (1 if index < remainder else 0) for index in range(buckets)]


def _flatten(levels: List[List[str]]) -> List[str]:
    return [net for level in levels for net in level]
