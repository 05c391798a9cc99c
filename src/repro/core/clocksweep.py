"""Clock-sweep diagnosis: observing the chip at several cut-off periods.

The paper observes the behavior matrix at a single ``clk`` (Definition D.8)
and lists "new error functions / more information" as future work.  Clock
sweeping is the natural tester-side extension: production ATE can re-apply
the same pattern set at several capture clocks, and each clock slices the
arrival-time distributions at a different point — a defect that barely
crosses one cut-off is unmistakable at a tighter one, and the *pattern of
first-failing clocks* localizes the defect much harder than a single slice.

Mechanically nothing new is needed: the observation space just becomes the
concatenation over clocks, i.e. behavior and dictionary matrices of shape
``|O| x (|TP| * n_clks)``.  Every error function and ranking rule then
applies unchanged.  Construction reuses one dynamic simulation per pattern
and per suspect (settle times are clock-independent), so a k-clock sweep
costs the same simulations as a single-clock dictionary plus k cheap
threshold passes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atpg.patterns import PatternPairSet
from ..circuits.netlist import Edge
from ..defects.model import InjectedDefect
from ..timing.critical import pattern_set_delay, simulate_pattern_set
from ..timing.dynamic import TransitionSimResult, simulate_transition
from ..timing.instance import CircuitTiming
from .cache import DictionaryStore
from .dictionary import ProbabilisticFaultDictionary, build_multi_clock_dictionary
from .parallel import ParallelConfig

__all__ = [
    "sweep_clocks",
    "multi_clock_behavior",
    "build_sweep_dictionary",
]


def sweep_clocks(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    quantiles: Sequence[float] = (0.7, 0.85, 0.95),
    simulations: Optional[Sequence[TransitionSimResult]] = None,
    targets: Optional[Sequence[Tuple[int, str]]] = None,
) -> List[float]:
    """Capture clocks at several quantiles of the tested-path delay.

    The sweep analogue of :func:`repro.timing.critical.diagnosis_clock`.
    """
    if simulations is None:
        simulations = simulate_pattern_set(timing, list(patterns))
    if targets is None:
        targets = patterns.target_observations() or None
    delay = pattern_set_delay(simulations, targets)
    clks = []
    for quantile in quantiles:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantiles must be in (0, 1)")
        clks.append(float(np.quantile(delay, quantile)))
    return clks


def multi_clock_behavior(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clks: Sequence[float],
    defect: Optional[InjectedDefect],
    sample_index: int,
) -> np.ndarray:
    """Behavior matrix observed at every clock: ``|O| x (|TP| * n_clks)``.

    Column blocks are ordered clock-major (all patterns at ``clks[0]``,
    then all at ``clks[1]``, ...), matching
    :func:`build_sweep_dictionary`'s layout.
    """
    circuit = timing.circuit
    extra = (
        {defect.edge_index: defect.size_on_instance(sample_index)}
        if defect is not None
        else None
    )
    blocks = []
    settles = []
    for v1, v2 in patterns:
        sim = simulate_transition(
            timing, v1, v2, extra_delay=extra, sample_index=sample_index
        )
        settles.append(sim)
    for clk in clks:
        block = np.zeros((len(circuit.outputs), len(patterns)), dtype=np.int8)
        for column, sim in enumerate(settles):
            block[:, column] = sim.output_failures(clk)[:, 0]
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


def build_sweep_dictionary(
    timing: CircuitTiming,
    patterns: PatternPairSet,
    clks: Sequence[float],
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    base_simulations: Optional[Sequence[TransitionSimResult]] = None,
    parallel: Optional[Union[ParallelConfig, str]] = None,
    cache: Optional[Union[DictionaryStore, str]] = None,
    sampler=None,
    size_distribution=None,
) -> ProbabilisticFaultDictionary:
    """One dictionary spanning all clocks (clock-major column blocks).

    Per suspect, the expensive cone re-simulation runs **once**; every
    clock is just another threshold over the same settle times.  The
    resulting object is a normal
    :class:`~repro.core.dictionary.ProbabilisticFaultDictionary` whose
    ``clk`` attribute holds the tightest clock (metadata only).  This is
    a thin wrapper over the shared construction kernel
    (:func:`~repro.core.dictionary.build_multi_clock_dictionary`), so the
    parallel backend and the on-disk cache apply to sweeps unchanged.
    """
    return build_multi_clock_dictionary(
        timing,
        patterns,
        clks,
        suspects,
        size_samples,
        base_simulations=base_simulations,
        parallel=parallel,
        cache=cache,
        sampler=sampler,
        size_distribution=size_distribution,
    )
