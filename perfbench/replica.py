"""The program's multi-layer functions replayed step by step from public calls.

A traced run times every call into a layer's public function.  The
program's own multi-layer functions — the trial loop of ``evaluate_circuit`` and
``standard_workload`` — call several layers internally, so the traced
runs replay them here with a :class:`~helpers.LayerTimer` around each
call.  A replica must give the same answers as the function it copies;
every traced run checks that against the function itself.

Layer names are the program's modules: ``circuits``, ``timing.compile``,
``timing.simulate``, ``atpg``, ``defects``, ``core.suspects``,
``core.dictionary``, ``core.diagnosis``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.atpg import generate_path_tests
from repro.circuits import load_benchmark
from repro.core import (
    EvaluationConfig,
    build_dictionary,
    diagnose_all,
    suspect_edges,
)
from repro.defects import SingleDefectModel, draw_failing_trial
from repro.service import standard_workload
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    compile_circuit,
    diagnosis_clock,
    simulate_pattern_set,
)

from helpers import LayerTimer

#: The Section-I protocol as ``evaluate_circuit`` runs it by default:
#: diagnosis methods, clock quantile and redraw limits.
PROTOCOL = EvaluationConfig()
METHODS = PROTOCOL.error_functions

#: The layers a trial's wall-clock is split into.
TRIAL_LAYERS = (
    "atpg", "timing.simulate", "defects",
    "core.suspects", "core.dictionary", "core.diagnosis",
)

#: Defect sites ``standard_workload`` draws before it gives up (a literal
#: in its body, not a parameter).
WORKLOAD_SITE_DRAWS = 20

#: Program seed of the fixed production pattern sets that ``volume`` and
#: ``serve`` diagnose against; their ``--seed`` draws the failing chips.
PRODUCTION_SEED = 0


def behavior_seed(seed: int) -> int:
    """``draw_query_behaviors`` seed for the chips of benchmark seed ``seed``
    (it scans at most a few hundred offsets, so seeds never overlap)."""
    return 1000 * (seed + 1)


def load_timing(name: str, seed: int, samples: int, timer: LayerTimer) -> CircuitTiming:
    """Load a benchmark circuit, build its timing model, compile its kernel."""
    with timer("circuits"):
        circuit = load_benchmark(name, seed=seed)
    with timer("timing.compile"):
        timing = CircuitTiming(circuit, SampleSpace(n_samples=samples, seed=seed))
        compile_circuit(circuit)
    return timing


def _path_tests(timing, model, rng, n_paths, rng_seed, draws, timer):
    """Draw defect sites until one admits path-delay tests."""
    for _ in range(draws):
        with timer("defects"):
            defect = model.draw(rng)
        with timer("atpg"):
            patterns, _tests = generate_path_tests(
                timing, defect.edge, n_paths=n_paths, rng_seed=rng_seed
            )
        timer.counts["atpg.sites"] += 1
        timer.counts["atpg.patterns"] += len(patterns)
        if len(patterns):
            timer.counts["atpg.sites_with_patterns"] += 1
            return defect, patterns
    raise RuntimeError(f"no testable defect site in {draws} draws")


def _simulate(timing, patterns, timer):
    with timer("timing.simulate"):
        simulations = simulate_pattern_set(timing, list(patterns))
        clk = diagnosis_clock(
            timing, list(patterns), PROTOCOL.clk_quantile,
            simulations=simulations, targets=patterns.target_observations(),
        )
    return simulations, clk


def _failing_trial(timing, patterns, clk, model, rng, defect, timer, **kwargs):
    with timer("defects"):
        trial, attempts = draw_failing_trial(
            timing, patterns, clk, model, rng, defect=defect, **kwargs
        )
    timer.counts["defects.instances"] += attempts
    timer.counts["defects.failing"] += 1
    return trial


def diagnose_chip(
    timing, patterns, clk, behavior, simulations, size_samples,
    size_distribution, timer: LayerTimer,
) -> Tuple[Dict, object]:
    """``run_diagnosis``: prune suspects, build the dictionary, rank."""
    with timer("core.suspects"):
        suspects = suspect_edges(simulations, behavior)
    with timer("core.dictionary"):
        dictionary = build_dictionary(
            timing, patterns, clk, suspects, size_samples,
            base_simulations=simulations,
            size_distribution=size_distribution,
        )
    timer.counts["core.dictionary.units"] += (
        len(suspects) * len(patterns) * len(size_samples)
    )
    with timer("core.diagnosis"):
        results = diagnose_all(dictionary, behavior, METHODS)
    return results, dictionary


def table1_trials(
    timing: CircuitTiming, n_trials: int, seed: int, n_paths: int,
    timer: LayerTimer,
) -> List[Dict]:
    """The trial loop of ``evaluate_circuit`` under ``EvaluationConfig``
    defaults; returns one answer per trial plus its wall-clock."""
    rng = np.random.default_rng(seed)
    with timer("defects"):
        model = SingleDefectModel(timing)
        size_samples = model.dictionary_size_variable().samples
        size_distribution = model.dictionary_size_distribution()
    trials = []
    for index in range(n_trials):
        started = time.perf_counter()
        busy_before = timer.total(TRIAL_LAYERS)
        defect, patterns = _path_tests(
            timing, model, rng, n_paths, seed * 1000 + index,
            PROTOCOL.max_location_redraws, timer,
        )
        simulations, clk = _simulate(timing, patterns, timer)
        trial = _failing_trial(
            timing, patterns, clk, model, rng, defect, timer,
            max_attempts=PROTOCOL.max_instance_redraws,
        )
        results, _dictionary = diagnose_chip(
            timing, patterns, clk, trial.behavior, simulations,
            size_samples, size_distribution, timer,
        )
        trials.append({
            "answer": trial_answer(
                defect.edge, len(patterns),
                {name: result.rank_of(defect.edge) for name, result in results.items()},
            ),
            "seconds": time.perf_counter() - started,
            "covered": timer.total(TRIAL_LAYERS) - busy_before,
        })
    return trials


def trial_answer(edge, n_patterns: int, ranks: Dict) -> List:
    """What one Section-I trial is checked on."""
    return [str(edge), int(n_patterns), {name: ranks[name] for name in sorted(ranks)}]


def standard_workload_traced(
    name: str, samples: int, seed: int, n_paths: int, timer: LayerTimer,
) -> Dict:
    """``standard_workload``'s set-up; returns what identifies its output."""
    timing = load_timing(name, seed, samples, timer)
    rng = np.random.default_rng(seed)
    with timer("defects"):
        model = SingleDefectModel(timing)
    defect, patterns = _path_tests(
        timing, model, rng, n_paths, seed, WORKLOAD_SITE_DRAWS, timer
    )
    simulations, clk = _simulate(timing, patterns, timer)
    trial = _failing_trial(timing, patterns, clk, model, rng, defect, timer)
    with timer("core.suspects"):
        suspects = suspect_edges(simulations, trial.behavior)
    return workload_identity(clk, suspects, len(patterns))


def workload_identity(clk: float, suspects, n_patterns: int) -> Dict:
    return {
        "clk": float(clk),
        "suspects": [str(edge) for edge in suspects],
        "n_patterns": int(n_patterns),
    }


def check_set_up(ctx, circuits, samples: int, n_paths: int, timer: LayerTimer) -> float:
    """Replay ``standard_workload`` traced for each production pattern set
    and check it against the original; returns the replays' wall-clock."""
    wall = 0.0
    for circuit in circuits:
        started = time.perf_counter()
        traced = standard_workload_traced(circuit, samples, PRODUCTION_SEED, n_paths, timer)
        wall += time.perf_counter() - started
        workload, _model = standard_workload(
            circuit, samples=samples, seed=PRODUCTION_SEED, n_paths=n_paths
        )
        if traced != workload_identity(workload.clk, workload.suspects, len(workload.patterns)):
            ctx.ledger.fail(circuit, "traced set-up differs from standard_workload")
    return wall
