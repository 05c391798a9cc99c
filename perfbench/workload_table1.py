"""``table1``: the paper's Section-I campaign, one circuit at a time.

Each *item* is ``run_table1_circuit(circuit, n_trials=TRIALS, seed=s)``
with 300 samples, the published K values and the ``process`` backend.
Items run in passes over :data:`CIRCUITS`; pass ``p`` of seed ``seed``
uses program seed ``seed * 100 + p``, so every pass draws new circuits
and new trials.  A run makes a fixed number of whole passes, sized so
that they take about ``--seconds`` on a 2-CPU host (:data:`PASS_SECONDS`
each).  Fixed work, not a fixed time window, because ATPG cost per trial
has a long tail (mostly on s1488): with a time window, whether one slow
trial falls inside the window moved trials per second by 20% between
repeats of the same seed.  Whole passes weigh every circuit the same in
every run.  The first pass's answers are the digest.

Why this workload: ATPG does most of the work (60-90% of trial time), and
each trial builds one small dictionary, the regime where a pool's
per-call start-up cost shows.

It is not one of the gated workloads in ``BENCHMARK.json``: a run's
trials per second still moves by about 20% between seeds (s1488's ATPG
cost per trial has a coefficient of variation above 1, and the same
trials run up to 25% slower under some ``PYTHONHASHSEED`` values), more
than any bound a gate may use.  Run it by name for the protocol's stage
split and for claims about ATPG, with ten or more seeds per side.
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.experiments import run_table1_circuit

from helpers import LayerTimer, layer_metrics, percentile, summarize
from replica import load_timing, table1_trials, trial_answer

CIRCUITS = ("s1196", "s1488", "s5378", "s15850")
TRIALS = 1
SAMPLES = 300
N_PATHS = 10  # run_table1_circuit's default
SETUP_ROUNDS = 3
PASS_SECONDS = 2.0  # one pass on a 2-CPU host, process backend
TAIL = 75.0
ALIASES = {"ops_per_s": "trials_per_s", "op_p50_ms": "trial_p50_ms",
           "op_tail_ms": "trial_p75_ms"}


def pass_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def campaign(circuit: str, seed: int):
    """One item through the program's public entry point."""
    result = run_table1_circuit(
        circuit, n_trials=TRIALS, n_samples=SAMPLES, seed=seed, n_paths=N_PATHS
    )
    records = result.evaluation.records
    answers = [
        trial_answer(record.defect_edge, record.n_patterns, record.ranks)
        for record in records
    ]
    return answers, [record.seconds for record in records]


def passes_for(seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS))


def run_items(seed: int, passes):
    """Whole passes over :data:`CIRCUITS`, for each pass index in ``passes``.

    Returns ``[(key, circuit, program seed, answers, trial seconds)]`` and
    the busy time spent inside the program.
    """
    done = []
    busy = 0.0
    for index in passes:
        for circuit in CIRCUITS:
            program_seed = pass_seed(seed, index)
            started = time.perf_counter()
            answers, seconds = campaign(circuit, program_seed)
            busy += time.perf_counter() - started
            done.append((f"{circuit}/seed{program_seed}", circuit, program_seed,
                         answers, seconds))
    return done, busy


def run(ctx) -> dict:
    return run_traced(ctx) if ctx.trace else run_untraced(ctx)


def run_untraced(ctx) -> dict:
    setup = []
    for _round in range(SETUP_ROUNDS):
        started = time.perf_counter()
        for circuit in CIRCUITS:
            load_timing(circuit, pass_seed(ctx.seed, 0), SAMPLES, LayerTimer())
        setup.append(time.perf_counter() - started)

    ctx.set_backend("process")
    items, busy = run_items(ctx.seed, range(passes_for(ctx.seconds)))
    trial_ms = [1000.0 * s for *_head, seconds in items for s in seconds]

    # Every trial is checked against a serial run of the same item; the
    # first pass alone is the digest, so it does not depend on --seconds.
    ctx.set_backend("serial")
    answers, reference = {}, {}
    for key, circuit, program_seed, item_answers, _seconds in items:
        expected, _ = campaign(circuit, program_seed)
        for index, (got, want) in enumerate(zip(item_answers, expected)):
            ctx.ledger.check(f"{key}/trial{index}", got, want)
        if program_seed == pass_seed(ctx.seed, 0):
            answers[key], reference[key] = item_answers, expected

    return {
        "end_to_end": {
            "ops_per_s": len(trial_ms) / busy,
            "op_p50_ms": percentile(trial_ms, 50.0),
            "op_tail_ms": percentile(trial_ms, TAIL),
            "setup_s": statistics.median(setup),
        },
        "answers": answers,
        "reference_answers": reference,
        "details": {
            "aliases": ALIASES,
            "items": len(items),
            "trial_ms": summarize(trial_ms, TAIL),
            "setup_rounds_s": setup,
            "workers": ctx.workers,
        },
    }


def run_traced(ctx) -> dict:
    setup = LayerTimer()
    for circuit in CIRCUITS:
        load_timing(circuit, pass_seed(ctx.seed, 0), SAMPLES, setup)

    # The untraced half: the same items through run_table1_circuit.
    ctx.set_backend("process")
    items, untraced_wall = run_items(ctx.seed, range(passes_for(ctx.seconds / 2)))

    traced = LayerTimer()
    replica = {}
    trial_wall = covered = 0.0
    recorder = obs.Recorder()
    started = time.perf_counter()
    with obs.use_recorder(recorder):
        for key, circuit, program_seed, _answers, _seconds in items:
            timing = load_timing(circuit, program_seed, SAMPLES, traced)
            replica[key] = table1_trials(timing, TRIALS, program_seed, N_PATHS, traced)
    traced_wall = time.perf_counter() - started
    for trials in replica.values():
        for trial in trials:
            trial_wall += trial["seconds"]
            covered += trial["covered"]

    ctx.set_backend("serial")
    serial = LayerTimer()
    answers, reference = {}, {}
    for key, circuit, program_seed, untraced_answers, _seconds in items:
        timing = load_timing(circuit, program_seed, SAMPLES, serial)
        expected = [t["answer"] for t in
                    table1_trials(timing, TRIALS, program_seed, N_PATHS, serial)]
        got = [trial["answer"] for trial in replica[key]]
        for index, (mine, want) in enumerate(zip(got, expected)):
            ctx.ledger.check(f"{key}/trial{index}", mine, want)
        if got != untraced_answers:
            ctx.ledger.fail(key, "traced replica ranks differ from run_table1_circuit")
        if program_seed == pass_seed(ctx.seed, 0):
            answers[key], reference[key] = got, expected

    layers = layer_metrics(traced, traced_wall)
    layers.update({
        "circuits.load_s": setup.busy("circuits"),
        "timing.compile_s": setup.busy("timing.compile"),
        "core.parallel.speedup": serial.busy("core.dictionary") / traced.busy("core.dictionary"),
        "trace.overhead": traced_wall / untraced_wall,
    })
    return {
        "layers": layers,
        "answers": answers,
        "reference_answers": reference,
        "obs": recorder.snapshot(),
        "details": {
            "items": len(items),
            "trials": sum(len(trials) for trials in replica.values()),
            "trial_wall_s": trial_wall,
            "trial_coverage": covered / trial_wall,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "serial_dictionary_busy_s": serial.busy("core.dictionary"),
        },
    }
