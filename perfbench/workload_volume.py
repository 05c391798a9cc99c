"""``volume``: tester-floor volume diagnosis of failing chips.

Set-up: ``standard_workload`` builds one fixed production pattern set
per circuit (:data:`CIRCUITS`, ``n_paths=20``, 300 samples, program seed
``PRODUCTION_SEED``) and ``draw_query_behaviors`` draws :data:`CHIPS`
failing-chip behaviours per circuit from ``--seed``.  Timed: the chips,
alternating circuits, are diagnosed cold one at a time with
``run_diagnosis`` (suspect pruning, ``build_dictionary``,
``diagnose_all``) on the ``process`` backend, cycling through the chip
set until ``--seconds`` is spent (the first cycle always runs whole).
Set-up runs :data:`SETUP_ROUNDS` times, each round followed by its share
of the stream; ``setup_s`` is the median round.

Why this workload: ATPG runs only in set-up and ``build_dictionary`` is
about 95% of per-chip time, so it exercises the dictionary runtime and
bypasses ATPG.
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.core import run_diagnosis
from repro.service import draw_query_behaviors, standard_workload

from helpers import LayerTimer, layer_metrics, percentile, summarize
from replica import (
    METHODS,
    PRODUCTION_SEED,
    behavior_seed,
    check_set_up,
    diagnose_chip,
)

CIRCUITS = ("s1196", "s5378")
N_PATHS = 20
SAMPLES = 300
CHIPS = 32
TOP_K = 10
SETUP_ROUNDS = 3
TAIL = 90.0
ALIASES = {"ops_per_s": "chips_per_s", "op_p50_ms": "chip_p50_ms",
           "op_tail_ms": "chip_p90_ms"}


def set_up(seed: int):
    """``[(key, workload, behavior)]`` in stream order."""
    built = {}
    for circuit in CIRCUITS:
        workload, model = standard_workload(
            circuit, samples=SAMPLES, seed=PRODUCTION_SEED, n_paths=N_PATHS
        )
        behaviors = draw_query_behaviors(workload, model, CHIPS, seed=behavior_seed(seed))
        built[circuit] = (workload, behaviors)
    return [
        (f"{circuit}/chip{index}", built[circuit][0], built[circuit][1][index])
        for index in range(CHIPS) for circuit in CIRCUITS
    ]


def chip_answer(results) -> dict:
    """The top-K ranking per method."""
    return {name: [str(edge) for edge in results[name].top(TOP_K)]
            for name in sorted(results)}


def diagnose(workload, behavior):
    results, _dictionary = run_diagnosis(
        workload.timing, workload.patterns, workload.clk, behavior,
        workload.size_samples,
        error_functions=METHODS,
        base_simulations=workload.base_simulations,
        size_distribution=workload.size_distribution,
    )
    return chip_answer(results)


def run_stream(chips, deadline: float, done: list) -> list:
    """Diagnose the chips in stream order, going on after the ``done``
    ones, until ``deadline`` and until the first cycle is whole; appends
    ``(key, answer, seconds)`` to ``done`` and returns it."""
    while len(done) < len(chips) or time.perf_counter() < deadline:
        key, workload, behavior = chips[len(done) % len(chips)]
        started = time.perf_counter()
        answer = diagnose(workload, behavior)
        done.append((key, answer, time.perf_counter() - started))
    return done


def run(ctx) -> dict:
    return run_traced(ctx) if ctx.trace else run_untraced(ctx)


def reference_answers(ctx, chips) -> dict:
    ctx.set_backend("serial")
    return {key: diagnose(workload, behavior) for key, workload, behavior in chips}


def run_untraced(ctx) -> dict:
    # Each set-up round is followed by its share of the stream, so the
    # rounds sample the host across the run rather than its first seconds:
    # the host's speed changes over stretches of tens of seconds.
    ctx.set_backend("process")
    setup, done = [], []
    for _round in range(SETUP_ROUNDS):
        started = time.perf_counter()
        chips = set_up(ctx.seed)
        setup.append(time.perf_counter() - started)
        run_stream(chips, time.perf_counter() + ctx.seconds / SETUP_ROUNDS, done)
    busy = sum(seconds for _key, _answer, seconds in done)
    chip_ms = [1000.0 * seconds for _key, _answer, seconds in done]

    reference = reference_answers(ctx, chips)
    answers = {}
    for key, answer, _seconds in done:
        ctx.ledger.check(key, answer, reference[key])
        answers.setdefault(key, answer)
    return {
        "end_to_end": {
            "ops_per_s": len(done) / busy,
            "op_p50_ms": percentile(chip_ms, 50.0),
            "op_tail_ms": percentile(chip_ms, TAIL),
            "setup_s": statistics.median(setup),
        },
        "answers": answers,
        "reference_answers": reference,
        "details": {
            "aliases": ALIASES,
            "chip_ms": summarize(chip_ms, TAIL),
            "distinct_chips": len(chips),
            "setup_rounds_s": setup,
            "workers": ctx.workers,
        },
    }


def run_traced(ctx) -> dict:
    timer = LayerTimer()
    setup_wall = check_set_up(ctx, CIRCUITS, SAMPLES, N_PATHS, timer)
    chips = set_up(ctx.seed)

    ctx.set_backend("process")
    done = run_stream(chips, time.perf_counter() + ctx.seconds / 2, [])
    untraced_wall = sum(seconds for _key, _answer, seconds in done)
    by_key = {key: (workload, behavior) for key, workload, behavior in chips}

    def replay(chip_timer):
        answers = []
        for key, _answer, _seconds in done:
            workload, behavior = by_key[key]
            results, _dictionary = diagnose_chip(
                workload.timing, workload.patterns, workload.clk, behavior,
                workload.base_simulations, workload.size_samples,
                workload.size_distribution, chip_timer,
            )
            answers.append(chip_answer(results))
        return answers

    recorder = obs.Recorder()
    started = time.perf_counter()
    with obs.use_recorder(recorder):
        traced_answers = replay(timer)
    traced_wall = time.perf_counter() - started

    ctx.set_backend("serial")
    serial = LayerTimer()
    serial_answers = replay(serial)

    answers, reference = {}, {}
    for (key, untraced_answer, _seconds), mine, want in zip(done, traced_answers, serial_answers):
        ctx.ledger.check(key, mine, want)
        if mine != untraced_answer:
            ctx.ledger.fail(key, "traced replica differs from run_diagnosis")
        answers.setdefault(key, mine)
        reference.setdefault(key, want)

    layers = layer_metrics(timer, setup_wall + traced_wall)
    layers.update({
        "core.parallel.speedup": serial.busy("core.dictionary") / timer.busy("core.dictionary"),
        "trace.overhead": traced_wall / untraced_wall,
    })
    return {
        "layers": layers,
        "answers": answers,
        "reference_answers": reference,
        "obs": recorder.snapshot(),
        "details": {
            "chips": len(done),
            "setup_wall_s": setup_wall,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "serial_dictionary_busy_s": serial.busy("core.dictionary"),
        },
    }
