"""Wall-clock benchmark of parallel + cached dictionary construction.

Runs the probabilistic-fault-dictionary build on ISCAS89-class circuits
under every execution strategy — serial, process pool at several worker
counts, and a warm on-disk cache — and emits the measurements as
``BENCH_parallel.json`` (the ``BENCH_*.json`` schema: one ``runs`` list of
flat records plus environment metadata), so the performance trajectory of
the hot path is recorded run over run.

Interpretation notes:

* process-pool speedup is bounded by physical cores; the emitted
  ``cpu_count`` field says how many this host actually had (on a 1-core
  container the parallel rows measure pure overhead, by design),
* the cache row measures a warm hit on the mmap dictionary store
  (checksum-verified on every load), i.e. the steady state of clock
  sweeps and repeated diagnoses over the same model,
* results are asserted bit-identical across all strategies before any
  timing is reported — a fast wrong build must never enter the record,
* every row records ``dispatch``: ``pool`` when the build reached the
  worker pool, ``serial`` when it ran in-process (below
  ``POOL_BREAK_EVEN_WORK``, counter ``parallel.dispatch.below_break_even``)
  or was a serial or cached build; a ``process-N`` row labelled
  ``serial`` is not a pool speedup.

Exit status: nonzero when any strategy's dictionary differs from the
serial build (the bit-identity assertions) or the warm run misses the
cache.  Timings are recorded and reported, not gated.

Usage: ``PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro import obs
from repro.atpg import generate_path_tests
from repro.circuits import load_benchmark
from repro.core import (
    DictionaryStore,
    ParallelConfig,
    build_dictionary,
    suspect_edges,
)
from repro.defects import SingleDefectModel, behavior_matrix
from repro.timing import (
    CircuitTiming,
    SampleSpace,
    diagnosis_clock,
    simulate_pattern_set,
)

#: Circuits ordered small to large; the last entry is the headline number.
CIRCUITS = ("s1196", "s1488", "s5378")
QUICK_CIRCUITS = ("s1196",)
WORKER_COUNTS = (2, 4)


def _build_case(name: str, n_samples: int, n_paths: int, seed: int):
    """One realistic diagnosis problem: a failing chip and its suspects."""
    circuit = load_benchmark(name, seed=seed)
    timing = CircuitTiming(circuit, SampleSpace(n_samples=n_samples, seed=seed))
    model = SingleDefectModel(timing)
    rng = np.random.default_rng(seed)
    for _attempt in range(20):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            timing, defect.edge, n_paths=n_paths, rng_seed=seed
        )
        if len(patterns):
            break
    else:
        raise RuntimeError(f"no testable defect site found on {name}")
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    behavior = behavior_matrix(timing, patterns, clk, defect, 3)
    suspects = suspect_edges(sims, behavior)
    if len(suspects) < 8:
        # A barely-failing instance prunes too hard to exercise the fan-out;
        # widen to every edge feeding the defect's output cone instead.
        cone = set(timing.circuit.fanout_cone(defect.edge.sink))
        suspects = [e for e in timing.circuit.edges if e.sink in cone][:200]
    sizes = model.dictionary_size_variable().samples
    return timing, patterns, clk, suspects, sizes, sims


def _identical(a, b) -> bool:
    return np.array_equal(a.m_crt, b.m_crt) and all(
        np.array_equal(a.signatures[e], b.signatures[e]) for e in a.suspects
    )


def bench_circuit(name: str, n_samples: int, n_paths: int, repeats: int):
    timing, patterns, clk, suspects, sizes, sims = _build_case(
        name, n_samples=n_samples, n_paths=n_paths, seed=0
    )
    base = dict(
        circuit=name,
        n_edges=len(timing.circuit.edges),
        n_suspects=len(suspects),
        n_patterns=len(patterns),
        n_samples=n_samples,
    )
    runs = []

    def timed(label, backend, workers, **kwargs):
        best = float("inf")
        result = None
        for _repeat in range(repeats):
            started = time.perf_counter()
            result = build_dictionary(
                timing, patterns, clk, suspects, sizes,
                base_simulations=sims, **kwargs,
            )
            best = min(best, time.perf_counter() - started)
        # One more, untimed build under a recorder says where the timed
        # ones ran: in the pool, or in-process below break-even.
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            build_dictionary(
                timing, patterns, clk, suspects, sizes,
                base_simulations=sims, **kwargs,
            )
        pooled = backend == "process" and not recorder.counter_value(
            "parallel.dispatch.below_break_even"
        )
        runs.append(
            dict(base, strategy=label, backend=backend, workers=workers,
                 dispatch="pool" if pooled else "serial",
                 seconds=round(best, 6))
        )
        return result

    reference = timed("serial", "serial", 1)
    for workers in WORKER_COUNTS:
        parallel = timed(
            f"process-{workers}", "process", workers,
            parallel=ParallelConfig(backend="process", n_workers=workers),
        )
        assert _identical(reference, parallel), "parallel build diverged"

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = DictionaryStore(cache_dir)
        build_dictionary(  # cold store
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        warm = timed("cache-hit", "cache", 1, cache=cache)
        assert cache.stats.hits >= 1, "warm run did not hit the cache"
        assert _identical(reference, warm), "cached build diverged"

    serial_seconds = runs[0]["seconds"]
    for run in runs:
        run["speedup"] = round(serial_seconds / run["seconds"], 3)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smallest circuit only, fewer samples")
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--paths", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", default=os.path.join(os.path.dirname(__file__) or ".",
                                         "BENCH_parallel.json"),
    )
    args = parser.parse_args(argv)

    circuits = QUICK_CIRCUITS if args.quick else CIRCUITS
    samples = min(args.samples, 150) if args.quick else args.samples
    runs = []
    for name in circuits:
        print(f"benchmarking {name} ...", flush=True)
        circuit_runs = bench_circuit(
            name, n_samples=samples, n_paths=args.paths, repeats=args.repeats
        )
        runs.extend(circuit_runs)
        for run in circuit_runs:
            print(
                f"  {run['strategy']:>14s}: {run['seconds']*1e3:9.1f} ms  "
                f"(x{run['speedup']:.2f}, suspects={run['n_suspects']}, "
                f"dispatch={run['dispatch']})"
            )

    report = {
        "bench": "parallel_dictionary",
        "schema_version": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "config": {
            "samples": samples,
            "paths": args.paths,
            "repeats": args.repeats,
            "circuits": list(circuits),
        },
        "runs": runs,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    largest = circuits[-1]
    four = [r for r in runs
            if r["circuit"] == largest and r["strategy"] == "process-4"]
    if four and (os.cpu_count() or 1) >= 4:
        status = "OK" if four[0]["speedup"] >= 2.0 else "BELOW TARGET"
        print(f"process-4 on {largest}: x{four[0]['speedup']:.2f} "
              f"(target >= x2.0) {status}")
    elif four:
        print(
            f"process-4 on {largest}: x{four[0]['speedup']:.2f} — host has "
            f"{os.cpu_count()} CPU(s); the >=2x scaling target needs >= 4 cores"
        )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
