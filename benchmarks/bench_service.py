"""Wall-clock benchmark of the warm diagnosis service.

Measures the latency/throughput profile the service layer exists for —
cold first-query cost (dictionary build) versus warm steady state, warm
batched throughput in queries/sec, and the mmap-store warm start a
restarted service pays instead of a rebuild — and emits the
measurements as ``BENCH_service.json`` (the ``BENCH_*.json`` schema: one
``runs`` list of flat records plus environment metadata).

Interpretation notes:

* ``cold-first-query`` includes the full dictionary build; it is the
  price of the *first* request only and the reason the service warms at
  startup,
* ``warm-batch-N`` is the headline: queries/sec through the vectorized
  ``diagnose_batch`` kernel on an already-warm dictionary (target:
  >= 100 q/s on s1196, even single-core).  s15850 runs the same rows on
  its full suspect set against 684x6 behaviors, where only the few output
  rows some suspect's fanout cone reaches are scored,
* ``store-warm-start`` maps the dictionary from a
  :class:`~repro.core.DictionaryStore` entry instead of rebuilding —
  the restart path,
* warm batch answers are asserted identical to the scalar
  ``ErrorFunction`` ranking (and to one-shot ``diagnose``) before any
  timing — a fast wrong ranking must never enter the record.

Usage: ``PYTHONPATH=src python benchmarks/bench_service.py [--quick]``
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro.core import DictionaryStore, by_name, diagnose
from repro.service import (
    DiagnosisRequest,
    DiagnosisService,
    draw_query_behaviors,
    standard_workload,
)

#: The acceptance throughput floor: warm batched queries/sec on s1196.
TARGET_QPS = 100.0
BENCHMARK = "s1196"
#: Every circuit benchmarked; the floor gates ``BENCHMARK``.
CIRCUITS = (BENCHMARK, "s15850")


def _requests(workload_name, behaviors, error_function):
    return [
        DiagnosisRequest(
            workload=workload_name, behavior=b, error_function=error_function
        )
        for b in behaviors
    ]


def _scalar_ranking(dictionary, behavior, function):
    """The reference: each suspect scored by the scalar error function."""
    scored = [
        (edge, function(dictionary.e_crt(edge), behavior))
        for edge in dictionary.suspects
    ]
    sign = -1.0 if function.higher_is_better else 1.0
    return sorted(scored, key=lambda item: sign * item[1])


def bench_service(circuit, samples, n_paths, n_queries, batch_size, repeats,
                  error_function):
    workload, model = standard_workload(
        circuit, samples=samples, seed=0, n_paths=n_paths
    )
    behaviors = draw_query_behaviors(workload, model, n_queries, seed=1000)
    base = dict(
        circuit=circuit,
        n_suspects=len(workload.suspects),
        n_patterns=len(workload.patterns),
        n_outputs=workload.behavior_shape[0],
        n_samples=samples,
        error_function=error_function,
    )
    runs = []

    # -- cold: the first query pays the dictionary build ----------------
    cold = DiagnosisService()
    cold.register(dataclasses.replace(workload, dictionary=None))
    started = time.perf_counter()
    cold.diagnose(workload.name, behaviors[0], error_function=error_function)
    cold_seconds = time.perf_counter() - started
    runs.append(dict(base, strategy="cold-first-query", queries=1,
                     seconds=round(cold_seconds, 6)))

    # -- warm single-query latency --------------------------------------
    service = cold  # the first query warmed it
    best = float("inf")
    for _repeat in range(repeats):
        started = time.perf_counter()
        service.diagnose(
            workload.name, behaviors[0], error_function=error_function
        )
        best = min(best, time.perf_counter() - started)
    runs.append(dict(base, strategy="warm-single-query", queries=1,
                     seconds=round(best, 6)))

    # -- warm batched throughput (the headline) -------------------------
    requests = _requests(workload.name, behaviors, error_function)
    # a fast wrong ranking must never enter the record
    dictionary = service.workload(workload.name).dictionary
    function = by_name(error_function)
    checked = service.diagnose_batch(requests[:batch_size])
    for behavior, answer in zip(behaviors, checked):
        reference = _scalar_ranking(dictionary, behavior, function)
        assert answer.ranking == reference, "batched answer diverged"
        one_shot = diagnose(dictionary, behavior, error_function=function)
        assert answer.ranking == one_shot.ranking, "one-shot answer diverged"
    best = float("inf")
    for _repeat in range(repeats):
        started = time.perf_counter()
        for start in range(0, len(requests), batch_size):
            service.diagnose_batch(requests[start:start + batch_size])
        best = min(best, time.perf_counter() - started)
    runs.append(dict(
        base, strategy=f"warm-batch-{batch_size}", queries=len(requests),
        seconds=round(best, 6),
    ))

    # -- restart path: mmap the dictionary from a store -----------------
    with tempfile.TemporaryDirectory() as store_dir:
        store = DictionaryStore(store_dir)
        seeded = DiagnosisService(cache=store)
        seeded.register(dataclasses.replace(workload, dictionary=None))
        seeded.warm(workload.name)  # builds once, publishes to the store
        assert store.stats.stores == 1

        restarted = DiagnosisService(cache=store)
        restarted.register(dataclasses.replace(workload, dictionary=None))
        started = time.perf_counter()
        restarted.warm(workload.name)
        warm_start_seconds = time.perf_counter() - started
        assert store.stats.hits >= 1, "restart did not hit the store"
        runs.append(dict(base, strategy="store-warm-start", queries=0,
                         seconds=round(warm_start_seconds, 6)))

    for run in runs:
        run["qps"] = (
            round(run["queries"] / run["seconds"], 1)
            if run["queries"] and run["seconds"] > 0 else None
        )
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer samples and queries (CI smoke)")
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--paths", type=int, default=8)
    parser.add_argument("--queries", type=int, default=256)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--error-function", default="alg_rev")
    parser.add_argument(
        "--output", default=os.path.join(os.path.dirname(__file__) or ".",
                                         "BENCH_service.json"),
    )
    args = parser.parse_args(argv)

    samples = min(args.samples, 120) if args.quick else args.samples
    n_queries = min(args.queries, 64) if args.quick else args.queries
    runs = []
    for circuit in CIRCUITS:
        print(f"benchmarking the diagnosis service on {circuit} "
              f"({samples} samples, {n_queries} queries) ...", flush=True)
        circuit_runs = bench_service(
            circuit, samples=samples, n_paths=args.paths,
            n_queries=n_queries, batch_size=args.batch,
            repeats=args.repeats, error_function=args.error_function,
        )
        for run in circuit_runs:
            qps = f"{run['qps']:10.1f} q/s" if run["qps"] else " " * 14
            print(f"  {run['strategy']:>18s}: "
                  f"{run['seconds']*1e3:9.1f} ms  {qps}")
        runs.extend(circuit_runs)

    report = {
        "bench": "diagnosis_service",
        "schema_version": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "config": {
            "circuits": list(CIRCUITS),
            "samples": samples,
            "paths": args.paths,
            "queries": n_queries,
            "batch": args.batch,
            "repeats": args.repeats,
            "error_function": args.error_function,
        },
        "runs": runs,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    headline = next(
        r for r in runs
        if r["circuit"] == BENCHMARK and r["strategy"].startswith("warm-batch")
    )
    status = "OK" if headline["qps"] >= TARGET_QPS else "BELOW TARGET"
    print(f"warm batched throughput on {BENCHMARK}: {headline['qps']:.1f} q/s "
          f"(target >= {TARGET_QPS:.0f} q/s) {status}")
    return 0 if headline["qps"] >= TARGET_QPS else 1


if __name__ == "__main__":
    raise SystemExit(main())
