"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library so the common flows run without writing
Python.  Commands:

* ``info <benchmark>``           — circuit statistics and timing summary
* ``sta <benchmark>``            — statistical STA report (MC + analytic)
* ``atpg <benchmark> <edge#>``   — path-delay tests through an edge
* ``diagnose <benchmark>``       — inject a random defect and diagnose it
* ``table1 [circuits...]``       — the Table I reproduction
* ``benchmarks``                 — list known benchmark circuits
* ``lint``                       — static analysis: determinism linter over
  the codebase and/or semantic checks over the shipped benchmark models
* ``profile <benchmark>``        — fully instrumented diagnosis round:
  span tree, cache/counter/convergence metrics, run manifest
* ``serve <benchmarks...>``      — warm diagnosis-as-a-service JSON-lines
  server (bounded queue, micro-batching; see docs/architecture.md §15)
* ``query``                      — thin client for a running server:
  ping/stats or a diagnose round trip from a behavior-matrix JSON file

Every command accepts ``--metrics out.json``: the run executes under a
live :mod:`repro.obs` recorder and emits a schema-validated run manifest.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

#: Documented exit-code contract (also in ``--help`` and the README).
EXIT_OK = 0
EXIT_INTERNAL = 1  # unexpected exception: a bug; traceback printed
EXIT_USAGE = 2  # user error: bad arguments, mismatched checkpoint
EXIT_TRANSIENT = 3  # infrastructure failure persisting after retries
EXIT_INTERRUPTED = 130  # Ctrl-C (128 + SIGINT), the shell convention

EPILOG = """\
exit status:
  0    success
  1    internal error (unexpected exception; traceback on stderr)
  2    user error (bad arguments, checkpoint from a different run)
  3    transient infrastructure failure that survived every retry and
       fallback (broken worker pools, chunk deadlines, injected chaos)
  130  interrupted (Ctrl-C)
"""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _apply_execution_flags(args) -> None:
    """Export ``--parallel`` / ``--cache-dir`` flags into the environment.

    Every dictionary construction resolves its executor and cache from the
    ``REPRO_PARALLEL_*`` / ``REPRO_CACHE_DIR`` environment when not passed
    explicitly, so setting the environment here configures the whole call
    tree (table1 -> evaluate_circuit -> run_diagnosis -> build_dictionary)
    without threading arguments through each layer.
    """
    backend = getattr(args, "parallel", None)
    if backend:
        os.environ["REPRO_PARALLEL_BACKEND"] = backend
    workers = getattr(args, "workers", None)
    if workers:
        os.environ["REPRO_PARALLEL_WORKERS"] = str(workers)
    chunk = getattr(args, "chunk_size", None)
    if chunk:
        os.environ["REPRO_PARALLEL_CHUNK"] = str(chunk)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    cache_max = getattr(args, "cache_max_entries", None)
    if cache_max:
        os.environ["REPRO_CACHE_MAX_ENTRIES"] = str(cache_max)
    retries = getattr(args, "retries", None)
    if retries is not None:
        os.environ["REPRO_RETRY_MAX"] = str(retries)
    chunk_timeout = getattr(args, "chunk_timeout", None)
    if chunk_timeout is not None:
        os.environ["REPRO_RETRY_TIMEOUT"] = str(chunk_timeout)
    if getattr(args, "no_degrade", False):
        os.environ["REPRO_RETRY_NO_DEGRADE"] = "1"
    kernel = getattr(args, "kernel", None)
    if kernel:
        os.environ["REPRO_TIMING_KERNEL"] = kernel
    sampler = getattr(args, "sampler", None)
    if sampler:
        os.environ["REPRO_SAMPLER"] = sampler


def _load_timing(name: str, samples: int, seed: int):
    from .circuits import load_benchmark
    from .timing import CircuitTiming, SampleSpace

    circuit = load_benchmark(name, seed=seed)
    return CircuitTiming(circuit, SampleSpace(n_samples=samples, seed=seed))


def cmd_benchmarks(_args) -> int:
    from .circuits import PROFILES, benchmark_names

    print("known benchmarks:")
    for name in benchmark_names():
        profile = PROFILES.get(name)
        if profile is None:
            print(f"  {name:8s} (embedded genuine netlist)")
        else:
            print(
                f"  {name:8s} PI {profile.published_inputs:3d}  "
                f"PO {profile.published_outputs:3d}  "
                f"DFF {profile.published_dffs:3d}  "
                f"gates {profile.published_gates:5d}  "
                f"scale {profile.default_scale:.2f}"
            )
    return 0


def cmd_info(args) -> int:
    timing = _load_timing(args.benchmark, args.samples, args.seed)
    circuit = timing.circuit
    stats = circuit.stats()
    print(f"{circuit.name}: {stats}")
    print(f"mean cell delay: {timing.mean_cell_delay():.3f} delay units")
    return 0


def cmd_sta(args) -> int:
    from .timing import analyze, analyze_analytic, suggest_clock

    timing = _load_timing(args.benchmark, args.samples, args.seed)
    sta = analyze(timing)
    delay = sta.circuit_delay()
    print(f"{timing.circuit.name}: circuit delay (Monte-Carlo, "
          f"n={timing.space.n_samples})")
    print(f"  mean {delay.mean:.3f}  std {delay.std:.3f}  "
          f"q95 {delay.quantile(0.95):.3f}  q99 {delay.quantile(0.99):.3f}")
    analytic = analyze_analytic(timing)["__circuit__"]
    print(f"  analytic (Clark): mean {analytic.mean:.3f}  std {analytic.std:.3f}")
    print(f"  suggested test clock (q95): {suggest_clock(timing, 0.95):.3f}")
    return 0


def cmd_atpg(args) -> int:
    from .atpg import generate_path_tests

    timing = _load_timing(args.benchmark, args.samples, args.seed)
    circuit = timing.circuit
    if not 0 <= args.edge < len(circuit.edges):
        print(f"edge index out of range (0..{len(circuit.edges) - 1})",
              file=sys.stderr)
        return 2
    edge = circuit.edges[args.edge]
    patterns, tests = generate_path_tests(
        timing, edge, n_paths=args.paths, rng_seed=args.seed
    )
    print(f"site {edge}: {len(patterns)} tests")
    for index, test in enumerate(tests):
        print(f"  test {index}: {test.achieved.value:10s} "
              f"len {len(test.path):3d}  "
              f"nominal {test.path.nominal_length(timing):7.2f}  "
              f"path {test.path}")
    return 0


def cmd_diagnose(args) -> int:
    from . import quick_diagnosis_demo

    report = quick_diagnosis_demo(args.benchmark, seed=args.seed,
                                  n_samples=args.samples)
    print(f"benchmark          : {report['benchmark']}")
    print(f"injected defect    : {report['injected']} (hidden ground truth)")
    print(f"patterns applied   : {report['patterns']}")
    print(f"cut-off clock      : {report['clk']:.3f}")
    print(f"failing entries    : {report['failing_observations']}")
    print(f"suspects           : {report['suspects']}")
    print("rank of true defect:")
    for method, rank in report["rank_by_method"].items():
        print(f"  {method:10s}: {rank}")
    return 0


def cmd_characterize(args) -> int:
    """Inject a random defect, then locate + size + type it; optional
    markdown report via ``--report``."""
    from .atpg import generate_path_tests
    from .core import (
        build_dictionary,
        diagnose_all,
        estimate_defect_size,
        suspect_edges,
    )
    from .defects import SingleDefectModel, classify_defect_type, draw_failing_trial
    from .experiments import render_diagnosis_report
    from .timing import diagnosis_clock, simulate_pattern_set

    timing = _load_timing(args.benchmark, args.samples, args.seed)
    rng = np.random.default_rng(args.seed)
    model = SingleDefectModel(timing)
    defect = patterns = None
    for _ in range(20):
        defect = model.draw(rng)
        patterns, _ = generate_path_tests(
            timing, defect.edge, n_paths=10, rng_seed=args.seed
        )
        if len(patterns):
            break
    if patterns is None or not len(patterns):
        print("could not generate patterns for any drawn defect", file=sys.stderr)
        return 1
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(
        timing, list(patterns), 0.85,
        simulations=sims, targets=patterns.target_observations(),
    )
    trial, _ = draw_failing_trial(timing, patterns, clk, model, rng, defect=defect)
    suspects = suspect_edges(sims, trial.behavior)
    dictionary = build_dictionary(
        timing, patterns, clk, suspects,
        model.dictionary_size_variable().samples, base_simulations=sims,
        size_distribution=model.dictionary_size_distribution(),
    )
    results = diagnose_all(dictionary, trial.behavior)
    located = results["alg_rev"].top(1)[0] if results["alg_rev"].ranking else None
    size_estimate = None
    type_verdict = None
    if located is not None:
        size_estimate = estimate_defect_size(
            timing, patterns, clk, trial.behavior, located, base_simulations=sims
        )
        type_verdict = classify_defect_type(
            timing, patterns, clk, trial.behavior, located, base_simulations=sims
        )
    report = render_diagnosis_report(
        args.benchmark, clk, trial.behavior, results, dictionary,
        size_estimate=size_estimate, type_verdict=type_verdict,
    )
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report)
        print(f"report written to {args.report}")
    else:
        print(report)
    print(f"(hidden ground truth: {defect.edge}, "
          f"alg_rev rank {results['alg_rev'].rank_of(defect.edge)})")
    return 0


def cmd_profile(args) -> int:
    """One fully instrumented diagnosis round (see ``docs/architecture.md``
    §10): simulate a failing chip, build the fault dictionary cold and
    warm through a cache, diagnose — all under a live metrics recorder —
    then prove the instrumented dictionary is bit-identical to an
    uninstrumented build and print/emit the metrics.
    """
    import tempfile

    from . import obs
    from .atpg import generate_path_tests
    from .core import (
        DictionaryStore,
        build_dictionary,
        diagnose_all,
        resolve_cache,
        suspect_edges,
    )
    from .defects import SingleDefectModel, draw_failing_trial
    from .timing import diagnosis_clock, simulate_pattern_set

    recorder = obs.get_recorder()
    if not recorder.enabled:  # no --metrics flag: still profile, to stdout
        recorder = obs.install()

    with recorder.span("profile"):
        with recorder.span("profile.load"):
            timing = _load_timing(args.benchmark, args.samples, args.seed)
        rng = np.random.default_rng(args.seed)
        model = SingleDefectModel(timing)
        with recorder.span("profile.atpg"):
            defect = patterns = None
            for _ in range(20):
                defect = model.draw(rng)
                patterns, _tests = generate_path_tests(
                    timing, defect.edge, n_paths=args.paths, rng_seed=args.seed
                )
                if len(patterns):
                    break
            if patterns is None or not len(patterns):
                print("could not generate patterns for any drawn defect",
                      file=sys.stderr)
                return 1
        with recorder.span("profile.simulate"):
            sims = simulate_pattern_set(timing, list(patterns))
            clk = diagnosis_clock(
                timing, list(patterns), 0.85,
                simulations=sims, targets=patterns.target_observations(),
            )
            trial, _redraws = draw_failing_trial(
                timing, patterns, clk, model, rng, defect=defect
            )
            suspects = suspect_edges(sims, trial.behavior)
        sizes = model.dictionary_size_variable().samples
        distribution = model.dictionary_size_distribution()
        with tempfile.TemporaryDirectory(prefix="repro-profile-") as scratch:
            # An explicit --cache-dir profiles that cache; otherwise a
            # scratch directory exercises the cold-store/warm-hit path.
            cache = resolve_cache(None) or DictionaryStore(scratch)
            with recorder.span("profile.dictionary"):
                dictionary = build_dictionary(
                    timing, patterns, clk, suspects, sizes,
                    base_simulations=sims, cache=cache,
                    size_distribution=distribution,
                )
                build_dictionary(  # warm pass: served from the cache
                    timing, patterns, clk, suspects, sizes, cache=cache,
                    size_distribution=distribution,
                )
        with recorder.span("profile.diagnose"):
            results = diagnose_all(dictionary, trial.behavior)

    # The determinism proof the manifest carries: rebuilding with
    # instrumentation disabled must reproduce the dictionary bit for bit.
    with obs.use_recorder(obs.NullRecorder()):
        reference = build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims,
            size_distribution=distribution,
        )
    identical = np.array_equal(reference.m_crt, dictionary.m_crt) and all(
        np.array_equal(reference.signatures[edge], dictionary.signatures[edge])
        for edge in reference.suspects
    )
    recorder.gauge("profile.bit_identical", 1.0 if identical else 0.0)

    # The second determinism proof: the other timing kernel reproduces the
    # dictionary bit for bit.  Rebuilt cache-less from fresh base
    # simulations — a cache hit here would prove nothing.
    from .timing import active_kernel

    this_kernel = active_kernel()
    other_kernel = "reference" if this_kernel == "compiled" else "compiled"
    saved_env = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_TIMING_KERNEL", "REPRO_CACHE_DIR")
    }
    os.environ["REPRO_TIMING_KERNEL"] = other_kernel
    try:
        with obs.use_recorder(obs.NullRecorder()):
            other_sims = simulate_pattern_set(timing, list(patterns))
            other = build_dictionary(
                timing, patterns, clk, suspects, sizes,
                base_simulations=other_sims,
                size_distribution=distribution,
            )
    finally:
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    kernels_identical = np.array_equal(other.m_crt, dictionary.m_crt) and all(
        np.array_equal(other.signatures[edge], dictionary.signatures[edge])
        for edge in other.suspects
    )
    recorder.gauge(
        "profile.kernels_bit_identical", 1.0 if kernels_identical else 0.0
    )

    top = results["alg_rev"].top(1)[0] if results["alg_rev"].ranking else None
    print(f"profile: {args.benchmark}  clk {clk:.3f}  "
          f"suspects {len(suspects)}  top alg_rev {top}")
    print(f"instrumented == uninstrumented dictionary: {identical}")
    print(f"{this_kernel} kernel == {other_kernel} kernel dictionary: "
          f"{kernels_identical}")
    print(f"span depth: {recorder.span_depth()}")
    print()
    print(obs.render_metrics_text(recorder.snapshot()))
    return 0 if identical and kernels_identical else 1


def cmd_lint(args) -> int:
    """Run the static-analysis subsystem (see :mod:`repro.lint`).

    Exit status 0 when no error-severity findings remain, 1 otherwise —
    warnings and infos never fail the gate.
    """
    from .lint import (
        LintReport,
        parse_suppressions,
        render_report,
        render_rule_catalog,
        run_lint,
    )

    if args.rules:
        print(render_rule_catalog())
        return 0
    selected = [
        mode for mode, flag in (
            ("code", args.code), ("models", args.models), ("flow", args.flow)
        ) if flag
    ]
    if args.both or len(selected) == 3:
        modes = ["all"]
    elif selected:
        modes = selected
    elif args.manifests or args.checkpoints:
        # --manifest/--checkpoint alone audit just those artifacts
        # (fast CI gate, skips the code/model engines).
        modes = ["manifests"]
    else:
        modes = ["all"]
    report = LintReport()
    try:
        for index, mode in enumerate(modes):
            part = run_lint(
                mode,
                paths=args.paths or None,
                circuits=args.circuits or None,
                cache_dir=args.cache_dir or None,
                seed=args.seed,
                suppress=parse_suppressions(args.suppress),
                # artifact paths audit once, not once per engine pass
                manifests=(args.manifests or None) if index == 0 else None,
                checkpoints=(args.checkpoints or None) if index == 0 else None,
                flow_baseline=args.baseline or None,
                changed=args.changed,
            )
            report.extend(part.diagnostics)
            report.suppressed += part.suppressed
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render_report(report, args.format))
    return report.exit_code


def cmd_serve(args) -> int:
    """Run the warm diagnosis service (see :mod:`repro.service`).

    Registers one standard workload per benchmark (pattern set, clock,
    suspect set all fixed by ``--seed``), prewarms the dictionaries
    unless ``--cold``, then serves the JSON-lines protocol until
    interrupted.  ``--cache-dir`` / ``REPRO_CACHE_DIR`` back the warm
    dictionaries with shared mmapped pages.

    The serving plane runs supervised (``docs/architecture.md`` §16): a
    circuit breaker sheds load when p95 batch latency or failure rate
    crosses the ``--breaker-*`` thresholds, worker death mid-batch
    degrades down the process -> thread -> serial ladder, and SIGTERM
    drains gracefully — stop accepting, flush every in-flight reply,
    exit 0 (Ctrl-C keeps the documented 130).
    """
    import asyncio
    import signal

    from .service import (
        BreakerConfig,
        DiagnosisServer,
        DiagnosisService,
        ServerConfig,
        ServiceSupervisor,
        SupervisorConfig,
        standard_workload,
    )

    service = DiagnosisService(
        cache=args.cache_dir or None,
        parallel=args.parallel or None,
        sampler=args.sampler or None,
    )
    for benchmark in args.benchmarks:
        workload, _model = standard_workload(
            benchmark, samples=args.samples, seed=args.seed,
            n_paths=args.paths,
        )
        service.register(workload)
        print(f"registered workload {benchmark!r}: "
              f"{len(workload.suspects)} suspects, "
              f"behavior shape {workload.behavior_shape}")
    if not args.cold:
        service.warm_all()
        print("dictionaries warm")
    supervisor = ServiceSupervisor(service, SupervisorConfig(
        breaker=BreakerConfig(
            window=args.breaker_window,
            min_samples=args.breaker_min_samples,
            max_p95_latency=args.breaker_latency or None,
            max_failure_rate=args.breaker_failure_rate,
            cooldown=args.breaker_cooldown,
        ),
    ))
    server = DiagnosisServer(service, ServerConfig(
        host=args.host, port=args.port, queue_limit=args.queue_limit,
        max_batch=args.max_batch, request_timeout=args.request_timeout,
        write_timeout=args.write_timeout, drain_grace=args.drain_grace,
    ), supervisor=supervisor)

    async def _run() -> int:
        await server.start()
        print(f"serving on {args.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        sigterm = loop.create_future()

        def _on_sigterm() -> None:
            if not sigterm.done():
                sigterm.set_result(None)

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loops: no graceful-drain signal
        serve = asyncio.ensure_future(server.serve_forever())
        try:
            # Ctrl-C cancels this await; letting the cancellation
            # propagate (after cleanup) keeps the documented 130 exit.
            await asyncio.wait(
                {serve, sigterm}, return_when=asyncio.FIRST_COMPLETED
            )
            if sigterm.done():
                print("SIGTERM received: draining", flush=True)
                serve.cancel()
                try:
                    await serve
                except asyncio.CancelledError:
                    pass
                await server.drain()
                print("drained; exiting", flush=True)
            elif serve.done():
                serve.result()  # surface an unexpected serve exit
        finally:
            if not serve.done():
                serve.cancel()
                try:
                    await serve
                except asyncio.CancelledError:
                    pass
            await server.stop()
        return 0

    return asyncio.run(_run())


def cmd_query(args) -> int:
    """One client round trip against a running ``repro serve``."""
    import json

    from .service import BadRequestError, ServiceClient
    from .service.server import _decode_behavior

    def connect() -> ServiceClient:
        return ServiceClient(args.host, args.port, timeout=args.timeout)

    if args.ping or args.stats or args.workloads:
        with connect() as client:
            if args.ping:
                print("pong" if client.ping() else "no pong")
            elif args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            else:
                for name in client.workloads():
                    print(name)
        return 0
    if not args.workload or not args.behavior:
        print("error: need WORKLOAD and --behavior FILE "
              "(or --ping/--stats/--workloads)", file=sys.stderr)
        return EXIT_USAGE
    # Check the matrix the way the server will before connecting: a
    # malformed file is a usage error, not a traceback.
    try:
        with open(args.behavior) as handle:
            payload = json.load(handle)
        if isinstance(payload, dict):
            if "behavior" not in payload:
                raise BadRequestError('JSON object has no "behavior" key')
            payload = payload["behavior"]
        _decode_behavior(payload)
    except (OSError, ValueError, BadRequestError) as exc:
        print(f"error: --behavior {args.behavior}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with connect() as client:
        answer = client.diagnose(
            args.workload, payload,
            error_function=args.error_function, top_k=args.top_k,
        )
    print(f"workload {answer.workload}  method {answer.method}")
    for rank, (edge, score) in enumerate(answer.ranking, start=1):
        print(f"  {rank:3d}. {edge:30s} {score:.6g}")
    return 0


def cmd_table1(args) -> int:
    from .experiments import render_shape_checks, render_table1, run_table1

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return EXIT_USAGE
    result = run_table1(
        circuits=args.circuits or None,
        n_trials=args.trials,
        n_samples=args.samples,
        seed=args.seed,
        checkpoint_dir=args.checkpoint or None,
        resume=args.resume,
    )
    print(render_table1(result))
    print()
    print(render_shape_checks(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--samples", type=int, default=300)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--parallel",
            choices=("serial", "process", "thread"),
            default="",
            help="dictionary-construction backend (default: serial)",
        )
        p.add_argument(
            "--workers", type=_positive_int, default=None,
            help="worker count for parallel backends (default: all CPUs)",
        )
        p.add_argument(
            "--chunk-size", type=_positive_int, default=None,
            dest="chunk_size",
            help="suspects per worker task (default: auto)",
        )
        p.add_argument(
            "--cache-dir", type=str, default="", dest="cache_dir",
            help="enable the on-disk dictionary cache in this directory",
        )
        p.add_argument(
            "--cache-max-entries", type=_positive_int, default=None,
            dest="cache_max_entries", metavar="N",
            help="cap the dictionary cache at N entries (LRU eviction)",
        )
        p.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="re-attempts per failed work chunk (default: 2)",
        )
        p.add_argument(
            "--chunk-timeout", type=float, default=None, dest="chunk_timeout",
            metavar="SECONDS",
            help="per-chunk deadline on pooled backends (default: none)",
        )
        p.add_argument(
            "--no-degrade", action="store_true", dest="no_degrade",
            help="fail with a typed error instead of degrading "
            "process -> thread -> serial when a worker pool breaks",
        )
        p.add_argument(
            "--kernel", choices=("compiled", "reference"), default="",
            help="dynamic-timing simulation kernel (default: compiled; "
            "both are bit-identical, this is a performance knob)",
        )
        p.add_argument(
            "--sampler", choices=("plain", "is", "adaptive"), default="",
            help="dictionary signature estimator (default: plain; 'is' = "
            "importance sampling, 'adaptive' adds per-suspect sample "
            "allocation — both variance-reduction modes, bit-reproducible "
            "at fixed seed)",
        )
        p.add_argument(
            "--metrics", type=str, default="", metavar="OUT.json",
            help="record metrics during the run and write a schema-"
            "validated run manifest to this path",
        )

    sub.add_parser("benchmarks").set_defaults(func=cmd_benchmarks)

    p = sub.add_parser("info")
    p.add_argument("benchmark")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sta")
    p.add_argument("benchmark")
    common(p)
    p.set_defaults(func=cmd_sta)

    p = sub.add_parser("atpg")
    p.add_argument("benchmark")
    p.add_argument("edge", type=int, help="edge index (see circuit.edges)")
    p.add_argument("--paths", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser("diagnose")
    p.add_argument("benchmark")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("characterize")
    p.add_argument("benchmark")
    p.add_argument("--report", type=str, default="", help="write markdown here")
    common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("table1")
    p.add_argument("circuits", nargs="*", help="circuit subset (default all)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument(
        "--checkpoint", type=str, default="", metavar="DIR",
        help="write per-circuit trial-boundary checkpoints into DIR",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from --checkpoint DIR "
        "(bit-identical to an uninterrupted run)",
    )
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "profile",
        help="instrumented diagnosis round: spans, counters, run manifest",
    )
    p.add_argument("benchmark")
    p.add_argument("--paths", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve",
        help="warm diagnosis-as-a-service JSON-lines server",
    )
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark circuits to register as workloads")
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--paths", type=int, default=8,
                   help="ATPG paths per workload defect site")
    p.add_argument(
        "--queue-limit", type=_positive_int, default=64, dest="queue_limit",
        help="pending-request bound; excess requests get an immediate "
        "'overloaded' response (the backpressure contract)",
    )
    p.add_argument(
        "--max-batch", type=_positive_int, default=16, dest="max_batch",
        help="micro-batch cap per dispatcher drain (never changes answers)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=30.0, dest="request_timeout",
        metavar="SECONDS", help="per-request deadline, queue time included",
    )
    p.add_argument(
        "--write-timeout", type=float, default=10.0, dest="write_timeout",
        metavar="SECONDS",
        help="per-response write deadline; a reader stalled past it is "
        "disconnected so it cannot wedge the dispatcher",
    )
    p.add_argument(
        "--drain-grace", type=float, default=10.0, dest="drain_grace",
        metavar="SECONDS",
        help="SIGTERM drain budget: flush in-flight replies, then exit 0",
    )
    p.add_argument(
        "--breaker-window", type=_positive_int, default=32,
        dest="breaker_window",
        help="circuit-breaker sliding window, in batches",
    )
    p.add_argument(
        "--breaker-min-samples", type=_positive_int, default=8,
        dest="breaker_min_samples",
        help="batches observed before the breaker may trip",
    )
    p.add_argument(
        "--breaker-latency", type=float, default=0.0,
        dest="breaker_latency", metavar="SECONDS",
        help="p95 batch-latency threshold (0 disables the latency gate)",
    )
    p.add_argument(
        "--breaker-failure-rate", type=float, default=0.5,
        dest="breaker_failure_rate", metavar="FRACTION",
        help="windowed batch failure-rate threshold",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=5.0,
        dest="breaker_cooldown", metavar="SECONDS",
        help="seconds open before a half-open probe batch is admitted",
    )
    p.add_argument(
        "--cold", action="store_true",
        help="skip dictionary prewarming; first query per workload pays "
        "the build",
    )
    common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="client for a running 'repro serve' (ping/stats/diagnose)",
    )
    p.add_argument("workload", nargs="?", default="",
                   help="workload name registered on the server")
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument(
        "--behavior", type=str, default="", metavar="FILE.json",
        help="behavior matrix as a JSON 2-D array (or {\"behavior\": ...})",
    )
    p.add_argument(
        "--error-function", type=str, default="alg_rev",
        dest="error_function",
        help="diagnosis error function name (default: alg_rev)",
    )
    p.add_argument("--top-k", type=_positive_int, default=None, dest="top_k",
                   help="truncate the returned ranking")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="client-side socket timeout in seconds")
    p.add_argument("--ping", action="store_true", help="liveness round trip")
    p.add_argument("--stats", action="store_true",
                   help="print the server's counters and warm state")
    p.add_argument("--workloads", action="store_true",
                   help="list the server's registered workloads")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "lint",
        help="static analysis: determinism linter, semantic model checks, "
        "whole-program flow analyses",
    )
    p.add_argument(
        "--code", action="store_true",
        help="run the determinism linter over the package source",
    )
    p.add_argument(
        "--models", action="store_true",
        help="run the semantic checker over the shipped benchmark circuits",
    )
    p.add_argument(
        "--flow", action="store_true",
        help="run the whole-program dataflow analyses (F7xx/P8xx/K9xx): "
        "interprocedural RNG threading, pool-worker purity, cache-key "
        "completeness",
    )
    p.add_argument(
        "--all", action="store_true", dest="both",
        help="run every engine (the default when no engine flag is given)",
    )
    p.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="scope code/flow findings to files changed vs a git ref "
        "(default HEAD; the fast pre-push loop)",
    )
    p.add_argument(
        "--baseline", type=str, default="", metavar="PATH",
        help="flow-analysis baseline/suppression file (default: "
        "lint-flow-baseline.json in the current directory when present)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json follows the documented report schema)",
    )
    p.add_argument(
        "--path", action="append", dest="paths", metavar="PATH",
        help="extra source file/tree for --code (repeatable; default: the "
        "installed repro package)",
    )
    p.add_argument(
        "--circuits", nargs="*", metavar="NAME",
        help="benchmark subset for --models (default: all shipped)",
    )
    p.add_argument(
        "--manifest", action="append", dest="manifests", metavar="PATH",
        help="audit an observability run manifest (S5xx rules; repeatable; "
        "alone it skips the code/model engines)",
    )
    p.add_argument(
        "--checkpoint", action="append", dest="checkpoints", metavar="PATH",
        help="audit a resilience checkpoint file or directory (R6xx rules; "
        "repeatable; alone it skips the code/model engines)",
    )
    p.add_argument(
        "--suppress", type=str, default="",
        help="comma-separated rule IDs or globs to suppress (e.g. D105,C2*)",
    )
    p.add_argument(
        "--rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cache-dir", type=str, default="", dest="cache_dir",
        help="also audit this dictionary-cache directory (S4xx rules)",
    )
    p.set_defaults(func=cmd_lint)
    return parser


def _run_config(args) -> dict:
    """The resolved execution knobs echoed into the run manifest."""
    config = {}
    for field in ("samples", "trials", "paths", "parallel", "workers",
                  "chunk_size", "cache_dir", "cache_max_entries", "retries",
                  "chunk_timeout", "checkpoint", "sampler"):
        value = getattr(args, field, None)
        if value not in (None, "", False):
            config[field] = value
    return config


def _dispatch(args) -> int:
    """Run the selected command under the documented exit-code contract.

    Typed resilience failures map onto stable codes scripts can branch
    on (see ``EPILOG``): a checkpoint that belongs to a different run is
    a *user* error (2), any other :class:`~repro.resilience.ResilienceError`
    means the infrastructure failed even after retries and fallbacks (3),
    and an unexpected exception is a bug (1, traceback preserved).
    """
    from .resilience import CheckpointMismatchError, ResilienceError
    from .service.errors import BadRequestError

    try:
        return args.func(args)
    except BrokenPipeError:  # output piped into head/less
        return EXIT_OK
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except CheckpointMismatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except BadRequestError as error:
        # Malformed service requests (unknown workload, bad matrix shape)
        # are user errors, like checkpoint mismatches.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ResilienceError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TRANSIENT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_execution_flags(args)
    metrics_path = getattr(args, "metrics", "") or ""
    if not metrics_path:
        return _dispatch(args)

    from . import obs

    recorder = obs.install()
    try:
        status = _dispatch(args)
        # The manifest is written even for failed runs: a post-mortem
        # needs the retry/fallback/chaos counters more than a clean run.
        manifest = obs.build_manifest(
            command=args.command,
            workload=getattr(args, "benchmark", None),
            seed=getattr(args, "seed", None),
            config=_run_config(args),
            metrics=recorder.snapshot(),
            status="ok" if status == 0 else "error",
        )
        obs.write_manifest(metrics_path, manifest)
        print(f"metrics manifest written to {metrics_path}")
        return status
    finally:
        obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
