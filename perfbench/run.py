"""End-to-end benchmark of the statistical delay-defect diagnosis flow.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run whose own timers around each call into a layer give the per-layer
metrics.  Every run checks its answers against a serial reference on the
same inputs (and, at the default seed, against the digest recorded in
``perfbench/reference.json``), prints every metric by name and unit, and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The gated workloads, the metric names, units and bounds and the default
run length are read from ``BENCHMARK.json``, their only source.
``--record`` re-runs every workload at the default seed and rewrites
``perfbench/reference.json`` (the recorded digests, the paced rate of the
``serve`` workload and the host they came from).
``--compare A.json B.json`` prints two saved results side by side and
refuses results recorded under different ``nproc``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"

#: The seed whose digests ``reference.json`` records.
DEFAULT_SEED = 0
#: Held out: never used while tuning the benchmark or a change; re-check
#: a claimed gain on it (choosing-metrics §6.3).
HELD_OUT_SEED = 7919

SPEC_FILE = ROOT / "BENCHMARK.json"

#: Runs by name only: too unsteady between seeds to gate (see its module).
UNGATED = ("table1",)


def load_spec() -> dict:
    """``BENCHMARK.json``: the gated workloads, their metrics and bounds."""
    return json.loads(SPEC_FILE.read_text())


class Context:
    """What one workload run needs: its arguments, the op ledger, the
    recorded reference and a way to switch the parallel backend."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        from helpers import Ledger, nproc

        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workers = nproc()
        self.ledger = Ledger()
        self.reference = load_reference()
        self.out_dir = OUT_DIR

    def set_backend(self, backend: str) -> None:
        """Dictionary builds resolve their backend from the environment."""
        os.environ["REPRO_PARALLEL_BACKEND"] = backend
        os.environ["REPRO_PARALLEL_WORKERS"] = str(self.workers)


def load_reference() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


def peak_rss_mb() -> float:
    """Largest RSS of this process and of every child it has reaped
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result record."""
    from helpers import digest, host_info

    host = host_info()
    started = time.perf_counter()
    ctx = Context(seed, seconds, trace)
    module = __import__(f"workload_{name}")
    outcome = module.run(ctx)

    run_digest = digest(outcome["answers"])
    reference_digest = digest(outcome["reference_answers"])
    if run_digest != reference_digest:
        ctx.ledger.fail("digest", "run digest differs from the serial reference")
    recorded = ctx.reference.get("digests", {}).get(name)
    if seed == DEFAULT_SEED and recorded is not None and recorded != run_digest:
        ctx.ledger.fail("digest", "run digest differs from reference.json")

    spec = load_spec()
    if trace:
        entries, values = spec["per_layer"], outcome["layers"]
    else:
        # A workload whose program runs in another process (the server)
        # reports that process's peak itself.
        entries = spec["end_to_end"]
        values = {"peak_rss_mb": peak_rss_mb(), **outcome["end_to_end"]}
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in entries
    }
    ledger = ctx.ledger
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host,
        "digest": run_digest,
        "reference_digest": reference_digest,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
        "details": outcome.get("details", {}),
        "obs": outcome.get("obs"),
        "wall_s": time.perf_counter() - started,
        "line": {
            "correct": ledger.failed == 0 and ledger.attempted > 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        },
    }


def render(record: dict) -> str:
    """Every metric by name and unit, then the details that explain them."""
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {record['trace']} nproc {record['host']['nproc']} "
        f"python {record['host']['python']} numpy {record['host']['numpy']} "
        f"load {record['host']['loadavg_at_start']}"
    ]
    for name, metric in record["line"]["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    line = record["line"]
    lines.append(
        f"  error_rate {record['error_rate']:.4g} "
        f"({line['failed']}/{line['attempted']} failed)  digest {record['digest'][:16]}"
    )
    for key, value in record["details"].items():
        lines.append(f"  . {key}: {json.dumps(value, sort_keys=True)}")
    for failure in record["failures"]:
        lines.append(f"  ! {failure}")
    return "\n".join(lines)


def save(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def record_reference(seconds: float) -> int:
    """Rewrite ``reference.json`` at the default seed."""
    from helpers import host_info

    reference = load_reference()
    reference.update({
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "recorded_on": host_info(),
        "digests": {},
    })
    # serve first: its saturate rate fixes the paced rate once.
    from workload_serve import PACED_SHARE

    reference.pop("paced_rate_qps", None)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for name in ("serve", "volume", "table1"):
        record = run_workload(name, DEFAULT_SEED, seconds, trace=False)
        print(render(record), flush=True)
        if record["line"]["failed"]:
            print(f"{name}: outputs are wrong; nothing recorded", file=sys.stderr)
            return 1
        reference["digests"][name] = record["digest"]
        if name == "serve":
            qps = record["line"]["metrics"]["ops_per_s"]["value"]
            reference["paced_rate_qps"] = round(qps * PACED_SHARE)
        REFERENCE_FILE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n"
        )
    return 0


def compare(first_path: str, second_path: str) -> int:
    from helpers import check_comparable

    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    try:
        check_comparable(first, second)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, metric in first["line"]["metrics"].items():
        other = second["line"]["metrics"].get(name)
        if other is None:
            continue
        base = metric["value"]
        ratio = other["value"] / base if base else float("nan")
        print(f"{name:32s} {base:12.6g} {other['value']:12.6g} "
              f"x{ratio:.3f} {metric['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/reference.json")
    parser.add_argument("--compare", nargs=2, metavar="RESULT.json")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]] + list(UNGATED)
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Runs are defined by their arguments alone: no inherited program knob
    # (cache directory, sampler, kernel, chaos plan) may change them.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if args.record:
        return record_reference(seconds)
    if not args.workload:
        parser.error("--workload is required")

    record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    path = save(record)
    print(render(record))
    print(f"  result saved to {path.relative_to(ROOT)}")
    print(json.dumps(record["line"]), flush=True)
    return 0 if record["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
