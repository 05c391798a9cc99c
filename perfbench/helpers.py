"""Pure helpers shared by the benchmark workloads (no program imports).

* the percentile rule: a timing is reported as its median plus the
  highest percentile of :data:`LADDER` that has at least
  :data:`MIN_BEYOND` samples beyond it, together with its sample count,
* :class:`OpenLoopSchedule`: due times of an open-loop load generator and
  its lateness accounting (latency is measured from when a request was
  *due*, so a stalled sender is charged to every request behind it),
* :func:`digest`: the canonical hash of a run's answers,
* :class:`LayerTimer`: the benchmark's own timers around calls into one
  layer's public functions,
* host identity and the guard that refuses to compare results recorded
  on hosts with different CPU counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

#: Percentile levels a tail may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def rank(n: int, level: float) -> int:
    """1-based nearest rank of the ``level`` percentile among ``n`` samples,
    computed exactly (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(level)) * n / 100))


def samples_beyond(n: int, level: float) -> int:
    """How many of ``n`` sorted samples lie above the ``level`` percentile."""
    return n - rank(n, level)


def tail_level(n: int, ladder: Sequence[float] = LADDER) -> Optional[float]:
    """Highest ladder percentile with :data:`MIN_BEYOND` samples beyond it
    (``None`` when even the lowest level lacks them)."""
    supported = [level for level in ladder if samples_beyond(n, level) >= MIN_BEYOND]
    return max(supported) if supported else None


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile (``level`` in percent) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[rank(len(values), level) - 1]


def summarize(values: Sequence[float], tail: float) -> Dict:
    """Median, the fixed ``tail`` percentile and the supported tail.

    ``tail`` is the percentile the workload's metric is named after; the
    summary also states the highest level the sample count supports, so
    a reader can see when the named tail is thinner than the rule asks.
    """
    n = len(values)
    level = tail_level(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        f"p{tail:g}": percentile(values, tail),
        "tail_supported": level,
        "tail_ok": level is not None and level >= tail,
    }


class OpenLoopSchedule:
    """Request ``i`` of an open loop at ``rate`` per second is due at
    ``start + i / rate``, whenever the previous one completes.

    ``lag`` is how late the generator sent a request (sent - due);
    ``latency`` is completion - due, which includes that lag and so
    counts the wait a stall imposes on every later request.
    """

    def __init__(self, rate: float, start: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.start = float(start)
        self.lags: List[float] = []
        self.latencies: List[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def record(self, index: int, sent_at: float, done_at: float) -> None:
        due = self.due(index)
        self.lags.append(sent_at - due)
        self.latencies.append(done_at - due)


def slices(moments: Sequence[float], start: float, seconds: float, width: float) -> List[List[int]]:
    """Indices of ``moments`` in each whole ``width``-second slice of
    ``[start, start + seconds)``.

    A median over slices keeps an episode of a few hundred milliseconds
    without CPU (common on a shared host) from moving a figure.
    """
    count = int(seconds // width)
    if count < 1:
        raise ValueError("the window holds no whole slice")
    groups: List[List[int]] = [[] for _ in range(count)]
    for index, moment in enumerate(moments):
        slot = int((moment - start) // width)
        if 0 <= slot < count:
            groups[slot].append(index)
    return groups


def canonical(value) -> str:
    """Deterministic JSON text: sorted keys, exact float repr."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(answers: Dict[str, object]) -> str:
    """SHA-256 over ``{input key: answer}``, independent of insertion order."""
    hasher = hashlib.sha256()
    for key in sorted(answers):
        hasher.update(key.encode())
        hasher.update(b"\0")
        hasher.update(canonical(answers[key]).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class LayerTimer:
    """Busy time and call count per layer, from ``with timer("atpg"):``.

    Each call's duration is kept, so a layer can report a distribution
    as well as a total.  ``counts`` holds the work counters measured at
    the same boundaries (patterns generated, sites drawn, ...).
    """

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()

    @contextmanager
    def __call__(self, layer: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(layer, []).append(
                time.perf_counter() - started
            )

    def busy(self, layer: str) -> float:
        return sum(self.durations.get(layer, ()))

    def calls(self, layer: str) -> int:
        return len(self.durations.get(layer, ()))

    def total(self, layers: Sequence[str]) -> float:
        return sum(self.busy(layer) for layer in layers)


#: Every layer the timers know, as the replicas name them.
LAYERS = (
    "circuits", "timing.compile", "atpg", "timing.simulate", "defects",
    "core.suspects", "core.dictionary", "core.diagnosis",
)


def layer_metrics(timer: LayerTimer, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced section lasting ``wall`` seconds.

    A share is a layer's busy time over ``wall``; ``trace.coverage`` is
    the share all layers together account for.
    """
    counts = timer.counts
    builds = [1000.0 * value for value in timer.durations.get("core.dictionary", ())]
    atpg_calls = timer.calls("atpg")

    def share(layer: str) -> float:
        return timer.busy(layer) / wall if wall > 0 else 0.0

    return {
        "circuits.load_s": timer.busy("circuits"),
        "timing.compile_s": timer.busy("timing.compile"),
        "atpg.busy_s": timer.busy("atpg"),
        "atpg.calls": atpg_calls,
        "atpg.share": share("atpg"),
        "atpg.patterns_per_call": counts["atpg.patterns"] / max(atpg_calls, 1),
        "atpg.site_yield": counts["atpg.sites_with_patterns"] / max(counts["atpg.sites"], 1),
        "timing.simulate_busy_s": timer.busy("timing.simulate"),
        "timing.share": share("timing.simulate"),
        "defects.busy_s": timer.busy("defects"),
        "defects.instance_yield": counts["defects.failing"] / max(counts["defects.instances"], 1),
        "core.suspects.busy_s": timer.busy("core.suspects"),
        "core.dictionary.busy_s": timer.busy("core.dictionary"),
        "core.dictionary.share": share("core.dictionary"),
        "core.dictionary.build_p50_ms": percentile(builds, 50.0) if builds else 0.0,
        "core.dictionary.build_p90_ms": percentile(builds, 90.0) if builds else 0.0,
        "core.dictionary.units": counts["core.dictionary.units"],
        "core.diagnosis.busy_s": timer.busy("core.diagnosis"),
        "trace.coverage": timer.total(LAYERS) / wall if wall > 0 else 0.0,
    }


class Ledger:
    """Operations attempted and failed; a failure is a wrong answer, a
    typed service error or a timeout."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {reason}")

    def check(self, key: str, answer, reference) -> bool:
        """Count one operation; it fails when its answer is not the
        reference answer for the same input."""
        self.attempted += 1
        if answer != reference:
            self.fail(key, "answer differs from the serial reference")
            return False
        return True


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_info() -> Dict:
    """The host a result was recorded on."""
    import numpy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": load,
    }


def check_comparable(first: Dict, second: Dict) -> None:
    """Refuse to compare two results recorded under different ``nproc``."""
    a = first["host"]["nproc"]
    b = second["host"]["nproc"]
    if a != b:
        raise ValueError(
            f"results were recorded with nproc {a} and {b}; "
            "compare only results from hosts with the same CPU count"
        )
