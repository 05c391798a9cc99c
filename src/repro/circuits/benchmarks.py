"""Benchmark registry: the circuits of the paper's Table I.

Two kinds of entries:

* **Embedded genuine netlists** — ``c17`` (ISCAS85) and ``s27`` (ISCAS89) are
  small enough to embed verbatim and are used throughout the test-suite as
  ground-truth circuits.
* **Synthetic profiles** — the eight Table I circuits (``s1196`` ...
  ``s15850``).  The real netlists are not redistributable, so
  :func:`load_benchmark` generates a deterministic synthetic circuit whose
  *profile* (inputs + flip-flops, outputs + flip-flops, gate count, depth)
  matches the published ISCAS89 statistics.  Each profile records the
  published numbers so reports can show both.  The two largest circuits are
  scaled down by default (``scale`` < 1) to keep pure-Python Monte-Carlo
  dictionary construction tractable; pass ``scale=1.0`` for full size.

Real ISCAS netlists, if available on disk, can be used instead via
:func:`repro.circuits.bench_parser.parse_bench_file` followed by
``unroll_scan()`` — every downstream tool only sees a :class:`Circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .bench_parser import parse_bench
from .generate import GeneratorConfig, generate_circuit
from .netlist import Circuit

__all__ = ["BenchmarkProfile", "PROFILES", "load_benchmark", "benchmark_names"]


C17_BENCH = """
# c17 (ISCAS85) - genuine netlist
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""

S27_BENCH = """
# s27 (ISCAS89) - genuine netlist
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G13 = NOR(G2, G12)
G12 = NOR(G1, G7)
"""


@dataclass(frozen=True)
class BenchmarkProfile:
    """Published statistics of one ISCAS89 benchmark plus generation knobs."""

    name: str
    published_inputs: int
    published_outputs: int
    published_dffs: int
    published_gates: int
    target_depth: int
    default_scale: float = 1.0

    @property
    def scan_inputs(self) -> int:
        """Inputs in the full-scan view: primary inputs plus flip-flops."""
        return self.published_inputs + self.published_dffs

    @property
    def scan_outputs(self) -> int:
        """Outputs in the full-scan view: primary outputs plus flip-flops."""
        return self.published_outputs + self.published_dffs

    def generator_config(self, seed: int = 0, scale: Optional[float] = None) -> GeneratorConfig:
        factor = self.default_scale if scale is None else scale
        if not 0.0 < factor <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        n_gates = max(self.scan_outputs + 4, int(round(self.published_gates * factor)))
        return GeneratorConfig(
            n_inputs=self.scan_inputs,
            n_outputs=self.scan_outputs,
            n_gates=n_gates,
            target_depth=self.target_depth,
            seed=seed,
            name=self.name,
        )


#: Published benchmark statistics (PIs, POs, DFFs, combinational gates).
#: The ISCAS89 profiles are the paper's Table I circuits; the ISCAS85
#: combinational suite (DFFs = 0) extends the harness beyond the paper.
PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in (
        # ISCAS89 (Table I)
        BenchmarkProfile("s1196", 14, 14, 18, 529, target_depth=20),
        BenchmarkProfile("s1238", 14, 14, 18, 508, target_depth=18),
        BenchmarkProfile("s1423", 17, 5, 74, 657, target_depth=24),
        BenchmarkProfile("s1488", 8, 19, 6, 653, target_depth=15),
        BenchmarkProfile("s5378", 35, 49, 179, 2779, target_depth=18, default_scale=0.5),
        BenchmarkProfile("s9234", 36, 39, 211, 5597, target_depth=20, default_scale=0.3),
        BenchmarkProfile("s13207", 62, 152, 638, 8589, target_depth=20, default_scale=0.2),
        BenchmarkProfile("s15850", 77, 150, 534, 10369, target_depth=22, default_scale=0.18),
        # Beyond Table I: the largest ISCAS89 profile, a scale stress
        # input (see s38417_profile_config).
        BenchmarkProfile("s38417", 28, 106, 1636, 23815, target_depth=28, default_scale=0.08),
        # ISCAS85 (combinational)
        BenchmarkProfile("c432", 36, 7, 0, 160, target_depth=16),
        BenchmarkProfile("c499", 41, 32, 0, 202, target_depth=12),
        BenchmarkProfile("c880", 60, 26, 0, 383, target_depth=16),
        BenchmarkProfile("c1355", 41, 32, 0, 546, target_depth=16),
        BenchmarkProfile("c1908", 33, 25, 0, 880, target_depth=20),
        BenchmarkProfile("c2670", 233, 140, 0, 1193, target_depth=16),
        BenchmarkProfile("c3540", 50, 22, 0, 1669, target_depth=22, default_scale=0.6),
        BenchmarkProfile("c5315", 178, 123, 0, 2307, target_depth=18, default_scale=0.5),
        BenchmarkProfile("c6288", 32, 32, 0, 2406, target_depth=40, default_scale=0.5),
        BenchmarkProfile("c7552", 207, 108, 0, 3512, target_depth=18, default_scale=0.4),
    )
}

_EMBEDDED = {"c17": C17_BENCH, "s27": S27_BENCH}


def _generator_sanity_gate(circuit: Circuit) -> None:
    """Reject a structurally broken synthetic circuit at generation time.

    Runs the cheap (linear) subset of the ``C2xx`` model checks — the
    full-observability cone analysis is left to the lint CLI and the
    test-suite, which audit every profile once instead of on every load.
    """
    from ..lint.models import check_circuit
    from .netlist import CircuitError

    errors = [
        finding.message
        for finding in check_circuit(circuit, require_observable=False)
        if finding.severity.value == "error"
    ]
    if errors:
        raise CircuitError(
            f"generated circuit {circuit.name!r} failed its sanity gate: "
            + "; ".join(errors)
        )


def benchmark_names(include_embedded: bool = True) -> List[str]:
    """Names accepted by :func:`load_benchmark` (Table I order first)."""
    names = list(PROFILES)
    if include_embedded:
        names = list(_EMBEDDED) + names
    return names


def load_benchmark(
    name: str, seed: int = 0, scale: Optional[float] = None, scan: bool = True
) -> Circuit:
    """Load a benchmark circuit by name.

    For embedded genuine netlists (``c17``, ``s27``) the ``seed``/``scale``
    arguments are ignored.  ``scan=True`` (default) returns the full-scan
    combinational view, which is what the diagnosis flow operates on.
    """
    if name in _EMBEDDED:
        circuit = parse_bench(_EMBEDDED[name], name=name)
        return circuit.unroll_scan() if scan else circuit
    try:
        profile = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {benchmark_names()}"
        ) from None
    circuit = generate_circuit(profile.generator_config(seed=seed, scale=scale))
    _generator_sanity_gate(circuit)
    # The synthetic circuit is generated directly in the full-scan view;
    # record which pseudo-PIs pair with which pseudo-POs (flop i's state
    # input with flop i's next-state output) for broadside test generation.
    circuit.scan_pairs = [
        (
            circuit.inputs[profile.published_inputs + index],
            circuit.outputs[profile.published_outputs + index],
        )
        for index in range(profile.published_dffs)
    ]
    return circuit
