"""Semantic model checker (rules ``C2xx`` / ``T3xx`` / ``S4xx``).

Checks the *artifacts* the diagnosis flow consumes rather than the code
that builds them: netlists, statistical cell libraries, materialized
timing models, suspect sets and the on-disk dictionary cache.  Subsumes
(and extends) the original flat ``circuits/validate.py`` checks; that
module survives as a thin deprecated wrapper over :func:`check_circuit`.

All checkers return plain ``List[Diagnostic]`` so callers can compose
them; :func:`lint_circuit` wraps one circuit's findings in a
:class:`~repro.lint.diagnostics.LintReport` for the common
``assert lint_circuit(c).ok`` test idiom.
"""

from __future__ import annotations

import json
import os
import re
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..circuits.library import GateType
from ..circuits.netlist import Circuit, Edge
from .diagnostics import Diagnostic, LintReport
from .rules import RULES

__all__ = [
    "check_circuit",
    "check_library",
    "check_timing",
    "check_suspects",
    "check_cache",
    "check_benchmark",
    "lint_circuit",
]


def _diag(rule_id: str, message: str, obj: Optional[str] = None) -> Diagnostic:
    return Diagnostic(
        rule=rule_id,
        severity=RULES[rule_id].severity,
        message=message,
        obj=obj,
        engine="model",
    )


# ----------------------------------------------------------------------
# C2xx — netlist structure
# ----------------------------------------------------------------------
def _find_cycle(circuit: Circuit) -> Optional[List[str]]:
    """A combinational cycle (as a net list), or ``None``.

    DFF fanins are next-state references evaluated a clock earlier, so —
    exactly as in ``Circuit._topological_sort`` — they are not
    combinational dependencies and do not close a cycle.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in circuit.gates}
    stack_trace: List[str] = []

    def deps(name: str) -> List[str]:
        gate = circuit.gates[name]
        if gate.gate_type is GateType.DFF:
            return []
        return [f for f in gate.fanins if f in circuit.gates]

    for root in circuit.gates:
        if color[root] != WHITE:
            continue
        stack: List[tuple] = [(root, iter(deps(root)))]
        color[root] = GRAY
        stack_trace = [root]
        while stack:
            name, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GRAY:
                    start = stack_trace.index(child)
                    return stack_trace[start:] + [child]
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack_trace.append(child)
                    stack.append((child, iter(deps(child))))
                    advanced = True
                    break
            if not advanced:
                color[name] = BLACK
                stack_trace.pop()
                stack.pop()
    return None


def check_circuit(
    circuit: Circuit,
    require_observable: bool = True,
    allow_dffs: bool = False,
) -> List[Diagnostic]:
    """Structural netlist checks (rules ``C201``–``C209``).

    ``allow_dffs=True`` skips the scan-view rule ``C204`` — used when
    validating freshly ingested sequential ``.bench`` netlists that will
    be ``unroll_scan()``-ed later.
    """
    obj = f"circuit:{circuit.name}"
    findings: List[Diagnostic] = []

    if not circuit.frozen:
        findings.append(_diag("C201", "circuit is not frozen", obj))

    for gate in circuit:
        for fanin in gate.fanins:
            if fanin not in circuit.gates:
                findings.append(_diag(
                    "C209",
                    f"gate {gate.name!r} fanin {fanin!r} references an "
                    "undeclared net",
                    obj,
                ))

    cycle = _find_cycle(circuit)
    if cycle is not None:
        findings.append(_diag(
            "C208",
            f"combinational cycle through {' -> '.join(cycle)}",
            obj,
        ))

    if not circuit.frozen:
        # Topology queries (edges, cones) are undefined pre-freeze; the
        # construction-time findings above are all that can be checked.
        return findings

    if not circuit.inputs:
        findings.append(_diag("C202", "no primary inputs", obj))
    if not circuit.outputs:
        findings.append(_diag("C203", "no primary outputs", obj))

    for gate in circuit:
        if gate.gate_type is GateType.DFF and not allow_dffs:
            findings.append(_diag(
                "C204",
                f"gate {gate.name!r} is a DFF; call unroll_scan() first",
                obj,
            ))
        if gate.gate_type in (GateType.XOR, GateType.XNOR):
            if len(set(gate.fanins)) != len(gate.fanins):
                findings.append(_diag(
                    "C205",
                    f"XOR-family gate {gate.name!r} has duplicate fanins",
                    obj,
                ))

    if require_observable and circuit.outputs and circuit.inputs:
        observable = set()
        for output in circuit.outputs:
            observable.update(circuit.fanin_cone(output))
        controllable = set()
        for net in circuit.inputs:
            controllable.update(circuit.fanout_cone(net))
        for name in circuit.gates:
            if name not in observable:
                findings.append(_diag(
                    "C207",
                    f"net {name!r} does not reach any primary output",
                    obj,
                ))
            gate = circuit.gates[name]
            if gate.gate_type is not GateType.INPUT and name not in controllable:
                findings.append(_diag(
                    "C206",
                    f"net {name!r} is not reachable from any primary input",
                    obj,
                ))
    return findings


# ----------------------------------------------------------------------
# T3xx — cell library / timing model
# ----------------------------------------------------------------------
def check_library(circuit: Circuit, library=None) -> List[Diagnostic]:
    """Cell-library checks against one circuit (rules ``T301``–``T304``)."""
    from ..timing.celllib import CellLibrary

    library = library or CellLibrary()
    obj = f"library:{circuit.name}"
    findings: List[Diagnostic] = []

    if library.fanin_penalty < 0 or library.load_factor < 0:
        findings.append(_diag(
            "T302",
            f"negative load parameters (fanin_penalty="
            f"{library.fanin_penalty}, load_factor={library.load_factor})",
            obj,
        ))
    if library.sigma_global < 0 or library.sigma_local < 0:
        findings.append(_diag(
            "T302",
            f"negative variation parameters (sigma_global="
            f"{library.sigma_global}, sigma_local={library.sigma_local})",
            obj,
        ))
    elif library.sigma_global == 0 and library.sigma_local == 0:
        findings.append(_diag(
            "T303",
            "zero-variance library (sigma_global = sigma_local = 0): every "
            "delay distribution is degenerate",
            obj,
        ))
    relative_sigma = float(np.hypot(library.sigma_global, library.sigma_local))
    if 3.0 * relative_sigma > 1.0:
        findings.append(_diag(
            "T304",
            f"library 3-sigma ({3.0 * relative_sigma:.2f} x nominal) "
            "exceeds the mean; the positivity floor will truncate the "
            "distributions",
            obj,
        ))

    used_types = {
        gate.gate_type for gate in circuit if gate.gate_type is not GateType.INPUT
    }
    missing = sorted(
        gate_type.value for gate_type in used_types
        if library.base_delays.get(gate_type) is None
    )
    for type_name in missing:
        findings.append(_diag(
            "T301",
            f"gate type {type_name!r} instantiated by the circuit has no "
            "pin-to-pin delay characterization",
            obj,
        ))
    for gate_type in sorted(used_types, key=lambda t: t.value):
        base = library.base_delays.get(gate_type)
        if base is not None and base < 0:
            findings.append(_diag(
                "T302",
                f"negative base delay {base} for gate type "
                f"{gate_type.value!r}",
                obj,
            ))

    if circuit.frozen and not missing:
        pseudo = (GateType.OUTPUT, GateType.DFF)
        for edge in circuit.edges:
            nominal = library.nominal_pin_delay(circuit, edge)
            sink_type = circuit.gates[edge.sink].gate_type
            if nominal < 0:
                findings.append(_diag(
                    "T302",
                    f"edge {edge} has negative nominal delay {nominal:.3f}",
                    obj,
                ))
            elif nominal == 0 and sink_type not in pseudo:
                findings.append(_diag(
                    "T303",
                    f"edge {edge} has zero nominal delay; its distribution "
                    "is degenerate",
                    obj,
                ))
    return findings


def check_timing(timing) -> List[Diagnostic]:
    """Materialized delay-matrix checks (rules ``T304``/``T305``)."""
    circuit = timing.circuit
    obj = f"timing:{circuit.name}"
    findings: List[Diagnostic] = []
    delays = timing.delays

    if not np.all(np.isfinite(delays)):
        rows = np.unique(np.nonzero(~np.isfinite(delays))[0])
        edges = ", ".join(str(circuit.edges[row]) for row in rows[:3])
        findings.append(_diag(
            "T305",
            f"delay matrix contains non-finite samples on {len(rows)} "
            f"edge(s) (e.g. {edges})",
            obj,
        ))
        return findings
    if np.any(delays < 0):
        rows = np.unique(np.nonzero(delays < 0)[0])
        edges = ", ".join(str(circuit.edges[row]) for row in rows[:3])
        findings.append(_diag(
            "T305",
            f"delay matrix contains negative samples on {len(rows)} "
            f"edge(s) (e.g. {edges})",
            obj,
        ))

    means = delays.mean(axis=1)
    stds = delays.std(axis=1)
    positive = means > 0
    heavy = np.nonzero(positive & (3.0 * stds > means))[0]
    if heavy.size:
        edges = ", ".join(str(circuit.edges[row]) for row in heavy[:3])
        findings.append(_diag(
            "T304",
            f"3-sigma exceeds the mean on {heavy.size} of {len(means)} "
            f"edge(s) (e.g. {edges}); the positivity floor distorts those "
            "distributions",
            obj,
        ))
    return findings


# ----------------------------------------------------------------------
# S4xx — suspects / dictionary cache
# ----------------------------------------------------------------------
def check_suspects(
    circuit: Circuit, suspects: Sequence[Edge]
) -> List[Diagnostic]:
    """Suspect-set checks (rules ``S401``/``S402``)."""
    obj = f"suspects:{circuit.name}"
    findings: List[Diagnostic] = []
    known = set(circuit.edges)
    seen = set()
    duplicates = {}
    for suspect in suspects:
        if suspect not in known:
            findings.append(_diag(
                "S401",
                f"suspect {suspect} references an edge absent from the "
                "circuit",
                obj,
            ))
        if suspect in seen:
            duplicates[suspect] = duplicates.get(suspect, 1) + 1
        seen.add(suspect)
    for suspect, count in duplicates.items():
        findings.append(_diag(
            "S402",
            f"suspect {suspect} appears {count} times in the suspect set",
            obj,
        ))
    return findings


#: A mmap-store payload: ``dict_<key>.<content-digest-12>.npy``.
_STORE_PAYLOAD_RE = re.compile(
    r"^dict_(?P<key>[0-9a-f]+)\.(?P<digest>[0-9a-f]{12})\.npy$"
)


def _check_store_manifest(
    directory: str, name: str, referenced: set
) -> List[Diagnostic]:
    """Audit one ``dict_<key>.json`` store manifest (``S403``/``S407``).

    Shares :func:`repro.core.cache.validate_store_manifest` with the hot
    path, then cross-checks the filename key and the payload file the
    manifest points at (existence, shape/dtype agreement, checksum).
    Valid payload references land in ``referenced`` so the caller can
    flag unreferenced (stale) payloads.
    """
    from ..core.cache import DictionaryStore, validate_store_manifest

    obj = f"cache:{name}"
    path = os.path.join(directory, name)
    try:
        with open(path) as handle:
            meta = json.load(handle)
    except Exception as error:
        return [_diag(
            "S403",
            f"store manifest is unreadable ({type(error).__name__}: "
            f"{error})",
            obj,
        )]
    errors = validate_store_manifest(meta)
    if errors:
        return [_diag("S407", f"manifest schema: {text}", obj)
                for text in errors]
    findings: List[Diagnostic] = []
    filename_key = name[len("dict_"):-len(".json")]
    if meta["key"] != filename_key:
        findings.append(_diag(
            "S407",
            "manifest key does not match its filename (orphaned by a "
            "key-schema change)",
            obj,
        ))
        return findings
    payload_path = os.path.join(directory, meta["payload"])
    if not os.path.isfile(payload_path):
        findings.append(_diag(
            "S407",
            f"manifest points at missing payload {meta['payload']!r} "
            "(stale pointer — or a rewrite is racing the audit)",
            obj,
        ))
        return findings
    referenced.add(meta["payload"])
    try:
        stack = np.load(payload_path, mmap_mode="r", allow_pickle=False)
        if tuple(stack.shape) != tuple(meta["shape"]):
            findings.append(_diag(
                "S403",
                f"payload shape {tuple(stack.shape)} disagrees with "
                f"manifest {tuple(meta['shape'])}",
                obj,
            ))
        elif str(stack.dtype) != meta["dtype"]:
            findings.append(_diag(
                "S403",
                f"payload dtype {stack.dtype} disagrees with manifest "
                f"{meta['dtype']!r}",
                obj,
            ))
        elif DictionaryStore._stack_checksum(stack) != meta["checksum"]:
            findings.append(_diag(
                "S403",
                "payload checksum mismatch (bit rot or truncated write)",
                obj,
            ))
    except Exception as error:
        findings.append(_diag(
            "S403",
            f"payload is unreadable ({type(error).__name__}: {error})",
            obj,
        ))
    return findings


def check_cache(cache_or_dir) -> List[Diagnostic]:
    """Read-only audit of a dictionary-cache directory (``S403``–``S407``).

    Covers both on-disk layouts: legacy ``dict_<key>.npz`` blobs
    (``S403``–``S405``) and the mmap store's manifest + payload pairs
    (``S403``/``S405``/``S407``).  Unlike the hot-path loaders — which
    delete bad entries — the audit never modifies the directory; it only
    reports.
    """
    from ..core.cache import (
        DictionaryStore,
        _LegacyBlobMismatch,
        _read_legacy_blob,
    )

    if isinstance(cache_or_dir, DictionaryStore):
        directory = cache_or_dir.directory
    else:
        directory = os.fspath(cache_or_dir)
    findings: List[Diagnostic] = []
    if not os.path.isdir(directory):
        return findings
    names = sorted(os.listdir(directory))
    referenced: set = set()
    payload_names = [
        name for name in names if _STORE_PAYLOAD_RE.match(name)
    ]
    for name in names:
        path = os.path.join(directory, name)
        obj = f"cache:{name}"
        if name.startswith((".tmp_dict_", ".tmp_store_")):
            findings.append(_diag(
                "S405",
                "leftover temp file from an interrupted cache writer",
                obj,
            ))
            continue
        if name.startswith("dict_") and name.endswith(".json"):
            findings.extend(_check_store_manifest(directory, name, referenced))
            continue
        if name in payload_names:
            continue  # orphan status decided after every manifest is read
        if not (name.startswith("dict_") and name.endswith(".npz")):
            if os.path.isfile(path):
                findings.append(_diag(
                    "S405",
                    "foreign file in the cache directory; no load will "
                    "ever consult it",
                    obj,
                ))
            continue
        try:
            _read_legacy_blob(path, name[len("dict_"):-len(".npz")])
        except _LegacyBlobMismatch as error:
            findings.append(_diag("S404", str(error), obj))
        except Exception as error:
            findings.append(_diag(
                "S403",
                f"entry failed its integrity check "
                f"({type(error).__name__}: {error})",
                obj,
            ))
    for name in payload_names:
        if name not in referenced:
            findings.append(_diag(
                "S405",
                "store payload not referenced by any manifest (stale "
                "after a rewrite, or its manifest never landed)",
                obj=f"cache:{name}",
            ))
    return findings


# ----------------------------------------------------------------------
# composition helpers
# ----------------------------------------------------------------------
def lint_circuit(
    circuit: Circuit,
    require_observable: bool = True,
    allow_dffs: bool = False,
) -> LintReport:
    """One circuit's structural findings as a gateable report."""
    report = LintReport()
    report.extend(check_circuit(
        circuit, require_observable=require_observable, allow_dffs=allow_dffs
    ))
    return report


def check_benchmark(
    name: str, seed: int = 0, n_samples: int = 16
) -> List[Diagnostic]:
    """Full model audit of one shipped benchmark circuit.

    Loads the scan view, then checks structure, the default cell library
    against it, and a small materialized timing model (``n_samples`` keeps
    the delay-matrix audit cheap; the checks are per-edge moments, which
    converge long before diagnosis-grade sample counts).
    """
    from ..circuits.benchmarks import load_benchmark
    from ..timing.instance import CircuitTiming
    from ..timing.randvars import SampleSpace

    circuit = load_benchmark(name, seed=seed)
    findings = check_circuit(circuit)
    findings.extend(check_library(circuit))
    if not any(d.rule in ("T301", "C201") for d in findings):
        timing = CircuitTiming(circuit, SampleSpace(n_samples=n_samples, seed=seed))
        findings.extend(check_timing(timing))
    return findings
