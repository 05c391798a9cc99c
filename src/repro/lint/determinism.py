"""AST-based determinism linter (rules ``D1xx``).

Scans Python source for the RNG hazards that would silently break the
bit-identical parallel/cached dictionary guarantee established in PR 1:

* ``D101`` — stdlib ``random`` imports (only :mod:`repro.rng` may),
* ``D102`` — legacy numpy global-state calls (``np.random.seed`` & co.),
* ``D103`` — unseeded ``np.random.default_rng()`` (OS-entropy streams),
* ``D104`` — time/entropy-dependent seeding expressions,
* ``D105`` — public simulation entry points that take a ``seed`` but do
  not let callers thread an explicit ``Generator``,
* ``D106`` — reference-kernel entry points used outside ``timing/`` or
  ``tests/`` (production code must go through the dispatching entry
  points so ``REPRO_TIMING_KERNEL`` stays authoritative),
* ``S406`` — code under a ``sampling/`` package constructing its own
  numpy generators (seeded or not) instead of threading
  ``repro.rng.spawn_generator`` spawn keys; ad-hoc generators break the
  bit-reproducibility of sampled dictionary builds across backends.

Pure ``ast`` — no third-party linter framework, no imports of the scanned
code.  Findings can be silenced per line with a trailing
``# repro-lint: allow[D101]`` comment (comma-separated IDs or ``*``).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .diagnostics import Diagnostic
from .rules import RULES

__all__ = ["lint_source", "lint_file", "lint_paths", "default_code_root"]

#: Files allowed to import stdlib random: the blessed shim module.
_D101_ALLOWED_SUFFIXES = (os.path.join("repro", "rng.py"),)

#: Files exempt from D103/D105: the stream owner itself.
_STREAM_OWNER_SUFFIXES = (os.path.join("timing", "randvars.py"),)

#: Packages whose module-level public functions count as simulation entry
#: points for D105.
_D105_SCOPE_DIRS = {"atpg", "defects", "logic", "core", "timing"}

#: Legacy global-state members of ``numpy.random`` (D102).  Seeded
#: construction of Generators/SeedSequences/bit generators is *not* here.
_NP_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "ranf", "random_sample",
    "sample", "random_integers", "normal", "standard_normal", "uniform",
    "shuffle", "permutation", "choice", "binomial", "poisson", "exponential",
    "beta", "gamma", "get_state", "set_state", "RandomState", "bytes",
}

#: Dotted-name suffixes whose call inside a seeding expression is D104.
_TIME_SOURCES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "datetime.now",
    "datetime.utcnow", "datetime.today", "date.today", "os.urandom",
    "os.getrandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.randbits",
)

#: Callable terminal names treated as RNG seeding sinks for D104.
_SEEDING_SINKS = {
    "default_rng", "SeedSequence", "Random", "CompatRandom", "RandomState",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64", "seed",
    "compat_from_seedsequence", "spawn_generator",
}

#: Kernel-variant entry points only ``timing/`` and ``tests/`` may name
#: (D106) — everything else must use the dispatching entry points, so
#: ``REPRO_TIMING_KERNEL`` alone selects the kernel.
_KERNEL_VARIANT_NAMES = {
    "simulate_transition_reference",
    "resimulate_with_extra_reference",
    "simulate_transition_compiled",
    "resimulate_with_extra_compiled",
    "replay_cone_sizes_compiled",
    "replay_chunk_compiled",
}

#: Path components in which D106 does not apply: the kernel's own package
#: (the dispatcher must reach the reference path) and the test suite
#: (which pins bit-identity against it).
_D106_EXEMPT_DIRS = {"timing", "tests"}

#: Directory components that scope S406: inside a sampling package every
#: generator must come from ``spawn_generator``, never be built locally.
_SAMPLING_DIRS = {"sampling"}

#: Generator-constructing ``numpy.random`` members S406 bans inside
#: sampling packages (seeded or not — the spawn-key protocol is the only
#: accepted seeding discipline there).
_S406_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}

#: Parameter names that mark a seed input / an explicit generator input.
_SEED_PARAMS = {"seed", "rng_seed"}
_GENERATOR_PARAMS = {"rng", "generator", "space"}

_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\[([^\]]*)\]")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _path_matches(path: str, suffixes: Sequence[str]) -> bool:
    normalized = os.path.normpath(path)
    return any(normalized.endswith(suffix) for suffix in suffixes)


def _allow_map(source: str) -> Dict[int, Set[str]]:
    """Per-line inline suppressions: ``{lineno: {"D101", ...}}``."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            allowed[lineno] = ids
    return allowed


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Diagnostic] = []
        parts = os.path.normpath(path).split(os.sep)
        #: D106 scope: the timing package itself and the test suite may
        #: name the reference kernel; nothing else may.
        self.d106_exempt = bool(_D106_EXEMPT_DIRS & set(parts[:-1]))
        #: S406 scope: files living under a sampling/ package directory.
        self.in_sampling = bool(_SAMPLING_DIRS & set(parts[:-1]))
        #: Local aliases of the numpy package (``numpy``, ``np``, ...).
        self.numpy_aliases: Set[str] = set()
        #: Local aliases of the ``numpy.random`` module itself.
        self.np_random_aliases: Set[str] = set()
        #: Names imported directly from ``numpy.random``: name -> member.
        self.np_random_members: Dict[str, str] = {}

    # -- helpers --------------------------------------------------------
    def _emit(self, rule_id: str, lineno: int, message: str) -> None:
        self.findings.append(
            Diagnostic(
                rule=rule_id,
                severity=RULES[rule_id].severity,
                message=message,
                path=self.path,
                line=lineno,
                engine="code",
            )
        )

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                if not _path_matches(self.path, _D101_ALLOWED_SUFFIXES):
                    self._emit(
                        "D101", node.lineno,
                        "stdlib `random` import; use repro.rng.CompatRandom "
                        "/ coerce_rng (only repro/rng.py may import random)",
                    )
            elif alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.np_random_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] == "random":
            if not _path_matches(self.path, _D101_ALLOWED_SUFFIXES):
                self._emit(
                    "D101", node.lineno,
                    "stdlib `random` import; use repro.rng.CompatRandom "
                    "/ coerce_rng (only repro/rng.py may import random)",
                )
        elif module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self.np_random_aliases.add(alias.asname or "random")
        elif module == "numpy.random" and node.level == 0:
            for alias in node.names:
                self.np_random_members[alias.asname or alias.name] = alias.name
        if not self.d106_exempt:
            for alias in node.names:
                if alias.name in _KERNEL_VARIANT_NAMES:
                    self._emit(
                        "D106", node.lineno,
                        f"imports kernel-variant entry point "
                        f"`{alias.name}` outside timing/ or tests/; use the "
                        "dispatching entry point so REPRO_TIMING_KERNEL "
                        "selects the kernel",
                    )
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def _np_random_member(self, func: ast.AST) -> Optional[str]:
        """The ``numpy.random`` member a call targets, if any."""
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base is None:
                return None
            root = base.split(".")[0]
            if base in self.np_random_aliases:
                return func.attr
            if root in self.numpy_aliases and base == f"{root}.random":
                return func.attr
            return None
        if isinstance(func, ast.Name) and func.id in self.np_random_members:
            return self.np_random_members[func.id]
        return None

    def _check_time_seeding(self, call: ast.Call) -> None:
        terminal = None
        if isinstance(call.func, ast.Attribute):
            terminal = call.func.attr
        elif isinstance(call.func, ast.Name):
            terminal = call.func.id
        seed_subtrees: List[ast.AST] = []
        if terminal in _SEEDING_SINKS:
            seed_subtrees.extend(call.args)
            seed_subtrees.extend(kw.value for kw in call.keywords)
        else:
            # Any call seeding through a keyword: f(..., seed=<expr>).
            seed_subtrees.extend(
                kw.value for kw in call.keywords
                if kw.arg in ("seed", "rng_seed", "entropy")
            )
        for subtree in seed_subtrees:
            for inner in ast.walk(subtree):
                if not isinstance(inner, ast.Call):
                    continue
                dotted = _dotted(inner.func)
                if dotted is None:
                    continue
                if any(
                    dotted == source or dotted.endswith("." + source)
                    for source in _TIME_SOURCES
                ):
                    self._emit(
                        "D104", inner.lineno,
                        f"RNG seeded from `{dotted}()`; seeds must be "
                        "explicit values or SeedSequence-derived",
                    )

    def visit_Call(self, node: ast.Call) -> None:
        terminal = None
        if isinstance(node.func, ast.Attribute):
            terminal = node.func.attr
        elif isinstance(node.func, ast.Name):
            terminal = node.func.id
        if not self.d106_exempt:
            if terminal in _KERNEL_VARIANT_NAMES:
                self._emit(
                    "D106", node.lineno,
                    f"calls kernel-variant entry point `{terminal}` "
                    "outside timing/ or tests/; use the dispatching entry "
                    "point so REPRO_TIMING_KERNEL selects the kernel",
                )
        member = self._np_random_member(node.func)
        if member is not None:
            if self.in_sampling and member in _S406_CONSTRUCTORS:
                self._emit(
                    "S406", node.lineno,
                    f"sampling code builds `np.random.{member}(...)` "
                    "directly; thread repro.rng.spawn_generator("
                    "seed, SAMPLER_SPAWN_KEY, suspect, clk, round) so "
                    "draws replay bit-identically across backends",
                )
            if member in _NP_LEGACY:
                self._emit(
                    "D102", node.lineno,
                    f"legacy numpy global-state RNG call "
                    f"`np.random.{member}(...)`; draw from an explicitly "
                    "seeded Generator (SampleSpace.child_rng / default_rng)",
                )
            elif member == "default_rng" and not node.args and not node.keywords:
                if not _path_matches(self.path, _STREAM_OWNER_SUFFIXES):
                    self._emit(
                        "D103", node.lineno,
                        "unseeded `default_rng()` pulls OS entropy; pass an "
                        "explicit seed or SeedSequence",
                    )
        self._check_time_seeding(node)
        self.generic_visit(node)

    # -- entry-point threading (module level only) ----------------------
    def check_entry_points(self, tree: ast.Module) -> None:
        parts = os.path.normpath(self.path).split(os.sep)
        in_scope = any(part in _D105_SCOPE_DIRS for part in parts[:-1])
        if not in_scope or _path_matches(self.path, _STREAM_OWNER_SUFFIXES):
            return
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            names = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
            if names & _SEED_PARAMS and not names & _GENERATOR_PARAMS:
                self._emit(
                    "D105", node.lineno,
                    f"public entry point `{node.name}` accepts a seed but "
                    "no `rng` parameter; callers cannot thread an explicit "
                    "Generator through it",
                )


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one Python source string; returns unsuppressed findings."""
    tree = ast.parse(source, filename=path)
    visitor = _DeterminismVisitor(path)
    visitor.visit(tree)
    visitor.check_entry_points(tree)
    allowed = _allow_map(source)
    findings = []
    for finding in visitor.findings:
        inline = allowed.get(finding.line or -1, set())
        if finding.rule in inline or "*" in inline:
            continue
        findings.append(finding)
    return sorted(findings, key=lambda d: (d.line or 0, d.rule))


def lint_file(path: str) -> List[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path=path)


def default_code_root() -> str:
    """The installed ``repro`` package directory (the default lint target)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_paths(paths: Optional[Iterable[str]] = None) -> List[Diagnostic]:
    """Lint ``.py`` files under each path (file or directory tree)."""
    if paths is None:
        paths = [default_code_root()]
    findings: List[Diagnostic] = []
    for target in paths:
        if os.path.isfile(target):
            findings.extend(lint_file(target))
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    findings.extend(lint_file(os.path.join(dirpath, filename)))
    return findings
