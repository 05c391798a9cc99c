"""The rule catalog: every stable rule ID the subsystem can emit.

ID ranges are namespaced by layer so a rule's number alone tells you what
it checks and which engine produced it:

* ``D1xx`` — determinism hazards in the *codebase* (AST engine,
  :mod:`repro.lint.determinism`),
* ``C2xx`` — circuit/netlist structure (model engine,
  :mod:`repro.lint.models`),
* ``T3xx`` — timing / cell-library characterization (model engine),
* ``S4xx`` — suspect sets, fault dictionaries and the on-disk cache
  (model engine; ``S406`` is the one code-engine member — it guards the
  sampling subsystem's RNG threading at the source level),
* ``S5xx`` — observability run manifests emitted by :mod:`repro.obs`
  (model engine, :mod:`repro.lint.obs`).  The range is reserved for the
  obs namespace: new manifest/metrics rules go here,
* ``R6xx`` — resilience checkpoint files written by
  :mod:`repro.resilience.checkpoint` (model engine,
  :mod:`repro.lint.resilience`).  The range is reserved for the
  resilience namespace: new checkpoint/recovery rules go here,
* ``F7xx`` — interprocedural RNG-stream determinism (flow engine,
  :mod:`repro.lint.flow.determinism`): seeded generators crossing call
  boundaries, with call-path witnesses,
* ``P8xx`` — process-pool worker safety (flow engine,
  :mod:`repro.lint.flow.poolsafety`): callables shipped to
  ``map_chunked`` / executor submit sites,
* ``K9xx`` — cache-key completeness (flow engine,
  :mod:`repro.lint.flow.cachekeys`): every parameter that influences
  cached dictionary bytes must be hashed into the key.

IDs are append-only: a retired rule's number is never reused, so CI logs
and suppression lists stay meaningful across versions.  To add a rule,
register it here and emit it from the matching engine — see
``docs/architecture.md`` §9 for the walk-through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .diagnostics import Severity

__all__ = ["Rule", "RULES", "rule"]


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule."""

    id: str
    title: str
    severity: Severity
    engine: str  # "code" | "model" | "flow"
    description: str


_CATALOG = (
    # ------------------------------------------------------- determinism
    Rule(
        "D101", "stdlib-random-import", Severity.ERROR, "code",
        "Imports the stdlib `random` module. All legacy-surface draws must "
        "go through repro.rng (CompatRandom / coerce_rng); only that module "
        "may import stdlib random.",
    ),
    Rule(
        "D102", "numpy-global-rng", Severity.ERROR, "code",
        "Calls a legacy numpy global-state RNG function (np.random.seed, "
        "np.random.rand, np.random.RandomState, ...). Use an explicitly "
        "seeded np.random.default_rng / SampleSpace.child_rng stream.",
    ),
    Rule(
        "D103", "unseeded-default-rng", Severity.ERROR, "code",
        "Calls np.random.default_rng() with no seed, pulling OS entropy. "
        "Every stream must derive from an explicit seed or SeedSequence "
        "(timing/randvars.py, the stream owner, is exempt).",
    ),
    Rule(
        "D104", "time-dependent-seed", Severity.ERROR, "code",
        "Seeds an RNG from wall-clock time, OS entropy or a UUID "
        "(time.time(), datetime.now(), os.urandom(), uuid.uuid4(), ...): "
        "run-to-run results would differ silently.",
    ),
    Rule(
        "D105", "seed-without-generator-threading", Severity.ERROR, "code",
        "Public simulation entry point accepts a seed parameter but no "
        "`rng` parameter, so callers cannot thread an explicit Generator "
        "through it — the hazard that breaks cross-backend bit-identity. "
        "Scope: module-level public functions in atpg/, defects/, logic/, "
        "core/ and timing/ (randvars.py, the stream owner, is exempt).",
    ),
    Rule(
        "D106", "reference-kernel-outside-timing", Severity.ERROR, "code",
        "Calls a kernel-variant entry point (the *_reference kernel, or a "
        "*_compiled replay such as replay_chunk_compiled) outside timing/ "
        "or tests/. Production code must go through the dispatching entry "
        "points (simulate_transition / resimulate_with_extra / replay_sizes "
        "/ replay_chunk) so REPRO_TIMING_KERNEL selects the kernel "
        "uniformly; hard-wiring the reference path silently forfeits the "
        "compiled kernel's speedup, and hard-wiring a compiled one ignores "
        "the switch.",
    ),
    # ----------------------------------------------------------- circuit
    Rule(
        "C201", "circuit-not-frozen", Severity.ERROR, "model",
        "Circuit was not frozen; topology, levels and edge enumeration are "
        "undefined until freeze() runs.",
    ),
    Rule(
        "C202", "no-primary-inputs", Severity.ERROR, "model",
        "Circuit has no primary inputs.",
    ),
    Rule(
        "C203", "no-primary-outputs", Severity.ERROR, "model",
        "Circuit has no primary outputs.",
    ),
    Rule(
        "C204", "dff-in-delay-test-view", Severity.ERROR, "model",
        "Circuit contains a DFF; the delay-test flow expects the scan-"
        "unrolled combinational view (call unroll_scan() first).",
    ),
    Rule(
        "C205", "xor-duplicate-fanins", Severity.WARNING, "model",
        "XOR-family gate with duplicate fanins computes a constant; the "
        "gate and its fanin edges are untestable defect sites.",
    ),
    Rule(
        "C206", "uncontrollable-net", Severity.ERROR, "model",
        "Net is not reachable from any primary input, so no pattern can "
        "launch a transition through it.",
    ),
    Rule(
        "C207", "unobservable-net", Severity.ERROR, "model",
        "Net does not reach any primary output; defects on its segment "
        "can never be observed (the injection experiments rely on full "
        "observability).",
    ),
    Rule(
        "C208", "combinational-cycle", Severity.ERROR, "model",
        "Combinational cycle detected; the timing model and two-vector "
        "simulation require a DAG. (freeze() also rejects cycles — this "
        "catches them in hand-built, not-yet-frozen netlists.)",
    ),
    Rule(
        "C209", "dangling-fanin", Severity.ERROR, "model",
        "Gate fanin references a net that is not declared anywhere in the "
        "netlist (floating net). Multiply-driven nets are unrepresentable "
        "by construction — Circuit.add_gate rejects redefinitions.",
    ),
    # ------------------------------------------------------------ timing
    Rule(
        "T301", "missing-cell-characterization", Severity.ERROR, "model",
        "A gate type instantiated by the circuit has no pin-to-pin delay "
        "characterization in the cell library; materializing the timing "
        "model would fail.",
    ),
    Rule(
        "T302", "invalid-delay-parameters", Severity.ERROR, "model",
        "Cell-library delay parameters are invalid: negative base delay, "
        "negative sigma, or a negative computed nominal pin-to-pin delay.",
    ),
    Rule(
        "T303", "degenerate-delay-distribution", Severity.WARNING, "model",
        "Delay distribution is degenerate (zero variance): statistical "
        "diagnosis degrades to deterministic STA and the paper's "
        "probabilistic dictionary entries collapse to 0/1.",
    ),
    Rule(
        "T304", "three-sigma-exceeds-mean", Severity.WARNING, "model",
        "3-sigma of a delay distribution exceeds its mean, so the "
        "positivity floor truncates the lower tail and the distribution "
        "is no longer the declared normal family.",
    ),
    Rule(
        "T305", "invalid-delay-samples", Severity.ERROR, "model",
        "Materialized delay matrix contains non-finite or negative "
        "samples.",
    ),
    # T310 (hier-bypasses-flat-bridge) is retired with the hierarchical
    # build path; IDs are append-only, so it is never reused.
    # ------------------------------------- suspects / dictionary / cache
    Rule(
        "S401", "suspect-unknown-edge", Severity.ERROR, "model",
        "Suspect references an edge that does not exist in the circuit; "
        "its dictionary column would be meaningless.",
    ),
    Rule(
        "S402", "duplicate-suspect", Severity.WARNING, "model",
        "Duplicate entries in a suspect set waste dictionary columns and "
        "bias posterior mass toward the duplicated site.",
    ),
    Rule(
        "S403", "corrupt-cache-entry", Severity.ERROR, "model",
        "Dictionary-cache entry is unreadable or fails its payload "
        "checksum (truncated write, bit rot, zip damage).",
    ),
    Rule(
        "S404", "cache-schema-drift", Severity.ERROR, "model",
        "Dictionary-cache entry carries an unexpected format version or a "
        "key that disagrees with its filename — written by an "
        "incompatible code revision.",
    ),
    Rule(
        "S405", "orphaned-cache-file", Severity.WARNING, "model",
        "Stray file in the cache directory (leftover temp file from an "
        "interrupted writer, or a foreign file) that no load will ever "
        "consult.",
    ),
    Rule(
        "S406", "sampler-unthreaded-rng", Severity.ERROR, "code",
        "Sampling-subsystem code constructs its own numpy Generator "
        "instead of threading repro.rng.spawn_generator spawn keys; "
        "per-(suspect, clock, round) streams are what make sampled "
        "dictionary builds bit-reproducible across parallel backends.",
    ),
    Rule(
        "S407", "store-manifest-violation", Severity.ERROR, "model",
        "Dictionary-store manifest (dict_<key>.json) violates the "
        "repro-dictionary-store-v1 schema, disagrees with its filename "
        "key, or points at a payload file that does not exist.",
    ),
    # ------------------------------------ observability run manifests
    Rule(
        "S501", "manifest-unreadable", Severity.ERROR, "model",
        "Run manifest file is missing, unreadable, or not valid JSON — "
        "the metrics emitter crashed mid-write or CI archived the wrong "
        "artifact.",
    ),
    Rule(
        "S502", "manifest-schema-violation", Severity.ERROR, "model",
        "Run manifest does not validate against the shipped manifest "
        "schema (repro.obs.MANIFEST_SCHEMA): wrong format tag, missing "
        "required keys, or malformed metrics payloads.",
    ),
    Rule(
        "S503", "manifest-metrics-empty", Severity.WARNING, "model",
        "Run manifest is schema-valid but records no spans and no "
        "counters — the run executed with a disabled recorder, so the "
        "archived profile carries no information.",
    ),
    # -------------------------------------- resilience checkpoints
    Rule(
        "R601", "checkpoint-unreadable", Severity.ERROR, "model",
        "Checkpoint file is missing, unreadable or not valid JSON — the "
        "writer died mid-campaign before its first atomic commit, or the "
        "file was damaged afterwards. A --resume against it would fail.",
    ),
    Rule(
        "R602", "checkpoint-schema-violation", Severity.ERROR, "model",
        "Checkpoint does not validate against the shipped checkpoint "
        "schema (repro.resilience.CHECKPOINT_SCHEMA): wrong format tag, "
        "missing sections, inconsistent progress, or a checksum mismatch "
        "(tampered or bit-rotted state).",
    ),
    Rule(
        "R603", "checkpoint-state-inconsistent", Severity.ERROR, "model",
        "Checkpoint is schema-valid but its state disagrees with its own "
        "progress header (e.g. an evaluation checkpoint whose recorded "
        "trial list is not the completed count) — resuming would "
        "silently drop or duplicate trials.",
    ),
    Rule(
        "R604", "checkpoint-stale-temp", Severity.WARNING, "model",
        "Stray checkpoint temp file (.tmp_ckpt_*) in the directory: an "
        "interrupted writer died between mkstemp and the atomic rename. "
        "Harmless to resume, but worth cleaning up.",
    ),
    Rule(
        "R605", "wire-taxonomy-not-append-only", Severity.ERROR, "model",
        "The service wire-error taxonomy (repro.service.errors.WIRE_TYPES) "
        "drifted from the pinned release baseline: a released error.type "
        "tag was removed, re-typed, or reordered. Deployed clients "
        "dispatch on these tags, so the taxonomy is append-only protocol "
        "— new tags go at the end only.",
    ),
    # --------------------------- interprocedural determinism (flow)
    Rule(
        "F701", "dropped-generator-at-call-boundary", Severity.ERROR, "flow",
        "A function holds a seeded generator but calls a generator-"
        "accepting callee that transitively samples without forwarding "
        "any stream; the callee falls back to its own default stream and "
        "the caller's seeding has no effect. The diagnostic carries the "
        "call path from the drop site to the actual draw.",
    ),
    Rule(
        "F702", "seeded-stream-never-used", Severity.ERROR, "flow",
        "The result of an RNG creation site (spawn_generator, child_rng, "
        "seeded default_rng, ...) is bound and then never read: no draw, "
        "no forwarding, no return. The sampling it was meant to drive "
        "runs on some other generator.",
    ),
    Rule(
        "F703", "generator-valued-parameter-default", Severity.ERROR, "flow",
        "An rng-like parameter defaults to a generator constructed at "
        "def time, so every unthreaded call shares one stateful stream "
        "and results depend on call order. Default to None and derive "
        "the stream inside the call.",
    ),
    # ------------------------------------- pool-worker safety (flow)
    Rule(
        "P801", "worker-writes-module-state", Severity.ERROR, "flow",
        "A callable shipped to map_chunked / executor.submit (or one of "
        "its transitive callees) writes module-level mutable state "
        "outside the sanctioned worker protocol; each pool worker "
        "mutates its own copy, so parallel results silently diverge "
        "from serial ones. Ship state home with the chunk results "
        "(the _MetricsShard protocol) instead.",
    ),
    Rule(
        "P802", "worker-not-module-level", Severity.ERROR, "flow",
        "The callable shipped to map_chunked / executor.submit is a "
        "lambda or a nested function; process backends pickle workers "
        "by qualified name, so the build only works serially.",
    ),
    # --------------------------------- cache-key completeness (flow)
    Rule(
        "K901", "content-param-missing-from-cache-key", Severity.ERROR, "flow",
        "A parameter of a cache-keyed build function influences the "
        "cached content (reaches the map_chunked payload or a worker-"
        "job construction) but is not hashed into the cache key and is "
        "not re-derivable from key-covered parameters; two builds "
        "differing only in that parameter collide on one key and the "
        "second is served stale bytes.",
    ),
    Rule(
        "K902", "cache-key-param-without-content-influence",
        Severity.WARNING, "flow",
        "A parameter is hashed into the cache key but never reaches the "
        "dictionary content; over-keying splits the cache across "
        "irrelevant values and hides hit-rate regressions.",
    ),
)

#: Rule catalog indexed by stable ID.
RULES: Dict[str, Rule] = {entry.id: entry for entry in _CATALOG}


def rule(rule_id: str) -> Rule:
    """Look up a rule; raises ``KeyError`` for unknown IDs."""
    return RULES[rule_id]
