"""Content-addressed on-disk cache for probabilistic fault dictionaries.

Clock sweeps re-observe the same pattern set, the Section I protocol
re-runs diagnosis N=20 times per circuit, and interactive sessions repeat
the same (circuit, patterns, clk) queries — all of which rebuild the same
``M_crt`` and suspect signatures from scratch.  Those matrices are pure
functions of their inputs, so they cache perfectly.

The cache key is a SHA-256 digest over everything the dictionary content
depends on: the circuit structure, the materialized delay matrix (which
subsumes the library, the sample-space seed and ``n_samples``), the
two-vector pattern set, the clock(s), the suspect list, and the
defect-size sample vector.  Any change to any of them changes the key —
stale hits are structurally impossible, no invalidation protocol needed.

On disk, a :class:`DictionaryStore` holds each entry as a JSON manifest
plus ONE mmap-able ``.npy`` stack, loaded with ``mmap_mode="r"`` so warm
services and pool workers share read-only dictionary pages through the
OS page cache (see ``docs/architecture.md`` §15).  Every load verifies
the payload checksum: a truncated, corrupted or wrong-format entry is
deleted and treated as a miss, so the caller simply rebuilds.
Directories of the retired one-``.npz``-blob-per-entry format convert
once through :meth:`DictionaryStore.migrate_legacy`.

The store is **off by default** and enabled by the ``REPRO_CACHE_DIR``
environment variable or an explicit instance / directory argument.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Circuit, Edge
from ..resilience import chaos
from ..timing.instance import CircuitTiming
from .. import obs

__all__ = [
    "CacheStats",
    "DictionaryStore",
    "STORE_FORMAT",
    "resolve_cache",
    "validate_store_manifest",
    "circuit_fingerprint",
    "timing_fingerprint",
    "patterns_fingerprint",
    "dictionary_cache_key",
]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_MAX_ENTRIES = "REPRO_CACHE_MAX_ENTRIES"


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _array_bytes(array: np.ndarray) -> bytes:
    array = np.ascontiguousarray(array)
    return str(array.dtype).encode() + str(array.shape).encode() + array.tobytes()


#: Identity-keyed digests of live objects.  Circuits and timing models
#: are immutable once built (the whole content-address scheme already
#: relies on that), so a digest can be computed once per object instead
#: of re-walking a 20k-gate netlist / re-hashing the delay matrix on
#: every cache-key lookup.
_CIRCUIT_FINGERPRINTS: "weakref.WeakKeyDictionary[Circuit, str]" = (
    weakref.WeakKeyDictionary()
)
_TIMING_FINGERPRINTS: "weakref.WeakKeyDictionary[CircuitTiming, str]" = (
    weakref.WeakKeyDictionary()
)


def circuit_fingerprint(circuit: Circuit) -> str:
    """Digest of the structural netlist (gates, connectivity, I/O).

    Memoized per (live) circuit object — the netlist is treated as
    immutable once fingerprinted, which every content-addressed layer
    here already assumes.
    """
    cached = _CIRCUIT_FINGERPRINTS.get(circuit)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(circuit.name.encode())
    hasher.update(json.dumps(circuit.inputs).encode())
    hasher.update(json.dumps(circuit.outputs).encode())
    for name in circuit.topological_order:
        gate = circuit.gates[name]
        hasher.update(
            json.dumps([name, gate.gate_type.value, gate.fanins]).encode()
        )
    digest = hasher.hexdigest()
    _CIRCUIT_FINGERPRINTS[circuit] = digest
    return digest


def timing_fingerprint(timing: CircuitTiming) -> str:
    """Digest of the full statistical timing model.

    Hashing the materialized delay matrix (rather than the library
    parameters) makes the fingerprint exact: it subsumes the RNG seed,
    ``n_samples`` and every library knob that shaped the samples.
    Memoized per (live) timing object, like :func:`circuit_fingerprint`.
    """
    cached = _TIMING_FINGERPRINTS.get(timing)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(circuit_fingerprint(timing.circuit).encode())
    hasher.update(_array_bytes(timing.delays))
    hasher.update(f"{timing.space.n_samples}:{timing.space.seed}".encode())
    digest = hasher.hexdigest()
    _TIMING_FINGERPRINTS[timing] = digest
    return digest


def patterns_fingerprint(
    patterns: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> str:
    """Digest of an ordered two-vector pattern set."""
    hasher = hashlib.sha256()
    hasher.update(str(len(patterns)).encode())
    for v1, v2 in patterns:
        hasher.update(_array_bytes(np.asarray(v1, dtype=np.int8)))
        hasher.update(_array_bytes(np.asarray(v2, dtype=np.int8)))
    return hasher.hexdigest()


def dictionary_cache_key(
    timing: CircuitTiming,
    patterns: Sequence[Tuple[np.ndarray, np.ndarray]],
    clks: Sequence[float],
    suspects: Sequence[Edge],
    size_samples: np.ndarray,
    sampler_token: Optional[str] = None,
) -> str:
    """The content address of one dictionary build.

    ``sampler_token`` folds a non-plain sampler configuration into the
    address (:meth:`repro.sampling.SamplerConfig.cache_token`); plain
    builds pass ``None`` so their keys stay byte-identical to keys
    written before the sampling subsystem existed.
    """
    hasher = hashlib.sha256()
    hasher.update(timing_fingerprint(timing).encode())
    hasher.update(patterns_fingerprint(patterns).encode())
    hasher.update(json.dumps([float(clk) for clk in clks]).encode())
    hasher.update(
        json.dumps([[e.source, e.sink, e.pin] for e in suspects]).encode()
    )
    hasher.update(_array_bytes(np.asarray(size_samples, dtype=float)))
    if sampler_token is not None:
        hasher.update(sampler_token.encode())
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Introspectable hit/miss accounting for one :class:`DictionaryStore`.

    ``rejected`` counts entries that existed but failed an integrity check
    (and were evicted); every rejection is also a miss.  ``stores`` counts
    successful payload writes, ``store_failures`` writes that died on the
    filesystem (the run continues uncached), and ``evictions`` entries
    removed by the LRU size cap.  The same numbers flow into the global
    metrics recorder as ``cache.*`` counters whenever one is installed.
    """

    hits: int = 0
    misses: int = 0
    rejected: int = 0
    stores: int = 0
    store_failures: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "stores": self.stores,
            "store_failures": self.store_failures,
            "evictions": self.evictions,
        }


# ----------------------------------------------------------------------
# the zero-copy mmap store
# ----------------------------------------------------------------------
#: Format tag of a store manifest.  Bumping it orphans every existing
#: entry (audited as S404 schema drift).
STORE_FORMAT = "repro-dictionary-store-v1"

#: Keys every store manifest must carry, with their JSON types.
_STORE_MANIFEST_KEYS = {
    "format": str,
    "key": str,
    "payload": str,
    "n_suspects": int,
    "shape": list,
    "dtype": str,
    "checksum": str,
}


def validate_store_manifest(payload: Dict) -> List[str]:
    """Schema-check one store manifest document; returns error strings.

    Shared by :meth:`DictionaryStore.load` and the ``S4xx`` lint audit so
    the hot path and the offline gate can never disagree about what a
    well-formed manifest is.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"manifest must be a JSON object, got {type(payload).__name__}"]
    for name, kind in _STORE_MANIFEST_KEYS.items():
        value = payload.get(name)
        if value is None:
            errors.append(f"missing required key {name!r}")
        elif not isinstance(value, kind) or isinstance(value, bool):
            errors.append(
                f"key {name!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    if errors:
        return errors
    if payload["format"] != STORE_FORMAT:
        errors.append(
            f"format {payload['format']!r} != expected {STORE_FORMAT!r}"
        )
    shape = payload["shape"]
    if len(shape) != 3 or not all(
        isinstance(dim, int) and dim >= 0 for dim in shape
    ):
        errors.append(f"shape must be three non-negative ints, got {shape}")
    elif shape[0] != payload["n_suspects"] + 1:
        errors.append(
            f"shape[0] {shape[0]} != n_suspects + 1 "
            f"({payload['n_suspects'] + 1})"
        )
    if ".." in payload["payload"] or os.sep in payload["payload"]:
        errors.append("payload must be a bare filename in the store directory")
    return errors


class DictionaryStore:
    """Content-addressed dictionary store with zero-copy mmap loads.

    ``load(key)`` / ``store(key, m_crt, signatures)`` over a directory
    in which an entry is

    * ``dict_<key>.json`` — a small manifest naming the payload file and
      pinning its shape, dtype and SHA-256 checksum,
    * ``dict_<key>.<digest>.npy`` — ONE flat array of shape
      ``(1 + n_suspects, n_outputs, n_cols)``: row 0 is ``m_crt``, row
      ``1 + i`` is suspect ``i``'s signature (signatures share ``m_crt``'s
      shape by construction, so the whole payload stacks).

    Loads go through ``np.load(..., mmap_mode="r")``: nothing is
    deserialized, the returned matrices are read-only views of the
    OS-page-cached file, and every process that maps the same entry
    shares those pages — a warm :class:`~repro.service.DiagnosisService`
    and its pool workers pay for one copy of each dictionary, not one
    per worker per request.

    Rewrites are atomic against concurrent readers: the payload is
    content-named (the digest is part of the filename) and written
    *before* the manifest pointer is atomically replaced, so a reader
    always sees a (manifest, payload) pair that was published together —
    either the old complete entry or the new one, never a torn mix.

    ``stats`` (a :class:`CacheStats`) makes cache behavior observable in
    tests and benchmarks.  ``max_entries`` caps the directory at that
    many entries with least-recently-used eviction (also settable
    through ``REPRO_CACHE_MAX_ENTRIES``, see :func:`resolve_cache`).
    Recency is the manifest mtime, refreshed on every hit, so the cap
    evicts the entries diagnosis has stopped asking for.  ``None`` (the
    default) means unbounded.
    """

    #: Prefix of in-flight temp files (manifest and payload writers).
    _TMP_PREFIX = ".tmp_store_"

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.directory = os.fspath(directory)
        self.max_entries = max_entries
        self.stats = CacheStats()

    # -- paths ----------------------------------------------------------
    def manifest_path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"dict_{key}.json")

    def _payload_name(self, key: str, checksum: str) -> str:
        return f"dict_{key}.{checksum[:12]}.npy"

    # -- load -----------------------------------------------------------
    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Map one entry; ``None`` on miss, corruption, or mid-rewrite race.

        Returns ``{"m_crt": ..., "signatures": [...], "stack": ...}`` —
        the signatures are zero-copy, read-only row views of the mmapped
        ``stack``.  Every load checks the manifest schema, the payload
        shape and dtype, and the full payload checksum, so silent bit rot
        is caught before any diagnosis reads the entry.

        A manifest whose payload file is missing is a *benign race* (a
        concurrent rewrite just retired it): counted as a miss, nothing
        evicted.  Anything structurally wrong is corruption: counted as
        ``rejected`` and the entry is deleted so the next store rewrites
        it cleanly.
        """
        recorder = obs.get_recorder()
        path = self.manifest_path_for(key)
        if not os.path.exists(path):
            self.stats.misses += 1
            recorder.count("cache.miss")
            return None
        try:
            chaos.trip("cache.load")
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            errors = validate_store_manifest(manifest)
            if errors:
                raise ValueError(f"store manifest invalid: {errors[0]}")
            if manifest["key"] != key:
                raise ValueError("manifest key mismatch")
            payload_path = os.path.join(self.directory, manifest["payload"])
            if not os.path.exists(payload_path):
                # A concurrent rewrite retired this payload between our
                # manifest read and the map: benign, simply a miss.
                self.stats.misses += 1
                recorder.count("cache.miss")
                return None
            stack = np.load(payload_path, mmap_mode="r", allow_pickle=False)
            if list(stack.shape) != manifest["shape"]:
                raise ValueError("payload shape disagrees with manifest")
            if str(stack.dtype) != manifest["dtype"]:
                raise ValueError("payload dtype disagrees with manifest")
            if self._stack_checksum(stack) != manifest["checksum"]:
                raise ValueError("payload checksum mismatch")
        except Exception:
            self.stats.rejected += 1
            self.stats.misses += 1
            recorder.count("cache.rejected")
            recorder.count("cache.miss")
            self.evict(key)
            return None
        self.stats.hits += 1
        recorder.count("cache.hit")
        if self.max_entries is not None:
            try:
                os.utime(path)  # refresh LRU recency
            except OSError:
                pass
        return {
            "m_crt": stack[0],
            "signatures": [stack[1 + index] for index in range(len(stack) - 1)],
            "stack": stack,
        }

    def read_manifest(self, key: str) -> Dict:
        """Read and schema-check one entry's manifest, *loudly*.

        The hot :meth:`load` path treats a bad manifest as corruption to
        be evicted and rebuilt — correct for a cache, wrong for a hot
        reload, where the operator needs to know *why* the new entry was
        rejected and the old in-memory dictionary must keep serving.
        This hook raises ``ValueError`` with the
        :func:`validate_store_manifest` findings (or ``FileNotFoundError``
        on a missing entry) and never evicts anything.
        """
        path = self.manifest_path_for(key)
        if not os.path.exists(path):
            raise FileNotFoundError(f"no store manifest for key {key!r}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable store manifest for {key!r}: {exc}")
        errors = validate_store_manifest(manifest)
        if errors:
            raise ValueError(
                f"store manifest for {key!r} failed validation: "
                + "; ".join(errors)
            )
        if manifest["key"] != key:
            raise ValueError(
                f"store manifest key {manifest['key']!r} != entry key {key!r}"
            )
        return manifest

    @staticmethod
    def _stack_checksum(stack: np.ndarray) -> str:
        # Hash the (mapped) buffer in place: no full in-memory copy.
        hasher = hashlib.sha256(
            str(stack.dtype).encode() + str(stack.shape).encode()
        )
        hasher.update(np.ascontiguousarray(stack).data)
        return hasher.hexdigest()

    # -- store ----------------------------------------------------------
    def store(
        self, key: str, m_crt: np.ndarray, signatures: Sequence[np.ndarray]
    ) -> Optional[str]:
        """Publish one entry atomically; returns the manifest path.

        Write order is the atomicity protocol: payload first (under its
        content-derived name), manifest pointer second (atomic
        ``os.replace``).  Stale payloads of the same key are unlinked
        *after* the new manifest lands — POSIX keeps their pages alive
        for readers that already mapped them.  A failed write (full disk,
        permissions, injected chaos) never kills the diagnosis that
        produced the data: it is counted in ``stats.store_failures`` and
        returns ``None``, and the run continues uncached.
        """
        m_crt = np.asarray(m_crt, dtype=float)
        stack = np.empty((1 + len(signatures),) + m_crt.shape, dtype=float)
        stack[0] = m_crt
        for index, signature in enumerate(signatures):
            stack[1 + index] = np.asarray(signature, dtype=float)
        checksum = self._stack_checksum(stack)
        manifest = {
            "format": STORE_FORMAT,
            "key": key,
            "payload": self._payload_name(key, checksum),
            "n_suspects": len(signatures),
            "shape": list(stack.shape),
            "dtype": str(stack.dtype),
            "checksum": checksum,
        }
        path = self.manifest_path_for(key)
        payload_path = os.path.join(self.directory, manifest["payload"])
        tmp_path = None
        try:
            chaos.trip("cache.store")
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=self._TMP_PREFIX, suffix=".npy"
            )
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, stack)
            os.replace(tmp_path, payload_path)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=self._TMP_PREFIX, suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=1, sort_keys=True)
            os.replace(tmp_path, path)
            tmp_path = None
        except KeyboardInterrupt:
            if tmp_path is not None:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
            raise
        except Exception:
            if tmp_path is not None:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
            self.stats.store_failures += 1
            obs.get_recorder().count("cache.store_failed")
            return None
        self._collect_stale_payloads(key, keep=manifest["payload"])
        self.stats.stores += 1
        obs.get_recorder().count("cache.store")
        self._enforce_max_entries(keep=key)
        return path

    def _collect_stale_payloads(self, key: str, keep: str) -> None:
        """Unlink payload files of ``key`` the current manifest retired."""
        prefix = f"dict_{key}."
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if (
                name.startswith(prefix)
                and name.endswith(".npy")
                and name != keep
            ):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

    # -- maintenance ----------------------------------------------------
    def evict(self, key: str) -> None:
        """Delete one entry (manifest and every payload generation)."""
        try:
            os.remove(self.manifest_path_for(key))
        except OSError:
            pass
        self._collect_stale_payloads(key, keep="")

    def keys(self) -> List[str]:
        """Keys with a manifest present, sorted (an audit/GC helper)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            name[len("dict_"):-len(".json")]
            for name in names
            if name.startswith("dict_") and name.endswith(".json")
        )

    def _enforce_max_entries(self, keep: Optional[str] = None) -> int:
        """LRU-evict entries beyond ``max_entries`` (manifest mtime)."""
        if self.max_entries is None:
            return 0
        keys = self.keys()
        if len(keys) <= self.max_entries:
            return 0
        recorder = obs.get_recorder()

        def mtime(entry_key: str) -> float:
            try:
                return os.path.getmtime(self.manifest_path_for(entry_key))
            except OSError:
                return 0.0

        evicted = 0
        for entry_key in sorted(keys, key=mtime):
            if len(keys) - evicted <= self.max_entries:
                break
            if keep is not None and entry_key == keep:
                continue
            self.evict(entry_key)
            evicted += 1
            self.stats.evictions += 1
            recorder.count("cache.evicted")
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns the number of manifests removed."""
        removed = 0
        for key in self.keys():
            self.evict(key)
            removed += 1
        return removed

    # -- migration ------------------------------------------------------
    def migrate_legacy(self, directory: Union[str, os.PathLike]) -> int:
        """Convert every readable legacy ``dict_<key>.npz`` blob into a
        store entry; returns the number of entries migrated.

        Damaged or foreign blobs are skipped (``repro lint --models
        --cache-dir`` reports them), entries already present in the store
        are not rewritten, and the legacy directory is never modified.
        """
        directory = os.fspath(directory)
        try:
            names = os.listdir(directory)
        except OSError:
            return 0
        migrated = 0
        for name in sorted(names):
            if not (name.startswith("dict_") and name.endswith(".npz")):
                continue
            key = name[len("dict_"):-len(".npz")]
            if os.path.exists(self.manifest_path_for(key)):
                continue
            try:
                m_crt, signatures = _read_legacy_blob(
                    os.path.join(directory, name), key
                )
            except Exception:
                continue
            if self.store(key, m_crt, signatures):
                migrated += 1
        return migrated

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DictionaryStore({self.directory!r}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, rejected={self.stats.rejected})"
        )


def resolve_cache(
    cache: Optional[Union[DictionaryStore, str, os.PathLike]] = None,
) -> Optional[DictionaryStore]:
    """Normalize a caller-supplied cache argument.

    An explicit :class:`DictionaryStore` instance or directory wins;
    ``None`` consults ``REPRO_CACHE_DIR`` and stays disabled when it is
    unset or empty — so tests and library users never hit the filesystem
    unless they opted in.  ``REPRO_CACHE_MAX_ENTRIES`` applies the LRU
    size cap to any store this function constructs (explicit instances
    keep their own ``max_entries``).
    """
    if isinstance(cache, DictionaryStore):
        return cache
    limit = os.environ.get(ENV_CACHE_MAX_ENTRIES, "").strip()
    max_entries = int(limit) if limit else None
    if cache is None:
        cache = os.environ.get(ENV_CACHE_DIR, "").strip() or None
    if cache is None:
        return None
    return DictionaryStore(cache, max_entries=max_entries)


# ----------------------------------------------------------------------
# the retired blob format (read-only, for migration and audits)
# ----------------------------------------------------------------------
#: Format tag of a legacy ``dict_<key>.npz`` blob.
_LEGACY_BLOB_FORMAT = "repro-dictionary-cache-v1"


class _LegacyBlobMismatch(ValueError):
    """A readable legacy blob written for another format or key."""


def _payload_checksum(m_crt: np.ndarray, signatures: Sequence[np.ndarray]) -> str:
    hasher = hashlib.sha256()
    hasher.update(_array_bytes(m_crt))
    for signature in signatures:
        hasher.update(_array_bytes(signature))
    return hasher.hexdigest()


def _read_legacy_blob(
    path: str, key: str
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Read one legacy blob, verifying its format, key and checksum.

    A blob holds ``meta`` (a JSON string: format, key, ``n_suspects``,
    checksum), ``m_crt`` and one ``sig_<index:05d>`` array per suspect.
    Raises :class:`_LegacyBlobMismatch` for a blob of another format or
    key, ``ValueError`` on a checksum mismatch, and whatever ``np.load``
    raises on a damaged file.
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        fmt = meta.get("format")
        if fmt != _LEGACY_BLOB_FORMAT:
            raise _LegacyBlobMismatch(
                f"entry carries format {fmt!r}, expected "
                f"{_LEGACY_BLOB_FORMAT!r} (written by an incompatible revision)"
            )
        if meta.get("key") != key:
            raise _LegacyBlobMismatch(
                "entry key does not match its filename (orphaned by a "
                "key-schema change)"
            )
        m_crt = archive["m_crt"]
        signatures = [
            archive[f"sig_{index:05d}"]
            for index in range(int(meta["n_suspects"]))
        ]
    if _payload_checksum(m_crt, signatures) != meta["checksum"]:
        raise ValueError("payload checksum mismatch (bit rot or truncated write)")
    return m_crt, signatures
