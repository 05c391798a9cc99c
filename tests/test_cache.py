"""The on-disk dictionary cache: hits, misses, invalidation, corruption.

A stale cache hit would silently corrupt every diagnosis downstream, so
the key must cover *everything* the dictionary content depends on —
circuit structure, the materialized delay matrix (which subsumes the RNG
seed and sample count), pattern set, clock, suspect list and defect-size
samples.  And because cache files live on disk across runs, load must
treat any damaged entry as a miss, never as data and never as a crash.
"""

import json
import os

import numpy as np
import pytest

from repro.atpg import random_pattern_pairs
from repro.circuits import GeneratorConfig, generate_circuit
from repro.core import (
    STORE_FORMAT,
    DictionaryStore,
    build_dictionary,
    circuit_fingerprint,
    dictionary_cache_key,
    patterns_fingerprint,
    resolve_cache,
    timing_fingerprint,
    validate_store_manifest,
)
from repro.defects import DefectSizeModel
from repro.timing import CircuitTiming, SampleSpace, diagnosis_clock, simulate_pattern_set


@pytest.fixture()
def case(small_timing):
    timing = small_timing
    patterns = random_pattern_pairs(timing.circuit, 4, seed=1)
    sims = simulate_pattern_set(timing, list(patterns))
    clk = diagnosis_clock(timing, list(patterns), 0.8, simulations=sims)
    suspects = timing.circuit.edges[::5]
    sizes = DefectSizeModel().size_variable(
        2.0, timing.space, rng=np.random.default_rng(4)
    ).samples
    return timing, patterns, clk, suspects, sizes, sims


@pytest.fixture()
def cache(tmp_path):
    return DictionaryStore(tmp_path / "dict-cache")


class TestCacheHit:
    def test_hit_returns_identical_arrays(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        built = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        loaded = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert np.array_equal(built.m_crt, loaded.m_crt)
        assert built.suspects == loaded.suspects
        for edge in suspects:
            assert np.array_equal(built.signatures[edge], loaded.signatures[edge])

    def test_hit_skips_base_simulations_entirely(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        # A hit must not even need the base simulations: this is what lets
        # repeated diagnoses skip the defect-free re-simulation too.
        loaded = build_dictionary(
            timing, patterns, clk, suspects, sizes, cache=cache
        )
        assert cache.stats.hits == 1
        for edge in suspects:
            assert edge in loaded.signatures


class TestCacheInvalidation:
    def test_any_input_change_misses(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        pattern_list = list(patterns)
        base_key = dictionary_cache_key(timing, pattern_list, [clk], suspects, sizes)

        # clock
        assert dictionary_cache_key(
            timing, pattern_list, [clk * 1.01], suspects, sizes
        ) != base_key
        # pattern set (flip one bit of one vector)
        mutated = [(v1.copy(), v2.copy()) for v1, v2 in pattern_list]
        mutated[0][0][0] ^= 1
        assert dictionary_cache_key(
            timing, mutated, [clk], suspects, sizes
        ) != base_key
        # suspect list
        assert dictionary_cache_key(
            timing, pattern_list, [clk], suspects[:-1], sizes
        ) != base_key
        # defect-size population
        assert dictionary_cache_key(
            timing, pattern_list, [clk], suspects, sizes + 1e-9
        ) != base_key

    def test_seed_and_sample_count_change_key(self, case):
        timing, patterns, clk, suspects, sizes, _sims = case
        circuit = timing.circuit
        for space in (
            SampleSpace(n_samples=timing.space.n_samples, seed=timing.space.seed + 1),
            SampleSpace(n_samples=timing.space.n_samples + 10, seed=timing.space.seed),
        ):
            other = CircuitTiming(circuit, space)
            other_sizes = DefectSizeModel().size_variable(
                2.0, space, rng=np.random.default_rng(4)
            ).samples
            assert dictionary_cache_key(
                other, list(patterns), [clk], suspects, other_sizes
            ) != dictionary_cache_key(timing, list(patterns), [clk], suspects, sizes)

    def test_circuit_change_changes_fingerprint(self):
        a = generate_circuit(GeneratorConfig(n_inputs=4, n_outputs=2, n_gates=12, seed=0))
        b = generate_circuit(GeneratorConfig(n_inputs=4, n_outputs=2, n_gates=12, seed=1))
        assert circuit_fingerprint(a) != circuit_fingerprint(b)
        assert circuit_fingerprint(a) == circuit_fingerprint(a)

    def test_key_matches_the_pinned_digest(self, case):
        """Keys are on-disk addresses: a key-schema change silently
        orphans every existing store entry.  This digest was recorded
        before the optional hierarchical-build key token was removed;
        flat keys never hashed it, so they must not move."""
        timing, patterns, clk, suspects, sizes, _sims = case
        assert dictionary_cache_key(
            timing, list(patterns), [clk], suspects, sizes
        ) == "d115a8b2659f618805438b2d20fa53464cad35fbe871b3532e453324bdedc076"

    def test_fingerprints_deterministic(self, case):
        timing, patterns, _clk, _suspects, _sizes, _sims = case
        assert timing_fingerprint(timing) == timing_fingerprint(timing)
        assert patterns_fingerprint(list(patterns)) == patterns_fingerprint(
            list(patterns)
        )

    def test_changed_clock_rebuilds_not_reuses(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        first = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        second = build_dictionary(
            timing, patterns, clk * 0.9, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        reference = build_dictionary(
            timing, patterns, clk * 0.9, suspects, sizes, base_simulations=sims
        )
        for edge in suspects:
            assert np.array_equal(second.signatures[edge], reference.signatures[edge])
        # a tighter clock must change the healthy error matrix — proving the
        # second build really was a rebuild, not a stale reuse
        assert not np.array_equal(first.m_crt, second.m_crt)


class TestCorruption:
    def _store_one(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        key = dictionary_cache_key(timing, list(patterns), [clk], suspects, sizes)
        manifest_path = cache.manifest_path_for(key)
        with open(manifest_path) as handle:
            payload = json.load(handle)["payload"]
        return key, manifest_path, os.path.join(cache.directory, payload)

    def test_truncated_file_detected_and_rebuilt(self, case, cache):
        key, path, payload_path = self._store_one(case, cache)
        with open(payload_path, "rb") as handle:
            blob = handle.read()
        with open(payload_path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert cache.load(key) is None
        assert cache.stats.rejected == 1
        assert not os.path.exists(path), "corrupt entry must be evicted"
        assert not os.path.exists(payload_path)
        # rebuild goes through cleanly and re-stores
        timing, patterns, clk, suspects, sizes, sims = case
        rebuilt = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        assert os.path.exists(path)
        assert len(rebuilt) == len(suspects)

    def test_garbage_file_is_a_miss_not_a_crash(self, case, cache):
        key, _path, payload_path = self._store_one(case, cache)
        with open(payload_path, "wb") as handle:
            handle.write(b"this is not an npy array")
        assert cache.load(key) is None

    def test_payload_tamper_detected_by_checksum(self, case, cache):
        key, _path, payload_path = self._store_one(case, cache)
        stack = np.load(payload_path)
        stack[0] = stack[0] + 1e-6  # silent bit-rot stand-in
        np.save(payload_path, stack)  # same shape and dtype: only the sum moves
        assert cache.load(key) is None
        assert cache.stats.rejected == 1

    def test_clear_removes_entries(self, case, cache):
        _key, path, payload_path = self._store_one(case, cache)
        assert os.path.exists(path)
        assert cache.clear() == 1
        assert not os.path.exists(path)
        assert not os.path.exists(payload_path)


class TestCacheStats:
    def test_stats_object_tracks_every_outcome(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "rejected": 0, "stores": 0,
            "store_failures": 0, "evictions": 0,
        }
        build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.rejected == 0

    def test_rejection_counts_as_miss(self, case, cache):
        timing, patterns, clk, suspects, sizes, sims = case
        build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=cache,
        )
        key = dictionary_cache_key(timing, list(patterns), [clk], suspects, sizes)
        with open(cache.manifest_path_for(key), "wb") as handle:
            handle.write(b"garbage")
        assert cache.load(key) is None
        assert cache.stats.rejected == 1
        assert cache.stats.misses == 2  # a rejected entry is also a miss
        assert cache.stats.hit_rate == 0.0

    def test_hit_rate_on_empty_cache_is_zero(self, cache):
        assert cache.stats.lookups == 0
        assert cache.stats.hit_rate == 0.0

    def test_lookups_feed_obs_counters(self, case, cache):
        from repro import obs

        timing, patterns, clk, suspects, sizes, sims = case
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            for _ in range(2):
                build_dictionary(
                    timing, patterns, clk, suspects, sizes,
                    base_simulations=sims, cache=cache,
                )
        assert recorder.counter_value("cache.miss") == 1
        assert recorder.counter_value("cache.hit") == 1
        assert recorder.counter_value("cache.store") == 1


class TestResolution:
    def test_default_off(self):
        assert os.environ.get("REPRO_CACHE_DIR") is None
        assert resolve_cache(None) is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        store = resolve_cache(None)
        assert store is not None
        assert store.directory == str(tmp_path / "env-cache")

    def test_env_var_reaches_build_dictionary(self, monkeypatch, tmp_path, case):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        timing, patterns, clk, suspects, sizes, sims = case
        build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        entries = [
            name for name in os.listdir(cache_dir) if name.endswith(".json")
        ]
        assert len(entries) == 1

    def test_explicit_path_and_instance(self, tmp_path, cache):
        by_path = resolve_cache(tmp_path / "elsewhere")
        assert by_path is not None
        assert resolve_cache(cache) is cache

    def test_no_files_written_when_disabled(self, case, tmp_path):
        timing, patterns, clk, suspects, sizes, sims = case
        build_dictionary(
            timing, patterns, clk, suspects, sizes, base_simulations=sims
        )
        assert list(tmp_path.iterdir()) == []

    def test_env_max_entries_applies_to_resolved_caches(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        assert resolve_cache(tmp_path / "capped").max_entries == 3
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert resolve_cache(None).max_entries == 3
        # an explicit instance keeps whatever cap it was built with
        explicit = DictionaryStore(tmp_path / "own", max_entries=7)
        assert resolve_cache(explicit).max_entries == 7


def _entry(seed: int):
    """A small, deterministic cache payload distinct per seed."""
    return np.full((2, 3), float(seed)), [np.full((2, 3), float(seed))]


class TestLRUEviction:
    def _age(self, cache, key, seconds_ago):
        """Pin an entry's recency without sleeping (mtime-based LRU)."""
        stamp = os.path.getmtime(cache.manifest_path_for(key)) - seconds_ago
        os.utime(cache.manifest_path_for(key), (stamp, stamp))

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DictionaryStore(tmp_path, max_entries=0)

    def test_oldest_entry_is_evicted_first(self, tmp_path):
        cache = DictionaryStore(tmp_path, max_entries=2)
        for index, key in enumerate(("aaa", "bbb")):
            cache.store(key, *_entry(index))
            self._age(cache, key, seconds_ago=100 - index)
        cache.store("ccc", *_entry(2))
        assert cache.stats.evictions == 1
        assert not os.path.exists(cache.manifest_path_for("aaa"))
        assert cache.load("bbb") is not None
        assert cache.load("ccc") is not None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = DictionaryStore(tmp_path, max_entries=2)
        for index, key in enumerate(("aaa", "bbb")):
            cache.store(key, *_entry(index))
            self._age(cache, key, seconds_ago=100 - index)
        assert cache.load("aaa") is not None  # refreshes aaa's mtime
        cache.store("ccc", *_entry(2))
        assert os.path.exists(cache.manifest_path_for("aaa")), "hit entry survives"
        assert not os.path.exists(cache.manifest_path_for("bbb"))

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        cache = DictionaryStore(tmp_path, max_entries=1)
        cache.store("aaa", *_entry(0))
        cache.store("bbb", *_entry(1))
        assert not os.path.exists(cache.manifest_path_for("aaa"))
        assert cache.load("bbb") is not None
        assert cache.stats.evictions == 1

    def test_evictions_feed_stats_and_obs_counters(self, tmp_path):
        from repro import obs

        cache = DictionaryStore(tmp_path, max_entries=1)
        recorder = obs.Recorder()
        with obs.use_recorder(recorder):
            for index, key in enumerate(("aaa", "bbb", "ccc")):
                cache.store(key, *_entry(index))
        assert cache.stats.evictions == 2
        assert recorder.counter_value("cache.evicted") == 2

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = DictionaryStore(tmp_path)
        for index in range(5):
            cache.store(f"key{index}", *_entry(index))
        assert cache.stats.evictions == 0
        assert len(cache.keys()) == 5


def _hammer_store(directory, key, n_rounds):
    """Concurrent-writer body: repeatedly store the same content under
    the same key, racing the other writers' atomic renames."""
    cache = DictionaryStore(directory)
    for _ in range(n_rounds):
        cache.store(key, *_entry(7))


class TestConcurrentWriters:
    def test_racing_writers_never_produce_a_torn_entry(self, tmp_path):
        """N processes atomically rewrite one key while we keep reading.

        The atomic-rename protocol (mkstemp in the target directory +
        ``os.replace``, payload before manifest) means a reader observes
        either the previous complete entry or the new complete entry —
        never a torn file.
        """
        import multiprocessing

        key = "contended"
        writers = [
            multiprocessing.Process(
                target=_hammer_store, args=(str(tmp_path), key, 20)
            )
            for _ in range(4)
        ]
        for process in writers:
            process.start()
        try:
            reader = DictionaryStore(tmp_path)
            expected_m, expected_sigs = _entry(7)
            observed = 0
            while any(process.is_alive() for process in writers):
                loaded = reader.load(key)
                if loaded is None:
                    continue  # only legal before the very first rename
                observed += 1
                np.testing.assert_array_equal(loaded["m_crt"], expected_m)
                np.testing.assert_array_equal(
                    loaded["signatures"][0], expected_sigs[0]
                )
        finally:
            for process in writers:
                process.join()
        assert reader.stats.rejected == 0, "a torn or partial entry was read"
        for process in writers:
            assert process.exitcode == 0
        # exactly one final entry (manifest + payload) and no temp debris
        # survive the stampede
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2 and names[1] == f"dict_{key}.json"
        assert names[0].startswith(f"dict_{key}.") and names[0].endswith(".npy")
        final = reader.load(key)
        assert final is not None
        np.testing.assert_array_equal(final["m_crt"], expected_m)


# ---------------------------------------------------------------------------
# The zero-copy mmap store (DictionaryStore)
# ---------------------------------------------------------------------------


def _store_entry(seed: int):
    """A deterministic (m_crt, signatures) payload distinct per seed."""
    rng = np.random.default_rng(seed)
    m_crt = rng.standard_normal((3, 5))
    signatures = [rng.standard_normal((3, 5)) for _ in range(4)]
    return m_crt, signatures


class TestDictionaryStore:
    def test_load_is_a_read_only_mmap_view(self, tmp_path):
        store = DictionaryStore(tmp_path)
        m_crt, signatures = _store_entry(3)
        store.store("kk", m_crt, signatures)
        loaded = store.load("kk")
        assert isinstance(loaded["stack"], np.memmap)
        assert not loaded["stack"].flags.writeable
        assert loaded["stack"].shape == (1 + len(signatures),) + m_crt.shape
        # signatures are zero-copy row views of the mapped stack
        assert loaded["signatures"][0].base is not None
        np.testing.assert_array_equal(loaded["stack"][0], m_crt)

    def test_verify_checks_the_full_checksum(self, tmp_path):
        """Every load verifies the payload checksum: a flipped bit that
        keeps the shape and dtype intact is still rejected."""
        store = DictionaryStore(tmp_path)
        store.store("kk", *_store_entry(5))
        assert store.load("kk") is not None
        assert store.stats.rejected == 0
        manifest = json.load(open(store.manifest_path_for("kk")))
        payload_path = os.path.join(str(tmp_path), manifest["payload"])
        with open(payload_path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 1]))
        assert store.load("kk") is None
        assert store.stats.rejected == 1

    def test_missing_payload_is_a_benign_miss_not_corruption(self, tmp_path):
        """A manifest whose payload vanished (concurrent rewrite retired
        it) is a plain miss: no rejection, and the manifest survives —
        the next publisher will repair the entry."""
        store = DictionaryStore(tmp_path)
        store.store("kk", *_store_entry(5))
        manifest = json.load(open(store.manifest_path_for("kk")))
        os.remove(os.path.join(str(tmp_path), manifest["payload"]))
        assert store.load("kk") is None
        assert store.stats.rejected == 0
        assert store.stats.misses == 1
        assert os.path.exists(store.manifest_path_for("kk"))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param("truncate_payload", id="truncated-payload"),
            pytest.param("garbage_manifest", id="garbage-manifest"),
            pytest.param("schema_violation", id="schema-violation"),
            pytest.param("wrong_key", id="key-mismatch"),
        ],
    )
    def test_corruption_is_rejected_and_evicted(self, tmp_path, corrupt):
        store = DictionaryStore(tmp_path)
        store.store("kk", *_store_entry(5))
        manifest_path = store.manifest_path_for("kk")
        manifest = json.load(open(manifest_path))
        payload_path = os.path.join(str(tmp_path), manifest["payload"])
        if corrupt == "truncate_payload":
            with open(payload_path, "r+b") as handle:
                handle.truncate(40)
        elif corrupt == "garbage_manifest":
            with open(manifest_path, "w") as handle:
                handle.write("{not json")
        elif corrupt == "schema_violation":
            del manifest["checksum"]
            json.dump(manifest, open(manifest_path, "w"))
        elif corrupt == "wrong_key":
            manifest["key"] = "other"
            json.dump(manifest, open(manifest_path, "w"))
        assert store.load("kk") is None
        assert store.stats.rejected == 1
        assert store.stats.misses == 1
        # eviction removed the damaged entry wholesale: manifest AND
        # every payload generation, so the next store starts clean
        assert not os.path.exists(manifest_path)
        assert not os.path.exists(payload_path)
        assert store.store("kk", *_store_entry(5)) is not None
        assert store.load("kk") is not None

    def test_rewrite_is_atomic_for_an_already_mapped_reader(self, tmp_path):
        """POSIX keeps the retired payload's pages alive for a reader
        that mapped it before the rewrite — its view never changes."""
        store = DictionaryStore(tmp_path)
        old_m, old_sigs = _store_entry(1)
        store.store("kk", old_m, old_sigs)
        held = store.load("kk")
        new_m, new_sigs = _store_entry(2)
        store.store("kk", new_m, new_sigs)
        np.testing.assert_array_equal(held["m_crt"], old_m)
        fresh = store.load("kk")
        np.testing.assert_array_equal(fresh["m_crt"], new_m)
        # the stale payload generation was garbage-collected
        payloads = [n for n in os.listdir(tmp_path) if n.endswith(".npy")]
        assert len(payloads) == 1

    def test_lru_eviction_and_clear(self, tmp_path):
        store = DictionaryStore(tmp_path, max_entries=2)
        for index, key in enumerate(("aaa", "bbb", "ccc")):
            store.store(key, *_store_entry(index))
            stamp = os.path.getmtime(store.manifest_path_for(key)) - (100 - index)
            os.utime(store.manifest_path_for(key), (stamp, stamp))
        assert store.stats.evictions == 1
        assert store.keys() == ["bbb", "ccc"]
        assert store.clear() == 2
        assert os.listdir(tmp_path) == []

    def test_migrate_legacy_blobs(self, tmp_path, write_legacy_blob):
        """Blob → store migration carries every readable entry over
        bit-exactly, skips corrupt blobs, and never rewrites an entry
        the store already has."""
        legacy = tmp_path / "blob"
        for index, key in enumerate(("aaa", "bbb", "ccc")):
            write_legacy_blob(legacy, key, *_store_entry(index))
        # corrupt one blob; it must be skipped, not crash the migration
        with open(legacy / "dict_ccc.npz", "wb") as handle:
            handle.write(b"not a zip")
        store = DictionaryStore(tmp_path / "store")
        pre_m, pre_sigs = _store_entry(99)
        store.store("aaa", pre_m, pre_sigs)  # already present: untouched
        assert store.migrate_legacy(legacy) == 1  # only "bbb"
        np.testing.assert_array_equal(store.load("aaa")["m_crt"], pre_m)
        migrated = store.load("bbb")
        reference_m, reference_sigs = _store_entry(1)
        np.testing.assert_array_equal(migrated["m_crt"], reference_m)
        assert len(migrated["signatures"]) == len(reference_sigs)
        for a, b in zip(migrated["signatures"], reference_sigs):
            np.testing.assert_array_equal(a, b)
        assert store.load("ccc") is None  # corrupt blob was skipped
        # the legacy directory is read, never modified
        assert sorted(os.listdir(legacy)) == [
            "dict_aaa.npz", "dict_bbb.npz", "dict_ccc.npz",
        ]

    def test_build_dictionary_accepts_a_store(self, case, tmp_path):
        """The builder treats the store as a drop-in cache backend, and a
        store-served dictionary scores exactly like a freshly built one."""
        timing, patterns, clk, suspects, sizes, sims = case
        store = DictionaryStore(tmp_path / "store")
        built = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=store,
        )
        assert store.stats.stores == 1
        served = build_dictionary(
            timing, patterns, clk, suspects, sizes,
            base_simulations=sims, cache=store,
        )
        assert store.stats.hits == 1
        np.testing.assert_array_equal(built.m_crt, served.m_crt)
        for edge in built.suspects:
            np.testing.assert_array_equal(
                built.signatures[edge], served.signatures[edge]
            )


class TestStoreManifestValidation:
    def _valid(self):
        return {
            "format": STORE_FORMAT,
            "key": "abc",
            "payload": "dict_abc.0123456789ab.npy",
            "n_suspects": 4,
            "shape": [5, 3, 5],
            "dtype": "float64",
            "checksum": "ff" * 32,
        }

    def test_valid_manifest_passes(self):
        assert validate_store_manifest(self._valid()) == []

    def test_missing_key_is_reported(self):
        manifest = self._valid()
        del manifest["payload"]
        errors = validate_store_manifest(manifest)
        assert any("payload" in error for error in errors)

    def test_wrong_format_tag_is_reported(self):
        manifest = self._valid()
        manifest["format"] = "repro-dictionary-store-v0"
        errors = validate_store_manifest(manifest)
        assert any(STORE_FORMAT in error for error in errors)

    def test_wrong_type_is_reported(self):
        manifest = self._valid()
        manifest["n_suspects"] = "four"
        assert validate_store_manifest(manifest)


class TestStoreResolution:
    def test_paths_resolve_to_a_store(self, monkeypatch, tmp_path):
        assert isinstance(resolve_cache(tmp_path / "explicit"), DictionaryStore)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert isinstance(resolve_cache(None), DictionaryStore)

    def test_explicit_store_instance_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        store = DictionaryStore(tmp_path)
        assert resolve_cache(store) is store

    def test_max_entries_env_applies_to_stores(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "5")
        assert resolve_cache(tmp_path / "capped").max_entries == 5


def _hammer_dictionary_store(directory, key, n_rounds):
    """Concurrent-writer body: repeatedly republish the same content
    under the same key, racing the other writers' two-file protocol."""
    store = DictionaryStore(directory)
    for _ in range(n_rounds):
        store.store(key, *_store_entry(7))


class TestStoreConcurrentReaders:
    def test_readers_survive_a_rewrite_stampede(self, tmp_path):
        """N processes republish one key while we keep mapping it.

        The two-file protocol (content-named payload written first,
        manifest pointer ``os.replace``d second) means every successful
        map is a complete, consistent entry; a reader that loses the
        race to a retired payload sees a benign miss — never torn data
        and never a rejection.
        """
        import multiprocessing

        key = "contended"
        writers = [
            multiprocessing.Process(
                target=_hammer_dictionary_store, args=(str(tmp_path), key, 20)
            )
            for _ in range(4)
        ]
        for process in writers:
            process.start()
        try:
            reader = DictionaryStore(tmp_path)
            expected_m, expected_sigs = _store_entry(7)
            while any(process.is_alive() for process in writers):
                loaded = reader.load(key)
                if loaded is None:
                    continue  # pre-first-publish, or a retired payload
                np.testing.assert_array_equal(loaded["m_crt"], expected_m)
                np.testing.assert_array_equal(
                    loaded["signatures"][0], expected_sigs[0]
                )
        finally:
            for process in writers:
                process.join()
        assert reader.stats.rejected == 0, "a torn store entry was mapped"
        for process in writers:
            assert process.exitcode == 0
        # one manifest + one payload generation, no temp debris
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        assert f"dict_{key}.json" in names
        assert not any(n.startswith(".tmp_store_") for n in names)
        final = reader.load(key)
        assert final is not None
        np.testing.assert_array_equal(final["m_crt"], expected_m)
