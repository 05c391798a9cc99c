"""Core diagnosis library: the paper's primary contribution."""

from .suspects import trace_sensitized_edges, suspect_edges
from .parallel import (
    MIN_CHUNK_WORK,
    POOL_BREAK_EVEN_WORK,
    ParallelConfig,
    resolve_parallel,
    chunk_indices,
    map_chunked,
)
from .cache import (
    CacheStats,
    DictionaryStore,
    STORE_FORMAT,
    resolve_cache,
    validate_store_manifest,
    circuit_fingerprint,
    timing_fingerprint,
    patterns_fingerprint,
    dictionary_cache_key,
)
from .dictionary import (
    ProbabilisticFaultDictionary,
    build_dictionary,
    build_multi_clock_dictionary,
)
from ..sampling import SamplerConfig, SizeDistribution, resolve_sampler
from .error_functions import (
    ErrorFunction,
    match_probabilities,
    pattern_match_probability,
    METHOD_I,
    METHOD_II,
    METHOD_III,
    ALG_REV,
    LOG_LIKELIHOOD,
    EUCLIDEAN_SB,
    ALL_ERROR_FUNCTIONS,
    batched_scores,
    by_name,
)
from .diagnosis import (
    DiagnosisResult,
    diagnose,
    diagnose_all,
    diagnose_batch,
    run_diagnosis,
)
from .baselines import logic_signatures, diagnose_logic_only
from .evaluation import (
    EvaluationConfig,
    TrialRecord,
    EvaluationResult,
    evaluate_circuit,
)
from .kselect import k_by_score_gap, k_by_mass
from .multidefect import MultiDefectResult, diagnose_multi
from .clocksweep import sweep_clocks, multi_clock_behavior, build_sweep_dictionary
from .compaction import CompactDictionary, compact_dictionary, compaction_report
from .size_estimation import SizeEstimate, estimate_defect_size
from .adaptive import AdaptiveResult, make_instance_tester, refine_diagnosis
from .resolution import (
    signature_distance,
    diagnosability_classes,
    expected_resolution,
    resolution_curve,
    compare_with_logic_resolution,
)

__all__ = [
    "trace_sensitized_edges",
    "suspect_edges",
    "MIN_CHUNK_WORK",
    "POOL_BREAK_EVEN_WORK",
    "ParallelConfig",
    "resolve_parallel",
    "chunk_indices",
    "map_chunked",
    "CacheStats",
    "DictionaryStore",
    "STORE_FORMAT",
    "resolve_cache",
    "validate_store_manifest",
    "circuit_fingerprint",
    "timing_fingerprint",
    "patterns_fingerprint",
    "dictionary_cache_key",
    "ProbabilisticFaultDictionary",
    "build_dictionary",
    "build_multi_clock_dictionary",
    "SamplerConfig",
    "SizeDistribution",
    "resolve_sampler",
    "ErrorFunction",
    "match_probabilities",
    "pattern_match_probability",
    "METHOD_I",
    "METHOD_II",
    "METHOD_III",
    "ALG_REV",
    "LOG_LIKELIHOOD",
    "EUCLIDEAN_SB",
    "ALL_ERROR_FUNCTIONS",
    "batched_scores",
    "by_name",
    "DiagnosisResult",
    "diagnose",
    "diagnose_all",
    "diagnose_batch",
    "run_diagnosis",
    "logic_signatures",
    "diagnose_logic_only",
    "EvaluationConfig",
    "TrialRecord",
    "EvaluationResult",
    "evaluate_circuit",
    "k_by_score_gap",
    "k_by_mass",
    "MultiDefectResult",
    "diagnose_multi",
    "sweep_clocks",
    "multi_clock_behavior",
    "build_sweep_dictionary",
    "CompactDictionary",
    "compact_dictionary",
    "compaction_report",
    "SizeEstimate",
    "estimate_defect_size",
    "AdaptiveResult",
    "make_instance_tester",
    "refine_diagnosis",
    "signature_distance",
    "diagnosability_classes",
    "expected_resolution",
    "resolution_curve",
    "compare_with_logic_resolution",
]
