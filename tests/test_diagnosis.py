"""Unit tests for the diagnosis drivers (Alg_sim / Alg_rev)."""

import numpy as np
import pytest

from repro.core import (
    ALG_REV,
    METHOD_I,
    METHOD_II,
    DiagnosisResult,
    ProbabilisticFaultDictionary,
    diagnose,
    diagnose_all,
)
from repro.circuits import Edge


def synthetic_dictionary(bench_timing, signatures, clk=1.0):
    """Hand-built dictionary with given {edge: signature} matrices."""
    suspects = list(signatures)
    some = next(iter(signatures.values()))
    return ProbabilisticFaultDictionary(
        timing=bench_timing,
        clk=clk,
        m_crt=np.zeros_like(some, dtype=float),
        suspects=suspects,
        signatures={k: np.asarray(v, float) for k, v in signatures.items()},
        size_samples=np.ones(bench_timing.space.n_samples),
    )


@pytest.fixture()
def edges(bench_timing):
    return bench_timing.circuit.edges[:3]


class TestDiagnose:
    def test_exact_signature_wins(self, bench_timing, edges):
        behavior = np.array([[1, 0], [0, 1]])
        signatures = {
            edges[0]: np.array([[0.9, 0.05], [0.05, 0.9]]),  # matches B
            edges[1]: np.array([[0.05, 0.9], [0.9, 0.05]]),  # anti-matches
            edges[2]: np.zeros((2, 2)),
        }
        dictionary = synthetic_dictionary(bench_timing, signatures)
        for function in (METHOD_I, METHOD_II, ALG_REV):
            result = diagnose(dictionary, behavior, function)
            assert result.ranking[0][0] == edges[0], function.name

    def test_alg_rev_sorted_ascending(self, bench_timing, edges):
        behavior = np.array([[1, 0], [0, 1]])
        signatures = {
            edges[0]: np.array([[0.9, 0.0], [0.0, 0.9]]),
            edges[1]: np.array([[0.4, 0.0], [0.0, 0.4]]),
        }
        result = diagnose(
            synthetic_dictionary(bench_timing, signatures), behavior, ALG_REV
        )
        scores = [score for _e, score in result.ranking]
        assert scores == sorted(scores)

    def test_method_scores_descending(self, bench_timing, edges):
        behavior = np.array([[1, 0], [0, 1]])
        signatures = {
            edges[0]: np.array([[0.9, 0.0], [0.0, 0.9]]),
            edges[1]: np.array([[0.4, 0.0], [0.0, 0.4]]),
            edges[2]: np.zeros((2, 2)),
        }
        result = diagnose(
            synthetic_dictionary(bench_timing, signatures), behavior, METHOD_II
        )
        scores = [score for _e, score in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_ties_keep_suspect_order(self, bench_timing, edges):
        behavior = np.zeros((2, 2), dtype=int)
        signatures = {e: np.zeros((2, 2)) for e in edges}
        result = diagnose(
            synthetic_dictionary(bench_timing, signatures), behavior, METHOD_II
        )
        assert [e for e, _s in result.ranking] == edges

    def test_shape_mismatch_rejected(self, bench_timing, edges):
        signatures = {edges[0]: np.zeros((2, 2))}
        dictionary = synthetic_dictionary(bench_timing, signatures)
        with pytest.raises(ValueError):
            diagnose(dictionary, np.zeros((3, 2)))

    def test_diagnose_all(self, bench_timing, edges):
        behavior = np.array([[1, 0], [0, 1]])
        signatures = {edges[0]: np.array([[0.9, 0.0], [0.0, 0.9]])}
        results = diagnose_all(
            synthetic_dictionary(bench_timing, signatures), behavior
        )
        assert set(results) == {"method_I", "method_II", "alg_rev"}


class TestErrorStack:
    def test_rows_equal_e_crt_and_memoized(self, bench_timing, edges):
        signatures = {
            edges[0]: np.array([[0.9, 0.0], [0.0, 0.0]]),
            edges[1]: np.array([[0.0, 0.3], [0.0, -0.0]]),
        }
        dictionary = synthetic_dictionary(bench_timing, signatures)
        dictionary.m_crt[0, 1] = 0.25
        stack = dictionary.error_stack()
        for row, edge in zip(stack, dictionary.suspects):
            assert row.tobytes() == dictionary.e_crt(edge).tobytes()
        assert dictionary.error_stack() is stack
        assert not stack.flags.writeable

    def test_live_rows_mark_rows_any_suspect_can_fail(
        self, bench_timing, edges
    ):
        signatures = {
            edges[0]: np.array([[0.0, 0.0], [0.0, 0.4], [-0.0, 0.0]]),
            edges[1]: np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -0.0]]),
        }
        dictionary = synthetic_dictionary(bench_timing, signatures)
        dictionary.m_crt[0, 0] = 1.0
        live = dictionary.live_rows()
        assert live.tolist() == [True, True, False]
        assert dictionary.live_rows() is live

    def test_dead_row_failures_still_scored(self, bench_timing, edges):
        """A query failing an output no suspect reaches is scored on that
        row too, like the scalar error function."""
        signatures = {
            edges[0]: np.array([[0.9, 0.0], [0.0, 0.0]]),
            edges[1]: np.array([[0.2, 0.0], [0.0, 0.0]]),
        }
        dictionary = synthetic_dictionary(bench_timing, signatures)
        behavior = np.array([[1, 0], [0, 1]])
        for function in (METHOD_I, METHOD_II, ALG_REV):
            result = diagnose(dictionary, behavior, function)
            for edge, score in result.ranking:
                assert score == function(dictionary.e_crt(edge), behavior)


class TestDiagnosisResult:
    def make(self, edges):
        return DiagnosisResult(
            "alg_rev", [(edges[0], 0.1), (edges[1], 0.5), (edges[2], 0.9)]
        )

    def test_top(self, edges):
        result = self.make(edges)
        assert result.top(1) == [edges[0]]
        assert result.top(2) == [edges[0], edges[1]]
        assert result.top(99) == edges  # clipped to length

    def test_top_validates(self, edges):
        with pytest.raises(ValueError):
            self.make(edges).top(0)

    def test_rank_of(self, edges):
        result = self.make(edges)
        assert result.rank_of(edges[0]) == 1
        assert result.rank_of(edges[2]) == 3
        assert result.rank_of(Edge("x", "y", 0)) is None

    def test_hit(self, edges):
        result = self.make(edges)
        assert result.hit(edges[1], 2)
        assert not result.hit(edges[2], 2)
        assert not result.hit(Edge("x", "y", 0), 10)

    def test_score_of(self, edges):
        result = self.make(edges)
        assert result.score_of(edges[1]) == 0.5
        assert result.score_of(Edge("x", "y", 0)) is None

    def test_len(self, edges):
        assert len(self.make(edges)) == 3
