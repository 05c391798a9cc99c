"""Diagnosis error functions (paper Sections C-1, E step 7, F).

Every function answers the same question — *how well does a suspect's
signature probability matrix explain the observed 0-1 behavior matrix?* —
and, as the paper stresses, different answers lead to different diagnoses
(the Figure 2 ambiguity).  Implemented:

* the per-pattern match probability machinery shared by all methods
  (steps 5-6 of Algorithm E.1): ``p_kj = b_kj s_kj + (1-b_kj)(1-s_kj)``
  and ``phi_j = prod_k p_kj``,
* **Method I**   — noisy-OR over patterns: ``1 - prod_j (1 - phi_j)``,
* **Method II**  — average: ``mean_j phi_j``,
* **Method III** — conjunction: ``prod_j phi_j`` (shown by the paper to be
  too restrictive: a single zero-probability pattern annihilates the
  suspect),
* **Alg_rev**    — the explicit Euclidean error of Section F:
  ``sum_j (1 - phi_j)^2`` against the ideal all-match outcome, *minimized*,
* extensions (paper future work 5): a log-likelihood score (the
  numerically robust form of Method III) and a direct per-entry Euclidean
  distance ``||S - B||^2`` in the spirit of Equation (4).

All functions expose the same interface: ``score(signature, behavior)``
returning a float, with :attr:`ErrorFunction.higher_is_better` fixing the
ranking direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "ErrorFunction",
    "match_probabilities",
    "pattern_match_probability",
    "batched_scores",
    "live_rows",
    "METHOD_I",
    "METHOD_II",
    "METHOD_III",
    "ALG_REV",
    "LOG_LIKELIHOOD",
    "EUCLIDEAN_SB",
    "ALL_ERROR_FUNCTIONS",
    "by_name",
]


def match_probabilities(signature: np.ndarray, behavior: np.ndarray) -> np.ndarray:
    """Step 5 of Algorithm E.1: per-entry consistency probabilities.

    ``p_kj = b_kj * s_kj + (1 - b_kj) * (1 - s_kj)`` — keep the signature
    probability where an error was observed, flip it where none was.
    """
    signature = np.asarray(signature, dtype=float)
    behavior = np.asarray(behavior, dtype=float)
    if signature.shape != behavior.shape:
        raise ValueError(
            f"signature {signature.shape} vs behavior {behavior.shape}"
        )
    return behavior * signature + (1.0 - behavior) * (1.0 - signature)


def pattern_match_probability(
    signature: np.ndarray, behavior: np.ndarray
) -> np.ndarray:
    """Step 6: ``phi_j = prod_k p_kj`` — all outputs of pattern j match."""
    return match_probabilities(signature, behavior).prod(axis=0)


@dataclass(frozen=True)
class ErrorFunction:
    """A named diagnosis error function.

    ``score`` maps (signature matrix, behavior matrix) to a scalar;
    suspects are ranked by descending score when ``higher_is_better`` and
    ascending otherwise.
    """

    name: str
    score: Callable[[np.ndarray, np.ndarray], float]
    higher_is_better: bool
    description: str = ""

    def __call__(self, signature: np.ndarray, behavior: np.ndarray) -> float:
        return float(self.score(signature, behavior))


def _method_i(signature: np.ndarray, behavior: np.ndarray) -> float:
    phi = pattern_match_probability(signature, behavior)
    return float(1.0 - np.prod(1.0 - phi))


def _method_ii(signature: np.ndarray, behavior: np.ndarray) -> float:
    phi = pattern_match_probability(signature, behavior)
    return float(phi.mean()) if phi.size else 0.0


def _method_iii(signature: np.ndarray, behavior: np.ndarray) -> float:
    phi = pattern_match_probability(signature, behavior)
    return float(np.prod(phi)) if phi.size else 0.0


def _alg_rev(signature: np.ndarray, behavior: np.ndarray) -> float:
    phi = pattern_match_probability(signature, behavior)
    return float(np.sum((1.0 - phi) ** 2))


_EPS = 1e-12


def _log_likelihood(signature: np.ndarray, behavior: np.ndarray) -> float:
    p = match_probabilities(signature, behavior)
    return float(np.log(np.clip(p, _EPS, None)).sum())


def _euclidean_sb(signature: np.ndarray, behavior: np.ndarray) -> float:
    signature = np.asarray(signature, dtype=float)
    behavior = np.asarray(behavior, dtype=float)
    return float(((signature - behavior) ** 2).sum())


METHOD_I = ErrorFunction(
    "method_I",
    _method_i,
    higher_is_better=True,
    description="P(suspect consistent with at least one pattern) — noisy-OR",
)
METHOD_II = ErrorFunction(
    "method_II",
    _method_ii,
    higher_is_better=True,
    description="average per-pattern consistency probability",
)
METHOD_III = ErrorFunction(
    "method_III",
    _method_iii,
    higher_is_better=True,
    description="P(suspect consistent with every pattern) — too restrictive",
)
ALG_REV = ErrorFunction(
    "alg_rev",
    _alg_rev,
    higher_is_better=False,
    description="Euclidean distance to the zero-mismatch ideal (Section F)",
)
LOG_LIKELIHOOD = ErrorFunction(
    "log_likelihood",
    _log_likelihood,
    higher_is_better=True,
    description="sum of per-entry log consistency (robust Method III)",
)
EUCLIDEAN_SB = ErrorFunction(
    "euclidean_sb",
    _euclidean_sb,
    higher_is_better=False,
    description="per-entry ||S - B||^2 in the spirit of Equation (4)",
)

ALL_ERROR_FUNCTIONS: List[ErrorFunction] = [
    METHOD_I,
    METHOD_II,
    METHOD_III,
    ALG_REV,
    LOG_LIKELIHOOD,
    EUCLIDEAN_SB,
]

_BY_NAME: Dict[str, ErrorFunction] = {f.name: f for f in ALL_ERROR_FUNCTIONS}


def by_name(name: str) -> ErrorFunction:
    """Look up an error function by its registered name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown error function {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


# ----------------------------------------------------------------------
# batched scoring kernels
#
# One kernel call scores Q behavior matrices against S suspect matrices
# at once, returning a ``(Q, S)`` score grid.  Bit-identity with the
# scalar ``score(signature, behavior)`` path is a hard requirement (the
# service promises warm batch answers equal to one-shot diagnosis), so
# every reduction below is arranged to replay the scalar floating-point
# operation order exactly:
#
# * elementwise ops broadcast to ``(Q, S, n_out, n_cols)`` — per-element
#   arithmetic is order-free, so these match trivially;
# * products use ``multiply.reduce``, which is sequential along the
#   reduced axis in both the 1-D scalar case and the batched case;
# * sums/means reduce along the *last* axis of a C-contiguous array,
#   which NumPy pairwise-sums with the same blocking as the scalar 1-D
#   (or flattened) reduction of the same length — multi-axis sums are
#   therefore rewritten as a reshape to ``(Q, S, -1)`` first.
#
# The row-product kernels (Methods I-III, Alg_rev) also skip output rows
# that are zero in every suspect's ``E`` and in every query of the batch.
# Such a row has ``p = 0*0 + 1*1 = 1.0`` exactly in every column, and
# ``multiply.reduce`` over rows is sequential, so dropping its factor of
# 1.0 leaves ``phi`` bit-for-bit unchanged.  A suspect can only fail the
# outputs its fanout cone reaches, so most rows are dead (12 of s15850's
# 684).  ``log_likelihood`` and ``euclidean_sb`` keep the full grid:
# they *sum* over rows, and dropping terms would regroup the pairwise sum.


def _batched_match_probabilities(
    e_stack: np.ndarray, behaviors: np.ndarray
) -> np.ndarray:
    """Step-5 probabilities for every (behavior, suspect) pair at once."""
    b = behaviors[:, None, :, :]
    s = e_stack[None, :, :, :]
    return b * s + (1.0 - b) * (1.0 - s)


def _batched_phi(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    p = _batched_match_probabilities(e_stack, behaviors)
    return np.multiply.reduce(p, axis=2)


def _b_method_i(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    phi = _batched_phi(e_stack, behaviors)
    return 1.0 - np.multiply.reduce(1.0 - phi, axis=-1)


def _b_method_ii(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    if behaviors.shape[-1] == 0:
        return np.zeros((behaviors.shape[0], e_stack.shape[0]))
    return _batched_phi(e_stack, behaviors).mean(axis=-1)


def _b_method_iii(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    if behaviors.shape[-1] == 0:
        return np.zeros((behaviors.shape[0], e_stack.shape[0]))
    return np.multiply.reduce(_batched_phi(e_stack, behaviors), axis=-1)


def _b_alg_rev(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    phi = _batched_phi(e_stack, behaviors)
    return ((1.0 - phi) ** 2).sum(axis=-1)


def _b_log_likelihood(
    e_stack: np.ndarray, behaviors: np.ndarray
) -> np.ndarray:
    p = _batched_match_probabilities(e_stack, behaviors)
    lp = np.log(np.clip(p, _EPS, None))
    # Flatten (n_out, n_cols) so the pairwise sum blocks exactly like the
    # scalar path's flattened ``.sum()``.
    return lp.reshape(lp.shape[0], lp.shape[1], -1).sum(axis=-1)


def _b_euclidean_sb(e_stack: np.ndarray, behaviors: np.ndarray) -> np.ndarray:
    d = (e_stack[None, :, :, :] - behaviors[:, None, :, :]) ** 2
    return d.reshape(d.shape[0], d.shape[1], -1).sum(axis=-1)


#: Kernels whose only reduction over output rows is the ``phi`` product.
_ROW_PRODUCT = frozenset({"method_I", "method_II", "method_III", "alg_rev"})

_BATCHED: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "method_I": _b_method_i,
    "method_II": _b_method_ii,
    "method_III": _b_method_iii,
    "alg_rev": _b_alg_rev,
    "log_likelihood": _b_log_likelihood,
    "euclidean_sb": _b_euclidean_sb,
}


def live_rows(e_stack: np.ndarray) -> np.ndarray:
    """``(n_out,)`` mask of the rows where any suspect's ``E`` is non-zero.

    ``-0.0`` counts as zero (it scores exactly like ``0.0``); NaN is live.
    """
    return np.any(np.asarray(e_stack) != 0, axis=(0, 2))


def batched_scores(
    error_function: ErrorFunction,
    e_stack: np.ndarray,
    behaviors: np.ndarray,
    live: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Score ``Q`` behavior matrices against ``S`` suspect matrices.

    ``e_stack`` is ``(S, n_out, n_cols)`` (rows are per-suspect ``E_crt``
    matrices), ``behaviors`` is ``(Q, n_out, n_cols)``; the result is a
    ``(Q, S)`` float grid with ``result[q, s] ==
    error_function(e_stack[s], behaviors[q])`` bit-for-bit.  Unregistered
    error functions fall back to the scalar loop, so the equality holds
    for user-defined functions too.  ``live`` is ``live_rows(e_stack)``,
    passed in by callers that memoize it; the row-product kernels score
    only the rows live in the stack or non-zero in some query.
    """
    e_stack = np.asarray(e_stack, dtype=float)
    behaviors = np.asarray(behaviors, dtype=float)
    if e_stack.ndim != 3 or behaviors.ndim != 3:
        raise ValueError(
            f"expected 3-D stacks, got e_stack {e_stack.shape} and "
            f"behaviors {behaviors.shape}"
        )
    if e_stack.shape[1:] != behaviors.shape[1:]:
        raise ValueError(
            f"suspect matrices {e_stack.shape[1:]} vs behavior matrices "
            f"{behaviors.shape[1:]}"
        )
    kernel = _BATCHED.get(error_function.name)
    if kernel is None:
        out = np.empty((behaviors.shape[0], e_stack.shape[0]), dtype=float)
        for q in range(behaviors.shape[0]):
            for s in range(e_stack.shape[0]):
                out[q, s] = error_function(e_stack[s], behaviors[q])
        return out
    if error_function.name in _ROW_PRODUCT:
        if live is None:
            live = live_rows(e_stack)
        rows = live | np.any(behaviors != 0, axis=(0, 2))
        if not rows.all():
            keep = np.flatnonzero(rows)
            e_stack = e_stack[:, keep]
            behaviors = behaviors[:, keep]
    return kernel(e_stack, behaviors)
