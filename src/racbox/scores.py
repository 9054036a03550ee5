"""Exact information scores for one-bit random-access protocols.

The central closed form is the score of the depth-n isotropic pyramid,

    score(n, E) = 2^n * (1 - h((1 + E^n) / 2)),

together with its asymmetric-bias generalization, the finite-depth critical
bias where the score exhausts a given interface capacity, and a small
regularized optimization over the measurement angle of the quantum cell
family.  For any code, one tally scores every query's information, with
and without the earlier bits: exactly over a database law
(:func:`exact_scores`) or from sampled episodes
(:func:`conditional_score_from_records`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import iso_bias_from_angle
from .estimation import bisect_root, plugin_mi
from .info import LN2, Bits, binary_entropy, entropy_deficit

__all__ = [
    "closed_form_score", "asym_exact_score",
    "critical_constant",
    "critical_bias", "critical_bias_asymptotic", "CriticalityResult",
    "MAX_ENUMERATED_BITS", "check_enumerable", "database_blocks", "exact_scores",
    "ConditionalScoreReport", "conditional_score_from_records",
    "regularized_angle_utility", "optimize_regularized_angle", "MAX_DEPTH",
]

MAX_DEPTH = 60


def closed_form_score(depth: int, bias: float) -> Bits:
    """Exact score 2^n (1 - h((1+E^n)/2)) of the uniform isotropic pyramid."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias={bias!r} outside [0, 1]")
    return float(2 ** depth) * entropy_deficit(bias ** depth)


def asym_exact_score(depth: int, bias0: float, bias1: float) -> Bits:
    """Exact score of the pyramid over an asymmetric cell.

    Each query path contributes 1 - h((1 + prod E_{b_l})/2); paths sharing a
    count of bias1 uses share the product, so the 2^n-term sum collapses to
    binomially weighted groups.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    for name, v in (("bias0", bias0), ("bias1", bias1)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}={v!r} outside [0, 1]")
    total = 0.0
    for k in range(depth + 1):
        prod = bias0 ** (depth - k) * bias1 ** k
        total += math.comb(depth, k) * entropy_deficit(prod)
    return total


def critical_constant() -> Bits:
    """Large-depth score limit 1/(2 ln 2) at the Tsirelson bias."""
    return 1.0 / (2.0 * LN2)


def critical_bias_asymptotic(depth: int, capacity: Bits = 1.0) -> float:
    """Large-n approximation (1/sqrt 2) (2 C ln 2)^(1/2n) of the critical bias."""
    return (2.0 * capacity * LN2) ** (1.0 / (2.0 * depth)) / math.sqrt(2.0)


_MAX_BISECTIONS = 200  # a cap only; the 1e-12 bracket takes about 40


@dataclass(frozen=True)
class CriticalityResult:
    depth: int
    capacity: Bits
    critical_bias: float
    bracket: tuple[float, float]
    iterations: int


def critical_bias(depth: int, capacity: Bits = 1.0) -> CriticalityResult:
    """Bias at which the closed-form score first reaches ``capacity``.

    The score is strictly increasing in E at fixed depth, so plain bisection
    is enough.  The bracket is tightened to 1e-12 so that the score residual
    at the returned bias stays below 1e-9 even at depth 40.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    if not 0.0 < capacity < float(2 ** depth):
        raise ValueError(f"no root: capacity {capacity!r} outside (0, 2^{depth})")
    lo, hi, iterations = bisect_root(lambda e: closed_form_score(depth, e) < capacity,
                                     0.0, 1.0, _MAX_BISECTIONS, width=1e-12)
    return CriticalityResult(depth=depth, capacity=capacity, critical_bias=0.5 * (lo + hi),
                             bracket=(lo, hi), iterations=iterations)


# ---------------------------------------------------------------------------
# Per-query information of a code, exactly or from sampled records
# ---------------------------------------------------------------------------

# Scores tally 2^N databases, or 2^N - 1 contexts (query K's 2^K prefixes a_<K).
MAX_ENUMERATED_BITS = 16
_ENUM_BLOCK_BITS = 1 << 16  # sizes the blocks of database_blocks


def check_enumerable(n_bits: int):
    if n_bits > MAX_ENUMERATED_BITS:
        raise ValueError(f"per-query scores tally 2^N databases or contexts and are "
                         f"limited to N <= {MAX_ENUMERATED_BITS}, got N = {n_bits}")


def database_blocks(n_bits: int):
    """All 2^N databases in fixed blocks of (words, rows); row w holds the bits of w.

    A block holds floor(``_ENUM_BLOCK_BITS`` / N^2) databases (read at each
    call; all 256 at N = 8, 655 at N = 10), so their N answers each, decoded
    from N query inputs apiece, keep working memory from growing with N.
    """
    check_enumerable(n_bits)
    size = max(1, _ENUM_BLOCK_BITS // max(1, n_bits) ** 2)
    for start in range(0, 1 << n_bits, size):
        words = np.arange(start, min(start + size, 1 << n_bits))
        yield words, (words[:, None] >> np.arange(n_bits)) & 1


def _tally(masses, words, targets, queries, p_one, weight=1.0):
    """Add each row's mass to ``masses[context, a_K, beta]`` in one bincount.

    A row is a database word with its queried bit a_K, the query K,
    Pr[beta = 1] and a weight.  Query K's context a_<K is the low K bits of
    the word, at row 2^K - 1 + prefix of ``masses``.
    """
    if not ((p_one >= 0.0) & (p_one <= 1.0)).all():
        raise ValueError("Pr[beta = 1] must lie in [0, 1]")
    low = (1 << queries) - 1
    cell = 4 * (low + (words & low)) + 2 * targets
    mass = weight * p_one
    masses += np.bincount(np.concatenate([cell, cell + 1]),
                          np.concatenate([weight - mass, mass]),
                          minlength=masses.size).reshape(masses.shape)


def _information(masses, n_bits: int) -> tuple[tuple[Bits, ...], tuple[Bits, ...]]:
    """Per query K, I(a_K : beta) and I(a_K : beta | a_<K) of the tallied masses."""
    starts = (1 << np.arange(n_bits)) - 1  # each query's first context
    tables = np.concatenate([masses, np.add.reduceat(masses, starts)])
    mass = tables.sum(axis=(1, 2))
    mi = np.zeros(len(tables))
    mi[mass > 0] = plugin_mi(tables[mass > 0])  # an empty table carries nothing
    context_mass, query_mass = mass[:-n_bits], mass[-n_bits:]
    conditional = np.divide(np.add.reduceat(context_mass * mi[:-n_bits], starts), query_mass,
                            out=np.zeros(n_bits), where=query_mass > 0)
    return tuple(mi[-n_bits:].tolist()), tuple(conditional.tolist())


def exact_scores(n_bits: int, answer,
                 weights=None) -> tuple[tuple[Bits, ...], tuple[Bits, ...]]:
    """Exact I(a_K : beta_K) and I(a_K : beta_K | a_<K) for every query K.

    ``answer(db)`` takes each block of ``database_blocks``, rows of 0/1 bits,
    and returns a table of its shape (else ValueError) whose entry (b, K) is
    Pr[beta = 1] for database b at query K, 0 or 1 for a deterministic code.
    ``weights`` is the database law over the 2^N words (bit i of word w is
    a_i), uniform by default; it need not sum to 1.  Everything is summed
    exactly over the law, so the values are not estimates.
    """
    check_enumerable(n_bits)
    weights = None if weights is None else np.asarray(weights, dtype=float)
    if weights is not None and not (weights.shape == (1 << n_bits,)
                                    and (weights >= 0.0).all() and weights.sum() > 0.0):
        raise ValueError(f"weights must be {1 << n_bits} nonnegative numbers, not all 0")
    masses = np.zeros(((1 << n_bits) - 1, 2, 2))
    for words, db in database_blocks(n_bits):
        p_one = np.asarray(answer(db), dtype=float)
        if p_one.shape != db.shape:
            raise ValueError(f"answer(db) gave shape {p_one.shape}, not {db.shape}")
        # tallied query-major: every database at query 0, then at query 1, ...
        weight = 1.0 if weights is None else np.tile(weights[words], n_bits)
        _tally(masses, np.tile(words, n_bits), db.T.reshape(-1),
               np.repeat(np.arange(n_bits), len(db)), p_one.T.reshape(-1), weight)
    return _information(masses, n_bits)


@dataclass(frozen=True)
class ConditionalScoreReport:
    """Conditional score with its empirical accuracy-driven lower bound.

    ``fano_bound`` is sum_K [H(A_K | A_<K) - h(P_err,K)] computed from the
    same empirical records as the score; the score can never fall below it.
    ``sparse_contexts`` lists (K, context) pairs whose sample count fell
    under the requested threshold.
    """

    score: Bits
    per_query: tuple[Bits, ...]
    fano_bound: Bits
    sparse_contexts: tuple[tuple[int, tuple[int, ...]], ...]


def conditional_score_from_records(databases, queries, outputs,
                                   min_context_count: int = 20) -> ConditionalScoreReport:
    """Plug-in conditional score from sampled episodes.

    Episode i asked database row ``databases[i]`` (0/1 bits) query
    ``queries[i]`` and got ``outputs[i]``.  The episodes are tallied as
    :func:`exact_scores` tallies its exact masses; each context a_<K then
    contributes its plug-in information, weighted by its frequency.
    """
    databases, queries, outputs = (np.asarray(a) for a in (databases, queries, outputs))
    n_bits = databases.shape[-1] if databases.ndim == 2 else 0
    check_enumerable(n_bits)
    if not (n_bits and queries.shape == outputs.shape == databases.shape[:1]
            and np.isin(databases, (0, 1)).all() and np.isin(outputs, (0, 1)).all()
            and np.isin(queries, np.arange(n_bits)).all()):
        raise ValueError("records need one row of 0/1 database bits, one query in [0, N) "
                         "and one 0/1 output per episode")
    databases, queries = databases.astype(np.int64), queries.astype(np.int64)
    masses = np.zeros(((1 << n_bits) - 1, 2, 2))
    _tally(masses, databases @ (1 << np.arange(n_bits)),
           databases[np.arange(len(queries)), queries], queries, outputs.astype(float))
    _, per_query = _information(masses, n_bits)
    # I(a; a) = H(a): scored on the diagonal of a_K's masses, the conditional
    # information is H(a_K | a_<K)
    entropy = _information(masses.sum(axis=2)[:, :, None] * np.eye(2), n_bits)[1]
    tables = np.add.reduceat(masses, (1 << np.arange(n_bits)) - 1)
    fano = sum(entropy) - sum(binary_entropy((t[0, 1] + t[1, 0]) / t.sum())
                              for t in tables if t.sum() > 0)
    counts = masses.sum(axis=(1, 2))
    sparse = []
    for row in np.flatnonzero((counts > 0) & (counts < min_context_count)) + 1:
        k = int(row).bit_length() - 1  # context row + 1 is 2^K + prefix a_<K
        sparse.append((k, tuple(int(row) >> i & 1 for i in range(k))))
    return ConditionalScoreReport(score=sum(per_query), per_query=per_query, fano_bound=fano,
                                  sparse_contexts=tuple(sparse))


# ---------------------------------------------------------------------------
# Regularized optimization of the cell measurement angle
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The golden-section search stops on a bracket this narrow.
_ANGLE_TOL = 1e-8


def regularized_angle_utility(phi: float, depth: int, penalty: float) -> float:
    """score(n, E_iso(phi)) - penalty * (phi / (pi/4))^2."""
    return closed_form_score(depth, iso_bias_from_angle(phi)) \
        - penalty * (phi / (math.pi / 4.0)) ** 2


def optimize_regularized_angle(depth: int, penalty: float) -> tuple[float, float]:
    """Maximize the regularized angle utility over [0, pi/4].

    The landscape is bimodal for mid-range penalties (a near-zero branch
    competes with a near-endpoint branch), so a coarse scan first brackets
    the global argmax and golden-section search then refines it to
    ``_ANGLE_TOL``.  With zero penalty the optimum sits at the right
    endpoint; a large penalty collapses it toward zero.  Returns (best
    angle, utility there).
    """
    if penalty < 0.0:
        raise ValueError("penalty must be nonnegative")
    grid = [k * math.pi / 4.0 / 256 for k in range(257)]
    values = [regularized_angle_utility(phi, depth, penalty) for phi in grid]
    k_best = max(range(len(grid)), key=values.__getitem__)
    lo = grid[max(k_best - 1, 0)]
    hi = grid[min(k_best + 1, len(grid) - 1)]

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = regularized_angle_utility(x1, depth, penalty)
    f2 = regularized_angle_utility(x2, depth, penalty)
    while hi - lo > _ANGLE_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = regularized_angle_utility(x2, depth, penalty)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = regularized_angle_utility(x1, depth, penalty)
    best = 0.5 * (lo + hi)
    return best, regularized_angle_utility(best, depth, penalty)
