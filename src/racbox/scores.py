"""Exact information scores for one-bit random-access protocols.

The central closed form is the score of the depth-n isotropic pyramid,

    score(n, E) = 2^n * (1 - h((1 + E^n) / 2)),

together with its asymmetric-bias generalization, the finite-depth critical
bias where the score exhausts a given interface capacity, the conditional
score for correlated databases, and a small regularized optimization over
the measurement angle of the quantum cell family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .boxes import iso_bias_from_angle
from .estimation import ContingencyTable, plugin_mi
from .info import LN2, Bits, binary_entropy, entropy_deficit

__all__ = [
    "closed_form_score", "asym_exact_score",
    "critical_constant",
    "critical_bias", "critical_bias_asymptotic", "CriticalityResult",
    "ConditionalScoreReport", "conditional_score_from_records",
    "exact_conditional_score", "regularized_angle_utility",
    "optimize_regularized_angle", "MAX_DEPTH",
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


@dataclass(frozen=True)
class CriticalityResult:
    depth: int
    capacity: Bits
    critical_bias: float
    bracket: tuple[float, float]
    iterations: int


def critical_bias(depth: int, capacity: Bits = 1.0, max_iter: int = 200) -> CriticalityResult:
    """Bias at which the closed-form score first reaches ``capacity``.

    The score is strictly increasing in E at fixed depth, so plain bisection
    is enough.  The bracket is tightened to 1e-12 so that the score residual
    at the returned bias stays below 1e-9 even at depth 40.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth {depth} outside [1, {MAX_DEPTH}]")
    if not 0.0 < capacity < float(2 ** depth):
        raise ValueError(f"no root: capacity {capacity!r} outside (0, 2^{depth})")
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > 1e-12 and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if closed_form_score(depth, mid) < capacity:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    return CriticalityResult(depth=depth, capacity=capacity, critical_bias=root,
                             bracket=(lo, hi), iterations=iterations)


# ---------------------------------------------------------------------------
# Conditional score for non-uniform or correlated databases
# ---------------------------------------------------------------------------


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


def conditional_score_from_records(records, n_bits: int,
                                   min_context_count: int = 20) -> ConditionalScoreReport:
    """Plug-in conditional score from episode records.

    ``records`` is an iterable of (database bits, query index, output bit).
    For each query K the records with b = K are grouped by the observed
    prefix A_<K; each context contributes its plug-in mutual information
    between A_K and the output, weighted by empirical context frequency.
    """
    if n_bits > 12:
        raise ValueError("context tables grow as 2^K; limited to N <= 12")
    by_query: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(n_bits)]
    for db, b, beta in records:
        bits = tuple(int(v) & 1 for v in db)
        if len(bits) != n_bits:
            raise ValueError(f"record database has {len(bits)} bits, expected {n_bits}")
        by_query[int(b)].append((bits, bits[int(b)], int(beta) & 1))

    per_query = []
    fano_total = 0.0
    sparse: list[tuple[int, tuple[int, ...]]] = []
    for k in range(n_bits):
        recs = by_query[k]
        if not recs:
            per_query.append(0.0)
            continue
        contexts: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for bits, target, beta in recs:
            contexts.setdefault(bits[:k], []).append((target, beta))
        total_k = len(recs)
        mi_k = 0.0
        cond_entropy_k = 0.0
        errors_k = 0
        for ctx, pairs in contexts.items():
            if len(pairs) < min_context_count:
                sparse.append((k, ctx))
            counts = [[0, 0], [0, 0]]
            for target, beta in pairs:
                counts[target][beta] += 1
            table = ContingencyTable(counts=counts)
            weight = len(pairs) / total_k
            mi_k += weight * plugin_mi(table)
            ones = counts[1][0] + counts[1][1]
            cond_entropy_k += weight * binary_entropy(ones / len(pairs))
            errors_k += counts[0][1] + counts[1][0]
        per_query.append(mi_k)
        fano_total += cond_entropy_k - binary_entropy(errors_k / total_k)
    return ConditionalScoreReport(score=sum(per_query), per_query=tuple(per_query),
                                  fano_bound=fano_total, sparse_contexts=tuple(sparse))


def exact_conditional_score(joint: dict[tuple[int, ...], float], channel,
                            n_bits: int) -> Bits:
    """Conditional score for an explicit database law and decoder channel.

    ``joint`` maps each database tuple to its probability; ``channel(db, K)``
    returns Pr[output = 1 | database, query K].  Everything is enumerated
    exactly, so N is capped at 12.
    """
    if n_bits > 12:
        raise ValueError("exact enumeration limited to N <= 12")
    total = 0.0
    for k in range(n_bits):
        # p[(context, a, beta)] for query K
        ctx_mass: dict[tuple[int, ...], float] = {}
        cell: dict[tuple[tuple[int, ...], int, int], float] = {}
        for db, p_db in joint.items():
            if p_db == 0.0:
                continue
            ctx = db[:k]
            p1 = channel(db, k)
            ctx_mass[ctx] = ctx_mass.get(ctx, 0.0) + p_db
            for beta, p_beta in ((1, p1), (0, 1.0 - p1)):
                key = (ctx, db[k], beta)
                cell[key] = cell.get(key, 0.0) + p_db * p_beta
        for ctx, mass in ctx_mass.items():
            joint_ab = [[cell.get((ctx, a, beta), 0.0) / mass for beta in (0, 1)]
                        for a in (0, 1)]
            pa = [sum(row) for row in joint_ab]
            pb = [joint_ab[0][bcol] + joint_ab[1][bcol] for bcol in (0, 1)]
            mi = 0.0
            for a, beta in product((0, 1), repeat=2):
                pab = joint_ab[a][beta]
                if pab > 0.0:
                    mi += pab * math.log2(pab / (pa[a] * pb[beta]))
            total += mass * mi
    return total


# ---------------------------------------------------------------------------
# Regularized optimization of the cell measurement angle
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def regularized_angle_utility(phi: float, depth: int, penalty: float) -> float:
    """score(n, E_iso(phi)) - penalty * (phi / (pi/4))^2."""
    return closed_form_score(depth, iso_bias_from_angle(phi)) \
        - penalty * (phi / (math.pi / 4.0)) ** 2


def optimize_regularized_angle(depth: int, penalty: float,
                               tol: float = 1e-8) -> tuple[float, float]:
    """Maximize the regularized angle utility over [0, pi/4].

    The landscape is bimodal for mid-range penalties (a near-zero branch
    competes with a near-endpoint branch), so a coarse scan first brackets
    the global argmax and golden-section search then refines it to ``tol``.
    With zero penalty the optimum sits at the right endpoint; a large
    penalty collapses it toward zero.  Returns (best angle, utility there).
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
    while hi - lo > tol:
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
