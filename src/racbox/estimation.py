"""Finite-sample estimation of success probabilities and information scores.

Per-query results are tallied into 2x2 contingency tables; scores come out
either through the plug-in mutual-information estimator or, for symmetric
channels, through the empirical accuracy mapped by N(1 - h(.)) in
``_score_map``, the one map of a success rate into bits.  Binomial
uncertainty is reported as Wilson (default), Clopper-Pearson, or Hoeffding
intervals and pushed through the score map by monotonicity.

Every root, here and in ``scores``, comes from one bisection, ``bisect_root``.
Two things keep the Clopper-Pearson endpoints cheap without moving a bit:
the log-binomial coefficients are read from one lgamma table per process,
extended on demand, and each step decides its sign from the few thousand
terms around the mode, summing every term only when that windowed value
lies within a margin of zero that bounds the terms it drops (see
``clopper_pearson_interval``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import Bits, Probability, binary_entropy, clamp_probability, gaussian_cdf

INTERVAL_METHODS = ("wilson", "clopper_pearson", "hoeffding")


def plugin_mi(counts) -> Bits | np.ndarray:
    """Plug-in mutual information of 2x2 tables counts[target][output], in bits.

    ``counts`` holds counts or masses in shape (..., 2, 2) and gives one
    value per table, a scalar for one table.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-2:] != (2, 2):
        raise ValueError(f"contingency tables must be 2x2, got shape {counts.shape}")
    if (counts < 0.0).any():
        raise ValueError("negative count")
    total = counts.sum(axis=(-2, -1), keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("empty contingency table")
    p = counts / total
    outer = p.sum(axis=-1, keepdims=True) * p.sum(axis=-2, keepdims=True)
    # an empty cell adds 0 * log2(1); NumPy sums four values in order, so
    # the zeros leave every sum as it is over the nonempty cells alone
    ratio = np.divide(p, outer, out=np.ones_like(p), where=p > 0.0)
    return np.maximum((p * np.log2(ratio)).sum(axis=(-2, -1)), 0.0)


# ---------------------------------------------------------------------------
# Binomial confidence intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi + 1e-12:
            raise ValueError("interval endpoints out of order")


def bisect_root(below, lo: float, hi: float, steps: int,
                width: float = 0.0) -> tuple[float, float, int]:
    """Halve [lo, hi] toward the point where ``below(x)`` turns False.

    Returns (lo, hi, halvings).  It stops after ``steps`` halvings, once
    hi - lo <= ``width``, or once a halving leaves the bracket unchanged,
    because every later halving would repeat it.
    """
    halvings = 0
    while halvings < steps and hi - lo > width:
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if below(mid) else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
        halvings += 1
    return lo, hi, halvings


def normal_quantile(q: float) -> float:
    """Standard normal quantile by bisection on the erf-based CDF.

    Avoids any dependence on an external special-function library; 100
    halvings of [-40, 40] pin the quantile far below the 1e-12 needed here.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument {q!r} outside (0, 1)")
    lo, hi, _ = bisect_root(lambda x: gaussian_cdf(x) < q, -40.0, 40.0, 100)
    return 0.5 * (lo + hi)


def _check_binomial(successes: int, trials: int, level: float):
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level={level!r} outside (0, 1)")


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    _check_binomial(successes, trials, level)
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return ConfidenceInterval(lo=max(0.0, center - margin), hi=min(1.0, center + margin))


# _LGAMMA[j] = lgamma(j + 1), built on first use and extended on demand.
_LGAMMA = np.zeros(0)

# The window of a Clopper-Pearson step spans this many binomial standard
# deviations, plus a constant for the Poisson-like tails of a small variance,
# on each side of the mode.  It is only used when the terms at its clipped
# edges lie _WINDOW_EDGE_DROP below the term at its centre (in natural log).
_WINDOW_SIGMAS = 16.0
_WINDOW_EXTRA = 32
_WINDOW_EDGE_DROP = 64.0
# A windowed step value further than this from zero has the sign of the
# full sum; clopper_pearson_interval derives the bound.
_SIGN_MARGIN = 1e-12


def _binomial_log_cdf_terms(trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log C(trials, i), i, trials - i) for i = 0..trials, the counts as floats.

    The coefficients come from the lgamma table with the same operands and
    order of addition as lgamma(trials + 1) - (lgamma(i + 1) + lgamma(trials - i + 1)).
    """
    global _LGAMMA
    table = _LGAMMA  # kept locally: another thread may rebind the global meanwhile
    have = len(table)
    if have <= trials:
        grown = np.fromiter(map(math.lgamma, range(have + 1, trials + 2)), float,
                            count=trials + 1 - have)
        table = _LGAMMA = np.concatenate([table, grown])
    index = np.arange(trials + 1, dtype=float)
    return table[trials] - (table[: trials + 1] + table[trials::-1]), index, trials - index


def _binomial_cdf(k: int, p: float, terms, start: int = 0, stop: int | None = None) -> float:
    """P[X <= k] for X ~ Binomial(trials, p), summed stably in log space.

    ``terms`` is ``_binomial_log_cdf_terms(trials)``.  ``start`` and ``stop``
    restrict the sum to the terms i in [start, stop); by default it runs
    over 0..k.
    """
    log_binom, index, rest = terms
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0 if k < len(index) - 1 else 1.0
    part = slice(start, k + 1 if stop is None else stop)
    logs = log_binom[part] + index[part] * math.log(p) + rest[part] * math.log1p(-p)
    top = logs.max()
    return float(min(1.0, math.exp(top) * np.exp(logs - top).sum()))


def _cdf_window(k: int, p: float, log_binom: np.ndarray) -> tuple[int, int] | None:
    """Terms [start, stop) of P[X <= k] around the mode that hold its mass.

    None when the window would hold half of 0..k or more, or when a clipped
    edge's term is not _WINDOW_EDGE_DROP below the term at its centre.
    """
    trials = len(log_binom) - 1
    if not 0.0 < p < 1.0:
        return None
    half = int(_WINDOW_SIGMAS * math.sqrt(trials * p * (1.0 - p))) + _WINDOW_EXTRA
    centre = min(k, int((trials + 1) * p))
    start, last = max(0, centre - half), min(k, centre + half)
    if 2 * (last + 1 - start) > k + 1:
        return None
    lp, lq = math.log(p), math.log1p(-p)

    def log_term(i):
        return float(log_binom[i]) + i * lp + (trials - i) * lq

    floor = log_term(centre) - _WINDOW_EDGE_DROP
    if (start > 0 and log_term(start) > floor) or (last < k and log_term(last) > floor):
        return None
    return start, last + 1


def clopper_pearson_interval(successes: int, trials: int,
                             level: float = 0.95) -> ConfidenceInterval:
    """Exact conservative interval by bisecting the binomial CDF in p.

    The lower endpoint solves P[X >= successes | p] = alpha/2 and the upper
    solves P[X <= successes | p] = alpha/2; no incomplete-beta function is
    involved, only direct tail sums.  Each endpoint halves [0, 1] up to 80
    times through ``bisect_root``.

    A step first sums the window of terms around the mode that
    ``_cdf_window`` picks.  It sums all of 0..k, as a direct evaluation
    does, only when there is no window or the windowed value lies within
    _SIGN_MARGIN = 1e-12 of zero.  Only the sign of a step's value steers
    the bisection, so the endpoints are bit for bit those of the full sum at
    every step, as long as the two values differ by less than the margin:

    * The binomial pmf is log-concave, hence unimodal, and the terms at the
      window's clipped edges are at most e^-64 times the term at its
      centre.  Every dropped term is then below e^-64 times the largest
      one, so the dropped mass is below (trials + 1) e^-64, which is
      1.7e-28 (trials + 1).
    * The kept terms come from the same expressions as in the full sum.
      NumPy adds nonnegative terms pairwise, with a relative error below
      64 u (u = 2^-53) for any length that fits in memory, so with the few
      scalar roundings after the sums the two values differ by less than
      2e-14.

    Both are far below 1e-12.  The log-binomial coefficients come from a
    per-process lgamma table, with the same operands and order of addition
    as a direct evaluation.
    """
    _check_binomial(successes, trials, level)
    alpha = 1.0 - level
    terms = _binomial_log_cdf_terms(trials)

    def root(k, target, decreasing):
        """Root in p of target(P[X <= k | p])."""

        def below(p):
            window = _cdf_window(k, p, terms[0])
            val = 0.0 if window is None else target(_binomial_cdf(k, p, terms, *window))
            if abs(val) <= _SIGN_MARGIN:
                val = target(_binomial_cdf(k, p, terms))
            return (val > 0.0) == decreasing

        lo, hi, _ = bisect_root(below, 0.0, 1.0, 80)
        return 0.5 * (lo + hi)

    if successes == 0:
        lo = 0.0
    else:
        # P[X >= s | p] grows with p; root of alpha/2 - tail
        lo = root(successes - 1, lambda cdf: (1.0 - cdf) - alpha / 2.0, decreasing=False)
    if successes == trials:
        hi = 1.0
    else:
        # P[X <= s | p] falls with p
        hi = root(successes, lambda cdf: cdf - alpha / 2.0, decreasing=True)
    return ConfidenceInterval(lo=lo, hi=hi)


def hoeffding_interval(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Distribution-free interval phat +/- sqrt(ln(2/alpha) / (2 T))."""
    _check_binomial(successes, trials, level)
    phat = successes / trials
    eps = math.sqrt(math.log(2.0 / (1.0 - level)) / (2.0 * trials))
    return ConfidenceInterval(lo=max(0.0, phat - eps), hi=min(1.0, phat + eps))


def binomial_interval(successes: int, trials: int, level: float = 0.95,
                      method: str = "wilson") -> ConfidenceInterval:
    if method not in INTERVAL_METHODS:
        raise ValueError(f"unknown interval method {method!r}")
    # looked up per call, so that a rebound module attribute reaches every call
    return globals()[f"{method}_interval"](successes, trials, level)


# ---------------------------------------------------------------------------
# Scores from accuracies, with interval transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreReport:
    """A score value with its interval."""

    score: Bits
    interval: tuple[Bits, Bits] | None = None

    def __post_init__(self):
        if self.score < -1e-9:
            raise ValueError(f"score {self.score!r} is negative")
        if self.interval is not None:
            lo, hi = self.interval
            if not lo - 1e-9 <= self.score <= hi + 1e-9:
                raise ValueError("interval does not contain the score")


def _score_map(p: Probability, n_bits: int) -> Bits:
    """N (1 - h(p)): the information of N symmetric channels of success rate p."""
    return n_bits * (1.0 - binary_entropy(p))


def score_interval_transform(interval: ConfidenceInterval, n_bits: int) -> ConfidenceInterval:
    """Map a success-probability interval through p -> N (1 - h(p)).

    The map increases on [1/2, 1], so intervals inside that range transport
    endpoint-to-endpoint.  An interval reaching below 1/2 crosses the map's
    minimum, so the image is computed by explicit extremum search instead of
    clipping: the low edge is 0 whenever 1/2 is interior.
    """
    lo_p = clamp_probability(interval.lo, "interval.lo")
    hi_p = clamp_probability(interval.hi, "interval.hi")
    values = [_score_map(lo_p, n_bits), _score_map(hi_p, n_bits)]
    lo = 0.0 if lo_p < 0.5 < hi_p else min(values)  # 0: interior minimum of the map
    return ConfidenceInterval(lo=lo, hi=max(values))


def symmetric_score_estimate(successes: int, trials: int, n_bits: int,
                             level: float = 0.95, method: str = "wilson") -> ScoreReport:
    """Score estimate N(1 - h(phat)) from pooled random-query successes.

    Valid when the protocol is query-symmetric with a symmetric conditional
    channel, which makes the pooled accuracy sufficient.  It is N times the
    one-query :func:`per_query_symmetric_score`, bit for bit, since the map
    and both interval ends scale with N.
    """
    _check_binomial(successes, trials, level)  # the per-query sum skips an empty query
    score, (lo, hi) = per_query_symmetric_score([successes], [trials], level, method)
    return ScoreReport(score=n_bits * score, interval=(n_bits * lo, n_bits * hi))


def per_query_symmetric_score(success_counts, totals, level: float = 0.95,
                              method: str = "wilson") -> tuple[Bits, tuple[Bits, Bits]]:
    """Sum of per-query symmetric estimates with a conservative interval.

    Each query contributes 1 - h(phat_K); its binomial interval is pushed
    through the score map and the per-query bounds are summed.  Suited to
    protocols whose per-query channels are symmetric but whose accuracies
    differ across queries.
    """
    score = lo = hi = 0.0
    for wins, total in zip(success_counts, totals):
        if total == 0:
            continue
        score += _score_map(wins / total, 1)
        ci = score_interval_transform(binomial_interval(int(wins), int(total), level, method), 1)
        lo += ci.lo
        hi += ci.hi
    return score, (lo, hi)
