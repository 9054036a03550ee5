"""Finite-sample estimation of success probabilities and information scores.

Per-query results are tallied into 2x2 contingency tables; scores come out
either through the plug-in mutual-information estimator or, for symmetric
channels, through the empirical accuracy mapped by N(1 - h(.)).  Binomial
uncertainty is reported as Wilson (default), Clopper-Pearson, or Hoeffding
intervals and pushed through the score map by monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .info import Bits, Probability, binary_entropy, clamp_probability

_INTERVAL_METHODS = ("wilson", "clopper_pearson", "hoeffding")


@dataclass(frozen=True)
class ContingencyTable:
    """Counts[target][output] for one query, target and output in {0, 1}."""

    counts: object
    query: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (2, 2):
            raise ValueError(f"contingency table must be 2x2, got {arr.shape}")
        if arr.min() < 0:
            raise ValueError("negative count")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def empty(self) -> bool:
        return self.total == 0

    @classmethod
    def from_pairs(cls, targets, outputs, query: int | None = None) -> "ContingencyTable":
        t = np.asarray(targets, dtype=np.int64)
        o = np.asarray(outputs, dtype=np.int64)
        counts = np.zeros((2, 2), dtype=np.int64)
        np.add.at(counts, (t, o), 1)
        return cls(counts=counts, query=query)


def plugin_mi(table: ContingencyTable, smoothing: float = 0.0) -> Bits:
    """Plug-in mutual information of a 2x2 table, in bits.

    ``smoothing`` adds a pseudocount to every cell before normalizing
    (0.5 gives the Jeffreys prior); the default is no smoothing.
    """
    if smoothing < 0.0:
        raise ValueError("smoothing must be nonnegative")
    counts = np.asarray(table.counts, dtype=float) + smoothing
    total = counts.sum()
    if total <= 0.0:
        raise ValueError("empty contingency table")
    p = counts / total
    row = p.sum(axis=1, keepdims=True)
    col = p.sum(axis=0, keepdims=True)
    mask = p > 0.0
    mi = float((p[mask] * np.log2(p[mask] / (row @ col)[mask])).sum())
    return max(mi, 0.0)


# ---------------------------------------------------------------------------
# Binomial confidence intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    level: float
    method: str

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level={self.level!r} outside (0, 1)")
        if self.lo > self.hi + 1e-12:
            raise ValueError("interval endpoints out of order")
        if self.method not in _INTERVAL_METHODS:
            raise ValueError(f"unknown interval method {self.method!r}")

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0


def normal_quantile(q: float) -> float:
    """Standard normal quantile by bisection on the erf-based CDF.

    Avoids any dependence on an external special-function library; 80
    halvings of [-40, 40] pin the quantile far below the 1e-12 needed here.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument {q!r} outside (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
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
    return ConfidenceInterval(lo=max(0.0, center - margin), hi=min(1.0, center + margin),
                              level=level, method="wilson")


def _binomial_log_cdf_terms(trials: int) -> np.ndarray:
    k = np.arange(trials + 1)
    return (math.lgamma(trials + 1)
            - np.array([math.lgamma(i + 1) + math.lgamma(trials - i + 1) for i in k]))


def _binomial_cdf(k: int, trials: int, p: float, log_binom: np.ndarray) -> float:
    """P[X <= k] for X ~ Binomial(trials, p), summed stably in log space."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0 if k < trials else 1.0
    i = np.arange(k + 1)
    logs = log_binom[: k + 1] + i * math.log(p) + (trials - i) * math.log1p(-p)
    top = logs.max()
    return float(min(1.0, math.exp(top) * np.exp(logs - top).sum()))


def clopper_pearson_interval(successes: int, trials: int,
                             level: float = 0.95) -> ConfidenceInterval:
    """Exact conservative interval by bisecting the binomial CDF in p.

    The lower endpoint solves P[X >= successes | p] = alpha/2 and the upper
    solves P[X <= successes | p] = alpha/2; no incomplete-beta function is
    involved, only direct tail sums.
    """
    _check_binomial(successes, trials, level)
    alpha = 1.0 - level
    log_binom = _binomial_log_cdf_terms(trials)

    def bisect(target, lo, hi, decreasing):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val = target(mid)
            if (val > 0.0) == decreasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if successes == 0:
        lo = 0.0
    else:
        # P[X >= s | p] grows with p; root of alpha/2 - tail
        lo = bisect(lambda p: (1.0 - _binomial_cdf(successes - 1, trials, p, log_binom))
                    - alpha / 2.0, 0.0, 1.0, decreasing=False)
    if successes == trials:
        hi = 1.0
    else:
        # P[X <= s | p] falls with p
        hi = bisect(lambda p: _binomial_cdf(successes, trials, p, log_binom) - alpha / 2.0,
                    0.0, 1.0, decreasing=True)
    return ConfidenceInterval(lo=lo, hi=hi, level=level, method="clopper_pearson")


def hoeffding_interval(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Distribution-free interval phat +/- sqrt(ln(2/alpha) / (2 T))."""
    _check_binomial(successes, trials, level)
    phat = successes / trials
    eps = math.sqrt(math.log(2.0 / (1.0 - level)) / (2.0 * trials))
    return ConfidenceInterval(lo=max(0.0, phat - eps), hi=min(1.0, phat + eps),
                              level=level, method="hoeffding")


def binomial_interval(successes: int, trials: int, level: float = 0.95,
                      method: str = "wilson") -> ConfidenceInterval:
    if method == "wilson":
        return wilson_interval(successes, trials, level)
    if method in ("clopper_pearson", "cp"):
        return clopper_pearson_interval(successes, trials, level)
    if method == "hoeffding":
        return hoeffding_interval(successes, trials, level)
    raise ValueError(f"unknown interval method {method!r}")


# ---------------------------------------------------------------------------
# Scores from accuracies, with interval transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreReport:
    """A score value together with how it was obtained."""

    score: Bits
    method: str  # "symmetric_estimate", set by symmetric_score_estimate
    params: dict = field(default_factory=dict)
    interval: tuple[Bits, Bits] | None = None

    def __post_init__(self):
        if self.score < -1e-9:
            raise ValueError(f"score {self.score!r} is negative")
        if self.interval is not None:
            lo, hi = self.interval
            if not lo - 1e-9 <= self.score <= hi + 1e-9:
                raise ValueError("interval does not contain the score")


def _score_map(p: Probability, n_bits: int) -> Bits:
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
    lo = min(values)
    if lo_p < 0.5 < hi_p:
        lo = 0.0  # interior minimum of the deficit map
    return ConfidenceInterval(lo=lo, hi=max(values), level=interval.level,
                              method=interval.method)


def symmetric_score_estimate(successes: int, trials: int, n_bits: int,
                             level: float = 0.95, method: str = "wilson") -> ScoreReport:
    """Score estimate N(1 - h(phat)) from pooled random-query successes.

    Valid when the protocol is query-symmetric with a symmetric conditional
    channel, which makes the pooled accuracy sufficient.
    """
    _check_binomial(successes, trials, level)
    phat = successes / trials
    ci = score_interval_transform(binomial_interval(successes, trials, level, method), n_bits)
    return ScoreReport(score=_score_map(phat, n_bits), method="symmetric_estimate",
                       params={"N": n_bits, "successes": successes, "trials": trials},
                       interval=(ci.lo, ci.hi))


def per_query_symmetric_score(success_counts, totals, level: float = 0.95,
                              method: str = "wilson") -> tuple[Bits, tuple[Bits, Bits]]:
    """Sum of per-query symmetric estimates with a conservative interval.

    Each query contributes 1 - h(phat_K); its binomial interval is pushed
    through the score map and the per-query bounds are summed.  Suited to
    protocols whose per-query channels are symmetric but whose accuracies
    differ across queries.
    """
    score = 0.0
    lo = 0.0
    hi = 0.0
    for wins, total in zip(success_counts, totals):
        if total == 0:
            continue
        score += _score_map(wins / total, 1)
        ci = score_interval_transform(binomial_interval(int(wins), int(total), level, method), 1)
        lo += ci.lo
        hi += ci.hi
    return score, (lo, hi)
