import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import binary_channel_information, table_from_pairs
from racbox.estimation import (ConfidenceInterval, ScoreReport, bisect_root,
                               binomial_interval, clopper_pearson_interval,
                               hoeffding_interval,
                               normal_quantile, per_query_symmetric_score, plugin_mi,
                               score_interval_transform, symmetric_score_estimate,
                               wilson_interval)
from racbox.info import binary_entropy, entropy_deficit
from racbox.protocols import PyramidProtocol, pyramid_monte_carlo
from racbox.boxes import IsotropicCell
from racbox.rng import substream
from racbox.scores import closed_form_score


def test_contingency_from_trials():
    # (query, target, output) trials, filtered down to one query's branch
    records = np.array([(0, 1, 1), (0, 0, 0), (1, 1, 0), (0, 1, 0)])

    def branch(query):
        mine = records[records[:, 0] == query]
        return table_from_pairs(mine[:, 1], mine[:, 2])

    table = branch(0)
    assert table.sum() == 3
    assert table[1, 1] == 1 and table[0, 0] == 1 and table[1, 0] == 1
    with pytest.raises(ValueError, match="empty"):
        plugin_mi(branch(5))


def test_contingency_perfect_and_coin():
    diag = [[50, 0], [0, 50]]
    assert plugin_mi(diag) == pytest.approx(1.0, abs=0)
    flat = [[25, 25], [25, 25]]
    assert plugin_mi(flat) == pytest.approx(0.0, abs=0)


def test_contingency_seed_protocol_counts():
    # seed episodes at bias 0.75 put ~12.5% of mass off the diagonal
    proto = PyramidProtocol.uniform(1, IsotropicCell(0.75))
    batch = pyramid_monte_carlo(proto, 100_000, seed=40, query=0)
    table = table_from_pairs(batch.targets, batch.outputs)
    off = (table[0, 1] + table[1, 0]) / table.sum()
    assert abs(off - 0.125) <= 3 * math.sqrt(0.125 * 0.875 / table.sum())


def test_plugin_mi_against_formula_oracle():
    table = [[45, 5], [10, 40]]
    # direct evaluation of the plug-in definition
    p = np.array([[45, 5], [10, 40]], dtype=float) / 100.0
    expected = sum(p[a, b] * math.log2(p[a, b] / (p[a].sum() * p[:, b].sum()))
                   for a in (0, 1) for b in (0, 1))
    assert plugin_mi(table) == pytest.approx(expected, abs=1e-15)
    # cross-check through the binary-channel formula with the empirical
    # input marginal correction: here inputs are 50/50, so it is exact
    q_hat, r_hat = 5 / 50, 40 / 50
    assert plugin_mi(table) == pytest.approx(binary_channel_information(q_hat, r_hat),
                                             abs=1e-12)


@pytest.mark.parametrize("counts, error", [
    ([[10, -1], [0, 10]], "negative count"),
    ([[[1, 2], [3, 4]], [[5, -6], [7, 8]]], "negative count"),
    ([10, 0, 0, 10], "must be 2x2"),
    ([[1, 2, 3], [4, 5, 6]], "must be 2x2"),
    (np.ones((3, 2)), "must be 2x2"),
])
def test_plugin_rejects_malformed_tables(counts, error):
    with pytest.raises(ValueError, match=error):
        plugin_mi(counts)


@settings(max_examples=200)
@given(st.tuples(*(st.integers(min_value=0, max_value=60) for _ in range(4))))
def test_plugin_nonnegative(cells):
    counts = [[cells[0], cells[1]], [cells[2], cells[3]]]
    if sum(cells) == 0:
        return
    assert plugin_mi(counts) >= -1e-12


def test_plugin_consistency_on_bsc():
    # error < 0.01 bits at 1e5 samples, true success probability 0.75
    rng = substream(41)
    targets = rng.integers(0, 2, size=100_000)
    flips = rng.random(100_000) < 0.25
    outputs = targets ^ flips
    table = table_from_pairs(targets, outputs)
    assert abs(plugin_mi(table) - entropy_deficit(2 * 0.75 - 1)) < 0.01


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_normal_quantile_reference():
    assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-12)


def test_wilson_reference_case():
    ci = wilson_interval(75, 100, 0.95)
    # oracle: the endpoints solve (phat - p)^2 = z^2 p(1-p)/T; re-derive them
    # by bisection on that score equation instead of the closed form
    z = normal_quantile(0.975)
    phat = 0.75

    def g(p):
        return (phat - p) ** 2 - z * z * p * (1 - p) / 100

    lo, hi = 0.0, phat
    for _ in range(80):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert ci.lo == pytest.approx((lo + hi) / 2, abs=1e-10)
    lo, hi = phat, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert ci.hi == pytest.approx((lo + hi) / 2, abs=1e-10)


def test_hoeffding_reference_interval():
    ci = hoeffding_interval(5000, 10_000, 0.95)
    half = math.sqrt(math.log(40.0) / (2 * 10_000))
    assert (ci.hi - ci.lo) / 2 == pytest.approx(half, abs=1e-12)
    assert (ci.hi - ci.lo) / 2 == pytest.approx(0.013581015157406195, abs=1e-12)


def test_degenerate_successes_hit_the_boundary():
    for method in (wilson_interval, clopper_pearson_interval, hoeffding_interval):
        ci = method(100, 100, 0.95)
        assert ci.hi == 1.0
        ci = method(0, 100, 0.95)
        assert ci.lo == 0.0
    with pytest.raises(ValueError):
        wilson_interval(3, 0)


def test_clopper_pearson_exact_tail_oracle():
    # endpoints satisfy the defining tail equations, checked in exact
    # rational arithmetic
    s, t, level = 75, 100, 0.95
    ci = clopper_pearson_interval(s, t, level)

    def upper_tail(p):  # P[X >= s]
        pf = Fraction(p).limit_denominator(10 ** 12)
        return float(sum(Fraction(math.comb(t, k)) * pf ** k * (1 - pf) ** (t - k)
                         for k in range(s, t + 1)))

    def lower_tail(p):  # P[X <= s]
        pf = Fraction(p).limit_denominator(10 ** 12)
        return float(sum(Fraction(math.comb(t, k)) * pf ** k * (1 - pf) ** (t - k)
                         for k in range(0, s + 1)))

    assert upper_tail(ci.lo) == pytest.approx(0.025, abs=1e-7)
    assert lower_tail(ci.hi) == pytest.approx(0.025, abs=1e-7)
    assert ci.lo < 0.75 < ci.hi
    # conservative: wider than Wilson on both sides
    w = wilson_interval(s, t, level)
    assert ci.lo <= w.lo + 1e-9 and ci.hi >= w.hi - 1e-9


def test_clopper_pearson_against_beta_quantiles():
    # independent oracle: the standard beta-quantile construction
    stats = pytest.importorskip("scipy.stats")
    for s, t in [(0, 50), (3, 50), (25, 50), (49, 50), (50, 50), (730, 1000)]:
        ci = clopper_pearson_interval(s, t, 0.95)
        lo = 0.0 if s == 0 else stats.beta.ppf(0.025, s, t - s + 1)
        hi = 1.0 if s == t else stats.beta.ppf(0.975, s + 1, t - s)
        assert ci.lo == pytest.approx(lo, abs=1e-7)
        assert ci.hi == pytest.approx(hi, abs=1e-7)


def test_bisect_root_stops_at_each_of_its_three_limits():
    # steps: 10 halvings of [0, 1] toward sqrt(1/2)
    lo, hi, halvings = bisect_root(lambda x: x * x < 0.5, 0.0, 1.0, 10)
    assert (halvings, hi - lo) == (10, 2.0 ** -10) and lo < math.sqrt(0.5) <= hi
    # width: the bracket stops once it is no wider than 1e-6
    lo, hi, halvings = bisect_root(lambda x: x * x < 0.5, 0.0, 1.0, 200, width=1e-6)
    assert (halvings, hi - lo) == (20, 2.0 ** -20)
    # an unchanged bracket: once the ends are adjacent floats, the 53rd
    # halving would repeat, so it stops long before 200
    lo, hi, halvings = bisect_root(lambda x: x < 1.5, 1.0, 2.0, 200)
    assert (lo, hi, halvings) == (math.nextafter(1.5, 1.0), 1.5, 52)
    assert bisect_root(lambda x: True, 0.0, 1.0, 0) == (0.0, 1.0, 0)


def test_confidence_interval_rejects_endpoints_out_of_order():
    with pytest.raises(ValueError, match="out of order"):
        ConfidenceInterval(0.6, 0.5)


def test_normal_quantile_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    for q in (0.01, 0.025, 0.2, 0.5, 0.9, 0.975, 0.999):
        assert normal_quantile(q) == pytest.approx(stats.norm.ppf(q), abs=1e-9)


def test_binomial_interval_dispatch():
    for method, interval in (("wilson", wilson_interval),
                             ("clopper_pearson", clopper_pearson_interval),
                             ("hoeffding", hoeffding_interval)):
        assert binomial_interval(10, 20, 0.9, method) == interval(10, 20, 0.9)
    with pytest.raises(ValueError):
        binomial_interval(10, 20, method="exactly")


def test_wilson_coverage():
    # >= 93% empirical coverage at the nominal 95% level
    rng = substream(42)
    for p in (0.55, 0.75, 0.95):
        hits = 0
        draws = rng.binomial(1000, p, size=1000)
        for s in draws:
            ci = wilson_interval(int(s), 1000, 0.95)
            hits += ci.lo <= p <= ci.hi
        assert hits / 1000 >= 0.93


def reference_clopper_pearson(successes, trials, level):
    """The direct construction: 2(T + 1) lgamma calls, then 80 bisection
    steps per endpoint, each summing every tail term."""
    alpha = 1.0 - level
    k = np.arange(trials + 1)
    log_binom = (math.lgamma(trials + 1)
                 - np.array([math.lgamma(i + 1) + math.lgamma(trials - i + 1) for i in k]))

    def cdf(k, p):
        if p <= 0.0:
            return 1.0
        if p >= 1.0:
            return 0.0 if k < trials else 1.0
        i = np.arange(k + 1)
        logs = log_binom[: k + 1] + i * math.log(p) + (trials - i) * math.log1p(-p)
        top = logs.max()
        return float(min(1.0, math.exp(top) * np.exp(logs - top).sum()))

    def bisect(target, decreasing):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (target(mid) > 0.0) == decreasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo = 0.0 if successes == 0 else bisect(
        lambda p: (1.0 - cdf(successes - 1, p)) - alpha / 2.0, decreasing=False)
    hi = 1.0 if successes == trials else bisect(
        lambda p: cdf(successes, p) - alpha / 2.0, decreasing=True)
    return lo, hi


CP_BATTERY = [(s, t, level)
              for t in (1, 2, 37, 1000, 25_000)
              for s in sorted({0, 1, t - 1, t})
              for level in (0.5, 0.95, 1.0 - 1e-6)] + [(600_000, 1_000_000, 0.95)]


def test_clopper_pearson_equals_the_direct_construction():
    # the windowed sign test, the early stop and the lgamma table must not
    # move a single bit of either endpoint
    for s, t, level in CP_BATTERY:
        ci = clopper_pearson_interval(s, t, level)
        assert (ci.lo, ci.hi) == reference_clopper_pearson(s, t, level), (s, t, level)


def test_clopper_pearson_coverage():
    # the exact construction is conservative: >= 95% coverage
    rng = substream(43)
    for p in (0.55, 0.75, 0.95):
        hits = 0
        draws = rng.binomial(1000, p, size=1000)
        for s in draws:
            ci = clopper_pearson_interval(int(s), 1000, 0.95)
            hits += ci.lo <= p <= ci.hi
        assert hits / 1000 >= 0.95


# ---------------------------------------------------------------------------
# Score estimates and the interval transform
# ---------------------------------------------------------------------------


def test_score_interval_transform_cases():
    point = ConfidenceInterval(0.5, 0.5)
    out = score_interval_transform(point, 8)
    assert (out.lo, out.hi) == (0.0, 0.0)
    mono = score_interval_transform(ConfidenceInterval(0.51, 0.53), 8)
    assert mono.lo == pytest.approx(8 * (1 - binary_entropy(0.51)), abs=1e-12)
    assert mono.hi == pytest.approx(8 * (1 - binary_entropy(0.53)), abs=1e-12)
    # an interval straddling 1/2 has an interior minimum of zero
    wide = score_interval_transform(ConfidenceInterval(0.49, 0.53), 8)
    assert wide.lo == 0.0
    assert wide.hi == pytest.approx(8 * (1 - binary_entropy(0.53)), abs=1e-12)
    # entirely below 1/2 the map is decreasing
    low = score_interval_transform(ConfidenceInterval(0.40, 0.45), 8)
    assert low.lo == pytest.approx(8 * (1 - binary_entropy(0.45)), abs=1e-12)
    assert low.hi == pytest.approx(8 * (1 - binary_entropy(0.40)), abs=1e-12)


def test_symmetric_score_estimate_reference():
    rep = symmetric_score_estimate(1000, 1000, 8)
    assert rep.score == pytest.approx(8.0)
    rep = symmetric_score_estimate(500, 1000, 8)
    assert rep.score == pytest.approx(0.0)
    assert rep.interval[0] <= rep.score <= rep.interval[1]


def test_symmetric_score_estimate_is_n_times_the_one_query_sum():
    for method in ("wilson", "clopper_pearson", "hoeffding"):
        for successes, trials in ((0, 10), (480, 1000), (731, 1000), (1000, 1000)):
            rep = symmetric_score_estimate(successes, trials, 8, 0.9, method)
            score, (lo, hi) = per_query_symmetric_score([successes], [trials], 0.9, method)
            assert (rep.score, rep.interval) == (8 * score, (8 * lo, 8 * hi))
    with pytest.raises(ValueError, match="at least one trial"):
        symmetric_score_estimate(0, 0, 8)  # the per-query sum alone would skip it


def test_symmetric_score_pyramid_recovers_closed_form():
    proto = PyramidProtocol.uniform(3, IsotropicCell(0.5))
    trials = 1_000_000
    batch = pyramid_monte_carlo(proto, trials, seed=44)
    rep = symmetric_score_estimate(batch.success_count, trials, 8)
    truth = closed_form_score(3, 0.5)
    assert rep.interval[0] <= truth <= rep.interval[1]


def test_per_query_symmetric_score():
    score, (lo, hi) = per_query_symmetric_score([90, 50], [100, 100])
    expected = (1 - binary_entropy(0.9)) + (1 - binary_entropy(0.5))
    assert score == pytest.approx(expected, abs=1e-12)
    assert lo <= score <= hi


def test_score_report_validation():
    with pytest.raises(ValueError):
        ScoreReport(score=-0.5)
    with pytest.raises(ValueError):
        ScoreReport(score=2.0, interval=(0.0, 1.0))


def test_sample_complexity_near_criticality():
    # resolving the depth-10 bias at the quantum point needs on the order of
    # delta^-2 samples: the 95% interval half-width crosses delta/2 there
    delta = 2.0 ** -5
    target = 1 / delta ** 2  # 1024
    crossing = None
    for t_log in range(4, 18):
        trials = 2 ** t_log
        successes = round(trials * (1 + delta) / 2)
        ci = wilson_interval(successes, trials, 0.95)
        if (ci.hi - ci.lo) / 2 <= delta / 2:
            crossing = trials
            break
    assert crossing is not None
    assert target / 2 <= crossing <= 8 * target
