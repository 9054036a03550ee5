import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racbox.estimation import (ConfidenceInterval, ContingencyTable, ScoreReport,
                               binomial_interval, clopper_pearson_interval,
                               hoeffding_interval,
                               normal_quantile, per_query_symmetric_score, plugin_mi,
                               score_interval_transform, symmetric_score_estimate,
                               wilson_interval)
from racbox.info import binary_channel_information, binary_entropy, bsc_information
from racbox.protocols import PyramidProtocol, pyramid_monte_carlo
from racbox.boxes import IsotropicCell
from racbox.rng import substream
from racbox.scores import closed_form_score


def test_contingency_from_trials():
    # (query, target, output) trials, filtered down to one query's branch
    records = np.array([(0, 1, 1), (0, 0, 0), (1, 1, 0), (0, 1, 0)])

    def branch(query):
        mine = records[records[:, 0] == query]
        return ContingencyTable.from_pairs(mine[:, 1], mine[:, 2], query=query)

    table = branch(0)
    assert table.total == 3
    assert table.counts[1, 1] == 1 and table.counts[0, 0] == 1 and table.counts[1, 0] == 1
    empty = branch(5)
    assert empty.empty
    with pytest.raises(ValueError):
        plugin_mi(empty)


def test_contingency_perfect_and_coin():
    diag = ContingencyTable([[50, 0], [0, 50]])
    assert plugin_mi(diag) == pytest.approx(1.0, abs=0)
    flat = ContingencyTable([[25, 25], [25, 25]])
    assert plugin_mi(flat) == pytest.approx(0.0, abs=0)


def test_contingency_seed_protocol_counts():
    # seed episodes at bias 0.75 put ~12.5% of mass off the diagonal
    proto = PyramidProtocol.uniform(1, IsotropicCell(0.75))
    batch = pyramid_monte_carlo(proto, 100_000, seed=40, query=0)
    table = ContingencyTable.from_pairs(batch.targets, batch.outputs, query=0)
    off = (table.counts[0, 1] + table.counts[1, 0]) / table.total
    assert abs(off - 0.125) <= 3 * math.sqrt(0.125 * 0.875 / table.total)


def test_plugin_mi_against_formula_oracle():
    table = ContingencyTable([[45, 5], [10, 40]])
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


def test_plugin_smoothing():
    table = ContingencyTable([[10, 0], [0, 10]])
    assert plugin_mi(table, smoothing=0.5) < plugin_mi(table)
    with pytest.raises(ValueError):
        plugin_mi(table, smoothing=-1.0)


@settings(max_examples=200)
@given(st.tuples(*(st.integers(min_value=0, max_value=60) for _ in range(4))))
def test_plugin_nonnegative(cells):
    counts = [[cells[0], cells[1]], [cells[2], cells[3]]]
    if sum(cells) == 0:
        return
    assert plugin_mi(ContingencyTable(counts)) >= -1e-12


def test_plugin_consistency_on_bsc():
    # error < 0.01 bits at 1e5 samples, true success probability 0.75
    rng = substream(41)
    targets = rng.integers(0, 2, size=100_000)
    flips = rng.random(100_000) < 0.25
    outputs = targets ^ flips
    table = ContingencyTable.from_pairs(targets, outputs)
    assert abs(plugin_mi(table) - bsc_information(0.75)) < 0.01


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


def test_hoeffding_reference_half_width():
    ci = hoeffding_interval(5000, 10_000, 0.95)
    half = math.sqrt(math.log(40.0) / (2 * 10_000))
    assert ci.half_width == pytest.approx(half, abs=1e-12)
    assert ci.half_width == pytest.approx(0.013581015157406195, abs=1e-12)


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


def test_normal_quantile_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    for q in (0.01, 0.025, 0.2, 0.5, 0.9, 0.975, 0.999):
        assert normal_quantile(q) == pytest.approx(stats.norm.ppf(q), abs=1e-9)


def test_binomial_interval_dispatch():
    assert binomial_interval(10, 20, method="wilson").method == "wilson"
    assert binomial_interval(10, 20, method="cp").method == "clopper_pearson"
    assert binomial_interval(10, 20, method="hoeffding").method == "hoeffding"
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
    level = 0.95
    point = ConfidenceInterval(0.5, 0.5, level, "wilson")
    out = score_interval_transform(point, 8)
    assert (out.lo, out.hi) == (0.0, 0.0)
    mono = score_interval_transform(ConfidenceInterval(0.51, 0.53, level, "wilson"), 8)
    assert mono.lo == pytest.approx(8 * (1 - binary_entropy(0.51)), abs=1e-12)
    assert mono.hi == pytest.approx(8 * (1 - binary_entropy(0.53)), abs=1e-12)
    # an interval straddling 1/2 has an interior minimum of zero
    wide = score_interval_transform(ConfidenceInterval(0.49, 0.53, level, "wilson"), 8)
    assert wide.lo == 0.0
    assert wide.hi == pytest.approx(8 * (1 - binary_entropy(0.53)), abs=1e-12)
    # entirely below 1/2 the map is decreasing
    low = score_interval_transform(ConfidenceInterval(0.40, 0.45, level, "wilson"), 8)
    assert low.lo == pytest.approx(8 * (1 - binary_entropy(0.45)), abs=1e-12)
    assert low.hi == pytest.approx(8 * (1 - binary_entropy(0.40)), abs=1e-12)


def test_symmetric_score_estimate_reference():
    rep = symmetric_score_estimate(1000, 1000, 8)
    assert rep.score == pytest.approx(8.0)
    rep = symmetric_score_estimate(500, 1000, 8)
    assert rep.score == pytest.approx(0.0)
    assert rep.method == "symmetric_estimate"
    assert rep.interval[0] <= rep.score <= rep.interval[1]


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
        ScoreReport(score=-0.5, method="plug_in")
    with pytest.raises(ValueError):
        ScoreReport(score=2.0, method="plug_in", interval=(0.0, 1.0))


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
        if ci.half_width <= delta / 2:
            crossing = trials
            break
    assert crossing is not None
    assert target / 2 <= crossing <= 8 * target
