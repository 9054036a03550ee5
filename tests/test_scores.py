import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import asym_path_success
from racbox.boxes import TSIRELSON_BIAS
from racbox.info import LN2, binary_entropy
from racbox.rng import substream
from racbox.scores import (asym_exact_score, closed_form_score,
                           conditional_score_from_records, critical_bias,
                           critical_bias_asymptotic, critical_constant,
                           exact_conditional_score, optimize_regularized_angle,
                           regularized_angle_utility)


def test_closed_form_reference_values():
    assert closed_form_score(10, 0.5) == pytest.approx(7.04e-4, abs=1e-6)
    assert closed_form_score(20, 0.75) == pytest.approx(7.607, abs=1e-3)
    assert closed_form_score(1, TSIRELSON_BIAS) == pytest.approx(0.798, abs=1e-3)


def test_closed_form_guards():
    with pytest.raises(ValueError):
        closed_form_score(0, 0.5)
    with pytest.raises(ValueError):
        closed_form_score(61, 0.5)
    with pytest.raises(ValueError):
        closed_form_score(5, 1.0001)


@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_monotone_in_bias(n, e1, e2):
    lo, hi = sorted((e1, e2))
    assert closed_form_score(n, lo) <= closed_form_score(n, hi) + 1e-15


def test_strictly_monotone_on_open_interval():
    for n in (1, 7, 23, 40):
        grid = np.linspace(0.05, 1.0, 200)
        vals = [closed_form_score(n, float(e)) for e in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_exponential_growth_lower_bound():
    # score >= (2 E^2)^n / (2 ln 2); the two sides coincide to leading order
    # at small E^n, so allow rounding-level relative slack
    for n in range(1, 41):
        for e in np.linspace(0.0, 1.0, 21):
            bound = (2.0 * e * e) ** n / (2.0 * LN2)
            assert closed_form_score(n, float(e)) >= bound * (1.0 - 1e-12) - 1e-15


def test_supercritical_crossings():
    for e in (0.72, 0.75):
        crossing = next((n for n in range(1, 21) if closed_form_score(n, e) > 1.0), None)
        assert crossing is not None
    for e in (0.5, 0.6, 0.7, TSIRELSON_BIAS):
        assert all(closed_form_score(n, e) <= 1.0 for n in range(1, 61))


def test_critical_constant_and_convergence():
    assert critical_constant() == pytest.approx(0.721348, abs=1e-6)
    assert critical_constant() == pytest.approx(1 / (2 * LN2), abs=0)
    assert closed_form_score(10, TSIRELSON_BIAS) == pytest.approx(0.721, abs=1e-3)
    assert abs(closed_form_score(40, TSIRELSON_BIAS) - critical_constant()) < 1e-6
    seq = [closed_form_score(n, TSIRELSON_BIAS) for n in range(1, 41)]
    assert all(a > b for a, b in zip(seq, seq[1:]))  # monotone approach from above
    assert all(v <= 1.0 for v in seq)


# ---------------------------------------------------------------------------
# Asymmetric scores
# ---------------------------------------------------------------------------


def naive_asym_score(n, e0, e1):
    # independent oracle: explicit sum over all 2^n query paths
    total = 0.0
    for path in product((0, 1), repeat=n):
        p = asym_path_success(e0, e1, path)
        total += 1.0 - binary_entropy(p)
    return total


def test_asym_matches_naive_enumeration():
    rng = substream(30)
    for n in range(1, 13):
        e0, e1 = rng.uniform(0, 1, size=2)
        assert asym_exact_score(n, float(e0), float(e1)) == pytest.approx(
            naive_asym_score(n, float(e0), float(e1)), abs=1e-10)


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0, max_value=1))
def test_asym_isotropic_reduction(n, e):
    # binomial regrouping is algebraically exact; only summation order differs
    assert asym_exact_score(n, e, e) == pytest.approx(closed_form_score(n, e),
                                                      abs=1e-12, rel=1e-12)


def test_asym_perfect_cells():
    assert asym_exact_score(2, 1.0, 1.0) == pytest.approx(4.0, abs=0)


def test_asym_violation_condition():
    # bias pair outside the unit circle eventually exceeds one bit
    crossing = next((n for n in range(1, 61) if asym_exact_score(n, 0.9, 0.5) > 1.0), None)
    assert crossing is not None
    # on or inside the unit circle the score never crosses one
    for e0, e1 in [(1.0, 0.0), (0.9, math.sqrt(1 - 0.81)), (0.6, 0.6), (0.7, 0.7),
                   (0.8, 0.5), (TSIRELSON_BIAS, TSIRELSON_BIAS)]:
        assert e0 * e0 + e1 * e1 <= 1.0 + 1e-12
        for n in range(1, 61):
            assert asym_exact_score(n, e0, e1) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------


def test_critical_bias_reference_values():
    assert critical_bias(10, 1.0).critical_bias == pytest.approx(0.7187, abs=5e-4)
    assert critical_bias(20, 1.0).critical_bias == pytest.approx(0.7131, abs=5e-4)


def test_critical_bias_result_invariants():
    res = critical_bias(12, 1.0)
    assert res.bracket[0] < res.critical_bias < res.bracket[1]
    assert abs(closed_form_score(12, res.critical_bias) - 1.0) <= 1e-9
    assert res.iterations <= 200


def test_critical_bias_no_root():
    with pytest.raises(ValueError):
        critical_bias(3, 8.0)
    with pytest.raises(ValueError):
        critical_bias(3, 0.0)


def test_critical_bias_asymptotic_agreement():
    exact = critical_bias(20, 1.0).critical_bias
    approx = critical_bias_asymptotic(20, 1.0)
    assert abs(exact - approx) / exact < 0.01


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.05, max_value=4.0))
def test_critical_bias_residual(n, capacity):
    if capacity >= 2.0 ** n:
        return
    res = critical_bias(n, capacity)
    assert abs(closed_form_score(n, res.critical_bias) - capacity) <= 1e-9


# ---------------------------------------------------------------------------
# Conditional score
# ---------------------------------------------------------------------------


def _record_stream(n_bits, episodes, seed, db_sampler, channel):
    rng = substream(seed)
    out = []
    for _ in range(episodes):
        db = db_sampler(rng)
        b = int(rng.integers(0, n_bits))
        beta = channel(db, b, rng)
        out.append((db, b, beta))
    return out


def test_conditional_score_independent_perfect():
    # independent unbiased bits with a perfect decoder: score -> N
    n = 3
    records = _record_stream(
        n, 30_000, seed=31,
        db_sampler=lambda rng: tuple(int(v) for v in rng.integers(0, 2, size=n)),
        channel=lambda db, b, rng: db[b])
    rep = conditional_score_from_records(records, n)
    assert rep.score == pytest.approx(n, abs=0.01)
    assert rep.score >= rep.fano_bound - 1e-9


def test_conditional_score_degenerate_database():
    # identical bits: one transmitted bit answers every query, so the
    # conditional score collapses to one while the naive per-query sum is N
    n = 4
    records = _record_stream(
        n, 40_000, seed=32,
        db_sampler=lambda rng: (lambda v: (v,) * n)(int(rng.integers(0, 2))),
        channel=lambda db, b, rng: db[b])
    rep = conditional_score_from_records(records, n)
    assert rep.score == pytest.approx(1.0, abs=0.01)
    assert sum(1.0 for _ in range(n)) == n  # naive sum would be N: each branch is perfect
    assert rep.score >= rep.fano_bound - 1e-9


def test_conditional_score_exact_mode():
    n = 4
    identical = {tuple([v] * n): 0.5 for v in (0, 1)}
    assert exact_conditional_score(identical, lambda db, k: float(db[k]), n) == \
        pytest.approx(1.0, abs=1e-12)
    independent = {db: 2.0 ** -n for db in product((0, 1), repeat=n)}
    assert exact_conditional_score(independent, lambda db, k: float(db[k]), n) == \
        pytest.approx(n, abs=1e-12)
    # a noisy channel on independent bits reduces to the symmetric closed form
    flip = 0.2
    noisy = exact_conditional_score(
        independent, lambda db, k: (1 - flip) if db[k] else flip, n)
    assert noisy == pytest.approx(n * (1 - binary_entropy(1 - flip)), abs=1e-12)


def test_conditional_score_fano_audit_randomized():
    # the bound holds on every run, including correlated noisy channels
    n = 3
    def sampler(rng):
        first = int(rng.integers(0, 2))
        rest = [int(rng.integers(0, 2)) if rng.random() < 0.3 else first
                for _ in range(n - 1)]
        return (first, *rest)
    records = _record_stream(
        n, 20_000, seed=33, db_sampler=sampler,
        channel=lambda db, b, rng: db[b] ^ int(rng.random() < 0.15))
    rep = conditional_score_from_records(records, n)
    assert rep.score >= rep.fano_bound - 1e-9


def test_conditional_score_sparse_context_warning():
    n = 3
    records = _record_stream(
        n, 60, seed=34,
        db_sampler=lambda rng: tuple(int(v) for v in rng.integers(0, 2, size=n)),
        channel=lambda db, b, rng: db[b])
    rep = conditional_score_from_records(records, n, min_context_count=20)
    assert rep.sparse_contexts  # tiny sample must flag its contexts


def test_conditional_score_size_guard():
    with pytest.raises(ValueError):
        conditional_score_from_records([], 13)
    with pytest.raises(ValueError):
        exact_conditional_score({}, lambda db, k: 0.5, 13)


# ---------------------------------------------------------------------------
# Regularized angle optimization
# ---------------------------------------------------------------------------


def test_angle_opt_no_penalty_hits_endpoint():
    phi, utility = optimize_regularized_angle(10, 0.0)
    assert phi == pytest.approx(math.pi / 4, abs=1e-6)
    assert utility == pytest.approx(closed_form_score(10, TSIRELSON_BIAS), abs=1e-6)


def test_angle_opt_heavy_penalty_collapses():
    phi, _ = optimize_regularized_angle(10, 50.0)
    assert phi < 0.01


def test_angle_opt_moderate_penalty_interior():
    phi, utility = optimize_regularized_angle(10, 0.2)
    assert 0.0 + 1e-3 < phi < math.pi / 4 - 1e-3
    # no grid point beats the reported optimum
    grid = np.linspace(0.0, math.pi / 4, 2001)
    best_grid = max(regularized_angle_utility(float(p), 10, 0.2) for p in grid)
    assert utility >= best_grid - 1e-9


def test_angle_opt_bimodal_branch_selection():
    # near the branch swap the global optimum must win, not a local one
    for lam in (0.6, 0.7, 0.75, 0.8, 1.0):
        phi, utility = optimize_regularized_angle(10, lam)
        grid = np.linspace(0.0, math.pi / 4, 4001)
        best_grid = max(regularized_angle_utility(float(p), 10, lam) for p in grid)
        assert utility >= best_grid - 1e-9
