import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import racbox.scores as scores
from oracles import asym_path_success
from racbox.boxes import TSIRELSON_BIAS
from racbox.info import LN2, binary_entropy, entropy_deficit
from racbox.rng import substream
from racbox.scores import (asym_exact_score, closed_form_score,
                           conditional_score_from_records, critical_bias,
                           critical_bias_asymptotic, critical_constant, exact_scores,
                           optimize_regularized_angle, regularized_angle_utility)


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
    """(databases, queries, outputs) arrays of ``episodes`` sampled records."""
    rng = substream(seed)
    out = []
    for _ in range(episodes):
        db = db_sampler(rng)
        b = int(rng.integers(0, n_bits))
        beta = channel(db, b, rng)
        out.append((db, b, beta))
    databases, queries, outputs = zip(*out)
    return np.array(databases).reshape(episodes, n_bits), np.array(queries), np.array(outputs)


def test_conditional_score_independent_perfect():
    # independent unbiased bits with a perfect decoder: score -> N
    n = 3
    records = _record_stream(
        n, 30_000, seed=31,
        db_sampler=lambda rng: tuple(int(v) for v in rng.integers(0, 2, size=n)),
        channel=lambda db, b, rng: db[b])
    rep = conditional_score_from_records(*records)
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
    rep = conditional_score_from_records(*records)
    assert rep.score == pytest.approx(1.0, abs=0.01)
    assert sum(1.0 for _ in range(n)) == n  # naive sum would be N: each branch is perfect
    assert rep.score >= rep.fano_bound - 1e-9


def _queried(db, queries):
    return db[np.arange(len(queries)), queries]


def _copy(db):
    """Every query answered with the queried bit."""
    return db


def test_conditional_score_exact_mode():
    n = 4
    identical = np.zeros(1 << n)
    identical[[0, -1]] = 0.5  # all zeros or all ones
    assert sum(exact_scores(n, _copy, identical)[1]) == pytest.approx(1.0, abs=1e-12)
    independent = np.full(1 << n, 2.0 ** -n)
    assert sum(exact_scores(n, _copy, independent)[1]) == pytest.approx(n, abs=1e-12)
    # a noisy channel on independent bits reduces to the symmetric closed form
    flip = 0.2
    noisy = exact_scores(n, lambda db: np.where(db == 1, 1 - flip, flip), independent)[1]
    assert sum(noisy) == pytest.approx(n * (1 - binary_entropy(1 - flip)), abs=1e-12)


def reference_conditional_score(n_bits, weights, p_one):
    """Loop oracle: sum_K sum over contexts a_<K of Pr[a_<K] I(a_K : beta | a_<K).

    ``p_one[w, K]`` is Pr[beta = 1] for database word w and query K.
    """
    per_query = []
    for k in range(n_bits):
        cells = {}  # (context, a_K, beta) -> mass
        for w in range(1 << n_bits):
            ctx, a = w & ((1 << k) - 1), (w >> k) & 1
            for beta, p in ((0, 1 - p_one[w, k]), (1, p_one[w, k])):
                cells[ctx, a, beta] = cells.get((ctx, a, beta), 0.0) + weights[w] * p
        total = 0.0
        for ctx in range(1 << k):
            joint = np.array([[cells[ctx, a, b] for b in (0, 1)] for a in (0, 1)])
            if joint.sum() > 0:
                p = joint / joint.sum()
                outer = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
                mi = sum(p[i, j] * math.log2(p[i, j] / outer[i, j])
                         for i, j in product((0, 1), repeat=2) if p[i, j] > 0)
                total += joint.sum() * mi
        per_query.append(total / weights.sum())
    return per_query


def test_conditional_score_matches_the_loop_oracle():
    # a random law with empty databases and a random stochastic code; the
    # masses are summed in another order, so only rounding may differ
    n = 5
    rng = substream(37)
    weights = rng.dirichlet(np.ones(1 << n)) * (rng.random(1 << n) < 0.8)
    p_one = rng.random((1 << n, n)) * (rng.random((1 << n, n)) < 0.7)

    def answer(db):
        return p_one[db @ (1 << np.arange(n))]

    conditional = exact_scores(n, answer, weights)[1]
    assert conditional == pytest.approx(reference_conditional_score(n, weights, p_one),
                                        abs=1e-12)


def markov_law(n_bits, r):
    """Pr[a] by word for a_0 uniform and a_{k+1} = a_k xor flip(r)."""
    # bit k of w ^ (w >> 1), for k < N - 1, is set where a_{k+1} != a_k
    changes = np.array([bin((w ^ (w >> 1)) & ((1 << (n_bits - 1)) - 1)).count("1")
                        for w in range(1 << n_bits)])
    return 0.5 * r ** changes * (1 - r) ** (n_bits - 1 - changes)


def _copy_first(db):
    return np.repeat(db[:, :1], db.shape[1], axis=1)


@pytest.mark.parametrize("r, unconditional", [
    (0.0, 8.0), (0.05, 3.6814), (0.1, 2.3350), (0.25, 1.2493), (0.5, 1.0)])
def test_markov_copy_first_code(r, unconditional):
    # one copied bit on correlated data: every query seems informed, but
    # given the earlier bits only the first query learns anything
    per_query, conditional = exact_scores(8, _copy_first, markov_law(8, r))
    assert sum(per_query) == pytest.approx(unconditional, abs=1e-4)
    # a_K agrees with a_0 with probability (1 + (1 - 2r)^K) / 2
    assert per_query == pytest.approx([entropy_deficit((1 - 2 * r) ** k) for k in range(8)],
                                      abs=1e-12)
    assert conditional == pytest.approx([1.0] + [0.0] * 7, abs=1e-12)


def test_weighted_blocks_equal_one_block(monkeypatch):
    # a stochastic code on the Markov law: blocks of 1 and of 37 databases
    # (the last one short) give the values of one block of all 256; the
    # masses are summed in another order, so only rounding may differ
    def answer(db):
        return np.where(db == db[:, :1], 0.8, 0.3)

    weights = markov_law(8, 0.1)
    whole = exact_scores(8, answer, weights)
    assert scores._ENUM_BLOCK_BITS >= 8 * 8 * 256
    for bits in (8 * 8, 8 * 8 * 37):
        monkeypatch.setattr(scores, "_ENUM_BLOCK_BITS", bits)
        assert len(list(scores.database_blocks(8))) > 1
        blocked = exact_scores(8, answer, weights)
        for got, expected in zip(blocked, whole):
            assert got == pytest.approx(expected, abs=1e-13)


def test_records_estimate_lands_near_the_exact_conditional():
    # a noisy copy of the queried bit (flip 0.1) on Markov data (r = 0.1),
    # N = 6: query 0 carries 1 - h(0.1) = 0.531 bits and each later one
    # h(0.18) - h(0.1) = 0.211 given its prefix.  At 1e6 episodes the
    # estimate's error over seeds 30-41 spread by about 0.002 per query
    # (0.0023 for query 0, its binomial sd) and 0.005 in the sum; the
    # plug-in bias, 2^K / (2 n_K ln 2) summed, is 3e-4.  The tolerances
    # are five of those spreads.
    n, r, flip, episodes = 6, 0.1, 0.1, 1_000_000
    rng = substream(35)
    first = rng.integers(0, 2, (episodes, 1))
    changes = (rng.random((episodes, n - 1)) < r).astype(np.int64)
    databases = np.bitwise_xor.accumulate(np.concatenate([first, changes], axis=1), axis=1)
    queries = rng.integers(0, n, episodes)
    outputs = _queried(databases, queries) ^ (rng.random(episodes) < flip)
    rep = conditional_score_from_records(databases, queries, outputs)

    def answer(db):
        return np.where(db == 1, 1 - flip, flip)

    exact = exact_scores(n, answer, markov_law(n, r))[1]
    assert exact == pytest.approx([1 - binary_entropy(flip)]
                                  + [binary_entropy(0.18) - binary_entropy(flip)] * 5)
    assert rep.per_query == pytest.approx(exact, abs=0.012)
    assert rep.score == pytest.approx(sum(exact), abs=0.025)
    assert rep.score >= rep.fano_bound


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
    rep = conditional_score_from_records(*records)
    assert rep.score >= rep.fano_bound - 1e-9


def test_conditional_score_sparse_context_warning():
    n = 3
    records = _record_stream(
        n, 60, seed=34,
        db_sampler=lambda rng: tuple(int(v) for v in rng.integers(0, 2, size=n)),
        channel=lambda db, b, rng: db[b])
    rep = conditional_score_from_records(*records, min_context_count=20)
    assert rep.sparse_contexts  # tiny sample must flag its contexts


def test_sparse_contexts_name_the_query_and_its_prefix():
    databases = [[0, 1, 1], [1, 1, 0], [1, 1, 0]]
    rep = conditional_score_from_records(databases, [2, 2, 1], [1, 0, 1], min_context_count=2)
    # query 1 after a_0 = 1; query 2 after (a_0, a_1) = (0, 1) and (1, 1)
    assert rep.sparse_contexts == ((1, (1,)), (2, (0, 1)), (2, (1, 1)))


def test_conditional_score_size_guard():
    with pytest.raises(ValueError, match="N <= 16"):
        conditional_score_from_records(np.zeros((1, 17), dtype=int), [0], [0])
    with pytest.raises(ValueError, match="N <= 16"):
        exact_scores(17, lambda db: np.full(db.shape, 0.5))


def test_sixteen_bits_are_scored_on_both_paths():
    per_query, conditional = exact_scores(16, _copy)
    assert per_query == conditional == (1.0,) * 16
    rng = substream(36)
    databases = rng.integers(0, 2, (1000, 16))
    queries = rng.integers(0, 16, 1000)
    rep = conditional_score_from_records(databases, queries, _queried(databases, queries))
    assert len(rep.per_query) == 16 and rep.score >= rep.fano_bound


def test_invalid_answers_weights_and_records_are_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        exact_scores(3, lambda db: db * 2)
    for table in (lambda db: db[:, 0], lambda db: db.T, lambda db: db[:-1]):
        with pytest.raises(ValueError, match=r"not \(8, 3\)"):
            exact_scores(3, table)
    for weights in (np.ones(7), np.zeros(8), -np.ones(8)):
        with pytest.raises(ValueError, match="weights"):
            exact_scores(3, _copy, weights)
    with pytest.raises(ValueError, match="records"):
        conditional_score_from_records([[0, 2]], [0], [0])
    with pytest.raises(ValueError, match="records"):
        conditional_score_from_records([[0, 1]], [2], [0])
    with pytest.raises(ValueError, match="records"):  # an output is an observed bit
        conditional_score_from_records([[0, 1]], [0], [0.5])
    for databases, queries, outputs in (([[0, 1]] * 2, [0], [0]), ([[0, 1]], [0, 1], [0, 1]),
                                        ([[0, 1]], [0], [0, 1]), ([0, 1], [0, 1], [0, 1])):
        with pytest.raises(ValueError, match="records"):
            conditional_score_from_records(databases, queries, outputs)


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
