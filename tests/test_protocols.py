import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from racbox.boxes import AsymmetricCell, ExplicitCell, IsotropicCell, QuantumPhiCell
from racbox.capacity import run_hard_copy_probe
from racbox.protocols import (PyramidProtocol, asym_path_success,
                              brute_force_one_bit_optimum,
                              classical_avg_success_closed_form, majority_average_success,
                              majority_encode, pyramid_monte_carlo,
                              pyramid_success_closed_form)

CHI2_CRIT_DF1_ALPHA01 = 6.635  # chi-square critical value, df=1, alpha=0.01


def binom_3sigma(p, trials):
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def per_query_rates(batch, n_queries):
    wins, totals = batch.per_query_counts(n_queries)
    return wins / totals, totals


@pytest.mark.parametrize("level, offset", [(0, 0), (1, 1), (2, 1)])
def test_nonuniform_protocol_routes_msb_first(level, offset):
    # One coin-flip node in a tree of perfect cells: only queries whose path
    # runs through it lose accuracy.  A uniform tree cannot catch a routing
    # bug, because the product of path biases ignores the order of the path.
    depth = 3
    noisy = (1 << level) - 1 + offset
    cells = tuple(IsotropicCell(0.0 if k == noisy else 1.0) for k in range((1 << depth) - 1))
    proto = PyramidProtocol(depth=depth, cells=cells)
    episodes = 4_000
    for q in range(1 << depth):
        batch = pyramid_monte_carlo(proto, episodes, seed=30 + q, query=q)
        if q >> (depth - level) == offset:  # path prefix, most significant bit first
            p = batch.success_count / episodes
            assert abs(p - 0.5) <= binom_3sigma(0.5, episodes)
        else:
            assert batch.successes.all()


# ---------------------------------------------------------------------------
# Seed protocol: the depth-1 pyramid
# ---------------------------------------------------------------------------


def test_seed_perfect_cell_never_errs():
    proto = PyramidProtocol.uniform(1, IsotropicCell(1.0))
    batch = pyramid_monte_carlo(proto, 2_000, seed=1)
    assert batch.successes.all()
    assert not batch.path_errors.any()
    assert set(batch.queries.tolist()) == {0, 1}


def test_seed_success_rate_and_chsh_aggregate():
    # empirical P0, P1 near (1+E)/2 and 2(P0+P1) near the cell's CHSH value
    proto = PyramidProtocol.uniform(1, IsotropicCell(0.75))
    (p0, p1), counts = per_query_rates(pyramid_monte_carlo(proto, 200_000, seed=2), 2)
    assert abs(p0 - 0.875) <= binom_3sigma(0.875, counts[0])
    assert abs(p1 - 0.875) <= binom_3sigma(0.875, counts[1])
    assert 2.0 * (p0 + p1) == pytest.approx(3.5, abs=0.02)


def test_seed_chsh_identity_beyond_isotropy():
    # 2(P0 + P1) equals the cell's CHSH value for any no-signaling cell,
    # including the raw angle family whose win rate depends on the inputs
    cell = QuantumPhiCell(math.pi / 8, 1.0)
    from racbox.boxes import chsh_value
    target_s = chsh_value(cell.as_table())
    proto = PyramidProtocol.uniform(1, cell)
    (p0, p1), _ = per_query_rates(pyramid_monte_carlo(proto, 150_000, seed=55), 2)
    s_hat = 2.0 * (p0 + p1)
    assert s_hat == pytest.approx(target_s, abs=0.02)


def test_batch_size_guard():
    proto = PyramidProtocol.uniform(20, IsotropicCell(0.5))
    with pytest.raises(ValueError):
        pyramid_monte_carlo(proto, 10_000_000, seed=1)


# ---------------------------------------------------------------------------
# Pyramid protocol
# ---------------------------------------------------------------------------


def test_pyramid_perfect_cells_all_queries_and_dbs():
    proto = PyramidProtocol.uniform(3, IsotropicCell(1.0))
    for q in range(8):
        batch = pyramid_monte_carlo(proto, 2_000, seed=5 + q, query=q)
        assert batch.successes.all()
        assert not batch.path_errors.any()


def test_pyramid_parity_identity_every_episode():
    proto = PyramidProtocol.uniform(3, IsotropicCell(0.4))
    for q in range(8):
        batch = pyramid_monte_carlo(proto, 250, seed=6 + q, query=q)
        parity = batch.path_errors.sum(axis=1) % 2
        assert np.array_equal(batch.outputs, batch.targets ^ parity)


def test_pyramid_shape_errors():
    proto = PyramidProtocol.uniform(2, IsotropicCell(0.5))
    with pytest.raises(ValueError):
        pyramid_monte_carlo(proto, 10, seed=0, query=4)
    with pytest.raises(ValueError):
        PyramidProtocol(depth=2, cells=(IsotropicCell(0.5),) * 2)


def test_message_independent_of_query():
    # same seed, different pinned queries: byte-identical messages
    proto = PyramidProtocol.uniform(4, IsotropicCell(0.6))
    reference = pyramid_monte_carlo(proto, 1_000, seed=99, query=0).messages
    for q in range(1, 16):
        assert np.array_equal(pyramid_monte_carlo(proto, 1_000, seed=99, query=q).messages,
                              reference)


def test_monte_carlo_matches_closed_form():
    proto = PyramidProtocol.uniform(3, IsotropicCell(0.5))
    batch = pyramid_monte_carlo(proto, 200_000, seed=10)
    p = batch.success_count / 200_000
    target = pyramid_success_closed_form(3, 0.5)
    assert target == 0.5625
    assert abs(p - target) <= binom_3sigma(target, 200_000)
    assert batch.parity_identity_holds()


def test_monte_carlo_batch_is_reproducible_and_size_stable():
    proto = PyramidProtocol.uniform(2, IsotropicCell(0.7))
    a = pyramid_monte_carlo(proto, 5_000, seed=77)
    b = pyramid_monte_carlo(proto, 5_000, seed=77)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.path_errors, b.path_errors)
    # episode i does not depend on the batch size
    c = pyramid_monte_carlo(proto, 2_500, seed=77)
    assert np.array_equal(a.outputs[:2_500], c.outputs)


def test_monte_carlo_query_symmetry():
    proto = PyramidProtocol.uniform(3, IsotropicCell(0.5))
    batch = pyramid_monte_carlo(proto, 400_000, seed=11)
    wins, totals = batch.per_query_counts(8)
    target = pyramid_success_closed_form(3, 0.5)
    for k in range(8):
        assert abs(wins[k] / totals[k] - target) <= binom_3sigma(target, totals[k])


def test_monte_carlo_parity_law_distribution():
    # parity of recorded error bits is Bernoulli((1 - E^n)/2)
    proto = PyramidProtocol.uniform(4, IsotropicCell(0.6))
    batch = pyramid_monte_carlo(proto, 300_000, seed=12)
    odd = float((batch.path_errors.sum(axis=1) % 2).mean())
    target = (1.0 - 0.6 ** 4) / 2.0
    assert abs(odd - target) <= binom_3sigma(target, 300_000)


def test_monte_carlo_scalar_agreement():
    # the batch sampler matches the per-path closed form of an asymmetric cell
    proto = PyramidProtocol.uniform(2, AsymmetricCell(0.9, 0.3))
    batch = pyramid_monte_carlo(proto, 150_000, seed=13, query=3)
    p_batch = batch.success_count / 150_000
    target = asym_path_success(0.9, 0.3, (1, 1))
    assert abs(p_batch - target) <= binom_3sigma(target, 150_000)


def test_error_bits_independent_of_inputs():
    # chi-square independence between Bob's cell input, the query bit of the
    # depth-1 pyramid, and the recorded error bit
    proto = PyramidProtocol.uniform(1, IsotropicCell(0.5))
    batch = pyramid_monte_carlo(proto, 80_000, seed=17)
    table = np.zeros((2, 2))
    np.add.at(table, (batch.queries, batch.path_errors[:, 0]), 1)
    total = table.sum()
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / total
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF1_ALPHA01


def test_quantum_cell_pyramid_monte_carlo():
    proto = PyramidProtocol.uniform(2, QuantumPhiCell(math.pi / 4, 1.0))
    batch = pyramid_monte_carlo(proto, 200_000, seed=20)
    # raw phi-family cells are asymmetric across inputs, but the pyramid's
    # success averages over the uniform message distribution; check range
    p = batch.success_count / 200_000
    assert 0.5 < p < 1.0
    assert batch.parity_identity_holds()


def test_explicit_cell_pyramid_runs():
    cell = ExplicitCell(IsotropicCell(0.8).as_table())
    proto = PyramidProtocol.uniform(2, cell)
    batch = pyramid_monte_carlo(proto, 100_000, seed=21)
    p = batch.success_count / 100_000
    target = pyramid_success_closed_form(2, 0.8)
    assert abs(p - target) <= binom_3sigma(target, 100_000)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_pyramid_success_closed_form_values():
    assert pyramid_success_closed_form(4, 1.0) == 1.0
    assert pyramid_success_closed_form(1, 0.75) == 0.875
    assert pyramid_success_closed_form(10, 2 ** -0.5) == pytest.approx((1 + 2 ** -5) / 2)
    assert pyramid_success_closed_form(10, 2 ** -0.5) == pytest.approx(0.515625)


@given(st.integers(min_value=1, max_value=12), st.floats(min_value=0, max_value=1))
def test_asym_path_success_isotropic_reduction(n, bias):
    for path in ((0,) * n, (1,) * n, tuple(k % 2 for k in range(n))):
        assert asym_path_success(bias, bias, path) == pytest.approx(
            pyramid_success_closed_form(n, bias), abs=1e-12)


def test_asym_path_success_values():
    assert asym_path_success(1.0, 1.0, (0, 1, 1, 0)) == 1.0
    # each path bit selects the matching branch bias
    assert asym_path_success(0.9, 0.6, (0, 1, 0)) == pytest.approx((1 + 0.9 * 0.6 * 0.9) / 2)
    assert asym_path_success(0.9, 0.6, (0, 1, 0)) == pytest.approx(0.743)
    assert asym_path_success(0.9, 0.6, (1, 0, 1)) == pytest.approx((1 + 0.6 * 0.9 * 0.6) / 2)


# ---------------------------------------------------------------------------
# Majority benchmark
# ---------------------------------------------------------------------------


def test_majority_encode_reference():
    assert majority_encode([1, 1, 0]) == 1
    assert majority_encode([0, 0, 1]) == 0
    assert majority_encode([1, 0]) == 0  # tie breaks to 0


def test_majority_average_success_enumeration():
    assert majority_average_success(3) == pytest.approx(0.75, abs=0)
    assert majority_average_success(2) == pytest.approx(0.75, abs=0)
    for n in (2, 3, 4, 5):
        assert majority_average_success(n) == pytest.approx(
            classical_avg_success_closed_form(n), abs=1e-12)


def test_closed_form_matches_exhaustive_optimum():
    for n in (2, 3):
        assert brute_force_one_bit_optimum(n) == pytest.approx(
            classical_avg_success_closed_form(n), abs=1e-12)


def test_closed_form_large_n_asymptotics():
    p = classical_avg_success_closed_form(1024)
    assert p == pytest.approx(0.5 + 1.0 / math.sqrt(2 * math.pi * 1024), abs=1e-4)


def test_closed_form_overflow_guard():
    with pytest.raises(OverflowError):
        classical_avg_success_closed_form(2_000_000)


# ---------------------------------------------------------------------------
# Copy baseline
# ---------------------------------------------------------------------------


def test_copy_protocol_limits():
    # all bits copied: every query exact; none copied: every answer a coin
    assert run_hard_copy_probe(8, 8, 20_000, seed=22).observed_score == 8.0
    assert run_hard_copy_probe(8, 0, 20_000, seed=22).observed_score < 0.01


def test_copy_protocol_exact_below_m():
    # queries 0..2 are answered exactly, each worth one full bit, and the
    # coin-answered rest adds a nonnegative remainder
    res = run_hard_copy_probe(4, 3, 20_000, seed=23)
    assert 3.0 <= res.observed_score < 3.01
