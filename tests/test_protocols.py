import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (asym_path_success, brute_force_one_bit_optimum, majority_average_success,
                     majority_encode, pyramid_success_closed_form)
from racbox import protocols
from racbox.boxes import (AsymmetricCell, BoxTable, ExplicitCell, IsotropicCell,
                          QuantumPhiCell, pr_box)
from racbox.capacity import run_hard_copy_probe
from racbox.estimation import normal_quantile
from racbox.protocols import (PyramidProtocol, classical_avg_success_closed_form,
                              pyramid_monte_carlo)
from racbox.rng import substream

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


# Box tables are indexed [2s + t, 2A + B]: the identity gives A = s, B = t
ECHO_INPUTS = np.eye(4)
ZERO_OUTPUTS = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))  # A = B = 0
# Alice outputs 1 with probability 0.3 on every input
BIASED = ExplicitCell(BoxTable(0.6 * pr_box().probs + 0.4 * ZERO_OUTPUTS))


def _heap_reference(db, special, query, depth):
    """(message, output) of a pyramid of ZERO_OUTPUTS cells with one
    ECHO_INPUTS cell at heap index ``special``."""
    def message(node, lo, width):
        if width == 1:
            return int(db[lo])
        left = message(2 * node + 1, lo, width // 2)
        right = message(2 * node + 2, lo + width // 2, width // 2)
        a = left ^ right if node == special else 0
        return left ^ a

    msg = out = message(0, 0, 1 << depth)
    node = 0
    for r in range(depth):
        t = (query >> (depth - 1 - r)) & 1
        out ^= t if node == special else 0
        node = 2 * node + 1 + t
    return msg, out


@pytest.mark.parametrize("special", range(7))
def test_alice_routing_matches_heap_recursion(special):
    # Alice's output at a node depends on its input s, so a node that reads
    # another node's table changes the message; uniform Alice marginals would
    # hide this, hence the deterministic biased cells.
    depth, episodes, seed = 3, 64, 40 + special
    cells = tuple(ExplicitCell(BoxTable(ECHO_INPUTS if k == special else ZERO_OUTPUTS))
                  for k in range((1 << depth) - 1))
    proto = PyramidProtocol(depth=depth, cells=cells)
    db = substream(seed, protocols._DB_STREAM).integers(
        0, 2, size=(episodes, 1 << depth), dtype=np.uint8)
    for q in range(1 << depth):
        batch = pyramid_monte_carlo(proto, episodes, seed=seed, query=q)
        assert np.array_equal(batch.targets, db[:, q])
        for i in range(episodes):
            msg, out = _heap_reference(db[i], special, q, depth)
            assert (int(batch.messages[i]), int(batch.outputs[i])) == (msg, out)


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
    # the tree draws 2^n cells per episode: 600_000 episodes at depth 12 are
    # above 2^31 draws, though their batch takes only 14 MB
    with pytest.raises(ValueError, match="2\\^31 cell draws"):
        pyramid_monte_carlo(PyramidProtocol.uniform(12, BIASED), 600_000, seed=1)
    # the path draws n cells per episode, so the same count of draws does not
    # bound it: 2^15 * 300_000 is above 2^31
    batch = pyramid_monte_carlo(PyramidProtocol.uniform(15, IsotropicCell(0.9)), 300_000, seed=1)
    assert batch.path_errors.shape == (300_000, 15)
    assert batch.parity_identity_holds()


def test_an_infeasible_tree_fails_before_stacking_node_tables():
    # the source and its draw guard are decided from the one distinct cell,
    # so the 2^20 - 1 per-node tables (about 100 MiB) are never stacked; the
    # time is taken untraced, since tracemalloc slows the pass over the cells
    proto = PyramidProtocol.uniform(20, BIASED)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^31 cell draws"):
        pyramid_monte_carlo(proto, 10_000_000, seed=1)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\^31 cell draws"):
            pyramid_monte_carlo(proto, 10_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


def test_oversized_batch_fails_before_allocating():
    # 2^28 depth-1 episodes need 3 GiB of batch
    proto = PyramidProtocol.uniform(1, IsotropicCell(0.5))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            pyramid_monte_carlo(proto, 1 << 28, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_working_memory_is_bounded():
    # the full (episodes, 2^depth) arrays would peak at about 255 MB here
    proto = PyramidProtocol.uniform(10, IsotropicCell(0.75))
    tracemalloc.start()
    try:
        pyramid_monte_carlo(proto, 20_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_tree_working_memory_is_bounded():
    # biased marginals run the full tree: 2^10 database bits per episode
    proto = PyramidProtocol.uniform(10, BIASED)
    tracemalloc.start()
    try:
        pyramid_monte_carlo(proto, 20_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


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


def _assert_same_rows(batch, reference, rows):
    for name in ("queries", "targets", "outputs", "messages", "path_errors"):
        got, want = getattr(batch, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want[:rows]), name


def test_monte_carlo_batch_is_reproducible_and_size_stable(monkeypatch):
    proto = PyramidProtocol.uniform(2, IsotropicCell(0.7))
    a = pyramid_monte_carlo(proto, 5_000, seed=77)
    b = pyramid_monte_carlo(proto, 5_000, seed=77)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.path_errors, b.path_errors)
    # episode i does not depend on the batch size
    c = pyramid_monte_carlo(proto, 2_500, seed=77)
    assert np.array_equal(a.outputs[:2_500], c.outputs)
    # nor on the chunk size, for uniform and biased Alice marginals, with
    # random and pinned queries; 1_003 episodes end in a partial chunk
    biased = ExplicitCell(BoxTable(0.6 * pr_box().probs + 0.4 * ZERO_OUTPUTS))
    cases = [(PyramidProtocol.uniform(depth, cell), query) for depth in (1, 2, 3, 5)
             for cell in (IsotropicCell(0.7), biased) for query in (None, 1)]
    reference = [pyramid_monte_carlo(proto, 1_003, seed=78, query=query)
                 for proto, query in cases]
    for budget in (1, 64, 1000, 4096):
        monkeypatch.setattr(protocols, "_CHUNK_CELL_DRAWS", budget)
        for (proto, query), ref in zip(cases, reference):
            for episodes in (1_003, 501):
                _assert_same_rows(pyramid_monte_carlo(proto, episodes, seed=78, query=query),
                                  ref, episodes)


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
# Path loop against the full tree
# ---------------------------------------------------------------------------


def _batch_digest(batch):
    h = hashlib.sha256()
    for name in ("queries", "targets", "outputs", "messages", "path_errors"):
        arr = getattr(batch, name)
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _joint_counts(batch, depth):
    """Counts over (query, target, output, message, path error bits)."""
    errors = batch.path_errors.astype(np.int64) @ (1 << np.arange(depth))
    key = ((batch.queries * 2 + batch.targets) * 2 + batch.outputs) * 2 + batch.messages
    return np.bincount((key << depth) + errors, minlength=8 << (2 * depth))


def _node_tables(proto):
    return protocols._node_tables(proto, protocols._cell_tables(proto))


def _path_against_tree(proto, seed, episodes=100_000):
    """Two-sample chi-square (statistic, degrees of freedom) between the path
    and the tree loop, run on separate seeds."""
    pa1, pb1 = _node_tables(proto)
    depth = proto.depth
    path = _joint_counts(protocols._sample(pa1, pb1, episodes, seed, None,
                                           protocols._path_levels), depth)
    tree = _joint_counts(protocols._sample(pa1, pb1, episodes, seed + 10, None,
                                           protocols._tree_levels), depth)
    seen = (path + tree) > 0
    chi2 = float(((path - tree)[seen] ** 2 / (path + tree)[seen]).sum())
    return chi2, int(seen.sum()) - 1


def _chi2_upper(df, alpha):
    """Wilson-Hilferty approximation of the chi-square upper quantile."""
    z = normal_quantile(1.0 - alpha)
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


def _mixed_biases(depth):
    return PyramidProtocol(depth=depth, cells=tuple(
        IsotropicCell(b) for b in np.linspace(0.95, 0.2, (1 << depth) - 1)))


LAW_CELLS = {
    "isotropic": lambda depth: PyramidProtocol.uniform(depth, IsotropicCell(0.6)),
    "asymmetric": lambda depth: PyramidProtocol.uniform(depth, AsymmetricCell(0.9, 0.3)),
    "angle": lambda depth: PyramidProtocol.uniform(depth, QuantumPhiCell(math.pi / 8)),
    "per-node": _mixed_biases,
}


def test_node_tables_are_built_once_per_distinct_cell(monkeypatch):
    calls = []
    build = IsotropicCell.conditional_tables

    def counted(cell):
        calls.append(cell)
        return build(cell)

    monkeypatch.setattr(IsotropicCell, "conditional_tables", counted)
    cell = IsotropicCell(0.7)
    pa1, pb1 = _node_tables(PyramidProtocol.uniform(12, cell))
    assert calls == [cell]
    assert np.all(pa1 == build(cell)[0]) and np.all(pb1 == build(cell)[1])
    calls.clear()
    mixed = _mixed_biases(3)
    pa1, pb1 = _node_tables(mixed)
    assert len(calls) == 7
    for k, node in enumerate(mixed.cells):
        assert np.array_equal(pa1[k], build(node)[0]) and np.array_equal(pb1[k], build(node)[1])


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("kind", sorted(LAW_CELLS))
def test_path_loop_matches_the_tree_in_law(kind, depth):
    # two-sample chi-square over the joint of every recorded bit; the tree
    # loop, which encodes the whole database, is the reference
    proto = LAW_CELLS[kind](depth)
    pa1, _ = _node_tables(proto)
    assert np.all(pa1 == 0.5)
    chi2, df = _path_against_tree(proto, seed=60 + depth)
    assert chi2 < _chi2_upper(df, 1e-4), f"chi2 {chi2:.1f} over {df} degrees of freedom"


def test_path_law_is_wrong_for_biased_marginals():
    # why biased cells keep the tree: the same path loop misses the tree's law
    chi2, df = _path_against_tree(PyramidProtocol.uniform(3, BIASED), seed=63)
    assert chi2 > _chi2_upper(df, 1e-4)


def test_biased_marginals_run_the_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("path loop entered")

    # one biased node is enough to keep the whole tree
    iso = IsotropicCell(0.7)
    mixed = PyramidProtocol(depth=3, cells=(iso,) * 5 + (BIASED, iso))
    monkeypatch.setattr(protocols, "_path_levels", refuse)
    for proto in (PyramidProtocol.uniform(1, BIASED), PyramidProtocol.uniform(3, BIASED), mixed):
        assert pyramid_monte_carlo(proto, 100, seed=1).parity_identity_holds()
    # and uniform marginals never run it
    monkeypatch.undo()
    monkeypatch.setattr(protocols, "_tree_levels", refuse)
    for cell in (iso, AsymmetricCell(0.9, 0.3), QuantumPhiCell(math.pi / 8)):
        proto = PyramidProtocol.uniform(3, cell)
        assert pyramid_monte_carlo(proto, 100, seed=1).parity_identity_holds()


def test_biased_batches_keep_their_bytes():
    # sha256 of the tree loop's batches as recorded before the path loop was
    # added: biased marginals still draw the same database and cell bits
    want = {(3, None): "0a1a6c2dbf6233106a1c46bf7055a898a9c441d8297b98e679beff15aa427853",
            (4, 5): "265dce7ee69a0ef1d06faf90fa8e98ae19be0257d8bbdb7d8621122d4f0c3226"}
    for (depth, query), digest in want.items():
        batch = pyramid_monte_carlo(PyramidProtocol.uniform(depth, BIASED), 2_000,
                                    seed=90, query=query)
        assert _batch_digest(batch) == digest


def test_uniform_batches_keep_their_bytes():
    # sha256 of the path source's batches as recorded before the two loops
    # shared one decoder; 2_003 episodes end in a partial chunk
    want = [(PyramidProtocol.uniform(5, IsotropicCell(0.7)), 2_000, None,
             "521dfcb60921719d4f3dc7eabc475201b3c0355dee82f5d5299178804968c483"),
            (PyramidProtocol.uniform(4, AsymmetricCell(0.9, 0.3)), 2_000, 5,
             "a9d1d31dd515c0734da3a66fa74c0ce09d666dd6e5434dc650491a74fd96bfd0"),
            (PyramidProtocol.uniform(3, QuantumPhiCell(math.pi / 8, 0.9)), 2_000, None,
             "1d442decceb65c5c63e72276f033a05393cdb3fa6e8d43971451426e32194742"),
            (_mixed_biases(3), 2_000, None,
             "b98ee78103a6e6e4573e142d27f42f604a8f10730b93366a0b29cbc9c4186b71"),
            (PyramidProtocol.uniform(1, IsotropicCell(0.7)), 2_003, None,
             "2abb4a5439db760dfa1f7450c08b9b33c07c29956b3eca71fd7604a737515a7d")]
    for proto, episodes, query, digest in want:
        batch = pyramid_monte_carlo(proto, episodes, seed=90, query=query)
        assert _batch_digest(batch) == digest


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
