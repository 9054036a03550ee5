import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (TSIRELSON_CHSH, chsh_value, loop_box_from_win_probabilities,
                     loop_no_signaling_check, loop_win_probabilities, random_no_signaling_box,
                     twirl)
from racbox.boxes import (AsymmetricCell, BoxTable, ExplicitCell, IsotropicCell,
                          QuantumPhiCell, SignalingBoxError, TSIRELSON_BIAS,
                          box_from_win_probabilities, iso_bias_from_angle,
                          make_isotropic, no_signaling_check, pr_box,
                          quantum_phi_correlators)
from racbox.protocols import PyramidProtocol, pyramid_monte_carlo
from racbox.rng import substream


def test_isotropic_entries_and_win_probability():
    box = make_isotropic(0.6)
    for s, t in product((0, 1), repeat=2):
        assert box.win_probabilities()[2 * s + t] == pytest.approx(0.8, abs=1e-15)
        for a, b in product((0, 1), repeat=2):
            expected = (1 + 0.6) / 4 if (a ^ b) == (s & t) else (1 - 0.6) / 4
            assert box.probs[2 * s + t, 2 * a + b] == pytest.approx(expected, abs=1e-15)


def test_isotropic_reference_chsh_values():
    assert chsh_value(make_isotropic(1.0)) == pytest.approx(4.0)
    assert chsh_value(make_isotropic(0.0)) == pytest.approx(2.0)
    assert chsh_value(make_isotropic(0.5)) == pytest.approx(3.0)
    assert chsh_value(make_isotropic(0.75)) == pytest.approx(3.5)
    assert chsh_value(make_isotropic(TSIRELSON_BIAS)) == pytest.approx(TSIRELSON_CHSH)


def test_isotropic_range_error():
    with pytest.raises(ValueError):
        make_isotropic(1.2)
    with pytest.raises(ValueError):
        IsotropicCell(-0.1)


def test_chsh_correlator_identity():
    # sum of win probabilities equals 2 + (E00 + E01 + E10 - E11)/2
    rng = substream(11)
    for _ in range(50):
        box = random_no_signaling_box(rng)
        e00, e01, e10, e11 = box.correlators()
        via_corr = 2.0 + 0.5 * (e00 + e01 + e10 - e11)
        assert chsh_value(box) == pytest.approx(via_corr, abs=1e-10)


# Every cell kind over a parameter grid; the first three have uniform Alice
# marginals, and the explicit tables add a biased one and one whose Alice
# never outputs 1 to the random ones.
ZERO_OUTPUTS = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))  # A = B = 0 on every input
CELL_GRIDS = {
    "isotropic": lambda: [IsotropicCell(float(b)) for b in np.linspace(0.0, 1.0, 101)],
    "asymmetric": lambda: [AsymmetricCell(float(b0), float(b1))
                           for b0 in np.linspace(0.0, 1.0, 21)
                           for b1 in np.linspace(0.0, 1.0, 21)],
    "angle": lambda: [QuantumPhiCell(float(phi), float(nu))
                      for phi in np.linspace(0.0, math.pi / 4, 33)
                      for nu in np.linspace(0.0, 1.0, 6)],
    "explicit": lambda: [ExplicitCell(random_no_signaling_box(substream(8, k), 1.0))
                         for k in range(200)]
                        + [ExplicitCell(BoxTable(0.6 * pr_box().probs + 0.4 * ZERO_OUTPUTS)),
                           ExplicitCell(BoxTable(ZERO_OUTPUTS))],
}


@pytest.mark.parametrize("kind", sorted(CELL_GRIDS))
def test_conditional_tables_rebuild_the_table(kind):
    # the sampler's tables are derived from the cell's table, and give it back
    for cell in CELL_GRIDS[kind]():
        pa1, pb1 = cell.conditional_tables()
        alice = np.stack([1.0 - pa1, pa1], axis=1)
        joint = np.stack([alice * (1.0 - pb1), alice * pb1], axis=2).reshape(4, 4)
        assert np.allclose(joint, cell.as_table().probs, rtol=0, atol=1e-15)
        if kind != "explicit":
            assert np.all(pa1 == 0.5)  # exact, so the path source is chosen
        elif not pa1.any():
            assert np.all(pb1[:, 1] == 0.5)  # on the branch Alice never takes


def test_win_probability_correlator_consistency_all_variants():
    cells = [IsotropicCell(0.62), AsymmetricCell(0.9, 0.4), QuantumPhiCell(0.5, 0.85),
             ExplicitCell(random_no_signaling_box(substream(3)))]
    for cell in cells:
        box = cell.as_table()
        cs = box.correlators()
        for s, t in product((0, 1), repeat=2):
            expected = (1.0 + (-1) ** (s & t) * cs[2 * s + t]) / 2.0
            assert box.win_probabilities()[2 * s + t] == pytest.approx(expected, abs=1e-12)


def test_quantum_phi_correlators_reference():
    assert quantum_phi_correlators(0.0, 1.0) == pytest.approx((1.0, 1.0, 0.0, 0.0))
    for v in quantum_phi_correlators(math.pi / 4, 1.0):
        assert abs(v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert iso_bias_from_angle(math.pi / 8) == pytest.approx(0.6533, abs=1e-4)
    assert iso_bias_from_angle(math.pi / 16) == pytest.approx(0.5879, abs=1e-4)


def test_quantum_phi_range_errors():
    with pytest.raises(ValueError):
        quantum_phi_correlators(-0.1)
    with pytest.raises(ValueError):
        quantum_phi_correlators(math.pi / 2)
    with pytest.raises(ValueError):
        quantum_phi_correlators(0.3, 1.2)


def test_quantum_family_never_beats_tsirelson():
    for phi in np.linspace(0.0, math.pi / 4, 41):
        for nu in np.linspace(0.0, 1.0, 11):
            box = QuantumPhiCell(float(phi), float(nu)).as_table()
            assert chsh_value(box) <= TSIRELSON_CHSH + 1e-12


def test_no_signaling_check_pass_and_fail():
    ok, dev = no_signaling_check(make_isotropic(0.6))
    assert ok and dev == pytest.approx(0.0, abs=1e-15)
    # Bob's marginal depends on s by 0.1: rows for s=0 vs s=1 differ
    table = np.full((4, 4), 0.25)
    table[2] = [0.30, 0.20, 0.30, 0.20]  # (s=1, t=0): P(B=1) = 0.4
    table[3] = [0.30, 0.20, 0.30, 0.20]
    box = BoxTable(table)
    ok, dev = no_signaling_check(box)
    assert not ok
    assert dev == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(SignalingBoxError):
        twirl(box)
    with pytest.raises(SignalingBoxError):
        ExplicitCell(box)


def test_box_functions_equal_their_loop_oracles():
    # the array forms add the same operands in the same order as a loop over
    # (s, t), so every bit agrees, on signaling tables too
    rng = substream(12)
    boxes = ([random_no_signaling_box(rng, 1.0) for _ in range(100)]
             + [BoxTable(rng.dirichlet(np.ones(4), size=4)) for _ in range(100)]
             + [make_isotropic(0.6), pr_box(), BoxTable(ZERO_OUTPUTS)])
    signaling = 0
    for box in boxes:
        assert box.win_probabilities().tobytes() == loop_win_probabilities(box).tobytes()
        ok, dev = no_signaling_check(box)
        assert (ok, dev) == loop_no_signaling_check(box)
        signaling += not ok
    assert 0 < signaling < len(boxes)
    grid = [list(w) for w in rng.uniform(0.0, 1.0, size=(200, 4))]
    for wins in grid + [[0.0, 1.0, 0.5, 1.0], [1.0, 1.0, 1.0, 0.0]]:
        expected = loop_box_from_win_probabilities(wins)
        assert box_from_win_probabilities(wins).probs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_table_is_refused(bad):
    table = np.full((4, 4), 0.25)
    table[1, 2] = bad
    with pytest.raises(ValueError, match="entries must be finite"):
        BoxTable(table)
    # a NaN compares false with every bound, so the check must not pass it
    table[1, 2] = math.nan
    ok, dev = no_signaling_check(SimpleNamespace(probs=table))
    assert not ok and math.isnan(dev)


def test_twirl_fixed_point_and_idempotence():
    box = make_isotropic(0.37)
    assert np.allclose(twirl(box).probs, box.probs, atol=1e-12)
    rng = substream(5)
    for _ in range(25):
        raw = random_no_signaling_box(rng)
        once = twirl(raw)
        assert np.allclose(twirl(once).probs, once.probs, atol=1e-12)
        assert chsh_value(once) == pytest.approx(chsh_value(raw), abs=1e-10)
        assert no_signaling_check(once)[0]


def test_twirl_quantum_cell_hits_tsirelson_win_rate():
    out = twirl(QuantumPhiCell(math.pi / 4, 1.0).as_table())
    target = (2.0 + math.sqrt(2.0)) / 4.0
    assert out.win_probabilities() == pytest.approx([target] * 4, abs=1e-12)
    # P(A = 1 | s, t) and P(B = 1 | s, t), indexed 2s+t
    assert ExplicitCell(out).conditional_tables()[0] == pytest.approx([0.5] * 4, abs=1e-12)
    assert out.probs[:, 1] + out.probs[:, 3] == pytest.approx([0.5] * 4, abs=1e-12)


def test_twirl_skewed_box_with_known_chsh():
    # mixture tuned to S = 3.2: PR weight 0.5, deterministic 0.2, noise 0.3
    det = box_from_win_probabilities([1.0, 1.0, 1.0, 0.0])  # a local strategy, S = 3
    skewed = BoxTable(0.5 * pr_box().probs + 0.2 * det.probs + 0.3 * make_isotropic(0.0).probs)
    assert chsh_value(skewed) == pytest.approx(3.2, abs=1e-12)
    assert twirl(skewed).win_probabilities() == pytest.approx([0.8] * 4, abs=1e-12)


def depth_one_batch(cell, episodes, seed, query=None):
    # the depth-1 pyramid feeds (s, t) = (a0 ^ a1, query) into its one cell
    # and records a ^ b ^ (s & t) as the error bit, so a win is a zero bit
    return pyramid_monte_carlo(PyramidProtocol.uniform(1, cell), episodes, seed, query=query)


def test_perfect_cell_sampling_never_misses():
    batch = depth_one_batch(IsotropicCell(1.0), 800, seed=76)
    assert not batch.path_errors.any()


def test_isotropic_sampling_win_rate_single_input():
    trials = 200_000
    batch = depth_one_batch(IsotropicCell(0.5), trials, seed=75, query=1)
    wins = trials - int(batch.path_errors.sum())
    assert abs(wins / trials - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / trials)


def test_sampling_matches_table():
    trials = 200_000
    batch = depth_one_batch(QuantumPhiCell(math.pi / 4, 1.0), trials, seed=77)
    p = 1.0 - batch.path_errors.mean()
    target = (1.0 + TSIRELSON_BIAS) / 2.0
    sigma = math.sqrt(target * (1 - target) / trials)
    assert abs(p - target) <= 3 * sigma


def test_explicit_quantum_table_sampling_win_rate():
    # the expanded maximal-angle table, sampled as an explicit cell, wins at
    # the quantum ceiling (1 + 1/sqrt 2)/2 = 0.85355...
    cell = ExplicitCell(QuantumPhiCell(math.pi / 4, 1.0).as_table())
    trials = 200_000
    wins = trials - int(depth_one_batch(cell, trials, seed=78).path_errors.sum())
    target = (1.0 + TSIRELSON_BIAS) / 2.0
    assert abs(wins / trials - target) <= 3 * math.sqrt(target * (1 - target) / trials)
