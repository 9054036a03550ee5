"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or in
the captured output); a failure reads as the criterion number plus the
offending quantity.  Run time limits are asserted where the criterion pins
them.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from oracles import (brute_force_one_bit_optimum, chsh_value, random_no_signaling_box,
                     table_from_pairs, twirl)
from racbox.boxes import (ExplicitCell, IsotropicCell, QuantumPhiCell, TSIRELSON_BIAS,
                          iso_bias_from_angle)
from racbox.capacity import (awgn_hard_decision_score, gaussian_cdf, run_awgn_bpsk_probe,
                             run_hard_copy_probe, run_packed_precision_probe)
from racbox.estimation import plugin_mi, symmetric_score_estimate, wilson_interval
from racbox.experiments import (ANGLE_SCAN_PHIS, EXPECTED_ANGLE_SCAN,
                                EXPECTED_SCORE_GRID, SCORE_GRID_BIASES,
                                ExperimentConfig, read_table, run_experiment)
from racbox.info import LN2, binary_entropy, entropy_deficit
from racbox.protocols import (PyramidProtocol, classical_avg_success_closed_form,
                              pyramid_monte_carlo)
from racbox.rng import substream
from racbox.scores import (asym_exact_score, closed_form_score, critical_bias,
                           critical_bias_asymptotic, critical_constant)


def announce(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_score_grid_reproduction():
    start = time.perf_counter()
    for n, row in EXPECTED_SCORE_GRID.items():
        for bias, expected in zip(SCORE_GRID_BIASES, row):
            measured = closed_form_score(n, bias)
            assert abs(measured - expected) <= max(0.01 * expected, 1e-6), \
                f"criterion 1: score({n}, {bias:.4f}) = {measured} vs {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.3f}s"
    announce(1, f"all 20 grid scores within 1% rel / 1e-6 abs in {elapsed * 1e3:.1f} ms")


def test_criterion_02_angle_scan_reproduction():
    start = time.perf_counter()
    for k, phi in enumerate(ANGLE_SCAN_PHIS):
        e_iso = iso_bias_from_angle(phi)
        assert abs(e_iso - EXPECTED_ANGLE_SCAN["e_iso"][k]) <= 1e-4
        assert abs(2 * (1 + e_iso) - EXPECTED_ANGLE_SCAN["chsh"][k]) <= 1e-4
        assert abs(closed_form_score(10, e_iso) - EXPECTED_ANGLE_SCAN["score_n10"][k]) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 runtime {elapsed:.3f}s"
    announce(2, f"angle scan (bias, CHSH, depth-10 score) matches in {elapsed * 1e3:.1f} ms")


def test_criterion_03_criticality():
    start = time.perf_counter()
    e10 = critical_bias(10, 1.0).critical_bias
    e20 = critical_bias(20, 1.0).critical_bias
    assert abs(e10 - 0.7187) <= 5e-4, f"criterion 3: E_crit(10) = {e10}"
    assert abs(e20 - 0.7131) <= 5e-4, f"criterion 3: E_crit(20) = {e20}"
    curve = [critical_bias(n, 1.0).critical_bias for n in range(1, 41)]
    assert all(a > b for a, b in zip(curve, curve[1:])), "criterion 3: not decreasing"
    rel = abs(e20 - critical_bias_asymptotic(20, 1.0)) / e20
    assert rel < 0.01, f"criterion 3: asymptotic mismatch {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 3 runtime {elapsed:.3f}s"
    announce(3, f"critical biases 0.7187/0.7131 hit, curve monotone, asymptote {rel:.2e}")


def test_criterion_04_critical_constant():
    diff = abs(closed_form_score(40, TSIRELSON_BIAS) - critical_constant())
    assert diff <= 1e-6, f"criterion 4: plateau miss {diff}"
    seq = [closed_form_score(n, TSIRELSON_BIAS) for n in range(1, 41)]
    assert max(seq) <= 1.0, "criterion 4: budget exceeded at the quantum bias"
    announce(4, f"depth-40 score within {diff:.1e} of 1/(2 ln 2), never above one bit")


def test_criterion_05_monte_carlo_vs_closed_form():
    start = time.perf_counter()
    episodes = 1_000_000
    # fixed seeds: the 95% interval misses the truth on ~5% of seeds by
    # construction; the sampler itself is z-score audited in test_protocols
    for depth, bias, seed in ((3, 0.5, 201), (5, 0.7, 202)):
        proto = PyramidProtocol.uniform(depth, IsotropicCell(bias))
        batch = pyramid_monte_carlo(proto, episodes, seed=seed)
        assert batch.parity_identity_holds(), "criterion 5: parity identity broken"
        rep = symmetric_score_estimate(batch.success_count, episodes, 2 ** depth)
        truth = closed_form_score(depth, bias)
        lo, hi = rep.interval
        assert lo <= truth <= hi, \
            f"criterion 5: closed form {truth} outside CI ({lo}, {hi}) at n={depth}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 runtime {elapsed:.1f}s"
    announce(5, f"2x10^6 episodes bracket the closed form, parity 100%, {elapsed:.1f} s")


def test_criterion_06_classical_benchmark():
    for n in (2, 3):
        closed = classical_avg_success_closed_form(n)
        brute = brute_force_one_bit_optimum(n)
        assert closed == pytest.approx(brute, abs=1e-12), \
            f"criterion 6: closed form {closed} vs exhaustive {brute} at N={n}"
    big_n = 1 << 10
    score = big_n * (1.0 - binary_entropy(classical_avg_success_closed_form(big_n)))
    limit = 1.0 / (math.pi * LN2)
    assert abs(score - limit) <= 0.02 * limit, f"criterion 6: {score} vs {limit}"
    assert score < critical_constant()
    announce(6, f"majority optimum exact at N=2,3; N=1024 score {score:.4f} ~ {limit:.4f}")


def test_criterion_07_twirl():
    rng = substream(700)
    for k in range(100):
        box = random_no_signaling_box(rng)
        iso = twirl(box)
        wins = iso.win_probabilities()
        assert wins.max() - wins.min() <= 1e-10, "criterion 7: twirl output not isotropic"
        alice = ExplicitCell(iso).conditional_tables()[0]  # P(A = 1 | s, t) at 2s+t
        bob = iso.probs[:, 1] + iso.probs[:, 3]
        assert np.abs(alice - 0.5).max() <= 1e-10 and np.abs(bob - 0.5).max() <= 1e-10
        assert abs(chsh_value(iso) - chsh_value(box)) <= 1e-10, "criterion 7: CHSH drift"
        assert np.abs(twirl(iso).probs - iso.probs).max() <= 1e-12, "criterion 7: not idempotent"
    quantum = twirl(QuantumPhiCell(math.pi / 4, 1.0).as_table())
    target = (2.0 + math.sqrt(2.0)) / 4.0
    assert np.abs(quantum.win_probabilities() - target).max() <= 1e-12
    announce(7, "100 random boxes isotropized, CHSH preserved, quantum cell at (2+sqrt2)/4")


def test_criterion_08_asymmetric_theory():
    rng = substream(800)
    for n in range(1, 13):
        e0, e1 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        naive = sum(1.0 - binary_entropy((1.0 + math.prod(
            (e1 if b else e0) for b in path)) / 2.0)
            for path in product((0, 1), repeat=n))
        assert abs(asym_exact_score(n, e0, e1) - naive) <= 1e-10, \
            f"criterion 8: grouped sum disagrees with enumeration at n={n}"
    crossing = next((n for n in range(1, 61) if asym_exact_score(n, 0.9, 0.5) > 1.0), None)
    assert crossing is not None, "criterion 8: (0.9, 0.5) never crossed one bit"
    for e0 in np.linspace(0.0, 1.0, 11):
        e1_max = math.sqrt(max(0.0, 1.0 - e0 * e0))
        for e1 in (0.0, e1_max / 2, e1_max):
            for n in range(1, 61):
                assert asym_exact_score(n, float(e0), float(e1)) <= 1.0 + 1e-12, \
                    f"criterion 8: subcritical pair ({e0}, {e1}) crossed at n={n}"
    announce(8, f"grouped = enumerated (n<=12); (0.9,0.5) crosses at n={crossing}; "
                f"unit-disk grid never crosses")


def test_criterion_09_estimator_coverage():
    rng = substream(900)
    for p in (0.55, 0.75, 0.95):
        hits = 0
        for s in rng.binomial(1000, p, size=1000):
            ci = wilson_interval(int(s), 1000, 0.95)
            hits += ci.lo <= p <= ci.hi
        assert hits / 1000 >= 0.93, f"criterion 9: coverage {hits / 1000} at P={p}"
    targets = rng.integers(0, 2, size=100_000)
    outputs = targets ^ (rng.random(100_000) < 0.25)
    err = abs(plugin_mi(table_from_pairs(targets, outputs))
              - entropy_deficit(2 * 0.75 - 1))
    assert err < 0.01, f"criterion 9: plug-in error {err}"
    announce(9, f"Wilson coverage >= 93% at three biases; plug-in error {err:.2e} bits")


def test_criterion_10_capacity_accounting():
    episodes = 200_000
    for m in (1, 2, 3, 8):
        res = run_hard_copy_probe(8, m, episodes, seed=1000 + m)
        lo, hi = res.interval
        assert lo <= m <= hi or res.observed_score == float(m), \
            f"criterion 10: hard copy m={m} interval ({lo}, {hi})"
    res = run_packed_precision_probe(8, 1, 8, episodes, seed=1010)
    assert res.observed_score == pytest.approx(8.0, abs=1e-9), \
        f"criterion 10: packed probe scored {res.observed_score}"
    snr_grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)  # documented reconstruction grid
    for k, snr in enumerate(snr_grid):
        res = run_awgn_bpsk_probe(8, 2, snr, episodes, seed=1020 + k)
        assert res.observed_score <= res.counted_capacity + 1e-9, \
            f"criterion 10: snr={snr} exceeded the certificate"
        p = gaussian_cdf(math.sqrt(snr))
        slope = abs(math.log2(p / (1.0 - p)))
        sigma = math.sqrt(2 * slope * slope * p * (1 - p) / (episodes / 8))
        assert abs(res.observed_score - awgn_hard_decision_score(2, snr)) <= 3 * sigma, \
            f"criterion 10: snr={snr} off the threshold-decoder analytics"
    announce(10, "hard, packed, and noisy probes all account correctly")


def test_criterion_11_ablations(tmp_path):
    # the shipped `racbox run ablations` at defaults: 5 seeds x m in {1, 3}
    # plus the three controls, judged by the suite's own verdicts
    start = time.perf_counter()
    manifest = run_experiment(ExperimentConfig("ablations", workers=2), out_root=str(tmp_path))
    elapsed = time.perf_counter() - start
    failed = [v["name"] for v in manifest["verdicts"] if not v["passed"]]
    assert manifest["verdicts"] and not failed, f"criterion 11: failed verdicts {failed}"
    rows = read_table(str(tmp_path / "ablations" / "ablations.csv"))[1]
    strict = [r for r in rows if r["mode"] == "strict"]
    assert len(strict) == 10, f"criterion 11: {len(strict)} strict runs"
    for mode, expected_tag in (("query_leaky", "query"), ("precision_packing", "precision"),
                               ("episode_weights", "memory")):
        (row,) = [r for r in rows if r["mode"] == mode]
        assert expected_tag in row["diagnosis"], f"criterion 11: {mode} missing diagnosis"
    assert elapsed < 600.0, f"criterion 11 runtime {elapsed:.0f}s"
    announce(11, "controls reach 8.0 with diagnoses; 10 strict runs stay within budget")


def test_criterion_12_entropy_deficit_properties():
    for p in np.linspace(0.0, 1.0, 100_001):
        assert 1.0 - binary_entropy(p) >= (2.0 / LN2) * (p - 0.5) ** 2 - 1e-12, \
            f"criterion 12: quadratic bound broken at p={p}"
    for delta in np.linspace(-0.1, 0.1, 4001):
        gap = abs(entropy_deficit(delta) - delta * delta / (2.0 * LN2))
        assert gap <= 0.13 * delta ** 4 + 1e-16, \
            f"criterion 12: expansion bound broken at delta={delta}"
    announce(12, "quadratic deficit bound and small-bias expansion hold on dense grids")
