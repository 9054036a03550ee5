import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from racbox import capacity
from racbox.capacity import (awgn_hard_decision_score, bpsk_mutual_information, gaussian_cdf,
                             probe_interface, run_awgn_bpsk_probe, run_hard_copy_probe,
                             run_packed_precision_probe)
from racbox.experiments import REGISTRY, ExperimentConfig, resolve, run_experiment
from racbox.info import binary_entropy
from racbox.rng import substream


def test_certificates():
    assert probe_interface("hard", 8, 1).certificate == 1.0
    assert probe_interface("hard", 8, 0).certificate == 0.0
    assert probe_interface("packed", 8, 2, 4).certificate == 8.0
    assert probe_interface("awgn", 8, 2, 1.0).certificate == pytest.approx(1.0)
    assert probe_interface("awgn", 8, 4, 3.0).certificate == pytest.approx(4.0)
    with pytest.raises(ValueError):
        probe_interface("hard", 8, -1)
    with pytest.raises(ValueError, match="snr must be nonnegative"):
        probe_interface("awgn", 8, 1, -0.5)
    for d, q in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            probe_interface("packed", 8, d, q)


def test_gaussian_cdf_reference():
    assert gaussian_cdf(0.0) == 0.5
    assert gaussian_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert gaussian_cdf(-1.0) == pytest.approx(1.0 - gaussian_cdf(1.0), abs=1e-15)


def test_hard_copy_probe():
    for m in (0, 3, 8):
        res = run_hard_copy_probe(8, m, 100_000, seed=50 + m)
        assert res.counted_capacity == float(m)
        assert res.interval[0] <= res.observed_score <= res.interval[1] + 1e-9
        assert res.observed_score == pytest.approx(m, abs=0.05)
        assert res.interval[0] <= m <= res.interval[1] or res.observed_score == m
    with pytest.raises(ValueError):
        run_hard_copy_probe(8, 9, 10, seed=1)


def test_packed_precision_probe():
    res = run_packed_precision_probe(8, 1, 8, 50_000, seed=60)
    assert res.counted_capacity == 8.0
    assert res.observed_score == pytest.approx(8.0, abs=1e-9)  # deterministic round trip
    res = run_packed_precision_probe(8, 2, 2, 50_000, seed=61)
    assert res.observed_score == pytest.approx(4.0, abs=0.05)
    res = run_packed_precision_probe(8, 1, 0, 50_000, seed=62)
    assert res.observed_score == pytest.approx(0.0, abs=0.01)


def test_packed_probe_is_the_copy_probe_on_its_budget():
    # integer codewords return every bit below the budget d*q unchanged
    for d, q in [(1, 8), (2, 2), (1, 0), (3, 4)]:
        packed = run_packed_precision_probe(8, d, q, 20_000, seed=68)
        copy = run_hard_copy_probe(8, min(8, d * q), 20_000, seed=68)
        assert packed.counted_capacity == float(d * q)
        assert packed.observed_score == copy.observed_score
        assert packed.interval == copy.interval


# sha256 of capacity_sanity.csv at 2,000 episodes and the default grids, as
# recorded before the per-kind interface facts moved into probe_interface
@pytest.mark.parametrize("interval, digest", [
    ("wilson", "ba08fc46b9d70bb5cc2337d00e74134cd3f585ad66622cfdbe9cdbe965543903"),
    ("clopper_pearson", "814a545433c950fc43af7904c3ba7f2d80afb0d0babe8642247dc77efa1913d7"),
])
def test_capacity_sanity_keeps_its_bytes(tmp_path, interval, digest):
    config = ExperimentConfig("capacity-sanity", episodes=2_000, interval=interval, workers=1)
    manifest = run_experiment(config, out_root=str(tmp_path))
    assert manifest["outputs"]["capacity_sanity.csv"] == digest


# sha256 of each probe's per-query wins and totals, as little-endian int64,
# over one default chunk and 1_003 episodes, recorded before the database and
# coin bits were read from whole words
@pytest.mark.parametrize("kind, params, digest", [
    ("hard", (3,), "012c81864d4d87666eeccb639647e5136734a89685a282d4634a7fb25681341c"),
    ("packed", (2, 2), "43aa81051128ea56b43954eff5a5e4e034ccdf95c0353fe91545b73ba869cc1d"),
    ("awgn", (2, 1.0), "0513c5d267e00c52e35cfc3011f6a2f92ffa5968c64a3906603f83b67bbdfe49"),
])
def test_probe_tallies_across_a_chunk_boundary_keep_their_bytes(monkeypatch, kind, params,
                                                                 digest):
    tallies = []

    def record(wins, totals, level, method):
        tallies.append(np.concatenate([wins, totals]).astype("<i8").tobytes())
        return 0.0, (0.0, 0.0)

    monkeypatch.setattr(capacity, "per_query_symmetric_score", record)
    capacity._run_probe(probe_interface(kind, 8, *params), 8,
                        capacity._CHUNK_EPISODES + 1_003, 90, 0.95, "wilson")
    assert [hashlib.sha256(t).hexdigest() for t in tallies] == [digest]


def test_awgn_probe_rejects_more_coordinates_than_bits():
    with pytest.raises(ValueError, match="n_bits=8"):
        run_awgn_bpsk_probe(8, 9, 1.0, 10, seed=1)
    # capacity-sanity judges d coordinates, so d > N must stop the run
    config = ExperimentConfig("capacity-sanity", episodes=1_000,
                              params={"d": 10, "ms": [1], "packed": ["1x8"], "snrs": [1.0]})
    with pytest.raises(ValueError, match="d=10"):
        REGISTRY["capacity-sanity"].build(resolve(config))


@pytest.mark.parametrize("chunk", [8, 64])
def test_chunked_probes_equal_one_chunk(monkeypatch, chunk):
    # a chunk size that leaves uint8 draws behind at a boundary breaks this
    probes = [(run_hard_copy_probe, (5, 3)), (run_packed_precision_probe, (5, 2, 2)),
              (run_awgn_bpsk_probe, (5, 3, 1.0))]
    assert capacity._CHUNK_EPISODES >= 1_003
    whole = [probe(*args, 1_003, seed=69) for probe, args in probes]
    monkeypatch.setattr(capacity, "_CHUNK_EPISODES", chunk)
    assert [probe(*args, 1_003, seed=69) for probe, args in probes] == whole


def test_probe_memory_does_not_grow_with_episodes():
    # whole per-episode database and noise arrays would peak at about 208 MiB here
    tracemalloc.start()
    try:
        run_awgn_bpsk_probe(8, 8, 1.0, 1_000_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_awgn_probe_matches_analytics():
    episodes = 160_000
    for snr in (0.5, 1.0, 4.0):
        res = run_awgn_bpsk_probe(8, 2, snr, episodes, seed=63)
        analytic = awgn_hard_decision_score(2, snr)
        # certificate is strictly above the hard-decision score
        assert res.observed_score < res.counted_capacity
        p = gaussian_cdf(math.sqrt(snr))
        slope = abs(math.log2(p / (1 - p)))
        sigma = math.sqrt(2 * slope * slope * p * (1 - p) / (episodes / 8))
        assert abs(res.observed_score - analytic) <= 3 * sigma + 1e-6


def test_awgn_probe_snr_extremes():
    res = run_awgn_bpsk_probe(8, 2, 0.0, 60_000, seed=64)
    assert res.observed_score == pytest.approx(0.0, abs=0.01)
    res = run_awgn_bpsk_probe(8, 2, 1e6, 60_000, seed=65)
    assert res.observed_score == pytest.approx(2.0, abs=0.01)


def test_awgn_example_point():
    # snr=1, d=2: flip probability 1 - Phi(1), observed near 0.737, counted 1.0
    analytic = awgn_hard_decision_score(2, 1.0)
    assert analytic == pytest.approx(2 * (1 - binary_entropy(0.8413447460685429)), abs=1e-12)
    assert analytic == pytest.approx(0.737, abs=2e-3)
    res = run_awgn_bpsk_probe(8, 2, 1.0, 200_000, seed=66)
    assert res.observed_score < 1.0


def test_bpsk_mutual_information_limits():
    assert bpsk_mutual_information(0.0) == 0.0
    assert bpsk_mutual_information(1e9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        bpsk_mutual_information(-1.0)


def test_bpsk_mutual_information_monotone_and_bounded():
    grid = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    vals = [bpsk_mutual_information(s) for s in grid]
    assert all(a < b or (a == b == 0.0) for a, b in zip(vals, vals[1:]))
    for s, v in zip(grid, vals):
        assert v <= min(1.0, 0.5 * math.log2(1.0 + s)) + 1e-12


def test_bpsk_mutual_information_adaptive_quadrature_oracle():
    # independent oracle: adaptive quadrature of the defining integral
    integrate = pytest.importorskip("scipy.integrate")
    for snr in (0.25, 1.0, 4.0):
        a = math.sqrt(snr)

        def integrand(z):
            return (math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
                    * np.logaddexp(0.0, -2.0 * a * a - 2.0 * a * z) / math.log(2.0))

        expectation, err = integrate.quad(integrand, -40.0, 40.0, limit=200)
        assert err < 1e-7
        assert bpsk_mutual_information(snr) == pytest.approx(1.0 - expectation, abs=1e-7)


def test_bpsk_mutual_information_monte_carlo_oracle():
    # independent check of the quadrature by direct sampling at snr = 1
    snr = 1.0
    a = math.sqrt(snr)
    rng = substream(67)
    z = rng.standard_normal(10_000_000)
    mc = 1.0 - np.logaddexp(0.0, -2 * a * a - 2 * a * z).mean() / math.log(2.0)
    assert bpsk_mutual_information(snr) == pytest.approx(mc, abs=1e-3)


def test_bpsk_beats_hard_decision():
    for snr in (0.25, 1.0, 4.0):
        assert bpsk_mutual_information(snr) >= awgn_hard_decision_score(1, snr) - 1e-12


def test_accounting_law_observed_below_corrected():
    # every probe's observed score is within falling distance of its
    # certified capacity: observed <= certificate + 3 * CI half-width
    probes = [run_hard_copy_probe(8, 3, 50_000, seed=70),
              run_packed_precision_probe(8, 1, 8, 50_000, seed=71),
              run_awgn_bpsk_probe(8, 2, 1.0, 50_000, seed=72)]
    for res in probes:
        half = (res.interval[1] - res.interval[0]) / 2.0
        assert res.observed_score <= res.counted_capacity + 3.0 * half + 1e-9
