"""Interface-capacity certificates and explicit channel probes.

A certificate is an a-priori bit budget computed from the physical model of
the bottleneck alone (hard alphabet, packed precision, power-limited noisy
coordinates, qubit count), never from observed scores.  The probes then run
concrete encoders through each interface and check the observed score
against the certified budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import per_query_symmetric_score
from .info import Bits, binary_entropy
from .rng import substream

_PROBE_DB_STREAM = 0
_PROBE_QUERY_STREAM = 1
_PROBE_NOISE_STREAM = 2
_PROBE_COIN_STREAM = 3


@dataclass(frozen=True)
class HardBits:
    """Hard classical alphabet of m bits."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")


@dataclass(frozen=True)
class PackedPrecision:
    """d coordinates quantized to q bits each."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 0 or self.q < 0:
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class AwgnBpsk:
    """d real coordinates through additive Gaussian noise at power ratio snr."""

    d: int
    snr: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.snr < 0.0:
            raise ValueError("snr must be nonnegative")


@dataclass(frozen=True)
class Qubits:
    """m transmitted qubits without receiver-side entanglement.

    Carried as the constant certificate m only; no quantum message is
    simulated anywhere in the package.
    """

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")


InterfaceModel = HardBits | PackedPrecision | AwgnBpsk | Qubits


def capacity_certificate(model: InterfaceModel) -> Bits:
    """Bit budget certified by the interface model alone."""
    if isinstance(model, HardBits):
        return float(model.m)
    if isinstance(model, PackedPrecision):
        return float(model.d * model.q)
    if isinstance(model, AwgnBpsk):
        return model.d / 2.0 * math.log2(1.0 + model.snr)
    if isinstance(model, Qubits):
        return float(model.m)
    raise TypeError(f"unknown interface model {model!r}")


def gaussian_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class ProbeResult:
    """Counted budget versus observed score for one probe run."""

    counted_capacity: Bits
    observed_score: Bits
    interval: tuple[Bits, Bits]


def _probe_draws(n_bits: int, episodes: int, seed: int):
    """Database bits, uniform queries, fallback coins and queried targets."""
    db = substream(seed, _PROBE_DB_STREAM).integers(0, 2, size=(episodes, n_bits), dtype=np.uint8)
    queries = substream(seed, _PROBE_QUERY_STREAM).integers(0, n_bits, size=episodes)
    coins = substream(seed, _PROBE_COIN_STREAM).integers(0, 2, size=episodes, dtype=np.uint8)
    return db, queries, coins, db[np.arange(episodes), queries]


def _probe_result(model, targets, outputs, queries, n_bits,
                  level: float = 0.95, method: str = "wilson") -> ProbeResult:
    ok = (targets == outputs).astype(np.int64)
    wins = np.bincount(queries, weights=ok, minlength=n_bits).astype(int)
    totals = np.bincount(queries, minlength=n_bits)
    score, (lo, hi) = per_query_symmetric_score(wins, totals, level=level, method=method)
    return ProbeResult(counted_capacity=capacity_certificate(model),
                       observed_score=score, interval=(lo, hi))


def run_hard_copy_probe(n_bits: int, m: int, episodes: int, seed: int,
                        level: float = 0.95, method: str = "wilson") -> ProbeResult:
    """Copy the first m database bits through a hard m-bit interface."""
    if not 0 <= m <= n_bits:
        raise ValueError(f"m={m} outside [0, {n_bits}]")
    _, queries, coins, targets = _probe_draws(n_bits, episodes, seed)
    outputs = np.where(queries < m, targets, coins)
    return _probe_result(HardBits(m), targets, outputs, queries, n_bits,
                         level=level, method=method)


def run_packed_precision_probe(n_bits: int, d: int, q: int, episodes: int,
                               seed: int, level: float = 0.95,
                               method: str = "wilson") -> ProbeResult:
    """Pack database bits into d coordinates of q-bit precision each.

    The interface transmits d reals; quantization makes the true budget d*q,
    so min(N, d*q) bits survive the round trip exactly.
    """
    if d * q > 64 * max(d, 1):
        raise ValueError("more than 64 bits per coordinate")
    model = PackedPrecision(d, q)
    stored = min(n_bits, d * q)
    db, queries, coins, targets = _probe_draws(n_bits, episodes, seed)
    # Pack then unpack: integer codewords round-trip bits below the budget.
    packed = np.zeros((episodes, d), dtype=np.uint64)
    for i in range(stored):
        packed[:, i // max(q, 1)] |= db[:, i].astype(np.uint64) << np.uint64(i % max(q, 1))
    unpacked = np.empty((episodes, n_bits), dtype=np.uint8)
    for i in range(n_bits):
        if i < stored:
            unpacked[:, i] = ((packed[:, i // q] >> np.uint64(i % q)) & np.uint64(1)).astype(np.uint8)
        else:
            unpacked[:, i] = coins  # nothing survived; answer a coin
    outputs = unpacked[np.arange(episodes), queries]
    return _probe_result(model, targets, outputs, queries, n_bits,
                         level=level, method=method)


def run_awgn_bpsk_probe(n_bits: int, d: int, snr: float, episodes: int,
                        seed: int, level: float = 0.95,
                        method: str = "wilson") -> ProbeResult:
    """Antipodal signalling of d database bits over Gaussian noise.

    Bits map to +/- sqrt(snr) amplitudes on unit-variance noise; the decoder
    thresholds at zero, so each carried bit sees a symmetric channel with
    success probability Phi(sqrt(snr)).  Queries beyond the d carried bits
    are answered by a coin.
    """
    if d < 1:
        raise ValueError("need at least one coordinate")
    model = AwgnBpsk(d, snr)
    db, queries, coins, targets = _probe_draws(n_bits, episodes, seed)
    amp = math.sqrt(snr)
    carried = min(d, n_bits)
    symbols = amp * (2.0 * db[:, :carried].astype(float) - 1.0)
    noise = substream(seed, _PROBE_NOISE_STREAM).standard_normal((episodes, carried))
    received = (symbols + noise > 0.0).astype(np.uint8)
    outputs = np.where(queries < carried,
                       received[np.arange(episodes), np.minimum(queries, carried - 1)],
                       coins)
    return _probe_result(model, targets, outputs, queries, n_bits,
                         level=level, method=method)


def awgn_hard_decision_score(d: int, snr: float) -> Bits:
    """Analytic score d (1 - h(Phi(sqrt(snr)))) of the threshold decoder."""
    return d * (1.0 - binary_entropy(gaussian_cdf(math.sqrt(snr))))


def bpsk_mutual_information(snr: float, order: int = 81) -> Bits:
    """Per-coordinate mutual information of antipodal signalling on Gaussian
    noise, by fixed-order Gauss-Hermite quadrature.

    Monotone in snr and bounded by min(1, 0.5 log2(1 + snr)); ``order`` >= 61
    keeps the quadrature error far below 1e-9 for any snr.
    """
    if snr < 0.0:
        raise ValueError("snr must be nonnegative")
    if order < 61:
        raise ValueError("quadrature order must be >= 61")
    if snr == 0.0:
        return 0.0
    a = math.sqrt(snr)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    z = math.sqrt(2.0) * nodes  # standard normal variates
    exponent = -2.0 * a * a - 2.0 * a * z
    # log2(1 + exp(e)) evaluated stably on both tails
    vals = np.logaddexp(0.0, exponent) / math.log(2.0)
    expectation = float((weights * vals).sum() / math.sqrt(math.pi))
    return min(1.0, max(0.0, 1.0 - expectation))
