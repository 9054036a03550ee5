"""Interface-capacity certificates and explicit channel probes.

A certificate is an a-priori bit budget computed from the physical model of
the bottleneck alone (hard alphabet, packed precision, power-limited noisy
coordinates), never from observed scores.  The probes then run concrete
encoders through each interface and check the observed score against the
certified budget.  All three share one sampler that carries a prefix of the
database bits, answers the other queries with a coin and tallies per-query
wins in fixed chunks of episodes, so its memory does not grow with the
episode count.
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

# Episodes per chunk of the probe sampler.  Chunks read each stream in
# order, so the tallies match one unchunked draw only if no generator call
# leaves draws behind at a chunk boundary.  A uint8 integers() call takes 4
# values from each uint32 and drops its byte buffer when it returns; a
# multiple of 8 episodes leaves that buffer empty for the database and the
# coins.  The queries read uint32 halves whose spare half the bit generator
# keeps between calls, and the noise reads whole 64-bit words.
_CHUNK_EPISODES = 1 << 16


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


InterfaceModel = HardBits | PackedPrecision | AwgnBpsk


def capacity_certificate(model: InterfaceModel) -> Bits:
    """Bit budget certified by the interface model alone."""
    if isinstance(model, HardBits):
        return float(model.m)
    if isinstance(model, PackedPrecision):
        return float(model.d * model.q)
    if isinstance(model, AwgnBpsk):
        return model.d / 2.0 * math.log2(1.0 + model.snr)
    raise TypeError(f"unknown interface model {model!r}")


def gaussian_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class ProbeResult:
    """Counted budget versus observed score for one probe run."""

    counted_capacity: Bits
    observed_score: Bits
    interval: tuple[Bits, Bits]


def _run_probe(model: InterfaceModel, n_bits: int, carried: int, episodes: int,
               seed: int, level: float, method: str, amp: float | None = None) -> ProbeResult:
    """Score an interface that carries database bits 0..carried-1.

    Queries below ``carried`` are answered through the interface and all
    others with a fair coin.  With ``amp``, each carried bit is sent as
    +/- amp over unit-variance Gaussian noise and thresholded at zero.
    Episodes run in fixed chunks, so the working memory does not grow with
    ``episodes``.
    """
    if episodes < 0:
        raise ValueError(f"episodes={episodes} is negative")
    db_rng = substream(seed, _PROBE_DB_STREAM)
    query_rng = substream(seed, _PROBE_QUERY_STREAM)
    coin_rng = substream(seed, _PROBE_COIN_STREAM)
    noise_rng = None if amp is None else substream(seed, _PROBE_NOISE_STREAM)
    wins = np.zeros(n_bits, dtype=np.int64)
    totals = np.zeros(n_bits, dtype=np.int64)
    for lo in range(0, episodes, _CHUNK_EPISODES):
        size = min(_CHUNK_EPISODES, episodes - lo)
        rows = np.arange(size)
        queries = query_rng.integers(0, n_bits, size=size)
        targets = db_rng.integers(0, 2, size=(size, n_bits), dtype=np.uint8)[rows, queries]
        coins = coin_rng.integers(0, 2, size=size, dtype=np.uint8)
        received = targets
        if noise_rng is not None:
            # Draw the whole (size, carried) block so the stream stays aligned.
            noise = noise_rng.standard_normal((size, carried))
            received = (amp * (2.0 * targets.astype(float) - 1.0)
                        + noise[rows, np.minimum(queries, carried - 1)] > 0.0)
        outputs = np.where(queries < carried, received, coins)
        wins += np.bincount(queries[outputs == targets], minlength=n_bits)
        totals += np.bincount(queries, minlength=n_bits)
    score, interval = per_query_symmetric_score(wins, totals, level=level, method=method)
    return ProbeResult(counted_capacity=capacity_certificate(model),
                       observed_score=score, interval=interval)


def probe_interface(kind: str, n_bits: int, *params) -> tuple[InterfaceModel, int]:
    """Interface model of a probe and the number of database bits it carries.

    ``params`` are the probe's own arguments: (m,) for "hard", (d, q) for
    "packed" and (d, snr) for "awgn".  Raises ValueError on arguments the
    probe cannot run, so a whole grid can be checked before any sampling.
    """
    if kind == "hard":
        (m,) = params
        if not 0 <= m <= n_bits:
            raise ValueError(f"m={m} outside [0, {n_bits}]")
        return HardBits(m), m
    if kind == "packed":
        d, q = params
        if d * q > 64 * max(d, 1):
            raise ValueError("more than 64 bits per coordinate")
        return PackedPrecision(d, q), min(n_bits, d * q)
    if kind == "awgn":
        d, snr = params
        if d < 1:
            raise ValueError("need at least one coordinate")
        if d > n_bits:
            raise ValueError(f"d={d} coordinates above the n_bits={n_bits} database bits "
                             f"they would carry")
        return AwgnBpsk(d, snr), d
    raise ValueError(f"unknown probe kind {kind!r}")


def run_hard_copy_probe(n_bits: int, m: int, episodes: int, seed: int,
                        level: float = 0.95, method: str = "wilson") -> ProbeResult:
    """Copy the first m database bits through a hard m-bit interface."""
    model, carried = probe_interface("hard", n_bits, m)
    return _run_probe(model, n_bits, carried, episodes, seed, level, method)


def run_packed_precision_probe(n_bits: int, d: int, q: int, episodes: int,
                               seed: int, level: float = 0.95,
                               method: str = "wilson") -> ProbeResult:
    """Pack database bits into d coordinates of q-bit precision each.

    The interface transmits d reals; quantization makes the true budget d*q.
    Integer codewords carry bits below the budget exactly, so the first
    min(N, d*q) bits are read back unchanged and the rest are coins.
    """
    model, carried = probe_interface("packed", n_bits, d, q)
    return _run_probe(model, n_bits, carried, episodes, seed, level, method)


def run_awgn_bpsk_probe(n_bits: int, d: int, snr: float, episodes: int,
                        seed: int, level: float = 0.95,
                        method: str = "wilson") -> ProbeResult:
    """Antipodal signalling of d database bits over Gaussian noise.

    Bits map to +/- sqrt(snr) amplitudes on unit-variance noise; the decoder
    thresholds at zero, so each carried bit sees a symmetric channel with
    success probability Phi(sqrt(snr)).  Queries beyond the d carried bits
    are answered by a coin.  Each coordinate carries one database bit, so d
    may not exceed n_bits.
    """
    model, carried = probe_interface("awgn", n_bits, d, snr)
    return _run_probe(model, n_bits, carried, episodes, seed, level, method,
                      amp=math.sqrt(snr))


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
