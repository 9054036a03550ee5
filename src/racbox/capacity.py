"""Interface-capacity certificates and explicit channel probes.

A certificate is an a-priori bit budget C_H computed from the physical model
of the bottleneck alone (hard alphabet, packed precision, power-limited noisy
coordinates), never from observed scores.  ``probe_interface`` is the one
place that knows each probe kind: from the kind and its parameters it checks
the arguments and returns an ``Interface`` record with the certificate, the
number of database bits carried, the decoder's analytic score and the
soft-decision ceiling.  The probes then run concrete encoders through the
interface and check the observed score against the certified budget.  All
three share one sampler that carries a prefix of the database bits, answers
the other queries with a coin and tallies per-query wins in fixed chunks of
episodes, so its memory does not grow with the episode count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import _score_map, per_query_symmetric_score
from .info import Bits, gaussian_cdf
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
class ProbeResult:
    """Counted budget versus observed score for one probe run."""

    counted_capacity: Bits
    observed_score: Bits
    interval: tuple[Bits, Bits]


@dataclass(frozen=True)
class Interface:
    """What one probe kind fixes about its interface before any sampling.

    ``certificate`` is the bit budget C_H that the physical model alone
    certifies.  The probe sends database bits 0..carried-1 through the
    interface, each as +/- ``amp`` over unit-variance Gaussian noise when
    ``amp`` is set.  ``analytic`` is the score its decoder reaches in
    expectation and ``soft_ceiling`` the most any decoder could read.
    """

    certificate: Bits
    carried: int
    analytic: Bits
    soft_ceiling: Bits
    amp: float | None = None


def probe_interface(kind: str, n_bits: int, *params) -> Interface:
    """The interface a probe runs against an ``n_bits`` database.

    ``params`` are the probe's own arguments: (m,) for a hard m-bit alphabet
    ("hard"), (d, q) for d coordinates of q-bit precision ("packed") and
    (d, snr) for d real coordinates over Gaussian noise at power ratio snr
    ("awgn").  Raises ValueError on arguments the probe cannot run, so a
    whole grid can be checked before any sampling.
    """
    if kind == "hard":
        (m,) = params
        if not 0 <= m <= n_bits:
            raise ValueError(f"m={m} outside [0, {n_bits}]")
        return Interface(certificate=float(m), carried=m, analytic=float(m),
                         soft_ceiling=float(m))
    if kind == "packed":
        d, q = params
        if d < 0 or q < 0:
            raise ValueError("counts must be nonnegative")
        if d * q > 64 * max(d, 1):
            raise ValueError("more than 64 bits per coordinate")
        carried = min(n_bits, d * q)
        return Interface(certificate=float(d * q), carried=carried, analytic=float(carried),
                         soft_ceiling=float(d * q))
    if kind == "awgn":
        d, snr = params
        if d < 1:
            raise ValueError("need at least one coordinate")
        if d > n_bits:
            raise ValueError(f"d={d} coordinates above the n_bits={n_bits} database bits "
                             f"they would carry")
        if snr < 0.0:
            raise ValueError("snr must be nonnegative")
        return Interface(certificate=d / 2.0 * math.log2(1.0 + snr), carried=d,
                         analytic=awgn_hard_decision_score(d, snr),
                         soft_ceiling=d * bpsk_mutual_information(snr), amp=math.sqrt(snr))
    raise ValueError(f"unknown probe kind {kind!r}")


def _run_probe(interface: Interface, n_bits: int, episodes: int, seed: int, level: float,
               method: str) -> ProbeResult:
    """Score ``interface`` against an ``n_bits`` database.

    Queries below ``carried`` are answered through the interface, noisy bits
    thresholded at zero, and all others with a fair coin.  Episodes run in
    fixed chunks, so the working memory does not grow with ``episodes``.
    """
    if episodes < 0:
        raise ValueError(f"episodes={episodes} is negative")
    carried, amp = interface.carried, interface.amp
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
    return ProbeResult(counted_capacity=interface.certificate,
                       observed_score=score, interval=interval)


def run_hard_copy_probe(n_bits: int, m: int, episodes: int, seed: int,
                        level: float = 0.95, method: str = "wilson") -> ProbeResult:
    """Copy the first m database bits through a hard m-bit interface."""
    return _run_probe(probe_interface("hard", n_bits, m), n_bits, episodes, seed, level,
                      method)


def run_packed_precision_probe(n_bits: int, d: int, q: int, episodes: int,
                               seed: int, level: float = 0.95,
                               method: str = "wilson") -> ProbeResult:
    """Pack database bits into d coordinates of q-bit precision each.

    The interface transmits d reals; quantization makes the true budget d*q.
    Integer codewords carry bits below the budget exactly, so the first
    min(N, d*q) bits are read back unchanged and the rest are coins.
    """
    return _run_probe(probe_interface("packed", n_bits, d, q), n_bits, episodes, seed, level,
                      method)


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
    return _run_probe(probe_interface("awgn", n_bits, d, snr), n_bits, episodes, seed, level,
                      method)


def awgn_hard_decision_score(d: int, snr: float) -> Bits:
    """Analytic score d (1 - h(Phi(sqrt(snr)))) of the threshold decoder."""
    return _score_map(gaussian_cdf(math.sqrt(snr)), d)


@functools.lru_cache(maxsize=4)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


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
    nodes, weights = _hermgauss(order)
    z = math.sqrt(2.0) * nodes  # standard normal variates
    exponent = -2.0 * a * a - 2.0 * a * z
    # log2(1 + exp(e)) evaluated stably on both tails
    vals = np.logaddexp(0.0, exponent) / math.log(2.0)
    expectation = float((weights * vals).sum() / math.sqrt(math.pi))
    return min(1.0, max(0.0, 1.0 - expectation))
