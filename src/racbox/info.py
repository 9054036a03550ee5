"""Exact scalar information functionals on binary variables.

All logarithms are base 2; every quantity is in bits.  The 0*log(0) = 0
convention is applied by explicit branching rather than limit evaluation so
that boundary inputs never produce NaN.
"""

from __future__ import annotations

import math

Probability = float
Bits = float

LN2 = math.log(2.0)

# Monte Carlo success ratios can stray outside [0, 1] by rounding; anything
# beyond this tolerance is treated as a caller bug.
PROB_TOL = 1e-12

# Below this correlation the direct 1 - h((1+d)/2) evaluation carries an
# absolute rounding floor near 1e-16 that scaling by 2^n amplifies; the
# series path keeps full *relative* precision, so it takes over early.  At
# the switch point the two paths agree to better than 1e-15 relative.
_SERIES_THRESHOLD = 0.5


def clamp_probability(p: float, name: str = "p") -> Probability:
    """Clamp ``p`` into [0, 1], rejecting violations beyond PROB_TOL."""
    p = float(p)
    if p < 0.0:
        if p < -PROB_TOL:
            raise ValueError(f"{name}={p!r} outside [0, 1]")
        return 0.0
    if p > 1.0:
        if p > 1.0 + PROB_TOL:
            raise ValueError(f"{name}={p!r} outside [0, 1]")
        return 1.0
    return p


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF, from math.erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def binary_entropy(p: Probability) -> Bits:
    """Entropy h(p) = -p log p - (1-p) log(1-p) of a biased coin."""
    p = clamp_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    # Evaluate at min(p, 1-p): 1-p is exact for p >= 1/2, which makes the
    # symmetry h(p) = h(1-p) hold bit for bit.
    p = min(p, 1.0 - p)
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def entropy_deficit(delta: float) -> Bits:
    """1 - h((1 + delta)/2) for a correlation delta in [-1, 1].

    Evaluated through the series sum_k delta^(2k) / (2k (2k-1) ln 2), whose
    terms shrink by at least delta^2 per step, so for |delta| < 1/2 a few
    dozen terms reach full relative precision; the direct formula is only
    used where it is itself accurate.
    """
    d = abs(float(delta))
    if d > 1.0 + PROB_TOL:
        raise ValueError(f"delta={delta!r} outside [-1, 1]")
    d = min(d, 1.0)
    if d >= _SERIES_THRESHOLD:
        return 1.0 - binary_entropy((1.0 + d) / 2.0)
    d2 = d * d
    term = d2 / 2.0
    total = term
    k = 1
    while term > total * 1e-18 and k < 60:
        k += 1
        term *= d2 * (2 * k - 3) / (2 * k - 1) * ((2 * k - 2) / (2 * k))
        total += term
    return total / LN2
