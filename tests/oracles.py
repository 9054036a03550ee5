"""Reference oracles that only the tests use.

    from oracles import TSIRELSON_CHSH, pyramid_success_closed_form, random_no_signaling_box

pytest puts this directory on ``sys.path``, so the test modules import it
by its bare name.
"""

import math
from itertools import product

import numpy as np

from racbox.boxes import NS_TOL, BoxTable, SignalingBoxError, no_signaling_check, pr_box
from racbox.info import Probability, binary_entropy, clamp_probability

TSIRELSON_CHSH = 2.0 + math.sqrt(2.0)


def chsh_value(box: BoxTable) -> float:
    """CHSH functional: the sum over inputs of the winning probability."""
    return float(box.win_probabilities().sum())


def twirl(box: BoxTable) -> BoxTable:
    """Exact isotropization by local shared randomness.

    Averages over the 8 assignments of shared bits (u, v, w): inputs are
    shifted to (s^u, t^v) and the outputs corrected as A' = A^w^(s&v)^(u&v),
    B' = B^w^(u&t).  The result is isotropic with the same CHSH value.
    Signaling inputs are rejected because the construction presumes a valid
    shared-randomness protocol.
    """
    ok, dev = no_signaling_check(box)
    if not ok:
        raise SignalingBoxError(f"cannot twirl a signaling table (deviation {dev:.3g})")
    out = np.zeros((4, 4))
    for u, v, w in product((0, 1), repeat=3):
        for s, t in product((0, 1), repeat=2):
            row = box.probs[2 * (s ^ u) + (t ^ v)]
            for a, b in product((0, 1), repeat=2):
                ap = a ^ w ^ (s & v) ^ (u & v)
                bp = b ^ w ^ (u & t)
                out[2 * s + t, 2 * ap + bp] += row[2 * a + b] / 8.0
    return BoxTable(out)


def loop_win_probabilities(box: BoxTable) -> np.ndarray:
    """P(A xor B = s*t | s, t), indexed 2s+t, one input pair at a time."""
    wins = []
    for s, t in product((0, 1), repeat=2):
        row = box.probs[2 * s + t]
        wins.append(float(sum(row[2 * a + (a ^ (s & t))] for a in (0, 1))))
    return np.array(wins)


def loop_no_signaling_check(box: BoxTable) -> tuple[bool, float]:
    """(pass, max marginal deviation across the remote input), one input at a time."""
    p = box.probs
    dev = 0.0
    for s in (0, 1):  # P(A = 1 | s, t) at t = 0 and t = 1
        dev = max(dev, abs((p[2 * s, 2] + p[2 * s, 3]) - (p[2 * s + 1, 2] + p[2 * s + 1, 3])))
    for t in (0, 1):  # P(B = 1 | s, t) at s = 0 and s = 1
        dev = max(dev, abs((p[t, 1] + p[t, 3]) - (p[2 + t, 1] + p[2 + t, 3])))
    return dev <= NS_TOL, dev


def loop_box_from_win_probabilities(wins) -> np.ndarray:
    """The uniform-marginal table with winning probabilities ``wins``, entry by entry."""
    table = np.empty((4, 4))
    for s, t in product((0, 1), repeat=2):
        w = wins[2 * s + t]
        for a, b in product((0, 1), repeat=2):
            table[2 * s + t, 2 * a + b] = (w if (a ^ b) == (s & t) else 1.0 - w) / 2.0
    return table


def random_no_signaling_box(rng: np.random.Generator, max_pr_weight: float = 0.5) -> BoxTable:
    """Random point of the no-signaling polytope: a Dirichlet mixture of the
    16 local deterministic boxes plus a random amount of the extremal box.

    ``max_pr_weight`` bounds the extremal component so that both local-ish
    and strongly nonlocal boxes get exercised.
    """
    weights = rng.dirichlet(np.ones(16))
    table = np.zeros((4, 4))
    k = 0
    for a0, a1, b0, b1 in product((0, 1), repeat=4):
        for s, t in product((0, 1), repeat=2):
            a = a1 if s else a0
            b = b1 if t else b0
            table[2 * s + t, 2 * a + b] += weights[k]  # row s t, column a b
        k += 1
    lam = rng.uniform(0.0, max_pr_weight)
    table = (1.0 - lam) * table + lam * pr_box().probs
    return BoxTable(table)


def binary_channel_information(q: Probability, r: Probability) -> float:
    """Mutual information of a general binary channel under an unbiased input.

    ``q`` and ``r`` are the probabilities of output 1 given input 0 and
    input 1 respectively; the value is h((q+r)/2) - h(q)/2 - h(r)/2 and
    reduces to the symmetric channel's 1 - h(p) = ``entropy_deficit(2p - 1)``
    when q = 1-p, r = p.
    """
    q = clamp_probability(q, "q")
    r = clamp_probability(r, "r")
    return binary_entropy((q + r) / 2.0) - 0.5 * binary_entropy(q) - 0.5 * binary_entropy(r)


def pyramid_success_closed_form(depth: int, bias: float) -> float:
    """Per-query success probability (1 + E^n)/2 of the uniform pyramid."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias={bias!r} outside [0, 1]")
    return (1.0 + bias ** depth) / 2.0


def asym_path_success(bias0: float, bias1: float, path) -> float:
    """Success probability (1 + prod_l E_{b_l})/2 along one query path."""
    for name, v in (("bias0", bias0), ("bias1", bias1)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}={v!r} outside [0, 1]")
    prod = 1.0
    for b in path:
        prod *= bias1 if b else bias0
    return (1.0 + prod) / 2.0


def table_from_pairs(targets, outputs) -> np.ndarray:
    """Tally (target, output) trial pairs into one 2x2 contingency table."""
    counts = np.zeros((2, 2), dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    np.add.at(counts, (t, np.asarray(outputs, dtype=np.int64)), 1)
    return counts


def binomial_pmf(trials: int, p: Probability, floor: float = 1e-15
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The counts k in [0, trials] whose Binom(k; trials, p) exceeds ``floor``,
    and that pmf, for 0 < p < 1; at trials = 1000 and the default floor the
    counts left out carry less than 5e-13 of the mass."""
    k = np.arange(trials + 1)
    log_choose = [math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
                  for i in range(trials + 1)]
    log_pmf = np.array(log_choose) + k * math.log(p) + (trials - k) * math.log1p(-p)
    pmf = np.exp(log_pmf)
    keep = pmf > floor
    return k[keep], pmf[keep]


def majority_encode(db) -> int:
    """Majority bit of the database; ties on even N break to 0."""
    bits = [int(v) & 1 for v in db]
    return int(sum(bits) * 2 > len(bits))


def majority_average_success(n_bits: int) -> float:
    """Average success of the majority code by exhaustive enumeration."""
    total = 0
    for word in range(1 << n_bits):
        db = [(word >> i) & 1 for i in range(n_bits)]
        x = majority_encode(db)
        total += sum(x == db[q] for q in range(n_bits))
    return total / (n_bits << n_bits)


def brute_force_one_bit_optimum(n_bits: int) -> float:
    """Best average success over all deterministic one-bit encoders, each
    paired with its optimal per-query deterministic decoder.

    Exhaustive over the 2^(2^N) encoders; feasible for N <= 4.  Constant
    decoders achieve exactly 1/2 on unbiased bits, so the optimal decoder
    per query is whichever of {x, 1-x} agrees with the target more often.
    """
    if n_bits > 4:
        raise ValueError("exhaustive encoder search is intended for N <= 4")
    size = 1 << n_bits
    dbs = [[(word >> i) & 1 for i in range(n_bits)] for word in range(size)]
    best = 0.0
    for enc in range(1 << size):
        f = [(enc >> w) & 1 for w in range(size)]
        total = 0
        for q in range(n_bits):
            agree = sum(f[w] == dbs[w][q] for w in range(size))
            total += max(agree, size - agree)
        best = max(best, total / (n_bits * size))
    return best
