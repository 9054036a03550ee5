"""No-signaling correlation boxes and CHSH-type cells.

A box is a conditional distribution P(A, B | s, t) over binary inputs and
outputs.  The module provides the isotropic one-parameter family, an
asymmetric two-bias family, the measurement-angle family with a visibility
knob, explicit tables, the CHSH functional, and the exact isotropizing
twirl.  Cells are immutable, hold no randomness and are safe to share across
workers; the pyramid sampler draws from their conditional tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .info import clamp_probability

# Conditional distributions must sum to one within this tolerance.
DIST_TOL = 1e-12
# Marginals may depend on the remote input by at most this much.
NS_TOL = 1e-10

TSIRELSON_CHSH = 2.0 + math.sqrt(2.0)
TSIRELSON_BIAS = 1.0 / math.sqrt(2.0)


class SignalingBoxError(ValueError):
    """The conditional table lets one party's marginal depend on the other's input."""


def _input_index(s: int, t: int) -> int:
    return 2 * s + t


@dataclass(frozen=True)
class CorrelatorSet:
    """The four +/-1 correlators E_st = E[(-1)^(A+B) | s, t]."""

    e00: float
    e01: float
    e10: float
    e11: float

    def __post_init__(self):
        for name in ("e00", "e01", "e10", "e11"):
            v = getattr(self, name)
            if abs(v) > 1.0 + DIST_TOL:
                raise ValueError(f"{name}={v!r} outside [-1, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.e00, self.e01, self.e10, self.e11])


@dataclass(frozen=True)
class BoxTable:
    """Conditional table probs[2s+t, 2A+B] = P(A, B | s, t).

    Construction checks that every row is a distribution; it does not check
    no-signaling, so that deliberately signaling tables can be built and fed
    to :func:`no_signaling_check`.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"box table must be 4x4, got {arr.shape}")
        if arr.min() < -DIST_TOL:
            raise ValueError(f"negative probability {arr.min()!r}")
        rows = arr.sum(axis=1)
        if np.abs(rows - 1.0).max() > DIST_TOL:
            raise ValueError(f"rows must sum to 1, got {rows!r}")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def prob(self, a: int, b: int, s: int, t: int) -> float:
        return float(self.probs[_input_index(s, t), 2 * a + b])

    def alice_marginal(self, s: int, t: int) -> float:
        """P(A = 1 | s, t)."""
        row = self.probs[_input_index(s, t)]
        return float(row[2] + row[3])

    def bob_marginal(self, s: int, t: int) -> float:
        """P(B = 1 | s, t)."""
        row = self.probs[_input_index(s, t)]
        return float(row[1] + row[3])

    def win_probability(self, s: int, t: int) -> float:
        """P(A xor B = s*t | s, t)."""
        row = self.probs[_input_index(s, t)]
        st = s & t
        return float(sum(row[2 * a + (a ^ st)] for a in (0, 1)))

    def win_probabilities(self) -> np.ndarray:
        return np.array([self.win_probability(s, t) for s, t in product((0, 1), repeat=2)])

    def correlators(self) -> CorrelatorSet:
        vals = []
        for s, t in product((0, 1), repeat=2):
            row = self.probs[_input_index(s, t)]
            vals.append(float(row[0] - row[1] - row[2] + row[3]))
        return CorrelatorSet(*vals)


def no_signaling_check(box: BoxTable) -> tuple[bool, float]:
    """Return (pass, max marginal deviation across the remote input)."""
    dev = 0.0
    for s in (0, 1):
        dev = max(dev, abs(box.alice_marginal(s, 0) - box.alice_marginal(s, 1)))
    for t in (0, 1):
        dev = max(dev, abs(box.bob_marginal(0, t) - box.bob_marginal(1, t)))
    return dev <= NS_TOL, dev


def chsh_value(box: BoxTable) -> float:
    """CHSH functional: the sum over inputs of the winning probability."""
    return float(box.win_probabilities().sum())


def effective_iso_bias(box: BoxTable) -> float:
    """Isotropic bias S/2 - 1 the box twirls to, clipped to [-1, 1]."""
    return float(np.clip(chsh_value(box) / 2.0 - 1.0, -1.0, 1.0))


def box_from_win_probabilities(wins) -> BoxTable:
    """Uniform-marginal box with the given per-input winning probabilities."""
    wins = [clamp_probability(w, "win probability") for w in wins]
    if len(wins) != 4:
        raise ValueError("need one winning probability per input pair")
    table = np.empty((4, 4))
    for s, t in product((0, 1), repeat=2):
        w = wins[_input_index(s, t)]
        st = s & t
        for a, b in product((0, 1), repeat=2):
            table[_input_index(s, t), 2 * a + b] = (w if (a ^ b) == st else 1.0 - w) / 2.0
    return BoxTable(table)


def make_isotropic(bias: float) -> BoxTable:
    """Isotropic box: uniform marginals, winning probability (1+E)/2 on
    every input, entries (1 +/- E)/4."""
    if not -DIST_TOL <= bias <= 1.0 + DIST_TOL:
        raise ValueError(f"bias={bias!r} outside [0, 1]")
    w = (1.0 + min(max(bias, 0.0), 1.0)) / 2.0
    return box_from_win_probabilities([w, w, w, w])


def pr_box() -> BoxTable:
    """The extremal no-signaling box winning CHSH with certainty."""
    return make_isotropic(1.0)


def box_from_correlators(cs: CorrelatorSet) -> BoxTable:
    """Uniform-marginal box with the given correlators."""
    wins = [(1.0 + (-1) ** (s & t) * e) / 2.0
            for (s, t), e in zip(product((0, 1), repeat=2), cs.as_array())]
    return BoxTable(box_from_win_probabilities(wins).probs)


def quantum_phi_correlators(phi: float, visibility: float = 1.0) -> CorrelatorSet:
    """Correlators of the one-angle measurement family on a maximally
    entangled pair, shrunk by the visibility: v*(cos phi, cos phi, sin phi,
    -sin phi)."""
    if not 0.0 <= phi <= math.pi / 4 + 1e-12:
        raise ValueError(f"phi={phi!r} outside [0, pi/4]")
    if not 0.0 <= visibility <= 1.0 + DIST_TOL:
        raise ValueError(f"visibility={visibility!r} outside [0, 1]")
    c, s = visibility * math.cos(phi), visibility * math.sin(phi)
    return CorrelatorSet(c, c, s, -s)


def iso_bias_from_angle(phi: float, visibility: float = 1.0) -> float:
    """Effective isotropic bias v*(cos phi + sin phi)/2 of the angle family."""
    cs = quantum_phi_correlators(phi, visibility)
    return (cs.e00 + cs.e01 + cs.e10 - cs.e11) / 4.0


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
            row = box.probs[_input_index(s ^ u, t ^ v)]
            for a, b in product((0, 1), repeat=2):
                ap = a ^ w ^ (s & v) ^ (u & v)
                bp = b ^ w ^ (u & t)
                out[_input_index(s, t), 2 * ap + bp] += row[2 * a + b] / 8.0
    return BoxTable(out)


# ---------------------------------------------------------------------------
# Cells: samplable parameterizations of a box
# ---------------------------------------------------------------------------


class Cell:
    """A samplable no-signaling box used as one node of a protocol.

    Subclasses provide ``conditional_tables``; the pyramid sampler and the
    table expansion both read it, so the analytic table and the sampler can
    never disagree.
    """

    def conditional_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(pA1[2s+t], pB1[2s+t, A]): Alice's marginal of 1 per input pair and
        Bob's conditional probability of 1 given Alice's output."""
        raise NotImplementedError

    def win_probability(self, s: int, t: int) -> float:
        return self.as_table().win_probability(s, t)

    def as_table(self) -> BoxTable:
        pa1, pb1 = self.conditional_tables()
        table = np.empty((4, 4))
        for s, t in product((0, 1), repeat=2):
            i = _input_index(s, t)
            for a in (0, 1):
                pa = pa1[i] if a else 1.0 - pa1[i]
                table[i, 2 * a + 1] = pa * pb1[i, a]
                table[i, 2 * a + 0] = pa * (1.0 - pb1[i, a])
        return BoxTable(table)


def _uniform_alice_tables(wins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Generative model A = U, B = U ^ st ^ e with Pr[e = 0] the win probability.
    pa1 = np.full(4, 0.5)
    pb1 = np.empty((4, 2))
    for s, t in product((0, 1), repeat=2):
        i = _input_index(s, t)
        w = wins[i]
        st = s & t
        for a in (0, 1):
            # B = 1 iff e == 1 ^ a ^ st
            pb1[i, a] = w if (1 ^ a ^ st) == 0 else 1.0 - w
    return pa1, pb1


@dataclass(frozen=True)
class IsotropicCell(Cell):
    """Uniform marginals, win probability (1+E)/2 independent of the input."""

    bias: float

    def __post_init__(self):
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"bias={self.bias!r} outside [0, 1]")

    def conditional_tables(self):
        w = (1.0 + self.bias) / 2.0
        return _uniform_alice_tables(np.full(4, w))

    def win_probability(self, s: int, t: int) -> float:
        return (1.0 + self.bias) / 2.0


@dataclass(frozen=True)
class AsymmetricCell(Cell):
    """Win probability (1+E_t)/2 keyed on Bob's input bit."""

    bias0: float
    bias1: float

    def __post_init__(self):
        for name in ("bias0", "bias1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")

    def conditional_tables(self):
        wins = np.array([(1.0 + (self.bias1 if t else self.bias0)) / 2.0
                         for s, t in product((0, 1), repeat=2)])
        return _uniform_alice_tables(wins)

    def win_probability(self, s: int, t: int) -> float:
        return (1.0 + (self.bias1 if t else self.bias0)) / 2.0


@dataclass(frozen=True)
class QuantumPhiCell(Cell):
    """Angle-family box: correlators v*(cos phi, cos phi, sin phi, -sin phi).

    Built analytically from the correlators (uniform marginals), not from a
    state-vector simulation.
    """

    phi: float
    visibility: float = 1.0

    def __post_init__(self):
        quantum_phi_correlators(self.phi, self.visibility)  # range checks

    def correlators(self) -> CorrelatorSet:
        return quantum_phi_correlators(self.phi, self.visibility)

    def conditional_tables(self):
        es = self.correlators().as_array()
        wins = np.array([(1.0 + (-1) ** (s & t) * es[_input_index(s, t)]) / 2.0
                         for s, t in product((0, 1), repeat=2)])
        return _uniform_alice_tables(wins)


@dataclass(frozen=True)
class ExplicitCell(Cell):
    """Cell backed by an explicit no-signaling table."""

    table: BoxTable

    def __post_init__(self):
        ok, dev = no_signaling_check(self.table)
        if not ok:
            raise SignalingBoxError(f"explicit cell table signals (deviation {dev:.3g})")

    def conditional_tables(self):
        pa1 = np.empty(4)
        pb1 = np.empty((4, 2))
        for s, t in product((0, 1), repeat=2):
            i = _input_index(s, t)
            pa1[i] = self.table.alice_marginal(s, t)
            for a in (0, 1):
                pa = pa1[i] if a else 1.0 - pa1[i]
                joint1 = self.table.prob(a, 1, s, t)
                # Unreachable Alice branch: any conditional works, pick 1/2.
                pb1[i, a] = joint1 / pa if pa > 0.0 else 0.5
        return pa1, pb1

    def as_table(self) -> BoxTable:
        return self.table


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
            table[_input_index(s, t), 2 * a + b] += weights[k]
        k += 1
    lam = rng.uniform(0.0, max_pr_weight)
    table = (1.0 - lam) * table + lam * pr_box().probs
    return BoxTable(table)
