"""No-signaling correlation boxes and CHSH-type cells.

A box is a conditional distribution P(A, B | s, t) over binary inputs and
outputs, held in one form: the 4x4 :class:`BoxTable`.  The module provides
the isotropic one-parameter family, an asymmetric two-bias family, the
measurement-angle family with a visibility knob, explicit tables, the CHSH
functional, and the exact isotropizing twirl.  Every cell is its table; the
pyramid sampler's conditional tables are derived from it in one place,
:meth:`Cell.conditional_tables`.  Cells are immutable, hold no randomness
and are safe to share across workers.
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

TSIRELSON_BIAS = 1.0 / math.sqrt(2.0)


class SignalingBoxError(ValueError):
    """The conditional table lets one party's marginal depend on the other's input."""


def _input_index(s: int, t: int) -> int:
    return 2 * s + t


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

    def correlators(self) -> tuple[float, float, float, float]:
        """The four +/-1 correlators E_st = E[(-1)^(A+B) | s, t], indexed 2s+t."""
        p = self.probs
        return tuple(float(e) for e in p[:, 0] - p[:, 1] - p[:, 2] + p[:, 3])


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


def quantum_phi_correlators(phi: float,
                            visibility: float = 1.0) -> tuple[float, float, float, float]:
    """Correlators E_st, indexed 2s+t, of the one-angle measurement family on
    a maximally entangled pair, shrunk by the visibility: v*(cos phi,
    cos phi, sin phi, -sin phi)."""
    if not 0.0 <= phi <= math.pi / 4 + 1e-12:
        raise ValueError(f"phi={phi!r} outside [0, pi/4]")
    if not 0.0 <= visibility <= 1.0 + DIST_TOL:
        raise ValueError(f"visibility={visibility!r} outside [0, 1]")
    c, s = visibility * math.cos(phi), visibility * math.sin(phi)
    return c, c, s, -s


def iso_bias_from_angle(phi: float, visibility: float = 1.0) -> float:
    """Effective isotropic bias v*(cos phi + sin phi)/2 of the angle family."""
    e00, e01, e10, e11 = quantum_phi_correlators(phi, visibility)
    return (e00 + e01 + e10 - e11) / 4.0


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

    A cell is its table: each subclass gives only :meth:`as_table`, and the
    sampler's conditional tables are derived from that table here, in one
    place, so the analytic table and the sampler can never disagree.
    """

    def as_table(self) -> BoxTable:
        raise NotImplementedError

    def conditional_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(pA1[2s+t], pB1[2s+t, A]): Alice's marginal of 1 per input pair and
        Bob's conditional probability of 1 given Alice's output, 1/2 on a
        branch Alice never takes."""
        p = self.as_table().probs
        # A uniform-marginal cell wins with w >= 1/2, so 1 - w is exact and
        # w/2 + (1 - w)/2 is exactly 1/2: the sampler's pa1 == 0.5 holds.
        pa1 = p[:, 2] + p[:, 3]
        alice = np.stack([1.0 - pa1, pa1], axis=1)
        return pa1, np.divide(p[:, 1::2], alice, out=np.full((4, 2), 0.5), where=alice > 0.0)


@dataclass(frozen=True)
class IsotropicCell(Cell):
    """Uniform marginals, win probability (1+E)/2 independent of the input."""

    bias: float

    def __post_init__(self):
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"bias={self.bias!r} outside [0, 1]")

    def as_table(self) -> BoxTable:
        return make_isotropic(self.bias)


@dataclass(frozen=True)
class AsymmetricCell(Cell):
    """Uniform marginals, win probability (1+E_t)/2 keyed on Bob's input bit."""

    bias0: float
    bias1: float

    def __post_init__(self):
        for name in ("bias0", "bias1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")

    def as_table(self) -> BoxTable:
        w0, w1 = (1.0 + self.bias0) / 2.0, (1.0 + self.bias1) / 2.0
        return box_from_win_probabilities([w0, w1, w0, w1])


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

    def as_table(self) -> BoxTable:
        # win probability (1 + (-1)^(s t) E_st) / 2
        e00, e01, e10, e11 = quantum_phi_correlators(self.phi, self.visibility)
        return box_from_win_probabilities([(1.0 + e) / 2.0 for e in (e00, e01, e10, -e11)])


@dataclass(frozen=True)
class ExplicitCell(Cell):
    """Cell backed by an explicit no-signaling table."""

    table: BoxTable

    def __post_init__(self):
        ok, dev = no_signaling_check(self.table)
        if not ok:
            raise SignalingBoxError(f"explicit cell table signals (deviation {dev:.3g})")

    def as_table(self) -> BoxTable:
        return self.table
