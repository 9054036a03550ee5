"""No-signaling correlation boxes and CHSH-type cells.

A box is a conditional distribution P(A, B | s, t) over binary inputs and
outputs, held in one form: the 4x4 :class:`BoxTable`.  The module provides
the isotropic one-parameter family, an asymmetric two-bias family, the
measurement-angle family with a visibility knob and explicit tables.  Every
cell is its table; the pyramid sampler's conditional tables are derived
from it in one place, :meth:`Cell.conditional_tables`.  Cells are
immutable, hold no randomness and are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import clamp_probability

# Conditional distributions must sum to one within this tolerance.
DIST_TOL = 1e-12
# Marginals may depend on the remote input by at most this much.
NS_TOL = 1e-10

TSIRELSON_BIAS = 1.0 / math.sqrt(2.0)


class SignalingBoxError(ValueError):
    """The conditional table lets one party's marginal depend on the other's input."""


# Rows 2s+t on which the game asks for a xor b = s*t = 1, and entries 2a+b
# with a xor b = s*t.
_ST = np.array([False, False, False, True])
_WINS = np.array([0, 1, 1, 0]) == _ST[:, None]


@dataclass(frozen=True)
class BoxTable:
    """Conditional table probs[2s+t, 2A+B] = P(A, B | s, t).

    Construction checks that every entry is finite and every row a
    distribution; it does not check no-signaling, so that deliberately
    signaling tables can be built and fed to :func:`no_signaling_check`.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"box table must be 4x4, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"box table entries must be finite, got {arr.tolist()!r}")
        if arr.min() < -DIST_TOL:
            raise ValueError(f"negative probability {arr.min()!r}")
        rows = arr.sum(axis=1)
        if np.abs(rows - 1.0).max() > DIST_TOL:
            raise ValueError(f"rows must sum to 1, got {rows!r}")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def win_probabilities(self) -> np.ndarray:
        """P(A xor B = s*t | s, t), indexed 2s+t."""
        p = self.probs
        return np.where(_ST, p[:, 1] + p[:, 2], p[:, 0] + p[:, 3])

    def correlators(self) -> tuple[float, float, float, float]:
        """The four +/-1 correlators E_st = E[(-1)^(A+B) | s, t], indexed 2s+t."""
        p = self.probs
        return tuple(float(e) for e in p[:, 0] - p[:, 1] - p[:, 2] + p[:, 3])


def no_signaling_check(box: BoxTable) -> tuple[bool, float]:
    """Return (pass, max marginal deviation across the remote input); a NaN
    entry fails."""
    p = box.probs
    alice = (p[:, 2] + p[:, 3]).reshape(2, 2)  # P(A = 1 | s, t) at [s, t]
    bob = (p[:, 1] + p[:, 3]).reshape(2, 2)  # P(B = 1 | s, t)
    dev = float(np.abs(np.concatenate([alice[:, 0] - alice[:, 1], bob[0] - bob[1]])).max())
    return dev <= NS_TOL, dev


def box_from_win_probabilities(wins) -> BoxTable:
    """Uniform-marginal box with the given per-input winning probabilities."""
    wins = [clamp_probability(w, "win probability") for w in wins]
    if len(wins) != 4:
        raise ValueError("need one winning probability per input pair")
    w = np.array(wins)[:, None]
    return BoxTable(np.where(_WINS, w, 1.0 - w) / 2.0)


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
