"""Executable one-bit random-access protocols.

The workhorse is the depth-n pyramid: a full binary tree of independent
correlation cells that answers any one of N = 2^n database queries through a
single transmitted bit.  Encoding runs bottom-up over intermediate messages,
decoding walks the query path top-down, and the local cell error bits XOR
along the path, so the output obeys

    output = target ^ (parity of path error bits)

exactly, episode by episode.  :func:`pyramid_monte_carlo` is the only
sampler; at depth 1 it runs the two-bit seed protocol.  Also here: the
closed-form success probabilities and the optimal classical one-bit majority
code.  The copy baseline is :func:`racbox.capacity.run_hard_copy_probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import Cell
from .rng import substream

# Stream labels for batch simulation; episode i always reads row i of each
# labelled stream, so results do not depend on the episode count.
_DB_STREAM = 0
_QUERY_STREAM = 1
_ALICE_STREAM = 2
_BOB_STREAM = 3


@dataclass(frozen=True)
class PyramidProtocol:
    """Depth-n tree of 2^n - 1 independent cells.

    ``cells`` is heap-ordered: the root is cells[0] and the node reached by
    path bits (t1, ..., tr) sits at index 2^r - 1 + int(t1...tr, 2).  Fresh
    error bits are drawn at every episode; the cell parameters are fixed.
    """

    depth: int
    cells: tuple[Cell, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        want = (1 << self.depth) - 1
        if len(self.cells) != want:
            raise ValueError(f"need {want} cells for depth {self.depth}, got {len(self.cells)}")

    @classmethod
    def uniform(cls, depth: int, cell: Cell) -> "PyramidProtocol":
        return cls(depth=depth, cells=((1 << depth) - 1) * (cell,))

    @property
    def n_inputs(self) -> int:
        return 1 << self.depth


@dataclass(frozen=True)
class PyramidBatch:
    """Vectorized record of many independent pyramid episodes."""

    queries: np.ndarray
    targets: np.ndarray
    outputs: np.ndarray
    messages: np.ndarray
    path_errors: np.ndarray  # (episodes, depth)

    @property
    def successes(self) -> np.ndarray:
        return self.outputs == self.targets

    @property
    def success_count(self) -> int:
        return int(self.successes.sum())

    def parity_identity_holds(self) -> bool:
        """output == target ^ parity(path errors) on every episode."""
        parity = self.path_errors.sum(axis=1) % 2
        return bool(np.array_equal(self.outputs, self.targets ^ parity))

    def per_query_counts(self, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
        """(success count, trial count) per query index."""
        totals = np.bincount(self.queries, minlength=n_queries)
        wins = np.bincount(self.queries, weights=self.successes, minlength=n_queries)
        return wins.astype(int), totals


def pyramid_monte_carlo(protocol: PyramidProtocol, episodes: int, seed: int,
                        query: int | None = None) -> PyramidBatch:
    """Run many episodes with fresh databases and fresh cells.

    Queries are uniform unless ``query`` pins them.  Randomness is read from
    named substreams of ``seed`` so episode i is reproducible regardless of
    the batch size.
    """
    n = protocol.depth
    big_n = protocol.n_inputs
    t_count = int(episodes)
    if t_count * big_n > 1 << 31:
        raise ValueError("batch needs more than 2^31 cell draws; "
                         "reduce the episode count or the depth")
    if query is not None and not 0 <= query < big_n:
        raise ValueError(f"query {query} out of range")

    # Per-node conditional tables, gathered by heap index.
    pa1 = np.stack([c.conditional_tables()[0] for c in protocol.cells])
    pb1 = np.stack([c.conditional_tables()[1] for c in protocol.cells])

    db = substream(seed, _DB_STREAM).integers(0, 2, size=(t_count, big_n), dtype=np.uint8)
    if query is None:
        queries = substream(seed, _QUERY_STREAM).integers(0, big_n, size=t_count)
    else:
        queries = np.full(t_count, int(query))

    # Upward encoding.
    x = db
    s_levels: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    a_levels: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for r in range(n - 1, -1, -1):
        left, right = x[:, 0::2], x[:, 1::2]
        s_vals = left ^ right
        node_ids = (1 << r) - 1 + np.arange(1 << r)
        p_alice = pa1[node_ids[None, :], 2 * s_vals]
        u = substream(seed, _ALICE_STREAM, r).random((t_count, 1 << r))
        a_vals = (u < p_alice).astype(np.uint8)
        s_levels[r] = s_vals
        a_levels[r] = a_vals
        x = left ^ a_vals
    messages = x[:, 0].copy()

    # Downward decoding.
    estimate = messages.copy()
    errors = np.empty((t_count, n), dtype=np.uint8)
    j = np.zeros(t_count, dtype=np.int64)
    rows = np.arange(t_count)
    for r in range(n):
        t_bits = ((queries >> (n - 1 - r)) & 1).astype(np.uint8)
        s_vals = s_levels[r][rows, j]
        a_vals = a_levels[r][rows, j]
        node_ids = (1 << r) - 1 + j
        p_bob = pb1[node_ids, 2 * s_vals + t_bits, a_vals]
        u = substream(seed, _BOB_STREAM, r).random(t_count)
        b_vals = (u < p_bob).astype(np.uint8)
        errors[:, r] = a_vals ^ b_vals ^ (s_vals & t_bits)
        estimate ^= b_vals
        j = 2 * j + t_bits

    targets = db[rows, queries]
    return PyramidBatch(queries=queries, targets=targets, outputs=estimate,
                        messages=messages, path_errors=errors)


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


# ---------------------------------------------------------------------------
# Classical one-bit benchmark: majority encoding
# ---------------------------------------------------------------------------


def majority_encode(db) -> int:
    """Majority bit of the database; ties on even N break to 0."""
    bits = [int(v) & 1 for v in db]
    return int(sum(bits) * 2 > len(bits))


def classical_avg_success_closed_form(n_bits: int) -> float:
    """Optimal classical one-bit average success 1/2 + 2^-N C(N-1, floor((N-1)/2)).

    Evaluated in exact rational arithmetic before conversion to float.
    """
    if n_bits < 1:
        raise ValueError("need at least one database bit")
    if n_bits > 1_000_000:
        raise OverflowError("binomial evaluation beyond the big-integer budget")
    frac = Fraction(1, 2) + Fraction(math.comb(n_bits - 1, (n_bits - 1) // 2), 2 ** n_bits)
    return float(frac)


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
