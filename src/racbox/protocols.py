"""Executable one-bit random-access protocols.

The workhorse is the depth-n pyramid: a full binary tree of independent
correlation cells that answers any one of N = 2^n database queries through a
single transmitted bit.  Encoding runs bottom-up over intermediate messages,
decoding walks the query path top-down, and the local cell error bits XOR
along the path, so the output obeys

    output = target ^ (parity of path error bits)

exactly, episode by episode.  :func:`pyramid_monte_carlo` is the only
sampler; at depth 1 it runs the two-bit seed protocol.  One core decodes
the query path; a level source gives it each path node's cell input and
Alice bit.  When every cell's Alice marginal is 1/2, each off-path subtree
sends a fair bit, one-time-padded by its leftmost database bit, so the path
source samples only the n cells on the query path, at O(episodes * n) cost.
Otherwise the tree source encodes the whole database, at O(episodes * 2^n).
Episodes run in fixed chunks, so the working memory is fixed; only the
returned batch grows, at O(episodes * (depth + 11)) bytes.  Also here: the
optimal classical one-bit majority code.  The copy baseline is
:func:`racbox.capacity.run_hard_copy_probe`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.random import Generator

from .boxes import Cell
from .rng import substream

# Stream labels for batch simulation; episode i always reads row i of each
# labelled stream, so results do not depend on the episode count.
_DB_STREAM = 0
_QUERY_STREAM = 1
_ALICE_STREAM = 2
_BOB_STREAM = 3

# Cell draws per chunk of episodes (2^n per episode at depth n); the sampler's
# working memory is proportional to it.
_CHUNK_CELL_DRAWS = 1 << 20
# Largest batch the sampler returns, at depth + 11 bytes per episode.
_MAX_BATCH_BYTES = 2 << 30


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
    the batch size.  Episodes run in fixed chunks, so the working memory does
    not grow with ``episodes``; the returned batch takes O(episodes *
    (depth + 11)) bytes, and a batch above 2 GiB is refused up front.

    Both level sources give the same law of the recorded bits.  If every
    node's Alice marginal is exactly 1/2 (isotropic, asymmetric and
    angle-family cells), the path source samples only the n cells on the
    query path, at O(episodes * n) cost; the message is then one fair bit per
    episode and each target is implied by the path, so targets under
    different pinned queries are not bits of one shared database (the
    messages are still shared).  Any other protocol runs the tree source,
    which encodes all 2^n - 1 cells per episode, O(episodes * 2^n), and is
    refused above 2^31 cell draws.
    """
    n = protocol.depth
    t_count = int(episodes)
    batch_bytes = t_count * (n + 11)
    if batch_bytes > _MAX_BATCH_BYTES:
        raise ValueError(f"batch of {t_count} episodes at depth {n} needs "
                         f"{batch_bytes / 2**30:.2f} GiB, above the "
                         f"{_MAX_BATCH_BYTES / 2**30:g} GiB limit; reduce the episode count")
    if query is not None and not 0 <= query < protocol.n_inputs:
        raise ValueError(f"query {query} out of range")

    # Decide the source and apply its guard from the distinct cells, before
    # any table is stacked per node.
    tables = _cell_tables(protocol)
    uniform = all(np.all(pa1 == 0.5) for pa1, _ in tables.values())
    # The batch limit keeps the path's n draws per episode below 2^31, not the tree's 2^n.
    if not uniform and t_count * protocol.n_inputs > 1 << 31:
        raise ValueError("batch needs more than 2^31 cell draws, too many to run "
                         "in reasonable time; reduce the episode count or the depth")
    pa1, pb1 = _node_tables(protocol, tables)
    return _sample(pa1, pb1, t_count, seed, query, _path_levels if uniform else _tree_levels)


def _cell_tables(protocol: PyramidProtocol) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Conditional tables of each distinct cell object, keyed by its id, so a
    uniform protocol builds one pair for all of its 2^n - 1 nodes."""
    tables = {}
    for cell in protocol.cells:
        if id(cell) not in tables:
            tables[id(cell)] = cell.conditional_tables()
    return tables


def _node_tables(protocol: PyramidProtocol, tables: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-node conditional tables, stacked by heap index from the distinct
    cells' ``tables``."""
    row = {key: k for k, key in enumerate(tables)}
    nodes = np.fromiter((row[id(cell)] for cell in protocol.cells), np.intp, len(protocol.cells))
    pa1s, pb1s = zip(*tables.values())
    return np.stack(pa1s)[nodes], np.stack(pb1s)[nodes]


# Chunks read each stream in order, so the rows match one unchunked draw only
# if no generator call leaves draws behind at a chunk boundary.  random()
# takes one 64-bit word per value and the uint32 half-word buffer of the bit
# generator carries over between calls, but a uint8 integers() call takes 4
# values from each uint32 and drops its byte buffer when it returns.  Chunks
# therefore hold a multiple of 8 episodes, so that each uint8 call, of one or
# 2^n bytes per episode, ends on a uint32 boundary.


def _sample(pa1: np.ndarray, pb1: np.ndarray, episodes: int, seed: int,
            query: int | None, levels: Callable) -> PyramidBatch:
    """The sampler core: decode the query path top-down, chunk by chunk.

    ``levels(pa1, queries, db_rng, alice_rngs)`` is a level source.  It
    returns the root message, the targets (None where the path implies them)
    and an iterator of each path node's cell input s and Alice bit a, root
    first.  At every node Bob's bit b is drawn from his table at (s, t, a);
    the error bit is a ^ b ^ (s & t) and the output is the message XOR every b.
    """
    n = len(pb1).bit_length()
    batch = PyramidBatch(
        queries=(np.empty(episodes, dtype=np.int64) if query is None
                 else np.full(episodes, int(query))),
        targets=np.empty(episodes, dtype=np.uint8),
        outputs=np.empty(episodes, dtype=np.uint8),
        messages=np.empty(episodes, dtype=np.uint8),
        path_errors=np.empty((episodes, n), dtype=np.uint8))
    query_rng = substream(seed, _QUERY_STREAM) if query is None else None
    db_rng = substream(seed, _DB_STREAM)
    alice_rngs = [substream(seed, _ALICE_STREAM, r) for r in range(n)]
    bob_rngs = [substream(seed, _BOB_STREAM, r) for r in range(n)]
    # The tree holds its whole encoded database; the path draws one level at
    # a time, about 36 bytes of temporaries per episode at any depth.
    width = 1 << n if levels is _tree_levels else 16
    chunk = max(8, _CHUNK_CELL_DRAWS // width // 8 * 8)
    for lo in range(0, episodes, chunk):
        hi = min(lo + chunk, episodes)
        q = batch.queries[lo:hi]
        if query_rng is not None:
            q[:] = query_rng.integers(0, 1 << n, size=hi - lo)
        message, target, path = levels(pa1, q, db_rng, alice_rngs)
        implied, output = message.copy(), message.copy()
        for r, (s_vals, a_vals) in enumerate(path):
            t_bits = ((q >> (n - 1 - r)) & 1).astype(np.uint8)
            p_bob = pb1[(1 << r) - 1 + (q >> (n - r)), 2 * s_vals + t_bits, a_vals]
            b_vals = (bob_rngs[r].random(hi - lo) < p_bob).astype(np.uint8)
            pad = a_vals ^ (s_vals & t_bits)
            batch.path_errors[lo:hi, r] = pad ^ b_vals
            implied ^= pad
            output ^= b_vals
        batch.messages[lo:hi] = message
        batch.targets[lo:hi] = implied if target is None else target
        batch.outputs[lo:hi] = output
    return batch


def _tree_levels(pa1: np.ndarray, q: np.ndarray, db_rng: Generator, alice_rngs: list[Generator]):
    """Encode the full database bottom-up through every cell.  The targets are
    the queried database bits, so the parity identity checks the encoder."""
    n = len(alice_rngs)
    db = x = db_rng.integers(0, 2, size=(len(q), 1 << n), dtype=np.uint8)
    s_levels, a_levels = [None] * n, [None] * n
    for r in range(n - 1, -1, -1):
        left, right = x[:, 0::2], x[:, 1::2]
        s_levels[r] = left ^ right
        p_alice = pa1[(1 << r) - 1 + np.arange(1 << r), 2 * s_levels[r]]
        a_levels[r] = (alice_rngs[r].random((len(q), 1 << r)) < p_alice).astype(np.uint8)
        x = left ^ a_levels[r]
    rows = np.arange(len(q))
    path = ((s_levels[r][rows, q >> (n - r)], a_levels[r][rows, q >> (n - r)])
            for r in range(n))
    return x[:, 0], db[rows, q], path


def _path_levels(pa1: np.ndarray, q: np.ndarray, db_rng: Generator, alice_rngs: list[Generator]):
    """Sample only the query path; exact in law when every pa1 is 1/2.

    The message of an off-path subtree is its leftmost database bit XOR
    Alice bits that, with uniform marginals, ignore their inputs: a one-time
    pad, so the subtree sends a fair bit independent of everything outside
    it.  Hence each path node's input s_r is a fresh fair bit, as are its
    Alice bit a_r and the root message m, and the target is implied:
    target = m ^ XOR_r (a_r ^ s_r t_r).  Each level is drawn when the
    decoder reaches it.
    """
    path = (np.divmod(rng.integers(0, 4, size=len(q), dtype=np.uint8), 2) for rng in alice_rngs)
    return db_rng.integers(0, 2, size=len(q), dtype=np.uint8), None, path


# ---------------------------------------------------------------------------
# Classical one-bit benchmark: majority encoding
# ---------------------------------------------------------------------------

MAJORITY_MAX_BITS = 1_000_000  # largest N the majority closed form evaluates


def classical_avg_success_closed_form(n_bits: int) -> float:
    """Optimal classical one-bit average success 1/2 + 2^-N C(N-1, floor((N-1)/2)).

    Evaluated in exact rational arithmetic before conversion to float.
    """
    if n_bits < 1:
        raise ValueError("need at least one database bit")
    if n_bits > MAJORITY_MAX_BITS:
        raise OverflowError("binomial evaluation beyond the big-integer budget")
    frac = Fraction(1, 2) + Fraction(math.comb(n_bits - 1, (n_bits - 1) // 2), 2 ** n_bits)
    return float(frac)
