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
Otherwise the tree source encodes the whole database, at O(episodes * 2^n);
it draws each Alice bit by comparing one uniform with the node's two
thresholds, for s = 0 and s = 1, and selecting bitwise by s.  Bob's bit is
read from one flat (node, t, s, a) table, whose node and t together are the
query prefix decoded so far, so each level makes one gather.  Episodes run
in fixed chunks sized so that either source holds about 2.5 MiB of
temporaries; only the returned batch grows.  It keeps each query and each
episode's path error bits in one word, the smallest unsigned integer that
holds 2^n - 1 (1, 2 or 4 bytes), and three bits in a byte each, so an
episode takes 2 * word + 3 bytes: 5 at depth 5, 11 at depth 20.  Also
here: the optimal classical one-bit majority code.  The copy baseline is
:func:`racbox.capacity.run_hard_copy_probe`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.random import Generator

from .boxes import Cell
from .rng import substream, top_bits

# Stream labels for batch simulation; episode i always reads row i of each
# labelled stream, so results do not depend on the episode count.
_DB_STREAM = 0
_QUERY_STREAM = 1
_ALICE_STREAM = 2
_BOB_STREAM = 3

# Chunk budget, counted at 4 per tree cell and 16 per path episode, the ratio
# of their temporaries; the sampler's working memory is proportional to it.
_CHUNK_BUDGET = 1 << 20
# Largest batch the sampler returns, at 2 * word + 3 bytes per episode.
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
    """Vectorized record of many independent pyramid episodes.

    ``queries`` and ``path_errors`` take the smallest unsigned dtype that
    holds 2^depth - 1; the other fields are uint8 bits.
    """

    queries: np.ndarray
    targets: np.ndarray
    outputs: np.ndarray
    messages: np.ndarray
    path_errors: np.ndarray  # one word per episode; bit r is level r's error bit

    @property
    def successes(self) -> np.ndarray:
        return self.outputs == self.targets

    @property
    def success_count(self) -> int:
        return int(self.successes.sum())

    def parity_identity_holds(self) -> bool:
        """output == target ^ parity(path errors) on every episode."""
        parity = self.path_errors.copy()
        shift = 8 * parity.itemsize
        while shift > 1:  # xor-fold the word's halves into bit 0
            shift //= 2
            parity ^= parity >> shift
        parity &= 1
        parity ^= self.targets
        return bool(np.array_equal(self.outputs, parity))

    def per_query_counts(self, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
        """(success count, trial count) per query index."""
        tallies = np.bincount(2 * self.queries.astype(np.intp) + self.successes,
                              minlength=2 * n_queries)
        wins = tallies[1::2]
        return wins, wins + tallies[::2]


def pyramid_monte_carlo(protocol: PyramidProtocol, episodes: int, seed: int,
                        query: int | None = None) -> PyramidBatch:
    """Run many episodes with fresh databases and fresh cells.

    Queries are uniform unless ``query`` pins them.  Randomness is read from
    named substreams of ``seed`` so episode i is reproducible regardless of
    the batch size.  Episodes run in fixed chunks, so the working memory does
    not grow with ``episodes``.  The returned batch holds each query and
    each episode's path error bits in one word, the smallest unsigned integer
    that holds 2^depth - 1, so it takes episodes * (2 * word + 3) bytes: 5
    per episode up to depth 8, 7 up to 16 and 11 up to 32.  A batch above
    2 GiB is refused up front.

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
    if isinstance(episodes, bool) or not isinstance(episodes, Integral) or episodes < 0:
        raise ValueError(f"episodes={episodes!r} is not a nonnegative integer")
    if query is not None and (isinstance(query, bool) or not isinstance(query, Integral)):
        raise ValueError(f"query={query!r} is not an integer")
    n = protocol.depth
    t_count = int(episodes)
    batch_bytes = t_count * (2 * np.min_scalar_type((1 << n) - 1).itemsize + 3)
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
    pa1, bob = _node_tables(protocol, tables)
    return _sample(pa1, bob, t_count, seed, query, _path_levels if uniform else _tree_levels)


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
    cells' ``tables``: Alice's (node, 2s + t) table, and Bob's laid out flat
    in (node, t, s, a) order, the one copy the sampler reads."""
    row = {key: k for k, key in enumerate(tables)}
    nodes = np.fromiter((row[id(cell)] for cell in protocol.cells), np.intp, len(protocol.cells))
    pa1s, pb1s = zip(*tables.values())
    bob = np.stack(pb1s).reshape(-1, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1, 8)
    return np.stack(pa1s)[nodes], bob[nodes].ravel()


# Chunks read each stream in order, so the rows match one unchunked draw only
# if no generator call leaves draws behind at a chunk boundary.  random()
# takes one 64-bit word per value, and top_bits reads whole words, 8 database
# or Alice bytes or 2 query halves per word, and drops the spare values of a
# part-read last word.  Each stream is read by its own calls only, and chunks
# hold a multiple of 8 episodes, so only the last chunk's calls can leave a
# spare value, which no later call would have read.


def _sample(pa1: np.ndarray, bob: np.ndarray, episodes: int, seed: int,
            query: int | None, levels: Callable) -> PyramidBatch:
    """The sampler core: decode the query path top-down, chunk by chunk.

    ``levels(pa1, queries, db_rng, alice_rngs)`` is a level source.  It
    returns the root message, the targets (None where the path implies them)
    and an iterator of each path node's cell input s and Alice bit a, root
    first.  Unless pinned, the queries are the top n bits of the query
    stream's uint32 halves, as ``integers(0, 2^n)`` draws them (``top_bits``).
    At every node Bob's bit b is drawn from his table at (s, t, a);
    the error bit is a ^ b ^ (s & t), ORed into bit r of the episode's error
    word, and the output is the message XOR every b.  ``bob`` holds Bob's
    tables flat in (node, t, s, a) order: level r's nodes start at entry
    8 (2^r - 1), and the query's first r + 1 bits, read as a number p, pick
    the entry 4 p + 2 s + a from there.
    """
    n = len(pa1).bit_length()
    word = np.min_scalar_type((1 << n) - 1)
    batch = PyramidBatch(
        queries=(np.empty(episodes, dtype=word) if query is None
                 else np.full(episodes, query, dtype=word)),
        targets=np.empty(episodes, dtype=np.uint8),
        outputs=np.empty(episodes, dtype=np.uint8),
        messages=np.empty(episodes, dtype=np.uint8),
        path_errors=np.zeros(episodes, dtype=word))
    query_rng = substream(seed, _QUERY_STREAM) if query is None else None
    db_rng = substream(seed, _DB_STREAM)
    alice_rngs = [substream(seed, _ALICE_STREAM, r) for r in range(n)]
    bob_rngs = [substream(seed, _BOB_STREAM, r) for r in range(n)]
    # The path draws one level at a time, about 36 bytes of temporaries per
    # episode at any depth (the table index, Bob's probabilities and his
    # uniforms, 8 bytes each).  The tree holds its whole encoded database,
    # about 9 bytes per cell (Alice's uniforms at the widest level, the
    # database and each level's s and a bits), so a cell counts 4 units.
    width = 4 << n if levels is _tree_levels else 16
    chunk = max(8, _CHUNK_BUDGET // width // 8 * 8)
    for lo in range(0, episodes, chunk):
        hi = min(lo + chunk, episodes)
        q = batch.queries[lo:hi]
        if query_rng is not None:
            q[:] = top_bits(query_rng, hi - lo, n, 2)
        message, target, path = levels(pa1, q, db_rng, alice_rngs)
        implied, output = message.copy(), message.copy()
        errors = batch.path_errors[lo:hi]
        for r, (s_vals, a_vals) in enumerate(path):
            # the query prefix read so far, widened before it makes room for (s, a)
            at = (q >> (n - 1 - r)).astype(np.intp)
            t_bits = at.astype(np.uint8) & 1
            at <<= 2
            at += 2 * s_vals + a_vals
            p_bob = bob[8 * ((1 << r) - 1):].take(at)  # from level r's first node
            b_vals = np.less(bob_rngs[r].random(hi - lo), p_bob).view(np.uint8)
            pad = a_vals ^ (s_vals & t_bits)
            implied ^= pad
            output ^= b_vals
            pad ^= b_vals  # the error bit, then its place in the word
            bit = pad.astype(word, copy=False)
            bit <<= r
            errors |= bit
        batch.messages[lo:hi] = message
        batch.targets[lo:hi] = implied if target is None else target
        batch.outputs[lo:hi] = output
    return batch


def _tree_levels(pa1: np.ndarray, q: np.ndarray, db_rng: Generator, alice_rngs: list[Generator]):
    """Encode the full database bottom-up through every cell.  The targets are
    the queried database bits, so the parity identity checks the encoder."""
    n = len(alice_rngs)
    db = x = top_bits(db_rng, (len(q), 1 << n), 1, 8)
    s_levels, a_levels = [None] * n, [None] * n
    for r in range(n - 1, -1, -1):
        left, right = x[:, 0::2], x[:, 1::2]
        s = s_levels[r] = left ^ right
        nodes = slice((1 << r) - 1, (2 << r) - 1)
        u = alice_rngs[r].random((len(q), 1 << r))
        # a = u < pa1[node, 2s], selected bitwise as lo ^ ((lo ^ hi) & s)
        lo = np.less(u, pa1[nodes, 0]).view(np.uint8)
        a = a_levels[r] = np.less(u, pa1[nodes, 2]).view(np.uint8)
        a ^= lo
        a &= s
        a ^= lo
        x = left ^ a
    rows = np.arange(len(q))
    path = ((s.take(at), a.take(at)) for s, a, at in
            zip(s_levels, a_levels, ((q >> (n - r)) + (rows << r) for r in range(n))))
    return x[:, 0], db.take(q + (rows << n)), path


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
    draws = (top_bits(rng, len(q), 2, 8) for rng in alice_rngs)
    path = ((v >> 1, v & 1) for v in draws)
    return top_bits(db_rng, len(q), 1, 8), None, path


# ---------------------------------------------------------------------------
# Classical one-bit benchmark: majority encoding
# ---------------------------------------------------------------------------

MAJORITY_MAX_BITS = 1_000_000  # largest N the majority closed form evaluates


def classical_avg_success_closed_form(n_bits: int) -> float:
    """Optimal classical one-bit average success 1/2 + 2^-N C(N-1, floor((N-1)/2)),
    one quotient of exact integers, which Python rounds correctly to a float."""
    if n_bits < 1:
        raise ValueError("need at least one database bit")
    if n_bits > MAJORITY_MAX_BITS:
        raise OverflowError("binomial evaluation beyond the big-integer budget")
    return (2 ** (n_bits - 1) + math.comb(n_bits - 1, (n_bits - 1) // 2)) / 2 ** n_bits
