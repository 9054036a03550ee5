"""Controlled bottleneck experiments: a strict trained binary-bottleneck
model and three deliberately leaky controls.

The strict model is a small tanh network trained end-to-end with a
sign-binarized bottleneck (straight-through gradients) and an encoder that
never sees the query.  At evaluation it is a deterministic function of
(database, query), so it is scored exactly by enumerating every database
and query, with no sampling error.  That gives the two quantities of the
paper's two inequalities: the score I_NRAC <= H(code) (embedding), and
H(code) <= m (capacity).  Each control breaks exactly one assumption
(query blindness, counted precision, fixed weights) and is scored by the
same enumerator, which is what makes the diagnosis unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import ContingencyTable, plugin_mi
from .info import Bits
from .rng import substream

_TRAIN_STREAM = 0


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; plain SGD on freshly sampled batches."""

    hidden: int = 32
    batch: int = 256
    steps: int = 20_000
    lr: float = 0.05

    def __post_init__(self):
        if min(self.hidden, self.batch, self.steps) <= 0 or self.lr <= 0.0:
            raise ValueError("hyperparameters must be positive")


@dataclass
class BottleneckNet:
    """Encoder -> sign bottleneck -> decoder, all dense tanh layers.

    The encoder reads only the database; the decoder reads the bottleneck
    values and a one-hot query.  At inference the bottleneck is exactly
    ``m`` binary values; during training the sign is kept on the forward
    pass while gradients pass straight through to the pre-activations.
    """

    n_bits: int
    m: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    v1: np.ndarray
    c1: np.ndarray
    v2: np.ndarray
    c2: np.ndarray

    @classmethod
    def init(cls, n_bits: int, m: int, hidden: int, rng: np.random.Generator) -> "BottleneckNet":
        def layer(fan_in, fan_out):
            return rng.standard_normal((fan_in, fan_out)) * (1.0 / math.sqrt(fan_in))

        return cls(
            n_bits=n_bits, m=m,
            w1=layer(n_bits, hidden), b1=np.zeros(hidden),
            w2=layer(hidden, m), b2=np.zeros(m),
            v1=layer(m + n_bits, hidden), c1=np.zeros(hidden),
            v2=layer(hidden, 1), c2=np.zeros(1),
        )

    def _forward(self, x: np.ndarray, queries: np.ndarray, binarize: bool = True):
        """Returns (h1, d_in, h2, logit); the encoder never reads ``queries``."""
        batch, m = x.shape[0], self.m
        h1 = x @ self.w1
        h1 += self.b1
        np.tanh(h1, out=h1)
        z = h1 @ self.w2
        z += self.b2
        width = m + self.n_bits
        d_in = np.zeros((batch, width))
        h_pm = d_in[:, :m]
        if binarize:
            np.sign(z, out=h_pm)
            h_pm += z == 0.0  # a zero pre-activation sends +1
        else:
            h_pm[...] = z
        # the one-hot query columns, set through the flat row-major index
        d_in.reshape(-1)[np.arange(m, batch * width, width) + queries] = 1.0
        h2 = d_in @ self.v1
        h2 += self.c1
        np.tanh(h2, out=h2)
        logit = h2 @ self.v2
        logit += self.c2
        return h1, d_in, h2, logit[:, 0]

    def answer(self, x: np.ndarray, queries: np.ndarray) -> np.ndarray:
        return (self._forward(x, queries)[3] > 0.0).astype(np.uint8)

    def loss_and_grads(self, x: np.ndarray, queries: np.ndarray, targets: np.ndarray,
                       binarize: bool = True) -> tuple[float, dict[str, np.ndarray]]:
        """Mean sigmoid cross-entropy and its gradients.

        With ``binarize`` the forward pass uses the sign of the bottleneck
        pre-activations and the backward pass treats the sign as identity
        (the straight-through surrogate).  Without it the network is smooth
        end-to-end, which is what the finite-difference check exercises.
        """
        # Temporaries are reused in place, but every matmul keeps the operand
        # shapes of the plain formulation: a different shape can change
        # BLAS's summation order and with it the trained weights' bits.
        batch = x.shape[0]
        h1, d_in, h2, logit = self._forward(x, queries, binarize)
        y = np.asarray(targets, dtype=float)

        # log(1 + exp(-|l|)) + max(0, l) - l*y is the stable cross entropy
        e = np.abs(logit)
        np.negative(e, out=e)
        ce = np.logaddexp(0.0, e)
        ce += np.maximum(logit, 0.0)
        ce -= logit * y
        loss = float(ce.sum()) / batch

        # stable sigmoid on both tails from e = exp(-|l|)
        np.exp(e, out=e)
        denom = e + 1.0
        dlogit = e / denom
        np.divide(1.0, denom, out=dlogit, where=logit >= 0.0)
        dlogit -= y
        dlogit /= batch
        dv2 = h2.T @ dlogit[:, None]
        dc2 = dlogit.sum(keepdims=True)
        # tanh' = 1 - h^2, computed in place once a layer's h is spent
        np.multiply(h2, h2, out=h2)
        np.subtract(1.0, h2, out=h2)
        dpre2 = dlogit[:, None] * self.v2[:, 0]  # one product per entry, as dlogit @ v2.T
        dpre2 *= h2
        dv1 = d_in.T @ dpre2
        dc1 = dpre2.sum(axis=0)
        dz = (dpre2 @ self.v1.T)[:, : self.m]  # straight through the binarizer
        dw2 = h1.T @ dz
        db2 = dz.sum(axis=0)
        np.multiply(h1, h1, out=h1)
        np.subtract(1.0, h1, out=h1)
        dpre1 = dz @ self.w2.T
        dpre1 *= h1
        dw1 = x.T @ dpre1
        db1 = dpre1.sum(axis=0)
        grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2,
                 "v1": dv1, "c1": dc1, "v2": dv2, "c2": dc2}
        return loss, grads


class TrainingDiverged(RuntimeError):
    pass


def train_strict(n_bits: int, m: int, seed: int,
                 config: TrainConfig = TrainConfig()) -> tuple[BottleneckNet, list[float]]:
    """Train the strict query-separated model; returns (net, loss curve).

    Databases are freshly sampled every batch so the weights cannot
    memorize any particular episode; queries are sampled per example.
    """
    rng = substream(seed, _TRAIN_STREAM)
    net = BottleneckNet.init(n_bits, m, config.hidden, rng)
    curve = []
    rows = np.arange(config.batch)
    for step in range(config.steps):
        x = rng.integers(0, 2, size=(config.batch, n_bits)).astype(float)
        queries = rng.integers(0, n_bits, size=config.batch)
        targets = x[rows, queries]
        loss, grads = net.loss_and_grads(x, queries, targets)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss!r} at step {step}")
        for name, g in grads.items():
            g *= config.lr
            w = getattr(net, name)
            w -= g
        if step % 200 == 0 or step == config.steps - 1:
            curve.append(loss)
    return net, curve


# ---------------------------------------------------------------------------
# Exact scoring and reports
# ---------------------------------------------------------------------------

# Exact scoring enumerates all 2^N databases, each asked all N queries.
MAX_ENUMERATED_BITS = 16
# The databases are enumerated in blocks whose tiled query matrix holds at
# most this many bits (rows x N), so working memory does not grow with N.
_ENUM_BLOCK_BITS = 1 << 16


@dataclass(frozen=True)
class AblationReport:
    """Exact score against the counted and corrected interface budget.

    ``code_entropy`` is H(code), the entropy of the bottleneck values the
    decoder receives over the uniform databases; the controls have none.
    """

    observed_score: Bits
    counted_capacity: Bits | None
    corrected_capacity: Bits | None
    diagnosis: str | None = None
    per_query: tuple[Bits, ...] = field(default=())
    code_entropy: Bits | None = None


def check_enumerable(n_bits: int):
    if n_bits > MAX_ENUMERATED_BITS:
        raise ValueError(f"exact scoring enumerates 2^N databases and is limited to "
                         f"N <= {MAX_ENUMERATED_BITS}, got N = {n_bits}")


def _database_blocks(n_bits: int):
    """All 2^N databases as rows, in fixed blocks; bit i of row w is bit i of w."""
    check_enumerable(n_bits)
    size = max(1, _ENUM_BLOCK_BITS // max(1, n_bits) ** 2)
    for start in range(0, 1 << n_bits, size):
        words = np.arange(start, min(start + size, 1 << n_bits))
        yield (words[:, None] >> np.arange(n_bits)) & 1


def exact_deterministic_score(n_bits: int, answer) -> tuple[Bits, ...]:
    """Exact per-query information of a deterministic protocol.

    ``answer(db, queries)`` returns the output bit of each row of ``db`` for
    the query beside it.  It is called once per block of databases, on each
    database of the block times all N queries, and the integer contingency
    counts are summed over the blocks; so over all 2^N unbiased databases
    the returned values are the true mutual informations, not estimates.
    """
    counts = np.zeros((n_bits, 2, 2), dtype=np.int64)
    for db in _database_blocks(n_bits):
        queries = np.repeat(np.arange(n_bits), len(db))  # query-major rows
        outputs = np.asarray(answer(np.tile(db, (n_bits, 1)), queries)).reshape(n_bits, -1)
        for k in range(n_bits):
            counts[k] += ContingencyTable.from_pairs(db[:, k], outputs[k] & 1).counts
    return tuple(plugin_mi(ContingencyTable(c)) for c in counts)


def eval_score(net: BottleneckNet) -> AblationReport:
    """Exact I_NRAC and H(code) of a frozen net over all 2^N databases.

    At evaluation the net is a deterministic function of (database, query),
    so enumeration replaces sampling.  I_NRAC <= H(code) is the embedding
    inequality (the answers are computed from the code) and H(code) <= m the
    capacity bound (an m-bit code has at most 2^m values).
    """
    per_query = exact_deterministic_score(net.n_bits, net.answer)
    code_counts: dict[tuple, int] = {}
    for db in _database_blocks(net.n_bits):
        code = net._forward(db, np.zeros(len(db), dtype=np.int64))[1][:, : net.m]
        for row, count in zip(*np.unique(code, axis=0, return_counts=True)):
            key = tuple(row.tolist())
            code_counts[key] = code_counts.get(key, 0) + int(count)
    # sorted as np.unique sorts rows, so the entropy sums in the same order
    p = np.array([code_counts[key] for key in sorted(code_counts)]) / (1 << net.n_bits)
    return AblationReport(observed_score=float(sum(per_query)),
                          counted_capacity=float(net.m), corrected_capacity=float(net.m),
                          per_query=per_query, code_entropy=float(p @ np.log2(1.0 / p)))


def _queried_bit(db: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return db[np.arange(len(queries)), queries]


def query_leaky_control(n_bits: int) -> AblationReport:
    """Encoder that is handed the query and transmits the answer bit.

    The one-bit message then carries a different bit per query; the decoder
    just echoes it.  Run exactly over all databases: every query is answered
    perfectly and the score is N through a nominal one-bit interface.
    """
    per_query = exact_deterministic_score(n_bits, _queried_bit)
    return AblationReport(observed_score=float(sum(per_query)),
                          counted_capacity=1.0,
                          corrected_capacity=None,
                          diagnosis="query separation broken: encoder read the query",
                          per_query=per_query)


def precision_packing_control(n_bits: int, q: int | None = None) -> AblationReport:
    """One real coordinate that quantizes to q bits and packs the database.

    The packed bits round-trip exactly; queries beyond the quantization
    budget get a constant answer.  The nominal count of "one real
    coordinate" carries no finite budget, the corrected budget is q bits.
    """
    if q is None:
        q = n_bits
    stored = min(n_bits, q)
    per_query = exact_deterministic_score(
        n_bits, lambda db, k: _queried_bit(db, k) * (k < stored))
    return AblationReport(observed_score=float(sum(per_query)),
                          counted_capacity=None,  # one real coordinate: no finite certificate
                          corrected_capacity=float(q),
                          diagnosis=f"finite precision must be counted: {q} bits per coordinate",
                          per_query=per_query)


def episode_weights_control(n_bits: int) -> AblationReport:
    """Decoder whose weight vector is set to the episode's database.

    The message carries nothing; looking the query up inside the weights
    answers everything exactly, so the score is N against a counted message
    budget of zero.
    """
    per_query = exact_deterministic_score(n_bits, _queried_bit)
    return AblationReport(observed_score=float(sum(per_query)),
                          counted_capacity=0.0,
                          corrected_capacity=None,
                          diagnosis="weights are data-dependent memory",
                          per_query=per_query)
