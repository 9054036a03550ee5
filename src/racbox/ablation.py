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

from .info import Bits
from .rng import substream
from .scores import database_blocks, exact_scores

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


def _flat_views(n_bits: int, m: int, hidden: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One zero vector for every parameter of a net, and its view per parameter.

    The weights and their gradients share this layout, so an SGD step
    updates the whole vector at once.
    """
    shapes = {"w1": (n_bits, hidden), "b1": (hidden,), "w2": (hidden, m), "b2": (m,),
              "v1": (m + n_bits, hidden), "c1": (hidden,), "v2": (hidden, 1), "c2": (1,)}
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return flat, views


def _initial_params(n_bits: int, m: int, hidden: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gaussian weights over sqrt(fan-in) and zero biases, laid out by ``_flat_views``."""
    flat, views = _flat_views(n_bits, m, hidden)
    for w in views.values():
        if w.ndim == 2:
            w[...] = rng.standard_normal(w.shape) * (1.0 / math.sqrt(w.shape[0]))
    return flat, views


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

    def _forward(self, x: np.ndarray, queries: np.ndarray, binarize: bool = True,
                 work: "_Workspace | None" = None):
        """Returns (h1, d_in, h2, logit); the encoder never reads ``queries``."""
        work = work or _Workspace(self, x.shape[0], backward=False)
        m = self.m
        h1 = np.matmul(x, self.w1, out=work.h1)
        h1 += self.b1
        np.tanh(h1, out=h1)
        z = np.matmul(h1, self.w2, out=work.z)
        z += self.b2
        if binarize:  # s + (1 - |s|) maps sign(z) = -1, 0, 1, NaN to -1, +1, +1, NaN
            np.sign(z, out=z)
            spare = np.abs(z)
            np.subtract(1.0, spare, out=spare)
            z += spare
        # the code, then the one-hot query set through the flat index
        d_in = work.d_in
        d_in.fill(0.0)
        d_in[:, :m] = z
        d_in.reshape(-1)[work.onehot + queries] = 1.0
        h2 = np.matmul(d_in, self.v1, out=work.h2)
        h2 += self.c1
        np.tanh(h2, out=h2)
        logit = np.matmul(h2, self.v2, out=work.logit)
        logit += self.c2
        return h1, d_in, h2, logit[:, 0]

    def answer(self, x: np.ndarray, queries: np.ndarray) -> np.ndarray:
        return (self._forward(x, queries)[3] > 0.0).astype(np.uint8)

    def loss_and_grads(self, x: np.ndarray, queries: np.ndarray, targets: np.ndarray,
                       binarize: bool = True, work: "_Workspace | None" = None
                       ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean sigmoid cross-entropy and its gradients.

        With ``binarize`` the forward pass uses the sign of the bottleneck
        pre-activations and the backward pass treats the sign as identity
        (the straight-through surrogate).  Without it the network is smooth
        end-to-end, which is what the finite-difference check exercises.
        The gradients are views of ``work.grad``, which the next call with
        the same ``work`` overwrites; without ``work`` each call gets its own.
        """
        # Temporaries live in the workspace, but every matmul keeps the operand
        # shapes of the plain formulation: a different shape can change
        # BLAS's summation order and with it the trained weights' bits.
        work = work or _Workspace(self, x.shape[0])
        batch = x.shape[0]
        h1, d_in, h2, logit = self._forward(x, queries, binarize, work)
        y = np.asarray(targets, dtype=float)
        g = work.grads

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
        dlogit = np.divide(e, denom, out=work.dlogit)
        np.divide(1.0, denom, out=dlogit, where=logit >= 0.0)
        dlogit -= y
        dlogit /= batch
        np.matmul(h2.T, dlogit[:, None], out=g["v2"])
        dlogit.sum(keepdims=True, out=g["c2"])
        # tanh' = 1 - h^2, computed in place once a layer's h is spent
        np.multiply(h2, h2, out=h2)
        np.subtract(1.0, h2, out=h2)
        # one product per entry, as dlogit @ v2.T
        dpre2 = np.multiply(dlogit[:, None], self.v2[:, 0], out=work.dpre2)
        dpre2 *= h2
        np.matmul(d_in.T, dpre2, out=g["v1"])
        dpre2.sum(axis=0, out=g["c1"])
        # straight through the binarizer
        dz = np.matmul(dpre2, self.v1.T, out=work.dz)[:, : self.m]
        np.matmul(h1.T, dz, out=g["w2"])
        dz.sum(axis=0, out=g["b2"])
        np.multiply(h1, h1, out=h1)
        np.subtract(1.0, h1, out=h1)
        dpre1 = np.matmul(dz, self.w2.T, out=work.dpre1)
        dpre1 *= h1
        np.matmul(x.T, dpre1, out=g["w1"])
        dpre1.sum(axis=0, out=g["b1"])
        return loss, g


class _Workspace:
    """Every temporary of a pass over one batch size, allocated once.

    ``grad`` is one flat vector laid out as the weights of
    ``_initial_params`` are, and ``grads`` its per-parameter views; a
    forward-only workspace has neither.
    """

    def __init__(self, net: BottleneckNet, batch: int, backward: bool = True):
        hidden, width = net.w1.shape[1], net.m + net.n_bits
        self.h1 = np.empty((batch, hidden))
        self.z = np.empty((batch, net.m))
        self.d_in = np.zeros((batch, width))
        self.h2 = np.empty((batch, hidden))
        self.logit = np.empty((batch, 1))
        self.onehot = np.arange(net.m, batch * width, width)  # flat index of query 0
        if backward:
            self.grad, self.grads = _flat_views(net.n_bits, net.m, hidden)
            self.dlogit = np.empty(batch)
            self.dpre2 = np.empty((batch, hidden))
            self.dz = np.empty((batch, width))
            self.dpre1 = np.empty((batch, hidden))


class TrainingDiverged(RuntimeError):
    pass


# The sampler's draws per chunk of steps take at most about this many bytes.
_CHUNK_BYTES = 1 << 19
_LOW32 = (1 << 32) - 1


def _training_batches(rng: np.random.Generator, n_bits: int, batch: int, steps: int):
    """Yield each step's (x, queries, targets), cut from the raw uint32 stream.

    Step by step this equals ``x = rng.integers(0, 2, (batch, n_bits))`` as
    floats, then ``queries = rng.integers(0, n_bits, batch)`` and
    ``targets = x[rows, queries]``, bit for bit, because of how NumPy's
    ``Generator`` draws a bounded integer below 2^32.  Each draw takes the
    next uint32 of PCG64, the low half of a 64-bit word and then the high
    half, the pending half carried over between calls, and bounds it by
    Lemire's method: u gives (u * n) >> 32, unless the low 32 bits of u * n
    fall below (2^32 - n) % n, when u is rejected and the next one drawn.
    A database bit is therefore u >> 31 and never rejected; no query is
    for n a power of two, and n = 1 draws none.  A chunk of steps is laid
    out assuming no rejection; a step with one is walked word by word.
    """
    x_words = batch * n_bits
    per_step = x_words + (batch if n_bits > 1 else 0)
    threshold = (1 << 32) % n_bits
    # the words, their uint64 products and the float databases, per step
    chunk = max(1, _CHUNK_BYTES // (per_step * 12 + x_words * 8))
    row_starts = np.arange(chunk * batch) * n_bits  # flat index of each example's bit 0
    state = rng.bit_generator.state
    words = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint32)
    pos = 0

    def ensure(count):
        nonlocal words, pos
        if len(words) - pos < count:
            raw = rng.bit_generator.random_raw((count - len(words) + pos + 1) // 2)
            words = np.concatenate([words[pos:], raw.astype("<u8").view("<u4")])
            pos = 0

    done = 0
    while done < steps:
        size = min(chunk, steps - done)
        ensure(size * per_step)
        block = words[pos:pos + size * per_step].reshape(size, per_step)
        x = (block[:, :x_words] >> 31).astype(float).reshape(size, batch, n_bits)
        scaled = block[:, x_words:].astype(np.uint64) * np.uint64(n_bits)
        if threshold:  # the first step with a rejected query ends the chunk early
            rejected = ((scaled & np.uint64(_LOW32)) < threshold).any(axis=1)
            size = int(rejected.argmax()) if rejected.any() else size
        queries = ((scaled >> np.uint64(32)).astype(np.int64) if n_bits > 1
                   else np.zeros((len(x), batch), dtype=np.int64))
        targets = x.reshape(-1).take(row_starts[:queries.size] + queries.reshape(-1))
        targets = targets.reshape(len(x), batch)
        for i in range(size):
            yield x[i], queries[i], targets[i]
        pos += size * per_step
        done += size
        if size < len(x):  # walk the step with a rejection word by word
            x = (block[size, :x_words] >> 31).astype(float).reshape(batch, n_bits)
            pos += x_words
            queries = np.empty(batch, dtype=np.int64)
            for row in range(batch):
                ensure(1)
                while int(words[pos]) * n_bits & _LOW32 < threshold:
                    pos += 1
                    ensure(1)
                queries[row] = int(words[pos]) * n_bits >> 32
                pos += 1
            yield x, queries, x[np.arange(batch), queries]
            done += 1


def train_strict(n_bits: int, m: int, seed: int,
                 config: TrainConfig = TrainConfig()) -> tuple[BottleneckNet, list[float]]:
    """Train the strict query-separated model; returns (net, loss curve).

    Databases are freshly sampled every batch so the weights cannot
    memorize any particular episode; queries are sampled per example.  The
    batches are cut from the generator's raw uint32 stream and equal
    ``rng.integers`` draws only because NumPy bounds integers by Lemire's
    method (see :func:`_training_batches`);
    ``tests/test_ablation.py::test_sampler_equals_rng_integers`` guards that.
    The net's weights are views of one flat vector, so plain SGD updates
    all of them in two ufunc calls.
    """
    rng = substream(seed, _TRAIN_STREAM)
    params, weights = _initial_params(n_bits, m, config.hidden, rng)
    net = BottleneckNet(n_bits=n_bits, m=m, **weights)
    work = _Workspace(net, config.batch)
    curve = []
    batches = _training_batches(rng, n_bits, config.batch, config.steps)
    for step, (x, queries, targets) in enumerate(batches):
        loss, _ = net.loss_and_grads(x, queries, targets, work=work)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss!r} at step {step}")
        work.grad *= config.lr
        params -= work.grad
        if step % 200 == 0 or step == config.steps - 1:
            curve.append(loss)
    return net, curve


# ---------------------------------------------------------------------------
# Exact scoring and reports
# ---------------------------------------------------------------------------


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


def eval_score(net: BottleneckNet) -> AblationReport:
    """Exact I_NRAC and H(code) of a frozen net over all 2^N databases.

    At evaluation the net is a deterministic function of (database, query),
    so enumeration replaces sampling.  I_NRAC <= H(code) is the embedding
    inequality (the answers are computed from the code) and H(code) <= m the
    capacity bound (an m-bit code has at most 2^m values).
    """
    per_query = exact_scores(net.n_bits, net.answer)[0]
    code_counts: dict[tuple, int] = {}
    for _, db in database_blocks(net.n_bits):
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


def _control(n_bits: int, answer, counted: Bits | None, corrected: Bits | None,
             diagnosis: str) -> AblationReport:
    """A leaky control's exact score over all databases, with its budgets."""
    per_query = exact_scores(n_bits, answer)[0]
    return AblationReport(observed_score=float(sum(per_query)), counted_capacity=counted,
                          corrected_capacity=corrected, diagnosis=diagnosis,
                          per_query=per_query)


def query_leaky_control(n_bits: int) -> AblationReport:
    """Encoder that is handed the query and transmits the answer bit.

    The one-bit message then carries a different bit per query; the decoder
    just echoes it.  Run exactly over all databases: every query is answered
    perfectly and the score is N through a nominal one-bit interface.
    """
    return _control(n_bits, _queried_bit, 1.0, None,
                    "query separation broken: encoder read the query")


def precision_packing_control(n_bits: int, q: int | None = None) -> AblationReport:
    """One real coordinate that quantizes to q bits and packs the database.

    The packed bits round-trip exactly; queries beyond the quantization
    budget get a constant answer.  The nominal count of "one real
    coordinate" carries no finite budget, the corrected budget is q bits.
    """
    if q is None:
        q = n_bits
    stored = min(n_bits, q)
    # counted None: one real coordinate carries no finite certificate
    return _control(n_bits, lambda db, k: _queried_bit(db, k) * (k < stored), None, float(q),
                    f"finite precision must be counted: {q} bits per coordinate")


def episode_weights_control(n_bits: int) -> AblationReport:
    """Decoder whose weight vector is set to the episode's database.

    The message carries nothing; looking the query up inside the weights
    answers everything exactly, so the score is N against a counted message
    budget of zero.
    """
    return _control(n_bits, _queried_bit, 0.0, None, "weights are data-dependent memory")
