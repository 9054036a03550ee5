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

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .info import Bits
from .rng import substream
from .scores import database_blocks, exact_scores

_TRAIN_STREAM = 0
# Training: the width of both hidden tanh layers, the gradient step size and
# the default number of plain gradient steps on the exact population loss.
_HIDDEN = 32
_LR = 0.5
TRAIN_STEPS = 2_000
# The training step groups codes by an int64 key of one bit per code bit; bit
# 63 is the sign bit and 1 << k wraps to 0 for k >= 64, merging wider codes.
MAX_CODE_BITS = 63
_KEY_BITS = 1 << np.arange(MAX_CODE_BITS)


# The parameters by layer: each weight matrix is followed in the flat vector
# by its bias, so the bias is one more row of the weight matrix.
_PARAMS = (("w1", "b1"), ("w2", "b2"), ("v1", "c1"), ("v2", "c2"))
_NAMES = tuple(name for pair in _PARAMS for name in pair)


def _layers(n_bits: int, m: int, hidden: int
            ) -> tuple[np.ndarray, list[np.ndarray], dict[str, np.ndarray]]:
    """A flat vector of zeros for every parameter of a net, its view per
    layer (the weight rows, then the bias row), and those rows by parameter
    name.

    The weights and their gradients share this layout, so an SGD step
    updates the whole vector at once.
    """
    shapes = ((n_bits + 1, hidden), (hidden + 1, m), (m + n_bits + 1, hidden), (hidden + 1, 1))
    flat = np.zeros(sum(math.prod(shape) for shape in shapes))
    layers, views, start = [], {}, 0
    for (weight, bias), shape in zip(_PARAMS, shapes):
        layer = flat[start:start + math.prod(shape)].reshape(shape)
        layers.append(layer)
        views[weight], views[bias] = layer[:-1], layer[-1]
        start += layer.size
    return flat, layers, views


def _initial_net(n_bits: int, m: int, hidden: int, rng: np.random.Generator) -> BottleneckNet:
    """An untrained net: Gaussian weights over sqrt(fan-in) and zero biases."""
    net = BottleneckNet(n_bits, m, **_layers(n_bits, m, hidden)[2])
    for weight, _ in _PARAMS:
        w = getattr(net, weight)
        w[...] = rng.standard_normal(w.shape) * (1.0 / math.sqrt(w.shape[0]))
    return net


def _columns(db: np.ndarray, m: int) -> np.ndarray:
    """Each database of ``db`` as a column: its bits, a one, then ``m`` rows for its code."""
    n_bits = db.shape[1]
    x = np.empty((n_bits + 1 + m, len(db)))
    x[:n_bits] = db.T
    x[n_bits] = 1.0
    return x


@functools.cache
def _query_rows(n_bits: int) -> np.ndarray:
    """The decoder's one-hot query rows and ones row, one column per query; read-only."""
    rows = np.vstack((np.eye(n_bits), np.ones(n_bits)))[:, :, None]
    rows.flags.writeable = False
    return rows


def _tanh_layer(layer: np.ndarray, a: np.ndarray) -> np.ndarray:
    """tanh(layer.T @ a) of feature-major activations ``a`` whose last row
    is ones, with a ones row below for the next layer's bias row."""
    h = np.empty((layer.shape[1] + 1, a.shape[1]))
    h[-1] = 1.0
    np.tanh(np.matmul(layer.T, a, out=h[:-1]), out=h[:-1])
    return h


@dataclass
class BottleneckNet:
    """Encoder -> sign bottleneck -> decoder, all dense tanh layers.

    The encoder reads only the database; the decoder reads the bottleneck
    values and a one-hot query.  At inference the bottleneck is exactly
    ``m`` binary values; during training the sign is kept on the forward
    pass while gradients pass straight through to the pre-activations.

    The net copies the arrays it is built from into one flat vector
    ``params`` laid out by ``_layers``; ``w1`` ... ``c2`` and the layers with
    their bias as last row (``w1b1`` ... ``v2c2``) are views of it.  Assigning
    any of them writes into the vector, so no view goes stale; an array of
    another shape is refused with a ``ValueError``.  A copy or a pickle is
    built afresh from the eight arrays, so it owns a vector of its own.
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

    def __post_init__(self):
        given = {name: vars(self).pop(name) for name in _NAMES}
        params, layers, views = _layers(self.n_bits, self.m, given["w1"].shape[1])
        vars(self).update(params=params, **dict(zip(("w1b1", "w2b2", "v1c1", "v2c2"), layers)),
                          **views)
        for name, value in given.items():
            setattr(self, name, value)

    def __setattr__(self, name: str, value):
        held = vars(self).get(name)
        if not isinstance(held, np.ndarray):
            super().__setattr__(name, value)
        elif np.shape(value) != held.shape:
            raise ValueError(f"{name} has shape {held.shape}, not {np.shape(value)}")
        else:
            held[...] = value

    def __reduce__(self):
        return BottleneckNet, (self.n_bits, self.m, *(getattr(self, name) for name in _NAMES))

    def _encode(self, x: np.ndarray, binarize: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Returns (h1, code) of each column of ``x``, laid out by
        ``_columns(db, m)``, and writes the code into its last m rows; the
        encoder never reads a query.

        ``h1`` is feature-major with a ones row (see ``_tanh_layer``).  With
        ``binarize`` the code is the sign of the bottleneck, sign(z) + (z == 0)
        mapping -1, 0, 1, NaN to -1, +1, +1, NaN, else its pre-activation z.
        """
        h1 = _tanh_layer(self.w1b1, x[:self.n_bits + 1])
        code = x[self.n_bits + 1:]
        np.matmul(self.w2b2.T, h1, out=code)
        if binarize:
            zero = code == 0.0
            np.sign(code, out=code)
            code += zero
        return h1, code

    def _decode(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (h2, logit) of each column of ``inputs``: a code, a one-hot
        query and a one; ``h2`` has a ones row, as in ``_tanh_layer``."""
        h2 = _tanh_layer(self.v1c1, inputs)
        return h2, self.v2c2[:, 0] @ h2

    def answer(self, db: np.ndarray) -> np.ndarray:
        """The 0/1 answers of the databases ``db`` (rows) to every query, a
        table of ``db``'s shape: each is encoded once and decoded per query."""
        n_bits, m, n_db = self.n_bits, self.m, len(db)
        inputs = np.empty((m + n_bits + 1, n_bits, n_db))
        inputs[:m] = self._encode(_columns(db, m))[1][:, None]
        inputs[m:] = _query_rows(n_bits)
        logit = self._decode(inputs.reshape(m + n_bits + 1, n_bits * n_db))[1]
        return (logit.reshape(n_bits, n_db).T > 0.0).astype(np.uint8)

    def loss_and_grads(self, db: np.ndarray | None = None, binarize: bool = True,
                       out: BottleneckNet | None = None, x: np.ndarray | None = None
                       ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean sigmoid cross-entropy over every (database, query) pair of a
        block of databases, and its gradients by parameter name: views of
        ``out``, a net shaped like this one whose parameters the gradient
        overwrites, or of a fresh copy of this net.  The block is given as
        rows ``db`` or as columns ``x`` laid out by ``_columns``, which
        training keeps from step to step; the step writes the codes into
        ``x``'s last m rows.

        Each database is encoded once, the databases are grouped by code
        (sorted by an integer key of one bit per code bit), and the decoder
        runs once per (query, distinct code), its cross-entropy weighted by
        the databases with that code and those of them holding a 1 at that
        query.  A group's code is the mean of its databases' codes, so a NaN
        in any of them makes the loss NaN.  Activations carry a ones row, so
        each layer's gradient, bias row included, is one product.  With
        ``binarize`` the backward pass treats the sign as identity (straight
        through): database b with code c gets dz = sum_q (sigmoid(logit[q, c])
        - db[b, q]) W[q, c] / rows, W[q, c] the logit's derivative by the
        code.  Without it the net is smooth and every database is its own
        group, which is what the finite-difference check exercises.
        """
        n_bits, m = self.n_bits, self.m
        x = _columns(db, m) if x is None else x
        out = copy.copy(self) if out is None else out
        n_db = x.shape[1]
        rows = n_db * n_bits
        h1, code = self._encode(x, binarize)
        if binarize:
            key = _KEY_BITS[:m] @ (code > 0.0)
            order = key.argsort()
            sorted_key = key[order]
            new = np.empty(n_db, dtype=bool)  # where a group starts in key order
            new[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
            starts = new.nonzero()[0]
            tally = np.add.reduceat(x.take(order, axis=1), starts, axis=1)
            inv = sorted_key[starts].searchsorted(key)
        else:
            tally, inv = x, np.arange(n_db)
        n_codes = tally.shape[1]
        ones, count = tally[:n_bits], tally[n_bits]
        # the decoder's input at each (query, code): the group's code, the one-hot query and a one
        inputs = np.empty((m + n_bits + 1, n_bits, n_codes))
        np.divide(tally[n_bits + 1:, None], count, out=inputs[:m])
        inputs[m:] = _query_rows(n_bits)
        inputs = inputs.reshape(m + n_bits + 1, n_bits * n_codes)
        h2, logit = self._decode(inputs)
        logit = logit.reshape(n_bits, n_codes)
        # log(1 + exp(-|l|)) + max(0, l) - l*y is the stable cross entropy
        e = np.exp(-np.abs(logit))
        softplus = np.log1p(e)
        softplus += np.maximum(logit, 0.0)
        loss = float(softplus.sum(axis=0) @ count - np.vdot(logit, ones)) / rows
        # stable sigmoid on both tails from e = exp(-|l|)
        sig = np.where(logit >= 0.0, 1.0, e) / (1.0 + e)
        dlogit = (count * sig - ones) / rows
        # tanh' = 1 - h^2
        dh2 = 1.0 - np.square(h2[:-1])
        dh2 *= self.v2
        dpre2 = dh2 * dlogit.reshape(-1)
        # straight through the binarizer: each database takes its own code's
        # decoder derivatives, one per query
        dcode = (self.v1[:m] @ dh2).reshape(m, n_bits, n_codes).take(inv, axis=2)
        dcode *= sig.take(inv, axis=1) - x[:n_bits]
        dz = dcode.sum(axis=1)
        dz /= rows
        dpre1 = np.dot(self.w2, dz)  # matmul is about 3 times slower at m = 1
        dpre1 *= 1.0 - np.square(h1[:-1])
        np.matmul(x[:n_bits + 1], dpre1.T, out=out.w1b1)
        np.matmul(h1, dz.T, out=out.w2b2)
        np.matmul(inputs, dpre2.T, out=out.v1c1)
        np.matmul(h2, dlogit.reshape(-1, 1), out=out.v2c2)
        return loss, {name: getattr(out, name) for name in _NAMES}


class TrainingDiverged(RuntimeError):
    pass


def check_code_bits(m: int):
    """Refuse a code wider than the training step's grouping key can hold."""
    if m > MAX_CODE_BITS:
        raise ValueError(f"m={m} code bits: training groups codes by a 64-bit key, "
                         f"so m <= {MAX_CODE_BITS}")


def train_strict(n_bits: int, m: int, seed: int,
                 steps: int = TRAIN_STEPS) -> tuple[BottleneckNet, list[float]]:
    """Train the strict query-separated model for ``steps`` >= 1 steps;
    returns (net, loss curve).

    The net has ``_HIDDEN`` tanh units in each hidden layer, and each step,
    at rate ``_LR``, descends the exact population loss: the mean
    cross-entropy over all 2^N databases times all N queries, the law the
    net is scored on.  The databases are walked in the scorer's blocks
    (``database_blocks``; one block of all 256 at N = 8), and each block's
    loss and gradient enter the step weighted by its share of the
    databases.  So nothing is sampled, the initial weights are the only
    random draw, and a step encodes each database once and decodes each
    (query, distinct code) once per block, in one block's memory.  With one
    block its input (``_columns``) is built once, not once per step.  The
    curve holds the loss every 200 steps and at the last.  The first block
    writes the step's gradient into a net-shaped vector in place, so the
    update is one ufunc call per block and one more.  A code of more than
    ``MAX_CODE_BITS`` bits is refused.
    """
    if steps < 1:
        raise ValueError(f"steps={steps!r} must be at least 1")
    check_code_bits(m)
    net = _initial_net(n_bits, m, _HIDDEN, substream(seed, _TRAIN_STREAM))
    grad, block = copy.copy(net), copy.copy(net)  # room for the step's and a block's gradient
    params, step_grad, block_grad = net.params, grad.params, block.params
    kept, curve = None, []
    for step in range(steps):
        loss = 0.0
        for k, x in enumerate(kept or (_columns(db, m) for _, db in database_blocks(n_bits))):
            share = x.shape[1] / (1 << n_bits)
            # the first block writes the step's gradient in place, the others add to it
            block_loss, _ = net.loss_and_grads(x=x, out=block if k else grad)
            loss += share * block_loss
            if k:
                step_grad += share * _LR * block_grad
            else:
                step_grad *= share * _LR
        if k == 0:  # one block: keep its input for every step
            kept = (x,)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss!r} at step {step}")
        params -= step_grad
        if step % 200 == 0 or step == steps - 1:
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
        code = net._encode(_columns(db, net.m))[1].T
        for row, count in zip(*np.unique(code, axis=0, return_counts=True)):
            key = tuple(row.tolist())
            code_counts[key] = code_counts.get(key, 0) + int(count)
    # sorted as np.unique sorts rows, so the entropy sums in the same order
    p = np.array([code_counts[key] for key in sorted(code_counts)]) / (1 << net.n_bits)
    return AblationReport(observed_score=float(sum(per_query)),
                          counted_capacity=float(net.m), corrected_capacity=float(net.m),
                          per_query=per_query, code_entropy=float(p @ np.log2(1.0 / p)))


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
    return _control(n_bits, lambda db: db, 1.0, None,
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
    return _control(n_bits, lambda db: db * (np.arange(n_bits) < stored), None, float(q),
                    f"finite precision must be counted: {q} bits per coordinate")


def episode_weights_control(n_bits: int) -> AblationReport:
    """Decoder whose weight vector is set to the episode's database.

    The message carries nothing; looking the query up inside the weights
    answers everything exactly, so the score is N against a counted message
    budget of zero.
    """
    return _control(n_bits, lambda db: db, 0.0, None, "weights are data-dependent memory")
