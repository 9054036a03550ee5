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
# Training: the width of both hidden tanh layers, the gradient step size and
# the default number of plain gradient steps on the exact population loss.
_HIDDEN = 32
_LR = 0.5
TRAIN_STEPS = 2_000
# The training step groups codes by an int64 key of one bit per code bit; bit
# 63 is the sign bit and 1 << k wraps to 0 for k >= 64, merging wider codes.
MAX_CODE_BITS = 63


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

    def _encode(self, x: np.ndarray, binarize: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Returns (h1, code) of each database row; the encoder never reads a query."""
        # in place here and in _decode: scoring runs both on all 2^N x N rows
        h1 = x @ self.w1
        h1 += self.b1
        np.tanh(h1, out=h1)
        z = h1 @ self.w2 + self.b2
        if binarize:  # sign(z) + (z == 0) maps -1, 0, 1, NaN to -1, +1, +1, NaN
            z = np.sign(z) + (z == 0.0)
        return h1, z

    def _decode(self, codes: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (h2, logit) at each row's (code, query).

        The one-hot query's product with ``v1`` is its row of ``v1``.
        """
        h2 = codes @ self.v1[: self.m]
        h2 += self.v1[self.m + queries]
        h2 += self.c1
        np.tanh(h2, out=h2)
        return h2, (h2 @ self.v2 + self.c2)[:, 0]

    def answer(self, x: np.ndarray, queries: np.ndarray) -> np.ndarray:
        return (self._decode(self._encode(x)[1], queries)[1] > 0.0).astype(np.uint8)

    def loss_and_grads(self, db: np.ndarray, binarize: bool = True
                       ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean sigmoid cross-entropy over every (database, query) pair of a
        block of databases, and its gradients.

        The decoder sees a database only through its code, so the loss
        depends on each database only through it.  Each database is encoded
        once, the databases are grouped by their code, and the decoder runs
        once per (distinct code, query), its cross-entropy weighted by the
        number of databases with that code and by how many of them hold a 1
        at that query.  With ``binarize`` the forward pass uses the sign of
        the bottleneck pre-activations and the backward pass treats the sign
        as identity (the straight-through surrogate): database b with code c
        gets dz = sum_q (sigmoid(logit[c, q]) - db[b, q]) W[c, q] / rows,
        where W[c, q] is the logit's derivative by the code.  Without
        ``binarize`` the network is smooth end-to-end and every database is
        its own group, which is what the finite-difference check exercises.
        Each call returns fresh gradient arrays.
        """
        x = np.asarray(db, dtype=float)
        n_db, n_bits, m = len(x), self.n_bits, self.m
        rows = n_db * n_bits
        h1, z = self._encode(x, binarize)
        if binarize:
            keys = (z > 0.0) @ (1 << np.arange(m))
            _, first, inv, count = np.unique(keys, return_index=True, return_inverse=True,
                                             return_counts=True)
            codes = z[first]
            # ones[c, q]: how many databases with code c hold a 1 at query q
            ones = np.bincount((inv[:, None] * n_bits + np.arange(n_bits)).reshape(-1),
                               x.reshape(-1), minlength=len(codes) * n_bits)
        else:
            codes, inv, count, ones = z, np.arange(n_db), np.ones(n_db), x.reshape(-1)
        n_codes = len(codes)
        h2, logit = self._decode(np.repeat(codes, n_bits, axis=0),
                                 np.tile(np.arange(n_bits), n_codes))
        weight = np.repeat(count, n_bits)

        # log(1 + exp(-|l|)) + max(0, l) - l*y is the stable cross entropy
        e = np.exp(-np.abs(logit))
        ce = weight * (np.log1p(e) + np.maximum(logit, 0.0)) - logit * ones
        loss = float(ce.sum()) / rows
        # stable sigmoid on both tails from e = exp(-|l|)
        sig = np.where(logit >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        dlogit = (weight * sig - ones) / rows
        # tanh' = 1 - h^2
        dh2 = self.v2[:, 0] * (1.0 - h2 * h2)
        dpre2 = (dlogit[:, None] * dh2).reshape(n_codes, n_bits, -1)
        # straight through the binarizer, one decoder derivative per (code, query)
        dcode = (dh2 @ self.v1[:m].T).reshape(n_codes, n_bits, m)
        residual = sig.reshape(n_codes, n_bits)[inv] - x
        dz = np.einsum("bq,bqm->bm", residual, dcode[inv]) / rows
        dpre1 = (dz @ self.w2.T) * (1.0 - h1 * h1)
        return loss, {"w1": x.T @ dpre1, "b1": dpre1.sum(axis=0),
                      "w2": h1.T @ dz, "b2": dz.sum(axis=0),
                      "v1": np.concatenate([codes.T @ dpre2.sum(axis=1), dpre2.sum(axis=0)]),
                      "c1": dpre2.sum(axis=(0, 1)),
                      "v2": h2.T @ dlogit[:, None], "c2": np.array([dlogit.sum()])}


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
    (distinct code, query) once per block, in one block's memory.  The
    curve holds the loss every 200 steps and at the last.  The net's
    weights are views of one flat vector, so the update is two ufunc calls.
    A code of more than ``MAX_CODE_BITS`` bits is refused.
    """
    if steps < 1:
        raise ValueError(f"steps={steps!r} must be at least 1")
    check_code_bits(m)
    rng = substream(seed, _TRAIN_STREAM)
    params, weights = _initial_params(n_bits, m, _HIDDEN, rng)
    net = BottleneckNet(n_bits=n_bits, m=m, **weights)
    grad, grads = _flat_views(n_bits, m, _HIDDEN)
    curve = []
    for step in range(steps):
        grad.fill(0.0)
        loss = 0.0
        for _, db in database_blocks(n_bits):
            share = len(db) / (1 << n_bits)
            block_loss, block_grads = net.loss_and_grads(db)
            loss += share * block_loss
            for name, g in block_grads.items():
                grads[name] += share * g
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss!r} at step {step}")
        grad *= _LR
        params -= grad
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
        code = net._encode(db)[1]
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
