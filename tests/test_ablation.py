import functools
import time
import tracemalloc

import numpy as np
import pytest

import racbox.ablation as ablation
import racbox.experiments as experiments
import racbox.scores as scores
from racbox.ablation import (BottleneckNet, TrainConfig, TrainingDiverged,
                             episode_weights_control, eval_score, precision_packing_control,
                             query_leaky_control, train_strict)
from racbox.estimation import plugin_mi
from racbox.experiments import ExperimentConfig, build_ablations, judge_ablations, resolve
from racbox.rng import substream
from racbox.scores import exact_scores

FAST = TrainConfig(steps=1500)


def fresh_net(n_bits, m, hidden, rng):
    """An untrained net as train_strict builds one, its weights views of one flat vector."""
    return BottleneckNet(n_bits=n_bits, m=m,
                         **ablation._initial_params(n_bits, m, hidden, rng)[1])


# Reference oracle: the plain out-of-place train step.  The shipped step
# reuses buffers and fuses temporaries; it must stay bit-identical to this.
def reference_forward(net, x, queries, binarize=True):
    h1 = np.tanh(x @ net.w1 + net.b1)
    z = h1 @ net.w2 + net.b2
    h_pm = (np.sign(z) + (z == 0.0)) if binarize else z
    onehot = np.eye(net.n_bits)[queries]
    d_in = np.concatenate([h_pm, onehot], axis=1)
    h2 = np.tanh(d_in @ net.v1 + net.c1)
    return h1, d_in, h2, (h2 @ net.v2 + net.c2)[:, 0]


def reference_loss_and_grads(net, x, queries, targets, binarize=True):
    batch = x.shape[0]
    h1, d_in, h2, logit = reference_forward(net, x, queries, binarize)
    y = targets.astype(float)
    loss = float(np.mean(np.logaddexp(0.0, -np.abs(logit))
                         + np.maximum(logit, 0.0) - logit * y))
    sig = np.where(logit >= 0.0,
                   1.0 / (1.0 + np.exp(-np.abs(logit))),
                   np.exp(-np.abs(logit)) / (1.0 + np.exp(-np.abs(logit))))
    dlogit = (sig - y) / batch
    dpre2 = (dlogit[:, None] @ net.v2.T) * (1.0 - h2 * h2)
    dz = (dpre2 @ net.v1.T)[:, : net.m]
    dpre1 = (dz @ net.w2.T) * (1.0 - h1 * h1)
    grads = {"w1": x.T @ dpre1, "b1": dpre1.sum(axis=0),
             "w2": h1.T @ dz, "b2": dz.sum(axis=0),
             "v1": d_in.T @ dpre2, "c1": dpre2.sum(axis=0),
             "v2": h2.T @ dlogit[:, None], "c2": np.array([dlogit.sum()])}
    return loss, grads


def reference_train(n_bits, m, seed, config):
    rng = substream(seed, ablation._TRAIN_STREAM)
    net = fresh_net(n_bits, m, config.hidden, rng)
    curve = []
    for step in range(config.steps):
        x = rng.integers(0, 2, size=(config.batch, n_bits)).astype(float)
        queries = rng.integers(0, n_bits, size=config.batch)
        targets = x[np.arange(config.batch), queries]
        loss, grads = reference_loss_and_grads(net, x, queries, targets)
        for name, g in grads.items():
            setattr(net, name, getattr(net, name) - config.lr * g)
        if step % 200 == 0 or step == config.steps - 1:
            curve.append(loss)
    return net, curve


@pytest.mark.parametrize("m, n_bits, config", [
    pytest.param(1, 8, TrainConfig(steps=300), id="1"),
    pytest.param(3, 8, TrainConfig(steps=300), id="3"),
    # at N = 6 every query is checked for a Lemire rejection; odd batch and hidden
    pytest.param(2, 6, TrainConfig(steps=300, batch=255, hidden=7), id="n6-b255-h7"),
])
def test_train_step_is_bit_identical_to_the_reference(m, n_bits, config):
    net, curve = train_strict(n_bits, m, seed=40 + m, config=config)
    ref, ref_curve = reference_train(n_bits, m, 40 + m, config)
    assert curve == ref_curve
    for name, value in vars(ref).items():
        assert np.array_equal(getattr(net, name), value), name

    rng = substream(85, m)
    batch = config.batch
    x = rng.integers(0, 2, size=(batch, n_bits)).astype(float)
    q = rng.integers(0, n_bits, size=batch)
    y = x[np.arange(batch), q]
    for binarize in (False, True):
        loss, grads = net.loss_and_grads(x, q, y, binarize=binarize)
        ref_loss, ref_grads = reference_loss_and_grads(net, x, q, y, binarize=binarize)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            assert grads[name].shape == g.shape and np.array_equal(grads[name], g), name


def test_gradients_returned_outside_training_do_not_alias():
    # a caller may keep the gradients of one call while making the next
    rng = substream(86)
    net = fresh_net(4, 2, 6, rng)
    x = rng.integers(0, 2, size=(12, 4)).astype(float)
    q = rng.integers(0, 4, size=12)
    y = x[np.arange(12), q]
    _, first = net.loss_and_grads(x, q, y)
    kept = {name: g.copy() for name, g in first.items()}
    _, second = net.loss_and_grads(1.0 - x, (q + 1) % 4, 1.0 - y)
    for name, g in first.items():
        assert np.array_equal(g, kept[name]), name
        assert not np.shares_memory(g, second[name]), name
        assert not np.shares_memory(g, getattr(net, name)), name


# The training sampler must equal these NumPy calls, step by step.
def integers_batches(rng, n_bits, batch, steps):
    for _ in range(steps):
        x = rng.integers(0, 2, size=(batch, n_bits)).astype(float)
        q = rng.integers(0, n_bits, size=batch)
        yield x, q, x[np.arange(batch), q]


def assert_sampler_equals_integers(make_rng, n_bits, batch, steps):
    got = ablation._training_batches(make_rng(), n_bits, batch, steps)
    want = integers_batches(make_rng(), n_bits, batch, steps)
    count = 0
    for (x, q, y), (x_ref, q_ref, y_ref) in zip(got, want, strict=True):
        assert x.dtype == x_ref.dtype and np.array_equal(x, x_ref)
        assert q.dtype == q_ref.dtype and np.array_equal(q, q_ref)
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        count += 1
    assert count == steps


@pytest.mark.parametrize("n_bits", [1, 3, 5, 6, 8, 12, 16])
@pytest.mark.parametrize("batch", [1, 7, 33, 255])
def test_sampler_equals_rng_integers(monkeypatch, n_bits, batch):
    # an odd word count per step leaves half a 64-bit word pending between
    # steps; small chunks put chunk boundaries everywhere
    assert_sampler_equals_integers(lambda: substream(87, n_bits, batch), n_bits, batch, 5)
    monkeypatch.setattr(ablation, "_CHUNK_BYTES", 1)
    assert_sampler_equals_integers(lambda: substream(88, n_bits, batch), n_bits, batch, 5)


def test_sampler_continues_a_pending_half_word():
    def make_rng():
        rng = substream(89)
        rng.integers(0, 2, size=3)  # leaves the high half of a word pending
        return rng

    assert make_rng().bit_generator.state["has_uint32"] == 1
    assert_sampler_equals_integers(make_rng, 6, 5, 4)


# PCG64 (XSL-RR) emits rotr64(hi ^ lo, hi >> 58) of the 128-bit state after
# each step state = state * MULTIPLIER + increment.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_emitting(at: int, first: int, second: int) -> np.random.Generator:
    """A PCG64 generator whose 64-bit outputs ``at`` and ``at + 1`` (from 0)
    are ``first`` and ``second``."""
    mask64, mask128 = (1 << 64) - 1, (1 << 128) - 1
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)

    def state_emitting(out, hi):  # a state whose output is ``out``
        r = hi >> 58
        return (hi << 64) | (hi ^ (((out << r) | (out >> (64 - r))) & mask64 if r else out))

    s1 = state_emitting(first, 1 << 40)
    for hi2 in (3 << 50, (3 << 50) + 1):  # the increment's parity differs between these
        s2 = state_emitting(second, hi2)
        increment = (s2 - s1 * PCG64_MULTIPLIER) & mask128
        if increment & 1:  # PCG64 increments are odd
            state = s1
            for _ in range(at + 1):  # step back to the state before output 0
                state = ((state - increment) * inverse) & mask128
            bit_generator = np.random.PCG64()
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": increment},
                                   "has_uint32": 0, "uinteger": 0}
            return np.random.Generator(bit_generator)
    raise AssertionError("no odd increment found")


@pytest.mark.parametrize("n_bits, at, first, second, rejected", [
    # one example per step lays out [x0 x1 x2 q0 | x0 ...]; the zero fourth
    # word is rejected, so the query is the fifth word and every later step
    # shifts by one word
    (3, 0, 0x12345678_00000000, 0, [0, 0x12345678, 0, 0]),
    # [x0 .. x5 q0 | ...]: the seventh and eighth words are both zero, so the
    # query is the ninth word
    (6, 3, 0, 0x9ABCDEF0_12345678, [0, 0, 0x12345678, 0x9ABCDEF0]),
])
def test_sampler_walks_a_rejected_query(n_bits, at, first, second, rejected):
    # Lemire's method rejects u = 0 for any N that is not a power of two:
    # 0 * N leaves 0 below 2^32 % N
    make_rng = functools.partial(pcg64_emitting, at, first, second)
    words = make_rng().bit_generator.random_raw(at + 2).view(np.uint32)
    assert words[2 * at:].tolist() == rejected
    assert (1 << 32) % n_bits > 0
    assert_sampler_equals_integers(make_rng, n_bits, 1, 6)
    assert_sampler_equals_integers(make_rng, n_bits, 2, 4)


def identity_multiplexer_net(n_bits: int, gain: float = 20.0) -> BottleneckNet:
    """Hand-wired reference net: bottleneck = database, decoder = multiplexer.

    Saturated tanh units make both stages exact, so the evaluated score hits
    the m = N ceiling.  Useful as the known-answer check for the evaluation
    pipeline and as the constructive ceiling the trained m = N model chases.
    """
    hidden = max(n_bits, 1)
    net = BottleneckNet(
        n_bits=n_bits, m=n_bits,
        w1=np.zeros((n_bits, hidden)), b1=np.full(hidden, -gain),
        w2=np.zeros((hidden, n_bits)), b2=np.zeros(n_bits),
        v1=np.zeros((2 * n_bits, hidden)), c1=np.full(hidden, -2.0 * gain),
        v2=np.ones((hidden, 1)), c2=np.array([float(n_bits - 1)]),
    )
    for i in range(n_bits):
        net.w1[i, i] = 2.0 * gain        # h1_i = tanh(gain * (2 a_i - 1))
        net.w2[i, i] = 1.0               # z_i keeps the sign of a_i - 1/2
        net.v1[i, i] = gain              # selected unit copies bottleneck bit i
        net.v1[n_bits + i, i] = 2.0 * gain  # the one-hot query gates unit i on
    return net


def test_gradient_check_against_finite_differences():
    # binarizer replaced by identity: backprop must match central differences
    rng = substream(80)
    net = fresh_net(4, 2, 6, rng)
    x = rng.integers(0, 2, size=(12, 4)).astype(float)
    q = rng.integers(0, 4, size=12)
    y = x[np.arange(12), q]
    _, grads = net.loss_and_grads(x, q, y, binarize=False)
    eps = 1e-6
    for name in grads:
        w = getattr(net, name)
        flat = w.reshape(-1)
        idx = rng.integers(0, flat.size, size=min(8, flat.size))
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = net.loss_and_grads(x, q, y, binarize=False)
            flat[i] = keep - eps
            dn, _ = net.loss_and_grads(x, q, y, binarize=False)
            flat[i] = keep
            numeric = (up - dn) / (2 * eps)
            analytic = grads[name].reshape(-1)[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-4


def test_straight_through_passes_gradient_to_preactivations():
    rng = substream(81)
    net = fresh_net(4, 2, 6, rng)
    x = rng.integers(0, 2, size=(12, 4)).astype(float)
    q = rng.integers(0, 4, size=12)
    y = x[np.arange(12), q]
    _, grads = net.loss_and_grads(x, q, y, binarize=True)
    # encoder parameters receive gradients through the sign surrogate
    assert np.abs(grads["w2"]).max() > 0.0
    assert np.abs(grads["w1"]).max() > 0.0


def test_training_is_deterministic():
    net_a, curve_a = train_strict(8, 1, seed=123, config=FAST)
    net_b, curve_b = train_strict(8, 1, seed=123, config=FAST)
    assert curve_a == curve_b
    for name, value in vars(net_a).items():
        assert np.array_equal(value, getattr(net_b, name))
    assert eval_score(net_a) == eval_score(net_b)


def test_encoder_is_query_blind():
    net, _ = train_strict(8, 2, seed=3, config=FAST)
    db = substream(82).integers(0, 2, size=(512, 8)).astype(float)
    # the transmitted code, computed here from the encoder weights alone, is a
    # function of the database: databases sharing a code must get the same
    # answer to every query, whatever else differs between them
    codes = (np.tanh(db @ net.w1 + net.b1) @ net.w2 + net.b2) >= 0.0
    _, code_ids = np.unique(codes, axis=0, return_inverse=True)
    code_ids = code_ids.reshape(-1)
    assert np.bincount(code_ids).max() > 1  # some databases do share a code
    for q in range(8):
        answers = net.answer(db, np.full(512, q))
        for c in np.unique(code_ids):
            assert len(set(answers[code_ids == c].tolist())) == 1


def test_divergence_detector():
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingDiverged):
            train_strict(8, 1, seed=1, config=TrainConfig(steps=10, lr=float("inf")))


def test_identity_net_hits_the_ceiling_exactly():
    # the hand-wired reference model, pushed through the exact enumerator,
    # achieves the m = N ceiling with no sampling error: every one of the
    # 256 databases gets its own code, and both inequalities hold with equality
    rep = eval_score(identity_multiplexer_net(8))
    assert rep.per_query == (1.0,) * 8
    assert rep.observed_score == 8.0 == rep.code_entropy


def test_trained_wide_bottleneck_approaches_ceiling():
    # joint straight-through training plateaus below the constructive
    # ceiling, but a short run already clears half of it
    cfg = TrainConfig(hidden=64, batch=512, lr=0.3, steps=8000)
    net, _ = train_strict(8, 8, seed=5, config=cfg)
    rep = eval_score(net)
    assert rep.observed_score > 4.0
    assert rep.observed_score <= rep.code_entropy + 1e-12
    assert rep.code_entropy <= 8.0 + 1e-12


def test_strict_small_budget_respects_bound():
    net, _ = train_strict(8, 1, seed=11, config=FAST)
    rep = eval_score(net)
    assert 0.0 < rep.observed_score <= rep.code_entropy + 1e-12
    assert rep.code_entropy <= 1.0 + 1e-12
    assert rep.counted_capacity == 1.0


def test_database_independent_output_scores_zero():
    net = fresh_net(8, 1, 8, substream(83))
    for name, value in vars(net).items():
        if isinstance(value, np.ndarray):
            setattr(net, name, np.zeros_like(value))
    # constant output carries nothing about any target, and the constant
    # code has no entropy
    rep = eval_score(net)
    assert rep.observed_score == 0.0
    assert rep.code_entropy == 0.0 and str(rep.code_entropy) == "0.0"


def test_untrained_net_stays_below_its_budget():
    # a frozen random net is still a fixed one-bit-bottleneck protocol, so
    # whatever incidental information it carries respects the budget
    net = fresh_net(8, 1, 8, substream(83))
    rep = eval_score(net)
    assert rep.observed_score < 1.0
    assert rep.observed_score <= rep.code_entropy + 1e-12 <= 1.0 + 2e-12


def test_query_leaky_control():
    rep = query_leaky_control(8)
    assert rep.observed_score == 8.0
    assert rep.counted_capacity == 1.0
    assert "query" in rep.diagnosis
    assert rep.per_query == (1.0,) * 8
    degenerate = query_leaky_control(1)
    assert degenerate.observed_score == 1.0 == degenerate.counted_capacity
    assert query_leaky_control(4).observed_score == 4.0


def test_precision_packing_control():
    rep = precision_packing_control(8, q=8)
    assert rep.observed_score == 8.0
    assert rep.corrected_capacity == 8.0
    assert rep.counted_capacity is None  # "one real coordinate" has no bit count
    assert "precision" in rep.diagnosis
    assert precision_packing_control(8, q=4).observed_score == 4.0
    assert precision_packing_control(8, q=0).observed_score == 0.0


def test_episode_weights_control():
    rep = episode_weights_control(8)
    assert rep.observed_score == 8.0
    assert rep.counted_capacity == 0.0
    assert "memory" in rep.diagnosis
    assert episode_weights_control(2).observed_score == 2.0
    # the same decoder with weights frozen across episodes answers a constant
    # per query and carries nothing
    assert sum(exact_scores(8, lambda db, k: np.zeros(len(k), np.uint8))[0]) == 0.0


def reference_exact_score(n_bits, answer_one):
    """Loop oracle: tally ``answer_one(db, k)`` database by database."""
    per_query = []
    for k in range(n_bits):
        counts = np.zeros((2, 2), dtype=np.int64)
        for word in range(1 << n_bits):
            db = [(word >> i) & 1 for i in range(n_bits)]
            counts[db[k], int(answer_one(db, k)) & 1] += 1
        per_query.append(plugin_mi(counts))
    return tuple(per_query)


def test_enumerator_matches_the_loop_oracle():
    net, _ = train_strict(8, 3, seed=21, config=TrainConfig(steps=300))

    def net_one(db, k):
        return net.answer(np.array([db], dtype=float), np.array([k]))[0]

    expected = reference_exact_score(8, net_one)
    assert exact_scores(8, net.answer)[0] == expected == eval_score(net).per_query
    assert precision_packing_control(8, q=5).per_query == reference_exact_score(
        8, lambda db, k: db[k] if k < 5 else 0)


def test_enumerator_answers_every_pair_in_one_call():
    # one batched call sees each of the 2^N databases with each of the N
    # queries exactly once
    calls = []

    def answer(db, queries):
        calls.append((db.copy(), queries.copy()))
        return db[np.arange(len(queries)), queries] ^ (queries == 2)

    per_query = exact_scores(5, answer)[0]
    assert per_query == (1.0,) * 5  # a flipped answer carries as much as the bit
    (db, queries), = calls
    assert db.shape == (32 * 5, 5) and queries.shape == (32 * 5,)
    words = db @ (1 << np.arange(5))
    pairs = set(zip(words.tolist(), queries.tolist()))
    assert pairs == {(w, k) for w in range(32) for k in range(5)}


def test_eval_score_memory_is_bounded():
    # exact scoring answers 2^8 x 8 = 2,048 rows in one call; its traced
    # peak is about 1.4 MB and does not depend on any episode count
    net = fresh_net(8, 3, 32, substream(84))
    tracemalloc.start()
    try:
        eval_score(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bits", [8 * 8, 8 * 8 * 37])
def test_blocked_enumeration_equals_one_block(monkeypatch, bits):
    # blocks of 1 and of 37 databases (the last one short) sum to the same
    # contingency counts and code counts as a single block of all 256
    net, _ = train_strict(8, 3, seed=21, config=TrainConfig(steps=300))
    whole = eval_score(net)
    assert scores._ENUM_BLOCK_BITS >= 8 * 8 * 256
    monkeypatch.setattr(scores, "_ENUM_BLOCK_BITS", bits)
    blocked = eval_score(net)
    assert (blocked.per_query, blocked.code_entropy) == (whole.per_query, whole.code_entropy)


def test_exact_scorer_memory_does_not_grow_with_n():
    # whole 2^N x N enumerations peaked at 7.3 MiB at N = 10 and 36.4 MiB at
    # N = 12; blocks of databases hold the working set fixed
    def peak(n_bits):
        net = fresh_net(n_bits, 3, 32, substream(84))
        tracemalloc.start()
        try:
            eval_score(net)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) <= peak(10)


def strict_verdicts(monkeypatch, m, mutate):
    """Verdicts of a one-seed ``ablations`` run whose net is mutated after training."""

    def train_then_mutate(n_bits, m, seed, config):
        net, curve = train_strict(n_bits, m, seed, config)
        mutate(net)
        return net, curve

    monkeypatch.setattr(experiments, "train_strict", train_then_mutate)
    p = resolve(ExperimentConfig("ablations", params={"seeds": 1, "ms": [m], "steps": 300}))
    tables = build_ablations(p)
    verdicts = judge_ablations(tables, p)
    (row,) = [r for r in tables["ablations.csv"] if r["mode"] == "strict"]
    return row, {kind: [v.passed for v in verdicts if f" {kind}: " in v.name]
                 for kind in ("embedding", "capacity")}


def test_strict_verdicts_pass_on_the_trained_net(monkeypatch):
    row, passed = strict_verdicts(monkeypatch, 1, lambda net: None)
    assert passed == {"embedding": [True], "capacity": [True]}
    assert row["observed"] <= row["code_entropy"] <= row["counted"] == 1.0


def test_decoder_fed_the_queried_bit_fails_the_embedding_verdict(monkeypatch):
    # the decoder reads the queried bit besides the code, so its answers are
    # no longer a function of the code (compare test_encoder_is_query_blind)
    def feed_queried_bit(net):
        net.answer = lambda x, q: x[np.arange(len(q)), q].astype(np.uint8)

    row, passed = strict_verdicts(monkeypatch, 1, feed_queried_bit)
    assert row["observed"] == 8.0 and row["code_entropy"] <= 1.0
    assert passed == {"embedding": [False], "capacity": [True]}


def test_unbinarized_bottleneck_fails_the_capacity_verdict(monkeypatch):
    # real-valued bottleneck coordinates at evaluation leak precision: the
    # decoder receives far more than 2^m distinct codes
    def leak_precision(net):
        net._forward = functools.partial(BottleneckNet._forward, net, binarize=False)

    row, passed = strict_verdicts(monkeypatch, 3, leak_precision)
    assert row["code_entropy"] > 3.0
    assert passed["capacity"] == [False]


def test_oversized_database_fails_before_training(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a net was trained")

    monkeypatch.setattr(experiments, "train_strict", never)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="N <= 16"):
        build_ablations(resolve(ExperimentConfig("ablations", params={"n_bits": 17})))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="N <= 16"):
        exact_scores(17, lambda db, k: k)
