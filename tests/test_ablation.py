import copy
import functools
import hashlib
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest

import racbox.ablation as ablation
import racbox.experiments as experiments
import racbox.scores as scores
from racbox.ablation import (BottleneckNet, TrainingDiverged,
                             episode_weights_control, eval_score, precision_packing_control,
                             query_leaky_control, train_strict)
from racbox.cli import main as run_cli
from racbox.estimation import plugin_mi
from racbox.experiments import ExperimentConfig, build_ablations, judge_ablations, resolve
from racbox.rng import substream
from racbox.scores import exact_scores

FAST = 200  # training steps


def fresh_net(n_bits, m, hidden, rng):
    """An untrained net as train_strict builds one, its weights views of one flat vector."""
    return ablation._initial_net(n_bits, m, hidden, rng)


# Reference oracle: the plain out-of-place form of the shipped step, its
# groups found by Python sets.  The shipped step must stay bit-identical to it.
def reference_loss_and_grads(net, db, binarize=True):
    n_db, n_bits, m = db.shape[0], net.n_bits, net.m
    rows = n_db * n_bits
    # each layer's bias is one more row of its weights; each activation a ones row more
    w1, w2, v1, v2 = (np.concatenate((w, b.reshape(1, -1))) for w, b in
                      ((net.w1, net.b1), (net.w2, net.b2), (net.v1, net.c1), (net.v2, net.c2)))
    # row-major, as the step's: a product's bits depend on its operands' layout
    x = np.ascontiguousarray(np.vstack((db.T, np.ones(n_db))))
    h1 = np.vstack((np.tanh(w1.T @ x), np.ones(n_db)))
    z = w2.T @ h1
    code = np.sign(z) + (z == 0.0) if binarize else z
    # each database's column: its bits, a one and its code
    x = np.ascontiguousarray(np.vstack((x, code)))
    if binarize:
        keys = [sum(1 << i for i in range(m) if code[i, b] > 0.0) for b in range(n_db)]
        distinct = sorted(set(keys))
        inv = np.array([distinct.index(key) for key in keys])
        tally = np.stack([x[:, inv == c].sum(axis=1) for c in range(len(distinct))], axis=1)
    else:
        tally, inv = x, np.arange(n_db)
    n_codes = tally.shape[1]
    ones, count = tally[:n_bits], tally[n_bits]
    # the decoder's input at each (query, code): the code, the one-hot query and a one
    grid = np.vstack((np.tile(tally[n_bits + 1:] / count, n_bits),
                      np.repeat(np.eye(n_bits), n_codes, axis=1), np.ones(n_bits * n_codes)))
    h2 = np.vstack((np.tanh(v1.T @ grid), np.ones(n_bits * n_codes)))
    logit = (v2[:, 0] @ h2).reshape(n_bits, n_codes)
    e = np.exp(-np.abs(logit))
    loss = float((np.log1p(e) + np.maximum(logit, 0.0)).sum(axis=0) @ count
                 - np.vdot(logit, ones)) / rows
    sig = np.where(logit >= 0.0, 1.0, e) / (1.0 + e)
    dlogit = (count * sig - ones) / rows
    dh2 = (1.0 - h2[:-1] * h2[:-1]) * net.v2
    dpre2 = dh2 * dlogit.reshape(-1)
    dcode = (net.v1[:m] @ dh2).reshape(m, n_bits, n_codes)[:, :, inv]
    dz = (dcode * (sig[:, inv] - x[:n_bits])).sum(axis=1) / rows
    dpre1 = np.dot(net.w2, dz) * (1.0 - h1[:-1] * h1[:-1])
    layers = (x[:n_bits + 1] @ dpre1.T, h1 @ dz.T, grid @ dpre2.T, h2 @ dlogit.reshape(-1, 1))
    grads = {}
    for (weight, bias), layer in zip(ablation._PARAMS, layers):
        grads[weight], grads[bias] = layer[:-1], layer[-1]
    return loss, grads


# Second oracle: the tiled step, every (database, query) pair its own row of
# the encoder and of the decoder, the query one-hot.  The grouped step
# reorders its sums, so the two agree to rounding.
def tiled_loss_and_grads(net, db, binarize=True):
    n_bits = net.n_bits
    x = np.tile(db, (n_bits, 1)).astype(float)
    queries = np.repeat(np.arange(n_bits), len(db))
    batch = x.shape[0]
    h1 = np.tanh(x @ net.w1 + net.b1)
    z = h1 @ net.w2 + net.b2
    h_pm = (np.sign(z) + (z == 0.0)) if binarize else z
    d_in = np.concatenate([h_pm, np.eye(n_bits)[queries]], axis=1)
    h2 = np.tanh(d_in @ net.v1 + net.c1)
    logit = (h2 @ net.v2 + net.c2)[:, 0]
    y = db.T.reshape(-1).astype(float)
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


def reference_train(n_bits, m, seed, steps, loss_and_grads=reference_loss_and_grads):
    rng = substream(seed, ablation._TRAIN_STREAM)
    net = fresh_net(n_bits, m, ablation._HIDDEN, rng)
    curve = []
    for step in range(steps):
        loss = 0.0
        total = {name: np.zeros_like(w) for name, w in vars(net).items()
                 if isinstance(w, np.ndarray)}
        for _, db in scores.database_blocks(n_bits):
            share = len(db) / 2 ** n_bits
            block_loss, grads = loss_and_grads(net, db)
            loss += share * block_loss
            total = {name: total[name] + share * g for name, g in grads.items()}
        for name, g in total.items():
            setattr(net, name, getattr(net, name) - ablation._LR * g)
        if step % 200 == 0 or step == steps - 1:
            curve.append(loss)
    return net, curve


STEP_CASES = [
    pytest.param(0, 8, 32, 256, id="0"),
    pytest.param(1, 8, 32, 256, id="1"),
    pytest.param(3, 8, 32, 256, id="3"),
    # odd hidden, and an odd block for the gradient check
    pytest.param(2, 6, 7, 255, id="n6-h7"),
]


# database_blocks walks N = 10 in two blocks, of 655 and 369 databases
TWO_BLOCKS = pytest.param(3, 10, 32, 700, id="n10-two-blocks")


def random_block(n_bits, databases, seed):
    """``databases`` uniform databases, drawn with replacement, so some repeat."""
    return substream(85, seed).integers(0, 2, size=(databases, n_bits))


@pytest.mark.parametrize("m, n_bits, hidden, batch", STEP_CASES + [TWO_BLOCKS])
def test_train_step_is_bit_identical_to_the_reference(monkeypatch, m, n_bits, hidden, batch):
    monkeypatch.setattr(ablation, "_HIDDEN", hidden)
    net, curve = train_strict(n_bits, m, seed=40 + m, steps=300)
    ref, ref_curve = reference_train(n_bits, m, 40 + m, 300)
    assert net.w1.shape == (n_bits, hidden)
    assert curve == ref_curve
    for name, value in vars(ref).items():
        assert np.array_equal(getattr(net, name), value), name

    db = random_block(n_bits, batch, m)
    for binarize in (False, True):
        loss, grads = net.loss_and_grads(db, binarize=binarize)
        ref_loss, ref_grads = reference_loss_and_grads(net, db, binarize=binarize)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            assert grads[name].shape == g.shape and np.array_equal(grads[name], g), name


@pytest.mark.parametrize("binarize", [False, True])
@pytest.mark.parametrize("m, n_bits, hidden, batch", STEP_CASES)
def test_grouped_step_equals_the_tiled_oracle(monkeypatch, m, n_bits, hidden, batch, binarize):
    # the loss and every gradient on a block of all databases and on a block
    # with repeats, for an untrained net and one trained for 300 steps
    monkeypatch.setattr(ablation, "_HIDDEN", hidden)
    fresh = fresh_net(n_bits, m, hidden, substream(40 + m, ablation._TRAIN_STREAM))
    trained, _ = train_strict(n_bits, m, seed=40 + m, steps=300)
    (_, every), = scores.database_blocks(n_bits)
    for net in (fresh, trained):
        for db in (every, random_block(n_bits, batch, m)):
            loss, grads = net.loss_and_grads(db, binarize=binarize)
            tiled_loss, tiled = tiled_loss_and_grads(net, db, binarize=binarize)
            assert loss == pytest.approx(tiled_loss, rel=0, abs=1e-12)
            assert grads.keys() == tiled.keys()
            for name, g in tiled.items():
                np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("m, n_bits, hidden, batch", STEP_CASES + [TWO_BLOCKS])
def test_training_follows_the_tiled_oracle(monkeypatch, m, n_bits, hidden, batch):
    monkeypatch.setattr(ablation, "_HIDDEN", hidden)
    net, curve = train_strict(n_bits, m, seed=40 + m, steps=5)
    tiled, tiled_curve = reference_train(n_bits, m, 40 + m, 5, tiled_loss_and_grads)
    assert curve == pytest.approx(tiled_curve, rel=0, abs=1e-12)
    for name, value in vars(tiled).items():
        np.testing.assert_allclose(getattr(net, name), value, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n_bits, m", [(8, 1), (8, 3), (10, 3)])
def test_a_step_encodes_each_database_once_and_decodes_each_code_once(monkeypatch,
                                                                      n_bits, m):
    # per block, the encoder reads each database once and the decoder at most
    # min(2^m, databases) x N (code, query) columns, not one per (database, query) pair
    encoded, decoded = [], []
    encode, decode = BottleneckNet._encode, BottleneckNet._decode

    def record_encode(net, x, *args, **kwargs):
        encoded.append(x.shape[1])
        return encode(net, x, *args, **kwargs)

    def record_decode(net, inputs):
        decoded.append(inputs.shape[1])
        return decode(net, inputs)

    monkeypatch.setattr(BottleneckNet, "_encode", record_encode)
    monkeypatch.setattr(BottleneckNet, "_decode", record_decode)
    train_strict(n_bits, m, seed=7, steps=1)
    blocks = [len(db) for _, db in scores.database_blocks(n_bits)]
    assert encoded == blocks and sum(blocks) == 2 ** n_bits
    assert len(decoded) == len(blocks)
    for rows, databases in zip(decoded, blocks):
        assert 0 < rows <= min(2 ** m, databases) * n_bits


def test_a_63_bit_code_matches_the_tiled_oracle():
    # the top code bits carry the whole code, so its key uses bit 62
    m = 63
    net = fresh_net(8, m, ablation._HIDDEN, substream(7, ablation._TRAIN_STREAM))
    net.w2[:, :55] = 0.0
    net.b2[:55] = 1.0
    (_, every), = scores.database_blocks(8)
    assert np.unique(net._encode(ablation._columns(every, m))[1], axis=1).shape[1] > 1
    loss, grads = net.loss_and_grads(every)
    tiled_loss, tiled = tiled_loss_and_grads(net, every)
    assert loss == pytest.approx(tiled_loss, rel=0, abs=1e-12)
    for name, g in tiled.items():
        np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("m", [64, 70])
def test_a_code_of_64_bits_or_more_is_refused(monkeypatch, m):
    # its grouping key would wrap, and codes differing only above bit 63 would merge
    error = f"m={m} code bits: training groups codes by a 64-bit key, so m <= 63"
    with pytest.raises(ValueError, match=re.escape(error)):
        train_strict(8, m, seed=1, steps=1)

    def never(*args, **kwargs):
        raise AssertionError("a net was trained")

    monkeypatch.setattr(experiments, "train_strict", never)
    config = ExperimentConfig("ablations", params={"ms": [1, m]}, workers=1)
    with pytest.raises(ValueError, match=re.escape(error)):
        build_ablations(resolve(config))


@pytest.mark.parametrize("n_bits, calls", [(8, 1), (10, 3)])
def test_a_single_block_is_laid_out_once_per_training(monkeypatch, n_bits, calls):
    # at N = 8 one block holds every database, so three steps walk the
    # scorer's blocks once; at N = 10 each step walks its two blocks again
    walks = []
    blocks = ablation.database_blocks

    def counted(n):
        walks.append(n)
        return blocks(n)

    monkeypatch.setattr(ablation, "database_blocks", counted)
    train_strict(n_bits, 1, seed=7, steps=3)
    assert walks == [n_bits] * calls


def test_assigning_a_weight_by_name_writes_into_the_net():
    # the net owns one parameter vector: a weight assigned by name changes
    # what answer, eval_score and loss_and_grads read, exactly as a net built
    # afresh from the same arrays
    net, _ = train_strict(8, 3, seed=21, steps=FAST)
    (_, every), = scores.database_blocks(8)
    rng = substream(87)
    for name in ablation._NAMES:
        before = net.loss_and_grads(every)[1]
        setattr(net, name, getattr(net, name) + rng.standard_normal(getattr(net, name).shape))
        rebuilt = BottleneckNet(8, 3, **{n: getattr(net, n).copy() for n in ablation._NAMES})
        loss, grads = net.loss_and_grads(every)
        rebuilt_loss, rebuilt_grads = rebuilt.loss_and_grads(every)
        assert not all(np.array_equal(grads[n], g) for n, g in before.items()), name
        assert loss == rebuilt_loss, name
        for n, g in rebuilt_grads.items():
            assert np.array_equal(grads[n], g), (name, n)
        assert np.array_equal(net.answer(every), rebuilt.answer(every)), name
        assert eval_score(net) == eval_score(rebuilt), name

    kept = net.params.copy()
    for name, shape in [("w1", (32, 8)), ("c2", ()), ("v1c1", (11, 32)), ("params", (3,))]:
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape ")):
            setattr(net, name, np.zeros(shape))
    assert np.array_equal(net.params, kept)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))])
def test_a_copied_net_owns_its_parameters(duplicate):
    # a copy is built afresh, so assigning its weights by name reaches what
    # it answers and leaves the original as it was
    net, _ = train_strict(8, 1, seed=22, steps=FAST)
    kept, twin = net.params.copy(), duplicate(net)
    twin.w1 = np.zeros_like(twin.w1)
    twin.b1 = np.zeros_like(twin.b1)
    assert np.array_equal(net.params, kept)
    assert np.shares_memory(twin.w1b1, twin.params)
    assert eval_score(twin).observed_score == 0.0


def test_gradients_returned_outside_training_do_not_alias():
    # a caller may keep the gradients of one call while making the next
    rng = substream(86)
    net = fresh_net(4, 2, 6, rng)
    db = rng.integers(0, 2, size=(12, 4))
    _, first = net.loss_and_grads(db)
    kept = {name: g.copy() for name, g in first.items()}
    _, second = net.loss_and_grads(1 - db)
    for name, g in first.items():
        assert np.array_equal(g, kept[name]), name
        assert not np.shares_memory(g, second[name]), name
        assert not np.shares_memory(g, getattr(net, name)), name


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
    db = rng.integers(0, 2, size=(12, 4))
    _, grads = net.loss_and_grads(db, binarize=False)
    eps = 1e-6
    for name in grads:
        w = getattr(net, name)
        flat = w.reshape(-1)
        idx = rng.integers(0, flat.size, size=min(8, flat.size))
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            up, _ = net.loss_and_grads(db, binarize=False)
            flat[i] = keep - eps
            dn, _ = net.loss_and_grads(db, binarize=False)
            flat[i] = keep
            numeric = (up - dn) / (2 * eps)
            analytic = grads[name].reshape(-1)[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-4


def test_straight_through_passes_gradient_to_preactivations():
    rng = substream(81)
    net = fresh_net(4, 2, 6, rng)
    db = rng.integers(0, 2, size=(12, 4))
    _, grads = net.loss_and_grads(db, binarize=True)
    # encoder parameters receive gradients through the sign surrogate
    assert np.abs(grads["w2"]).max() > 0.0
    assert np.abs(grads["w1"]).max() > 0.0


def test_training_is_deterministic():
    net_a, curve_a = train_strict(8, 1, seed=123, steps=FAST)
    net_b, curve_b = train_strict(8, 1, seed=123, steps=FAST)
    assert curve_a == curve_b
    for name, value in vars(net_a).items():
        assert np.array_equal(value, getattr(net_b, name))
    assert eval_score(net_a) == eval_score(net_b)


def test_encoder_is_query_blind():
    net, _ = train_strict(8, 2, seed=3, steps=FAST)
    db = substream(82).integers(0, 2, size=(512, 8)).astype(float)
    # the transmitted code, computed here from the encoder weights alone, is a
    # function of the database: databases sharing a code must get the same
    # answer to every query, whatever else differs between them
    codes = (np.tanh(db @ net.w1 + net.b1) @ net.w2 + net.b2) >= 0.0
    _, code_ids = np.unique(codes, axis=0, return_inverse=True)
    code_ids = code_ids.reshape(-1)
    assert np.bincount(code_ids).max() > 1  # some databases do share a code
    answers = net.answer(db)
    assert answers.shape == (512, 8)
    for c in np.unique(code_ids):
        assert len(np.unique(answers[code_ids == c], axis=0)) == 1


def test_divergence_detector(monkeypatch):
    monkeypatch.setattr(ablation, "_LR", float("inf"))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingDiverged):
            train_strict(8, 1, seed=1, steps=10)


@pytest.mark.parametrize("name, index", [("w1", (0, 0)), ("b2", (0,))])
def test_a_nan_in_the_encoder_stops_training_at_step_0(monkeypatch, name, index):
    # the step's grouping key reads a NaN code as a 0 bit, so a NaN
    # pre-activation must still make the loss NaN rather than train on
    initial = ablation._initial_net

    def with_a_nan(*args):
        net = initial(*args)
        getattr(net, name)[index] = np.nan
        return net

    monkeypatch.setattr(ablation, "_initial_net", with_a_nan)
    with pytest.raises(TrainingDiverged, match="loss became nan at step 0"):
        train_strict(8, 3, seed=1, steps=10)


def test_a_step_count_below_one_is_refused():
    with pytest.raises(ValueError, match="steps=0 must be at least 1"):
        train_strict(8, 1, seed=1, steps=0)


def test_identity_net_hits_the_ceiling_exactly():
    # the hand-wired reference model, pushed through the exact enumerator,
    # achieves the m = N ceiling with no sampling error: every one of the
    # 256 databases gets its own code, and both inequalities hold with equality
    rep = eval_score(identity_multiplexer_net(8))
    assert rep.per_query == (1.0,) * 8
    assert rep.observed_score == 8.0 == rep.code_entropy


def test_trained_wide_bottleneck_approaches_ceiling(monkeypatch):
    # joint straight-through training plateaus below the constructive
    # ceiling, but a short run already clears half of it
    monkeypatch.setattr(ablation, "_HIDDEN", 64)
    monkeypatch.setattr(ablation, "_LR", 1.0)
    net, _ = train_strict(8, 8, seed=5, steps=1000)
    rep = eval_score(net)
    assert rep.observed_score > 4.0
    assert rep.observed_score <= rep.code_entropy + 1e-12
    assert rep.code_entropy <= 8.0 + 1e-12


def test_strict_small_budget_respects_bound():
    net, _ = train_strict(8, 1, seed=11, steps=FAST)
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
    assert sum(exact_scores(8, lambda db: np.zeros(db.shape, np.uint8))[0]) == 0.0


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
    net, _ = train_strict(8, 3, seed=21, steps=300)

    def net_one(db, k):
        return net.answer(np.array([db], dtype=float))[0, k]

    expected = reference_exact_score(8, net_one)
    assert exact_scores(8, net.answer)[0] == expected == eval_score(net).per_query
    assert precision_packing_control(8, q=5).per_query == reference_exact_score(
        8, lambda db, k: db[k] if k < 5 else 0)


def test_enumerator_answers_every_pair_in_one_call():
    # one call sees each of the 2^N databases once and answers all N
    # queries; entry (b, K) of its table is the answer scored for (b, K)
    calls = []

    def answer(db):
        calls.append(db.copy())
        # query 2's answer is the bit flipped, query 3's a constant
        return (db ^ (np.arange(5) == 2)) * (np.arange(5) != 3)

    per_query = exact_scores(5, answer)[0]
    # a flipped answer carries as much as the bit, a constant nothing
    assert per_query == (1.0, 1.0, 1.0, 0.0, 1.0)
    db, = calls
    assert db.shape == (32, 5)
    assert sorted((db @ (1 << np.arange(5))).tolist()) == list(range(32))


def test_eval_score_memory_is_bounded():
    # exact scoring answers 2^8 x 8 = 2,048 pairs in one call; its traced
    # peak is about 1.3 MB and does not depend on any episode count
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
    net, _ = train_strict(8, 3, seed=21, steps=300)
    whole = eval_score(net)
    assert scores._ENUM_BLOCK_BITS >= 8 * 8 * 256
    monkeypatch.setattr(scores, "_ENUM_BLOCK_BITS", bits)
    assert len(list(scores.database_blocks(8))) > 1
    blocked = eval_score(net)
    assert (blocked.per_query, blocked.code_entropy) == (whole.per_query, whole.code_entropy)


@pytest.mark.parametrize("databases", [1, 37])
def test_training_blocks_equal_the_default_block(monkeypatch, databases):
    # blocks of 1 and of 37 databases (the last one short) sum each step's
    # loss and gradient in another order than the scorer's default block of
    # all 256, which training walks, so only rounding may differ
    net, curve = train_strict(8, 3, seed=21, steps=5)
    assert len(list(scores.database_blocks(8))) == 1
    monkeypatch.setattr(scores, "_ENUM_BLOCK_BITS", 8 * 8 * databases)
    assert len(list(scores.database_blocks(8))) == -(-256 // databases)
    blocked, blocked_curve = train_strict(8, 3, seed=21, steps=5)
    assert blocked_curve == pytest.approx(curve, rel=0, abs=1e-12)
    for name, value in vars(net).items():
        np.testing.assert_allclose(getattr(blocked, name), value, rtol=0, atol=1e-12)


def test_training_memory_does_not_grow_with_n():
    # a step walks the 2^N x N pairs in blocks of databases, so its working
    # set is one block's; two steps peaked at about 0.93 MiB at N = 10 and
    # 0.72 MiB at N = 12
    def peak(n_bits):
        tracemalloc.start()
        try:
            train_strict(n_bits, 3, seed=84, steps=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) <= peak(10)


def test_a_step_with_many_codes_holds_memory_linear_in_the_block():
    # each database takes only its own code's decoder derivatives, so a
    # step's working set grows as databases x N x m, not databases x codes:
    # two steps at N = 10, m = 63 (blocks of 655 and 369 databases, nearly
    # all with distinct codes) peaked at about 16.5 MiB, against 220 MiB for
    # a product of every database with every code's derivatives
    tracemalloc.start()
    try:
        train_strict(10, 63, seed=84, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


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

    def train_then_mutate(n_bits, m, seed, steps):
        net, curve = train_strict(n_bits, m, seed, steps)
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
        net.answer = lambda db: db

    row, passed = strict_verdicts(monkeypatch, 1, feed_queried_bit)
    assert row["observed"] == 8.0 and row["code_entropy"] <= 1.0
    assert passed == {"embedding": [False], "capacity": [True]}


def test_unbinarized_bottleneck_fails_the_capacity_verdict(monkeypatch):
    # real-valued bottleneck coordinates at evaluation leak precision: the
    # decoder receives far more than 2^m distinct codes
    def leak_precision(net):
        net._encode = functools.partial(BottleneckNet._encode, net, binarize=False)

    row, passed = strict_verdicts(monkeypatch, 3, leak_precision)
    assert row["code_entropy"] > 3.0
    assert passed["capacity"] == [False]


# sha256 of `racbox run ablations` at one seed and m = 1, 3 (perfbench's
# ablation-train workload), recorded before the strict net owned its
# parameter vector and kept its block's input across steps
def test_ablations_keep_their_bytes(tmp_path):
    argv = ["run", "ablations", "--grid", "seeds=1", "--grid", "ms=1,3", "--workers", "1"]
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / "ablations" / name).read_bytes()).hexdigest()
               for name in ("ablations.csv", "training_curves.csv")}
    assert digests == {
        "ablations.csv": "ad9785e4b9c3711309ef1aa11b56e3ae3cf5ad8f9f3726d422074e41d3142cf8",
        "training_curves.csv": "000fcd75c6d18b69679ddff2cb571a4948b285854efec19daaa8e10b97582f5d"}


def test_oversized_database_fails_before_training(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a net was trained")

    monkeypatch.setattr(experiments, "train_strict", never)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="N <= 16"):
        build_ablations(resolve(ExperimentConfig("ablations", params={"n_bits": 17})))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="N <= 16"):
        exact_scores(17, lambda db: db)
