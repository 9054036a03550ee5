import numpy as np
import pytest

from racbox.ablation import (BottleneckNet, TrainConfig, TrainingDiverged,
                             episode_weights_control, eval_score,
                             exact_deterministic_score, precision_packing_control,
                             query_leaky_control, train_strict)
from racbox.rng import substream

FAST = TrainConfig(steps=1500)


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
    net = BottleneckNet.init(4, 2, 6, rng)
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
    net = BottleneckNet.init(4, 2, 6, rng)
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
    rep_a = eval_score(net_a, 20_000, seed=9)
    rep_b = eval_score(net_b, 20_000, seed=9)
    assert rep_a == rep_b


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
    # achieves the m = N ceiling with no sampling error
    net = identity_multiplexer_net(8)
    per_query = exact_deterministic_score(
        8, lambda db, k: int(net.answer(np.array([db], dtype=float), np.array([k]))[0]))
    assert sum(per_query) == pytest.approx(8.0, abs=1e-12)
    rep = eval_score(net, 30_000, seed=10)
    assert rep.observed_score == pytest.approx(8.0, abs=0.01)


def test_trained_wide_bottleneck_approaches_ceiling():
    # joint straight-through training plateaus below the constructive
    # ceiling, but a short run already clears half of it
    cfg = TrainConfig(hidden=64, batch=512, lr=0.3, steps=8000)
    net, _ = train_strict(8, 8, seed=5, config=cfg)
    rep = eval_score(net, 60_000, seed=6)
    assert rep.observed_score > 4.0
    assert rep.observed_score <= 8.0 + 1e-9


def test_strict_small_budget_respects_bound():
    net, _ = train_strict(8, 1, seed=11, config=FAST)
    rep = eval_score(net, 100_000, seed=12)
    half = (rep.interval[1] - rep.interval[0]) / 2
    assert rep.observed_score <= 1.0 + 3 * half
    assert rep.counted_capacity == 1.0


def test_database_independent_output_scores_zero():
    net = BottleneckNet.init(8, 1, 8, substream(83))
    for name, value in vars(net).items():
        if isinstance(value, np.ndarray):
            setattr(net, name, np.zeros_like(value))
    # constant output carries nothing about any target
    rep = eval_score(net, 40_000, seed=13)
    assert rep.observed_score == 0.0


def test_untrained_net_stays_below_its_budget():
    # a frozen random net is still a fixed one-bit-bottleneck protocol, so
    # whatever incidental information it carries respects the budget
    net = BottleneckNet.init(8, 1, 8, substream(83))
    rep = eval_score(net, 80_000, seed=13)
    assert rep.observed_score < 1.0


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
    assert sum(exact_deterministic_score(8, lambda db, k: 0)) == 0.0
