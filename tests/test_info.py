import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import binary_channel_information
from racbox.info import LN2, binary_entropy, entropy_deficit

probs = st.floats(min_value=0.0, max_value=1.0)


def test_entropy_reference_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation of the defining formula at p = 3/4
    assert binary_entropy(0.75) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_entropy_domain_error():
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(-1e-6)
    # rounding-level violations clamp instead of raising
    assert binary_entropy(1.0 + 1e-13) == 0.0


@given(st.floats(min_value=0.5, max_value=1.0))
def test_entropy_symmetry_exact_where_subtraction_is(p):
    # 1 - p is exact for p >= 1/2, so symmetry holds bit for bit there
    assert binary_entropy(p) == binary_entropy(1.0 - p)


def test_entropy_symmetry_dense_grid():
    for p in np.linspace(0.0, 1.0, 10_001):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-15


def test_bsc_reference_points():
    # a symmetric channel of success p carries entropy_deficit(2p - 1) bits
    assert entropy_deficit(2 * 0.5 - 1) == 0.0
    assert entropy_deficit(2 * 1.0 - 1) == 1.0
    assert entropy_deficit(2 * 0.0 - 1) == 1.0
    # Tsirelson seed success probability
    p = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    val = entropy_deficit(2 * p - 1)
    assert val == pytest.approx(0.3991239633, abs=1e-9)
    assert 2.0 * val == pytest.approx(0.798, abs=1e-3)


def test_binary_channel_trivial():
    assert binary_channel_information(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert binary_channel_information(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def _joint_mi_oracle(q, r):
    # brute-force joint enumeration: unbiased input, channel rows (q, r)
    joint = np.array([[(1 - q) / 2, q / 2], [(1 - r) / 2, r / 2]])
    mi = 0.0
    for a in (0, 1):
        for b in (0, 1):
            pab = joint[a, b]
            if pab > 0:
                mi += pab * math.log2(pab / (joint[a].sum() * joint[:, b].sum()))
    return mi


def test_binary_channel_against_joint_enumeration():
    assert binary_channel_information(0.2, 0.9) == pytest.approx(
        _joint_mi_oracle(0.2, 0.9), abs=1e-12)


@given(probs)
def test_binary_channel_reduces_to_bsc(p):
    assert binary_channel_information(1.0 - p, p) == pytest.approx(
        entropy_deficit(2 * p - 1), abs=1e-12)


def test_quadratic_deficit_lower_bound_dense_grid():
    # 1 - h(p) >= (2/ln 2)(p - 1/2)^2 across [0, 1]
    grid = np.linspace(0.0, 1.0, 100_001)
    for p in grid:
        assert 1.0 - binary_entropy(p) >= (2.0 / LN2) * (p - 0.5) ** 2 - 1e-12


def test_small_bias_expansion_bound():
    # |deficit(d) - d^2/(2 ln 2)| <= K d^4 with K covering the quartic term
    K = 0.13
    for delta in np.linspace(-0.1, 0.1, 4001):
        deficit = entropy_deficit(delta)
        assert abs(deficit - delta * delta / (2.0 * LN2)) <= K * delta ** 4 + 1e-16


def test_deficit_series_agrees_at_switchover():
    # both evaluation paths agree where the series takes over
    for delta in (9.99e-5, 1.01e-4):
        direct = 1.0 - binary_entropy((1.0 + delta) / 2.0)
        assert entropy_deficit(delta) == pytest.approx(direct, abs=1e-14)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_deficit_even_and_bounded(delta):
    d = entropy_deficit(delta)
    assert 0.0 <= d <= 1.0
    assert d == entropy_deficit(-delta)
