"""Reference oracles that only the tests use.

    from oracles import TSIRELSON_CHSH, binary_channel_information, random_no_signaling_box

pytest puts this directory on ``sys.path``, so the test modules import it
by its bare name.
"""

import math
from itertools import product

import numpy as np

from racbox.boxes import BoxTable, pr_box
from racbox.info import Probability, binary_entropy, clamp_probability

TSIRELSON_CHSH = 2.0 + math.sqrt(2.0)


def random_no_signaling_box(rng: np.random.Generator, max_pr_weight: float = 0.5) -> BoxTable:
    """Random point of the no-signaling polytope: a Dirichlet mixture of the
    16 local deterministic boxes plus a random amount of the extremal box.

    ``max_pr_weight`` bounds the extremal component so that both local-ish
    and strongly nonlocal boxes get exercised.
    """
    weights = rng.dirichlet(np.ones(16))
    table = np.zeros((4, 4))
    k = 0
    for a0, a1, b0, b1 in product((0, 1), repeat=4):
        for s, t in product((0, 1), repeat=2):
            a = a1 if s else a0
            b = b1 if t else b0
            table[2 * s + t, 2 * a + b] += weights[k]  # row s t, column a b
        k += 1
    lam = rng.uniform(0.0, max_pr_weight)
    table = (1.0 - lam) * table + lam * pr_box().probs
    return BoxTable(table)


def binary_channel_information(q: Probability, r: Probability) -> float:
    """Mutual information of a general binary channel under an unbiased input.

    ``q`` and ``r`` are the probabilities of output 1 given input 0 and
    input 1 respectively; the value is h((q+r)/2) - h(q)/2 - h(r)/2 and
    reduces to ``bsc_information(p)`` when q = 1-p, r = p.
    """
    q = clamp_probability(q, "q")
    r = clamp_probability(r, "r")
    return binary_entropy((q + r) / 2.0) - 0.5 * binary_entropy(q) - 0.5 * binary_entropy(r)
