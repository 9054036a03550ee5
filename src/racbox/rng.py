"""Deterministic derivation of independent random substreams.

All stochastic code in this package draws from generators built here, so
that a single master seed pins down every experiment.  Substreams are
addressed by an integer path (episode index, node id, stream label, ...)
hashed into a ``SeedSequence`` spawn key; distinct paths give statistically
independent streams and no state is shared between workers.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name}={value!r} is not an integer")
    return int(value)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``path`` under ``master_seed``."""
    key = tuple(_integer(p, f"path[{i}]") for i, p in enumerate(path))
    seq = np.random.SeedSequence(entropy=_integer(master_seed, "seed"), spawn_key=key)
    return np.random.default_rng(seq)
