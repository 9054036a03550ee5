"""Deterministic derivation of independent random substreams.

All stochastic code in this package draws from generators built here, so
that a single master seed pins down every experiment.  Substreams are
addressed by an integer path (episode index, node id, stream label, ...)
hashed into a ``SeedSequence`` spawn key; distinct paths give statistically
independent streams and no state is shared between workers.
"""

from __future__ import annotations

import math
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


# Word views of top_bits: values per 64-bit word -> dtype of one value.
_WORD_VIEWS = {8: np.dtype("<u1"), 2: np.dtype("<u4")}


def top_bits(rng: np.random.Generator, size, bits: int, per_word: int) -> np.ndarray:
    """Exactly ``rng.integers(0, 2**bits, size)``, read from whole 64-bit words.

    ``per_word`` = 8 gives the draw of dtype uint8 (1 <= bits <= 8), and
    ``per_word`` = 2 that of a 32- or 64-bit dtype, the default int64 among
    them (1 <= bits <= 32); the result is uint8 or uint32, the dtype of the
    word view.  For a power-of-two range NumPy's bounded draw (Lemire's
    method) never rejects and returns the top ``bits`` of each little-endian
    byte or half of the raw stream, low one first; here the raw words are
    viewed in that order and shifted in place.  The draws match NumPy's when
    the stream is read only by whole-word calls, whose count is a multiple
    of ``per_word``, and at most one last partial call, whose spare values
    are dropped.
    """
    view = _WORD_VIEWS[per_word]
    if not 1 <= bits <= 8 * view.itemsize:
        raise ValueError(f"bits={bits} outside [1, {8 * view.itemsize}] for {per_word} per word")
    count = math.prod(size) if isinstance(size, tuple) else size
    words = rng.bit_generator.random_raw(-(-count // per_word)).astype("<u8", copy=False)
    values = words.view(view)[:count].reshape(size)
    values >>= 8 * view.itemsize - bits
    return values
