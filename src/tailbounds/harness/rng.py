"""Counter-based random streams.

Every stream is keyed by (base_seed, *tags) through SHA-256 onto a Philox
key, so any replicate or sampling site can be regenerated independently of
execution order or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "restream", "derived_seed", "derived_seeds"]

_SEP = b"\x1f"
_ZERO_WORDS = (0, 0, 0, 0)


def _digest(base_seed, tags):
    h = hashlib.sha256()
    h.update(str(int(base_seed)).encode())
    for t in tags:
        h.update(_SEP)
        h.update(str(t).encode())
    return h.digest()


def derived_seed(base_seed, replicate):
    """The documented (base_seed, replicate) -> 64-bit seed function used
    for the per-record seed column."""
    d = _digest(base_seed, ("replicate", int(replicate)))
    return int.from_bytes(d[:8], "little")


def derived_seeds(base_seed, start, stop):
    """derived_seed(base_seed, r) for r in range(start, stop), in order.

    The digest prefix of base_seed and "replicate" is hashed once; each
    seed extends a copy of it by the replicate index."""
    prefix = hashlib.sha256(str(int(base_seed)).encode() + _SEP + b"replicate" + _SEP)
    for replicate in range(start, stop):
        h = prefix.copy()
        h.update(str(replicate).encode())
        yield int.from_bytes(h.digest()[:8], "little")


def _key(base_seed, tags):
    """The two 64-bit Philox key words of (base_seed, *tags): the first 16
    bytes of the digest, little-endian."""
    d = _digest(base_seed, tags)
    return int.from_bytes(d[:8], "little"), int.from_bytes(d[8:16], "little")


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two key words as its seed state.

    Philox(key=...) still seeds a SeedSequence from OS entropy before
    overwriting the key; seeding from this sequence skips that and leaves
    the same state: this key, a zero counter and an empty buffer."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 2 and dtype == np.uint64, (n_words, dtype)
        return self.words


def substream(base_seed, *tags):
    """A numpy Generator on a new Philox stream keyed by (base_seed, *tags)."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(_key(base_seed, tags))))


def restream(bit_generator, base_seed, *tags):
    """bit_generator, a Philox, set to the state substream(base_seed, *tags)
    starts in: that key, a zero counter, an empty buffer and no saved
    32-bit half.  The object is reused, not copied: what it returns is
    valid until the next call on the same bit generator."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _key(base_seed, tags)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return bit_generator
