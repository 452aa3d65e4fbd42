"""Counter-based random streams.

Every stream is keyed by (base_seed, *tags): one SHA-256 over str(base_seed)
and each str(tag), joined by 0x1f, whose first 16 bytes are the two
little-endian Philox key words.  Philox is counter-based, so the key is all
of a new stream's state, and any replicate or sampling site can be
regenerated independently of execution order or worker count.
"""

from __future__ import annotations

import hashlib
import struct

from numpy.random import Generator, Philox

__all__ = ["substream", "restream", "derived_seed", "derived_seeds"]

_ZERO_WORDS = (0, 0, 0, 0)
_KEY_WORDS = struct.Struct("<2Q")


def _key(base_seed, tags):
    """The key of (base_seed, *tags): the first two little-endian 64-bit
    words of SHA-256 over str(base_seed) and each str(tag), joined by 0x1f,
    hashed in one call."""
    text = str(int(base_seed))
    for tag in tags:
        text += f"\x1f{tag}"
    return _KEY_WORDS.unpack_from(hashlib.sha256(text.encode()).digest())


def derived_seed(base_seed, replicate):
    """The documented (base_seed, replicate) -> 64-bit seed function used
    for the per-record seed column: the first word of the key of
    (base_seed, "replicate", replicate)."""
    return _key(base_seed, ("replicate", int(replicate)))[0]


def derived_seeds(base_seed, start, stop):
    """derived_seed(base_seed, r) for r in range(start, stop), in order.

    The digest prefix of base_seed and "replicate" is hashed once; each
    seed extends a copy of it by the replicate index."""
    prefix = hashlib.sha256(f"{int(base_seed)}\x1freplicate\x1f".encode())
    for replicate in range(start, stop):
        h = prefix.copy()
        h.update(str(replicate).encode())
        yield _KEY_WORDS.unpack_from(h.digest())[0]


def substream(base_seed, *tags):
    """A numpy Generator on a new Philox stream keyed by (base_seed, *tags):
    restream on a Philox of its own."""
    return Generator(restream(Philox(0), base_seed, *tags))


def restream(bit_generator, base_seed, *tags):
    """bit_generator, a Philox, set to the start of the stream keyed by
    (base_seed, *tags): that key, a zero counter, an empty buffer and no
    saved 32-bit half.  The object is reused, not copied: what it returns is
    valid until the next call on the same bit generator."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _key(base_seed, tags)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return bit_generator
