"""Counter-based random streams.

Every stream is keyed by (base_seed, *tags): one SHA-256 over str(base_seed)
and each str(tag), joined by 0x1f, whose first 16 bytes are the two
little-endian Philox key words.  Philox is counter-based, so the key is all
of a new stream's state, and any replicate or sampling site can be
regenerated independently of execution order or worker count.

A block of replicates sets its streams up in bulk: derived_seeds gives its
seeds from one prefix digest, stream_keys their keys in one pass, and
rekey writes each key into one Philox through one state dict that the
block owns.  The module holds no mutable state, so threads may share it.
"""

from __future__ import annotations

import hashlib
import struct

from numpy.random import Generator, Philox

__all__ = ["substream", "restream", "rekey", "philox_state", "stream_keys",
           "derived_seed", "derived_seeds"]

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


def stream_keys(seeds, *tags):
    """[_key(seed, tags) for seed in seeds]: the tags are joined once and
    each key is one digest."""
    suffix = "".join(f"\x1f{tag}" for tag in tags)
    return [_KEY_WORDS.unpack_from(hashlib.sha256(f"{int(seed)}{suffix}".encode()).digest())
            for seed in seeds]


def derived_seed(base_seed, replicate):
    """The documented (base_seed, replicate) -> 64-bit seed function used
    for the per-record seed column: the first word of the key of
    (base_seed, "replicate", replicate)."""
    return _key(base_seed, ("replicate", int(replicate)))[0]


def derived_seeds(base_seed, start, stop):
    """[derived_seed(base_seed, r) for r in range(start, stop)].

    The digest prefix of base_seed and "replicate" is hashed once; each
    seed extends a copy of it by the replicate index."""
    prefix = hashlib.sha256(f"{int(base_seed)}\x1freplicate\x1f".encode())
    seeds = []
    for replicate in range(start, stop):
        h = prefix.copy()
        h.update(str(replicate).encode())
        seeds.append(_KEY_WORDS.unpack_from(h.digest())[0])
    return seeds


def substream(base_seed, *tags):
    """A numpy Generator on a new Philox stream keyed by (base_seed, *tags):
    restream on a Philox of its own."""
    return Generator(restream(Philox(0), base_seed, *tags))


def philox_state():
    """A Philox state dict at the start of a stream, for rekey: a zero
    counter, an empty buffer, no saved 32-bit half and a zero key."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (0, 0)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def rekey(bit_generator, state, key):
    """bit_generator, a Philox, set to the start of the stream of key
    through state, a philox_state dict that the caller owns and reuses:
    its key words become key, and the rest of it must stay as philox_state
    made it.  The Philox copies every word it reads, so the next call may
    overwrite the key at once."""
    state["state"]["key"] = key
    bit_generator.state = state
    return bit_generator


def restream(bit_generator, base_seed, *tags):
    """bit_generator, a Philox, set to the start of the stream keyed by
    (base_seed, *tags): that key, a zero counter, an empty buffer and no
    saved 32-bit half; rekey on a new philox_state.  The object is reused,
    not copied: what it returns is valid until the next call on the same
    bit generator."""
    return rekey(bit_generator, philox_state(), _key(base_seed, tags))
