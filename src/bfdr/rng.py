"""Deterministic substream seeding.

Every stochastic component in this package draws from a counter-based
generator (Philox) keyed by a stable hash of a base seed plus a tuple of
tags (a test id, a gene index, a purpose label). Two properties follow:

* the stream for a given (seed, tags) is identical across runs, platforms,
  and process/thread layouts, because the key depends only on the values;
* distinct tags give statistically independent streams, so work can be
  farmed out per test or per gene in any order without changing results.

A loop over many indexed streams re-keys one generator (:func:`substreams`)
instead of building one per index: a Philox stream is fixed by its key and
counter, so setting both gives the same draws as a fresh generator.
"""
from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterator

import numpy as np

__all__ = ["substream", "substreams", "derive_seed"]


def _key(seed: int, *tags: object) -> bytes:
    """The SHA-256 digest of repr((seed, *tags)): the source of every key and derived seed."""
    return hashlib.sha256(repr((int(seed),) + tags).encode("utf-8")).digest()


def derive_seed(seed: int, *tags: object) -> int:
    """A 63-bit integer seed derived stably from (seed, *tags).

    Used to give each replicate or study arm its own base seed without
    the caller inventing ad hoc offsets that might collide.
    """
    return int.from_bytes(_key(seed, *tags)[16:24], "little") >> 1


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return a generator keyed by a stable hash of (seed, *tags).

    Tags may be ints or strings (anything with a stable repr). The 128-bit
    Philox key is the truncated SHA-256 of the repr, so changing any tag or
    the seed yields an unrelated stream.
    """
    key = int.from_bytes(_key(seed, *tags)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, *tags: object, count: int, start: int = 0) -> Iterator[np.random.Generator]:
    """Yield ``substream(seed, *tags, i)`` for i in range(start, start + count), as one re-keyed generator.

    Each yielded generator gives the same draws as ``substream(seed, *tags,
    i)``, but it is the same object every time: the next step re-keys it,
    so a caller must finish with stream i before asking for stream i + 1.
    Re-keying goes through the bit generator's ``state`` setter with the
    counter at zero and the output buffer, the cached 32-bit half and its
    flag all cleared, which is the state of a freshly keyed Philox. That
    skips building a Philox and its ``SeedSequence`` per index. The keys
    are :func:`_key`'s: the repr of (seed, *tags, i) is the repr of
    (seed, *tags, 0) up to its last two characters, then ``f"{i})"``, so
    that shared prefix is hashed once and each step hashes only its own end.
    """
    prefix = hashlib.sha256(repr((int(seed),) + tags + (0,))[:-2].encode("utf-8"))
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zeros = (0, 0, 0, 0)
    inner = {"counter": zeros, "key": None}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(start, start + count):
        h = prefix.copy()
        h.update(b"%d)" % i)
        inner["key"] = struct.unpack_from("<2Q", h.digest())
        bit_generator.state = state
        yield rng
