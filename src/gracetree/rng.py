"""Deterministic random streams.

A stream is addressed by (seed, key) where key is a tuple of ints; it is
PCG64 seeded with numpy's SeedSequence(seed, spawn_key=key).  Distinct
keys give independent streams, so components can split randomness by
address instead of by draw order: consumers that draw from a child
stream never disturb the parent.  The addressing rule is part of the
reproducibility contract; summaries that promise byte-identical output
depend on it.  A stream serves one purpose and is read one way: by
randbelow, by batches and offsets, or by draws and permutation, never
two of these (randbelow and batches read ahead, and draws spends part
of its last read).

Bounded draws come in three forms, all exact:

- randbelow(n): one Python call per draw, Lemire's multiply-and-reject
  on the stream's raw PCG64 words.
- batches(bound), offsets(bound) and draws(bound, count):
  mask-and-reject on the stream's raw PCG64 words.  With
  k = bit_length(bound - 1), a word x yields x & (2**k - 1) when that
  is below bound and nothing otherwise; the masked value is uniform on
  0..2**k - 1, so an accepted one is uniform on 0..bound - 1, and at
  least half the words are accepted.  The rule
  reads words one at a time in stream order, so a batch of any size
  gives the same values as word-by-word reads (tests/oracles.py keeps
  that reference).  batches and offsets are endless and read 4096 words
  at a time; draws returns a given number of values from one call,
  reading about as many words as they need (its read rule is in its
  docstring), for a consumer that draws a few values per bound.  The
  rule uses only numpy's raw word output, not Generator.integers'
  bounded algorithm, which numpy does not promise to keep stable
  across versions.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

_TOP = 1 << 64
_M64 = _TOP - 1
_BUF = 4096
_KEYS = 1 << 63  # the bound of permutation's sort keys


class Rng:
    """Buffered 64-bit generator with exact bounded sampling."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be non-negative")
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self.np = np.random.Generator(np.random.PCG64(ss))
        self._buf: list[int] = []
        self._pos = 0

    def child(self, *key: int) -> "Rng":
        """Independent stream at address key appended to this one's."""
        return Rng(self.seed, self.key + key)

    def next64(self) -> int:
        if self._pos >= len(self._buf):
            self._refill()
        w = self._buf[self._pos]
        self._pos += 1
        return w

    def _refill(self) -> None:
        self._buf = self.np.bit_generator.random_raw(_BUF).tolist()
        self._pos = 0

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), exactly (Lemire rejection).

        One call per draw: the first word is read inline, and the
        rejection threshold (2**64 - n) % n, which is below n, is
        computed only when the low word is below n.  n == 1 draws
        nothing.  n must lie in 1..2**64: a 64-bit word cannot cover a
        larger range, so ValueError is raised outside it, and the stream
        is left as it was.
        """
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError("randbelow needs n >= 1")
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        m = self._buf[pos] * n
        self._pos = pos + 1
        if m & _M64 < n:
            if n > _TOP:
                self._pos = pos
                raise ValueError("randbelow needs n <= 2**64")
            t = (_TOP - n) % n
            while m & _M64 < t:
                m = self.next64() * n
        return m >> 64

    def batches(self, bound: int) -> Iterator[np.ndarray]:
        """Endless iterator of uint64 arrays of draws uniform on
        0..bound - 1: each array holds the values that one batch of _BUF
        raw words yields under the mask-and-reject rule (see the module
        docstring), so their concatenation is the stream's sequence of
        bounded draws.  bound must lie in 1..2**63 (ValueError here, not
        at the first next())."""
        if not 1 <= bound <= 1 << 63:
            raise ValueError("batches needs 1 <= bound <= 2**63")
        return self._batches(np.uint64((1 << (bound - 1).bit_length()) - 1),
                             np.uint64(bound))

    def _batches(self, low: np.uint64, bound: np.uint64):
        raw = self.np.bit_generator.random_raw
        while True:
            x = raw(_BUF)
            x &= low
            yield x[x < bound]

    def offsets(self, bound: int) -> Iterator[int]:
        """Endless iterator of Python ints uniform on 0..bound - 1: the
        draws of batches(bound) one by one, so one draw costs one next()
        in C between refills."""
        return chain.from_iterable(map(np.ndarray.tolist,
                                       self.batches(bound)))

    def draws(self, bound: int, count: int) -> np.ndarray:
        """The next count draws uniform on 0..bound - 1, as an int64
        array, read in one call: the first count values that
        batches(bound) would give from this stream's position.  Read rule: with
        k = bit_length(bound - 1) and `need` values still to find, take
        need * 2**k // bound + 64 raw words (the expected need plus a
        margin), mask them and keep the accepted values; repeat while
        fewer than count are held.  Words read past the count-th
        accepted one are spent.  bound must lie in 1..2**63
        (ValueError)."""
        if not 1 <= bound <= 1 << 63:
            raise ValueError("draws needs 1 <= bound <= 2**63")
        span = 1 << (bound - 1).bit_length()
        raw = self.np.bit_generator.random_raw
        x = np.empty(0, np.uint64)
        while len(x) < count:
            w = raw((count - len(x)) * span // bound + 64) & (span - 1)
            x = np.concatenate((x, w[w < bound]))
        return x[:count].view(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of 0..n - 1, as an int64 array: the
        order that sorts n keys from one draws(2**63, n) read.  Distinct
        keys make every order equally likely and fix it whatever the
        sort; when two keys tie (probability below n**2 / 2**64), all n
        are drawn again from the next read."""
        while True:
            keys = self.draws(_KEYS, n)
            order = np.argsort(keys)
            if np.diff(keys[order]).all():
                return order
