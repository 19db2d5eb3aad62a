"""Deterministic random streams.

A stream is addressed by (seed, key) where key is a tuple of ints; it is
PCG64 seeded with numpy's SeedSequence(seed, spawn_key=key).  Distinct
keys give independent streams, so components can split randomness by
address instead of by draw order: consumers that draw from a child
stream never disturb the parent.  The addressing rule is part of the
reproducibility contract; summaries that promise byte-identical output
depend on it.
"""

from __future__ import annotations

import numpy as np

_TOP = 1 << 64
_M64 = _TOP - 1
_BUF = 4096


class Rng:
    """Buffered 64-bit generator with exact bounded sampling."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
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
        self._buf = self.np.integers(0, 1 << 64, size=_BUF,
                                     dtype=np.uint64).tolist()
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
