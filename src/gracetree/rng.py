"""Deterministic random streams.

A stream is addressed by (seed, key) where key is a tuple of ints; it is
PCG64 seeded with numpy's SeedSequence(seed, spawn_key=key).  Distinct
keys give independent streams, so components can split randomness by
address instead of by draw order: consumers that draw from a child
stream never disturb the parent.  The addressing rule is part of the
reproducibility contract; summaries that promise byte-identical output
depend on it.

Every bounded draw is read by one rule, draws(bound, count):
mask-and-reject on the stream's raw PCG64 words.  With
k = bit_length(bound - 1), a word x yields x & (2**k - 1) when that is
below bound and nothing otherwise; the masked value is uniform on
0..2**k - 1, so an accepted one is uniform on 0..bound - 1, and at
least half the words are accepted.  A call reads about as many words as
it needs and spends the rest of its last read (its docstring gives the
rule; tests/oracles.py keeps it one word at a time).  offsets is an
endless iterator over successive draws blocks, and permutation sorts
the keys of one draws read.  The rule uses only numpy's raw word
output, not Generator.integers' bounded algorithm, which numpy does not
promise to keep stable across versions.

chunks reads a long array as offsets reads its blocks, one tolist of
_BUF entries at a time, so that a caller walks it as Python ints
without a list of the whole array.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator

import numpy as np

_BUF = 4096  # the values of one offsets block, the entries of one chunk
_KEYS = 1 << 63  # the bound of permutation's sort keys


def chunks(a, start: int = 0) -> Iterator[list]:
    """a[start:] as lists of Python ints, _BUF entries each (the last
    may be shorter); a is a numpy array or a memoryview.  Flatten with
    chain.from_iterable to walk the entries one by one."""
    return (a[i:i + _BUF].tolist() for i in range(start, len(a), _BUF))


def _check(bound: int) -> None:
    if not 1 <= bound <= 1 << 63:
        raise ValueError("a bounded draw needs 1 <= bound <= 2**63")


class Rng:
    """One addressed stream, read by exact bounded draws."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be non-negative")
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self.np = np.random.Generator(np.random.PCG64(ss))

    def child(self, *key: int) -> "Rng":
        """Independent stream at address key appended to this one's."""
        return Rng(self.seed, self.key + key)

    def draws(self, bound: int, count: int) -> np.ndarray:
        """The next count draws uniform on 0..bound - 1, as an int64
        array, read in one call.  Read rule: with
        k = bit_length(bound - 1) and `need` values still to find, take
        need * 2**k // bound + 64 raw words (the expected need plus a
        margin), mask them and keep the accepted values; repeat while
        fewer than count are held.  Words read past the count-th
        accepted one are spent.  bound must lie in 1..2**63
        (ValueError)."""
        _check(bound)
        span = 1 << (bound - 1).bit_length()
        raw = self.np.bit_generator.random_raw
        x = np.empty(0, np.uint64)
        while len(x) < count:
            w = raw((count - len(x)) * span // bound + 64) & (span - 1)
            w = w[w < bound]
            x = np.concatenate((x, w)) if len(x) else w
        return x[:count].view(np.int64)

    def offsets(self, bound: int) -> Iterator[int]:
        """Endless iterator of Python ints uniform on 0..bound - 1: the
        values of successive draws(bound, _BUF) blocks one by one, so
        one draw costs one next() in C between blocks.  bound is checked
        here, not at the first next()."""
        _check(bound)
        return chain.from_iterable(map(np.ndarray.tolist, map(
            self.draws, repeat(bound), repeat(_BUF))))

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
