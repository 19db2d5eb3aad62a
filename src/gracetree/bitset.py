"""Bitsets over nonnegative integers.

A finite set S of nonnegative integers is stored as the int with bit i
set iff i is in S.  On such a full-width int, `window` shifts the whole
int, so it costs O(N/64) words for a universe of size N however narrow
the window is.

`BlockBits` stores the same set as a list of fixed-width block ints.
Its window read touches only the blocks the window overlaps and its
checked removal rewrites one block, so per-step work on a width-w
window costs O(w/64) words regardless of the universe size.  The
pipeline keeps its label sets only as BlockBits; `mask`, `window`,
`from_indices`, `iter_bits` and `BlockBits.to_int` on full-width ints
are the reference forms the tests compare against, and `select` is
applied to single windows and blocks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

_M64 = (1 << 64) - 1


def mask(lo: int, hi: int) -> int:
    """Bits lo..hi inclusive."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def window(x: int, lo: int, width: int) -> int:
    """Bits lo..lo+width-1 of x, shifted down to 0..width-1."""
    return (x >> lo) & ((1 << width) - 1)


def from_indices(idx: Iterable[int]) -> int:
    s = 0
    for i in idx:
        s |= 1 << i
    return s


def iter_bits(x: int) -> Iterator[int]:
    """Set-bit indices of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def select(x: int, k: int) -> int:
    """Index of the k-th (0-based, ascending) set bit of x."""
    if k < 0:
        raise IndexError("negative rank")
    base = 0
    while x:
        w = x & _M64
        c = w.bit_count()
        if k < c:
            while True:
                low = w & -w
                if k == 0:
                    return base + low.bit_length() - 1
                w ^= low
                k -= 1
        k -= c
        x >>= 64
        base += 64
    raise IndexError("rank beyond population")


BLOCK_BITS = 1024  # bits per block of a BlockBits
_SHIFT = BLOCK_BITS.bit_length() - 1
_LOW = BLOCK_BITS - 1
_BLOCK_BYTES = BLOCK_BITS // 8


class BlockBits:
    """Mutable bitset as a list of BLOCK_BITS-wide block ints.

    Bit i lives in bit i % BLOCK_BITS of block i // BLOCK_BITS.  Bits at
    or beyond the last block (and at negative indices) read as zero.
    """

    __slots__ = ("blocks",)

    def __init__(self, x: int):
        nbytes = -(-max(x.bit_length(), 1) // BLOCK_BITS) * _BLOCK_BYTES
        raw = x.to_bytes(nbytes, "little")
        self.blocks = [int.from_bytes(raw[i:i + _BLOCK_BYTES], "little")
                       for i in range(0, nbytes, _BLOCK_BYTES)]

    @classmethod
    def span(cls, lo: int, hi: int) -> "BlockBits":
        """Bits lo..hi set (0 <= lo <= hi), built block by block: the
        same blocks as BlockBits(mask(lo, hi)) without the full int."""
        full = (1 << BLOCK_BITS) - 1
        j, k = lo >> _SHIFT, hi >> _SHIFT
        bits = cls.__new__(cls)
        blocks = [0] * j + [full] * (k - j + 1)
        blocks[j] &= full << (lo & _LOW)
        blocks[-1] &= full >> (_LOW - (hi & _LOW))
        bits.blocks = blocks
        return bits

    def window(self, lo: int, width: int) -> int:
        """Bits lo..lo+width-1, shifted down to 0..width-1; lo may be
        negative."""
        off = lo & _LOW
        end = off + width
        blocks = self.blocks
        if lo >= 0:  # fast paths: the window spans one or two blocks
            j = lo >> _SHIFT
            try:
                if end <= BLOCK_BITS:
                    return (blocks[j] >> off) & ((1 << width) - 1)
                if end <= 2 * BLOCK_BITS:
                    x = blocks[j] | blocks[j + 1] << BLOCK_BITS
                    return (x >> off) & ((1 << width) - 1)
            except IndexError:
                pass
        elif lo + width <= 0:
            return 0
        else:
            return self.window(0, lo + width) << -lo
        j = lo >> _SHIFT
        x = 0
        shift = 0
        for k in range(j, min(len(blocks), j + 1 + ((end - 1) >> _SHIFT))):
            x |= blocks[k] << shift
            shift += BLOCK_BITS
        return (x >> off) & ((1 << width) - 1)

    def remove(self, i: int) -> None:
        """Clear bit i; KeyError if it is not set."""
        if i < 0:
            raise KeyError(i)
        j = i >> _SHIFT
        bit = 1 << (i & _LOW)
        try:
            blk = self.blocks[j]
        except IndexError:
            raise KeyError(i) from None
        if not blk & bit:
            raise KeyError(i)
        self.blocks[j] = blk ^ bit

    def to_int(self) -> int:
        return int.from_bytes(
            b"".join(b.to_bytes(_BLOCK_BYTES, "little") for b in self.blocks),
            "little")
