"""Bitsets over nonnegative integers.

A finite set S of nonnegative integers is the int with bit i set iff i
is in S.  `BlockBits` stores such a set as a list of fixed-width block
ints.  Its window read touches only the blocks the window overlaps (a
window past its one- and two-block fast paths joins those blocks' bytes
once) and clearing a bit rewrites one block of the list, so per-step
work on a width-w window costs O(w/64) words regardless of the universe
size.  The pipeline keeps its label sets only as BlockBits; the
full-width forms the tests compare it against live in tests/oracles.py.

`select` on a width-w int costs O(w/1024) chunk popcounts over one
`to_bytes` of it, O(w/64) word popcounts inside the chosen chunk, and
six masked popcounts that bisect the chosen word.  The one-bit-at-a-time
select it replaced is kept as a test oracle (tests/oracles.py).
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_HALVES = tuple((h, (1 << h) - 1) for h in (32, 16, 8, 4, 2, 1))
BLOCK_BITS = 1024  # bits per block of a BlockBits
_SHIFT = BLOCK_BITS.bit_length() - 1
_LOW = BLOCK_BITS - 1
_BLOCK_BYTES = BLOCK_BITS // 8


def select(x: int, k: int) -> int:
    """Index of the k-th (0-based, ascending) set bit of x."""
    if k < 0:
        raise IndexError("negative rank")
    base = 0
    if x.bit_length() > BLOCK_BITS:  # find the chunk first
        raw = x.to_bytes(-(-x.bit_length() // 8), "little")
        for i in range(0, len(raw), _BLOCK_BYTES):
            chunk = int.from_bytes(raw[i:i + _BLOCK_BYTES], "little")
            c = chunk.bit_count()
            if k < c:
                x = chunk
                base = 8 * i
                break
            k -= c
        else:
            raise IndexError("rank beyond population")
    while True:  # then the word
        w = x & _M64
        c = w.bit_count()
        if k < c:
            break
        if not x:
            raise IndexError("rank beyond population")
        k -= c
        x >>= 64
        base += 64
    # then bisect the word: its low half holds the bit iff k < its count
    for half, low in _HALVES:
        c = (w & low).bit_count()
        if k >= c:
            k -= c
            w >>= half
            base += half
    return base


class BlockBits:
    """Mutable bitset as a list of BLOCK_BITS-wide block ints.

    Bit i lives in bit i % BLOCK_BITS of block i // BLOCK_BITS.  Bits at
    or beyond the last block (and at negative indices) read as zero.
    """

    __slots__ = ("blocks",)

    @classmethod
    def span(cls, lo: int, hi: int) -> "BlockBits":
        """Bits lo..hi set (0 <= lo <= hi), built block by block without
        building the full int."""
        full = (1 << BLOCK_BITS) - 1
        j, k = lo >> _SHIFT, hi >> _SHIFT
        bits = cls()
        blocks = [0] * j + [full] * (k - j + 1)
        blocks[j] &= full << (lo & _LOW)
        blocks[-1] &= full >> (_LOW - (hi & _LOW))
        bits.blocks = blocks
        return bits

    def window(self, lo: int, width: int) -> int:
        """Bits lo..lo+width-1, shifted down to 0..width-1; lo may be
        negative."""
        if lo < 0:
            if lo + width <= 0:
                return 0
            return self.window(0, lo + width) << -lo
        blocks = self.blocks
        j = lo >> _SHIFT
        off = lo & _LOW
        end = off + width
        if j >= len(blocks):
            return 0
        if end <= BLOCK_BITS:  # fast paths: one or two blocks
            return (blocks[j] >> off) & ((1 << width) - 1)
        if end <= 2 * BLOCK_BITS and j + 1 < len(blocks):
            x = blocks[j] | blocks[j + 1] << BLOCK_BITS
            return (x >> off) & ((1 << width) - 1)
        x = _join(blocks[j:j + 1 + ((end - 1) >> _SHIFT)])
        return (x >> off) & ((1 << width) - 1)


def block_bytes(blocks: list[int]) -> bytes:
    """The little-endian bytes of consecutive BLOCK_BITS-wide blocks."""
    return b"".join([b.to_bytes(_BLOCK_BYTES, "little") for b in blocks])


def _join(blocks: list[int]) -> int:
    """The int whose consecutive BLOCK_BITS-wide blocks are blocks."""
    return int.from_bytes(block_bytes(blocks), "little")
