"""Reference forms the library no longer carries, kept as test oracles.

admissible_labels works on explicit sets.  full_count_structure and
full_check_quasi are the audit as it stood on full-width ints (one int
per set, C's lower side read by reversing a string), before it read
the labeller's blocked state.  snapshot builds a LabelState holding
given sets.
"""

from fractions import Fraction

from gracetree.bitset import mask, select, window
from gracetree.intervals import IntervalSystem
from gracetree.labeller import LabelState
from gracetree.quasirandom import QuasiReport, x1, x2, x3, x4


def admissible_labels(a, interval, labels, diffs):
    """Values of interval still in labels whose distance to a is still
    in diffs."""
    ls = frozenset(labels)
    ds = frozenset(diffs)
    return frozenset(
        b
        for b in range(interval.lo, interval.hi + 1)
        if b in ls and abs(b - a) in ds
    )


def snapshot(A, C, nt=0, sys=None):
    """LabelState whose free labels are A and free differences C.

    Without sys the state lives on IntervalSystem(nt', 1, 1) with nt'
    the smallest even value >= max(nt, 4) that holds A in 1..nt' and C
    in 1..nt'-1; counts do not depend on m and ell.
    """
    A, C = set(A), set(C)
    if sys is None:
        nt = max(4, nt, max(A, default=0), max(C, default=0) + 1)
        sys = IntervalSystem(nt + nt % 2, 1, 1)
    state = LabelState(sys)
    nt = sys.n_tilde
    assert A <= set(range(1, nt + 1)) and C <= set(range(1, nt))
    for b in range(1, nt + 1):
        if b not in A:
            state.remove_label(b)
    for d in range(1, nt):
        if d not in C:
            state.remove_diff(d)
    return state


def _diff_window(a, iv, c_bits):
    """Window-local mask of labels b in iv with |b - a| in C.

    The b > a side is a plain shift of C; the b < a side reverses the
    relevant chunk of C (bit j of the result is C bit a - iv.lo - j).
    """
    lo, w = iv.lo, iv.width
    out = window(c_bits << a, lo, w)
    hi2 = a - lo
    if hi2 >= 1:
        lo2 = max(a - iv.hi, 0)
        w2 = hi2 - lo2 + 1
        chunk = window(c_bits, lo2, w2)
        if chunk:
            out |= int(format(chunk, f"0{w2}b")[::-1], 2)
    return out


def full_count_structure(X, a_bits, c_bits):
    """count_structure on full-width ints A and C."""
    c_bits &= ~1
    iv = X.slot
    avail = window(a_bits, iv.lo, iv.width)
    if X.kind == "X1":
        return avail.bit_count()
    hits = avail & _diff_window(X.a, iv, c_bits)
    if X.kind == "X3":
        return hits.bit_count()
    if X.kind == "X4":
        hits &= _diff_window(X.a2, iv, c_bits)
        twice_mid = X.a + X.a2
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits &= ~(1 << (twice_mid // 2 - iv.lo))
        return hits.bit_count()
    for b in (X.a - X.c, X.a + X.c):
        if iv.lo <= b <= iv.hi:
            hits &= ~(1 << (b - iv.lo))
    iv2 = X.slot2
    avail2 = window(a_bits, iv2.lo, iv2.width)
    anchored = hits << iv.lo
    up = window(anchored << X.c, iv2.lo, iv2.width) & avail2
    down = window(anchored >> X.c, iv2.lo, iv2.width) & avail2
    return up.bit_count() + down.bit_count()


def full_check_quasi(a_bits, c_bits, sys, alpha, per_kind, rng, t=0):
    """check_quasi on full-width ints, anchors drawn with a full-width
    select (the anchored-label loop of the old sample spec is left out:
    no caller used it)."""
    c_bits &= ~1
    m, nt = sys.m, sys.n_tilde
    size_a = a_bits.bit_count()
    size_c = c_bits.bit_count()

    worst = 0.0
    for ie in sys.ie_intervals:
        cnt = window(c_bits, ie.lo, m).bit_count()
        worst = max(worst, abs(cnt * nt - m * size_a) / (m * nt))

    amb_a = mask(1, nt)
    amb_c = mask(1, nt - 1)
    dens = Fraction(size_a, nt)
    devs = []

    def push(X):
        cnt = full_count_structure(X, a_bits, c_bits)
        amb = full_count_structure(X, amb_a, amb_c)
        devs.append(float(abs(Fraction(cnt) - amb * dens ** X.free) / m))

    def pick(bits, size):
        return select(bits, rng.randbelow(size))

    slots = sys.iv_intervals
    nslots = len(slots)

    def rand_slot():
        return slots[rng.randbelow(nslots)]

    def rand_slot_pair():
        i = rng.randbelow(nslots)
        j = rng.randbelow(nslots - 1)
        if j >= i:
            j += 1
        return slots[i], slots[j]

    if per_kind > 0 and size_a >= 2 and size_c >= 1 and nslots >= 2:
        for _ in range(per_kind):
            push(x1(rand_slot()))
        for _ in range(per_kind):
            anchor = pick(a_bits, size_a)
            fixed_c = pick(c_bits, size_c)
            s1, s2 = rand_slot_pair()
            push(x2(anchor, s1, fixed_c, s2))
        for _ in range(per_kind):
            push(x3(pick(a_bits, size_a), rand_slot()))
        for _ in range(per_kind):
            anchor = pick(a_bits, size_a)
            other = pick(a_bits ^ (1 << anchor), size_a - 1)
            push(x4(anchor, other, rand_slot()))

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=worst, quasi2_devs=tuple(devs))


def full_ints(state):
    """The state's A and C as full-width ints."""
    return state.labels.to_int(), state.diffs.to_int()
