"""Reference forms the library no longer carries, kept as test oracles.

old_parse_tree and old_tree are the text parser and the tree check as
they stood on edge tuples and adjacency tuples, before trees moved to
flat arrays; tree_texts draws tree files with the faults they name.
old_select is bitset.select as it stood, one set bit at a time inside
the word that holds the rank.  admissible_labels works on explicit
sets.  full_count_structure and full_check_quasi are the audit as it
stood on full-width ints (one int per set, C's lower side read by
reversing a string), before it read the labeller's blocked state.
snapshot builds a LabelState holding given sets, through remove_label
and remove_diff: checked removals that keep size_a and size_c, as
LabelState's methods did before the label loop kept those counts in
locals.  sample is CorrectionDistribution.sample, one draw of a
correction law by randbelow, as the label loop made it before it drew
each law for a whole attempt (CorrectionDistribution.hits).
mask_select_label and mask_select_pick are the label draw and the
correction pick as they stood, one whole-window mask and one select
per draw, before the draws tried single positions first; they are also
the draws' fallback.  OldRng is rng.Rng's stream as it stood, with
next64 called once per word of randbelow.  old_labelling_check and
old_verify_graceful are Labelling's construction check and
verify_graceful as exact walks over psi, before the numpy path.
word_draws is Rng.batches' mask-and-reject rule read one raw word at a
time, and scalar_labelling is run_labelling's loop as a scalar
transcription on explicit sets that reads every offset and law value
through word_draws, from the addresses run_labelling documents.
"""

import bisect
from fractions import Fraction

from hypothesis import strategies as st

from gracetree.bitset import mask, select, window
from gracetree.intervals import (IntervalSystem, core_distribution,
                                 corv_distribution)
from gracetree.labeller import (FAIL_CHOOSE, FAIL_CORE, FAIL_CORV, K,
                                AttemptFailure, LabelResult, LabelState,
                                TraceRow, take_diff, take_label)
from gracetree.rng import _BUF, Rng
from gracetree.verify import VerifyReport
from gracetree.quasirandom import QuasiReport, x1, x2, x3, x4
from gracetree.trees import prufer_decode


def old_select(x, k):
    """Index of the k-th (0-based, ascending) set bit of x."""
    if k < 0:
        raise IndexError("negative rank")
    base = 0
    while x:
        w = x & (1 << 64) - 1
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


def mask_select_label(state, a, iv, randbelow):
    """A uniform admissible label of iv against parent label a (a = 0:
    no parent), or -1: the whole window's mask, then select."""
    mask_bits = state.admissible_mask(a, iv) if a else state.first_mask(iv)
    cnt = mask_bits.bit_count()
    if not cnt:
        return -1
    return iv.lo + select(mask_bits, randbelow(cnt))


def mask_select_pick(bits, lo, w, randbelow):
    """A uniform set bit of bits in lo..lo+w-1, or -1: the window, then
    select."""
    mask_bits = bits.window(lo, w)
    cnt = mask_bits.bit_count()
    if not cnt:
        return -1
    return lo + select(mask_bits, randbelow(cnt))


def remove_label(state, b):
    take_label(state.labels.blocks, b)
    state.size_a -= 1


def remove_diff(state, d):
    take_diff(state.diffs.blocks, state.diffs_rev.blocks, d,
              state.sys.n_tilde)
    state.size_c -= 1


def sample(dist, rng):
    """One draw of a CorrectionDistribution: an interval or None."""
    u = rng.randbelow(dist.den)
    if u < dist._star_cut:
        return None
    return dist._positive[bisect.bisect_right(dist._cuts, u)]


_M64 = (1 << 64) - 1


class OldRng(Rng):
    """Rng with randbelow as two calls per word and the threshold
    computed on every draw."""

    def next64(self):
        if self._pos >= len(self._buf):
            self._buf = self.np.integers(0, 1 << 64, size=_BUF,
                                         dtype="uint64").tolist()
            self._pos = 0
        w = self._buf[self._pos]
        self._pos += 1
        return w

    def randbelow(self, n):
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        t = ((1 << 64) - n) % n
        while True:
            m = self.next64() * n
            if (m & _M64) >= t:
                return m >> 64


def word_draws(rng, bound):
    """Uniform draws on 0..bound - 1 from rng's raw words, one word at a
    time: word x gives x & (2**k - 1), k = bit_length(bound - 1), when
    that is below bound."""
    low = (1 << (bound - 1).bit_length()) - 1
    raw = rng.np.bit_generator.random_raw
    while True:
        x = int(raw()) & low
        if x < bound:
            yield x


def _law_draw(dist, u):
    """lo of the interval that law value u picks, or -1 for the null
    outcome."""
    if u < dist._star_cut:
        return -1
    return dist._positive[bisect.bisect_right(dist._cuts, u)].lo


def _uniform_member(lo, w, ok, offsets, rank, tries):
    """lo + offset for the first of tries offsets whose value passes ok,
    else a rank-drawn one of the passing values in lo..lo+w-1, or -1."""
    for _ in range(tries):
        x = lo + next(offsets)
        if ok(x):
            return x
    cands = [x for x in range(lo, lo + w) if ok(x)]
    return cands[rank(len(cands))] if cands else -1


def scalar_labelling(plan, sys, rng, max_retries=0, replan=None, tries=K):
    """run_labelling(..., collect_trace=True) as a scalar loop on sets A
    and C: each try offset and law value is one word_draws value, each
    step reads one value of both laws, and a fallback ranks the sorted
    candidates with randbelow."""
    corv, core = corv_distribution(sys), core_distribution(sys)
    nt, m = sys.n_tilde, sys.m
    failures = []
    for k in range(max_retries + 1):
        s = rng.child(k)
        if k and replan is not None:
            plan = replan(s.child(0))
        r = s.child(1)
        label_offsets = word_draws(r.child(0), sys.ell)
        pick_offsets = word_draws(r.child(1), m)
        corv_draws = word_draws(r.child(2), corv.den)
        core_draws = word_draws(r.child(3), core.den)
        rank = r.child(4).randbelow
        A, C = set(range(1, nt + 1)), set(range(1, nt))
        labels, trace = [], []
        steps = corv_hits = core_hits = 0
        failure = None
        for pos, vertex in enumerate(plan.order):
            t = pos + 1
            a = labels[plan.parent_pos[pos]] if pos else None
            iv = plan.interval_of[pos]
            b = _uniform_member(
                iv.lo, iv.width,
                lambda x: x in A and (a is None or abs(x - a) in C),
                label_offsets, rank, tries)
            if b < 0:
                failure = AttemptFailure(FAIL_CHOOSE, t)
                break
            A.remove(b)
            labels.append(b)
            edge = -1 if a is None else abs(b - a)
            C.discard(edge)
            picked = []
            for law, draws, free, site in ((corv, corv_draws, A, FAIL_CORV),
                                           (core, core_draws, C, FAIL_CORE)):
                lo = _law_draw(law, next(draws))
                x = -1
                if lo >= 0:
                    x = _uniform_member(lo, m, free.__contains__,
                                        pick_offsets, rank, tries)
                    if x < 0:
                        failure = AttemptFailure(site, t)
                        break
                    free.remove(x)
                picked.append(x)
            if failure is not None:
                break
            corv_label, core_diff = picked
            steps = t
            corv_hits += corv_label >= 0
            core_hits += core_diff >= 0
            trace.append(TraceRow(t, vertex, b, edge, corv_label, core_diff,
                                  len(A), len(C)))
        if failure is None:
            break
        failures.append(failure)
    return LabelResult(
        success=failure is None,
        psi=None if failure else dict(zip(plan.order, labels)),
        plan=plan, attempts=k + 1, failures=tuple(failures),
        trace=tuple(trace), steps=steps, corv_hits=corv_hits,
        core_hits=core_hits)


def old_labelling_check(tree, psi, m):
    """Labelling.__post_init__ as a walk: None, or the ValueError text."""
    if m < 1:
        return f"label bound m = {m} must be positive"
    missing = [v for v in range(1, tree.n + 1) if v not in psi]
    if missing:
        return f"psi is not total, missing vertices {missing}"
    bad = {v: b for v, b in psi.items() if not 1 <= b <= m}
    if bad:
        return f"labels outside 1..{m}: {bad}"
    return None


def old_verify_graceful(lab):
    """verify_graceful as a walk over vertices, then edges."""
    seen = {}
    for v in range(1, lab.tree.n + 1):
        b = lab.psi[v]
        if b in seen:
            return VerifyReport(False, "vertex-label collision",
                                (seen[b], v, b))
        seen[b] = v
    seen = {}
    for e in lab.tree.edges:
        d = abs(lab.psi[e[0]] - lab.psi[e[1]])
        if d in seen:
            return VerifyReport(False, "edge-label collision", (seen[d], e, d))
        seen[d] = e
    return VerifyReport(True, "graceful")


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
            remove_label(state, b)
    for d in range(1, nt):
        if d not in C:
            remove_diff(state, d)
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
    """check_quasi on full-width ints: QUASI1 one window read at a time
    (its argmax the first window of largest integer deviation), each
    pattern counted on A, C and the full sets, deviations in Fraction
    arithmetic, anchors drawn with a full-width select (the
    anchored-label loop of the old sample spec is left out: no caller
    used it)."""
    c_bits &= ~1
    m, nt = sys.m, sys.n_tilde
    size_a = a_bits.bit_count()
    size_c = c_bits.bit_count()

    worst, top, worst_lo = 0.0, -1, 0
    for ie in sys.ie_intervals:
        cnt = window(c_bits, ie.lo, m).bit_count()
        worst = max(worst, abs(cnt * nt - m * size_a) / (m * nt))
        if abs(cnt * nt - m * size_a) > top:  # the first window on ties
            top, worst_lo = abs(cnt * nt - m * size_a), ie.lo

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
                       quasi1_max_dev=worst, quasi1_argmax_lo=worst_lo,
                       quasi2_devs=tuple(devs))


def full_ints(state):
    """The state's A and C as full-width ints."""
    return state.labels.to_int(), state.diffs.to_int()


def old_tree(n, edges):
    """(n, normalized edges, adjacency tuples) of a valid tree, or the
    ValueError the tuple-based Tree raised."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    norm = []
    seen = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"parallel edge {e}")
        seen.add(e)
        norm.append(e)
    if len(norm) != n - 1:
        raise ValueError(
            f"tree on {n} vertices needs {n-1} edges, got {len(norm)}")
    adj = [[] for _ in range(n + 1)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    reached = 1
    mark = bytearray(n + 1)
    mark[1] = 1
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not mark[y]:
                mark[y] = 1
                reached += 1
                stack.append(y)
    if reached != n:
        raise ValueError("edge set is not connected")
    return n, tuple(norm), tuple(tuple(a) for a in adj)


def old_parse_tree(text):
    """Strict text format as the tuple-based parser read it."""
    raw = [ln.strip() for ln in text.splitlines()]
    while raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise ValueError("empty tree text")
    try:
        n = int(raw[0])
    except ValueError:
        raise ValueError(
            f"first line must be the vertex count, got {raw[0]!r}") from None
    if len(raw) - 1 != max(n - 1, 0):
        raise ValueError(f"expected {n-1} edge lines, got {len(raw)-1}")
    edges = []
    for ln in raw[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return old_tree(n, edges)


# odd tokens: out of range, signs, digit separators, non-ASCII digits
# (Arabic-Indic three, fullwidth two), and tokens int() rejects
ODD_TOKENS = ("0", "-1", "+2", "1_0", "\u0663", "\uff12", "2.0", "x",
              "9" * 40)
# whitespace that str.strip() removes; \x0b and \x1c also end a line
ODD_SPACE = (" ", "\t", "\xa0", "\u2003", "\x0b", "\x1c", "\x1f")
TREE_TEXT_EDITS = ("drop", "dup", "swap", "token", "loop", "parallel",
                   "third", "blank", "space")


@st.composite
def tree_texts(draw, max_n=9):
    """A tree file on up to max_n vertices, then up to three edits:
    dropped, duplicated or swapped lines, an odd token, a self-loop or a
    parallel edge in place of a line, a third token, a blank line, or
    stray whitespace; lines end in \\n or \\r\\n, and blank lines may
    trail."""
    n = draw(st.integers(1, max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=max(n - 2, 0),
                        max_size=max(n - 2, 0)))
    edges = list(prufer_decode(seq, n).edges) if n > 1 else []
    lines = [str(n)] + [f"{u} {v}" if draw(st.booleans()) else f"{v} {u}"
                        for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        edit = draw(st.sampled_from(TREE_TEXT_EDITS))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            toks = lines[i].split() or [""]
            k = draw(st.integers(0, len(toks) - 1))
            toks[k] = draw(st.sampled_from(
                ODD_TOKENS + (str(n + 1), str(draw(st.integers(1, n))))))
            lines[i] = " ".join(toks)
        elif edit == "loop":
            u = draw(st.integers(1, n))
            lines[i] = f"{u} {u}"
        elif edit == "parallel":
            lines[j] = " ".join(reversed(lines[i].split()))
        elif edit == "third":
            lines[i] += " " + draw(st.sampled_from(("3", "x")))
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(("", "  ", "\t"))))
        else:
            space = draw(st.sampled_from(ODD_SPACE))
            lines[i] = (space + lines[i] if draw(st.booleans())
                        else lines[i] + space)
    end = draw(st.sampled_from(("\n", "\r\n")))
    tail = draw(st.sampled_from(("", end, end * 2, " \n\t\n")))
    return end.join(lines) + tail
