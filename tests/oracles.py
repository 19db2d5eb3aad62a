"""Reference forms the library no longer carries, kept as test oracles.

old_parse_tree and old_tree are the text parser and the tree check as
they stood on edge tuples and adjacency tuples, before trees moved to
flat arrays; tree_texts draws tree files with the faults they name.
select is the full-width select the library carried (bitset.select,
chunk by chunk, word by word, then a bisection of the word), before
the label state moved to one byte per value; old_select is the select
before it, one set bit at a time inside the word that holds the rank.
admissible_labels works on explicit sets.  full_count_structure and
full_check_quasi are the audit as it stood on full-width ints (one int
per set, C's lower side read by reversing a string), before it read
the labeller's own state.
snapshot builds a LabelState holding given sets, through remove_label
and remove_diff, which clear one byte each and check that it was free;
the state keeps no sizes, so the bytes are all there is.
history_states, history_state and trace_state rebuild an attempt's
label state after t steps, one removal at a time, from its
AttemptHistory and from its trace rows: the states the audit read at
its checkpoints while it ran inside the label loop.  sample is
CorrectionDistribution.sample, one draw of a correction law by
randbelow, as the label loop made it before it drew each law for a
whole attempt (CorrectionDistribution.hits).
mask_select_label and mask_select_pick are the label draw and the
correction pick as they stood, one whole-window mask and one select
per draw, before the draws tried single positions first; they are also
the draws' fallback.  draw_label is the label draw as a function, as
LabelState carried it before the label loop took it inline: the
reference draw whose law the tests check.  OldRng is an addressed
stream read by randbelow as rng.Rng read it until every library draw
moved to Rng.draws: Lemire's multiply-and-reject on the raw PCG64
words, the same values; tests draw their inputs from it, so the inputs
stay as they were.  old_labelling_check and old_verify_graceful are
Labelling's construction check and verify_graceful as exact walks over
psi, before the numpy path.
word_draws is Rng.draws' read rule one raw word at a time, the words it
spends included; word_offsets and law_values read Rng.offsets' and
CorrectionDistribution.hits' blocks through it.  scalar_labelling is
run_labelling's loop as a scalar transcription on explicit sets that
reads every offset, law value and fallback rank through word_draws,
from the addresses run_labelling documents.
mask, window, from_indices and iter_bits are the full-width bitset
forms (one int per set; window shifts the whole int) that the byte
state is checked against, and to_int turns a byte set (byte v is 1 iff
v is in it) into such an int.  interval_width counts an interval's
values, and contains tells whether one interval lies inside another.
x1..x4 build the audit's patterns as the field tuples pattern_count
takes.  pattern_count and pattern_ambient are the audit's count and
ambient closed form one pattern at a time, as quasirandom carried them
before it counted each kind's patterns together (_counts, _ambients);
they are the reference those array counts are checked against.
neighbours reads a vertex's neighbours off a tree's edges, through
the CSR adjacency (sorted_csr) that Tree kept until only tests read
it.  prufer_decode and prufer_encode are the Prüfer bijection between
trees on 1..n and sequences of n - 2 labels: the tests enumerate trees
by code, and trees.random_tree decoded a uniform code until it took
the first-entrance tree of a random walk.  plan_to_json is the plan text
that the golden plan digests hash; plan_intervals gives a plan's
target interval per position.  permutation is Rng.permutation's rule
read by Python sorted() on the keys as Python ints.
old_assign_intervals is prepare.assign_intervals as one Python pass
over the ordering, before it became array passes: the same draws (by
permutation) and orientations, returned as one Interval per position.
old_order_vertices is prepare.order_vertices by its first rule, a
stable argsort of each BFS rank's component head rank (found here by
one pass down the BFS), before the sort key became the component's
number in the narrowest unsigned type.
old_format_tree and old_labelling_to_json are the two text writers as
they built their output, one Python string or int per edge or label,
before they wrote it chunk by chunk: the bytes the writers must keep.
"""

import bisect
import heapq
import io
import json
import numbers
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

import gracetree.labeller as labeller
from gracetree.intervals import (Interval, IntervalSystem,
                                 core_distribution, corv_distribution)
from gracetree.labeller import (FAIL_CHOOSE, FAIL_CORE, FAIL_CORV, K,
                                AttemptFailure, LabelResult, LabelState,
                                TraceRow, _rank_draw, take)
from gracetree.rng import _BUF
from gracetree.verify import VerifyReport
from gracetree.quasirandom import _FREE, QuasiReport
from gracetree.trees import Tree


def mask(lo: int, hi: int) -> int:
    """Bits lo..hi inclusive."""
    return ((1 << (hi - lo + 1)) - 1) << lo


def window(x: int, lo: int, width: int) -> int:
    """Bits lo..lo+width-1 of x, shifted down to 0..width-1."""
    return (x >> lo) & ((1 << width) - 1)


def from_indices(idx):
    s = 0
    for i in idx:
        s |= 1 << i
    return s


def iter_bits(x: int):
    """Set-bit indices of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def to_int(free) -> int:
    """The full-width int of a byte set: a bytearray or a uint8 or bool
    array whose byte v is 1 iff v is in the set."""
    packed = np.packbits(np.frombuffer(free, np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def interval_width(iv) -> int:
    """The number of values in interval iv."""
    return iv.hi - iv.lo + 1


def contains(outer, inner) -> bool:
    """Whether interval inner lies inside interval outer."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def x1(slot):
    return ("X1", None, None, None, slot, None)


def x2(a, slot, c, slot2):
    return ("X2", a, None, c, slot, slot2)


def x3(a, slot):
    return ("X3", a, None, None, slot, None)


def x4(a, a2, slot):
    return ("X4", a, a2, None, slot, None)


def sorted_csr(n, ends):
    """off and nbr of the CSR adjacency of the edges whose flat ends are
    the int array ends (u0, v0, u1, v1, ...), rows in increasing id."""
    other = ends.reshape(-1, 2)[:, ::-1].ravel()
    off = np.zeros(n + 2, np.intc)
    np.cumsum(np.bincount(ends, minlength=n + 1), out=off[1:])
    return off, other[np.lexsort((other, ends))]


# the tree neighbours last read, and its read-only CSR (off as a list)
_csr = [None, None, None]


def neighbours(t, v):
    """v's neighbours in t, in increasing id, as a read-only int view;
    the CSR is built once per tree and kept until another is read."""
    if _csr[0] is not t:
        off, nbr = sorted_csr(t.n, np.frombuffer(t.edges.ends, np.intc))
        _csr[:] = t, off.tolist(), memoryview(nbr.tobytes()).cast("i")
    _, off, nbr = _csr
    return nbr[off[v]:off[v + 1]]


def prufer_encode(t):
    """Prüfer sequence of t: repeatedly strip the smallest leaf."""
    n = t.n
    if n < 2:
        raise ValueError("prufer_encode needs n >= 2")
    deg = [0] + t.degrees().tolist()
    dead = bytearray(n + 1)
    heap = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(heap)
        dead[leaf] = 1
        nb = next(u for u in neighbours(t, leaf) if not dead[u])
        seq.append(nb)
        deg[nb] -= 1
        if deg[nb] == 1:
            heapq.heappush(heap, nb)
    return seq


def prufer_decode(seq, n: int):
    """Unique tree on 1..n with Prüfer sequence seq (length n-2)."""
    if n < 2:
        raise ValueError("prufer_decode needs n >= 2")
    seq = list(seq)
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be {n-2}, got {len(seq)}")
    deg = [1] * (n + 1)
    for s in seq:
        if not (1 <= s <= n):
            raise ValueError(f"sequence entry {s} out of range 1..{n}")
        deg[s] += 1
    us = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        us.append(leaf)
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    us.append(leaf)
    return Tree._of(n, us, seq + [n])


def plan_to_json(plan, ell) -> str:
    """The plan's text; ell is the width of its target intervals."""
    return json.dumps(
        {
            "order": plan.order.tolist(),
            "parent_pos": plan.parent_pos.tolist(),
            "removed_edges": sorted(list(e) for e in plan.removed_edges),
            "interval_starts": plan.lo.tolist(),
            "interval_width": ell if len(plan.order) else 0,
        },
        indent=2,
    )


def plan_intervals(plan, sys):
    """The target interval of each position of plan."""
    return [Interval(lo, lo + sys.ell - 1) for lo in plan.lo.tolist()]


def old_order_vertices(t, removed):
    """order_vertices as a stable argsort of the head ranks: (order,
    parent_pos) as int arrays."""
    bfs = np.frombuffer(t.bfs, np.intc)
    parent = np.frombuffer(t.parent, np.intc).tolist()
    rank = {v: k for k, v in enumerate(bfs.tolist())}
    heads = set()
    for u, v in removed:
        if u in rank and v in rank:
            a, b = rank[u], rank[v]
            if parent[a] == b:
                heads.add(a)
            elif parent[b] == a:
                heads.add(b)
    first = [0] * t.n
    for k in range(1, t.n):
        first[k] = k if k in heads else first[parent[k]]
    perm = np.argsort(np.array(first, np.intp), kind="stable")
    pos = np.empty(t.n, np.intp)
    pos[perm] = np.arange(t.n)
    parent_pos = np.array(parent, np.intp)[perm]
    parent_pos[1:] = pos[parent_pos[1:]]
    return bfs[perm], parent_pos


def permutation(rng, n):
    """Rng.permutation(n) as a list: the indices of n keys from one
    rng.draws(2**63, n) read in increasing key order, read again while
    two keys tie."""
    while True:
        keys = rng.draws(1 << 63, n).tolist()
        if len(set(keys)) == n:
            return sorted(range(n), key=keys.__getitem__)


def old_assign_intervals(removed, ordering, sys, rng):
    """assign_intervals as one Python pass over the ordering; returns
    the target interval of each position."""
    order, parent_pos = ordering
    n = len(order)
    if not (isinstance(removed, frozenset) and all(u < v for u, v in removed)):
        removed = frozenset((u, v) if u < v else (v, u) for u, v in removed)

    # flag the positions whose parent edge is removed: of an edge's two
    # endpoints, the later one in the order is the child
    pos = [0] * (n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    cut = bytearray(n)
    for u, v in removed:
        if 1 <= u and v <= n:
            i, j = pos[u], pos[v]
            if i < j:
                i, j = j, i
            if parent_pos[i] == j:
                cut[i] = 1

    # one pass over the order: a component starts at the root and behind
    # every removed parent edge; everyone else joins the parent's
    # component with the opposite parity
    comp = [0] * n  # by position, numbered by first appearance
    parity = bytearray(n)
    starts = []  # position where each component starts
    for i in range(n):
        pp = parent_pos[i]
        if pp >= 0:
            parity[i] = parity[pp] ^ 1
            if not cut[i]:
                comp[i] = comp[pp]
                continue
        comp[i] = len(starts)
        starts.append(i)
    n_comp = len(starts)
    js = sys.j_intervals
    q, r = divmod(n_comp, len(js))
    pool = list(range(len(js))) * q + permutation(rng, len(js))[:r]
    picks = [pool[i] for i in permutation(rng, n_comp)]
    # the intervals of the components' two sides, as two flat lists: a
    # pair per component would put one tuple per component on the heap
    partner = [sys.complement(j) for j in js]
    sides = ([js[i] for i in picks], [partner[i] for i in picks])

    nt = sys.n_tilde
    ell = sys.ell
    flip = [0] * n_comp
    for k, i in enumerate(starts):
        pp = parent_pos[i]
        if pp < 0:
            continue
        c = comp[pp]
        p_iv = sides[parity[pp] ^ flip[c]][c]
        p_mid = 2 * p_iv.lo + ell - 1  # twice the midpoint
        best = 0
        best_score = -1
        for o in (0, 1):
            d = abs(2 * sides[parity[i] ^ o][k].lo + ell - 1 - p_mid)
            score = min(d, 2 * nt - d)
            if score > best_score:
                best, best_score = o, score
        flip[k] = best

    return tuple(sides[parity[i] ^ flip[c]][c] for i, c in enumerate(comp))


_M64 = (1 << 64) - 1
_HALVES = tuple((h, (1 << h) - 1) for h in (32, 16, 8, 4, 2, 1))


def select(x: int, k: int) -> int:
    """Index of the k-th (0-based, ascending) set bit of x."""
    if k < 0:
        raise IndexError("negative rank")
    base = 0
    if x.bit_length() > 1024:  # find the 1024-bit chunk first
        raw = x.to_bytes(-(-x.bit_length() // 8), "little")
        for i in range(0, len(raw), 128):
            chunk = int.from_bytes(raw[i:i + 128], "little")
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


def mask_select_label(state, a, iv, rank):
    """A uniform admissible label of iv against parent label a (a = 0:
    no parent), or -1: the whole window's mask, then select the rank
    rank(count) gives."""
    mask_bits = (to_int(state.admissible_mask(a, iv)) if a
                 else window(to_int(state.labels), iv.lo, interval_width(iv)))
    cnt = mask_bits.bit_count()
    if not cnt:
        return -1
    return iv.lo + select(mask_bits, rank(cnt))


def draw_label(state, a, iv, offsets, ranks):
    """A label drawn uniformly from the labels of iv admissible against
    parent label a >= 1, or -1 when there is none.

    Up to labeller.TRIES positions lo + next(offsets) of iv are tried
    (offsets uniform on 0..width - 1), each accepted when its label is
    free in A and its difference to a is free in C: two byte reads.
    After the misses the draw falls back to admissible_mask and a rank
    drawn from the Rng ranks, which also finds an empty window.
    Every try and the fallback are uniform on the same admissible set,
    so the draw is too.
    """
    lo = iv.lo
    for _ in labeller.TRIES:
        b = lo + next(offsets)
        if state.labels[b] and state.diffs[abs(b - a)]:
            return b
    return _rank_draw(state.admissible_mask(a, iv), lo, ranks)


def mask_select_pick(bits, lo, w, rank):
    """A uniform value of the byte set bits in lo..lo+w-1, or -1: the
    window, then select the rank rank(count) gives."""
    mask_bits = window(to_int(bits), lo, w)
    cnt = mask_bits.bit_count()
    if not cnt:
        return -1
    return lo + select(mask_bits, rank(cnt))


def remove_label(state, b):
    take(state.labels, b, "label")


def remove_diff(state, d):
    take(state.diffs, d, "difference")


def sample(dist, rng):
    """One draw of a CorrectionDistribution: an interval or None."""
    u = rng.randbelow(dist.den)
    if u < dist._star_cut:
        return None
    return dist._positive[bisect.bisect_right(dist._cuts, u)]


class OldRng:
    """The stream at address (seed, key), as rng.Rng addresses it, read
    by randbelow: raw words a buffer of 4096 at a time, one per draw
    and more on a rejection, the threshold computed on every draw."""

    def __init__(self, seed, key=()):
        self.seed, self.key = seed, tuple(key)
        ss = np.random.SeedSequence(seed, spawn_key=self.key)
        self._raw = np.random.PCG64(ss).random_raw
        self._buf, self._pos = [], 0

    def child(self, *key):
        return OldRng(self.seed, self.key + key)

    def next64(self):
        if self._pos >= len(self._buf):
            self._buf = self._raw(4096).tolist()
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


def word_draws(rng, bound, count):
    """rng.draws(bound, count) as a list, read one raw word at a time:
    with k = bit_length(bound - 1), each read takes need * 2**k // bound
    + 64 words (need: the values still to find), and word x gives
    x & (2**k - 1) when that is below bound; reads repeat while fewer
    than count are held, and the words past the count-th value are
    spent."""
    span = 1 << (bound - 1).bit_length()
    raw = rng.np.bit_generator.random_raw
    out = []
    while len(out) < count:
        for _ in range((count - len(out)) * span // bound + 64):
            x = int(raw()) & (span - 1)
            if x < bound:
                out.append(x)
    return out[:count]


def word_offsets(rng, bound):
    """rng.offsets(bound): word_draws blocks of _BUF values, endless."""
    while True:
        yield from word_draws(rng, bound, _BUF)


def law_values(rng, den, steps):
    """The u of CorrectionDistribution.hits(rng, steps) for a law with
    denominator den, one per step: word_draws blocks of up to _BUF."""
    for done in range(0, steps, _BUF):
        yield from word_draws(rng, den, min(_BUF, steps - done))


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
    and C: each try offset and law value is one word_offsets or
    law_values value, each step reads one value of both laws, and a
    fallback ranks the sorted candidates by one word_draws(k, 1)."""
    corv, core = corv_distribution(sys), core_distribution(sys)
    nt, m = sys.n_tilde, sys.m
    failures = []
    for k in range(max_retries + 1):
        s = rng.child(k)
        if k and replan is not None:
            plan = replan(s.child(0))
        r = s.child(1)
        order = plan.order.tolist()
        label_offsets = word_offsets(r.child(0), sys.ell)
        pick_offsets = word_offsets(r.child(1), m)
        corv_draws = law_values(r.child(2), corv.den, len(order))
        core_draws = law_values(r.child(3), core.den, len(order))
        ranks = r.child(4)

        def rank(k):
            return word_draws(ranks, k, 1)[0]

        A, C = set(range(1, nt + 1)), set(range(1, nt))
        labels, trace = [], []
        steps = corv_hits = core_hits = 0
        failure = None
        for pos in range(len(order)):
            t = pos + 1
            a = labels[plan.parent_pos[pos]] if pos else None
            b = _uniform_member(
                int(plan.lo[pos]), sys.ell,
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
            trace.append(TraceRow(t, b, edge, corv_label, core_diff,
                                  len(A), len(C)))
        if failure is None:
            break
        failures.append(failure)
    return LabelResult(
        success=failure is None,
        psi=None if failure else dict(zip(order, labels)),
        plan=plan, attempts=k + 1, failures=tuple(failures),
        trace=tuple(trace), steps=steps, corv_hits=corv_hits,
        core_hits=core_hits)


def old_labelling_check(tree, psi, m):
    """Labelling.__post_init__ as a walk: None, or the ValueError text,
    which counts the missing, non-integer or out-of-range vertices and
    names the first five in vertex order.  Labels lie in
    1..min(m, 2^63 - 1), and are shown as Python ints."""
    if m < 1:
        return f"label bound m = {m} must be positive"
    missing = [v for v in range(1, tree.n + 1) if v not in psi]
    if missing:
        return (f"psi is not total: {len(missing)} vertices missing, "
                f"first {missing[:5]}")
    odd = [v for v in range(1, tree.n + 1)
           if not isinstance(psi[v], numbers.Integral)]
    if odd:
        return (f"labels are not integers at {len(odd)} vertices, "
                f"first {odd[:5]}")
    top = min(m, 2 ** 63 - 1)
    bad = [v for v in range(1, tree.n + 1) if not 1 <= psi[v] <= top]
    if bad:
        return (f"labels outside 1..{top} at {len(bad)} vertices, first "
                f"{ {v: int(psi[v]) for v in bad[:5]} }")
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


def history_states(history, sys):
    """(t, the LabelState after t completed steps) for t = 1..steps of
    the attempt whose AttemptHistory is history, one state changed in
    place: step t removes position t - 1's label, its edge difference
    when t >= 2, and the picks made at step t, each by remove_label or
    remove_diff."""
    state = LabelState(sys)
    corv = dict(zip(history.corv_steps.tolist(), history.corv.tolist()))
    core = dict(zip(history.core_steps.tolist(), history.core.tolist()))
    labels, diffs = history.labels.tolist(), history.diffs.tolist()
    for t in range(1, history.steps + 1):
        remove_label(state, labels[t - 1])
        if t >= 2:
            remove_diff(state, diffs[t - 2])
        if t in corv:
            remove_label(state, corv[t])
        if t in core:
            remove_diff(state, core[t])
        yield t, state


def history_state(history, sys, t):
    """The LabelState after t <= history.steps completed steps, as
    history_states rebuilds it."""
    if t == 0:
        return LabelState(sys)
    for s, state in history_states(history, sys):
        if s == t:
            return state
    raise ValueError(f"the attempt completed {history.steps} < {t} steps")


def trace_state(trace, sys, t):
    """The LabelState after t completed steps, from the first t trace
    rows: each row's label, edge label and picks removed (-1 is none)."""
    state = LabelState(sys)
    for row in trace[:t]:
        remove_label(state, row.label)
        for d in (row.edge_label, row.core_diff):
            if d >= 0:
                remove_diff(state, d)
        if row.corv_label >= 0:
            remove_label(state, row.corv_label)
    return state


def _diff_window(a, iv, c_bits):
    """Window-local mask of labels b in iv with |b - a| in C.

    The b > a side is a plain shift of C; the b < a side reverses the
    relevant chunk of C (bit j of the result is C bit a - iv.lo - j).
    """
    lo, w = iv.lo, interval_width(iv)
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
    """pattern_count on full-width ints A and C, for a pattern X
    given as its field tuple."""
    kind, a, a2, c, iv, iv2 = X
    c_bits &= ~1
    avail = window(a_bits, iv.lo, interval_width(iv))
    if kind == "X1":
        return avail.bit_count()
    hits = avail & _diff_window(a, iv, c_bits)
    if kind == "X3":
        return hits.bit_count()
    if kind == "X4":
        hits &= _diff_window(a2, iv, c_bits)
        twice_mid = a + a2
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits &= ~(1 << (twice_mid // 2 - iv.lo))
        return hits.bit_count()
    for b in (a - c, a + c):
        if iv.lo <= b <= iv.hi:
            hits &= ~(1 << (b - iv.lo))
    w2 = interval_width(iv2)
    avail2 = window(a_bits, iv2.lo, w2)
    anchored = hits << iv.lo
    up = window(anchored << c, iv2.lo, w2) & avail2
    down = window(anchored >> c, iv2.lo, w2) & avail2
    return up.bit_count() + down.bit_count()


def _overlap(x, y, s):
    """Number of k with x[k] and y[k + s] both set."""
    if s < 0:  # the same pairs, read from y's side
        x, y, s = y, x, -s
    n = min(len(x), len(y) - s)
    return int(np.count_nonzero(x[:n] & y[s:s + n])) if n > 0 else 0


def pattern_count(state, kind, a, a2, c, iv, iv2):
    """Number of label choices for the free slots of one pattern inside
    the free labels A and free differences C of state, one pattern at a
    time from admissible_mask and the label bytes (slots of any width;
    kind X1..X4, a and a2 anchor labels, c X2's fixed edge label, iv the
    slot and iv2 X2's second slot, None where a kind has no such
    field)."""
    if kind == "X1":
        return int(np.count_nonzero(
            np.frombuffer(state.labels, bool)[iv.lo:iv.hi + 1]))
    hits = state.admissible_mask(a, iv)
    if kind == "X3":
        return int(np.count_nonzero(hits))
    if kind == "X4":
        hits &= state.admissible_mask(a2, iv)
        twice_mid = a + a2
        if twice_mid % 2 == 0 and iv.lo <= twice_mid // 2 <= iv.hi:
            hits[twice_mid // 2 - iv.lo] = 0
        return int(np.count_nonzero(hits))
    for b in (a - c, a + c):
        if iv.lo <= b <= iv.hi:
            hits[b - iv.lo] = 0
    # entry k of hits is label iv.lo + k, so b +- c sits at entry
    # iv.lo +- c - iv2.lo of slot 2's window
    avail2 = np.frombuffer(state.labels, bool)[iv2.lo:iv2.hi + 1]
    return (_overlap(hits, avail2, iv.lo + c - iv2.lo)
            + _overlap(hits, avail2, iv.lo - c - iv2.lo))


def pattern_ambient(kind, a, a2, c, iv, iv2):
    """pattern_count on the full state, for slots inside 1..n_tilde, by
    its closed form: the slot width less the labels the pattern bans."""
    lo, hi = iv
    if kind == "X1":
        return hi - lo + 1
    if kind == "X3":
        return hi - lo + 1 - (lo <= a <= hi)
    if kind == "X4":
        twice_mid = a + a2
        return (hi - lo + 1 - (lo <= a <= hi) - (lo <= a2 <= hi)
                - (twice_mid % 2 == 0 and lo <= twice_mid // 2 <= hi))
    total = 0
    for s in (c, -c):
        x, y = max(lo, iv2.lo - s), min(hi, iv2.hi - s)
        if x <= y:
            total += (y - x + 1 - (x <= a <= y) - (x <= a - c <= y)
                      - (x <= a + c <= y))
    return total


def full_check_quasi(a_bits, c_bits, sys, alpha, per_kind, rng, t=0):
    """check_quasi on full-width ints: QUASI1 one window read at a time
    (its argmax the first window of largest integer deviation), each
    pattern counted on A, C and the full sets, deviations in Fraction
    arithmetic, the sample drawn by the five Rng.draws reads that
    check_quasi documents, anchors and fixed labels mapped by a
    full-width select one rank at a time (the anchored-label loop of the
    old sample spec is left out: no caller used it)."""
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
        devs.append(float(abs(Fraction(cnt) - amb * dens ** _FREE[X[0]])
                          / m))

    slots = sys.iv_intervals
    nslots = len(slots)
    k = per_kind
    if k > 0 and size_a >= 2 and size_c >= 1 and nslots >= 2:
        # the five reads of the audit stream, in check_quasi's order
        slot = rng.draws(nslots, 4 * k).tolist()
        offset2 = rng.draws(nslots - 1, k).tolist()
        rank = rng.draws(size_a, 3 * k).tolist()
        rank2 = rng.draws(size_a - 1, k).tolist()
        c_rank = rng.draws(size_c, k).tolist()
        for i in range(k):
            push(x1(slots[slot[i]]))
        for i in range(k):
            first = slot[k + i]
            other = offset2[i] + (offset2[i] >= first)
            push(x2(select(a_bits, rank[i]), slots[first],
                    select(c_bits, c_rank[i]), slots[other]))
        for i in range(k):
            push(x3(select(a_bits, rank[k + i]), slots[slot[2 * k + i]]))
        for i in range(k):
            anchor = select(a_bits, rank[2 * k + i])
            # the second anchor: a rank among A without the first
            other = select(a_bits ^ (1 << anchor), rank2[i])
            push(x4(anchor, other, slots[slot[3 * k + i]]))

    return QuasiReport(checkpoint=t, alpha=float(alpha),
                       quasi1_max_dev=worst, quasi1_argmax_lo=worst_lo,
                       quasi2_devs=tuple(devs))


def full_ints(state):
    """The state's A and C as full-width ints."""
    return to_int(state.labels), to_int(state.diffs)


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


def old_format_tree(t):
    """format_tree as one string per edge line, before it wrote chunks
    of the edge buffer."""
    lines = [str(t.n)]
    lines += [f"{u} {v}" for u, v in t.edges]
    return "\n".join(lines) + "\n"


def old_labelling_to_json(lab):
    """labelling_to_json as json.dumps of the whole label list, before
    it joined the labels chunk by chunk."""
    return json.dumps({"n": lab.tree.n, "m": lab.m,
                       "labels": lab.psi.array[1:].tolist()}, indent=2)


def old_trace_csv(result, reports=()):
    """trace_csv as one write per row, before it formatted the step rows
    chunk by chunk."""
    by_t = {r.checkpoint: r for r in reports}
    out = io.StringIO()
    out.write("t,chosen_label,edge_label_removed,rv,re,size_A,size_C,"
              "quasi1_max_dev,quasi2_max_sampled_dev\n")
    for row in result.trace:
        out.write(f"{row.t},{row.label},{row.edge_label},{row.corv_label},"
                  f"{row.core_diff},{row.size_a},{row.size_c},,\n")
        rep = by_t.get(row.t)
        if rep is not None:
            out.write(f"{row.t},,,,,{row.size_a},{row.size_c},"
                      f"{rep.quasi1_max_dev:.10g},"
                      f"{rep.quasi2_max_dev:.10g}\n")
    return out.getvalue()


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
