"""Rng.draws against its read rule one raw word at a time (word_draws
in tests/oracles.py), the words it spends included.  Rng.offsets as
successive draws batches of _BUF values, and its law.
Rng.permutation against the sort of its keys (permutation in
tests/oracles.py), its law, and its redraw on a tie."""

import itertools
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from scipy.stats import chisquare

from gracetree.intervals import IntervalSystem, core_distribution
from gracetree.params import derive_practical_params
from gracetree import rng as rng_module
from gracetree.rng import _BUF, Rng
from oracles import permutation, word_draws, word_offsets


def _scaled_core_den():
    """The edge law's denominator at the paper's scaled point for
    n = 10^6 (m = 12800, ell = 51200): above 2**32."""
    p = derive_practical_params(10 ** 6, Fraction(1, 2), 12800, 51200)
    den = core_distribution(IntervalSystem(p.n_tilde, p.m, p.ell)).den
    assert den > 1 << 32
    return den


BATCH_BOUNDS = [1, 2, 3, 96, 1000, (1 << 32) + 1, (1 << 62) + 1,
                (1 << 63) - 1, 1 << 63]


@pytest.mark.parametrize("bound", BATCH_BOUNDS + ["den"])
def test_batches_match_word_at_a_time_reads(bound):
    # offsets reads draws(bound, _BUF) batches, across several of them,
    # each batch spending the rest of its last read
    if bound == "den":
        bound = _scaled_core_den()
    count = 3 * _BUF + 17
    got = list(islice(Rng(4, key=(1, 2)).offsets(bound), count))
    want = list(islice(word_offsets(Rng(4, key=(1, 2)), bound), count))
    assert got == want
    assert all(type(x) is int and 0 <= x < bound for x in got)
    rng = Rng(4, key=(1, 2))
    blocks = [rng.draws(bound, _BUF) for _ in range(4)]
    assert np.concatenate(blocks)[:count].tolist() == want


def test_batches_reject_bounds_outside_one_to_two_to_the_63():
    # offsets refuses a bound when called, not at its first next()
    for bound in (0, -1, (1 << 63) + 1, 1 << 64):
        with pytest.raises(ValueError):
            Rng(0).offsets(bound)
        with pytest.raises(ValueError):
            Rng(0).draws(bound, 1)


DRAWS = 200_000


@pytest.mark.parametrize("bound", [96, 1000, 1, "den"])
def test_batched_draws_are_uniform(bound):
    if bound == "den":
        bound = _scaled_core_den()
    u = np.array(list(islice(Rng(9, key=(3,)).offsets(bound), DRAWS)),
                 dtype=np.uint64)
    assert int(u.max()) < bound
    if bound == 1:
        assert not u.any()
        return
    if bound <= 1000:  # every value is a cell
        obs = np.bincount(u.astype(np.int64), minlength=bound)
        assert chisquare(obs).pvalue > 1e-3
        return
    # a wide bound: 64 cells of (almost) equal width by the top of the
    # range, expected counts from their exact sizes, and 64 by the low
    # bits; and a 3-SE check of the mean
    edges = [-(-j * bound // 64) for j in range(65)]
    obs = np.histogram(u.astype(np.float64), bins=np.array(edges, float))[0]
    exp = DRAWS * np.diff(edges) / bound
    assert chisquare(obs, exp).pvalue > 1e-3
    low = np.bincount((u & np.uint64(63)).astype(np.int64), minlength=64)
    assert chisquare(low).pvalue > 1e-3
    mean = u.astype(np.float64).mean() / bound
    assert abs(mean - 0.5) <= 3 * np.sqrt(1 / 12 / DRAWS)


@pytest.mark.parametrize("bound", [1, 2, 3, 96, (1 << 32) + 1, "den",
                                   1 << 63])
def test_draws_are_the_first_values_of_batches(bound):
    # one stream read by calls of several sizes, the first one offsets'
    # first batch: each call gives the word-at-a-time rule's values and
    # spends the words it does
    if bound == "den":
        bound = _scaled_core_den()
    got, ref = Rng(4, key=(1, 3)), Rng(4, key=(1, 3))
    batch = list(islice(Rng(4, key=(1, 3)).offsets(bound), _BUF))
    assert got.draws(bound, _BUF).tolist() == batch == word_draws(
        ref, bound, _BUF)
    for count in (0, 1, 7, 128, 3 * _BUF + 17, 1):
        x = got.draws(bound, count)
        assert x.dtype == np.int64
        assert x.tolist() == word_draws(ref, bound, count)


def test_draws_read_rule_and_refusals():
    # consecutive calls read consecutive words: the second starts at the
    # word after the first call's last read, not at the first one's
    # last accepted word
    bound, count = 5, 40
    words = Rng(6).np.bit_generator.random_raw(1000) & 7
    first = count * 8 // 5 + 64
    rng = Rng(6)
    assert rng.draws(bound, count).tolist() == (
        words[:first][words[:first] < 5][:count].tolist())
    rest = words[first:]
    assert rng.draws(bound, 10).tolist() == rest[rest < 5][:10].tolist()
    for bound in (0, -1, (1 << 63) + 1, 1 << 64):
        with pytest.raises(ValueError):
            Rng(0).draws(bound, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 1000, _BUF + 3])
def test_permutation_sorts_one_read_of_keys(n):
    rng, ref = Rng(8, key=(2,)), Rng(8, key=(2,))
    for _ in range(3):
        got = rng.permutation(n)
        assert got.dtype == np.int64
        assert got.tolist() == permutation(ref, n)
    # both read the same words
    assert rng.draws(7, 5).tolist() == ref.draws(7, 5).tolist()


def test_permutation_is_uniform():
    # all 24 orders of 4, 500 expected each
    rng = Rng(3, key=(5,))
    index = {p: k for k, p in enumerate(itertools.permutations(range(4)))}
    obs = np.zeros(24, np.int64)
    for _ in range(12_000):
        obs[index[tuple(rng.permutation(4).tolist())]] += 1
    assert chisquare(obs).pvalue > 1e-3


def test_permutation_redraws_every_key_on_a_tie(monkeypatch):
    # keys below 4 tie among 3 values with probability 5/8: every read
    # that ties is thrown away whole, and the orders stay uniform
    monkeypatch.setattr(rng_module, "_KEYS", 4)
    draws = Rng.draws
    reads = []
    monkeypatch.setattr(Rng, "draws", lambda self, bound, count: reads.append(
        (bound, count)) or draws(self, bound, count))
    rng, ref = Rng(2, key=(6,)), Rng(2, key=(6,))
    index = {p: k for k, p in enumerate(itertools.permutations(range(3)))}
    obs = np.zeros(6, np.int64)
    calls = 3000
    for _ in range(calls):
        got = rng.permutation(3).tolist()
        while True:
            keys = draws(ref, 4, 3).tolist()
            if len(set(keys)) == 3:
                break
        assert got == sorted(range(3), key=keys.__getitem__)
        obs[index[tuple(got)]] += 1
    assert set(reads) == {(4, 3)}
    # about 8/3 reads per call
    assert 2.4 * calls < len(reads) < 2.9 * calls
    assert chisquare(obs).pvalue > 1e-3
