import itertools
import random
import sys
import time
from collections import Counter

import pytest

from oracles import commutation_class, demazure_fold, identity, is_fully_commutative, m_order
from schubertk import hecke, restriction, ring
from schubertk.diagrams import reading_word, reflection_tableau
from schubertk.hecke import _reaching, hecke_subsequences, subsequence_stats
from schubertk.shapes import minimal_reps, perm_of, shape_of
from schubertk.weyl import (
    RootSystem,
    WeylElement,
    length,
    reduced_word,
    simple_reflection,
)

A3 = RootSystem("A", 3)


def test_fold_examples():
    s1 = simple_reflection(A3, 1)
    assert demazure_fold((1, 1), A3) == s1
    assert demazure_fold((1, 2, 1, 2), A3).window == (3, 2, 1)
    assert demazure_fold((), A3) == identity(A3)
    with pytest.raises(ValueError):
        demazure_fold((5,), A3)


def test_subsequences_examples():
    s1 = simple_reflection(A3, 1)
    subs = hecke_subsequences(s1, (1, 2, 1))
    assert [t.indices for t in subs] == [(1,), (1, 3), (3,)]
    assert {t.excess for t in subs} == {0, 1}
    assert hecke_subsequences(identity(A3), (1, 2, 1))[0].indices == ()
    w0 = WeylElement(A3, (3, 2, 1))
    assert hecke_subsequences(w0, (1, 2)) == []
    # 2^30 - 1 subwords fold to s_1: counted, then refused without listing
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1073741823 subwords"):
        hecke_subsequences(s1, (1,) * 30)
    assert time.perf_counter() - start < 0.1


def test_subword_listing_is_bounded_by_its_exact_size(monkeypatch):
    s1 = simple_reflection(A3, 1)
    monkeypatch.setattr(ring, "MAX_EXPANSION", 7)  # (1, 1, 1) has 7 subwords
    assert len(hecke_subsequences(s1, (1, 1, 1))) == 7
    with pytest.raises(ValueError, match="15 subwords fold to w, more than 7"):
        hecke_subsequences(s1, (1, 1, 1, 1))


def test_subsequences_match_naive_bitmask():
    rng = random.Random(13)
    for kind, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        rs = RootSystem(kind, rank)
        for _ in range(25):
            word = tuple(
                rng.randint(1, rs.num_simple) for _ in range(rng.randint(1, 9))
            )
            w = demazure_fold(
                tuple(rng.randint(1, rs.num_simple) for _ in range(rng.randint(0, 4))),
                rs,
            )
            expected = []
            for mask in range(1 << len(word)):
                idx = tuple(
                    k + 1 for k in range(len(word)) if mask >> k & 1
                )
                sub = tuple(word[k - 1] for k in idx)
                if demazure_fold(sub, rs) == w:
                    expected.append(idx)
            got = hecke_subsequences(w, word)
            assert [t.indices for t in got] == sorted(expected)
            stats = subsequence_stats(w, word)
            assert stats == {
                m: sum(1 for e in expected if len(e) == m)
                for m in sorted({len(e) for e in expected})
            }
            for t in got:
                assert t.length == len(t.indices)
                assert t.excess == t.length - length(w)


def _subword_folds(word, rs):
    return {
        demazure_fold(tuple(word[k] for k in range(len(word)) if mask >> k & 1), rs)
        for mask in range(1 << len(word))
    }


@pytest.mark.parametrize("kind,rank,d", [("A", 5, 2), ("B", 3, None), ("C", 3, None), ("D", 4, None)])
def test_reaching_is_exact_on_minimal_rep_pairs(kind, rank, d):
    # u is in reach[p] iff some subword of word[p:] folds u to w, for every
    # fold u of a subword of word[:p]; decided by the root-action fold
    rs = RootSystem(kind, rank)
    reps = minimal_reps(rs, d)
    for v in reps:
        word = reading_word(reflection_tableau(shape_of(v, d or rank), rs, d))
        for w in reps:
            reach = _reaching(w, word)
            assert len(reach) == len(word) + 1
            for p in range(len(word) + 1):
                suffix_folds = [
                    tuple(word[p + k] for k in range(len(word) - p) if mask >> k & 1)
                    for mask in range(1 << (len(word) - p))
                ]
                for u in _subword_folds(word[:p], rs):
                    reaches = any(
                        demazure_fold(reduced_word(u) + sub, rs) == w for sub in suffix_folds
                    )
                    assert (u.window in reach[p]) == reaches, (w, v, p, u)
            lengths = Counter(t.length for t in hecke_subsequences(w, word))
            assert subsequence_stats(w, word) == dict(lengths)


def test_subword_listing_does_not_recurse_per_letter():
    # lambda = mu = 6^6: 36 letters and one subword, listed under a recursion
    # limit far below the word length
    rs = RootSystem("A", 12)
    w = perm_of((6,) * 6, 6, 12)
    word = reading_word(reflection_tableau((6,) * 6, rs, 6))
    assert len(word) == 36
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        subs = hecke_subsequences(w, word)
    finally:
        sys.setrecursionlimit(limit)
    assert [t.indices for t in subs] == [tuple(range(1, 37))]


def test_fold_length_lower_bound():
    # l(word) >= l(fold); equality forces the word to be reduced
    rng = random.Random(99)
    rs = RootSystem("B", 3)
    for _ in range(400):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        w = demazure_fold(word, rs)
        assert len(word) >= length(w)
        if len(word) == length(w):
            product = identity(rs)
            for i in reversed(word):
                product = simple_reflection(rs, i) * product
            # reduced: the plain group product already has full length
            assert product == w
            assert length(product) == len(word)


def test_m_order_from_root_system():
    assert m_order(A3, 1, 2) == 3
    assert m_order(RootSystem("A", 4), 1, 3) == 2
    B3 = RootSystem("B", 3)
    assert m_order(B3, 2, 3) == 4
    assert m_order(B3, 1, 2) == 3
    D4 = RootSystem("D", 4)
    assert m_order(D4, 3, 4) == 2
    assert m_order(D4, 2, 4) == 3


def test_element_caches_are_bounded():
    assert reduced_word.cache_info().maxsize is not None
    assert m_order.cache_info().maxsize is not None


def test_commutation_class_examples():
    A4 = RootSystem("A", 4)
    assert commutation_class((1, 3), A4) == [(1, 3), (3, 1)]
    assert commutation_class((1, 2), A3) == [(1, 2)]
    assert commutation_class((2,), A3) == [(2,)]
    with pytest.raises(ValueError):
        commutation_class((1, 1), A3)


def test_fully_commutative_examples():
    assert is_fully_commutative(identity(A3))
    assert not is_fully_commutative(WeylElement(A3, (3, 2, 1)))
    B3 = RootSystem("B", 3)
    w = demazure_fold((2, 3, 2, 1), B3)
    assert length(w) == 4
    assert is_fully_commutative(w)


def test_letter_multiset_constant_on_commutation_class():
    B3 = RootSystem("B", 3)
    w = demazure_fold((2, 3, 2, 1), B3)
    words = commutation_class(tuple(reduced_word(w)), B3)
    multisets = {tuple(sorted(word)) for word in words}
    assert len(multisets) == 1
    # subsequence counts agree across reduced words of a fully commutative w
    target = demazure_fold((2, 3), B3)
    counts = {
        word: len(hecke_subsequences(target, word)) for word in words
    }
    assert len(set(counts.values())) == 1


def _commutes_through(word, rs, i, j):
    return all(m_order(rs, word[i], word[k]) == 2 for k in range(i + 1, j))


@pytest.mark.parametrize("kind,rank,wlen", [("A", 4, 8), ("B", 3, 8), ("C", 4, 7), ("D", 4, 7)])
def test_repeated_letter_with_commuting_gap(kind, rank, wlen):
    # every non-reduced word folding to a fully commutative element contains
    # i < j with equal letters and everything between commuting past them
    rs = RootSystem(kind, rank)
    fc_cache = {}
    for word in itertools.product(range(1, rs.num_simple + 1), repeat=wlen):
        w = demazure_fold(word, rs)
        if len(word) <= length(w):
            continue
        if w not in fc_cache:
            fc_cache[w] = is_fully_commutative(w)
        if not fc_cache[w]:
            continue
        found = any(
            word[i] == word[j] and _commutes_through(word, rs, i, j)
            for i in range(len(word))
            for j in range(i + 1, len(word))
        )
        assert found, (word, w)


def test_subword_listing_builds_one_reach_table(monkeypatch):
    calls = []

    def counting(w, word):
        calls.append(word)
        return _reaching(w, word)

    monkeypatch.setattr(hecke, "_reaching", counting)
    subs = hecke_subsequences(simple_reflection(A3, 1), (1, 2, 1))
    assert [t.indices for t in subs] == [(1,), (1, 3), (3,)]
    assert calls == [(1, 2, 1)]



@pytest.mark.parametrize("query, reads", [
    (lambda pair: restriction.pair_class(pair, "hecke"), [2270]),
    (lambda pair: restriction.pair_character(pair, 4), [1275]),
    (lambda pair: subsequence_stats(pair.w, pair.point.word), [138]),
    (lambda pair: hecke_subsequences(pair.w, pair.point.word), [138, 2719]),  # count, then list
], ids=["class", "character", "counts", "subwords"])
def test_the_fold_weighs_exactly_what_take_and_stay_read(query, reads, monkeypatch):
    # before each letter, the budget sees the weight of every state that take
    # or stay has read so far in this fold, and no state skipped at an ascent
    totals, checked = [], []
    fold = hecke._fold

    def reading(kernel, weigh):
        def wrapped(dst, src, f):
            totals[-1] += weigh(src)
            return kernel(dst, src, f)
        return wrapped

    def spied(w, word, factors, take, stay, reach, remedy, weigh=len):
        totals.append(0)
        return fold(w, word, factors, reading(take, weigh), reading(stay, weigh), reach, remedy, weigh)

    def check_work(work, what="entries read", remedy=""):
        if what == "entries read":
            checked.append((work, totals[-1]))
        return ring.check_work(work, what, remedy)

    monkeypatch.setattr(hecke, "_fold", spied)
    monkeypatch.setattr(hecke, "check_work", check_work)
    query(restriction.Pair.of_shapes(RootSystem("C", 6), None, (3, 2, 1), (6, 5, 4, 3, 2, 1)))
    assert totals == reads
    assert len(checked) == 21 * len(reads)  # one check before each letter of the word
    assert all(work == done for work, done in checked)
