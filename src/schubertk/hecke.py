"""0-Hecke (Demazure) products, the fold-state DP and subword enumeration.

The 0-Hecke monoid multiplies by ``H_s H_w = H_{sw}`` when the length goes
up and absorbs the letter otherwise.  `fold_dp` sums over the subwords of a
word that fold to w in one pass over fold states; with the kernels of
`ring` it computes the hecke class and, with `ring`'s degree digit, the
truncated character's numerator; on packed counts `subsequence_stats` the
Hilbert counts.  `hecke_subsequences` counts the subwords that way, then
lists them through the same DP, with one bit per letter, for the factored
LaTeX form and as a test oracle.  All keep only the fold states from
which the rest of the word can still fold to w (`_reaching`).
"""

from __future__ import annotations

from .ring import CLASS_REMEDY, Record, add_into, check_work, count_slots, unpack_counts
from .weyl import (
    WeylElement,
    length,
    window_right_ascent,
    window_right_mult,
)


class HeckeSubseq(Record):
    # strictly increasing 1-based positions into the word, l(t) = number of
    # letters, and the excess e(t) = l(t) - l(w)
    __slots__ = ("indices", "length", "excess")

    def __init__(self, indices: tuple, length: int, excess: int):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "excess", excess)


def _reaching(w: WeylElement, word) -> list:
    """reach[p] maps to l(u) each window u with l(u) <= p from which some
    subword of word[p:] folds to w.

    Built right to left from {w}: u reaches from p when it reaches from
    p + 1, or when s_i = word[p] is an ascent of u and u * s_i reaches.  A
    fold of a subword of word[:p] has length at most p, so the bound drops
    no state that `fold_dp` meets; it keeps each entry in the band
    l(w) - (len(word) - p) <= l(u) <= p, a single window when w = v.
    Every entry point builds it first, so it checks the letters.
    """
    for i in word:
        if not 1 <= i <= w.rstype.num_simple:
            raise ValueError(f"letter {i} out of range for {w.rstype}")
    kind = w.rstype.kind
    lw = length(w)
    reach = [{w.window: lw} if lw <= len(word) else {}]
    for p in range(len(word) - 1, -1, -1):
        i, after = word[p], reach[-1]
        here = {u: lu for u, lu in after.items() if lu <= p}
        for u, lu in after.items():
            if not window_right_ascent(kind, u, i):
                here[window_right_mult(kind, u, i)] = lu - 1
        reach.append(here)
    reach.reverse()
    return reach


def hecke_subsequences(w: WeylElement, word) -> list:
    """All index subsequences of word whose fold is w, in lexicographic order.

    Distinct index tuples count separately even when they spell the same
    letters.  `subsequence_stats` counts them first, and the count passes
    `check_work` before any is listed.  It then lists them on the same reach
    table with factor 2^c for letter c: a key is the bit set of one
    subword's taken positions, and no two subwords share a key.
    """
    reach, remedy = _reaching(w, word), "drop --format latex for the expanded class"
    total = sum(_counts(w, word, reach, remedy).values())
    check_work(total, "subwords fold to w", remedy)
    bits = [1 << c for c in range(len(word))]
    subwords = _fold(w, word, bits, add_into, _skip_and_take, reach, remedy)
    lw = length(w)
    chosen = sorted(tuple(c + 1 for c, b in enumerate(bits) if key & b) for key in subwords)
    return [HeckeSubseq(t, len(t), len(t) - lw) for t in chosen]


def fold_dp(w: WeylElement, word, factors, take, stay, remedy: str = CLASS_REMEDY) -> dict:
    """Sum over the subwords of word that fold to w, as a packed dict.

    A dynamic program with one packed dict per fold state (a window); letter
    c carries ``factors[c]``.  At an ascent, ``take(dst, src, f)`` adds the
    taken letter into the state win * s_i, and the state also keeps src (the
    letter is skipped; every other move at s_i lands on a state with s_i as
    a descent, so none joins it).  Otherwise the letter is absorbed, and
    ``stay(dst, src, f)`` adds skip and take into the same state.  A state is
    kept only while some subword of the rest of the word folds it to w
    (`_reaching`), so the DP starts empty when w is out of reach.  Before
    each letter, the entries that take and stay have read so far pass
    `check_work`, naming remedy; a skipped state is not read.
    """
    return _fold(w, word, factors, take, stay, _reaching(w, word), remedy)


def _fold(w: WeylElement, word, factors, take, stay, reach, remedy: str, weigh=len) -> dict:
    """The loop of `fold_dp` on a reach table for w and word; a refusal
    names remedy, and a state weighs weigh(acc) each time take or stay reads
    it.  A skipped state is new to nxt: s_i is its ascent and a descent of
    every take or stay target."""
    rs = w.rstype
    kind = rs.kind
    ident = tuple(range(1, rs.rank + 1))
    states = {ident: {0: 1}} if ident in reach[0] else {}
    work = 0
    for i, f, ahead in zip(word, factors, reach[1:]):
        check_work(work, "entries read", remedy)
        nxt = {}
        for win, val in states.items():
            if not window_right_ascent(kind, win, i):
                stay(nxt.setdefault(win, {}), val, f)
                work += weigh(val)
                continue
            win2 = window_right_mult(kind, win, i)
            if win2 in ahead:
                take(nxt.setdefault(win2, {}), val, f)
                work += weigh(val)
            if win in ahead:  # new to nxt, and val is not read again: reused
                nxt[win] = val
        states = nxt
    return states.get(w.window, {})


def _skip_and_take(dst: dict, src: dict, f: int) -> None:
    """dst += src * (1 + e^f): the absorbed letter is both skipped and taken."""
    add_into(dst, src)
    add_into(dst, src, f)


def subsequence_stats(w: WeylElement, word) -> dict:
    """Count subsequences folding to w, bucketed by l(t), ascending.

    The fold DP on packed counts (`ring.unpack_counts`) keyed by the fewest
    letters, W = len(word) + 1: a taken letter adds one to the key (times t),
    an absorbed one multiplies by 1 + t.

    >>> from schubertk.weyl import RootSystem, simple_reflection
    >>> subsequence_stats(simple_reflection(RootSystem("A", 3), 1), (1, 2, 1))
    {1: 2, 2: 1}
    """
    return _counts(w, word, _reaching(w, word), "")  # no remedy for a count


def _counts(w: WeylElement, word, reach, remedy: str) -> dict:
    """`subsequence_stats` on a reach table built for w and word; a refusal
    names remedy."""
    width = len(word) + 1

    def stay(dst, src, f):  # times 1 + t
        for n, c in src.items():
            dst[n] = dst.get(n, 0) + c + (c << width)

    packed = _fold(w, word, [1] * len(word), add_into, stay, reach, remedy,
                   lambda acc: count_slots(*acc.values(), width))  # one key per state
    return unpack_counts(packed, width)
