"""Set-valued (shifted) tableaux restricted by an ambient shape: the
transfer DP over them (`_transfer`: `svt_sum` for the class, `svt_counts`
on one packed count per state, `enumerate_svt`, which lists them with one
bit per (box, entry) as the key), and the map f onto excited Young diagrams.

A filling is semistandard when rows are weakly and columns strictly
increasing entry-by-entry; it is restricted by mu when every entry x of box
(i,j) satisfies x+j-i <= mu(x) (ordinary) or j-i <= mu(x)-1 (shifted), and
in shiftedD a diagonal entry also keeps the parity of its row.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .diagrams import BoxSet, ambient_boxes
from .ring import CLASS_REMEDY, Record, add_binomial_into, add_into, check_work, count_slots, unpack_counts
from .shapes import contains, size, trim


class SetValuedTableau(Record):
    # ambient: the restricting shape mu; cells: sorted tuple of ((i, j), (x1 < x2 < ...))
    __slots__ = ("geometry", "shape", "ambient", "cells")

    def __init__(self, geometry: str, shape: tuple, ambient: tuple, cells: tuple):
        self._set(geometry, trim(shape), trim(ambient),
                  tuple(sorted((tuple(b), tuple(sorted(es))) for b, es in cells)))
        cells = self.cells
        boxes = {b for b, _ in cells}
        if boxes != set(ambient_boxes(self.shape, self.geometry)):
            raise ValueError(f"cells do not cover the shape {self.shape}")
        if any(not es for _, es in cells):
            raise ValueError("every box needs a nonempty entry set")

    def entry_count(self) -> int:
        return sum(len(es) for _, es in self.cells)

    def __repr__(self):
        body = ", ".join(f"{b}:{set(es)}" for b, es in self.cells)
        return f"SVT({self.geometry}, {self.shape} in {self.ambient}; {body})"


def _box_values(geometry: str, mu: tuple, i: int, j: int) -> list:
    """The entries that the restriction by mu, trimmed, allows in box (i,j),
    ascending from the least one a semistandard filling can hold there.  The
    neighbours of the box only raise the lower end, so every feasible entry
    set is drawn from a suffix."""
    values = []
    for x in range(i if geometry == "ordinary" else 1, len(mu) + 1):
        if (x if geometry == "ordinary" else 1) + j - i > mu[x - 1]:
            break  # the bound only tightens as x grows
        # type D diagonal excitations move two steps, so a diagonal entry
        # keeps the parity of its starting row
        if not (geometry == "shiftedD" and i == j and (x - i) % 2):
            values.append(x)
    return values


@lru_cache(maxsize=1024)
def _entries(chunk: int) -> tuple:
    """The entries x whose bit x - 1 is set in chunk: one box of a key."""
    return tuple(x + 1 for x in range(chunk.bit_length()) if chunk >> x & 1)


def enumerate_svt(lam, mu, geometry: str, d: int = None,
                  single_valued_only: bool = False) -> list:
    """All set-valued tableaux of shape lam restricted by mu, ordered by cells.

    They are listed through the DP of `_transfer`, as `hecke_subsequences`
    lists subwords: a key is the bit set of one tableau's (box, entry)
    pairs, bit k*l(mu) + x - 1 for entry x of the k-th box in row-major
    order, so no two tableaux share a key.  The keys pass `check_work`
    before they are written, with no remedy.  d is not read: mu fits in d
    rows, and an entry x > l(mu) already breaks x + j - i <= mu_x.

    >>> [T.cells for T in enumerate_svt((1,), (2, 2), "ordinary")]
    [(((1, 1), (1,)),), (((1, 1), (1, 2)),), (((1, 1), (2,)),)]
    """
    rows = len(trim(mu))
    boxes = sorted(ambient_boxes(lam, geometry))
    shift = {box: k * rows for k, box in enumerate(boxes)}

    def spread(nxt, acc, head, tail, values, s, box):
        n, low = len(values) - s, shift[box] - 1
        written = check_work(len(acc) * (n if single_valued_only else (1 << n) - 1),
                             "entries read", "")  # refused before it is written
        subsets = [0]  # the bit sets of values[s:t]
        for t in range(s, len(values)):
            dst = nxt.setdefault(head + (values[t],) + tail, {})
            top = 1 << low + values[t]
            for sub in subsets:
                add_into(dst, acc, top | sub)  # the bits are new to acc's keys, so + is |
            if not single_valued_only:
                subsets += [sub | top for sub in subsets]
        return written

    mask = (1 << rows) - 1
    tableaux = (SetValuedTableau(geometry, lam, mu, tuple(
        (box, _entries(key >> shift[box] & mask)) for box in boxes))
        for key in _transfer(lam, mu, geometry, spread, "", {0: 1}, add_into))  # no remedy
    return sorted(tableaux, key=lambda T: T.cells)


def svt_sum(lam, mu, geometry: str, keys: dict) -> dict:
    """Sum over the set-valued tableaux of shape lam restricted by mu of the
    product of (e^g - 1) over their (box, entry) pairs, as a packed dict,
    with g = keys[x, x + j - i] for entry x of box (i, j): the packed key
    of the box of D_mu that f sends it to: the svt class, by the DP of
    `_transfer`.  The entries of a box below its maximum contribute e^g
    each, so each feasible maximum is one fused `add_binomial_into` call,
    shifted by the running sum of the smaller entries' keys.

    >>> svt_sum((1,), (2, 2), "ordinary", {(1, 1): 1, (2, 2): 4})  # (e - 1) + e(e^4 - 1)
    {1: 0, 0: -1, 5: 1}
    """
    def spread(nxt, acc, head, tail, values, s, box):
        q, shift = box[1] - box[0], 0
        for t in range(s, len(values)):
            g = keys[values[t], values[t] + q]
            add_binomial_into(nxt.setdefault(head + (values[t],) + tail, {}), acc, g, shift)
            shift += g
        return len(acc) * (len(values) - s)

    return _transfer(lam, mu, geometry, spread, CLASS_REMEDY, {0: 1}, add_into)


def svt_counts(lam, mu, geometry: str) -> dict:
    """{n: the number of set-valued tableaux of shape lam restricted by mu
    with n entries}: the DP of `_transfer` with one packed count Q(2^W) per
    state, Q(t) counting the fillings of the boxes placed so far by their
    entries beyond one per box (`ring.unpack_counts`), so no state stores
    its number of boxes; W = |mu| + 1 as f maps the tableaux one to one onto
    subsets of D_mu.  A step multiplies by (1 + t)^k, k the feasible
    entries below the maximum, and a state weighs its slots against the
    budget, as many as a dict keyed by the number of entries would hold.

    >>> svt_counts((1,), (2, 2), "ordinary")
    {1: 2, 2: 1}
    >>> svt_counts((3, 1), (4, 3, 2, 1), "shiftedD")
    {4: 5, 5: 5, 6: 1}
    """
    width = size(mu) + 1
    rows = [((1 << width) + 1) ** k for k in range(len(mu))]

    def spread(nxt, c, head, tail, values, s, box):
        get = nxt.get
        for t in range(s, len(values)):
            key = head + (values[t],) + tail
            nxt[key] = get(key, 0) + c * rows[t - s]
        return count_slots(c, width) * (len(values) - s)

    total = _transfer(lam, mu, geometry, spread, "", 1, int.__add__)  # no remedy for a count
    return unpack_counts({size(lam): total}, width)


def _transfer(lam, mu, geometry: str, spread, remedy: str, unit, join):
    """The transfer DP over the set-valued tableaux of shape lam restricted
    by mu, summing an accumulator per state over the boxes in row-major
    order.  A state is the tuple of column maxima on the frontier that later
    boxes read: the current row's maxima left of the box, the previous row's
    from the box on.  A box needs max(left) <= min and max(above) < min, so
    later boxes see nothing else.  ``spread(nxt, acc, head, tail, values, s,
    box)`` adds one state's moves at box (i, j) into nxt, one per feasible
    maximum values[t], t >= s, to the state head + (values[t],) + tail, and
    returns the entries it read; before each state's moves the entries read
    so far pass `check_work`, whose refusal names remedy.  The empty filling
    weighs unit, and ``join(a, b)`` returns the sum of two accumulators,
    free to reuse a.

    The state keeps only the column maxima that later boxes read.  Once box
    p of row i is placed, the maximum at position p - 1 is read only by row
    i + 1, which sits under positions cut .. cut + lam_{i+1} - 1 (cut = 1
    when shifted); outside them it is written as 0 in the head handed to
    spread, so the states that differed only there merge as they are
    written.  After each row the states are cut to what the next row reads,
    and after the last one to the empty tuple, which holds the sum."""
    lam, mu = trim(lam), trim(mu)
    for shape in (lam, mu):
        ambient_boxes(shape, geometry)  # ValueError unless a (strict) partition; cached
    if not contains(lam, mu):
        raise ValueError(f"{lam} is not contained in {mu}")
    shifted = geometry != "ordinary"
    cut = 1 if shifted else 0
    states = {(0,) * (lam[0] if lam else 0): unit}  # row 0: nothing above
    work = 0
    for i, row_len in enumerate(lam, start=1):
        live = range(cut, cut + (lam[i] if i < len(lam) else 0))
        for p in range(row_len):
            j = p + (i if shifted else 1)
            box, values = (i, j), _box_values(geometry, mu, i, j)
            keep = not p or p - 1 in live
            nxt = {}
            for state, acc in states.items():
                lo = state[p] + 1
                if p and state[p - 1] > lo:
                    lo = state[p - 1]
                s = bisect_left(values, lo)
                work = check_work(work, "entries read", remedy) + spread(
                    nxt, acc, state[:p] if keep else state[:p - 1] + (0,), state[p + 1:],
                    values, s, box)
            states = nxt
        sliced = {}
        for state, acc in states.items():
            key = state[cut:cut + len(live)]
            sliced[key] = join(sliced[key], acc) if key in sliced else acc
        states = sliced
    return states[()]  # lam in mu admits the filling of each row i by i


def f_map(T: SetValuedTableau) -> BoxSet:
    """f(T) = {(x, x+j-i) : x an entry of box (i,j)}; lands in E_lam(mu)."""
    image = set()
    total = 0
    for (i, j), es in T.cells:
        for x in es:
            image.add((x, x + j - i))
            total += 1
    C = BoxSet(T.geometry, T.ambient, frozenset(image))
    if len(C.boxes) != total:
        raise RuntimeError(f"f is not injective on the entries of {T}")
    return C


def svt_to_json(T: SetValuedTableau) -> dict:
    return {
        "shape": list(T.shape),
        "cells": [{"box": list(b), "set": list(es)} for b, es in T.cells],
    }
