"""(Shifted) Young diagrams, excitation moves, excited-diagram enumeration,
reflection-valued tableaux and their reading words.

Boxes are (row, col) pairs, 1-indexed, rows top to bottom.  Shifted diagrams
store boxes in absolute coordinates with col >= row, in type D as well.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import Record, check_work
from .shapes import contains, is_partition, is_strict_partition, largest_part, trim
from .weyl import RootSystem, parabolic_index

GEOMETRIES = ("ordinary", "shiftedBC", "shiftedD")


def geometry_of(rstype: RootSystem) -> str:
    return {"A": "ordinary", "B": "shiftedBC", "C": "shiftedBC", "D": "shiftedD"}[
        rstype.kind
    ]


def ambient_boxes(mu, geometry: str) -> frozenset:
    """All boxes of D_mu (ordinary) or D'_mu (shifted)."""
    return _boxes_of(trim(mu), geometry)


@lru_cache(maxsize=256)
def _boxes_of(mu: tuple, geometry: str) -> frozenset:
    """ambient_boxes of a trimmed shape, built once for all diagrams in it.
    ValueError unless mu is a partition, a strict one when shifted."""
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    if geometry == "ordinary" and not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    if geometry != "ordinary" and not is_strict_partition(mu):
        raise ValueError(f"{mu} is not a strict partition")
    boxes = set()
    for i, row_len in enumerate(mu, start=1):
        start = 1 if geometry == "ordinary" else i
        boxes.update((i, j) for j in range(start, start + row_len))
    return frozenset(boxes)


class BoxSet(Record, compare=("geometry", "ambient", "boxes")):
    __slots__ = ("geometry", "ambient", "boxes", "order")  # order: the boxes sorted, if known

    def __init__(self, geometry: str, ambient: tuple, boxes: frozenset, order: tuple = None):
        self._set(geometry, trim(ambient), frozenset(boxes), order)
        legal = _boxes_of(self.ambient, self.geometry)
        bad = self.boxes - legal
        if bad:
            raise ValueError(f"boxes {sorted(bad)} outside ambient {self.ambient}")
        if order is not None and order != tuple(sorted(self.boxes)):
            raise ValueError(f"order {order} is not the sorted boxes {sorted(self.boxes)}")

    @classmethod
    def _from_row(cls, geometry: str, ambient: tuple, row: tuple) -> BoxSet:
        """The BoxSet of a sorted row of boxes of the trimmed ambient, without
        the checks of __init__: the rows of `enumerate_eyd` lie in D_mu."""
        C = object.__new__(cls)
        object.__setattr__(C, "geometry", geometry)
        object.__setattr__(C, "ambient", ambient)
        object.__setattr__(C, "boxes", frozenset(row))
        object.__setattr__(C, "order", row)
        return C

    def sorted_boxes(self) -> tuple:
        return self.order if self.order is not None else tuple(sorted(self.boxes))

    def __len__(self):
        return len(self.boxes)

    def __repr__(self):
        return f"BoxSet({self.geometry}, mu={self.ambient}, {sorted(self.boxes)})"


def initial_diagram(lam, mu, geometry: str) -> BoxSet:
    """D_lam embedded box-for-box inside D_mu."""
    if not contains(lam, mu):
        raise ValueError(f"{lam} is not contained in {mu}")
    return BoxSet(geometry, mu, ambient_boxes(lam, geometry))  # BoxSet trims mu


def _needed(box, geometry: str) -> tuple:
    """The boxes that an excitation at box needs free, its target last.  The
    target is one diagonal step down, two on the diagonal of type D."""
    i, j = box
    if geometry == "ordinary" or i != j:
        return (i + 1, j), (i, j + 1), (i + 1, j + 1)
    if geometry == "shiftedBC":
        return (i, i + 1), (i + 1, i + 1)
    return (i, i + 1), (i + 1, i + 1), (i + 1, i + 2), (i + 2, i + 2)


def enumerate_eyd(lam, mu, geometry: str, reduced_only: bool = False) -> list:
    """All excited Young diagrams of D_lam in D_mu, by BFS over excitations.

    A diagram is an int with one bit per box of D_mu, in sorted box order.
    An excitation needs the boxes of `_needed` free inside D_mu; a move
    (type 1) takes the box to the target, an add (type 2) keeps it.  With
    reduced_only, only moves are applied, which yields the reduced excited
    diagrams.  Output is deduplicated and sorted by box list.  The number of
    diagrams kept passes `check_work` before each is expanded, with no remedy.

    >>> reduced = enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC", reduced_only=True)
    >>> len(reduced), len(enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC"))
    (4, 7)
    >>> reduced[-1].sorted_boxes()
    ((2, 2), (2, 3), (3, 3))
    """
    start = initial_diagram(lam, mu, geometry)
    order = sorted(_boxes_of(start.ambient, geometry))
    bit = {box: 1 << k for k, box in enumerate(order)}
    moves = []  # (bit of the box, mask that must be free, bit of the target)
    for box in order:
        needed = _needed(box, geometry)
        if all(b in bit for b in needed):
            moves.append((bit[box], sum(bit[b] for b in needed), bit[needed[-1]]))
    kinds = 1 if reduced_only else 2
    frontier = [sum(bit[b] for b in start.boxes)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for m in frontier:
            check_work(len(seen))  # no remedy for a listing
            for b, need, target in moves:
                if m & b and not m & need:
                    for new in (m ^ b | target, m | target)[:kinds]:
                        if new not in seen:
                            seen.add(new)
                            nxt.append(new)
        frontier = nxt
    # each row walks the set bits of its mask, lowest first: ascending bits
    # sort as the boxes do, so each row is sorted
    box_of = {b: box for box, b in bit.items()}
    rows = []
    for m in seen:
        row = []
        while m:
            low = m & -m
            row.append(box_of[low])
            m ^= low
        rows.append(tuple(row))
    rows.sort()
    return [BoxSet._from_row(geometry, start.ambient, row) for row in rows]


class ReflectionTableau(Record, compare=("rstype", "d", "mu", "geometry")):
    """The filling T_mu (or T'_mu) together with its reading order.

    reading_boxes lists boxes bottom row first, right to left within a row;
    positions into the reading word are 1-based throughout.
    """

    __slots__ = ("rstype", "d", "mu", "geometry", "entries", "reading_boxes")

    def __init__(self, rstype: RootSystem, d: int, mu: tuple, geometry: str,
                 entries: dict, reading_boxes: tuple):
        self._set(rstype, d, mu, geometry, entries, reading_boxes)

    def letter(self, box) -> int:
        return self.entries[box]


def reflection_tableau(mu, rstype: RootSystem, d: int = None) -> ReflectionTableau:
    """Fill D_mu with simple reflections so that the reading word is reduced."""
    mu = trim(mu)
    n = rstype.rank
    kind = rstype.kind
    geometry = geometry_of(rstype)
    d = parabolic_index(rstype, d)
    if kind == "A":
        if len(mu) > d or (mu and mu[0] > n - d):
            raise ValueError(f"{mu} does not fit in a {d}x{n - d} box")
    else:
        bound = largest_part(rstype)
        if mu and mu[0] > bound:
            raise ValueError(f"{mu} does not fit: largest part exceeds {bound}")
    entries = {}
    for box in _boxes_of(mu, geometry):
        i, j = box
        if kind == "A":
            entries[box] = d + j - i
        elif kind in ("B", "C"):
            entries[box] = n + i - j
        elif i == j:
            entries[box] = n if i % 2 == 1 else n - 1
        else:
            entries[box] = n + i - (j + 1)
    reading = tuple(
        sorted(entries, key=lambda b: (-b[0], -b[1]))
    )
    return ReflectionTableau(rstype, d, mu, geometry, entries, reading)


def reading_word(T: ReflectionTableau) -> tuple:
    return tuple(T.entries[b] for b in T.reading_boxes)


def boxset_to_json(C: BoxSet) -> dict:
    return {"ambient": list(C.ambient), "boxes": [list(b) for b in C.sorted_boxes()]}


def boxset_to_tikz(C: BoxSet) -> str:
    """A minimal TikZ picture: ambient outline plus shaded boxes."""
    lines = [r"\begin{tikzpicture}[scale=.4]"]
    height = len(C.ambient)
    for (i, j) in sorted(_boxes_of(C.ambient, C.geometry)):  # trimmed by BoxSet
        y = height - i
        fill = "[fill=blue!30]" if (i, j) in C.boxes else ""
        lines.append(
            rf"\draw{fill} ({j - 1},{y}) rectangle ({j},{y + 1});"
        )
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines)
