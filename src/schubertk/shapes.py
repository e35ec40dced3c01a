"""Partitions, strict partitions, and their bijections with minimal coset
representatives, including the B_{n-1} <-> D_n fixed-point identification.

Partitions are plain tuples with trailing zeros trimmed.  In types B/C/D the
strict partition of a minimal representative is read off the barred letters
of its window: a part p bars the letter top - p, with top = n + 1 in B/C and
top = n in D (one more than the largest part).  In D the letter n is barred
with no part when the number of parts is odd, which keeps the bar count even.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from operator import le

from .weyl import RootSystem, WeylElement, is_minimal_rep, parabolic_index


def trim(parts) -> tuple:
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(a >= 0 for a in parts)


def is_strict_partition(parts) -> bool:
    parts = trim(parts)
    return all(a > b for a, b in zip(parts, parts[1:] + (0,)))  # positive and strict


def size(parts) -> int:
    return sum(parts)


def part(parts, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return parts[i - 1] if 1 <= i <= len(parts) else 0


def contains(lam, mu) -> bool:
    """Componentwise lam_i <= mu_i; the Bruhat test for these cominuscule cases.

    >>> contains((2, 1), (4, 4, 3))
    True
    >>> contains((3,), (2, 2))
    False
    """
    return all(map(le, lam, mu)) and not any(lam[len(mu):])


def partition_of(v: WeylElement, d: int) -> tuple:
    """Partition of a type A minimal representative in W^{P_d}:
    (lambda_v)_i = v_{d+1-i} - (d+1-i)."""
    if v.rstype.kind != "A":
        raise ValueError("partition_of is the type A bijection; use strict_partition_of")
    if not is_minimal_rep(v, d):
        raise ValueError(f"{v} is not minimal in W^P_{d}")
    return trim(v.window[d - i] - (d + 1 - i) for i in range(1, d + 1))


def perm_of(lam, d: int, n: int) -> WeylElement:
    """Inverse of partition_of: the element of W^{P_d} in A_n with partition
    lam, built by `rep_of`."""
    return rep_of(lam, RootSystem("A", n), d)


def largest_part(rstype: RootSystem) -> int:
    """The largest part of a B/C/D shape: n in B/C, n - 1 in D."""
    return rstype.rank if rstype.kind in ("B", "C") else rstype.rank - 1


def strict_partition_of(w: WeylElement) -> tuple:
    """The strict partition indexing w: a barred letter k gives the part
    top - k, with top = largest_part + 1.

    >>> from schubertk.weyl import RootSystem, parse_window
    >>> strict_partition_of(parse_window(RootSystem("C", 6), "1,4,-6,-5,-3,-2"))
    (5, 4, 2, 1)
    >>> strict_partition_of(parse_window(RootSystem("D", 6), "1,4,-6,-5,-3,-2"))
    (4, 3, 1)
    """
    if w.rstype.kind == "A":
        raise ValueError("expected a type B/C/D element")
    if not is_minimal_rep(w):
        raise ValueError(f"{w} is not minimal in W^P_{w.rstype.rank}")
    top = largest_part(w.rstype) + 1
    parts = (top + t for t in w.window if t < 0)
    return tuple(sorted((p for p in parts if p), reverse=True))  # D drops the letter n's 0


def perm_of_strict(lam, rstype: RootSystem) -> WeylElement:
    """Inverse of strict_partition_of: the minimal representative of a
    type B/C/D rstype with strict partition lam (`rep_of`).

    >>> from schubertk.weyl import RootSystem
    >>> perm_of_strict((5, 4, 2, 1), RootSystem("C", 6))
    WeylElement(C6: 1,4,-6,-5,-3,-2)
    >>> perm_of_strict((4, 3, 1), RootSystem("D", 6))
    WeylElement(D6: 1,4,-6,-5,-3,-2)
    """
    if rstype.kind == "A":
        raise ValueError("perm_of_strict applies to types B/C/D")
    return rep_of(lam, rstype)


def rep_of(lam, rstype: RootSystem, d=None) -> WeylElement:
    """The minimal representative of W^P with shape lam, unchecked as valid
    and minimal by construction: in type A the letters lam_{d+1-i} + i, then
    the rest; in B/C/D the plain letters, then the barred ones largest first.
    ValueError unless lam is a partition in the d x (n - d) box (A) or a
    strict partition with parts <= `largest_part` (B/C/D)."""
    lam, n = trim(lam), rstype.rank
    if rstype.kind == "A":
        d = parabolic_index(rstype, d)
        if not is_partition(lam):
            raise ValueError(f"{lam} is not a partition")
        if len(lam) > d or (lam and lam[0] > n - d):
            raise ValueError(f"{lam} does not fit in a {d}x{n - d} box")
        head = [part(lam, d + 1 - i) + i for i in range(1, d + 1)]
        window = (*head, *sorted(set(range(1, n + 1)).difference(head)))
    else:
        if not is_strict_partition(lam):
            raise ValueError(f"{lam} is not a strict partition")
        bound = largest_part(rstype)
        if lam and lam[0] > bound:
            raise ValueError(f"{lam} does not fit: largest part exceeds {bound}")
        barred = [bound + 1 - p for p in lam]  # ascending
        if rstype.kind == "D" and len(lam) % 2:
            barred.append(n)
        window = (*(k for k in range(1, n + 1) if k not in barred), *(-k for k in reversed(barred)))
    return WeylElement._from_window(rstype, window)


def bd_identify_inverse(u: WeylElement) -> WeylElement:
    """B_n -> D_{n+1}: the representative of D_{n+1} with the strict
    partition of u, the lift that `restriction.Pair.lifted` takes."""
    if u.rstype.kind != "B":
        raise ValueError("bd_identify_inverse expects a type B element")
    return perm_of_strict(strict_partition_of(u), RootSystem("D", u.rstype.rank + 1))


def all_shapes(rstype: RootSystem, d: int = None):
    """All shapes indexing W^P, each descending, by size and then lex order:
    partitions in a d x (n-d) box for type A, strict partitions with parts
    <= n (B/C) or <= n-1 (D)."""
    if rstype.kind == "A":
        rows = parabolic_index(rstype, d)
        parts, choose = range(rstype.rank - rows, 0, -1), combinations_with_replacement
    else:
        parts, choose = range(largest_part(rstype), 0, -1), combinations
        rows = len(parts)
    shapes = [combo for r in range(rows + 1) for combo in choose(parts, r)]
    return sorted(shapes, key=lambda s: (sum(s), s))


def minimal_reps(rstype: RootSystem, d: int = None):
    """All minimal coset representatives, enumerated through their shapes."""
    return [rep_of(lam, rstype, d) for lam in all_shapes(rstype, d)]


def shape_of(w: WeylElement, d: int = None) -> tuple:
    return partition_of(w, d) if w.rstype.kind == "A" else strict_partition_of(w)


def parse_shape(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed shape {text!r}") from None
    if (low := min(parts)) < 0:
        raise ValueError(f"part {low} of {parts} is negative")
    if not is_partition(parts):
        raise ValueError(f"{parts} is not weakly decreasing")
    return trim(parts)


def format_shape(lam) -> str:
    return ",".join(str(a) for a in lam)
