"""Classical root systems and Weyl groups of types A, B, C and D.

Elements are stored as signed one-line windows: type A uses a plain
permutation ``(w_1, ..., w_n)`` of ``{1, ..., n}``, while types B, C and D
use the first half of the symmetric 2n-window, with a negative entry ``-k``
standing for the barred letter.

Group elements act on weights on the left, and a product ``u * w`` applies
``w`` first.  A word ``(i_1, ..., i_l)`` therefore denotes the element
``s_{i_1} s_{i_2} ... s_{i_l}`` in which ``s_{i_l}`` acts first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .ring import Record, check_work

KINDS = ("A", "B", "C", "D")

Weight = tuple  # integer vector of length rank, coefficients of eps_1..eps_rank

CACHE_SIZE = 4096  # per-element caches; a sweep of a small rank uses < 1000 elements


class RootSystem(Record):
    __slots__ = ("kind", "rank")

    def __init__(self, kind: str, rank: int):
        self._set(kind, rank)
        if self.kind not in KINDS:
            raise ValueError(f"unknown root system kind {self.kind!r}")
        if self.rank < 2:
            raise ValueError(f"rank must be at least 2, got {self.rank}")
        if self.kind == "D" and self.rank < 3:
            raise ValueError("type D requires rank at least 3")
        n = self.rank  # a pair's rank-tuple lists, each at most |Phi+| long, must fit the budget
        positive = {"A": n * (n - 1) // 2, "D": n * (n - 1)}.get(self.kind, n * n)
        check_work(n * positive, f"coordinates in the positive roots of {self.kind}{n}",
                   "lower the rank")

    @property
    def num_simple(self) -> int:
        """Number of simple roots (n-1 for type A in its rank-n ambient)."""
        return self.rank - 1 if self.kind == "A" else self.rank

    def __repr__(self):
        return f"RootSystem({self.kind!r}, {self.rank})"


root_system = lru_cache(maxsize=64)(RootSystem)  # (kind, rank) -> its one RootSystem


def simple_roots(rstype: RootSystem) -> list:
    """Simple roots in index order, as integer coordinate vectors."""
    n = rstype.rank
    roots = []
    for i in range(1, n):
        v = [0] * n
        v[i - 1], v[i] = 1, -1
        roots.append(tuple(v))
    if rstype.kind == "B":
        v = [0] * n
        v[n - 1] = 1
        roots.append(tuple(v))
    elif rstype.kind == "C":
        v = [0] * n
        v[n - 1] = 2
        roots.append(tuple(v))
    elif rstype.kind == "D":
        v = [0] * n
        v[n - 2], v[n - 1] = 1, 1
        roots.append(tuple(v))
    return roots


class WeylElement(Record):
    __slots__ = ("rstype", "window")

    def __init__(self, rstype: RootSystem, window: tuple):
        n = rstype.rank
        win = tuple(window)
        self._set(rstype, win)
        if len(win) != n:
            raise ValueError(f"window length {len(win)} != rank {n}")
        if sorted(abs(t) for t in win) != list(range(1, n + 1)):
            raise ValueError(f"window {win} is not a signed permutation of 1..{n}")
        kind = self.rstype.kind
        negatives = sum(1 for t in win if t < 0)
        if kind == "A" and negatives:
            raise ValueError("type A windows carry no signs")
        if kind == "D" and negatives % 2:
            raise ValueError(f"type D window {win} has an odd number of barred entries")

    @classmethod
    def _from_window(cls, rstype: RootSystem, window: tuple) -> WeylElement:
        """The element of a window set without the checks of __init__: for
        the windows `shapes.rep_of` builds, valid by construction."""
        u = object.__new__(cls)
        object.__setattr__(u, "rstype", rstype)
        object.__setattr__(u, "window", window)
        return u

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return mult(self, other)

    def __repr__(self):
        return f"WeylElement({self.rstype.kind}{self.rstype.rank}: {format_window(self)})"


def simple_reflection(rstype: RootSystem, i: int) -> WeylElement:
    """The i-th simple reflection as a window, 1-based index."""
    if not 1 <= i <= rstype.num_simple:
        raise ValueError(f"simple reflection index {i} out of range for {rstype}")
    return WeylElement(rstype, window_right_mult(rstype.kind, tuple(range(1, rstype.rank + 1)), i))


def apply(w: WeylElement, mu: Weight) -> Weight:
    """Signed-permutation action on a weight: eps_i -> sign(w_i) eps_|w_i|."""
    n = w.rstype.rank
    if len(mu) != n:
        raise ValueError(f"weight length {len(mu)} != rank {n}")
    return window_apply(w.window, mu)


def mult(u: WeylElement, w: WeylElement) -> WeylElement:
    """Group product u*w, with w acting first."""
    if u.rstype != w.rstype:
        raise ValueError(f"type mismatch: {u.rstype} vs {w.rstype}")
    uw = u.window
    out = []
    for t in w.window:
        r = uw[abs(t) - 1]
        out.append(r if t > 0 else -r)
    return WeylElement(u.rstype, tuple(out))


def inverse(w: WeylElement) -> WeylElement:
    return WeylElement(w.rstype, window_inverse(w.window))


@lru_cache(maxsize=CACHE_SIZE)
def reduced_word(w: WeylElement) -> tuple:
    """A reduced word for w found by greedy left-descent reduction.

    The returned word ``(i_1, ..., i_l)`` satisfies
    ``w = s_{i_1} s_{i_2} ... s_{i_l}`` under the apply-rightmost-first
    convention; its length is the Coxeter length of w.

    >>> reduced_word(parse_window(RootSystem("C", 3), "2,-3,1"))
    (1, 3, 2)
    """
    kind, simple = w.rstype.kind, range(1, w.rstype.num_simple + 1)
    x, letters = window_inverse(w.window), []  # u's left descents are x = u^-1's right descents
    while i := next((i for i in simple if not window_right_ascent(kind, x, i)), None):
        letters.append(i)
        x = window_right_mult(kind, x, i)
    return tuple(letters)


def length(w: WeylElement) -> int:
    """l(w), the positive roots that w sends negative, counted on the window:
    for i < j, w(eps_i - eps_j) < 0 iff w_i follows w_j in the order 1 < ...
    < n < -n < ... < -1 (`window_levi_ascent`), and w(eps_i + eps_j) < 0 iff
    the entry of smaller |.| is barred; in B and C each barred entry adds 1."""
    win, m = w.window, 2 * w.rstype.rank + 1
    count = sum(t < 0 for t in win) if w.rstype.kind in "BC" else 0
    return count + sum((a % m > b % m) + ((a if abs(a) < abs(b) else b) < 0)
                       for a, b in combinations(win, 2))


def parabolic_index(rstype: RootSystem, d) -> int:
    """d in type A, ValueError unless 1 <= d <= n - 1; n in types B/C/D."""
    if rstype.kind != "A":
        return rstype.rank
    if d is None or not 1 <= d <= rstype.rank - 1:
        raise ValueError(f"type A needs 1 <= d <= {rstype.rank - 1}, got {d}")
    return d


def is_minimal_rep(w: WeylElement, d=None) -> bool:
    """Test membership in W^P: the d-th maximal parabolic in type A, P_n
    otherwise (types B/C/D ignore d).  w is minimal iff every s_i of the
    Levi, i != the parabolic index, is a right ascent of w."""
    return window_levi_ascent(w.rstype.kind, w.window, parabolic_index(w.rstype, d))


def negate_weight(a: Weight) -> Weight:
    return tuple(-x for x in a)


def parse_window(rstype: RootSystem, text: str) -> WeylElement:
    """Parse a comma-separated signed window such as "2,-4,-3,-1"."""
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed window {text!r}") from None
    return WeylElement(rstype, entries)


def format_window(w: WeylElement) -> str:
    return ",".join(str(t) for t in w.window)


def format_weight(mu: Weight, latex: bool = False) -> str:
    """Render a weight like "ε_1-ε_3" (or its LaTeX form), positive part first."""
    pos = [weight_piece(i, c, latex) for i, c in enumerate(mu, start=1) if c > 0]
    neg = [weight_piece(i, c, latex) for i, c in enumerate(mu, start=1) if c < 0]
    return "".join(pos + neg)[1:] if pos else ("".join(neg) or "0")


def weight_piece(i: int, c: int, latex: bool = False) -> str:
    """The signed term c eps_i, c != 0, of a rendered weight, like "+2ε_1"."""
    mag = "" if abs(c) == 1 else str(abs(c))
    sym = r"\epsilon_" if latex else "ε_"
    return f"{'-' if c < 0 else '+'}{mag}{sym}{i}"


# Window-level helpers, the group's one action on weights, ascent tests,
# inverse and right product, used by `reduced_word`, `is_minimal_rep`,
# `simple_reflection`, the 0-Hecke fold and `restriction`'s roots and
# weights; the tuple is always a valid window.

def window_image(win: tuple, terms) -> Weight:
    """u(sum of c eps_{k+1} over the (k, c) in terms), u the element of win:
    one entry read per term, as u(eps_k) = sgn(u_k) eps_|u_k|, and repeated
    positions summed (type C's 2 eps_k may come as two terms)."""
    out = [0] * len(win)
    for k, c in terms:
        t = win[k]
        if t > 0:
            out[t - 1] += c
        else:
            out[-t - 1] -= c
    return tuple(out)


def window_apply(win: tuple, mu: Weight) -> Weight:
    """The action of :func:`apply` on a bare window."""
    return window_image(win, enumerate(mu))


def window_inverse(win: tuple) -> tuple:
    """The window of the inverse element."""
    out = [0] * len(win)
    for i, t in enumerate(win, start=1):
        out[abs(t) - 1] = i if t > 0 else -i
    return tuple(out)


def window_right_mult(kind: str, win: tuple, i: int) -> tuple:
    """win * s_i (acts on positions)."""
    n = len(win)
    w = list(win)
    if i < n:
        w[i - 1], w[i] = w[i], w[i - 1]
    elif kind in ("B", "C"):
        w[n - 1] = -w[n - 1]
    else:  # type D
        w[n - 2], w[n - 1] = -w[n - 1], -w[n - 2]
    return tuple(w)


def window_right_ascent(kind: str, win: tuple, i: int) -> bool:
    """True iff l(w s_i) > l(w), i.e. w(alpha_i) is a positive root."""
    n = len(win)
    if i < n:
        a, b = win[i - 1], win[i]
        # w(alpha_i) = sgn(a) eps_|a| - sgn(b) eps_|b|; the smaller index wins
        if abs(a) < abs(b):
            return a > 0
        return b < 0
    if kind in ("B", "C"):
        return win[n - 1] > 0
    # type D: w(alpha_n) = sgn(a) eps_|a| + sgn(b) eps_|b|
    a, b = win[n - 2], win[n - 1]
    return a > 0 if abs(a) < abs(b) else b > 0


def window_levi_ascent(kind: str, win: tuple, skip: int) -> bool:
    """True iff s_i is a right ascent for every i < len(win) other than skip,
    in one pass over the window: w(alpha_i) is positive iff win[i - 1]
    precedes win[i] in the order 1 < ... < n < -n < ... < -1, x mod 2n + 1,
    so the entries must increase in it on either side of position skip."""
    keys = list(win) if kind == "A" else [x % (2 * len(win) + 1) for x in win]
    left, right = keys[:skip], keys[skip:]
    return left == sorted(left) and right == sorted(right)
