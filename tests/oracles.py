"""Reference implementations that the tests check the library against.

None of them is called by the library: each restates a definition of the
paper (the Demazure product, a reflection, a greedy reduced word, the
r-values and the tangent weights through the root action, minimality read
off the 2n-window, the window of a shape built by sorting, containment read
row by row, excitation moves, the restriction condition on tableaux, the
inverse of f, full commutativity, a sum of products multiplied out term by
term, a packed key read digit by digit, a coordinate cut out of a key digit
by digit, a geometric series convolved power by power, xi built in
Fractions, the positive roots listed whole, the type A class at a point as
the factorial Grothendieck bialternant in v's window), is the geometric
expansion of an expanded numerator graded along xi in Fractions
(`geometric_expand`, which the library carried before it graded xi in
integers on the `Pair`),
is the character as it was built from the whole svt class before its
numerator was truncated in the DP, is the argparse parser the CLI replaced
by its option table, is the dict-keyed count step the packed counts
replaced (run per maximum over the transfer DP), is the backtracking
tableau enumerator the listing through the transfer DP replaced, is the
renderer that formatted a polynomial monomial by monomial before the
renderer kept prefixes, is the hecke class over any reduced word for v (the
library's `r_values` and `fold_dp` on a given word, where the library reads
only the reading word of T_mu), which reduced-word independence is checked
with, or is a tool the tests need (energies, JSON readers, the grading of a
polynomial along xi, a polynomial evaluated and a determinant taken mod p).
"""

import argparse
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

from schubertk.diagrams import BoxSet, ReflectionTableau, ambient_boxes
from schubertk.hecke import fold_dp
from schubertk.restriction import Pair, _span_bound, pair_class, r_values
from schubertk.ring import (
    DIGIT,
    LIMIT,
    GradedSeries,
    LaurentPoly,
    add_binomial_into,
    add_into,
    expand_graded,
    pack,
    series_span,
    signed_sum,
    specialize_zero,
    unpack_all,
)
from schubertk.shapes import contains, part, size, trim
from schubertk.tableaux import SetValuedTableau, _transfer, f_map
from schubertk.weyl import (
    CACHE_SIZE,
    RootSystem,
    WeylElement,
    apply,
    format_weight,
    inverse,
    is_minimal_rep,
    length,
    mult,
    negate_weight,
    parabolic_index,
    reduced_word,
    simple_reflection,
    simple_roots,
    window_apply,
    window_right_mult,
)

MAX_COMMUTATION_CLASS = 200000


# -- Weyl groups and 0-Hecke folds ------------------------------------------

def identity(rstype: RootSystem) -> WeylElement:
    return WeylElement(rstype, tuple(range(1, rstype.rank + 1)))


def eps_of_entry(x: int, n: int) -> tuple:
    """The weight eps_x for an entry of a 2n-window, with eps_bar(m) = -eps_m."""
    v = [0] * n
    if x <= n:
        v[x - 1] = 1
    else:
        v[2 * n - x] = -1
    return tuple(v)


def reflection(rstype: RootSystem, alpha) -> WeylElement:
    """The reflection in the root alpha, read off its action on each eps_k:
    eps_k - 2 (eps_k, alpha) / (alpha, alpha) alpha, which is +-eps_j."""
    norm = sum(a * a for a in alpha)
    win = []
    for k in range(rstype.rank):
        image = [(j == k) - 2 * alpha[k] * a // norm for j, a in enumerate(alpha)]
        j = next(j for j, c in enumerate(image) if c)
        win.append((j + 1) * image[j])
    return WeylElement(rstype, tuple(win))


def is_positive_root_vector(v) -> bool:
    """In all four types a root is positive iff its first nonzero coordinate is."""
    for c in v:
        if c:
            return c > 0
    raise ValueError("zero vector is not a root")


def positive_roots(rstype: RootSystem) -> list:
    """Every positive root, listed whole: eps_i - eps_j for i < j, and outside
    type A also eps_i + eps_j for i < j, eps_i in type B and 2 eps_i in type C."""
    n, kind = rstype.rank, rstype.kind
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-1,) if kind == "A" else (-1, 1):
                v = [0] * n
                v[i], v[j] = 1, sign
                out.append(tuple(v))
        if kind in "BC":
            v = [0] * n
            v[i] = 1 if kind == "B" else 2
            out.append(tuple(v))
    return out


def reference_r_values(word, rstype: RootSystem) -> list:
    """r(c) along a word through the whole root vectors: the prefix applied
    to the vector alpha_{i_c}, and its sign read off the first nonzero
    coordinate."""
    alphas = simple_roots(rstype)
    win = tuple(range(1, rstype.rank + 1))
    out = []
    for c, i in enumerate(word):
        if not 1 <= i <= rstype.num_simple:
            raise ValueError(f"letter {i} out of range for {rstype}")
        r = window_apply(win, alphas[i - 1])
        if not is_positive_root_vector(r):
            raise ValueError(f"word is not reduced: r({c + 1}) is a negative root")
        out.append(r)
        win = window_right_mult(rstype.kind, win, i)
    return out


def levi_complement_roots(rstype: RootSystem, d: int = None) -> list:
    """Positive roots of g outside the Levi of the maximal parabolic: the
    eps_i - eps_j with i <= d < j in type A, else the eps_i + eps_j with
    i < j, and with i = j also 2 eps_i in type C and eps_i in type B."""
    n, kind = rstype.rank, rstype.kind
    if kind == "A":
        d = parabolic_index(rstype, d)
        pairs = [(i, j) for i in range(d) for j in range(d, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + (kind == "D"), n)]
    out = []
    for i, j in pairs:
        v = [0] * n
        v[i] += 1
        v[j] += -1 if kind == "A" else int(i != j or kind == "C")
        out.append(tuple(v))
    return out


def reference_tangent_weights(rstype: RootSystem, d, v: WeylElement) -> list:
    """v applied to minus each root of `levi_complement_roots`, in its order."""
    return [apply(v, negate_weight(beta)) for beta in levi_complement_roots(rstype, d)]


def reference_reduced_word(w: WeylElement) -> tuple:
    """The greedy reduced word by root vectors, as `reduced_word` found it
    before the window ascent test: the least i with l(s_i u) < l(u), i.e.
    u^{-1}(alpha_i) negative, taken until u is the identity."""
    rs = w.rstype
    alphas = simple_roots(rs)
    letters = []
    u, uinv = w, inverse(w)
    while u != identity(rs):
        i = next(i for i in range(1, rs.num_simple + 1)
                 if not is_positive_root_vector(apply(uinv, alphas[i - 1])))
        s = reflection(rs, alphas[i - 1])
        u, uinv = mult(s, u), mult(uinv, s)
        letters.append(i)
    return tuple(letters)


def full_window(w: WeylElement) -> tuple:
    """The numeric window: the 2n-window for B/C/D (bar(k) = 2n+1-k), w itself for A."""
    if w.rstype.kind == "A":
        return w.window
    n = w.rstype.rank
    first = tuple(t if t > 0 else 2 * n + 1 + t for t in w.window)
    return first + tuple(2 * n + 1 - t for t in reversed(first))


def reference_is_minimal_rep(w: WeylElement, d=None) -> bool:
    """Membership in W^P by the 2n-window: increasing on the first n entries
    (B/C/D), or on both sides of position d (A); barred letters count as large."""
    skip = d - 1 if w.rstype.kind == "A" else None
    full = full_window(w)
    return all(full[i] < full[i + 1] for i in range(w.rstype.rank - 1) if i != skip)


def demazure_fold(word, rstype: RootSystem) -> WeylElement:
    """Fold H_{s_1}...H_{s_q} right to left through the root action; the
    empty word folds to the identity."""
    for i in word:
        if not 1 <= i <= rstype.num_simple:
            raise ValueError(f"letter {i} out of range for {rstype}")
    alphas = simple_roots(rstype)
    u = uinv = identity(rstype)
    for i in reversed(word):
        # l(s_i u) > l(u) iff u^{-1}(alpha_i) is positive
        if is_positive_root_vector(apply(uinv, alphas[i - 1])):
            s = simple_reflection(rstype, i)
            u, uinv = mult(s, u), mult(uinv, s)
    return u


@lru_cache(maxsize=CACHE_SIZE)
def m_order(rstype: RootSystem, i: int, j: int) -> int:
    """Order of s_i s_j in W, derived from the root system rather than a table."""
    st = mult(simple_reflection(rstype, i), simple_reflection(rstype, j))
    u, m = st, 1
    ident = identity(rstype)
    while u != ident:
        u = mult(st, u)
        m += 1
    return m


def commutation_class(word, rstype: RootSystem) -> list:
    """All words reachable from a reduced word by swapping adjacent commuting
    letters; RuntimeError past MAX_COMMUTATION_CLASS words."""
    word = tuple(word)
    if length(demazure_fold(word, rstype)) != len(word):
        raise ValueError(f"word {word} is not reduced")
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for k in range(len(cur) - 1):
            a, b = cur[k], cur[k + 1]
            if a != b and m_order(rstype, a, b) == 2:
                nxt = cur[:k] + (b, a) + cur[k + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    if len(seen) > MAX_COMMUTATION_CLASS:
                        raise RuntimeError("commutation class too large")
    return sorted(seen)


def _has_braid_factor(word, rstype: RootSystem) -> bool:
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a == b:
            continue
        m = m_order(rstype, a, b)
        if m < 3 or k + m > len(word):
            continue
        if all(word[k + t] == (a if t % 2 == 0 else b) for t in range(m)):
            return True
    return False


def is_fully_commutative(w: WeylElement) -> bool:
    """True iff no word in the commutation class of a reduced word for w
    contains a braid factor s,t,s,... of length m(s,t) >= 3 (Stembridge's
    criterion)."""
    rs = w.rstype
    return not any(
        _has_braid_factor(word, rs) for word in commutation_class(reduced_word(w), rs)
    )


# -- partitions -------------------------------------------------------------

def transpose(lam) -> tuple:
    """Column lengths of the diagram."""
    lam = trim(lam)
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= j) for j in range(1, lam[0] + 1))


def reference_rep_of(lam, rstype: RootSystem, d=None) -> WeylElement:
    """The checked minimal representative of a valid shape: type A sorts
    the letters lam_i + d + 1 - i and takes the rest in order; B/C/D takes
    the plain letters ascending, then the barred ones by a sort."""
    n = rstype.rank
    if rstype.kind == "A":
        head = sorted(part(lam, i) + (d + 1 - i) for i in range(1, d + 1))
        return WeylElement(rstype, tuple(head + sorted(set(range(1, n + 1)) - set(head))))
    top = n + 1 if rstype.kind in "BC" else n
    barred = {top - p for p in lam} | ({n} if rstype.kind == "D" and len(lam) % 2 else set())
    plain = [k for k in range(1, n + 1) if k not in barred]
    return WeylElement(rstype, tuple(plain + [-k for k in sorted(barred, reverse=True)]))


def bd_identify(w: WeylElement) -> WeylElement:
    """D_n -> B_{n-1}: delete the entry of absolute value n from the window."""
    if w.rstype.kind != "D":
        raise ValueError("bd_identify expects a type D element")
    if not is_minimal_rep(w):
        raise ValueError(f"{w} is not minimal in W^P_{w.rstype.rank}")
    n = w.rstype.rank
    win = tuple(t for t in w.window if abs(t) != n)
    return WeylElement(RootSystem("B", n - 1), win)


# -- excited Young diagrams -------------------------------------------------

def excite(C: BoxSet, box, kind) -> BoxSet | None:
    """One excitation of C at box, or None when it is blocked.

    The boxes right of and below box (the diagonal rule of B/C and the
    two-step diagonal rule of D in the shifted geometries) must be free
    inside the ambient; a type 1 excitation moves box to the last of them,
    a type 2 excitation adds that box.
    """
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown excitation kind {kind!r}")
    if box not in C.boxes:
        raise ValueError(f"box {box} not in the diagram")
    i, j = box
    if C.geometry == "ordinary" or i != j:
        free = [(i + 1, j), (i, j + 1), (i + 1, j + 1)]
    elif C.geometry == "shiftedBC":
        free = [(i, i + 1), (i + 1, i + 1)]
    else:
        free = [(i, i + 1), (i + 1, i + 1), (i + 1, i + 2), (i + 2, i + 2)]
    legal = ambient_boxes(C.ambient, C.geometry)
    if any(b not in legal or b in C.boxes for b in free):
        return None
    kept = C.boxes - {box} if kind == "type1" else C.boxes
    return BoxSet(C.geometry, C.ambient, kept | {free[-1]})


def energies(C: BoxSet, lam) -> tuple:
    """(e1, e2): the type 1 and type 2 energies of C relative to lam."""
    lam = trim(lam)
    dl = ambient_boxes(lam, C.geometry)

    def weight(boxes):
        if C.geometry == "shiftedD":
            return sum(i + j if i < j else i for (i, j) in boxes)
        return sum(i + j for (i, j) in boxes)

    return Fraction(weight(C.boxes) - weight(dl), 2), len(C.boxes) - size(lam)


def subword_of(C: BoxSet, T: ReflectionTableau) -> tuple:
    """Reading-order positions of the boxes of C, 1-based."""
    if not C.boxes <= frozenset(T.reading_boxes):
        raise ValueError("diagram does not sit inside the tableau shape")
    return tuple(pos for pos, box in enumerate(T.reading_boxes, start=1) if box in C.boxes)


def boxset_from_json(data: dict, geometry: str) -> BoxSet:
    return BoxSet(geometry, tuple(data["ambient"]), frozenset(tuple(b) for b in data["boxes"]))


# -- set-valued tableaux ----------------------------------------------------

def restricted(geometry: str, mu, x: int, i: int, j: int) -> bool:
    """Entry x of box (i, j) is restricted by mu: x + j - i <= mu_x
    (ordinary) or j - i <= mu_x - 1 (shifted); a type D diagonal entry also
    keeps the parity of its row, since diagonal excitations move two steps."""
    if geometry == "ordinary":
        return x + j - i <= part(mu, x)
    if geometry == "shiftedD" and i == j and (x - i) % 2:
        return False
    return j - i <= part(mu, x) - 1


def reference_enumerate_svt(lam, mu, geometry: str, d: int = None,
                            single_valued_only: bool = False) -> list:
    """`enumerate_svt` as a backtracker over the boxes in row-major order:
    the entries of a box run over {1..d} (or mu's rows), restricted by mu
    and bounded below by the row and column neighbours."""
    lam, mu = trim(lam), trim(mu)
    if not contains(lam, mu):
        raise ValueError(f"{lam} is not contained in {mu}")
    boxes = sorted(ambient_boxes(lam, geometry))
    top = d if d is not None else len(mu)
    values = {(i, j): [x for x in range(1, top + 1) if restricted(geometry, mu, x, i, j)]
              for i, j in boxes}
    out = []
    filled = {}

    def allowed_values(i, j):
        lo = 0
        left = filled.get((i, j - 1))
        if left:
            lo = left[-1]
        above = filled.get((i - 1, j))
        if above:
            lo = max(lo, above[-1] + 1)
        return [x for x in values[i, j] if x >= lo]

    def subsets(xs):
        if single_valued_only:
            return [(x,) for x in xs]
        return [tuple(x for b, x in enumerate(xs) if mask >> b & 1)
                for mask in range(1, 1 << len(xs))]

    def rec(k):
        if k == len(boxes):
            out.append(SetValuedTableau(geometry, lam, mu, tuple(filled.items())))
            return
        i, j = boxes[k]
        for subset in subsets(allowed_values(i, j)):
            filled[(i, j)] = subset
            rec(k + 1)
        filled.pop((i, j), None)

    rec(0)
    out.sort(key=lambda T: T.cells)
    return out


def is_restricted(T: SetValuedTableau) -> bool:
    return all(restricted(T.geometry, T.ambient, x, i, j) for (i, j), es in T.cells for x in es)


def is_semistandard(T: SetValuedTableau) -> bool:
    by_box = dict(T.cells)
    for (i, j), es in T.cells:
        right = by_box.get((i, j + 1))
        if right is not None and max(es) > min(right):
            return False
        below = by_box.get((i + 1, j))
        if below is not None and max(es) >= min(below):
            return False
    return True


def top_tableau(lam, mu, geometry: str) -> SetValuedTableau:
    """T^top: every box of row i holds the single entry i; f maps it to D_lam."""
    cells = tuple((box, (box[0],)) for box in ambient_boxes(lam, geometry))
    return SetValuedTableau(geometry, trim(lam), trim(mu), cells)


def f_inverse(C: BoxSet, lam) -> SetValuedTableau:
    """The unique T with f(T) = C, filled one diagonal at a time from the top.

    Follows the constructive uniqueness argument: an entry x on diagonal q
    goes into the single box of lam's diagonal q compatible with the already
    filled diagonal q+1.
    """
    lam = trim(lam)
    shape_boxes = ambient_boxes(lam, C.geometry)
    filled = {}
    for q in sorted({j - i for (i, j) in shape_boxes}, reverse=True):
        lam_boxes = sorted(b for b in shape_boxes if b[1] - b[0] == q)
        for x in sorted(i for (i, j) in C.boxes if j - i == q):
            spot = None
            for (i, j) in lam_boxes:
                above_right = filled.get((i - 1, j))
                if above_right is not None and x <= max(above_right):
                    continue
                right = filled.get((i, j + 1))
                if right is not None and x > min(right):
                    continue
                spot = (i, j)
                break
            if spot is None:
                raise ValueError(f"{C} is not in the image of f for shape {lam}")
            filled.setdefault(spot, []).append(x)
    if set(filled) != shape_boxes:
        raise ValueError(f"{C} is not in the image of f for shape {lam}")
    T = SetValuedTableau(
        C.geometry, lam, C.ambient, tuple((b, tuple(es)) for b, es in filled.items())
    )
    if not is_semistandard(T) or not is_restricted(T) or f_map(T).boxes != C.boxes:
        raise ValueError(f"{C} is not in the image of f for shape {lam}")
    return T


def excite_tableau(T: SetValuedTableau, box, x: int, kind: str):
    """One tableau excitation in the ordinary geometry.

    Type 1 replaces x by x+1 in the box, type 2 adds x+1; both need x+1 absent
    from the box and its neighbours and the restriction bound to keep holding.
    """
    if T.geometry != "ordinary":
        raise ValueError("tableau excitations are defined for the ordinary geometry")
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown excitation kind {kind!r}")
    i, j = box
    by_box = dict(T.cells)
    es = by_box.get((i, j), ())
    if x not in es:
        raise ValueError(f"entry {x} not in box {box}")
    if x in by_box.get((i, j + 1), ()):
        return None
    if x + 1 in es or x + 1 in by_box.get((i + 1, j), ()):
        return None
    if not restricted("ordinary", T.ambient, x + 1, i, j):
        return None
    new = set(es)
    if kind == "type1":
        new.remove(x)
    new.add(x + 1)
    by_box[(i, j)] = tuple(sorted(new))
    T2 = SetValuedTableau(T.geometry, T.shape, T.ambient, tuple(by_box.items()))
    return T2 if is_semistandard(T2) else None


def svt_from_json(data: dict, geometry: str, mu) -> SetValuedTableau:
    cells = tuple((tuple(cell["box"]), tuple(cell["set"])) for cell in data["cells"])
    return SetValuedTableau(geometry, tuple(data["shape"]), trim(mu), cells)


def reference_contains(lam, mu) -> bool:
    """`shapes.contains` row by row, a missing row of mu read as 0 by
    `part`: the generator the library's C-speed test replaced."""
    return all(a <= part(mu, i) for i, a in enumerate(lam, start=1))


# -- sums of products -------------------------------------------------------

def sum_of_products(terms, rank: int) -> dict:
    """sum over terms of prod_g (e^g - 1), each term multiplied out on its
    own in exponent tuples, as {exponent: coefficient} without zeros."""
    total = Counter()
    for term in terms:
        prod = {(0,) * rank: 1}
        for g in term:
            nxt = Counter()
            for e, c in prod.items():
                nxt[tuple(a + b for a, b in zip(e, g))] += c
                nxt[e] -= c
            prod = nxt
        for e, c in prod.items():
            total[e] += c
    return {e: c for e, c in total.items() if c}


def pullback_hecke_with_word(rstype: RootSystem, w: WeylElement, word) -> LaurentPoly:
    """The hecke class over an arbitrary reduced word for v, signed by l(w):
    the sum over the subwords of word that fold to w of prod (e^{-r} - 1),
    by the library's `r_values` and `fold_dp`."""
    exps = [negate_weight(r) for r in r_values(word, rstype)]
    span = _span_bound(exps)
    packed = fold_dp(w, word, list(map(pack, exps)), add_binomial_into, add_into)
    return LaurentPoly.from_packed(rstype.rank, packed, span) * (-1) ** length(w)


# -- the class at a point, mod a prime ---------------------------------------

P61 = (1 << 61) - 1


def value_at(poly: LaurentPoly, t, p: int = P61) -> int:
    """The Laurent polynomial at e^{eps_l} = t[l - 1], mod p."""
    total = 0
    for exponent, c in poly.terms.items():
        for x, e in zip(t, exponent):
            c = c * pow(x, e, p) % p
        total += c
    return total % p


def det_mod(rows, p: int) -> int:
    """The determinant of a square matrix mod p, by elimination."""
    rows, det = [list(r) for r in rows], 1
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k] % p), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k] % p
        inv = pow(rows[k][k], -1, p)
        for r in range(k + 1, len(rows)):
            f = rows[r][k] * inv % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[k])]
    return det % p


def closed_form_value(pair: Pair, t, p: int = P61) -> int:
    """psi^lam(v) at e^{eps_l} = t[l - 1], mod p, in type A: the factorial
    Grothendieck bialternant (McNamara 2006; Ikeda-Naruse 2013)
    det[X_j^{i-1} prod_{l <= lam_i + d - i} (1 - X_j / t_l)]_{i,j <= d}
    / prod_{i < j} (X_j - X_i), with X_j = t_{v_j} over the first d letters
    of v's window.  It reads v's window and lam alone: no diagram, tableau,
    reduced word or r-value."""
    if pair.rstype.kind != "A":
        raise ValueError("the bialternant is the type A closed form")
    d = pair.d
    X = [t[a - 1] for a in pair.v.window[:d]]
    inv = [pow(x, -1, p) for x in t]
    rows = []
    for i in range(1, d + 1):
        row = []
        for x in X:
            value = pow(x, i - 1, p)
            for l in range(part(pair.lam, i) + d - i):
                value = value * (1 - x * inv[l]) % p
            row.append(value)
        rows.append(row)
    vandermonde = 1
    for i in range(d):
        for j in range(i + 1, d):
            vandermonde = vandermonde * (X[j] - X[i]) % p
    return det_mod(rows, p) * pow(vandermonde, -1, p) % p


# -- counts by size, one dict key per size -----------------------------------

def svt_steps(lam, mu, geometry: str, step) -> dict:
    """The transfer DP of `tableaux._transfer` on dict states, one call of
    ``step(dst, src, q, below, largest)`` per state and feasible maximum of
    a box on diagonal q: it adds src times the summed weight of the entry
    sets with that maximum, whose other entries are drawn from ``below``
    (the feasible entries smaller than ``largest``).  It reads as many
    entries as `tableaux.svt_sum`, with no remedy."""
    def spread(nxt, acc, head, tail, values, s, box):
        q = box[1] - box[0]
        for t in range(s, len(values)):
            step(nxt.setdefault(head + (values[t],) + tail, {}), acc, q, values[s:t], values[t])
        return len(acc) * (len(values) - s)

    return _transfer(lam, mu, geometry, spread, "", {0: 1}, add_into)


def count_entries(dst: dict, src: dict, q: int, below, largest: int) -> None:
    """`svt_steps` step keyed by the number of entries: the entry sets made
    of largest and a of the k values below add 1 + a entries, binom(k, a)
    ways."""
    k = len(below)
    get = dst.get
    for n, c in src.items():
        for a in range(k + 1):
            dst[n + 1 + a] = get(n + 1 + a, 0) + c * comb(k, a)


def skip_and_take(dst: dict, src: dict, f: int) -> None:
    """`fold_dp` stay keyed by the number of letters: an absorbed letter is
    skipped (no letter) and taken (f = 1 more letter)."""
    add_into(dst, src)
    add_into(dst, src, f)


# -- grading along xi -------------------------------------------------------

def xi_degree(exponent, xi) -> int:
    """mu(xi) for an exponent vector; ValueError unless it is an integer."""
    deg = sum(Fraction(x) * c for x, c in zip(xi, exponent))
    if deg.denominator != 1:
        raise ValueError(f"non-integral degree {deg} for exponent {tuple(exponent)}")
    return int(deg)


def ev_xi(p: LaurentPoly, xi) -> dict:
    """Sum c_mu t^{mu(xi)}, returned as a degree -> coefficient map."""
    out = Counter()
    for e, c in p.terms.items():
        out[xi_degree(e, xi)] += c
    return {d: c for d, c in out.items() if c}


# -- packed keys and the geometric series -----------------------------------

def unpack(key: int, rank: int) -> tuple:
    """The exponent vector of a packed key, read digit by digit from the top
    (e_1 first): with LIMIT added to every digit, each one is a nonnegative
    16-bit number.

    >>> unpack(pack((3, -1, 0, -LIMIT)), 4)
    (3, -1, 0, -32767)
    """
    mask = (1 << DIGIT) - 1
    k = key + LIMIT * sum(1 << s for s in range(0, DIGIT * rank, DIGIT))
    return tuple(((k >> s) & mask) - LIMIT for s in reversed(range(0, DIGIT * rank, DIGIT)))


def drop_digit(key: int, rank: int, coord: int) -> int:
    """The packed key with coordinate coord (1-based) cut out: its digits
    read by `unpack`, the one of coord deleted, the rest packed again."""
    exp = list(unpack(key, rank))
    del exp[coord - 1]
    return pack(exp)


def reference_format_poly(p: LaurentPoly) -> str:
    """The text of a polynomial rendered monomial by monomial: the terms
    sorted as exponent tuples, and each weight rendered whole by
    `format_weight`, with no state shared between monomials."""
    def body(e, c):
        if not any(e):
            return str(c)
        mag = "" if c == 1 else f"{c}*"
        return f"{mag}e^{{{format_weight(e)}}}"

    return signed_sum((c < 0, body(e, abs(c))) for e, c in sorted(p.terms.items()))


def _degree(exponent, ixi, den) -> int:
    """The degree along xi = ixi / den; ValueError unless it is an integer."""
    deg, rem = divmod(sum(map(mul, ixi, exponent)), den)
    if rem:
        raise ValueError(f"non-integral degree {deg + Fraction(rem, den)} "
                         f"for exponent {tuple(exponent)}")
    return deg


def geometric_expand(numerator: LaurentPoly, denom_weights, xi, N: int) -> GradedSeries:
    """Expand num / prod_{mu} (1 - e^{-mu}) as a character up to xi-degree N.

    Each -mu must have xi-degree exactly 1 (every tangent weight pairs to -1
    in the cominuscule setting), so the expansion is graded and finite per
    degree.  The numerator's terms of degree <= N take their degree digit
    and go to `expand_graded`."""
    if N < 0:
        raise ValueError("truncation degree must be nonnegative")
    xi = [Fraction(x) for x in xi]
    den = lcm(*(x.denominator for x in xi))  # degrees become integer dot products
    ixi = [x.numerator * (den // x.denominator) for x in xi]
    for mu in denom_weights:
        if _degree([-x for x in mu], ixi, den) != 1:
            raise ValueError(f"denominator weight {mu} does not have xi-degree -1")
    rank = numerator.rank
    span = series_span(numerator.span, denom_weights, N)
    graded = {}
    for e, (k, c) in zip(unpack_all(numerator.packed, rank), numerator.packed.items()):
        d = _degree(e, ixi, den)
        if d < 0:
            raise ValueError(f"negative-degree monomial {e} in numerator")
        if d <= N:
            graded[k + (d << DIGIT * rank)] = c
    return expand_graded(graded, rank, denom_weights, N, span)


def reference_xi(rstype: RootSystem, d, v: WeylElement) -> tuple:
    """xi built in Fractions: v applied to the sum of the first d eps_i
    (type A), resp. to the sum of eps_i / 2 (types C, D)."""
    n = rstype.rank
    if rstype.kind == "A":
        base = [Fraction(1)] * d + [Fraction(0)] * (n - d)
    else:
        base = [Fraction(1, 2)] * n
    out = [Fraction(0)] * n
    for i, t in enumerate(v.window):
        if t > 0:
            out[t - 1] += base[i]
        else:
            out[-t - 1] -= base[i]
    return tuple(out)


def reference_character(pair: Pair, N: int) -> GradedSeries:
    """The character to degree N from the whole svt class: the expanded
    numerator, graded along xi in Fractions by `geometric_expand`, and in
    type B computed in D_{n+1} and specialized back."""
    upstairs = pair.lifted if pair.rstype.kind == "B" else pair
    numerator = pair_class(upstairs, "svt").value
    xi = reference_xi(upstairs.rstype, upstairs.d, upstairs.v)
    series = geometric_expand(numerator, upstairs.point.tangent_weights, xi, N)
    if upstairs is pair:
        return series
    return GradedSeries(N, [specialize_zero(s, upstairs.rstype.rank) for s in series.slices])


def convolved_slices(slices, steps) -> list:
    """Divide graded packed slices by each (1 - e^{step}) in turn, new slice i
    being the sum over k <= i of e^{k step} times old slice i - k; returned
    without zero entries."""
    for step in steps:
        old, slices = slices, [{} for _ in slices]
        for i, acc in enumerate(slices):
            for k in range(i + 1):
                add_into(acc, old[i - k], k * step)
    return [{k: c for k, c in s.items() if c} for s in slices]


# -- the command line --------------------------------------------------------

@lru_cache(maxsize=1)
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI before it read its options from one
    table; choices are spelled out as they stood then."""
    p = argparse.ArgumentParser(prog="schubertk")
    p.add_argument("--type", required=True, choices=["A", "B", "C", "D"], dest="kind")
    p.add_argument("--n", "--rank", type=int, required=True, dest="rank")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--backend", choices=["eyd", "svt", "hecke"], default="svt")
    p.add_argument("--emit", default="class", choices=[
        "class", "hilbert", "hilbert-poly", "mult", "diagrams", "tableaux", "character"])
    p.add_argument("--format", choices=["text", "json", "latex"], default="text", dest="fmt")
    p.add_argument("--trunc", type=int, default=3)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--check", action="store_true")
    p.add_argument("--reduced-only", action="store_true", dest="reduced_only")
    return p


def reference_parse(argv) -> argparse.Namespace:
    """argv through the reference parser.  argparse reads a value such as
    "-4,-3,-2,-1" as an option, so a window that starts with a barred entry
    is first attached to its flag, as the CLI did."""
    attached = []
    for tok in argv:
        if attached and attached[-1] in ("--w", "--v") and tok[:1] == "-" and tok[1:2].isdigit():
            attached[-1] = f"{attached[-1]}={tok}"
        else:
            attached.append(tok)
    return reference_parser().parse_args(attached)
