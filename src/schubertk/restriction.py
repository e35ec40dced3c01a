"""Restriction of Schubert structure-sheaf classes to torus fixed points,
with three mutually cross-checking backends, plus Hilbert series, Hilbert
polynomial and multiplicity of the Schubert variety at the fixed point.

Conventions.  For minimal representatives w, v the class i_v*[O_{X^w}] is
(-1)^{l(w)} times a sum of products of factors (e^{-r} - 1) over positive
roots r drawn from the tangent weights at v.  Fixed points off the variety
(v not >= w) yield the zero class rather than an error: restricting a sheaf
outside its support is genuinely zero.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, partial, reduce
from itertools import filterfalse
from math import comb
from operator import mul, or_

from . import hecke
from .diagrams import enumerate_eyd, geometry_of, reading_word, reflection_tableau
from .ring import (
    CLASS_REMEDY,
    LIMIT,
    TRUNC_REMEDY,
    GradedSeries,
    LaurentPoly,
    Record,
    add_binomial_into,
    add_into,
    check_span,
    check_work,
    drop_coordinate,
    expand_graded,
    pack,
    signed_sum,
    span_of,
    specialize_zero,
)
from .shapes import contains, format_shape, parse_shape, rep_of, shape_of, size, trim
from .tableaux import enumerate_svt, svt_counts, svt_sum
from .weyl import (
    CACHE_SIZE,
    RootSystem,
    WeylElement,
    negate_weight,
    parabolic_index,
    parse_window,
    root_system,
    window_image,
    window_right_ascent,
    window_right_mult,
)

BACKENDS = ("eyd", "svt", "hecke")


class KClass(Record):
    __slots__ = ("rstype", "d", "value", "on_variety")

    def __init__(self, rstype: RootSystem, d: int, value: LaurentPoly, on_variety: bool = True):
        self._set(rstype, d, value, on_variety)


class HilbertData(Record):
    __slots__ = ("d_w", "m")

    def __init__(self, d_w: int, m: tuple):  # m = (m_0, m_1, ...), () off the variety
        self._set(d_w, m)

    @property
    def multiplicity(self) -> int:
        return self.m[0] if self.m else 0


class Point(Record):
    """The data of a query that depend on its fixed point v alone, each
    built on first use.  `_fixed_point` shares one point among the queries
    at v, so no engine writes into its data."""

    __slots__ = ("rstype", "d", "v", "mu", "__dict__")  # dict: the caches

    def __init__(self, rstype: RootSystem, d: int, v: WeylElement, mu: tuple):
        self._set(rstype, d, v, mu)

    @cached_property
    def tableau(self):
        return reflection_tableau(self.mu, self.rstype, self.d)

    @cached_property
    def word(self) -> tuple:
        """The reading word of T_mu, a reduced word for v."""
        return reading_word(self.tableau)

    @cached_property
    def exponents(self) -> dict:
        """{box: -r(c)} for the box at reading position c of T_mu: the
        exponent g of the factor (e^g - 1) that the box brings to a term, in
        every backend (Graham-Willems restriction through the r-values)."""
        rs = map(negate_weight, r_values(self.word, self.rstype))
        return dict(zip(self.tableau.reading_boxes, rs))

    @cached_property
    def factor_keys(self) -> dict:
        """{box: pack(g)} over `exponents`, in reading order, so its values
        are the factor keys of the letters of `word`: the one key table of
        every class engine and of the character."""
        return {box: pack(g) for box, g in self.exponents.items()}

    @cached_property
    def span_bound(self) -> int:
        """The `_span_bound` of `exponents`: every class and character
        term at v has its coordinates bounded by it."""
        return _span_bound(self.exponents.values())

    @cached_property
    def graded_keys(self) -> tuple:
        """`factor_keys` with degree digit 1, B^rank + pack(g), the factors
        of the character's fold.  RuntimeError, with nothing cached, unless
        every exponent g has xi-degree 1, which the digit would mis-bucket."""
        ixi, den = self.xi
        for g in self.exponents.values():
            if (pairing := sum(map(mul, g, ixi))) != den:
                from fractions import Fraction
                raise RuntimeError(f"xi-degree check failed: {g}(xi) = {Fraction(pairing, den)}")
        top = pack((0,) * self.rstype.rank, 1)
        return tuple(top + k for k in self.factor_keys.values())

    @cached_property
    def denominator(self) -> tuple:
        """(keys, span): pack(-mu) over the tangent weights mu, each of
        xi-degree 1 (`xi` checks it), the factors 1/(1 - e^{-mu}) that
        `expand_graded` divides out, and the largest |coordinate| among them."""
        self.xi  # RuntimeError unless every -mu has xi-degree 1
        weights = self.tangent_weights
        return tuple(pack([-x for x in mu]) for mu in weights), max(map(span_of, weights), default=0)

    @cached_property
    def tangent_weights(self) -> tuple:
        """The tangent weights at v, -v(beta) by (i, j) for the roots beta
        outside the Levi: eps_i - eps_j, i <= d < j, in type A; else eps_i +
        eps_j, i < j, and for i = j 2 eps_i in C and eps_i in B.  Each is the
        `window_image` of -beta, which reads v_i and v_j."""
        n, kind = self.rstype.rank, self.rstype.kind
        if kind == "A":  # -beta as (position, coefficient) pairs
            terms = [((i, -1), (j, 1)) for i in range(self.d) for j in range(self.d, n)]
        else:  # i = j gives -2 eps_i in C and -eps_i in B
            terms = [((i, -1), (j, -int(i != j or kind == "C")))
                     for i in range(n) for j in range(i + (kind == "D"), n)]
        return tuple(window_image(self.v.window, t) for t in terms)

    @cached_property
    def xi(self) -> tuple:
        """(den * xi, den) as integers, den = 1 in type A and 2 in types C, D:
        xi = v(sum of the first d eps_i), resp. v(sum eps_i / 2), the grading
        of the character.  RuntimeError unless every tangent weight pairs to
        -1 with it."""
        top, den = (self.d, 1) if self.rstype.kind == "A" else (self.rstype.rank, 2)
        ixi = window_image(self.v.window, ((k, 1) for k in range(top)))
        for alpha in self.tangent_weights:
            if (pairing := sum(map(mul, alpha, ixi))) != -den:
                from fractions import Fraction
                raise RuntimeError(f"xi pairing failed: {alpha}(xi) = {Fraction(pairing, den)}")
        return ixi, den


_fixed_point = lru_cache(maxsize=1024)(Point)  # (rstype, d, v, mu) -> its one Point


class Pair(Record):
    """One validated query: minimal representatives w, v of rstype, the index
    d of the maximal parabolic, the shapes lam of w and mu of v (so l(w) =
    |lam|), and whether v lies on X^w.  Each input style becomes a pair in
    one pass: `Pair.of` validates two windows and reads their shapes,
    `Pair.of_shapes` validates two shapes and builds their windows, and
    `Pair.of_text` takes both sides from `_element`, which parses and
    validates each input text once per process.  Every engine takes a pair,
    and reads what depends on v alone from its `point`."""

    __slots__ = ("rstype", "d", "w", "v", "lam", "mu", "on_variety", "__dict__")  # dict: the caches

    def __init__(self, rstype: RootSystem, d: int, w: WeylElement, v: WeylElement,
                 lam: tuple, mu: tuple, on_variety: bool):
        self._set(rstype, d, w, v, lam, mu, on_variety)

    @classmethod
    def of(cls, rstype: RootSystem, d, w: WeylElement, v: WeylElement) -> Pair:
        """ValueError on a root-system mismatch, a bad d or a non-minimal element."""
        if rstype != w.rstype or rstype != v.rstype:
            raise ValueError("root system mismatch")
        d = parabolic_index(rstype, d)
        lam, mu = shape_of(w, d), shape_of(v, d)
        return cls(rstype, d, w, v, lam, mu, contains(lam, mu))

    @classmethod
    def of_shapes(cls, rstype: RootSystem, d, lam, mu) -> Pair:
        """The pair of the shapes lam of w and mu of v, with w and v built by
        `shapes.rep_of`, so neither is checked or read back; ValueError on a
        bad d or shape, with the texts of `perm_of` and `perm_of_strict`."""
        d = parabolic_index(rstype, d)
        w, v = rep_of(lam, rstype, d), rep_of(mu, rstype, d)
        return cls(rstype, d, w, v, trim(lam), trim(mu), contains(lam, mu))

    @classmethod
    def of_text(cls, rstype: RootSystem, d, w: str, v: str, shapes: bool) -> Pair:
        """The pair of two windows, or of two shapes, given as text, each
        side read from `_element`; ValueError with the text of `Pair.of`
        after `parse_window`, or of `Pair.of_shapes` after `parse_shape`."""
        d, texts = parabolic_index(rstype, d), (w, v)
        try:
            (w, lam), (v, mu) = (_element(rstype.kind, rstype.rank, d, t, shapes) for t in texts)
        except ValueError:  # both texts are parsed before either side is checked
            for t in texts:
                parse_shape(t) if shapes else parse_window(rstype, t)
            raise
        return cls(rstype, d, w, v, lam, mu, contains(lam, mu))

    @staticmethod
    def _side(kind: str, rank: int, d: int, text: str, shape: bool) -> tuple:
        """(u, its shape) for the text of a shape or of a window u, validated
        as `Pair.of_shapes` or `Pair.of` does; the builder of `_element`."""
        rstype = root_system(kind, rank)
        if shape:
            lam = parse_shape(text)
            return rep_of(lam, rstype, d), lam
        u = parse_window(rstype, text)
        return u, shape_of(u, d)

    @property
    def geometry(self) -> str:
        return geometry_of(self.rstype)

    @cached_property
    def point(self) -> Point:
        return _fixed_point(self.rstype, self.d, self.v, self.mu)

    @cached_property
    def lifted(self) -> Pair:
        """The D_{n+1} pair of a type B_n pair, with the same shapes: B_n is not
        cominuscule, and its Hilbert data, character and lifted class use it."""
        n = self.rstype.rank
        if self.rstype.kind != "B":
            raise ValueError(f"Pair.lifted lifts a type B pair to D{n + 1}, "
                             f"not a {self.rstype.kind}{n} pair")
        try:  # bd_identify_inverse of w and v, without reading their shapes again
            (wD, _), (vD, _) = (_element("D", n + 1, n + 1, format_shape(s), True)
                                for s in (self.lam, self.mu))
        except ValueError as exc:  # only D_{n+1} itself is refused: it names the caller's rank
            raise ValueError(f"B{n}'s Hilbert data, character and lifted class "
                             f"are computed through D{n + 1}: {exc}") from None
        return Pair(wD.rstype, n + 1, wD, vD, self.lam, self.mu, self.on_variety)


# (kind, rank, d, text, whether a shape) -> (u, shape): each input side parsed
# and validated once per process; an input that raises is not kept
_element = lru_cache(maxsize=CACHE_SIZE)(Pair._side)


def dim_gp(rstype: RootSystem, d: int = None) -> int:
    """dim G/P, one per tangent weight (`Point.tangent_weights`): d(n - d)
    in type A, n(n + 1)/2 in types B and C, n(n - 1)/2 in type D;
    ValueError on a bad d in type A."""
    n, kind = rstype.rank, rstype.kind
    if kind == "A":
        d = parabolic_index(rstype, d)
        return d * (n - d)
    return n * (n + (1 if kind in "BC" else -1)) // 2


def tangent_weights(rstype: RootSystem, d, v: WeylElement) -> list:
    """Weights of the tangent space at the fixed point v: v applied to -Phi(g/p)."""
    return list(Pair.of(rstype, d, v, v).point.tangent_weights)


def r_values(word, rstype: RootSystem) -> list:
    """r(c) = u(alpha_{i_c}), u = s_{i_1} ... s_{i_{c-1}}, along a reduced
    word; positive roots, the factor roots of every backend.

    The prefix u is a window, and r(c) is the image of alpha_i under it
    (`window_image`), read off the one or two entries alpha_i touches.
    l(u s_i) > l(u) iff u(alpha_i) > 0 (`window_right_ascent`), so the word
    is reduced exactly when every r(c) is positive."""
    kind, n = rstype.kind, rstype.rank
    win, out = tuple(range(1, n + 1)), []
    for c, i in enumerate(word):
        if not 1 <= i <= rstype.num_simple:
            raise ValueError(f"letter {i} out of range for {rstype}")
        if not window_right_ascent(kind, win, i):
            raise ValueError(f"word is not reduced: r({c + 1}) is a negative root")
        if i < n:  # alpha_i as (position, coefficient) pairs
            alpha = ((i - 1, 1), (i, -1))
        else:  # eps_n in B, 2 eps_n in C, eps_{n-1} + eps_n in D
            alpha = ((n - 2, 1), (n - 1, 1)) if kind == "D" else ((n - 1, 2 if kind == "C" else 1),)
        out.append(window_image(win, alpha))
        win = window_right_mult(kind, win, i)
    return out


def _span_bound(exps) -> int:
    """The largest per-coordinate sum of |g_c| over the exponents g of a
    class's boxes or letters: every term uses each of them at most once, so
    this bounds every coordinate of every partial product."""
    return check_span(max(map(sum, zip(*(map(abs, g) for g in exps))), default=0))


def _sum_of_products(masks, keys) -> dict:
    """sum over masks, each a set of bits with repeats counted, of
    prod_b (e^keys[b] - 1) as a packed dict, over the zero-suppressed
    decision diagram of the family (Minato 1993).  At the lowest bit b of
    the union of a family S, F(S) = F(S0) + (e^keys[b] - 1) F(S1), where
    S1 holds the masks with b, b cleared, and S0 the rest; a family with
    union 0 sums to its size.  Each distinct sub-family, a sorted tuple, is
    split and summed once, on an explicit stack: a sub-family that several
    prefixes share costs one kernel call, and no bit count bounds the depth.
    Before each kernel call, the entries read so far, the kernel's source
    and the copied F(S0), pass `check_work`.

    >>> keys = {1: pack((1,)), 2: pack((2,)), 4: pack((3,))}
    >>> _sum_of_products([0b1, 0b11], keys)  # (e - 1) + (e - 1)(e^2 - 1)
    {3: 1, 2: -1}
    >>> sorted(_sum_of_products([0b101, 0b110], keys).items())  # (e + e^2 - 2)(e^3 - 1)
    [(0, 2), (1, -1), (2, -1), (3, -2), (4, 1), (5, 1)]
    """
    root = tuple(sorted(masks))
    sums, todo, reads = {(): {}}, [(root, None)], 0
    while todo:
        family, split = todo.pop()
        if family in sums:
            continue
        if split is None:
            if not (union := reduce(or_, family)):
                sums[family] = {0: len(family)}
                continue
            b = union & -union
            rest = tuple(filterfalse(b.__and__, family))
            held = tuple(map(b.__xor__, filter(b.__and__, family)))
            todo += (family, (b, rest, held)), (rest, None), (held, None)
            continue
        b, rest, held = split
        total, src = dict(sums[rest]), sums[held]
        reads = check_work(reads, "entries read", CLASS_REMEDY) + len(total) + len(src)
        add_binomial_into(total, src, keys[b])
        sums[family] = total
    return sums[root]


def pullback_terms(pair: Pair, backend: str = "eyd") -> list:
    """The factored form of the class: a list of terms, each a tuple of
    exponents g, so that i_v*[O_{X^w}] = (-1)^{l(w)} sum_t prod (e^g - 1)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if not pair.on_variety:
        return []
    boxes = pair.point.tableau.reading_boxes
    # each backend lists its terms as tuples of boxes of D_mu
    if backend == "eyd":
        terms = (C.sorted_boxes() for C in enumerate_eyd(pair.lam, pair.mu, pair.geometry))
    elif backend == "svt":  # the boxes of f(T)
        terms = (
            tuple((x, x + j - i) for (i, j), entries in T.cells for x in entries)
            for T in enumerate_svt(pair.lam, pair.mu, pair.geometry)
        )
    else:
        terms = (
            tuple(boxes[p - 1] for p in sub.indices)
            for sub in hecke.hecke_subsequences(pair.w, pair.point.word)
        )
    exps = pair.point.exponents
    return [tuple(exps[box] for box in term) for term in terms]


def pullback(rstype: RootSystem, d, w: WeylElement, v: WeylElement,
             backend: str = "eyd") -> KClass:
    """The class i_v*[O_{X^w}] as an expanded Laurent polynomial.

    All three backends return identical polynomials: svt runs the transfer
    DP over set-valued tableaux, eyd lists the excited diagrams and sums
    their products over the zero-suppressed decision diagram of their box
    masks, which sums every repeated sub-family once, and hecke sums over
    the 0-Hecke subwords of a reduced word for v by the fold DP and is the
    ground truth.  Each engine keeps a running count of the entries it hands
    to a kernel and passes it to `check_work` before each call, so a class
    is refused at the first call after its work passes the budget, with a
    message that names the factored --format latex.
    """
    return pair_class(Pair.of(rstype, d, w, v), backend)


def pair_class(pair: Pair, backend: str = "eyd") -> KClass:
    """The class of `pullback` for a validated pair.  The span of all of
    T_mu's exponents passes the packing range before any engine runs; each
    engine then sums over `Point.factor_keys`, eyd by the bit of each box of
    D_mu in its diagrams' masks (`_sum_of_products`)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    rstype, d, n = pair.rstype, pair.d, pair.rstype.rank
    if not pair.on_variety:
        return KClass(rstype, d, LaurentPoly.zero(n), on_variety=False)
    point = pair.point
    span, keys = point.span_bound, point.factor_keys
    if backend == "hecke":  # letter c of the word is the box at reading position c
        packed = hecke.fold_dp(pair.w, point.word, list(keys.values()), add_binomial_into, add_into)
    elif backend == "svt":
        packed = svt_sum(pair.lam, pair.mu, pair.geometry, keys)
    else:  # each diagram as a mask, one bit per box of D_mu in row-major order
        bit = {box: 1 << k for k, box in enumerate(sorted(keys))}
        masks = [sum(map(bit.__getitem__, C.sorted_boxes()))
                 for C in enumerate_eyd(pair.lam, pair.mu, pair.geometry)]
        packed = _sum_of_products(masks, {b: keys[box] for box, b in bit.items()})
    return KClass(rstype, d, LaurentPoly.from_packed(n, packed, span) * (-1) ** size(pair.lam))


def pullback_b_via_d(w: WeylElement, v: WeylElement) -> KClass:
    """Type B_n class through the D_{n+1} identification: compute upstairs,
    then send eps_{n+1} to 0."""
    return _b_via_d(Pair.of(w.rstype, None, w, v))


def _b_via_d(pair: Pair) -> KClass:
    n = pair.rstype.rank
    cls = pair_class(pair.lifted, "svt")  # the lift rejects other types
    return KClass(pair.rstype, n, specialize_zero(cls.value, n + 1), cls.on_variety)


def hilbert_data(rstype: RootSystem, d, w: WeylElement, v: WeylElement,
                 method: str = "svt") -> HilbertData:
    """d_w = dim G/P - l(w) and the vector m with m_k the number of excited
    diagrams of k extra boxes, equally the number of set-valued tableaux
    with |lam| + k entries or of Hecke subsequences with excess k.  "svt"
    counts by the transfer DP, "eyd" lists the diagrams and "hecke" runs
    the fold DP.  Type B returns the data of the D_{n+1} identification:
    dim G/P and l(w) agree across it."""
    return pair_hilbert(Pair.of(rstype, d, w, v), method)


def pair_hilbert(pair: Pair, method: str = "svt") -> HilbertData:
    """The data of `hilbert_data` for a validated pair."""
    if method not in BACKENDS:
        raise ValueError(f"unknown method {method!r}")
    if pair.rstype.kind == "B":
        pair = pair.lifted
    d_w = dim_gp(pair.rstype, pair.d) - size(pair.lam)
    if not pair.on_variety:
        return HilbertData(d_w, ())
    lam, mu = pair.lam, pair.mu
    if method == "hecke":
        sizes = hecke.subsequence_stats(pair.w, pair.point.word)
    elif method == "eyd":
        sizes = Counter(len(C) for C in enumerate_eyd(lam, mu, pair.geometry))
    else:
        sizes = svt_counts(lam, mu, pair.geometry)
    top = max(sizes, default=size(lam))
    m = tuple(sizes.get(size(lam) + k, 0) for k in range(top - size(lam) + 1))
    return HilbertData(d_w, m)


def hilbert_polynomial_coeffs(data: HilbertData) -> tuple:
    """Coefficients (ascending in n) of h(n) = sum (-1)^k m_k binom(n+K-1, K-1)
    with K = d_w - k; exact rationals.  A K = 0 term only occurs for the
    degenerate point case and contributes the zero polynomial here.

    binom(n+K-1, K-1) = (n+1)...(n+K-1) / (K-1)!, so the sum is taken over
    the integers, scaled by (d_w - 1)!, and divided once at the end.

    >>> hilbert_polynomial_coeffs(HilbertData(2, (1,)))
    (Fraction(1, 1), Fraction(1, 1))
    """
    from fractions import Fraction
    acc = [0]  # sum over K' <= K of c_K' (n+1)...(n+K'-1) (K-1)!/(K'-1)!
    rising = [1]  # (n+1)...(n+K-1)
    scale = 1  # (K-1)!
    for K in range(1, data.d_w + 1):
        if K > 1:
            rising = [0] + rising  # times (n + K - 1)
            for idx in range(len(rising) - 1):
                rising[idx] += (K - 1) * rising[idx + 1]
            acc = [(K - 1) * c for c in acc] + [0]
            scale *= K - 1
        k = data.d_w - K
        if k < len(data.m) and data.m[k]:
            mk = -data.m[k] if k % 2 else data.m[k]
            for idx, c in enumerate(rising):
                acc[idx] += mk * c
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return tuple(Fraction(c, scale) for c in acc)


def hilbert_polynomial_value(data: HilbertData, n: int) -> int:
    """Exact Hilbert function value; agrees with the polynomial for all n >= 1.
    At n = 0 a K = 0 term (the point case) adds (-1)^k m_k, which the
    polynomial does not carry."""
    if n < 0:
        raise ValueError("Hilbert function argument must be nonnegative")
    total = 0
    for k, mk in enumerate(data.m):
        K = data.d_w - k
        if K == 0:
            term = 1 if n == 0 else 0  # the series 1/(1-t)^0 is the constant 1
        elif K < 0:
            raise RuntimeError(f"m_{k} nonzero beyond d_w = {data.d_w}")
        else:
            term = comb(n + K - 1, K - 1)
        total += (-1) ** k * mk * term
    return total


def hilbert_series_str(data: HilbertData) -> str:
    return signed_sum(
        (k % 2 == 1, str(mk) if data.d_w == k else f"{mk}/(1-t)^{data.d_w - k}")
        for k, mk in enumerate(data.m)
        if mk
    )


def graded_character(rstype: RootSystem, d, w: WeylElement, v: WeylElement,
                     N: int) -> GradedSeries:
    """Truncated character of the tangent-cone coordinate ring at v.

    Dimension slices agree with the Hilbert polynomial values.  The cominuscule
    types A, C, D are expanded directly; type B folds its numerator upstairs
    in D_{n+1}, and sends eps_{n+1} to 0 on the numerator and denominator
    keys before the expansion."""
    return pair_character(Pair.of(rstype, d, w, v), N)


def pair_character(pair: Pair, N: int) -> GradedSeries:
    """The character of `graded_character` for a validated pair, from the
    hecke class truncated at degree N in the fold DP over the point's
    `graded_keys`, divided by its `denominator`.  A negative N, or one past
    the packing range, is refused before the DP; a box exponent whose
    xi-degree is not 1, which the degree digit would mis-bucket, fails."""
    if N < 0:
        raise ValueError("truncation degree must be nonnegative")
    n = pair.rstype.rank
    if pair.rstype.kind == "B":
        pair = pair.lifted
    point, rank, graded = pair.point, pair.rstype.rank, {}
    factors, span = (point.graded_keys, point.span_bound) if pair.on_variety else ((), 0)
    denominator, step = point.denominator
    span = check_span(span + N * step, TRUNC_REMEDY)  # a degree-i term: num times i weights
    if pair.on_variety:  # cap: degree N + 1's least key
        cap = pack((-LIMIT,) * rank, N + 1)
        graded = hecke.fold_dp(pair.w, point.word, factors, partial(add_binomial_into, cap=cap),
                               partial(add_into, cap=cap), TRUNC_REMEDY)
    if rank > n:  # B_n: eps_{n+1} -> 0 on the keys, so the expansion runs in rank n;
        # no two numerator keys meet: xi_{n+1} = +-1/2, so a term's degree fixes e_{n+1}
        graded = dict(zip(drop_coordinate(graded, rank, rank), graded.values()))
        denominator = drop_coordinate(denominator, rank, rank)
    if size(pair.lam) % 2:
        graded = {k: -c for k, c in graded.items()}
    return expand_graded(graded, n, denominator, N, span)


class BackendReport(Record):
    __slots__ = ("classes", "agree", "first_diff")

    def __init__(self, classes: list, agree: bool, first_diff: str = ""):  # classes: (name, KClass)
        self._set(classes, agree, first_diff)


def check_backends(rstype: RootSystem, d, w: WeylElement, v: WeylElement) -> BackendReport:
    """Run every applicable backend and compare the expanded classes bit-exactly.

    Each backend's expansion is refused as in `pullback`, once the entries
    its engine has read pass the budget of `check_work`."""
    return pair_check(Pair.of(rstype, d, w, v))


def pair_check(pair: Pair) -> BackendReport:
    """The report of `check_backends` for a validated pair."""
    names = list(BACKENDS)
    classes = [(name, pair_class(pair, name)) for name in names]
    if pair.rstype.kind == "B":
        classes.append(("b-via-d", _b_via_d(pair)))
    base = classes[0][1].value
    for name, cls in classes[1:]:
        if cls.value != base:
            diff = _first_difference(base, cls.value)
            return BackendReport(classes, False, f"{names[0]} vs {name}: {diff}")
    return BackendReport(classes, True)


def _first_difference(p: LaurentPoly, q: LaurentPoly) -> str:
    for e, _ in (p - q).sorted_terms():  # the least monomial where they differ
        return f"monomial {e}: {p.terms.get(e, 0)} != {q.terms.get(e, 0)}"
    return "values equal"
