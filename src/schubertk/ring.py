"""Exact arithmetic in the representation ring R(T).

LaurentPoly is a sparse map from exponent vectors in Z^rank to arbitrary
precision integer coefficients.  `expand_graded` produces the truncated
graded character num / prod (1 - e^{-mu}) from a numerator graded by its
degree digit (below); `restriction.pair_character` is its one caller, with
the digits read off the integer xi of the `Pair`.  The count DPs carry polynomials in one variable t as integers, W bits per
power of t (`unpack_counts`, `count_slots`).  `Record` is the base of the
package's value records, and `check_work` its one work budget.

Encoding.  An exponent vector (e_1, ..., e_rank) is stored as the one
integer e_1 B^(rank-1) + ... + e_(rank-1) B + e_rank with B = 2^16: balanced
base-B digits, e_1 in the top one.  While every coordinate lies in
[-LIMIT, LIMIT] with LIMIT = 2^15 - 1 the encoding is unique and additive,
so the product of two monomials is one integer addition and (e^g - 1) is a
shift by the packed g.  Adding LIMIT to every digit, which is monotone,
leaves the base-B digits e_i + LIMIT, so key order is lex order of the
exponent vectors: sorting a polynomial sorts its ints.  `pack` and
`unpack_all` convert; the kernels `add_into` and `add_binomial_into` work on
packed dicts {key: coef}.  Tuples appear only at the edges:
`LaurentPoly.terms`, text, LaTeX and JSON; the CLI's JSON text fills each
decoded tuple into one template per rank (`format_poly_json`), and
`poly_to_json` builds the same document as dicts and lists.

Degree digit.  When every factor e^g of a DP has degree 1 along xi, its
factor key B^rank + pack(g), `pack(g, 1)`, carries the degree of each
monomial as one more digit on top: k B^rank + pack(e) at degree k.  Degrees
never fall along the DP, so it stops at degree N by dropping every key at
or above cap = (N + 1) B^rank - bias, the least key of degree N + 1: one
comparison per key in either kernel (the fold DP of the character).  One
shift of the biased key reads the digit back (`expand_graded`).

Decoding.  Keys are decoded in bulk, each at C speed.  Adding H, 2^15 in
every digit, makes each digit e_i + 2^15 in [1, 2^16 - 1] with no borrow;
xor H flips bit 15 of each, leaving e_i's 16-bit two's complement with no
carry, which `struct` reads back as signed 16-bit integers.  The bytes are
written and read big-endian by name, e_1 first, so no byte order is assumed.

Range guard.  Every LaurentPoly carries `span`, an upper bound on |e_i|
over its terms: spans add under multiplication and take the max under
addition.  An operation whose bound would exceed LIMIT raises ValueError
before it computes anything, so a digit can never carry into its neighbour
and a wrong polynomial is never returned.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import attrgetter
from struct import Struct

DIGIT = 16
LIMIT = (1 << (DIGIT - 1)) - 1
_MASK = (1 << DIGIT) - 1
MAX_EXPANSION = 10**7
CLASS_REMEDY = "for a class, --format latex prints the factored form"


def check_work(work: int, what: str = "entries read", remedy: str = "") -> int:
    """Return work, or raise ValueError once it passes MAX_EXPANSION, the one
    budget of every count that can blow up time or memory.  The message
    names remedy, if any: what to run instead."""
    if work > MAX_EXPANSION:
        raise ValueError(f"{work} {what}, more than {MAX_EXPANSION}" + (remedy and f"; {remedy}"))
    return work


TRUNC_REMEDY = "lower the truncation degree"


class Record:
    """Base of the package's value records, lighter to import and build than
    dataclasses.  A record's __slots__ are its fields in constructor order,
    each set once by `_set`; `WeylElement._from_window`, `HeckeSubseq` and
    `BoxSet._from_row`, built most often, set theirs directly, 0.1-0.25 us faster.
    Equality and hash read the fields named by `compare` (all by default),
    the repr shows every field, and pickle and deepcopy rebuild through the
    constructor.  A record refuses assignment."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        cls._key = attrgetter(*(compare or cls._fields))  # a tuple: every record has two fields

    def _set(self, *values):
        """Set the fields to values, in order, past the refusal of assignment,
        and return the record (a bare `object.__new__(cls)`, for a builder
        that skips __init__'s checks)."""
        for put, value in zip(self._setters, values):
            put(self, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def check_span(span: int, remedy: str = "") -> int:
    """Return span, or raise ValueError if coordinates bounded by it do not
    fit the packing range; the message names remedy, if any."""
    if span > LIMIT:
        raise ValueError(f"exponent coordinates up to {span} exceed the packing range "
                         f"+-{LIMIT}" + (remedy and f"; {remedy}"))
    return span


def span_of(exponent) -> int:
    return max(map(abs, exponent), default=0)


def pack(exponent, top: int = 0) -> int:
    """The packed key of an exponent vector, with top as one more digit above
    it (the degree digit); ValueError outside +-LIMIT."""
    check_span(span_of(exponent))
    key = top
    for x in exponent:
        key = (key << DIGIT) + x
    return key


def _bias(rank: int) -> int:
    """LIMIT in every digit: adding it makes all digits of a key nonnegative."""
    return LIMIT * (((1 << (DIGIT * rank)) - 1) // _MASK)


@lru_cache(maxsize=64)
def _decoder(rank: int) -> tuple:
    """(H, bytes per key, reader of rank big-endian 16-bit digits)."""
    return (_bias(rank) // LIMIT) << (DIGIT - 1), 2 * rank, Struct(f">{rank}h").unpack


def unpack_all(keys, rank: int) -> list:
    """The exponent vectors of packed keys, in order.

    >>> unpack_all([pack((3, -1, 0, -LIMIT)), 0], 4)
    [(3, -1, 0, -32767), (0, 0, 0, 0)]
    """
    flip, size, read = _decoder(rank)
    return [read(((k + flip) ^ flip).to_bytes(size, "big")) for k in keys]


def add_into(dst: dict, src: dict, g: int = 0, cap: int = None) -> dict:
    """dst += src * e^g on packed dicts, returning dst.  dst must not be src.

    Cancelled coefficients stay in dst as zeros; they are skipped when read
    as src, and `LaurentPoly.from_packed` drops them.  The caller bounds the
    spans.  With cap, keys at or above it are dropped (the degree digit)."""
    get = dst.get
    if cap is None:
        for k, c in src.items():
            if c:
                k += g
                dst[k] = get(k, 0) + c
        return dst
    for k, c in src.items():
        if c and (k := k + g) < cap:
            dst[k] = get(k, 0) + c
    return dst


def add_binomial_into(dst: dict, src: dict, g: int, shift: int = 0, cap: int = None) -> None:
    """dst += src * e^shift * (e^g - 1) on packed dicts, the fused factor
    every class is built from.  dst must not be src; zeros as in `add_into`.
    With cap, keys at or above it are dropped (the degree digit)."""
    get = dst.get
    if cap is None:
        for k, c in src.items():
            if c:
                k += shift
                kg = k + g
                dst[kg] = get(kg, 0) + c
                dst[k] = get(k, 0) - c
        return
    for k, c in src.items():
        if c and (k := k + shift) < cap:
            if (kg := k + g) < cap:
                dst[kg] = get(kg, 0) + c
            dst[k] = get(k, 0) - c


def unpack_counts(acc: dict, width: int) -> dict:
    """{n: c_n}, ascending and without zeros, of a count t^k Q(t) packed as
    {k: Q(2^width)}, or of 0 packed as {}: packed sums and products are those
    of the polynomials, exact while every c_n is below 2^width."""
    mask = (1 << width) - 1
    return {k + n: c for k, q in acc.items()
            for n in range(q.bit_length() // width + 1) if (c := q >> n * width & mask)}


def count_slots(packed: int, width: int) -> int:
    """The width-bit slots of a DP state's positive packed Q(2^width) up to
    its highest nonzero one: what the budget weighs the state by, as many
    entries as a dict keyed by the number of entries would hold."""
    return (packed.bit_length() - 1) // width + 1


class LaurentPoly:
    """`packed` maps packed keys to nonzero coefficients and `span` bounds
    |e_i| over its terms; both are treated as immutable once built."""

    __slots__ = ("rank", "packed", "span")

    def __init__(self, rank: int, terms=None):
        packed = {}
        span = 0
        for exp, coef in (terms or {}).items():
            if len(exp) != rank:
                raise ValueError(f"exponent {exp} has length != rank {rank}")
            if coef:
                packed[pack(exp)] = coef
                span = max(span, span_of(exp))
        self.rank = rank
        self.packed = packed
        self.span = span

    @classmethod
    def from_packed(cls, rank: int, packed: dict, span: int) -> LaurentPoly:
        """Wrap a packed dict whose coordinates are bounded by span; zero
        coefficients are dropped."""
        p = object.__new__(cls)
        p.rank = rank
        p.packed = {k: c for k, c in packed.items() if c}
        p.span = check_span(span) if p.packed else 0
        return p

    @property
    def terms(self) -> dict:
        """The polynomial as {exponent tuple: coefficient}, decoded afresh."""
        return dict(zip(unpack_all(self.packed, self.rank), self.packed.values()))

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, exponent, coef: int = 1):
        return cls(len(exponent), {tuple(exponent): coef})

    def is_zero(self):
        return not self.packed

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_packed(self.rank, {0: other}, 0)
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch {self.rank} vs {other.rank}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.packed)
        add_into(out, other.packed)
        return LaurentPoly.from_packed(self.rank, out, max(self.span, other.span))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly.from_packed(
            self.rank, {k: -c for k, c in self.packed.items()}, self.span
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):  # one pass: a nonzero int makes no zeros
            p = LaurentPoly.zero(self.rank)
            if other:
                p.packed = {k: c * other for k, c in self.packed.items()}
                p.span = self.span
            return p
        other = self._coerce(other)
        span = check_span(self.span + other.span)
        out = {}
        get = out.get
        for k2, c2 in other.packed.items():
            for k1, c1 in self.packed.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return LaurentPoly.from_packed(self.rank, out, span)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.packed.items())))

    def sorted_terms(self):
        """An iterator of (exponent, coefficient) in lex order of the
        exponents: key order is lex order, so the ints are sorted."""
        keys = sorted(self.packed)
        return zip(unpack_all(keys, self.rank), map(self.packed.__getitem__, keys))

    def coefficient_sum(self) -> int:
        return sum(self.packed.values())

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)})"


def specialize_zero(p: LaurentPoly, coord: int) -> LaurentPoly:
    """Send eps_coord to 0 (1-based), dropping the coordinate and merging terms."""
    if not 1 <= coord <= p.rank:
        raise ValueError(f"coordinate {coord} out of range 1..{p.rank}")
    bias, new_bias = _bias(p.rank), _bias(p.rank - 1)
    cut = DIGIT * (p.rank - coord)
    low = (1 << cut) - 1
    out = {}
    get = out.get
    for k, c in p.packed.items():
        k += bias
        k = ((k & low) | ((k >> (cut + DIGIT)) << cut)) - new_bias
        out[k] = get(k, 0) + c
    return LaurentPoly.from_packed(p.rank - 1, out, p.span)


class GradedSeries(Record):
    """Truncated character; slices[i] collects the monomials of xi-degree i."""

    __slots__ = ("trunc", "slices")

    def __init__(self, trunc: int, slices: list):
        self._set(trunc, slices)

    def dims(self) -> list:
        return [s.coefficient_sum() for s in self.slices]


def series_span(span: int, denom_weights, N: int) -> int:
    """The span of a character to degree N of a numerator of the given span:
    a degree-i slice is a numerator term times i denominator monomials."""
    return check_span(span + N * max(map(span_of, denom_weights), default=0), TRUNC_REMEDY)


def expand_graded(graded: dict, rank: int, denom_weights, N: int, span: int) -> GradedSeries:
    """num / prod_{mu} (1 - e^{-mu}) to degree N, from the terms of num of
    degree <= N keyed with their degree digits, each -mu of degree 1; span is
    the `series_span`.  The digits bucket num into slices num_i.  A term of
    num_i meets every monomial of degree <= N - i in the D denominator
    weights, so sum_i |num_i| C(N-i+D, D) passes `check_work` first.

    Each weight is divided out by 1/(1 - x) = 1 + x/(1 - x), x = e^{-mu}:
    slice_i += x * slice_{i-1} in place for i = 1..N ascending, so slice_{i-1}
    already holds its quotient; N kernel calls per weight.  The guard bounds
    the work: while weight j is divided out, slice_{i-1} holds at most one
    entry per term of num_k and monomial of degree i-1-k in the first j
    weights, so weight j reads at most sum_k |num_k| C(N-1-k+j, j) entries,
    and these sum to sum_k |num_k| (C(N-k+D, D) - 1).
    """
    shift, bias = DIGIT * rank, _bias(rank)
    slices = [{} for _ in range(N + 1)]
    for k, c in graded.items():
        if c:
            d = (k + bias) >> shift
            slices[d][k - (d << shift)] = c
    D = len(denom_weights)
    work = sum(len(s) * comb(N - i + D, D) for i, s in enumerate(slices))
    check_work(work, f"term products in the character to degree {N}", TRUNC_REMEDY)
    for mu in denom_weights:
        step = pack([-x for x in mu])
        for i in range(1, N + 1):
            add_into(slices[i], slices[i - 1], step)
    return GradedSeries(N, [LaurentPoly.from_packed(rank, s, span) for s in slices])


def signed_sum(terms) -> str:
    """Join (negative, body) pairs, each body non-empty, into a signed sum;
    "0" when there are none.

    >>> signed_sum([(False, "2"), (True, "t"), (False, "t^2")])
    '2 - t + t^2'
    >>> signed_sum([(True, "1")]), signed_sum([])
    ('-1', '0')
    """
    return _signed_text("".join(f" - {b}" if negative else f" + {b}" for negative, b in terms))


def _signed_text(text: str) -> str:
    """The signed sum of its terms " + body" or " - body" joined: the first
    sign trimmed, "0" when there are none."""
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def format_poly(p: LaurentPoly) -> str:
    """Render as a sum of c * e^{...} monomials, sorted by exponent vector.

    Keys are read in order, so each weight shares a prefix with the one
    before it: the positive and negative pieces of every prefix of the last
    weight are kept, and a weight is rendered on from the top digit where
    its biased key differs from the last one (so the keys are read, not
    `sorted_terms`).  Each piece such as "+2ε_1" is built once per
    rendering, and each term once, with its sign, as `signed_sum` would."""
    from .weyl import weight_piece

    n, bias, packed = p.rank, _bias(p.rank), p.packed
    keys = sorted(packed)
    pieces = [{} for _ in range(n)]
    pos, neg = [""] * (n + 1), [""] * (n + 1)
    last = 1 << DIGIT * n  # differs from every biased key above its top digit
    parts = []
    for e, k in zip(unpack_all(keys, n), keys):
        c = packed[k]
        k += bias
        start = n - 1 - ((k ^ last).bit_length() - 1) // DIGIT
        last = k
        for i in range(start if start > 0 else 0, n):
            x = e[i]
            piece = x and (pieces[i].get(x) or pieces[i].setdefault(x, weight_piece(i + 1, x)))
            pos[i + 1] = pos[i] + piece if x > 0 else pos[i]
            neg[i + 1] = neg[i] + piece if x < 0 else neg[i]
        weight = (pos[n] + neg[n])[1:] if pos[n] else neg[n]
        sign, c = (" - ", -c) if c < 0 else (" + ", c)
        mag = "" if c == 1 else f"{c}*"
        parts.append(f"{sign}{mag}e^{{{weight}}}" if weight else f"{sign}{c}")
    return _signed_text("".join(parts))


def poly_to_json(p: LaurentPoly) -> dict:
    return {
        "monomials": [
            {"exp": list(e), "coef": str(c)} for e, c in p.sorted_terms()
        ]
    }


def format_poly_json(p: LaurentPoly) -> str:
    """`json.dumps(poly_to_json(p), sort_keys=True)`, written straight from
    the sorted keys: each term is one `%` call of a template made once per
    rank, with no dict or list per term.

    >>> format_poly_json(LaurentPoly(2, {(1, -1): 3, (0, 0): -7}))
    '{"monomials": [{"coef": "-7", "exp": [0, 0]}, {"coef": "3", "exp": [1, -1]}]}'
    """
    keys, packed = sorted(p.packed), p.packed
    term = '{"coef": "%%d", "exp": [%s]}' % ", ".join(["%d"] * p.rank)
    return '{"monomials": [%s]}' % ", ".join(
        [term % (packed[k], *e) for k, e in zip(keys, unpack_all(keys, p.rank))])


def poly_from_json(data: dict, rank: int) -> LaurentPoly:
    terms = {}
    for m in data["monomials"]:
        terms[tuple(m["exp"])] = int(m["coef"])
    return LaurentPoly(rank, terms)
