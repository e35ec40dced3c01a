import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    P61,
    closed_form_value,
    commutation_class,
    eps_of_entry,
    ev_xi,
    full_window,
    identity,
    is_positive_root_vector,
    levi_complement_roots,
    positive_roots,
    pullback_hecke_with_word,
    reference_character,
    reference_r_values,
    reference_rep_of,
    reference_tangent_weights,
    reference_xi,
    sum_of_products,
    transpose,
    unpack,
    value_at,
)
from schubertk import hecke, restriction, ring, tableaux
from schubertk.diagrams import enumerate_eyd, reading_word, reflection_tableau
from schubertk.ring import LaurentPoly
from schubertk.shapes import (
    all_shapes,
    bd_identify_inverse,
    contains,
    minimal_reps,
    perm_of,
    perm_of_strict,
    shape_of,
    size,
)
from schubertk.restriction import (
    Pair,
    check_backends,
    dim_gp,
    graded_character,
    hilbert_data,
    hilbert_polynomial_coeffs,
    hilbert_polynomial_value,
    hilbert_series_str,
    pullback,
    pullback_b_via_d,
    pullback_terms,
    r_values,
    tangent_weights,
)
from schubertk.weyl import (
    RootSystem,
    WeylElement,
    apply,
    inverse,
    length,
    negate_weight,
    parse_window,
    reduced_word,
)

A7 = RootSystem("A", 7)
C4 = RootSystem("C", 4)
D6 = RootSystem("D", 6)
B5 = RootSystem("B", 5)
C5 = RootSystem("C", 5)
B4 = RootSystem("B", 4)

WA = parse_window(A7, "1,3,5,2,4,6,7")
VA = parse_window(A7, "4,6,7,1,2,3,5")
WC = parse_window(C4, "1,2,-4,-3")
VC = parse_window(C4, "2,-4,-3,-1")
WD = parse_window(D6, "1,2,4,6,-5,-3")
VD = parse_window(D6, "2,6,-5,-4,-3,-1")
WB = parse_window(B5, "1,2,4,-5,-3")
VB = parse_window(B5, "2,-5,-4,-3,-1")


def test_tangent_weights_at_identity_type_a():
    rs = RootSystem("A", 4)
    got = set(tangent_weights(rs, 2, identity(rs)))
    expect = set()
    for i in range(1, 3):
        for j in range(3, 5):
            v = [0] * 4
            v[i - 1], v[j - 1] = -1, 1
            expect.add(tuple(v))
    assert got == expect


@pytest.mark.parametrize(
    "rs,d,v",
    [
        (A7, 3, VA),
        (C4, None, VC),
        (D6, None, VD),
        (B5, None, VB),
    ],
)
def test_tangent_weight_count_is_dimension(rs, d, v):
    assert len(tangent_weights(rs, d, v)) == dim_gp(rs, d)


@pytest.mark.parametrize(
    "rs,d,v", [(A7, 3, VA), (C4, None, VC), (D6, None, VD), (B5, None, VB)]
)
def test_r_values_are_tangent_weights(rs, d, v):
    # the r(c) themselves lie in the tangent weight set at v
    mu = shape_of(v, d if rs.kind == "A" else rs.rank)
    word = reading_word(reflection_tableau(mu, rs, d))
    rvals = r_values(word, rs)
    tw = Counter(tangent_weights(rs, d, v))
    assert Counter(rvals) <= tw


def test_r_values_examples():
    rs = RootSystem("A", 3)
    assert r_values((2, 1), rs) == [(0, 1, -1), (1, 0, -1)]
    assert r_values((2,), rs) == [(0, 1, -1)]
    with pytest.raises(ValueError):
        r_values((1, 1), rs)
    # the first bad letter can follow a longer reduced prefix, and then only
    # the sign of the last r-value shows that the word is not reduced
    for kind, rank, word in [("A", 3, (1, 2, 1, 2)), ("C", 2, (1, 2, 1, 2, 1)),
                             ("B", 3, (3, 2, 3, 2, 3))]:
        rs = RootSystem(kind, rank)
        assert len(r_values(word[:-1], rs)) == len(word) - 1
        with pytest.raises(ValueError, match=rf"r\({len(word)}\) is a negative root"):
            r_values(word, rs)


# A with n <= 8 (every d), B/C up to rank 6 and D up to rank 7: 866 fixed
# points and 33,928 shape pairs
ROOT_DATA_SPACES = (
    [(RootSystem("A", n), d) for n in range(2, 9) for d in range(1, n)]
    + [(RootSystem(k, n), None) for k in "BC" for n in range(2, 7)]
    + [(RootSystem("D", n), None) for n in range(3, 8)]
)


def test_root_data_matches_the_dense_reference():
    # r(c) from two window entries and each tangent weight from v's window
    # equal the whole vectors pushed through the action, in order
    points = 0
    for rs, d in ROOT_DATA_SPACES:
        for v in minimal_reps(rs, d):
            word = reading_word(reflection_tableau(shape_of(v, d), rs, d))
            assert r_values(word, rs) == reference_r_values(word, rs), (rs, v)
            assert tangent_weights(rs, d, v) == reference_tangent_weights(rs, d, v), (rs, v)
            points += 1
    assert points == 866


def _r_values_or_refusal(r_values_of, word, rs):
    try:
        return r_values_of(word, rs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_r_values_refuse_a_bad_word_as_the_reference_does():
    # every word of up to 4 letters, 0 and num_simple + 1 included, and
    # each reading word made non-reduced or out of range
    words = {}
    for rs in (RootSystem("A", 4), RootSystem("B", 3), RootSystem("C", 3), RootSystem("D", 4)):
        letters = range(rs.num_simple + 2)
        words[rs] = [w for k in range(5) for w in itertools.product(letters, repeat=k)]
    for rs, d in ROOT_DATA_SPACES:
        for v in minimal_reps(rs, d):
            word = reading_word(reflection_tableau(shape_of(v, d), rs, d))
            cut = len(word) // 2
            words.setdefault(rs, []).extend([
                word + word[-1:], word[:cut] + (rs.num_simple + 1,) + word[cut:],
                word[:cut] + (0,) + word[cut:], word + (-1,),
            ])
    refused = 0
    for rs, batch in words.items():
        for word in batch:
            got = _r_values_or_refusal(r_values, word, rs)
            assert got == _r_values_or_refusal(reference_r_values, word, rs), (rs, word)
            refused += isinstance(got, str)
    assert refused == 7100  # of 7,362 words


def _box_formula_r(rs, d, v, box):
    """The closed-form root of a box of T_mu at the fixed point v, per type."""
    n = rs.rank
    i, j = box
    fw = full_window(v)
    if rs.kind == "A":
        vec = [0] * n
        vec[fw[d + j - 1] - 1] += 1
        vec[fw[d - i] - 1] -= 1
        return tuple(vec)
    if rs.kind in ("B", "C"):
        if rs.kind == "B" and i == j:
            return eps_of_entry(fw[n + i - 1], n)
        a = eps_of_entry(fw[n + i - 1], n)
        b = eps_of_entry(fw[n + j - 1], n)
        return tuple(x + y for x, y in zip(a, b))
    a = eps_of_entry(fw[n + i - 1], n)
    b = eps_of_entry(fw[n + j], n)
    return tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize(
    "rs,d,v", [(A7, 3, VA), (RootSystem("A", 8), 4, None), (C4, None, VC),
               (B5, None, VB), (D6, None, VD)]
)
def test_r_values_match_box_formulas(rs, d, v):
    if v is None:
        v = parse_window(rs, "3,5,6,8,1,2,4,7")
    _assert_r_values_match_box_formulas(rs, d, v)


def _assert_r_values_match_box_formulas(rs, d, v):
    mu = shape_of(v, d if rs.kind == "A" else rs.rank)
    T = reflection_tableau(mu, rs, d)
    word = reading_word(T)
    rvals = r_values(word, rs)
    for c, box in enumerate(T.reading_boxes):
        assert rvals[c] == _box_formula_r(rs, d, v, box), (rs, v, box, rvals[c])


def test_r_values_match_box_formulas_at_every_fixed_point():
    # every backend labels its boxes by the r-values; the closed forms are
    # checked here only, at every minimal representative of small rank
    configs = (
        [(RootSystem("A", n), d) for n in range(2, 8) for d in range(1, n)]
        + [(RootSystem(k, n), None) for k in "BC" for n in range(2, 7)]
        + [(RootSystem("D", n), None) for n in range(3, 8)]
    )
    points = 0
    for rs, d in configs:
        for v in minimal_reps(rs, d):
            _assert_r_values_match_box_formulas(rs, d, v)
            points += 1
    assert points == 612


def test_type_b_closed_form_uses_unshifted_indices():
    # the shifted-index variant (n+i+1, n+j+1) disagrees with the prefix
    # action somewhere, so the unshifted form is the one implemented
    mu = shape_of(VB, 5)
    T = reflection_tableau(mu, B5, None)
    rvals = r_values(reading_word(T), B5)
    fw = full_window(VB)
    n = 5

    def shifted(box):
        i, j = box
        if max(i, j) + 1 > n:  # the +1 indexing runs off the window here
            return None
        if i == j:
            return eps_of_entry(fw[n + i], n)
        a, b = eps_of_entry(fw[n + i], n), eps_of_entry(fw[n + j], n)
        return tuple(x + y for x, y in zip(a, b))

    mismatches = [
        c
        for c, box in enumerate(T.reading_boxes)
        if shifted(box) is None or rvals[c] != shifted(box)
    ]
    assert mismatches


def xi_vector(rs, d, v):
    """xi in Fractions, from the integers (den * xi, den) of `Point.xi`."""
    ixi, den = Pair.of(rs, d, v, v).point.xi
    return tuple(Fraction(x, den) for x in ixi)


@pytest.mark.parametrize(
    "rs,d,expect",
    [
        (RootSystem("A", 5), 2, (1, 1, 0, 0, 0)),
        (RootSystem("C", 3), None, (Fraction(1, 2),) * 3),
        (RootSystem("D", 4), None, (Fraction(1, 2),) * 4),
    ],
)
def test_xi_vector_at_identity(rs, d, expect):
    assert xi_vector(rs, d, identity(rs)) == tuple(Fraction(x) for x in expect)


def test_xi_vector_rejects_type_b():
    # B_n is not cominuscule: the xi of C and D pairs the short tangent
    # weights -eps_i to -1/2
    with pytest.raises(RuntimeError, match="xi pairing failed"):
        xi_vector(B5, None, identity(B5))


@pytest.mark.parametrize(
    "rs,d,v", [(A7, 3, VA), (C4, None, VC), (D6, None, VD)]
)
def test_xi_pairs_to_minus_one_on_tangent_weights(rs, d, v):
    xi = xi_vector(rs, d, v)
    for alpha in tangent_weights(rs, d, v):
        assert sum(Fraction(c) * x for c, x in zip(alpha, xi)) == -1


def test_pullback_identity_is_one():
    rs = RootSystem("A", 4)
    one = LaurentPoly.one(4)
    for backend in ("eyd", "svt", "hecke"):
        cls = pullback(rs, 2, identity(rs), identity(rs), backend=backend)
        assert cls.value == one and cls.on_variety


def test_pullback_off_variety_is_zero():
    rs = RootSystem("A", 4)
    w = parse_window(rs, "2,3,1,4")
    v = parse_window(rs, "1,3,2,4")
    cls = pullback(rs, 2, w, v)
    assert cls.value.is_zero() and not cls.on_variety
    data = hilbert_data(rs, 2, w, v)
    assert data.m == () and data.multiplicity == 0


def test_pullback_lagrangian_point_example():
    # C_2 with v = w = (2,-1): single shifted diagram, two boxes
    rs = RootSystem("C", 2)
    v = parse_window(rs, "2,-1")
    cls = pullback(rs, None, v, v)
    e1 = LaurentPoly.monomial((-2, 0)) - 1
    e2 = LaurentPoly.monomial((-1, 1)) - 1
    assert cls.value == e1 * e2


def test_pullback_even_orthogonal_point_example():
    # D_5: a single excited diagram with three boxes
    rs = RootSystem("D", 5)
    v = parse_window(rs, "2,4,5,-3,-1")
    w = parse_window(rs, "1,2,5,-4,-3")
    cls = pullback(rs, None, w, v)
    f1 = LaurentPoly.monomial((-1, 0, -1, 0, 0)) - 1
    f2 = LaurentPoly.monomial((-1, 0, 0, 0, 1)) - 1
    f3 = LaurentPoly.monomial((0, 0, -1, 0, 1)) - 1
    assert cls.value == (f1 * f2 * f3) * (-1)


@pytest.mark.parametrize("rank", [3, 4])
def test_b_via_d_matches_direct_b_exhaustively(rank):
    rs = RootSystem("B", rank)
    reps = minimal_reps(rs)
    for w in reps:
        for v in reps:
            direct = pullback(rs, None, w, v)
            lifted = pullback_b_via_d(w, v)
            assert direct.value == lifted.value, (w, v)


@pytest.mark.parametrize(
    "rs,d,w,v",
    [(A7, 3, WA, VA), (C4, None, WC, VC), (D6, None, WD, VD)],
)
def test_ev_xi_of_pullback_matches_m_vector(rs, d, w, v):
    # ev_xi(class) = sum_k (-1)^k m_k (1-t)^{l(w)+k}
    cls = pullback(rs, d, w, v)
    xi = xi_vector(rs, d, v)
    got = ev_xi(cls.value, xi)
    data = hilbert_data(rs, d, w, v)
    expect = {}
    for k, mk in enumerate(data.m):
        p = length(w) + k
        for idx in range(p + 1):
            c = (-1) ** k * mk * comb(p, idx) * (-1) ** idx
            expect[idx] = expect.get(idx, 0) + c
    expect = {deg: c for deg, c in expect.items() if c}
    assert got == expect


def test_hilbert_data_golden_values():
    a = hilbert_data(A7, 3, WA, VA)
    assert (a.d_w, a.m, a.multiplicity) == (9, (5, 5, 1), 5)
    c = hilbert_data(C4, None, WC, VC)
    assert (c.d_w, c.m, c.multiplicity) == (7, (4, 3), 4)
    d = hilbert_data(D6, None, WD, VD)
    assert (d.d_w, d.m, d.multiplicity) == (11, (5, 5, 1), 5)
    b = hilbert_data(B5, None, WB, VB)
    assert (b.d_w, b.m, b.multiplicity) == (11, (5, 5, 1), 5)
    assert hilbert_series_str(a) == "5/(1-t)^9 - 5/(1-t)^8 + 1/(1-t)^7"


@pytest.mark.parametrize("rs, d, w, v", [(A7, 3, WA, VA), (B5, None, WB, VB)])
def test_hilbert_data_rejects_unknown_method(rs, d, w, v):
    with pytest.raises(ValueError, match="unknown method"):
        hilbert_data(rs, d, w, v, method="subsets")


# every validating entry point of restriction
ENTRY_POINTS = pytest.mark.parametrize("compute", [
    lambda rs, d, w, v: pullback(rs, d, w, v),
    lambda rs, d, w, v: pullback_terms(Pair.of(rs, d, w, v)),
    lambda rs, d, w, v: hilbert_data(rs, d, w, v),
    lambda rs, d, w, v: hilbert_data(rs, d, w, v, method="hecke"),
    lambda rs, d, w, v: graded_character(rs, d, w, v, 1),
], ids=["pullback", "pullback_terms", "hilbert", "hilbert_hecke", "character"])


@ENTRY_POINTS
def test_root_system_mismatch_is_rejected(compute):
    # elements of A_5 (B_5) must not be read as elements of A_6 (B_6)
    A5 = RootSystem("A", 5)
    w, v = parse_window(A5, "1,3,2,4,5"), parse_window(A5, "3,4,1,2,5")
    with pytest.raises(ValueError, match="root system mismatch"):
        compute(RootSystem("A", 6), 2, w, v)
    with pytest.raises(ValueError, match="root system mismatch"):
        compute(RootSystem("B", 6), None, WB, VB)


# (rs, d, a minimal representative, an element that is not one) per type
NON_MINIMAL = [
    (A7, 3, WA, parse_window(A7, "2,1,3,4,5,6,7")),
    (B5, None, WB, parse_window(B5, "2,1,3,4,5")),
    (C4, None, WC, parse_window(C4, "2,1,3,4")),
    (D6, None, WD, parse_window(D6, "2,1,3,4,5,6")),
]


@ENTRY_POINTS
@pytest.mark.parametrize("rs, d, good, bad", NON_MINIMAL, ids=["A", "B", "C", "D"])
def test_non_minimal_elements_are_rejected(compute, rs, d, good, bad):
    for w, v in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="is not minimal"):
            compute(rs, d, w, v)


@pytest.mark.parametrize("rank", range(2, 7))
def test_b_to_d_lift_keeps_length_and_dimension(rank):
    rs = RootSystem("B", rank)
    assert dim_gp(rs) == dim_gp(RootSystem("D", rank + 1))
    for w in minimal_reps(rs):
        assert length(bd_identify_inverse(w)) == length(w), w
        # hilbert_data and graded_character reuse the B_n shapes upstairs
        assert shape_of(bd_identify_inverse(w)) == shape_of(w), w


def test_only_a_type_b_pair_is_lifted():
    pair = Pair.of(C4, None, perm_of_strict((2, 1), C4), perm_of_strict((4, 3), C4))
    with pytest.raises(ValueError, match=r"^Pair.lifted lifts a type B pair to D5, not a C4 pair$"):
        pair.lifted


@pytest.mark.parametrize("method", ["svt", "eyd", "hecke"])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_type_b_hilbert_data_is_that_of_the_lifted_pair(rank, method):
    rs = RootSystem("B", rank)
    reps = minimal_reps(rs)
    for w in reps:
        wD = bd_identify_inverse(w)
        for v in reps:
            data = hilbert_data(rs, None, w, v, method=method)
            lifted = hilbert_data(wD.rstype, None, wD, bd_identify_inverse(v), method=method)
            assert data == lifted, (w, v)
            assert data.d_w == dim_gp(rs) - length(w)


def test_hilbert_polynomial_values():
    data = hilbert_data(A7, 3, WA, VA)
    assert hilbert_polynomial_value(data, 0) == 1
    assert hilbert_polynomial_value(data, 1) == 5 * 8 - 5 * 7 + 7
    coeffs = hilbert_polynomial_coeffs(data)
    for n in range(8):
        assert sum(c * n**k for k, c in enumerate(coeffs)) == hilbert_polynomial_value(
            data, n
        )
    # leading coefficient times (d_w - 1)! recovers the multiplicity
    assert coeffs[-1] * factorial(data.d_w - 1) == data.multiplicity


def test_hilbert_point_case():
    # w = v = longest element: X^w is the point v, so h = 1, 0, 0, ...
    rs = RootSystem("A", 4)
    top = perm_of((2, 2), 2, 4)
    data = hilbert_data(rs, 2, top, top)
    assert data.d_w == 0 and data.m == (1,)
    assert hilbert_polynomial_value(data, 0) == 1
    assert hilbert_polynomial_value(data, 3) == 0


def _times_linear(poly, root):
    """poly (ascending coefficients) times (n - root)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] -= root * c
    return out


def _lagrange(points):
    """Ascending coefficients of the polynomial through [(x, y), ...]."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [c / (xi - xj) for c in _times_linear(basis, xj)]
        for k, c in enumerate(basis):
            total[k] += yi * c
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(total)


@pytest.mark.parametrize(
    "rs,d",
    [(RootSystem("A", 5), 2), (RootSystem("A", 6), 3), (C4, None),
     (RootSystem("D", 5), None)],
)
def test_hilbert_polynomial_coeffs_interpolate_the_hilbert_function(rs, d):
    # d_w + 1 values at n >= 1 determine a polynomial of degree <= d_w; a
    # K = 0 term (the point case) only shows at n = 0
    reps = list(minimal_reps(rs, d))
    points = 0
    for w in reps:
        for v in reps:
            data = hilbert_data(rs, d, w, v)
            if not data.m:
                continue
            points += data.d_w == 0
            ns = range(1, data.d_w + 2)
            values = [(n, hilbert_polynomial_value(data, n)) for n in ns]
            assert hilbert_polynomial_coeffs(data) == _lagrange(values), (w, v)
    assert points > 0


@pytest.mark.parametrize(
    "rs,d",
    [(RootSystem("A", 6), 3), (RootSystem("C", 5), None), (RootSystem("D", 5), None)],
)
def test_xi_vector_matches_the_fraction_construction(rs, d):
    for v in minimal_reps(rs, d):
        xi = xi_vector(rs, d, v)
        assert xi == reference_xi(rs, d, v)


def test_graded_character_smooth_and_point_cases():
    rs = RootSystem("A", 4)
    idm = identity(rs)
    series = graded_character(rs, 2, idm, idm, 3)
    dim = dim_gp(rs, 2)
    assert series.dims() == [comb(i + dim - 1, dim - 1) for i in range(4)]
    v = perm_of((2, 2), 2, 4)
    series_pt = graded_character(rs, 2, v, v, 2)
    assert series_pt.dims() == [1, 0, 0]


def test_graded_character_matches_hilbert_polynomial():
    for rs, d, w, v in [(A7, 3, WA, VA), (C4, None, WC, VC)]:
        data = hilbert_data(rs, d, w, v)
        series = graded_character(rs, d, w, v, 3)
        assert series.dims() == [hilbert_polynomial_value(data, i) for i in range(4)]


def test_graded_character_b_via_d():
    data = hilbert_data(B5, None, WB, VB)
    series = graded_character(B5, None, WB, VB, 2)
    assert series.dims() == [hilbert_polynomial_value(data, i) for i in range(3)]
    assert all(s.rank == 5 for s in series.slices)


@pytest.mark.parametrize("rs,d,w,v", [(A7, 3, WA, VA), (B5, None, WB, VB)], ids=["A", "B"])
def test_negative_truncation_is_refused_before_the_class(monkeypatch, rs, d, w, v):
    # the numerator is the hecke class, of the lifted pair in type B
    calls = []
    monkeypatch.setattr(hecke, "fold_dp", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
        graded_character(rs, d, w, v, -1)
    assert calls == []


SMALL_SPACES = ([(RootSystem("A", n), d) for n in range(2, 7) for d in range(1, n)]
                + [(RootSystem(kind, n), None) for kind in "BCD" for n in range(2, 6)
                   if (kind, n) != ("D", 2)])


@pytest.mark.parametrize("rs, d", SMALL_SPACES,
                         ids=[f"{rs.kind}{rs.rank}" + (f"-{d}" if d else "") for rs, d in SMALL_SPACES])
def test_truncated_numerator_matches_the_whole_class_at_every_small_pair(rs, d):
    # the DP drops the numerator's terms past N; the whole class, graded in
    # Fractions, gives the same slices, and the dims are the Hilbert function
    for w, v in _on_variety_pairs(rs, d):
        pair = Pair.of(rs, d, w, v)
        want = reference_character(pair, 4).slices
        for N in range(5):
            series = restriction.pair_character(pair, N)
            assert series.slices == want[:N + 1], (w, v, N)
        data = restriction.pair_hilbert(pair)
        assert series.dims() == [hilbert_polynomial_value(data, n) for n in range(5)], (w, v)


def test_an_exponent_of_xi_degree_2_is_refused():
    # one factor e^g with g(xi) = 2 would land in the wrong degree slice
    # corrupted in a point built outside the cache, which no other query reads
    pair = Pair.of(C4, None, WC, VC)
    point = restriction.Point(C4, pair.d, VC, pair.mu)
    box, g = next(iter(point.exponents.items()))
    point.__dict__["exponents"] = {**point.exponents, box: tuple(2 * x for x in g)}
    pair.__dict__["point"] = point
    with pytest.raises(RuntimeError, match=r"xi-degree check failed: .*\(xi\) = 2$"):
        restriction.pair_character(pair, 2)


def test_dim_gp_counts_the_roots_outside_the_levi():
    closed = {"A": lambda n, d: d * (n - d), "B": lambda n, d: n * (n + 1) // 2,
              "C": lambda n, d: n * (n + 1) // 2, "D": lambda n, d: n * (n - 1) // 2}
    for kind in "ABCD":
        for n in range(3 if kind == "D" else 2, 8):
            rs = RootSystem(kind, n)
            for d in range(1, n) if kind == "A" else [None]:
                roots = levi_complement_roots(rs, d)
                assert dim_gp(rs, d) == len(roots) == closed[kind](n, d), (rs, d)
    for d in (None, 0, 5, 7):
        with pytest.raises(ValueError, match="type A needs"):
            dim_gp(RootSystem("A", 5), d)


def test_pair_of_shapes_is_the_pair_of_their_windows():
    # field for field (w and v compare by window) on every shape pair of the
    # spaces; each built window passes the checks and is the sorted one
    pairs = 0
    for rs, d in ROOT_DATA_SPACES:
        shapes = all_shapes(rs, d)
        if rs.kind == "A":
            reps = [perm_of(lam, d, rs.rank) for lam in shapes]
        else:
            reps = [perm_of_strict(lam, rs) for lam in shapes]
        for lam, w in zip(shapes, reps):
            assert w == WeylElement(rs, w.window) == reference_rep_of(lam, rs, d)
        for lam, w in zip(shapes, reps):
            for mu, v in zip(shapes, reps):
                pair = Pair.of_shapes(rs, d, lam, mu)
                assert pair == Pair.of(rs, d, w, v), (rs, d, lam, mu)
                if rs.kind == "B":
                    wD, vD = bd_identify_inverse(w), bd_identify_inverse(v)
                    assert pair.lifted == Pair.of(wD.rstype, None, wD, vD)
                pairs += 1
    assert pairs == 33928


def test_pair_of_shapes_trims_its_shapes():
    pair = Pair.of_shapes(A7, 3, (2, 1, 0), [3, 3, 1])
    assert (pair.lam, pair.mu) == ((2, 1), (3, 3, 1))
    assert pair == Pair.of_shapes(A7, 3, (2, 1), (3, 3, 1))


def test_positivity_of_factored_terms():
    # class = (-1)^{l(w)} sum of products of (e^{-r} - 1) with every r a
    # positive root lying in the tangent weight set at v
    from oracles import is_positive_root_vector

    for rs, d, w, v in [(A7, 3, WA, VA), (C4, None, WC, VC), (D6, None, WD, VD),
                        (B5, None, WB, VB)]:
        tw = set(tangent_weights(rs, d, v))
        terms = pullback_terms(Pair.of(rs, d, w, v), backend="eyd")
        if rs.kind != "B":
            # type B hilbert data counts the (fewer) D-side diagrams
            assert len(terms) == sum(hilbert_data(rs, d, w, v).m)
        total = LaurentPoly.zero(rs.rank)
        for exps in terms:
            prod = LaurentPoly.one(rs.rank)
            for g in exps:
                r = negate_weight(g)
                assert r in tw
                assert is_positive_root_vector(r)
                prod = prod * (LaurentPoly.monomial(g) - 1)
            total = total + prod
        sign = -1 if length(w) % 2 else 1
        assert total * sign == pullback(rs, d, w, v).value


def test_backend_report():
    report = check_backends(C4, None, WC, VC)
    assert report.agree
    names = [name for name, _ in report.classes]
    assert names == ["eyd", "svt", "hecke"]
    report_b = check_backends(RootSystem("B", 3), None,
                              perm_of_strict((1,), RootSystem("B", 3)),
                              perm_of_strict((3, 1), RootSystem("B", 3)))
    assert report_b.agree and len(report_b.classes) == 4


def test_a_mismatch_names_the_least_monomial_where_the_classes_differ():
    p = LaurentPoly(2, {(1, 0): 2, (0, 1): 1, (-1, 5): 3})
    q = LaurentPoly(2, {(1, 0): 2, (0, 1): 4, (-1, 5): 3, (-2, 0): 0, (3, -3): 1})
    assert restriction._first_difference(p, q) == "monomial (0, 1): 1 != 4"
    assert restriction._first_difference(q, LaurentPoly(2, {(-1, -9): 1})) == "monomial (-1, -9): 0 != 1"
    assert restriction._first_difference(p, p) == "values equal"


def test_the_eyd_class_builds_t_mu_once_and_runs_no_transfer_dp(monkeypatch):
    expect = pullback(A7, 3, WA, VA, backend="hecke")
    calls = []
    real = restriction.reflection_tableau

    def counted(*args):
        calls.append(args)
        return real(*args)

    def unexpected(*args):
        raise AssertionError("svt_sum ran")

    monkeypatch.setattr(restriction, "reflection_tableau", counted)
    monkeypatch.setattr(restriction, "svt_sum", unexpected)
    monkeypatch.setattr(tableaux, "svt_sum", unexpected)
    assert pullback(A7, 3, WA, VA, backend="eyd") == expect
    assert len(calls) == 0  # the hecke class built the point's T_mu


def _decoded(packed, rank):
    return {unpack(k, rank): c for k, c in packed.items() if c}


def _on_variety_pairs(rs, d=None):
    reps = minimal_reps(rs, d)
    shapes = [shape_of(u, d) for u in reps]
    return [(w, v) for w, lam in zip(reps, shapes) for v, mu in zip(reps, shapes)
            if contains(lam, mu)]


_A, _B, _C = (1, 0, -1), (0, 2, 0), (-1, 1, 1)
_EXPS = (_A, _B, _C, _A)  # bit k carries _EXPS[k]; bits 0 and 3 carry one exponent


def _masked_sum(masks, exps=_EXPS):
    """The eyd sum of a family of masks, bit k carrying the exponent exps[k],
    decoded without zeros."""
    keys = {1 << k: ring.pack(g) for k, g in enumerate(exps)}
    return _decoded(restriction._sum_of_products(masks, keys), len(exps[0]))


def _terms_of(masks, exps=_EXPS):
    """Each mask as the tuple of the exponents of its bits, for the oracle."""
    return [tuple(g for k, g in enumerate(exps) if m >> k & 1) for m in masks]


def _family_of(pair):
    """The eyd class's family: each diagram as a mask, one bit per box of
    D_mu in row-major order, and the factor key of each bit."""
    keys = pair.point.factor_keys
    bit = {box: 1 << k for k, box in enumerate(sorted(keys))}
    masks = [sum(map(bit.__getitem__, C.sorted_boxes()))
             for C in enumerate_eyd(pair.lam, pair.mu, pair.geometry)]
    return masks, {b: keys[box] for box, b in bit.items()}


def test_horner_sum_matches_the_term_by_term_expansion():
    for masks in ([], [0], [0b11, 0b11], [0b1, 0b11], [0b11, 0b1],
                  [0b111, 0b1, 0b10, 0, 0b101, 0b11], [0b1001, 0b1000, 0b1]):
        assert _masked_sum(masks) == sum_of_products(_terms_of(masks), 3)
    # the empty family sums to 0, and a family of k empty masks to k
    assert restriction._sum_of_products([], {}) == {}
    assert restriction._sum_of_products([0], {}) == {0: 1}
    assert restriction._sum_of_products([0, 0, 0], {}) == {0: 3}


@pytest.mark.parametrize("masks", [
    [],
    [0],
    [0b11, 0b11, 0, 0],  # duplicates, empty or not, summed with multiplicity
    [0b101, 0b110, 0b100, 0b111, 0b111],  # equal suffixes under different prefixes
    [0b011, 0b110, 0b110, 0b111, 0b010],  # equal unions, multiplicities differ
    [0b1, 0b11, 0b10, 0, 0b1001, 0b1011, 0b1010],  # bits 0 and 3 carry one exponent
], ids=["empty", "unit", "duplicate", "suffixes", "counts", "mixed"])
def test_the_automaton_sum_matches_the_term_by_term_sum(masks):
    # every sub-family is summed once, whatever the order of the masks
    expect = sum_of_products(_terms_of(masks), 3)
    for order in set(itertools.permutations(masks)):
        assert _masked_sum(order) == expect


def test_horner_sum_does_not_depend_on_the_order_of_the_terms():
    rs = RootSystem("A", 7)
    pair = Pair.of(rs, 3, WA, VA)
    masks, keys = _family_of(pair)
    expect = sum_of_products(pullback_terms(pair), rs.rank)
    rnd = random.Random(0)
    for _ in range(5):
        shuffled = rnd.sample(masks, len(masks))
        assert _decoded(restriction._sum_of_products(shuffled, keys), rs.rank) == expect


@pytest.mark.parametrize("rs, d", [(RootSystem("A", 5), 2), (C4, None), (RootSystem("D", 5), None)])
def test_horner_sum_matches_the_term_by_term_expansion_at_every_pair(rs, d):
    for w, v in _on_variety_pairs(rs, d):
        pair = Pair.of(rs, d, w, v)
        got = _decoded(restriction._sum_of_products(*_family_of(pair)), rs.rank)
        assert got == sum_of_products(pullback_terms(pair, backend="eyd"), rs.rank), (w, v)


def _reads_of_the_eyd_class(monkeypatch, rs, d, w, v):
    """The entries the eyd sum reads for one pair, and its kernel calls."""
    reads = []
    real = restriction.add_binomial_into

    def counted(dst, src, g, shift=0):
        reads.append(len(src))
        real(dst, src, g, shift)

    monkeypatch.setattr(restriction, "add_binomial_into", counted)
    pullback(rs, d, w, v, backend="eyd")
    monkeypatch.undo()
    return sum(reads), len(reads)


@pytest.mark.parametrize("rs, d, lam, mu, reads, calls", [
    (RootSystem("A", 11), 5, (3, 2, 2, 1), (6, 5, 4, 3, 2), 2856, 39),
    (RootSystem("C", 6), None, (3, 2, 1), (6, 5, 4, 3, 2), 1147, 37),
    (RootSystem("D", 7), None, (4, 2, 1), (6, 5, 4, 3, 2, 1), 1729, 49),
    (B5, None, (3, 2, 1), (5, 4, 3, 2, 1), 753, 37),
], ids=["A11", "C6", "D7", "B5"])
def test_the_eyd_sum_shares_the_prefixes_of_the_diagrams(monkeypatch, rs, d, lam, mu, reads, calls):
    # the term-by-term sum reads sum_t (2^k_t - 1) entries, k_t the size of
    # term t; the decision diagram's reads and kernel calls are pinned exactly
    if rs.kind == "A":
        w, v = perm_of(lam, d, rs.rank), perm_of(mu, d, rs.rank)
    else:
        w, v = perm_of_strict(lam, rs), perm_of_strict(mu, rs)
    per_term = sum(2 ** len(t) - 1 for t in pullback_terms(Pair.of(rs, d, w, v)))
    got = _reads_of_the_eyd_class(monkeypatch, rs, d, w, v)
    assert 10 * got[0] <= per_term
    assert got == (reads, calls)


def _least_stack(run):
    """The fewest frames over the caller's depth under which run() returns or
    raises ValueError, with what it returned or raised."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    try:
        for room in itertools.count(1):
            try:  # a limit below the stack's real depth is refused as well
                sys.setrecursionlimit(depth + room)
                return room, run()
            except RecursionError:
                continue
            except ValueError as exc:
                return room, exc
    finally:
        sys.setrecursionlimit(limit)


def test_the_eyd_sum_does_not_recurse_per_bit(monkeypatch):
    # the eyd class of C6 (3,2,1)/(6,5,4,3,2), whose masks use 12 of the 20
    # bits of D_mu, and that of A12 lambda = mu = 6^6, one 36-bit mask, need
    # no more stack than the class of one box: no frame per bit
    C6, A12 = RootSystem("C", 6), RootSystem("A", 12)
    one = Pair.of_shapes(C6, None, (1,), (1,))
    c6 = Pair.of_shapes(C6, None, (3, 2, 1), (6, 5, 4, 3, 2))
    full = Pair.of_shapes(A12, 6, (6,) * 6, (6,) * 6)
    assert (len(c6.point.factor_keys), len(full.point.factor_keys)) == (20, 36)
    # the expansion of 6^6 passes the budget (that of 6^5 has 15,450,912
    # terms), so a small budget stops its sum after the descent through all
    # 36 bits, and a sum that missed the budget fails at the kernel, not in
    # memory; each class runs once first, so no cache is built under the limit
    kernel = restriction.add_binomial_into

    def bounded(dst, src, g):
        assert len(src) <= 10**5
        kernel(dst, src, g)

    monkeypatch.setattr(restriction, "add_binomial_into", bounded)
    monkeypatch.setattr(ring, "MAX_EXPANSION", 10**4)
    runs = [lambda p=p: restriction.pair_class(p, "eyd") for p in (one, c6, full)]
    with pytest.raises(ValueError, match="entries read.*--format latex"):
        runs[2]()
    expect = [runs[0](), restriction.pair_class(c6, "hecke")]
    (base, unit), (room, got), (deep, refused) = map(_least_stack, runs)
    assert [unit, got] == expect
    assert isinstance(refused, ValueError) and "--format latex" in str(refused)
    assert room <= base + 2 and deep <= base + 2, (base, room, deep)


def _work_of_the_svt_sum(monkeypatch, run):
    """The kernel calls of the svt sum, its state visits (one `check_work`
    call each) and the entries it has read before its last state."""
    calls, work = [], []
    kernel, check = tableaux.add_binomial_into, ring.check_work

    def counted(*args):
        calls.append(args)
        kernel(*args)

    def checked(read, *args):
        work.append(read)
        return check(read, *args)

    monkeypatch.setattr(tableaux, "add_binomial_into", counted)
    monkeypatch.setattr(tableaux, "check_work", checked)
    run()
    monkeypatch.undo()
    return len(calls), len(work), work[-1]


@pytest.mark.parametrize("mu, run, work", [
    ((6, 5, 4, 3, 2), lambda pair: restriction.pair_class(pair, "svt"), (96, 41, 1938)),
], ids=["class"])
def test_the_svt_sum_makes_one_kernel_call_per_state_and_maximum(monkeypatch, mu, run, work):
    C6 = RootSystem("C", 6)
    pair = Pair.of(C6, None, perm_of_strict((3, 2, 1), C6), perm_of_strict(mu, C6))
    assert _work_of_the_svt_sum(monkeypatch, lambda: run(pair)) == work


def test_the_character_runs_the_fold_dp_and_no_transfer_dp(monkeypatch):
    C6 = RootSystem("C", 6)
    pair = Pair.of(C6, None, perm_of_strict((3, 2, 1), C6), perm_of_strict((6, 4, 3, 2, 1), C6))
    expect = reference_character(pair, 4).slices
    calls = []
    real = hecke.fold_dp

    def counted(*args):
        calls.append(args)
        return real(*args)

    def unexpected(*args):
        raise AssertionError("svt_sum ran")

    monkeypatch.setattr(hecke, "fold_dp", counted)
    monkeypatch.setattr(restriction, "svt_sum", unexpected)
    monkeypatch.setattr(tableaux, "svt_sum", unexpected)
    assert restriction.pair_character(pair, 4).slices == expect
    assert len(calls) == 1


def test_every_box_of_d_mu_is_packed_once_per_pair(monkeypatch):
    # the three classes of a check read one table of box keys, and the
    # character reuses it, packing only its degree digit and its cap
    C5 = RootSystem("C", 5)
    pair = Pair.of(C5, None, perm_of_strict((3, 1), C5), perm_of_strict((5, 4, 2), C5))
    packed, words = [], []
    real_pack, real_r_values = restriction.pack, restriction.r_values

    def counted_pack(*args):
        packed.append(args)
        return real_pack(*args)

    def counted_r_values(*args):
        words.append(args)
        return real_r_values(*args)

    monkeypatch.setattr(restriction, "pack", counted_pack)
    monkeypatch.setattr(restriction, "r_values", counted_r_values)
    assert restriction.pair_check(pair).agree
    assert (len(packed), len(words)) == (11, 1)
    del packed[:]
    restriction.pair_character(pair, 3)
    assert sorted(packed) == sorted([((0,) * 5, 1), ((-ring.LIMIT,) * 5, 4)])
    assert len(words) == 1


POINT_FIELDS = ("tableau", "word", "exponents", "factor_keys", "tangent_weights", "xi")


def _count_point_builds(monkeypatch) -> Counter:
    """Counts restriction's T_mu builds, r-value runs and packs of one box's
    exponent (a one-argument `pack`; the character also packs a degree
    digit and a cap, with two)."""
    calls = Counter()
    for name in ("reflection_tableau", "r_values", "pack"):
        def counted(*args, real=getattr(restriction, name), name=name):
            calls[name if name != "pack" or len(args) == 1 else "graded pack"] += 1
            return real(*args)
        monkeypatch.setattr(restriction, name, counted)
    return calls


SECOND_QUERIES = {  # a first pair_check at each v, then another query there
    "another-w": (C5, lambda mu: restriction.pair_class(Pair.of_shapes(C5, None, (2, 1), mu))),
    "another-backend": (C5, lambda mu: restriction.pair_class(Pair.of_shapes(C5, None, (3, 1), mu), "svt")),
    "character": (C5, lambda mu: restriction.pair_character(Pair.of_shapes(C5, None, (4, 1), mu), 3)),
    "windows": (C5, lambda mu: restriction.pair_class(
        Pair.of(C5, None, perm_of_strict((2,), C5), perm_of_strict(mu, C5)), "hecke")),
    "B-lift": (B4, lambda mu: restriction.pair_character(Pair.of_shapes(B4, None, (3,), mu), 2)),
}


@pytest.mark.parametrize("name", SECOND_QUERIES)
def test_a_second_query_at_the_same_point_builds_none_of_its_data(name, monkeypatch):
    # T_mu, the r-values and the box keys depend on v alone, so the first
    # query at v builds them and every later one reads them
    rs, second = SECOND_QUERIES[name]
    mu = (5, 4, 2) if rs.kind == "C" else (4, 3, 1)
    calls = _count_point_builds(monkeypatch)
    restriction.pair_check(Pair.of_shapes(rs, None, (3, 1), mu))
    builds = 1 if rs.kind == "C" else 2  # and the B pair's lift to D_{n+1}
    assert calls["reflection_tableau"] == calls["r_values"] == builds
    calls.clear()
    second(mu)
    assert calls["reflection_tableau"] == calls["r_values"] == calls["pack"] == 0, calls


def _in_order(value):
    """A dict as its items in order (the order of the keys is the word's),
    anything else as it is."""
    return list(value.items()) if isinstance(value, dict) else value


@pytest.mark.parametrize("rs, d, lam, mu", [
    (A7, 3, (2, 1), (3, 3, 1)),
    (C4, None, (2, 1), (4, 2, 1)),
    (D6, None, (3, 1), (5, 4, 2, 1)),
    (B5, None, (3, 1), (5, 4, 3, 1)),
], ids=["A7", "C4", "D6", "B5"])
def test_no_engine_writes_into_the_cached_point(rs, d, lam, mu):
    # every engine reads the point of its pair from one per-process cache,
    # so after all of them its data is still that of a freshly built point
    pair = Pair.of_shapes(rs, d, lam, mu)
    points = [pair.point] + ([pair.lifted.point] if rs.kind == "B" else [])
    # a type B point refuses xi (test_a_point_property_that_raises_raises_again)
    readable = [POINT_FIELDS[:-1] if p.rstype.kind == "B" else POINT_FIELDS for p in points]
    for point, names in zip(points, readable):  # built before any engine runs
        assert point is restriction._fixed_point(point.rstype, point.d, point.v, point.mu)
        assert isinstance(point.tangent_weights, tuple)
        for name in names:
            getattr(point, name)
    for backend in restriction.BACKENDS:
        restriction.pair_class(pair, backend)
        restriction.pullback_terms(pair, backend)
        restriction.pair_hilbert(pair, backend)
    restriction.pair_character(pair, 3)
    restriction.pair_check(pair)
    for point, names in zip(points, readable):
        fresh = restriction.Point(point.rstype, point.d, point.v, point.mu)
        for name in names:
            assert _in_order(getattr(point, name)) == _in_order(getattr(fresh, name)), (point, name)
        T, U = point.tableau, fresh.tableau
        assert (_in_order(T.entries), T.reading_boxes) == (_in_order(U.entries), U.reading_boxes)


def test_a_point_property_that_raises_raises_again():
    # B_n is not cominuscule: its tangent weights do not all pair to -1 with
    # xi, and the refused xi is not cached with the point
    point = Pair.of_shapes(B5, None, (3, 1), (5, 4, 3, 1)).point
    for _ in range(2):
        with pytest.raises(RuntimeError, match=r"^xi pairing failed: "):
            point.xi
    assert "xi" not in vars(point)
    assert point is Pair.of_shapes(B5, None, (2,), (5, 4, 3, 1)).point


def test_the_eyd_class_lists_the_diagrams_once_and_builds_no_factored_terms(monkeypatch):
    calls = []
    real = restriction.enumerate_eyd

    def counted(*args):
        calls.append(args)
        return real(*args)

    def unexpected(*args, **kwargs):
        raise AssertionError("pullback_terms ran")

    pair = Pair.of(A7, 3, WA, VA)
    expect = restriction.pair_class(pair, "hecke").value
    monkeypatch.setattr(restriction, "enumerate_eyd", counted)
    monkeypatch.setattr(restriction, "pullback_terms", unexpected)
    assert restriction.pair_class(pair, "eyd").value == expect
    assert len(calls) == 1


# both validate the B_n pair once and build the svt numerator from the
# lifted shapes, without the public pullback, as in A, C, D
@pytest.mark.parametrize("compute, shapes", [
    (lambda rs, w, v: hilbert_data(rs, None, w, v), 2),
    (lambda rs, w, v: graded_character(rs, None, w, v, 2), 2),
], ids=["hilbert", "character"])
def test_type_b_input_is_validated_once(monkeypatch, compute, shapes):
    calls = []
    real = restriction.shape_of

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(restriction, "shape_of", counted)
    compute(B5, WB, VB)
    assert len(calls) == shapes


def test_character_to_degree_6_matches_the_hilbert_function():
    # the guard is sum_i |num_i| C(6 - i + D, D) = 413,662 term products;
    # len(num) C(6 + D, D) was 116,331,930, past the budget
    rs = RootSystem("C", 6)
    w, v = perm_of_strict((3, 2, 1), rs), perm_of_strict((6, 4, 3, 2, 1), rs)
    data = hilbert_data(rs, None, w, v)
    dims = graded_character(rs, None, w, v, 6).dims()
    assert dims == [hilbert_polynomial_value(data, n) for n in range(7)]
    assert dims == [1, 21, 231, 1721, 9751, 45003, 176988]


INVARIANT_SPACES = (
    [(RootSystem("A", n), d) for n in range(2, 8) for d in range(1, n)]
    + [(RootSystem(kind, r), None) for kind in "BC" for r in range(2, 6)]
    + [(RootSystem("D", r), None) for r in range(3, 7)]
)


def _normal_product(rank, roots, sign):
    """sign * prod over the roots gamma of (e^{-gamma} - 1)."""
    out = LaurentPoly.one(rank) * sign
    for gamma in roots:
        out = out * (LaurentPoly.monomial(negate_weight(gamma)) - 1)
    return out


def test_the_class_at_w_is_the_product_over_the_inversions_of_w_inverse():
    # psi^w(w) = (-1)^{|lam|} prod (e^{-gamma} - 1) over N(w^-1), the positive
    # roots gamma with w^-1(gamma) negative: read off all positive roots,
    # with no reduced word and no diagram
    elements = 0
    for rs, d in INVARIANT_SPACES:
        roots = positive_roots(rs)
        for w in minimal_reps(rs, d):
            elements += 1
            pair = Pair.of(rs, d, w, w)
            winv = inverse(w)
            normal = [g for g in roots if not is_positive_root_vector(apply(winv, g))]
            sign = (-1) ** size(pair.lam)
            expect = _normal_product(rs.rank, normal, sign)
            for backend in restriction.BACKENDS:
                assert restriction.pair_class(pair, backend).value == expect, (rs, w, backend)
    assert elements == 420
    # one root of N(w^-1) negated, or the sign flipped, is a different class
    got = pullback(C4, None, WC, WC).value
    normal = [g for g in positive_roots(C4) if not is_positive_root_vector(apply(inverse(WC), g))]
    sign = (-1) ** size(shape_of(WC, None))
    assert got == _normal_product(4, normal, sign)
    assert got != _normal_product(4, [negate_weight(normal[0])] + normal[1:], sign)
    assert got != _normal_product(4, normal, -sign)


def test_the_fold_over_the_reading_word_of_v_vanishes_off_the_variety():
    # the hecke fold over v's reading word, without the containment shortcut
    # the library takes, has no subword of Demazure product w when v is not >= w
    off = 0
    for rs, d in INVARIANT_SPACES:
        reps = minimal_reps(rs, d)
        for v in reps:
            for w in reps:
                pair = Pair.of(rs, d, w, v)
                if not pair.on_variety:
                    off += 1
                    assert pullback_hecke_with_word(rs, w, pair.point.word).is_zero(), (rs, w, v)
        # the same fold does not vanish on the variety: at w = v it is the diagonal
        top = max(reps, key=length)
        assert not pullback_hecke_with_word(rs, top, Pair.of(rs, d, top, top).point.word).is_zero()
    assert off == 4833


def _closed_form_mismatches(spaces, seed=16):
    """(checks, mismatches) of every backend's class, evaluated mod P61 at
    two seeded points per pair, against the type A bialternant."""
    rng, checks, mismatches = random.Random(seed), 0, 0
    for rs, d in spaces:
        reps = minimal_reps(rs, d)
        for w in reps:
            for v in reps:
                pair = Pair.of(rs, d, w, v)
                classes = [restriction.pair_class(pair, b).value for b in restriction.BACKENDS]
                for _ in range(2):
                    t = [rng.randrange(2, P61) for _ in range(rs.rank)]
                    want = closed_form_value(pair, t)
                    checks += len(classes)
                    mismatches += sum(value_at(c, t) != want for c in classes)
    return checks, mismatches


def test_the_type_a_class_is_the_factorial_grothendieck_bialternant():
    # the closed form reads v's window and lam alone, so it checks the
    # r-values that all three engines share; every pair of A with n <= 6,
    # on and off the variety
    spaces = [(RootSystem("A", n), d) for n in range(2, 7) for d in range(1, n)]
    assert _closed_form_mismatches(spaces) == (7572, 0)


def test_the_bialternant_catches_one_negated_r_value(monkeypatch):
    def one_negated(word, rstype):
        roots = r_values(word, rstype)
        return [negate_weight(roots[0])] + roots[1:] if roots else roots

    monkeypatch.setattr(restriction, "r_values", one_negated)
    restriction._fixed_point.cache_clear()
    checks, mismatches = _closed_form_mismatches([(RootSystem("A", 4), 2)])
    assert checks == 216 and mismatches > 0


def test_the_bialternant_catches_a_dropped_term_and_a_flipped_sign():
    pair = Pair.of_shapes(RootSystem("A", 6), 3, (2, 1), (3, 2, 1))
    value = restriction.pair_class(pair, "hecke").value
    rng = random.Random(16)
    t = [rng.randrange(2, P61) for _ in range(6)]
    want = closed_form_value(pair, t)
    assert value_at(value, t) == want != 0
    assert value_at(value * -1, t) != want
    dropped = dict(list(value.terms.items())[1:])
    assert value_at(LaurentPoly(6, dropped), t) != want


def test_grassmannian_duality_transposes_the_shapes_and_flips_the_weights():
    # Gr(d, n) = Gr(n - d, n) sends X^lam to X^lam': psi^lam'(mu') is
    # psi^lam(mu) under eps_i -> -eps_{n+1-i}; negation or reversal alone is
    # not the map, and each fails on many pairs
    maps = {
        "dual": lambda e: tuple(-x for x in reversed(e)),
        "negated": lambda e: tuple(-x for x in e),
        "reversed": lambda e: e[::-1],
    }
    pairs, mismatches = 0, Counter()
    for n in range(2, 8):
        rs = RootSystem("A", n)
        for d in range(1, n // 2 + 1):
            shapes = all_shapes(rs, d)
            for lam in shapes:
                for mu in shapes:
                    here = restriction.pair_class(Pair.of_shapes(rs, d, lam, mu), "hecke")
                    there = restriction.pair_class(
                        Pair.of_shapes(rs, n - d, transpose(lam), transpose(mu)), "hecke")
                    here, there = here.value.terms, there.value.terms
                    pairs += 1
                    for name, flip in maps.items():
                        mismatches[name] += {flip(e): c for e, c in here.items()} != there
    assert pairs == 2566
    assert mismatches["dual"] == 0
    assert mismatches["negated"] > 0 and mismatches["reversed"] > 0


def test_reduced_word_independence_small():
    mu = shape_of(VC, 4)
    base = pullback(C4, None, WC, VC, backend="hecke").value
    word = reading_word(reflection_tableau(mu, C4, None))
    alternates = commutation_class(word, C4)[:4]
    for alt in alternates:
        assert pullback_hecke_with_word(C4, WC, alt) == base
    descent_word = tuple(reduced_word(VC))
    assert pullback_hecke_with_word(C4, WC, descent_word) == base


@pytest.mark.parametrize("kind,rank", [("D", 3), ("B", 2)])
def test_projective_space_cases_are_smooth(kind, rank):
    # OG(3,6) and OG(2,5) are projective 3-space, so every Schubert variety
    # is linear and every local ring regular
    rs = RootSystem(kind, rank)
    reps = minimal_reps(rs)
    for v in reps:
        for w in reps:
            if contains(shape_of(w, rank), shape_of(v, rank)):
                data = hilbert_data(rs, None, w, v)
                assert data.m == (1,)
                for i in range(3):
                    if data.d_w == 0:
                        expect = 1 if i == 0 else 0
                    else:
                        expect = comb(i + data.d_w - 1, data.d_w - 1)
                    assert hilbert_polynomial_value(data, i) == expect


def test_quadric_cone_multiplicity():
    # the hyperplane-section Schubert surface of LG(2,4) is a quadric cone;
    # at the vertex the Hilbert function is 1, 3, 5, 7, ... and mult = 2
    rs = RootSystem("C", 2)
    w = perm_of_strict((1,), rs)
    v = perm_of_strict((2, 1), rs)
    data = hilbert_data(rs, None, w, v)
    assert (data.d_w, data.m, data.multiplicity) == (2, (2, 1), 2)
    assert [hilbert_polynomial_value(data, i) for i in range(5)] == [1, 3, 5, 7, 9]


def test_smoothness_detection_small():
    # m_0 = 1 exactly when the tangent space has the generic dimension
    for rs, d in [(RootSystem("A", 4), 2), (RootSystem("C", 3), None)]:
        reps = minimal_reps(rs, d)
        dd = d if rs.kind == "A" else rs.rank
        for w in reps:
            for v in reps:
                if not contains(shape_of(w, dd), shape_of(v, dd)):
                    continue
                data = hilbert_data(rs, d, w, v)
                smooth = hilbert_polynomial_value(data, 1) == data.d_w
                assert (data.multiplicity == 1) == smooth, (w, v)


def test_larger_instances_regression():
    # Gr(5,10) at the full-box fixed point: m_0 counts semistandard tableaux
    # of shape (2,1) with row-1 entries <= 4 and all entries <= 5, which is
    # sum_{a<=4} (5-a)(5-a) = 30 by hand
    rs = RootSystem("A", 10)
    w = perm_of((2, 1), 5, 10)
    v = perm_of((5, 5, 5, 5, 5), 5, 10)
    data = hilbert_data(rs, 5, w, v)
    assert data.m == (30, 90, 117, 84, 36, 9, 1)
    assert sum((-1) ** k * mk for k, mk in enumerate(data.m)) == 1

    rsC = RootSystem("C", 6)
    wC = perm_of_strict((3, 1), rsC)
    vC = perm_of_strict((6, 5, 4, 3, 2, 1), rsC)
    dataC = hilbert_data(rsC, None, wC, vC)
    assert dataC.d_w == 17
    assert dataC.m == (70, 245, 371, 315, 165, 55, 11, 1)
    assert sum((-1) ** k * mk for k, mk in enumerate(dataC.m)) == 1


def test_transfer_dp_pinned_large_instances():
    rs = RootSystem("A", 12)
    w, v = perm_of((4, 4, 2, 2), 6, 12), perm_of((6, 6, 6, 5, 4, 4), 6, 12)
    assert hilbert_data(rs, 6, w, v).m == (206, 618, 723, 416, 123, 18, 1)
    svt = pullback(rs, 6, w, v, backend="svt").value
    assert len(svt.packed) == 21393
    assert pullback(rs, 6, w, v, backend="hecke").value == svt
    assert hilbert_data(rs, 6, w, v, method="hecke").m == (206, 618, 723, 416, 123, 18, 1)
    w, v = perm_of((4, 3, 2, 1), 6, 12), perm_of((6, 6, 5, 4, 3, 2), 6, 12)
    svt = pullback(rs, 6, w, v, backend="svt").value
    assert pullback(rs, 6, w, v, backend="hecke").value == svt
    assert pullback(rs, 6, w, v, backend="eyd").value == svt


def test_hecke_entry_points_keep_no_state_when_w_is_out_of_reach():
    rs = RootSystem("A", 12)
    w, v = perm_of((6, 6, 6, 5, 4, 4), 6, 12), perm_of((6, 6, 5, 4, 3, 2), 6, 12)
    word = reading_word(reflection_tableau(shape_of(v, 6), rs, 6))
    assert len(word) == 26
    assert hecke.subsequence_stats(w, word) == {}
    assert pullback_hecke_with_word(rs, w, word) == LaurentPoly.zero(12)
    calls = []

    def record(dst, src, f):
        calls.append(f)

    assert hecke.fold_dp(w, word, [1] * len(word), record, record) == {}
    assert calls == []


def _random_shape(rnd, caps, budget, strict):
    """A partition (strict if asked) with parts[i] <= caps[i] and at most
    budget boxes, drawn row by row from the upper third of each range."""
    parts = []
    for cap in caps:
        top = min(cap, budget, parts[-1] - strict if parts else cap)
        if top <= 0:
            break
        parts.append(rnd.randint((2 * top + 2) // 3, top))
        budget -= parts[-1]
    return parts


@st.composite
def larger_on_variety_pairs(draw):
    """(rstype, d, w, v) with lam inside mu, |mu| <= 30 and |lam| <= 14: type A
    up to n = 12, types C and D up to rank 8.  The bound on |lam| keeps the
    expanded class below about 10^5 terms."""
    rnd = draw(st.randoms(use_true_random=False))
    kind = rnd.choice("ACD")
    if kind == "A":
        n = rnd.randint(2, 12)
        d = rnd.randint(1, n - 1)
        caps = [n - d] * d
    else:
        n = rnd.randint(2 if kind == "C" else 4, 8)
        d = None
        caps = [n if kind == "C" else n - 1] * n
    mu = _random_shape(rnd, caps, 30, kind != "A")
    lam = _random_shape(rnd, mu, 14, kind != "A")
    rs = RootSystem(kind, n)
    if kind == "A":
        return rs, d, perm_of(lam, d, n), perm_of(mu, d, n)
    return rs, d, perm_of_strict(lam, rs), perm_of_strict(mu, rs)


@settings(max_examples=50, deadline=None)
@given(larger_on_variety_pairs())
def test_hecke_agrees_with_svt_on_random_larger_pairs(pair):
    rs, d, w, v = pair
    assert pullback(rs, d, w, v, backend="hecke").value == pullback(
        rs, d, w, v, backend="svt"
    ).value
    assert hilbert_data(rs, d, w, v, method="hecke").m == hilbert_data(rs, d, w, v).m


# the first step of each engine's work
@pytest.mark.parametrize("backend, engine", [("eyd", "enumerate_eyd"), ("svt", "svt_sum")],
                         ids=["eyd", "svt"])
def test_class_exponents_are_bounded_before_the_work(backend, engine, monkeypatch):
    calls = []
    real = getattr(restriction, engine)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(restriction, engine, counted)
    monkeypatch.setattr(ring, "LIMIT", 2)
    with pytest.raises(ValueError, match="packing range"):
        pullback(A7, 3, WA, VA, backend=backend)
    assert calls == []
