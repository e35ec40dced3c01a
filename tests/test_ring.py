import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    convolved_slices,
    drop_digit,
    ev_xi,
    geometric_expand,
    reference_format_poly,
    unpack,
    xi_degree,
)
from schubertk.restriction import HilbertData, hilbert_polynomial_value
from schubertk.ring import (
    LIMIT,
    MAX_EXPANSION,
    LaurentPoly,
    add_binomial_into,
    add_into,
    drop_coordinate,
    format_poly,
    format_poly_json,
    pack,
    poly_from_json,
    poly_to_json,
    specialize_zero,
    unpack_all,
)

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exponents, st.integers(-5, 5), max_size=5).map(
    lambda d: LaurentPoly(3, d)
)


def mono(*exp):
    return LaurentPoly.monomial(tuple(exp))


def test_monomial_product():
    assert mono(1, 0) * mono(0, 2) == mono(1, 2)
    assert (mono(-1, 1) - 1) * LaurentPoly.zero(2) == LaurentPoly.zero(2)


def test_inverse_pair_multiplies_to_one():
    alpha = (1, -1)
    lhs = (mono(-1, 1) - 1) + 1
    rhs = (mono(1, -1) - 1) + 1
    assert lhs * rhs == LaurentPoly.one(2)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        mono(1, 0) * mono(1, 0, 0)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_an_int_factor_scales_in_one_pass_as_the_constant_polynomial(p, k):
    # the int path builds its dict once; the product with the constant k
    # runs the general kernel and drops zeros in from_packed
    scaled = p * k
    assert scaled == p * LaurentPoly(3, {(0, 0, 0): k}) == k * p
    assert 0 not in scaled.packed.values()
    assert scaled.span == (p.span if k else 0)


def test_specialize_zero_examples():
    assert specialize_zero(mono(0, 0, 1), 3) == LaurentPoly.one(2)
    p = mono(2, 0, -1)
    assert specialize_zero(p, 2) == LaurentPoly(2, {(2, -1): 1})
    q = mono(1, 1, 0) + mono(1, 0, 0)
    assert specialize_zero(q, 2) == LaurentPoly(2, {(1, 0): 2})
    with pytest.raises(ValueError):
        specialize_zero(p, 4)


def test_ev_xi_examples():
    assert ev_xi(LaurentPoly.one(2), (Fraction(1), Fraction(0))) == {0: 1}
    # e^{-r} evaluates to t when r pairs with xi to -1
    r = (1, -1)
    xi = (Fraction(0), Fraction(1))
    assert ev_xi(mono(-1, 1), xi) == {1: 1}
    p = (mono(-1, 1) - 1) * (mono(-1, 1) - 1)
    assert ev_xi(p, xi) == {2: 1, 1: -2, 0: 1}  # (t-1)^2
    with pytest.raises(ValueError):
        ev_xi(mono(1, 0), (Fraction(1, 2), Fraction(0)))


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_ev_xi_is_a_ring_homomorphism(p, q):
    xi = (Fraction(1), Fraction(2), Fraction(0))

    def convolve(a, b):
        out = {}
        for da, ca in a.items():
            for db, cb in b.items():
                out[da + db] = out.get(da + db, 0) + ca * cb
        return {d: c for d, c in out.items() if c}

    assert ev_xi(p * q, xi) == convolve(ev_xi(p, xi), ev_xi(q, xi))


def test_geometric_expand_smooth_point():
    # numerator 1 over d(n-d) tangent weights of degree 1: h(1) = dim
    weights = [(-1, 1), (-1, 1)]
    xi = (Fraction(1), Fraction(0))
    series = geometric_expand(LaurentPoly.one(2), weights, xi, 1)
    assert series.dims() == [1, 2]
    series = geometric_expand(LaurentPoly.one(2), weights, xi, 3)
    assert series.dims() == [comb(i + 1, 1) for i in range(4)]


def test_geometric_expand_zero_numerator():
    weights = [(-1, 1)]
    xi = (Fraction(1), Fraction(0))
    series = geometric_expand(LaurentPoly.zero(2), weights, xi, 2)
    assert series.dims() == [0, 0, 0]


def test_geometric_expand_degree_precondition():
    xi = (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        geometric_expand(LaurentPoly.one(2), [(-2, 0)], xi, 1)


def test_geometric_expand_bounds_the_expansion_before_the_work():
    # 1 term x C(30 + 10, 10) monomials of degree <= 30 in 10 weights
    xi = (Fraction(1), Fraction(0))
    weights = [(-1, j) for j in range(10)]
    assert comb(40, 10) > MAX_EXPANSION
    with pytest.raises(ValueError, match="truncation degree"):
        geometric_expand(LaurentPoly.one(2), weights, xi, 30)
    # the Hilbert function still reaches the degree past the bound
    assert hilbert_polynomial_value(HilbertData(10, (1,)), 30) == comb(39, 9)


def test_geometric_expand_type_a_worked_example():
    # frozen from the worked Grassmannian example: the Hilbert function is
    # 5 C(i+8,8) - 5 C(i+7,7) + C(i+6,6)
    from schubertk.restriction import graded_character
    from schubertk.weyl import RootSystem, parse_window

    rs = RootSystem("A", 7)
    w = parse_window(rs, "1,3,5,2,4,6,7")
    v = parse_window(rs, "4,6,7,1,2,3,5")
    series = graded_character(rs, 3, w, v, 3)
    expected = [5 * comb(i + 8, 8) - 5 * comb(i + 7, 7) + comb(i + 6, 6) for i in range(4)]
    assert series.dims() == expected == [1, 12, 73, 309]
    for s in series.slices:
        assert all(c > 0 for c in s.terms.values())


def test_grading_slices_are_pure():
    weights = [(-1, 0), (0, -1)]
    xi = (Fraction(1), Fraction(1))
    series = geometric_expand(LaurentPoly.one(2), weights, xi, 2)
    for i, s in enumerate(series.slices):
        for e in s.terms:
            assert xi_degree(e, xi) == i


def test_format_poly():
    assert format_poly(LaurentPoly.zero(2)) == "0"
    assert format_poly(LaurentPoly.one(2)) == "1"
    p = mono(1, -1) - 2
    assert format_poly(p) == "-2 + e^{ε_1-ε_2}"


def test_poly_json_roundtrip():
    p = mono(1, -1) * 3 - mono(0, 2) + 7
    blob = poly_to_json(p)
    assert poly_from_json(blob, 2) == p
    coefs = [m["coef"] for m in blob["monomials"]]
    assert all(isinstance(c, str) for c in coefs)


def _dumped(p):
    return json.dumps(poly_to_json(p), sort_keys=True)


def test_the_json_writer_writes_the_dumped_document():
    huge = 1 << 64
    cases = [
        LaurentPoly.zero(3),
        LaurentPoly.one(4) * -7,
        LaurentPoly(1, {(2,): -3, (-1,): 4, (0,): 1}),
        LaurentPoly(2, {(1, 0): huge + 1, (0, 1): -huge - 5, (0, 0): -(huge * huge)}),
        LaurentPoly(3, {(LIMIT, -LIMIT, 0): 2, (-LIMIT, LIMIT, LIMIT): -1, (-LIMIT,) * 3: 1}),
    ]
    for p in cases:
        assert format_poly_json(p) == _dumped(p)
    assert format_poly_json(LaurentPoly.zero(3)) == '{"monomials": []}'


@given(st.integers(0, 6).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(-LIMIT, LIMIT)] * n),
    st.integers(-(1 << 70), 1 << 70), max_size=12).map(lambda d: LaurentPoly(n, d))))
@settings(max_examples=150, deadline=None)
def test_the_json_writer_matches_json_dumps_on_random_polynomials(p):
    assert format_poly_json(p) == _dumped(p)


def test_big_coefficients_stay_exact():
    p = (mono(1, 0) + 1) * LaurentPoly.one(2)
    for _ in range(64):
        p = p * (mono(1, 0) + 1)
    assert p.terms[(32, 0)] == comb(65, 32)


# --- the packed-exponent kernel -------------------------------------------


def _reference_mul(a: dict, b: dict) -> dict:
    """Tuple-keyed product, the representation the packed ring replaced."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


wide = st.integers(-(LIMIT // 2), LIMIT // 2)
wide_terms = st.dictionaries(st.tuples(wide, wide, wide), st.integers(-9, 9), max_size=6)


@given(st.lists(st.integers(-LIMIT, LIMIT), max_size=8))
@example([LIMIT, -LIMIT, LIMIT])
@example([-LIMIT] * 8)
@example([])
@settings(max_examples=200, deadline=None)
def test_pack_unpack_roundtrip(exp):
    key = pack(exp)
    assert unpack(key, len(exp)) == tuple(exp)
    assert pack([-x for x in exp]) == -key


@given(st.lists(st.integers(-LIMIT, LIMIT), min_size=2, max_size=5),
       st.lists(st.integers(-LIMIT, LIMIT), min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_packed_sum_is_the_exponent_sum_inside_the_range(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    total = [x + y for x, y in zip(a, b)]
    if all(abs(x) <= LIMIT for x in total):
        assert unpack(pack(a) + pack(b), n) == tuple(total)


@pytest.mark.parametrize("exp", [(LIMIT + 1,), (0, -LIMIT - 1), (1, 2, 1 << 20)])
def test_pack_rejects_coordinates_outside_the_range(exp):
    with pytest.raises(ValueError):
        pack(exp)
    with pytest.raises(ValueError):
        LaurentPoly.monomial(exp)


@given(wide_terms, wide_terms, st.tuples(wide, wide, wide))
@settings(max_examples=60, deadline=None)
def test_add_binomial_into_equals_generic_operators(a, b, g):
    p, q = LaurentPoly(3, a), LaurentPoly(3, b)
    dst = dict(q.packed)
    add_binomial_into(dst, p.packed, pack(g))
    fused = LaurentPoly.from_packed(3, dst, max(q.span, p.span + max(map(abs, g))))
    assert fused == q + p * (mono(*g) - 1)
    dst = dict(q.packed)
    add_into(dst, p.packed, pack(g))
    assert LaurentPoly.from_packed(3, dst, LIMIT) == q + p * mono(*g)


def test_over_range_product_raises_and_never_wraps():
    top = mono(LIMIT - 1, -5)
    assert (top * mono(1, 0)).terms == {(LIMIT, -5): 1}
    with pytest.raises(ValueError):
        top * mono(2, 0)  # LIMIT + 1 would carry into the next digit
    with pytest.raises(ValueError):
        mono(0, -LIMIT) * mono(0, -1)
    big = mono(20000, 1) - 1
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        geometric_expand(LaurentPoly.one(2), [(-1, 1)], (Fraction(1), Fraction(0)), LIMIT + 1)


@given(wide_terms, wide_terms)
@settings(max_examples=60, deadline=None)
def test_terms_hash_eq_and_json_match_the_tuple_representation(a, b):
    clean = {e: c for e, c in a.items() if c}
    p, q = LaurentPoly(3, a), LaurentPoly(3, b)
    assert p.terms == clean
    assert hash(p) == hash(LaurentPoly(3, clean))
    assert poly_to_json(p) == {
        "monomials": [{"exp": list(e), "coef": str(c)} for e, c in sorted(clean.items())]
    }
    assert (p == q) == (clean == {e: c for e, c in b.items() if c})
    assert (p * q).terms == _reference_mul(clean, q.terms)
    dropped = {}
    for (x, _, z), c in clean.items():
        dropped[x, z] = dropped.get((x, z), 0) + c
    assert specialize_zero(p, 2).terms == {e: c for e, c in dropped.items() if c}


@given(st.integers(1, 14).flatmap(
    lambda n: st.lists(st.sampled_from([0, 1, -1, LIMIT, -LIMIT]) | st.integers(-LIMIT, LIMIT),
                       min_size=n, max_size=n)))
@example([LIMIT] * 14)
@example([-LIMIT] * 14)
@example([-1, 0, 1, -LIMIT, LIMIT, -1])
@settings(max_examples=200, deadline=None)
def test_bulk_decoder_matches_the_digit_reader(exp):
    keys = [pack(exp), -pack(exp), 0]
    assert unpack_all(keys, len(exp)) == [unpack(k, len(exp)) for k in keys]
    assert unpack_all(keys, len(exp))[0] == tuple(exp)


# coordinates drawn from a few small values share prefixes; the range ends test the packing
digits = st.sampled_from([0, 1, -1, 2, -2, LIMIT, -LIMIT]) | st.integers(-LIMIT, LIMIT)


def polys_of_rank(n, coefs=st.integers(-3, 3)):
    return st.dictionaries(st.tuples(*[digits] * n), coefs, max_size=8).map(
        lambda terms: LaurentPoly(n, terms))


@given(st.integers(1, 14).flatmap(
    lambda n: st.lists(st.lists(digits, min_size=n, max_size=n), min_size=1, max_size=12)))
@example([[LIMIT] * 14, [-LIMIT] * 14, [0] * 14])
@example([[1, -LIMIT], [0, LIMIT], [-1, 0], [0, -1]])
@settings(max_examples=200, deadline=None)
def test_key_order_is_lex_order(exps):
    keys = [pack(e) for e in exps]
    assert unpack_all(sorted(keys), len(exps[0])) == sorted(map(tuple, exps))


@given(st.integers(1, 6).flatmap(polys_of_rank))
@settings(max_examples=150, deadline=None)
def test_specialize_zero_is_the_digit_surgery(p):
    for coord in range(1, p.rank + 1):
        expect = {}
        for k, c in p.packed.items():
            key = drop_digit(k, p.rank, coord)
            expect[key] = expect.get(key, 0) + c
        assert specialize_zero(p, coord).packed == {k: c for k, c in expect.items() if c}


@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.tuples(st.lists(digits, min_size=n, max_size=n), st.integers(0, 5)), min_size=1, max_size=8)))
@settings(max_examples=60, deadline=None)
def test_drop_coordinate_keeps_the_degree_digit(terms):
    # the type B character drops eps_{n+1} from keys that carry a degree digit
    n = len(terms[0][0])
    keys = [pack(e, top) for e, top in terms]
    for coord in range(1, n + 1):
        assert drop_coordinate(keys, n, coord) == [pack(e[:coord - 1] + e[coord:], top) for e, top in terms]


@given(st.integers(1, 5).flatmap(
    lambda n: polys_of_rank(n, st.integers(-3, 3) | st.integers(-10**30, 10**30))))
@example(LaurentPoly.zero(3))
@example(LaurentPoly(2, {(0, 0): -7}))
@example(LaurentPoly(2, {(-1, 0): -1, (0, 0): 5, (1, -1): 2, (1, 0): -12}))
@example(LaurentPoly(3, {(LIMIT, -LIMIT, 0): -3, (-LIMIT, 0, LIMIT): 1, (0, 0, 0): 1}))
@example(LaurentPoly(0, {(): -4}))
@settings(max_examples=200, deadline=None)
def test_format_poly_matches_the_monomial_by_monomial_renderer(p):
    assert format_poly(p) == reference_format_poly(p)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.lists(st.tuples(st.integers(0, 6), st.integers(-2, 2)), max_size=n, unique=True),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2), st.integers(-4, 4)),
                    max_size=8),
           st.integers(0, 6))))
@example(([(0, 0)], [(0, 1, 1)], 2))
@settings(max_examples=150, deadline=None)
def test_geometric_expand_matches_the_power_by_power_convolution(case):
    # weights -mu = (1, a, b) have xi-degree 1 along xi = eps_1^*; numerator
    # terms repeat with opposite signs so that some cancel
    raw, terms, N = case
    weights = [(-1, -a, -b) for a, b in raw] or [(-1, 0, 0)]
    num = {}
    for d, a, c in terms:
        num[d, a, -a] = num.get((d, a, -a), 0) + c
        num[d, -a, a] = num.get((d, -a, a), 0) - c
    p = LaurentPoly(3, num)
    series = geometric_expand(p, weights, (Fraction(1), Fraction(0), Fraction(0)), N)
    graded = [{} for _ in range(N + 1)]
    for k, c in p.packed.items():
        if (d := unpack(k, 3)[0]) <= N:
            graded[d][k] = c
    expected = convolved_slices(graded, [pack([-x for x in mu]) for mu in weights])
    assert [s.packed for s in series.slices] == expected


def test_equal_polynomials_built_by_different_routes_hash_equal():
    p = LaurentPoly(2, {(1, -1): 3, (0, 2): -1, (0, 0): 7})
    routes = [
        mono(1, -1) * 3 - mono(0, 2) + 7,
        LaurentPoly.from_packed(2, {pack((0, 0)): 7, pack((1, -1)): 3, pack((0, 2)): -1,
                                    pack((5, 5)): 0}, 5),
        (mono(1, -1) + mono(0, 1)) * (mono(0, 1) + 3) - mono(0, 1) * 3 + 7
        - mono(1, 0) - mono(0, 2) * 2,
        poly_from_json(poly_to_json(p), 2),
    ]
    for q in routes:
        assert q == p and hash(q) == hash(p)
    assert len({p, *routes}) == 1
