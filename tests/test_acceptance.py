"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import random
from collections import Counter
from math import factorial

from oracles import (
    demazure_fold,
    f_inverse,
    identity,
    is_fully_commutative,
    is_positive_root_vector,
    m_order,
    pullback_hecke_with_word,
    subword_of,
)
from schubertk.diagrams import (
    BoxSet,
    ambient_boxes,
    enumerate_eyd,
    geometry_of,
    reading_word,
    reflection_tableau,
)
from schubertk.hecke import hecke_subsequences
from schubertk.ring import LaurentPoly
from schubertk.shapes import (
    all_shapes,
    contains,
    minimal_reps,
    perm_of,
    perm_of_strict,
    shape_of,
    size,
)
from schubertk.restriction import (
    BACKENDS,
    Pair,
    graded_character,
    hilbert_data,
    hilbert_polynomial_coeffs,
    hilbert_polynomial_value,
    pullback,
    pullback_b_via_d,
    pullback_terms,
)
from schubertk.tableaux import enumerate_svt, f_map, svt_counts
from schubertk.weyl import (
    RootSystem,
    apply,
    inverse,
    length,
    mult,
    parse_window,
    reduced_word,
    simple_reflection,
)

A7 = RootSystem("A", 7)
C4 = RootSystem("C", 4)
D6 = RootSystem("D", 6)
B5 = RootSystem("B", 5)

GOLDEN_A = (A7, 3, parse_window(A7, "1,3,5,2,4,6,7"), parse_window(A7, "4,6,7,1,2,3,5"))
GOLDEN_C = (C4, None, parse_window(C4, "1,2,-4,-3"), parse_window(C4, "2,-4,-3,-1"))
GOLDEN_D = (D6, None, parse_window(D6, "1,2,4,6,-5,-3"), parse_window(D6, "2,6,-5,-4,-3,-1"))
GOLDEN_B = (B5, None, parse_window(B5, "1,2,4,-5,-3"), parse_window(B5, "2,-5,-4,-3,-1"))

# the sweep: every minimal-representative pair with containment in type A up
# to n = 6 and types B, C, D up to rank 5; criterion 5 takes all of them, the
# explicit-subsequence criteria only those with |mu| <= max_mu
SWEEP_CONFIGS = (
    [(RootSystem("A", n), d) for n in range(2, 7) for d in range(1, n)]
    + [(RootSystem("C", r), None) for r in range(2, 6)]
    + [(RootSystem("D", r), None) for r in range(3, 6)]
    + [(RootSystem("B", r), None) for r in range(2, 6)]
)


def sweep_pairs(max_mu=12):
    for rs, d in SWEEP_CONFIGS:
        reps = minimal_reps(rs, d)
        dd = d if rs.kind == "A" else rs.rank
        for v in reps:
            mu = shape_of(v, dd)
            if max_mu is not None and size(mu) > max_mu:
                continue
            for w in reps:
                if contains(shape_of(w, dd), mu):
                    yield rs, d, w, v


def expand_display(rank, terms):
    """Expand a factored display: sum over terms of prod (e^g - 1)."""
    total = LaurentPoly.zero(rank)
    for exps in terms:
        prod = LaurentPoly.one(rank)
        for g in exps:
            prod = prod * (LaurentPoly.monomial(g) - 1)
        total = total + prod
    return total


def vec(rank, *entries):
    v = [0] * rank
    for idx, c in entries:
        v[abs(idx) - 1] += c if idx > 0 else -c
    return tuple(v)


def test_criterion_01_type_a_golden():
    rs, d, w, v = GOLDEN_A
    eyds = enumerate_eyd((2, 1), (4, 4, 3), "ordinary")
    assert len(eyds) == 11
    assert Counter(len(C) for C in eyds) == {3: 5, 4: 5, 5: 1}
    data = hilbert_data(rs, d, w, v)
    assert (data.d_w, data.m, data.multiplicity) == (9, (5, 5, 1), 5)

    def A(a, b):
        return vec(7, (a, 1), (b, -1))

    display = [
        [A(7, 1), A(7, 2), A(6, 1)],
        [A(7, 1), A(7, 2), A(4, 2)],
        [A(7, 1), A(6, 1), A(6, 3)],
        [A(7, 1), A(4, 2), A(6, 3)],
        [A(6, 2), A(4, 2), A(6, 3)],
        [A(7, 1), A(7, 2), A(6, 3), A(6, 1)],
        [A(7, 1), A(7, 2), A(6, 1), A(4, 2)],
        [A(7, 1), A(7, 2), A(4, 2), A(6, 3)],
        [A(7, 1), A(6, 1), A(4, 2), A(6, 3)],
        [A(7, 1), A(6, 2), A(4, 2), A(6, 3)],
        [A(7, 1), A(7, 2), A(6, 1), A(6, 3), A(4, 2)],
    ]
    expected = expand_display(7, display) * (-1)
    for backend in ("eyd", "svt", "hecke"):
        assert pullback(rs, d, w, v, backend=backend).value == expected
    print("ACCEPTANCE 1: PASS (type A golden: counts, Hilbert data, exact class)")


def test_criterion_02_type_c_golden():
    rs, d, w, v = GOLDEN_C
    eyds = enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC")
    assert len(eyds) == 7
    assert len(enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC", reduced_only=True)) == 4
    data = hilbert_data(rs, d, w, v)
    assert (data.d_w, data.m, data.multiplicity) == (7, (4, 3), 4)

    def F2(a):
        return vec(4, (a, -2))

    def F(a, b):
        return vec(4, (a, -1), (b, -1))

    display = [
        [F2(1), F(1, 3), F2(3)],
        [F2(1), F(1, 3), F2(4)],
        [F2(1), F(3, 4), F2(4)],
        [F2(3), F(3, 4), F2(4)],
        [F2(1), F(1, 3), F2(3), F2(4)],
        [F2(1), F(1, 3), F(3, 4), F2(4)],
        [F2(1), F2(3), F(3, 4), F2(4)],
    ]
    expected = expand_display(4, display) * (-1)
    for backend in ("eyd", "svt", "hecke"):
        assert pullback(rs, d, w, v, backend=backend).value == expected
    print("ACCEPTANCE 2: PASS (type C golden: counts, Hilbert data, exact class)")


def _type_d_display():
    def G(a, b):
        return vec(6, (a, -1), (b, -1))

    return [
        [G(1, 3), G(1, 4), G(1, 5), G(3, 4)],
        [G(1, 3), G(1, 4), G(1, 5), G(5, -6)],
        [G(1, 3), G(1, 4), G(3, -6), G(3, 4)],
        [G(1, 3), G(1, 4), G(3, -6), G(5, -6)],
        [G(1, 3), G(3, 5), G(3, -6), G(5, -6)],
        [G(1, 3), G(1, 4), G(1, 5), G(3, -6), G(3, 4)],
        [G(1, 3), G(1, 4), G(1, 5), G(3, 4), G(5, -6)],
        [G(1, 3), G(1, 4), G(1, 5), G(3, -6), G(5, -6)],
        [G(1, 3), G(1, 4), G(3, -6), G(3, 4), G(5, -6)],
        [G(1, 3), G(1, 4), G(3, 5), G(3, -6), G(5, -6)],
        [G(1, 3), G(1, 4), G(1, 5), G(3, -6), G(3, 4), G(5, -6)],
    ]


def test_criterion_03_type_d_golden():
    rs, d, w, v = GOLDEN_D
    eyds = enumerate_eyd((3, 1), (5, 3, 2, 1), "shiftedD")
    assert len(eyds) == 11
    data = hilbert_data(rs, d, w, v)
    assert (data.d_w, data.m, data.multiplicity) == (11, (5, 5, 1), 5)
    expected = expand_display(6, _type_d_display())  # l(w) = 4, sign +
    for backend in ("eyd", "svt", "hecke"):
        assert pullback(rs, d, w, v, backend=backend).value == expected
    print("ACCEPTANCE 3: PASS (type D golden: counts, Hilbert data, exact class)")


def test_criterion_04_type_b_via_d():
    rs, d, w, v = GOLDEN_B
    direct = pullback(rs, d, w, v, backend="eyd").value
    via_d = pullback_b_via_d(w, v).value
    oracle = pullback(rs, d, w, v, backend="hecke").value
    svt = pullback(rs, d, w, v, backend="svt").value
    assert direct == via_d == oracle == svt
    # the via-D class is the D_6 display with eps_6 sent to zero
    from schubertk.ring import specialize_zero

    d_class = expand_display(6, _type_d_display())
    assert via_d == specialize_zero(d_class, 6)
    data = hilbert_data(rs, d, w, v)
    assert (data.d_w, data.m, data.multiplicity) == (11, (5, 5, 1), 5)
    print("ACCEPTANCE 4: PASS (type B: direct, via-D and oracle classes all equal)")


def test_criterion_05_oracle_equivalence_sweep():
    pairs = 0
    for rs, d, w, v in sweep_pairs(max_mu=None):
        pairs += 1
        eyd = pullback(rs, d, w, v, backend="eyd").value
        svt = pullback(rs, d, w, v, backend="svt").value
        hk = pullback(rs, d, w, v, backend="hecke").value
        assert eyd == svt == hk, (rs, w, v)
        m_svt = hilbert_data(rs, d, w, v).m
        m_eyd = hilbert_data(rs, d, w, v, method="eyd").m
        m_hecke = hilbert_data(rs, d, w, v, method="hecke").m
        assert m_svt == m_eyd == m_hecke, (rs, w, v)
        # single-valued tableaux <-> reduced excited diagrams, in the pair's
        # own geometry (type B's m comes from D_{n+1})
        dd = d if rs.kind == "A" else rs.rank
        lam, mu, geometry = shape_of(w, dd), shape_of(v, dd), geometry_of(rs)
        singles = svt_counts(lam, mu, geometry)[size(lam)]
        assert singles == len(enumerate_eyd(lam, mu, geometry, reduced_only=True)), (rs, w, v)
    assert pairs > 2000
    print(f"ACCEPTANCE 5: PASS (three backends and three m_k paths agree on {pairs} pairs)")


def test_criterion_06_subset_characterization():
    rng = random.Random(20260808)
    # one case pinned at the |mu| = 14 ceiling, the rest drawn at random
    cases = [(RootSystem("A", 8), 4, (2, 1), (4, 4, 3, 3))]
    for rs, d in [(RootSystem("A", 8), 4), (RootSystem("C", 5), None),
                  (RootSystem("D", 6), None), (RootSystem("B", 4), None)]:
        shapes = [mu for mu in all_shapes(rs, d) if size(mu) <= 14]
        for _ in range(2):
            mu = rng.choice([mu for mu in shapes if size(mu) >= 6])
            lam = rng.choice([s for s in shapes if contains(s, mu)])
            cases.append((rs, d, lam, mu))
    checked = 0
    for rs, d, lam, mu in cases:
        geometry = geometry_of(rs)
        if rs.kind == "A":
            w = perm_of(lam, d, rs.rank)
        else:
            w = perm_of_strict(lam, rs)
        T = reflection_tableau(mu, rs, d)
        word = reading_word(T)
        boxes = sorted(ambient_boxes(mu, geometry))
        expected = {C.boxes for C in enumerate_eyd(lam, mu, geometry)}
        hits = set()
        for mask in range(1 << len(boxes)):
            subset = frozenset(boxes[k] for k in range(len(boxes)) if mask >> k & 1)
            sub = tuple(
                word[p - 1]
                for p in subword_of(BoxSet(geometry, mu, subset), T)
            )
            if demazure_fold(sub, rs) == w:
                hits.add(subset)
        assert hits == expected, (rs, lam, mu)
        checked += 1
    print(f"ACCEPTANCE 6: PASS (2^|mu| subset characterization on {checked} random shapes)")


def test_criterion_07_bijection():
    rng = random.Random(11)
    cases = [
        ("ordinary", (2, 1), (4, 4, 3), 3),
        ("shiftedBC", (2, 1), (4, 2, 1), None),
        ("shiftedD", (3, 1), (5, 3, 2, 1), None),
    ]
    # 200 random small shapes across the three geometries
    pools = {
        "ordinary": [mu for mu in all_shapes(RootSystem("A", 7), 3) if size(mu) <= 8],
        "shiftedBC": [mu for mu in all_shapes(RootSystem("C", 4)) if size(mu) <= 8],
        "shiftedD": [mu for mu in all_shapes(RootSystem("D", 5)) if size(mu) <= 8],
    }
    while len(cases) < 203:
        geometry = rng.choice(list(pools))
        mu = rng.choice(pools[geometry])
        lam = rng.choice([s for s in pools[geometry] if contains(s, mu)])
        d = 3 if geometry == "ordinary" else None
        cases.append((geometry, lam, mu, d))
    for geometry, lam, mu, d in cases:
        tabs = enumerate_svt(lam, mu, geometry, d=d)
        eyds = enumerate_eyd(lam, mu, geometry)
        images = {f_map(T).boxes for T in tabs}
        assert len(images) == len(tabs)  # injective
        assert images == {C.boxes for C in eyds}  # surjective onto E
        for T in tabs:
            assert f_inverse(f_map(T), lam) == T
    print(f"ACCEPTANCE 7: PASS (f is a bijection with exact inverse on {len(cases)} shapes)")


def test_criterion_08_structural_invariants():
    checked = 0
    for rs, d in [(RootSystem("A", 5), 2), (RootSystem("A", 5), 3),
                  (RootSystem("C", 3), None), (RootSystem("D", 4), None),
                  (RootSystem("B", 3), None)]:
        reps = minimal_reps(rs, d)
        dd = d if rs.kind == "A" else rs.rank
        for v in reps:
            for w in reps:
                if not contains(shape_of(w, dd), shape_of(v, dd)):
                    continue
                data = hilbert_data(rs, d, w, v)
                alt = sum((-1) ** k * mk for k, mk in enumerate(data.m))
                assert alt == 1, (rs, w, v)
                assert hilbert_polynomial_value(data, 0) == 1
                series = graded_character(rs, d, w, v, 1)
                assert hilbert_polynomial_value(data, 1) == series.dims()[1]
                if data.d_w >= 1:
                    coeffs = hilbert_polynomial_coeffs(data)
                    assert coeffs[-1] * factorial(data.d_w - 1) == data.multiplicity
                checked += 1
    assert checked > 200
    print(f"ACCEPTANCE 8: PASS (alternating sum, h(0), h(1) and leading term on {checked} pairs)")


def _left_descents(u, uinv):
    from schubertk.weyl import simple_roots

    rs = u.rstype
    alphas = simple_roots(rs)
    return [
        i
        for i in range(1, rs.num_simple + 1)
        if not is_positive_root_vector(apply(uinv, alphas[i - 1]))
    ]


def _reduced_word_count(v, cache):
    if v in cache:
        return cache[v]
    if v == identity(v.rstype):
        return 1
    total = 0
    uinv = inverse(v)
    for i in _left_descents(v, uinv):
        total += _reduced_word_count(mult(simple_reflection(v.rstype, i), v), cache)
    cache[v] = total
    return total


def _random_reduced_word(v, rng):
    """A reduced word from a random walk down the left descents."""
    letters = []
    u, uinv = v, inverse(v)
    ident = identity(v.rstype)
    while u != ident:
        i = rng.choice(_left_descents(u, uinv))
        s = simple_reflection(v.rstype, i)
        u, uinv = mult(s, u), mult(uinv, s)
        letters.append(i)
    return tuple(letters)


def test_criterion_09_reduced_word_independence():
    rng = random.Random(404)
    counts = {}
    eligible = [
        (rs, d, w, v)
        for rs, d, w, v in sweep_pairs()
        if length(w) >= 1 and _reduced_word_count(v, counts) >= 3
    ]
    sample = rng.sample(eligible, 50)
    for rs, d, w, v in sample:
        dd = d if rs.kind == "A" else rs.rank
        mu = shape_of(v, dd)
        words = {reading_word(reflection_tableau(mu, rs, d))}
        words.add(tuple(reduced_word(v)))
        tries = 0
        while len(words) < 3 and tries < 200:
            words.add(_random_reduced_word(v, rng))
            tries += 1
        assert len(words) >= 3, (rs, v)
        classes = {
            tuple(sorted(pullback_hecke_with_word(rs, w, word).terms.items()))
            for word in words
        }
        assert len(classes) == 1, (rs, w, v)
    print("ACCEPTANCE 9: PASS (hecke class identical over >= 3 reduced words, 50 pairs)")


def test_criterion_10_nonreduced_subsequences_admit_commuting_pair():
    fc_cache = {}
    instances = 0
    expected_instances = 0
    violations = []
    for rs, d, w, v in sweep_pairs():
        dd = d if rs.kind == "A" else rs.rank
        lam, mu = shape_of(w, dd), shape_of(v, dd)
        geometry = geometry_of(rs)
        expected_instances += len(enumerate_eyd(lam, mu, geometry)) - len(
            enumerate_eyd(lam, mu, geometry, reduced_only=True)
        )
        if w not in fc_cache:
            fc_cache[w] = is_fully_commutative(w)
        assert fc_cache[w], (rs, w)  # the Prop's hypothesis holds in these cases
        # the factored classes agree as multisets of root subsets, and no
        # term repeats a root
        factored, pair = [], Pair.of(rs, d, w, v)
        for backend in BACKENDS:
            terms = pullback_terms(pair, backend=backend)
            assert all(len(set(t)) == len(t) for t in terms), (rs, w, v, backend)
            factored.append(Counter(frozenset(t) for t in terms))
        assert factored[0] == factored[1] == factored[2], (rs, w, v)
        word = reading_word(reflection_tableau(mu, rs, d))
        for sub in hecke_subsequences(w, word):
            if sub.excess == 0:
                continue
            instances += 1
            letters = tuple(word[p - 1] for p in sub.indices)
            ok = any(
                letters[a] == letters[b]
                and all(
                    m_order(rs, letters[a], letters[c]) == 2 for c in range(a + 1, b)
                )
                for a in range(len(letters))
                for b in range(a + 1, len(letters))
            )
            if not ok:
                violations.append((rs, w, v, letters))
    assert not violations
    assert instances == expected_instances > 500
    print(
        f"ACCEPTANCE 10: PASS ({instances} non-reduced subsequences all admit the i<j pair;"
        " factored terms agree across the backends)"
    )
