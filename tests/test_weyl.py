import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    demazure_fold,
    full_window,
    identity,
    is_positive_root_vector,
    reference_is_minimal_rep,
    reference_reduced_word,
    reflection,
)
from schubertk.weyl import (
    RootSystem,
    WeylElement,
    apply,
    format_window,
    inverse,
    is_minimal_rep,
    length,
    mult,
    parse_window,
    reduced_word,
    simple_reflection,
    simple_roots,
    window_apply,
    window_image,
    window_levi_ascent,
    window_right_ascent,
    window_right_mult,
)


def whole_group(rs):
    """BFS closure of the identity under right multiplication."""
    gens = [simple_reflection(rs, i) for i in range(1, rs.num_simple + 1)]
    seen = {identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for u in frontier:
            for s in gens:
                v = mult(u, s)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen, key=lambda u: u.window)


def test_simple_roots_examples():
    assert simple_roots(RootSystem("A", 3)) == [(1, -1, 0), (0, 1, -1)]
    assert simple_roots(RootSystem("C", 2)) == [(1, -1), (0, 2)]
    assert simple_roots(RootSystem("D", 3)) == [(1, -1, 0), (0, 1, -1), (0, 1, 1)]
    assert simple_roots(RootSystem("B", 2)) == [(1, -1), (0, 1)]


def test_apply_examples():
    rsA = RootSystem("A", 3)
    w = WeylElement(rsA, (2, 1, 3))
    assert apply(w, (1, 0, 0)) == (0, 1, 0)
    rsC = RootSystem("C", 2)
    sn = WeylElement(rsC, (1, -2))
    assert apply(sn, (0, 1)) == (0, -1)
    assert apply(sn, (0, 0)) == (0, 0)


def test_window_validation():
    rs = RootSystem("A", 3)
    with pytest.raises(ValueError):
        WeylElement(rs, (1, 1, 2))
    with pytest.raises(ValueError):
        WeylElement(rs, (-1, 2, 3))
    with pytest.raises(ValueError):
        WeylElement(RootSystem("D", 3), (-1, 2, 3))  # odd number of bars
    WeylElement(RootSystem("D", 3), (-2, -1, 3))


def test_length_examples():
    rsA = RootSystem("A", 7)
    assert length(identity(rsA)) == 0
    assert length(parse_window(rsA, "1,3,5,2,4,6,7")) == 3
    rsD = RootSystem("D", 6)
    assert length(parse_window(rsD, "1,2,4,6,-5,-3")) == 4


def test_length_against_inversion_count_type_a():
    rs = RootSystem("A", 5)
    for win in itertools.permutations(range(1, 6)):
        w = WeylElement(rs, win)
        inv = sum(
            1 for i in range(5) for j in range(i + 1, 5) if win[i] > win[j]
        )
        assert length(w) == inv


@pytest.mark.parametrize("kind,rank", [("B", 3), ("C", 3), ("D", 4)])
def test_length_against_root_counting(kind, rank):
    # independent oracle: l(w) = #{alpha > 0 : w(alpha) < 0}
    rs = RootSystem(kind, rank)
    n = rs.rank
    positives = []
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                v = [0] * n
                v[i], v[j] = 1, sj
                positives.append(tuple(v))
    if kind == "B":
        positives += [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    elif kind == "C":
        positives += [tuple(2 if k == i else 0 for k in range(n)) for i in range(n)]
    for w in whole_group(rs):
        sent_negative = sum(
            1 for a in positives if not is_positive_root_vector(apply(w, a))
        )
        assert length(w) == sent_negative
        assert len(reduced_word(w)) == length(w)


def test_is_minimal_rep_examples():
    rsA7 = RootSystem("A", 7)
    assert is_minimal_rep(parse_window(rsA7, "1,3,5,2,4,6,7"), 3)
    rsA3 = RootSystem("A", 3)
    # (2,1,3) with d=1: head trivially sorted, tail (1,3) sorted
    assert is_minimal_rep(WeylElement(rsA3, (2, 1, 3)), 1)
    assert not is_minimal_rep(WeylElement(rsA3, (3, 2, 1)), 1)
    with pytest.raises(ValueError):
        is_minimal_rep(identity(rsA3), None)
    rsC = RootSystem("C", 4)
    assert is_minimal_rep(parse_window(rsC, "2,-4,-3,-1"))


def test_mult_examples():
    rs = RootSystem("A", 3)
    s1, s2 = simple_reflection(rs, 1), simple_reflection(rs, 2)
    w = WeylElement(rs, (2, 3, 1))
    assert mult(identity(rs), w) == w
    assert mult(s1, s2).window == (2, 3, 1)
    assert mult(s2, s1).window == (3, 1, 2)
    assert mult(w, inverse(w)) == identity(rs)
    # mult convention agrees with the right-to-left word fold
    assert demazure_fold((1, 2), rs) == mult(s1, s2)


@pytest.mark.parametrize(
    "kind,rank,d",
    [("A", 4, 2), ("B", 3, None), ("C", 3, None), ("D", 4, None)],
)
def test_simple_reflection_changes_length_by_one(kind, rank, d):
    rs = RootSystem(kind, rank)
    for w in whole_group(rs):
        for i in range(1, rs.num_simple + 1):
            assert abs(length(mult(simple_reflection(rs, i), w)) - length(w)) == 1


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 3), ("C", 2), ("D", 3)])
def test_apply_inverse_roundtrip_exhaustive(kind, rank):
    rs = RootSystem(kind, rank)
    grid = list(itertools.product(range(-3, 4), repeat=rank))
    for w in whole_group(rs):
        winv = inverse(w)
        for mu in grid:
            assert apply(w, apply(winv, mu)) == mu


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_inverse_roundtrip_rank4(data):
    kind = data.draw(st.sampled_from(["A", "B", "C", "D"]))
    rs = RootSystem(kind, 4)
    group = whole_group(rs)
    w = data.draw(st.sampled_from(group))
    mu = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4)))
    assert apply(w, apply(inverse(w), mu)) == mu


@pytest.mark.parametrize("kind,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4)])
def test_descent_word_refolds(kind, rank):
    rs = RootSystem(kind, rank)
    for w in whole_group(rs):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert demazure_fold(word, rs) == w


def test_the_window_ascent_test_matches_the_root_vectors():
    # every element of A2-A5, B2-B4, C2-C4 and D3-D5, and every d in type A;
    # the sparse image of each simple root and of type C's -2 eps_k, whose
    # two terms share a position, is the dense one
    ranks = {"A": range(2, 6), "B": range(2, 5), "C": range(2, 5), "D": range(3, 6)}
    for kind, rs in ((k, RootSystem(k, n)) for k, rng in ranks.items() for n in rng):
        alphas = simple_roots(rs)
        for i in range(1, rs.num_simple + 1):
            assert simple_reflection(rs, i) == reflection(rs, alphas[i - 1])
        ds = range(1, rs.rank) if kind == "A" else [None]
        for w in whole_group(rs):
            assert reduced_word(w) == reference_reduced_word(w), w
            for d in ds:
                assert is_minimal_rep(w, d) == reference_is_minimal_rep(w, d), (w, d)
            for alpha in alphas:
                terms = [(k, c) for k, c in enumerate(alpha) if c]
                assert window_image(w.window, terms) == window_apply(w.window, alpha), (w, alpha)
            for k in range(rs.rank):
                twice = tuple(-2 * (m == k) for m in range(rs.rank))
                assert window_image(w.window, ((k, -1), (k, -1))) == window_apply(w.window, twice)


def test_type_d_parity_preserved_under_mult():
    rs = RootSystem("D", 4)
    group = whole_group(rs)
    for u in group[:24]:
        for w in group[::17]:
            uw = mult(u, w)  # constructor would reject odd parity
            assert sum(1 for t in uw.window if t < 0) % 2 == 0


def test_full_window_symmetry():
    rs = RootSystem("C", 4)
    w = parse_window(rs, "2,-4,-3,-1")
    fw = full_window(w)
    assert fw == (2, 5, 6, 8, 1, 3, 4, 7)
    n = 4
    assert all(fw[2 * n - 1 - i] == 2 * n + 1 - fw[i] for i in range(n))


def test_parse_and_format_window_roundtrip():
    rs = RootSystem("C", 4)
    for text in ("2,-4,-3,-1", "1,2,3,4"):
        assert format_window(parse_window(rs, text)) == text
    with pytest.raises(ValueError):
        parse_window(rs, "2,-4,x,-1")


def test_window_level_helpers_match_weyl_ops():
    for kind, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        rs = RootSystem(kind, rank)
        alphas = simple_roots(rs)
        for w in whole_group(rs):
            ascents = []
            for i in range(1, rs.num_simple + 1):
                s = simple_reflection(rs, i)
                assert window_right_mult(kind, w.window, i) == mult(w, s).window
                expect = is_positive_root_vector(apply(w, alphas[i - 1]))
                assert window_right_ascent(kind, w.window, i) == expect
                ascents.append(expect)
            n = len(w.window)  # the bulk test reads every s_i with i < n but skip
            for skip in range(1, n + 1):
                levi = all(ascents[i - 1] for i in range(1, n) if i != skip)
                assert window_levi_ascent(kind, w.window, skip) == levi, (w, skip)


@pytest.mark.parametrize("kind, refused", [("A", 272), ("B", 216), ("C", 216), ("D", 216)])
def test_rank_is_bounded_by_the_coordinates_of_its_roots(kind, refused):
    # rank * |positive roots| against the budget, checked before any root is built
    assert RootSystem(kind, refused - 1).rank == refused - 1
    with pytest.raises(ValueError, match=f"positive roots of {kind}{refused}, .*lower the rank"):
        RootSystem(kind, refused)
