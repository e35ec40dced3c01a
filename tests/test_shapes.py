from itertools import product
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bd_identify, full_window, identity, reference_contains, transpose
from schubertk.diagrams import ambient_boxes
from schubertk.hecke import hecke_subsequences
from schubertk.shapes import (
    all_shapes,
    bd_identify_inverse,
    contains,
    format_shape,
    minimal_reps,
    parse_shape,
    partition_of,
    perm_of,
    perm_of_strict,
    shape_of,
    strict_partition_of,
    trim,
)
from schubertk.weyl import (
    RootSystem,
    WeylElement,
    length,
    parse_window,
    reduced_word,
)

partitions = st.lists(st.integers(0, 6), min_size=0, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_of_examples():
    rs = RootSystem("A", 7)
    assert partition_of(parse_window(rs, "4,6,7,1,2,3,5"), 3) == (4, 4, 3)
    assert partition_of(parse_window(rs, "1,3,5,2,4,6,7"), 3) == (2, 1)
    assert partition_of(identity(rs), 3) == ()
    with pytest.raises(ValueError):
        partition_of(parse_window(rs, "2,1,3,4,5,6,7"), 3)


def test_perm_of_inverts_partition_of():
    rs = RootSystem("A", 7)
    for d in (1, 3, 5):
        for v in minimal_reps(rs, d):
            assert perm_of(partition_of(v, d), d, 7) == v


@pytest.mark.parametrize("lam, d", [((), 0), ((1,), -1), ((), 7)])
def test_perm_of_checks_d_first(lam, d):
    # before: the identity of A4, "does not fit in a -1x5 box", "window length 7 != rank 4"
    with pytest.raises(ValueError, match=f"^type A needs 1 <= d <= 3, got {d}$"):
        perm_of(lam, d, 4)


def test_transpose_examples():
    assert transpose((4, 4, 3)) == (3, 3, 3, 2)
    assert transpose(()) == ()


def column_count_oracle(lam):
    boxes = ambient_boxes(lam, "ordinary")
    cols = {}
    for (i, j) in boxes:
        cols[j] = cols.get(j, 0) + 1
    return tuple(cols[j] for j in sorted(cols))


@given(partitions)
@settings(max_examples=80, deadline=None)
def test_transpose_involution_and_column_oracle(lam):
    assert transpose(transpose(lam)) == tuple(a for a in lam if a)
    assert transpose(lam) == column_count_oracle(lam)


def test_transpose_lemma_for_minimal_reps():
    # (lambda_v)^t_j = (d+j) - v_{d+j}
    rs = RootSystem("A", 6)
    for d in (2, 3):
        for v in minimal_reps(rs, d):
            lam_t = transpose(partition_of(v, d))
            expect = tuple(
                x
                for x in ((d + j) - v.window[d + j - 1] for j in range(1, 6 - d + 1))
                if x
            )
            assert lam_t == expect


def symmetric_reading(w):
    """lambda_w read off the 2n-window: the type A formula with d = n."""
    n = w.rstype.rank
    return partition_of(WeylElement(RootSystem("A", 2 * n), full_window(w)), n)


def strict_reading(w):
    """The strict partition of w by the 2n-window: lambda_w less its boxes
    below (B/C) or on and below (D) the diagonal."""
    shift = 0 if w.rstype.kind in ("B", "C") else 1
    return tuple(p for p in (a - i - shift for i, a in enumerate(symmetric_reading(w))) if p > 0)


def test_strict_partition_examples():
    rsB = RootSystem("B", 6)
    rsC = RootSystem("C", 6)
    rsD = RootSystem("D", 6)
    for rs in (rsB, rsC):
        w = parse_window(rs, "1,4,-6,-5,-3,-2")
        assert symmetric_reading(w) == (5, 5, 4, 4, 2)
        assert strict_partition_of(w) == strict_reading(w) == (5, 4, 2, 1)
    wD = parse_window(rsD, "1,4,-6,-5,-3,-2")
    assert strict_partition_of(wD) == strict_reading(wD) == (4, 3, 1)
    assert strict_partition_of(identity(rsC)) == ()


@pytest.mark.parametrize("kind", ["B", "C", "D"])
def test_barred_letters_match_the_2n_window_reading(kind):
    for rank in range(3 if kind == "D" else 2, 8):
        for w in minimal_reps(RootSystem(kind, rank)):
            assert strict_partition_of(w) == strict_reading(w)


def test_length_components_oracle():
    # for a minimal representative, l_i(v) = v_i - i on the first d entries
    # and l(v) is their sum
    rs = RootSystem("A", 7)
    for d in (2, 4):
        for v in minimal_reps(rs, d):
            comps = [v.window[i - 1] - i for i in range(1, d + 1)]
            tail = [(d + j) - v.window[d + j - 1] for j in range(1, 7 - d + 1)]
            assert length(v) == sum(comps) == sum(tail)


def test_length_equals_shape_size():
    rs = RootSystem("A", 7)
    for d in range(1, 7):
        for v in minimal_reps(rs, d):
            assert sum(partition_of(v, d)) == length(v)
    for kind in ("B", "C", "D"):
        for rank in (3, 4, 5):
            if kind == "D" and rank < 3:
                continue
            rsx = RootSystem(kind, rank)
            for w in minimal_reps(rsx):
                assert sum(strict_partition_of(w)) == length(w)


def test_type_a_shapes_are_the_decreasing_d_tuples_by_size_then_lex():
    for n in range(2, 9):
        for d in range(1, n):
            shapes = {tuple(a for a in t if a) for t in product(range(n - d + 1), repeat=d)
                      if all(a >= b for a, b in zip(t, t[1:]))}
            assert all_shapes(RootSystem("A", n), d) == sorted(shapes, key=lambda s: (sum(s), s))


def test_perm_of_strict_roundtrip():
    for kind in ("B", "C", "D"):
        for rank in (3, 4, 5, 6):
            rs = RootSystem(kind, rank)
            for lam in all_shapes(rs):
                w = perm_of_strict(lam, rs)
                assert strict_partition_of(w) == lam
    with pytest.raises(ValueError):
        perm_of_strict((7,), RootSystem("C", 6))
    with pytest.raises(ValueError):
        perm_of_strict((6,), RootSystem("D", 6))


def test_perm_of_strict_examples():
    rsC = RootSystem("C", 6)
    assert perm_of_strict((5, 4, 2, 1), rsC) == parse_window(rsC, "1,4,-6,-5,-3,-2")
    rsD = RootSystem("D", 6)
    assert perm_of_strict((4, 3, 1), rsD) == parse_window(rsD, "1,4,-6,-5,-3,-2")
    assert perm_of_strict((), rsC) == identity(rsC)
    # maximal staircases give the longest minimal representative
    for rs, stair in ((rsC, (6, 5, 4, 3, 2, 1)), (rsD, (5, 4, 3, 2, 1))):
        w = perm_of_strict(stair, rs)
        assert length(w) == sum(stair)


def test_bd_identify_examples():
    rsD = RootSystem("D", 6)
    w = parse_window(rsD, "1,4,-6,-5,-3,-2")
    u = bd_identify(w)
    assert u.rstype == RootSystem("B", 5)
    assert u.window == (1, 4, -5, -3, -2)
    assert bd_identify(identity(rsD)) == identity(RootSystem("B", 5))
    assert bd_identify_inverse(identity(RootSystem("B", 5))) == identity(rsD)


def test_bd_identify_preserves_strict_partition_exhaustive():
    for n in range(2, 8):
        rs = RootSystem("D", n + 1)
        reps = minimal_reps(rs)
        assert len(reps) == 2 ** n
        for w in reps:
            u = bd_identify(w)
            assert strict_partition_of(u) == strict_partition_of(w)
            assert bd_identify_inverse(u) == w == perm_of_strict(strict_partition_of(u), rs)


def test_contains_examples():
    assert contains((2, 1), (4, 4, 3))
    assert contains((3, 1), (3, 1))
    assert not contains((3,), (2, 2))
    # trailing zeros read as missing rows on either side
    assert contains((2, 1, 0), (2, 1))
    assert contains((1,), (1, 0, 0))
    assert not contains((1, 1, 1), (3, 0))


def test_contains_matches_the_row_by_row_test():
    # every partition with at most 5 parts of size at most 5, trimmed and
    # padded with zeros, on either side
    padded = [p for p in product(range(6), repeat=5) if all(map(ge, p, p[1:]))]
    shapes = padded + [trim(p) for p in padded]
    assert len(padded) == 252
    for lam in shapes:
        for mu in shapes:
            assert contains(lam, mu) == reference_contains(lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "kind,rank,d", [("A", 4, 2), ("C", 3, None), ("D", 4, None), ("B", 3, None)]
)
def test_contains_matches_bruhat_via_subwords(kind, rank, d):
    rs = RootSystem(kind, rank)
    reps = minimal_reps(rs, d)
    dd = d if kind == "A" else rs.rank
    for v in reps:
        word = tuple(reduced_word(v))
        for w in reps:
            expected = len(hecke_subsequences(w, word)) > 0
            assert contains(shape_of(w, dd), shape_of(v, dd)) == expected


def test_symmetry_lemma():
    # v symmetric (2n-window) iff lambda_v symmetric; holds by construction
    for kind in ("B", "C", "D"):
        rs = RootSystem(kind, 4)
        for w in minimal_reps(rs):
            fw = full_window(w)
            n = rs.rank
            assert all(fw[2 * n - 1 - i] == 2 * n + 1 - fw[i] for i in range(n))
            lam = symmetric_reading(w)
            assert transpose(lam) == lam


def test_parse_format_shape():
    assert parse_shape("4,4,3") == (4, 4, 3)
    assert parse_shape("") == ()
    assert format_shape((4, 4, 3)) == "4,4,3"
    with pytest.raises(ValueError):
        parse_shape("3,4")
    with pytest.raises(ValueError):
        parse_shape("a,b")
