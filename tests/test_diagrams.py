from fractions import Fraction

import pytest

from oracles import boxset_from_json, demazure_fold, energies, excite, subword_of
from schubertk.diagrams import (
    BoxSet,
    ambient_boxes,
    boxset_to_json,
    enumerate_eyd,
    geometry_of,
    initial_diagram,
    reading_word,
    reflection_tableau,
)
from schubertk.restriction import hilbert_data
from schubertk.shapes import contains, minimal_reps, perm_of, perm_of_strict, shape_of, trim
from schubertk.weyl import RootSystem, length


def test_ambient_boxes_shapes():
    assert ambient_boxes((2, 1), "ordinary") == {(1, 1), (1, 2), (2, 1)}
    assert ambient_boxes((2, 1), "shiftedBC") == {(1, 1), (1, 2), (2, 2)}
    assert ambient_boxes((3, 1), "shiftedD") == {(1, 1), (1, 2), (1, 3), (2, 2)}


def test_boxset_rejects_stray_boxes():
    with pytest.raises(ValueError):
        BoxSet("ordinary", (2, 1), frozenset({(3, 3)}))


def test_excite_examples():
    C = initial_diagram((2, 1), (4, 4, 3), "ordinary")
    moved = excite(C, (2, 1), "type1")
    assert moved.boxes == (C.boxes - {(2, 1)}) | {(3, 2)}
    # (1,1) is blocked: (2,2) is free but (1,2),(2,1) are occupied
    assert excite(C, (1, 1), "type1") is None
    added = excite(C, (2, 1), "type2")
    assert added.boxes == C.boxes | {(3, 2)}
    with pytest.raises(ValueError):
        excite(C, (3, 3), "type1")
    # shiftedD diagonal move needs (i+2,i+2) inside the ambient
    S = BoxSet("shiftedD", (3, 1), frozenset({(1, 1)}))
    assert excite(S, (1, 1), "type1") is None


def test_excite_shifted_diagonal_rules():
    S = initial_diagram((1,), (3, 2), "shiftedBC")
    moved = excite(S, (1, 1), "type1")
    assert moved.boxes == {(2, 2)}
    S2 = initial_diagram((1,), (4, 3, 2), "shiftedD")
    moved2 = excite(S2, (1, 1), "type1")
    assert moved2.boxes == {(3, 3)}
    added2 = excite(S2, (1, 1), "type2")
    assert added2.boxes == {(1, 1), (3, 3)}


def test_enumerate_eyd_counts():
    eyds = enumerate_eyd((2, 1), (4, 4, 3), "ordinary")
    assert len(eyds) == 11
    sizes = sorted(len(C) for C in eyds)
    assert sizes.count(3) == 5 and sizes.count(4) == 5 and sizes.count(5) == 1

    bc = enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC")
    assert len(bc) == 7
    assert len(enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC", reduced_only=True)) == 4

    dd = enumerate_eyd((3, 1), (5, 3, 2, 1), "shiftedD")
    assert len(dd) == 11
    sizes = sorted(len(C) for C in dd)
    assert sizes.count(4) == 5 and sizes.count(5) == 5 and sizes.count(6) == 1


def test_enumerate_eyd_degenerate_cases():
    for geometry, lam, mu in [
        ("ordinary", (3, 2), (3, 2)),
        ("shiftedBC", (3, 1), (3, 1)),
        ("shiftedD", (2,), (2,)),
    ]:
        assert len(enumerate_eyd(lam, mu, geometry)) == 1
    assert len(enumerate_eyd((), (4, 2), "ordinary")) == 1
    with pytest.raises(ValueError):
        enumerate_eyd((3,), (2, 2), "ordinary")


def test_enumerate_eyd_refuses_a_shape_that_is_not_a_partition():
    # D_(1,2) is no Young diagram, so there are no excited diagrams of it
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a partition"):
        enumerate_eyd((1, 2), (2, 2), "ordinary")


def test_enumerate_eyd_closed_under_excitation():
    for geometry, lam, mu in [
        ("ordinary", (2, 1), (4, 4, 3)),
        ("shiftedBC", (2, 1), (4, 2, 1)),
        ("shiftedD", (3, 1), (5, 3, 2, 1)),
    ]:
        family = {C.boxes for C in enumerate_eyd(lam, mu, geometry)}
        for boxes in family:
            C = BoxSet(geometry, mu, boxes)
            for box in boxes:
                for kind in ("type1", "type2"):
                    C2 = excite(C, box, kind)
                    if C2 is not None:
                        assert C2.boxes in family


def _on_variety_pairs():
    groups = [(RootSystem("A", n), d) for n in range(2, 7) for d in range(1, n)]
    groups += [(RootSystem(kind, n), None) for kind in "BC" for n in range(2, 5)]
    groups += [(RootSystem("D", n), None) for n in range(3, 6)]
    for rs, d in groups:
        reps = minimal_reps(rs, d)
        shapes = [(u, shape_of(u, d or rs.rank)) for u in reps]
        for w, lam in shapes:
            for v, mu in shapes:
                if contains(lam, mu):
                    yield rs, d, w, v, lam, mu


def test_enumerate_eyd_is_the_closure_under_the_oracle_excitations():
    # the BFS closure of D_lam under oracles.excite, in sorted box-list order,
    # each diagram's sorted boxes in its `order` (which equality ignores and
    # the eyd class reads); the reduced diagrams count the multiplicity, in
    # type B those of the same shapes in D_{n+1}, through which its Hilbert
    # data are computed
    pairs = 0
    for rs, d, w, v, lam, mu in _on_variety_pairs():
        geometry = geometry_of(rs)
        for kinds in (("type1", "type2"), ("type1",)):
            seen = frontier = {initial_diagram(lam, mu, geometry)}
            while frontier:
                frontier = {excite(C, box, kind) for C in frontier for box in C.boxes
                            for kind in kinds} - {None} - seen
                seen = seen | frontier
            expected = sorted(seen, key=lambda C: sorted(C.boxes))
            listed = enumerate_eyd(lam, mu, geometry, reduced_only=len(kinds) == 1)
            assert listed == expected
            assert all(C.order == tuple(sorted(C.boxes)) for C in listed)
        upstairs = "shiftedD" if rs.kind == "B" else geometry
        reduced = enumerate_eyd(lam, mu, upstairs, reduced_only=True)
        assert len(reduced) == hilbert_data(rs, d, w, v, method="svt").multiplicity
        pairs += 1
    assert pairs == 1125


def test_listed_diagrams_are_the_checked_box_sets():
    # enumerate_eyd builds its diagrams without BoxSet's checks; each equals,
    # and hashes like, the set the public constructor checks and trims
    for rs, d, w, v, lam, mu in _on_variety_pairs():
        geometry = geometry_of(rs)
        for reduced_only in (False, True):
            for C in enumerate_eyd(lam, mu, geometry, reduced_only):
                checked = BoxSet(geometry, mu, C.boxes)
                assert C == checked and hash(C) == hash(checked)
                assert C.sorted_boxes() == checked.sorted_boxes()
                assert C.ambient == checked.ambient == trim(mu)
                assert type(C.boxes) is frozenset


def test_energies():
    C = initial_diagram((2, 1), (4, 4, 3), "ordinary")
    assert energies(C, (2, 1)) == (Fraction(0), 0)
    eyds = enumerate_eyd((2, 1), (4, 4, 3), "ordinary")
    big = [C for C in eyds if len(C) == 5]
    assert len(big) == 1
    assert energies(big[0], (2, 1))[1] == 2
    moved = excite(C, (2, 1), "type2")
    assert energies(moved, (2, 1))[1] == energies(C, (2, 1))[1] + 1
    for C2 in eyds:
        e1, e2 = energies(C2, (2, 1))
        assert e2 >= 0


def test_reduced_eyds_have_zero_e2():
    for geometry, lam, mu in [
        ("ordinary", (2, 1), (4, 4, 3)),
        ("shiftedBC", (2, 1), (4, 2, 1)),
        ("shiftedD", (3, 1), (5, 3, 2, 1)),
    ]:
        reduced = {C.boxes for C in enumerate_eyd(lam, mu, geometry, reduced_only=True)}
        for C in enumerate_eyd(lam, mu, geometry):
            assert (energies(C, lam)[1] == 0) == (C.boxes in reduced)


def test_reflection_tableau_type_a():
    rs = RootSystem("A", 8)
    T = reflection_tableau((4, 3, 3, 2), rs, 4)
    assert T.letter((1, 1)) == 4
    assert T.letter((1, 4)) == 7
    assert T.letter((4, 2)) == 2
    word = reading_word(T)
    assert word == (2, 1, 4, 3, 2, 5, 4, 3, 7, 6, 5, 4)
    v = demazure_fold(word, rs)
    assert v.window == (3, 5, 6, 8, 1, 2, 4, 7)
    assert length(v) == len(word) == 12


def test_reflection_tableau_type_c():
    rs = RootSystem("C", 6)
    T = reflection_tableau((6, 5, 3, 2), rs)
    assert T.letter((1, 1)) == 6
    assert T.letter((1, 6)) == 1
    assert reading_word(T) == (5, 6, 4, 5, 6, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6)
    v = demazure_fold(reading_word(T), rs)
    assert length(v) == 16
    from schubertk.shapes import strict_partition_of

    assert strict_partition_of(v) == (6, 5, 3, 2)


def test_reflection_tableau_type_d():
    rs = RootSystem("D", 7)
    T = reflection_tableau((6, 5, 3, 2), rs)
    assert T.letter((1, 1)) == 7
    assert T.letter((3, 3)) == 7
    assert T.letter((2, 2)) == 6
    assert reading_word(T) == (5, 6, 4, 5, 7, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 7)
    v = demazure_fold(reading_word(T), rs)
    from schubertk.shapes import strict_partition_of

    assert strict_partition_of(v) == (6, 5, 3, 2)


def test_reflection_tableau_refuses_a_shape_that_is_not_strict():
    # a shifted D_mu, and so T_mu, needs a strict mu
    with pytest.raises(ValueError, match=r"\(2, 2\) is not a strict partition"):
        reflection_tableau((2, 2), RootSystem("C", 3))


def test_reading_word_small_example():
    rs = RootSystem("A", 3)
    T = reflection_tableau((2,), rs, 1)
    assert reading_word(T) == (2, 1)
    assert demazure_fold((2, 1), rs).window == (3, 1, 2)
    empty = reflection_tableau((), rs, 1)
    assert reading_word(empty) == ()


def test_reading_words_fold_to_shape_element():
    # fold(reading word of T_mu) is the minimal representative of shape mu
    cases = [
        (RootSystem("A", 6), 2),
        (RootSystem("A", 6), 3),
        (RootSystem("B", 4), None),
        (RootSystem("C", 4), None),
        (RootSystem("D", 5), None),
    ]
    from schubertk.shapes import all_shapes, shape_of

    for rs, d in cases:
        for mu in all_shapes(rs, d):
            T = reflection_tableau(mu, rs, d)
            word = reading_word(T)
            v = demazure_fold(word, rs)
            assert length(v) == len(word) == sum(mu)
            assert shape_of(v, d if d else rs.rank) == mu


def test_subword_positions_worked_example():
    rs = RootSystem("A", 8)
    T = reflection_tableau((4, 3, 3, 2), rs, 4)
    C = BoxSet("ordinary", (4, 3, 3, 2), frozenset({(3, 1), (2, 1), (2, 2), (3, 3), (1, 4)}))
    pos = subword_of(C, T)
    word = reading_word(T)
    assert tuple(word[p - 1] for p in pos) == (4, 2, 4, 3, 7)
    full = initial_diagram((4, 3, 3, 2), (4, 3, 3, 2), "ordinary")
    assert subword_of(full, T) == tuple(range(1, 13))
    empty = BoxSet("ordinary", (4, 3, 3, 2), frozenset())
    assert subword_of(empty, T) == ()


@pytest.mark.parametrize(
    "rs,d,lam,mu",
    [
        (RootSystem("A", 6), 3, (2, 1), (3, 3, 2)),
        (RootSystem("C", 4), None, (2, 1), (4, 2, 1)),
        (RootSystem("B", 4), None, (2, 1), (4, 2, 1)),
        (RootSystem("D", 5), None, (2, 1), (4, 2, 1)),
    ],
)
def test_subset_characterization_small(rs, d, lam, mu):
    # fold(s_C) == w  iff  C is an excited diagram of lam in mu
    from schubertk.diagrams import geometry_of
    from schubertk.shapes import perm_of, perm_of_strict

    geometry = geometry_of(rs)
    if rs.kind == "A":
        w = perm_of(lam, d, rs.rank)
    else:
        w = perm_of_strict(lam, rs)
    T = reflection_tableau(mu, rs, d)
    word = reading_word(T)
    boxes = sorted(ambient_boxes(mu, geometry))
    family = {C.boxes for C in enumerate_eyd(lam, mu, geometry)}
    hits = set()
    for mask in range(1 << len(boxes)):
        subset = frozenset(boxes[k] for k in range(len(boxes)) if mask >> k & 1)
        C = BoxSet(geometry, mu, subset)
        sub = tuple(word[p - 1] for p in subword_of(C, T))
        if demazure_fold(sub, rs) == w:
            hits.add(subset)
    assert hits == family


def test_boxset_json_roundtrip():
    C = initial_diagram((2, 1), (4, 2, 1), "shiftedBC")
    blob = boxset_to_json(C)
    assert blob == {"ambient": [4, 2, 1], "boxes": [[1, 1], [1, 2], [2, 2]]}
    assert boxset_from_json(blob, "shiftedBC") == C
