import random

import pytest

from oracles import (
    energies,
    excite,
    excite_tableau,
    f_inverse,
    is_restricted,
    is_semistandard,
    reference_enumerate_svt,
    svt_from_json,
    top_tableau,
)
from schubertk.diagrams import BoxSet, enumerate_eyd, geometry_of, initial_diagram
from schubertk.shapes import all_shapes, contains
from schubertk.tableaux import SetValuedTableau, enumerate_svt, f_map, svt_counts, svt_to_json
from schubertk.weyl import RootSystem

GOLDEN = [
    ("ordinary", (2, 1), (4, 4, 3), 3),
    ("shiftedBC", (2, 1), (4, 2, 1), None),
    ("shiftedD", (3, 1), (5, 3, 2, 1), None),
]


def test_enumeration_counts_golden():
    a = enumerate_svt((2, 1), (4, 4, 3), "ordinary", d=3)
    assert len(a) == 11
    totals = sorted(T.entry_count() for T in a)
    assert totals.count(3) == 5 and totals.count(4) == 5 and totals.count(5) == 1

    bc = enumerate_svt((2, 1), (4, 2, 1), "shiftedBC")
    assert len(bc) == 7
    assert len(enumerate_svt((2, 1), (4, 2, 1), "shiftedBC", single_valued_only=True)) == 4

    dd = enumerate_svt((3, 1), (5, 3, 2, 1), "shiftedD")
    assert len(dd) == 11


def test_empty_shape():
    out = enumerate_svt((), (3, 1), "ordinary", d=2)
    assert len(out) == 1 and out[0].cells == ()


def test_enumerate_svt_refuses_a_shape_that_is_not_a_partition():
    # refused by name before the transfer DP reads the shape row by row
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a partition"):
        enumerate_svt((1, 2), (2, 2), "ordinary")


def test_both_listings_refuse_an_ambient_that_is_not_a_partition():
    # f matches the tableaux with the diagrams only for a partition mu; the
    # transfer DP checks mu for all its callers, so svt and eyd refuse alike
    for listing in (enumerate_svt, enumerate_eyd, svt_counts):
        with pytest.raises(ValueError, match=r"\(1, 2\) is not a partition"):
            listing((1,), (1, 2), "ordinary")
    with pytest.raises(ValueError, match=r"\(2, 1, 1\) is not a strict partition"):
        svt_counts((1,), (2, 1, 1), "shiftedBC")


def test_enumerated_tableaux_validate():
    for geometry, lam, mu, d in GOLDEN:
        for T in enumerate_svt(lam, mu, geometry, d=d):
            assert is_semistandard(T)
            assert is_restricted(T)


def test_top_tableau_maps_to_initial_diagram():
    for geometry, lam, mu, d in GOLDEN:
        T = top_tableau(lam, mu, geometry)
        assert f_map(T) == initial_diagram(lam, mu, geometry)


def test_f_map_single_box_example():
    T = SetValuedTableau("ordinary", (1,), (2, 2), (((1, 1), (1, 2)),))
    assert f_map(T).boxes == {(1, 1), (2, 2)}


def test_f_bijection_on_golden_shapes():
    for geometry, lam, mu, d in GOLDEN:
        tabs = enumerate_svt(lam, mu, geometry, d=d)
        eyds = enumerate_eyd(lam, mu, geometry)
        images = [f_map(T) for T in tabs]
        assert len({C.boxes for C in images}) == len(tabs)
        assert {C.boxes for C in images} == {C.boxes for C in eyds}
        for T in tabs:
            assert f_inverse(f_map(T), lam) == T


def test_f_preserves_entry_statistic():
    for geometry, lam, mu, d in GOLDEN:
        for T in enumerate_svt(lam, mu, geometry, d=d):
            e2 = energies(f_map(T), lam)[1]
            assert T.entry_count() - sum(lam) == e2


def test_f_inverse_rejects_non_image():
    # the type D diagonal moves by two steps, so {(2,2)} is unreachable from {(1,1)}
    C = BoxSet("shiftedD", (3, 2, 1), frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        f_inverse(C, (1,))


def test_enumerate_svt_matches_the_backtracker():
    # the same list in the same order; d= never binds, as mu fits in d rows
    groups = [(RootSystem("A", n), d) for n in range(2, 8) for d in range(1, n)]
    groups += [(RootSystem(kind, n), None) for kind in "BC" for n in range(2, 6)]
    groups += [(RootSystem("D", n), None) for n in range(3, 7)]
    pairs = 0
    for rs, d in groups:
        geometry, shapes = geometry_of(rs), all_shapes(rs, d)
        for mu in shapes:
            for lam in shapes:
                if sum(mu) > 10 or not contains(lam, mu):
                    continue
                for single in (False, True):
                    expected = reference_enumerate_svt(lam, mu, geometry, d, single)
                    assert enumerate_svt(lam, mu, geometry, single_valued_only=single) == expected
                    if d is not None:
                        assert reference_enumerate_svt(lam, mu, geometry, None, single) == expected
                        assert enumerate_svt(lam, mu, geometry, d, single) == expected
                pairs += 1
    assert pairs == 3213


def test_counts_agree_across_small_shapes():
    cases = [
        ("ordinary", RootSystem("A", 6), 3),
        ("shiftedBC", RootSystem("C", 4), None),
        ("shiftedD", RootSystem("D", 5), None),
    ]
    for geometry, rs, d in cases:
        shapes = all_shapes(rs, d)
        for lam in shapes:
            for mu in shapes:
                if not contains(lam, mu) or sum(mu) > 9:
                    continue
                tabs = enumerate_svt(lam, mu, geometry, d=d)
                eyds = enumerate_eyd(lam, mu, geometry)
                assert len(tabs) == len(eyds), (geometry, lam, mu)


def test_counts_agree_on_larger_random_shapes():
    rng = random.Random(314)
    pools = [
        ("ordinary", RootSystem("A", 8), 4),
        ("shiftedBC", RootSystem("C", 5), None),
        ("shiftedD", RootSystem("D", 6), None),
    ]
    for geometry, rs, d in pools:
        shapes = [mu for mu in all_shapes(rs, d) if 10 <= sum(mu) <= 14]
        for _ in range(3):
            mu = rng.choice(shapes)
            lam = rng.choice([s for s in all_shapes(rs, d) if contains(s, mu)])
            tabs = enumerate_svt(lam, mu, geometry, d=d)
            eyds = enumerate_eyd(lam, mu, geometry)
            assert len(tabs) == len(eyds), (geometry, lam, mu)
            images = {f_map(T).boxes for T in tabs}
            assert images == {C.boxes for C in eyds}


def test_tableau_excitations_commute_with_f():
    rng = random.Random(5)
    lam, mu, d = (2, 1), (4, 4, 3), 3
    tabs = enumerate_svt(lam, mu, "ordinary", d=d)
    for _ in range(200):
        T = rng.choice(tabs)
        box, entries = rng.choice(T.cells)
        x = rng.choice(entries)
        kind = rng.choice(("type1", "type2"))
        T2 = excite_tableau(T, box, x, kind)
        if T2 is None:
            continue
        # the matching diagram move excites the image box of x
        C2 = excite(f_map(T), (x, x + box[1] - box[0]), kind)
        assert C2 is not None
        assert f_map(T2) == C2


def test_tableau_excitation_bfs_oracle():
    # every restricted tableau arises from T^top by a sequence of excitations
    lam, mu, d = (2, 1), (4, 4, 3), 3
    start = top_tableau(lam, mu, "ordinary")
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for T in frontier:
            for box, entries in T.cells:
                for x in entries:
                    for kind in ("type1", "type2"):
                        T2 = excite_tableau(T, box, x, kind)
                        if T2 is not None and T2 not in seen:
                            seen.add(T2)
                            nxt.append(T2)
        frontier = nxt
    assert seen == set(enumerate_svt(lam, mu, "ordinary", d=d))


def test_svt_json_roundtrip():
    for geometry, lam, mu, d in GOLDEN:
        for T in enumerate_svt(lam, mu, geometry, d=d)[:3]:
            blob = svt_to_json(T)
            assert svt_from_json(blob, geometry, mu) == T
