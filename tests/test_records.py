"""Value semantics of the package's records: equality and hash over the
compared fields, no assignment to a field, keyword construction and
defaults, the reprs, the constructor checks, and pickle and deepcopy."""

import copy
import pickle

import pytest

from schubertk import hecke, restriction
from schubertk.diagrams import BoxSet, ReflectionTableau, reflection_tableau
from schubertk.restriction import BackendReport, HilbertData, KClass, Pair
from schubertk.ring import GradedSeries, LaurentPoly
from schubertk.tableaux import SetValuedTableau
from schubertk.weyl import RootSystem, WeylElement, parse_window

C4 = RootSystem("C", 4)
W = parse_window(C4, "1,2,-4,-3")
V = parse_window(C4, "2,-4,-3,-1")
ONE = LaurentPoly.one(4)


def _tableau(**changes):
    T = reflection_tableau((4, 2, 1), C4)
    fields = dict(rstype=T.rstype, d=T.d, mu=T.mu, geometry=T.geometry,
                  entries=T.entries, reading_boxes=T.reading_boxes)
    return ReflectionTableau(**{**fields, **changes})


# name -> (build, keyword fields of another equal value, fields of a different one)
RECORDS = {
    "RootSystem": (RootSystem, dict(kind="C", rank=4), dict(kind="C", rank=5)),
    "WeylElement": (WeylElement, dict(rstype=C4, window=[1, 2, -4, -3]),
                    dict(rstype=C4, window=(2, -4, -3, -1))),
    "BoxSet": (BoxSet, dict(geometry="ordinary", ambient=(2, 1, 0), boxes=[(1, 2), (1, 1)]),
               dict(geometry="ordinary", ambient=(2, 1), boxes=[(1, 1)])),
    "ReflectionTableau": (_tableau, dict(entries={}, reading_boxes=()), dict(d=3)),
    "SetValuedTableau": (SetValuedTableau,
                         dict(geometry="ordinary", shape=(1,), ambient=(2,), cells=[((1, 1), [2, 1])]),
                         dict(geometry="ordinary", shape=(1,), ambient=(2,), cells=[((1, 1), [1])])),
    "KClass": (KClass, dict(rstype=C4, d=4, value=ONE), dict(rstype=C4, d=4, value=ONE, on_variety=False)),
    "HilbertData": (HilbertData, dict(d_w=7, m=(4, 3)), dict(d_w=7, m=(4,))),
    "Point": (restriction.Point, dict(rstype=C4, d=4, v=V, mu=(4, 2, 1)),
              dict(rstype=C4, d=4, v=W, mu=(2, 1))),
    "Pair": (Pair, dict(rstype=C4, d=4, w=W, v=V, lam=(2, 1), mu=(4, 2, 1), on_variety=True),
             dict(rstype=C4, d=4, w=V, v=V, lam=(4, 2, 1), mu=(4, 2, 1), on_variety=True)),
    "HeckeSubseq": (hecke.HeckeSubseq, dict(indices=(1, 3), length=2, excess=1),
                    dict(indices=(1,), length=1, excess=0)),
    "GradedSeries": (GradedSeries, dict(trunc=1, slices=[ONE, ONE]), dict(trunc=0, slices=[ONE])),
    "BackendReport": (BackendReport, dict(classes=[], agree=True), dict(classes=[], agree=False)),
}


def _base(name):
    """The first value of a record: the other value's fields, except that
    BoxSet and ReflectionTableau differ in a field equality leaves out."""
    build, fields, _ = RECORDS[name]
    if name == "BoxSet":
        return build(**fields, order=((1, 1), (1, 2)))
    if name == "ReflectionTableau":
        return build()
    return build(**fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_reads_the_compared_fields(name):
    build, fields, other = RECORDS[name]
    a, b, c = _base(name), build(**fields), build(**other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()
    if name in ("GradedSeries", "BackendReport"):  # a list field: unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_the_excluded_fields_are_kept_but_not_compared():
    a, b = _base("BoxSet"), BoxSet("ordinary", (2, 1), {(1, 1), (1, 2)})
    assert a.order == ((1, 1), (1, 2)) and b.order is None and a == b
    assert a.sorted_boxes() == b.sorted_boxes() == ((1, 1), (1, 2))
    T, U = _tableau(), _tableau(entries={}, reading_boxes=())
    assert T == U and T.entries and not U.entries and hash(T) == hash(U)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment(name):
    a = _base(name)
    field = next(iter(RECORDS[name][1]))
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == before


def test_keyword_construction_and_defaults():
    assert KClass(rstype=C4, d=4, value=ONE).on_variety is True
    assert KClass(C4, 4, ONE, False) == KClass(C4, 4, ONE, on_variety=False)
    assert BoxSet(geometry="ordinary", ambient=(1,), boxes=()).order is None
    assert BackendReport(classes=[], agree=True).first_diff == ""
    assert BackendReport([], False, "x").first_diff == "x"
    assert WeylElement(C4, [1, 2, -4, -3]).window == (1, 2, -4, -3)  # the window becomes a tuple
    S = SetValuedTableau("ordinary", (1, 0), (2, 0), [((1, 1), [2, 1])])
    assert (S.shape, S.ambient, S.cells) == ((1,), (2,), (((1, 1), (1, 2)),))


@pytest.mark.parametrize("build, fields, message", [
    (RootSystem, dict(kind="E", rank=6), "unknown root system kind"),
    (RootSystem, dict(kind="A", rank=1), "rank must be at least 2"),
    (RootSystem, dict(kind="D", rank=2), "type D requires rank at least 3"),
    (WeylElement, dict(rstype=C4, window=(1, 2, 3)), "window length 3 != rank 4"),
    (WeylElement, dict(rstype=C4, window=(1, 1, 2, 3)), "is not a signed permutation"),
    (WeylElement, dict(rstype=RootSystem("A", 3), window=(-1, 2, 3)), "type A windows carry no signs"),
    (WeylElement, dict(rstype=RootSystem("D", 4), window=(-1, 2, 3, 4)), "odd number of barred"),
    (BoxSet, dict(geometry="ordinary", ambient=(1,), boxes=[(1, 2)]), "outside ambient"),
    (BoxSet, dict(geometry="skew", ambient=(1,), boxes=()), "unknown geometry"),
    (SetValuedTableau, dict(geometry="ordinary", shape=(2,), ambient=(2,), cells=[((1, 1), [1])]),
     "cells do not cover the shape"),
    (SetValuedTableau, dict(geometry="ordinary", shape=(1,), ambient=(2,), cells=[((1, 1), [])]),
     "nonempty entry set"),
])
def test_the_constructor_checks_run(build, fields, message):
    with pytest.raises(ValueError, match=message):
        build(**fields)


def test_a_box_set_refuses_an_order_that_is_not_its_sorted_boxes():
    # sorted_boxes and boxset_to_json print the order: a box outside the set,
    # or the set's boxes out of order, would print a wrong diagram
    for order in (((2, 1),), ((1, 2), (1, 1)), ((1, 1),), [(1, 1), (1, 2)]):
        with pytest.raises(ValueError, match="is not the sorted boxes"):
            BoxSet("ordinary", (2, 1), {(1, 1), (1, 2)}, order=order)
    C = BoxSet("ordinary", (2, 1), {(1, 2), (1, 1)}, order=((1, 1), (1, 2)))
    assert C.sorted_boxes() == ((1, 1), (1, 2)) and C == _base("BoxSet")


def test_the_reprs():
    assert repr(HilbertData(d_w=7, m=(4, 3))) == "HilbertData(d_w=7, m=(4, 3))"
    assert repr(C4) == "RootSystem('C', 4)"
    assert repr(W) == "WeylElement(C4: 1,2,-4,-3)"
    assert repr(_base("BoxSet")) == "BoxSet(ordinary, mu=(2, 1), [(1, 1), (1, 2)])"
    assert repr(_base("SetValuedTableau")) == "SVT(ordinary, (1,) in (2,); (1, 1):{1, 2})"
    assert repr(_base("HeckeSubseq")) == "HeckeSubseq(indices=(1, 3), length=2, excess=1)"
    assert repr(KClass(C4, 4, ONE)) == (
        "KClass(rstype=RootSystem('C', 4), d=4, value=LaurentPoly(1), on_variety=True)")
    assert repr(GradedSeries(0, [ONE])) == "GradedSeries(trunc=0, slices=[LaurentPoly(1)])"
    assert repr(BackendReport([], True)) == "BackendReport(classes=[], agree=True, first_diff='')"
    assert repr(_base("Pair")) == (
        "Pair(rstype=RootSystem('C', 4), d=4, w=WeylElement(C4: 1,2,-4,-3), "
        "v=WeylElement(C4: 2,-4,-3,-1), lam=(2, 1), mu=(4, 2, 1), on_variety=True)")
    T = reflection_tableau((1,), RootSystem("A", 2), 1)
    assert repr(T) == ("ReflectionTableau(rstype=RootSystem('A', 2), d=1, mu=(1,), "
                       "geometry='ordinary', entries={(1, 1): 1}, reading_boxes=((1, 1),))")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_deepcopy_give_an_equal_value(name):
    a = _base(name)
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_a_copied_pair_and_box_set_keep_working():
    pair = Pair.of(C4, None, W, V)
    word = pair.point.word
    for b in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
        assert b.point.word == word and b.point.exponents == pair.point.exponents
        assert restriction.pair_class(b, "hecke") == restriction.pair_class(pair, "eyd")
    C = _base("BoxSet")
    assert copy.deepcopy(C).sorted_boxes() == C.sorted_boxes() == ((1, 1), (1, 2))
