"""The packed counts of `svt_counts` and `subsequence_stats`: one integer per
DP state, checked against the dict-keyed count steps of `oracles`, run over
the same DPs, and against the work budget those steps were refused at."""

from math import comb

import pytest

from oracles import count_entries, skip_and_take, svt_steps
from schubertk import hecke, ring, tableaux
from schubertk.hecke import fold_dp, subsequence_stats
from schubertk.restriction import Pair, pair_hilbert
from schubertk.ring import add_into
from schubertk.shapes import minimal_reps, perm_of_strict, size
from schubertk.tableaux import svt_counts
from schubertk.weyl import RootSystem, simple_reflection

CONFIGS = (
    [(RootSystem("A", n), d) for n in range(2, 6) for d in range(1, n)]
    + [(RootSystem(kind, r), None) for kind in "BC" for r in range(2, 6)]
    + [(RootSystem("D", r), None) for r in range(3, 6)]
)


def on_variety_pairs():
    for rs, d in CONFIGS:
        reps = minimal_reps(rs, d)
        for v in reps:
            for w in reps:
                pair = Pair.of(rs, d, w, v)
                if pair.on_variety:
                    yield pair


def svt_reference(lam, mu, geometry):
    return dict(sorted(svt_steps(lam, mu, geometry, count_entries).items()))


def hecke_reference(w, word):
    return dict(sorted(fold_dp(w, word, [1] * len(word), add_into, skip_and_take).items()))


def test_packed_counts_agree_with_the_dict_reference_size_by_size():
    pairs = 0
    for pair in on_variety_pairs():
        pairs += 1
        expect = svt_reference(pair.lam, pair.mu, pair.geometry)
        counts = svt_counts(pair.lam, pair.mu, pair.geometry)
        # equal dicts, and in the same ascending order of sizes
        assert list(counts.items()) == list(expect.items()), (pair.w, pair.v)
        stats = subsequence_stats(pair.w, pair.point.word)
        assert list(stats.items()) == list(expect.items()), (pair.w, pair.v)
    assert pairs > 1000


def test_svt_counts_agree_with_the_hecke_fold_on_long_rows():
    # rows long enough for states that differ only in a dead maximum to merge;
    # the fold DP shares no code with the transfer DP
    pairs = 0
    for rs in (RootSystem("C", 6), RootSystem("D", 7), RootSystem("B", 6)):
        reps = minimal_reps(rs)
        for v in reps:
            for w in reps:
                pair = Pair.of(rs, None, w, v)
                if not pair.on_variety:
                    continue
                pairs += 1
                if rs.kind == "B":
                    pair = pair.lifted
                assert (svt_counts(pair.lam, pair.mu, pair.geometry)
                        == subsequence_stats(pair.w, pair.point.word)), (rs, w, v)
    assert pairs == 5148


def test_a_count_above_two_to_the_64_is_exact():
    s1 = simple_reflection(RootSystem("A", 3), 1)
    # every nonempty subword of (1,)*70 folds to s_1
    expect = {n: comb(70, n) for n in range(1, 71)}
    assert max(expect.values()) > 2 ** 64
    assert subsequence_stats(s1, (1,) * 70) == expect
    assert hecke_reference(s1, (1,) * 70) == expect


def test_counts_of_the_empty_shape_and_off_the_variety():
    assert svt_counts((), (2, 2), "ordinary") == {0: 1}
    assert svt_counts((), (), "shiftedBC") == {0: 1}
    with pytest.raises(ValueError, match="not contained"):
        svt_counts((3,), (2, 2), "ordinary")
    # no subword of (2, 2) folds to s_1
    assert subsequence_stats(simple_reflection(RootSystem("A", 3), 1), (2, 2)) == {}


def recorded_work(monkeypatch, module, run):
    """The running work that `run` hands to `check_work` through module."""
    seen = []

    def recorded(work, *args):
        seen.append(work)
        return ring.check_work(work, *args)

    with monkeypatch.context() as patch:
        patch.setattr(module, "check_work", recorded)
        run()
    return seen


def one_key(dst, src, *args):
    dst[0] = 1


C5 = RootSystem("C", 5)
HECKE = Pair.of(C5, None, perm_of_strict((3, 1), C5), perm_of_strict((5, 4, 3, 1), C5))
SVT = [((3, 2), (5, 4, 2), "ordinary"), ((3, 1), (5, 4, 3, 1), "shiftedBC"),
       ((3, 1), (4, 3, 2, 1), "shiftedD")]


@pytest.mark.parametrize("module, packed, reference, one_per_state", [
    *(pytest.param(tableaux, lambda s=s: svt_counts(*s), lambda s=s: svt_reference(*s),
                   lambda s=s: svt_steps(*s, one_key), id=f"svt-{s[2]}") for s in SVT),
    pytest.param(hecke, lambda: subsequence_stats(HECKE.w, HECKE.point.word),
                 lambda: hecke_reference(HECKE.w, HECKE.point.word),
                 lambda: fold_dp(HECKE.w, HECKE.point.word, [1] * len(HECKE.point.word), one_key, one_key),
                 id="hecke"),
])
def test_a_count_is_refused_at_its_slot_weighted_work(module, packed, reference,
                                                      one_per_state, monkeypatch):
    # a packed state weighs as many entries as the dict-keyed state has keys
    work = recorded_work(monkeypatch, module, packed)
    assert work == recorded_work(monkeypatch, module, reference)
    need = max(work)
    assert need > max(recorded_work(monkeypatch, module, one_per_state))
    expect = packed()
    monkeypatch.setattr(ring, "MAX_EXPANSION", need)
    assert packed() == expect
    monkeypatch.setattr(ring, "MAX_EXPANSION", need - 1)
    with pytest.raises(ValueError, match=f"{need} entries read"):
        packed()


def staircase(n):
    return tuple(range(n, 0, -1))


@pytest.mark.parametrize("lam, mu, geometry, states", [
    ((4, 2, 1), staircase(6), "shiftedBC", 47),
    (staircase(6), staircase(12), "shiftedBC", 8323),
    ((4, 4, 2, 2), (6, 6, 6, 5, 4, 4), "ordinary", 172),  # no row leaves a dead maximum
])
def test_svt_counts_visit_only_the_states_later_boxes_tell_apart(lam, mu, geometry, states,
                                                                 monkeypatch):
    # one check_work call per state and box
    work = recorded_work(monkeypatch, tableaux, lambda: svt_counts(lam, mu, geometry))
    assert len(work) == states


SUBWORD_SPACES = (
    [(RootSystem("A", n), d) for n in range(2, 9) for d in range(1, n)]
    + [(RootSystem(kind, r), None) for kind in "BC" for r in range(2, 6)]
    + [(RootSystem("D", r), None) for r in range(3, 7)]
)


def h_vector(m):
    """h(t) = sum_k m_k (t - 1)^k, ascending and without trailing zeros."""
    h = [sum((-1) ** (k - i) * comb(k, i) * mk for k, mk in enumerate(m)) for i in range(len(m))]
    while h and not h[-1]:
        h.pop()
    return h


def subword_identities_hold(m, lam, mu) -> bool:
    """h_0 = 1, every h_i >= 0, and deg h < |mu| - |lam| unless lam = mu."""
    h = h_vector(m)
    return (h[:1] == [1] and min(h) >= 0
            and (lam == mu or len(h) - 1 < size(mu) - size(lam)))


def test_the_m_vector_is_the_h_vector_of_a_subword_complex():
    # the Hilbert series at v is that of the Stanley-Reisner ring of the
    # subword complex of T_mu's reading word and w (Knutson-Miller), a
    # vertex-decomposable ball, or a sphere when w = v; it shares no
    # combinatorics with the count DPs
    pair = Pair.of_shapes(RootSystem("A", 6), 3, (2, 1), (3, 3, 2))
    assert pair_hilbert(pair).m == (5, 5, 1)
    assert subword_identities_hold((5, 5, 1), pair.lam, pair.mu)
    assert not subword_identities_hold((5, 5, 2), pair.lam, pair.mu)  # h_0 = 2
    pairs = 0
    for rs, d in SUBWORD_SPACES:
        reps = minimal_reps(rs, d)
        for v in reps:
            for w in reps:
                pair = Pair.of(rs, d, w, v)
                if pair.on_variety:
                    pairs += 1
                    m = pair_hilbert(pair).m
                    assert subword_identities_hold(m, pair.lam, pair.mu), (rs, w, v, m)
    assert pairs == 8799
