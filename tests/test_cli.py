import contextlib
import io
import json
import re
import time
from collections import Counter

import pytest

from schubertk import cli, diagrams, hecke, restriction, ring, shapes, tableaux, weyl
from schubertk.cli import run
from schubertk.ring import poly_from_json
from schubertk.restriction import pullback
from schubertk.shapes import perm_of, perm_of_strict
from schubertk.weyl import RootSystem, parse_window


def capture(capsys):
    out = capsys.readouterr()
    return out.out.strip()


def test_hilbert_emit_golden(capsys):
    code = run(
        "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit hilbert".split()
    )
    out = capture(capsys)
    assert code == 0
    assert "d_w = 9" in out
    assert "m = [5, 5, 1]" in out
    assert "mult = 5" in out


def test_diagram_count_golden(capsys):
    code = run(
        "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit diagrams --count-only".split()
    )
    assert code == 0
    assert capture(capsys) == "7"


def test_identity_class_is_one(capsys):
    code = run(
        "--type A --n 4 --d 2 --w 1,2,3,4 --v 1,2,3,4 --emit class".split()
    )
    assert code == 0
    assert capture(capsys) == "1"


def test_reduced_only_diagrams(capsys):
    code = run(
        "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit diagrams --count-only --reduced-only".split()
    )
    assert code == 0
    assert capture(capsys) == "4"


def test_tableaux_count(capsys):
    code = run(
        "--type D --rank 6 --lambda 3,1 --mu 5,3,2,1 --emit tableaux --count-only".split()
    )
    assert code == 0
    assert capture(capsys) == "11"


def test_mult_emit(capsys):
    code = run(
        "--type B --rank 5 --w 1,2,4,-5,-3 --v 2,-5,-4,-3,-1 --emit mult".split()
    )
    assert code == 0
    assert capture(capsys) == "5"


def test_check_mode_agrees(capsys):
    code = run(
        "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --check".split()
    )
    assert code == 0
    assert "backends agree" in capture(capsys)
    code = run(
        "--type B --rank 5 --w 1,2,4,-5,-3 --v 2,-5,-4,-3,-1 --check".split()
    )
    out = capture(capsys)
    assert code == 0
    assert "4 backends agree" in out


def test_check_agrees_on_a_large_eyd_class(capsys):
    # 2,105 diagrams; the eyd sum reads about 1.3 * 10^5 entries
    code = run("--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 --check".split())
    assert code == 0
    assert capture(capsys) == "3 backends agree: eyd, svt, hecke"


@pytest.mark.parametrize("backend", restriction.BACKENDS)
def test_every_class_engine_stops_at_the_budget(backend, capsys, monkeypatch):
    # lambda (3,2,1): every engine's budget lies above the 125 coordinates of C5's roots
    pair = "--type C --rank 5 --lambda 3,2,1 --mu 5,4,3,1"
    rs = RootSystem("C", 5)
    w, v = perm_of_strict((3, 2, 1), rs), perm_of_strict((5, 4, 3, 1), rs)
    counts = []

    def recorded(work, *args):
        counts.append(work)
        return ring.check_work(work, *args)

    for module in (restriction, tableaux, hecke):
        monkeypatch.setattr(module, "check_work", recorded)
    expect = pullback(rs, None, w, v, backend="svt" if backend == "hecke" else "hecke")
    counts.clear()
    pullback(rs, None, w, v, backend=backend)
    need = max(counts)  # the work done before the engine's last call
    monkeypatch.setattr(ring, "MAX_EXPANSION", need)
    assert pullback(rs, None, w, v, backend=backend) == expect
    monkeypatch.setattr(ring, "MAX_EXPANSION", need - 1)
    with pytest.raises(ValueError, match=f"{need} entries read.*--format latex"):
        pullback(rs, None, w, v, backend=backend)
    assert run(f"{pair} --check".split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "--format latex" in out.err


@pytest.mark.parametrize("emit, remedy", [
    ("mult", ""), ("hilbert", ""), ("tableaux --count-only", ""),
    ("tableaux", ""), ("tableaux --format json", ""), ("class --format latex --backend svt", ""),
    ("diagrams", ""), ("diagrams --format json", ""), ("class --format latex --backend eyd", ""),
    ("class --format latex --backend hecke", "; drop --format latex for the expanded class"),
    ("character --trunc 4", "; lower the truncation degree"),
])
def test_a_refusal_names_only_a_remedy_that_applies(emit, remedy, capsys, monkeypatch):
    # a count or a listing names none, and the factored class does not name itself;
    # the hecke listing's count reads 138 entries, under C6's 216 root coordinates
    # that any budget must pass, so its subword count (1137) is what is refused
    monkeypatch.setattr(ring, "MAX_EXPANSION", 250)
    assert run(f"--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2,1 --emit {emit}".split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    what = "subwords fold to w" if "hecke" in emit else "entries read"
    assert re.fullmatch(rf"error: \d+ {what}, more than 250{remedy}\n", out.err)


def test_a_listing_is_refused_before_one_box_writes_past_the_budget(capsys):
    # the one box of lam = (1) takes any nonempty subset of {1..24}
    mu = ",".join(["24"] * 24)
    assert run(f"--type A --n 48 --d 24 --lambda 1 --mu {mu} --emit tableaux".split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 16777215 entries read, more than 10000000\n"


def test_a_character_is_not_refused_for_the_size_of_its_whole_class(capsys, monkeypatch):
    # the numerator is truncated at N in the fold DP, so only its slices
    # count: 135 entries read for N = 1, against 2437 for the svt class
    monkeypatch.setattr(ring, "MAX_EXPANSION", 1000)
    pair = "--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2,1"
    assert run(f"{pair} --emit class --backend svt".split()) == 2
    assert "--format latex" in capsys.readouterr().err
    assert run(f"{pair} --emit character --trunc 1".split()) == 0
    lines = capture(capsys).splitlines()
    assert lines[1] == "degree 0: dim = 1; 1" and lines[2].startswith("degree 1: dim = 21; ")


def test_a_character_past_the_packing_range_is_refused_before_the_dp(capsys, monkeypatch):
    def unexpected(*args):
        raise AssertionError("fold_dp ran")

    monkeypatch.setattr(hecke, "fold_dp", unexpected)
    argv = "--type C --rank 4 --lambda 2,1 --mu 4,3,2,1 --emit character --trunc 40000"
    assert run(argv.split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: exponent coordinates up to 80005 exceed the packing range "
                       "+-32767; lower the truncation degree\n")


@pytest.mark.parametrize("pair", [
    "--type A --n 7 --d 3 --lambda 2,1 --mu 4,3,1",
    "--type C --rank 4 --lambda 2,1 --mu 4,3,2",
    "--type B --rank 4 --lambda 2,1 --mu 4,3,2",
], ids=["A", "C", "B"])
def test_the_sign_and_d_w_are_read_off_lambda_without_a_reduced_word(pair, capsys, monkeypatch):
    # l(w) = |lam| for a minimal representative w
    emits = ["--backend eyd", "--backend svt", "--backend hecke", "--emit hilbert",
             "--emit character --trunc 2", "--backend eyd --format latex",
             "--backend svt --format latex", "--backend hecke --format latex"]
    expect = []
    for emit in emits:
        assert run(f"{pair} {emit}".split()) == 0
        expect.append(capture(capsys))

    def unexpected(w):
        raise AssertionError("reduced_word ran")

    monkeypatch.setattr(weyl, "reduced_word", unexpected)
    for emit, out in zip(emits, expect):
        assert run(f"{pair} {emit}".split()) == 0
        assert capture(capsys) == out, emit


def test_rank_past_the_budget_exits_2_with_one_line(capsys):
    # A272 has 272 * 36856 root coordinates, more than 10^7
    assert run("--type A --n 272 --d 1 --lambda 1 --mu 1 --emit mult".split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: 10024832 coordinates in the positive roots of A272, "
        "more than 10000000; lower the rank\n"
    )


def test_type_b_lift_past_the_budget_names_the_given_rank(capsys):
    # B215 passes the bound, but its Hilbert data lift to D216, which does not
    assert run("--type B --n 215 --lambda 1 --mu 1 --emit mult".split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: B215")
    assert "through D216" in out.err


def test_check_agrees_on_a_26_letter_hecke_word(capsys):
    code = run("--type A --n 12 --d 6 --lambda 4,3,2,1 --mu 6,6,5,4,3,2 --check".split())
    assert code == 0
    assert capture(capsys) == "3 backends agree: eyd, svt, hecke"


def test_cap_option_is_gone(capsys):
    assert run("--type A --n 7 --d 3 --lambda 1 --mu 2,1 --cap 24".split()) == 2
    assert "unrecognized arguments: --cap 24" in capsys.readouterr().err


def test_check_mode_reports_injected_corruption(capsys, monkeypatch):
    real = restriction.pair_class

    def corrupted(pair, backend="eyd"):
        cls = real(pair, backend)
        if backend == "svt":
            from schubertk.ring import LaurentPoly

            bad = cls.value + LaurentPoly.monomial((1,) * pair.rstype.rank)
            return restriction.KClass(pair.rstype, cls.d, bad, cls.on_variety)
        return cls

    monkeypatch.setattr(restriction, "pair_class", corrupted)
    code = run(
        "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --check".split()
    )
    assert code == 1
    assert "mismatch" in capture(capsys)


def test_json_class_roundtrip_and_determinism(capsys):
    argv = "--type C --rank 4 --w 1,2,-4,-3 --v 2,-4,-3,-1 --emit class --format json".split()
    assert run(argv) == 0
    first = capture(capsys)
    doc = json.loads(first)
    assert doc["status"] == "on-variety"
    assert doc["lambda"] == [2, 1] and doc["mu"] == [4, 2, 1]
    rs = RootSystem("C", 4)
    w = parse_window(rs, "1,2,-4,-3")
    v = parse_window(rs, "2,-4,-3,-1")
    assert poly_from_json(doc["class"], 4) == pullback(rs, None, w, v).value
    assert run(argv) == 0
    assert capture(capsys) == first


def test_json_monomials_sorted(capsys):
    argv = "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit class --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    exps = [tuple(m["exp"]) for m in doc["class"]["monomials"]]
    assert exps == sorted(exps)


def test_json_hilbert_document(capsys):
    argv = "--type D --rank 6 --w 1,2,4,6,-5,-3 --v 2,6,-5,-4,-3,-1 --emit hilbert --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    assert doc["hilbert"] == {"d_w": 11, "m": [5, 5, 1]}
    assert doc["multiplicity"] == 5


def test_json_diagram_roundtrip(capsys):
    from oracles import boxset_from_json
    from schubertk.diagrams import enumerate_eyd

    argv = "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit diagrams --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    got = {boxset_from_json(b, "shiftedBC").boxes for b in doc["diagrams"]}
    assert got == {C.boxes for C in enumerate_eyd((2, 1), (4, 2, 1), "shiftedBC")}


def test_hilbert_poly_emit(capsys):
    argv = "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit hilbert-poly".split()
    assert run(argv) == 0
    out = capture(capsys)
    assert "h(n) = 5*binom(n+8,8) - 5*binom(n+7,7) + 1*binom(n+6,6)" in out
    assert "coefficients" in out


def test_json_tableaux_roundtrip(capsys):
    from oracles import svt_from_json
    from schubertk.tableaux import enumerate_svt

    argv = "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit tableaux --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    got = {svt_from_json(b, "shiftedBC", (4, 2, 1)) for b in doc["tableaux"]}
    assert got == set(enumerate_svt((2, 1), (4, 2, 1), "shiftedBC"))


def test_json_hilbert_roundtrip(capsys):
    from schubertk.restriction import HilbertData, hilbert_data
    from schubertk.weyl import RootSystem, parse_window

    argv = "--type C --rank 4 --w 1,2,-4,-3 --v 2,-4,-3,-1 --emit hilbert --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    parsed = HilbertData(doc["hilbert"]["d_w"], tuple(doc["hilbert"]["m"]))
    rs = RootSystem("C", 4)
    direct = hilbert_data(rs, None, parse_window(rs, "1,2,-4,-3"), parse_window(rs, "2,-4,-3,-1"))
    assert parsed == direct


def test_latex_diagrams_emit(capsys):
    argv = "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit diagrams --format latex".split()
    assert run(argv) == 0
    out = capture(capsys)
    assert out.count(r"\begin{tikzpicture}") == 7


def test_latex_class_is_factored(capsys):
    argv = "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit class --format latex".split()
    assert run(argv) == 0
    out = capture(capsys)
    assert out.startswith("-")
    assert r"\left(e^{\epsilon_7-\epsilon_1}-1\right)" in out
    assert out.count(r"\left(") == 40  # 11 terms: 5*3 + 5*4 + 1*5 factors


@pytest.mark.parametrize("emit", ["hilbert", "hilbert-poly", "mult", "tableaux", "character"])
def test_latex_format_prints_the_text_form_outside_class_and_diagrams(capsys, emit):
    argv = f"--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit {emit}".split()
    assert run(argv) == 0
    text = capture(capsys)
    assert run(argv + ["--format", "latex"]) == 0
    assert capture(capsys) == text


def test_character_emit(capsys):
    argv = "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit character --trunc 2".split()
    assert run(argv) == 0
    out = capture(capsys)
    assert "degree 0: dim = 1" in out
    assert "degree 1: dim = 12" in out
    assert "degree 2: dim = 73" in out


def test_character_json(capsys):
    argv = "--type A --n 4 --d 2 --w 1,2,3,4 --v 1,2,3,4 --emit character --trunc 2 --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    assert doc["character"]["trunc"] == 2
    assert doc["character"]["dims"] == [1, 4, 10]
    slice1 = poly_from_json(doc["character"]["slices"][1], 4)
    assert slice1.coefficient_sum() == 4


def test_character_type_b_goes_through_d(capsys):
    argv = "--type B --rank 5 --w 1,2,4,-5,-3 --v 2,-5,-4,-3,-1 --emit character --trunc 1".split()
    assert run(argv) == 0
    out = capture(capsys)
    assert "through D_6" in out
    assert "degree 1: dim = 14" in out


def test_off_variety_status(capsys):
    argv = "--type A --n 4 --d 2 --w 2,3,1,4 --v 1,3,2,4 --emit class --format json".split()
    assert run(argv) == 0
    doc = json.loads(capture(capsys))
    assert doc["status"] == "off-variety"
    assert doc["class"]["monomials"] == []


def test_json_class_and_character_are_the_dumped_documents(capsys):
    # the CLI writes the polynomials' JSON text itself; it must be the
    # document json.dumps(..., sort_keys=True) builds from poly_to_json
    off = "--type A --n 4 --d 2 --w 2,3,1,4 --v 1,3,2,4 --emit class --format json"
    assert run(off.split()) == 0
    assert json.loads(capsys.readouterr().out) == {
        "class": {"monomials": []}, "d": 2, "lambda": [1, 1], "mu": [1], "rank": 4,
        "status": "off-variety", "type": "A", "v": [1, 3, 2, 4], "w": [2, 3, 1, 4],
    }
    argv = "--type B --rank 5 --w 1,2,4,-5,-3 --v 2,-5,-4,-3,-1 --emit character --trunc 2".split()
    pair = cli._resolve_inputs(cli.parse_args(argv))
    series = restriction.pair_character(pair, 2)
    doc = dict(cli._base_doc(pair), character={
        "trunc": 2, "dims": series.dims(), "slices": [ring.poly_to_json(s) for s in series.slices]})
    assert run(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == doc
    assert out == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("pair", [
    "--type A --n 4 --d 2 --lambda 2 --mu 1",
    "--type B --n 3 --lambda 2 --mu 1",
    "--type C --n 3 --lambda 2 --mu 1",
    "--type D --n 4 --lambda 2 --mu 1",
], ids=["A", "B", "C", "D"])
def test_off_variety_listings_are_empty(pair, capsys):
    for emit in ("diagrams", "tableaux"):
        for variant in ("", " --reduced-only"):
            for fmt in ("text", "json", "latex"):
                argv = f"{pair} --emit {emit} --format {fmt}{variant}".split()
                assert run(argv) == 0
                out = capsys.readouterr()
                assert out.err == ""
                if fmt == "json":
                    doc = json.loads(out.out)
                    assert doc["status"] == "off-variety" and doc[emit] == []
                else:
                    assert out.out == ""
                assert run(argv + ["--count-only"]) == 0
                assert capsys.readouterr() == ("0\n", "")


@pytest.mark.parametrize("emit,fmt", [("diagrams", "text"), ("diagrams", "latex"),
                                     ("tableaux", "text")])
def test_a_listing_is_its_lines_one_per_item(emit, fmt, capsys):
    # the emit hands run the lines lazily, one per listed item, never joined
    argv = f"--type C --n 4 --lambda 2,1 --mu 4,3,1 --emit {emit} --format {fmt}".split()
    args = cli.parse_args(argv)
    lines = cli._emit(args, cli._resolve_inputs(args))
    assert not isinstance(lines, (list, tuple, str))
    lines = list(lines)
    assert len(lines) == 7 and run(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        "--type A --n 7 --d 3 --w 1,3,5,x --v 4,6,7,1,2,3,5",
        "--type A --n 7 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5",  # missing d
        "--type C --rank 4 --w 1,2,-4,-3 --lambda 2,1",  # mixed styles
        "--type C --rank 4 --w 1,2,-4,-3",  # missing v
        "--type C --rank 4 --d 2 --w 1,2,-4,-3 --v 2,-4,-3,-1",  # stray d
        "--type Z --rank 4 --w 1,2 --v 2,1",
        "--type A --n 3 --d 1 --w 2,1,3 --v 3,1,2 --emit nosuch",
        "--type C --rank 4 --lambda 5,1 --mu 4,2,1",  # lambda does not fit
        "--type D --rank 4 --lambda 2,2 --mu 3,2,1",  # not strict
        "--type A --n 7 --d 9 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5",
    ],
)
def test_invalid_inputs_exit_2(argv, capsys):
    assert run(argv.split()) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, good, bad", [
    ("--type A --n 7 --d 3", "1,3,5,2,4,6,7", "2,1,3,4,5,6,7"),
    ("--type B --rank 5", "1,2,4,-5,-3", "2,1,3,4,5"),
    ("--type C --rank 4", "1,2,-4,-3", "2,1,3,4"),
    ("--type D --rank 6", "1,2,4,6,-5,-3", "2,1,3,4,5,6"),
], ids=["A", "B", "C", "D"])
def test_non_minimal_windows_exit_2_with_one_line(argv, good, bad, capsys):
    # the refusal names the parabolic: P_d in type A, P_n in B/C/D
    _, kind, _, rank, *rest = argv.split()
    index = rest[1] if rest else rank
    for w, v in ((bad, good), (good, bad)):
        assert run(argv.split() + ["--w", w, "--v", v]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: WeylElement({kind}{rank}: {bad}) is not minimal in W^P_{index}\n"


# (root system, d, a shape that indexes no element, the refusal of perm_of,
# perm_of_strict and Pair.of_shapes, the refusal of the CLI); parse_shape
# refuses a shape that is not a partition before any element is built
BAD_SHAPES = [
    ("A", 6, 3, (1, 2), "(1, 2) is not a partition", "(1, 2) is not weakly decreasing"),
    ("A", 6, 3, (-1,), "(-1,) is not a partition", "part -1 of (-1,) is negative"),
    ("A", 6, 3, (2, 2, -3), "(2, 2, -3) is not a partition", "part -3 of (2, 2, -3) is negative"),
    ("A", 6, 3, (4,), "(4,) does not fit in a 3x3 box", None),
    ("A", 6, 3, (1, 1, 1, 1), "(1, 1, 1, 1) does not fit in a 3x3 box", None),
    ("B", 4, None, (3, 3), "(3, 3) is not a strict partition", None),
    ("B", 4, None, (5, 1), "(5, 1) does not fit: largest part exceeds 4", None),
    ("C", 4, None, (2, 1, 1), "(2, 1, 1) is not a strict partition", None),
    ("C", 4, None, (5,), "(5,) does not fit: largest part exceeds 4", None),
    ("D", 5, None, (2, 2), "(2, 2) is not a strict partition", None),
    ("D", 5, None, (5, 2), "(5, 2) does not fit: largest part exceeds 4", None),
]


@pytest.mark.parametrize("kind, rank, d, bad, text, cli_text", BAD_SHAPES)
def test_a_bad_shape_is_refused_with_one_text(kind, rank, d, bad, text, cli_text, capsys):
    rs = RootSystem(kind, rank)
    with pytest.raises(ValueError) as built:
        perm_of(bad, d, rank) if kind == "A" else perm_of_strict(bad, rs)
    assert str(built.value) == text
    for lam, mu in ((bad, ()), ((), bad)):
        with pytest.raises(ValueError) as paired:
            restriction.Pair.of_shapes(rs, d, lam, mu)
        assert str(paired.value) == text
        argv = f"--type {kind} --rank {rank}" + (f" --d {d}" if d else "")
        shapes = ["--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu))]
        assert run(argv.split() + shapes) == 2
        assert capsys.readouterr() == ("", f"error: {cli_text or text}\n")


def test_window_and_shape_inputs_agree(capsys):
    a = "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit mult".split()
    b = "--type A --n 7 --d 3 --lambda 2,1 --mu 4,4,3 --emit mult".split()
    assert run(a) == 0
    first = capture(capsys)
    assert run(b) == 0
    assert capture(capsys) == first


@pytest.mark.parametrize(
    "w, v, mult",
    [("1,2,-4,-3", "-4,-3,-2,-1", "10"), ("-4,-3,-2,-1", "-4,-3,-2,-1", "1")],
)
def test_window_with_barred_first_entry_as_separate_token(w, v, mult, capsys):
    base = "--type C --rank 4 --emit mult".split()
    assert run(base + ["--w", w, "--v", v]) == 0
    assert capture(capsys) == mult
    assert run(base + [f"--w={w}", f"--v={v}"]) == 0
    assert capture(capsys) == mult


def test_exponent_outside_packing_range_exits_2(capsys):
    argv = "--type C --rank 4 --w 1,2,-4,-3 --v 2,-4,-3,-1 --emit character --trunc 20000"
    assert run(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "packing range" in err


def test_latex_class_of_a_long_hecke_word(capsys):
    # a 25-letter word for v and w = id: one subword, the empty one
    argv = "--type A --n 12 --d 6 --lambda= --mu 6,6,6,6,1 --backend hecke".split()
    assert run(argv) == 0
    assert capture(capsys) == "1"
    assert run(argv + ["--format", "latex"]) == 0
    assert capture(capsys) == "1"


@pytest.mark.parametrize("backend", ["eyd", "svt", "hecke"])
def test_one_term_class_of_a_30_box_shape_prints_at_once(backend, capsys):
    # lam = mu = (6^5): one term with 30 factors, while the eyd expansion
    # would write 2^30 monomials
    argv = "--type A --n 12 --d 6 --lambda 6,6,6,6,6 --mu 6,6,6,6,6 --format latex"
    start = time.perf_counter()
    assert run(argv.split() + ["--backend", backend]) == 0
    assert time.perf_counter() - start < 0.1
    out = capture(capsys)
    factors = out.split(r"\right)")
    assert factors[-1] == "" and len(factors) == 31
    want = sorted(
        rf"\left(e^{{\epsilon_{a}-\epsilon_{b}}}-1" for a in range(8, 13) for b in range(2, 8)
    )
    assert sorted(factors[:-1]) == want


# the engines the CLI calls; the ids name the public functions they serve
@pytest.mark.parametrize(
    "target, emit", [("pair_hilbert", "hilbert-poly"), ("pair_character", "character")],
    ids=["hilbert_data-hilbert-poly", "graded_character-character"],
)
def test_internal_check_failure_exits_2_with_one_line(target, emit, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("xi pairing failed: (1, 0, 0, 0)(xi) = 0")

    monkeypatch.setattr(restriction, target, fail)
    argv = "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit".split()
    assert run(argv + [emit]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: xi pairing failed")
    assert "Traceback" not in out.err


def test_character_truncation_is_bounded_before_the_work(capsys):
    argv = "--type A --n 4 --d 2 --lambda 1 --mu 2,1 --emit character --trunc 400"
    start = time.perf_counter()
    assert run(argv.split()) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "truncation degree" in out.err


def test_reused_parser_leaks_no_state(capsys):
    pair = "--type C --rank 4 --lambda 2,1 --mu 4,2,1"
    queries = [
        f"{pair} --emit diagrams --count-only --reduced-only",
        "--type Z --rank 4 --w 1,2 --v 2,1",
        "--help",
        f"{pair} --emit class",
        # a leaked --count-only or --reduced-only would change this listing
        f"{pair} --emit diagrams",
    ]

    def outputs(order):
        return {q: (run(q.split()), capsys.readouterr()) for q in order}

    forward = outputs(queries)
    assert [forward[q][0] for q in queries] == [0, 2, 0, 0, 0]
    assert outputs(queries[::-1]) == forward


@pytest.mark.parametrize("d", [-1, 0, 4])
def test_type_a_d_out_of_range_is_refused_before_any_element(d, capsys):
    expect = f"error: type A needs 1 <= d <= 3, got {d}\n"
    for inputs in ("--lambda 1 --mu 2", "--w 1,3,2,4 --v 3,1,2,4"):
        assert run(f"--type A --n 4 --d {d} {inputs}".split()) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == expect


INPUT_BUILDERS = ("parse_window", "parse_shape", "rep_of", "shape_of")


def _calls_per_query(monkeypatch, argv):
    """How often one CLI query calls reflection_tableau, r_values,
    is_minimal_rep, format_weight and the INPUT_BUILDERS, through whichever
    module binds them, and checks a window ("validate", `WeylElement.__init__`)."""
    calls = Counter()

    def counted(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in ("reflection_tableau", "r_values", "is_minimal_rep", "format_weight", *INPUT_BUILDERS):
        for module in (cli, restriction, shapes, diagrams):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(weyl.WeylElement, "__init__", counted("validate", weyl.WeylElement.__init__))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv.split()) == 0
    return calls


def _validation(calls):
    """(window checks, shape_of calls, is_minimal_rep calls) of one query."""
    return calls["validate"], calls["shape_of"], calls["is_minimal_rep"]


@pytest.mark.parametrize("query, tableaux, r_values", [
    ("--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2", 1, 2),
    # the lifted class builds T_mu again, in D6
    ("--type B --rank 5 --lambda 3,1 --mu 5,4,3,1", 2, 3),
], ids=["C6", "B5"])
def test_a_check_validates_once_and_builds_t_mu_once_per_root_system(
        query, tableaux, r_values, monkeypatch):
    # shapes are checked once, by rep_of, and their windows never
    calls = _calls_per_query(monkeypatch, f"{query} --check")
    assert _validation(calls) == (0, 0, 0)
    assert calls["reflection_tableau"] == tableaux
    assert calls["r_values"] <= r_values


@pytest.mark.parametrize("query, checks", [
    ("--type A --n 7 --d 3 --lambda 2,1 --mu 3,3,1", 0),
    ("--type B --rank 4 --w 1,3,-4,-2 --v 2,-4,-3,-1", 2),
    ("--type A --n 7 --d 3 --w 1,2,5,3,4,6,7 --v 3,4,6,1,2,5,7", 2),
    ("--type B --rank 4 --lambda 2 --mu 4,3,1", 0),
], ids=["A", "B", "A-windows", "B-shapes"])
@pytest.mark.parametrize("emit", [
    *(f"class --backend {backend}" for backend in restriction.BACKENDS),
    "class --format latex --backend eyd", "hilbert", "hilbert-poly", "mult", "diagrams",
    "tableaux --count-only", "character",
])
def test_every_emit_validates_its_pair_once(query, checks, emit, monkeypatch):
    # a window is checked, read and tested for minimality once, by
    # parse_window and shape_of in Pair._side; a shape query builds its
    # windows unchecked
    calls = _calls_per_query(monkeypatch, f"{query} --emit {emit}")
    assert _validation(calls) == (checks,) * 3


@pytest.mark.parametrize("query", [
    "--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2 --emit character",
    "--type B --rank 5 --lambda 3,1 --mu 5,4,3,1 --emit character",
    "--type B --rank 5 --lambda 3,1 --mu 5,4,3,1 --emit hilbert",
], ids=["C6-character", "B5-character", "B5-hilbert"])
def test_minimality_is_checked_once_per_element(query, monkeypatch):
    # rep_of builds minimal windows, and neither the tangent weights nor the
    # D_{n+1} lift checks them
    assert _validation(_calls_per_query(monkeypatch, query)) == (0, 0, 0)


def test_latex_formats_each_factor_once(monkeypatch):
    # 1,160 factors printed, 15 distinct exponents at most (|mu| = 15)
    query = "--type C --rank 5 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --format latex"
    assert _calls_per_query(monkeypatch, f"{query} --backend hecke")["format_weight"] <= 15


@pytest.mark.parametrize("query", [
    "--type A --n 7 --d 3 --w 1,3,5,2,4,6,7 --v 4,6,7,1,2,3,5 --emit class",
    "--type C --rank 4 --lambda 2,1 --mu 4,2,1 --emit hilbert",
    # both lift the pair to D5 through the same cache
    "--type B --rank 4 --lambda 2 --mu 4,3,1 --emit character --trunc 2",
    "--type B --rank 4 --w 1,3,-4,-2 --v 2,-4,-3,-1 --emit mult",
], ids=["windows", "shapes", "B-shapes-lift", "B-windows-lift"])
def test_a_repeated_query_builds_none_of_its_inputs(query, monkeypatch, capsys):
    assert run(query.split()) == 0
    first = capsys.readouterr()
    assert restriction._element.cache_info().currsize == (4 if "B" in query else 2)
    calls = _calls_per_query(monkeypatch, query)
    assert [calls[name] for name in ("validate", *INPUT_BUILDERS)] == [0] * 5
    assert run(query.split()) == 0
    assert capsys.readouterr() == first


@pytest.mark.parametrize("query, error, kept", [
    ("--type A --n 7 --d 3 --w 1,3,5,x --v 4,6,7,1,2,3,5", "malformed window '1,3,5,x'", 0),
    ("--type C --rank 4 --w 2,1,3,4 --v 2,-4,-3,-1",
     "WeylElement(C4: 2,1,3,4) is not minimal in W^P_4", 0),
    ("--type A --n 6 --d 3 --lambda 4 --mu 3,3", "(4,) does not fit in a 3x3 box", 0),
    # the good side is kept, the refused one never
    ("--type C --rank 4 --w 1,2,-4,-3 --v 2,1,3,4",
     "WeylElement(C4: 2,1,3,4) is not minimal in W^P_4", 1),
    # both texts are parsed before either element is checked
    ("--type A --n 7 --d 3 --w 2,1,3,4,5,6,7 --v 1,x", "malformed window '1,x'", 0),
    ("--type A --n 6 --d 3 --lambda 4 --mu x", "malformed shape 'x'", 0),
], ids=["malformed", "non-minimal", "outside-box", "second-side", "parse-first",
        "parse-first-shape"])
def test_a_refused_input_is_refused_alike_and_never_cached(query, error, kept, capsys):
    for _ in range(3):
        assert run(query.split()) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert restriction._element.cache_info().currsize == kept
