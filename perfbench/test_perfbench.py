"""Smoke tests of the benchmark on reduced query lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# the cheapest queries of each ladder; the sweep keeps one query per combination
SMOKE = {
    "class-ladder": {"B5-eyd", "B5-via-D6"},
    "oracle": {"C6-hecke", "B5-check"},
    "counts": {"A12-tableaux-count-reduced", "D7-hilbert", "B6-hilbert"},
}
EXACT_COUNTS = (
    "ring.mul.pairs", "ring.result_terms", "ring.peak_terms", "restriction.pre_merge_terms",
    "diagrams.enum.count", "tableaux.enum.count", "hecke.subseq.count",
)


def reduced(workload):
    if workload == "sweep":
        return lambda queries: queries[:63]
    return lambda queries: [q for q in queries if q.qid in SMOKE[workload]]


def run_reduced(workload, trace, capsys):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, queries=reduced(workload))
    run.report(result, workload)
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed_and_nothing_fails(workload, capsys):
    lines, last = run_reduced(workload, False, capsys)
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert any(line.strip().startswith("fail_ratio = 0.0 ") for line in lines)
    for name, unit in END_TO_END.items():
        assert any(line.strip().startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines)


def test_traced_run_reports_every_layer_and_repeats_its_counts(capsys):
    _, first = run_reduced("sweep", True, capsys)
    _, second = run_reduced("sweep", True, capsys)
    for last in (first, second):
        assert last["correct"] is True
        assert {k: v["unit"] for k, v in last["metrics"].items()} == PER_LAYER
    for name in EXACT_COUNTS + ("ring.mul.calls", "weyl.calls", "cli.out_bytes"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["ring.mul.pairs"]["value"] > 0


def test_wrappers_are_removed_after_the_traced_pass():
    lib = run.import_library()
    tracer = run.tracing.Tracer(lib)
    originals = (lib.restriction.enumerate_eyd, lib.diagrams.enumerate_eyd, lib.ring.LaurentPoly.__mul__)
    tracer.install()
    assert lib.restriction.enumerate_eyd is lib.diagrams.enumerate_eyd is not originals[0]
    assert lib.ring.LaurentPoly.__mul__ is not originals[2]
    assert tracer.uninstall() == []
    assert (lib.restriction.enumerate_eyd, lib.diagrams.enumerate_eyd, lib.ring.LaurentPoly.__mul__) == originals


def test_self_time_excludes_children():
    lib = run.import_library()
    rs = lib.weyl.RootSystem("C", 4)
    w, v = lib.weyl.parse_window(rs, "1,2,-4,-3"), lib.weyl.parse_window(rs, "2,-4,-3,-1")
    terms = len(lib.restriction.pullback(rs, None, w, v).value.terms)
    tracer = run.tracing.Tracer(lib)
    tracer.install()
    try:
        tracer.run_query(0, lambda: lib.restriction.pullback(rs, None, w, v))
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    total = (tracer.end[0] - tracer.start[0]) / 1e9
    owned = sum(layers[f"{layer}.self_s"][0] for layer in run.tracing.LAYERS if f"{layer}.self_s" in layers)
    assert 0 < owned <= total
    assert 0 < layers["ring.mul.self_s"][0] <= layers["ring.self_s"][0]
    assert layers["ring.result_terms"][0] == terms
    assert layers["diagrams.enum.calls"][0] == 1


def test_a_wrong_ladder_output_counts_as_failed():
    lib = run.import_library()
    queries = [q for q in workloads.build(lib, "class-ladder", 0) if q.qid in SMOKE["class-ladder"]]
    runner = run.Runner(queries, {q.qid: "0" * 64 for q in queries})
    runner.run_pass()
    assert runner.failed == len(queries) == runner.attempted


def test_a_wrong_sweep_output_fails_its_check():
    lib = run.import_library()
    shift = str.maketrans("0123456789", "1234567890")
    for q in workloads.build(lib, "sweep", 5)[:63]:
        code, out = q.run()
        assert code == 0 and q.check(out) is None, q.qid
        wrong = out.translate(shift)
        if wrong != out:
            assert q.check(wrong) is not None, q.qid


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counts", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
