"""Every public top-level function or class of schubertk is called in the
package, exported in ``__all__`` or named by the benchmark, and every cache
is bounded; the references only the tests use live in ``tests/oracles.py``."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import schubertk

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_definition_has_a_caller():
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "schubertk").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # recursion is no caller
                if not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            used |= names
    bench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    orphans = [
        qual for qual in defined
        if (name := qual.split(".")[1]) not in used | set(schubertk.__all__)
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert orphans == []


def test_all_names_resolve_and_match_the_readme():
    assert all(hasattr(schubertk, name) for name in schubertk.__all__)
    library = (ROOT / "README.md").read_text().split("## Library")[1].split("\n## ")[0]
    listed = re.search(r"Public names[^:]*:(.*?)\n\n", library, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(schubertk.__all__)


def test_only_ring_names_the_work_budget():
    naming = [
        path.name for path in sorted((ROOT / "src" / "schubertk").glob("*.py"))
        if re.search(r"\bMAX_EXPANSION\b", path.read_text())
    ]
    assert naming == ["ring.py"]


def test_only_the_pair_validates_a_query():
    # a CLI query becomes a Pair in one call, Pair.of_text for windows and
    # shapes alike; only Pair (Pair.of and the builder of its input cache)
    # reads a shape off a window
    source = ROOT / "src" / "schubertk"
    cli = (source / "cli.py").read_text()
    assert not re.search(r"\b(perm_of|perm_of_strict|shape_of|contains)\b", cli)
    tree = ast.parse((source / "restriction.py").read_text())
    callers = [
        node.name for node in tree.body
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "shape_of"
               for n in ast.walk(node))
    ]
    assert callers == ["Pair"]


def test_only_the_window_primitives_decide_an_ascent():
    # a later encoding of the group replaces the window helpers, not these
    tree = ast.parse((ROOT / "src" / "schubertk" / "weyl.py").read_text())
    banned = {"apply", "mult", "simple_roots", "is_positive_root_vector", "full_window"}
    called = {
        node.name: {getattr(n.func, "id", None) for n in ast.walk(node) if isinstance(n, ast.Call)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    primitives = {"window_right_ascent", "window_right_mult", "window_levi_ascent"}
    for name in ("reduced_word", "is_minimal_rep", "simple_reflection"):
        assert called[name] & primitives, name
        assert not called[name] & banned, name


def test_restriction_reads_no_window_entry():
    # a window in restriction is only handed to a weyl function, so no
    # subscript, iteration or zip there depends on the signed-window encoding
    tree = ast.parse((ROOT / "src" / "schubertk" / "restriction.py").read_text())
    weyl = {a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "weyl" for a in node.names}
    passed = {id(arg) for n in ast.walk(tree)
              if isinstance(n, ast.Call) and getattr(n.func, "id", None) in weyl for arg in n.args}
    reads = [
        ast.unparse(n) for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == "win" and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute) and n.attr == "window")
        and id(n) not in passed
    ]
    assert reads == []


def test_no_function_calls_itself():
    # every engine walks its diagram, tableau or word on an explicit stack or
    # a loop: a class can have as many bits as D_mu has boxes, and the rank
    # bound admits thousands, past any recursion limit
    recursive = []
    for path in sorted((ROOT / "src" / "schubertk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Call) and (
                        getattr(n.func, "id", None) == node.name
                        or getattr(n.func, "attr", None) == node.name
                        and getattr(n.func.value, "id", None) in ("self", "cls"))
                    for n in ast.walk(node)):
                recursive.append(f"{path.stem}.{node.name}")
    assert recursive == []


def test_only_the_eyd_listing_builds_unchecked_box_sets():
    # BoxSet._from_row skips the ambient check, which only the BFS of
    # enumerate_eyd makes true by construction
    callers = [
        (path.stem, node.name)
        for path in sorted((ROOT / "src" / "schubertk").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if any(isinstance(n, ast.Attribute) and n.attr == "_from_row" for n in ast.walk(node))
    ]
    assert callers == [("diagrams", "enumerate_eyd")]


def test_only_the_shape_builder_skips_the_window_checks():
    # WeylElement._from_window skips the checks of __init__, which only
    # shapes.rep_of makes true by construction
    callers = [
        (path.stem, node.name)
        for path in sorted((ROOT / "src" / "schubertk").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if any(isinstance(n, ast.Attribute) and n.attr == "_from_window" for n in ast.walk(node))
    ]
    assert callers == [("shapes", "rep_of")]


def test_only_the_pair_character_expands_a_character():
    # one character path: xi is graded in integers on the Pair, and the
    # Fraction-graded expander lives with the test oracles
    callers = [
        (path.stem, node.name)
        for path in sorted((ROOT / "src" / "schubertk").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if any(isinstance(n, ast.Call) and "expand_graded" in (
                   getattr(n.func, "id", None), getattr(n.func, "attr", None))
               for n in ast.walk(node))
    ]
    assert callers == [("restriction", "pair_character")]


def test_only_run_and_main_write_the_cli_output():
    # every emit returns its lines, and --check its lines and exit code, so
    # a query's output is a value: run alone prints it, and main flushes it
    tree = ast.parse((ROOT / "src" / "schubertk" / "cli.py").read_text())
    writers = {
        getattr(node, "name", "<module>") for node in tree.body
        if any(isinstance(n, ast.Name) and n.id == "print"
               or isinstance(n, ast.Attribute) and n.attr == "stdout" for n in ast.walk(node))
    }
    assert writers == {"run", "main"}


def test_no_module_imports_a_private_name_of_another():
    # each module reaches another through its public entry points, and a
    # sibling module bound by `from . import m` is read the same way
    private = []
    for path in sorted((ROOT / "src" / "schubertk").glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "schubertk"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        private.append(f"{path.stem}: {alias.name}")
                    if node.module in (None, "schubertk"):  # a module, read below
                        siblings.add(alias.asname or alias.name)
        private += [
            f"{path.stem}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in siblings and n.attr.startswith("_")
        ]
    assert private == []


def test_every_cache_is_bounded():
    # a cache that grows with every query leaks in long-running library use
    cached = {}
    for path in sorted((ROOT / "src" / "schubertk").glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"schubertk.{path.stem}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                cached[f"{path.stem}.{name}"] = obj.cache_parameters()["maxsize"]
    assert {"diagrams._boxes_of", "tableaux._entries", "ring._decoder",
            "weyl.reduced_word", "restriction._fixed_point", "restriction._element"} <= set(cached)
    assert all(isinstance(size, int) for size in cached.values()), cached


def _imported(node) -> set:
    """The top-level modules an import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_no_module_imports_dataclasses_or_typing_or_fractions_up_front():
    # records are plain classes (`ring.Record`), and a Fraction is imported
    # where one is built: none of these import costs falls on every query
    found = []
    for path in sorted((ROOT / "src" / "schubertk").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}: {m}" for n in ast.walk(tree) for m in _imported(n) & {"dataclasses", "typing"}]
        found += [f"{path.stem}: {m} at top level" for n in tree.body for m in _imported(n) & {"fractions"}]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = {
        code: set(ast.literal_eval(subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(sorted(sys.modules))"],
            capture_output=True, text=True, check=True, env=env).stdout))
        for code in ("pass", "import schubertk.cli")
    }
    added = loaded["import schubertk.cli"] - loaded["pass"]
    assert "schubertk.cli" in added
    assert not {"dataclasses", "inspect", "fractions"} & added
