"""One sha256 over the CLI's output on a fixed list of queries.

Run it as ``PYTHONPATH=src python tests/cli_digest.py`` on two trees: a
change that means to keep every output byte for byte prints the same count
and digest on both.  (pytest does not collect it: its name does not start
with ``test_``.)

The queries are run in-process through ``cli.run`` and the digest covers
(argv, exit code, stdout, stderr) of each.  They are every pair of minimal
coset representatives of A(4,1), A(4,2), A(5,2), B3, C3 and D4, on and off
the variety, given as windows and as shapes, under every emit, format and
backend; the listings with and without ``--count-only`` and
``--reduced-only``, the character at the truncations of ``TRUNCS`` (0
divides nothing out; -1 and 40000 are refused), and ``--check``.  Then
``--help`` and four parse errors.

The whole list then runs a second time in the same process, where every
query meets the caches its first run filled; the script exits 1, naming
them, if any query's (argv, exit code, stdout, stderr) differs from its
first run.
"""

import contextlib
import hashlib
import io
import sys

from schubertk.cli import EMITS, run
from schubertk.restriction import BACKENDS
from schubertk.shapes import all_shapes, format_shape, rep_of
from schubertk.weyl import RootSystem, format_window

GROUPS = (("A", 4, 1), ("A", 4, 2), ("A", 5, 2), ("B", 3, None), ("C", 3, None), ("D", 4, None))

TRUNCS = {"text": ("-1", "0", "2", "4", "40000"), "json": ("0", "2", "4"), "latex": ("2",)}

PARSE_ERRORS = (
    ["--type", "A", "--n", "4", "--d", "2", "--lambda", "1", "--mu", "2", "--emit", "bogus"],
    ["--type", "C", "--rank", "x", "--lambda", "1", "--mu", "2"],
    ["--type", "C", "--lambda", "1", "--mu", "2"],
    ["--type", "C", "--n", "3", "--lambda", "1", "--mu", "2", "--count-only=1", "--colour"],
)


def pairs():
    """The head of each query: a pair as windows, then as shapes."""
    for kind, rank, d in GROUPS:
        rs = RootSystem(kind, rank)
        head = ["--type", kind, "--n", str(rank)] + (["--d", str(d)] if d else [])
        shapes = all_shapes(rs, d)
        windows = [format_window(rep_of(lam, rs, d)) for lam in shapes]
        for w in windows:
            for v in windows:
                yield head + [f"--w={w}", f"--v={v}"]
        for lam in shapes:
            for mu in shapes:
                yield head + [f"--lambda={format_shape(lam)}", f"--mu={format_shape(mu)}"]


def queries():
    for pair in pairs():
        for emit in EMITS:
            for fmt in ("text", "json", "latex"):
                for backend in BACKENDS:
                    query = pair + ["--emit", emit, "--format", fmt, "--backend", backend]
                    if emit == "character":
                        for trunc in TRUNCS[fmt]:
                            yield query + ["--trunc", trunc]
                    elif emit in ("diagrams", "tableaux"):
                        for flags in ([], ["--count-only"], ["--reduced-only"],
                                      ["--count-only", "--reduced-only"]):
                            yield query + flags
                    else:
                        yield query
        yield pair + ["--check"]
    yield ["--help"]
    yield from PARSE_ERRORS


def records(argvs):
    """The repr of (argv, exit code, stdout, stderr) of each query, as bytes."""
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        yield repr((argv, code, out.getvalue(), err.getvalue())).encode()


def digest(argvs) -> tuple:
    """(number of queries, sha256 hex digest of their outputs, the sha256 of
    each query's output)."""
    h, each = hashlib.sha256(), []
    for record in records(argvs):
        h.update(record)
        each.append(hashlib.sha256(record).digest())
    return len(each), h.hexdigest(), each


if __name__ == "__main__":
    argvs = list(queries())
    count, hexdigest, first = digest(argvs)
    print(f"{count} queries, sha256 {hexdigest}")
    # the same list again in this process, so every query also runs on what
    # its first run left in the library's caches
    differ = [argv for argv, a, b in zip(argvs, first, digest(argvs)[2]) if a != b]
    print(f"replayed in the same process: {len(differ)} queries differ")
    for argv in differ[:10]:
        print("  " + " ".join(argv))
    sys.exit(1 if differ else 0)
