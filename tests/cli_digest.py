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
``--reduced-only``, the character at ``--trunc 2``, and ``--check``.  Then
``--help`` and four parse errors.
"""

import contextlib
import hashlib
import io

from schubertk.cli import EMITS, run
from schubertk.restriction import BACKENDS
from schubertk.shapes import all_shapes, format_shape, rep_of
from schubertk.weyl import RootSystem, format_window

GROUPS = (("A", 4, 1), ("A", 4, 2), ("A", 5, 2), ("B", 3, None), ("C", 3, None), ("D", 4, None))

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
                        query += ["--trunc", "2"]
                    if emit in ("diagrams", "tableaux"):
                        for flags in ([], ["--count-only"], ["--reduced-only"],
                                      ["--count-only", "--reduced-only"]):
                            yield query + flags
                    else:
                        yield query
        yield pair + ["--check"]
    yield ["--help"]
    yield from PARSE_ERRORS


def digest(argvs) -> tuple:
    """(number of queries, sha256 hex digest of their outputs)."""
    h = hashlib.sha256()
    count = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest(queries())
    print(f"{count} queries, sha256 {hexdigest}")
