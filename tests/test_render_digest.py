"""Byte identity of the rendered outputs.

One sha256 covers (argv, exit code, stdout, stderr) of every query below,
run in-process through ``cli.run``, at every pair of minimal coset
representatives of A(5,2), B3, C3 and D4 (292 pairs).

The class digest covers ``--emit class`` in text, json and latex with each
backend, and ``--emit character`` with ``--trunc`` 0-4 in text and json
(5548 queries).  It was recorded on the tree before the bulk key decoder,
the shared weight-piece formatter and the recurrence in
``geometric_expand`` went in.

The listing digest covers ``--emit diagrams`` in text, json and latex and
``--emit tableaux`` in text and json, each with and without
``--reduced-only`` (2920 queries; off-variety pairs print an empty
listing).  It was recorded on the tree before the excited-diagram
enumeration moved onto bit masks.

Both pin the output to the old code's, byte for byte.  Both held, not
re-recorded, when the packed keys moved ε_1 into the top digit, so that
output sorts the keys as integers and text renders each weight from the one
before it.  Re-record a digest only for a change that means to alter
output.
"""

import contextlib
import hashlib
import io

from schubertk import restriction
from schubertk.cli import run
from schubertk.shapes import minimal_reps
from schubertk.weyl import RootSystem, format_window

DIGEST = "4e7f3cdd800ca7a2602a299c31dc8b61b46d659b339d7523c6f2c45608a16192"
LISTING_DIGEST = "55324deb1f0b0aec3f851de7a459e5a29769b676871a1c23422bc1d0162e00b3"

GROUPS = (("A", 5, 2), ("B", 3, None), ("C", 3, None), ("D", 4, None))


def pairs():
    for kind, rank, d in GROUPS:
        rs = RootSystem(kind, rank)
        head = ["--type", kind, "--n", str(rank)] + (["--d", str(d)] if d else [])
        reps = [format_window(w) for w in minimal_reps(rs, d)]
        for w in reps:
            for v in reps:
                yield head + [f"--w={w}", f"--v={v}"]


def queries():
    for pair in pairs():
        for fmt in ("text", "json", "latex"):
            for backend in restriction.BACKENDS:
                yield pair + ["--emit", "class", "--format", fmt, "--backend", backend]
        for fmt in ("text", "json"):
            for trunc in range(5):
                yield pair + ["--emit", "character", "--format", fmt,
                              "--trunc", str(trunc)]


def listing_queries():
    for pair in pairs():
        for emit, fmts in (("diagrams", ("text", "json", "latex")),
                           ("tableaux", ("text", "json"))):
            for fmt in fmts:
                for reduced in ([], ["--reduced-only"]):
                    yield pair + ["--emit", emit, "--format", fmt] + reduced


def render_digest(argvs) -> tuple:
    h = hashlib.sha256()
    count = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
    return count, h.hexdigest()


def test_rendered_outputs_match_the_recorded_digest():
    assert render_digest(queries()) == (5548, DIGEST)


def test_rendered_listings_match_the_recorded_digest():
    assert render_digest(listing_queries()) == (2920, LISTING_DIGEST)
