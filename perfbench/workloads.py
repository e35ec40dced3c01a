"""The benchmark's workloads: three fixed query ladders and a seeded sweep.

A query is one closed-loop call into schubertk: ``cli.run(argv)`` with its
stdout captured, or a library call whose result is rendered as text.  Every
query must return exit code 0.  Ladder outputs are compared with sha256
digests recorded at the seed commit (``digests.json``, written by
``record_digests.py``); sweep outputs are checked by a computation that does
not reuse the backend under test.

All schubertk modules are reached through the ``lib`` namespace handed to
:func:`build`, and always by attribute lookup at call time, so that the
tracer's patches are seen and a re-import during set-up is honoured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("digests.json")

SWEEP_SIZE = 16 * 63  # 16 queries of each (emit, format, backend)


@dataclass
class Query:
    qid: str
    run: object            # () -> (exit code, stdout text)
    is_cli: bool = True
    check: object = None   # (stdout) -> error text or None; None: use the recorded digest


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Each ladder entry is (query id, spec).  A string spec is a CLI argv; a
# tuple spec names a library call and its (type, rank, d, lambda, mu).
# The rungs are the largest of each kind whose whole ladder still takes
# about two seconds per pass, so that one run holds several passes.
LADDERS = {
    "class-ladder": (
        ("A11-eyd", "--type A --n 11 --d 5 --lambda 3,2,2,1 --mu 6,5,4,3,2 --emit class --format json --backend eyd"),
        ("A11-svt", "--type A --n 11 --d 5 --lambda 3,2,2,1 --mu 6,5,4,3,2 --emit class --format json --backend svt"),
        ("C6-eyd", "--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2 --emit class --format json --backend eyd"),
        ("C6-svt", "--type C --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2 --emit class --format json --backend svt"),
        ("D7-eyd", "--type D --rank 7 --lambda 4,2,1 --mu 6,5,4,3,2,1 --emit class --format json --backend eyd"),
        ("D7-svt", "--type D --rank 7 --lambda 4,2,1 --mu 6,5,4,3,2,1 --emit class --format json --backend svt"),
        ("B5-eyd", "--type B --rank 5 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --format json --backend eyd"),
        ("B5-via-D6", ("b-via-d", "B", 5, None, "3,2,1", "5,4,3,2,1")),
        ("C6-character", "--type C --rank 6 --lambda 3,2,1 --mu 6,4,3,2,1 --emit character --trunc 4"),
    ),
    "oracle": (
        ("A9-hecke", "--type A --n 9 --d 4 --lambda 3,2,1 --mu 5,4,3,2 --emit class --backend hecke"),
        ("D6-hecke", "--type D --rank 6 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --backend hecke"),
        ("C6-hecke", "--type C --rank 6 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --backend hecke"),
        ("A11-hilbert-hecke", ("hilbert-hecke", "A", 11, 5, "4,3,2,1", "6,5,4,3,2")),
        ("C5-hecke-latex", "--type C --rank 5 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --backend hecke --format latex"),
        ("B5-check", "--type B --rank 5 --lambda 3,1 --mu 5,4,3,1 --check"),
    ),
    "counts": (
        ("A12-hilbert-poly", "--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 --emit hilbert-poly"),
        ("A12-tableaux-count", "--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 --emit tableaux --count-only"),
        ("A12-tableaux-count-reduced", "--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 --emit tableaux --count-only --reduced-only"),
        ("A12-diagrams-count-reduced", "--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 --emit diagrams --count-only --reduced-only"),
        ("A13-mult", "--type A --n 13 --d 6 --lambda 4,3,2,1 --mu 7,6,5,4,3,2 --emit mult"),
        ("C6-mult", "--type C --rank 6 --lambda 4,2,1 --mu 6,5,4,3,2,1 --emit mult"),
        ("D7-hilbert", "--type D --rank 7 --lambda 4,2,1 --mu 6,5,4,3,2,1 --emit hilbert --format json"),
        ("B6-hilbert", "--type B --rank 6 --lambda 3,2,1 --mu 6,5,4,3,2,1 --emit hilbert"),
    ),
}

# Outputs that must equal another backend's; record_digests.py checks them
# before it records anything.
REFERENCES = {
    "A11-svt": "A11-eyd",
    "C6-svt": "C6-eyd",
    "D7-svt": "D7-eyd",
    "A9-hecke": "--type A --n 9 --d 4 --lambda 3,2,1 --mu 5,4,3,2 --emit class --backend eyd",
    "D6-hecke": "--type D --rank 6 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --backend svt",
    "C6-hecke": "--type C --rank 6 --lambda 3,2,1 --mu 5,4,3,2,1 --emit class --backend eyd",
    "A11-hilbert-hecke": ("hilbert-eyd", "A", 11, 5, "4,3,2,1", "6,5,4,3,2"),
}

WORKLOADS = tuple(LADDERS) + ("sweep",)


def cli_call(lib, argv):
    """Run the CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.run(argv)
    return code, out.getvalue()


def _shape(text):
    return tuple(int(x) for x in text.split(",")) if text else ()


def _element(lib, rs, d, shape):
    if rs.kind == "A":
        return lib.shapes.perm_of(_shape(shape), d, rs.rank)
    return lib.shapes.perm_of_strict(_shape(shape), rs)


def library_call(lib, spec):
    """A library query: returns a function that renders its result as text."""
    what, kind, rank, d, lam, mu = spec
    rs = lib.weyl.RootSystem(kind, rank)
    w, v = _element(lib, rs, d, lam), _element(lib, rs, d, mu)
    if what == "b-via-d":
        def call():
            cls = lib.restriction.pullback_b_via_d(w, v)
            return 0, json.dumps(lib.ring.poly_to_json(cls.value), sort_keys=True)
    elif what in ("hilbert-hecke", "hilbert-eyd"):
        method = what.split("-")[1]

        def call():
            data = lib.restriction.hilbert_data(rs, d, w, v, method=method)
            return 0, f"d_w = {data.d_w}\nm = {list(data.m)}\n"
    else:
        raise ValueError(f"unknown library query {what!r}")
    return call


def make_query(lib, qid, spec):
    if isinstance(spec, str):
        argv = spec.split()
        return Query(qid, lambda: cli_call(lib, argv))
    return Query(qid, library_call(lib, spec), is_cli=False)


def build(lib, name, seed):
    """The query list of one workload; the seed only matters for the sweep."""
    if name == "sweep":
        return sweep(lib, random.Random(seed), SWEEP_SIZE)
    return [make_query(lib, qid, spec) for qid, spec in LADDERS[name]]


def load_digests():
    return json.loads(DIGESTS_FILE.read_text())


# --- the seeded sweep -----------------------------------------------------

SWEEP_EMITS = ("class", "hilbert", "hilbert-poly", "mult", "diagrams", "tableaux", "character")
SWEEP_FORMATS = ("text", "json", "latex")
SWEEP_BACKENDS = ("eyd", "svt", "hecke")
OTHER_BACKEND = {"eyd": "svt", "svt": "hecke", "hecke": "eyd"}


def sweep_groups():
    """(type, rank, d) of every space in the sweep: A up to n=7, B/C up to
    rank 5, D up to rank 6."""
    groups = [("A", n, d) for n in range(2, 8) for d in range(1, n)]
    groups += [(kind, n, None) for kind in ("B", "C") for n in range(2, 6)]
    groups += [("D", n, None) for n in range(3, 7)]
    return groups


# The sweep measures per-query fixed costs, so its inputs are small: at most
# SWEEP_MAX_BOXES boxes in mu bounds the word, diagram and class sizes, and
# no single draw dominates a pass.
SWEEP_MAX_BOXES = 8


def on_variety_pairs(lib):
    pairs = []
    for kind, rank, d in sweep_groups():
        rs = lib.weyl.RootSystem(kind, rank)
        reps = [(w, lib.shapes.shape_of(w, d)) for w in lib.shapes.minimal_reps(rs, d)]
        for w, lam in reps:
            for v, mu in reps:
                if sum(mu) <= SWEEP_MAX_BOXES and lib.shapes.contains(lam, mu):
                    pairs.append((rs, d, w, v, lam, mu))
    return pairs


def sweep(lib, rng, size):
    """Draw ``size`` CLI queries on on-variety pairs.

    Every (emit, format, backend) combination occurs equally often, and each
    combination takes its pairs by systematic sampling from the list of
    pairs sorted by size, with a random offset; input style and flags
    follow the sample's index.  So every seed draws other pairs but the same
    mix of kinds, flags and sizes, and a pass's time does not depend on the
    seed.  Off the variety ``diagrams`` and ``tableaux`` exit 2 while
    ``class`` returns 0, so every pair is on the variety."""
    pairs = sorted(on_variety_pairs(lib), key=lambda p: (sum(p[5]), sum(p[4]), p[0].rank))
    combos = [(e, f, b) for e in SWEEP_EMITS for f in SWEEP_FORMATS for b in SWEEP_BACKENDS]
    per_combo = size // len(combos)
    offsets = [rng.random() for _ in combos]
    queries = []
    for k in range(per_combo * len(combos)):
        j, c = divmod(k, len(combos))
        rs, d, w, v, lam, mu = pairs[int((j + offsets[c]) * len(pairs) / per_combo)]
        emit, fmt, backend = combos[c]
        argv = ["--type", rs.kind, "--rank", str(rs.rank)]
        if d is not None:
            argv += ["--d", str(d)]
        # "--w=" keeps argparse from reading a window such as "-4,1" as an option
        if (j + c) % 2:
            argv += [f"--w={lib.weyl.format_window(w)}", f"--v={lib.weyl.format_window(v)}"]
        else:
            argv += [f"--lambda={lib.shapes.format_shape(lam)}", f"--mu={lib.shapes.format_shape(mu)}"]
        argv += ["--emit", emit, "--format", fmt, "--backend", backend]
        opts = {}
        if emit in ("diagrams", "tableaux"):
            opts["count_only"] = j % 2 == 1
            opts["reduced_only"] = j // 2 % 3 == 0
            argv += ["--count-only"] * opts["count_only"] + ["--reduced-only"] * opts["reduced_only"]
        elif emit == "character":
            opts["trunc"] = j % 4
            argv += ["--trunc", str(opts["trunc"])]
        case = SweepCase(lib, rs, d, w, v, lam, mu, emit, fmt, backend, opts)
        queries.append(Query(f"sweep-{k}", lambda argv=argv: cli_call(lib, argv), check=case.check))
    return queries


@dataclass
class SweepCase:
    """One sweep query with the independent check of its output."""

    lib: object
    rs: object
    d: object
    w: object
    v: object
    lam: tuple
    mu: tuple
    emit: str
    fmt: str
    backend: str
    opts: dict

    def check(self, out: str):
        """None when the output is right, else a one-line reason."""
        try:
            if self.fmt == "json" and not self.opts.get("count_only"):
                why = self._check_header(json.loads(out))
                if why is not None:
                    return why
            return getattr(self, "_check_" + self.emit.replace("-", "_"))(out)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unparseable output: {exc!r}"

    def _check_header(self, doc):
        want = {
            "type": self.rs.kind,
            "rank": self.rs.rank,
            "d": self.d,
            "w": list(self.w.window),
            "v": list(self.v.window),
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "status": "on-variety",
        }
        bad = [key for key, value in want.items() if doc.get(key) != value]
        return f"wrong {', '.join(bad)} in the JSON document" if bad else None

    # counts that come from a different enumeration than the one under test

    def _geometry(self, rs):
        return self.lib.diagrams.geometry_of(rs)

    def _eyd(self, rs, lam, mu, reduced=False):
        return self.lib.diagrams.enumerate_eyd(lam, mu, self._geometry(rs), reduced_only=reduced)

    def _svt(self, rs, d, lam, mu, single=False):
        return self.lib.tableaux.enumerate_svt(
            lam, mu, self._geometry(rs), d=d if rs.kind == "A" else None, single_valued_only=single
        )

    def _hilbert_counts(self):
        """(m_0, sum of m) from the reduced diagrams and from the tableaux;
        type B Hilbert data is defined through D_{n+1}."""
        rs, d, w, v = self.rs, self.d, self.w, self.v
        if rs.kind == "B":
            w = self.lib.shapes.bd_identify_inverse(w)
            v = self.lib.shapes.bd_identify_inverse(v)
            rs, d = w.rstype, None
        lam, mu = self.lib.shapes.shape_of(w, d), self.lib.shapes.shape_of(v, d)
        return len(self._eyd(rs, lam, mu, reduced=True)), len(self._svt(rs, d, lam, mu))

    def _m_ok(self, m):
        m0, total = self._hilbert_counts()
        if not m or m[0] != m0 or sum(m) != total:
            return f"m = {m}, expected m_0 = {m0} and sum {total}"
        return None

    def _reference_class(self):
        other = OTHER_BACKEND[self.backend]
        return self.lib.restriction.pullback(self.rs, self.d, self.w, self.v, backend=other).value

    def _check_class(self, out):
        if self.fmt == "json":
            doc = json.loads(out)
            got = self.lib.ring.poly_from_json(doc["class"], self.rs.rank)
            return None if got == self._reference_class() else "class differs from another backend"
        if self.fmt == "text":
            want = self.lib.ring.format_poly(self._reference_class())
            return None if out.strip() == want else "class differs from another backend"
        # latex: expand the factored form and compare the sum
        text = out.strip()
        odd = self.lib.weyl.length(self.w) % 2 == 1
        if text.startswith("-") != odd:
            return "wrong sign of the factored form"
        ring = self.lib.ring
        total = ring.LaurentPoly.zero(self.rs.rank)
        for term in text.lstrip("-").split(" - " if odd else " + "):
            if term != "1" and not re.fullmatch(r"(\\left\(e\^\{[^}]*\}-1\\right\))+", term):
                return f"malformed factored term {term!r}"
            product = ring.LaurentPoly.one(self.rs.rank)
            for weight in re.findall(r"e\^\{([^}]*)\}", term):
                g = [0] * self.rs.rank
                for sign, mag, i in re.findall(r"([+-]?)(\d*)\\epsilon_(\d+)", weight):
                    g[int(i) - 1] = (-1 if sign == "-" else 1) * int(mag or 1)
                product = product * (ring.LaurentPoly.monomial(g) - 1)
            total = total + product
        if odd:
            total = -total
        return None if total == self._reference_class() else "factored form differs from another backend"

    def _check_hilbert(self, out):
        d_w = self.lib.restriction.dim_gp(self.rs, self.d) - self.lib.weyl.length(self.w)
        if self.fmt == "json":
            doc = json.loads(out)
            m, got_d_w, mult = doc["hilbert"]["m"], doc["hilbert"]["d_w"], doc["multiplicity"]
        else:
            m = json.loads(re.search(r"^m = (\[.*\])$", out, re.M).group(1))
            got_d_w = int(re.search(r"^d_w = (\d+)$", out, re.M).group(1))
            mult = int(re.search(r"^mult = (\d+)$", out, re.M).group(1))
        if got_d_w != d_w or not m or mult != m[0]:
            return f"d_w = {got_d_w} (expected {d_w}), mult = {mult}, m = {m}"
        return self._m_ok(m)

    def _check_hilbert_poly(self, out):
        if self.fmt == "json":
            return self._m_ok(json.loads(out)["hilbert"]["m"])
        line = re.search(r"^h\(n\) = (.*)$", out, re.M).group(1)
        # the nonzero m_k in order of k; m_0 is never zero on the variety
        return self._m_ok([int(x) for x in re.findall(r"(\d+)\*(?:binom|\[n=0\])", line)])

    def _check_mult(self, out):
        if self.fmt == "json":
            doc = json.loads(out)
            if doc["multiplicity"] != doc["hilbert"]["m"][0]:
                return "multiplicity is not m_0"
            return self._m_ok(doc["hilbert"]["m"])
        m0, _ = self._hilbert_counts()
        return None if int(out) == m0 else f"mult {out.strip()}, expected {m0}"

    def _check_diagrams(self, out):
        reduced = self.opts["reduced_only"]
        tableaux = self._svt(self.rs, self.d, self.lam, self.mu, single=reduced)
        want = {self.lib.tableaux.f_map(T).boxes for T in tableaux}
        if self.opts["count_only"]:
            got = int(out)
            return None if got == len(want) else f"{got} diagrams, expected {len(want)}"
        if self.fmt == "latex":
            pictures = re.findall(r"\\begin\{tikzpicture\}.*?\\end\{tikzpicture\}\n", out, re.S)
            want_pictures = sorted(
                self.lib.diagrams.boxset_to_tikz(self.lib.tableaux.f_map(T)) + "\n" for T in tableaux
            )
            if "".join(pictures) != out or sorted(pictures) != want_pictures:
                return "pictures differ from those of the image of the tableaux"
            return None
        if self.fmt == "json":
            items = [frozenset(map(tuple, C["boxes"])) for C in json.loads(out)["diagrams"]]
        else:
            items = [
                frozenset((int(i), int(j)) for i, j in re.findall(r"\((\d+),(\d+)\)", line))
                for line in out.splitlines()
            ]
        if len(items) != len(want) or set(items) != want:
            return "diagram list differs from the image of the tableaux"
        return None

    def _check_tableaux(self, out):
        reduced = self.opts["reduced_only"]
        diagrams = self._eyd(self.rs, self.lam, self.mu, reduced=reduced)
        want = {C.boxes for C in diagrams}
        if self.opts["count_only"]:
            got = int(out)
            return None if got == len(want) else f"{got} tableaux, expected {len(want)}"
        geometry = self._geometry(self.rs)
        SVT = self.lib.tableaux.SetValuedTableau
        if self.fmt == "json":
            cells = [
                [(tuple(c["box"]), tuple(c["set"])) for c in T["cells"]]
                for T in json.loads(out)["tableaux"]
            ]
        else:
            cells = [
                [((int(i), int(j)), _shape(es)) for i, j, es in re.findall(r"\((\d+),(\d+)\):\{([\d,]*)\}", line)]
                for line in out.splitlines()
            ]
        images = [self.lib.tableaux.f_map(SVT(geometry, self.lam, self.mu, tuple(c))).boxes for c in cells]
        if len(images) != len(want) or set(images) != want:
            return "tableau list differs from the excited diagrams"
        return None

    def _check_character(self, out):
        if self.fmt == "json":
            dims = json.loads(out)["character"]["dims"]
        else:
            dims = [int(x) for x in re.findall(r"^degree \d+: dim = (-?\d+);", out, re.M)]
        data = self.lib.restriction.hilbert_data(self.rs, self.d, self.w, self.v, method="hecke")
        want = [self.lib.restriction.hilbert_polynomial_value(data, i) for i in range(self.opts["trunc"] + 1)]
        return None if dims == want else f"dims {dims}, Hilbert function {want}"
