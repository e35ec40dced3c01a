"""Command-line front end.

Inputs are either Weyl windows (--w/--v, signed comma lists) or shapes
(--lambda/--mu), one style per invocation.  Exit codes: 0 success, 1
cross-check mismatch, 2 invalid input, 141 stdout closed by its reader.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import restriction
from .diagrams import boxset_to_json, boxset_to_tikz, enumerate_eyd
from .ring import format_poly, format_poly_json, signed_sum
from .shapes import parse_shape, size
from .tableaux import enumerate_svt, svt_counts, svt_to_json
from .weyl import RootSystem, format_weight, parabolic_index, parse_window

EMITS = ("class", "hilbert", "hilbert-poly", "mult", "diagrams", "tableaux", "character")


# flag -> (dest, converter, choices, default, help); the converter bool marks
# a flag that takes no value.  --type and --n/--rank have no default.
OPTIONS = {
    "--type": ("kind", str, ("A", "B", "C", "D"), None, "root system type (required)"),
    "--n": ("rank", int, None, None, "rank, n for type A (required)"),
    "--d": ("d", int, None, None, "parabolic index (type A only)"),
    "--w": ("w", str, None, None, "window for w, e.g. 1,3,5,2,4,6,7"),
    "--v": ("v", str, None, None, "window for v"),
    "--lambda": ("lam", str, None, None, "shape for w, e.g. 2,1"),
    "--mu": ("mu", str, None, None, "shape for v"),
    "--backend": ("backend", str, restriction.BACKENDS, "svt", "class engine"),
    "--emit": ("emit", str, EMITS, "class", "what to compute"),
    "--format": ("fmt", str, ("text", "json", "latex"), "text", "latex applies to --emit "
                 "class (factored) and diagrams (TikZ); other emits print their text form"),
    "--trunc": ("trunc", int, None, 3, "character truncation degree"),
    "--count-only": ("count_only", bool, None, False, "count diagrams or tableaux"),
    "--check": ("check", bool, None, False, "run all applicable backends and compare"),
    "--reduced-only": ("reduced_only", bool, None, False, "reduced diagrams or tableaux only"),
}
OPTIONS["--rank"] = OPTIONS["--n"]


def _help() -> str:
    lines = ["usage: schubertk --type T --n N (--w W --v V | --lambda L --mu M) [option ...]",
             "  -h, --help\n      print this help"]
    for flag, (dest, convert, choices, _, text) in OPTIONS.items():
        value = "{%s}" % ",".join(choices) if choices else "" if convert is bool else dest.upper()
        lines.append(f"  {flag} {value}".rstrip() + f"\n      {text}")
    return "\n".join(lines)


def parse_args(argv):
    """The options of argv as a namespace of OPTIONS' dests, or None for
    --help.  A flag's value is always the next token (or follows "="), so a
    window may start with a barred entry; the last repeated flag wins."""
    args = {dest: default for dest, _, _, default, _ in OPTIONS.values()}
    unknown, tokens = [], iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None
        flag, eq, value = tok.partition("=")
        if flag not in OPTIONS:
            unknown.append(tok)
            continue
        dest, convert, choices, _, _ = OPTIONS[flag]
        if convert is bool:
            if eq:
                raise ValueError(f"argument {flag}: takes no value, got {value!r}")
            args[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"argument {flag}: expected one argument")
        try:
            value = convert(value)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid int value: {value!r}") from None
        if choices and value not in choices:
            raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(choices)})")
        args[dest] = value
    if unknown:  # first, as a misspelled --type or --rank also reads as missing
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    for flag, dest in (("--type", "kind"), ("--n/--rank", "rank")):
        if args[dest] is None:
            raise ValueError(f"the following argument is required: {flag}")
    return SimpleNamespace(**args)


def _resolve_inputs(args) -> restriction.Pair:
    """The one validated pair of the query; d is checked before any element
    is built."""
    rstype = RootSystem(args.kind, args.rank)
    if rstype.kind == "A":
        if args.d is None:
            raise ValueError("type A needs --d")
    elif args.d is not None:
        raise ValueError("--d applies to type A only")
    d = parabolic_index(rstype, args.d)
    windows = args.w is not None or args.v is not None
    shapes = args.lam is not None or args.mu is not None
    if windows and shapes:
        raise ValueError("give either windows (--w/--v) or shapes (--lambda/--mu)")
    if not windows and not shapes:
        raise ValueError("missing inputs: --w/--v or --lambda/--mu")
    if windows:
        if args.w is None or args.v is None:
            raise ValueError("both --w and --v are required")
        w, v = parse_window(rstype, args.w), parse_window(rstype, args.v)
        return restriction.Pair.of(rstype, d, w, v)
    if args.lam is None or args.mu is None:
        raise ValueError("both --lambda and --mu are required")
    return restriction.Pair.of_shapes(rstype, d, parse_shape(args.lam), parse_shape(args.mu))


def _base_doc(pair):
    return {
        "type": pair.rstype.kind,
        "rank": pair.rstype.rank,
        "d": pair.d if pair.rstype.kind == "A" else None,
        "w": list(pair.w.window),
        "v": list(pair.v.window),
        "lambda": list(pair.lam),
        "mu": list(pair.mu),
        "status": "on-variety" if pair.on_variety else "off-variety",
    }


def _print_with(doc, key, member: str) -> None:
    """Print json.dumps(doc, sort_keys=True) with doc[key] the JSON text
    member.  "class" and "character" sort before every key of `_base_doc`,
    so the member goes first."""
    print(f'{{"{key}": {member}, {json.dumps(doc, sort_keys=True)[1:]}')


def _latex_class(pair, backend):
    """The factored form of the class; it is never expanded."""
    terms = restriction.pullback_terms(pair, backend=backend)
    negative = size(pair.lam) % 2 == 1
    factor = {g: rf"\left(e^{{{format_weight(g, True)}}}-1\right)" for g in set().union(*terms)}
    return signed_sum((negative, "".join(map(factor.get, exps)) or "1") for exps in terms)


def run(argv) -> int:
    try:
        args = parse_args(argv)
        if args is None:
            print(_help())
            return 0
        pair = _resolve_inputs(args)
        return _run_check(pair) if args.check else _run_emit(args, pair)
    except (ValueError, RuntimeError) as exc:  # RuntimeError: a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_check(pair) -> int:
    report = restriction.pair_check(pair)
    names = [name for name, _ in report.classes]
    if report.agree:
        print(f"{len(names)} backends agree: {', '.join(names)}")
        return 0
    print(f"backend mismatch: {report.first_diff}")
    return 1


def _run_emit(args, pair) -> int:
    doc = _base_doc(pair)
    emit, fmt = args.emit, args.fmt
    rstype, lam, mu, geometry = pair.rstype, pair.lam, pair.mu, pair.geometry

    if emit == "class":
        if fmt == "latex":
            print(_latex_class(pair, args.backend))
            return 0
        cls = restriction.pair_class(pair, args.backend)
        if fmt == "json":
            _print_with(doc, "class", format_poly_json(cls.value))
        else:
            print(format_poly(cls.value))
        return 0

    if emit in ("hilbert", "hilbert-poly", "mult"):
        data = restriction.pair_hilbert(pair)
        if fmt == "json":
            doc["hilbert"] = {"d_w": data.d_w, "m": list(data.m)}
            doc["multiplicity"] = data.multiplicity
            if emit == "hilbert-poly":
                coeffs = restriction.hilbert_polynomial_coeffs(data)
                doc["hilbert_polynomial"] = [str(c) for c in coeffs]
            print(json.dumps(doc, sort_keys=True))
            return 0
        if emit == "mult":
            print(data.multiplicity)
            return 0
        if emit == "hilbert":
            print(f"status = {doc['status']}")
            if rstype.kind == "B":
                print(f"(computed through the D_{rstype.rank + 1} identification)")
            print(f"d_w = {data.d_w}")
            print(f"m = {list(data.m)}")
            print(f"mult = {data.multiplicity}")
            print(f"H(t) = {restriction.hilbert_series_str(data)}")
            return 0
        def term(k, mk):
            K = data.d_w - k
            return f"{mk}*binom(n+{K - 1},{K - 1})" if K > 0 else f"{mk}*[n=0]"

        hn = signed_sum((k % 2 == 1, term(k, mk)) for k, mk in enumerate(data.m) if mk)
        print(f"h(n) = {hn}")
        coeffs = restriction.hilbert_polynomial_coeffs(data)
        print(f"coefficients (ascending) = [{', '.join(str(c) for c in coeffs)}]")
        return 0

    # off the variety there is nothing to list, and the enumerators raise
    if args.count_only and emit in ("diagrams", "tableaux"):
        # f matches the diagrams with the tableaux, and the reduced ones
        # with the single-valued tableaux: count them by the transfer DP
        counts = svt_counts(lam, mu, geometry) if pair.on_variety else {}
        print(counts.get(size(lam), 0) if args.reduced_only else sum(counts.values()))
        return 0

    if emit == "diagrams":
        items = (enumerate_eyd(lam, mu, geometry, reduced_only=args.reduced_only)
                 if pair.on_variety else [])
        if fmt == "json":
            doc["diagrams"] = [boxset_to_json(C) for C in items]
            print(json.dumps(doc, sort_keys=True))
        elif fmt == "latex":
            for C in items:
                print(boxset_to_tikz(C))
        else:
            for C in items:
                print(" ".join(f"({i},{j})" for i, j in C.sorted_boxes()) or "(empty)")
        return 0

    if emit == "tableaux":
        items = (enumerate_svt(lam, mu, geometry, single_valued_only=args.reduced_only)
                 if pair.on_variety else [])
        if fmt == "json":
            doc["tableaux"] = [svt_to_json(T) for T in items]
            print(json.dumps(doc, sort_keys=True))
        else:
            for T in items:
                cells = " ".join(
                    f"({i},{j}):{{{','.join(map(str, es))}}}" for (i, j), es in T.cells
                )
                print(cells or "(empty)")
        return 0

    # character
    series = restriction.pair_character(pair, args.trunc)
    note = f" (through D_{rstype.rank + 1})" if rstype.kind == "B" else ""
    dims = series.dims()
    if fmt == "json":
        slices = ", ".join(map(format_poly_json, series.slices))
        _print_with(doc, "character",
                    f'{{"dims": {json.dumps(dims)}, "slices": [{slices}], "trunc": {series.trunc}}}')
    else:
        print(f"graded character up to degree {series.trunc}{note}")
        for i, s in enumerate(series.slices):
            print(f"degree {i}: dim = {dims[i]}; {format_poly(s)}")
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet the exit flush
        code = 141  # 128 + SIGPIPE, as the shell reports a process the signal ended
    sys.exit(code)
