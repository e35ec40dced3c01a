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


def _json_with(pair, key, member: str) -> str:
    """The JSON line of `_base_doc` and doc[key], given as the JSON text
    member, keys sorted: "class" and "character" sort first."""
    return f'{{"{key}": {member}, {json.dumps(_base_doc(pair), sort_keys=True)[1:]}'


def _latex_class(pair, backend):
    """The factored form of the class; it is never expanded."""
    terms = restriction.pullback_terms(pair, backend=backend)
    negative = size(pair.lam) % 2 == 1
    factor = {g: rf"\left(e^{{{format_weight(g, True)}}}-1\right)" for g in set().union(*terms)}
    return signed_sum((negative, "".join(map(factor.get, exps)) or "1") for exps in terms)


def run(argv) -> int:
    """Run one query: the one writer of the CLI's stdout and stderr."""
    try:
        args = parse_args(argv)
        if args is None:
            lines, code = [_help()], 0
        else:
            pair = _resolve_inputs(args)
            lines, code = _check(pair) if args.check else (_emit(args, pair), 0)
        for line in lines:
            print(line)
        return code
    except (ValueError, RuntimeError) as exc:  # RuntimeError: a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _check(pair) -> tuple:
    """The lines of --check and its exit code: 1 if the backends differ."""
    report = restriction.pair_check(pair)
    if report.agree:
        names = [name for name, _ in report.classes]
        return [f"{len(names)} backends agree: {', '.join(names)}"], 0
    return [f"backend mismatch: {report.first_diff}"], 1


def _emit(args, pair):
    """The lines the query prints, once every computation it needs has run.
    A listing's lines come lazily, one per listed item."""
    emit, fmt = args.emit, args.fmt
    lift = f"D_{pair.rstype.rank + 1}" if pair.rstype.kind == "B" else ""  # type B runs on D_{n+1}

    if emit == "class":
        if fmt == "latex":
            return [_latex_class(pair, args.backend)]
        value = restriction.pair_class(pair, args.backend).value
        return [_json_with(pair, "class", format_poly_json(value)) if fmt == "json"
                else format_poly(value)]

    if emit == "character":
        series = restriction.pair_character(pair, args.trunc)
        dims = series.dims()
        if fmt == "json":
            slices = ", ".join(map(format_poly_json, series.slices))
            return [_json_with(pair, "character", f'{{"dims": {json.dumps(dims)}, '
                               f'"slices": [{slices}], "trunc": {series.trunc}}}')]
        note = f" (through {lift})" if lift else ""
        return [f"graded character up to degree {series.trunc}{note}"] + [
            f"degree {i}: dim = {dims[i]}; {format_poly(s)}" for i, s in enumerate(series.slices)]

    if emit in ("hilbert", "hilbert-poly", "mult"):
        data = restriction.pair_hilbert(pair)
        coeffs = restriction.hilbert_polynomial_coeffs(data) if emit == "hilbert-poly" else None
        if fmt == "json":
            doc = dict(_base_doc(pair), hilbert={"d_w": data.d_w, "m": list(data.m)},
                       multiplicity=data.multiplicity)
            if coeffs is not None:
                doc["hilbert_polynomial"] = [str(c) for c in coeffs]
            return [json.dumps(doc, sort_keys=True)]
        if emit == "mult":
            return [str(data.multiplicity)]
        if emit == "hilbert":
            note = [f"(computed through the {lift} identification)"] if lift else []
            return [f"status = {'on' if pair.on_variety else 'off'}-variety", *note,
                    f"d_w = {data.d_w}", f"m = {list(data.m)}", f"mult = {data.multiplicity}",
                    f"H(t) = {restriction.hilbert_series_str(data)}"]
        def term(k, mk):
            K = data.d_w - k
            return f"{mk}*binom(n+{K - 1},{K - 1})" if K > 0 else f"{mk}*[n=0]"

        hn = signed_sum((k % 2 == 1, term(k, mk)) for k, mk in enumerate(data.m) if mk)
        return [f"h(n) = {hn}", f"coefficients (ascending) = [{', '.join(map(str, coeffs))}]"]

    # diagrams or tableaux: listed, or counted with --count-only
    lam, mu, geometry, reduced = pair.lam, pair.mu, pair.geometry, args.reduced_only
    if not pair.on_variety:  # nothing to list or count, and the enumerators raise
        found = {}
    elif args.count_only:
        # f matches the diagrams with the tableaux, and the reduced ones
        # with the single-valued tableaux: count them by the transfer DP
        found = svt_counts(lam, mu, geometry)
    elif emit == "diagrams":
        found = enumerate_eyd(lam, mu, geometry, reduced_only=reduced)
    else:
        found = enumerate_svt(lam, mu, geometry, single_valued_only=reduced)
    if args.count_only:
        return [str(found.get(size(lam), 0) if reduced else sum(found.values()))]
    if fmt == "json":
        doc = _base_doc(pair)
        doc[emit] = list(map(boxset_to_json if emit == "diagrams" else svt_to_json, found))
        return [json.dumps(doc, sort_keys=True)]
    if emit == "tableaux":
        return (" ".join(f"({i},{j}):{{{','.join(map(str, es))}}}" for (i, j), es in T.cells)
                or "(empty)" for T in found)
    if fmt == "latex":
        return map(boxset_to_tikz, found)
    return (" ".join(f"({i},{j})" for i, j in C.sorted_boxes()) or "(empty)" for C in found)


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet the exit flush
        code = 141  # 128 + SIGPIPE, as the shell reports a process the signal ended
    sys.exit(code)
