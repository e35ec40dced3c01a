"""The option table of the CLI against the argparse parser it replaced, its
error paths, and the `python -m schubertk` entry point."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import schubertk
from oracles import reference_parse
from schubertk.cli import EMITS, OPTIONS, parse_args, run

VALUES = {
    "--type": ("A", "B", "C", "D"),
    "--n": ("3", "12"),
    "--rank": ("5", "0"),
    "--d": ("2", "-1"),
    "--w": ("1,3,5,2,4,6,7", "-4,-3,-2,-1"),
    "--v": ("2,-4,-3,-1", "-1,2,3"),
    "--lambda": ("2,1", ""),
    "--mu": ("4,2,1", "6,6,6,5,4,4"),
    "--backend": ("eyd", "svt", "hecke"),
    "--emit": EMITS,
    "--format": ("text", "json", "latex"),
    "--trunc": ("0", "20000"),
}
SWITCHES = ("--count-only", "--check", "--reduced-only")


def spelled(flag, value, attached):
    return [f"{flag}={value}"] if attached else [flag, value]


def grid():
    """Every flag with each of its values in both forms after the required
    flags, then seeded draws of many flags in any order, some repeated."""
    base = ["--type", "C", "--rank", "4"]
    for flag, values in VALUES.items():
        for value in values:
            for attached in (False, True):
                yield base + spelled(flag, value, attached)
    for switch in SWITCHES:
        yield base + [switch]
    rng = random.Random(16)
    for _ in range(600):
        parts = [spelled("--type", rng.choice(VALUES["--type"]), rng.random() < 0.5)]
        rank = rng.choice(("--n", "--rank"))
        parts.append(spelled(rank, rng.choice(VALUES[rank]), rng.random() < 0.5))
        for flag in VALUES:
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                parts.append(spelled(flag, rng.choice(VALUES[flag]), rng.random() < 0.5))
        parts += [[s] for s in SWITCHES if rng.random() < 0.4]
        rng.shuffle(parts)
        yield [tok for part in parts for tok in part]


def typed(namespace):
    return {dest: (type(value), value) for dest, value in vars(namespace).items()}


def test_option_table_parses_as_the_argparse_parser_did():
    argvs = list(grid())
    assert len(argvs) == 2 * 33 + 3 + 600
    for argv in argvs:
        assert typed(parse_args(argv)) == typed(reference_parse(argv)), argv


ERRORS = [
    ("--type A --n 7 --d 3 --lambda 1 --mu 2,1 --cap 24", "unrecognized arguments: --cap 24"),
    ("--bogus=1 --type A -x --n 7 --d 3 --lambda 1 --mu 2,1 --cap",
     "unrecognized arguments: --bogus=1 -x --cap"),
    ("--type A --n 7 --d 3 --lambda 1 --mu", "argument --mu: expected one argument"),
    ("--type Z --rank 4 --w 1,2 --v 2,1", "argument --type: invalid choice: 'Z'"),
    ("--type A --n 3 --d 1 --w 2,1,3 --v 3,1,2 --emit nosuch", "invalid choice: 'nosuch'"),
    ("--type A --rank seven --d 3 --lambda 1 --mu 2,1", "invalid int value: 'seven'"),
    ("--type A --n 7 --d 3 --lambda 1 --mu 2,1 --trunc=", "invalid int value: ''"),
    ("--n 7 --d 3 --lambda 1 --mu 2,1", "required: --type"),
    ("--type A --d 3 --lambda 1 --mu 2,1", "required: --n/--rank"),
    ("", "required: --type"),
    ("--type A --n 7 --d 3 --lambda 1 --mu 2,1 --check=1", "argument --check: takes no value"),
]


@pytest.mark.parametrize("argv, message", ERRORS)
def test_parse_errors_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as refused:
        reference_parse(argv.split())
    assert refused.value.code == 2
    argparse_err = capsys.readouterr().err
    assert run(argv.split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert message in out.err
    if "unrecognized" in message:
        assert argparse_err.endswith(f"error: {message}\n")


def test_help_lists_every_flag_with_its_text(capsys):
    assert run(["--cap", "-h", "--type", "Z"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    for flag, (_, _, _, _, text) in OPTIONS.items():
        assert f"  {flag}" in out.out and text in out.out
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == out.out


# -- the entry point -------------------------------------------------------

SRC = str(Path(schubertk.__file__).resolve().parents[1])
PAIR = "--type C --rank 4 --lambda 2,1 --mu 4,2,1"


def command(argv):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return [sys.executable, "-m", "schubertk", *argv], env


def schubertk_process(argv):
    cmd, env = command(argv)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def test_entry_point_help_exits_0():
    done = schubertk_process(["--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: schubertk")


def test_entry_point_parse_error_exits_2_with_one_line():
    done = schubertk_process(f"{PAIR} --cap 24".split())
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: unrecognized arguments: --cap 24\n"


def test_entry_point_prints_what_run_prints(capsys):
    argv = f"{PAIR} --emit class --format json".split()
    assert run(argv) == 0
    want = capsys.readouterr().out
    done = schubertk_process(argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_entry_point_on_a_closed_pipe_exits_141_without_a_traceback():
    # the listing has 174,960 bytes, more than a pipe holds
    cmd, env = command("--type A --n 12 --d 6 --lambda 4,4,2,2 --mu 6,6,6,5,4,4 "
                       "--emit diagrams".split())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"(1,1) (1,2)")
    assert b"Traceback" not in err and err == b""
