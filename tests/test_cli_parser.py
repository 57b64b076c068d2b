"""The option-table parser of ``obstrukt.cli`` against argparse.

``build_parser`` below is the argparse parser that ``obstrukt.cli`` used
before its option table, kept unchanged as the reference.  For every command
line of the corpus, ``obstrukt.cli.parse_args`` must read the same values, or
exit with the same status, as the reference does.  The corpus holds every
command line of ``test_cli.py``, ``test_golden.py`` and the README, and the
edge cases of the syntax.  Help, and the imports a request makes, are
checked here too.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from obstrukt.cli import (
    _THEOREM_FLAGS,
    _cmd_analyze,
    _cmd_cmin,
    _cmd_dual,
    _cmd_homology,
    _cmd_link,
    _cmd_map,
    _cmd_mh,
    _cmd_random,
    _cmd_verify,
    main,
    parse_args,
)
from obstrukt.homology import Field

from test_golden import COMMAND_GOLDEN, COMMAND_INPUTS, FORMAT_GOLDEN, FORMAT_RUNS, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ["analyze", "mh", "cmin", "homology", "link", "dual", "map", "verify", "random"]


def _parse_field(name: str) -> Field:
    try:
        return Field(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown field {name!r}; use GF2 or Q") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstrukt",
        description="Convexity obstructions for neural codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="GF2", type=_parse_field, metavar="{GF2,Q}",
                        help="coefficient field (default GF2)")
    common.add_argument("--output", default="json", choices=["json", "text"])

    code_in = argparse.ArgumentParser(add_help=False)
    code_in.add_argument("--n", type=int, help="neuron count for inline codes")
    code_in.add_argument("--code", help="inline code: comma-separated codewords")
    code_in.add_argument("--input", help="code file (first line n=<int>); '-' is stdin")
    code_in.add_argument("--form", default="word", choices=["set", "word", "binary"])

    sub.add_parser("analyze", parents=[common, code_in],
                   help="facets, homology, mandatory sets, ideals").set_defaults(fn=_cmd_analyze)
    sub.add_parser("mh", parents=[common, code_in],
                   help="homologically mandatory faces").set_defaults(fn=_cmd_mh)
    sub.add_parser("cmin", parents=[common, code_in],
                   help="certified mandatory partition").set_defaults(fn=_cmd_cmin)
    sub.add_parser("homology", parents=[common, code_in],
                   help="reduced homology of the code's complex").set_defaults(fn=_cmd_homology)

    p_link = sub.add_parser("link", parents=[common, code_in], help="link of a face")
    p_link.add_argument("--sigma", required=True, help="face, written in --form")
    p_link.set_defaults(fn=_cmd_link)

    sub.add_parser("dual", parents=[common, code_in],
                   help="Alexander-dual complex and ideals").set_defaults(fn=_cmd_dual)

    p_map = sub.add_parser("map", parents=[common, code_in], help="apply an elementary code map")
    p_map.add_argument("--op", required=True,
                       choices=["permute", "add-on", "add-off", "duplicate", "project", "include"])
    p_map.add_argument("--gamma", help="permutation as comma-separated images, e.g. 2,1,3")
    p_map.add_argument("--source", type=int, help="neuron to duplicate (default 1)")
    p_map.add_argument("--delete", type=int, help="neuron to project away")
    p_map.add_argument("--target", help="inclusion target code (inline)")
    p_map.add_argument("--target-n", type=int, help="inclusion target neuron count")
    p_map.set_defaults(fn=_cmd_map)

    p_verify = sub.add_parser("verify", parents=[common, code_in],
                              help="check the preservation theorems")
    p_verify.add_argument("--theorem", default="all", choices=sorted(_THEOREM_FLAGS))
    p_verify.add_argument("--gamma", help="specific permutation to check")
    p_verify.add_argument("--source", type=int, help="neuron to duplicate (default 1)")
    p_verify.add_argument("--delete", type=int)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="all codes on --n neurons (n <= 4); each distinct complex "
                               "is verified once")
    p_verify.add_argument("--samples", type=int, default=0, help="number of random codes")
    p_verify.add_argument("--seed", type=int, help="sampled suites only (default 0)")
    p_verify.add_argument("--density", type=float, help="sampled suites only (default 0.3)")
    p_verify.add_argument("--jobs", type=int,
                          help="worker processes for suites, capped at the CPU count (default 1)")
    p_verify.add_argument("--summary", action="store_true",
                          help="print only the aggregate result")
    p_verify.set_defaults(fn=_cmd_verify)

    p_random = sub.add_parser("random", parents=[common],
                              help="generate reproducible random codes")
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--count", type=int, default=1)
    p_random.add_argument("--density", type=float, default=0.3)
    p_random.set_defaults(fn=_cmd_random)

    return parser


def reference(argv):
    """What the argparse parser reads from ``argv``: its values, or its exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    values = vars(args)
    del values["fn"]
    return values


def check(argv, capsys):
    """``parse_args`` agrees with the reference on ``argv``, and an exit
    prints help to stdout, or a usage line and an error to stderr."""
    expected = reference(argv)
    capsys.readouterr()
    try:
        got = vars(parse_args(argv))
    except SystemExit as exc:
        got = exc.code
        out, err = capsys.readouterr()
        if got == 0:
            assert out.startswith("usage: obstrukt") and err == ""
        else:
            assert out == "" and err.startswith("usage: obstrukt") and ": error: " in err
    assert got == expected, argv


CLI_TESTS = [
    ["mh", "--n", "4", "--code", "123,24,2"],
    ["mh", "--n", "4", "--code", "123,24,2", "--output", "text"],
    ["mh", "--input", "code.txt"],
    ["mh", "--input", "-"],
    ["mh", "--n", "4", "--code", "1110,0101,0100", "--form", "binary"],
    ["mh", "--code", "12"],
    ["mh", "--n", "4", "--form", "set", "--code", "{1,2,3}, {2,4},{2}"],
    ["mh", "--n", "3", "--form", "set", "--code", "{1,2}, {2,x}"],
    ["map", "--n", "3", "--form", "set", "--code", "{3},{2},{2,3},{1}", "--op", "permute",
     "--gamma", "1,2,3"],
    ["map", "--n", "2", "--form", "word", "--code", "∅,2,1,12", "--op", "permute",
     "--gamma", "1,2"],
    ["map", "--n", "4", "--form", "binary", "--code", "", "--op", "permute", "--gamma", "1,2,3,4"],
    ["analyze", "--n", "4", "--code", "123,24,2"],
    ["cmin", "--n", "2", "--code", "12"],
    ["homology", "--n", "3", "--code", "12,13,23"],
    ["homology", "--n", "3", "--code", "12,13,23", "--field", "GF2"],
    ["homology", "--n", "64", "--form", "binary", "--code", "1" * 64, "--field", "GF2"],
    ["link", "--n", "6", "--code", "24,35,45,123", "--sigma", "2"],
    ["dual", "--n", "2", "--code", "1,2"],
    ["analyze", "--n", "64", "--form", "binary", "--code", "11" + "0" * 62 + ",001" + "0" * 60 + "1"],
    ["dual", "--n", "64", "--form", "binary", "--code", "11" + "0" * 62 + ",001" + "0" * 60 + "1"],
    ["dual", "--n", "4", "--code", "123,24,2"],
    ["map", "--n", "2", "--code", "12", "--op", "add-on", "--gamma", "2,1", "--delete", "7",
     "--target", "1", "--target-n", "5"],
    ["map", "--n", "2", "--code", "12", "--op", "permute", "--gamma", "2,1", "--source", "1"],
    ["map", "--n", "2", "--code", "12", "--op", "duplicate", "--gamma", "2,1"],
    ["map", "--n", "2", "--code", "12", "--op", "project", "--delete", "1", "--target-n", "2"],
    ["map", "--n", "2", "--code", "12", "--op", "include", "--target", "12", "--target-n", "2",
     "--delete", "1"],
    ["map", "--n", "4", "--code", "123,24,2", "--op", "project", "--delete", "4"],
    ["map", "--n", "2", "--code", "12", "--op", "add-on"],
    ["map", "--n", "3", "--code", "12", "--op", "permute", "--gamma", "2,3,1"],
    ["random", "--n", "3", "--seed", "7", "--count", "5"],
    ["random", "--n", "2", "--seed", "0", "--density", "1"],
    ["random", "--n", "3", "--count", "-1"],
    ["verify", "--theorem", "projection", "--n", "4", "--code", "123,24,2", "--delete", "4"],
    ["verify", "--theorem", "all", "--exhaustive", "--n", "2", "--summary"],
    ["verify", "--exhaustive", "--n", "2", "--summary", "--gamma", "9,9", "--source", "7",
     "--delete", "9"],
    ["verify", "--exhaustive", "--n", "2", "--samples", "3"],
    ["verify", "--n", "3", "--samples", "-2"],
    ["verify", "--n", "3", "--samples", "2", "--code", "12"],
    ["verify", "--exhaustive", "--n", "2", "--input", "codes.txt"],
    ["verify", "--exhaustive", "--n", "2", "--summary", "--seed", "5"],
    ["verify", "--exhaustive", "--n", "2", "--summary", "--density", "7"],
    ["verify", "--n", "3", "--samples", "2", "--jobs", "-5"],
    ["verify", "--n", "3", "--samples", "2", "--jobs", "0"],
    ["verify", "--n", "3", "--samples", "1", "--output", "text"],
    ["verify", "--exhaustive", "--n", "2", "--output", "text"],
    ["verify", "--n", "3", "--code", "12", "--summary"],
    ["verify", "--n", "3", "--code", "12", "--seed", "5"],
    ["verify", "--n", "3", "--code", "12", "--density", "0.5"],
    ["verify", "--n", "3", "--code", "12", "--jobs", "2"],
    ["verify", "--n", "3", "--code", "12", "--source", "9", "--theorem", "permutation"],
    ["verify", "--n", "3", "--code", "12", "--delete", "9", "--theorem", "permutation"],
    ["verify", "--n", "3", "--samples", "4"],
    ["verify", "--n", "3", "--samples", "4", "--seed", "0", "--density", "0.3", "--jobs", "1"],
    ["verify", "--theorem", "all", "--exhaustive", "--n", "5"],
    ["verify", "--n", "10", "--form", "binary", "--code", "1100000000"],
    ["verify", "--n", "10", "--form", "binary", "--code", "1100000000",
     "--gamma", "2,1,3,4,5,6,7,8,9,10"],
    ["verify", "--theorem", "duplicate", "--n", "3", "--samples", "10", "--seed", "3", "--summary"],
    ["verify", "--theorem", "projection", "--exhaustive", "--n", "2"],
    ["verify", "--theorem", "permutation", "--n", "3", "--form", "binary", "--code", "",
     "--gamma", "1,1,2"],
    ["verify", "--theorem", "duplicate", "--n", "3", "--form", "binary", "--code", "111",
     "--source", "7"],
    ["verify", "--theorem", "projection", "--n", "3", "--form", "binary", "--code", "",
     "--delete", "9"],
    ["verify", "--theorem", "add-trivial-on", "--n", "64", "--form", "binary", "--code", ""],
    ["verify", "--theorem", "add-trivial-off", "--n", "64", "--form", "binary", "--code", "1" * 64],
    ["verify", "--n", "2", "--code", "1,2", "--gamma", "2,1"],
    ["random", "--n", "10", "--count", "200"],
]

GOLDEN_RUNS = (
    [argv for argv, _ in GOLDEN.values()]
    + [[command, "--field", field, "--n", str(n), "--code", text]
       for command, field in COMMAND_GOLDEN for n, text in COMMAND_INPUTS]
    + [[*argv, "--output", output] for runs, output in FORMAT_GOLDEN for argv in FORMAT_RUNS[runs]]
)

README = [
    ["mh", "--n", "4", "--code", "123,24,2"],
    ["verify", "--theorem", "projection", "--n", "4", "--code", "123,24,2", "--delete", "4"],
    ["verify", "--theorem", "all", "--exhaustive", "--n", "3", "--summary"],
    ["verify", "--theorem", "all", "--exhaustive", "--n", "4", "--summary"],
    ["random", "--n", "3", "--seed", "7", "--count", "5"],
    ["verify", "--n", "5", "--samples", "1000", "--seed", "1", "--jobs", "4", "--summary"],
    ["random", "--n", "8", "--count", "20000"],
    ["mh", "--help"],
    ["verify", "--n", "3", "--samp=10", "--summ"],
]

EDGES = [
    # --opt=value, also with an abbreviated flag and an empty value
    ["mh", "--n=4", "--code=123,24,2"],
    ["mh", "--co=12", "--n", "2", "--form=binary"],
    ["mh", "--n", "2", "--code="],
    ["mh", "--n=", "--code", "1"],
    ["mh", "--n", "2", "--code", "1", "--output=text"],
    ["mh", "--n", "2", "--code=1=2"],
    # unique prefixes; an exact flag wins over a longer one it starts
    ["mh", "--co", "12", "--n", "2"],
    ["verify", "--exh", "--n", "2", "--summ"],
    ["random", "--n", "3", "--cou", "2", "--dens", "0.5", "--se", "4"],
    ["map", "--n", "2", "--code", "12", "--op", "include", "--target", "12", "--target-", "2"],
    ["map", "--n", "2", "--code", "12", "--o", "add-on"],
    # ambiguous prefixes, before and after -h
    ["verify", "--s", "1"],
    ["map", "--n", "2", "--code", "12", "--op", "include", "--targ", "12"],
    ["verify", "--n", "3", "--code", "12", "--de", "1"],
    ["verify", "-h", "--s"],
    ["map", "--n", "2", "--code", "12", "--op", "include", "--targ=12"],
    ["mh", "--=x"],
    # the last of a repeated flag wins
    ["mh", "--n", "3", "--n", "4", "--code", "123,24,2"],
    ["random", "--n", "3", "--seed", "1", "--seed", "2"],
    ["verify", "--n", "2", "--summary", "--summary", "--exhaustive", "--exhaustive"],
    ["mh", "--n", "2", "--code", "1", "--field", "Q", "--field", "GF2"],
    # negative numbers and a lone "-" are values; other leading dashes are not
    ["random", "--n", "-3"],
    ["random", "--n", "3", "--density", "-.5"],
    ["random", "--n", "3", "--density", "-0.5"],
    ["random", "--n", "3", "--density", "-1e3"],
    ["random", "--n", "3", "--density", "-1."],
    ["random", "--n", "3", "--seed", "-5\n"],
    ["mh", "--code", "-x", "--n", "2"],
    ["mh", "--code", "-1,2", "--n", "2"],
    ["mh", "--code", "-1 2", "--n", "3"],
    ["mh", "--code", "-", "--n", "2"],
    ["mh", "--n", "2", "--code", "--"],
    ["mh", "--n", "2", "--code", "-h"],
    ["mh", "--n", "2", "--code", "--output"],
    # a missing value or required flag
    ["mh", "--n"],
    ["mh", "--n", "--code", "12"],
    ["link", "--n", "2", "--code", "12"],
    ["map", "--n", "2", "--code", "12"],
    ["random"],
    ["random", "--count", "2"],
    # bad choices and values
    ["mh", "--output", "xml"],
    ["mh", "--form", "words"],
    ["verify", "--theorem", "bogus"],
    ["verify", "--theorem", "all_theorems"],
    ["map", "--op", "rotate"],
    ["mh", "--field", "gf2"],
    ["mh", "--field", "Q", "--n", "2", "--code", "1"],
    ["mh", "--n", "x"],
    ["mh", "--n", " 3 ", "--code", "1"],
    ["mh", "--n", "3_0", "--code", "1"],
    ["random", "--n", "3", "--density", "abc"],
    ["random", "--n", "3", "--density", "inf"],
    # switches take no value
    ["verify", "--exhaustive=1", "--n", "2"],
    ["verify", "--exhaustive=", "--n", "2"],
    # unknown flags and stray positionals
    ["mh", "--bogus"],
    ["mh", "--n", "2", "--code", "1", "--bogus", "3"],
    ["mh", "--n", "2", "--code", "1", "--bogus=3"],
    ["mh", "-x"],
    ["mh", "-n", "2"],
    ["random", "--n", "3", "--sigma", "2"],
    ["random", "--n", "3", "--code", "12"],
    ["mh", "--n", "2", "--code", "1", "extra"],
    ["mh", "extra"],
    ["mh", ""],
    ["mh", "--bogus", "-h"],
    ["mh", "extra", "--help"],
    # "--" ends the options; nothing takes what follows it
    ["mh", "--n", "2", "--code", "1", "--"],
    ["mh", "--code", "--", "1"],
    ["mh", "--", "--n", "2"],
    ["mh", "--", "-h"],
    ["--", "mh"],
    ["--"],
    # help, in its spellings and in order with errors
    ["-h"],
    ["--help"],
    ["--he"],
    ["--h"],
    ["-hh"],
    ["-hx"],
    ["--help=1"],
    ["-h", "bogus"],
    ["bogus", "-h"],
    ["--bogus", "-h"],
    ["--bogus", "mh", "-h"],
    ["mh", "-h"],
    ["mh", "--h"],
    ["mh", "-hh"],
    ["mh", "-h=hh"],
    ["mh", "-hx"],
    ["mh", "-h="],
    ["mh", "--help=1"],
    ["mh", "--hel=1"],
    ["mh", "--n", "x", "-h"],
    ["mh", "-h", "--n", "x"],
    ["mh", "--output", "xml", "--help"],
    *[[command, "--help"] for command in COMMANDS],
    # the command line before the command
    [],
    ["bogus"],
    ["--bogus"],
    ["--bogus", "mh", "--n", "2", "--code", "1"],
    ["--n", "2", "mh"],
    ["-5"],
    [""],
    ["ana"],
    ["MH"],
]


@pytest.mark.parametrize("argv", CLI_TESTS + README + EDGES, ids=repr)
def test_same_as_argparse(argv, capsys):
    check(argv, capsys)


def test_golden_runs_same_as_argparse(capsys):
    assert len(GOLDEN_RUNS) > 400
    for argv in GOLDEN_RUNS:
        check(argv, capsys)


def _run(argv, capsys):
    """The status, stdout and stderr of one ``main`` call."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *capsys.readouterr())


@pytest.mark.parametrize("env", ["GF2", "Q", "gf2", "bogus", ""])
@pytest.mark.parametrize("argv", [
    ["homology", "--n", "3", "--code", "12,13,23"],
    ["homology", "--n", "3", "--code", "12,13,23", "--field", "Q"],
    ["homology", "--n", "3", "--code", "12,13,23", "--field=GF2"],
    ["homology", "--n", "3", "--code", "12,13,23", "--field", "bogus"],
    ["random", "--n", "3"],
    ["link", "--n", "3", "--code", "12"],
    ["verify", "--n", "3", "--code", "12", "-h"],
])
def test_output_depends_only_on_argv(argv, env, capsys, monkeypatch):
    """The field comes from --field alone: a variable that an earlier
    release read for its default changes no byte and no status."""
    monkeypatch.delenv("OBSTRUKT_FIELD", raising=False)
    expected = _run(argv, capsys)
    monkeypatch.setenv("OBSTRUKT_FIELD", env)
    assert _run(argv, capsys) == expected



@pytest.mark.parametrize("argv", [
    ["mh", "--n", "2", "--code=--"],
    ["random", "--n=--"],
    ["mh", "--n", "2", "--code", "1", "--output=--"],
    ["verify", "--n", "2", "--code", "1", "--samples=--"],
])
def test_equals_double_dash_is_the_text_of_the_option(argv, capsys):
    """The one departure from the reference: argparse reads ``--opt=--`` as an
    empty list, on which each command crashes or prints text for --output;
    here ``--`` is the option's text like any other, and is rejected."""
    assert [] in reference(argv).values()
    capsys.readouterr()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2 and captured.out == "" and "error" in captured.err

_FLAGS = sorted({f for parser in build_parser()._subparsers._group_actions[0].choices.values()
                 for action in parser._actions for f in action.option_strings})
_TOKENS = st.one_of(
    st.sampled_from(_FLAGS),
    st.sampled_from(_FLAGS).map(lambda flag: flag[:-2]),  # a prefix, maybe ambiguous
    st.sampled_from(_FLAGS).map(lambda flag: flag + "=3"),
    st.sampled_from(["1", "3", "-1", "-.5", "0.3", "x", "-", "--", "-x", "", "a b",
                     "12,13", "Q", "GF2", "text", "set", "binary", "all", "include", "permute"]),
)


# check() reads what capsys captured for each example, so sharing it is safe
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS + ["bogus", "-h", "--x"]),
       rest=st.lists(_TOKENS, max_size=7))
def test_random_command_lines_same_as_argparse(command, rest, capsys):
    check([command, *rest], capsys)


class TestHelp:
    def test_top_level_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert all(command in out for command in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_names_every_option(self, command, capsys):
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        flags = [f for action in parser._actions for f in action.option_strings]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--field" in flags
        assert all(flag in out for flag in flags)

    @pytest.mark.parametrize("argv", [[], ["bogus"]])
    def test_no_command_names_the_commands(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert all(command in captured.err for command in COMMANDS)


def test_a_request_imports_no_argparse():
    """A request in a fresh interpreter loads none of argparse, gettext or locale."""
    script = (
        "import sys\n"
        "from obstrukt.cli import main\n"
        "status = main(['analyze', '--n', '4', '--code', '123,24,2'])\n"
        "print(status, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
