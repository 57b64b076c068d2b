"""Command-line front end.

Input codes come inline (``--code "123,24,2"``) or from a file whose first
line is ``n=<int>`` followed by one codeword per line (``-`` reads stdin).
JSON output is the machine interface and is byte-stable for fixed inputs and
seeds; text output is for people.  Exit status: 0 success, 1 a verification
suite found a theorem violation, 2 bad input (an ``ObstruktError``, or an
``--input`` file that cannot be read), 141 (128 + SIGPIPE) when the reader of
stdout has closed it.  Any other exception is a fault, not bad input, and
leaves ``main`` with its traceback.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Sequence

from .collapse import core_homology
from .codes import NeuralCode, NotationForm, binaries, code_to_json, parse_codeword
from .codemaps import (
    AddTrivialOff,
    AddTrivialOn,
    Duplicate,
    Include,
    Outcome,
    Permute,
    Project,
    map_code,
)
from .complexes import code_complex, complex_to_json_dict, dual_complex, link
from .errors import MalformedText, ObstruktError
from .homology import Field, reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import dual_ideal, sr_ideal
from .mandatory import mandatory_partition, mandatory_set
from .suites import ALL_THEOREMS, code_reports, run_exhaustive, run_sampled, sampled_codes

_THEOREM_FLAGS = {t.replace("_", "-"): t for t in ALL_THEOREMS} | {"all": "all"}
# the flags that name the code and the maps of a single-code verify
_CODE_FLAGS = ("code", "input", "gamma", "source", "delete")
# the flags each map op takes; no other op accepts them
_MAP_FLAGS = {"permute": ("gamma",), "duplicate": ("source",), "project": ("delete",),
              "include": ("target", "target_n")}
_SIGPIPE_STATUS = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class _UsageError(Exception):
    """A command line that no command takes; its message follows ``error:``."""


def _parse_field(name: str) -> Field:
    try:
        return Field(name)
    except ValueError:
        raise _UsageError(f"unknown field {name!r}; use GF2 or Q") from None


def _parse_gamma(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise MalformedText(f"permutation must be comma-separated integers, got {text!r}")


def _top_level_chunks(text: str) -> Iterator[tuple[int, str]]:
    """Split at the commas outside braces; yield each chunk with its offset."""
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            yield start, text[start:i]
            start = i + 1
    yield start, text[start:]


def _code_from_inline(text: str, form: NotationForm, n: int) -> NeuralCode:
    masks = set()
    for pos, chunk in _top_level_chunks(text):
        token = chunk.strip()
        if token:
            try:
                masks.add(parse_codeword(token, form, n).bits)
            except MalformedText as exc:
                col = pos + chunk.index(token) + (exc.column or 1)
                raise MalformedText(f"{exc} (inline code)", line=1, column=col) from exc
    return NeuralCode(n, masks)


def _code_from_file(path: str, form: NotationForm) -> NeuralCode:
    try:
        if path == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # a missing or unreadable file is bad input
        raise MalformedText(str(exc)) from exc
    if not lines or not lines[0].strip().startswith("n="):
        raise MalformedText("first line must declare the neuron count, e.g. n=4", line=1, column=1)
    try:
        n = int(lines[0].strip()[2:])
    except ValueError:
        raise MalformedText(f"bad neuron count {lines[0].strip()!r}", line=1, column=3)
    masks = set()
    for ln, raw in enumerate(lines[1:], start=2):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        try:
            masks.add(parse_codeword(token, form, n).bits)
        except MalformedText as exc:
            exc.line = ln
            raise
        except ObstruktError as exc:
            raise MalformedText(f"{exc}", line=ln, column=1) from exc
    return NeuralCode(n, masks)


def _load_code(args: SimpleNamespace) -> NeuralCode:
    form = NotationForm(args.form)
    if args.input is not None:
        if stray := _stray(args, ("code", "n")):
            raise MalformedText(f"--input reads n from the file; it does not take {stray}")
        return _code_from_file(args.input, form)
    if args.code is None:
        raise MalformedText("provide --code or --input")
    if args.n is None:
        raise MalformedText("--code needs --n")
    return _code_from_inline(args.code, form, args.n)


def _emit(args: SimpleNamespace, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args: SimpleNamespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    payload: dict = {
        "n": code.n,
        "code": binaries(code.masks, code.n),
        "facets": binaries(K.facet_bits, K.n),
    }
    if K.is_void:
        payload["void"] = True
        _emit(args, payload, ["empty code: void complex"])
        return 0
    payload["homology"] = core_homology(K, args.field).to_json_dict()
    payload.update(mandatory_partition(K, args.field).to_json_dict())
    payload["sr_ideal"] = sr_ideal(K).to_lists()
    payload["dual_complex_facets"] = binaries(dual_complex(K).facet_bits, K.n)
    lines = [
        f"code on {code.n} neurons with {len(code.masks)} words",
        "facets: " + " ".join(payload["facets"]),
        "homology dims: " + json.dumps(payload["homology"]["dims"]),
        "mandatory (homological): " + " ".join(payload["mh"]),
        "mandatory certified in: " + " ".join(payload["cmin_in"]),
        "certified out: " + " ".join(payload["cmin_out"]),
        "unknown: " + " ".join(payload["cmin_unknown"]),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_mh(args: SimpleNamespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    mh = mandatory_set(K, args.field)
    _emit(args, {"mh": mh.binaries()}, ["M_H: " + " ".join(mh.binaries())])
    return 0


def _cmd_cmin(args: SimpleNamespace) -> int:
    code = _load_code(args)
    payload = mandatory_partition(code_complex(code), args.field).to_json_dict()
    lines = [
        "certified in: " + " ".join(payload["cmin_in"]),
        "certified out: " + " ".join(payload["cmin_out"]),
        "unknown: " + " ".join(payload["cmin_unknown"]),
        "complex verdict: " + payload["complex_verdict"],
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_homology(args: SimpleNamespace) -> int:
    code = _load_code(args)
    profile = core_homology(code_complex(code), args.field)
    payload = profile.to_json_dict()
    _emit(args, payload, ["homology dims: " + json.dumps(payload["dims"])])
    return 0


def _cmd_link(args: SimpleNamespace) -> int:
    code = _load_code(args)
    form = NotationForm(args.form)
    K = code_complex(code)
    sigma = parse_codeword(args.sigma, form, code.n)
    L = link(K, sigma)
    payload = complex_to_json_dict(L)
    payload["faces"] = binaries(L.face_bits, L.n)
    _emit(args, payload, ["link facets: " + " ".join(payload["facets"])])
    return 0


def _cmd_dual(args: SimpleNamespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    ideal = sr_ideal(K)
    payload = {
        "dual_complex": complex_to_json_dict(dual_complex(K)),
        "sr_ideal": ideal.to_lists(),
        "dual_ideal": [] if ideal.is_zero else dual_ideal(K).to_lists(),
    }
    _emit(
        args,
        payload,
        [
            "dual facets: " + " ".join(payload["dual_complex"]["facets"]),
            "sr ideal: " + json.dumps(payload["sr_ideal"]),
            "dual ideal: " + json.dumps(payload["dual_ideal"]),
        ],
    )
    return 0


def _stray(args: SimpleNamespace, names) -> str:
    """Those of the named flags that were given, spelled as on the command
    line.  A flag left out reads None, or False for a switch; a value of 0
    or 0.0 is given, though it compares equal to False."""
    return ", ".join(f"--{name.replace('_', '-')}" for name in names
                     if (value := getattr(args, name)) is not None and value is not False)


def _cmd_map(args: SimpleNamespace) -> int:
    stray = _stray(args, (name for op, names in _MAP_FLAGS.items() if op != args.op
                          for name in names))
    if stray:
        raise MalformedText(f"--op {args.op} does not take {stray}")
    code = _load_code(args)
    form = NotationForm(args.form)
    if args.op == "permute":
        if args.gamma is None:
            raise MalformedText("permute needs --gamma")
        step = Permute(_parse_gamma(args.gamma))
    elif args.op == "add-on":
        step = AddTrivialOn()
    elif args.op == "add-off":
        step = AddTrivialOff()
    elif args.op == "duplicate":
        step = Duplicate() if args.source is None else Duplicate(args.source)
    elif args.op == "project":
        if args.delete is None:
            raise MalformedText("project needs --delete")
        step = Project(args.delete)
    else:  # include
        if args.target is None or args.target_n is None:
            raise MalformedText("include needs --target and --target-n")
        target = _code_from_inline(args.target, form, args.target_n)
        step = Include(target)
    image = map_code(step, code)
    payload = {"n": image.n, "words": binaries(image.masks, image.n)}
    _emit(args, payload, ["image: " + " ".join(payload["words"])])
    return 0


def _cmd_random(args: SimpleNamespace) -> int:
    if args.n is None:
        raise MalformedText("random needs --n")
    if args.count < 0:
        raise MalformedText(f"--count must be at least 0, got {args.count}")
    for c in sampled_codes(args.n, args.count, args.seed, args.density):
        text = " ".join(binaries(c.masks, c.n)) or "(empty)"
        print(code_to_json(c) if args.output == "json" else text)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    chosen = _THEOREM_FLAGS[args.theorem]
    theorems = ALL_THEOREMS if chosen == "all" else (chosen,)

    if args.samples < 0:
        raise MalformedText(f"--samples must be at least 0, got {args.samples}")
    if args.jobs is not None and args.jobs < 1:
        raise MalformedText(f"--jobs must be at least 1, got {args.jobs}")
    if args.exhaustive and args.samples:
        raise MalformedText("--exhaustive and --samples exclude each other")
    if args.exhaustive:  # an exhaustive suite draws nothing at random
        mode, unused = "an exhaustive suite", _CODE_FLAGS + ("seed", "density")
    elif args.samples:
        mode, unused = "suite mode", _CODE_FLAGS
    else:
        mode, unused = "single-code mode", ("summary", "seed", "density", "jobs")
    if stray := _stray(args, unused):
        raise MalformedText(f"{mode} does not take {stray}")
    if (args.exhaustive or args.samples) and args.output == "text":
        raise MalformedText(f"{mode} prints JSON lines; it does not take --output text")
    if args.exhaustive or args.samples:
        if args.n is None:
            raise MalformedText("suite mode needs --n")
        # seed, density and jobs that are not given take the suite's defaults
        given = {k: getattr(args, k) for k in ("seed", "density", "jobs")
                 if getattr(args, k) is not None}
        write = None if args.summary else sys.stdout.write  # one write per code
        if args.exhaustive:
            result = run_exhaustive(args.n, args.field, theorems=theorems, write=write, **given)
        else:
            result = run_sampled(args.n, args.samples, fld=args.field, theorems=theorems,
                                 write=write, **given)
        print(json.dumps(result.to_json_dict() if args.summary else
                         {k: v for k, v in result.to_json_dict().items() if k != "violations"}))
        return 0 if result.ok else 1

    code = _load_code(args)
    gammas = None if args.gamma is None else (_parse_gamma(args.gamma),)
    source = 1 if args.source is None else args.source
    reports = code_reports(code, args.field, theorems, gammas, source=source, delete=args.delete)
    violated = 0
    for r in reports:
        if args.output == "json":
            print(r.to_json_line())
        else:
            print(f"{r.theorem} [{r.map_desc}]: {r.verdict.value}")
            for name, value in r.observations:
                print(f"  {name}: {value}")
        if r.verdict is Outcome.VIOLATED:
            violated += 1
    return 1 if violated else 0


# ---- the command line ------------------------------------------------------
#
# One table names every command and its long options.  `parse_args` reads a
# command line against it as argparse would read the same options:
# `--opt value` or `--opt=value`, a unique prefix of a flag, negative
# numbers and a lone `-` as values, the last of a repeated flag wins, and
# anything else exits 2 with a usage line.


class _Opt(NamedTuple):
    """One long option: its flag, how its value is read, and its default.

    ``convert`` is a function of the text, a tuple of the accepted choices,
    or None for a switch, which takes no value and is True when given.  The
    default is the value itself, stored as it is when the flag is absent.
    """

    flag: str
    convert: Callable[[str], object] | tuple[str, ...] | None = str
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def metavar(self) -> str:
        if isinstance(self.convert, tuple):
            return "{" + ",".join(self.convert) + "}"
        return self.dest.upper()


class _Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    help: str
    options: dict[str, _Opt]  # by flag


def _command(run: Callable[[SimpleNamespace], int], help: str, *options: _Opt) -> _Command:
    return _Command(run, help, {opt.flag: opt for opt in options})


_COMMON = (
    _Opt("--field", _parse_field, Field.GF2, help="coefficient field, GF2 or Q (default GF2)"),
    _Opt("--output", ("json", "text"), "json", help="output format (default json)"),
)
_CODE_IN = (
    _Opt("--n", int, help="neuron count for inline codes"),
    _Opt("--code", help="inline code: comma-separated codewords"),
    _Opt("--input", help="code file (first line n=<int>); '-' is stdin"),
    _Opt("--form", ("set", "word", "binary"), "word", help="codeword notation (default word)"),
)
_COMMANDS = {
    "analyze": _command(_cmd_analyze, "facets, homology, mandatory sets, ideals",
                        *_COMMON, *_CODE_IN),
    "mh": _command(_cmd_mh, "homologically mandatory faces", *_COMMON, *_CODE_IN),
    "cmin": _command(_cmd_cmin, "certified mandatory partition", *_COMMON, *_CODE_IN),
    "homology": _command(_cmd_homology, "reduced homology of the code's complex",
                         *_COMMON, *_CODE_IN),
    "link": _command(_cmd_link, "link of a face", *_COMMON, *_CODE_IN,
                     _Opt("--sigma", required=True, help="face, written in --form")),
    "dual": _command(_cmd_dual, "Alexander-dual complex and ideals", *_COMMON, *_CODE_IN),
    "map": _command(
        _cmd_map, "apply an elementary code map", *_COMMON, *_CODE_IN,
        _Opt("--op", ("permute", "add-on", "add-off", "duplicate", "project", "include"),
             required=True, help="the map to apply"),
        _Opt("--gamma", help="permutation as comma-separated images, e.g. 2,1,3"),
        _Opt("--source", int, help="neuron to duplicate (default 1)"),
        _Opt("--delete", int, help="neuron to project away"),
        _Opt("--target", help="inclusion target code (inline)"),
        _Opt("--target-n", int, help="inclusion target neuron count"),
    ),
    "verify": _command(
        _cmd_verify, "check the preservation theorems", *_COMMON, *_CODE_IN,
        _Opt("--theorem", tuple(sorted(_THEOREM_FLAGS)), "all",
             help="theorem to check (default all)"),
        _Opt("--gamma", help="specific permutation to check"),
        _Opt("--source", int, help="neuron to duplicate (default 1)"),
        _Opt("--delete", int, help="neuron to project away (default each in turn)"),
        _Opt("--exhaustive", None, False,
             help="all codes on --n neurons (n <= 4); each distinct complex is verified once"),
        _Opt("--samples", int, 0, help="number of random codes"),
        _Opt("--seed", int, help="sampled suites only (default 0)"),
        _Opt("--density", float, help="sampled suites only (default 0.3)"),
        _Opt("--jobs", int,
             help="worker processes for suites, capped at the CPU count (default 1)"),
        _Opt("--summary", None, False, help="print only the aggregate result"),
    ),
    "random": _command(
        _cmd_random, "generate reproducible random codes", *_COMMON,
        _Opt("--n", int, required=True, help="neuron count"),
        _Opt("--seed", int, 0, help="random seed (default 0)"),
        _Opt("--count", int, 1, help="number of codes (default 1)"),
        _Opt("--density", float, 0.3, help="chance that a neuron fires in a word (default 0.3)"),
    ),
}
_HELP = ("-h", "--help")  # every command takes these; -h is the one short flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, flags: Sequence[str]) -> tuple[str | None, str | None] | None:
    """How ``arg`` reads against ``flags``: None for a value, else the flag and
    the text after ``=`` (or after ``-h``), with flag None for an unknown option.

    A flag matches exactly or by a unique prefix; a prefix of two flags is an
    error.  Negative numbers, a lone ``-`` and text with a space are values.
    """
    if not arg.startswith("-"):
        return None
    if arg in flags:
        return arg, None
    if len(arg) == 1:
        return None
    head, eq, text = arg.partition("=")
    if eq and head in flags:
        return head, text
    if arg[1] == "-":
        matches = [flag for flag in flags if flag.startswith(head)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], text if eq else None
    elif arg[:2] in flags:
        return arg[:2], arg[2:]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _convert(opt: _Opt, text: str) -> object:
    if isinstance(opt.convert, tuple):
        if text not in opt.convert:
            choices = ", ".join(map(repr, opt.convert))
            raise _UsageError(f"argument {opt.flag}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return opt.convert(text)
    except _UsageError as exc:
        raise _UsageError(f"argument {opt.flag}: {exc}") from None
    except (TypeError, ValueError):
        raise _UsageError(f"argument {opt.flag}: invalid {opt.convert.__name__} "
                          f"value: {text!r}") from None


def _check_help(flag: str, text: str | None) -> None:
    """Reject text after a help flag, except more h's after ``-h``."""
    if text is not None and (flag == "--help" or not text or text.strip("h")):
        raise _UsageError(f"argument -h/--help: ignored explicit argument {text!r}")


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: obstrukt [-h] {" + ",".join(_COMMANDS) + "} ..."
    required = " ".join(f"{opt.flag} {opt.metavar}"
                        for opt in _COMMANDS[name].options.values() if opt.required)
    return " ".join(filter(None, (f"usage: obstrukt {name} [-h]", required, "[options]")))


def _help(name: str | None) -> str:
    if name is None:
        rows = [(cmd, spec.help) for cmd, spec in _COMMANDS.items()]
        intro, heading = "Convexity obstructions for neural codes.", "commands:"
        outro = "\n\nRun 'obstrukt COMMAND --help' for the options of a command."
    else:
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(opt.flag if opt.convert is None else f"{opt.flag} {opt.metavar}", opt.help)
                 for opt in _COMMANDS[name].options.values()]
        intro, heading, outro = _COMMANDS[name].help, "options:", ""
    width = min(max(len(left) for left, _ in rows), 22)  # a wider flag sits on its own line
    body = "\n".join(f"  {left:<{width}}  {right}".rstrip() if len(left) <= width
                     else f"  {left}\n  {'':<{width}}  {right}" for left, right in rows)
    return f"{_usage(name)}\n\n{intro}\n\n{heading}\n{body}{outro}"


def _parse_command(name: str, argv: list[str], extras: list[str]) -> SimpleNamespace:
    options = _COMMANDS[name].options
    flags = _HELP + tuple(options)
    # a "--" and all after it are left over: no option takes them
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(arg, flags) for arg in argv[:end]]
    values: dict[str, object] = {}
    i = 0
    while i < end:
        kind = kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            extras.append(argv[i - 1])
            continue
        flag, text = kind
        if flag in _HELP:
            _check_help(flag, text)
            print(_help(name))
            raise SystemExit(0)
        opt = options[flag]
        if opt.convert is None:
            if text is not None:
                raise _UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            values[opt.dest] = True
            continue
        if text is None:
            if i == end or kinds[i] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            text = argv[i]
            i += 1
        values[opt.dest] = _convert(opt, text)
    missing = []
    for opt in options.values():
        if opt.dest in values:
            continue
        if opt.required:
            missing.append(opt.flag)
        else:
            values[opt.dest] = opt.default
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    extras += argv[end:]
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, **values)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read a command line into its command's values, with ``command`` naming it.

    Help goes to stdout and exits 0; a command line that no command takes
    prints a usage line and the error to stderr and exits 2.
    """
    argv = list(argv)
    name = None  # once known, usage and errors name the command
    try:
        extras: list[str] = []  # unknown options before the command
        for i, arg in enumerate(argv):
            kind = None if arg == "--" else _option(arg, _HELP)
            if kind is None:
                break
            if kind[0] is None:
                extras.append(arg)
                continue
            _check_help(*kind)
            print(_help(None))
            raise SystemExit(0)
        else:
            raise _UsageError("the following arguments are required: command")
        if arg not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            raise _UsageError(f"argument command: invalid choice: {arg!r} (choose from {choices})")
        name = arg
        return _parse_command(name, argv[i + 1:], extras)
    except _UsageError as exc:
        prog = "obstrukt" if name is None else f"obstrukt {name}"
        print(f"{_usage(name)}\n{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        status = _COMMANDS[args.command].run(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader has gone.  Point stdout at /dev/null, so that flushing
        # it at exit reports nothing, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _SIGPIPE_STATUS
    except MalformedText as exc:
        where = ""
        if exc.line is not None:
            where = f"line {exc.line}"
            if exc.column is not None:
                where += f", column {exc.column}"
            where = f" ({where})"
        print(f"obstrukt: input error{where}: {exc}", file=sys.stderr)
        return 2
    except ObstruktError as exc:
        print(f"obstrukt: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
