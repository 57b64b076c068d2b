"""Command-line front end.

Input codes come inline (``--code "123,24,2"``) or from a file whose first
line is ``n=<int>`` followed by one codeword per line (``-`` reads stdin).
JSON output is the machine interface and is byte-stable for fixed inputs and
seeds; text output is for people.  Exit status: 0 success, 1 a verification
suite found a theorem violation, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, Sequence

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
from .complexes import code_complex, complex_to_json, dual_complex, link
from .errors import MalformedText, ObstruktError
from .homology import Field, reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import alexander_dual, sr_ideal
from .mandatory import analysis_json_dict, mandatory_set
from .suites import ALL_THEOREMS, code_reports, run_exhaustive, run_sampled, sampled_codes

_THEOREM_FLAGS = {t.replace("_", "-"): t for t in ALL_THEOREMS} | {"all": "all"}
# the flags that name the code and the maps of a single-code verify
_CODE_FLAGS = ("code", "input", "gamma", "source", "delete")
# the flags each map op takes; no other op accepts them
_MAP_FLAGS = {"permute": ("gamma",), "duplicate": ("source",), "project": ("delete",),
              "include": ("target", "target_n")}


def _default_field() -> str:
    return os.environ.get("OBSTRUKT_FIELD", "GF2")


def _parse_field(name: str) -> Field:
    try:
        return Field(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown field {name!r}; use GF2 or Q") from None


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
    words = []
    for pos, chunk in _top_level_chunks(text):
        token = chunk.strip()
        if token:
            try:
                words.append(parse_codeword(token, form, n))
            except MalformedText as exc:
                col = pos + chunk.index(token) + (exc.column or 1)
                raise MalformedText(f"{exc} (inline code)", line=1, column=col) from exc
    return NeuralCode(n, frozenset(words))


def _code_from_file(path: str, form: NotationForm) -> NeuralCode:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or not lines[0].strip().startswith("n="):
        raise MalformedText("first line must declare the neuron count, e.g. n=4", line=1, column=1)
    try:
        n = int(lines[0].strip()[2:])
    except ValueError:
        raise MalformedText(f"bad neuron count {lines[0].strip()!r}", line=1, column=3)
    words = []
    for ln, raw in enumerate(lines[1:], start=2):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        try:
            words.append(parse_codeword(token, form, n))
        except MalformedText as exc:
            exc.line = ln
            raise
        except ObstruktError as exc:
            raise MalformedText(f"{exc}", line=ln, column=1) from exc
    return NeuralCode(n, frozenset(words))


def _load_code(args: argparse.Namespace) -> NeuralCode:
    form = NotationForm(args.form)
    if args.input is not None:
        return _code_from_file(args.input, form)
    if args.code is None:
        raise MalformedText("provide --code or --input")
    if args.n is None:
        raise MalformedText("--code needs --n")
    return _code_from_inline(args.code, form, args.n)


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    payload: dict = {
        "n": code.n,
        "code": binaries(code.words),
        "facets": binaries(K.facet_index()),
    }
    if K.is_void:
        payload["void"] = True
        _emit(args, payload, ["empty code: void complex"])
        return 0
    payload["homology"] = core_homology(K, args.field).to_json_dict()
    payload.update(analysis_json_dict(K, args.field))
    payload["sr_ideal"] = sr_ideal(K).to_lists()
    payload["dual_complex_facets"] = binaries(dual_complex(K).facet_index())
    lines = [
        f"code on {code.n} neurons with {len(code.words)} words",
        "facets: " + " ".join(payload["facets"]),
        "homology dims: " + json.dumps(payload["homology"]["dims"]),
        "mandatory (homological): " + " ".join(payload["mh"]),
        "mandatory certified in: " + " ".join(payload["cmin_in"]),
        "certified out: " + " ".join(payload["cmin_out"]),
        "unknown: " + " ".join(payload["cmin_unknown"]),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_mh(args: argparse.Namespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    mh = mandatory_set(K, args.field)
    _emit(args, {"mh": mh.binaries()}, ["M_H: " + " ".join(mh.binaries())])
    return 0


def _cmd_cmin(args: argparse.Namespace) -> int:
    code = _load_code(args)
    payload = analysis_json_dict(code_complex(code), args.field)
    lines = [
        "certified in: " + " ".join(payload["cmin_in"]),
        "certified out: " + " ".join(payload["cmin_out"]),
        "unknown: " + " ".join(payload["cmin_unknown"]),
        "complex verdict: " + payload["complex_verdict"],
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    code = _load_code(args)
    profile = core_homology(code_complex(code), args.field)
    payload = profile.to_json_dict()
    _emit(args, payload, ["homology dims: " + json.dumps(payload["dims"])])
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    code = _load_code(args)
    form = NotationForm(args.form)
    K = code_complex(code)
    sigma = parse_codeword(args.sigma, form, code.n)
    L = link(K, sigma)
    payload = json.loads(complex_to_json(L))
    payload["faces"] = binaries(L.faces())
    _emit(args, payload, ["link facets: " + " ".join(payload["facets"])])
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    code = _load_code(args)
    K = code_complex(code)
    dual = dual_complex(K)
    ideal = sr_ideal(K)
    payload = {
        "dual_complex": json.loads(complex_to_json(dual)),
        "sr_ideal": ideal.to_lists(),
        "dual_ideal": alexander_dual(ideal).to_lists() if not ideal.is_zero else [],
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


def _stray(args: argparse.Namespace, names) -> str:
    """Those of the named flags that were given, spelled as on the command line."""
    return ", ".join(f"--{name.replace('_', '-')}" for name in names
                     if getattr(args, name) not in (None, False))


def _cmd_map(args: argparse.Namespace) -> int:
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
    payload = {"n": image.n, "words": binaries(image.words)}
    _emit(args, payload, ["image: " + " ".join(payload["words"])])
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    if args.n is None:
        raise MalformedText("random needs --n")
    if args.count < 0:
        raise MalformedText(f"--count must be at least 0, got {args.count}")
    for c in sampled_codes(args.n, args.count, args.seed, args.density):
        text = " ".join(binaries(c.words)) or "(empty)"
        print(code_to_json(c) if args.output == "json" else text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
    if args.exhaustive or args.samples:
        if args.n is None:
            raise MalformedText("suite mode needs --n")
        # seed, density and jobs that are not given take the suite's defaults
        given = {k: getattr(args, k) for k in ("seed", "density", "jobs")
                 if getattr(args, k) is not None}
        write = None if args.summary else print
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstrukt",
        description="Convexity obstructions for neural codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=_default_field(), type=_parse_field,
                        metavar="{GF2,Q}",
                        help="coefficient field (env OBSTRUKT_FIELD overrides the default)")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MalformedText as exc:
        where = ""
        if exc.line is not None:
            where = f"line {exc.line}"
            if exc.column is not None:
                where += f", column {exc.column}"
            where = f" ({where})"
        print(f"obstrukt: input error{where}: {exc}", file=sys.stderr)
        return 2
    except (ObstruktError, OSError, ValueError) as exc:
        print(f"obstrukt: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
