"""Seeded op pools for the three benchmark workloads, and the output checks.

An op is one CLI invocation, described only by its argv: the program sees
nothing of the benchmark seed.  A pool is small enough for a run to go
through it several times, and holds every size class a fixed number of
times, so two seeds load the layers in the same proportions and differ only
in the codes drawn.  The checks are plain Python over the printed JSON and
share no code with the engine they check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Sequence

WORKLOADS = ("exhaustive_n3", "sampled_n8", "cli_analyze")

# 2^7 sets of nonempty words on 3 neurons, each with and without ∅, times
# 6 permutations + trivial on + trivial off + duplicate + 3 projections.
EXHAUSTIVE_N3_INSTANCES = 256 * 12
# Per sampled n=8 code: 2 permutations + on + off + duplicate + 8 projections.
SAMPLED_N8_PER_CODE = 13

# Codes per pool by the shape of their complex: the full simplex, at most
# FEW_FACETS facets, more facets.  Cost rises from one class to the next.
SAMPLED_MIX = {"full": 8, "few": 4, "many": 28}
FEW_FACETS = 6
SAMPLED_CANDIDATES = 200
SPARSE_NS = (9, 10, 11, 12)
DENSE_NS = (7, 8, 9)
DUAL_NS = (9, 9, 9, 9, 10, 10, 10, 10, 10, 11, 11, 12, 12, 12)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must look like."""

    argv: tuple[str, ...]
    kind: str  # "suite", "analyze" or "dual"
    work: int  # verification instances for suites, 1 for a request
    n: int = 0
    words: tuple[str, ...] = ()  # input code as binary strings (analyze/dual)
    field: str = "GF2"


Pool = tuple[Op, ...]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def exhaustive_n3(seed: int) -> Pool:
    fields = ["GF2", "Q"]
    _rng("exhaustive_n3", seed).shuffle(fields)
    return tuple(
        Op(("verify", "--theorem", "all", "--exhaustive", "--n", "3", "--field", f),
           "suite", EXHAUSTIVE_N3_INSTANCES, n=3, field=f)
        for f in fields
    )


def sampled_n8(seed: int, run_cli: Callable[[Sequence[str]], bytes]) -> Pool:
    """``verify --n 8 --samples 1 --seed s`` over 40 seeds s.

    At density 0.3 a code holds the word on all 8 neurons with probability
    0.3, and then its complex is the full simplex, which costs about half as
    much as any other.  Among the others, codes with at most ``FEW_FACETS``
    facets cost 200-360 ms and the rest 350-600 ms.  Each pool takes a fixed
    number from each class (``SAMPLED_MIX``), so seeds differ in the codes
    drawn but not in that mix, and the median latency falls inside the
    costliest class rather than between two.
    """
    rng = _rng("sampled_n8", seed)
    base = rng.randrange(1_000_000)
    out = run_cli(["random", "--n", "8", "--seed", str(base), "--count", str(SAMPLED_CANDIDATES),
                   "--density", "0.3"])
    classes: dict[str, list[int]] = {name: [] for name in SAMPLED_MIX}
    for i, line in enumerate(out.splitlines()):
        words = json.loads(line)["words"]
        if "1" * 8 in words:
            name = "full"
        else:
            name = "few" if len(_maximal({_mask(w) for w in words})) <= FEW_FACETS else "many"
        classes[name].append(base + i)
    if any(len(classes[name]) < want for name, want in SAMPLED_MIX.items()):
        raise RuntimeError(f"{SAMPLED_CANDIDATES} candidate codes from seed {base} gave "
                           + ", ".join(f"{len(v)} {k}" for k, v in classes.items()))
    seeds = [s for name, want in SAMPLED_MIX.items() for s in classes[name][:want]]
    rng.shuffle(seeds)
    return tuple(
        Op(("verify", "--n", "8", "--samples", "1", "--seed", str(s), "--field", "GF2"),
           "suite", SAMPLED_N8_PER_CODE, n=8)
        for s in seeds
    )


def _binary(neurons: Sequence[int], n: int) -> str:
    return "".join("1" if i in neurons else "0" for i in range(1, n + 1))


def _sparse_code(rng: random.Random, n: int) -> tuple[str, ...]:
    """2-6 distinct words of 2-4 neurons on n neurons."""
    words: set[str] = set()
    want = rng.randint(2, 6)
    while len(words) < want:
        words.add(_binary(rng.sample(range(1, n + 1), rng.randint(2, 4)), n))
    return tuple(sorted(words))


def cli_analyze(seed: int, run_cli: Callable[[Sequence[str]], bytes]) -> Pool:
    """Alternating analyze/dual requests; analyze alternates GF2/Q.

    The 28 requests run every analyze class once over GF2 and once over Q,
    and 14 dual requests on sparse codes (a dual of a dense code on
    at most 9 neurons is too cheap to matter).  These counts put the median
    latency inside the n = 10 sparse class and p90 inside the n = 12 one,
    away from the gaps between classes.  Dense codes come from the program's
    own ``random`` command, one call per neuron count.
    """
    rng = _rng("cli_analyze", seed)
    analyze = [("sparse", n) for n in SPARSE_NS] + [("dense", n) for n in DENSE_NS]
    dual = [("sparse", n) for n in DUAL_NS]
    gf2, q, duals = list(analyze), list(analyze), list(dual)
    for lst in (gf2, q, duals):
        rng.shuffle(lst)
    slots = []
    for j, d in enumerate(duals):
        fld = "GF2" if j % 2 == 0 else "Q"
        slots.append(("analyze", fld, (gf2 if j % 2 == 0 else q)[j // 2]))
        slots.append(("dual", fld, d))

    dense_codes: dict[int, list[tuple[str, ...]]] = {}
    for n in DENSE_NS:
        count = sum(1 for _, _, c in slots if c == ("dense", n))
        out = run_cli(["random", "--n", str(n), "--seed", str(rng.randrange(1_000_000)),
                       "--count", str(count), "--density", "0.3"])
        dense_codes[n] = [tuple(json.loads(line)["words"]) for line in out.splitlines()]
        if len(dense_codes[n]) != count:
            raise RuntimeError(f"random --n {n} returned {len(dense_codes[n])} codes, not {count}")

    ops = []
    for cmd, fld, (family, n) in slots:
        words = _sparse_code(rng, n) if family == "sparse" else dense_codes[n].pop()
        ops.append(Op((cmd, "--n", str(n), "--form", "binary", "--code", ",".join(words),
                       "--field", fld), cmd, 1, n=n, words=words, field=fld))
    return tuple(ops)


def make_pool(workload: str, seed: int, run_cli: Callable[[Sequence[str]], bytes]) -> Pool:
    if workload == "exhaustive_n3":
        return exhaustive_n3(seed)
    if workload == "sampled_n8":
        return sampled_n8(seed, run_cli)
    if workload == "cli_analyze":
        return cli_analyze(seed, run_cli)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---- output checks ---------------------------------------------------------


class CheckFailed(Exception):
    pass


@dataclass
class Verdicts:
    """What an op certified: partial/instances for suites, unknown/faces for analyze."""

    uncertified: int = 0
    total: int = 0


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _mask(binary: str) -> int:
    return sum(1 << i for i, ch in enumerate(binary) if ch == "1")


def _bin(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def _maximal(masks: set[int]) -> set[int]:
    return {m for m in masks if not any(m != v and m & ~v == 0 for v in masks)}


def _closure(facets: set[int]) -> set[int]:
    faces: set[int] = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def _neurons_mask(neurons: Sequence[int]) -> int:
    return sum(1 << (i - 1) for i in neurons)


def _check_sr(gens: list[list[int]], faces: set[int], n: int) -> list[int]:
    """The generators must be exactly the minimal non-faces."""
    masks = [_neurons_mask(g) for g in gens]
    for g in masks:
        _require(g not in faces, "an sr_ideal generator is a face")
        rest = g
        while rest:
            low = rest & -rest
            _require(g ^ low in faces, "an sr_ideal generator is not a minimal non-face")
            rest ^= low
    for m in range(1 << n):
        if m not in faces:
            _require(any(g & ~m == 0 for g in masks), "a non-face contains no sr_ideal generator")
    return masks


def check_suite(op: Op, out: str) -> Verdicts:
    lines = out.splitlines()
    _require(bool(lines), "no output")
    summary = json.loads(lines[-1])
    _require(summary["instances"] == op.work,
             f"{summary['instances']} instances, expected {op.work}")
    _require(len(lines) - 1 == op.work, f"{len(lines) - 1} instance lines, expected {op.work}")
    _require(summary["violated"] == 0, f"{summary['violated']} violated instances")
    counts = {"holds": 0, "partial": 0, "violated": 0}
    for line in lines[:-1]:
        d = json.loads(line)
        counts[d["verdict"]] += 1
        _require(d["field"] == op.field, "instance field differs from the request")
    _require(counts == {k: summary[k] for k in counts}, "summary disagrees with the instance lines")
    return Verdicts(summary["partial"], summary["instances"])


def check_analyze(op: Op, out: str) -> Verdicts:
    d = json.loads(out)
    n = op.n
    code = {_mask(w) for w in op.words}
    facets = _maximal(code)
    faces = _closure(facets)
    _require(d["n"] == n and d["code"] == sorted(op.words), "input code not echoed")
    _require(d["field"] == op.field, "field differs from the request")
    _require(d["facets"] == sorted(_bin(f, n) for f in facets), "facets are not the maximal words")
    cin, cout, unk = (set(d[k]) for k in ("cmin_in", "cmin_out", "cmin_unknown"))
    _require(set(d["mh"]) <= cin, "mh is not contained in cmin_in")
    _require(len(cin) + len(cout) + len(unk) == len(cin | cout | unk), "cmin parts overlap")
    _require(cin | cout | unk == {_bin(f, n) for f in faces}, "cmin parts do not cover the faces")
    gens = _check_sr(d["sr_ideal"], faces, n)
    top = (1 << n) - 1
    _require(d["dual_complex_facets"] == sorted(_bin(top ^ g, n) for g in gens),
             "dual-complex facets are not the complements of the sr_ideal generators")
    return Verdicts(len(unk), len(faces))


def check_dual(op: Op, out: str) -> Verdicts:
    d = json.loads(out)
    n = op.n
    facets = _maximal({_mask(w) for w in op.words})
    gens = _check_sr(d["sr_ideal"], _closure(facets), n)
    top = (1 << n) - 1
    _require(d["dual_complex"] == {"n": n, "facets": sorted(_bin(top ^ g, n) for g in gens)},
             "dual-complex facets are not the complements of the sr_ideal generators")
    # The Alexander dual of the Stanley-Reisner ideal is generated by the
    # complements of the facets.
    expect = sorted(sorted(i + 1 for i in range(n) if (top ^ f) >> i & 1) for f in facets)
    _require(d["dual_ideal"] == (expect if gens else []),
             "dual ideal is not generated by the facet complements")
    return Verdicts()


CHECKS = {"suite": check_suite, "analyze": check_analyze, "dual": check_dual}


def check(op: Op, out: bytes) -> Verdicts:
    """Raise CheckFailed unless ``out`` is a correct answer to ``op``."""
    try:
        return CHECKS[op.kind](op, out.decode("utf-8"))
    except CheckFailed:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
