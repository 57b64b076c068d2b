"""Suite runner: the elementary-map theorems over many codes at once.

Exhaustive mode enumerates every code on n neurons (each set of nonempty
codewords, with and without the empty word); sampled mode draws seeded random
codes.  Every check depends on a code only through its complex (or on the
code being empty), so a suite verifies each distinct complex once and gives
each code a copy of those reports with its own ``code`` field; a summary
copies only violated reports and counts the others once per complex.  The
distinct complexes fan out over a worker pool and results aggregate in
instance order, so output is deterministic for fixed inputs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .codes import NeuralCode
from .codemaps import (
    Outcome,
    VerificationReport,
    verify_add_trivial_off,
    verify_add_trivial_on,
    verify_duplicate,
    verify_permutation,
    verify_projection,
)
from .complexes import code_complex
from .errors import NeuronOutOfRange
from .homology import Field
from .randgen import random_code

ALL_THEOREMS = ("permutation", "add_trivial_on", "add_trivial_off", "duplicate", "projection")

MAX_EXHAUSTIVE_N = 4  # n = 5 would mean 2^32 codes
MAX_SYMMETRIC_N = 8  # 8! = 40,320 permutations per check
_HOLDS, _PARTIAL, _VIOLATED = Outcome.HOLDS.value, Outcome.PARTIAL.value, Outcome.VIOLATED.value


@functools.cache
def symmetric_group(n: int) -> tuple[tuple[int, ...], ...]:
    """Every permutation of 1..n, built once per width.

    Raises ``NeuronOutOfRange`` above n = 8, where checking every
    permutation stops finishing in seconds.
    """
    if n > MAX_SYMMETRIC_N:
        raise NeuronOutOfRange(
            f"checking all {n}! permutations is capped at n = {MAX_SYMMETRIC_N}; "
            "name one permutation with --gamma"
        )
    return tuple(itertools.permutations(range(1, n + 1)))


def exhaustive_codes(n: int) -> Iterator[NeuralCode]:
    """Every code on n neurons: all sets of nonempty words, ∅ toggled both ways."""
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise NeuronOutOfRange(
            f"exhaustive codes enumerate 2^(2^n) codes; need 1 <= n <= {MAX_EXHAUSTIVE_N}, got {n}"
        )
    top = (1 << n) - 1
    return (
        NeuralCode.from_masks(n, [m for m in range(1, top + 1) if bits >> (m - 1) & 1] + empty)
        for bits in range(1 << top)
        for empty in ([], [0])
    )


def sampled_codes(n: int, count: int, seed: int, density: float = 0.3) -> list[NeuralCode]:
    """``count`` reproducible codes; code i uses child seed ``seed + i``."""
    return [random_code(n, seed + i, density) for i in range(count)]


def code_reports(
    code: NeuralCode,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    gammas: Sequence[tuple[int, ...]] | None = None,
    duplicate_sources: Sequence[int] = (1,),
    projection_deletes: Sequence[int] | None = None,
) -> list[VerificationReport]:
    """All requested theorem instances for one code, in a fixed order."""
    n = code.n
    if projection_deletes is None:
        projection_deletes = tuple(range(1, n + 1)) if n >= 2 else ()
    reports: list[VerificationReport] = []
    if "permutation" in theorems:
        if gammas is None:
            gammas = symmetric_group(n)
        reports.extend(verify_permutation(code, g, fld) for g in gammas)
    if "add_trivial_on" in theorems:
        reports.append(verify_add_trivial_on(code, fld))
    if "add_trivial_off" in theorems:
        reports.append(verify_add_trivial_off(code, fld))
    if "duplicate" in theorems:
        reports.extend(verify_duplicate(code, s, fld) for s in duplicate_sources)
    if "projection" in theorems:
        reports.extend(verify_projection(code, d, fld) for d in projection_deletes)
    return reports


@dataclass
class SuiteResult:
    instances: int = 0
    holds: int = 0
    partial: int = 0
    violated: int = 0
    violations: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violated == 0

    def to_json_dict(self) -> dict:
        return {
            "instances": self.instances,
            "holds": self.holds,
            "partial": self.partial,
            "violated": self.violated,
            "violations": self.violations,
        }


def _sample_gammas(n: int, rng: random.Random, count: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.sample(range(1, n + 1), n)) for _ in range(count))


def _run_one(args: tuple) -> list[dict]:
    n, facets, field_name, theorems, gammas, dup_sources, deletes = args
    code = NeuralCode.from_masks(n, facets)
    fld = Field.from_name(field_name)
    reports = code_reports(
        code,
        fld,
        theorems=theorems,
        gammas=gammas,
        duplicate_sources=dup_sources,
        projection_deletes=deletes,
    )
    return [r.to_json_dict() for r in reports]


def run_suite(
    codes: Iterable[NeuralCode],
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    gammas_per_code: int | None = None,
    gamma_seed: int = 0,
    duplicate_sources: Sequence[int] = (1,),
    keep_lines: bool = False,
) -> SuiteResult:
    """Run the theorem suite over many codes.

    ``gammas_per_code=None`` uses the whole symmetric group (exhaustive mode);
    an integer draws that many seeded permutations per code instead.  Codes
    that share a task key (their complex and the maps to check) are verified
    once, on the code made of the complex's facets.  Serially each key is
    verified when first met, so nothing is kept per code; a pool first
    collects the distinct keys.
    """
    tasks: dict[tuple, int] = {}  # each distinct key and its position
    reports: list[list[dict]] = []  # the report dicts of each key
    violated: list[list[dict]] = []  # the violated ones among them

    def verified(key: tuple) -> int:
        i = tasks.get(key)
        if i is None:
            i = tasks[key] = len(reports)
            reports.append(_run_one(key))
            violated.append([d for d in reports[i] if d["verdict"] == _VIOLATED])
        return i

    keyed = _keyed(codes, fld, theorems, gammas_per_code, gamma_seed, duplicate_sources)
    if jobs > 1:
        keyed = [(binaries, tasks.setdefault(key, len(tasks))) for binaries, key in keyed]
        if len(tasks) > 1:
            with multiprocessing.Pool(jobs) as pool:
                chunksize = max(1, len(tasks) // (jobs * 8))
                reports = list(pool.imap(_run_one, tasks, chunksize=chunksize))
        else:
            reports = [_run_one(task) for task in tasks]
        violated = [[d for d in ds if d["verdict"] == _VIOLATED] for ds in reports]
    else:
        keyed = ((binaries, verified(key)) for binaries, key in keyed)

    result = SuiteResult()
    if keep_lines:
        for binaries, i in keyed:
            _absorb(result, [dict(d, code=binaries) for d in reports[i]], keep_lines)
        return result
    # Without lines, verdicts are counted once per key, weighted by its codes.
    weights: collections.Counter[int] = collections.Counter()
    for binaries, i in keyed:
        weights[i] += 1
        if violated[i]:
            result.violations.extend(dict(d, code=binaries) for d in violated[i])
    for i, weight in weights.items():
        for d in reports[i]:
            _count(result, d["verdict"], weight)
    return result


def _keyed(
    codes: Iterable[NeuralCode],
    fld: Field,
    theorems: Sequence[str],
    gammas_per_code: int | None,
    gamma_seed: int,
    duplicate_sources: Sequence[int],
) -> Iterator[tuple[list[str], tuple]]:
    """Each code's sorted binaries and task key, in instance order."""
    for idx, code in enumerate(codes):
        n = code.n
        if "permutation" not in theorems:
            gammas = ()
        elif gammas_per_code is None:
            gammas = symmetric_group(n)
        else:
            rng = random.Random(gamma_seed * 1_000_003 + idx)
            gammas = _sample_gammas(n, rng, gammas_per_code)
        deletes = tuple(range(1, n + 1)) if n >= 2 else ()
        facets = tuple(sorted(code_complex(code).facet_bits))
        key = (n, facets, fld.value, tuple(theorems), gammas, tuple(duplicate_sources), deletes)
        yield sorted(w.binary() for w in code.words), key


def _count(result: SuiteResult, verdict: str, weight: int) -> bool:
    """Add ``weight`` instances of one verdict; true when it is a violation."""
    result.instances += weight
    if verdict == _HOLDS:
        result.holds += weight
    elif verdict == _PARTIAL:
        result.partial += weight
    else:
        result.violated += weight
        return True
    return False


def _absorb(result: SuiteResult, report_dicts: list[dict], keep_lines: bool) -> None:
    for d in report_dicts:
        if _count(result, d["verdict"], 1):
            result.violations.append(d)
        if keep_lines:
            result.lines.append(json.dumps(d))


def run_exhaustive(
    n: int,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    keep_lines: bool = False,
) -> SuiteResult:
    return run_suite(
        exhaustive_codes(n), fld, theorems=theorems, jobs=jobs, keep_lines=keep_lines
    )


def run_sampled(
    n: int,
    count: int,
    seed: int = 0,
    density: float = 0.3,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    gammas_per_code: int = 2,
    keep_lines: bool = False,
) -> SuiteResult:
    return run_suite(
        sampled_codes(n, count, seed, density),
        fld,
        theorems=theorems,
        jobs=jobs,
        gammas_per_code=gammas_per_code,
        gamma_seed=seed,
        keep_lines=keep_lines,
    )
