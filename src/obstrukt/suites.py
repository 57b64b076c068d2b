"""Suite runner: the elementary-map theorems over many codes at once.

Exhaustive mode enumerates every code on n neurons (each set of nonempty
codewords, with and without the empty word); sampled mode draws seeded random
codes.  Every check depends on a code only through its complex (or on the
code being empty), so a suite verifies each distinct complex once, building
it once for all its instances (``code_reports``), keeps its holds, partial
and violated counts, and adds them to three running totals for each code
that shares it.  An exhaustive code is read as a bitset over the nonempty
words: its facets are the words of the bitset with no strict superset in
it, and its words are read off the text tables of ``binaries`` in printed
order, only when a line or a violation needs them.  A
complex's reports are rendered once, as the text of each line before and
after its ``code`` value (``VerificationReport.line_halves``), and only when
lines are written or the report is violated.  The complex keeps the text
between the code slots of all its lines, and a code's lines are that text
joined by its own encoded words, written in one call; a violated report is
decoded from its line with the code spliced in.
Codes are read in windows (one code serially, 64 per worker with a pool); a
window's new complexes are verified, then its lines stream out in instance
order.  Output is deterministic for fixed inputs.  ``multiprocessing`` (and
``pickle`` with it) is imported only when a run starts a pool, with more
than one job after the CPU cap, so importing this module and running
serially never load either.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import random
from typing import Callable, Iterable, Iterator, Sequence

from .codes import _TEXTS, NeuralCode, _Record, binaries
from .codemaps import (
    THEOREMS,
    AddTrivialOff,
    AddTrivialOn,
    Duplicate,
    Outcome,
    Permute,
    Project,
    VerificationReport,
    _verify,
)
from .complexes import code_complex
from .errors import NeuronOutOfRange
from .homology import Field
from .ideals import permutation_tuple
from .randgen import random_code

ALL_THEOREMS = tuple(THEOREMS)

MAX_EXHAUSTIVE_N = 4  # n = 5 would mean 2^32 codes
MAX_SYMMETRIC_N = 8  # 8! = 40,320 permutations per check
_WINDOW = 64  # codes read ahead per pool worker
# Keys whose reports a run keeps: above the 168 complexes of an exhaustive
# n = 4 suite, so an exhaustive key is verified once.  Sampled keys carry
# their code's own permutations and never recur, so clearing loses nothing.
_MAX_KEYS = 256
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


def _check_exhaustive_width(n: int) -> None:
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise NeuronOutOfRange(
            f"exhaustive codes enumerate 2^(2^n) codes; need 1 <= n <= {MAX_EXHAUSTIVE_N}, "
            f"got {n}; use --samples for larger n"
        )


def exhaustive_codes(n: int) -> Iterator[NeuralCode]:
    """Every code on n neurons: all sets of nonempty words, ∅ toggled both ways."""
    _check_exhaustive_width(n)
    top = (1 << n) - 1
    return (
        NeuralCode(n, [m for m in range(1, top + 1) if bits >> (m - 1) & 1] + empty)
        for bits in range(1 << top)
        for empty in ([], [0])
    )


def sampled_codes(n: int, count: int, seed: int, density: float = 0.3) -> Iterator[NeuralCode]:
    """``count`` reproducible codes, each drawn when it is read; code i uses
    child seed ``seed + i``."""
    return (random_code(n, seed + i, density) for i in range(count))


def code_reports(
    code: NeuralCode,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    gammas: Sequence[tuple[int, ...]] | None = None,
    source: int = 1,
    delete: int | None = None,
) -> list[VerificationReport]:
    """All requested theorem instances for one code, in ``THEOREMS`` order.

    ``gammas=None`` checks every permutation of 1..n, and ``delete=None``
    projects away each neuron in turn (none when n = 1).  ``gammas``,
    ``source`` and ``delete`` are checked whichever theorems are chosen, before
    any instance runs.  The code's complex is built once and every instance
    reads it; the duplicate and projection instances decide their link laws
    on the facets and list no face unless a law fails.
    """
    n = code.n
    for name, neuron in (("source", source), ("delete", delete)):
        if neuron is not None and not 1 <= neuron <= n:
            raise NeuronOutOfRange(f"--{name} {neuron} outside 1..{n}")
    for gamma in gammas or ():
        permutation_tuple(gamma, n)
    if delete is None:
        deletes = range(1, n + 1) if n >= 2 else ()
    else:
        deletes = (delete,)
    K = code_complex(code)
    steps = {
        "permutation": lambda: map(Permute, symmetric_group(n) if gammas is None else gammas),
        "add_trivial_on": lambda: (AddTrivialOn(),),
        "add_trivial_off": lambda: (AddTrivialOff(),),
        "duplicate": lambda: (Duplicate(source),),
        "projection": lambda: map(Project, deletes),
    }
    return [_verify(theorem, code, K, step, fld)
            for theorem in THEOREMS if theorem in theorems for step in steps[theorem]()]


class SuiteResult(_Record):
    """A suite's verdict tally over every instance, and the JSON object of
    each violated report.  Unlike the value types it is mutable, and so
    unhashable."""

    _fields = ("instances", "holds", "partial", "violated", "violations")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, instances: int = 0, holds: int = 0, partial: int = 0, violated: int = 0,
                 violations: list[dict] | None = None) -> None:
        self.instances = instances
        self.holds = holds
        self.partial = partial
        self.violated = violated
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return self.violated == 0

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def _run_one(key: tuple, lines: bool = True) -> list[tuple[str, tuple[str, str] | None]]:
    """Each report of a key's instances as its verdict and the text of its
    line before and after the code, rendered only when ``lines`` asks for
    every line or the report is violated."""
    n, facets, fld, theorems, gammas = key
    code = NeuralCode(n, facets)
    return [(r.verdict.value, r.line_halves() if lines or r.verdict is Outcome.VIOLATED else None)
            for r in code_reports(code, fld, theorems=theorems, gammas=gammas)]


def _segments(halves: list[tuple[str, str]]) -> list[str]:
    """The text of a key's lines around their code slots, newlines included,
    so that a code's lines are ``code_json.join(segments)``; none when the
    key has no instances."""
    segments, tail = [], ""
    for head, after in halves:
        segments.append(tail + head)
        tail = after + "\n"
    return segments + [tail] if segments else []


def run_suite(
    codes: Iterable[NeuralCode],
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    gammas_per_code: int | None = None,
    gamma_seed: int = 0,
    write: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Run the theorem suite over many codes.

    ``gammas_per_code=None`` uses the whole symmetric group (exhaustive mode);
    an integer draws that many seeded permutations per code instead.  Codes
    that share a task key (their complex and the maps to check) are verified
    once, on the code made of the complex's facets, and each code adds its
    key's verdict counts to the suite's totals.  ``write`` receives each code's
    JSON lines, newline-terminated, as one string per code, in instance
    order; with ``write=None`` no line is written.
    Codes are keyed by ``_keyed`` and run by ``_run``, which
    ``run_exhaustive`` shares.  ``jobs`` is capped at the CPU count; output
    does not depend on it.
    """
    return _run(_keyed(codes, fld, theorems, gammas_per_code, gamma_seed), jobs, write)


def _run(
    keyed: Iterator[tuple[Callable[[], list[str]], tuple]],
    jobs: int,
    write: Callable[[str], None] | None,
) -> SuiteResult:
    """The suite over (words, key) pairs in instance order, where ``words()``
    gives a code's sorted binaries and is called only for written lines or
    a violation.

    A key keeps the text of its lines between their ``code`` values
    (``_segments``); a code's lines are that text joined by the code's
    binaries, encoded once per code, and go to ``write`` in one call.  A
    violated report is decoded from its line with the code spliced in.
    Codes are read in windows, one at a time serially and ``_WINDOW * jobs``
    with a pool: the window's unseen keys are verified, then each code adds
    its key's holds, partial and violated counts to the running totals and
    its lines are written, so nothing is kept per code.  Once more than
    ``_MAX_KEYS`` keys are kept they are dropped, since no count is owed to
    them.  The ``SuiteResult`` is built from the totals at the end.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    # key -> (its lines' text around the code slots, [] when nothing is
    # written; its holds, partial and violated counts; each violated
    # report's line halves)
    verified: dict[tuple, tuple[list[str], tuple[int, int, int], list[tuple[str, str]]]] = {}
    holds = partial = violated = 0
    violations: list[dict] = []
    run_one = functools.partial(_run_one, lines=write is not None)
    if jobs > 1:
        import multiprocessing  # a serial run never loads it, nor pickle with it
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        mapper = map if pool is None else functools.partial(pool.imap, chunksize=1)
        size = 1 if pool is None else _WINDOW * jobs
        while window := list(itertools.islice(keyed, size)):
            if len(verified) > _MAX_KEYS:
                verified.clear()
            fresh = {key: None for _, key in window if key not in verified}
            if fresh:
                for key, reports in zip(fresh, mapper(run_one, fresh)):
                    verdicts = [verdict for verdict, _ in reports]
                    verified[key] = (_segments([h for _, h in reports]) if write is not None else [],
                                     tuple(map(verdicts.count, (_HOLDS, _PARTIAL, _VIOLATED))),
                                     [h for verdict, h in reports if verdict == _VIOLATED])
            for words, key in window:
                segments, (h, p, v), halves = verified[key]
                holds, partial, violated = holds + h, partial + p, violated + v
                if not (halves or segments):
                    continue
                code = json.dumps(words())
                violations.extend(json.loads(head + code + tail) for head, tail in halves)
                if segments:
                    write(code.join(segments))
    return SuiteResult(holds + partial + violated, holds, partial, violated, violations)


def _keyed(
    codes: Iterable[NeuralCode],
    fld: Field,
    theorems: Sequence[str],
    gammas_per_code: int | None,
    gamma_seed: int,
) -> Iterator[tuple[Callable[[], list[str]], tuple]]:
    """Each code's sorted binaries (as a call that makes them) and task key,
    in instance order.

    The key leaves out what ``code_reports`` derives from n: the projection
    deletes and, when ``gammas`` is None, the whole symmetric group.
    """
    for idx, code in enumerate(codes):
        n = code.n
        gammas = None
        if gammas_per_code is not None and "permutation" in theorems:
            rng = random.Random(gamma_seed * 1_000_003 + idx)
            gammas = tuple(tuple(rng.sample(range(1, n + 1), n)) for _ in range(gammas_per_code))
        facets = tuple(sorted(code_complex(code).facet_bits))
        key = (n, facets, fld, tuple(theorems), gammas)
        yield functools.partial(binaries, code.masks, n), key


@functools.cache
def _word_tables(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
    """The tables that read an exhaustive code on n neurons off its bitset,
    in which nonempty word w is bit w - 1.

    ``above[w]`` is the bitset of w's strict supersets; ``printed`` holds
    each word's bit and binary string, read from the tables that
    ``binaries`` prints from, in printed (sorted binary) order.
    """
    top = (1 << n) - 1
    above = [0] * (top + 1)
    for w in range(1, top + 1):
        for v in range(w + 1, top + 1):
            if v & w == w:
                above[w] |= 1 << (v - 1)
    printed = sorted((_TEXTS[n][w], w - 1) for w in range(1, top + 1))
    return tuple(above), tuple((bit, text) for text, bit in printed)


def _words(n: int, bits: int, empty: bool) -> list[str]:
    """The sorted binaries of the exhaustive code ``bits``, with ∅ when
    ``empty``; ∅'s all-zero string sorts first."""
    words = [text for bit, text in _word_tables(n)[1] if bits >> bit & 1]
    return ["0" * n, *words] if empty else words


def _exhaustive_keyed(
    n: int, fld: Field, theorems: Sequence[str]
) -> Iterator[tuple[Callable[[], list[str]], tuple]]:
    """``_keyed(exhaustive_codes(n), fld, theorems, None, 0)``, read from
    each code's bitset: its facets are the words with no strict superset in
    the code, which the twin with ∅ shares.  Alone, ∅ is the one facet of
    the code {∅}; the empty code has none."""
    above, _ = _word_tables(n)
    theorems = tuple(theorems)
    nonempty = range(1, 1 << n)
    for bits in range(1 << len(nonempty)):
        facets = tuple(w for w in nonempty if bits >> (w - 1) & 1 and not bits & above[w])
        yield functools.partial(_words, n, bits, False), (n, facets, fld, theorems, None)
        yield functools.partial(_words, n, bits, True), (n, facets or (0,), fld, theorems, None)


def run_exhaustive(
    n: int,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    write: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Every code on n neurons (``exhaustive_codes``), keyed from bitsets."""
    _check_exhaustive_width(n)
    return _run(_exhaustive_keyed(n, fld, theorems), jobs, write)


def run_sampled(
    n: int,
    count: int,
    seed: int = 0,
    density: float = 0.3,
    fld: Field = Field.GF2,
    theorems: Sequence[str] = ALL_THEOREMS,
    jobs: int = 1,
    write: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Sampled suite: two seeded permutations per code stand in for S_n."""
    return run_suite(
        sampled_codes(n, count, seed, density),
        fld,
        theorems=theorems,
        jobs=jobs,
        gammas_per_code=2,
        gamma_seed=seed,
        write=write,
    )
