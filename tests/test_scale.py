"""``mh`` on wide codes: n = 64 with few, large facets.

The mandatory set is decided on the facet intersections alone, so its cost
follows the facets and not the 2^|F| faces under each.  Three one-line
inputs at n = 64 must each answer within 2 s: the all-ones word (the full
simplex), 8 random words of 16 neurons and 4 random words of 20 neurons.
Their answers are checked against the nerve of each link: the facets
F ∖ σ over σ cover lk σ by simplices, so lk σ has the homotopy type of
their nerve, a complex on at most 8 vertices.  Two digests pin bytes
printed before the facet-intersection rewrite: the full simplex at n = 16
and the 8 × 16 code.

A fourth input, 30 random words of 8 neurons, has a sparse core on many
vertices: ``mh`` and ``homology`` on it must answer within 2 s without a
Berge pass for the core's Alexander dual, and agree with plain ranks.
``cmin`` and ``analyze`` list every face, so on the full simplex at n = 64
they must refuse within 1 s, naming its face count; so must ``link``, whose
listing the kernel bounds too.  The link-law rows of ``verify`` list no
face unless a law fails, so they must answer the all-ones word within 1 s
at every width up to 64 (63 for a duplicate).  A sweep runs every command
on the all-ones word at each n that is listed quickly or refused, and each
run must end, with status 0 or 2, within 1 s.  Every timed case but the
sweep starts with empty memos, as a fresh process does.
"""

import hashlib
import itertools
import json
import signal
import time
from contextlib import contextmanager
from functools import reduce
from operator import and_

import pytest

from obstrukt import (Duplicate, Field, Project, SimplicialComplex, collapse, image_complex,
                      mandatory_partition, reduced_homology, suites)
from obstrukt.cli import main
from obstrukt.codes import binaries
from obstrukt.complexes import MAX_LISTED_FACES, face_count

from conftest import ref_link_law_failures

WIDE_CODES = {
    "all_ones": ["1" * 64],
    "8x16": [
        "0001011000001100010110011010001000000010000000000010000001000010",
        "0010000011010001000010010001000100000001000000011011000100000010",
        "1000000000010000001000010001110000100111001000010000000000110100",
        "0000001000000000101100010000000010000010001110000011011000001001",
        "0000000010000110000011011000010000001101000000010000000100100011",
        "0000101100000010100000001001010000010001010000100010001010000100",
        "0010011000001100000000101001010000000001010000011000010000000101",
        "1001100101000000100000100010000010001000010001000100000000111000",
    ],
    "4x20": [
        "0101001110000000010010010100000101000001011100001011000100000010",
        "0000001101010001110001000001001100000000001100000010100101001011",
        "1110010011000100010100000100000011010101000101000010000100100000",
        "0110000010001101000000000111011001010000001101000010100001001000",
    ],
}

# 30 words of 8 neurons at n = 64: random.Random(5), rng.sample(range(64), 8)
# per word.  Over GF2, H̃ is 28 in degree 1 and 1 in degree 2.
SPARSE_CORE = [
    "0000000000000000000000100000000010000000010010010010010000000010",
    "0001000000100001000000000000010000000000010000000100010000000001",
    "0000001000000011000000011000001000100000000000000000000100000000",
    "1000000000010100010000000010000100000000000000100000000100000000",
    "0000100010100000000000000000000000000001000000001101000001000000",
    "1000000010000100000000000000000000000000000000000100000110001010",
    "0000000000101000001010000001000000000000000000000000000100000110",
    "0000000000011000000100001010000000000000000010000000000001001000",
    "0010100001100000100000010010000000000000000000000000000000010000",
    "1000000000000000000100000000000000000110001100000000100000001000",
    "0000100000000000000100100000001000000000000110000000100000000100",
    "0001000000010000100000000000001000000000100001000000000000000110",
    "0110000000000000000000100100000000010000000000010000001000001000",
    "1010000000000000000000011000100000000100000000000000010000000001",
    "0000000100001001000000010000000000000001000000001000100000000100",
    "0000000000000000100000100000000011000000000000000100000001010010",
    "0000001000000000000000010000000000000100000000010101000100010000",
    "0010010000000100000001000001000010000100000000000000000000001000",
    "0000010001000000010001000000000000100000000010100000000000100000",
    "0000010000010000000110000000000000000001100100000001000000000000",
    "0001000000100000000100000000001000000000000010100000000000000011",
    "0010000000100001000000000100000000100010000000010000000000010000",
    "0001000001000000100000000010010000000000010010000000100000000000",
    "0000100010000100000001000000000100000000000000100001010000000000",
    "0000001000100000100000000011000000000000100000000010000001000000",
    "0001000001000000001000000010010000000000000000010000001000000010",
    "0000000000000000000011000000010101000000000010100000000000000010",
    "0000000101000000011000000100001000000000000000000000000001000100",
    "0000000000010000000001000000000100100000100000001000100100000000",
    "0000010000000000010000010000000110010000000000000010000100000000",
]

# sha256 of the stdout of `mh --form binary`, the same over GF2 and Q
PINNED = {
    ("8x16", 64): "631a4511a19b24cb278ff9794bc9bcf8b9a68cda4879aded54a25f68723e1b0a",
    ("all_ones", 16): "25471ee76d21eca994c750d371abac1e964fb95d02de385e7414c3a76f915ede",
}


def _mask(word: str) -> int:
    return sum(1 << i for i, c in enumerate(word) if c == "1")


def _mh_by_nerves(facets: list[int], field: Field) -> set[int]:
    """The faces σ whose link has nonzero reduced homology, read from the
    nerve of the link's facets; a face that is no facet intersection (∅
    aside) has a cone for its link and is left out."""
    meets = {0}
    for k in range(1, len(facets) + 1):
        meets.update(reduce(and_, chosen) for chosen in itertools.combinations(facets, k))
    mandatory = set()
    for s in meets:
        cover = [f & ~s for f in facets if not s & ~f]
        nerve = [sum(1 << i for i in chosen)
                 for k in range(1, len(cover) + 1)
                 for chosen in itertools.combinations(range(len(cover)), k)
                 if reduce(and_, (cover[i] for i in chosen))]
        N = SimplicialComplex.from_masks(nerve or [0], len(cover))
        if not reduced_homology(N, field).is_trivial:
            mandatory.add(s)
    return mandatory


@pytest.fixture
def cold_memos():
    """Empty the memos, so that a timed run starts as a fresh process would."""
    for memo in (mandatory_partition, collapse._packed_profile):
        memo.cache_clear()


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("field", ["GF2", "Q"])
@pytest.mark.parametrize("name", sorted(WIDE_CODES))
def test_wide_mh_answers_in_time(name, field, capsys):
    words = WIDE_CODES[name]
    start = time.perf_counter()
    assert main(["mh", "--field", field, "--n", "64", "--form", "binary",
                 "--code", ",".join(words)]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    expected = _mh_by_nerves([_mask(w) for w in words], Field(field))
    assert json.loads(out) == {"mh": binaries(expected, 64)}
    assert elapsed < 2.0, f"{name} took {elapsed:.2f} s"
    if (name, 64) in PINNED:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED[name, 64]


def test_full_simplex_at_16_keeps_its_bytes(capsys):
    assert main(["mh", "--field", "GF2", "--n", "16", "--form", "binary", "--code", "1" * 16]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED["all_ones", 16]


class Overtime(Exception):
    """Raised into a run that outlasts its deadline; the CLI catches only
    the package's own errors, so it leaves ``main`` as it is."""


@contextmanager
def _deadline(seconds: float):
    """Fail a run that outlasts ``seconds`` instead of waiting for it."""
    def expire(signum, frame):
        raise Overtime(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _meets(facets: list[int]) -> set[int]:
    """∅ and every intersection of facets, by closing under pairwise meets."""
    meets, fresh = {0}, set(facets)
    while fresh:
        meets |= fresh
        fresh = {a & b for a in fresh for b in meets} - meets
    return meets


def _timed_main(argv: list[str], capsys, seconds: float) -> tuple[int, float, str, str]:
    start = time.perf_counter()
    with _deadline(seconds + 1):
        status = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return status, elapsed, out, err


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("field", ["GF2", "Q"])
def test_sparse_wide_core_answers_in_time(field, capsys):
    facets = [_mask(w) for w in SPARSE_CORE]
    fld = Field(field)
    argv = ["--field", field, "--n", "64", "--form", "binary", "--code", ",".join(SPARSE_CORE)]
    status, elapsed, out, _ = _timed_main(["homology", *argv], capsys, 2.0)
    K = SimplicialComplex.from_masks(facets, 64)
    assert status == 0 and json.loads(out) == reduced_homology(K, fld).to_json_dict()
    assert elapsed < 2.0, f"homology took {elapsed:.2f} s"
    if fld is Field.GF2:
        assert json.loads(out)["dims"] == {"1": 28, "2": 1}
    status, elapsed, out, _ = _timed_main(["mh", *argv], capsys, 2.0)
    expected = {s for s in _meets(facets) if not reduced_homology(
        SimplicialComplex(64, frozenset(f & ~s for f in facets if not s & ~f)), fld).is_trivial}
    assert status == 0 and json.loads(out) == {"mh": binaries(expected, 64)}
    assert elapsed < 2.0, f"mh took {elapsed:.2f} s"


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("command", ["cmin", "analyze"])
def test_listing_the_faces_of_the_full_simplex_at_64_is_refused(command, capsys):
    status, elapsed, out, err = _timed_main(
        [command, "--n", "64", "--form", "binary", "--code", "1" * 64], capsys, 1.0)
    assert status == 2 and not out and str(1 << 64) in err
    assert elapsed < 1.0, f"{command} took {elapsed:.2f} s"


@pytest.mark.usefixtures("cold_memos")
def test_single_code_verify_prints_all_or_nothing(monkeypatch, capsys):
    """A single-code ``verify`` prints once every instance has run.  On the
    sparse core at n = 64 the permutation row runs first and holds, then
    the add_trivial_on row refuses to widen the code, and stdout stays
    empty; the permutation row alone prints its one line."""
    ran = []
    real = suites._verify
    monkeypatch.setattr(suites, "_verify", lambda step, *args: ran.append(step.theorem)
                        or real(step, *args))
    argv = ["verify", "--n", "64", "--form", "binary", "--code", ",".join(SPARSE_CORE),
            "--gamma", ",".join(map(str, range(64, 0, -1))), "--delete", "1"]
    status, elapsed, out, err = _timed_main([*argv, "--theorem", "all"], capsys, 2.0)
    assert status == 2 and out == "" and "widening past 64 neurons" in err
    assert ran == ["permutation", "add_trivial_on"] and elapsed < 2.0, f"took {elapsed:.2f} s"
    status, elapsed, out, _ = _timed_main([*argv, "--theorem", "permutation"], capsys, 2.0)
    assert status == 0 and elapsed < 2.0, f"took {elapsed:.2f} s"
    (line,) = out.splitlines()
    assert json.loads(line)["verdict"] == "holds" and ran[2:] == ["permutation"]


def test_listed_inputs_lie_under_the_bound():
    """Every complex on at most 20 vertices has its faces listed: the golden
    and benchmark inputs (n ≤ 12) and the full simplex at n = 16.  Of the
    wide codes, the 8 × 16 code and the sparse core are listed too."""
    assert MAX_LISTED_FACES >= 1 << 20
    counts = {}
    for name, words in [*WIDE_CODES.items(), ("sparse_core", SPARSE_CORE)]:
        K = SimplicialComplex.from_masks([_mask(w) for w in words], 64)
        counts[name] = face_count(K.facet_bits)
    assert counts == {"all_ones": 1 << 64, "8x16": 523_643, "4x20": 4_191_672,
                      "sparse_core": 7_307}
    assert max(counts["8x16"], counts["sparse_core"]) <= MAX_LISTED_FACES < counts["4x20"]


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("argv,count", [
    (["link", "--n", "64", "--sigma", "1" + "0" * 63], 1 << 63),
], ids=["link_64"])
def test_listings_past_the_bound_are_refused(argv, count, capsys):
    n = int(argv[argv.index("--n") + 1])
    status, elapsed, out, err = _timed_main(
        [*argv, "--form", "binary", "--code", "1" * n], capsys, 1.0)
    assert status == 2 and not out and err.rstrip().endswith(f"; the complex has {count}")
    assert elapsed < 1.0, f"{argv[0]} took {elapsed:.2f} s"


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("row,n", [
    *(("projection", n) for n in (8, 16, 20, 40, 64)),
    *(("duplicate", n) for n in (8, 16, 20, 40, 63)),
])
def test_link_law_rows_answer_the_all_ones_word(row, n, capsys):
    """The full simplex has one facet intersection, so the link-law rows
    answer it within 1 s at any width, every instance holding; up to
    n = 16 each link check matches the face-by-face reference."""
    status, elapsed, out, _ = _timed_main(
        ["verify", "--theorem", row, "--n", str(n), "--form", "binary", "--code", "1" * n],
        capsys, 1.0)
    assert status == 0 and elapsed < 1.0, f"{row} at n = {n} took {elapsed:.2f} s"
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == (n if row == "projection" else 1)
    assert all(report["verdict"] == "holds" for report in reports)
    if n > 16:
        return
    K = SimplicialComplex(n, frozenset({(1 << n) - 1}))
    steps = [Project(d) for d in range(1, n + 1)] if row == "projection" else [Duplicate(1)]
    for report, step in zip(reports, steps):
        expected = ref_link_law_failures(row, K, step, image_complex(step, K), Field.GF2)
        checks = {check["name"]: check for check in report["checks"]}
        for name, failed in expected.items():
            outcome = "violated" if failed else "holds"
            assert (checks[name]["lhs"], checks[name]["outcome"]) == (failed, outcome)


def _sweep_runs(command: str, n: int) -> list[list[str]]:
    """The command lines of ``command`` on the all-ones word at width n:
    ``map`` runs each operation but inclusion, and ``verify`` each row on
    its own, with the reversal as its permutation."""
    if command == "random":
        return [["random", "--n", str(n)]]
    gamma = ",".join(map(str, range(n, 0, -1)))
    extras = {
        "link": [["--sigma", "∅"]],
        "map": [["--op", "permute", "--gamma", gamma], ["--op", "add-on"], ["--op", "add-off"],
                ["--op", "duplicate"], ["--op", "project", "--delete", "1"]],
        "verify": [["--theorem", row, "--gamma", gamma, "--delete", "1"] for row in
                   ("permutation", "add-trivial-on", "add-trivial-off", "duplicate", "projection")],
    }.get(command, [[]])
    code = ["--n", str(n), "--form", "binary", "--code", "1" * n]
    return [[command, *code, *extra] for extra in extras]


@pytest.mark.parametrize("command", ["analyze", "cmin", "dual", "homology", "link", "map", "mh",
                                     "random", "verify"])
def test_every_command_on_the_all_ones_word_ends_in_time(command, capsys):
    """n = 17..21 are left out: they are listed, under the bound, but not
    within 1 s by every command."""
    for n in [*range(1, 17), *range(22, 65)]:
        for argv in _sweep_runs(command, n):
            status, elapsed, _, _ = _timed_main(argv, capsys, 1.0)
            assert status in (0, 2) and elapsed < 1.0, (argv[:1], n, status, f"{elapsed:.2f} s")
