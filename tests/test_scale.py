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
"""

import hashlib
import itertools
import json
import time
from functools import reduce
from operator import and_

import pytest

from obstrukt import Field, SimplicialComplex, collapse, mandatory_partition, reduced_homology
from obstrukt.cli import main
from obstrukt.codes import binaries

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


@pytest.mark.parametrize("field", ["GF2", "Q"])
@pytest.mark.parametrize("name", sorted(WIDE_CODES))
def test_wide_mh_answers_in_time(name, field, capsys):
    for memo in (mandatory_partition, reduced_homology, collapse._packed_profile):
        memo.cache_clear()
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
