"""Shared helpers, complex builders, reference oracles and hypothesis strategies."""

from __future__ import annotations

import random
from functools import reduce
from operator import and_
from typing import Iterator

from hypothesis import strategies as st

from obstrukt import (
    Codeword,
    Field,
    NeuralCode,
    NotationForm,
    SimplicialComplex,
    Verdict,
    code_complex,
    parse_codeword,
    reduced_homology,
)
from obstrukt.codemaps import THEOREMS, Project, resolve_step
from obstrukt.codes import MAX_NEURONS, binaries
from obstrukt.complexes import maximal_masks
from obstrukt.errors import NeuronOutOfRange


def w(text: str, n: int) -> Codeword:
    """Word-form codeword shorthand."""
    return parse_codeword(text, NotationForm.WORD, n)


def code(texts: list[str], n: int) -> NeuralCode:
    return NeuralCode(n, (w(t, n).bits for t in texts))


def cx(texts: list[str], n: int) -> SimplicialComplex:
    """Complex generated by word-form faces (downward closure)."""
    return SimplicialComplex.from_masks([w(t, n).bits for t in texts], n)


def face_words(K: SimplicialComplex) -> set[str]:
    out = set()
    for c in K.faces():
        out.add("".join(str(i) for i in c.neurons()) or "e")
    return out


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, frozenset({(1 << n) - 1}))


def cone(K: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over a new vertex: every face gains a copy joined with the apex.

    ``apex`` may be n+1, in which case the complex is widened by one vertex.
    """
    n = K.n
    if apex == n + 1:
        if n + 1 > MAX_NEURONS:
            raise NeuronOutOfRange(f"widening past {MAX_NEURONS} vertices")
        n += 1
    elif not 1 <= apex <= n:
        raise NeuronOutOfRange(f"cone apex {apex} outside 1..{n + 1}")
    bit = 1 << (apex - 1)
    if K.vertex_bits & bit:
        raise ValueError(f"vertex {apex} already belongs to the complex")
    return SimplicialComplex(n, frozenset(f | bit for f in K.facet_bits))


def enumerate_complexes(n: int) -> Iterator[SimplicialComplex]:
    """All simplicial complexes on n labelled vertices, void included.

    Yields one complex per antichain of subsets of {1, ..., n}, building each
    antichain in increasing mask order.  Their number is the Dedekind number
    of n, so this is only practical for n <= 4.
    """

    def extend(chosen: list[int], start: int) -> Iterator[SimplicialComplex]:
        yield SimplicialComplex(n, frozenset(chosen))
        for m in range(start, 1 << n):
            # m exceeds every chosen mask, so only f ⊆ m can break the antichain
            if all(f & ~m for f in chosen):
                yield from extend(chosen + [m], m + 1)

    return extend([], 0)


def ref_dominated(faces: frozenset[int], n: int) -> set[tuple[int, int]]:
    """Pairs (v, u) of vertices where v is dominated by u, read from the face
    set: every face holding v stays a face when u is added, which is the same
    as every facet holding v holding u."""
    vertices = [i for i in range(1, n + 1) if 1 << (i - 1) in faces]
    return {(v, u) for v in vertices for u in vertices if u != v
            and all(s | 1 << (u - 1) in faces for s in faces if s >> (v - 1) & 1)}


def ref_contractibility(K: SimplicialComplex, field: Field) -> Verdict:
    """Contractibility by strong collapse on the face set, sharing no code
    with the engine's collapse: delete the highest dominated vertex until
    none is left, answer contractible for a single point, and otherwise read
    the reduced homology of the core.  The core is unique up to isomorphism,
    so the deletion order does not matter (Barmak-Minian, Strong homotopy
    types, nerves and collapses, DCG 2012)."""
    faces = K.face_bits
    while pairs := ref_dominated(faces, K.n):
        bit = 1 << (max(pairs)[0] - 1)
        faces = frozenset(s for s in faces if not s & bit)
    if len(faces) == 2:  # ∅ and one vertex
        return Verdict.CONTRACTIBLE
    if reduced_homology(SimplicialComplex.from_masks(faces, K.n), field).is_trivial:
        return Verdict.UNKNOWN
    return Verdict.NON_CONTRACTIBLE


def embed_mask(mask: int, position: int) -> int:
    """Insert an off coordinate at ``position``: the least mask that
    projecting that coordinate away sends to ``mask``."""
    low = mask & ((1 << (position - 1)) - 1)
    high = (mask >> (position - 1)) << position
    return low | high


def permute_mask(mask: int, gamma: tuple[int, ...]) -> int:
    """Relabel a support through i ↦ γ(i), one bit at a time: the
    reference for ``ideals.mask_permuter``'s tables."""
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        out |= 1 << (gamma[low.bit_length() - 1] - 1)
        rest ^= low
    return out


def _ref_link_betti(over: list[int], s: int, field: Field) -> tuple[int, ...]:
    """Reduced Betti numbers of lk σ, from the facets over σ: a missing link
    or a cone (its facets share a vertex) is acyclic, and any other link is
    ranked by ``reduced_homology``."""
    lk = [F & ~s for F in over]
    if not lk or reduce(and_, lk):
        return ()
    return reduced_homology(SimplicialComplex.from_masks(lk, max(1, max(lk).bit_length())),
                            field).betti


def ref_same_homology(f, over1: list[int], over2: list[int], s1: int, s2: int,
                      field: Field) -> bool:
    """lk σ and lk σ' have the same reduced homology, each link read off the
    facets over its face."""
    return _ref_link_betti(over1, s1, field) == _ref_link_betti(over2, s2, field)


def ref_image_formula(f, over1: list[int], over2: list[int], s1: int, s2: int,
                      field: Field) -> bool:
    """The link of σ' is the image of the link of σ: the maximal images
    under f of the facets of lk σ are the facets of lk σ'."""
    return maximal_masks(f(F & ~s1) for F in over1) == frozenset(G & ~s2 for G in over2)


# The reference for each link law of ``THEOREMS``, by check name.
REF_LINK_LAWS = {
    "link_homology_preserved": ref_same_homology,
    "link_two_case_formula": ref_image_formula,
    "link_image_formula": ref_image_formula,
}


def ref_link_law_failures(theorem: str, K: SimplicialComplex, step, K2: SimplicialComplex,
                          field: Field) -> dict[str, list[str]]:
    """The failure list of each link law of a ``THEOREMS`` row, face by
    face: every face pair of the row (each face σ of K with q(σ), or for a
    projection each face σ' of K2 with its zero-extension), and the
    reference law of each check name (``REF_LINK_LAWS``) called on the
    facets over σ and over σ', an absent face having none."""
    r = resolve_step(step, K.n)
    if isinstance(step, Project):
        width, pairs = r.out_n, [(m2, embed_mask(m2, step.delete), m2) for m2 in K2.face_bits]
    else:
        width, pairs = r.n, [(m, m, r.f(m)) for m in K.face_bits]
    failures = {}
    for name, _ in THEOREMS[theorem].links:
        law = REF_LINK_LAWS[name]
        failed = [shown for shown, s1, s2 in pairs if not law(
            r.f, [F for F in K.facet_bits if not s1 & ~F],
            [G for G in K2.facet_bits if not s2 & ~G], s1, s2, field)]
        failures[name] = binaries(failed, width)
    return failures


def report_dict(report) -> dict:
    """The JSON object of a ``VerificationReport``'s line, built field by
    field from the report's data and sharing no code with its text: the
    reference that ``json.dumps`` of must give the bytes of the line.  The
    verdict is read off the checks and the code printed one word at a
    time."""
    outcomes = [c.outcome.value for c in report.checks]
    verdict = next((v for v in ("violated", "partial") if v in outcomes), "holds")
    checks = []
    for c in report.checks:
        check = {"name": c.name, "relation": c.relation, "lhs": list(c.lhs),
                 "rhs": list(c.rhs), "outcome": c.outcome.value}
        if c.note:
            check["note"] = c.note
        checks.append(check)
    n = report.code.n
    return {
        "theorem": report.theorem,
        "n": n,
        "code": sorted("".join("1" if m >> i & 1 else "0" for i in range(n))
                       for m in report.code.masks),
        "map": report.map_desc,
        "field": report.field.value,
        "verdict": verdict,
        "checks": checks,
        "observations": {k: v for k, v in report.observations},
    }


# The unique closed surface with Euler characteristic 1 on six vertices;
# structural properties are asserted in the tests that use it.
RP2_FACETS = ["123", "124", "135", "146", "156", "236", "245", "256", "345", "346"]


@st.composite
def neural_codes(draw, max_n: int = 5, allow_empty_word: bool = True, max_words: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << n) - 1
    lo = 0 if allow_empty_word else 1
    masks = draw(st.frozensets(st.integers(lo, top), max_size=max_words))
    return NeuralCode(n, masks)


@st.composite
def nonempty_codes(draw, max_n: int = 5, max_words: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << n) - 1
    masks = draw(st.frozensets(st.integers(0, top), min_size=1, max_size=max_words))
    return NeuralCode(n, masks)


@st.composite
def complexes(draw, max_n: int = 5, max_words: int = 8):
    """Arbitrary nonvoid complexes, {∅} included."""
    c = draw(neural_codes(max_n=max_n, max_words=max_words))
    K = code_complex(c)
    if K.is_void:
        return SimplicialComplex(c.n, frozenset({0}))
    return K


def seeded_complexes(count: int, seed: int, max_n: int = 6):
    """Deterministic stream of nonvoid complexes for the bulk suites."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        top = (1 << n) - 1
        k = rng.randint(1, min(8, top))
        masks = frozenset(rng.randint(1, top) for _ in range(k))
        K = SimplicialComplex.from_masks(masks, n)
        if not K.is_void:
            out.append(K)
    return out
