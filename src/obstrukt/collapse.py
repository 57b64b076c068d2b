"""Strong-collapse and simple-homotopy machinery with checkable certificates.

A vertex is dominated when every facet containing it contains some other
fixed vertex; deleting dominated vertices preserves homotopy type.  The
contractibility verdict is three-valued on purpose: deciding contractibility
in general is undecidable, so the only honest answers are certificates
(a collapse to a point, or a nonzero homology degree) and Unknown.

Every link the package decides goes through ``link_profile``, which decides
each link once per copy relabelled onto vertices 1..k.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .codes import Codeword, binaries
from .complexes import SimplicialComplex, delete_vertex
from .errors import NotAFreeFacePair, VoidComplex
from .homology import Field, HomologyProfile, reduced_homology


@dataclass(frozen=True)
class DominationWitness:
    dominated: int
    dominator: int


@dataclass(frozen=True)
class CollapseSequence:
    """A replayable run of elementary strong collapses."""

    start: SimplicialComplex
    steps: tuple[DominationWitness, ...]
    core: SimplicialComplex

    def replay(self) -> bool:
        """Re-run every deletion, checking each domination as it applies."""
        current = self.start
        for step in self.steps:
            if (step.dominated, step.dominator) not in {
                (w.dominated, w.dominator) for w in dominated_vertices(current)
            }:
                return False
            current = delete_vertex(current, step.dominated)
        return current == self.core

    def to_json_dict(self) -> dict:
        return {
            "steps": [[w.dominated, w.dominator] for w in self.steps],
            "core_facets": binaries(self.core.facet_bits, self.core.n),
        }


class Verdict(Enum):
    CONTRACTIBLE = "contractible"
    NON_CONTRACTIBLE = "non_contractible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ContractibilityVerdict:
    status: Verdict
    field: Field
    collapse: CollapseSequence | None = None
    nonzero_degree: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value, "field": self.field.value}
        if self.collapse is not None:
            out["collapse"] = self.collapse.to_json_dict()
        if self.nonzero_degree is not None:
            out["nonzero_degree"] = self.nonzero_degree
        return out


def dominated_vertices(K: SimplicialComplex) -> list[DominationWitness]:
    """All ordered pairs (v, v') where v is dominated by v', from the facets."""
    if K.is_void:
        raise VoidComplex("domination on the void complex")
    out = []
    vbits = K.vertex_bits
    for i in range(K.n):
        bit = 1 << i
        if not vbits & bit:
            continue
        meet = vbits
        for f in K.facet_bits:
            if f & bit:
                meet &= f
        meet &= ~bit
        rest = meet
        while rest:
            low = rest & -rest
            out.append(DominationWitness(i + 1, low.bit_length()))
            rest ^= low
    out.sort(key=lambda w: (w.dominated, w.dominator))
    return out


def _lowest_domination(facets: list[int]) -> tuple[int, int] | None:
    """The lowest dominated vertex and its lowest dominator as bits, or None:
    the first pair ``dominated_vertices`` lists, from one meet per vertex."""
    vbits = 0
    for f in facets:
        vbits |= f
    rest = vbits
    while rest:
        bit = rest & -rest
        meet = vbits
        for f in facets:
            if f & bit:
                meet &= f
        meet &= ~bit
        if meet:
            return bit, meet & -meet
        rest ^= bit
    return None


def _delete_bit(facets: list[int], bit: int) -> list[int]:
    """Facets of the complex with vertex ``bit`` deleted.  Facets without it
    stay maximal; each F ∖ v is maximal unless a facet without v contains it
    (it cannot lie in another G ∖ v, since F ⊆ G would follow)."""
    without = [f for f in facets if not f & bit]
    return without + [g for g in (f ^ bit for f in facets if f & bit)
                      if all(g & ~k for k in without)]


def _collapse_masks(facets: list[int], steps: list[DominationWitness]) -> list[int]:
    """Delete the lowest dominated vertex until none remains, recording each
    deletion in ``steps``; the result is the core's facets."""
    while (pair := _lowest_domination(facets)) is not None:
        bit, dominator = pair
        steps.append(DominationWitness(bit.bit_length(), dominator.bit_length()))
        facets = _delete_bit(facets, bit)
    return facets


def strong_collapse_core(K: SimplicialComplex) -> CollapseSequence:
    """Deterministically delete the lowest dominated vertex until none remains.

    The deletions run on facet masks; only the core is built as a complex.
    """
    if K.is_void:
        raise VoidComplex("strong collapse of the void complex")
    steps: list[DominationWitness] = []
    facets = _collapse_masks(list(K.facet_bits), steps)
    core = SimplicialComplex(K.n, frozenset(facets)) if steps else K
    return CollapseSequence(K, tuple(steps), core)


def _core_facets(facets: Iterable[int]) -> frozenset[int] | None:
    """Facets of the strong-collapse core of the complex with these nonvoid
    facets, or None when it is certified contractible: a cone (its facets
    share a vertex) or a complex that collapses to a point."""
    facets = list(facets)
    meet = -1
    for f in facets:
        meet &= f
    if meet:
        return None
    core = _collapse_masks(facets, [])
    return None if len(core) == 1 and core[0].bit_count() == 1 else frozenset(core)


def _packed(facets: Iterable[int]) -> frozenset[int]:
    """These facets relabelled onto vertices 1..k in their order; neither
    strong collapse nor homology sees the labels."""
    facets = list(facets)
    used = 0
    for f in facets:
        used |= f
    gaps = ~used & ((1 << used.bit_length()) - 1)
    while gaps:  # close the highest gap first, so the lower ones stay put
        low = (1 << gaps.bit_length() - 1) - 1
        facets = [f & low | f >> 1 & ~low for f in facets]
        gaps &= low
    return frozenset(facets)


def _ranked(core: frozenset[int], field: Field) -> HomologyProfile:
    """Homology of the complex with these facets, ranked on its relabelled
    copy, so that copies on other vertex labels share one
    ``reduced_homology`` memo entry."""
    core = _packed(core)
    return reduced_homology(SimplicialComplex(max(1, max(core).bit_length()), core), field)


@lru_cache(maxsize=4096)
def _packed_profile(facets: frozenset[int], field: Field) -> HomologyProfile | None:
    core = _core_facets(facets)
    return None if core is None else _ranked(core, field)


def link_profile(facets: Iterable[int], field: Field) -> HomologyProfile | None:
    """Homology of the complex with these nonvoid facets (a link), or None
    when it is certified contractible.  A cone is answered from its facets'
    meet; any other complex is decided once per relabelled copy."""
    facets = list(facets)
    meet = -1
    for f in facets:
        meet &= f
    return None if meet else _packed_profile(_packed(facets), field)


def _facet_homology(facets: Iterable[int], field: Field) -> HomologyProfile:
    """``core_homology`` of the complex with these nonvoid facets."""
    profile = link_profile(facets, field)
    return HomologyProfile(field, ()) if profile is None else profile


def core_homology(K: SimplicialComplex, field: Field = Field.GF2) -> HomologyProfile:
    """``reduced_homology(K, field)``, read from a complex certified to have
    K's homotopy type by ``link_profile``: a contractible complex (a cone, or
    one that collapses to a point) is acyclic, and any other complex is
    ranked on the strong-collapse core of its relabelled copy."""
    if K.is_void:
        raise VoidComplex("homology of the void complex")
    return _facet_homology(K.facet_bits, field)


def is_single_point(K: SimplicialComplex) -> bool:
    """True for a complex whose faces are exactly ∅ and one vertex."""
    return len(K.facet_bits) == 1 and max(K.facet_bits).bit_count() == 1


def free_face_pairs(K: SimplicialComplex) -> list[tuple[Codeword, Codeword]]:
    """All pairs (σ, τ) with σ nonempty and star(σ) = {σ, τ}.

    The empty face is excluded: removing it together with a lone vertex would
    turn a point into the void complex, which is not a homotopy equivalence.
    """
    if K.is_void:
        raise VoidComplex("free faces of the void complex")
    pairs = []
    for m in K.face_bits:
        if m == 0:
            continue
        over = [t for t in K.face_bits if m & ~t == 0]
        if len(over) == 2:
            tau = over[0] if over[0] != m else over[1]
            pairs.append((Codeword(m, K.n), Codeword(tau, K.n)))
    pairs.sort(key=lambda p: (p[0].binary(), p[1].binary()))
    return pairs


def elementary_collapse(K: SimplicialComplex, sigma: Codeword, tau: Codeword) -> SimplicialComplex:
    """Remove a free face pair; the result is again a simplicial complex."""
    if K.is_void:
        raise VoidComplex("collapse on the void complex")
    s, t = sigma.bits, tau.bits
    if sigma.n != K.n or tau.n != K.n:
        raise NotAFreeFacePair("widths do not match the complex")
    if s == 0 or s == t or s & ~t != 0:
        raise NotAFreeFacePair("need a nonempty proper face of the coface")
    star_masks = {m for m in K.face_bits if s & ~m == 0}
    if star_masks != {s, t}:
        raise NotAFreeFacePair(f"star of {sigma!r} is not exactly {{σ, τ}}")
    return SimplicialComplex.from_masks(K.face_bits - {s, t}, K.n)


def contractibility(K: SimplicialComplex, field: Field = Field.GF2) -> ContractibilityVerdict:
    """Certify contractibility by strong collapse, or non-contractibility by
    homology of the core; answer Unknown when neither certificate exists."""
    if K.is_void:
        raise VoidComplex("contractibility of the void complex")
    seq = strong_collapse_core(K)
    if is_single_point(seq.core):
        return ContractibilityVerdict(Verdict.CONTRACTIBLE, field, collapse=seq)
    profile = _ranked(seq.core.facet_bits, field)
    if not profile.is_trivial:
        return ContractibilityVerdict(
            Verdict.NON_CONTRACTIBLE, field, nonzero_degree=profile.nonzero_degrees()[0]
        )
    return ContractibilityVerdict(Verdict.UNKNOWN, field)
