"""Strong collapse and the three-valued contractibility verdict, on facet masks.

A vertex is dominated when every facet containing it contains some other
fixed vertex; deleting dominated vertices preserves homotopy type.  The
contractibility verdict is three-valued on purpose: deciding contractibility
in general is undecidable, so the only honest answers are certificates
(a collapse to a point, or nonzero homology of the core) and Unknown.

Every complex the package decides, links and the whole complex alike, goes
through ``link_profile``, which decides each one once per copy relabelled
onto vertices 1..k.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .complexes import SimplicialComplex
from .errors import VoidComplex
from .homology import Field, HomologyProfile, reduced_homology


class Verdict(Enum):
    CONTRACTIBLE = "contractible"
    NON_CONTRACTIBLE = "non_contractible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ContractibilityVerdict:
    status: Verdict
    field: Field


def _lowest_domination(facets: list[int]) -> int | None:
    """The lowest dominated vertex as a bit, or None, from one meet per
    vertex: v is dominated when the facets holding v meet beyond v."""
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
        if meet & ~bit:
            return bit
        rest ^= bit
    return None


def _delete_bit(facets: list[int], bit: int) -> list[int]:
    """Facets of the complex with vertex ``bit`` deleted.  Facets without it
    stay maximal; each F ∖ v is maximal unless a facet without v contains it
    (it cannot lie in another G ∖ v, since F ⊆ G would follow)."""
    without = [f for f in facets if not f & bit]
    return without + [g for g in (f ^ bit for f in facets if f & bit)
                      if all(g & ~k for k in without)]


def _collapse_masks(facets: list[int]) -> list[int]:
    """Delete the lowest dominated vertex until none remains; the result is
    the core's facets."""
    while (bit := _lowest_domination(facets)) is not None:
        facets = _delete_bit(facets, bit)
    return facets


def strong_collapse_core(K: SimplicialComplex) -> SimplicialComplex:
    """The strong-collapse core of K: the lowest dominated vertex is deleted
    until none remains.  The deletions run on facet masks; only the core is
    built as a complex."""
    if K.is_void:
        raise VoidComplex("strong collapse of the void complex")
    return SimplicialComplex(K.n, frozenset(_collapse_masks(list(K.facet_bits))))


def _core_facets(facets: frozenset[int]) -> frozenset[int] | None:
    """Facets of the strong-collapse core of the complex with these nonvoid
    facets, or None when it collapses to a point."""
    core = _collapse_masks(list(facets))
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


def _status(profile: HomologyProfile | None) -> Verdict:
    """The verdict that a ``link_profile`` answer certifies."""
    if profile is None:
        return Verdict.CONTRACTIBLE
    return Verdict.UNKNOWN if profile.is_trivial else Verdict.NON_CONTRACTIBLE


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


def contractibility(K: SimplicialComplex, field: Field = Field.GF2) -> ContractibilityVerdict:
    """Contractible when K is a cone or collapses to a point, non-contractible
    when its core has nonzero homology, and Unknown otherwise: the verdict
    that ``link_profile`` certifies."""
    if K.is_void:
        raise VoidComplex("contractibility of the void complex")
    return ContractibilityVerdict(_status(link_profile(K.facet_bits, field)), field)
