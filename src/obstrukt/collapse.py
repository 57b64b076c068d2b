"""Strong collapse and the three-valued contractibility verdict, on facet masks.

A vertex is dominated when every facet containing it contains some other
fixed vertex; deleting dominated vertices preserves homotopy type.  The
contractibility verdict is three-valued on purpose: deciding contractibility
in general is undecidable, so the only honest answers are certificates
(a collapse to a point, or nonzero homology of the core) and Unknown.

Every complex the package decides, links and the whole complex alike, goes
through ``link_profile``.  Any complex that is not a cone is relabelled onto
vertices 1..k, and every stage of its collapse is a key of one bounded memo:
the strong-collapse core is unique up to isomorphism whatever order the
dominated vertices go in (Barmak-Minian, Strong homotopy types, nerves and
collapses, DCG 2012), so a stage met again, from another link or another
labelling, is decided once.  Every collapse deletes the highest dominated
vertex first.  ``collapses_onto`` certifies a single deletion between two
given complexes, as between the link of a face in a duplicate's image,
whose copy of the source is dominated, and the link it came from.

A core on vertices 1..k that holds more than half of the 2^k subsets is
ranked on its Alexander dual on [k], the complements of its non-faces,
which holds the rest: H̃_i(K) ≅ H̃^(k-i-3)(K^∨) over any field
(Björner-Tancer, DCG 2009; Miller-Sturmfels, Combinatorial Commutative
Algebra, 2005, ch. 5), and over a field cohomology has the dimensions of
homology.  From n = 8 up nearly every ranked core is that dense.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Collection, Iterable

from .complexes import SimplicialComplex, dual_complex, face_bound
from .errors import VoidComplex
from .homology import Field, HomologyProfile, reduced_homology


class Verdict(Enum):
    CONTRACTIBLE = "contractible"
    NON_CONTRACTIBLE = "non_contractible"
    UNKNOWN = "unknown"


def _highest_domination(facets: Collection[int]) -> int | None:
    """The highest dominated vertex as a bit, or None, from one meet per
    vertex: v is dominated when the facets holding v meet beyond v."""
    vbits = 0
    for f in facets:
        vbits |= f
    rest = vbits
    while rest:
        bit = 1 << rest.bit_length() - 1
        meet = vbits
        for f in facets:
            if f & bit:
                meet &= f
        if meet & ~bit:
            return bit
        rest ^= bit
    return None


def _delete_bit(facets: Collection[int], bit: int) -> list[int]:
    """Facets of the complex with vertex ``bit`` deleted.  Facets without it
    stay maximal; each F ∖ v is maximal unless a facet without v contains it
    (it cannot lie in another G ∖ v, since F ⊆ G would follow)."""
    without = [f for f in facets if not f & bit]
    return without + [g for g in (f ^ bit for f in facets if f & bit)
                      if all(g & ~k for k in without)]


def collapses_onto(facets: Collection[int], onto: frozenset[int]) -> bool:
    """Whether deleting one dominated vertex of the complex with these
    facets leaves exactly the facets ``onto``: a strong collapse, so the two
    complexes have one homotopy type and the same homology over every field.
    The deleted vertex is the one vertex of the first that the second lacks."""
    bit = reduce(or_, facets, 0) & ~reduce(or_, onto, 0)
    if not bit or bit & bit - 1:
        return False
    return (reduce(and_, (f for f in facets if f & bit)) != bit
            and frozenset(_delete_bit(facets, bit)) == onto)


def _collapse_masks(facets: list[int]) -> list[int]:
    """Delete the highest dominated vertex until none remains; the result is
    the core's facets."""
    while (bit := _highest_domination(facets)) is not None:
        facets = _delete_bit(facets, bit)
    return facets


def strong_collapse_core(K: SimplicialComplex) -> SimplicialComplex:
    """The strong-collapse core of K: the highest dominated vertex is deleted
    until none remains, the order every collapse in the package takes.  The
    deletions run on facet masks; only the core is built as a complex, on
    K's vertex labels."""
    if K.is_void:
        raise VoidComplex("strong collapse of the void complex")
    return SimplicialComplex.trusted(K.n, frozenset(_collapse_masks(list(K.facet_bits))))


def _packed(facets: Iterable[int]) -> frozenset[int]:
    """These facets relabelled onto vertices 1..k in their order; neither
    strong collapse nor homology sees the labels."""
    facets = list(facets)
    used = reduce(or_, facets, 0)
    gaps = ~used & ((1 << used.bit_length()) - 1)
    while gaps:  # close the highest gap first, so the lower ones stay put
        low = (1 << gaps.bit_length() - 1) - 1
        facets = [f & low | f >> 1 & ~low for f in facets]
        gaps &= low
    return frozenset(facets)


def _is_cone(facets: Iterable[int]) -> bool:
    """Whether these nonvoid facets share a vertex."""
    return reduce(and_, facets, -1) != 0


@lru_cache(maxsize=4096)
def _packed_profile(facets: frozenset[int], field: Field) -> HomologyProfile | None:
    """``link_profile`` of a complex packed onto vertices 1..k.  Deleting a
    dominated vertex keeps the homotopy type, so each stage of the collapse
    is looked up here in turn: one vertex, the highest dominated one, goes
    per call, and the packed rest is a key of its own.  A cone (a single
    vertex included) is contractible.  A core holding more than half of the
    2^k subsets of its k vertices is ranked on its Alexander dual, which
    holds the rest; any other core, among them every core whose
    ``face_bound`` is at most 2^(k-1) and so holds at most half of the
    subsets, is ranked as it is, with no Berge pass for its dual."""
    if _is_cone(facets):
        return None
    bit = _highest_domination(facets)
    if bit is not None:
        return _packed_profile(_packed(_delete_bit(facets, bit)), field)
    k = max(facets).bit_length()
    core = SimplicialComplex.trusted(max(1, k), facets)
    if k and face_bound(facets) > 1 << k - 1:
        # The dual on [k] holds the complements of the core's non-faces,
        # 2^k - |core| faces, and H̃_i(core) ≅ H̃^(k-i-3)(dual).
        dual = dual_complex(core)
        if 2 * len(dual) < 1 << k:
            profile = reduced_homology(dual, field)
            return HomologyProfile(field, tuple(profile.dim_at(k - i - 3)
                                                for i in range(-1, k - 1)))
    return reduced_homology(core, field)


def link_profile(facets: Iterable[int], field: Field) -> HomologyProfile | None:
    """Homology of the complex with these nonvoid facets (a link), or None
    when it is certified contractible.  A cone is answered from its facets'
    meet; any other complex is decided on its copy packed onto vertices
    1..k, whose collapse stages share one bounded memo."""
    facets = list(facets)
    return None if _is_cone(facets) else _packed_profile(_packed(facets), field)


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


def contractibility(K: SimplicialComplex, field: Field = Field.GF2) -> Verdict:
    """Contractible when K is a cone or collapses to a point, non-contractible
    when its core has nonzero homology, and Unknown otherwise: the verdict
    that ``link_profile`` certifies."""
    if K.is_void:
        raise VoidComplex("contractibility of the void complex")
    return _status(link_profile(K.facet_bits, field))
