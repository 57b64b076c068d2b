"""Mandatory faces of a complex: the homological set and a certified partition.

A face is homologically mandatory when its link has nonzero reduced homology
over the chosen field.  The certified partition routes every face by the
contractibility verdict of its link; the empty face is mandatory by
definition regardless of its link.  Only a face that is an intersection of
facets can have a link that is not a cone (Curto et al., What makes a neural
code convex?, SIAM J. Appl. Algebra Geom. 2017), so the partition is decided
on the lattice of facet intersections alone.  One pass over the facets,
``complexes.link_euler_characteristics``, gives that lattice and the reduced
Euler characteristic of each of its links: a link with χ̃ ≠ 0 has nonzero
homology over every field.  The links of characteristic 0 are decided on
facet masks by ``collapse.link_profile``, as the duplicate theorem's link
check is.  The complex itself, the link of ∅, is decided in the same pass
for ``ambient_verdict``; when ∅ is no facet intersection, the facets share
a vertex and the complex is a cone.  Every other face has a cone for its
link and is certified out; that class is listed, under the kernel's bound,
only when it is read.  The partition keeps the lattice, which the
duplicate theorem's homology law reads.  Faces stay masks; the Codeword
sets are views.
"""
from __future__ import annotations

from functools import cached_property, lru_cache

from .codes import Codeword, NeuralCode, _Record, binaries
from .complexes import SimplicialComplex, code_complex, link_euler_characteristics
from .collapse import Verdict, _status, link_profile
from .errors import VoidComplex
from .homology import Field
from .homology import reduced_homology  # noqa: F401  bound for bench/test_bench.py


def _words(masks: frozenset[int], n: int) -> frozenset[Codeword]:
    return frozenset(Codeword(m, n) for m in masks)


class MandatorySet(_Record):
    """The homologically mandatory faces M_H(Δ) over ``field``, as masks of
    width n; ``faces`` is their Codeword view."""

    _fields = ("field", "n", "masks")

    def __init__(self, field: Field, n: int, masks: frozenset[int]) -> None:
        d = self.__dict__
        d["field"] = field
        d["n"] = n
        d["masks"] = masks

    @cached_property
    def faces(self) -> frozenset[Codeword]:
        return _words(self.masks, self.n)

    def binaries(self) -> list[str]:
        return binaries(self.masks, self.n)


class MandatoryPartition(_Record):
    """The faces of K split by link-contractibility certificate, as masks of
    width n; ``certified_in``, ``certified_out`` and ``unknown`` are their
    Codeword views.  ``out_masks``, the rest of ``K.face_bits``, is listed
    on its first read.

    ``in_masks`` always holds the empty face; ``ambient_verdict`` is the
    contractibility verdict of the whole complex (the link of ∅), so both
    readings of ∅-membership stay checkable: ``mandatory`` is the
    homological one.  ``lattice`` holds the facet intersections, ∅ among
    them when it is one: every other face has a cone for its link.
    """

    _fields = ("field", "K", "in_masks", "unknown_masks", "ambient_verdict", "lattice")

    def __init__(self, field: Field, K: SimplicialComplex, in_masks: frozenset[int],
                 unknown_masks: frozenset[int], ambient_verdict: Verdict,
                 lattice: frozenset[int]) -> None:
        d = self.__dict__
        d["field"] = field
        d["K"] = K
        d["in_masks"] = in_masks
        d["unknown_masks"] = unknown_masks
        d["ambient_verdict"] = ambient_verdict
        d["lattice"] = lattice

    @property
    def n(self) -> int:
        return self.K.n

    @cached_property
    def out_masks(self) -> frozenset[int]:
        return self.K.face_bits - self.in_masks - self.unknown_masks

    @property
    def certified_in(self) -> frozenset[Codeword]:
        return _words(self.in_masks, self.n)

    @property
    def certified_out(self) -> frozenset[Codeword]:
        return _words(self.out_masks, self.n)

    @property
    def unknown(self) -> frozenset[Codeword]:
        return _words(self.unknown_masks, self.n)

    @property
    def fully_certified(self) -> bool:
        return not self.unknown_masks

    @cached_property
    def mandatory(self) -> MandatorySet:
        """M_H: a link has nonzero homology exactly when it is certified
        non-contractible, so these are the nonempty faces of ``in_masks``,
        plus ∅ (whose link is the complex) when the complex is."""
        keep_empty = self.ambient_verdict is Verdict.NON_CONTRACTIBLE
        return MandatorySet(self.field, self.n, self.in_masks if keep_empty else self.in_masks - {0})

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.value,
            "mh": self.mandatory.binaries(),
            "cmin_in": binaries(self.in_masks, self.n),
            "cmin_out": binaries(self.out_masks, self.n),
            "cmin_unknown": binaries(self.unknown_masks, self.n),
            "complex_verdict": self.ambient_verdict.value,
        }


def mandatory_set(K: SimplicialComplex, field: Field = Field.GF2) -> MandatorySet:
    """Faces whose link has nonzero reduced homology in some degree, read
    from the certified partition."""
    if K.is_void:
        raise VoidComplex("mandatory set of the void complex")
    return mandatory_partition(K, field).mandatory


# 1,024 entries hold the 649 partitions per field of an exhaustive n = 4
# suite and a sampled n = 8 suite's working set (its permutations and
# projections), and keep memory flat over a long suite.
@lru_cache(maxsize=1024)
def mandatory_partition(K: SimplicialComplex, field: Field) -> MandatoryPartition:
    """Certified three-way split of all faces by link contractibility,
    decided on the facet intersections, ∅ among them: any other face has a
    cone for its link and lands in ``out_masks``, which is enumerated on its
    first read."""
    if K.is_void:
        raise VoidComplex("mandatory partition of the void complex")
    facets = K.facet_bits
    lattice = link_euler_characteristics(facets)
    cin = {m for m, chi in lattice.items() if chi}  # χ̃ ≠ 0: nonzero homology
    cin.add(0)  # ∅ is mandatory by definition
    # unless ∅ is a facet intersection, K is a cone
    ambient = Verdict.NON_CONTRACTIBLE if lattice.get(0) else Verdict.CONTRACTIBLE
    unknown = set()
    for m, chi in lattice.items():
        if chi:
            continue
        status = _status(link_profile([f & ~m for f in facets if not m & ~f], field))
        if not m:
            ambient = status
        elif status is Verdict.NON_CONTRACTIBLE:
            cin.add(m)
        elif status is Verdict.UNKNOWN:
            unknown.add(m)
    return MandatoryPartition(field, K, frozenset(cin), frozenset(unknown), ambient,
                              frozenset(lattice))


class ObstructionCheck(_Record):
    """The mandatory faces a code lacks, as masks of width n; ``missing``
    is their Codeword view."""

    _fields = ("passes", "missing_masks", "n")

    def __init__(self, passes: bool, missing_masks: frozenset[int], n: int) -> None:
        d = self.__dict__
        d["passes"] = passes
        d["missing_masks"] = missing_masks
        d["n"] = n

    @property
    def missing(self) -> frozenset[Codeword]:
        return _words(self.missing_masks, self.n)


def check_no_local_obstruction(code: NeuralCode, field: Field = Field.GF2) -> ObstructionCheck:
    """Necessary condition for open convexity: the code must contain every
    homologically mandatory face of its complex."""
    K = code_complex(code)
    missing = mandatory_set(K, field).masks - code.masks
    return ObstructionCheck(not missing, missing, code.n)
