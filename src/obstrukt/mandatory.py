"""Mandatory faces of a complex: the homological set and a certified partition.

A face is homologically mandatory when its link has nonzero reduced homology
over the chosen field.  The certified partition routes every face by the
contractibility verdict of its link; the empty face is mandatory by
definition regardless of its link.  A cone shortcut is applied first: when
the intersection of facets containing σ exceeds σ, the link is a cone and
therefore contractible.  These intersections come from one pass over the
submasks of each facet, which meets each face once per facet containing
it.  Next, a link with nonzero
reduced Euler characteristic (computed for all faces at once) has nonzero
homology over every field; only the links of characteristic 0 are built, and
``collapse.contractibility`` decides them (strong collapse to a point, or
nonzero homology of the strong-collapse core).  The duplicate theorem's link
check reads ``collapse.core_homology``, which ranks the same narrowed core
and so shares its memo entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .codes import Codeword, NeuralCode, binaries
from .complexes import SimplicialComplex, code_complex, iter_submasks, link
from .collapse import ContractibilityVerdict, Verdict, contractibility
from .errors import VoidComplex
from .homology import Field, link_euler_characteristics
from .homology import reduced_homology  # noqa: F401  bound for bench/test_bench.py


@dataclass(frozen=True)
class MandatorySet:
    field: Field
    faces: frozenset[Codeword]

    def binaries(self) -> list[str]:
        return binaries(self.faces)


@dataclass(frozen=True)
class MandatoryPartition:
    """Faces split by link-contractibility certificate.

    ``certified_in`` always holds the empty face; ``ambient_verdict`` carries
    the contractibility verdict for the whole complex (the link of ∅) so both
    readings of ∅-membership stay checkable: ``mandatory`` is the homological
    one.
    """

    field: Field
    certified_in: frozenset[Codeword]
    certified_out: frozenset[Codeword]
    unknown: frozenset[Codeword]
    ambient_verdict: ContractibilityVerdict

    @property
    def fully_certified(self) -> bool:
        return not self.unknown

    @cached_property
    def mandatory(self) -> MandatorySet:
        """M_H: a link has nonzero homology exactly when it is certified
        non-contractible, so these are the nonempty faces of ``certified_in``,
        plus ∅ (whose link is the complex) when the complex is."""
        keep_empty = self.ambient_verdict.status is Verdict.NON_CONTRACTIBLE
        faces = frozenset(c for c in self.certified_in if c.bits or keep_empty)
        return MandatorySet(self.field, faces)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.value,
            "cmin_in": binaries(self.certified_in),
            "cmin_out": binaries(self.certified_out),
            "cmin_unknown": binaries(self.unknown),
            "complex_verdict": self.ambient_verdict.status.value,
        }


def mandatory_set(K: SimplicialComplex, field: Field = Field.GF2) -> MandatorySet:
    """Faces whose link has nonzero reduced homology in some degree, read
    from the certified partition."""
    if K.is_void:
        raise VoidComplex("mandatory set of the void complex")
    return mandatory_partition(K, field).mandatory


@lru_cache(maxsize=65536)
def mandatory_partition(K: SimplicialComplex, field: Field) -> MandatoryPartition:
    """Certified three-way split of all faces by link contractibility."""
    if K.is_void:
        raise VoidComplex("mandatory partition of the void complex")
    ambient = contractibility(K, field)
    chi = link_euler_characteristics(K)
    meet: dict[int, int] = {}  # face mask -> intersection of the facets over it
    for f in K.facet_bits:
        for m in iter_submasks(f):
            meet[m] = meet.get(m, f) & f
    cin, cout, unknown = [], [], []
    for m in sorted(meet):
        sigma = Codeword(m, K.n)
        if m == 0:
            cin.append(sigma)  # ∅ is mandatory by definition
            continue
        if meet[m] != m:
            cout.append(sigma)
            continue
        status = (Verdict.NON_CONTRACTIBLE if chi[m]
                  else contractibility(link(K, sigma), field).status)
        if status is Verdict.NON_CONTRACTIBLE:
            cin.append(sigma)
        elif status is Verdict.CONTRACTIBLE:
            cout.append(sigma)
        else:
            unknown.append(sigma)
    return MandatoryPartition(
        field, frozenset(cin), frozenset(cout), frozenset(unknown), ambient
    )


@dataclass(frozen=True)
class ObstructionCheck:
    passes: bool
    missing: frozenset[Codeword]

    def to_json_dict(self) -> dict:
        return {
            "passes": self.passes,
            "missing": binaries(self.missing),
        }


def check_no_local_obstruction(code: NeuralCode, field: Field = Field.GF2) -> ObstructionCheck:
    """Necessary condition for open convexity: the code must contain every
    homologically mandatory face of its complex."""
    K = code_complex(code)
    missing = mandatory_set(K, field).faces - code.words
    return ObstructionCheck(not missing, missing)


def analysis_json_dict(K: SimplicialComplex, field: Field) -> dict:
    """Combined mandatory report used by the command-line front end."""
    part = mandatory_partition(K, field)
    return {"field": field.value, "mh": part.mandatory.binaries()} | part.to_json_dict()
