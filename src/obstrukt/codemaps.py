"""Elementary code maps and the theorem table.

Maps: permutation, adding a trivial on/off neuron, duplicating a neuron
(appended at position n+1), projecting a neuron away, and inclusion.  Each
row of ``THEOREMS`` states what one preservation theorem claims about a code
and its image: the relation on the mandatory set, and laws on links, on the
certified partition and on the Stanley-Reisner ideals.  One interpreter
recomputes both sides with the engine and reports holds / violated /
partial, where partial means a certificate was unavailable (contractibility
is undecidable in general).  Faces are mapped and compared as masks.

The rows with link laws (duplicate and projection) have coordinate maps,
f(A ∖ B) = f(A) ∖ f(B), so the image of a link is read off the images of
the complex's facets, mapped once per instance, and the image formula is
decided on those images and the facets over the image face without building
either link.  The homology law answers equal links without ranks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Iterable, Union

from .codes import MAX_NEURONS, NeuralCode, binaries
from .collapse import Verdict, _facet_homology
from . import complexes  # maximal_masks stays bound in complexes alone, as bench/test_bench.py expects
from .complexes import SimplicialComplex, code_complex, facets_over
from .errors import NeuronOutOfRange, NotInDomain, WidthMismatch
from .homology import Field, reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import (MonomialIdeal, alexander_dual, invert_permutation, permutation_tuple,
                     permute_mask, sr_ideal)
from .mandatory import mandatory_partition


@dataclass(frozen=True)
class Permute:
    gamma: tuple[int, ...]

    def describe(self) -> str:
        return "permute(" + ",".join(str(g) for g in self.gamma) + ")"


@dataclass(frozen=True)
class AddTrivialOn:
    def describe(self) -> str:
        return "add_trivial_on"


@dataclass(frozen=True)
class AddTrivialOff:
    def describe(self) -> str:
        return "add_trivial_off"


@dataclass(frozen=True)
class Duplicate:
    source: int = 1

    def describe(self) -> str:
        return f"duplicate({self.source})"


@dataclass(frozen=True)
class Project:
    delete: int

    def describe(self) -> str:
        return f"project({self.delete})"


@dataclass(frozen=True)
class Include:
    target: NeuralCode

    def describe(self) -> str:
        return f"include(into {len(self.target.masks)} words)"


ElementaryMap = Union[Permute, AddTrivialOn, AddTrivialOff, Duplicate, Project, Include]


def embed_mask(mask: int, position: int) -> int:
    """Insert an off coordinate at ``position`` (the inverse of projecting
    that coordinate away on masks where it is off)."""
    low = mask & ((1 << (position - 1)) - 1)
    high = (mask >> (position - 1)) << position
    return low | high


@dataclass(frozen=True)
class ResolvedStep:
    """A step fixed to its incoming width n, with its action on masks
    resolved once: a permutation inverts γ here, not once per mask."""

    step: ElementaryMap
    n: int
    out_n: int
    f: Callable[[int], int]

    def image(self, K: SimplicialComplex) -> SimplicialComplex:
        """Downward closure of the image of K's faces, built from its facets.

        Every elementary map is monotone on masks, so the images of the facets
        generate the same closure as the images of all faces.  Every map but a
        projection is an order embedding (m ⊆ m' exactly when f(m) ⊆ f(m')), so
        there the facet images are already the facets of the image, and so is
        the image of a single facet.
        """
        images = map(self.f, K.facet_bits)
        if isinstance(self.step, Project) and len(K.facet_bits) > 1:
            images = complexes.maximal_masks(images)
        return SimplicialComplex(self.out_n, frozenset(images))


def _identity(mask: int) -> int:
    return mask


def _widened(n: int) -> int:
    if n + 1 > MAX_NEURONS:
        raise NeuronOutOfRange(f"widening past {MAX_NEURONS} neurons")
    return n + 1


def resolve_step(step: ElementaryMap, n: int) -> ResolvedStep:
    """Check a step against the incoming width n and resolve its mask
    function and outgoing width."""
    out_n = n
    if isinstance(step, Permute):
        # position i of the image reads coordinate γ(i) of the argument
        f = partial(permute_mask, gamma=invert_permutation(permutation_tuple(step.gamma, n)))
    elif isinstance(step, AddTrivialOn):
        f, out_n = (1 << n).__or__, _widened(n)
    elif isinstance(step, AddTrivialOff):
        f, out_n = _identity, _widened(n)
    elif isinstance(step, Duplicate):
        if not 1 <= step.source <= n:
            raise NeuronOutOfRange(f"duplicate source {step.source} outside 1..{n}")
        shift = step.source - 1

        def f(mask: int) -> int:
            return mask | ((mask >> shift & 1) << n)
        out_n = _widened(n)
    elif isinstance(step, Project):
        if not 1 <= step.delete <= n:
            raise NeuronOutOfRange(f"projection index {step.delete} outside 1..{n}")
        if n < 2:
            raise WidthMismatch("cannot project the only neuron away")
        above, low = step.delete - 1, (1 << step.delete - 1) - 1

        def f(mask: int) -> int:  # coordinates above the deleted one move down
            return mask & low | mask >> 1 + above << above
        out_n = n - 1
    elif isinstance(step, Include):
        if step.target.n != n:
            raise WidthMismatch(f"inclusion target width {step.target.n} differs from {n}")
        f = _identity
    else:
        raise TypeError(f"not an elementary map: {step!r}")
    return ResolvedStep(step, n, out_n, f)


def map_code(step: ElementaryMap, code: NeuralCode) -> NeuralCode:
    r = resolve_step(step, code.n)
    if isinstance(step, Include) and (missing := code.masks - step.target.masks):
        first = binaries(missing, code.n)[0]
        raise NotInDomain(f"Codeword({first!r}) is not a word of the inclusion target")
    return NeuralCode(r.out_n, map(r.f, code.masks))


def image_complex(step: ElementaryMap, K: SimplicialComplex) -> SimplicialComplex:
    """Downward closure of the image face set (see ``ResolvedStep.image``)."""
    return resolve_step(step, K.n).image(K)


class Outcome(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    PARTIAL = "partial"


@dataclass(frozen=True)
class CheckResult:
    """One relation instance; lhs/rhs hold the observed sets as binary strings.

    For per-face aggregate checks, lhs lists the faces where the relation
    failed and rhs stays empty.
    """

    name: str
    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    outcome: Outcome
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "relation": self.relation,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "outcome": self.outcome.value,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    code: NeuralCode
    map_desc: str
    field: Field
    checks: tuple[CheckResult, ...]
    observations: tuple[tuple[str, bool], ...] = ()

    @property
    def verdict(self) -> Outcome:
        if any(c.outcome is Outcome.VIOLATED for c in self.checks):
            return Outcome.VIOLATED
        if any(c.outcome is Outcome.PARTIAL for c in self.checks):
            return Outcome.PARTIAL
        return Outcome.HOLDS

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.code.n,
            "code": binaries(self.code.masks, self.code.n),
            "map": self.map_desc,
            "field": self.field.value,
            "verdict": self.verdict.value,
            "checks": [c.to_json_dict() for c in self.checks],
            "observations": {k: v for k, v in self.observations},
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict())


def _check(name: str, relation: str, n: int, lhs, rhs=frozenset(), holds: bool | None = None,
           note: str = "") -> CheckResult:
    """One relation instance on two sets of width-n masks; unless ``holds``
    is given, ``relation`` (= or ⊆) is evaluated on the two sets."""
    same = lhs == rhs
    if holds is None:
        holds = same if relation == "=" else lhs <= rhs
    outcome = Outcome.HOLDS if holds else Outcome.VIOLATED
    left = tuple(binaries(lhs, n))
    return CheckResult(name, relation, left, left if same else tuple(binaries(rhs, n)),
                       outcome, note)


def _partial(name: str, note: str) -> CheckResult:
    return CheckResult(name, "=", (), (), Outcome.PARTIAL, note)


# ---- the theorem table -------------------------------------------------------

@dataclass(frozen=True)
class Theorem:
    """What one preservation theorem claims about a code C and its image q(C).

    ``mh`` relates M_H(q(C)) to q(M_H(C)): "=", or "⊆" for the target inside
    the image, whose reverse containment is then reported as an observation.
    ``links`` are laws on link(K, σ) and link(K2, σ') for every face pair
    that ``faces`` reads off the facets-over indexes of K and K2: it returns
    the width of the listed faces and (listed face, σ, σ') as masks; a
    failing pair lists its first entry.  Each law takes the image of each
    facet of K (a lookup), the facets over σ and over σ', σ and σ', and
    the field.  ``classes`` pairs a check name with a partition class whose
    image must equal the target's class; ``partial`` names the check that
    stands in when either partition has uncertified links (None compares
    the classes regardless).  ``shift`` replaces the class comparison for a
    map that moves the partition.  ``ideals`` are laws on the Stanley-Reisner
    ideals of K and K2, each giving the observed and the expected generators.
    """

    mh: str = "="
    faces: Callable | None = None
    links: tuple[tuple[str, Callable], ...] = ()
    classes: tuple[tuple[str, str], ...] = ()
    partial: str | None = None
    shift: Callable | None = None
    ideals: tuple[tuple[str, Callable], ...] = ()


def _image_faces(r: ResolvedStep, over1: dict[int, list[int]], over2: dict[int, list[int]]):
    """Each face σ of K, listed, with its image q(σ)."""
    f = r.f
    return r.n, ((m, m, f(m)) for m in over1)


def _lifted_faces(r: ResolvedStep, over1: dict[int, list[int]], over2: dict[int, list[int]]):
    """Each face σ' of the projected complex, listed, with its zero-extension."""
    delete = r.step.delete
    return r.out_n, ((m2, embed_mask(m2, delete), m2) for m2 in over2)


def _same_homology(image: Callable[[int], int], over1: list[int], over2: list[int],
                   s1: int, s2: int, fld: Field) -> bool:
    """lk σ and lk σ' have the same homology: the facets over σ and σ'
    with σ and σ' taken away are the two links' facets."""
    lk1 = frozenset(map((~s1).__and__, over1))
    lk2 = frozenset(map((~s2).__and__, over2))
    return lk1 == lk2 or _facet_homology(lk1, fld) == _facet_homology(lk2, fld)


def _image_formula(image: Callable[[int], int], over1: list[int], over2: list[int],
                   s1: int, s2: int, fld: Field) -> bool:
    """The link of an image face is the image of the link: the maximal
    images of the link of σ's facets are the facets of the link of σ'.  For
    a duplicate this is the two-case formula: a face holding the source has
    a link without it, whose image is that link widened.  A map with link
    laws is a coordinate map, so the image of lk σ is q(F) ∖ q(σ) over the
    facets F holding σ; these q(F) and the facets over q(σ) all hold q(σ),
    and taking it away keeps their order, so the law is read on the facets
    over σ and over σ' as it would be on the links.  The facets over σ' are
    an antichain, so they are the maximal images exactly when each is an
    image and every other image lies under one of them; no
    ``maximal_masks`` pass is needed."""
    images, targets = frozenset(map(image, over1)), frozenset(over2)
    if images == targets:
        return True
    return targets <= images and all(i in map(i.__and__, targets) for i in images - targets)


def _shift_by_empty_word(q, p1, p2) -> CheckResult:
    """∅ is certified on both sides by definition, and its image, the new
    vertex, has link K: so the image of the certified set is the target's
    minus ∅ when K is non-contractible, and their nonempty parts agree when
    K is contractible."""
    ambient = p1.ambient_verdict
    if ambient is Verdict.CONTRACTIBLE:
        return _check("cmin_nonempty_image_equal", "=", p2.n,
                      q(p1.in_masks - {0}), p2.in_masks - {0})
    if ambient is Verdict.NON_CONTRACTIBLE:
        lhs = q(p1.in_masks)
        return _check("cmin_image_strictly_below", "⊊", p2.n, lhs, p2.in_masks,
                      holds=lhs == p2.in_masks - {0} and 0 in p2.in_masks,
                      note="image must equal the target minus the empty word")
    return _partial("cmin_branch", "contractibility of the complex is unknown")


def _sr_gains_one_variable(sr1: MonomialIdeal, sr2: MonomialIdeal):
    return sr2.gen_bits, sr1.gen_bits | {1 << sr1.n}


def _dual_gains_new_variable_factor(sr1: MonomialIdeal, sr2: MonomialIdeal):
    new_bit = 1 << sr1.n
    if sr1.is_zero:
        expected = {new_bit}
    else:
        expected = {g | new_bit for g in alexander_dual(sr1).gen_bits}
    return alexander_dual(sr2).gen_bits, expected


_IN = ("cmin_in_image_equal", "in_masks")
_OUT = ("cmin_out_image_equal", "out_masks")

THEOREMS: dict[str, Theorem] = {
    "permutation": Theorem(classes=(_IN, _OUT), partial="cmin_image_equal"),
    "add_trivial_on": Theorem(shift=_shift_by_empty_word, partial="cmin_branch"),
    "add_trivial_off": Theorem(
        classes=(_IN, _OUT, ("cmin_unknown_image_equal", "unknown_masks")),
        ideals=(("sr_ideal_gains_one_variable", _sr_gains_one_variable),
                ("dual_ideal_gens_gain_new_variable_factor", _dual_gains_new_variable_factor)),
    ),
    "duplicate": Theorem(
        faces=_image_faces,
        links=(("link_homology_preserved", _same_homology),
               ("link_two_case_formula", _image_formula)),
        classes=(_IN,),
        partial="cmin_in_image_equal",
    ),
    "projection": Theorem(
        mh="⊆", faces=_lifted_faces, links=(("link_image_formula", _image_formula),)
    ),
}


class Domain:
    """A map's domain code with its complex, built on first use, so that
    every instance checked on one ``Domain`` shares it (and the memo of
    ``facets_over`` its index).  The ``verify_*`` functions take a
    ``Domain`` or a bare code."""

    def __init__(self, code: NeuralCode) -> None:
        self.code = code

    @cached_property
    def K(self) -> SimplicialComplex:
        return code_complex(self.code)


def _verify(theorem: str, dom: NeuralCode | Domain, step: ElementaryMap,
            fld: Field) -> VerificationReport:
    """Check one row of ``THEOREMS`` on a code and a map.

    Checks come in the order M_H, links, partition, ideals.  An empty code
    has no complex, so its report holds no checks.
    """
    if not isinstance(dom, Domain):
        dom = Domain(dom)
    code = dom.code
    spec = THEOREMS[theorem]
    r = resolve_step(step, code.n)
    if not code.masks:
        return VerificationReport(theorem, code, step.describe(), fld, (), (("empty_code", True),))
    K = dom.K
    f, out_n = r.f, r.out_n
    K2 = r.image(K)

    def q(masks: Iterable[int]) -> frozenset[int]:
        return frozenset(map(f, masks))

    p1, p2 = mandatory_partition(K, fld), mandatory_partition(K2, fld)
    q_mh1, mh2 = q(p1.mandatory.masks), p2.mandatory.masks
    observations: tuple[tuple[str, bool], ...] = ()
    if spec.mh == "=":
        checks = [_check("mh_image_equal", "=", out_n, q_mh1, mh2)]
    else:
        checks = [_check("mh_containment", "⊆", out_n, mh2, q_mh1)]
        observations = (("mh_reverse_containment_holds", q_mh1 <= mh2),)

    if spec.links:
        over1, over2 = facets_over(K), facets_over(K2)
        width, pairs = spec.faces(r, over1, over2)
        image = {F: f(F) for F in K.facet_bits}.__getitem__  # each facet mapped once
        failures: list[list[int]] = [[] for _ in spec.links]
        laws = [(law, failed) for (_, law), failed in zip(spec.links, failures)]
        for shown, s1, s2 in pairs:
            above1, above2 = over1[s1], over2[s2]
            for law, failed in laws:
                if not law(image, above1, above2, s1, s2, fld):
                    failed.append(shown)
        for (name, _), failed in zip(spec.links, failures):
            note = "faces listed on the left violate the relation" if failed else ""
            checks.append(_check(name, "∀", width, failed, holds=not failed, note=note))

    if spec.classes or spec.shift:
        if spec.partial and not (p1.fully_certified and p2.fully_certified):
            checks.append(_partial(spec.partial, "uncertified links present"))
        elif spec.shift:
            checks.append(spec.shift(q, p1, p2))
        else:
            checks.extend(_check(name, "=", out_n, q(getattr(p1, cls)), getattr(p2, cls))
                          for name, cls in spec.classes)

    if spec.ideals:
        sr1, sr2 = sr_ideal(K), sr_ideal(K2)
        for name, law in spec.ideals:
            lhs, rhs = law(sr1, sr2)
            checks.append(_check(name, "=", out_n, lhs, rhs))
    return VerificationReport(theorem, code, step.describe(), fld, tuple(checks), observations)


def verify_permutation(
    code: NeuralCode | Domain, gamma: Iterable[int], fld: Field = Field.GF2
) -> VerificationReport:
    """Permutation preserves the mandatory set and the certified partition."""
    return _verify("permutation", code, Permute(tuple(gamma)), fld)


def verify_add_trivial_on(code: NeuralCode | Domain, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-on neuron preserves the mandatory set; the
    certified partition shifts by the empty word according to whether the
    starting complex is contractible."""
    return _verify("add_trivial_on", code, AddTrivialOn(), fld)


def verify_add_trivial_off(code: NeuralCode | Domain, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-off neuron changes nothing: mandatory data map
    across verbatim and the Stanley-Reisner data gain exactly one variable."""
    return _verify("add_trivial_off", code, AddTrivialOff(), fld)


def verify_duplicate(
    code: NeuralCode | Domain, source: int = 1, fld: Field = Field.GF2
) -> VerificationReport:
    """Duplicating a neuron preserves the mandatory set; links of image faces
    are homotopic to the original links, which the engine checks at the level
    of homology in every degree, plus the two-case link formula, which is
    the image formula for links."""
    return _verify("duplicate", code, Duplicate(source), fld)


def verify_projection(
    code: NeuralCode | Domain, delete: int, fld: Field = Field.GF2
) -> VerificationReport:
    """Deleting a neuron can only shrink the mandatory set through the image:
    the target mandatory set is contained in the image of the source one, and
    links in the target are exactly the images of the zero-extended links."""
    return _verify("projection", code, Project(delete), fld)
