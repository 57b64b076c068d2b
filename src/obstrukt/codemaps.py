"""Elementary code maps and the theorem table.

Maps: permutation, adding a trivial on/off neuron, duplicating a neuron
(appended at position n+1), projecting a neuron away, and inclusion.  Each
row of ``THEOREMS`` states what one preservation theorem claims about a code
and its image: the relation on the mandatory set, and laws on links, on the
certified partition and on the Stanley-Reisner ideals.  Each step class but
``Include`` names its row in its ``theorem`` attribute, and ``verify(step,
code)`` checks that row: one interpreter recomputes both sides with the
engine and reports holds / violated / partial, where partial means a
certificate was unavailable (contractibility is undecidable in general).
Faces are mapped and compared as masks.

The rows with link laws (duplicate and projection) have coordinate maps,
f(A ∖ B) = f(A) ∖ f(B), so the image of a link is read off the images of
the complex's facets, mapped once per instance.  Each link law is one
function that names the faces where it fails, and lists no face when it
holds.  The image formula names them from one comparison of the facet
images with the image complex's facets.  The duplicate row's homology law
follows from that comparison for every face at once: when the facet images
are the image complex's facets and the map duplicates a vertex, each pair
of links is equal or one strong collapse apart (``_lattice_faces``).
Failing that, it compares the homology of the two links only at the faces
of the facet-intersection lattices that the two partitions hold, since off
them both links are cones.  So neither row's cost follows the 2^|F| faces
under a facet.  A permutation maps masks through tables of images
(``ideals.mask_permuter``), built once per step.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Union

from .codes import MAX_NEURONS, NeuralCode, _Record, binaries
from .collapse import Verdict, _facet_homology
from . import complexes  # maximal_masks stays bound in complexes alone, as bench/test_bench.py expects
from .complexes import SimplicialComplex, code_complex
from .errors import NeuronOutOfRange, NotInDomain, WidthMismatch
from .homology import Field, HomologyProfile
from .homology import reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import (alexander_dual, dual_ideal, invert_permutation, mask_permuter,
                     permutation_tuple, sr_ideal)
from .mandatory import mandatory_partition


class Permute(_Record):
    """Permute the neurons: position i of the image reads neuron γ(i)."""

    theorem = "permutation"
    _fields = ("gamma",)

    def __init__(self, gamma: tuple[int, ...]) -> None:
        self.__dict__["gamma"] = gamma

    def describe(self) -> str:
        return "permute(" + ",".join(str(g) for g in self.gamma) + ")"


class AddTrivialOn(_Record):
    """Append neuron n+1, on in every word."""

    theorem = "add_trivial_on"

    def describe(self) -> str:
        return "add_trivial_on"


class AddTrivialOff(_Record):
    """Append neuron n+1, off in every word."""

    theorem = "add_trivial_off"

    def describe(self) -> str:
        return "add_trivial_off"


class Duplicate(_Record):
    """Append neuron n+1 as a copy of neuron ``source``."""

    theorem = "duplicate"
    _fields = ("source",)

    def __init__(self, source: int = 1) -> None:
        self.__dict__["source"] = source

    def describe(self) -> str:
        return f"duplicate({self.source})"


class Project(_Record):
    """Delete neuron ``delete``; the neurons above it move down by one."""

    theorem = "projection"
    _fields = ("delete",)

    def __init__(self, delete: int) -> None:
        self.__dict__["delete"] = delete

    def describe(self) -> str:
        return f"project({self.delete})"


class Include(_Record):
    """Include the code in ``target``, a code on the same neurons that holds
    its words."""

    _fields = ("target",)

    def __init__(self, target: NeuralCode) -> None:
        self.__dict__["target"] = target

    def describe(self) -> str:
        return f"include(into {len(self.target.masks)} words)"


ElementaryMap = Union[Permute, AddTrivialOn, AddTrivialOff, Duplicate, Project, Include]


class ResolvedStep(NamedTuple):
    """A step fixed to its incoming width n, with its action on masks
    resolved once: a permutation inverts γ and builds its table of mask
    images here, not once per mask."""

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
        return SimplicialComplex.trusted(self.out_n, frozenset(images))


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
        f = mask_permuter(invert_permutation(permutation_tuple(step.gamma, n)))
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


def _strings(texts: tuple[str, ...]) -> str:
    """The JSON array of strings that need no escaping, such as binaries."""
    return '["' + '", "'.join(texts) + '"]' if texts else "[]"


class CheckResult(_Record):
    """One relation instance; lhs/rhs hold the observed sets as binary strings.

    For per-face aggregate checks, lhs lists the faces where the relation
    failed and rhs stays empty.
    """

    _fields = ("name", "relation", "lhs", "rhs", "outcome", "note")

    def __init__(self, name: str, relation: str, lhs: tuple[str, ...], rhs: tuple[str, ...],
                 outcome: Outcome, note: str = "") -> None:
        d = self.__dict__
        d["name"] = name
        d["relation"] = relation
        d["lhs"] = lhs
        d["rhs"] = rhs
        d["outcome"] = outcome
        d["note"] = note


def _check_text(c: CheckResult) -> str:
    """The check's JSON object.  The name is an identifier the program
    writes and goes in quotes as it is; the relation (⊆, ⊊, ∀) and the note
    go through ``json.dumps`` to be escaped."""
    note = f', "note": {json.dumps(c.note)}' if c.note else ""
    return (f'{{"name": "{c.name}", "relation": {json.dumps(c.relation)}, '
            f'"lhs": {_strings(c.lhs)}, "rhs": {_strings(c.rhs)}, '
            f'"outcome": "{c.outcome.value}"{note}}}')


class VerificationReport(_Record):
    """One theorem instance, its verdict decided once, when it is made;
    equality and hashing read every field but the verdict."""

    _fields = ("theorem", "code", "map_desc", "field", "checks", "observations", "verdict")
    _compared = _fields[:-1]

    def __init__(self, theorem: str, code: NeuralCode, map_desc: str, field: Field,
                 checks: tuple[CheckResult, ...],
                 observations: tuple[tuple[str, bool], ...] = ()) -> None:
        outcomes = [c.outcome for c in checks]
        d = self.__dict__
        d["theorem"] = theorem
        d["code"] = code
        d["map_desc"] = map_desc
        d["field"] = field
        d["checks"] = checks
        d["observations"] = observations
        d["verdict"] = (Outcome.VIOLATED if Outcome.VIOLATED in outcomes else
                        Outcome.PARTIAL if Outcome.PARTIAL in outcomes else Outcome.HOLDS)

    def line_halves(self) -> tuple[str, str]:
        """The report's JSON line as the text before and after the value of
        its ``code`` key, the one part that depends on more than the code's
        complex.  The theorem, map, field and observation names are
        identifiers the program writes, put in quotes as they are."""
        checks = ", ".join([_check_text(c) for c in self.checks])
        observed = ", ".join([f'"{k}": {"true" if v else "false"}' for k, v in self.observations])
        return (f'{{"theorem": "{self.theorem}", "n": {self.code.n}, "code": ',
                f', "map": "{self.map_desc}", "field": "{self.field.value}", '
                f'"verdict": "{self.verdict.value}", "checks": [{checks}], '
                f'"observations": {{{observed}}}}}')

    def to_json_line(self) -> str:
        head, tail = self.line_halves()
        return head + json.dumps(binaries(self.code.masks, self.code.n)) + tail


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

class _LinkPairs:
    """What one instance's link laws read: the map q, the complexes K and
    K2, the images of K's facets, and the facet-intersection lattices that
    the two partitions hold.  A law names the faces of ``listed`` at which
    it fails, each standing for the face pair (σ, σ'), σ' = q(σ): every
    face σ of K, or for a row that lists the image, every face σ' of K2
    with σ its least preimage.  Every map with link laws is a coordinate
    map: q(σ) is the union of the sets q(v) over the vertices v of σ, so
    the largest mask that q sends under m is the union of the vertices that
    it sends under m."""

    def __init__(self, r: ResolvedStep, K: SimplicialComplex, K2: SimplicialComplex,
                 lattices: tuple[frozenset[int], frozenset[int]], lists_image: bool) -> None:
        self.f, self.K, self.K2, self.lattices = r.f, K, K2, lattices
        self.lists_image = lists_image
        self.listed, self.width = (K2, r.out_n) if lists_image else (K, r.n)
        self.facet_images = frozenset(map(r.f, K.facet_bits))  # each facet mapped once
        self._vertices = [(1 << i, r.f(1 << i)) for i in range(r.n)]

    def below(self, m: int) -> int:
        """The largest mask that q sends under m."""
        return sum(v for v, qv in self._vertices if not qv & ~m)

    def listed_under(self, targets: Iterable[int]) -> frozenset[int]:
        """The listed faces whose σ' lies under one of ``targets``, through
        the kernel's bounded listing."""
        under = targets if self.lists_image else map(self.below, targets)
        facets = self.listed.facet_bits
        return SimplicialComplex.from_masks([g & u for u in under for g in facets],
                                            self.width).face_bits


class Theorem(NamedTuple):
    """What one preservation theorem claims about a code C and its image q(C),
    for the maps of the step class whose ``theorem`` names its row.

    ``mh`` relates M_H(q(C)) to q(M_H(C)): "=", or "⊆" for the target inside
    the image, whose reverse containment is then reported as an observation.
    ``links`` are laws on link(K, σ) and link(K2, σ') at the face pairs of
    ``_LinkPairs``, each face of K, or each face of K2 when ``lists_image``;
    each law is called as ``law(pairs, field)`` and gives the listed faces
    at which it fails.  ``classes`` pairs a check name with a
    partition class whose image must equal the target's class; ``partial``
    names the check that stands in when either partition has uncertified
    links (None compares the classes regardless).  ``shift`` replaces the
    class comparison for a map that moves the partition.  ``ideals`` are
    laws on the Stanley-Reisner ideals of K and K2, each called on the two
    complexes and giving the observed and the expected generators.
    """

    mh: str = "="
    lists_image: bool = False
    links: tuple[tuple[str, Callable[[_LinkPairs, Field], Iterable[int]]], ...] = ()
    classes: tuple[tuple[str, str], ...] = ()
    partial: str | None = None
    shift: Callable | None = None
    ideals: tuple[tuple[str, Callable], ...] = ()


def _lattice_faces(pairs: _LinkPairs) -> set[int]:
    """The faces σ of K, for a row that lists K, at which the homology law
    can fail.

    When the facet images are K2's facets and q is a duplicate's (it fixes
    every vertex but the source s, whose image also holds the new vertex
    n+1), the law holds at every pair and no face is named.  A facet F of K
    holds σ exactly when q(F) holds σ' = q(σ), and q(F) ∖ q(σ) = q(F ∖ σ),
    so the facets of lk σ' are the images of those of lk σ.  If s ∈ σ, no
    facet of lk σ holds s, q fixes them all and the links are equal.
    Otherwise n+1 lies in exactly the facets of lk σ' that hold s, so s
    dominates n+1 there, and deleting n+1 leaves lk σ: a strong collapse,
    which keeps the homotopy type (Barmak-Minian, Strong homotopy types,
    nerves and collapses, DCG 2012).

    Otherwise the law is decided at σ in L(K), or q(σ) in L(K2), the
    facet-intersection lattices that the two partitions hold.  The link of
    a face off its complex's lattice is a cone (Curto et al., What makes a
    neural code convex?, SIAM J. Appl. Algebra Geom. 2017), so off both the
    two links are acyclic and the law holds; a σ' that is no face of K2 has
    no facets over it, which reads as acyclic too."""
    moved = [(v, qv) for v, qv in pairs._vertices if qv != v]
    if (pairs.facet_images == pairs.K2.facet_bits and len(moved) == 1
            and moved[0][1] == moved[0][0] | 1 << len(pairs._vertices)):
        return set()
    lattice1, lattice2 = pairs.lattices
    f, faces = pairs.f, set(lattice1)
    for m2 in lattice2 - set(map(f, lattice1)):
        s = pairs.below(m2)
        if f(s) == m2 and any(not s & ~F for F in pairs.K.facet_bits):
            faces.add(s)
    return faces


def _homology_faces(pairs: _LinkPairs, fld: Field) -> list[int]:
    """The faces σ of K, among those that ``_lattice_faces`` names, at
    which lk σ and lk σ' differ in homology."""
    def link_homology(facets: frozenset[int], s: int) -> HomologyProfile:
        return _facet_homology([F & ~s for F in facets if not s & ~F], fld)

    return [s for s in _lattice_faces(pairs) if link_homology(pairs.K.facet_bits, s)
            != link_homology(pairs.K2.facet_bits, pairs.f(s))]


def _image_formula_faces(pairs: _LinkPairs, fld: Field) -> frozenset[int]:
    """The listed faces at which the link of an image face is not the image
    of the link, from one comparison of the facet images P with the facets
    T of K2.  For a duplicate this is the two-case formula: a face holding
    the source has a link without it, whose image is that link widened.

    A map with link laws is a coordinate map, so the image of lk σ is
    generated by q(F) ∖ q(σ) over the facets F holding σ, and the law asks
    that the maximal ones be the facets G ∖ σ' of lk σ' over the facets G
    of K2 holding σ'.  At every pair a facet F holds σ exactly when q(F)
    holds σ' (q is an order embedding on the rows that list K, and σ is the
    least preimage of σ' on the others), so the law compares the members of
    P and of T over σ'.  It fails exactly when σ' lies under a member of
    T ∖ P, or under an image outside T that lies under no member of T;
    with neither, no face is listed."""
    P, T = pairs.facet_images, pairs.K2.facet_bits
    blockers = (T - P) | {p for p in P - T if all(p & ~t for t in T)}
    return pairs.listed_under(blockers) if blockers else frozenset()


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


def _sr_gains_one_variable(K: SimplicialComplex, K2: SimplicialComplex):
    return sr_ideal(K2).gen_bits, sr_ideal(K).gen_bits | {1 << K.n}


def _dual_gains_new_variable_factor(K: SimplicialComplex, K2: SimplicialComplex):
    """The Alexander dual of K2's ideal, by a Berge pass, against the
    facet complements of K (``dual_ideal``) times the new variable; the
    full simplex, whose dual ideal is the unit ideal, gives x_{n+1}."""
    new_bit = 1 << K.n
    return (alexander_dual(sr_ideal(K2)).gen_bits,
            {g | new_bit for g in dual_ideal(K).gen_bits})


_IN = ("cmin_in_image_equal", "in_masks")
_OUT = ("cmin_out_image_equal", "out_masks")

THEOREMS: dict[str, Theorem] = {
    # A permutation preserves the mandatory set and the certified partition.
    "permutation": Theorem(classes=(_IN, _OUT), partial="cmin_image_equal"),
    # An always-on neuron preserves the mandatory set; the certified partition
    # shifts by the empty word as the complex is contractible or not.
    "add_trivial_on": Theorem(shift=_shift_by_empty_word, partial="cmin_branch"),
    # An always-off neuron moves nothing across; the ideals gain one variable.
    "add_trivial_off": Theorem(
        classes=(_IN, _OUT, ("cmin_unknown_image_equal", "unknown_masks")),
        ideals=(("sr_ideal_gains_one_variable", _sr_gains_one_variable),
                ("dual_ideal_gens_gain_new_variable_factor", _dual_gains_new_variable_factor)),
    ),
    # A duplicate preserves the mandatory set and each link's homology, and
    # the links of image faces follow the two-case (image) formula.
    "duplicate": Theorem(
        links=(("link_homology_preserved", _homology_faces),
               ("link_two_case_formula", _image_formula_faces)),
        classes=(_IN,),
        partial="cmin_in_image_equal",
    ),
    # A projection's target mandatory set lies in the image of the source's,
    # and its links are the images of the links.
    "projection": Theorem(
        mh="⊆", lists_image=True, links=(("link_image_formula", _image_formula_faces),)
    ),
}


def _verify(step: ElementaryMap, code: NeuralCode, K: SimplicialComplex,
            fld: Field) -> VerificationReport:
    """Check on a code and its complex K the row of ``THEOREMS`` that the
    step names in its ``theorem`` attribute.

    Checks come in the order M_H, links, partition, ideals.  An empty code
    has the void complex, and its report holds no checks.
    """
    theorem = step.theorem
    spec = THEOREMS[theorem]
    r = resolve_step(step, code.n)
    if not code.masks:
        return VerificationReport(theorem, code, step.describe(), fld, (), (("empty_code", True),))
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
        pairs = _LinkPairs(r, K, K2, (p1.lattice, p2.lattice), spec.lists_image)
        for name, law in spec.links:
            failed = law(pairs, fld)
            note = "faces listed on the left violate the relation" if failed else ""
            checks.append(_check(name, "∀", pairs.width, failed, holds=not failed, note=note))

    if spec.classes or spec.shift:
        if spec.partial and not (p1.fully_certified and p2.fully_certified):
            checks.append(_partial(spec.partial, "uncertified links present"))
        elif spec.shift:
            checks.append(spec.shift(q, p1, p2))
        else:
            checks.extend(_check(name, "=", out_n, q(getattr(p1, cls)), getattr(p2, cls))
                          for name, cls in spec.classes)

    for name, law in spec.ideals:
        lhs, rhs = law(K, K2)
        checks.append(_check(name, "=", out_n, lhs, rhs))
    return VerificationReport(theorem, code, step.describe(), fld, tuple(checks), observations)


def verify(step: ElementaryMap, code: NeuralCode, fld: Field = Field.GF2) -> VerificationReport:
    """Check on a code the row of ``THEOREMS`` that the step names.

    Raises ``TypeError`` for an ``Include``, which names no row, and for
    anything that is not a step, before the code's complex is built.
    """
    if getattr(type(step), "theorem", None) not in THEOREMS:
        raise TypeError(f"no preservation theorem for {step!r}")
    return _verify(step, code, code_complex(code), fld)
