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
the complex's facets, mapped once per instance, and each law is decided on
the facets without listing a face unless it fails.  The image formula is
one comparison of the facet images with the image complex's facets, which
names the faces it fails at.  The duplicate row's homology law follows
from that comparison for every face at once: when the facet images are the
image complex's facets and the map duplicates a vertex, each pair of links
is equal or one strong collapse apart (``_lattice_faces``).  Failing that,
it is decided only on the facet-intersection lattices that the two
partitions hold, since off them both links are cones; equal links, or a
strong collapse of one onto the other, answer it without ranks.  So
neither row's cost follows the 2^|F| faces under a facet.  A permutation
maps masks through tables of images (``ideals.mask_permuter``), built once
per step.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Union

from .codes import MAX_NEURONS, NeuralCode, _Record, binaries
from .collapse import Verdict, _facet_homology, collapses_onto
from . import complexes  # maximal_masks stays bound in complexes alone, as bench/test_bench.py expects
from .complexes import SimplicialComplex, code_complex
from .errors import NeuronOutOfRange, NotInDomain, WidthMismatch
from .homology import Field, reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import (alexander_dual, dual_ideal, invert_permutation, mask_permuter,
                     permutation_tuple, sr_ideal)
from .mandatory import mandatory_partition


class Permute(_Record):
    """Permute the neurons: position i of the image reads neuron γ(i)."""

    _fields = ("gamma",)

    def __init__(self, gamma: tuple[int, ...]) -> None:
        self.__dict__["gamma"] = gamma

    def describe(self) -> str:
        return "permute(" + ",".join(str(g) for g in self.gamma) + ")"


class AddTrivialOn(_Record):
    """Append neuron n+1, on in every word."""

    def describe(self) -> str:
        return "add_trivial_on"


class AddTrivialOff(_Record):
    """Append neuron n+1, off in every word."""

    def describe(self) -> str:
        return "add_trivial_off"


class Duplicate(_Record):
    """Append neuron n+1 as a copy of neuron ``source``."""

    _fields = ("source",)

    def __init__(self, source: int = 1) -> None:
        self.__dict__["source"] = source

    def describe(self) -> str:
        return f"duplicate({self.source})"


class Project(_Record):
    """Delete neuron ``delete``; the neurons above it move down by one."""

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
    """The face pairs (σ, σ') that one instance's link laws read, σ' = q(σ),
    each listed by one face of ``listed``: every face σ of K, or for a row
    that lists the image, every face σ' of K2 with σ its least preimage.
    Every map with link laws is a coordinate map: q(σ) is the union of the
    sets q(v) over the vertices v of σ, so the largest mask that q sends
    under m is the union of the vertices that it sends under m."""

    def __init__(self, r: ResolvedStep, K: SimplicialComplex, K2: SimplicialComplex,
                 lattices: tuple[frozenset[int], frozenset[int]], lists_image: bool) -> None:
        self.f, self.K, self.K2, self.lattices = r.f, K, K2, lattices
        self.lists_image = lists_image
        self.listed, self.width = (K2, r.out_n) if lists_image else (K, r.n)
        self.images = {F: r.f(F) for F in K.facet_bits}  # each facet mapped once
        self.facet_images = frozenset(self.images.values())
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

    def holds(self, law: LinkLaw, shown: int, fld: Field) -> bool:
        """``law`` at the pair that ``shown`` lists, on the facets over σ
        and over σ' (none when σ' is no face of K2)."""
        if self.lists_image:
            s1, s2 = self.below(shown) & ~self.below(0), shown
        else:
            s1, s2 = shown, self.f(shown)
        over1 = [F for F in self.K.facet_bits if not s1 & ~F]
        over2 = [G for G in self.K2.facet_bits if not s2 & ~G]
        return law(self.images.__getitem__, over1, over2, s1, s2, fld)


class LinkLaw(NamedTuple):
    """A law on lk σ and lk σ' at one face pair, called as ``law(image,
    over1, over2, s1, s2, field)`` on the facet-image lookup, the facets
    over σ and over σ', the two faces and the field; ``suspects`` names the
    listed faces of an instance at which it can fail, since a theorem
    decides it everywhere else."""

    holds: Callable[..., bool]
    suspects: Callable[[_LinkPairs], Iterable[int]]

    def __call__(self, *args) -> bool:
        return self.holds(*args)


class Theorem(NamedTuple):
    """What one preservation theorem claims about a code C and its image q(C).

    ``mh`` relates M_H(q(C)) to q(M_H(C)): "=", or "⊆" for the target inside
    the image, whose reverse containment is then reported as an observation.
    ``links`` are laws on link(K, σ) and link(K2, σ') at the face pairs of
    ``_LinkPairs``, each face of K, or each face of K2 when ``lists_image``;
    a failing pair lists its face.  ``classes`` pairs a check name with a
    partition class whose image must equal the target's class; ``partial``
    names the check that stands in when either partition has uncertified
    links (None compares the classes regardless).  ``shift`` replaces the
    class comparison for a map that moves the partition.  ``ideals`` are
    laws on the Stanley-Reisner ideals of K and K2, each called on the two
    complexes and giving the observed and the expected generators.
    """

    mh: str = "="
    lists_image: bool = False
    links: tuple[tuple[str, LinkLaw], ...] = ()
    classes: tuple[tuple[str, str], ...] = ()
    partial: str | None = None
    shift: Callable | None = None
    ideals: tuple[tuple[str, Callable], ...] = ()


def _same_homology(image: Callable[[int], int], over1: list[int], over2: list[int],
                   s1: int, s2: int, fld: Field) -> bool:
    """lk σ and lk σ' have the same homology: the facets over σ and σ'
    with σ and σ' taken away are the two links' facets.  Equal links, or a
    strong collapse of lk σ' onto lk σ, answer without ranks."""
    lk1 = frozenset(map((~s1).__and__, over1))
    lk2 = frozenset(map((~s2).__and__, over2))
    return (lk1 == lk2 or collapses_onto(lk2, lk1)
            or _facet_homology(lk1, fld) == _facet_homology(lk2, fld))


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


def _image_formula_faces(pairs: _LinkPairs) -> frozenset[int]:
    """The listed faces at which the image formula fails, from one
    comparison of the facet images P with the facets T of K2.  At every
    pair a facet F holds σ exactly when q(F) holds σ' (q is an order
    embedding on the rows that list K, and σ is the least preimage of σ' on
    the others), so the law compares the members of P and of T over σ'.
    It fails exactly when σ' lies under a member of T ∖ P, or under an
    image outside T that lies under no member of T; with neither, no face
    is listed."""
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
_IMAGE_FORMULA = LinkLaw(_image_formula, _image_formula_faces)

THEOREMS: dict[str, Theorem] = {
    "permutation": Theorem(classes=(_IN, _OUT), partial="cmin_image_equal"),
    "add_trivial_on": Theorem(shift=_shift_by_empty_word, partial="cmin_branch"),
    "add_trivial_off": Theorem(
        classes=(_IN, _OUT, ("cmin_unknown_image_equal", "unknown_masks")),
        ideals=(("sr_ideal_gains_one_variable", _sr_gains_one_variable),
                ("dual_ideal_gens_gain_new_variable_factor", _dual_gains_new_variable_factor)),
    ),
    "duplicate": Theorem(
        links=(("link_homology_preserved", LinkLaw(_same_homology, _lattice_faces)),
               ("link_two_case_formula", _IMAGE_FORMULA)),
        classes=(_IN,),
        partial="cmin_in_image_equal",
    ),
    "projection": Theorem(
        mh="⊆", lists_image=True, links=(("link_image_formula", _IMAGE_FORMULA),)
    ),
}


def _verify(theorem: str, code: NeuralCode, K: SimplicialComplex, step: ElementaryMap,
            fld: Field) -> VerificationReport:
    """Check one row of ``THEOREMS`` on a code, its complex K and a map.

    Checks come in the order M_H, links, partition, ideals.  An empty code
    has the void complex, and its report holds no checks.
    """
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
            failed = [m for m in law.suspects(pairs) if not pairs.holds(law, m, fld)]
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


def verify_permutation(
    code: NeuralCode, gamma: Iterable[int], fld: Field = Field.GF2
) -> VerificationReport:
    """Permutation preserves the mandatory set and the certified partition."""
    return _verify("permutation", code, code_complex(code), Permute(tuple(gamma)), fld)


def verify_add_trivial_on(code: NeuralCode, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-on neuron preserves the mandatory set; the
    certified partition shifts by the empty word according to whether the
    starting complex is contractible."""
    return _verify("add_trivial_on", code, code_complex(code), AddTrivialOn(), fld)


def verify_add_trivial_off(code: NeuralCode, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-off neuron changes nothing: mandatory data map
    across verbatim and the Stanley-Reisner data gain exactly one variable."""
    return _verify("add_trivial_off", code, code_complex(code), AddTrivialOff(), fld)


def verify_duplicate(
    code: NeuralCode, source: int = 1, fld: Field = Field.GF2
) -> VerificationReport:
    """Duplicating a neuron preserves the mandatory set; links of image faces
    are homotopic to the original links, which the engine checks at the level
    of homology in every degree, plus the two-case link formula, which is
    the image formula for links."""
    return _verify("duplicate", code, code_complex(code), Duplicate(source), fld)


def verify_projection(
    code: NeuralCode, delete: int, fld: Field = Field.GF2
) -> VerificationReport:
    """Deleting a neuron can only shrink the mandatory set through the image:
    the target mandatory set is contained in the image of the source one, and
    links in the target are exactly the images of the zero-extended links."""
    return _verify("projection", code, code_complex(code), Project(delete), fld)
