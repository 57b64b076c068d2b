"""Elementary code maps and mechanical verification of their preservation laws.

Maps: permutation, adding a trivial on/off neuron, duplicating a neuron
(appended at position n+1), projecting a neuron away, and inclusion.  Each
verification routine recomputes both sides of a preservation statement with
the engine and reports holds / violated / partial, where partial means a
certificate was unavailable (contractibility is undecidable in general).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Union

from .codes import MAX_NEURONS, Codeword, NeuralCode
from .collapse import core_homology
from .complexes import SimplicialComplex, code_complex, link
from .errors import NeuronOutOfRange, NotInDomain, WidthMismatch
from .homology import Field, reduced_homology  # noqa: F401  bound for bench/test_bench.py
from .ideals import alexander_dual, permutation_tuple, sr_ideal
from .mandatory import mandatory_partition, mandatory_set


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
        return f"include(into {len(self.target.words)} words)"


ElementaryMap = Union[Permute, AddTrivialOn, AddTrivialOff, Duplicate, Project, Include]


def validate_step(step: ElementaryMap, n: int) -> int:
    """Check a step against the incoming width and return the outgoing width."""
    if isinstance(step, Permute):
        permutation_tuple(step.gamma, n)
        return n
    if isinstance(step, (AddTrivialOn, AddTrivialOff)):
        if n + 1 > MAX_NEURONS:
            raise NeuronOutOfRange(f"widening past {MAX_NEURONS} neurons")
        return n + 1
    if isinstance(step, Duplicate):
        if not 1 <= step.source <= n:
            raise NeuronOutOfRange(f"duplicate source {step.source} outside 1..{n}")
        if n + 1 > MAX_NEURONS:
            raise NeuronOutOfRange(f"widening past {MAX_NEURONS} neurons")
        return n + 1
    if isinstance(step, Project):
        if not 1 <= step.delete <= n:
            raise NeuronOutOfRange(f"projection index {step.delete} outside 1..{n}")
        if n < 2:
            raise WidthMismatch("cannot project the only neuron away")
        return n - 1
    if isinstance(step, Include):
        if step.target.n != n:
            raise WidthMismatch(
                f"inclusion target width {step.target.n} differs from {n}"
            )
        return n
    raise TypeError(f"not an elementary map: {step!r}")


def _permute_mask_positions(mask: int, gamma: tuple[int, ...]) -> int:
    # position i of the image reads coordinate γ(i) of the argument
    out = 0
    for i, g in enumerate(gamma):
        if mask >> (g - 1) & 1:
            out |= 1 << i
    return out


def project_mask(mask: int, delete: int) -> int:
    low = mask & ((1 << (delete - 1)) - 1)
    high = (mask >> delete) << (delete - 1)
    return low | high


def embed_mask(mask: int, position: int) -> int:
    """Insert an off coordinate at ``position`` (inverse of project_mask)."""
    low = mask & ((1 << (position - 1)) - 1)
    high = (mask >> (position - 1)) << position
    return low | high


def apply_step_mask(step: ElementaryMap, mask: int, n: int) -> int:
    if isinstance(step, Permute):
        return _permute_mask_positions(mask, step.gamma)
    if isinstance(step, AddTrivialOn):
        return mask | (1 << n)
    if isinstance(step, AddTrivialOff):
        return mask
    if isinstance(step, Duplicate):
        return mask | ((mask >> (step.source - 1) & 1) << n)
    if isinstance(step, Project):
        return project_mask(mask, step.delete)
    if isinstance(step, Include):
        return mask
    raise TypeError(f"not an elementary map: {step!r}")


def apply_step(step: ElementaryMap, cw: Codeword) -> Codeword:
    out_n = validate_step(step, cw.n)
    if isinstance(step, Include) and cw not in step.target:
        raise NotInDomain(f"{cw!r} is not a word of the inclusion target")
    return Codeword(apply_step_mask(step, cw.bits, cw.n), out_n)


def map_code(step: ElementaryMap, code: NeuralCode) -> NeuralCode:
    out_n = validate_step(step, code.n)
    if isinstance(step, Include):
        for w in code.words:
            if w not in step.target:
                raise NotInDomain(f"{w!r} is not a word of the inclusion target")
    return NeuralCode.from_masks(
        out_n, (apply_step_mask(step, w.bits, code.n) for w in code.words)
    )


def map_faces(step: ElementaryMap, K: SimplicialComplex) -> frozenset[Codeword]:
    """Image of a complex's face set; not downward closed in general."""
    out_n = validate_step(step, K.n)
    return frozenset(
        Codeword(apply_step_mask(step, m, K.n), out_n) for m in K.face_bits
    )


def image_complex(step: ElementaryMap, K: SimplicialComplex) -> SimplicialComplex:
    """Downward closure of the image face set.

    Every elementary map is monotone on masks, so the images of the facets
    generate the same closure as the images of all faces.  Every map but a
    projection is an order embedding (m ⊆ m' exactly when f(m) ⊆ f(m')), so
    there the facet images are already the facets of the image.
    """
    out_n = validate_step(step, K.n)
    images = (apply_step_mask(step, m, K.n) for m in K.facet_bits)
    if isinstance(step, Project):
        return SimplicialComplex.from_masks(images, out_n)
    return SimplicialComplex(out_n, frozenset(images))


@dataclass(frozen=True)
class CodeMap:
    """A composition of elementary maps anchored at a domain code."""

    domain: NeuralCode
    steps: tuple[ElementaryMap, ...]

    def __post_init__(self) -> None:
        self.image  # maps the domain once, validating every step

    @property
    def codomain_width(self) -> int:
        return self.image.n

    def apply(self, cw: Codeword) -> Codeword:
        if cw.n != self.domain.n:
            raise WidthMismatch(f"codeword width {cw.n} differs from domain {self.domain.n}")
        for step in self.steps:
            cw = apply_step(step, cw)
        return cw

    @cached_property
    def image(self) -> NeuralCode:
        code = self.domain
        for step in self.steps:
            code = map_code(step, code)
        return code

    def describe(self) -> str:
        return " ; ".join(step.describe() for step in self.steps) or "identity"


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
            "code": sorted(w.binary() for w in self.code.words),
            "map": self.map_desc,
            "field": self.field.value,
            "verdict": self.verdict.value,
            "checks": [c.to_json_dict() for c in self.checks],
            "observations": {k: v for k, v in self.observations},
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict())


def _binaries(cws: Iterable[Codeword]) -> tuple[str, ...]:
    return tuple(sorted(c.binary() for c in cws))


def _image_set(step: ElementaryMap, cws: Iterable[Codeword], n: int) -> frozenset[Codeword]:
    out_n = validate_step(step, n)
    return frozenset(Codeword(apply_step_mask(step, c.bits, n), out_n) for c in cws)


def _equality_check(name: str, lhs: frozenset[Codeword], rhs: frozenset[Codeword]) -> CheckResult:
    return CheckResult(
        name,
        "=",
        _binaries(lhs),
        _binaries(rhs),
        Outcome.HOLDS if lhs == rhs else Outcome.VIOLATED,
    )


def _subset_check(name: str, lhs: frozenset[Codeword], rhs: frozenset[Codeword]) -> CheckResult:
    return CheckResult(
        name,
        "⊆",
        _binaries(lhs),
        _binaries(rhs),
        Outcome.HOLDS if lhs <= rhs else Outcome.VIOLATED,
    )


def _partial_check(name: str, note: str) -> CheckResult:
    return CheckResult(name, "=", (), (), Outcome.PARTIAL, note)


def _aggregate_check(name: str, failures: list[Codeword], note: str = "") -> CheckResult:
    return CheckResult(
        name,
        "∀",
        _binaries(failures),
        (),
        Outcome.HOLDS if not failures else Outcome.VIOLATED,
        note or ("" if not failures else "faces listed on the left violate the relation"),
    )


def _sides(theorem: str, code: NeuralCode, step: ElementaryMap, fld: Field):
    """Validate the step against the code.  Return the report of an empty
    code, or else both complexes and both mandatory sets."""
    validate_step(step, code.n)
    if not code.words:
        return VerificationReport(theorem, code, step.describe(), fld, (), (("empty_code", True),))
    K, K2 = code_complex(code), code_complex(map_code(step, code))
    return K, K2, mandatory_set(K, fld).faces, mandatory_set(K2, fld).faces


def verify_permutation(
    code: NeuralCode, gamma: Iterable[int], fld: Field = Field.GF2
) -> VerificationReport:
    """Permutation preserves the mandatory set and the certified partition."""
    step = Permute(permutation_tuple(gamma, code.n))
    sides = _sides("permutation", code, step, fld)
    if isinstance(sides, VerificationReport):
        return sides
    K, K2, mh1, mh2 = sides
    checks = [_equality_check("mh_image_equal", _image_set(step, mh1, K.n), mh2)]
    p1 = mandatory_partition(K, fld)
    p2 = mandatory_partition(K2, fld)
    if p1.fully_certified and p2.fully_certified:
        checks.append(
            _equality_check(
                "cmin_in_image_equal", _image_set(step, p1.certified_in, K.n), p2.certified_in
            )
        )
        checks.append(
            _equality_check(
                "cmin_out_image_equal", _image_set(step, p1.certified_out, K.n), p2.certified_out
            )
        )
    else:
        checks.append(_partial_check("cmin_image_equal", "uncertified links present"))
    return VerificationReport("permutation", code, step.describe(), fld, tuple(checks))


def verify_add_trivial_on(code: NeuralCode, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-on neuron preserves the mandatory set; the
    certified partition shifts by the empty word according to whether the
    starting complex is contractible."""
    step = AddTrivialOn()
    sides = _sides("add_trivial_on", code, step, fld)
    if isinstance(sides, VerificationReport):
        return sides
    K, K2, mh1, mh2 = sides
    checks = [_equality_check("mh_image_equal", _image_set(step, mh1, K.n), mh2)]
    p1 = mandatory_partition(K, fld)
    p2 = mandatory_partition(K2, fld)
    ambient = p1.ambient_verdict
    empty1 = Codeword.empty(K.n)
    empty2 = Codeword.empty(K2.n)
    if not (p1.fully_certified and p2.fully_certified):
        checks.append(_partial_check("cmin_branch", "uncertified links present"))
    elif ambient.is_contractible_certified:
        checks.append(
            _equality_check(
                "cmin_nonempty_image_equal",
                _image_set(step, p1.certified_in - {empty1}, K.n),
                p2.certified_in - {empty2},
            )
        )
    elif ambient.is_non_contractible_certified:
        lhs = _image_set(step, p1.certified_in, K.n)
        rhs = p2.certified_in - {empty2}
        strict = lhs == rhs and empty2 in p2.certified_in
        checks.append(
            CheckResult(
                "cmin_image_strictly_below",
                "⊊",
                _binaries(lhs),
                _binaries(p2.certified_in),
                Outcome.HOLDS if strict else Outcome.VIOLATED,
                "image must equal the target minus the empty word",
            )
        )
    else:
        checks.append(
            _partial_check("cmin_branch", "contractibility of the complex is unknown")
        )
    return VerificationReport("add_trivial_on", code, step.describe(), fld, tuple(checks))


def verify_add_trivial_off(code: NeuralCode, fld: Field = Field.GF2) -> VerificationReport:
    """Appending an always-off neuron changes nothing: mandatory data map
    across verbatim and the Stanley-Reisner data gain exactly one variable."""
    step = AddTrivialOff()
    sides = _sides("add_trivial_off", code, step, fld)
    if isinstance(sides, VerificationReport):
        return sides
    K, K2, mh1, mh2 = sides
    checks = [_equality_check("mh_image_equal", _image_set(step, mh1, K.n), mh2)]
    p1 = mandatory_partition(K, fld)
    p2 = mandatory_partition(K2, fld)
    for name, a, b in (
        ("cmin_in_image_equal", p1.certified_in, p2.certified_in),
        ("cmin_out_image_equal", p1.certified_out, p2.certified_out),
        ("cmin_unknown_image_equal", p1.unknown, p2.unknown),
    ):
        checks.append(_equality_check(name, _image_set(step, a, K.n), b))

    new_bit = 1 << K.n

    def words(masks: Iterable[int]) -> frozenset[Codeword]:
        return frozenset(Codeword(m, K2.n) for m in masks)

    sr1 = sr_ideal(K)
    sr2 = sr_ideal(K2)
    expected_sr2 = frozenset(sr1.gen_bits) | {new_bit}
    checks.append(_equality_check("sr_ideal_gains_one_variable",
                                  words(sr2.gen_bits), words(expected_sr2)))
    if sr1.is_zero:
        expected_dual2 = frozenset({new_bit})
    else:
        expected_dual2 = frozenset(g | new_bit for g in alexander_dual(sr1).gen_bits)
    dual2 = alexander_dual(sr2)
    checks.append(_equality_check("dual_ideal_gens_gain_new_variable_factor",
                                  words(dual2.gen_bits), words(expected_dual2)))
    return VerificationReport("add_trivial_off", code, step.describe(), fld, tuple(checks))


def verify_duplicate(
    code: NeuralCode, source: int = 1, fld: Field = Field.GF2
) -> VerificationReport:
    """Duplicating a neuron preserves the mandatory set; links of image faces
    are homotopic to the original links, which the engine checks at the level
    of homology in every degree, plus the two-case link formula."""
    step = Duplicate(source)
    sides = _sides("duplicate", code, step, fld)
    if isinstance(sides, VerificationReport):
        return sides
    K, K2, mh1, mh2 = sides
    n = code.n
    checks = [_equality_check("mh_image_equal", _image_set(step, mh1, n), mh2)]

    src_bit = 1 << (source - 1)
    homology_failures: list[Codeword] = []
    formula_failures: list[Codeword] = []
    for m in sorted(K.face_bits):
        sigma = Codeword(m, n)
        q_sigma = Codeword(apply_step_mask(step, m, n), n + 1)
        lk1 = link(K, sigma)
        lk2 = link(K2, q_sigma)
        if core_homology(lk1, fld) != core_homology(lk2, fld):
            homology_failures.append(sigma)
        expected = lk1.widen(n + 1) if m & src_bit else image_complex(step, lk1)
        if lk2 != expected:
            formula_failures.append(sigma)
    checks.append(_aggregate_check("link_homology_preserved", homology_failures))
    checks.append(_aggregate_check("link_two_case_formula", formula_failures))

    p1 = mandatory_partition(K, fld)
    p2 = mandatory_partition(K2, fld)
    if p1.fully_certified and p2.fully_certified:
        checks.append(
            _equality_check(
                "cmin_in_image_equal", _image_set(step, p1.certified_in, n), p2.certified_in
            )
        )
    else:
        checks.append(_partial_check("cmin_in_image_equal", "uncertified links present"))
    return VerificationReport("duplicate", code, step.describe(), fld, tuple(checks))


def verify_projection(
    code: NeuralCode, delete: int, fld: Field = Field.GF2
) -> VerificationReport:
    """Deleting a neuron can only shrink the mandatory set through the image:
    the target mandatory set is contained in the image of the source one, and
    links in the target are exactly the images of the zero-extended links."""
    step = Project(delete)
    sides = _sides("projection", code, step, fld)
    if isinstance(sides, VerificationReport):
        return sides
    K, K2, mh1, mh2 = sides
    n = code.n
    q_mh1 = _image_set(step, mh1, n)
    checks = [_subset_check("mh_containment", mh2, q_mh1)]

    failures: list[Codeword] = []
    for m2 in sorted(K2.face_bits):
        sigma2 = Codeword(m2, n - 1)
        lifted = Codeword(embed_mask(m2, delete), n)
        if image_complex(step, link(K, lifted)) != link(K2, sigma2):
            failures.append(sigma2)
    checks.append(_aggregate_check("link_image_formula", failures))

    observations = (
        ("mh_reverse_containment_holds", q_mh1 <= mh2),
    )
    return VerificationReport(
        "projection", code, step.describe(), fld, tuple(checks), observations
    )
