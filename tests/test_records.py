"""The package's record classes: equality by type and value, hashing and
immutability of the value types, the reprs that the value types write
themselves (``NeuralCode``'s is checked in ``test_codes.py``), and their
round trips through ``pickle`` and ``copy``.  The value types are not
dataclasses: each names its fields in the tuple ``_fields``.

The two internal records of ``codemaps`` (``ResolvedStep`` and
``Theorem``) are named tuples: they compare by value, as tuples do.
"""

import copy
import dataclasses
import pickle

import pytest

from obstrukt import (
    AddTrivialOff,
    AddTrivialOn,
    CheckResult,
    Codeword,
    Duplicate,
    Field,
    Include,
    MandatorySet,
    MonomialIdeal,
    NeuralCode,
    Outcome,
    Permute,
    Project,
    SimplicialComplex,
    SuiteResult,
    VerificationReport,
    check_no_local_obstruction,
    code_complex,
    mandatory_partition,
    mandatory_set,
    reduced_homology,
    run_exhaustive,
    sr_ideal,
    verify,
)
from obstrukt.codemaps import THEOREMS, ResolvedStep, Theorem, resolve_step
from obstrukt.ideals import dual_ideal

K = SimplicialComplex(3, frozenset({0b011, 0b100}))

# each value type built twice from equal values, so that the pairs are
# equal objects but not the same object
VALUES = {
    "Codeword": lambda: Codeword(0b011, 3),
    "NeuralCode": lambda: NeuralCode(3, [0, 0b011, 0b100]),
    "SimplicialComplex": lambda: SimplicialComplex(3, frozenset({0b011, 0b100})),
    "MonomialIdeal": lambda: MonomialIdeal(3, frozenset({0b011, 0b100})),
    "MandatorySet": lambda: MandatorySet(Field.GF2, 3, frozenset({0, 0b011})),
    "Permute": lambda: Permute((2, 1, 3)),
    "AddTrivialOn": AddTrivialOn,
    "AddTrivialOff": AddTrivialOff,
    "Duplicate": lambda: Duplicate(2),
    "Project": lambda: Project(3),
    "Include": lambda: Include(NeuralCode(3, [0b011])),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_compare_by_value_and_hash_alike(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("build", [
    list, set, iter, lambda masks: (m for m in masks),
], ids=["list", "set", "iterator", "generator"])
def test_constructors_keep_any_collection_of_masks(build):
    """``SimplicialComplex`` and ``MonomialIdeal``, like ``NeuralCode``,
    store any collection of masks they are given as a frozenset before they
    check it: each equals and hashes like the value built from the
    frozenset, and the mandatory set of such a complex, a memo key, is
    answered."""
    masks = (0b011, 0b110)
    for cls in (SimplicialComplex, MonomialIdeal):
        value, expected = cls(3, build(masks)), cls(3, frozenset(masks))
        assert value == expected and hash(value) == hash(expected), cls
    assert mandatory_set(SimplicialComplex(3, build(masks))) == mandatory_set(
        SimplicialComplex(3, frozenset(masks)))


@pytest.mark.parametrize("name", VALUES)
def test_value_types_differ_from_every_other_type(name):
    a = VALUES[name]()
    for other, make in VALUES.items():
        if other != name:
            assert a != make() and make() != a
    assert a != tuple(getattr(a, f) for f in type(a)._fields)


def test_steps_of_different_types_differ_though_both_have_no_fields():
    assert AddTrivialOn() != AddTrivialOff()
    assert AddTrivialOn() == AddTrivialOn()
    assert Duplicate() == Duplicate(1) != Duplicate(2)
    assert Project(1) != Duplicate(1)


@pytest.mark.parametrize("name", VALUES)
def test_value_types_reject_attribute_assignment(name):
    value = VALUES[name]()
    field = type(value)._fields[0] if type(value)._fields else "extra"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, None)


@pytest.mark.parametrize("value,text", [
    (Codeword(0b011, 3), "Codeword('110')"),
    (Codeword.empty(2), "Codeword('00')"),
    (K, "SimplicialComplex(n=3, facets={001,110})"),
    (SimplicialComplex(2, frozenset()), "SimplicialComplex(n=2, void)"),
    (SimplicialComplex(2, frozenset({0})), "SimplicialComplex(n=2, facets={00})"),
    (code_complex(NeuralCode(3, [0b011, 0b100])), "SimplicialComplex(n=3, facets={001,110})"),
    (MonomialIdeal(3, frozenset({0b011, 0b100})), "MonomialIdeal(n=3, <x1*x2, x3>)"),
    (MonomialIdeal(2, frozenset()), "MonomialIdeal(n=2, zero)"),
    (sr_ideal(K), "MonomialIdeal(n=3, <x1*x3, x2*x3>)"),
    (dual_ideal(code_complex(NeuralCode(2, [0b11]))), "MonomialIdeal(n=2, <1>)"),
    (MonomialIdeal(2, frozenset({0})), "MonomialIdeal(n=2, <1>)"),
])
def test_value_types_write_their_own_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,text", [
    (Permute((2, 1)), "Permute(gamma=(2, 1))"),
    (AddTrivialOn(), "AddTrivialOn()"),
    (Duplicate(), "Duplicate(source=1)"),
    (Project(2), "Project(delete=2)"),
    (Include(NeuralCode(2, [1])), "Include(target=NeuralCode(n=2, {10}))"),
    (mandatory_set(K), "MandatorySet(field=<Field.GF2: 'GF2'>, n=3, masks=frozenset({0, 3, 4}))"),
    (SuiteResult(), "SuiteResult(instances=0, holds=0, partial=0, violated=0, violations=[])"),
    (VerificationReport("add_trivial_off", NeuralCode(1, []), "add_trivial_off", Field.GF2, ()),
     "VerificationReport(theorem='add_trivial_off', code=NeuralCode(n=1, {}), "
     "map_desc='add_trivial_off', field=<Field.GF2: 'GF2'>, checks=(), observations=(), "
     "verdict=<Outcome.HOLDS: 'holds'>)"),
])
def test_generated_reprs_name_the_fields(value, text):
    assert repr(value) == text


def test_suite_result_is_a_mutable_tally_equal_by_value():
    a, b = SuiteResult(), SuiteResult()
    assert a == b and a != AddTrivialOn()
    a.violated += 1
    assert a != b and not a.ok and b.ok
    with pytest.raises(TypeError):
        hash(b)


def test_report_equality_and_hash_ignore_the_verdict():
    report = verify(Permute((2, 1, 3)), NeuralCode(3, [0b011, 0b100]))
    assert report.verdict is Outcome.HOLDS
    twin = copy.copy(report)
    twin.__dict__["verdict"] = Outcome.VIOLATED
    assert twin == report and hash(twin) == hash(report)
    wrong = CheckResult("mh_image_equal", "=", ("001",), (), Outcome.VIOLATED)
    other = VerificationReport(report.theorem, report.code, report.map_desc, report.field,
                               (wrong,), report.observations)
    assert other.verdict is Outcome.VIOLATED and other != report


def _partition_with_its_caches_read():
    P = mandatory_partition(K, Field.RATIONAL)
    assert P.out_masks and P.mandatory  # cached on the instance: a copy carries them
    return P


# a value of every exported value type
ROUND_TRIP = {
    **VALUES,
    "MandatoryPartition": _partition_with_its_caches_read,
    "HomologyProfile": lambda: reduced_homology(K, Field.GF2),
    "ObstructionCheck": lambda: check_no_local_obstruction(NeuralCode(3, [0b011, 0b110, 0b101])),
    "CheckResult": lambda: CheckResult("mh_image_equal", "=", ("110",), ("110",), Outcome.HOLDS),
    "VerificationReport": lambda: verify(Permute((2, 1, 3)), NeuralCode(3, [0b011, 0b100])),
}


def _copies(value):
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)
    for protocol in (0, pickle.HIGHEST_PROTOCOL):
        yield f"pickle {protocol}", pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_value_types_survive_pickle_and_copy(name):
    value = ROUND_TRIP[name]()
    assert type(value).__name__ == name
    for how, twin in _copies(value):
        assert type(twin) is type(value), how
        assert twin == value and hash(twin) == hash(value), how
        assert twin.__dict__ == value.__dict__, how


def test_suite_results_survive_pickle_and_copy_mutable_and_unhashable():
    result = run_exhaustive(1)
    assert result.instances > 0
    for how, twin in _copies(result):
        assert type(twin) is SuiteResult and twin == result, how
        with pytest.raises(TypeError):
            hash(twin)
        twin.violated += 1
        assert twin != result and result.ok and not twin.ok, how


def test_internal_records_compare_by_value_and_are_immutable():
    step = resolve_step(Project(3), 3)
    assert (step.n, step.out_n) == (3, 2) and step == ResolvedStep(Project(3), 3, 2, step.f)
    assert step != ResolvedStep(Project(2), 3, 2, step.f)
    assert Theorem() == Theorem(mh="=") != Theorem(mh="⊆")
    assert THEOREMS["projection"]._replace(mh="=") != THEOREMS["projection"]
    for record, field in ((step, "n"), (THEOREMS["permutation"], "mh")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
