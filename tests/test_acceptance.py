"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 pins the mandatory set {2, 24, 123} of the paper's example code
{123, 24, 2}, as the homological definition gives it: the link of vertex 2 is
the edge 13 plus the isolated vertex 4, so dim H̃₀ = 1 and 2 is mandatory.
The published value {24, 123} omits vertex 2 and is an erratum; the dual route
agrees with the corrected set (the dual ideal <x4, x1*x3> is a complete
intersection whose second syzygy sits at multidegree x1*x3*x4, the complement
of {2}).  The projection counterexample the example was built for holds under
either reading, since both sets have the same image {2, 123}.
"""

import itertools
import os
import time

from obstrukt import (
    Codeword,
    Field,
    NotationForm,
    SimplicialComplex,
    alexander_dual,
    boundary_matrix,
    code_complex,
    dual_complex,
    euler_characteristic,
    facet_intersection,
    ideal_contains,
    link,
    mandatory_set,
    map_code,
    parse_codeword,
    permute_ideal,
    reduced_homology,
    restriction,
    run_exhaustive,
    run_sampled,
    sr_ideal,
    strong_collapse_core,
)
from obstrukt.codemaps import AddTrivialOn, Duplicate, Permute, Project, resolve_step
from obstrukt.ideals import invert_permutation
from obstrukt.suites import exhaustive_codes

from conftest import RP2_FACETS, code, cx, enumerate_complexes, seeded_complexes, w

BOTH = (Field.GF2, Field.RATIONAL)
PUBLISHED = ["0101", "1110"]  # M_H of {123, 24, 2} as published: {24, 123}
JOBS = max(1, min(4, os.cpu_count() or 1))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_criterion_1_paper_example_mandatory_sets():
    start = time.monotonic()
    c = code(["123", "24", "2"], 4)
    K = code_complex(c)
    mh = mandatory_set(K, Field.GF2)
    clause_mh = mh.binaries() == ["0100", "0101", "1110"]
    # the published {24, 123} misses vertex 2, whose link is disconnected
    clause_erratum = mh.binaries() == sorted(PUBLISHED + ["0100"])

    c2 = map_code(Project(4), c)
    mh2 = mandatory_set(code_complex(c2), Field.GF2)
    clause_mh2 = mh2.binaries() == ["111"]

    def projected(faces):
        f = resolve_step(Project(4), 4).f
        return frozenset(Codeword(f(face.bits), 3) for face in faces)

    q_mh = projected(mh.faces)
    clause_forward = mh2.faces <= q_mh
    clause_reverse_fails = not (q_mh <= mh2.faces)
    published = [parse_codeword(b, NotationForm.BINARY, 4) for b in PUBLISHED]
    clause_same_image = projected(published) == q_mh and sorted(
        f.binary() for f in q_mh
    ) == ["010", "111"]
    elapsed = time.monotonic() - start

    ok = (
        clause_mh
        and clause_erratum
        and clause_mh2
        and clause_forward
        and clause_reverse_fails
        and clause_same_image
        and elapsed < 1.0
    )
    report(
        1,
        "paper example mandatory sets and projection counterexample",
        ok,
        f"M_H={mh.binaries()}, published {PUBLISHED}; "
        f"image clauses forward={clause_forward} reverse_fails={clause_reverse_fails} "
        f"same_image={clause_same_image}; {elapsed:.2f}s",
    )
    assert clause_mh and clause_erratum, (
        "M_H of {123, 24, 2} should be {2, 24, 123}: the link of vertex 2 is "
        f"disconnected (dim H̃₀ = 1), and the published {{24, 123}} omits it; got {mh.binaries()}"
    )
    assert clause_mh2 and clause_forward and clause_reverse_fails and elapsed < 1.0
    assert clause_same_image, "published and corrected M_H should project to {010, 111}"


def test_criterion_1_corrected_values_hold():
    # companion pin for the corrected mandatory set, so the engine stays fixed
    c = code(["123", "24", "2"], 4)
    assert mandatory_set(code_complex(c), Field.GF2).binaries() == [
        "0100", "0101", "1110",
    ]


def test_criterion_2_worked_complex_link_restriction():
    start = time.monotonic()
    K = code_complex(code(["24", "35", "45", "123"], 6))
    want_faces = {"", "1", "2", "3", "4", "5", "12", "13", "23", "24", "35", "45", "123"}
    got_faces = {
        "".join(str(i) for i in f.neurons()) for f in K.faces()
    }
    clause_delta = got_faces == want_faces

    L = link(K, w("2", 6))
    clause_link = {
        "".join(str(i) for i in f.neurons()) for f in L.faces()
    } == {"", "1", "3", "4", "13"}

    R = restriction(K, [w(t, 6) for t in ("35", "45", "123", "6")])
    clause_restriction = {
        "".join(str(i) for i in f.neurons()) for f in R.faces()
    } == want_faces - {"24"}
    elapsed = time.monotonic() - start

    ok = clause_delta and clause_link and clause_restriction and elapsed < 1.0
    report(2, "worked example: complex, link, restriction", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_stanley_reisner_example():
    K = SimplicialComplex.from_masks([0b01, 0b10], 2)
    ok = sr_ideal(K).to_lists() == [[1, 2]]
    report(3, "Stanley-Reisner ideal of the two-point complex", ok)
    assert ok


def test_criterion_4_exhaustive_suite_n3():
    start = time.monotonic()
    result = run_exhaustive(3, Field.GF2, jobs=1)
    elapsed = time.monotonic() - start
    ok = result.ok and result.instances == 256 * 12 and elapsed < 300
    report(
        4,
        "exhaustive theorem suite at n=3",
        ok,
        f"{result.instances} instances, violated={result.violated}, "
        f"partial={result.partial}, {elapsed:.1f}s single-threaded",
    )
    assert ok, result.violations[:3]


def test_criterion_5_sampled_suites_n4_n5():
    start = time.monotonic()
    r4 = run_sampled(4, 1000, seed=20240, density=0.3, jobs=JOBS)
    r5 = run_sampled(5, 1000, seed=20250, density=0.3, jobs=JOBS)
    elapsed = time.monotonic() - start
    ok = r4.ok and r5.ok and elapsed < 600
    report(
        5,
        "sampled theorem suites at n=4 and n=5",
        ok,
        f"n=4 violated={r4.violated}, n=5 violated={r5.violated}, "
        f"{elapsed:.1f}s with {JOBS} workers",
    )
    assert ok, (r4.violations[:2], r5.violations[:2])


def _matmul(a, b):
    if not a or not b:
        return []
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_criterion_6_homology_engine_properties():
    start = time.monotonic()
    complexes_pool = seeded_complexes(500, seed=606, max_n=6)
    boundary_ok = True
    euler_ok = True
    for K in complexes_pool:
        for field in BOTH:
            for i in range(0, K.dim + 1):
                prod = _matmul(
                    boundary_matrix(K, i - 1, field), boundary_matrix(K, i, field)
                )
                entries_ok = (
                    all(v % 2 == 0 for row in prod for v in row)
                    if field is Field.GF2
                    else all(v == 0 for row in prod for v in row)
                )
                boundary_ok = boundary_ok and entries_ok
            profile = reduced_homology(K, field)
            euler_ok = euler_ok and profile.alternating_sum() == euler_characteristic(K)
    spheres_ok = True
    for n in range(2, 7):
        full = (1 << n) - 1
        hollow = SimplicialComplex.from_masks([full ^ (1 << i) for i in range(n)], n)
        for field in BOTH:
            profile = reduced_homology(hollow, field)
            spheres_ok = spheres_ok and profile.nonzero_degrees() == (n - 2,)
            spheres_ok = spheres_ok and profile.dim_at(n - 2) == 1
    elapsed = time.monotonic() - start
    ok = boundary_ok and euler_ok and spheres_ok
    report(
        6,
        "homology engine: boundary composition, Euler identity, hollow simplexes",
        ok,
        f"500 complexes, both fields, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_collapse_homology_coherence():
    start = time.monotonic()
    pool = seeded_complexes(500, seed=707, max_n=6)
    core_ok = True
    cone_ok = True
    for K in pool:
        core = strong_collapse_core(K)
        for field in BOTH:
            core_ok = core_ok and reduced_homology(K, field) == reduced_homology(core, field)
        for m in K.face_bits:
            sigma = Codeword(m, K.n)
            if facet_intersection(K, sigma).bits == m:
                continue
            L = link(K, sigma)
            for field in BOTH:
                cone_ok = cone_ok and reduced_homology(L, field).is_trivial
    elapsed = time.monotonic() - start
    ok = core_ok and cone_ok
    report(
        7,
        "strong collapse preserves homology; proper facet-meet faces have acyclic links",
        ok,
        f"500 complexes, both fields, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_alexander_duality_exhaustive():
    start = time.monotonic()
    double_ok = True
    route_ok = True
    for n in (1, 2, 3, 4):
        full = 1 << n
        for K in enumerate_complexes(n):
            double_ok = double_ok and dual_complex(dual_complex(K)) == K
            if K.is_void or len(K.face_bits) == full:
                continue
            route_ok = route_ok and sr_ideal(dual_complex(K)) == alexander_dual(sr_ideal(K))
    elapsed = time.monotonic() - start
    ok = double_ok and route_ok
    report(
        8,
        "Alexander duality: double dual and ideal/complex route agreement, n<=4",
        ok,
        f"{elapsed:.1f}s",
    )
    assert ok


def _permutation_dual_identity_holds(c, gamma):
    K = code_complex(c)
    K2 = code_complex(map_code(Permute(gamma), c))
    I = sr_ideal(K)
    if I.is_zero:
        return sr_ideal(K2).is_zero
    lhs = permute_ideal(alexander_dual(I), invert_permutation(gamma))
    return lhs == alexander_dual(sr_ideal(K2))


def test_criterion_9_sr_containment_lemmas():
    start = time.monotonic()
    grow_on_ok = True
    grow_dup_ok = True
    perm_ok = True

    def run_checks(c, gammas):
        nonlocal grow_on_ok, grow_dup_ok, perm_ok
        K = code_complex(c)
        if K.is_void:
            return
        I = sr_ideal(K)
        I_on = sr_ideal(code_complex(map_code(AddTrivialOn(), c)))
        grow_on_ok = grow_on_ok and ideal_contains(I_on, I)
        I_dup = sr_ideal(code_complex(map_code(Duplicate(1), c)))
        grow_dup_ok = grow_dup_ok and ideal_contains(I_dup, I)
        for gamma in gammas:
            perm_ok = perm_ok and _permutation_dual_identity_holds(c, gamma)

    all_s3 = tuple(itertools.permutations((1, 2, 3)))
    for c in exhaustive_codes(3):
        run_checks(c, all_s3)
    import random as _random

    rng = _random.Random(909)
    from obstrukt import random_code

    for i in range(1000):
        c = random_code(5, 909_000 + i, 0.3)
        gammas = [tuple(rng.sample(range(1, 6), 5)) for _ in range(2)]
        run_checks(c, gammas)
    elapsed = time.monotonic() - start
    ok = grow_on_ok and grow_dup_ok and perm_ok
    report(
        9,
        "SR ideal containments (trivial-on, duplicate) and permutation dual identity",
        ok,
        f"exhaustive n=3 plus 1000 samples at n=5, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_field_sensitivity():
    K = cx(RP2_FACETS, 6)
    gf2 = reduced_homology(K, Field.GF2)
    rat = reduced_homology(K, Field.RATIONAL)
    clause_dims = gf2.dim_at(1) == 1 and rat.dim_at(1) == 0
    mh_gf2 = mandatory_set(K, Field.GF2).faces
    mh_rat = mandatory_set(K, Field.RATIONAL).faces
    clause_mh = mh_gf2 != mh_rat and (mh_gf2 - mh_rat) == {Codeword.empty(6)}
    ok = clause_dims and clause_mh
    report(
        10,
        "projective-plane field sensitivity and field-dependent mandatory set",
        ok,
        f"GF2 dims={gf2.to_json_dict()['dims']}, Q dims={rat.to_json_dict()['dims']}",
    )
    assert ok
