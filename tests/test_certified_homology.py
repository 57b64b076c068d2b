"""Differential tests for the certified fast paths on the link-check route.

``core_homology`` and ``link_profile`` must agree with plain boundary ranks,
``contractibility`` and the partition's ambient verdict with the face-set
reference collapse in ``conftest``, ``maximal_masks`` and ``Codeword.binary``
with their earlier definitions, and ``--summary`` counts with the per-code
tallies.
"""

import collections
import json
import math
import multiprocessing
import random

import pytest

from obstrukt import (
    Codeword,
    Field,
    NeuralCode,
    SimplicialComplex,
    Verdict,
    boundary_matrix,
    code_complex,
    core_homology,
    exhaustive_codes,
    link,
    reduced_homology,
    contractibility,
    mandatory_partition,
    run_exhaustive,
    strong_collapse_core,
    suites,
)
from obstrukt import collapse, homology, mandatory
from obstrukt.codemaps import Duplicate, Project, image_complex, resolve_step
from obstrukt.collapse import link_profile
from obstrukt.complexes import maximal_masks
from obstrukt.errors import VoidComplex
from obstrukt.homology import HomologyProfile, rank_fraction_free

from conftest import (RP2_FACETS, cone, cx, enumerate_complexes, ref_contractibility,
                      seeded_complexes)
from test_homology import rank_by_fractions

BOTH = (Field.GF2, Field.RATIONAL)


def rp2_family():
    rp2 = cx(RP2_FACETS, 6)
    return [rp2, cone(rp2, 7), cone(cone(rp2, 7), 8)]


class TestCoreHomology:
    @pytest.mark.parametrize("fld", BOTH)
    def test_every_complex_up_to_n4(self, fld):
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if not K.is_void:
                    assert core_homology(K, fld) == reduced_homology(K, fld), K

    @pytest.mark.parametrize("fld", BOTH)
    def test_every_link_of_seeded_complexes(self, fld):
        for K in seeded_complexes(60, seed=505, max_n=8):
            for m in K.face_bits:
                lk = link(K, Codeword(m, K.n))
                assert core_homology(lk, fld) == reduced_homology(lk, fld), (K, m)

    @pytest.mark.parametrize("fld", BOTH)
    def test_projective_plane_its_cones_and_wider_copies(self, fld):
        for K in rp2_family():
            for width in (K.n, K.n + 1, 64):
                wide = SimplicialComplex(width, K.facet_bits)
                assert core_homology(wide, fld) == reduced_homology(wide, fld)
        assert core_homology(rp2_family()[0], Field.GF2).betti == (0, 0, 1, 1)

    def test_empty_face_complex_is_not_a_cone(self):
        K = SimplicialComplex(3, frozenset({0}))
        assert core_homology(K).betti == (1,)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_void_raises(self, n):
        with pytest.raises(VoidComplex):
            core_homology(SimplicialComplex(n, frozenset()))

    def test_cones_never_reach_the_ranks(self, monkeypatch):
        def refuse(K):
            raise AssertionError(f"ranked a cone: {K!r}")

        collapse._packed_profile.cache_clear()
        monkeypatch.setattr(homology, "_grades", refuse)
        cones = [cx(["12", "23"], 3), cx(["1234"], 4), *rp2_family()[1:]]
        cones += [SimplicialComplex(64, K.facet_bits) for K in cones]
        for K in cones:
            for fld in BOTH:
                assert core_homology(K, fld) == HomologyProfile(fld, ())
        with pytest.raises(AssertionError, match="ranked"):
            core_homology(cx(["12", "13", "23"], 5))  # the hollow triangle is no cone

    def test_wider_copies_share_one_memo_entry(self, monkeypatch):
        ranked = []

        def recording(K, fld):
            ranked.append(K)
            return reduced_homology(K, fld)

        collapse._packed_profile.cache_clear()
        monkeypatch.setattr("obstrukt.collapse.reduced_homology", recording)
        K = cx(["12", "13", "23", "34"], 4)  # the pendant edge collapses away
        for width in (4, 5, 9, 64):
            core_homology(SimplicialComplex(width, K.facet_bits))
        assert len(set(ranked)) == 1 and ranked[0].n == 3


def every_link(K):
    for m in K.face_bits:
        yield link(K, Codeword(m, K.n))


def unpacked_profile(lk, fld):
    """The link route without relabelling or memo: strong collapse on the
    link as given, then plain ranks of the link itself."""
    core = strong_collapse_core(lk).facet_bits
    point = len(core) == 1 and max(core).bit_count() == 1
    return None if point else reduced_homology(lk, fld)


class TestLinkRoute:
    @pytest.mark.parametrize("fld", BOTH)
    def test_every_link_up_to_n4(self, fld):
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if not K.is_void:
                    for lk in every_link(K):
                        assert link_profile(lk.facet_bits, fld) == unpacked_profile(lk, fld), (K, lk)

    @pytest.mark.parametrize("fld", BOTH)
    def test_seeded_links_n5_to_n9(self, fld):
        wide = [K for K in seeded_complexes(100, seed=909, max_n=9) if K.n >= 5]
        assert len(wide) >= 40
        for K in wide:
            for lk in every_link(K):
                assert link_profile(lk.facet_bits, fld) == unpacked_profile(lk, fld), (K, lk)

    @pytest.mark.parametrize("fld", BOTH)
    def test_projective_plane_and_its_cones(self, fld):
        for K in rp2_family():
            for lk in every_link(K):  # the link of ∅ is K itself
                assert link_profile(lk.facet_bits, fld) == unpacked_profile(lk, fld), (K, lk)

    def test_cone_apex_over_projective_plane_stays_unknown_over_q(self):
        K, apex = rp2_family()[1], 1 << 6
        rp2 = link(K, Codeword(apex, K.n)).facet_bits
        assert link_profile(rp2, Field.RATIONAL) == HomologyProfile(Field.RATIONAL, ())
        assert link_profile(rp2, Field.GF2).betti == (0, 0, 1, 1)
        assert apex in mandatory_partition(K, Field.RATIONAL).unknown_masks
        assert apex in mandatory_partition(K, Field.GF2).in_masks

    def test_relabelled_copies_share_one_memo_entry(self):
        collapse._packed_profile.cache_clear()
        for a, b, c in [(0, 1, 2), (1, 4, 6), (3, 5, 63)]:
            A, B, C = 1 << a, 1 << b, 1 << c
            assert link_profile([A | B, A | C, B | C], Field.GF2).betti == (0, 0, 1)
        assert collapse._packed_profile.cache_info().misses == 1

    @pytest.mark.parametrize("fld", BOTH)
    def test_link_profile_against_the_references_cold_and_warm(self, fld):
        """``link_profile`` against the face-set reference collapse and the
        plain ranks of the complex as given, on every nonvoid complex with
        n <= 4 and on seeded complexes up to n = 10: first with the stage
        memo cleared before each complex, then with every stage kept."""
        cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
        cases += seeded_complexes(150, seed=1010, max_n=10)
        assert max(K.n for K in cases) == 10
        seen = collections.Counter()
        for warm in (False, True):
            for K in cases:
                if not warm:
                    collapse._packed_profile.cache_clear()
                profile = link_profile(K.facet_bits, fld)
                status = ref_contractibility(K, fld)
                assert (profile is None) == (status is Verdict.CONTRACTIBLE), K
                if profile is not None:
                    assert profile == reduced_homology(K, fld), K
                    assert profile.is_trivial == (status is Verdict.UNKNOWN), K
                seen[status] += 1
        assert seen[Verdict.CONTRACTIBLE] and seen[Verdict.NON_CONTRACTIBLE]

    def test_duplicated_cycle_is_decided_from_the_cycles_entry(self, monkeypatch):
        """The copy of a duplicated vertex is the highest twin, so deleting it
        first leaves the source link: the 4-cycle 12, 23, 34, 14 with vertex
        2 duplicated as 5 is not ranked a second time."""
        cycle = [0b0011, 0b0110, 0b1100, 0b1001]
        twin = list(map(resolve_step(Duplicate(2), 4).f, cycle))
        assert sorted(twin) == [0b01001, 0b01100, 0b10011, 0b10110]
        ranked = []
        monkeypatch.setattr(collapse, "reduced_homology",
                            lambda K, fld: ranked.append(K) or reduced_homology(K, fld))
        collapse._packed_profile.cache_clear()
        assert link_profile(cycle, Field.GF2).betti == (0, 0, 1)
        assert len(ranked) == 1
        assert link_profile(twin, Field.GF2).betti == (0, 0, 1)
        assert len(ranked) == 1

    @pytest.mark.parametrize("fld", BOTH)
    def test_ambient_verdict_matches_contractibility_up_to_n4(self, fld):
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if not K.is_void:
                    status = ref_contractibility(K, fld)
                    assert mandatory_partition(K, fld).ambient_verdict is status, K
                    assert contractibility(K, fld) is status, K


class TestEmptyFaceOnTheLattice:
    """The partition decides ∅, whose link is the complex, in its pass over
    the facet intersections: χ̃ ≠ 0 certifies it, a complex whose facets
    share a vertex is a cone, and only the rest reach ``link_profile``."""

    @pytest.mark.parametrize("fld", BOTH)
    def test_ambient_verdict_is_the_contractibility_verdict(self, fld):
        cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
        cases += rp2_family()[:2] + seeded_complexes(100, seed=2424, max_n=8)
        assert max(K.n for K in cases) == 8
        for K in cases:
            assert mandatory_partition(K, fld).ambient_verdict == contractibility(K, fld), K

    @pytest.mark.parametrize("fld", BOTH)
    def test_no_link_profile_of_the_whole_complex(self, monkeypatch, fld):
        """On the hollow triangle (χ̃ = -1) and on the cone over RP^2, whose
        apex link has χ̃ = 0, a partition miss never hands ``link_profile``
        all of K's facets."""
        handed = []

        def recording(facets, field):
            facets = list(facets)
            handed.append(frozenset(facets))
            return link_profile(facets, field)

        for module in (collapse, mandatory):
            monkeypatch.setattr(module, "link_profile", recording)
        hollow, coned = cx(["12", "13", "23"], 3), rp2_family()[1]
        for K, ambient in ((hollow, Verdict.NON_CONTRACTIBLE), (coned, Verdict.CONTRACTIBLE)):
            mandatory_partition.cache_clear()
            handed.clear()
            assert mandatory_partition(K, fld).ambient_verdict is ambient
            assert K.facet_bits not in handed, K
        assert handed  # the apex of the cone, whose link is RP^2


# The face count that picks a core's route, replaced: every complex looks
# empty, so its dual is ranked, or full, so it is ranked as it is.  Either
# way the face bound that lets a core reach that count is lifted.
DUAL, DIRECT = (lambda K: 0), (lambda K: 1 << K.n)


class TestDualRanks:
    """A core on k vertices holding more than 2^(k-1) faces is ranked on its
    Alexander dual; both routes must give the plain ranks of the complex.
    Each complex below is ranked on both routes: the cone test and the
    collapse are switched off, so the complex itself is the core, and the
    face count that picks the route is replaced."""

    @pytest.fixture
    def ranked(self, monkeypatch):
        monkeypatch.setattr(collapse, "_is_cone", lambda facets: False)
        monkeypatch.setattr(collapse, "_highest_domination", lambda facets: None)
        handed = []

        def recording(K, fld):
            handed.append(K)
            return reduced_homology(K, fld)

        monkeypatch.setattr(collapse, "reduced_homology", recording)

        def ranked(K, fld, route):
            """K's profile on ``route``, checked to rank the complex that
            route names: K relabelled, or the complements of its non-faces."""
            collapse._packed_profile.cache_clear()
            handed.clear()
            with monkeypatch.context() as m:
                m.setattr(SimplicialComplex, "__len__", route)
                m.setattr(collapse, "face_bound", lambda facets: math.inf)
                profile = link_profile(K.facet_bits, fld)
            k, faces = K.vertex_bits.bit_count(), len(K.face_bits)
            (core,) = handed
            dual = route is DUAL and k > 0
            assert len(core.face_bits) == ((1 << k) - faces if dual else faces), (K, core)
            assert profile.betti[-1:] != (0,), profile  # no trailing zero on either route
            return profile

        yield ranked
        collapse._packed_profile.cache_clear()  # its entries skipped the cone test and collapse

    @staticmethod
    def has_dual(K):
        """Every complex but the full simplex on its vertices, whose dual is void."""
        return len(K.facet_bits) > 1 or K.facet_bits == {0}

    @pytest.mark.parametrize("fld", BOTH)
    def test_every_complex_up_to_n4(self, ranked, fld):
        cases = [K for n in range(1, 5) for K in enumerate_complexes(n)
                 if not K.is_void and self.has_dual(K)]
        assert len(cases) > 150
        for K in cases:
            for route in (DUAL, DIRECT):
                assert ranked(K, fld, route) == reduced_homology(K, fld), K

    @pytest.mark.parametrize("fld", BOTH)
    def test_seeded_cores_up_to_n10(self, request, fld):
        rng, cores = random.Random(1111), []
        while len(cores) < 300:
            n = rng.randint(3, 10)
            facets = [sum(1 << v for v in rng.sample(range(n), rng.randint(2, min(4, n))))
                      for _ in range(rng.randint(n, 3 * n))]
            # collapsed before the fixture switches the collapse off
            core = strong_collapse_core(SimplicialComplex.from_masks(facets, n))
            if self.has_dual(core):
                cores.append(core)
        sizes = collections.Counter(K.vertex_bits.bit_count() for K in cores)
        assert max(sizes) == 10 and sum(sizes[k] for k in range(7, 11)) >= 100, sizes
        ranked = request.getfixturevalue("ranked")
        for K in cores:
            expected = reduced_homology(K, fld)
            for route in (DUAL, DIRECT):
                assert ranked(K, fld, route) == expected, K

    @pytest.mark.parametrize("k", range(2, 9))
    def test_boundary_of_a_simplex_is_ranked_on_the_empty_face(self, ranked, k):
        """The dual of the boundary of the simplex on [k] is {∅}, whose one
        Betti number, in degree -1, is the sphere's in degree k - 2."""
        top = (1 << k) - 1
        sphere = SimplicialComplex(k, frozenset(top ^ 1 << v for v in range(k)))
        for fld in BOTH:
            expected = reduced_homology(sphere, fld)
            assert expected.nonzero_degrees() == (k - 2,) and expected.dim_at(k - 2) == 1
            assert ranked(sphere, fld, DUAL) == ranked(sphere, fld, DIRECT) == expected

    def test_boundary_of_a_simplex_takes_the_dual_unforced(self, monkeypatch):
        handed = []

        def recording(K, fld):
            handed.append(K)
            return reduced_homology(K, fld)

        monkeypatch.setattr(collapse, "reduced_homology", recording)
        collapse._packed_profile.cache_clear()
        for k in range(3, 9):
            handed.clear()
            top = (1 << k) - 1
            profile = link_profile([top ^ 1 << v for v in range(k)], Field.GF2)
            assert profile.nonzero_degrees() == (k - 2,)
            assert handed == [SimplicialComplex(k, frozenset({0}))]

    @pytest.mark.parametrize("fld", BOTH)
    def test_projective_plane_and_its_cone(self, ranked, fld):
        for K in rp2_family()[:2]:
            expected = reduced_homology(K, fld)
            for route in (DUAL, DIRECT):
                assert ranked(K, fld, route) == expected, K
        rp2 = rp2_family()[0]
        assert ranked(rp2, fld, DUAL).betti == ((0, 0, 1, 1) if fld is Field.GF2 else ())


def signed_boundary(K, i, fld):
    """The boundary matrix built entry by entry: rows and columns ascend by
    mask, and deleting the j-th smallest vertex of a column face has sign
    (-1)^j over the rationals and 1 over GF(2)."""
    faces = sorted(K.face_bits)
    rows = [m for m in faces if m.bit_count() == i] if i >= 0 else []
    cols = [m for m in faces if m.bit_count() == i + 1]
    matrix = [[0] * len(cols) for _ in rows]
    for c, m in enumerate(cols):
        vertices = [b for b in range(K.n) if m >> b & 1]
        for j, b in enumerate(vertices):
            sign = (-1) ** j if fld is Field.RATIONAL else 1
            matrix[rows.index(m ^ 1 << b)][c] = sign
    return matrix


class TestPackedBoundaryColumns:
    @pytest.mark.parametrize("fld", BOTH)
    def test_dense_restores_the_signed_matrix_up_to_n4(self, fld):
        """``_dense`` over the packed columns of ``_boundary_columns`` gives
        the signed matrix, in every degree of every nonvoid complex with
        n <= 4, and so does ``boundary_matrix``."""
        matrices = 0
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if K.is_void:
                    continue
                grades = homology._grades(K)
                for i in range(-1, K.dim + 1):
                    rows = grades[i] if i >= 0 else []
                    columns = homology._boundary_columns(rows, grades[i + 1])
                    assert all(isinstance(col, int) for col in columns)
                    expected = signed_boundary(K, i, fld)
                    assert homology._dense(len(rows), columns, fld) == expected, (K, i)
                    assert boundary_matrix(K, i, fld) == expected, (K, i)
                    matrices += 1
        assert matrices == 601


class TestRationalEliminationOnCones:
    def test_boundary_ranks_of_the_projective_plane_cones(self):
        # core_homology skips cones, so check the elimination on them directly
        for K in rp2_family():
            for i in range(0, K.dim + 1):
                rows = boundary_matrix(K, i, Field.RATIONAL)
                assert rank_fraction_free(rows) == rank_by_fractions(rows), (K, i)


def maximal_by_pairs(masks):
    """The earlier definition: compare every mask with every other."""
    pool = set(masks)
    return frozenset(m for m in pool if not any(m != v and m & ~v == 0 for v in pool))


class TestMaximalMasks:
    def test_against_pairwise_definition(self):
        rng = random.Random(77)
        for _ in range(500):
            n = rng.randint(1, 10)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 25))]
            masks += rng.sample(masks, len(masks) // 3)  # duplicates
            masks += [m & rng.randrange(1 << n) for m in masks[:4]]  # nested
            if rng.random() < 0.3:
                masks.append(0)
            assert maximal_masks(masks) == maximal_by_pairs(masks), masks

    def test_edge_cases(self):
        assert maximal_masks([]) == frozenset()
        assert maximal_masks([0, 0]) == frozenset({0})
        assert maximal_masks([0b1, 0b11, 0b111, 0b111]) == frozenset({0b111})


class TestImageOfProjection:
    def test_nested_facet_images_are_closed(self):
        K = cx(["12", "3"], 3)  # deleting 3 sends facet 3 to ∅, inside 12
        assert image_complex(Project(3), K).facet_bits == frozenset({0b11})
        K = cx(["13", "23", "12"], 3)
        assert image_complex(Project(3), K).facet_bits == frozenset({0b11})


def test_binary_matches_the_per_bit_join():
    rng = random.Random(64)
    for n in range(1, 65):
        for bits in {0, (1 << n) - 1, 1, 1 << (n - 1), rng.randrange(1 << n)}:
            cw = Codeword(bits, n)
            assert cw.binary() == "".join("1" if bits >> i & 1 else "0" for i in range(n))


class TestSummaryCounts:
    def test_pool_summary_equals_serial(self):
        assert run_exhaustive(2, jobs=2).to_json_dict() == run_exhaustive(2).to_json_dict()

    @pytest.mark.parametrize("fld", BOTH)
    @pytest.mark.parametrize("n", [2, 3])
    def test_summary_equals_line_tallies(self, n, fld):
        summary = run_exhaustive(n, fld)
        written = []
        lines = run_exhaustive(n, fld, write=written.append)
        assert summary.to_json_dict() == lines.to_json_dict()
        assert all(block.endswith("\n") for block in written)
        verdicts = collections.Counter(json.loads(line)["verdict"]
                                       for line in "".join(written).splitlines())
        assert (summary.holds, summary.partial, summary.violated) == (
            verdicts["holds"], verdicts["partial"], verdicts["violated"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_violations_in_instance_order(self, monkeypatch, jobs):
        def fake(task, lines):
            _, facets, *_ = task
            out = [("holds", ('{"theorem": "x", "code": ', ', "verdict": "holds"}'))]
            if len(facets) == 2:
                out.append(("violated", ('{"theorem": "y", "code": ', ', "verdict": "violated"}')))
            if len(facets) == 3:
                out.append(("partial", ('{"theorem": "z", "code": ', ', "verdict": "partial"}')))
            return out

        class InProcessPool:
            def __init__(self, jobs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(suites, "_run_one", fake)
        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        reference = []
        counts = [0, 0, 0]
        for code in exhaustive_codes(3):
            facets = len(code_complex(code).facet_bits)
            binaries = sorted(w.binary() for w in code.words)
            counts[0] += 1
            if facets == 2:
                counts[2] += 1
                reference.append({"theorem": "y", "code": binaries, "verdict": "violated"})
            if facets == 3:
                counts[1] += 1
        summary = run_exhaustive(3, jobs=jobs)
        assert summary.violations == reference
        assert list(summary.violations[0]) == ["theorem", "code", "verdict"]
        assert (summary.holds, summary.partial, summary.violated) == tuple(counts)
        assert summary.instances == sum(counts)
        written = []
        lines = run_exhaustive(3, jobs=jobs, write=written.append)
        assert summary.to_json_dict() == lines.to_json_dict()
        assert len("".join(written).splitlines()) == summary.instances


def test_duplicate_code_counts_once_per_code():
    code = NeuralCode(2, [0b01, 0b11])
    twice = suites.run_suite([code, code])
    once = suites.run_suite([code])
    assert twice.instances == 2 * once.instances and twice.holds == 2 * once.holds


def test_serial_suite_verifies_each_key_when_first_met(monkeypatch):
    drawn = []

    def codes():
        for c in exhaustive_codes(2):
            drawn.append(c)
            yield c

    seen = []
    real = suites._run_one
    monkeypatch.setattr(suites, "_run_one", lambda task, lines: seen.append(len(drawn)) or real(task, lines))
    result = suites.run_suite(codes())
    assert seen[0] == 1 and seen == sorted(set(seen)) and len(seen) == 6
    assert result.to_json_dict() == run_exhaustive(2).to_json_dict()
