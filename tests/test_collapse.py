import random

import pytest

from obstrukt import (
    Codeword,
    Field,
    SimplicialComplex,
    Verdict,
    code_complex,
    contractibility,
    core_homology,
    facet_intersection,
    link,
    map_code,
    random_code,
    reduced_homology,
    strong_collapse_core,
)
from obstrukt.codemaps import Duplicate
from obstrukt.collapse import _facet_homology, _highest_domination
from obstrukt.errors import VoidComplex

from conftest import (RP2_FACETS, code, cone, cx, enumerate_complexes, full_simplex,
                      ref_contractibility, ref_dominated, seeded_complexes)

BOTH = (Field.GF2, Field.RATIONAL)


def pairs_of(K):
    return ref_dominated(K.face_bits, K.n)


class TestDomination:
    def test_full_edge_dominates_both_ways(self):
        K = code_complex(code(["12"], 2))
        assert pairs_of(K) == {(1, 2), (2, 1)}
        assert _highest_domination(list(K.facet_bits)) == 0b10

    def test_hollow_triangle_has_none(self):
        hollow = cx(["12", "13", "23"], 3)
        # oracle: check the definition against every vertex pair
        for v in (1, 2, 3):
            for u in (1, 2, 3):
                if u == v:
                    continue
                vb, ub = 1 << (v - 1), 1 << (u - 1)
                facets_with_v = [f for f in hollow.facet_bits if f & vb]
                assert not all(f & ub for f in facets_with_v)
        assert pairs_of(hollow) == set()
        assert _highest_domination(list(hollow.facet_bits)) is None

    def test_duplicated_neuron_is_dominated_by_source(self):
        c = code(["123", "24", "2"], 4)
        c2 = map_code(Duplicate(1), c)
        K2 = code_complex(c2)
        assert (5, 1) in pairs_of(K2)
        highest = max(v for v, _ in pairs_of(K2))
        assert highest == 5
        assert _highest_domination(list(K2.facet_bits)) == 1 << (highest - 1)

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            strong_collapse_core(SimplicialComplex(2, frozenset()))


def is_single_point(K):
    return len(K.facet_bits) == 1 and max(K.facet_bits).bit_count() == 1


class TestStrongCollapse:
    def test_full_simplex_collapses_to_point(self):
        # vertices 4, 3 and 2 go in turn, each dominated by every other
        assert strong_collapse_core(full_simplex(4)).facet_bits == {0b0001}

    def test_hollow_triangle_is_its_own_core(self):
        hollow = cx(["12", "13", "23"], 3)
        assert strong_collapse_core(hollow) == hollow

    def test_cone_collapses_to_point(self):
        for K in seeded_complexes(25, seed=5, max_n=5):
            assert is_single_point(strong_collapse_core(cone(K, K.n + 1)))

    def test_core_has_no_dominated_vertex(self):
        for K in seeded_complexes(40, seed=6, max_n=6):
            core = strong_collapse_core(K)
            assert pairs_of(core) == set()

    def test_mask_loop_matches_the_reference_loop(self):
        """The facet-mask collapse reaches the same core as deleting the
        highest dominated vertex from the face set, on every nonvoid complex
        with n <= 4 and on 200 seeded codes each at n = 8 and n = 10."""

        def reference(K):
            faces = K.face_bits
            while pairs := ref_dominated(faces, K.n):
                bit = 1 << (max(pairs)[0] - 1)
                faces = frozenset(s for s in faces if not s & bit)
            return SimplicialComplex.from_masks(faces, K.n)

        cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
        cases += [code_complex(random_code(n, seed)) for n in (8, 10) for seed in range(200)]
        assert len(cases) == 593 and not any(K.is_void for K in cases)
        collapsed = 0
        for K in cases:
            core = strong_collapse_core(K)
            assert core == reference(K), K
            collapsed += core != K
        assert collapsed > 300

    @pytest.mark.parametrize("field", BOTH)
    def test_core_homology_matches(self, field):
        for K in seeded_complexes(60, seed=17, max_n=6):
            core = strong_collapse_core(K)
            assert reduced_homology(K, field) == reduced_homology(core, field)


@pytest.mark.parametrize("field", BOTH)
def test_mask_link_route_matches_the_complex_route(field):
    """The facet-mask route (cone test, mask collapse, narrowed rank) gives
    the homology of ranking the whole complex, and its contractible answers
    are exactly the complexes the face-set reference collapses to a point:
    on every nonvoid complex with n <= 4 and on links of faces of seeded
    codes up to n = 9."""
    cases = [(K.n, K.facet_bits) for n in range(1, 5)
             for K in enumerate_complexes(n) if not K.is_void]
    rng = random.Random(19)
    for seed in range(60):
        n = rng.randint(5, 9)
        K = code_complex(random_code(n, seed, rng.choice((0.2, 0.4))))
        for s in rng.sample(sorted(K.face_bits), 3):
            cases.append((n, frozenset(f & ~s for f in K.facet_bits if not s & ~f)))
    contractible = 0
    for n, facets in cases:
        K = SimplicialComplex(n, facets)
        assert _facet_homology(facets, field) == core_homology(K, field) == reduced_homology(K, field)
        status = ref_contractibility(K, field)
        assert is_single_point(strong_collapse_core(K)) == (status is Verdict.CONTRACTIBLE), K
        assert contractibility(K, field) is status, K
        contractible += status is Verdict.CONTRACTIBLE
    assert len(cases) == 373 and 0 < contractible < len(cases)


@pytest.mark.parametrize("field", BOTH)
def test_contractibility_matches_the_face_set_reference(field):
    """``contractibility`` gives the verdict of the face-set reference
    collapse on every nonvoid complex with n <= 4, on 300 seeded complexes up
    to n = 7, on RP² and its cone, and on an acyclic complex without a
    dominated vertex; RP² stays unknown over Q."""
    rp2 = cx(RP2_FACETS, 6)
    # six triangles on five vertices: acyclic over every field, yet no vertex
    # is dominated, so no strong collapse starts; a sampled GF(2) suite at
    # n = 6 meets it
    stuck = cx(["123", "124", "135", "145", "245", "345"], 5)
    cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
    cases += seeded_complexes(300, seed=61, max_n=7)
    cases += [rp2, cone(rp2, 7), stuck]
    seen = set()
    for K in cases:
        status = contractibility(K, field)
        assert status is ref_contractibility(K, field), K
        seen.add(status)
    assert seen == set(Verdict)
    assert contractibility(stuck, field) is Verdict.UNKNOWN
    rp2_status = Verdict.UNKNOWN if field is Field.RATIONAL else Verdict.NON_CONTRACTIBLE
    assert contractibility(rp2, field) is rp2_status


class TestContractibility:
    def test_full_simplex(self):
        verdict = contractibility(full_simplex(5))
        assert verdict is Verdict.CONTRACTIBLE

    def test_hollow_triangle(self):
        verdict = contractibility(cx(["12", "13", "23"], 3))
        assert verdict is Verdict.NON_CONTRACTIBLE

    def test_empty_face_complex(self):
        verdict = contractibility(SimplicialComplex(2, frozenset({0})))
        assert verdict is Verdict.NON_CONTRACTIBLE

    def test_certificates_are_exclusive(self):
        for K in seeded_complexes(60, seed=31, max_n=6):
            for field in BOTH:
                verdict = contractibility(K, field)
                if verdict is Verdict.CONTRACTIBLE:
                    assert reduced_homology(K, field).is_trivial
                elif verdict is Verdict.NON_CONTRACTIBLE:
                    assert not is_single_point(strong_collapse_core(K))

    def test_cone_links_never_non_contractible(self):
        # whenever σ is a proper subset of its facet intersection, the link
        # is a cone: homology vanishes and the verdict cannot be negative
        for K in seeded_complexes(50, seed=41, max_n=6):
            for m in sorted(K.face_bits):
                sigma = Codeword(m, K.n)
                if facet_intersection(K, sigma).bits == m:
                    continue
                L = link(K, sigma)
                for field in BOTH:
                    assert reduced_homology(L, field).is_trivial
                    assert contractibility(L, field) is not Verdict.NON_CONTRACTIBLE
