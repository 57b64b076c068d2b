import random

import pytest
from hypothesis import given, settings, strategies as st

from obstrukt import (
    Codeword,
    Field,
    NeuralCode,
    SimplicialComplex,
    Verdict,
    code_complex,
    cone,
    contractibility,
    core_homology,
    delete_vertex,
    dominated_vertices,
    elementary_collapse,
    enumerate_complexes,
    facet_intersection,
    free_face_pairs,
    full_simplex,
    link,
    map_code,
    random_code,
    reduced_homology,
    strong_collapse_core,
)
from obstrukt.codemaps import Duplicate
from obstrukt.collapse import _core_facets, _facet_homology, is_single_point
from obstrukt.errors import NotAFreeFacePair, VoidComplex

from conftest import code, complexes, cx, seeded_complexes, w

BOTH = (Field.GF2, Field.RATIONAL)


class TestDomination:
    def test_full_edge_dominates_both_ways(self):
        K = code_complex(code(["12"], 2))
        pairs = {(d.dominated, d.dominator) for d in dominated_vertices(K)}
        assert pairs == {(1, 2), (2, 1)}

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
        assert dominated_vertices(hollow) == []

    def test_duplicated_neuron_is_dominated_by_source(self):
        c = code(["123", "24", "2"], 4)
        c2 = map_code(Duplicate(1), c)
        K2 = code_complex(c2)
        pairs = {(d.dominated, d.dominator) for d in dominated_vertices(K2)}
        assert (5, 1) in pairs

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            dominated_vertices(SimplicialComplex.void(2))


class TestStrongCollapse:
    def test_full_simplex_collapses_to_point(self):
        seq = strong_collapse_core(full_simplex(4))
        assert is_single_point(seq.core)
        assert len(seq.steps) == 3

    def test_hollow_triangle_is_its_own_core(self):
        hollow = cx(["12", "13", "23"], 3)
        seq = strong_collapse_core(hollow)
        assert seq.steps == ()
        assert seq.core == hollow

    def test_cone_collapses_to_point(self):
        for K in seeded_complexes(25, seed=5, max_n=5):
            seq = strong_collapse_core(cone(K, K.n + 1))
            assert is_single_point(seq.core)

    def test_replay_checks_every_step(self):
        seq = strong_collapse_core(full_simplex(3))
        assert seq.replay()

    def test_core_has_no_dominated_vertex(self):
        for K in seeded_complexes(40, seed=6, max_n=6):
            core = strong_collapse_core(K).core
            if not core.is_void:
                assert dominated_vertices(core) == []

    def test_mask_loop_matches_the_reference_loop(self):
        """The facet-mask collapse takes the same steps to the same core as
        deleting ``dominated_vertices(cur)[0]`` with ``delete_vertex``, on
        every nonvoid complex with n <= 4 and on 200 seeded codes each at
        n = 8 and n = 10; every sequence replays."""

        def reference(K):
            cur, steps = K, []
            while witnesses := dominated_vertices(cur):
                steps.append(witnesses[0])
                cur = delete_vertex(cur, witnesses[0].dominated)
            return tuple(steps), cur

        cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
        cases += [code_complex(random_code(n, seed)) for n in (8, 10) for seed in range(200)]
        assert len(cases) == 593 and not any(K.is_void for K in cases)
        collapsed = 0
        for K in cases:
            seq = strong_collapse_core(K)
            assert (seq.steps, seq.core) == reference(K), K
            assert seq.replay()
            collapsed += bool(seq.steps)
        assert collapsed > 300

    @pytest.mark.parametrize("field", BOTH)
    def test_core_homology_matches(self, field):
        for K in seeded_complexes(60, seed=17, max_n=6):
            seq = strong_collapse_core(K)
            assert reduced_homology(K, field) == reduced_homology(seq.core, field)


@pytest.mark.parametrize("field", BOTH)
def test_mask_link_route_matches_the_complex_route(field):
    """The facet-mask route (cone test, mask collapse, narrowed rank) gives
    the homology of ranking the whole complex, and its contractible answers
    are exactly the complexes ``contractibility`` collapses to a point: on
    every nonvoid complex with n <= 4 and on links of faces of seeded codes
    up to n = 9."""
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
        status = contractibility(K, field).status
        assert (_core_facets(facets) is None) == (status is Verdict.CONTRACTIBLE), K
        contractible += status is Verdict.CONTRACTIBLE
    assert len(cases) == 373 and 0 < contractible < len(cases)


class TestFreeFaces:
    def test_full_edge(self):
        K = cx(["12"], 2)
        pairs = {(a.binary(), b.binary()) for a, b in free_face_pairs(K)}
        assert pairs == {("10", "11"), ("01", "11")}

    def test_collapse_full_edge(self):
        K = cx(["12"], 2)
        out = elementary_collapse(K, w("1", 2), w("12", 2))
        assert out.face_bits == frozenset({0, 0b10})

    def test_hollow_triangle_has_none(self):
        hollow = cx(["12", "13", "23"], 3)
        # oracle: each vertex star has 3 faces, each edge star only itself
        for m in hollow.face_bits:
            if m == 0:
                continue
            over = [t for t in hollow.face_bits if m & ~t == 0]
            assert len(over) != 2
        assert free_face_pairs(hollow) == []

    def test_full_triangle_has_edge_pairs(self):
        K = full_simplex(3)
        pairs = {(a.binary(), b.binary()) for a, b in free_face_pairs(K)}
        assert ("110", "111") in pairs

    def test_not_a_free_pair(self):
        K = full_simplex(3)
        with pytest.raises(NotAFreeFacePair):
            elementary_collapse(K, w("1", 3), w("12", 3))
        with pytest.raises(NotAFreeFacePair):
            elementary_collapse(K, Codeword.empty(3), w("1", 3))
        with pytest.raises(NotAFreeFacePair):
            elementary_collapse(K, w("12", 3), w("12", 3))

    @pytest.mark.parametrize("field", BOTH)
    def test_single_collapse_preserves_homology(self, field):
        for K in seeded_complexes(40, seed=23, max_n=6):
            pairs = free_face_pairs(K)
            if not pairs:
                continue
            out = elementary_collapse(K, *pairs[0])
            assert reduced_homology(K, field) == reduced_homology(out, field)


class TestContractibility:
    def test_full_simplex(self):
        verdict = contractibility(full_simplex(5))
        assert verdict.status is Verdict.CONTRACTIBLE
        assert verdict.collapse is not None and verdict.collapse.replay()

    def test_hollow_triangle(self):
        verdict = contractibility(cx(["12", "13", "23"], 3))
        assert verdict.status is Verdict.NON_CONTRACTIBLE
        assert verdict.nonzero_degree == 1

    def test_empty_face_complex(self):
        verdict = contractibility(SimplicialComplex(2, frozenset({0})))
        assert verdict.status is Verdict.NON_CONTRACTIBLE
        assert verdict.nonzero_degree == -1

    def test_certificates_are_exclusive(self):
        for K in seeded_complexes(60, seed=31, max_n=6):
            for field in BOTH:
                verdict = contractibility(K, field)
                if verdict.status is Verdict.CONTRACTIBLE:
                    assert reduced_homology(K, field).is_trivial
                elif verdict.status is Verdict.NON_CONTRACTIBLE:
                    assert not is_single_point(strong_collapse_core(K).core)

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
                    assert contractibility(L, field).status is not Verdict.NON_CONTRACTIBLE

    def test_json_round_trip_fields(self):
        verdict = contractibility(full_simplex(3))
        payload = verdict.to_json_dict()
        assert payload["status"] == "contractible"
        assert "collapse" in payload
