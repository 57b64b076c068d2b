import random
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest

from obstrukt import (
    Codeword,
    Field,
    SimplicialComplex,
    boundary_matrix,
    code_complex,
    euler_characteristic,
    link,
    reduced_homology,
)
from obstrukt.complexes import link_euler_characteristics
from obstrukt.homology import HomologyProfile, rank_fraction_free
from obstrukt.errors import DegreeOutOfRange, VoidComplex

from conftest import RP2_FACETS, code, cone, cx, enumerate_complexes, full_simplex, seeded_complexes

BOTH = (Field.GF2, Field.RATIONAL)


def rank_by_fractions(rows):
    """Reference rank: Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((k for k in range(rank, len(m)) if m[k][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for k in range(len(m)):
            if k != rank and m[k][c]:
                f = m[k][c] / m[rank][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[rank])]
        rank += 1
    return rank


def betti_by_fractions(K):
    """Reference rational reduced Betti numbers from the boundary matrices."""
    faces = [sum(1 for m in K.face_bits if m.bit_count() == k) for k in range(K.dim + 2)]
    ranks = [0] + [rank_by_fractions(boundary_matrix(K, i, Field.RATIONAL))
                   for i in range(0, K.dim + 1)] + [0]
    betti = [faces[k] - ranks[k] - ranks[k + 1] for k in range(len(faces))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def matmul(a, b):
    if not a or not b:
        return []
    assert len(a[0]) == len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestBoundaryMatrix:
    def test_one_edge(self):
        K = cx(["12"], 2)
        assert boundary_matrix(K, 1, Field.GF2) == [[1], [1]]

    def test_one_edge_signs(self):
        K = cx(["12"], 2)
        cols = boundary_matrix(K, 1, Field.RATIONAL)
        # ∂(12) = 2 - 1 with ascending-vertex orientation; rows are 1 then 2
        assert cols == [[-1], [1]]

    def test_augmentation_row(self):
        K = cx(["12", "3"], 3)
        assert boundary_matrix(K, 0, Field.GF2) == [[1, 1, 1]]
        assert boundary_matrix(K, 0, Field.RATIONAL) == [[1, 1, 1]]

    def test_degree_minus_one_has_no_rows(self):
        K = cx(["1"], 1)
        assert boundary_matrix(K, -1, Field.GF2) == []

    def test_degree_out_of_range(self):
        K = cx(["12"], 2)
        with pytest.raises(DegreeOutOfRange):
            boundary_matrix(K, 2, Field.GF2)
        with pytest.raises(DegreeOutOfRange):
            boundary_matrix(K, -2, Field.GF2)

    def test_void(self):
        with pytest.raises(VoidComplex):
            boundary_matrix(SimplicialComplex(2, frozenset()), 0, Field.GF2)

    @pytest.mark.parametrize("field", BOTH)
    def test_boundary_squares_to_zero_worked_example(self, field):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        for i in range(0, K.dim + 1):
            lower = boundary_matrix(K, i - 1, field)
            upper = boundary_matrix(K, i, field)
            prod = matmul(lower, upper)
            if field is Field.GF2:
                assert all(v % 2 == 0 for row in prod for v in row)
            else:
                assert all(v == 0 for row in prod for v in row)

    @pytest.mark.parametrize("field", BOTH)
    def test_boundary_squares_to_zero_random(self, field):
        for K in seeded_complexes(40, seed=2024, max_n=6):
            for i in range(0, K.dim + 1):
                prod = matmul(boundary_matrix(K, i - 1, field), boundary_matrix(K, i, field))
                if field is Field.GF2:
                    assert all(v % 2 == 0 for row in prod for v in row)
                else:
                    assert all(v == 0 for row in prod for v in row)


class TestProfiles:
    @pytest.mark.parametrize("field", BOTH)
    def test_profiles_trim_their_trailing_zeros(self, field):
        assert HomologyProfile(field, (0, 1, 0, 0)) == HomologyProfile(field, (0, 1))
        assert HomologyProfile(field, (0, 1, 0, 0)).betti == (0, 1)
        assert HomologyProfile(field, (0, 0)).is_trivial

    def test_empty_face_complex(self):
        K = SimplicialComplex(2, frozenset({0}))
        profile = reduced_homology(K, Field.GF2)
        assert profile.dim_at(-1) == 1
        assert profile.nonzero_degrees() == (-1,)

    def test_point_is_trivial(self):
        K = cx(["1"], 1)
        assert reduced_homology(K, Field.GF2).is_trivial
        assert reduced_homology(K, Field.RATIONAL).is_trivial

    def test_hollow_triangle(self):
        K = cx(["12", "13", "23"], 3)
        for field in BOTH:
            profile = reduced_homology(K, field)
            assert profile.nonzero_degrees() == (1,)
            assert profile.dim_at(1) == 1

    def test_two_points(self):
        K = cx(["1", "2"], 2)
        assert reduced_homology(K, Field.GF2).dim_at(0) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("field", BOTH)
    def test_hollow_simplex_is_a_sphere(self, n, field):
        full = (1 << n) - 1
        hollow = SimplicialComplex.from_masks(
            [full ^ (1 << i) for i in range(n)], n
        )
        profile = reduced_homology(hollow, field)
        assert profile.nonzero_degrees() == (n - 2,)
        assert profile.dim_at(n - 2) == 1

    @pytest.mark.parametrize("field", BOTH)
    def test_full_simplex_trivial(self, field):
        assert reduced_homology(full_simplex(5), field).is_trivial

    def test_cone_kills_homology(self):
        for K in seeded_complexes(60, seed=7, max_n=5):
            C = cone(K, K.n + 1)
            for field in BOTH:
                assert reduced_homology(C, field).is_trivial

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            reduced_homology(SimplicialComplex(2, frozenset()), Field.GF2)


class TestEuler:
    def test_empty_face_complex(self):
        assert euler_characteristic(SimplicialComplex(3, frozenset({0}))) == -1

    def test_full_simplex(self):
        assert euler_characteristic(full_simplex(3)) == 0

    def test_hollow_triangle_by_direct_sum(self):
        K = cx(["12", "13", "23"], 3)
        # oracle: -1 for ∅, +3 vertices, -3 edges
        total = sum(1 if m.bit_count() % 2 else -1 for m in K.face_bits)
        assert total == -1
        assert euler_characteristic(K) == -1

    @pytest.mark.parametrize("field", BOTH)
    def test_alternating_sum_matches(self, field):
        for K in seeded_complexes(80, seed=99, max_n=6):
            profile = reduced_homology(K, field)
            assert profile.alternating_sum() == euler_characteristic(K)

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            euler_characteristic(SimplicialComplex(1, frozenset()))


class TestFieldSensitivity:
    def test_projective_plane_structure(self):
        # structural oracle: closed connected surface with Euler characteristic 1
        K = cx(RP2_FACETS, 6)
        triangles = [m for m in K.face_bits if m.bit_count() == 3]
        edges = [m for m in K.face_bits if m.bit_count() == 2]
        verts = [m for m in K.face_bits if m.bit_count() == 1]
        assert (len(verts), len(edges), len(triangles)) == (6, 15, 10)
        for e in edges:
            assert sum(1 for t in triangles if e & ~t == 0) == 2
        for v in verts:
            ring = [e for e in edges if v & e]
            assert len(ring) == 5  # vertex links are single 5-cycles
        assert euler_characteristic(K) == 0  # reduced: χ - 1

    def test_projective_plane_betti_numbers(self):
        K = cx(RP2_FACETS, 6)
        gf2 = reduced_homology(K, Field.GF2)
        rat = reduced_homology(K, Field.RATIONAL)
        assert gf2.dim_at(1) == 1 and gf2.dim_at(2) == 1
        assert rat.is_trivial
        assert gf2 != rat


class TestRationalRank:
    def test_matches_fraction_elimination(self):
        rng = random.Random(8)
        for _ in range(400):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            values = rng.choice([(-1, 0, 1), (-3, -1, 0, 0, 1, 2), tuple(range(-9, 10))])
            rows = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
            if r > 1 and rng.random() < 0.5:  # a dependent row
                a, b = rng.sample(range(r), 2)
                rows.append([3 * x - 2 * y for x, y in zip(rows[a], rows[b])])
            assert rank_fraction_free(rows) == rank_by_fractions(rows), rows

    def test_empty_and_zero_matrices(self):
        assert rank_fraction_free([]) == 0
        assert rank_fraction_free([[0, 0], [0, 0]]) == 0

    def test_projective_plane_and_its_cones_against_fractions(self):
        # 2-torsion: the GF(2) rank of the top boundary is below its
        # rational rank, so the rational elimination must run there
        rp2 = cx(RP2_FACETS, 6)
        for K in (rp2, cone(rp2, 7), cone(cone(rp2, 7), 8)):
            assert reduced_homology(K, Field.RATIONAL).betti == betti_by_fractions(K)

    def test_rational_homology_against_fractions(self):
        for K in seeded_complexes(60, seed=71, max_n=6):
            assert reduced_homology(K, Field.RATIONAL).betti == betti_by_fractions(K)


def _facet_intersections(K):
    """Brute force: the meet of every nonempty set of facets."""
    facets = sorted(K.facet_bits)
    meets = set()
    for chosen in range(1, 1 << len(facets)):
        meets.add(reduce(and_, (f for i, f in enumerate(facets) if chosen >> i & 1)))
    return meets


class TestLinkEuler:
    CASES = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
    CASES += [cx(RP2_FACETS, 6)]

    def test_keys_are_the_facet_intersections(self):
        for K in self.CASES:
            assert set(link_euler_characteristics(K.facet_bits)) == _facet_intersections(K), K

    def test_every_value_is_the_link_characteristic(self):
        for K in self.CASES:
            for m, value in link_euler_characteristics(K.facet_bits).items():
                assert value == euler_characteristic(link(K, Codeword(m, K.n))), (K, m)

    def test_faces_off_the_lattice_have_cones_for_links(self):
        for K in self.CASES:
            chi = link_euler_characteristics(K.facet_bits)
            for m in K.face_bits - chi.keys():
                assert euler_characteristic(link(K, Codeword(m, K.n))) == 0

    def test_projective_plane(self):
        K = cx(RP2_FACETS, 6)
        chi = link_euler_characteristics(K.facet_bits)
        assert chi[0] == euler_characteristic(K) == 0
        assert all(chi[m] == -1 for m in K.facet_bits)  # link {∅}
        assert all(chi[m] == -1 for m in K.face_bits if m.bit_count() == 1)  # 5-cycles
        assert all(chi[m] == 1 for m in K.face_bits if m.bit_count() == 2)  # two points
        assert len(chi) == len(K.face_bits)  # every face of RP² is a facet intersection

    def test_void_complex_has_no_faces(self):
        assert link_euler_characteristics(SimplicialComplex(2, frozenset()).facet_bits) == {}


class TestProfileValue:
    def test_stripped_equality_across_dimensions(self):
        point_small = cx(["1"], 1)
        point_wide = cx(["1"], 4)
        assert reduced_homology(point_small, Field.GF2) == reduced_homology(
            point_wide, Field.GF2
        )

    def test_json_omits_zeros(self):
        K = cx(["12", "13", "23"], 3)
        payload = reduced_homology(K, Field.GF2).to_json_dict()
        assert payload == {"field": "GF2", "dims": {"1": 1}}

    def test_dim_out_of_range_is_zero(self):
        K = cx(["1"], 1)
        assert reduced_homology(K, Field.GF2).dim_at(5) == 0
