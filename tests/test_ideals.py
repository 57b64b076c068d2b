import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from obstrukt import (
    Codeword,
    MonomialIdeal,
    NeuralCode,
    SimplicialComplex,
    alexander_dual,
    code_complex,
    dual_complex,
    ideal_contains,
    map_code,
    permute_ideal,
    sr_ideal,
)
from obstrukt.codemaps import AddTrivialOff, AddTrivialOn, Duplicate, Permute, Project
from obstrukt.errors import DegenerateDualWarning, NotAPermutation, VoidComplex
from obstrukt.cli import main
from obstrukt.codes import binaries
from obstrukt.ideals import dual_ideal, invert_permutation, mask_permuter, minimal_masks

from conftest import code, cx, enumerate_complexes, full_simplex, permute_mask


def ideal(n, *gens):
    return MonomialIdeal(n, frozenset(gens))


class TestMonomialIdeal:
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            MonomialIdeal(3, frozenset({0b001, 0b011}))

    def test_membership_is_monotone(self):
        I = ideal(3, 0b011)
        assert I.contains_monomial(Codeword(0b011, 3))
        assert I.contains_monomial(Codeword(0b111, 3))
        assert not I.contains_monomial(Codeword(0b001, 3))

    def test_to_lists(self):
        I = ideal(3, 0b011, 0b100)
        assert I.to_lists() == [[1, 2], [3]]

    @given(st.integers(1, 5), st.frozensets(st.integers(0, 31), max_size=8))
    def test_minimal_masks_is_antichain(self, n, masks):
        masks = frozenset(m & ((1 << n) - 1) for m in masks)
        mins = minimal_masks(masks)
        for a in mins:
            for b in mins:
                assert a == b or a & ~b != 0


class TestSrIdeal:
    def test_two_points(self):
        K = cx(["1", "2"], 2)
        assert sr_ideal(K).to_lists() == [[1, 2]]

    def test_full_simplex_gives_zero_ideal(self):
        assert sr_ideal(full_simplex(4)).is_zero

    def test_hollow_triangle(self):
        K = cx(["12", "13", "23"], 3)
        # oracle: the only non-faces of the hollow triangle is the full set
        non_faces = [m for m in range(8) if m not in K.face_bits]
        assert non_faces == [0b111]
        assert sr_ideal(K).to_lists() == [[1, 2, 3]]

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            sr_ideal(SimplicialComplex(2, frozenset()))

    def test_generators_are_non_faces_with_facial_boundaries(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        I = sr_ideal(K)
        for g in I.gen_bits:
            assert g not in K.face_bits
            rest = g
            while rest:
                low = rest & -rest
                assert (g ^ low) in K.face_bits
                rest ^= low


class TestAlexanderDual:
    def test_single_generator(self):
        I = ideal(2, 0b11)
        assert alexander_dual(I).to_lists() == [[1], [2]]

    def test_zero_ideal_flagged(self):
        I = MonomialIdeal(3, frozenset())
        with pytest.warns(DegenerateDualWarning):
            out = alexander_dual(I)
        assert out.is_zero

    def test_matches_dual_complex_route(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        assert sr_ideal(dual_complex(K)) == alexander_dual(sr_ideal(K))

    def test_double_dual(self):
        for K in enumerate_complexes(3):
            if K.is_void or len(K.face_bits) == 8:
                continue
            I = sr_ideal(K)
            assert alexander_dual(alexander_dual(I)) == I

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_duality_consistency_exhaustive(self, n):
        full = 1 << n
        for K in enumerate_complexes(n):
            if K.is_void or len(K.face_bits) == full:
                continue
            assert sr_ideal(dual_complex(K)) == alexander_dual(sr_ideal(K))

    def test_hitting_set_oracle(self):
        I = ideal(4, 0b0011, 0b1100)
        # oracle: transversals of {1,2} and {3,4} are the four mixed pairs
        D = alexander_dual(I)
        assert D.to_lists() == [[1, 3], [1, 4], [2, 3], [2, 4]]


def _wide_codes(count: int, seed: int) -> list[NeuralCode]:
    """Seeded codes of a few sparse words on up to 64 neurons."""
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n = rng.randint(10, 64)
        words = {sum(1 << i for i in rng.sample(range(n), rng.randint(1, 8)))
                 for _ in range(rng.randint(1, 12))}
        codes.append(NeuralCode(n, words))
    return codes


class TestDualIdeal:
    """``dual_ideal`` reads the Alexander dual of the Stanley-Reisner ideal
    off the facets; the transversal route is its oracle wherever that ideal
    is nonzero."""

    def test_matches_the_transversal_route_up_to_n4(self):
        checked = 0
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if K.is_void or sr_ideal(K).is_zero:
                    continue
                assert dual_ideal(K) == alexander_dual(sr_ideal(K)), K
                checked += 1
        assert checked == 189

    def test_matches_the_transversal_route_on_wide_codes(self, capsys):
        for c in _wide_codes(12, seed=2525):
            K = code_complex(c)
            expected = alexander_dual(sr_ideal(K))
            assert dual_ideal(K) == expected, K
            words = ",".join(binaries(c.masks, c.n))
            assert main(["dual", "--n", str(c.n), "--form", "binary", "--code", words]) == 0
            assert json.loads(capsys.readouterr().out)["dual_ideal"] == expected.to_lists()

    def test_full_simplex_gives_the_unit_ideal(self, capsys):
        # the ideal of the void dual; the CLI prints the zero ideal's [] for it
        assert dual_ideal(full_simplex(3)).to_lists() == [[]]
        assert main(["dual", "--n", "3", "--code", "123"]) == 0
        assert json.loads(capsys.readouterr().out)["dual_ideal"] == []

    def test_void_complex_rejected(self):
        with pytest.raises(VoidComplex):
            dual_ideal(SimplicialComplex(2, frozenset()))


class TestContainment:
    def test_divisibility(self):
        assert ideal_contains(ideal(3, 0b011), ideal(3, 0b111))
        assert not ideal_contains(ideal(3, 0b011), ideal(3, 0b100))

    def test_zero_padding(self):
        narrow = ideal(2, 0b11)
        wide = ideal(4, 0b0011)
        assert ideal_contains(wide, narrow)
        assert ideal_contains(narrow, wide)

    def test_zero_ideal_edges(self):
        assert ideal_contains(ideal(2, 0b01), MonomialIdeal(2, frozenset()))
        assert not ideal_contains(MonomialIdeal(2, frozenset()), ideal(2, 0b01))


class TestPermutedIdeals:
    def test_symmetric_generator(self):
        I = ideal(2, 0b11)
        assert permute_ideal(I, (2, 1)) == I

    def test_three_cycle(self):
        # x1*x3 relabelled through 1→2, 2→3, 3→1 becomes x2*x1
        I = ideal(3, 0b101)
        out = permute_ideal(I, (2, 3, 1))
        assert out.to_lists() == [[1, 2]]

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutation):
            permute_ideal(ideal(2, 0b01), (1, 1))

    def test_dual_ideal_tracks_code_permutation(self):
        # position i of the permuted word reads coordinate γ(i), so faces map
        # through γ⁻¹ as sets and the dual ideal relabels through γ⁻¹ too
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(2, 5)
            masks = [m for m in range(1, 1 << n) if rng.random() < 0.4]
            c = NeuralCode(n, masks)
            K = code_complex(c)
            if K.is_void or len(K.face_bits) == 1 << n:
                continue
            gamma = tuple(rng.sample(range(1, n + 1), n))
            c2 = map_code(Permute(gamma), c)
            K2 = code_complex(c2)
            relabelled = permute_ideal(
                alexander_dual(sr_ideal(K)), invert_permutation(gamma)
            )
            assert relabelled == alexander_dual(sr_ideal(K2))
            # and the forward relabelling recovers the original from the image
            back = permute_ideal(alexander_dual(sr_ideal(K2)), gamma)
            assert back == alexander_dual(sr_ideal(K))


class TestMaskPermuter:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_the_bit_loop_over_all_of_s_n(self, n):
        masks = range(1 << n)
        for gamma in itertools.permutations(range(1, n + 1)):
            permute = mask_permuter(gamma)
            assert [permute(m) for m in masks] == [permute_mask(m, gamma) for m in masks]

    def test_matches_the_bit_loop_on_seeded_wide_permutations(self):
        rng = random.Random(28)
        for n in range(6, 65):
            for _ in range(3):
                gamma = tuple(rng.sample(range(1, n + 1), n))
                permute = mask_permuter(gamma)
                masks = [0, (1 << n) - 1, *(1 << i for i in range(n)),
                         *(rng.getrandbits(n) for _ in range(100))]
                assert [permute(m) for m in masks] == [permute_mask(m, gamma) for m in masks]


class TestMapContainments:
    def _random_codes(self, seed, count, lo=1, hi=5):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            n = rng.randint(lo, hi)
            masks = [m for m in range(1, 1 << n) if rng.random() < 0.4]
            if masks:
                out.append(NeuralCode(n, masks))
        return out

    def test_add_trivial_on_grows_sr_ideal(self):
        for c in self._random_codes(7, 40):
            I1 = sr_ideal(code_complex(c))
            I2 = sr_ideal(code_complex(map_code(AddTrivialOn(), c)))
            assert ideal_contains(I2, I1)

    def test_duplicate_grows_sr_ideal(self):
        for c in self._random_codes(19, 40):
            I1 = sr_ideal(code_complex(c))
            I2 = sr_ideal(code_complex(map_code(Duplicate(1), c)))
            assert ideal_contains(I2, I1)

    def test_add_trivial_off_primal_generators(self):
        # appending an always-off neuron adds exactly the new variable
        for c in self._random_codes(23, 40):
            K = code_complex(c)
            K2 = code_complex(map_code(AddTrivialOff(), c))
            got = sr_ideal(K2).gen_bits
            expected = frozenset(sr_ideal(K).gen_bits) | {1 << c.n}
            assert got == expected

    def test_add_trivial_off_dual_generators(self):
        # every dual generator picks up the new variable as a factor
        for c in self._random_codes(29, 40):
            K = code_complex(c)
            K2 = code_complex(map_code(AddTrivialOff(), c))
            new_bit = 1 << c.n
            I1 = sr_ideal(K)
            if I1.is_zero:
                expected = frozenset({new_bit})
            else:
                expected = frozenset(g | new_bit for g in alexander_dual(I1).gen_bits)
            assert alexander_dual(sr_ideal(K2)).gen_bits == expected

    def test_projection_reembedding_ideal_containment(self):
        # project a neuron away, then re-embed with an off neuron in its
        # place: every face survives in the original complex, so the original
        # ideal sits inside the re-embedded one
        for c in self._random_codes(31, 40, lo=2):
            n = c.n
            projected = map_code(Project(n), c)
            reembedded = map_code(AddTrivialOff(), projected)
            I = sr_ideal(code_complex(c))
            I2 = sr_ideal(code_complex(reembedded))
            assert ideal_contains(I2, I)

    def test_projection_reembedding_reverse_fails_sometimes(self):
        # counterexample: two disjoint points; deleting neuron 2 merges them
        c = code(["1", "2"], 2)
        projected = map_code(Project(2), c)
        reembedded = map_code(AddTrivialOff(), projected)
        I = sr_ideal(code_complex(c))
        I2 = sr_ideal(code_complex(reembedded))
        assert ideal_contains(I2, I)
        assert not ideal_contains(I, I2)
