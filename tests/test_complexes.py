
import json
import random

import pytest
from hypothesis import given, strategies as st

from obstrukt import (
    Codeword,
    Field,
    NeuralCode,
    SimplicialComplex,
    code_complex,
    complex_to_json_dict,
    dual_complex,
    facet_intersection,
    link,
    mandatory_partition,
    restriction,
    verify_projection,
)
from obstrukt import collapse, homology
from obstrukt.cli import main
from obstrukt.codemaps import ResolvedStep
from obstrukt.codes import binaries
from obstrukt.collapse import _delete_bit
from obstrukt.complexes import face_bound, face_count
from obstrukt.errors import FaceNotInComplex, TooManyFaces, VoidComplex, WidthMismatch
from obstrukt.ideals import MonomialIdeal
from obstrukt.suites import run_exhaustive

from conftest import (code, complexes, cone, cx, enumerate_complexes, face_words, full_simplex,
                      neural_codes, w)


class TestCodeComplex:
    def test_worked_example(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        assert face_words(K) == {
            "e", "1", "2", "3", "4", "5", "12", "13", "23", "24", "35", "45", "123",
        }

    def test_single_facet(self):
        K = code_complex(code(["12"], 2))
        assert face_words(K) == {"e", "1", "2", "12"}

    def test_empty_word_code(self):
        K = code_complex(NeuralCode(3, frozenset({0})))
        assert K.face_bits == frozenset({0})

    def test_empty_code_is_void(self):
        K = code_complex(NeuralCode(3, frozenset()))
        assert K.is_void

    def test_code_contained_in_complex(self):
        c = code(["24", "35", "45", "123"], 6)
        K = code_complex(c)
        assert all(cw in K for cw in c.words)

    @given(neural_codes())
    def test_facets_match_code(self, c):
        from obstrukt import facets

        K = code_complex(c)
        if not K.is_void:
            assert frozenset(K.facet_index()) == facets(c)

    @given(neural_codes(), st.data())
    def test_same_complex_for_codes_between(self, c, data):
        # any D with C ⊆ D ⊆ Δ(C) generates the same complex
        K = code_complex(c)
        extra = data.draw(st.frozensets(st.sampled_from(sorted(K.face_bits)))) if K.face_bits else frozenset()
        D = NeuralCode(c.n, c.masks | extra)
        assert code_complex(D) == K


class TestClosure:
    def test_power_set(self):
        K = SimplicialComplex.from_masks([w("123", 3).bits], 3)
        assert len(K) == 8

    def test_void(self):
        assert SimplicialComplex.from_masks([], 3).is_void

    def test_two_edges(self):
        K = SimplicialComplex.from_masks([w("12", 3).bits, w("23", 3).bits], 3)
        assert face_words(K) == {"e", "1", "2", "3", "12", "23"}

    def test_constructor_rejects_unclosed(self):
        # the stored facets must form an antichain: 01 lies inside 11
        with pytest.raises(ValueError):
            SimplicialComplex(2, frozenset({0b01, 0b11}))


class TestLink:
    def test_worked_example(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        L = link(K, w("2", 6))
        assert face_words(L) == {"e", "1", "3", "4", "13"}

    def test_facet_link_is_empty_face_only(self):
        K = code_complex(code(["123"], 3))
        L = link(K, w("123", 3))
        assert L.face_bits == frozenset({0})
        assert not L.is_void

    def test_link_of_empty_face_is_identity(self):
        K = cx(["12", "23"], 3)
        assert link(K, Codeword.empty(3)) == K

    def test_not_a_face(self):
        K = cx(["12"], 3)
        with pytest.raises(FaceNotInComplex):
            link(K, w("3", 3))

    @given(complexes(), st.data())
    def test_link_faces_disjoint_and_inside(self, K, data):
        sigma_bits = data.draw(st.sampled_from(sorted(K.face_bits)))
        sigma = Codeword(sigma_bits, K.n)
        L = link(K, sigma)
        assert L.face_bits <= K.face_bits
        for m in L.face_bits:
            assert m & sigma_bits == 0
            assert (m | sigma_bits) in K.face_bits


class TestRestriction:
    def test_worked_example(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        gam = [w(t, 6) for t in ["35", "45", "123", "6"]]
        R = restriction(K, gam)
        assert face_words(R) == {
            "e", "1", "2", "3", "4", "5", "12", "13", "23", "35", "45", "123",
        }

    def test_single_facet_gives_power_set(self):
        K = cx(["12", "23"], 3)
        R = restriction(K, [w("12", 3)])
        assert face_words(R) == {"e", "1", "2", "12"}

    def test_empty_face_restriction(self):
        K = cx(["12"], 3)
        R = restriction(K, [Codeword.empty(3)])
        assert R.face_bits == frozenset({0})

    @given(complexes())
    def test_restriction_to_facets_is_identity(self, K):
        assert restriction(K, list(K.facet_index())) == K


class TestCone:
    def test_two_points(self):
        K = cx(["1", "2"], 2)
        C = cone(K, 3)
        assert face_words(C) == {"e", "1", "2", "3", "13", "23"}

    def test_on_empty_face_complex(self):
        K = SimplicialComplex(1, frozenset({0}))
        C = cone(K, 1)
        assert face_words(C) == {"e", "1"}

    def test_hollow_triangle_cone(self):
        hollow = cx(["12", "13", "23"], 3)
        C = cone(hollow, 4)
        # oracle: the definition, applied face by face
        expected = set(hollow.face_bits)
        expected.update(m | 0b1000 for m in hollow.face_bits)
        assert C.face_bits == frozenset(expected)
        assert w("124", 4) in C and w("123", 4) not in C

    def test_apex_must_be_new(self):
        with pytest.raises(ValueError):
            cone(cx(["12"], 2), 1)

    @given(complexes(max_n=5))
    def test_link_of_apex_recovers_complex(self, K):
        C = cone(K, K.n + 1)
        apex = Codeword(1 << K.n, K.n + 1)
        assert link(C, apex).face_bits == K.face_bits


class TestFacetIntersection:
    def test_two_facets_meet(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        assert facet_intersection(K, w("2", 6)) == w("2", 6)

    def test_single_containing_facet(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        assert facet_intersection(K, w("1", 6)) == w("123", 6)

    def test_facet_is_fixed(self):
        K = cx(["123", "34"], 4)
        assert facet_intersection(K, w("123", 4)) == w("123", 4)

    @given(complexes(), st.data())
    def test_contains_and_idempotent(self, K, data):
        sigma = Codeword(data.draw(st.sampled_from(sorted(K.face_bits))), K.n)
        f = facet_intersection(K, sigma)
        assert sigma.bits & ~f.bits == 0
        assert facet_intersection(K, f) == f

    def test_brute_force_oracle(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        for m in K.face_bits:
            sigma = Codeword(m, 6)
            containing = [f.bits for f in K.facet_index() if m & ~f.bits == 0]
            acc = (1 << 6) - 1
            for f in containing:
                acc &= f
            assert facet_intersection(K, sigma).bits == acc


class TestDual:
    def test_small_example_brute_force(self):
        K = cx(["1", "2"], 2)
        # oracle: test all four subsets of {1,2} directly
        expected = set()
        for m in range(4):
            if (0b11 ^ m) not in K.face_bits:
                expected.add(m)
        D = dual_complex(K)
        assert D.face_bits == frozenset(expected) == frozenset({0})

    def test_full_simplex_dualizes_to_void(self):
        assert dual_complex(full_simplex(3)).is_void

    def test_void_dualizes_to_full(self):
        assert dual_complex(SimplicialComplex(3, frozenset())) == full_simplex(3)

    def test_double_dual_worked_example(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        assert dual_complex(dual_complex(K)) == K

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_dual_exhaustive_small(self, n):
        for K in enumerate_complexes(n):
            assert dual_complex(dual_complex(K)) == K


class TestStructure:
    def test_void_versus_empty_face_complex(self):
        void = SimplicialComplex(2, frozenset())
        point_of_nothing = SimplicialComplex(2, frozenset({0}))
        assert void != point_of_nothing
        assert void.is_void and not point_of_nothing.is_void

    def test_dim(self):
        assert cx(["123"], 3).dim == 2
        assert SimplicialComplex(1, frozenset({0})).dim == -1
        with pytest.raises(VoidComplex):
            SimplicialComplex(2, frozenset()).dim

    def test_delete_vertex(self):
        K = cx(["12", "23"], 3)
        kept = _delete_bit(list(K.facet_bits), 0b010)
        assert face_words(SimplicialComplex(3, frozenset(kept))) == {"e", "1", "3"}

    def test_width_checks(self):
        with pytest.raises(WidthMismatch):
            link(cx(["12"], 3), Codeword.empty(2))

    def test_json(self):
        K = code_complex(code(["24", "35", "45", "123"], 6))
        payload = complex_to_json_dict(K)
        assert list(payload) == ["n", "facets"] and payload["n"] == 6
        assert payload["facets"] == sorted(payload["facets"])
        assert set(payload["facets"]) == {"010100", "001010", "000110", "111000"}

    @given(complexes(), st.data())
    def test_operations_stay_downward_closed(self, K, data):
        # the derived face set is closed: rebuilding from it gives the same complex
        sigma = Codeword(data.draw(st.sampled_from(sorted(K.face_bits))), K.n)
        for out in (link(K, sigma), restriction(K, [sigma])):
            assert SimplicialComplex.from_masks(out.face_bits, out.n) == out

    @pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168)])
    def test_enumerate_complexes_counts(self, n, count):
        assert sum(1 for _ in enumerate_complexes(n)) == count


def _cli_link_of_empty_face(K: SimplicialComplex) -> int:
    """Exit status of ``link`` at ∅ on the code of K's facets, which lists
    every face of K."""
    words = ",".join(format(f, f"0{K.n}b")[::-1] for f in K.facet_bits)
    return main(["link", "--n", str(K.n), "--form", "binary", "--code", words, "--sigma", "∅"])


class TestListingBound:
    """Every face listing goes through the kernel's bound.  With
    ``MAX_LISTED_FACES`` at 2^10, each listing reads the simplex on 10
    vertices and refuses the one on 11, naming its face count; a complex
    whose Σ_F 2^|F| exceeds the bound but whose faces do not is listed."""

    TOP = (1 << 10) - 1
    # the three 9-subsets of {1, ..., 10} that miss 1, 2 and 3
    THREE_NINES = SimplicialComplex(10, frozenset({TOP ^ 1, TOP ^ 2, TOP ^ 4}))

    LISTINGS = {
        "face_bits": lambda K: len(K.face_bits),
        "out_masks": lambda K: len(mandatory_partition(K, Field.GF2).out_masks) + 2,
    }

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr("obstrukt.complexes.MAX_LISTED_FACES", 1 << 10)
        mandatory_partition.cache_clear()  # nothing read under the real bound
        yield
        mandatory_partition.cache_clear()

    @pytest.mark.parametrize("listing", sorted(LISTINGS))
    def test_simplex_on_10_is_listed_and_on_11_refused(self, listing):
        read = self.LISTINGS[listing]
        assert read(full_simplex(10)) == 1 << 10  # out_masks: all but ∅ and the facet
        with pytest.raises(TooManyFaces, match="; the complex has 2048$"):
            read(full_simplex(11))

    def test_link_command_lists_up_to_the_bound(self, capsys):
        assert _cli_link_of_empty_face(full_simplex(10)) == 0
        assert len(json.loads(capsys.readouterr().out)["faces"]) == 1 << 10
        assert _cli_link_of_empty_face(full_simplex(11)) == 2
        out, err = capsys.readouterr()
        assert not out and err.rstrip().endswith("; the complex has 2048")

    def test_link_law_failures_are_listed_up_to_the_bound(self, monkeypatch):
        """A failing image formula lists its faces through the same bound:
        the simplex on n vertices projected onto the boundary of the
        simplex on n - 1, every face of which fails, is listed at n = 11
        and refused at n = 12."""
        for n in (11, 12):
            top = (1 << n - 1) - 1
            boundary = SimplicialComplex(n - 1, frozenset(top ^ 1 << i for i in range(n - 1)))
            monkeypatch.setattr(ResolvedStep, "image", lambda r, K: boundary)
            code = NeuralCode(n, [(1 << n) - 1])
            if n == 11:
                (check,) = [ch for ch in verify_projection(code, 1).checks
                            if ch.name == "link_image_formula"]
                assert len(check.lhs) == (1 << 10) - 1
            else:
                with pytest.raises(TooManyFaces, match="; the complex has 2047$"):
                    verify_projection(code, 1)

    def test_exact_count_decides_past_the_bound(self, capsys):
        K = self.THREE_NINES
        assert face_bound(K.facet_bits) == 1536 and face_count(K.facet_bits) == 896
        assert len(K.face_bits) == 896
        part = mandatory_partition(K, Field.GF2)
        assert len(part.out_masks | part.in_masks | part.unknown_masks) == 896
        assert _cli_link_of_empty_face(K) == 0
        assert len(json.loads(capsys.readouterr().out)["faces"]) == 896


class TestTrustedConstructions:
    """Every complex and ideal the engine builds with no check passes the
    constructor's checks: with ``trusted`` made to validate, whole suites
    and commands run and nothing is rejected."""

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []

        def checked(cls, n, members):
            seen.append(cls)
            return cls(n, members)

        for cls in (SimplicialComplex, MonomialIdeal):
            monkeypatch.setattr(cls, "trusted", classmethod(checked))
        for memo in (mandatory_partition, collapse._packed_profile, homology.reduced_homology):
            memo.cache_clear()
        yield seen
        for memo in (mandatory_partition, collapse._packed_profile, homology.reduced_homology):
            memo.cache_clear()

    @staticmethod
    def wide_codes(seed: int) -> list[NeuralCode]:
        rng = random.Random(seed)
        return [NeuralCode(n, [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                               for _ in range(words)])
                for n, words in ((10, 12), (16, 9), (24, 8), (40, 6), (64, 5))]

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    def test_exhaustive_suites(self, validated, fld):
        for n in (1, 2, 3):
            assert run_exhaustive(n, fld).ok
        assert {SimplicialComplex, MonomialIdeal} <= set(validated)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_sampled_suites(self, validated, capsys, n):
        assert main(["verify", "--n", str(n), "--samples", "2", "--seed", str(n)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 * (5 + n) + 1
        assert SimplicialComplex in validated

    @pytest.mark.parametrize("seed", [1, 2])
    def test_commands_on_wide_codes(self, validated, capsys, seed):
        for c in self.wide_codes(seed):
            words = ",".join(binaries(c.masks, c.n))
            top = max(c.masks, key=int.bit_count)
            sigma = binaries([top & -top], c.n)[0]
            for argv in (["analyze"], ["dual"], ["link", "--sigma", sigma]):
                argv += ["--n", str(c.n), "--form", "binary", "--code", words]
                assert main(argv) == 0, argv
                json.loads(capsys.readouterr().out)
        assert {SimplicialComplex, MonomialIdeal} <= set(validated)

    def test_a_projection_image_left_unreduced_is_rejected(self, validated):
        # the image of the facets 110 and 011 without the fourth neuron
        # holds 11 inside 11, and 10 inside 11 once 0110 and 1000 are mapped
        def unreduced(r, K):
            return SimplicialComplex.trusted(r.out_n, frozenset(map(r.f, K.facet_bits)))

        c = NeuralCode(4, [0b0011, 0b1001, 0b0100])
        assert verify_projection(c, 4).verdict.value == "holds"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ResolvedStep, "image", unreduced)
            with pytest.raises(ValueError, match="lies inside"):
                verify_projection(c, 4)
