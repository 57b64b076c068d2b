import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from obstrukt import (
    AddTrivialOff,
    AddTrivialOn,
    Codeword,
    Duplicate,
    Field,
    Include,
    NeuralCode,
    Outcome,
    Permute,
    Project,
    SimplicialComplex,
    code_complex,
    image_complex,
    link,
    map_code,
    mandatory_partition,
    mandatory_set,
    random_code,
    reduced_homology,
    verify_add_trivial_off,
    verify_add_trivial_on,
    verify_duplicate,
    verify_permutation,
    verify_projection,
)
from obstrukt import codemaps
from obstrukt.codemaps import THEOREMS, resolve_step
from obstrukt.complexes import maximal_masks
from obstrukt.errors import NeuronOutOfRange, NotAPermutation, NotInDomain, WidthMismatch
from obstrukt.suites import exhaustive_codes

from conftest import (code, embed_mask, enumerate_complexes, ref_dominated, ref_link_law_failures,
                      w)


def rand_codes(seed, count, lo=1, hi=5, density=0.4, allow_empty_word=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(lo, hi)
        masks = [m for m in range(1, 1 << n) if rng.random() < density]
        if allow_empty_word and rng.random() < 0.3:
            masks.append(0)
        if masks:
            out.append(NeuralCode(n, masks))
    return out


def apply_step(step, cw):
    """The image of one codeword, read from the image of its one-word code."""
    (image,) = map_code(step, NeuralCode(cw.n, {cw.bits})).words
    return image


def map_faces(step, K):
    """Image of a complex's face set; not downward closed in general."""
    r = resolve_step(step, K.n)
    return frozenset(Codeword(r.f(m), r.out_n) for m in K.face_bits)


def map_chain(c, steps):
    """The image of a code under a composition of elementary maps."""
    for step in steps:
        c = map_code(step, c)
    return c


class TestApply:
    def test_projection_worked_example(self):
        c = code(["123", "24", "2"], 4)
        image = map_code(Project(4), c)
        assert image == code(["123", "2"], 3)

    def test_add_on_appends_firing_neuron(self):
        cw = w("12", 3)
        assert apply_step(AddTrivialOn(), cw).binary() == "1101"

    def test_add_off_appends_silent_neuron(self):
        cw = w("12", 3)
        assert apply_step(AddTrivialOff(), cw).binary() == "1100"

    def test_duplicate_copies_source_coordinate(self):
        c = NeuralCode(2, [0b01, 0b10])
        image = map_code(Duplicate(1), c)
        assert {cw.binary() for cw in image.words} == {"101", "010"}

    def test_permute_reads_gamma_positions(self):
        # γ = (2,3,1): position i of the image reads coordinate γ(i)
        cw = w("2", 3)
        out = apply_step(Permute((2, 3, 1)), cw)
        assert out.binary() == "100"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_permute_bit_i_is_bit_gamma_i_for_all_of_s_n(self, n):
        for gamma in itertools.permutations(range(1, n + 1)):
            f = resolve_step(Permute(gamma), n).f
            for m in range(1 << n):
                image = f(m)
                assert all(image >> i & 1 == m >> (g - 1) & 1 for i, g in enumerate(gamma))

    def test_include_identity_and_domain_check(self):
        target = code(["1", "12"], 2)
        assert apply_step(Include(target), w("1", 2)) == w("1", 2)
        with pytest.raises(NotInDomain):
            apply_step(Include(target), w("2", 2))

    def test_projection_width_guard(self):
        with pytest.raises(WidthMismatch):
            map_code(Project(1), code(["1"], 1))

    def test_bad_indices(self):
        with pytest.raises(NeuronOutOfRange):
            map_code(Duplicate(4), code(["1"], 2))
        with pytest.raises(NeuronOutOfRange):
            map_code(Project(5), code(["12"], 2))


class TestComplexExtension:
    def test_every_theorem_map_maps_complex_exactly(self):
        # the verifier builds K2 as image_complex(step, K); it must be the
        # complex of the image code for every code with n <= 3 and every map
        # a theorem checks, and for one wider code under a permutation
        c = code(["24", "35", "45", "123"], 6)
        gamma = (3, 1, 2, 6, 5, 4)
        K2 = code_complex(map_code(Permute(gamma), c))
        assert image_complex(Permute(gamma), code_complex(c)) == K2
        for n in (1, 2, 3):
            steps = [Permute(g) for g in itertools.permutations(range(1, n + 1))]
            steps += [AddTrivialOn(), AddTrivialOff()]
            steps += [Duplicate(s) for s in range(1, n + 1)]
            steps += [Project(d) for d in range(1, n + 1) if n >= 2]
            for c in exhaustive_codes(n):
                K = code_complex(c)
                for step in steps:
                    assert image_complex(step, K) == code_complex(map_code(step, c)), (c, step)

    def test_add_on_image_generates_target_complex(self):
        c = code(["24", "35", "45", "123"], 6)
        K = code_complex(c)
        faces = map_faces(AddTrivialOn(), K)
        closed = SimplicialComplex.from_masks((f.bits for f in faces), 7)
        assert closed == code_complex(map_code(AddTrivialOn(), c))

    def test_duplicate_image_generates_target_complex(self):
        c = code(["24", "35", "45", "123"], 6)
        K = code_complex(c)
        faces = map_faces(Duplicate(1), K)
        closed = SimplicialComplex.from_masks((f.bits for f in faces), 7)
        assert closed == code_complex(map_code(Duplicate(1), c))

    def test_add_on_image_is_not_downward_closed(self):
        K = code_complex(code(["12"], 2))
        faces = map_faces(AddTrivialOn(), K)
        masks = {f.bits for f in faces}
        assert 0 not in masks  # every image face fires the new neuron

    def test_projection_image_is_already_closed(self):
        for c in rand_codes(11, 25, lo=2):
            K = code_complex(c)
            step = Project(c.n)
            faces = {f.bits for f in map_faces(step, K)}
            K2 = code_complex(map_code(step, c))
            assert faces == K2.face_bits


def ref_closure(masks):
    """Downward closure of a mask collection, by brute force."""
    out = set()
    for m in masks:
        out.update(x for x in range(m + 1) if x & ~m == 0)
    return out


def two_case_formula(step, sigma, lk1, lk2):
    """A face holding the source keeps its link; any other's link maps across."""
    if sigma.bits >> (step.source - 1) & 1:
        return lk2 == SimplicialComplex(lk2.n, lk1.facet_bits)
    return lk2 == image_complex(step, lk1)


class TestLinkLemmas:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_duplicate_law_is_the_two_case_formula(self, n):
        """The duplicate row's link law agrees with the two-case formula on
        every (complex, source, face), on the matching link and on three
        mismatched ones: the whole image complex, the widened link and the
        image of the link."""
        law = dict(THEOREMS["duplicate"].links)["link_two_case_formula"]
        triples = 0
        for K in enumerate_complexes(n):
            for source in range(1, n + 1):
                step = Duplicate(source)
                r = resolve_step(step, n)
                K2 = image_complex(step, K)
                for m in sorted(K.face_bits):
                    sigma = Codeword(m, n)
                    lk1 = link(K, sigma)
                    lk2 = link(K2, apply_step(step, sigma))
                    assert law(r.f, lk1.facet_bits, lk2.facet_bits, 0, 0, Field.GF2)
                    widened = SimplicialComplex(n + 1, lk1.facet_bits)
                    for other in (lk2, K2, widened, image_complex(step, lk1)):
                        assert law(r.f, lk1.facet_bits, other.facet_bits, 0, 0, Field.GF2) == (
                            two_case_formula(step, sigma, lk1, other))
                    triples += 1
        assert triples == {1: 3, 2: 24, 3: 240, 4: 5376}[n]  # 5,643 in all

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    def test_duplicate_homology_law_compares_reduced_homology(self, fld):
        """On every pair of nonvoid complexes with n ≤ 3, equal facet sets
        included, the duplicate row's homology law answers as comparing the
        plain ranks of the two: given as the facets over ∅, and as the
        facets over the apexes 4 and 5 of cones over the two, which the law
        takes away."""
        law = dict(THEOREMS["duplicate"].links)["link_homology_preserved"]
        f = resolve_step(Duplicate(1), 3).f
        cases = [SimplicialComplex(3, K.facet_bits)
                 for n in range(1, 4) for K in enumerate_complexes(n) if not K.is_void]
        for A, B in itertools.product(cases, repeat=2):
            expected = reduced_homology(A, fld) == reduced_homology(B, fld)
            assert law(f, A.facet_bits, B.facet_bits, 0, 0, fld) == expected, (A, B)
            coned = [g | 0b1000 for g in A.facet_bits], [g | 0b10000 for g in B.facet_bits]
            assert law(f, *coned, 0b1000, 0b10000, fld) == expected, (A, B)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projection_law_is_the_closed_image_of_the_link(self, n):
        """The projection row's link law agrees with the closure of the
        projected link's face set on every (complex, delete, face of the
        image), on the matching link and on the whole image complex.  Plain
        equality of the images with the target link fails on a matching
        link."""
        law = dict(THEOREMS["projection"].links)["link_image_formula"]

        def unreduced(r, lk1, lk2, fld):
            return frozenset(map(r.f, lk1)) == lk2

        triples = unreduced_failures = 0
        for K in enumerate_complexes(n):
            for delete in range(1, n + 1):
                step = Project(delete)
                r = resolve_step(step, n)
                K2 = image_complex(step, K)
                for m2 in sorted(K2.face_bits):
                    lk1 = link(K, Codeword(embed_mask(m2, delete), n))
                    lk2 = link(K2, Codeword(m2, n - 1))
                    closed = ref_closure(map(r.f, lk1.face_bits))
                    assert law(r.f, lk1.facet_bits, lk2.facet_bits, 0, 0, Field.GF2)
                    for other in (lk2, K2):
                        assert law(r.f, lk1.facet_bits, other.facet_bits, 0, 0, Field.GF2) == (
                            closed == other.face_bits)
                    unreduced_failures += not unreduced(r, lk1.facet_bits, lk2.facet_bits,
                                                        Field.GF2)
                    triples += 1
        assert triples == {2: 16, 3: 159, 4: 3532}[n]  # 3,707 in all
        assert unreduced_failures > 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_projection_law_subset_check_is_the_maximal_masks_comparison(self, data):
        """On random antichains lk2 up to width 12 and image sets built around
        them (some members of lk2, masks under them, random masks), the law's
        check, lk2 ⊆ images with every other image under a member of lk2,
        answers as comparing ``maximal_masks(images)`` with lk2.  An
        identity step makes the images the given masks."""
        law = dict(THEOREMS["projection"].links)["link_image_formula"]
        width = data.draw(st.integers(1, 12))
        masks = st.integers(0, (1 << width) - 1)
        lk2 = maximal_masks(data.draw(st.lists(masks, min_size=1, max_size=8)))
        members = data.draw(st.lists(st.sampled_from(sorted(lk2)), max_size=len(lk2) + 2))
        if data.draw(st.booleans()):
            members += sorted(lk2)
        under = [m & data.draw(masks) for m in members]
        images = frozenset(members + under + data.draw(st.lists(masks, max_size=2)))
        identity = resolve_step(AddTrivialOff(), width).f
        assert law(identity, images, lk2, 0, 0, Field.GF2) == (maximal_masks(images) == lk2)

    def test_add_on_preserves_links_verbatim(self):
        for c in rand_codes(13, 25):
            K = code_complex(c)
            K2 = code_complex(map_code(AddTrivialOn(), c))
            for m in K.face_bits:
                sigma = Codeword(m, c.n)
                q_sigma = Codeword(m | (1 << c.n), c.n + 1)
                assert link(K2, q_sigma).face_bits == link(K, sigma).face_bits

    def test_projection_zero_extension_everywhere(self):
        # every face of the image complex lifts by an off coordinate
        for c in rand_codes(17, 25, lo=2):
            n = c.n
            K = code_complex(c)
            K2 = code_complex(map_code(Project(n), c))
            for m2 in K2.face_bits:
                assert embed_mask(m2, n) in K.face_bits

    def test_projection_link_image_shrinks_link(self):
        for c in rand_codes(19, 25, lo=2):
            n = c.n
            K = code_complex(c)
            project = resolve_step(Project(n), n).f
            for m2 in code_complex(map_code(Project(n), c)).face_bits:
                lifted = Codeword(embed_mask(m2, n), n)
                lk = link(K, lifted)
                image_back = {embed_mask(project(x), n) for x in lk.face_bits}
                assert image_back <= lk.face_bits

    def test_projection_closed_star_matches_upper_link(self):
        # when σ'1 is a face, the closed star of the last vertex inside the
        # link of σ'0 projects onto the link of σ'1
        for c in rand_codes(23, 30, lo=2):
            n = c.n
            K = code_complex(c)
            vbit = 1 << (n - 1)
            for m2 in code_complex(map_code(Project(n), c)).face_bits:
                low = embed_mask(m2, n)
                high = low | vbit
                if high not in K.face_bits:
                    continue
                lk_low = link(K, Codeword(low, n))
                # the closed star of the vertex: the facets that hold it
                starred = SimplicialComplex(n, frozenset(f for f in lk_low.facet_bits if f & vbit))
                project = resolve_step(Project(n), n).f
                lhs = set(map(project, starred.face_bits))
                rhs = set(map(project, link(K, Codeword(high, n)).face_bits))
                assert lhs == rhs

    def test_projection_builds_no_complex_per_face(self, monkeypatch):
        """With both partitions warm, one projection check on an n = 8 code
        constructs the code's complex and its image and nothing per face: the
        link laws read every face's link from the facets-over index."""
        c = random_code(8, 4)
        K = code_complex(c)
        images = [image_complex(Project(delete), K) for delete in range(1, 9)]
        for warm in [K] + images:
            mandatory_partition(warm, Field.GF2)
        built = []
        checked, trusted = SimplicialComplex.__init__, SimplicialComplex.trusted.__func__

        def counting(self, n, facets):
            built.append(self)
            checked(self, n, facets)

        def counting_trusted(cls, n, facets):
            built.append(trusted(cls, n, facets))
            return built[-1]

        # every construction, checked or trusted, is counted once
        monkeypatch.setattr(SimplicialComplex, "__init__", counting)
        monkeypatch.setattr(SimplicialComplex, "trusted", classmethod(counting_trusted))
        report = verify_projection(c, 5)
        assert built == [K, images[4]]
        laws = [ch for ch in report.checks if ch.name == "link_image_formula"]
        assert [ch.outcome for ch in laws] == [Outcome.HOLDS]
        assert len(K.facet_bits) == 11 and len(images[4].face_bits) > 100

    # Maps of each theorem row on n neurons, by row name.
    ROW_STEPS = {
        "permutation": lambda n: [Permute(g) for g in itertools.permutations(range(1, n + 1))],
        "add_trivial_on": lambda n: [AddTrivialOn()],
        "add_trivial_off": lambda n: [AddTrivialOff()],
        "duplicate": lambda n: [Duplicate(s) for s in range(1, n + 1)],
        "projection": lambda n: [Project(d) for d in range(1, n + 1)] if n > 1 else [],
    }

    def test_every_row_with_link_laws_maps_coordinates(self):
        """``_verify`` reads the image of the link of σ as f(F) ∖ f(σ) over
        the facets F holding σ, which is exact only when f(A ∖ B) is
        f(A) ∖ f(B) for all masks: the map acts coordinate by coordinate."""
        assert set(self.ROW_STEPS) == set(THEOREMS)
        rows = [name for name, spec in THEOREMS.items() if spec.links]
        assert {"duplicate", "projection"} <= set(rows)
        for name in rows:
            for n in range(1, 5):
                for step in self.ROW_STEPS[name](n):
                    f = resolve_step(step, n).f
                    for a in range(1 << n):
                        for b in range(1 << n):
                            assert f(a & ~b) == f(a) & ~f(b), (name, step, a, b)

    @staticmethod
    def _corrupted(K2):
        """K2 with each facet dropped in turn, then with each facet replaced
        by its boundary, which adds facet intersections; none is void."""
        facets = K2.facet_bits
        for F in sorted(facets):
            rest = facets - {F}
            for kept in (rest, rest | {F & ~(1 << i) for i in range(K2.n) if F >> i & 1}):
                if kept:
                    yield SimplicialComplex.from_masks(kept, K2.n)

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    @pytest.mark.parametrize("theorem", ["duplicate", "projection"])
    def test_verify_fails_the_faces_the_laws_fail(self, theorem, fld, monkeypatch):
        """The failure list of each link check equals the face-by-face
        reference (``ref_link_law_failures``), which calls each law on the
        facets over every face pair: on every code with n ≤ 3 and on seeded
        codes up to n = 8, with K2 as built and corrupted through
        ``ResolvedStep.image``, so that the laws fail somewhere."""
        spec = THEOREMS[theorem]
        codes = [c for n in range(1, 4) for c in exhaustive_codes(n) if c.masks]
        codes += rand_codes(37, 12, lo=4, hi=8, density=0.15)
        instances = failing = 0
        for c in codes:
            K = code_complex(c)
            for step in self.ROW_STEPS[theorem](c.n):
                K2 = image_complex(step, K)
                for corrupt in [K2, *self._corrupted(K2)]:
                    monkeypatch.setattr(codemaps.ResolvedStep, "image", lambda r, K: corrupt)
                    report = codemaps._verify(theorem, c, K, step, fld)
                    monkeypatch.undo()
                    expected = ref_link_law_failures(theorem, K, step, corrupt, fld)
                    for name, _ in spec.links:
                        (check,) = [ch for ch in report.checks if ch.name == name]
                        assert list(check.lhs) == expected[name], (c, step, corrupt, name)
                        assert (check.outcome is Outcome.HOLDS) == (not expected[name])
                        failing += bool(expected[name])
                    instances += 1
        assert instances > 1000 and failing > 100

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    def test_duplicate_row_agrees_with_the_face_by_face_reference(self, fld):
        """With K2 as built, the duplicate row's link checks equal the
        face-by-face reference for every source: on every complex with
        n ≤ 4, each given as the code of its facets (a code's checks read
        only its complex), and on seeded codes with n = 5..8."""
        codes = [NeuralCode(K.n, K.facet_bits)
                 for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
        codes += rand_codes(41, 12, lo=5, hi=8, density=0.15)
        names = [name for name, _ in THEOREMS["duplicate"].links]
        for c in codes:
            K = code_complex(c)
            for source in range(1, c.n + 1):
                step = Duplicate(source)
                report = codemaps._verify("duplicate", c, K, step, fld)
                expected = ref_link_law_failures("duplicate", K, step, image_complex(step, K), fld)
                checks = {ch.name: ch for ch in report.checks}
                assert {name: list(checks[name].lhs) for name in names} == expected, (c, step)
                assert all(checks[name].outcome is Outcome.HOLDS for name in names)

    def test_duplicate_certificate_needs_both_checks(self):
        """The homology law names no face when the facet images are K2's
        facets and the step duplicates a vertex; with K2 corrupted, or with
        a step that moves two vertices, it names the lattice faces."""
        K = code_complex(code(["123", "24", "2"], 4))
        lattice = mandatory_partition(K, Field.GF2).lattice

        def suspects(step, K2):
            r = resolve_step(step, K.n)
            pairs = codemaps._LinkPairs(r, K, K2, (lattice, mandatory_partition(K2, Field.GF2)
                                                   .lattice), False)
            return codemaps._lattice_faces(pairs)

        K2 = image_complex(Duplicate(2), K)
        assert suspects(Duplicate(2), K2) == set()
        for corrupt in self._corrupted(K2):
            assert suspects(Duplicate(2), corrupt) >= lattice
        swap = Permute((2, 1, 3, 4))
        assert suspects(swap, image_complex(swap, K)) >= lattice

    def test_sampled_duplicates_call_the_homology_law_at_no_pair(self, monkeypatch, capsys):
        """On sampled n = 8 ops with cold memos every duplicate instance
        passes the certificate, so the homology law is called at no face
        pair; deciding each lattice pair instead calls it 233 times on
        these three ops."""
        from obstrukt import collapse
        from obstrukt.cli import main

        (name, law), rest = THEOREMS["duplicate"].links[0], THEOREMS["duplicate"].links[1:]
        calls, rows = [], []
        counted = codemaps.LinkLaw(lambda *args: calls.append(1) or law(*args),
                                   lambda pairs: rows.append(1) or law.suspects(pairs))
        monkeypatch.setitem(THEOREMS, "duplicate",
                            THEOREMS["duplicate"]._replace(links=((name, counted), *rest)))
        for seed in (11, 12, 13):
            for memo in (mandatory_partition, reduced_homology, collapse._packed_profile):
                memo.cache_clear()
            assert main(["verify", "--n", "8", "--samples", "1", "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert len(rows) >= 3 and calls == []

    def test_duplicate_appended_vertex_dominated(self):
        for c in rand_codes(29, 25):
            n = c.n
            if not any(cw.bits & 1 for cw in c.words):
                continue
            K2 = code_complex(map_code(Duplicate(1), c))
            assert (n + 1, 1) in ref_dominated(K2.face_bits, K2.n)

    @pytest.mark.parametrize("step_factory", [AddTrivialOn, lambda: Duplicate(1)])
    def test_image_mandatory_faces_come_from_image(self, step_factory):
        # the mandatory faces of the widened complex all lie in the raw image
        for c in rand_codes(53, 25):
            step = step_factory()
            K = code_complex(c)
            K2 = code_complex(map_code(step, c))
            mh2 = mandatory_set(K2, Field.GF2).faces
            assert mh2 <= map_faces(step, K)


class TestGeneralizedPositions:
    def test_duplicate_any_source_matches_conjugated_first_position(self):
        for c in rand_codes(31, 25, lo=2):
            n = c.n
            rng = random.Random(c.n * 7919 + len(c.words))
            s = rng.randint(1, n)
            direct = map_code(Duplicate(s), c)
            swap_n = tuple(s if i == 1 else 1 if i == s else i for i in range(1, n + 1))
            swap_wide = tuple(s if i == 1 else 1 if i == s else i for i in range(1, n + 2))
            routed = map_code(
                Permute(swap_wide), map_code(Duplicate(1), map_code(Permute(swap_n), c))
            )
            assert direct == routed

    def test_project_any_slot_matches_moved_last_position(self):
        for c in rand_codes(37, 25, lo=2):
            n = c.n
            rng = random.Random(c.n * 104729 + len(c.words))
            d = rng.randint(1, n)
            direct = map_code(Project(d), c)
            # rotate coordinate d to the end, then drop the last coordinate
            gamma = tuple(list(range(1, d)) + list(range(d + 1, n + 1)) + [d])
            routed = map_code(Project(n), map_code(Permute(gamma), c))
            assert direct == routed


class TestCodeMap:
    def test_width_chaining(self):
        image = map_chain(code(["12"], 2), (AddTrivialOn(), Project(3), AddTrivialOff()))
        assert image.n == 3
        assert {cw.binary() for cw in image.words} == {"110"}

    def test_invalid_chain_rejected(self):
        c = code(["12"], 2)
        with pytest.raises(NeuronOutOfRange):
            map_chain(c, (Project(3),))

    def test_image_code(self):
        # duplicating 2 gives {100, 011}; position i then reads coordinate 4 - i
        image = map_chain(code(["1", "2"], 2), (Duplicate(2), Permute((3, 2, 1))))
        assert {cw.binary() for cw in image.words} == {"001", "110"}

    def test_include_needs_contained_code(self):
        small = code(["1"], 2)
        big = code(["1", "12"], 2)
        assert map_chain(small, (Include(big),)) == small
        with pytest.raises(NotInDomain):
            map_chain(big, (Include(small),))
        # the first missing word in printed order is named
        with pytest.raises(NotInDomain, match=r"Codeword\('0001'\)"):
            map_code(Include(code(["∅"], 4)), code(["4", "3", "34", "1"], 4))

    def test_isomorphism_compositions_preserve_mandatory_set(self):
        rng = random.Random(99)
        for c in rand_codes(41, 15, lo=2, hi=4, allow_empty_word=True):
            steps = []
            width = c.n
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["permute", "on", "off", "dup"])
                if kind == "permute":
                    steps.append(Permute(tuple(rng.sample(range(1, width + 1), width))))
                elif kind == "on":
                    steps.append(AddTrivialOn())
                    width += 1
                elif kind == "off":
                    steps.append(AddTrivialOff())
                    width += 1
                else:
                    steps.append(Duplicate(rng.randint(1, width)))
                    width += 1
            K = code_complex(c)
            K2 = code_complex(map_chain(c, steps))
            mh1 = mandatory_set(K, Field.GF2).faces
            mh2 = mandatory_set(K2, Field.GF2).faces
            images = set()
            for s in mh1:
                for step in steps:
                    s = apply_step(step, s)
                images.add(s)
            assert images == mh2


class TestVerifyPermutation:
    def test_small_example(self):
        report = verify_permutation(code(["1", "12"], 2), (2, 1))
        assert report.verdict is Outcome.HOLDS

    def test_exhaustive_s4_on_pendant_code(self):
        c = code(["123", "24", "2"], 4)
        for gamma in itertools.permutations(range(1, 5)):
            assert verify_permutation(c, gamma).verdict is Outcome.HOLDS

    def test_identity(self):
        c = code(["123", "24", "2"], 4)
        report = verify_permutation(c, (1, 2, 3, 4))
        assert report.verdict is Outcome.HOLDS

    def test_empty_code_trivial(self):
        report = verify_permutation(NeuralCode(2, frozenset()), (2, 1))
        assert report.verdict is Outcome.HOLDS
        assert dict(report.observations)["empty_code"] is True


class TestVerifyAddTrivialOn:
    def test_contractible_branch(self):
        report = verify_add_trivial_on(code(["12"], 2))
        names = {c.name for c in report.checks}
        assert report.verdict is Outcome.HOLDS
        assert "cmin_nonempty_image_equal" in names

    def test_non_contractible_branch(self):
        report = verify_add_trivial_on(code(["1", "2"], 2))
        names = {c.name for c in report.checks}
        assert report.verdict is Outcome.HOLDS
        assert "cmin_image_strictly_below" in names

    def test_pendant_code(self):
        assert verify_add_trivial_on(code(["123", "24", "2"], 4)).verdict is Outcome.HOLDS


class TestVerifyAddTrivialOff:
    def test_single_facet(self):
        report = verify_add_trivial_off(code(["12"], 2))
        assert report.verdict is Outcome.HOLDS
        # the full simplex has the unit dual ideal, so its image's is <x_3>
        (law,) = [c for c in report.checks if c.name == "dual_ideal_gens_gain_new_variable_factor"]
        assert law.lhs == law.rhs == ("001",)

    def test_pendant_code(self):
        assert verify_add_trivial_off(code(["123", "24", "2"], 4)).verdict is Outcome.HOLDS

    def test_random_codes(self):
        for c in rand_codes(43, 30, allow_empty_word=True):
            assert verify_add_trivial_off(c).verdict is Outcome.HOLDS


class TestVerifyDuplicate:
    def test_two_singletons(self):
        c = NeuralCode(2, [0b01, 0b10])
        assert verify_duplicate(c, 1).verdict is Outcome.HOLDS

    def test_pendant_code(self):
        assert verify_duplicate(code(["123", "24", "2"], 4), 1).verdict is Outcome.HOLDS

    def test_single_word_exercises_firing_branch(self):
        c = code(["1"], 1)
        report = verify_duplicate(c, 1)
        assert report.verdict is Outcome.HOLDS

    def test_every_source(self):
        c = code(["123", "24", "2"], 4)
        for s in range(1, 5):
            assert verify_duplicate(c, s).verdict is Outcome.HOLDS


class TestVerifyProjection:
    def test_counterexample_direction(self):
        report = verify_projection(code(["123", "24", "2"], 4), 4)
        assert report.verdict is Outcome.HOLDS
        assert dict(report.observations)["mh_reverse_containment_holds"] is False

    def test_equality_case(self):
        report = verify_projection(code(["12"], 2), 2)
        assert report.verdict is Outcome.HOLDS
        assert dict(report.observations)["mh_reverse_containment_holds"] is True

    def test_random_containment_never_violated(self):
        for c in rand_codes(47, 30, lo=2, hi=6, allow_empty_word=True):
            for d in range(1, c.n + 1):
                assert verify_projection(c, d).verdict is Outcome.HOLDS


class TestReportShape:
    def test_json_line_fields(self):
        report = verify_projection(code(["123", "24", "2"], 4), 4)
        payload = json.loads(report.to_json_line())
        assert payload["theorem"] == "projection"
        assert payload["map"] == "project(4)"
        assert payload["verdict"] == "holds"
        assert payload["code"] == ["0100", "0101", "1110"]
        assert all(
            set(c) >= {"name", "relation", "lhs", "rhs", "outcome"} for c in payload["checks"]
        )

    def test_verdict_recomputable_from_sets(self):
        report = verify_projection(code(["123", "24", "2"], 4), 4)
        check = next(c for c in report.checks if c.name == "mh_containment")
        assert set(check.lhs) <= set(check.rhs)


@pytest.mark.parametrize("n,verify,error", [
    (3, lambda c: verify_permutation(c, (1, 1, 2)), NotAPermutation),
    (3, lambda c: verify_duplicate(c, 7), NeuronOutOfRange),
    (3, lambda c: verify_projection(c, 9), NeuronOutOfRange),
    (64, verify_add_trivial_on, NeuronOutOfRange),
    (64, verify_add_trivial_off, NeuronOutOfRange),
])
def test_invalid_map_rejected_whatever_the_code(n, verify, error):
    # the step is validated before the shortcut for the empty code
    messages = []
    for masks in ([], [1]):
        with pytest.raises(error) as info:
            verify(NeuralCode(n, masks))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
