import random
from functools import reduce
from operator import and_

import pytest

from obstrukt import (
    AddTrivialOn,
    Codeword,
    Duplicate,
    Field,
    MandatoryPartition,
    NeuralCode,
    Permute,
    Project,
    SimplicialComplex,
    Verdict,
    check_no_local_obstruction,
    code_complex,
    core_homology,
    facet_intersection,
    link,
    mandatory_partition,
    mandatory_set,
    random_code,
    reduced_homology,
    verify,
)
from obstrukt import complexes
from obstrukt.errors import TooManyFaces, VoidComplex

from conftest import (RP2_FACETS, code, cone, cx, enumerate_complexes, full_simplex,
                      ref_contractibility, seeded_complexes, w)

BOTH = (Field.GF2, Field.RATIONAL)


class TestMandatorySet:
    def test_triangle_with_pendant_edge(self):
        # The pendant vertex 2 carries a disconnected link (edge 13 plus the
        # isolated vertex 4), so it is homologically mandatory together with
        # both facets.  Oracle: count link components directly.
        K = code_complex(code(["123", "24", "2"], 4))
        lk2 = link(K, w("2", 4))
        verts = [m for m in lk2.face_bits if m.bit_count() == 1]
        edges = [m for m in lk2.face_bits if m.bit_count() == 2]
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for e in edges:
            a, b = 1 << (e.bit_length() - 1), e ^ (1 << (e.bit_length() - 1))
            parent[find(a)] = find(b)
        components = len({find(v) for v in verts})
        assert components == 2

        got = mandatory_set(K, Field.GF2)
        assert got.binaries() == ["0100", "0101", "1110"]  # {2, 24, 123}

    def test_full_simplex_from_code(self):
        K = code_complex(code(["123", "2"], 3))
        assert mandatory_set(K, Field.GF2).binaries() == ["111"]

    def test_single_edge(self):
        K = code_complex(code(["12"], 2))
        assert mandatory_set(K, Field.GF2).faces == frozenset({w("12", 2)})

    def test_every_facet_is_mandatory(self):
        for K in seeded_complexes(50, seed=3, max_n=6):
            mh = mandatory_set(K, Field.GF2).faces
            assert frozenset(K.facet_index()) <= mh

    def test_empty_face_membership_tracks_global_homology(self):
        for K in seeded_complexes(50, seed=13, max_n=5):
            for field in BOTH:
                mh = mandatory_set(K, field).faces
                has_empty = Codeword.empty(K.n) in mh
                assert has_empty == (not reduced_homology(K, field).is_trivial)

    def test_shortcut_equivalence(self):
        # the cone shortcut skips faces whose link is a cone; computing the
        # homology of every link must give the same set
        for K in seeded_complexes(50, seed=29, max_n=5):
            for field in BOTH:
                fast = mandatory_set(K, field)
                slow = {
                    Codeword(m, K.n)
                    for m in K.face_bits
                    if not reduced_homology(link(K, Codeword(m, K.n)), field).is_trivial
                }
                assert fast.faces == slow

    def test_void_raises(self):
        with pytest.raises(VoidComplex):
            mandatory_set(SimplicialComplex(3, frozenset()), Field.GF2)


class TestMandatoryPartition:
    def test_single_edge_partition(self):
        K = code_complex(code(["12"], 2))
        part = mandatory_partition(K, Field.GF2)
        assert part.certified_in == frozenset({Codeword.empty(2), w("12", 2)})
        assert part.certified_out == frozenset({w("1", 2), w("2", 2)})
        assert part.unknown == frozenset()

    def test_triangle_with_pendant_edge(self):
        K = code_complex(code(["123", "24", "2"], 4))
        part = mandatory_partition(K, Field.GF2)
        assert {Codeword.empty(4), w("24", 4), w("123", 4)} <= part.certified_in

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_simplex(self, n):
        part = mandatory_partition(full_simplex(n), Field.GF2)
        top = Codeword((1 << n) - 1, n)
        assert part.certified_in == frozenset({Codeword.empty(n), top})
        assert part.unknown == frozenset()

    def test_partitions_all_faces(self):
        for K in seeded_complexes(40, seed=37, max_n=6):
            part = mandatory_partition(K, Field.GF2)
            union = part.certified_in | part.certified_out | part.unknown
            assert union == K.faces()
            assert not (part.certified_in & part.certified_out)
            assert not (part.certified_in & part.unknown)
            assert not (part.certified_out & part.unknown)

    def test_mandatory_set_inside_certified_in(self):
        for K in seeded_complexes(40, seed=43, max_n=6):
            for field in BOTH:
                mh = mandatory_set(K, field).faces
                part = mandatory_partition(K, field)
                assert mh <= part.certified_in
                assert frozenset(K.facet_index()) <= part.certified_in

    def test_certified_out_is_witnessed(self):
        for K in seeded_complexes(30, seed=47, max_n=5):
            part = mandatory_partition(K, Field.GF2)
            for sigma in part.certified_out:
                if facet_intersection(K, sigma) != sigma:
                    continue
                lk = link(K, sigma)
                assert ref_contractibility(lk, Field.GF2) is Verdict.CONTRACTIBLE

    def test_shortcut_equivalence(self):
        # without the cone shortcut every nonempty face is routed by the
        # face-set reference verdict of its link
        for K in seeded_complexes(40, seed=53, max_n=5):
            fast = mandatory_partition(K, Field.GF2)
            slow = {status: set() for status in Verdict}
            slow[Verdict.NON_CONTRACTIBLE].add(Codeword.empty(K.n))
            for m in K.face_bits - {0}:
                sigma = Codeword(m, K.n)
                slow[ref_contractibility(link(K, sigma), Field.GF2)].add(sigma)
            assert fast.certified_in == slow[Verdict.NON_CONTRACTIBLE]
            assert fast.certified_out == slow[Verdict.CONTRACTIBLE]
            assert fast.unknown == slow[Verdict.UNKNOWN]

    def test_ambient_verdict_exposed(self):
        part = mandatory_partition(full_simplex(3), Field.GF2)
        assert part.ambient_verdict is Verdict.CONTRACTIBLE
        hollow = cx(["12", "13", "23"], 3)
        assert mandatory_partition(hollow, Field.GF2).ambient_verdict is Verdict.NON_CONTRACTIBLE

    def test_json_keys(self):
        payload = mandatory_partition(full_simplex(2), Field.GF2).to_json_dict()
        assert list(payload) == ["field", "mh", "cmin_in", "cmin_out", "cmin_unknown",
                                 "complex_verdict"]
        assert payload["mh"] == ["11"]  # the facet, whose link is {∅}; K itself is a cone
        assert payload["cmin_in"] == ["00", "11"]  # sorted binaries

    def test_face_count_is_exact_up_to_n4(self):
        for n in range(1, 5):
            for K in enumerate_complexes(n):
                if not K.is_void:
                    assert complexes.face_count(K.facet_bits) == len(K.face_bits), K

    def test_out_masks_are_listed_up_to_the_bound(self, monkeypatch):
        """With the bound at 2^10, the full simplex on 10 vertices is listed
        and on 11 refused; the face count of the refusal is named."""
        monkeypatch.setattr(complexes, "MAX_LISTED_FACES", 1 << 10)
        mandatory_partition.cache_clear()  # no out_masks read under the real bound
        at = mandatory_partition(full_simplex(10), Field.GF2)
        assert len(at.out_masks) == (1 << 10) - 2  # all but ∅ and the facet
        above = mandatory_partition(full_simplex(11), Field.GF2)
        with pytest.raises(TooManyFaces, match="the complex has 2048$"):
            above.out_masks
        assert above.mandatory.masks == {(1 << 11) - 1}  # M_H needs no listing
        mandatory_partition.cache_clear()


class TestObstructionCheck:
    def test_pendant_code_passes(self):
        result = check_no_local_obstruction(code(["123", "24", "2"], 4))
        assert result.passes and not result.missing

    def test_single_word_code(self):
        result = check_no_local_obstruction(code(["2"], 3))
        assert result.passes

    def test_full_simplex_code(self):
        result = check_no_local_obstruction(code(["12", "1", "2"], 2))
        assert result.passes

    def test_missing_mandatory_word_detected(self):
        # drop the mandatory pendant vertex word from the code
        result = check_no_local_obstruction(code(["123", "24"], 4))
        assert not result.passes
        assert result.missing == frozenset({w("2", 4)})

    def test_disconnected_complex_needs_empty_word(self):
        # Δ({1,2}) is two points, so ∅ is homologically mandatory
        result = check_no_local_obstruction(code(["1", "2"], 2))
        assert not result.passes
        assert result.missing == frozenset({Codeword.empty(2)})
        fixed = check_no_local_obstruction(code(["1", "2", "∅"], 2))
        assert fixed.passes

    def test_empty_code_raises(self):
        with pytest.raises(VoidComplex):
            check_no_local_obstruction(NeuralCode(2, frozenset()))


def _by_definition(K, field):
    """M_H and the partition computed from every link directly, the
    partition by the face-set reference collapse."""
    mh, part = set(), {status: set() for status in Verdict}
    for m in K.face_bits:
        sigma = Codeword(m, K.n)
        lk = link(K, sigma)
        if not reduced_homology(lk, field).is_trivial:
            mh.add(sigma)
        status = Verdict.NON_CONTRACTIBLE if m == 0 else ref_contractibility(lk, field)
        part[status].add(sigma)
    return mh, part


@pytest.mark.parametrize("field", BOTH)
def test_mandatory_sets_match_their_definitions(field):
    rp2 = cx(RP2_FACETS, 6)
    cases = [K for n in range(1, 5) for K in enumerate_complexes(n) if not K.is_void]
    cases += [rp2, cone(rp2, 7), cone(cone(rp2, 7), 8)]
    for K in cases:
        mh, part = _by_definition(K, field)
        fast = mandatory_partition(K, field)
        assert mandatory_set(K, field).faces == fast.mandatory.faces == mh
        assert fast.certified_in == part[Verdict.NON_CONTRACTIBLE]
        assert fast.certified_out == part[Verdict.CONTRACTIBLE]
        assert fast.unknown == part[Verdict.UNKNOWN]
        # the mask classes are what the Codeword views are read from
        for masks, status in ((fast.in_masks, Verdict.NON_CONTRACTIBLE),
                              (fast.out_masks, Verdict.CONTRACTIBLE),
                              (fast.unknown_masks, Verdict.UNKNOWN)):
            assert masks == {c.bits for c in part[status]}
        assert fast.mandatory.masks == {c.bits for c in mh}


def test_mandatory_set_is_read_once_from_its_partition():
    part = mandatory_partition(full_simplex(3), Field.GF2)
    assert part.mandatory is part.mandatory
    assert mandatory_set(full_simplex(3), Field.GF2) is part.mandatory


def test_projective_plane_link_is_unknown_over_q():
    # the apex link is RP² itself: no dominated vertex, Euler characteristic
    # 0, and trivial rational homology, so only GF(2) certifies it
    K = cone(cx(RP2_FACETS, 6), 7)
    apex = Codeword(1 << 6, 7)
    assert apex in mandatory_partition(K, Field.RATIONAL).unknown
    assert apex in mandatory_set(K, Field.GF2).faces
    assert apex not in mandatory_set(K, Field.RATIONAL).faces


@pytest.mark.parametrize("field", BOTH)
def test_memo_keys_keep_no_face_set(field):
    # a complex held as a memo key keeps its facets alone
    K = cone(cx(RP2_FACETS, 6), 7)
    mandatory_partition(K, field)
    core_homology(K, field)
    reduced_homology(K, field)
    assert set(vars(K)) <= {"n", "facet_bits", "minimal_non_faces"}


def _face_by_face(K, field):
    """M_H and the partition read face by face: a face is a cone's when the
    facets holding it meet beyond it, and any other face has its link built
    and decided by ``reduced_homology`` and the face-set reference collapse."""
    mh, part = set(), {status: set() for status in Verdict}
    for m in K.face_bits:
        if m and reduce(and_, [f for f in K.facet_bits if not m & ~f]) != m:
            part[Verdict.CONTRACTIBLE].add(m)
            continue
        lk = link(K, Codeword(m, K.n))
        if not reduced_homology(lk, field).is_trivial:
            mh.add(m)
        part[Verdict.NON_CONTRACTIBLE if m == 0 else ref_contractibility(lk, field)].add(m)
    return mh, part


def _many_facet_complexes(count, seed):
    """Complexes on 5 to 8 vertices spanned by 8 to 24 random sets of 2 or 3
    vertices, so that the facet-intersection lattice is large."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 8)
        words = [sum(1 << v for v in rng.sample(range(n), rng.randint(2, 3)))
                 for _ in range(rng.randint(8, 24))]
        out.append(SimplicialComplex.from_masks(words, n))
    return out


@pytest.mark.parametrize("field", BOTH)
def test_lattice_partition_matches_the_face_by_face_reference(field):
    """Seeded codes on 5 to 8 neurons at five densities, complexes with many
    small facets, and the cone over RP²: every class of the partition, and
    M_H, equal the face-by-face reading."""
    cases = [code_complex(random_code(n, 97 * n + s, density))
             for n in range(5, 9) for s in range(3) for density in (0.05, 0.1, 0.2, 0.3, 0.45)]
    cases += _many_facet_complexes(40, seed=101) + [cone(cx(RP2_FACETS, 6), 7)]
    unknown = 0
    for K in cases:
        mh, part = _face_by_face(K, field)
        fast = mandatory_partition.__wrapped__(K, field)  # a miss, past the memo
        assert fast.in_masks == part[Verdict.NON_CONTRACTIBLE], K
        assert fast.out_masks == part[Verdict.CONTRACTIBLE], K
        assert fast.unknown_masks == part[Verdict.UNKNOWN], K
        assert fast.mandatory.masks == mandatory_set(K, field).masks == mh, K
        unknown += len(fast.unknown_masks)
    assert max(len(K.facet_bits) for K in cases) >= 15
    assert bool(unknown) is (field is Field.RATIONAL)  # the apex over RP²


def _watch_face_enumeration(monkeypatch):
    """Record every complex whose face set is built."""
    seen = []
    face_bits = SimplicialComplex.face_bits
    monkeypatch.setattr(SimplicialComplex, "face_bits",
                        property(lambda C: seen.append(C) or face_bits.fget(C)))
    return seen


@pytest.mark.parametrize("field", BOTH)
def test_partition_miss_enumerates_no_faces(monkeypatch, field):
    """A miss reads the facets alone: no face set, of K or of anything
    else, once the ranks of its cores are memoised."""
    for K in (cx(["1234", "345", "156", "26"], 6), cx(RP2_FACETS, 6), full_simplex(12)):
        expected = mandatory_partition(K, field)
        seen = _watch_face_enumeration(monkeypatch)
        part = mandatory_partition.__wrapped__(K, field)  # a miss, past the memo
        assert part == expected and part.mandatory == expected.mandatory
        assert seen == []
        monkeypatch.undo()


@pytest.mark.parametrize("field", BOTH)
def test_first_read_of_out_masks_enumerates_the_faces_once(monkeypatch, field):
    K = cx(["1234", "345", "156", "26"], 6)
    mandatory_partition(K, field)
    part = mandatory_partition.__wrapped__(K, field)
    seen = _watch_face_enumeration(monkeypatch)
    assert part.out_masks is part.out_masks
    assert part.certified_out == {Codeword(m, K.n) for m in part.out_masks}
    assert part.to_json_dict()["cmin_out"] == sorted(c.binary() for c in part.certified_out)
    assert seen == [K]


@pytest.mark.parametrize("field", BOTH)
def test_mh_and_the_link_law_rows_never_read_out_masks(monkeypatch, field):
    """``mh`` and the projection, duplicate and add-trivial-on instances read
    the certified-in and unknown classes only, so the certified-out faces
    are never enumerated for them."""
    def forbidden(part):
        raise AssertionError("out_masks read")

    monkeypatch.setattr(MandatoryPartition, "out_masks", property(forbidden))
    for K in seeded_complexes(30, seed=71, max_n=6):
        c = NeuralCode(K.n, K.facet_bits)
        mandatory_set(K, field)
        for delete in range(1, K.n + 1) if K.n > 1 else ():
            verify(Project(delete), c, field)
        verify(Duplicate(1), c, field)
        verify(AddTrivialOn(), c, field)
    with pytest.raises(AssertionError, match="out_masks read"):  # a row that compares it
        verify(Permute((2, 1)), NeuralCode(2, [0b01, 0b10]), field)
